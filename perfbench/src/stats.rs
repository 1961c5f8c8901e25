//! Timing, span recording, summary statistics and output digests.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer times (ms) or counts, keyed by metric name.
pub type Layers = BTreeMap<String, f64>;

/// Add `v` to the entry `name` of `layers`.
pub fn add(layers: &mut Layers, name: &str, v: f64) {
    *layers.entry(name.to_string()).or_insert(0.0) += v;
}

/// One recorded span: a named interval with the span that enclosed it.
struct SpanRec {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// The benchmark's own span recorder. Spans are taken from outside the
/// program, around calls into its layers, and kept in memory until the run
/// ends. When off, `open`/`close` only time.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

/// An open span; hand it back to [`Tracer::close`].
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            let idx = self.spans.len();
            self.spans.push(SpanRec {
                name: name.to_string(),
                start_us: (start - self.epoch).as_secs_f64() * 1e6,
                end_us: f64::NAN,
                parent: self.stack.last().copied(),
            });
            self.stack.push(idx);
            idx
        });
        Open { idx, start }
    }

    /// Close `open` and return its duration in milliseconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            self.spans[idx].end_us = (end - self.epoch).as_secs_f64() * 1e6;
            self.stack.retain(|&i| i != idx);
        }
        (end - open.start).as_secs_f64() * 1e3
    }

    /// Time `f` as one span and add its duration to `layers[name]`.
    pub fn layer<T>(&mut self, layers: &mut Layers, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        let ms = self.close(open);
        add(layers, &format!("{name}_ms"), ms);
        out
    }

    /// The spans as a JSON array (name, start and end in µs since the run
    /// began, parent index or null), plus each span's self time.
    pub fn to_json(&self) -> String {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"self_us\":{:.1}}}",
                    s.name,
                    s.start_us,
                    s.end_us,
                    s.end_us - s.start_us - child_us[i]
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Summary of one metric's samples within a run, for the provenance record.
pub fn summary(xs: &[f64]) -> String {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    format!(
        "{{\"n\":{},\"median\":{},\"p10\":{},\"q1\":{},\"q3\":{},\"min\":{}}}",
        xs.len(),
        median(xs),
        quantile(xs, 0.1),
        quantile(xs, 0.25),
        quantile(xs, 0.75),
        if xs.is_empty() { 0.0 } else { min }
    )
}

/// FNV-1a over bytes: a stable digest of an op's output.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a float vector by exact bit pattern.
pub fn digest_bits(xs: impl IntoIterator<Item = f64>) -> u64 {
    let bytes: Vec<u8> = xs
        .into_iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    digest(&bytes)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The nominal wall clock of [`reference_work`], ms: end-to-end times are
/// reported as on a host that runs the reference work in this long.
pub const REFERENCE_MS: f64 = 10.0;

/// How many reference timings, nearest in time, one host factor rests on.
const NEAR: usize = 5;

/// The host's speed over a run, from [`reference_work`] timed between the
/// workload's own calls.
///
/// A shared host's speed drifts by tens of percent within seconds and
/// across minutes, and every time measured in a run drifts with it. A
/// sample divided by the host factor around it (the median of the nearest
/// reference timings over [`REFERENCE_MS`]) is the time the same work takes
/// at the nominal speed; a change to the program moves it as it moves the
/// raw time, because the reference work never calls the program. When the
/// workload's ops run on several workers, the reference work is also timed
/// on that many threads at once, and parallel ops are divided by that
/// timing: a slow core slows it as it slows a parallel op.
pub struct HostClock {
    workers: usize,
    /// Reference timings on one thread, and on `workers` threads at once.
    refs: Vec<(Instant, f64)>,
    parallel_refs: Vec<(Instant, f64)>,
}

impl HostClock {
    pub fn new(workers: usize) -> Self {
        HostClock {
            workers: workers.max(1),
            refs: Vec::new(),
            parallel_refs: Vec::new(),
        }
    }

    /// Time the reference work now: on one thread, then (with several
    /// workers) on every worker at once, until the last one finishes.
    pub fn tick(&mut self) {
        let at = Instant::now();
        reference_work();
        self.refs.push((at, at.elapsed().as_secs_f64() * 1e3));
        if self.workers > 1 {
            let at = Instant::now();
            std::thread::scope(|s| {
                for _ in 1..self.workers {
                    s.spawn(reference_work);
                }
                reference_work();
            });
            self.parallel_refs
                .push((at, at.elapsed().as_secs_f64() * 1e3));
        }
    }

    /// The host factor around the middle of an interval of `ms` that
    /// began at `start`, for work on one thread or (`parallel`) on every
    /// worker; 1.0 when nothing was timed.
    pub fn factor_over(&self, start: Instant, ms: f64, parallel: bool) -> f64 {
        let at = start + Duration::from_secs_f64(ms.max(0.0) / 2e3);
        let refs = if parallel && self.workers > 1 {
            &self.parallel_refs
        } else {
            &self.refs
        };
        let mut near: Vec<(Duration, f64)> = refs
            .iter()
            .map(|&(t, ms)| (t.max(at) - t.min(at), ms))
            .collect();
        near.sort_by_key(|&(d, _)| d);
        let ms: Vec<f64> = near.iter().take(NEAR).map(|&(_, ms)| ms).collect();
        if ms.is_empty() {
            1.0
        } else {
            median(&ms) / REFERENCE_MS
        }
    }

    /// Every one-thread reference timing of the run, ms.
    pub fn timings(&self) -> Vec<f64> {
        self.refs.iter().map(|&(_, ms)| ms).collect()
    }
}

/// A fixed piece of CPU work that does not call the program: a
/// Gaussian-kernel sum, floating-point and `exp` bound like the hazard
/// kernel and the engine's cost arithmetic. Of the kernels tried on the
/// host this benchmark was sized on (this one, a binary-heap Dijkstra over
/// a random graph, random loads from a 32 MB array, and string formatting
/// into a hash map), this one followed the host's drift most closely: over
/// 200 s, dividing a Telepak all-pairs sweep's 10 s medians by it cut their
/// spread (standard deviation of the logarithm) from 0.15 to 0.025; the
/// Dijkstra cut it to 0.06 and the random loads to 0.08.
fn reference_work() {
    let mut acc = 0.0f64;
    for i in 0..1_200_000u32 {
        let z = f64::from(i % 997) * 0.01 - 5.0;
        acc += (-0.5 * z * z).exp();
    }
    std::hint::black_box(acc);
}
