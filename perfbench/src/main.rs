//! RiskRoute end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <paper-oneshot|synth10k-cold|serve-mixed> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the system only through its public functions and times each layer
//! from outside, around those calls. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it is the run's provenance. Traced runs also
//! write their spans to `.perfbench_out/`. Workloads, metrics and the
//! layer → end-to-end predictions are described in `perfbench/README.md`.

mod coldstart;
mod oneshot;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`): every workload reports every one.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("route_ms", "ms"),
    ("ratio_ms", "ms"),
    ("provision_ms", "ms"),
    ("replay_ms", "ms"),
    ("sweep_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`); 0 where a workload does not exercise
/// the layer.
const PER_LAYER: &[(&str, &str)] = &[
    ("topology.synth_ms", "ms"),
    ("cli.context_build_ms", "ms"),
    ("population.synthesize_ms", "ms"),
    ("population.assign_ms", "ms"),
    ("hazard.fit_ms", "ms"),
    ("hazard.risk_at_all_ms", "ms"),
    ("hazard.risk_at_all_share", "ratio"),
    ("hazard.risk_ms.wind", "ms"),
    ("hazard.risk_ms.storm", "ms"),
    ("hazard.risk_ms.hurricane", "ms"),
    ("hazard.risk_ms.tornado", "ms"),
    ("hazard.risk_ms.earthquake", "ms"),
    ("hazard.kernel_evals", "count"),
    ("hazard.ns_per_eval", "ns"),
    ("core.planner_new_ms", "ms"),
    ("engine.sssp_runs", "count"),
    ("engine.sssp_pops", "count"),
    ("engine.relaxations", "count"),
    ("engine.bucket_settles", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_insert_skips", "count"),
    ("engine.sssp_repairs", "count"),
    ("engine.trees_survived", "count"),
    ("engine.changed_edges", "count"),
    ("route.p99_ms", "ms"),
    ("intradomain.route_ms", "ms"),
    ("intradomain.pair_sweep_ms", "ms"),
    ("ratios.fold_ms", "ms"),
    ("intradomain.set_forecast_ms", "ms"),
    ("forecast.parse_ms", "ms"),
    ("forecast.risk_ms", "ms"),
    ("replay.pair_sweep_ms", "ms"),
    ("replay.tick_ms", "ms"),
    ("provisioning.greedy_ms", "ms"),
    ("provisioning.round_ms", "ms"),
    ("scenario.sweep_ms", "ms"),
    ("scenario.baseline_ms", "ms"),
    ("scenario.fork_ms", "ms"),
    ("scenario.trees_adopted", "count"),
    ("cli.unattributed_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("serve.request_us.p50", "us"),
    ("serve.request_us.p99", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.client_gap_us", "us"),
    ("serve.overloaded", "count"),
    ("serve.generator_late_ms", "ms"),
    ("serve.goodput_rps", "1/s"),
    ("par.workers", "count"),
    ("obs.tracing_overhead", "ratio"),
];

/// What a workload run measured and checked.
pub struct RunResult {
    attempted: u64,
    failures: Vec<String>,
    metrics: BTreeMap<String, f64>,
    /// Extra provenance fields: key and raw JSON value.
    provenance: Vec<(String, String)>,
    /// Per-metric sample summaries (median, quartiles, min).
    summaries: Vec<(String, String)>,
    trace_json: Option<String>,
    /// The run's reference-work timings, ms.
    refs: Vec<f64>,
}

impl RunResult {
    fn new(attempted: u64, failures: Vec<String>) -> Self {
        RunResult {
            attempted,
            failures,
            metrics: BTreeMap::new(),
            provenance: Vec::new(),
            summaries: Vec::new(),
            trace_json: None,
            refs: Vec::new(),
        }
    }

    /// Record an end-to-end metric and the raw samples it summarises.
    fn set_e2e(&mut self, name: &str, value: f64, samples: &[f64]) {
        self.metrics.insert(name.to_string(), value);
        self.summaries
            .push((name.to_string(), stats::summary(samples)));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.clamp(1, 60),
        trace: trace.unwrap_or(false),
    })
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unavailable".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut result = match args.workload.as_str() {
        "paper-oneshot" => oneshot::run(
            &oneshot::paper_oneshot(),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "synth10k-cold" => oneshot::run(
            &oneshot::synth10k_cold(),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve-mixed" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let rss = stats::peak_rss_mb();
    result.set_e2e("peak_rss_mb", rss, &[rss]);

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut failures = result.failures;
    if result.refs.is_empty() {
        failures.push("no reference-work timings".into());
    }
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = match result.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            _ if args.trace => 0.0,
            _ => {
                failures.push(format!("no measurement for {name}"));
                0.0
            }
        };
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    for f in failures.iter().take(20) {
        eprintln!("perfbench: FAILED: {f}");
    }

    let out_dir = std::path::Path::new(".perfbench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut provenance = vec![
        ("workload".to_string(), format!("\"{}\"", args.workload)),
        ("git_rev".into(), format!("\"{}\"", git_rev())),
        ("nproc".into(), threads.to_string()),
        (
            "profile".into(),
            format!(
                "\"{}\"",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
            ),
        ),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
    ];
    provenance.extend(result.provenance);
    provenance.push((
        "host_factor".into(),
        (stats::median(&result.refs) / stats::REFERENCE_MS).to_string(),
    ));
    provenance.push(("reference_ms".into(), stats::summary(&result.refs)));
    let summaries: Vec<String> = result
        .summaries
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    provenance.push(("samples".into(), format!("{{{}}}", summaries.join(","))));
    let provenance = format!(
        "{{\"provenance\":{{{}}}}}",
        provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(out_dir.join(format!("{stem}.provenance.json")), &provenance)?;
        match &result.trace_json {
            Some(spans) => std::fs::write(out_dir.join(format!("{stem}.spans.json")), spans),
            None => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", out_dir.display());
    }

    println!("{provenance}");
    let failed = (failures.len() as u64).min(result.attempted.max(1));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failures.is_empty(),
        result.attempted.max(1),
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
