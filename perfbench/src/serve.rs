//! The serve workload: a warm `riskroute serve` daemon (`Server` +
//! `ServeHandler`, default `ServeConfig`) on loopback, driven open loop.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use riskroute::prelude::*;
use riskroute_cli::args::BudgetArgs;
use riskroute_cli::commands::{self, ServeHandler};
use riskroute_cli::CliContext;
use riskroute_obs::{Histogram, MetricsSnapshot};
use riskroute_rng::StdRng;
use riskroute_serve::{QueryHandler, ServeConfig, Server};

use crate::coldstart::{cold_start, setup_metrics, WEIGHTS};
use crate::oneshot::add_engine_counters;
use crate::stats::{median, quantile, HostClock, Layers, Tracer};
use crate::RunResult;

/// Offered load: route reads every 2.5 ms on one connection and one
/// heavier op every 200 ms on the other, each on a fixed grid. A fixed
/// grid (seeded content, not seeded gaps) keeps the load the same from run
/// to run. The heavy grid leaves room for the longest heavy op, so heavy
/// requests do not queue behind each other, and reads never queue behind a
/// heavy op on their own connection: what reads feel of the heavy ops is
/// the daemon's shared state (CPU, the shared route-tree cache).
const ROUTE_GAP: Duration = Duration::from_micros(2_500);
const HEAVY_GAP: Duration = Duration::from_millis(200);
const CONNECTIONS: usize = 2;
/// When, within a heavy slot, the reference work runs: after the slot's
/// heavy op has finished, before the next one is due.
const REFERENCE_OFFSET: Duration = Duration::from_millis(180);
const ROUTE_CONN: usize = 0;
const HEAVY_CONN: usize = 1;
/// Distinct route pairs per network; reads repeat them, as clients do.
const ROUTE_POOL: usize = 64;
/// Cold starts per run, for the `setup_s` median.
const SETUPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Route,
    Ratio,
    Provision,
    Replay,
    Sweep,
}

impl Kind {
    fn metric(self) -> &'static str {
        match self {
            Kind::Route => "route_ms",
            Kind::Ratio => "ratio_ms",
            Kind::Provision => "provision_ms",
            Kind::Replay => "replay_ms",
            Kind::Sweep => "sweep_ms",
        }
    }
}

/// A distinct request and the one-shot output it must reproduce.
struct Distinct {
    kind: Kind,
    json: String,
    expected: String,
}

/// Every distinct request, answered once through `commands::*` on a
/// context of its own: serve replies must be byte-identical to these.
fn distinct_requests(seed: u64) -> Result<Vec<Distinct>, String> {
    let ctx = CliContext::build(&[]).map_err(|e| e.to_string())?;
    let budget = BudgetArgs::default();
    let err = |e: riskroute_cli::CliError| e.to_string();
    let mut out = Vec::new();
    for (net, salt) in [("Level3", 0), ("Telepak", 1)] {
        let n = ctx.network(net).map_err(err)?.pop_count();
        for (s, d) in commands::sampled_pairs(n, ROUTE_POOL, seed ^ salt) {
            out.push(Distinct {
                kind: Kind::Route,
                json: format!(r#""op":"route","network":"{net}","src":"{s}","dst":"{d}""#),
                expected: commands::route(&ctx, net, &s.to_string(), &d.to_string(), WEIGHTS)
                    .map_err(err)?,
            });
        }
    }
    out.push(Distinct {
        kind: Kind::Replay,
        json: r#""op":"replay","network":"Telepak","storm":"katrina","stride":16"#.into(),
        expected: commands::replay(&ctx, "Telepak", "katrina", 16, WEIGHTS, &budget, false)
            .map_err(err)?,
    });
    out.push(Distinct {
        kind: Kind::Sweep,
        json: r#""op":"sweep","network":"Telepak","mode":"n1""#.into(),
        expected: commands::sweep(
            &ctx,
            "Telepak",
            "n1",
            64,
            riskroute_cli::CLI_SEED,
            WEIGHTS,
            &budget,
            false,
        )
        .map_err(err)?,
    });
    out.push(Distinct {
        kind: Kind::Ratio,
        json: r#""op":"ratio","network":"Telepak""#.into(),
        expected: commands::ratio(&ctx, "Telepak", WEIGHTS, None, riskroute_cli::CLI_SEED)
            .map_err(err)?,
    });
    out.push(Distinct {
        kind: Kind::Provision,
        json: r#""op":"provision","network":"Telepak","k":2"#.into(),
        expected: commands::provision(&ctx, "Telepak", 2, WEIGHTS, &budget, false).map_err(err)?,
    });
    Ok(out)
}

/// One scheduled request.
struct Planned {
    due: Duration,
    conn: usize,
    distinct: usize,
}

/// The seeded open-loop schedule over `seconds`: seeded route reads on a
/// 2.5 ms grid on one connection, and a 200 ms grid of heavier ops on the
/// other, cycling through replay, sweep, ratio and provision.
fn schedule(distinct: &[Distinct], seed: u64, seconds: u64) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0073_6572_7665);
    let routes: Vec<usize> = (0..distinct.len())
        .filter(|&i| distinct[i].kind == Kind::Route)
        .collect();
    let of = |k: Kind| distinct.iter().position(|d| d.kind == k).unwrap_or(0);
    let span = Duration::from_secs(seconds);
    let n_routes = (span.as_micros() / ROUTE_GAP.as_micros()) as usize;
    let n_heavy = (span.as_micros() / HEAVY_GAP.as_micros()) as usize;
    // A fixed cycle: each heavy op always follows the same one, so it meets
    // the same route-tree cache state (a replay leaves forecast-stamped
    // trees behind) in every run.
    let heavy: Vec<usize> = (0..n_heavy)
        .map(|j| match j % 4 {
            0 => of(Kind::Replay),
            1 => of(Kind::Sweep),
            2 => of(Kind::Ratio),
            _ => of(Kind::Provision),
        })
        .collect();
    let mut plan: Vec<Planned> = (0..n_routes)
        .map(|k| Planned {
            due: ROUTE_GAP * k as u32 + ROUTE_GAP / 2,
            conn: ROUTE_CONN,
            distinct: routes[rng.gen_range(0..routes.len())],
        })
        .chain(heavy.into_iter().enumerate().map(|(j, d)| Planned {
            due: HEAVY_GAP * j as u32 + ROUTE_GAP / 4,
            conn: HEAVY_CONN,
            distinct: d,
        }))
        .collect();
    plan.sort_by_key(|p| p.due);
    plan
}

/// What the client saw of one request.
struct Seen {
    late_ms: f64,
    latency_ms: f64,
    ok: bool,
    overloaded: bool,
}

/// Sleep until `at`, spinning out the last stretch so requests leave on
/// time rather than a scheduler tick late.
fn wait_until(at: Instant) {
    let spin = Duration::from_micros(200);
    let now = Instant::now();
    if at > now + spin {
        std::thread::sleep(at - now - spin);
    }
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

/// Drive one connection: a writer that sends each request when it is due,
/// whatever came back, and a reader that timestamps the replies. Latency
/// is measured from the due time, so a stall also delays what queued
/// behind it.
fn drive(
    addr: std::net::SocketAddr,
    plan: &[(usize, &Planned)],
    distinct: &[Distinct],
    t0: Instant,
    seen: &mut [Option<Seen>],
    mismatches: &mut Vec<String>,
) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    // A reply that never comes fails the run instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream);
    std::thread::scope(|s| {
        let send = s.spawn(move || -> Result<Vec<f64>, String> {
            let mut late = Vec::with_capacity(plan.len());
            for &(id, p) in plan {
                let due = t0 + p.due;
                wait_until(due);
                late.push(due.elapsed().as_secs_f64() * 1e3);
                let line = format!("{{\"id\":{id},{}}}\n", distinct[p.distinct].json);
                writer
                    .write_all(line.as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
            }
            Ok(late)
        });
        let mut received: Vec<(Instant, String)> = Vec::with_capacity(plan.len());
        for line in reader.lines().take(plan.len()) {
            let line = line.map_err(|e| format!("receive: {e}"))?;
            received.push((Instant::now(), line));
        }
        let late = send.join().map_err(|_| "sender panicked".to_string())??;
        if received.len() != plan.len() {
            return Err(format!("{} of {} replies", received.len(), plan.len()));
        }
        for (((id, p), (at, line)), late_ms) in plan.iter().zip(received).zip(late) {
            let reply = riskroute_json::parse(&line).map_err(|e| format!("reply {id}: {e}"))?;
            let status = reply.field("status").and_then(|s| s.as_str()).unwrap_or("");
            let output = reply.field("output").and_then(|s| s.as_str()).unwrap_or("");
            let same_id = reply.field("id").and_then(|v| v.as_usize()).ok() == Some(*id);
            let ok = status == "ok" && same_id && output == distinct[p.distinct].expected;
            if status == "ok" && !ok {
                mismatches.push(format!(
                    "request {id}: reply differs from the one-shot output"
                ));
            }
            seen[*id] = Some(Seen {
                late_ms,
                latency_ms: (at - (t0 + p.due)).as_secs_f64() * 1e3,
                ok,
                overloaded: status == "overloaded",
            });
        }
        Ok(())
    })
}

fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> Option<Histogram> {
    let a = after.histograms.get(name)?;
    let counts: Vec<u64> = match before.histograms.get(name) {
        Some(b) => a
            .counts()
            .iter()
            .zip(b.counts())
            .map(|(x, y)| x - y)
            .collect(),
        None => a.counts().to_vec(),
    };
    let sum = a.sum() - before.histograms.get(name).map_or(0.0, Histogram::sum);
    Histogram::from_parts(a.bounds().to_vec(), counts, sum)
}

/// Quantile `q` of a bucketed histogram, interpolated inside the bucket.
fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    let total = h.count() as f64;
    if total == 0.0 {
        return 0.0;
    }
    let target = q * total;
    let mut below = 0.0;
    for (i, &c) in h.counts().iter().enumerate() {
        let c = c as f64;
        if below + c >= target && c > 0.0 {
            let lo = if i == 0 { 0.0 } else { h.bounds()[i - 1] };
            let hi = h.bounds().get(i).copied().unwrap_or(lo);
            return lo + (hi - lo) * (target - below) / c;
        }
        below += c;
    }
    h.bounds().last().copied().unwrap_or(0.0)
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> RunResult {
    let mut failures = Vec::new();
    let mut tr = Tracer::new(traced);
    let distinct = match distinct_requests(seed) {
        Ok(d) => d,
        Err(e) => return RunResult::new(1, vec![format!("one-shot reference outputs: {e}")]),
    };
    // The production daemon runs with the collector on (its histograms
    // and /metrics need it), so the benchmark does too.
    riskroute_obs::enable();
    let mut setups = Vec::new();
    let mut setups_normalised = Vec::new();
    let mut colds: Vec<(f64, Layers)> = Vec::new();
    let mut server = None;
    // Each request runs on its connection's thread, one core at a time.
    let mut clock = HostClock::new(1);
    for i in 0..SETUPS {
        clock.tick();
        let t = Instant::now();
        let cold = match cold_start(
            &mut tr,
            traced,
            None,
            &["Level3", "Telepak"],
            Parallelism::Sequential,
        ) {
            Ok(c) => c,
            Err(e) => return RunResult::new(1, vec![format!("cold start: {e}")]),
        };
        colds.push((cold.wall_ms, cold.layers));
        let handler: Arc<dyn QueryHandler> = Arc::new(ServeHandler::new(cold.ctx, WEIGHTS, None));
        let open = tr.open("serve.bind");
        let bound = Server::bind_tcp("127.0.0.1:0", handler, ServeConfig::default());
        tr.close(open);
        let spawned = match bound {
            Ok(s) => s.spawn(),
            Err(e) => return RunResult::new(1, vec![format!("bind: {e}")]),
        };
        let setup_s = t.elapsed().as_secs_f64();
        setups.push(setup_s);
        setups_normalised.push(setup_s / clock.factor_over(t, setup_s * 1e3, false));
        if i + 1 < SETUPS {
            spawned.drain_and_join();
        } else {
            server = Some(spawned);
        }
    }
    let Some(server) = server else {
        return RunResult::new(1, vec!["no server".into()]);
    };
    let Some(addr) = server.addr else {
        return RunResult::new(1, vec!["server has no TCP address".into()]);
    };

    // Warm-up, before timing: every distinct request once, closed loop.
    let warm: Vec<Planned> = (0..distinct.len())
        .map(|i| Planned {
            due: Duration::ZERO,
            conn: 0,
            distinct: i,
        })
        .collect();
    let warm_plan: Vec<(usize, &Planned)> = warm.iter().enumerate().collect();
    let mut warm_seen: Vec<Option<Seen>> = (0..warm.len()).map(|_| None).collect();
    let open = tr.open("serve.warmup");
    if let Err(e) = drive(
        addr,
        &warm_plan,
        &distinct,
        Instant::now(),
        &mut warm_seen,
        &mut failures,
    ) {
        failures.push(format!("warm-up: {e}"));
    }
    tr.close(open);
    let mut attempted = warm.len() as u64;
    for (i, s) in warm_seen.iter().enumerate() {
        if !s.as_ref().is_some_and(|s| s.ok) {
            failures.push(format!("warm-up request {i} failed"));
        }
    }

    let plan = schedule(&distinct, seed, seconds);
    attempted += plan.len() as u64;
    let mut seen: Vec<Option<Seen>> = (0..plan.len()).map(|_| None).collect();
    let before = riskroute_obs::snapshot();
    let t0 = Instant::now() + Duration::from_millis(20);
    let open = tr.open("serve.load");
    let mut per_conn_seen: Vec<Vec<Option<Seen>>> = Vec::new();
    let mut per_conn_fail: Vec<Vec<String>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mine: Vec<(usize, &Planned)> = plan
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.conn == c)
                    .collect();
                let distinct = &distinct;
                let n = plan.len();
                s.spawn(move || {
                    let mut seen: Vec<Option<Seen>> = (0..n).map(|_| None).collect();
                    let mut fails = Vec::new();
                    if let Err(e) = drive(addr, &mine, distinct, t0, &mut seen, &mut fails) {
                        fails.push(format!("connection {c}: {e}"));
                    }
                    (seen, fails)
                })
            })
            .collect();
        // The main thread times the reference work while the load runs:
        // in every heavy slot, after the slot's heavy op has normally
        // finished and just before the next one is due. When traced it
        // also switches the collector on and off in alternate one-second
        // windows, for the tracing overhead.
        let span = Duration::from_secs(seconds);
        let mut events: Vec<(Duration, Option<bool>)> = (0..)
            .map(|k| HEAVY_GAP * k + REFERENCE_OFFSET)
            .take_while(|&at| at < span)
            .map(|at| (at, None))
            .collect();
        if traced {
            events.extend((0..=seconds).map(|w| (Duration::from_secs(w), Some(w % 2 == 0))));
        }
        events.sort_by_key(|e| e.0);
        for (at, collector_on) in events {
            wait_until(t0 + at);
            match collector_on {
                Some(true) => riskroute_obs::enable(),
                Some(false) => riskroute_obs::disable(),
                None => clock.tick(),
            }
        }
        for h in handles {
            match h.join() {
                Ok((s, f)) => {
                    per_conn_seen.push(s);
                    per_conn_fail.push(f);
                }
                Err(_) => per_conn_fail.push(vec!["load thread panicked".into()]),
            }
        }
    });
    riskroute_obs::enable();
    let load_ms = tr.close(open);
    let after = riskroute_obs::snapshot();
    for f in per_conn_fail {
        failures.extend(f);
    }
    for conn in per_conn_seen {
        for (i, s) in conn.into_iter().enumerate() {
            if s.is_some() {
                seen[i] = s;
            }
        }
    }
    let drained = server.drain_and_join();
    if drained.forced {
        failures.push("daemon drain was forced".into());
    }

    let mut out_samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut normalised: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut ok, mut overloaded, mut late_max) = (0u64, 0u64, 0.0f64);
    let mut on_route = Vec::new();
    let mut off_route = Vec::new();
    let mut client_total_ms = 0.0;
    for (i, (p, s)) in plan.iter().zip(&seen).enumerate() {
        let Some(s) = s else {
            failures.push(format!("request {i}: no reply"));
            continue;
        };
        late_max = late_max.max(s.late_ms);
        if s.overloaded {
            overloaded += 1;
        }
        if !s.ok {
            failures.push(format!("request {i}: not ok"));
            continue;
        }
        ok += 1;
        let kind = distinct[p.distinct].kind;
        out_samples
            .entry(kind.metric())
            .or_default()
            .push(s.latency_ms);
        // Route reads wait out the request gap (the daemon leaves Nagle on,
        // so a reply waits for the ACK the next request carries); their
        // latency follows the schedule, not the host's speed, and stays
        // raw. The heavy ops' latency is CPU work and is host-normalised.
        let factor = if kind == Kind::Route {
            1.0
        } else {
            clock.factor_over(t0 + p.due, s.latency_ms, false)
        };
        normalised
            .entry(kind.metric())
            .or_default()
            .push(s.latency_ms / factor);
        let window_on = !traced || p.due.as_secs() % 2 == 0;
        if window_on {
            client_total_ms += s.latency_ms;
        }
        if kind == Kind::Route {
            if window_on {
                &mut on_route
            } else {
                &mut off_route
            }
            .push(s.latency_ms);
        }
    }

    let mut out = RunResult::new(attempted, failures);
    out.refs = clock.timings();
    out.provenance.push((
        "repetitions".into(),
        format!("{{\"setups\":{SETUPS},\"requests\":{}}}", plan.len()),
    ));
    out.provenance.push(("workers".into(), "1".into()));
    out.provenance.push((
        "offered_rps".into(),
        format!("{}", plan.len() as f64 / seconds.max(1) as f64),
    ));
    out.set_e2e("setup_s", median(&setups_normalised), &setups);
    if let Some(routes) = out_samples.get("route_ms") {
        out.metrics
            .insert("route.p99_ms".into(), quantile(routes, 0.99));
    }
    for (m, v) in &out_samples {
        out.set_e2e(m, median(&normalised[m]), v);
    }
    if traced {
        let m = &mut out.metrics;
        setup_metrics(&colds.iter().collect::<Vec<_>>(), m);
        let req = hist_delta(&before, &after, "serve_request_us_route");
        let wait = hist_delta(&before, &after, "serve_queue_wait_us_route");
        let all = hist_delta(&before, &after, "serve_request_us");
        if let Some(h) = &req {
            m.insert("serve.request_us.p50".into(), hist_quantile(h, 0.5));
            m.insert("serve.request_us.p99".into(), hist_quantile(h, 0.99));
            // Mean client latency minus mean daemon latency, over the
            // windows in which the daemon recorded.
            let client_mean_us = on_route.iter().sum::<f64>() * 1e3 / on_route.len().max(1) as f64;
            let daemon_mean_us = h.sum() / h.count().max(1) as f64;
            m.insert(
                "serve.client_gap_us".into(),
                client_mean_us - daemon_mean_us,
            );
        }
        if let Some(h) = &wait {
            m.insert("serve.queue_wait_us.p99".into(), hist_quantile(h, 0.99));
        }
        if let Some(h) = &all {
            m.insert(
                "trace.coverage".into(),
                h.sum() / 1e3 / client_total_ms.max(1e-9),
            );
        }
        let mut counters = Layers::new();
        let delta: BTreeMap<String, u64> = after
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - before.counters.get(k).copied().unwrap_or(0)))
            .collect();
        add_engine_counters(&mut counters, &delta);
        m.extend(counters);
        m.insert(
            "obs.tracing_overhead".into(),
            median(&on_route) / median(&off_route),
        );
        m.insert("serve.overloaded".into(), overloaded as f64);
        m.insert("serve.generator_late_ms".into(), late_max);
        m.insert("serve.goodput_rps".into(), ok as f64 * 1e3 / load_ms);
        m.insert("par.workers".into(), 1.0);
    }
    out.trace_json = traced.then(|| tr.to_json());
    out
}
