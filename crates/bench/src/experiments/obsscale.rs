//! Tracing-overhead scaling: what enabled collection costs on real paths.
//!
//! `scripts/ci.sh` guards the CLI end-to-end (provisioning run, enabled vs
//! disabled, <10% wall clock). This experiment measures the same contract
//! at finer grain on the two paths the request-scoped tracing work touches:
//!
//! 1. **Figure-11 pair sweep** — `score_peerings` for one regional network
//!    over the merged interdomain topology, run three ways: collector
//!    disabled, enabled, and enabled inside an [`riskroute_obs::ObsScope`]
//!    (per-trace counter attribution active). The scored candidate lists
//!    are asserted identical before any timing is trusted.
//! 2. **Serve request path** — an in-process daemon answering `ping`
//!    (protocol floor: framing + dispatch + per-op histograms + SLO
//!    accounting) and warm-cache `route` round-trips, collector disabled
//!    vs enabled. Reply bytes are asserted identical both ways.
//!
//! Each workload warms up first (one untimed pass of every arm), then its
//! arms run interleaved for [`TRIALS`] rounds, rotating which arm goes
//! first, and each arm keeps its best wall time. Wall times, per-unit
//! microseconds, and enabled-vs-disabled ratios land in a text table and
//! machine-readable in `results/BENCH_obs.json`. The ratios are indicative,
//! not a gate — the hard <10% bound lives in CI.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use crate::{best_of_interleaved, emit, emit_named, timed, ExperimentContext, TextTable};
use riskroute::interdomain::InterdomainAnalysis;
use riskroute::peering::score_peerings;
use riskroute::prelude::*;
use riskroute_cli::commands::ServeHandler;
use riskroute_cli::{parse_args, CliContext};
use riskroute_json::Json;
use riskroute_serve::{ServeConfig, Server, SpawnedServer};
use riskroute_topology::colocation::DEFAULT_COLOCATION_MILES;
use riskroute_topology::Network;

/// Round-trips per serve segment (one connection, strictly sequential).
const PING_ROUNDS: usize = 400;
/// Warm-cache route round-trips per serve segment.
const ROUTE_ROUNDS: usize = 200;
/// Interleaved timing rounds; each arm keeps its best.
const TRIALS: usize = 15;

/// One measured segment.
struct Segment {
    name: &'static str,
    wall_ms: f64,
    units: u64,
}

impl Segment {
    fn unit_us(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.wall_ms * 1e3 / self.units as f64
        }
    }
}

/// Spawn the in-process query daemon over the standard corpus.
fn daemon() -> (SpawnedServer, SocketAddr) {
    let cli_ctx = CliContext::build(&[]).expect("cli context");
    let cli = parse_args(&["corpus".to_string()]).expect("parse corpus command");
    let handler = Arc::new(ServeHandler::new(cli_ctx, cli.weights(), None));
    let server =
        Server::bind_tcp("127.0.0.1:0", handler, ServeConfig::default()).expect("bind daemon");
    let addr = server.local_addr().expect("daemon addr");
    (server.spawn(), addr)
}

/// Issue `line` `n` times on one connection and collect the raw replies.
/// Each request goes out as a single write on a no-delay socket so the
/// measurement sees the daemon, not Nagle/delayed-ACK stalls.
fn roundtrips(addr: SocketAddr, line: &str, n: usize) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("set nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let frame = format!("{line}\n");
    let mut replies = Vec::with_capacity(n);
    for _ in 0..n {
        writer.write_all(frame.as_bytes()).expect("write request");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        replies.push(reply);
    }
    replies
}

/// Switch the process-global collector on or off.
fn set_tracing(on: bool) {
    if on {
        riskroute_obs::enable();
    } else {
        riskroute_obs::disable();
    }
}

/// Ratio of an enabled segment's per-unit time to its disabled baseline.
fn vs_off(seg: &Segment, off: &Segment) -> f64 {
    if off.wall_ms == 0.0 {
        1.0
    } else {
        seg.wall_ms / off.wall_ms
    }
}

/// Regenerate the overhead table; returns the rendered rows so the harness
/// can append them to `results/timings.txt`.
pub fn run(ctx: &ExperimentContext) -> String {
    // Workload 1: the Figure-11 pair sweep. The interdomain analysis is
    // built once, untimed — construction is identical either way and not
    // what this measures.
    let networks: Vec<&Network> = ctx.corpus.all_networks().collect();
    let analysis = InterdomainAnalysis::new(
        &networks,
        &ctx.corpus.peering,
        &ctx.population,
        &ctx.hazards,
        RiskWeights::historical_only(1e5),
    );
    let regional = ctx
        .corpus
        .regional
        .first()
        .expect("standard corpus has regional networks");
    let sources = analysis
        .topology()
        .pops_of(regional.name())
        .expect("regional in merged topology");
    let mut dests = Vec::new();
    for net in &ctx.corpus.regional {
        dests.extend(
            analysis
                .topology()
                .pops_of(net.name())
                .expect("regional in merged topology"),
        );
    }
    let sweep = || {
        score_peerings(
            &analysis,
            regional,
            &networks,
            &ctx.corpus.peering,
            DEFAULT_COLOCATION_MILES,
            &sources,
            &dests,
        )
    };

    // Arms: collector off, on, and on inside a scope (per-trace counter
    // attribution active). The warm-up pass pays one-time lazy costs inside
    // the analysis and keeps each arm's scores to check every timed run.
    let scope = riskroute_obs::ObsScope::begin("obsscale_sweep");
    let sweep_arm = |arm: usize| {
        set_tracing(arm > 0);
        let _attr = (arm == 2).then(|| scope.enter());
        timed(sweep)
    };
    let scored: Vec<_> = (0..3).map(|arm| sweep_arm(arm).1).collect();
    assert_eq!(scored[0], scored[1], "tracing changed the peering scores");
    assert_eq!(
        scored[0], scored[2],
        "scoped attribution changed the peering scores"
    );
    let sweep_ms = best_of_interleaved(3, TRIALS, |arm| {
        let (wall_ms, out) = sweep_arm(arm);
        assert_eq!(out, scored[0], "peering scores changed between trials");
        wall_ms
    });
    let candidates = scored[0].len() as u64;

    // Workload 2: the serve request path. One daemon serves every arm; the
    // warm-up pass populates the route-tree cache so every arm measures the
    // steady state. Arms: ping and route, each collector off and on.
    let (server, addr) = daemon();
    let ping = r#"{"op":"ping"}"#;
    let route = r#"{"op":"route","network":"Sprint","src":"0","dst":"5"}"#;
    let serve_arms = [
        (ping, PING_ROUNDS, false),
        (ping, PING_ROUNDS, true),
        (route, ROUTE_ROUNDS, false),
        (route, ROUTE_ROUNDS, true),
    ];
    let serve_arm = |arm: usize| {
        let (line, n, on) = serve_arms[arm];
        set_tracing(on);
        timed(|| roundtrips(addr, line, n))
    };
    let replies: Vec<_> = (0..serve_arms.len()).map(|arm| serve_arm(arm).1).collect();
    assert_eq!(replies[0], replies[1], "tracing changed ping reply bytes");
    assert_eq!(replies[2], replies[3], "tracing changed route reply bytes");
    let serve_ms = best_of_interleaved(serve_arms.len(), TRIALS, |arm| {
        let (wall_ms, out) = serve_arm(arm);
        assert_eq!(out, replies[arm], "reply bytes changed between trials");
        wall_ms
    });
    riskroute_obs::enable();
    let report = server.drain_and_join();
    assert!(!report.forced, "daemon did not drain cleanly: {report:?}");

    let segment = |name, wall_ms, units| Segment {
        name,
        wall_ms,
        units,
    };
    let sweep_off = segment("fig11-sweep tracing-off", sweep_ms[0], candidates);
    let sweep_on = segment("fig11-sweep tracing-on", sweep_ms[1], candidates);
    let sweep_scoped = segment("fig11-sweep tracing-on scoped", sweep_ms[2], candidates);
    let ping_off = segment("serve ping tracing-off", serve_ms[0], PING_ROUNDS as u64);
    let ping_on = segment("serve ping tracing-on", serve_ms[1], PING_ROUNDS as u64);
    let route_off = segment("serve route tracing-off", serve_ms[2], ROUTE_ROUNDS as u64);
    let route_on = segment("serve route tracing-on", serve_ms[3], ROUTE_ROUNDS as u64);

    let ratios = [
        ("fig11-sweep on/off", vs_off(&sweep_on, &sweep_off)),
        ("fig11-sweep scoped/off", vs_off(&sweep_scoped, &sweep_off)),
        ("serve ping on/off", vs_off(&ping_on, &ping_off)),
        ("serve route on/off", vs_off(&route_on, &route_off)),
    ];
    let segments = [
        sweep_off,
        sweep_on,
        sweep_scoped,
        ping_off,
        route_off,
        ping_on,
        route_on,
    ];
    let mut t = TextTable::new(&["segment", "wall_ms", "units", "unit_us"]);
    for s in &segments {
        t.row(&[
            s.name.to_string(),
            format!("{:.1}", s.wall_ms),
            s.units.to_string(),
            format!("{:.1}", s.unit_us()),
        ]);
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::new();
    out.push_str(&format!(
        "Tracing overhead: Figure-11 peering sweep for {} ({} candidates) and \
         the serve request path ({} pings, {} warm-cache routes per segment).\n\
         Host has {} core(s); one warm-up pass, then best of {} interleaved trials per arm.\n\
         Scores and reply bytes verified identical tracing on/off.\n\n",
        regional.name(),
        candidates,
        PING_ROUNDS,
        ROUTE_ROUNDS,
        cores,
        TRIALS,
    ));
    out.push_str(&t.render());
    out.push_str("\noverhead ratios (enabled / disabled wall clock)\n");
    for (name, ratio) in &ratios {
        out.push_str(&format!("  {name}: {ratio:.3}\n"));
    }
    out.push_str(
        "\nShape check: every ratio should sit near 1.0; the hard <10% gate is \
         the best-of-3 guard in scripts/ci.sh.\n",
    );

    let mut rows: Vec<Json> = segments
        .iter()
        .map(|s| {
            Json::obj([
                ("experiment", Json::Str(s.name.to_string())),
                ("wall_ms", Json::Num(s.wall_ms)),
                ("units", Json::Num(s.units as f64)),
                ("unit_us", Json::Num(s.unit_us())),
            ])
        })
        .collect();
    rows.push(Json::obj([
        ("experiment", Json::Str("overhead_ratios".to_string())),
        ("fig11_sweep_on_vs_off", Json::Num(ratios[0].1)),
        ("fig11_sweep_scoped_vs_off", Json::Num(ratios[1].1)),
        ("serve_ping_on_vs_off", Json::Num(ratios[2].1)),
        ("serve_route_on_vs_off", Json::Num(ratios[3].1)),
    ]));
    emit_named(
        "BENCH_obs.json",
        &format!("{}\n", Json::Arr(rows).to_string_pretty()),
    );

    emit("obsscale", &out);
    out
}
