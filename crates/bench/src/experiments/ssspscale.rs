//! SSSP-engine scaling: route-tree cache and scratch-arena effectiveness.
//!
//! Two workloads exercise the engine introduced with the CSR/arena/cache
//! overhaul:
//!
//! 1. **All-pairs sweep** on the largest corpus network (Level3), run three
//!    ways — cache disabled, cache enabled from cold, and a warm repeat on
//!    the same planner. The reports are asserted byte-identical before any
//!    timing is trusted; the warm run shows the steady-state win when the
//!    cost state has not changed (replay ticks between advisories, repeated
//!    analyses).
//! 2. **Five-round greedy provisioning** on a mid-size network (Tinet),
//!    cache off vs on. With the cache, each round adopts the previous
//!    planner's still-valid route trees (strict two-sided revalidation
//!    against the new link), so later rounds re-run Dijkstra only where the
//!    added link could actually shorten something.
//!
//! Each segment's wall time, SSSP-run count, and cache hit rate are
//! measured as deltas of the `riskroute-obs` counters, rendered as a text
//! table, and also written machine-readable to `results/BENCH_sssp.json`.

use crate::{emit, emit_named, timed, ExperimentContext, TextTable};
use riskroute::prelude::*;
use riskroute::provisioning::{greedy_links, GreedyLinks};
use riskroute_json::Json;
use riskroute_population::PopShares;
use riskroute_topology::Network;

/// How many greedy rounds the provisioning segment runs.
const GREEDY_ROUNDS: usize = 5;

/// One measured segment.
struct Segment {
    name: &'static str,
    wall_ms: f64,
    sssp_runs: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Segment {
    fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Run `work` and report the wall time plus the obs-counter deltas it
/// produced. Non-destructive: the enclosing harness row still sees the
/// experiment's aggregate counters.
fn measure<T>(name: &'static str, work: impl FnOnce() -> T) -> (Segment, T) {
    let counter =
        |snap: &riskroute_obs::MetricsSnapshot, n: &str| snap.counters.get(n).copied().unwrap_or(0);
    let before = riskroute_obs::snapshot();
    let (wall_ms, out) = timed(work);
    let after = riskroute_obs::snapshot();
    let delta = |n: &str| counter(&after, n).saturating_sub(counter(&before, n));
    (
        Segment {
            name,
            wall_ms,
            sssp_runs: delta("risk_sssp_runs"),
            cache_hits: delta("route_cache_hits"),
            cache_misses: delta("route_cache_misses"),
        },
        out,
    )
}

fn greedy_for(ctx: &ExperimentContext, net: &Network, cache: bool) -> GreedyLinks {
    let planner = ctx
        .planner_for(net, RiskWeights::historical_only(1e5))
        .with_route_cache(cache);
    let risk = planner.risk().clone();
    let shares = PopShares::from_shares(planner.shares().shares().to_vec());
    let weights = planner.weights();
    greedy_links(net, &planner, GREEDY_ROUNDS, move |augmented| {
        Planner::new(augmented, risk.clone(), shares.clone(), weights)
    })
}

/// Regenerate the scaling table; returns the rendered rows so the harness
/// can append them to `results/timings.txt`.
pub fn run(ctx: &ExperimentContext) -> String {
    let sweep_net = ctx
        .corpus
        .all_networks()
        .max_by_key(|n| n.pop_count())
        .unwrap_or_else(|| unreachable!("the standard corpus is never empty"));
    let greedy_net = ctx.corpus.network("Telepak").unwrap_or(sweep_net);

    // Workload 1: all-pairs sweep, cache off / cold / warm. Planners are
    // built outside the timed closures — construction (risk-vector KDE
    // evaluation) is identical either way and not what this measures.
    let weights = RiskWeights::historical_only(1e5);
    let off_planner = ctx.planner_for(sweep_net, weights).with_route_cache(false);
    let (off, report_off) = measure("sweep cache-off", || off_planner.ratio_report());
    let warm_planner = ctx.planner_for(sweep_net, weights);
    let (cold, report_cold) = measure("sweep cache-on cold", || warm_planner.ratio_report());
    let (warm, report_warm) = measure("sweep cache-on warm", || warm_planner.ratio_report());
    assert_eq!(report_off, report_cold, "cache changed the sweep report");
    assert_eq!(
        report_off, report_warm,
        "warm repeat changed the sweep report"
    );

    // Workload 2: five-round greedy provisioning, cache off vs on.
    let (goff, picks_off) = measure("greedy-5 cache-off", || greedy_for(ctx, greedy_net, false));
    let (gon, picks_on) = measure("greedy-5 cache-on", || greedy_for(ctx, greedy_net, true));
    assert_eq!(
        picks_off.added, picks_on.added,
        "cache changed the greedy pick sequence"
    );

    let segments = [off, cold, warm, goff, gon];
    let mut t = TextTable::new(&["segment", "wall_ms", "sssp_runs", "cache_hit_rate"]);
    for s in &segments {
        t.row(&[
            s.name.to_string(),
            format!("{:.1}", s.wall_ms),
            s.sssp_runs.to_string(),
            format!("{:.3}", s.hit_rate()),
        ]);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "SSSP engine scaling: all-pairs sweep on {} ({} PoPs) and {}-round \
         greedy provisioning on {} ({} PoPs).\n\
         Reports and pick sequences verified byte-identical cache on/off.\n\n",
        sweep_net.name(),
        sweep_net.pop_count(),
        GREEDY_ROUNDS,
        greedy_net.name(),
        greedy_net.pop_count(),
    ));
    out.push_str(&t.render());

    let rows: Vec<Json> = segments
        .iter()
        .map(|s| {
            Json::obj([
                ("experiment", Json::Str(s.name.to_string())),
                ("wall_ms", Json::Num(s.wall_ms)),
                ("sssp_runs", Json::Num(s.sssp_runs as f64)),
                ("cache_hit_rate", Json::Num(s.hit_rate())),
            ])
        })
        .collect();
    emit_named(
        "BENCH_sssp.json",
        &format!("{}\n", Json::Arr(rows).to_string_pretty()),
    );

    emit("ssspscale", &out);
    out
}
