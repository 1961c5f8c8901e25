//! Delta-invalidation scaling: edge-scoped cost stamps and incremental
//! SSSP repair on the replay workload.
//!
//! A fig12/fig13-shaped hurricane replay (advisory-by-advisory, the
//! sequential path where each tick's forecast deltas against the previous
//! tick's) is run twice: with blanket invalidation
//! (`--no-delta-invalidation` — every forecast change retires the whole
//! route-tree cache) and with the edge-delta machinery (changed-node log,
//! tree survival, incremental repair). The tick series are asserted
//! byte-identical before any timing is trusted, and the run fails if the
//! delta path does not actually reduce scratch SSSP runs — the regression
//! guard that keeps the machinery from silently degrading to blanket
//! invalidation.
//!
//! Each segment's wall time, tick rate, and counter deltas are rendered as
//! a text table and written machine-readable to `results/BENCH_delta.json`.

use crate::{emit, emit_named, timed, ExperimentContext, TextTable};
use riskroute::prelude::*;
use riskroute::replay::replay_storm;
use riskroute_json::Json;

/// Advisory stride: every 2nd advisory keeps the tick series long enough
/// to show the steady-state delta win without dominating bench wall time.
const STRIDE: usize = 2;

/// One measured replay segment.
struct Segment {
    name: &'static str,
    wall_ms: f64,
    ticks: usize,
    sssp_runs: u64,
    sssp_repairs: u64,
    trees_survived: u64,
    changed_edges: u64,
}

impl Segment {
    fn ticks_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.ticks as f64 / (self.wall_ms / 1e3)
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
            ticks: 0,
            sssp_runs: delta("risk_sssp_runs"),
            sssp_repairs: delta("sssp_repairs"),
            trees_survived: delta("trees_survived_delta"),
            changed_edges: delta("changed_edges"),
        },
        out,
    )
}

/// Regenerate the delta-scaling table; returns the rendered rows so the
/// harness can append them to `results/timings.txt`.
pub fn run(ctx: &ExperimentContext) -> String {
    let net = ctx
        .corpus
        .network("Telepak")
        .unwrap_or_else(|| unreachable!("the standard corpus includes Telepak"));
    let weights = RiskWeights::PAPER;

    let off_planner = ctx.planner_for(net, weights).with_delta_invalidation(false);
    let (mut off, replay_off) = measure("replay delta-off", || {
        replay_storm(&off_planner, net, Storm::Katrina, STRIDE).expect("valid replay args")
    });
    off.ticks = replay_off.ticks.len();

    let on_planner = ctx.planner_for(net, weights);
    let (mut on, replay_on) = measure("replay delta-on", || {
        replay_storm(&on_planner, net, Storm::Katrina, STRIDE).expect("valid replay args")
    });
    on.ticks = replay_on.ticks.len();

    assert_eq!(
        replay_off, replay_on,
        "delta invalidation changed the replay tick series"
    );
    // Regression guard: the delta path must actually skip scratch SSSPs,
    // not silently degrade to blanket invalidation.
    assert!(
        on.sssp_runs < off.sssp_runs,
        "delta path ran {} scratch SSSPs, blanket baseline ran {} — \
         the changed-edge machinery is not engaging",
        on.sssp_runs,
        off.sssp_runs,
    );
    assert!(
        on.sssp_repairs + on.trees_survived > 0,
        "delta replay neither repaired nor preserved a single tree"
    );

    let segments = [off, on];
    let mut t = TextTable::new(&[
        "segment",
        "wall_ms",
        "ticks/s",
        "sssp_runs",
        "repairs",
        "survived",
        "changed_edges",
    ]);
    for s in &segments {
        t.row(&[
            s.name.to_string(),
            format!("{:.1}", s.wall_ms),
            format!("{:.1}", s.ticks_per_sec()),
            s.sssp_runs.to_string(),
            s.sssp_repairs.to_string(),
            s.trees_survived.to_string(),
            s.changed_edges.to_string(),
        ]);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Delta-invalidation scaling: Hurricane Katrina replay on {} \
         ({} PoPs, every {}th advisory, {} ticks).\n\
         Tick series verified byte-identical delta on/off; the delta path \
         must run strictly fewer scratch SSSPs.\n\n",
        net.name(),
        net.pop_count(),
        STRIDE,
        segments[0].ticks,
    ));
    out.push_str(&t.render());

    let rows: Vec<Json> = segments
        .iter()
        .map(|s| {
            Json::obj([
                ("experiment", Json::Str(s.name.to_string())),
                ("wall_ms", Json::Num(s.wall_ms)),
                ("ticks", Json::Num(s.ticks as f64)),
                ("ticks_per_sec", Json::Num(s.ticks_per_sec())),
                ("sssp_runs", Json::Num(s.sssp_runs as f64)),
                ("sssp_repairs", Json::Num(s.sssp_repairs as f64)),
                ("trees_survived_delta", Json::Num(s.trees_survived as f64)),
                ("changed_edges", Json::Num(s.changed_edges as f64)),
            ])
        })
        .collect();
    emit_named(
        "BENCH_delta.json",
        &format!("{}\n", Json::Arr(rows).to_string_pretty()),
    );

    emit("deltascale", &out);
    out
}
