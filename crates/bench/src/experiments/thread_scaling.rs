//! Thread-scaling curve for the all-pairs risk-SSSP sweep.
//!
//! Runs `ratio_report` (every ordered PoP pair of the largest corpus
//! network) at 1, 2, 4, and 8 workers and reports wall time plus speedup
//! relative to the sequential baseline. The parallel sweep replays the
//! sequential reduction order, so the report itself is asserted identical
//! at every worker count before the timing is trusted.
//!
//! Every timed sweep runs on a fresh planner (an empty route-tree cache),
//! so no arm inherits trees an earlier arm computed. The arms run
//! interleaved for [`TRIALS`] rounds, rotating which arm goes first, and
//! each arm reports its best wall time.

use crate::{best_of_interleaved, emit, timed, ExperimentContext, TextTable};
use riskroute::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Interleaved timing rounds; each arm keeps its minimum.
const TRIALS: usize = 3;

/// Regenerate the scaling table; returns the rendered rows so the harness
/// can append the curve to `results/timings.txt`.
pub fn run(ctx: &ExperimentContext) -> String {
    // The largest network gives the longest per-source tasks and therefore
    // the most honest parallel-efficiency numbers.
    let net = ctx
        .corpus
        .all_networks()
        .max_by_key(|n| n.pop_count())
        .unwrap_or_else(|| unreachable!("the standard corpus is never empty"));
    // Build the planner's inputs once; each timed sweep gets its own
    // planner over them, and with it a cold route-tree cache.
    let weights = RiskWeights::historical_only(1e5);
    let risk = NodeRisk::from_historical(net, &ctx.hazards);
    let shares = PopShares::assign(&ctx.population, net, None);

    let mut baseline_report: Option<RatioReport> = None;
    let best_ms = best_of_interleaved(WORKER_COUNTS.len(), TRIALS, |arm| {
        let workers = WORKER_COUNTS[arm];
        let planner = Planner::new(net, risk.clone(), shares.clone(), weights)
            .with_parallelism(Parallelism::from_worker_count(workers));
        let (wall_ms, report) = timed(|| planner.ratio_report());
        match &baseline_report {
            None => baseline_report = Some(report),
            Some(base) => assert_eq!(
                *base, report,
                "{workers}-worker sweep diverged from the sequential report"
            ),
        }
        wall_ms
    });

    let mut t = TextTable::new(&["threads", "wall_ms", "speedup"]);
    for (&workers, &wall_ms) in WORKER_COUNTS.iter().zip(&best_ms) {
        t.row(&[
            format!("{}", Parallelism::from_worker_count(workers)),
            format!("{wall_ms:.1}"),
            format!("{:.2}x", best_ms[0] / wall_ms),
        ]);
    }

    // Speedup is bounded by the host: on a single-core machine every row
    // reads ~1.0x even though the decomposition (one task per sweep
    // source) scales on real hardware. Record the bound with the curve.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::new();
    out.push_str(&format!(
        "All-pairs risk-SSSP sweep on {} ({} PoPs), host has {} core(s);\n\
         fresh planner (cold route-tree cache) per sweep, best of {} interleaved\n\
         trials; report verified byte-identical at every worker count.\n\n",
        net.name(),
        net.pop_count(),
        cores,
        TRIALS
    ));
    out.push_str(&t.render());
    emit("thread_scaling", &out);
    out
}
