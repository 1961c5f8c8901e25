//! A planner build's set-up layers are visible in a trace: census
//! synthesis, the hazard fit, census assignment, per-PoP risk and the
//! planner's own construction each record exactly one span, and census
//! assignment reports how many haversines its chord precheck left to do.
//!
//! This file holds exactly one `#[test]`: the obs collector is
//! process-global, and a sibling test running in parallel would pollute
//! the per-trace counters checked here.

use riskroute::prelude::*;

/// The CLI's census size; the event cap is smaller than the CLI's to keep
/// the debug-build KDE quick.
const BLOCKS: usize = 20_000;
const EVENTS_PER_KIND: usize = 200;

#[test]
fn level3_planner_build_records_each_setup_span_once() {
    let corpus = Corpus::standard(42);
    let net = corpus.network("Level3").expect("corpus network");

    riskroute_obs::enable();
    let scope = riskroute_obs::ObsScope::begin("setup_spans_test");
    let planner = {
        let _in_scope = scope.enter();
        let population = PopulationModel::synthesize(42, BLOCKS);
        let hazards = HistoricalRisk::standard(42, Some(EVENTS_PER_KIND));
        Planner::for_network(net, &population, &hazards, RiskWeights::PAPER)
    };
    riskroute_obs::disable();
    assert_eq!(planner.pop_count(), net.pop_count());

    let spans: Vec<_> = riskroute_obs::snapshot()
        .spans
        .into_iter()
        .filter(|e| e.trace == scope.trace_id())
        .collect();
    for name in [
        "population_synthesize",
        "hazard_fit",
        "population_assign",
        "risk_at_all",
        "planner_new",
    ] {
        let n = spans.iter().filter(|e| e.name == name).count();
        assert_eq!(n, 1, "span {name} recorded {n} times");
    }

    // Level3 is nationwide, so every block is in scope and each needs at
    // least one haversine; the precheck must leave far fewer than the
    // blocks × PoPs a linear scan would evaluate, and every candidate the
    // band scan visits is either evaluated or skipped.
    let counters = riskroute_obs::trace_counters(scope.trace_id());
    let evals = counters.get("assign_distance_evals").copied().unwrap_or(0);
    let skips = counters.get("assign_chord_skips").copied().unwrap_or(0);
    let blocks = BLOCKS as u64;
    let pops = net.pop_count() as u64;
    assert!(evals >= blocks, "{evals} haversines for {blocks} blocks");
    assert!(evals + skips <= blocks * pops, "{evals} + {skips} visits");
    assert!(skips > 0, "the chord precheck skipped nothing");
    assert!(
        evals < blocks * 10,
        "{evals} haversines for {blocks} blocks"
    );
}
