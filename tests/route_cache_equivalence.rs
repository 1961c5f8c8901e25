//! Cache-on/cache-off equivalence: the route-tree cache is exact, so
//! disabling it (`--no-route-cache`) must change nothing but wall time —
//! at any worker count, including budget-cut-and-resume runs. Like the
//! `--threads` equivalence suite these are `assert_eq!` checks on full
//! result structs (f64s included), not tolerance comparisons.

use riskroute::prelude::*;
use riskroute::provisioning::{greedy_links, greedy_links_budgeted, greedy_links_resume};
use riskroute::replay::replay_storm;
use riskroute_hazard::HistoricalRisk;
use riskroute_population::PopShares;
use riskroute_topology::Network;

/// Worker counts the cache knob is crossed with.
const MATRIX: [Parallelism; 3] = [
    Parallelism::Sequential,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
];

fn substrate() -> (Corpus, PopulationModel, HistoricalRisk) {
    (
        Corpus::standard(42),
        PopulationModel::synthesize(42, 4_000),
        HistoricalRisk::standard(42, Some(800)),
    )
}

fn planner_at(
    net: &Network,
    population: &PopulationModel,
    hazards: &HistoricalRisk,
    parallelism: Parallelism,
    cache: bool,
) -> Planner {
    Planner::for_network(net, population, hazards, RiskWeights::historical_only(1e5))
        .with_parallelism(parallelism)
        .with_route_cache(cache)
}

#[test]
fn ratio_reports_are_identical_with_and_without_cache() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let reference = planner_at(net, &population, &hazards, MATRIX[0], false).ratio_report();
    for par in MATRIX {
        let cached = planner_at(net, &population, &hazards, par, true);
        assert_eq!(
            reference,
            cached.ratio_report(),
            "cached ratio report diverged at {par}"
        );
        // A warm repeat on the same planner serves everything from cache
        // and must still be byte-identical.
        assert_eq!(
            reference,
            cached.ratio_report(),
            "warm cached ratio report diverged at {par}"
        );
    }
}

#[test]
fn greedy_pick_sequence_is_identical_with_and_without_cache() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let mut runs = Vec::new();
    for cache in [false, true] {
        for par in MATRIX {
            let planner = planner_at(net, &population, &hazards, par, cache);
            let risk = planner.risk().clone();
            let shares = PopShares::from_shares(planner.shares().shares().to_vec());
            let weights = RiskWeights::historical_only(1e5);
            let rebuild =
                move |aug: &Network| Planner::new(aug, risk.clone(), shares.clone(), weights);
            runs.push(greedy_links(net, &planner, 3, rebuild));
        }
    }
    assert!(
        !runs[0].added.is_empty(),
        "fixture must actually choose links"
    );
    for run in &runs[1..] {
        assert_eq!(&runs[0], run, "greedy pick sequence diverged");
    }
}

#[test]
fn budgeted_provisioning_resume_is_identical_with_and_without_cache() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let weights = RiskWeights::historical_only(1e5);
    let mut partials = Vec::new();
    let mut resumed_runs = Vec::new();
    for cache in [false, true] {
        for par in [MATRIX[0], MATRIX[2]] {
            let planner = planner_at(net, &population, &hazards, par, cache);
            let risk = planner.risk().clone();
            let shares = PopShares::from_shares(planner.shares().shares().to_vec());
            let make_rebuild = || {
                let risk = risk.clone();
                let shares = shares.clone();
                move |aug: &Network| Planner::new(aug, risk.clone(), shares.clone(), weights)
            };
            let budget = WorkBudget::unlimited().with_max_work(1);
            let run = greedy_links_budgeted(net, &planner, 3, make_rebuild(), &budget, |_| {});
            let Budgeted::Partial {
                completed,
                resume_state,
                stopped,
            } = run
            else {
                panic!("a 1-unit budget must stop a 3-link search (cache={cache}, {par})");
            };
            assert_eq!(stopped, StopReason::WorkExhausted);
            partials.push((completed.clone(), resume_state));
            let resume = greedy_links_resume(
                net,
                &planner,
                3,
                make_rebuild(),
                completed,
                &WorkBudget::unlimited(),
                |_| {},
            );
            let (full, stopped) = resume.into_parts();
            assert!(stopped.is_none(), "unlimited resume never stops");
            resumed_runs.push(full);
        }
    }
    for i in 1..partials.len() {
        assert_eq!(partials[0], partials[i], "partial prefix diverged");
        assert_eq!(resumed_runs[0], resumed_runs[i], "resumed result diverged");
    }
}

#[test]
fn replay_tick_series_is_identical_with_and_without_cache() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let reference = replay_storm(
        &planner_at(net, &population, &hazards, MATRIX[0], false),
        net,
        Storm::Katrina,
        4,
    )
    .unwrap();
    assert!(
        reference.ticks.len() >= 3,
        "fixture needs a real tick series"
    );
    for par in MATRIX {
        let replay = replay_storm(
            &planner_at(net, &population, &hazards, par, true),
            net,
            Storm::Katrina,
            4,
        )
        .unwrap();
        assert_eq!(reference, replay, "cached replay diverged at {par}");
    }
}
