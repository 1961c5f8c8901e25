//! Delta-on/delta-off equivalence: edge-delta-aware cost stamps and
//! incremental SSSP repair are exact, so disabling them
//! (`--no-delta-invalidation`) must change nothing but wall time — at any
//! worker count, including budget-cut-and-resume runs. Like the cache and
//! `--threads` equivalence suites these are `assert_eq!` checks on full
//! result structs (f64s included), not tolerance comparisons.

use riskroute::prelude::*;
use riskroute::replay::{raw_advisories, replay_raw_advisories_budgeted, replay_storm};
use riskroute::scenario::{run_sweep, run_sweep_budgeted, SweepMode, SweepPrior};
use riskroute_hazard::HistoricalRisk;
use riskroute_topology::Network;

/// Worker counts the delta knob is crossed with.
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
    delta: bool,
) -> Planner {
    Planner::for_network(net, population, hazards, RiskWeights::PAPER)
        .with_parallelism(parallelism)
        .with_delta_invalidation(delta)
}

#[test]
fn replay_tick_series_is_identical_with_and_without_delta() {
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
        assert_eq!(reference, replay, "delta replay diverged at {par}");
    }
}

#[test]
fn ensemble_sweep_with_forecast_overrides_is_identical_with_and_without_delta() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    // The ensemble sweep's forks are pure forecast overrides — exactly the
    // shape the delta machinery accelerates.
    let mode = SweepMode::Ensemble {
        samples: 6,
        seed: 7,
    };
    let reference = run_sweep(
        &planner_at(net, &population, &hazards, MATRIX[0], false),
        net,
        mode,
    )
    .unwrap();
    assert!(
        !reference.records.is_empty(),
        "fixture must evaluate members"
    );
    for par in MATRIX {
        let swept = run_sweep(
            &planner_at(net, &population, &hazards, par, true),
            net,
            mode,
        )
        .unwrap();
        assert_eq!(reference, swept, "delta ensemble sweep diverged at {par}");
    }
}

#[test]
fn n1_sweep_is_identical_with_and_without_delta() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    // Structural forks never carry a delta log across the masked topology;
    // the knob must still be a pure no-op on results.
    let reference = run_sweep(
        &planner_at(net, &population, &hazards, MATRIX[0], false),
        net,
        SweepMode::N1,
    )
    .unwrap();
    for par in MATRIX {
        let swept = run_sweep(
            &planner_at(net, &population, &hazards, par, true),
            net,
            SweepMode::N1,
        )
        .unwrap();
        assert_eq!(reference, swept, "delta N-1 sweep diverged at {par}");
    }
}

#[test]
fn budgeted_replay_cut_and_resume_is_identical_with_and_without_delta() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let raws = raw_advisories(Storm::Katrina, 4).unwrap();
    let locations: Vec<_> = net.pops().iter().map(|p| p.location).collect();
    let all: Vec<usize> = (0..net.pop_count()).collect();
    assert!(raws.len() >= 3, "fixture needs room for a mid-stream cut");
    let mut partials = Vec::new();
    let mut resumed_runs = Vec::new();
    for delta in [false, true] {
        for par in [MATRIX[0], MATRIX[2]] {
            let planner = planner_at(net, &population, &hazards, par, delta);
            let budget = WorkBudget::unlimited().with_max_work(2);
            let run = replay_raw_advisories_budgeted(
                &planner,
                net.name(),
                &locations,
                "KATRINA",
                &raws,
                &all,
                &all,
                Vec::new(),
                &budget,
                |_, _| {},
            )
            .unwrap();
            let Budgeted::Partial {
                completed,
                resume_state,
                stopped,
            } = run
            else {
                panic!("a 2-tick budget must stop the replay (delta={delta}, {par})");
            };
            assert_eq!(stopped, StopReason::WorkExhausted);
            partials.push((completed.clone(), resume_state));
            let resume = replay_raw_advisories_budgeted(
                &planner,
                net.name(),
                &locations,
                "KATRINA",
                &raws,
                &all,
                &all,
                completed.ticks,
                &WorkBudget::unlimited(),
                |_, _| {},
            )
            .unwrap();
            let (full, stopped) = resume.into_parts();
            assert!(stopped.is_none(), "unlimited resume never stops");
            resumed_runs.push(full);
        }
    }
    for i in 1..partials.len() {
        assert_eq!(partials[0], partials[i], "partial replay prefix diverged");
        assert_eq!(resumed_runs[0], resumed_runs[i], "resumed replay diverged");
    }
}

#[test]
fn budgeted_ensemble_cut_and_resume_is_identical_with_and_without_delta() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let mode = SweepMode::Ensemble {
        samples: 5,
        seed: 11,
    };
    let mut partials = Vec::new();
    let mut resumed_runs = Vec::new();
    for delta in [false, true] {
        for par in [MATRIX[0], MATRIX[2]] {
            let planner = planner_at(net, &population, &hazards, par, delta);
            let budget = WorkBudget::unlimited().with_max_work(2);
            let run = run_sweep_budgeted(&planner, net, mode, None, &budget, |_, _| {}).unwrap();
            let Budgeted::Partial {
                completed,
                resume_state: _,
                stopped,
            } = run
            else {
                panic!("a 2-unit budget must stop a 5-member sweep (delta={delta}, {par})");
            };
            assert_eq!(stopped, StopReason::WorkExhausted);
            partials.push(completed.clone());
            let prior = SweepPrior {
                baseline: completed.baseline,
                records: completed.records,
            };
            let resume = run_sweep_budgeted(
                &planner,
                net,
                mode,
                Some(prior),
                &WorkBudget::unlimited(),
                |_, _| {},
            )
            .unwrap();
            let (full, stopped) = resume.into_parts();
            assert!(stopped.is_none(), "unlimited resume never stops");
            resumed_runs.push(full);
        }
    }
    for i in 1..partials.len() {
        assert_eq!(partials[0], partials[i], "partial sweep prefix diverged");
        assert_eq!(resumed_runs[0], resumed_runs[i], "resumed sweep diverged");
    }
}
