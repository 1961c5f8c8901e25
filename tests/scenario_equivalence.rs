//! Scenario-sweep equivalence: a sweep is a deterministic function of
//! (planner, network, mode) — byte-identical at any worker count and
//! across any budget-cut/resume boundary — and its criticality ranking
//! must agree with graph theory on a hand-checked fixture.

use riskroute::prelude::*;
use riskroute::scenario::{run_sweep_budgeted, scenario_specs, SweepPrior};
use riskroute::{FailElement, NodeRisk, ScenarioSpec, WorkBudget};
use riskroute_geo::GeoPoint;
use riskroute_hazard::HistoricalRisk;
use riskroute_population::{PopShares, PopulationModel};
use riskroute_topology::{Network, NetworkKind, Pop};

/// Sequential first: the later entries are diffed against index 0.
const MATRIX: [Parallelism; 3] = [
    Parallelism::Sequential,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
];

fn corpus_planner(parallelism: Parallelism) -> (Network, Planner) {
    let corpus = Corpus::standard(42);
    let population = PopulationModel::synthesize(42, 4_000);
    let hazards = HistoricalRisk::standard(42, Some(800));
    let net = corpus.network("Telepak").unwrap().clone();
    let planner = Planner::for_network(
        &net,
        &population,
        &hazards,
        RiskWeights::historical_only(1e5),
    )
    .with_parallelism(parallelism);
    (net, planner)
}

#[test]
fn n1_sweeps_are_identical_across_thread_counts() {
    let (net, sequential) = corpus_planner(MATRIX[0]);
    let baseline = run_sweep(&sequential, &net, SweepMode::N1).unwrap();
    assert_eq!(
        baseline.records.len(),
        net.pop_count() + net.link_count(),
        "N-1 must cover every node and every link"
    );
    for par in &MATRIX[1..] {
        let (net, planner) = corpus_planner(*par);
        let outcome = run_sweep(&planner, &net, SweepMode::N1).unwrap();
        assert_eq!(baseline, outcome, "N-1 sweep diverged at {par}");
    }
}

#[test]
fn sampled_sweeps_are_identical_across_thread_counts() {
    for mode in [
        SweepMode::N2 {
            samples: 12,
            seed: 7,
        },
        SweepMode::Ensemble {
            samples: 6,
            seed: 7,
        },
    ] {
        let (net, sequential) = corpus_planner(MATRIX[0]);
        let baseline = run_sweep(&sequential, &net, mode).unwrap();
        for par in &MATRIX[1..] {
            let (net, planner) = corpus_planner(*par);
            let outcome = run_sweep(&planner, &net, mode).unwrap();
            assert_eq!(baseline, outcome, "{mode:?} sweep diverged at {par}");
        }
    }
}

#[test]
fn budget_cut_and_resume_matches_the_uninterrupted_sweep() {
    let (net, planner) = corpus_planner(Parallelism::Sequential);
    let uninterrupted = run_sweep(&planner, &net, SweepMode::N1).unwrap();
    for par in MATRIX {
        let (net, planner) = corpus_planner(par);
        let cut = run_sweep_budgeted(
            &planner,
            &net,
            SweepMode::N1,
            None,
            &WorkBudget::unlimited().with_max_work(5),
            |_, _| {},
        )
        .unwrap();
        let Budgeted::Partial {
            completed,
            resume_state,
            stopped,
        } = cut
        else {
            panic!("a 5-scenario budget must cut the sweep at {par}");
        };
        // The cut lands on the same canonical boundary at every worker
        // count: exactly the budgeted number of scenarios, as a prefix.
        assert_eq!(completed.records.len(), 5, "cut moved at {par}");
        assert_eq!(resume_state.next_index, 5, "resume index moved at {par}");
        assert_eq!(stopped, StopReason::WorkExhausted);
        assert_eq!(
            completed.records[..],
            uninterrupted.records[..5],
            "partial prefix diverged at {par}"
        );
        let prior = SweepPrior {
            baseline: completed.baseline,
            records: completed.records,
        };
        let resumed = run_sweep_budgeted(
            &planner,
            &net,
            SweepMode::N1,
            Some(prior),
            &WorkBudget::unlimited(),
            |_, _| {},
        )
        .unwrap();
        let (resumed, still_stopped) = resumed.into_parts();
        assert!(still_stopped.is_none());
        assert_eq!(resumed, uninterrupted, "resumed sweep diverged at {par}");
    }
}

/// Two triangles sharing only vertex 2 — the textbook cut vertex. Failing
/// it strands every cross-triangle pair (plus its own four incident
/// pairs); failing any other node strands only that node's four pairs,
/// and no single link disconnects anything (each sits on a triangle).
fn cut_vertex_fixture() -> (Network, Planner) {
    let pop = |name: &str, lat: f64, lon: f64| Pop {
        name: name.into(),
        location: GeoPoint::new(lat, lon).unwrap(),
    };
    let net = Network::new(
        "bowtie",
        NetworkKind::Regional,
        vec![
            pop("A", 35.0, -100.0),
            pop("B", 36.0, -99.0),
            pop("Cut", 35.5, -98.0),
            pop("D", 35.0, -96.0),
            pop("E", 36.0, -95.0),
        ],
        vec![(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
    )
    .unwrap();
    let risk = NodeRisk::new(vec![1e-3; 5], vec![0.0; 5]);
    let shares = PopShares::from_shares(vec![0.2; 5]);
    let planner = Planner::new(&net, risk, shares, RiskWeights::historical_only(1e5));
    (net, planner)
}

#[test]
fn known_cut_vertex_ranks_first_in_the_n1_report() {
    let (net, planner) = cut_vertex_fixture();
    let outcome = run_sweep(&planner, &net, SweepMode::N1).unwrap();
    // 5 nodes + 6 links.
    assert_eq!(outcome.records.len(), 11);
    let ranked = outcome.ranked();
    let (_, top) = ranked[0];
    assert_eq!(
        top.spec,
        ScenarioSpec::One(FailElement::Node(2)),
        "the cut vertex must rank first, got {:?}",
        top.spec
    );
    // Hand-count: 4 incident pairs + 2x2 cross-triangle pairs.
    assert_eq!(outcome.delta_stranded(top), 8);
    // Every other node failure strands exactly its 4 incident pairs, and
    // no link failure strands anything (every link sits on a triangle).
    for (_, rec) in &ranked[1..] {
        match rec.spec {
            ScenarioSpec::One(FailElement::Node(_)) => {
                assert_eq!(outcome.delta_stranded(rec), 4, "{:?}", rec.spec);
            }
            ScenarioSpec::One(FailElement::Link(..)) => {
                assert_eq!(outcome.delta_stranded(rec), 0, "{:?}", rec.spec);
            }
            ref other => panic!("unexpected N-1 spec {other:?}"),
        }
    }
}

#[test]
fn scenario_specs_order_is_the_canonical_contract() {
    let (net, _) = cut_vertex_fixture();
    let specs = scenario_specs(&net, SweepMode::N1);
    let nodes = net.pop_count();
    for (i, spec) in specs.iter().enumerate().take(nodes) {
        assert_eq!(*spec, ScenarioSpec::One(FailElement::Node(i)));
    }
    for (l, spec) in net.links().iter().zip(&specs[nodes..]) {
        assert_eq!(
            *spec,
            ScenarioSpec::One(FailElement::Link(l.a.min(l.b), l.a.max(l.b)))
        );
    }
}
