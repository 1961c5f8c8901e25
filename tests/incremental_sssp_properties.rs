//! Property test for edge-delta-aware cost stamps and incremental SSSP
//! repair: over random graphs and random forecast-delta sequences, a planner
//! that evolved through `set_forecast` (serving queries via cache survival
//! and incremental tree repair) must answer every pair query **bit-for-bit**
//! like a planner built fresh at the same state — at any worker count.
//!
//! The delta sequences deliberately include bitwise-identical resubmissions
//! (must keep the stamp), localized single-node nudges, risk drops back to
//! zero (sign flips of the cost delta), global rewrites, and graphs with an
//! isolated PoP (unreachable nodes in the repair cone).
//!
//! This file holds exactly one `#[test]`: the obs collector is
//! process-global, and the final non-vacuousness assertion (repairs and
//! survivals actually happened) would be polluted by a sibling test.

use riskroute::prelude::*;
use riskroute::NodeRisk;
use riskroute_geo::GeoPoint;
use riskroute_population::PopShares;
use riskroute_rng::StdRng;
use riskroute_topology::{Network, NetworkKind, Pop};

/// Worker counts the evolved planner is crossed with.
const MATRIX: [Parallelism; 3] = [
    Parallelism::Sequential,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
];

/// Random connected-ish network: a random tree over `n` PoPs plus random
/// chords (non-tree edges), occasionally leaving the last PoP isolated so
/// repair must cope with unreachable nodes.
fn random_network(rng: &mut StdRng, trial: usize) -> Network {
    let n = rng.gen_range(6..14usize);
    let pops: Vec<Pop> = (0..n)
        .map(|i| Pop {
            name: format!("P{trial}-{i}"),
            location: GeoPoint::new(30.0 + 10.0 * rng.gen_f64(), -100.0 + 10.0 * rng.gen_f64())
                .unwrap(),
        })
        .collect();
    let isolate_last = rng.gen_bool(0.25);
    let mut links: Vec<(usize, usize)> = Vec::new();
    for i in 1..n {
        if isolate_last && i == n - 1 {
            continue;
        }
        links.push((rng.gen_range(0..i), i));
    }
    let span = if isolate_last { n - 1 } else { n };
    for _ in 0..n / 2 {
        let a = rng.gen_range(0..span);
        let b = rng.gen_range(0..span);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if links.iter().any(|&(x, y)| (x.min(y), x.max(y)) == key) {
            continue;
        }
        links.push((a, b));
    }
    Network::new(format!("prop-{trial}"), NetworkKind::Regional, pops, links).unwrap()
}

/// One random forecast mutation: resubmit, nudge one node, drop one node to
/// zero, or rewrite globally.
fn mutate_forecast(rng: &mut StdRng, forecast: &mut [f64]) {
    match rng.gen_range(0..4usize) {
        // Bitwise resubmission: the stamp (and every cached tree) must
        // survive untouched.
        0 => {}
        // Localized nudge: a small repair cone.
        1 => {
            let v = rng.gen_range(0..forecast.len());
            forecast[v] = rng.gen_f64() * 1e-2;
        }
        // Sign flip of the cost delta: risk that was raised falls back to
        // zero (cheaper edges — the direction scratch invalidation never
        // exercises).
        2 => {
            let v = rng.gen_range(0..forecast.len());
            forecast[v] = 0.0;
        }
        // Global rewrite: the repair cone covers most of the graph, forcing
        // the fallback-to-scratch path.
        _ => {
            for f in forecast.iter_mut() {
                *f = rng.gen_f64() * 1e-2;
            }
        }
    }
}

fn counter(snap: &riskroute_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn evolved_planners_answer_like_fresh_planners_under_random_deltas() {
    let mut rng = riskroute_rng::seeded(0x5eed_cafe);
    riskroute_obs::reset();
    riskroute_obs::enable();
    for trial in 0..6 {
        let net = random_network(&mut rng, trial);
        let n = net.pop_count();
        let hist: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 1e-2).collect();
        let shares = PopShares::from_shares(vec![1.0 / n as f64; n]);
        let weights = RiskWeights::PAPER;
        let build = |forecast: Vec<f64>| {
            Planner::new(
                &net,
                NodeRisk::new(hist.clone(), forecast),
                shares.clone(),
                weights,
            )
        };
        // One planner per worker count, all evolved through the same
        // forecast sequence.
        let mut evolved: Vec<Planner> = MATRIX
            .iter()
            .map(|&par| build(vec![0.0; n]).with_parallelism(par))
            .collect();
        let all: Vec<usize> = (0..n).collect();
        let mut forecast = vec![0.0; n];
        for _step in 0..8 {
            mutate_forecast(&mut rng, &mut forecast);
            let fresh = build(forecast.clone());
            let reference = fresh.pair_sweep(&all, &all);
            for planner in &mut evolved {
                planner.set_forecast(forecast.clone());
                let got = planner.pair_sweep(&all, &all);
                assert_eq!(
                    reference.outcomes,
                    got.outcomes,
                    "evolved planner diverged from fresh (trial {trial}, {})",
                    planner.parallelism()
                );
                assert_eq!(
                    reference.stranded, got.stranded,
                    "stranded pairs diverged from fresh (trial {trial})"
                );
            }
        }
    }
    riskroute_obs::disable();
    let snap = riskroute_obs::snapshot();
    // Non-vacuousness: the sequences above must actually have exercised the
    // delta machinery, not fallen through to scratch SSSP everywhere.
    assert!(
        counter(&snap, "sssp_repairs") > 0,
        "no incremental repairs happened — the property test is vacuous"
    );
    assert!(
        counter(&snap, "trees_survived_delta") > 0,
        "no trees survived a delta — the property test is vacuous"
    );
    assert!(
        counter(&snap, "changed_edges") > 0,
        "no changed edges were logged — the property test is vacuous"
    );
}
