//! Forecast-only scenario forks must ride the changed-edge log instead of
//! minting a blanket fresh stamp: a fork whose override only touches PoPs
//! that no route tree can reach keeps every cached tree alive (zero SSSPs,
//! zero repairs), and a fork touching a transit PoP repairs incrementally
//! rather than rebuilding from scratch. With delta invalidation disabled
//! the same forks fall back to the structural path — with byte-identical
//! exposure either way.
//!
//! This file holds exactly one `#[test]`: the obs collector is
//! process-global, and a sibling test running in parallel would pollute
//! the counter deltas this regression pins down.

use riskroute::prelude::*;
use riskroute::scenario::{base_exposure, ExposureReport, ScenarioDelta, ScenarioFork};
use riskroute::NodeRisk;
use riskroute_geo::GeoPoint;
use riskroute_population::PopShares;
use riskroute_topology::{Network, NetworkKind, Pop};

/// Five linked PoPs plus one isolated PoP ("Island", index 5) that no route
/// tree can reach.
fn fixture(delta_invalidation: bool) -> Planner {
    let pop = |name: &str, lat: f64, lon: f64| Pop {
        name: name.into(),
        location: GeoPoint::new(lat, lon).unwrap(),
    };
    let net = Network::new(
        "fork-net",
        NetworkKind::Regional,
        vec![
            pop("West", 35.0, -100.0),
            pop("North", 37.5, -97.0),
            pop("South", 35.0, -97.0),
            pop("East", 35.0, -94.0),
            pop("Stub", 35.5, -92.0),
            pop("Island", 39.0, -105.0),
        ],
        vec![(0, 1), (1, 3), (0, 2), (2, 3), (3, 4)],
    )
    .unwrap();
    let risk = NodeRisk::new(vec![0.0, 0.0, 5e-3, 0.0, 1e-3, 0.0], vec![0.0; 6]);
    let shares = PopShares::from_shares(vec![1.0 / 6.0; 6]);
    Planner::new(&net, risk, shares, RiskWeights::PAPER).with_delta_invalidation(delta_invalidation)
}

fn counter(snap: &riskroute_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Fork under the collector and return (exposure, snapshot).
fn measured_fork(
    base: &Planner,
    forecast: Vec<f64>,
) -> (ExposureReport, riskroute_obs::MetricsSnapshot) {
    riskroute_obs::reset();
    riskroute_obs::enable();
    let fork = ScenarioFork::fork(base, ScenarioDelta::new().with_forecast(forecast));
    let exposure = fork.exposure();
    riskroute_obs::disable();
    (exposure, riskroute_obs::snapshot())
}

#[test]
fn forecast_forks_reuse_the_changed_edge_log() {
    let on = fixture(true);
    let off = fixture(false);
    // Cold passes: warm both base caches.
    let _ = base_exposure(&on);
    let _ = base_exposure(&off);

    // An override that only raises risk at the unreachable Island: every
    // cached tree provably survives — no SSSPs, no repairs, and the fork
    // still counts as a cache reuse.
    let island_only = vec![0.0, 0.0, 0.0, 0.0, 0.0, 3e-3];
    let (survived_exposure, snap) = measured_fork(&on, island_only.clone());
    assert_eq!(counter(&snap, "forks_created"), 1);
    assert_eq!(counter(&snap, "forks_forecast_delta"), 1);
    assert_eq!(counter(&snap, "forks_reused_cache"), 1);
    assert!(
        counter(&snap, "trees_survived_delta") > 0,
        "island-only override must keep cached trees alive"
    );
    assert_eq!(counter(&snap, "sssp_repairs"), 0);
    assert_eq!(
        counter(&snap, "risk_sssp_runs"),
        0,
        "island-only fork must not run a single scratch SSSP"
    );

    // An override at the East transit PoP: affected trees are repaired
    // incrementally, not rebuilt.
    let transit = vec![0.0, 0.0, 0.0, 4e-3, 0.0, 0.0];
    let (repaired_exposure, snap) = measured_fork(&on, transit.clone());
    assert_eq!(counter(&snap, "forks_forecast_delta"), 1);
    assert!(
        counter(&snap, "sssp_repairs") > 0,
        "transit override must repair trees incrementally"
    );
    let delta_sssp_runs = counter(&snap, "risk_sssp_runs");

    // Delta invalidation off: the same overrides take the structural fork
    // path (no forecast fast path) yet produce byte-identical exposure.
    let (off_survived, snap) = measured_fork(&off, island_only);
    assert_eq!(counter(&snap, "forks_forecast_delta"), 0);
    assert_eq!(counter(&snap, "forks_created"), 1);
    assert_eq!(
        off_survived, survived_exposure,
        "delta-off island fork diverged"
    );
    let (off_repaired, snap) = measured_fork(&off, transit);
    assert_eq!(counter(&snap, "forks_forecast_delta"), 0);
    assert_eq!(counter(&snap, "sssp_repairs"), 0, "delta-off never repairs");
    assert_eq!(
        off_repaired, repaired_exposure,
        "delta-off transit fork diverged"
    );
    assert!(
        counter(&snap, "risk_sssp_runs") >= delta_sssp_runs,
        "the delta path must not run more scratch SSSPs than the blanket path"
    );
}
