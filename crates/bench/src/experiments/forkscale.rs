//! Scenario-fork scaling: copy-on-write forks vs rebuilding the planner.
//!
//! Runs the full N-1 sweep (every node, then every link) on the largest
//! corpus network (Level3) three ways:
//!
//! 1. **Fork engine**: [`riskroute::scenario::run_sweep`] — each scenario
//!    is a copy-on-write fork of the base planner that masks the CSR
//!    snapshot in place and adopts every base route tree the failure
//!    provably cannot touch.
//! 2. **Rebuild, risk reused**: a fresh `Network` + `Planner` per
//!    scenario with the base risk/share vectors cloned — the charitable
//!    hand-rolled alternative.
//! 3. **Full rebuild**: `Planner::for_network` per scenario, re-deriving
//!    risk (hazard KDE) and population shares from the substrate — what
//!    "rebuild the planner" means through the public API. This one costs
//!    seconds per scenario, so it is measured over an evenly spaced
//!    sample and extrapolated (the JSON labels the estimate as such).
//!
//! The per-scenario exposures are asserted byte-identical before any
//! timing is trusted. Wall time, SSSP counts, fork throughput, and the
//! cache-reuse ratio land in a text table and, machine-readable, in
//! `results/BENCH_fork.json`.

use crate::{emit, emit_named, timed, ExperimentContext, TextTable};
use riskroute::prelude::*;
use riskroute::scenario::{scenario_specs, ExposureReport, ScenarioSpec};
use riskroute::FailElement;
use riskroute_json::Json;
use riskroute_population::PopShares;
use riskroute_topology::Network;

/// How many scenarios the full-`Planner::for_network` rebuild segment
/// measures directly (evenly spaced over the spec list, so it samples
/// both node and link failures). Each one costs seconds, which is why
/// this segment extrapolates instead of running all scenarios.
const FULL_REBUILD_SAMPLES: usize = 4;

/// One measured segment: wall time plus obs-counter deltas.
struct Segment {
    name: &'static str,
    wall_ms: f64,
    sssp_runs: u64,
    forks_created: u64,
    forks_reused: u64,
    trees_adopted: u64,
}

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
            forks_created: delta("forks_created"),
            forks_reused: delta("forks_reused_cache"),
            trees_adopted: delta("scenario_trees_adopted"),
        },
        out,
    )
}

/// The topology a failed element leaves behind: same PoPs, surviving
/// links only (a failed node keeps its PoP entry but loses every
/// incident link, which is how the fork engine models it too).
fn masked_network(net: &Network, e: FailElement) -> Network {
    let keep = |a: usize, b: usize| match e {
        FailElement::Node(v) => a != v && b != v,
        FailElement::Link(x, y) => !(a.min(b) == x && a.max(b) == y),
    };
    let keep_pairs: Vec<(usize, usize)> = net
        .links()
        .iter()
        .filter(|l| keep(l.a, l.b))
        .map(|l| (l.a, l.b))
        .collect();
    Network::new(net.name(), net.kind(), net.pops().to_vec(), keep_pairs)
        .expect("masking an existing topology keeps it valid")
}

/// The charitable no-fork baseline: rebuild `Network` + `Planner` per
/// scenario but clone the base risk/share vectors instead of re-deriving
/// them. Cheap enough to run for every scenario, which is what makes the
/// full byte-identity sweep affordable.
fn riskreuse_exposure(net: &Network, base: &Planner, e: FailElement) -> ExposureReport {
    let rebuilt = Planner::new(
        &masked_network(net, e),
        base.risk().clone(),
        PopShares::from_shares(base.shares().shares().to_vec()),
        base.weights(),
    );
    riskroute::base_exposure(&rebuilt)
}

fn spec_element(spec: &ScenarioSpec) -> FailElement {
    let ScenarioSpec::One(e) = spec else {
        unreachable!("N-1 emits only single-element specs")
    };
    *e
}

/// Regenerate the fork-scaling table; returns the rendered rows so the
/// harness can append them to `results/timings.txt`.
pub fn run(ctx: &ExperimentContext) -> String {
    let net = ctx
        .corpus
        .all_networks()
        .max_by_key(|n| n.pop_count())
        .unwrap_or_else(|| unreachable!("the standard corpus is never empty"));
    let weights = RiskWeights::historical_only(1e5);
    let planner = ctx.planner_for(net, weights);
    let specs = scenario_specs(net, SweepMode::N1);

    let (fork, outcome) = measure("n1 fork-engine", || {
        run_sweep(&planner, net, SweepMode::N1).expect("N-1 sweep on a corpus network")
    });
    let (riskreuse, rebuilt) = measure("n1 rebuild-riskreuse", || {
        specs
            .iter()
            .map(|spec| riskreuse_exposure(net, &planner, spec_element(spec)))
            .collect::<Vec<_>>()
    });

    assert_eq!(outcome.records.len(), rebuilt.len());
    for (rec, exp) in outcome.records.iter().zip(&rebuilt) {
        assert_eq!(
            rec.exposure, *exp,
            "fork diverged from the risk-reusing rebuild at {}",
            rec.label
        );
    }

    // The honest naive baseline — `Planner::for_network` per scenario —
    // re-derives the hazard KDE and population shares every time and
    // costs seconds per scenario, so it runs on an evenly spaced sample
    // and is extrapolated. Risk and shares depend only on PoP locations
    // (unchanged by masking), so its exposures are still asserted
    // byte-identical against the fork records they sample.
    let sample: Vec<usize> = (0..FULL_REBUILD_SAMPLES)
        .map(|i| i * specs.len() / FULL_REBUILD_SAMPLES)
        .collect();
    let (full, full_exposures) = measure("n1 rebuild-full", || {
        sample
            .iter()
            .map(|&i| {
                let masked = masked_network(net, spec_element(&specs[i]));
                let rebuilt = ctx.planner_for(&masked, weights);
                riskroute::base_exposure(&rebuilt)
            })
            .collect::<Vec<_>>()
    });
    for (&i, exp) in sample.iter().zip(&full_exposures) {
        assert_eq!(
            outcome.records[i].exposure, *exp,
            "fork diverged from the full planner rebuild at {}",
            outcome.records[i].label
        );
    }

    let scenarios = outcome.records.len();
    let full_per_scenario_ms = full.wall_ms / sample.len() as f64;
    let full_est_wall_ms = full_per_scenario_ms * scenarios as f64;
    let speedup = full_est_wall_ms / fork.wall_ms.max(1e-9);
    let speedup_risk_reuse = riskreuse.wall_ms / fork.wall_ms.max(1e-9);
    let forks_per_sec = scenarios as f64 / (fork.wall_ms / 1e3).max(1e-9);
    let reuse_ratio = if fork.forks_created == 0 {
        0.0
    } else {
        fork.forks_reused as f64 / fork.forks_created as f64
    };

    let mut t = TextTable::new(&[
        "segment",
        "scenarios",
        "wall_ms",
        "sssp_runs",
        "forks",
        "scen_per_sec",
    ]);
    for (s, count) in [
        (&fork, scenarios),
        (&riskreuse, scenarios),
        (&full, sample.len()),
    ] {
        let per_sec = count as f64 / (s.wall_ms / 1e3).max(1e-9);
        t.row(&[
            s.name.to_string(),
            count.to_string(),
            format!("{:.1}", s.wall_ms),
            s.sssp_runs.to_string(),
            s.forks_created.to_string(),
            format!("{per_sec:.0}"),
        ]);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Scenario-fork scaling: full N-1 sweep on {} ({} PoPs, {} links, \
         {scenarios} scenarios).\n\
         Exposures verified byte-identical: fork-engine vs risk-reusing \
         rebuild (all {scenarios}) and vs full planner rebuild (sample of \
         {}).\n\
         speedup vs full per-scenario planner rebuild {speedup:.0}x \
         (measured {full_per_scenario_ms:.0} ms/scenario over the sample, \
         extrapolated to {full_est_wall_ms:.0} ms); vs risk-reusing \
         rebuild {speedup_risk_reuse:.1}x.\n\
         {forks_per_sec:.0} forks/sec, cache-reuse ratio {reuse_ratio:.3}, \
         {} route trees adopted\n\n",
        net.name(),
        net.pop_count(),
        net.link_count(),
        sample.len(),
        fork.trees_adopted,
    ));
    out.push_str(&t.render());

    let json = Json::obj([
        ("network", Json::Str(net.name().to_string())),
        ("pops", Json::Num(net.pop_count() as f64)),
        ("links", Json::Num(net.link_count() as f64)),
        ("scenarios", Json::Num(scenarios as f64)),
        ("fork_wall_ms", Json::Num(fork.wall_ms)),
        ("rebuild_riskreuse_wall_ms", Json::Num(riskreuse.wall_ms)),
        ("rebuild_full_sample_count", Json::Num(sample.len() as f64)),
        (
            "rebuild_full_ms_per_scenario",
            Json::Num(full_per_scenario_ms),
        ),
        ("rebuild_full_est_wall_ms", Json::Num(full_est_wall_ms)),
        ("speedup", Json::Num(speedup)),
        ("speedup_risk_reuse", Json::Num(speedup_risk_reuse)),
        ("forks_per_sec", Json::Num(forks_per_sec)),
        ("cache_reuse_ratio", Json::Num(reuse_ratio)),
        ("fork_sssp_runs", Json::Num(fork.sssp_runs as f64)),
        ("riskreuse_sssp_runs", Json::Num(riskreuse.sssp_runs as f64)),
        ("trees_adopted", Json::Num(fork.trees_adopted as f64)),
    ]);
    emit_named("BENCH_fork.json", &format!("{}\n", json.to_string_pretty()));

    emit("forkscale", &out);
    out
}
