//! A cold start: from nothing to planners that are ready to answer, with
//! each layer timed from outside around the public call that implements it.

use riskroute::prelude::*;
use riskroute_cli::CliContext;
use riskroute_hazard::{EventKind, ALL_EVENT_KINDS};
use riskroute_topology::scale::synth_network;
use std::hint::black_box;

use std::collections::BTreeMap;

use crate::stats::{add, digest_bits, median, Layers, Tracer};

/// The λ weights every op runs at: the CLI default (the paper's §7 values).
pub const WEIGHTS: RiskWeights = RiskWeights::PAPER;
/// The CLI's substrate sizes (`riskroute --help`: 20k census blocks, at most
/// 3,000 events per hazard kind).
const CLI_BLOCKS: usize = 20_000;
const CLI_EVENT_CAP: usize = 3_000;

/// The setup layers whose spans are children of one cold start.
pub const SETUP_CHILDREN: &[&str] = &[
    "topology.synth_ms",
    "cli.context_build_ms",
    "population.assign_ms",
    "hazard.risk_at_all_ms",
    "core.planner_new_ms",
];

/// A built context plus what its cold start cost.
pub struct Cold {
    pub ctx: CliContext,
    /// Wall clock of the whole cold start, ms.
    pub wall_ms: f64,
    /// Per-layer times of this cold start (ms) and the kernel-evaluation
    /// count of the risk step.
    pub layers: Layers,
    /// `to_bits` digest of each planned network's historical-risk vector.
    pub risk_digests: Vec<(String, u64)>,
    /// Name of the synthetic network, when one was imported.
    pub synth_name: Option<String>,
}

fn kind_name(kind: EventKind) -> &'static str {
    match kind {
        EventKind::FemaHurricane => "hurricane",
        EventKind::FemaTornado => "tornado",
        EventKind::FemaStorm => "storm",
        EventKind::NoaaEarthquake => "earthquake",
        EventKind::NoaaWind => "wind",
    }
}

/// Build a fresh context (plus a synthetic `n`-PoP network when `synth` is
/// given, imported as `--graphml` would) and one pooled planner per network
/// in `planners` (`"synth"` names the synthetic one). Nothing is shared with
/// any earlier cold start, so every route-tree cache starts empty.
///
/// The planner is assembled exactly as `Planner::for_network` does —
/// `PopShares::assign`, `NodeRisk::from_historical`, `Planner::new` — so
/// each step gets its own span. With `traced`, the risk step runs as one
/// `risk_at_all` per hazard kind (a span each) summed in the model's own
/// order; its bits are checked against the untraced path by the caller.
pub fn cold_start(
    tr: &mut Tracer,
    traced: bool,
    synth: Option<(usize, u64)>,
    planners: &[&str],
    parallelism: Parallelism,
) -> Result<Cold, String> {
    let mut layers = Layers::new();
    let root = tr.open("setup");
    let imported = match synth {
        Some((n, seed)) => Some(
            tr.layer(&mut layers, "topology.synth", || synth_network(n, seed))
                .map_err(|e| format!("synth_network({n}, {seed}): {e}"))?,
        ),
        None => None,
    };
    let mut ctx = tr
        .layer(&mut layers, "cli.context_build", || CliContext::build(&[]))
        .map_err(|e| format!("CliContext::build: {e}"))?;
    let synth_name = imported.as_ref().map(|n| n.name().to_string());
    ctx.imported.extend(imported);
    ctx.parallelism = parallelism;
    let mut risk_digests = Vec::new();
    for &name in planners {
        let name = if name == "synth" {
            synth_name
                .as_deref()
                .ok_or("no synthetic network in this cold start")?
        } else {
            name
        };
        let net = ctx.network(name).map_err(|e| e.to_string())?;
        let shares = tr.layer(&mut layers, "population.assign", || {
            PopShares::assign(&ctx.population, net, None)
        });
        let points: Vec<_> = net.pops().iter().map(|p| p.location).collect();
        let open = tr.open("hazard.risk_at_all");
        let risk = if traced {
            let per_kind: Vec<Vec<f64>> = ctx
                .hazards
                .surfaces()
                .iter()
                .map(|s| {
                    let single = HistoricalRisk::new(vec![s.clone()]);
                    let name = format!("hazard.risk_ms.{}", kind_name(s.kind()));
                    let open = tr.open(&name);
                    let v = single.risk_at_all(&points);
                    add(&mut layers, &name, tr.close(open));
                    v
                })
                .collect();
            let historical: Vec<f64> = (0..points.len())
                .map(|i| per_kind.iter().map(|v| v[i]).sum())
                .collect();
            NodeRisk::new(historical, vec![0.0; points.len()])
        } else {
            NodeRisk::from_historical(net, &ctx.hazards)
        };
        let ms = tr.close(open);
        add(&mut layers, "hazard.risk_at_all_ms", ms);
        let evals: usize = ALL_EVENT_KINDS
            .iter()
            .map(|k| k.paper_count().min(CLI_EVENT_CAP))
            .sum::<usize>()
            * points.len();
        add(&mut layers, "hazard.kernel_evals", evals as f64);
        risk_digests.push((
            name.to_string(),
            digest_bits((0..risk.len()).map(|v| risk.historical(v))),
        ));
        let planner = tr.layer(&mut layers, "core.planner_new", || {
            Planner::new(net, risk, shares, WEIGHTS)
        });
        ctx.pool.planner_for(name, WEIGHTS, || planner);
    }
    let wall_ms = tr.close(root);
    if traced {
        // `CliContext::build` hides its two substrate layers; time them by
        // building each once more, outside the cold start's wall clock.
        let root = tr.open("setup.substrate");
        tr.layer(&mut layers, "population.synthesize", || {
            black_box(PopulationModel::synthesize(
                riskroute_cli::CLI_SEED,
                CLI_BLOCKS,
            ))
        });
        tr.layer(&mut layers, "hazard.fit", || {
            black_box(HistoricalRisk::standard(
                riskroute_cli::CLI_SEED,
                Some(CLI_EVENT_CAP),
            ))
        });
        tr.close(root);
    }
    Ok(Cold {
        ctx,
        wall_ms,
        layers,
        risk_digests,
        synth_name,
    })
}

/// Set-up metrics of a run: each layer's median over the cold starts
/// (wall clock in ms, layers), plus the risk step's cost per kernel
/// evaluation and its share of the cold start.
pub fn setup_metrics(colds: &[&(f64, Layers)], out: &mut BTreeMap<String, f64>) {
    let get = |l: &Layers, k: &str| l.get(k).copied().unwrap_or(0.0);
    let cold_median = |f: &dyn Fn(f64, &Layers) -> f64| {
        median(&colds.iter().map(|(w, l)| f(*w, l)).collect::<Vec<_>>())
    };
    let mut names: Vec<&String> = colds.iter().flat_map(|(_, l)| l.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        out.insert(name.clone(), cold_median(&|_, l| get(l, name)));
    }
    out.insert(
        "hazard.ns_per_eval".into(),
        cold_median(&|_, l| {
            get(l, "hazard.risk_at_all_ms") * 1e6 / get(l, "hazard.kernel_evals").max(1.0)
        }),
    );
    out.insert(
        "hazard.risk_at_all_share".into(),
        cold_median(&|w, l| get(l, "hazard.risk_at_all_ms") / w),
    );
}
