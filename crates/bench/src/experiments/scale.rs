//! Continental-scale benchmark: size-vs-wall-time for the 10k-PoP path.
//!
//! Three measurements, each with a machine-checked regression guard:
//!
//! 1. **Synthesis curve** — `riskroute synth` topologies at 1k/3k/10k PoPs
//!    (the generator handles 100k; the curve stops at 10k to keep harness
//!    wall time sane).
//! 2. **Planner build and sampled pair sweep on the 10k-PoP network** — the
//!    planner is built under the CLI's hazard model (3,000 events per kind),
//!    so its row is the per-PoP risk cost of a real cold start; then 48
//!    seeded PoP pairs are routed with the bucket-queue frontier off and on
//!    (route-tree cache disabled so every run exercises raw SSSP). Outcomes are asserted
//!    identical before any timing is trusted, then the bucket path must be
//!    strictly faster (best of [`TIMING_ROUNDS`]).
//! 3. **Binned KDE** — a 4000-event corpus evaluated on a 160×320 CONUS
//!    raster, exact vs binned; the binned path must win by at least
//!    [`KDE_MIN_SPEEDUP`]× and agree pointwise at the surface peak.
//!
//! Results render as a text table and land machine-readable in
//! `results/BENCH_scale.json`.

use crate::{emit, emit_named, timed, ExperimentContext, TextTable, MASTER_SEED};
use riskroute::prelude::*;
use riskroute_geo::bbox::CONUS;
use riskroute_geo::{GeoGrid, GeoPoint};
use riskroute_hazard::HistoricalRisk;
use riskroute_json::Json;
use riskroute_stats::GeoKde;

/// Synthesis curve sizes.
const SYNTH_SIZES: &[usize] = &[1_000, 3_000, 10_000];

/// Sampled PoP pairs for the sweep.
const SWEEP_PAIRS: usize = 48;

/// Timed repetitions per sweep mode; the minimum wall time is compared.
const TIMING_ROUNDS: usize = 3;

/// The binned KDE must beat the exact evaluation by at least this factor.
const KDE_MIN_SPEEDUP: f64 = 2.0;

/// One result row.
struct Row {
    name: String,
    wall_ms: f64,
    detail: Vec<(&'static str, f64)>,
}

/// `SWEEP_PAIRS` seeded (src, dst) pairs, never self-pairs — the same
/// scheme as `riskroute ratio --sample`.
fn sampled_pairs(n: usize, k: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = riskroute_rng::StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n - 1);
            (i, if j >= i { j + 1 } else { j })
        })
        .collect()
}

/// Seeded KDE corpus over the hurricane belt.
fn kde_corpus(n: usize, seed: u64) -> Vec<GeoPoint> {
    let mut rng = riskroute_rng::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let lat = 26.0 + rng.gen_f64() * 16.0;
            let lon = -106.0 + rng.gen_f64() * 26.0;
            GeoPoint::new(lat, lon).unwrap_or_else(|_| unreachable!("in range"))
        })
        .collect()
}

/// Regenerate the scale benchmark; returns the rendered rows so the
/// harness can append them to `results/timings.txt`.
pub fn run(ctx: &ExperimentContext) -> String {
    let mut rows: Vec<Row> = Vec::new();

    // 1. Synthesis curve. The 10k network is kept for the sweep below.
    let mut big = None;
    for &n in SYNTH_SIZES {
        let (wall_ms, net) = timed(|| {
            riskroute_topology::scale::synth_network(n, MASTER_SEED)
                .unwrap_or_else(|e| unreachable!("synth generator emits valid links: {e}"))
        });
        rows.push(Row {
            name: format!("synth {n}"),
            wall_ms,
            detail: vec![
                ("pops", net.pop_count() as f64),
                ("links", net.link_count() as f64),
            ],
        });
        big = Some(net);
    }
    let big = big.unwrap_or_else(|| unreachable!("SYNTH_SIZES is non-empty"));

    // 2. Planner build under the CLI's hazard model (its event cap), so the
    // row is the per-PoP risk cost a real 10k cold start pays; then the
    // sampled pair sweep, bucket queue off vs on.
    let hazards = HistoricalRisk::standard(MASTER_SEED, Some(riskroute_cli::CLI_EVENT_CAP));
    let (planner_ms, base) = timed(|| {
        Planner::for_network(&big, &ctx.population, &hazards, RiskWeights::PAPER)
            .with_route_cache(false)
    });
    rows.push(Row {
        name: format!("planner build {}", big.pop_count()),
        wall_ms: planner_ms,
        detail: vec![("pops", big.pop_count() as f64)],
    });
    let pairs = sampled_pairs(big.pop_count(), SWEEP_PAIRS, MASTER_SEED);
    let heap_planner = base.clone().with_bucket_queue(false);
    let bucket_planner = base.with_bucket_queue(true);

    let counter = |n: &str| {
        riskroute_obs::snapshot()
            .counters
            .get(n)
            .copied()
            .unwrap_or(0)
    };
    let sweep = |planner: &Planner| {
        let mut best_ms = f64::INFINITY;
        let mut out = None;
        for _ in 0..TIMING_ROUNDS {
            let (wall_ms, s) = timed(|| planner.pair_list_sweep(&pairs));
            best_ms = best_ms.min(wall_ms);
            out = Some(s);
        }
        (
            best_ms,
            out.unwrap_or_else(|| unreachable!("TIMING_ROUNDS > 0")),
        )
    };
    let (heap_ms, heap_sweep) = sweep(&heap_planner);
    let settles_before = counter("bucket_queue_settles");
    let skips_before = counter("bucket_relaxations_skipped");
    let (bucket_ms, bucket_sweep) = sweep(&bucket_planner);
    let settles = counter("bucket_queue_settles").saturating_sub(settles_before);
    let skips = counter("bucket_relaxations_skipped").saturating_sub(skips_before);

    // Equivalence first, speed second: a fast wrong answer is worthless.
    assert_eq!(
        heap_sweep.outcomes, bucket_sweep.outcomes,
        "bucket queue changed sweep outcomes"
    );
    assert_eq!(
        heap_sweep.stranded, bucket_sweep.stranded,
        "bucket queue changed stranded pairs"
    );
    assert!(
        bucket_ms < heap_ms,
        "bucket-queue sweep ({bucket_ms:.1} ms) must beat the binary heap \
         ({heap_ms:.1} ms) on the {}-PoP network",
        big.pop_count(),
    );
    rows.push(Row {
        name: format!("sweep {} heap", big.pop_count()),
        wall_ms: heap_ms,
        detail: vec![("pairs", pairs.len() as f64)],
    });
    rows.push(Row {
        name: format!("sweep {} bucket", big.pop_count()),
        wall_ms: bucket_ms,
        detail: vec![
            ("pairs", pairs.len() as f64),
            ("speedup", heap_ms / bucket_ms),
            ("settles", settles as f64),
            ("skipped", skips as f64),
        ],
    });

    // 3. Binned vs exact KDE on a continental raster.
    let kde = GeoKde::fit(kde_corpus(4_000, MASTER_SEED), 60.0);
    let grid =
        || GeoGrid::new(CONUS, 160, 320).unwrap_or_else(|_| unreachable!("CONUS raster is valid"));
    let (exact_ms, exact) = timed(|| kde.evaluate_grid_exact(grid()));
    let (binned_ms, binned) = timed(|| kde.evaluate_grid(grid()));
    let (pr, pc, peak) = exact
        .argmax()
        .unwrap_or_else(|| unreachable!("non-empty raster"));
    let peak_err = (binned.get(pr, pc) - peak).abs() / peak;
    assert!(
        peak_err < 0.05,
        "binned KDE off by {peak_err:.3} at the surface peak"
    );
    assert!(
        binned_ms * KDE_MIN_SPEEDUP < exact_ms,
        "binned KDE ({binned_ms:.1} ms) must beat exact ({exact_ms:.1} ms) \
         by at least {KDE_MIN_SPEEDUP}x"
    );
    rows.push(Row {
        name: "kde exact 160x320".to_string(),
        wall_ms: exact_ms,
        detail: vec![("events", 4_000.0)],
    });
    rows.push(Row {
        name: "kde binned 160x320".to_string(),
        wall_ms: binned_ms,
        detail: vec![
            ("events", 4_000.0),
            ("speedup", exact_ms / binned_ms),
            ("peak_rel_err", peak_err),
        ],
    });

    let mut t = TextTable::new(&["segment", "wall_ms", "detail"]);
    for r in &rows {
        let detail = r
            .detail
            .iter()
            .map(|(k, v)| format!("{k}={v:.1}"))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(&[r.name.clone(), format!("{:.1}", r.wall_ms), detail]);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Continental scale: synthesis curve, {SWEEP_PAIRS}-pair sweep on the \
         {}-PoP synthetic network (bucket queue off/on, outcomes verified \
         identical, best of {TIMING_ROUNDS}), and binned-vs-exact KDE.\n\n",
        big.pop_count(),
    ));
    out.push_str(&t.render());

    let json_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("experiment", Json::Str(r.name.clone())),
                ("wall_ms", Json::Num(r.wall_ms)),
            ];
            for (k, v) in &r.detail {
                fields.push((*k, Json::Num(*v)));
            }
            Json::obj(fields)
        })
        .collect();
    emit_named(
        "BENCH_scale.json",
        &format!("{}\n", Json::Arr(json_rows).to_string_pretty()),
    );

    emit("scale", &out);
    out
}
