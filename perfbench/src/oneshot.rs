//! The one-shot workloads: cold starts followed by CLI ops, each op called
//! through `riskroute_cli::commands` exactly as a fresh `riskroute` process
//! would, and timed around that call.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use riskroute::prelude::*;
use riskroute::provisioning::greedy_links_budgeted;
use riskroute::replay::{raw_advisories, replay_storm_over_pairs, ReplayTick};
use riskroute::scenario::run_sweep_budgeted;
use riskroute_cli::args::BudgetArgs;
use riskroute_cli::{commands, CliContext};
use riskroute_forecast::ForecastRisk;
use riskroute_rng::StdRng;

use crate::coldstart::{cold_start, setup_metrics, Cold, SETUP_CHILDREN, WEIGHTS};
use crate::stats::{add, digest, median, quantile, HostClock, Layers, Tracer};
use crate::RunResult;

/// One CLI op. `net` names a corpus network, or `"synth"` for the
/// synthetic one.
pub enum Op {
    /// `riskroute route <net> <src> <dst>` over `pairs` seeded pairs;
    /// each `part` draws its own pairs.
    Route {
        net: &'static str,
        pairs: usize,
        part: u64,
    },
    /// `riskroute ratio <net> [--sample K --seed <seed>]`.
    Ratio {
        net: &'static str,
        sample: Option<usize>,
    },
    /// `riskroute provision <net> -k K`.
    Provision { net: &'static str, k: usize },
    /// `riskroute replay <net> katrina --stride S` over all pairs, or over
    /// `sample` seeded sources × `sample` seeded destinations through
    /// `replay_storm_over_pairs`.
    Replay {
        net: &'static str,
        stride: usize,
        sample: Option<usize>,
    },
    /// `riskroute sweep <net> --mode n1`.
    Sweep { net: &'static str },
}

impl Op {
    fn metric(&self) -> &'static str {
        match self {
            Op::Route { .. } => "route_ms",
            Op::Ratio { .. } => "ratio_ms",
            Op::Provision { .. } => "provision_ms",
            Op::Replay { .. } => "replay_ms",
            Op::Sweep { .. } => "sweep_ms",
        }
    }
}

pub struct Spec {
    /// PoP count of the synthetic network built in every cold start.
    pub synth: Option<usize>,
    pub parallelism: Parallelism,
    /// The networks each cold start builds planners for.
    pub planners: &'static [&'static str],
    pub ops: Vec<Op>,
    /// Passes over `ops` per cold start.
    pub rounds: usize,
}

/// The CLI's real configuration. Every repetition is a fresh context (a
/// cold start) and every op runs on fresh planners, so each starts on an
/// empty route-tree cache as in a new process. The ops are sized so that a
/// repetition takes well under a second: each op then recurs dozens of
/// times in a run and its median rests on samples from the whole run.
/// Level3, the paper's largest network, carries the reads and the
/// sampled ratio; Telepak, the largest regional one, carries provision,
/// replay and the N-1 sweep, which on Level3 take seconds each.
pub fn paper_oneshot() -> Spec {
    Spec {
        synth: None,
        parallelism: Parallelism::Sequential,
        planners: &["Level3", "Telepak"],
        ops: vec![
            Op::Route {
                net: "Level3",
                pairs: 80,
                part: 0,
            },
            Op::Ratio {
                net: "Level3",
                sample: Some(1024),
            },
            Op::Provision {
                net: "Telepak",
                k: 2,
            },
            Op::Replay {
                net: "Telepak",
                stride: 4,
                sample: None,
            },
            Op::Sweep { net: "Telepak" },
        ],
        rounds: 1,
    }
}

/// A 10k-PoP synthetic network imported next to the corpus, at the host's
/// core count. Provision and N-1 sweep are all-pairs ops with no tractable
/// 10k form, so they run on Telepak in the same context. Each cold start
/// is followed by six passes over the ops.
pub fn synth10k_cold() -> Spec {
    Spec {
        synth: Some(10_000),
        parallelism: Parallelism::Auto,
        planners: &["synth", "Telepak"],
        ops: vec![
            Op::Route {
                net: "synth",
                pairs: 64,
                part: 0,
            },
            Op::Ratio {
                net: "synth",
                sample: Some(64),
            },
            Op::Replay {
                net: "synth",
                stride: 2,
                sample: Some(8),
            },
            Op::Provision {
                net: "Telepak",
                k: 2,
            },
            Op::Sweep { net: "Telepak" },
        ],
        rounds: 6,
    }
}

/// Route pairs of one part, drawn from the run's seed: `k` distinct
/// sources, each with a random other destination. Distinct sources make
/// every route a cache miss on its fresh planner, so what a route costs does
/// not depend on how often a seed happens to repeat a source.
fn route_pairs(seed: u64, n: usize, k: usize, part: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x726f_7574_6500 ^ part);
    let mut sources: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut sources);
    sources.truncate(k);
    sources
        .into_iter()
        .map(|s| {
            let d = rng.gen_range(0..n - 1);
            (s, if d >= s { d + 1 } else { d })
        })
        .collect()
}

/// Replay endpoints: `k` sources and `k` destinations. Drawn from the
/// CLI's fixed seed, not the run's: a replay's cost depends strongly on
/// where its endpoints sit relative to the storm, and a seed-dependent
/// cost would read as run-to-run spread.
fn replay_ends(n: usize, k: usize) -> (Vec<usize>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(riskroute_cli::CLI_SEED ^ 0x7265_706c_6179);
    let mut all: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut all);
    (all[..k].to_vec(), all[k..2 * k].to_vec())
}

/// One timed call: a cold start (`setup_s`) or an op.
struct Timed {
    metric: &'static str,
    /// Whether the call runs on every worker (all ops but route reads;
    /// a cold start runs on one thread).
    parallel: bool,
    start: Instant,
    /// Wall clock of the whole call, ms.
    ms: f64,
    /// The metric's samples: the cold start's seconds, or the op's latency
    /// per call in ms.
    samples: Vec<f64>,
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    /// Cold-start wall clock (ms) and layers, one entry per cold start.
    colds: Vec<(f64, Layers)>,
    /// Every timed cold start and op, for the end-to-end metrics.
    timed: Vec<Timed>,
    /// Setup plus op wall clock, ms.
    wall_ms: f64,
    /// Op wall clock of the first round, the one a traced repetition
    /// decomposes, ms.
    first_round_ms: f64,
    /// Route pairs the decomposition re-ran.
    decomposed_routes: usize,
    /// Decomposed op invocations that added to each entry of `layers`;
    /// engine counters have none (they are totals per repetition).
    calls: BTreeMap<String, usize>,
    /// Query-layer times (ms) and engine counters of a traced repetition.
    layers: Layers,
    ticks_ms: Vec<f64>,
    rounds_ms: Vec<f64>,
    forks_ms: Vec<f64>,
}

struct Runner<'a> {
    spec: &'a Spec,
    seed: u64,
    tr: Tracer,
    /// First digest seen for each output; later repetitions must match.
    reference: BTreeMap<String, u64>,
    /// Decomposed paths are checked against the real entry points once.
    decomposition_checked: bool,
    attempted: u64,
    failures: Vec<String>,
    /// Reference work, timed before every cold start and op.
    clock: HostClock,
}

fn resolve<'c>(cold: &'c Cold, net: &'c str) -> &'c str {
    if net == "synth" {
        cold.synth_name.as_deref().unwrap_or(net)
    } else {
        net
    }
}

fn pooled<'c>(ctx: &'c CliContext, name: &str) -> Result<(Planner, &'c Network), String> {
    let net = ctx.network(name).map_err(|e| e.to_string())?;
    Ok((ctx.planner(net, WEIGHTS), net))
}

/// A planner with the pooled planner's inputs and an empty route-tree
/// cache, for a decomposed re-run that starts as cold as the op did.
fn fresh<'c>(ctx: &'c CliContext, name: &str) -> Result<(Planner, &'c Network), String> {
    let (p, net) = pooled(ctx, name)?;
    let shares = PopShares::from_shares(p.shares().shares().to_vec());
    let planner =
        Planner::new(net, p.risk().clone(), shares, WEIGHTS).with_parallelism(ctx.parallelism);
    Ok((planner, net))
}

fn replay_pairs(n: usize, ends: Option<(Vec<usize>, Vec<usize>)>) -> (Vec<usize>, Vec<usize>) {
    ends.unwrap_or_else(|| ((0..n).collect(), (0..n).collect()))
}

impl Runner<'_> {
    fn check(&mut self, key: String, d: u64, traced: bool) {
        let seen = *self.reference.entry(key.clone()).or_insert(d);
        if seen != d {
            self.failures.push(format!(
                "output digest of {key} changed ({seen:016x} -> {d:016x}, traced={traced})"
            ));
        }
    }

    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Run one op through the CLI; returns its latency samples (ms) and
    /// the output digest.
    fn run_op(&mut self, cold: &Cold, op: &Op, round: usize) -> Result<(Vec<f64>, u64), String> {
        let ctx = &cold.ctx;
        // Each pass over the ops draws its own seeded queries, so a run's
        // medians do not rest on one draw of route and ratio pairs.
        let seed = self.seed ^ ((round as u64) << 32);
        let budget = BudgetArgs::default();
        let timed = |f: &mut dyn FnMut() -> Result<String, String>| {
            let t = Instant::now();
            let out = f()?;
            Ok::<_, String>((t.elapsed().as_secs_f64() * 1e3, out))
        };
        match *op {
            Op::Route { net, pairs, part } => {
                let name = resolve(cold, net);
                let n = ctx.network(name).map_err(|e| e.to_string())?.pop_count();
                let pairs = route_pairs(seed, n, pairs, part);
                let mut all = String::new();
                let mut samples = Vec::with_capacity(pairs.len());
                for (s, d) in pairs {
                    let (ms, out) = timed(&mut || {
                        commands::route(ctx, name, &s.to_string(), &d.to_string(), WEIGHTS)
                            .map_err(|e| e.to_string())
                    })?;
                    self.attempted += 1;
                    // RiskRoute minimises bit-risk miles, so it never does
                    // worse than the shortest path under the same metric.
                    let reduction = out
                        .lines()
                        .find_map(|l| l.strip_prefix("risk reduction "))
                        .and_then(|r| r.split('%').next())
                        .and_then(|r| r.parse::<f64>().ok());
                    if !matches!(reduction, Some(r) if r >= 0.0) {
                        self.fail(format!("route {name} {s}->{d}: bad risk reduction line"));
                    }
                    samples.push(ms);
                    all.push_str(&out);
                }
                Ok((samples, digest(all.as_bytes())))
            }
            Op::Ratio { net, sample } => {
                let name = resolve(cold, net);
                self.attempted += 1;
                let (ms, out) = timed(&mut || {
                    commands::ratio(ctx, name, WEIGHTS, sample, seed).map_err(|e| e.to_string())
                })?;
                Ok((vec![ms], digest(out.as_bytes())))
            }
            Op::Provision { net, k } => {
                let name = resolve(cold, net);
                self.attempted += 1;
                let (ms, out) = timed(&mut || {
                    commands::provision(ctx, name, k, WEIGHTS, &budget, false)
                        .map_err(|e| e.to_string())
                })?;
                Ok((vec![ms], digest(out.as_bytes())))
            }
            Op::Replay {
                net,
                stride,
                sample,
            } => {
                let name = resolve(cold, net);
                self.attempted += 1;
                let (ms, out) = match sample {
                    None => timed(&mut || {
                        commands::replay(ctx, name, "katrina", stride, WEIGHTS, &budget, false)
                            .map_err(|e| e.to_string())
                    })?,
                    Some(k) => {
                        let n = ctx.network(name).map_err(|e| e.to_string())?.pop_count();
                        let (src, dst) = replay_ends(n, k);
                        timed(&mut || {
                            let (planner, net) = pooled(ctx, name)?;
                            let locations: Vec<_> = net.pops().iter().map(|p| p.location).collect();
                            replay_storm_over_pairs(
                                &planner,
                                name,
                                &locations,
                                Storm::Katrina,
                                stride,
                                &src,
                                &dst,
                            )
                            .map(|r| format!("{r:?}"))
                            .map_err(|e| e.to_string())
                        })?
                    }
                };
                Ok((vec![ms], digest(out.as_bytes())))
            }
            Op::Sweep { net } => {
                let name = resolve(cold, net);
                self.attempted += 1;
                let (ms, out) = timed(&mut || {
                    commands::sweep(
                        ctx,
                        name,
                        "n1",
                        64,
                        riskroute_cli::CLI_SEED,
                        WEIGHTS,
                        &budget,
                        false,
                    )
                    .map_err(|e| e.to_string())
                })?;
                Ok((vec![ms], digest(out.as_bytes())))
            }
        }
    }

    /// Re-run `op` on a fresh planner through the layer calls the CLI op is
    /// made of, with a span around each, and add the layer times to
    /// `rep.layers`. The first traced repetition also checks that the
    /// decomposed path computes what the real entry point computes.
    fn decompose(&mut self, cold: &Cold, op: &Op, rep: &mut Rep) -> Result<(), String> {
        let ctx = &cold.ctx;
        let mut op_layers = Layers::new();
        let layers = &mut op_layers;
        let check = !self.decomposition_checked;
        match *op {
            Op::Route { net, pairs, part } => {
                let name = resolve(cold, net);
                let (planner, _) = fresh(ctx, name)?;
                rep.decomposed_routes += pairs;
                for (s, d) in route_pairs(self.seed, planner.pop_count(), pairs, part) {
                    let (sp, rr) = self.tr.layer(layers, "intradomain.route", || {
                        (planner.shortest_route(s, d), planner.try_risk_route(s, d))
                    });
                    // RiskRoute minimises bit-risk miles, so it is never worse
                    // than the shortest path under the same metric, up to
                    // the rounding of two different summation orders.
                    match (sp, rr) {
                        (Some(sp), Ok(rr))
                            if rr.bit_risk_miles <= sp.bit_risk_miles * (1.0 + 1e-12) => {}
                        _ => self.fail(format!(
                            "route {name} {s}->{d}: RiskRoute worse than the shortest path"
                        )),
                    }
                }
            }
            Op::Ratio { net, sample } => {
                let name = resolve(cold, net);
                let (planner, _) = fresh(ctx, name)?;
                let n = planner.pop_count();
                let sweep = self
                    .tr
                    .layer(layers, "intradomain.pair_sweep", || match sample {
                        Some(k) => {
                            planner.pair_list_sweep(&commands::sampled_pairs(n, k, self.seed))
                        }
                        None => {
                            let all: Vec<usize> = (0..n).collect();
                            planner.pair_sweep(&all, &all)
                        }
                    });
                let report = self.tr.layer(layers, "ratios.fold", || {
                    RatioReport::aggregate_with_stranded(
                        sweep.outcomes.iter(),
                        sweep.stranded.len(),
                    )
                });
                if check {
                    let out = commands::ratio(ctx, name, WEIGHTS, sample, self.seed)
                        .map_err(|e| e.to_string())?;
                    let eq5 = format!("{:.4}", report.risk_reduction_ratio);
                    let eq6 = format!("{:.4}", report.distance_increase_ratio);
                    if !(out.contains(&eq5) && out.contains(&eq6)) {
                        self.fail(format!(
                            "ratio {name}: decomposed ratios {eq5}/{eq6} not in CLI output"
                        ));
                    }
                }
            }
            Op::Provision { net, k } => {
                let name = resolve(cold, net);
                let (planner, network) = fresh(ctx, name)?;
                let risk = planner.risk().clone();
                let shares = PopShares::from_shares(planner.shares().shares().to_vec());
                let rebuild =
                    move |aug: &Network| Planner::new(aug, risk.clone(), shares.clone(), WEIGHTS);
                let budget = WorkBudget::unlimited();
                let mut last = Instant::now();
                let rounds = &mut rep.rounds_ms;
                let open = self.tr.open("provisioning.greedy");
                let run = greedy_links_budgeted(network, &planner, k, rebuild, &budget, |_| {
                    rounds.push(last.elapsed().as_secs_f64() * 1e3);
                    last = Instant::now();
                });
                let ms = self.tr.close(open);
                add(layers, "provisioning.greedy_ms", ms);
                let (links, stopped) = run.into_parts();
                if stopped.is_some() || links.added.len() != k {
                    self.fail(format!(
                        "provision {name}: {} of {k} links",
                        links.added.len()
                    ));
                }
            }
            Op::Replay {
                net,
                stride,
                sample,
            } => {
                let name = resolve(cold, net);
                let (planner, network) = fresh(ctx, name)?;
                let n = planner.pop_count();
                let (src, dst) = replay_pairs(n, sample.map(|k| replay_ends(n, k)));
                let locations: Vec<_> = network.pops().iter().map(|p| p.location).collect();
                let raws = raw_advisories(Storm::Katrina, stride).map_err(|e| e.to_string())?;
                let mut p = planner.clone();
                let mut ticks = Vec::with_capacity(raws.len());
                for raw in &raws {
                    let open = self.tr.open("replay.tick");
                    let parsed = self.tr.layer(layers, "forecast.parse", || {
                        ForecastRisk::from_advisory_text(&raw.text)
                    });
                    let (forecast, in_scope, in_winds, degraded) =
                        self.tr.layer(layers, "forecast.risk", || match &parsed {
                            Ok(field) => (
                                locations.iter().map(|&y| field.risk(y)).collect(),
                                locations.iter().filter(|&&y| field.in_scope(y)).count(),
                                locations
                                    .iter()
                                    .filter(|&&y| field.in_hurricane_winds(y))
                                    .count(),
                                false,
                            ),
                            Err(_) => (vec![0.0; n], 0, 0, true),
                        });
                    self.tr.layer(layers, "intradomain.set_forecast", || {
                        p.set_forecast(forecast)
                    });
                    let report = self.tr.layer(layers, "replay.pair_sweep", || {
                        let sweep = p.pair_sweep(&src, &dst);
                        RatioReport::aggregate_with_stranded(
                            sweep.outcomes.iter(),
                            sweep.stranded.len(),
                        )
                    });
                    rep.ticks_ms.push(self.tr.close(open));
                    ticks.push(ReplayTick {
                        advisory: raw.number,
                        label: raw.label.clone(),
                        pops_in_scope: in_scope,
                        pops_in_hurricane_winds: in_winds,
                        report,
                        degraded,
                    });
                }
                add(layers, "replay.ticks", ticks.len() as f64);
                if check {
                    let (base, _) = fresh(ctx, name)?;
                    let real = replay_storm_over_pairs(
                        &base,
                        name,
                        &locations,
                        Storm::Katrina,
                        stride,
                        &src,
                        &dst,
                    )
                    .map_err(|e| e.to_string())?;
                    if real.ticks != ticks {
                        self.fail(format!(
                            "replay {name}: decomposed ticks differ from replay_storm_over_pairs"
                        ));
                    }
                }
            }
            Op::Sweep { net } => {
                let name = resolve(cold, net);
                let (planner, network) = fresh(ctx, name)?;
                let budget = WorkBudget::unlimited();
                let start = Instant::now();
                let mut batches: Vec<(f64, usize)> = Vec::new();
                let open = self.tr.open("scenario.sweep");
                let run = run_sweep_budgeted(
                    &planner,
                    network,
                    SweepMode::N1,
                    None,
                    &budget,
                    |_, next| {
                        batches.push((start.elapsed().as_secs_f64() * 1e3, next));
                    },
                );
                let total_ms = self.tr.close(open);
                add(layers, "scenario.sweep_ms", total_ms);
                let (outcome, stopped) = run.map_err(|e| e.to_string())?.into_parts();
                let scenarios = outcome.records.len();
                if stopped.is_some() || scenarios == 0 {
                    self.fail(format!("sweep {name}: incomplete ({scenarios} scenarios)"));
                }
                // The baseline exposure runs before the first fork; forks
                // are timed between batch callbacks (one per 8 scenarios).
                if let (Some(&(t0, i0)), Some(&(t1, i1))) = (batches.first(), batches.last()) {
                    let per_fork = if i1 > i0 {
                        (t1 - t0) / (i1 - i0) as f64
                    } else {
                        t0 / i0.max(1) as f64
                    };
                    rep.forks_ms.push(per_fork);
                    add(
                        layers,
                        "scenario.baseline_ms",
                        (t0 - per_fork * i0 as f64).max(0.0),
                    );
                }
            }
        }
        for (k, v) in op_layers {
            add(&mut rep.layers, &k, v);
            *rep.calls.entry(k).or_default() += 1;
        }
        Ok(())
    }

    /// One repetition: a cold start, then `rounds` passes over the ops,
    /// each op on fresh planners.
    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let spec = self.spec;
        if traced {
            riskroute_obs::reset();
            riskroute_obs::enable();
        }
        // One fixed topology: the run's seed picks queries, not the
        // network, so the cost of a run does not depend on the seed.
        let synth = spec.synth.map(|n| (n, riskroute_cli::CLI_SEED));
        self.clock.tick();
        let start = Instant::now();
        let mut cold =
            match cold_start(&mut self.tr, traced, synth, spec.planners, spec.parallelism) {
                Ok(c) => c,
                Err(e) => {
                    self.attempted += (spec.ops.len() * spec.rounds) as u64;
                    self.fail(format!("cold start: {e}"));
                    return rep;
                }
            };
        rep.wall_ms += cold.wall_ms;
        for (name, d) in &cold.risk_digests {
            self.check(format!("risk:{name}"), *d, traced);
        }
        rep.colds.push((cold.wall_ms, cold.layers.clone()));
        rep.timed.push(Timed {
            metric: "setup_s",
            parallel: false,
            start,
            ms: cold.wall_ms,
            samples: vec![cold.wall_ms / 1e3],
        });
        for round in 0..spec.rounds {
            for (i, op) in spec.ops.iter().enumerate() {
                // The cold start's own planners serve the first op; every
                // later op gets fresh ones, so no op warms another's cache.
                if round + i > 0 {
                    if let Err(e) = rearm(&mut cold, spec.planners) {
                        self.fail(format!("fresh planners: {e}"));
                        continue;
                    }
                }
                self.clock.tick();
                let start = Instant::now();
                let open = self.tr.open(op.metric().trim_end_matches("_ms"));
                let result = self.run_op(&cold, op, round);
                self.tr.close(open);
                match result {
                    Ok((samples, d)) => {
                        let ms: f64 = samples.iter().sum();
                        rep.wall_ms += ms;
                        if round == 0 {
                            rep.first_round_ms += ms;
                        }
                        rep.timed.push(Timed {
                            metric: op.metric(),
                            parallel: !matches!(op, Op::Route { .. }),
                            start,
                            ms,
                            samples,
                        });
                        self.check(format!("{}.{i}.{round}", op.metric()), d, traced);
                    }
                    Err(e) => self.fail(format!("{}: {e}", op.metric())),
                }
            }
        }
        if traced {
            riskroute_obs::disable();
            for op in &spec.ops {
                let open = self.tr.open("decomposed");
                if let Err(e) = self.decompose(&cold, op, &mut rep) {
                    self.fail(format!("decomposed {}: {e}", op.metric()));
                }
                self.tr.close(open);
            }
            self.decomposition_checked = true;
            add_engine_counters(&mut rep.layers, &riskroute_obs::snapshot().counters);
        }
        rep
    }
}

/// Swap the context's planner pool for fresh planners over the same built
/// inputs (risk, shares), so the next op starts on empty route-tree caches
/// without repeating the cold start.
fn rearm(cold: &mut Cold, planners: &[&str]) -> Result<(), String> {
    let pool = PlannerPool::new();
    for &name in planners {
        let name = resolve(cold, name);
        let (planner, _) = fresh(&cold.ctx, name)?;
        pool.planner_for(name, WEIGHTS, || planner);
    }
    cold.ctx.pool = pool;
    Ok(())
}

/// The program's own engine counters, read from its `riskroute_obs`
/// snapshot, under the benchmark's layer names.
pub fn add_engine_counters(layers: &mut Layers, counters: &BTreeMap<String, u64>) {
    let c = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    for (metric, counter) in [
        ("engine.sssp_runs", "risk_sssp_runs"),
        ("engine.sssp_pops", "risk_sssp_pops"),
        ("engine.relaxations", "risk_sssp_relaxations"),
        ("engine.bucket_settles", "bucket_queue_settles"),
        ("engine.cache_insert_skips", "route_cache_insert_skips"),
        ("engine.sssp_repairs", "sssp_repairs"),
        ("engine.trees_survived", "trees_survived_delta"),
        ("engine.changed_edges", "changed_edges"),
        ("scenario.trees_adopted", "scenario_trees_adopted"),
    ] {
        add(layers, metric, c(counter));
    }
    let lookups = c("route_cache_hits") + c("route_cache_misses");
    let ratio = if lookups > 0.0 {
        c("route_cache_hits") / lookups
    } else {
        0.0
    };
    add(layers, "engine.cache_hit_ratio", ratio);
}

/// Stop adding repetitions once this much wall clock is gone, whatever
/// `--seconds` asks, so a run always ends well inside its time limit.
const HARD_STOP: Duration = Duration::from_secs(120);

pub fn run(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> RunResult {
    let mut runner = Runner {
        spec,
        seed,
        tr: Tracer::new(traced),
        reference: BTreeMap::new(),
        decomposition_checked: false,
        attempted: 0,
        failures: Vec::new(),
        clock: HostClock::new(spec.parallelism.workers()),
    };
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced_reps: Vec<Rep> = Vec::new();
    // Untraced: at least three repetitions, so each cold-start and op
    // median has three samples. Traced: one warm-up repetition that is
    // checked but not counted (a process's first repetition runs slow),
    // then untraced and traced repetitions interleaved (order alternating),
    // at least two of each, so the tracing overhead compares like with like.
    if traced {
        runner.rep(false);
    }
    let min_reps = if traced { 4 } else { 3 };
    let mut i: u32 = 0;
    loop {
        let elapsed = start.elapsed();
        let pair_done = !traced || i.is_multiple_of(2);
        if i >= min_reps && pair_done && (elapsed >= budget || elapsed + elapsed / i > HARD_STOP) {
            break;
        }
        let with_trace = traced && (i % 2 == 1) != (i % 4 >= 2);
        let rep = runner.rep(with_trace);
        if with_trace {
            traced_reps.push(rep);
        } else {
            plain.push(rep);
        }
        i += 1;
    }
    let mut out = RunResult::new(runner.attempted, runner.failures);
    out.refs = runner.clock.timings();
    out.provenance.push((
        "repetitions".into(),
        format!(
            "{{\"warmup\":{},\"untraced\":{},\"traced\":{}}}",
            u8::from(traced),
            plain.len(),
            traced_reps.len()
        ),
    ));
    out.provenance
        .push(("workers".into(), spec.parallelism.workers().to_string()));
    out.trace_json = traced.then(|| runner.tr.to_json());
    let digests: Vec<String> = runner
        .reference
        .iter()
        .map(|(k, d)| format!("\"{k}\":\"{d:016x}\""))
        .collect();
    out.provenance.push((
        "output_digests".into(),
        format!("{{{}}}", digests.join(",")),
    ));

    // End-to-end metrics: medians of the host-normalised samples; the
    // provenance summarises the raw ones.
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut normalised: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for t in plain.iter().flat_map(|r| &r.timed) {
        let factor = runner.clock.factor_over(t.start, t.ms, t.parallel);
        samples.entry(t.metric).or_default().extend(&t.samples);
        normalised
            .entry(t.metric)
            .or_default()
            .extend(t.samples.iter().map(|x| x / factor));
    }
    if let Some(routes) = samples.get("route_ms") {
        out.metrics
            .insert("route.p99_ms".into(), quantile(routes, 0.99));
    }
    for (m, v) in &samples {
        out.set_e2e(m, median(&normalised[m]), v);
    }
    if traced {
        per_layer(&mut out, spec, &plain, &traced_reps);
    }
    out
}

fn per_layer(out: &mut RunResult, spec: &Spec, plain: &[Rep], traced: &[Rep]) {
    let colds: Vec<&(f64, Layers)> = traced.iter().flat_map(|r| &r.colds).collect();
    setup_metrics(&colds, &mut out.metrics);
    let get = |l: &Layers, k: &str| l.get(k).copied().unwrap_or(0.0);
    let mut names: Vec<String> = traced
        .iter()
        .flat_map(|r| r.layers.keys().cloned())
        .collect();
    names.sort();
    names.dedup();
    // Query layers per op invocation; counters per repetition.
    for name in &names {
        let v: Vec<f64> = traced
            .iter()
            .map(|r| get(&r.layers, name) / r.calls.get(name).copied().unwrap_or(1) as f64)
            .collect();
        out.metrics.insert(name.clone(), median(&v));
    }
    let all = |f: fn(&Rep) -> &Vec<f64>| {
        traced
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<f64>>()
    };
    out.metrics
        .insert("replay.tick_ms".into(), median(&all(|r| &r.ticks_ms)));
    out.metrics.insert(
        "provisioning.round_ms".into(),
        median(&all(|r| &r.rounds_ms)),
    );
    out.metrics
        .insert("scenario.fork_ms".into(), median(&all(|r| &r.forks_ms)));
    let per_route = |r: &Rep| r.decomposed_routes.max(1) as f64;
    out.metrics.insert(
        "intradomain.route_ms".into(),
        median(
            &traced
                .iter()
                .map(|r| get(&r.layers, "intradomain.route_ms") / per_route(r))
                .collect::<Vec<_>>(),
        ),
    );
    // Query layers re-run each op's work; what the op took beyond them is
    // the CLI's own rendering and glue.
    const QUERY: &[&str] = &[
        "intradomain.route_ms",
        "intradomain.pair_sweep_ms",
        "ratios.fold_ms",
        "provisioning.greedy_ms",
        "forecast.parse_ms",
        "forecast.risk_ms",
        "intradomain.set_forecast_ms",
        "replay.pair_sweep_ms",
        "scenario.sweep_ms",
    ];
    let query_ms = |r: &Rep| QUERY.iter().map(|k| get(&r.layers, k)).sum::<f64>();
    let op_ms = |r: &Rep| r.first_round_ms;
    let setup_ms = |r: &Rep| r.colds.iter().map(|(w, _)| w).sum::<f64>();
    let setup_covered = |r: &Rep| {
        r.colds
            .iter()
            .map(|(_, l)| SETUP_CHILDREN.iter().map(|k| get(l, k)).sum::<f64>())
            .sum::<f64>()
    };
    out.metrics.insert(
        "cli.unattributed_ms".into(),
        median(
            &traced
                .iter()
                .map(|r| op_ms(r) - query_ms(r))
                .collect::<Vec<_>>(),
        ),
    );
    out.metrics.insert(
        "trace.coverage".into(),
        median(
            &traced
                .iter()
                .map(|r| (setup_covered(r) + query_ms(r)) / (setup_ms(r) + r.first_round_ms))
                .collect::<Vec<_>>(),
        ),
    );
    let walls = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_ms).collect::<Vec<_>>());
    out.metrics
        .insert("obs.tracing_overhead".into(), walls(traced) / walls(plain));
    out.metrics
        .insert("par.workers".into(), spec.parallelism.workers() as f64);
}
