//! Microbenchmarks for the RiskRoute core operations (plain timing harness,
//! no external framework).
//!
//! One group per pipeline stage: graph algorithms on the real Level3-scale
//! topology, KDE evaluation, bit-risk routing queries, the aggregate ratio
//! sweep, provisioning candidate scoring, the merged interdomain build, and
//! advisory parsing. These are the per-operation costs behind every
//! table/figure regeneration.
//!
//! Run with `cargo bench -p riskroute-bench`; pass `--quick` via
//! `cargo bench -p riskroute-bench -- --quick` to cut iteration counts.

use riskroute::prelude::*;
use riskroute::provisioning::{best_additional_link, candidate_links};
use riskroute::replay::replay_storm;
use riskroute_bench::ExperimentContext;
use riskroute_forecast::{advisories_for, ForecastRisk};
use riskroute_graph::centrality::{articulation_points, betweenness};
use riskroute_graph::dijkstra;
use riskroute_hazard::events::sample_events;
use riskroute_hazard::EventKind;
use riskroute_stats::GeoKde;
use riskroute_topology::Network;
use std::hint::black_box;
use std::time::Instant;

struct Harness {
    iters: u32,
}

impl Harness {
    fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        // Warm-up pass, then timed passes.
        black_box(f());
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        let per_iter = start.elapsed() / self.iters;
        println!("{name:<40} {per_iter:>12.2?}/iter  ({} iters)", self.iters);
    }

    /// For expensive operations: fewer iterations.
    fn slow(&self) -> Harness {
        Harness {
            iters: (self.iters / 10).max(1),
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let h = Harness {
        iters: if quick { 3 } else { 30 },
    };
    let context = ExperimentContext::reduced();

    let level3 = context.corpus.network("Level3").expect("Level3 in corpus");
    let g = level3.distance_graph();
    h.bench("graph/dijkstra_sssp_level3", || {
        dijkstra::sssp(&g, black_box(0))
    });
    h.bench("graph/dijkstra_point_to_point_level3", || {
        dijkstra::shortest_path(&g, black_box(0), black_box(200))
    });

    let events: Vec<_> = sample_events(EventKind::FemaHurricane, 2_000, 42)
        .into_iter()
        .map(|e| e.location)
        .collect();
    let kde = GeoKde::fit(events, 71.56);
    let q = riskroute_geo::GeoPoint::new(29.95, -90.07).expect("valid point");
    h.bench("kde/density_2k_events", || kde.density(black_box(q)));
    h.bench("kde/log_density_2k_events", || {
        kde.log_density(black_box(q))
    });

    let planner = context.planner_for(level3, RiskWeights::historical_only(1e5));
    let sprint = context.corpus.network("Sprint").expect("Sprint in corpus");
    let sprint_planner = context.planner_for(sprint, RiskWeights::historical_only(1e5));
    h.bench("routing/risk_route_level3_pair", || {
        planner.risk_route(black_box(3), black_box(180))
    });
    h.slow().bench("routing/ratio_report_sprint_all_pairs", || {
        sprint_planner.ratio_report()
    });

    h.slow().bench("provisioning/candidate_links_sprint", || {
        candidate_links(sprint, &sprint_planner)
    });
    h.slow()
        .bench("provisioning/best_additional_link_sprint", || {
            best_additional_link(sprint, &sprint_planner)
        });

    let networks: Vec<&Network> = context.corpus.all_networks().collect();
    h.slow().bench("interdomain/merge_23_networks", || {
        riskroute::interdomain::InterdomainTopology::merge(
            black_box(&networks),
            &context.corpus.peering,
            30.0,
        )
    });

    let gs = sprint.distance_graph();
    h.bench("analysis/betweenness_sprint", || betweenness(&gs));
    h.bench("analysis/articulation_points_sprint", || {
        articulation_points(&gs)
    });
    h.bench("analysis/corridor_risks_sprint", || {
        riskroute::corridor::corridor_risks(sprint, &context.hazards)
    });

    h.bench("backup/backup_paths_k3_sprint", || {
        riskroute::backup::backup_paths(&sprint_planner, sprint, black_box(0), black_box(9), 3)
    });
    h.bench("backup/lfa_next_hops_sprint", || {
        riskroute::backup::lfa_next_hops(&sprint_planner, sprint, black_box(9))
    });

    let advisories = advisories_for(Storm::Sandy);
    let text = advisories[40].to_text();
    let dt = context
        .corpus
        .network("Deutsche Telekom")
        .expect("DT in corpus");
    let dt_planner = context.planner_for(dt, RiskWeights::PAPER);
    h.bench("forecast/parse_advisory_text", || {
        ForecastRisk::from_advisory_text(black_box(&text))
    });
    h.slow().bench("forecast/replay_sandy_dt_stride8", || {
        replay_storm(&dt_planner.clone(), dt, Storm::Sandy, 8)
    });
    let pair = &advisories[40..42];
    h.bench("forecast/project_24h", || {
        riskroute_forecast::project(&pair[0], &pair[1], 24.0)
    });
}
