//! Cross-crate integration tests for the beyond-the-paper extensions:
//! backup routing, failure injection, corridor risk, seasonal hazard, and
//! forecast projection — all driven over the synthesized corpus.

use riskroute::backup::{backup_paths, lfa_next_hops};
use riskroute::corridor::corridor_risks;
use riskroute::failure::{criticality_ranking, storm_failure};
use riskroute::prelude::*;
use riskroute::replay::{replay_storm, replay_storm_proactive};
use riskroute::NodeRisk;
use riskroute_forecast::{advisories_for, earliest_warning, ForecastRisk, StormSwath};
use riskroute_hazard::{HistoricalRisk, SeasonalRisk};
use riskroute_population::PopShares;

fn substrate() -> (Corpus, PopulationModel, HistoricalRisk) {
    (
        Corpus::standard(42),
        PopulationModel::synthesize(42, 4_000),
        HistoricalRisk::standard(42, Some(800)),
    )
}

#[test]
fn backup_plans_exist_for_every_sprint_pair() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Sprint").unwrap();
    let planner = Planner::for_network(
        net,
        &population,
        &hazards,
        RiskWeights::historical_only(1e5),
    );
    for dst in 1..net.pop_count() {
        let plan = backup_paths(&planner, net, 0, dst, 3).expect("connected corpus network");
        // Primary matches the framework's risk route.
        let rr = planner.risk_route(0, dst).unwrap();
        assert_eq!(plan.primary.nodes, rr.nodes, "dst {dst}");
        // Ranked non-decreasing, loopless, physically valid.
        let mut prev = plan.primary.bit_risk_miles;
        for alt in &plan.alternates {
            assert!(alt.bit_risk_miles >= prev - 1e-6);
            prev = alt.bit_risk_miles;
            for w in alt.nodes.windows(2) {
                assert!(net.has_link(w[0], w[1]));
            }
        }
    }
}

#[test]
fn lfa_alternates_are_strictly_closer_to_the_destination() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Tinet").unwrap();
    let planner = Planner::for_network(
        net,
        &population,
        &hazards,
        RiskWeights::historical_only(1e5),
    );
    let dst = net.pop_count() - 1;
    let hops = lfa_next_hops(&planner, net, dst);
    assert_eq!(hops.len(), net.pop_count());
    let mut protected = 0;
    for h in &hops {
        if h.src == dst {
            assert_eq!(h.primary, None);
            continue;
        }
        let primary = h.primary.expect("connected network");
        assert!(net.has_link(h.src, primary), "primary must be a neighbor");
        if let Some(alt) = h.alternate {
            protected += 1;
            assert!(net.has_link(h.src, alt), "alternate must be a neighbor");
            assert_ne!(alt, primary);
            // Loop-freedom, verified operationally: hand the packet to the
            // alternate, then follow every node's *primary* next hop — it
            // must reach the destination without revisiting any node.
            // (The LFA inequality itself lives under the (src, dst) pair's
            // β, which has no public per-pair distance accessor; the
            // forwarding simulation is the observable contract.)
            let mut at = alt;
            let mut visited = std::collections::HashSet::from([h.src, alt]);
            while at != dst {
                let next = hops[at].primary.expect("on-path nodes are connected");
                assert!(
                    visited.insert(next) || next == dst,
                    "forwarding loop from src {} via alt {alt}",
                    h.src
                );
                at = next;
            }
        }
    }
    assert!(protected > 0, "a meshy network must have some LFA coverage");
}

#[test]
fn katrina_failure_injection_on_the_gulf_regional() {
    let (corpus, population, _) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let shares = PopShares::assign(&population, net, None);
    let swath = StormSwath::new(
        advisories_for(Storm::Katrina)
            .iter()
            .map(ForecastRisk::from_advisory)
            .collect(),
    );
    let report = storm_failure(net, &shares, &swath);
    assert!(
        !report.failed_pops.is_empty(),
        "Katrina must destroy Gulf-coast PoPs"
    );
    assert!(report.lost_links > 0);
    assert!(report.failed_population_share > 0.0);
    assert!(report.total_affected_share() <= 1.0 + 1e-9);
    // Every failed PoP really is inside the hurricane-force swath.
    for &p in &report.failed_pops {
        assert!(swath.ever_in_hurricane_winds(net.location(p)));
    }
}

#[test]
fn criticality_covers_the_corpus_and_flags_real_spofs() {
    let (corpus, _, hazards) = substrate();
    for name in ["Level3", "Telepak"] {
        let net = corpus.network(name).unwrap();
        let risk = NodeRisk::from_historical(net, &hazards);
        let ranking = criticality_ranking(net, &risk);
        assert_eq!(ranking.len(), net.pop_count());
        // Exposure ordering holds.
        for w in ranking.windows(2) {
            assert!(w[0].exposure >= w[1].exposure - 1e-12);
        }
        // Every flagged articulation point genuinely disconnects.
        let g = net.distance_graph();
        for c in ranking.iter().filter(|c| c.articulation).take(3) {
            let mut pruned = riskroute_graph::Graph::with_nodes(g.node_count());
            for (_, a, b, w) in g.edges() {
                if a != c.pop && b != c.pop {
                    pruned.add_edge(a, b, w).unwrap();
                }
            }
            // Removing the node leaves it isolated plus >= 2 other components.
            let comps = riskroute_graph::components::connected_components(&pruned);
            let non_trivial = comps
                .iter()
                .filter(|cc| !(cc.len() == 1 && cc[0] == c.pop))
                .count();
            assert!(non_trivial >= 2, "{name}: PoP {} is not a SPOF", c.pop);
        }
    }
}

#[test]
fn corridor_risk_is_consistent_with_the_hazard_surface() {
    let (corpus, _, hazards) = substrate();
    let net = corpus.network("NTS").unwrap(); // Texas/Gulf regional
    let risks = corridor_risks(net, &hazards);
    assert_eq!(risks.len(), net.link_count());
    for r in &risks {
        assert!(r.mean_risk >= 0.0 && r.peak_risk >= r.mean_risk);
        // Corridor mean is bounded by the hottest point on the corridor.
        assert!(r.risk_miles <= r.peak_risk * r.miles + 1e-9);
    }
    // Sorted by risk-mile integral.
    for w in risks.windows(2) {
        assert!(w[0].risk_miles >= w[1].risk_miles - 1e-12);
    }
}

#[test]
fn seasonal_risk_reshapes_routing_by_month() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("USA Network").unwrap(); // southeast regional
    let pts: Vec<riskroute_geo::GeoPoint> = net.pops().iter().map(|p| p.location).collect();
    let september = SeasonalRisk::new(&hazards, 9).risk_at_all(&pts);
    let january = SeasonalRisk::new(&hazards, 1).risk_at_all(&pts);
    // Hurricane country: September risk strictly dominates January.
    let sep_total: f64 = september.iter().sum();
    let jan_total: f64 = january.iter().sum();
    assert!(
        sep_total > 1.5 * jan_total,
        "sep {sep_total} vs jan {jan_total}"
    );
    // The seasonal vectors slot straight into the planner.
    let shares = PopShares::assign(&population, net, None);
    let n = net.pop_count();
    let planner_sep = Planner::new(
        net,
        NodeRisk::new(september, vec![0.0; n]),
        PopShares::from_shares(shares.shares().to_vec()),
        RiskWeights::historical_only(1e5),
    );
    let planner_jan = Planner::new(
        net,
        NodeRisk::new(january, vec![0.0; n]),
        PopShares::from_shares(shares.shares().to_vec()),
        RiskWeights::historical_only(1e5),
    );
    let sep_report = planner_sep.ratio_report();
    let jan_report = planner_jan.ratio_report();
    assert!(
        sep_report.risk_reduction_ratio >= jan_report.risk_reduction_ratio - 1e-9,
        "hurricane season should reward risk-aware routing at least as much"
    );
}

#[test]
fn proactive_replay_never_reacts_later_than_reactive() {
    let (corpus, population, hazards) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let planner = Planner::for_network(net, &population, &hazards, RiskWeights::PAPER);
    let reactive = replay_storm(&planner, net, Storm::Katrina, 2).expect("valid replay args");
    let proactive =
        replay_storm_proactive(&planner, net, Storm::Katrina, 2, 24.0).expect("valid replay args");
    let baseline = reactive.ticks[0].report.risk_reduction_ratio;
    let first = |r: &riskroute::replay::DisasterReplay| {
        r.ticks
            .iter()
            .find(|t| t.report.risk_reduction_ratio > baseline + 0.005)
            .map(|t| t.advisory)
    };
    match (first(&reactive), first(&proactive)) {
        (Some(re), Some(pro)) => assert!(pro <= re, "proactive {pro} vs reactive {re}"),
        (Some(_), None) => panic!("proactive must react when reactive does"),
        _ => {}
    }
}

#[test]
fn projection_warns_gulf_pops_before_landfall() {
    let (corpus, _, _) = substrate();
    let net = corpus.network("Telepak").unwrap();
    let advisories = advisories_for(Storm::Katrina);
    let mut warned = 0;
    for p in net.pops() {
        if earliest_warning(&advisories, p.location, &[24.0, 48.0]).is_some() {
            warned += 1;
        }
    }
    assert!(
        warned as f64 > 0.5 * net.pop_count() as f64,
        "most Gulf PoPs get projected warnings ({warned}/{})",
        net.pop_count()
    );
}
