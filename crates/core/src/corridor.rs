//! Link-corridor risk analysis.
//!
//! Eq. 1 charges outage risk at PoPs, and the paper argues that is the
//! right granularity for disaster threats (§3). But the physical fiber
//! *between* PoPs crosses hazard geography too — a link from Dallas to
//! Atlanta runs the length of Dixie Alley even though both endpoints are
//! comparatively safe. This module scores every link by the historical
//! risk integrated along its line-of-sight corridor, giving operators the
//! shared-risk-link-group-style view that complements the PoP-centric
//! metric (and feeds SRLG grouping of links that traverse the same hazard
//! region).

use riskroute_geo::distance::sample_great_circle;
use riskroute_hazard::HistoricalRisk;
use riskroute_topology::Network;

/// Corridor sampling density: one sample per this many miles of link
/// length (at least 2 samples per link).
pub const SAMPLE_SPACING_MILES: f64 = 25.0;

/// One link's corridor risk profile.
#[derive(Debug, Clone, PartialEq)]
pub struct CorridorRisk {
    /// Link index within [`Network::links`].
    pub link: usize,
    /// Endpoint PoP ids.
    pub endpoints: (usize, usize),
    /// Link length, miles.
    pub miles: f64,
    /// Mean `o_h` along the corridor.
    pub mean_risk: f64,
    /// Peak `o_h` along the corridor.
    pub peak_risk: f64,
    /// `mean_risk × miles` — the corridor's risk-mile integral; the ranking
    /// key (long links through hot geography first).
    pub risk_miles: f64,
}

/// Score every link of `network` against `hazards`, sorted by descending
/// risk-mile integral.
pub fn corridor_risks(network: &Network, hazards: &HistoricalRisk) -> Vec<CorridorRisk> {
    let mut out: Vec<CorridorRisk> = network
        .links()
        .iter()
        .enumerate()
        .map(|(idx, l)| {
            let samples = ((l.miles / SAMPLE_SPACING_MILES).ceil() as usize).max(2);
            let points = sample_great_circle(network.location(l.a), network.location(l.b), samples);
            let risks: Vec<f64> = points.iter().map(|&p| hazards.risk(p)).collect();
            let mean_risk = risks.iter().sum::<f64>() / risks.len() as f64;
            let peak_risk = risks.iter().copied().fold(0.0_f64, f64::max);
            CorridorRisk {
                link: idx,
                endpoints: (l.a, l.b),
                miles: l.miles,
                mean_risk,
                peak_risk,
                risk_miles: mean_risk * l.miles,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.risk_miles
            .total_cmp(&a.risk_miles)
            .then(a.link.cmp(&b.link))
    });
    out
}

/// Group links into shared-risk link groups: links whose corridor *peak*
/// exceeds `threshold` and whose peak locations fall within
/// `group_radius_miles` of each other share fate under a localized
/// disaster and land in one group.
///
/// Returns groups of link indices, largest group first; links below the
/// threshold are omitted.
pub fn shared_risk_link_groups(
    network: &Network,
    hazards: &HistoricalRisk,
    threshold: f64,
    group_radius_miles: f64,
) -> Vec<Vec<usize>> {
    assert!(
        group_radius_miles.is_finite() && group_radius_miles > 0.0,
        "group radius must be positive"
    );
    // Locate each qualifying link's hottest sample point.
    let mut hot: Vec<(usize, riskroute_geo::GeoPoint)> = Vec::new();
    for (idx, l) in network.links().iter().enumerate() {
        let samples = ((l.miles / SAMPLE_SPACING_MILES).ceil() as usize).max(2);
        let points = sample_great_circle(network.location(l.a), network.location(l.b), samples);
        if let Some((p, r)) = points
            .iter()
            .map(|&p| (p, hazards.risk(p)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
        {
            if r > threshold {
                hot.push((idx, p));
            }
        }
    }
    // Union links whose hot spots are near each other.
    let mut uf = riskroute_graph::unionfind::UnionFind::new(hot.len());
    for i in 0..hot.len() {
        for j in (i + 1)..hot.len() {
            let d = riskroute_geo::distance::great_circle_miles(hot[i].1, hot[j].1);
            if d <= group_radius_miles {
                uf.union(i, j);
            }
        }
    }
    let mut groups: std::collections::HashMap<usize, Vec<usize>> = std::collections::HashMap::new();
    for (i, &(link, _)) in hot.iter().enumerate() {
        groups.entry(uf.find(i)).or_default().push(link);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    for g in &mut out {
        g.sort_unstable();
    }
    out.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use riskroute_geo::GeoPoint;
    use riskroute_topology::{NetworkKind, Pop};

    fn pop(name: &str, lat: f64, lon: f64) -> Pop {
        Pop {
            name: name.into(),
            location: GeoPoint::new(lat, lon).unwrap(),
        }
    }

    /// Two links: one crossing the Gulf coast, one across the northern
    /// plains.
    fn network() -> Network {
        Network::new(
            "corridors",
            NetworkKind::Regional,
            vec![
                pop("Houston", 29.76, -95.37),
                pop("Jacksonville", 30.33, -81.66), // gulf-hugging link
                pop("Billings", 45.78, -108.50),
                pop("Fargo", 46.88, -96.79), // northern link
            ],
            vec![(0, 1), (2, 3)],
        )
        .unwrap()
    }

    fn hazards() -> HistoricalRisk {
        HistoricalRisk::standard(42, Some(600))
    }

    #[test]
    fn gulf_corridor_outranks_northern_corridor() {
        let risks = corridor_risks(&network(), &hazards());
        assert_eq!(risks.len(), 2);
        assert_eq!(risks[0].endpoints, (0, 1), "gulf link is riskier");
        assert!(risks[0].mean_risk > 2.0 * risks[1].mean_risk);
        for r in &risks {
            assert!(r.peak_risk >= r.mean_risk);
            assert!((r.risk_miles - r.mean_risk * r.miles).abs() < 1e-12);
        }
    }

    #[test]
    fn corridor_risk_sees_interior_hazard_the_endpoints_miss() {
        // A link skirting the Gulf between two inland-ish endpoints still
        // picks up coastal risk along the way.
        let h = hazards();
        let net = network();
        let risks = corridor_risks(&net, &h);
        let gulf = &risks[0];
        let endpoint_mean = (h.risk(net.location(0)) + h.risk(net.location(1))) / 2.0;
        assert!(
            gulf.peak_risk > endpoint_mean,
            "peak {} vs endpoint mean {}",
            gulf.peak_risk,
            endpoint_mean
        );
    }

    #[test]
    fn srlg_groups_colocated_hot_links() {
        // Three parallel Gulf-coast links share fate; the northern link
        // qualifies for no group.
        let net = Network::new(
            "srlg",
            NetworkKind::Regional,
            vec![
                pop("Houston", 29.76, -95.37),
                pop("New Orleans", 29.95, -90.07),
                pop("Baton Rouge", 30.45, -91.15),
                pop("Mobile", 30.69, -88.04),
                pop("Billings", 45.78, -108.50),
                pop("Fargo", 46.88, -96.79),
            ],
            vec![(0, 1), (0, 2), (1, 3), (4, 5)],
        )
        .unwrap();
        let h = hazards();
        let groups = shared_risk_link_groups(&net, &h, 0.2, 300.0);
        assert!(!groups.is_empty());
        let biggest = &groups[0];
        assert!(biggest.len() >= 2, "gulf links group together: {groups:?}");
        assert!(
            !groups.iter().flatten().any(|&l| l == 3),
            "the northern link must not qualify"
        );
    }

    #[test]
    fn srlg_threshold_above_everything_gives_no_groups() {
        let groups = shared_risk_link_groups(&network(), &hazards(), 1e9, 300.0);
        assert!(groups.is_empty());
    }

    #[test]
    #[should_panic(expected = "group radius must be positive")]
    fn bad_radius_panics() {
        let _ = shared_risk_link_groups(&network(), &hazards(), 0.1, 0.0);
    }
}
