//! Nearest-neighbour population assignment and outage impact (§5.1).
//!
//! "The population for a given census block is assigned to the nearest
//! infrastructure location" — each PoP's share `c_i` is the fraction of the
//! (in-scope) population it serves, and the impact of an outage between PoPs
//! i and j is `β(i,j) = c_i + c_j`.

use crate::blocks::PopulationModel;
use riskroute_geo::distance::{arc_chord2, chord2, PreparedPoint};
use riskroute_geo::GeoPoint;
use riskroute_topology::{Network, PopId};
use std::cmp::Ordering;

/// Per-PoP population shares for one network.
#[derive(Debug, Clone, PartialEq)]
pub struct PopShares {
    shares: Vec<f64>,
}

impl PopShares {
    /// Build shares directly from raw values.
    ///
    /// §5 of the paper notes operators "could easily insert their own
    /// intuition about the risk and impact of outages"; this constructor is
    /// that hook (e.g. shares derived from traffic matrices or SLAs rather
    /// than census population).
    ///
    /// # Panics
    /// Panics when any share is negative or non-finite.
    pub fn from_shares(shares: Vec<f64>) -> PopShares {
        assert!(
            shares.iter().all(|s| s.is_finite() && *s >= 0.0),
            "shares must be finite and non-negative"
        );
        PopShares { shares }
    }

    /// Assign every census block of `model` to its nearest PoP of `network`.
    ///
    /// `state_filter` implements the paper's rule for geographically
    /// constrained regional networks: "we only consider the population
    /// confined to the states where these networks have infrastructure".
    /// Pass `None` for nationwide (Tier-1) networks.
    ///
    /// Returned shares are fractions of the *in-scope* population and sum to
    /// 1 (when any block is in scope). Networks with zero PoPs or zero
    /// in-scope population get all-zero shares.
    pub fn assign(
        model: &PopulationModel,
        network: &Network,
        state_filter: Option<&[&str]>,
    ) -> PopShares {
        let _span = riskroute_obs::span!("population_assign", pops = network.pop_count());
        let n = network.pop_count();
        let mut totals = vec![0.0; n];
        if n == 0 {
            return PopShares { shares: totals };
        }
        let index = LatBandIndex::build(network);
        let mut tally = ScanTally::default();
        let mut in_scope = 0.0;
        for b in model.blocks() {
            if let Some(states) = state_filter {
                if !states.contains(&b.state) {
                    continue;
                }
            }
            // `n == 0` returned early above, so a nearest PoP always exists.
            let Some((pop, _)) = index.nearest(b.location, &mut tally) else {
                debug_assert!(false, "nearest_pop on a non-empty network");
                continue;
            };
            totals[pop] += b.population;
            in_scope += b.population;
        }
        if riskroute_obs::is_enabled() {
            riskroute_obs::counter_add("assign_distance_evals", tally.distance_evals);
            riskroute_obs::counter_add("assign_chord_skips", tally.chord_skips);
        }
        if in_scope > 0.0 {
            for t in &mut totals {
                *t /= in_scope;
            }
        }
        PopShares { shares: totals }
    }

    /// Share `c_i` of PoP `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn share(&self, i: PopId) -> f64 {
        self.shares[i]
    }

    /// All shares, indexed by PoP.
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// Outage impact `β(i,j) = c_i + c_j` (§5.1).
    ///
    /// # Panics
    /// Panics when either PoP is out of range.
    pub fn impact(&self, i: PopId, j: PopId) -> f64 {
        self.shares[i] + self.shares[j]
    }
}

/// Miles per degree of latitude used as a *lower bound* on great-circle
/// distance. Deliberately below the true ≈69.09 mi/° so that floating-point
/// error in the haversine can never let the bound prune a candidate whose
/// exact distance ties the current best — pruned PoPs are strictly farther,
/// and the index returns the same `(distance, index)` minimum as
/// [`Network::nearest_pop`]'s linear scan, bit for bit.
const LAT_BAND_LOWER_BOUND_MI_PER_DEG: f64 = 69.0;

/// Relative slack on the chord precheck's bound (see
/// [`LatBandIndex::nearest`]). Rounding in the unit vectors, the chord, the
/// haversine and [`arc_chord2`] is a few parts in 10¹⁶; near the antipode,
/// where the haversine's `asin` loses half its digits, the chord's own
/// flattening turns this into a far wider margin in arc. Without it, a PoP
/// at the best one's location (same chord, same distance, maybe a lower
/// id) is skipped whenever `arc_chord2` of the best distance rounds below
/// the chord the unit vectors give.
const CHORD_SLACK_REL: f64 = 1e-9;

/// Absolute slack on the chord precheck's bound, in squared unit-sphere
/// chord. Rounding of about 1e-15 in each unit vector moves a squared chord
/// `c²` by up to about `2·c·1e-15`, which the relative slack covers only
/// once `c ≳ 2e-6` (about 0.01 mi); below that this term does, with a
/// margin of about a thousand. It also keeps coincident and nearly
/// coincident points from ever comparing by rounding noise.
const CHORD_SLACK_ABS: f64 = 1e-18;

/// Latitude-sorted nearest-PoP index.
///
/// [`PopShares::assign`] calls nearest-PoP once per census block; on
/// continental-scale synthetic networks (10k–100k PoPs, see
/// `riskroute synth`) the linear scan turns assignment into a
/// blocks × PoPs quadratic pass. This index sorts PoPs by latitude once
/// and answers each query by expanding outward from the query latitude,
/// stopping as soon as the latitude separation alone exceeds the best
/// distance found — `O(log n + k)` per query with `k` the PoPs inside the
/// winning latitude band. Inside the band, a chord precheck leaves the
/// haversine to the few candidates that could still win.
struct LatBandIndex {
    /// One entry per PoP, sorted by `(latitude, PoP id)`.
    by_lat: Vec<BandEntry>,
}

/// A PoP as the index scans it, with its trig done once.
struct BandEntry {
    lat: f64,
    id: PopId,
    /// Haversine operands.
    at: PreparedPoint,
    /// Unit vector, for the chord precheck.
    unit: [f64; 3],
}

/// Work done by [`LatBandIndex::nearest`], summed over a whole assignment.
#[derive(Default)]
struct ScanTally {
    /// Candidates whose haversine distance was evaluated.
    distance_evals: u64,
    /// Candidates inside the latitude band skipped by the chord precheck.
    chord_skips: u64,
}

impl LatBandIndex {
    fn build(network: &Network) -> Self {
        let mut by_lat: Vec<BandEntry> = network
            .pops()
            .iter()
            .enumerate()
            .map(|(id, p)| {
                let at = PreparedPoint::new(p.location);
                BandEntry {
                    lat: p.location.lat(),
                    id,
                    at,
                    unit: at.unit_vector(),
                }
            })
            .collect();
        by_lat.sort_by(|a, b| a.lat.total_cmp(&b.lat).then(a.id.cmp(&b.id)));
        LatBandIndex { by_lat }
    }

    /// Nearest PoP to `q` with the exact tie semantics of
    /// [`Network::nearest_pop`]: minimal `(distance, PoP id)` under
    /// `total_cmp`, with every distance bit-identical to
    /// `great_circle_miles` (both are [`PreparedPoint::miles_to`]).
    ///
    /// A candidate whose squared chord to `q` exceeds the best distance's
    /// [`arc_chord2`], widened by [`CHORD_SLACK_REL`] and
    /// [`CHORD_SLACK_ABS`], is skipped without a haversine: the slack
    /// exceeds every rounding error on both sides, so such a candidate's
    /// haversine would be *strictly* greater than the best's and could not
    /// win, not even on the PoP-id tie-break.
    fn nearest(&self, q: GeoPoint, tally: &mut ScanTally) -> Option<(PopId, f64)> {
        let q_at = PreparedPoint::new(q);
        let q_unit = q_at.unit_vector();
        let start = self.by_lat.partition_point(|e| e.lat < q.lat());
        let mut lo = start.checked_sub(1);
        let mut hi = (start < self.by_lat.len()).then_some(start);
        let mut best: Option<(f64, PopId)> = None;
        // Squared chord past which a candidate is strictly farther than
        // `best`; nothing is skipped until a first distance exists.
        let mut reach = f64::INFINITY;
        loop {
            // Visit whichever unexplored side is nearer in latitude; once
            // its latitude bound exceeds the best distance, the other side's
            // bound does too and the search is complete.
            let lo_gap = lo.map(|i| q.lat() - self.by_lat[i].lat);
            let hi_gap = hi.map(|i| self.by_lat[i].lat - q.lat());
            let (at, gap, from_lo) = match (lo, hi) {
                (None, None) => break,
                (Some(i), None) => (i, lo_gap.unwrap_or(0.0), true),
                (None, Some(i)) => (i, hi_gap.unwrap_or(0.0), false),
                (Some(li), Some(hi_i)) => {
                    let lg = lo_gap.unwrap_or(0.0);
                    let hg = hi_gap.unwrap_or(0.0);
                    if lg <= hg {
                        (li, lg, true)
                    } else {
                        (hi_i, hg, false)
                    }
                }
            };
            if let Some((best_d, _)) = best {
                if gap * LAT_BAND_LOWER_BOUND_MI_PER_DEG > best_d {
                    break;
                }
            }
            if from_lo {
                lo = at.checked_sub(1);
            } else {
                hi = (at + 1 < self.by_lat.len()).then_some(at + 1);
            }
            let e = &self.by_lat[at];
            if chord2(&e.unit, &q_unit) > reach {
                tally.chord_skips += 1;
                continue;
            }
            tally.distance_evals += 1;
            let d = e.at.miles_to(&q_at);
            let wins = best.is_none_or(|(best_d, best_id)| {
                d.total_cmp(&best_d).then(e.id.cmp(&best_id)) == Ordering::Less
            });
            if wins {
                best = Some((d, e.id));
                reach = arc_chord2(d) * (1.0 + CHORD_SLACK_REL) + CHORD_SLACK_ABS;
            }
        }
        best.map(|(d, i)| (i, d))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use riskroute_geo::GeoPoint;
    use riskroute_topology::{NetworkKind, Pop};

    fn two_pop_network() -> Network {
        Network::new(
            "pair",
            NetworkKind::Tier1,
            vec![
                Pop {
                    name: "NYC".into(),
                    location: GeoPoint::new(40.71, -74.01).unwrap(),
                },
                Pop {
                    name: "LA".into(),
                    location: GeoPoint::new(34.05, -118.24).unwrap(),
                },
            ],
            vec![(0, 1)],
        )
        .unwrap()
    }

    #[test]
    fn shares_sum_to_one() {
        let model = PopulationModel::synthesize(1, 3000);
        let net = two_pop_network();
        let shares = PopShares::assign(&model, &net, None);
        let sum: f64 = shares.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(shares.share(0) > 0.0 && shares.share(1) > 0.0);
    }

    #[test]
    fn east_coast_pop_serves_more_than_half() {
        // NYC vs LA split of the national population: the eastern half of the
        // country (everything nearer NYC) holds the majority.
        let model = PopulationModel::synthesize(1, 5000);
        let net = two_pop_network();
        let shares = PopShares::assign(&model, &net, None);
        assert!(shares.share(0) > 0.5, "NYC share = {}", shares.share(0));
    }

    #[test]
    fn impact_is_sum_of_shares() {
        let model = PopulationModel::synthesize(2, 2000);
        let net = two_pop_network();
        let shares = PopShares::assign(&model, &net, None);
        let b = shares.impact(0, 1);
        assert!((b - (shares.share(0) + shares.share(1))).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-9, "two PoPs capture everything");
    }

    #[test]
    fn state_filter_restricts_scope() {
        let model = PopulationModel::synthesize(3, 4000);
        let net = two_pop_network();
        // TX + NY scope: Texas blocks are all nearer LA (even Houston, by
        // ~45 miles), New York blocks all nearer NYC, so both PoPs hold a
        // strictly interior share and the shares still sum to 1.
        let shares = PopShares::assign(&model, &net, Some(&["TX", "NY"]));
        let sum: f64 = shares.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(shares.share(0) > 0.1 && shares.share(1) > 0.1);
        // And a TX-only scope hands essentially everything to LA.
        let tx_only = PopShares::assign(&model, &net, Some(&["TX"]));
        assert!(tx_only.share(1) > 0.95, "LA share = {}", tx_only.share(1));
    }

    #[test]
    fn empty_filter_gives_zero_shares() {
        let model = PopulationModel::synthesize(3, 1000);
        let net = two_pop_network();
        let shares = PopShares::assign(&model, &net, Some(&["ZZ"]));
        assert!(shares.shares().iter().all(|&s| s == 0.0));
    }

    #[test]
    fn single_pop_network_takes_all() {
        let model = PopulationModel::synthesize(4, 1000);
        let net = Network::new(
            "solo",
            NetworkKind::Regional,
            vec![Pop {
                name: "X".into(),
                location: GeoPoint::new(39.0, -95.0).unwrap(),
            }],
            vec![],
        )
        .unwrap();
        let shares = PopShares::assign(&model, &net, None);
        assert!((shares.share(0) - 1.0).abs() < 1e-12);
    }

    fn pt(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    fn cloud(name: &str, points: &[GeoPoint]) -> Network {
        let pops = points
            .iter()
            .enumerate()
            .map(|(i, &location)| Pop {
                name: format!("p{i}"),
                location,
            })
            .collect();
        Network::new(name, NetworkKind::Tier1, pops, vec![]).unwrap()
    }

    /// The index must answer `q` as `Network::nearest_pop`'s linear scan
    /// does: the same PoP id and the same distance bits.
    fn assert_same_nearest(
        index: &LatBandIndex,
        net: &Network,
        q: GeoPoint,
        tally: &mut ScanTally,
        what: &str,
    ) -> PopId {
        let fast = index.nearest(q, tally);
        let slow = net.nearest_pop(q);
        match (fast, slow) {
            (Some((fi, fd)), Some((si, sd))) => {
                assert_eq!(fi, si, "{what}: id at {q}");
                assert_eq!(fd.to_bits(), sd.to_bits(), "{what}: distance at {q}");
                fi
            }
            other => panic!("{what} at {q}: mismatch {other:?}"),
        }
    }

    #[test]
    fn lat_band_index_matches_linear_scan_exactly() {
        // Random PoP clouds — including exact duplicate locations, which
        // force the (distance, index) tie-break — must agree with
        // Network::nearest_pop bit for bit at every query point.
        let mut rng = riskroute_rng::StdRng::seed_from_u64(9);
        for trial in 0..5u64 {
            let n = 3 + (trial as usize) * 17;
            let mut pops = Vec::with_capacity(n);
            for i in 0..n {
                let lat = 25.0 + rng.gen_f64() * 24.0;
                let lon = -124.0 + rng.gen_f64() * 57.0;
                pops.push(Pop {
                    name: format!("p{i}"),
                    location: GeoPoint::new(lat, lon).unwrap(),
                });
            }
            // Duplicate an existing location under a higher index.
            let dup = pops[trial as usize % n].location;
            pops.push(Pop {
                name: "dup".into(),
                location: dup,
            });
            let net = Network::new("cloud", NetworkKind::Tier1, pops, vec![]).unwrap();
            let index = LatBandIndex::build(&net);
            let what = format!("trial {trial}");
            let mut tally = ScanTally::default();
            for _ in 0..200 {
                let q = GeoPoint::new(24.6 + rng.gen_f64() * 24.8, -124.9 + rng.gen_f64() * 58.0)
                    .unwrap();
                assert_same_nearest(&index, &net, q, &mut tally, &what);
            }
            // PoP locations themselves are zero-distance queries.
            for p in net.pops() {
                assert_same_nearest(&index, &net, p.location, &mut tally, &what);
            }
        }

        // Three PoPs (ids 1, 3, 4) share one location, and ids run against
        // latitude order. Queries at and near the shared location, and at
        // every PoP, must pick the lowest id among exact ties.
        let shared = pt(38.5, -97.25);
        let net = cloud(
            "coincident",
            &[
                pt(44.0, -93.0),
                shared,
                pt(31.0, -101.0),
                shared,
                shared,
                pt(38.5, -97.2500001),
                pt(12.0, -60.0),
            ],
        );
        let index = LatBandIndex::build(&net);
        let mut tally = ScanTally::default();
        assert_eq!(
            assert_same_nearest(&index, &net, shared, &mut tally, "coincident"),
            1
        );
        for p in net.pops() {
            assert_same_nearest(&index, &net, p.location, &mut tally, "coincident: at PoP");
        }
        for k in 0..200 {
            let f = f64::from(k) - 100.0;
            let q = pt(38.5 + f * 1e-9, -97.25 + f * 3e-10);
            assert_same_nearest(&index, &net, q, &mut tally, "coincident: near");
        }

        // Nearly coincident pairs: two PoPs mirrored a hair's breadth
        // (1e-6° to 1e-8°) either side of the query, the lower id on the
        // side the scan meets second. Their distances tie or differ in the
        // last few bits, while rounding in the unit vectors moves their
        // squared chords by far more than the relative slack: only the
        // absolute slack keeps the second one from being skipped.
        for k in 0..600 {
            let q = pt(25.0 + rng.gen_f64() * 24.0, -124.0 + rng.gen_f64() * 57.0);
            let off = [1e-6, 1e-7, 1e-8][k % 3];
            let (dl, dn) = if k % 2 == 0 { (off, 0.0) } else { (0.0, off) };
            let net = cloud(
                "hair",
                &[
                    pt(q.lat() + dl, q.lon() + dn),
                    pt(q.lat() - dl, q.lon() - dn),
                ],
            );
            let index = LatBandIndex::build(&net);
            assert_same_nearest(&index, &net, q, &mut tally, "hair");
        }

        // Perpendicular bisectors: PoPs mirrored across the prime meridian
        // and across the equator are exactly equidistant from every query
        // on the mirror line, so each such query is a tie the lower id must
        // win. Across the equator the lower id sits north, so the scan
        // (which meets the southern PoP first) has to replace an equal
        // distance on the id alone.
        let net = cloud(
            "bisector",
            &[
                pt(10.0, 7.5),
                pt(10.0, -7.5),
                pt(20.0, 120.0),
                pt(-20.0, 120.0),
            ],
        );
        let index = LatBandIndex::build(&net);
        for k in 0..=160 {
            let lat = -80.0 + f64::from(k);
            assert_same_nearest(&index, &net, pt(lat, 0.0), &mut tally, "bisector: meridian");
        }
        for k in 0..=120 {
            let lon = 60.0 + f64::from(k);
            assert_same_nearest(&index, &net, pt(0.0, lon), &mut tally, "bisector: equator");
        }
        assert_eq!(
            index.nearest(pt(10.0, 0.0), &mut tally).map(|n| n.0),
            Some(0)
        );
        assert_eq!(
            index.nearest(pt(0.0, 120.0), &mut tally).map(|n| n.0),
            Some(2)
        );
        // And the great-circle bisector of random CONUS pairs, where ties
        // are near, not exact.
        for _ in 0..100 {
            let a = pt(25.0 + rng.gen_f64() * 24.0, -124.0 + rng.gen_f64() * 57.0);
            let b = pt(25.0 + rng.gen_f64() * 24.0, -124.0 + rng.gen_f64() * 57.0);
            let net = cloud("pair", &[a, b]);
            let index = LatBandIndex::build(&net);
            let mid = riskroute_geo::distance::slerp(a, b, 0.5);
            let brg = riskroute_geo::distance::initial_bearing_deg(mid, b);
            for step in -3..=3 {
                let q =
                    riskroute_geo::distance::destination(mid, brg + 90.0, f64::from(step) * 40.0);
                assert_same_nearest(&index, &net, q, &mut tally, "bisector: slerp");
            }
        }

        // A regional cluster (70 PoPs around Mississippi) queried from the
        // far side of the country: the latitude band prunes nothing there,
        // so the chord precheck must carry the scan, and still agree.
        let cluster: Vec<GeoPoint> = (0..70)
            .map(|_| pt(30.2 + rng.gen_f64() * 4.8, -91.6 + rng.gen_f64() * 3.5))
            .collect();
        let net = cloud("regional", &cluster);
        let index = LatBandIndex::build(&net);
        let mut far = ScanTally::default();
        let mut queries = 0_u64;
        for _ in 0..300 {
            let q = pt(42.0 + rng.gen_f64() * 7.0, -124.5 + rng.gen_f64() * 5.0);
            let d = net.nearest_pop(q).unwrap().1;
            assert!(d > 1_500.0, "far query {q} is only {d} mi away");
            assert_same_nearest(&index, &net, q, &mut far, "regional: far");
            queries += 1;
        }
        assert_eq!(far.distance_evals + far.chord_skips, 70 * queries);
        assert!(
            far.distance_evals < 10 * queries,
            "{} haversines for {queries} far queries",
            far.distance_evals
        );

        // A 10k-PoP continental cloud, 2k queries.
        let big: Vec<GeoPoint> = (0..10_000)
            .map(|_| pt(24.5 + rng.gen_f64() * 25.0, -125.0 + rng.gen_f64() * 58.0))
            .collect();
        let net = cloud("big", &big);
        let index = LatBandIndex::build(&net);
        for _ in 0..2_000 {
            let q = pt(24.0 + rng.gen_f64() * 26.0, -125.5 + rng.gen_f64() * 59.0);
            assert_same_nearest(&index, &net, q, &mut tally, "10k cloud");
        }

        // Near-antipodal queries: PoPs within 1e-7° of each other, queried
        // from (nearly) their antipode, where the haversine's `h` rounds to
        // or past 1 and the clamp makes several distances tie at πR.
        let base = (29.5, -89.25);
        let near_base: Vec<GeoPoint> = [
            (0.0, 0.0),
            (1e-7, 0.0),
            (-1e-7, 1e-7),
            (0.0, -1e-7),
            (0.0, 0.0),
            (3e-8, 3e-8),
        ]
        .iter()
        .map(|&(dl, dn)| pt(base.0 + dl, base.1 + dn))
        .collect();
        let net = cloud("antipodal", &near_base);
        let index = LatBandIndex::build(&net);
        let mut clamped = 0;
        for k in 0..200 {
            let f = f64::from(k % 20) - 10.0;
            let g = f64::from(k / 20) - 5.0;
            let q = pt(-base.0 + f * 2e-8, base.1 + 180.0 + g * 2e-8);
            let (_, d) = net.nearest_pop(q).unwrap();
            if d == std::f64::consts::PI * riskroute_geo::EARTH_RADIUS_MILES {
                clamped += 1;
            }
            assert_same_nearest(&index, &net, q, &mut tally, "antipodal");
        }
        assert!(clamped > 0, "no antipodal query hit the clamp");
    }

    #[test]
    fn empty_network_has_no_shares() {
        let model = PopulationModel::synthesize(4, 1000);
        let net = Network::new("none", NetworkKind::Regional, vec![], vec![]).unwrap();
        let shares = PopShares::assign(&model, &net, None);
        assert!(shares.shares().is_empty());
    }
}
