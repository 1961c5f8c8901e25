//! Bit-exactness of the geodesic KDE against a deliberately naive oracle.
//!
//! The oracle is the straight evaluation of Eq. 2: the haversine written
//! out for every event/query pair (both latitudes' cosines taken on the
//! spot), `exp` of every term, and an in-order `Iterator::sum`. `GeoKde`
//! instead prepares each point's trig once and skips events past its
//! underflow cutoff or its absorption reach; every test here demands the
//! same bits.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use riskroute_geo::distance::{destination, great_circle_miles, PreparedPoint};
use riskroute_geo::GeoPoint;
use riskroute_rng::StdRng;
use riskroute_stats::GeoKde;

/// The straight computation the KDE must reproduce.
mod naive {
    use riskroute_geo::{GeoPoint, EARTH_RADIUS_MILES};
    use std::f64::consts::TAU;

    pub fn great_circle_miles(a: GeoPoint, b: GeoPoint) -> f64 {
        let dlat = (b.lat_rad() - a.lat_rad()) / 2.0;
        let dlon = (b.lon_rad() - a.lon_rad()) / 2.0;
        let h = dlat.sin().powi(2) + a.lat_rad().cos() * b.lat_rad().cos() * dlon.sin().powi(2);
        2.0 * EARTH_RADIUS_MILES * h.sqrt().min(1.0).asin()
    }

    pub fn exponent(x: GeoPoint, y: GeoPoint, s: f64) -> f64 {
        let z = great_circle_miles(x, y) / s;
        -0.5 * z * z
    }

    pub fn density(events: &[GeoPoint], s: f64, y: GeoPoint) -> f64 {
        let norm = 1.0 / (TAU * s * s * events.len() as f64);
        let sum: f64 = events.iter().map(|&x| exponent(x, y, s).exp()).sum();
        norm * sum
    }

    pub fn log_density(events: &[GeoPoint], s: f64, y: GeoPoint) -> f64 {
        let exponents: Vec<f64> = events.iter().map(|&x| exponent(x, y, s)).collect();
        let m = exponents.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = exponents.iter().map(|e| (e - m).exp()).sum();
        m + sum.ln() - (TAU * s * s * events.len() as f64).ln()
    }
}

/// Table-1-like bandwidths from street scale to wider than the globe.
const BANDWIDTHS: [f64; 6] = [0.5, 3.59, 24.38, 71.56, 298.82, 5000.0];

fn pt(lat: f64, lon: f64) -> GeoPoint {
    GeoPoint::new(lat, lon).unwrap()
}

fn random_point(rng: &mut StdRng) -> GeoPoint {
    pt(
        -90.0 + 180.0 * rng.gen_f64(),
        -180.0 + 360.0 * rng.gen_f64(),
    )
}

/// A point within about `spread` degrees of `c` (clamped to valid range).
fn near(rng: &mut StdRng, c: GeoPoint, spread: f64) -> GeoPoint {
    let lat = (c.lat() + spread * (rng.gen_f64() - 0.5)).clamp(-90.0, 90.0);
    let lon = (c.lon() + spread * (rng.gen_f64() - 0.5)).clamp(-180.0, 180.0);
    pt(lat, lon)
}

fn antipode(p: GeoPoint) -> GeoPoint {
    let lon = if p.lon() > 0.0 {
        p.lon() - 180.0
    } else {
        p.lon() + 180.0
    };
    pt(-p.lat(), lon)
}

fn assert_kde_matches_oracle(events: &[GeoPoint], s: f64, queries: &[GeoPoint], what: &str) {
    let kde = GeoKde::fit(events.to_vec(), s);
    for &y in queries {
        let (got, want) = (kde.density(y), naive::density(events, s, y));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: density at {y} with σ={s}: {got:e} vs oracle {want:e}"
        );
        let (got, want) = (kde.log_density(y), naive::log_density(events, s, y));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: log_density at {y} with σ={s}: {got:e} vs oracle {want:e}"
        );
    }
}

#[test]
fn density_and_log_density_match_the_oracle_on_random_corpora() {
    let mut rng = StdRng::seed_from_u64(2013);
    let conus = pt(37.0, -95.0);
    for trial in 0..4 {
        // Alternate a clustered CONUS-like corpus with a global scatter.
        let n = 1 + rng.gen_range(0..160_usize);
        let events: Vec<GeoPoint> = (0..n)
            .map(|_| {
                if trial % 2 == 0 {
                    near(&mut rng, conus, 25.0)
                } else {
                    random_point(&mut rng)
                }
            })
            .collect();
        let mut queries: Vec<GeoPoint> = (0..24).map(|_| random_point(&mut rng)).collect();
        queries.extend((0..24).map(|_| near(&mut rng, conus, 30.0)));
        queries.extend(events.iter().take(8).copied());
        queries.extend(events.iter().take(4).map(|&e| antipode(e)));
        for s in BANDWIDTHS {
            assert_kde_matches_oracle(&events, s, &queries, &format!("trial {trial}"));
        }
    }
}

#[test]
fn lone_event_matches_the_oracle_across_the_subnormal_band() {
    let sigmas = [37.5, 38.5, 38.6, 38.7, 40.0, 41.0];
    for event in [pt(35.0, -90.0), pt(0.0, 0.0), pt(-62.0, 170.0)] {
        for s in BANDWIDTHS {
            let queries: Vec<GeoPoint> = sigmas
                .iter()
                .flat_map(|&k| {
                    [0.0, 45.0, 90.0, 180.0, 300.0]
                        .into_iter()
                        .map(move |brg| destination(event, brg, k * s))
                })
                .collect();
            assert_kde_matches_oracle(&[event], s, &queries, &format!("lone event {event}"));
        }
    }
    // The band is really exercised: at 38.5σ and 38.6σ the lone term is a
    // subnormal, not zero; from 38.7σ on it is exactly zero.
    let (event, s) = (pt(35.0, -90.0), 24.38);
    let term = |k: f64| naive::exponent(event, destination(event, 90.0, k * s), s).exp();
    for k in [38.5, 38.6] {
        assert!(
            term(k) > 0.0 && term(k) < f64::MIN_POSITIVE,
            "{k}σ: {:e}",
            term(k)
        );
    }
    for k in [38.7, 40.0, 41.0] {
        assert_eq!(term(k).to_bits(), 0.0_f64.to_bits(), "{k}σ");
    }
}

#[test]
fn query_past_the_cutoff_from_every_event_is_positive_zero() {
    let events = vec![pt(35.0, -90.0), pt(35.2, -90.1), pt(34.9, -89.8)];
    let kde = GeoKde::fit(events.clone(), 3.84);
    let far = pt(45.0, -120.0);
    let got = kde.density(far);
    assert_eq!(got.to_bits(), 0.0_f64.to_bits(), "got {got:e}");
    assert_eq!(got.to_bits(), naive::density(&events, 3.84, far).to_bits());
    assert_kde_matches_oracle(&events, 3.84, &[far], "all skipped");
}

#[test]
fn poles_and_near_antipodes_match_the_oracle() {
    let events = vec![
        pt(90.0, 0.0),
        pt(-90.0, 0.0),
        pt(89.9999, 170.0),
        pt(-89.99, -45.0),
        pt(0.0, 180.0),
        pt(0.0, -180.0),
        pt(12.5, 179.9999),
    ];
    let mut queries: Vec<GeoPoint> = events.iter().map(|&e| antipode(e)).collect();
    for &e in &events {
        let a = antipode(e);
        for eps in [1e-9, 1e-6, 1e-3] {
            queries.push(pt((a.lat() + eps).min(90.0), a.lon()));
            queries.push(pt(a.lat(), (a.lon() - eps).max(-180.0)));
        }
    }
    queries.extend([pt(90.0, 0.0), pt(-90.0, 123.0), pt(0.0, 0.0)]);
    for s in BANDWIDTHS {
        assert_kde_matches_oracle(&events, s, &queries, "poles");
        for &e in &events {
            assert_kde_matches_oracle(&[e], s, &queries, "lone pole");
        }
    }
}

#[test]
fn great_circle_miles_is_bit_equal_to_its_prepared_form_and_the_oracle() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut pairs: Vec<(GeoPoint, GeoPoint)> = (0..2_000)
        .map(|_| (random_point(&mut rng), random_point(&mut rng)))
        .collect();
    for p in [
        pt(90.0, 0.0),
        pt(-90.0, 0.0),
        pt(0.0, 180.0),
        pt(40.0, -88.0),
    ] {
        pairs.push((p, p));
        pairs.push((p, antipode(p)));
    }
    for (a, b) in pairs {
        let want = naive::great_circle_miles(a, b).to_bits();
        assert_eq!(great_circle_miles(a, b).to_bits(), want, "{a} → {b}");
        let prepared = PreparedPoint::new(a).miles_to(&PreparedPoint::new(b));
        assert_eq!(prepared.to_bits(), want, "{a} → {b} (prepared)");
    }
}

#[test]
fn term_counters_account_for_every_event_once_per_call() {
    riskroute_obs::enable();
    let scope = riskroute_obs::ObsScope::begin("kde_oracle");
    let events: Vec<GeoPoint> = (0..50)
        .map(|i| pt(30.0 + 0.2 * i as f64, -95.0 + 0.3 * i as f64))
        .collect();
    let kde = GeoKde::fit(events, 3.84);
    {
        let _in_scope = scope.enter();
        let _ = kde.density(pt(30.0, -95.0));
        let _ = kde.density(pt(45.0, -120.0));
    }
    let counters = riskroute_obs::trace_counters(scope.trace_id());
    assert_eq!(term_count(&counters), 100, "{counters:?}");
    let get = |k: &str| counters.get(k).copied().unwrap_or(0);
    // The far query skips all 50; the near one evaluates its neighbours and,
    // once the event it sits on has set the sum to 1, absorbs the events
    // 3–5 rungs up the ladder (past ~8.7σ but inside 40σ).
    assert!(get("kde_terms_underflow_skipped") >= 50, "{counters:?}");
    assert!(get("kde_terms_evaluated") >= 1, "{counters:?}");
    assert!(get("kde_terms_absorbed") >= 1, "{counters:?}");
}

/// `evaluated + underflow_skipped + absorbed`: every event once per call.
fn term_count(counters: &std::collections::BTreeMap<String, u64>) -> u64 {
    [
        "kde_terms_evaluated",
        "kde_terms_underflow_skipped",
        "kde_terms_absorbed",
    ]
    .iter()
    .map(|k| counters.get(*k).copied().unwrap_or(0))
    .sum()
}

/// `z` (in σ) at which a term is exactly half an ulp of a positive normal
/// sum with biased exponent `binade`: `exp(−z²/2) = 2^(binade−1076)`.
fn half_ulp_sigmas(binade: u64) -> f64 {
    (2.0 * (1076 - binade) as f64 * std::f64::consts::LN_2).sqrt()
}

/// The oracle's running sums of the raw terms, one per prefix of `events`.
fn running_sums(events: &[GeoPoint], s: f64, y: GeoPoint) -> Vec<f64> {
    events
        .iter()
        .scan(0.0, |acc, &x| {
            *acc += naive::exponent(x, y, s).exp();
            Some(*acc)
        })
        .collect()
}

#[test]
fn events_on_a_meridian_around_the_half_ulp_of_one_match_the_oracle() {
    // One event at the query makes the running sum exactly 1.0, whose half
    // ulp is 2^−53, reached at z = √(106·ln 2) ≈ 8.572σ.
    assert!((half_ulp_sigmas(1023) - 8.572).abs() < 1e-3);
    let ks = [8.45, 8.50, 8.55, 8.572, 8.60, 8.65, 8.70];
    for q in [pt(35.0, -90.0), pt(0.0, 0.0), pt(-62.0, 170.0)] {
        for s in BANDWIDTHS {
            let rungs: Vec<GeoPoint> = ks.iter().map(|&k| destination(q, 0.0, k * s)).collect();
            let mut first = vec![q];
            first.extend(&rungs);
            let mut last = rungs.clone();
            last.push(q);
            let mut split = rungs.clone();
            split.insert(3, q);
            for (order, events) in [
                ("query first", &first),
                ("query last", &last),
                ("split", &split),
            ] {
                assert_kde_matches_oracle(events, s, &[q], &format!("meridian, {order}"));
            }
        }
    }
    // Both sides of the boundary are really exercised: the inner rungs move
    // a sum of 1.0, the outer ones are absorbed by it.
    let (q, s) = (pt(35.0, -90.0), 24.38);
    let plus = |k: f64| 1.0 + naive::exponent(q, destination(q, 0.0, k * s), s).exp();
    for k in [8.45, 8.50, 8.55] {
        assert!(plus(k) > 1.0, "{k}σ");
    }
    for k in [8.60, 8.65, 8.70] {
        assert_eq!(plus(k), 1.0, "{k}σ");
    }
}

#[test]
fn probes_packed_at_the_half_ulp_boundary_match_the_oracle() {
    // Runs of events within 4e-12 (relative) of the half-ulp boundary of a
    // sum of 1.0, from random mid-latitude queries along random bearings.
    // Near the boundary the chord and the haversine can disagree by
    // rounding about which side an event is on; a reach set right at the
    // half-ulp boundary, without slack, skips a few of these terms even
    // though they still round the sum up.
    let z0 = half_ulp_sigmas(1023);
    let mut rng = StdRng::seed_from_u64(53);
    for s in [0.5, 3.59] {
        for _ in 0..150 {
            let q = pt(
                -60.0 + 120.0 * rng.gen_f64(),
                -180.0 + 360.0 * rng.gen_f64(),
            );
            let brg = 360.0 * rng.gen_f64();
            let mut events = vec![q];
            events
                .extend((-40..=40).map(|i| destination(q, brg, z0 * (1.0 + i as f64 * 1e-13) * s)));
            assert_kde_matches_oracle(&events, s, &[q], "packed probes");
        }
    }
}

#[test]
fn a_sum_climbing_through_many_binades_matches_the_oracle() {
    // Each step adds one event nearer the query than the last (its term
    // lifts the sum by a few binades), then probes just inside, on and just
    // outside the half-ulp boundary of the sum as it now stands.
    let q = pt(35.0, -90.0);
    for s in BANDWIDTHS {
        let mut events: Vec<GeoPoint> = Vec::new();
        let mut binades = Vec::new();
        for step in 0..=36 {
            let brg = 10.0 * step as f64;
            events.push(destination(q, brg, (36 - step) as f64 * s));
            let sum = *running_sums(&events, s, q).last().unwrap();
            let binade = sum.to_bits() >> 52;
            assert!(binade >= 1, "step {step}: sum {sum:e} is not normal");
            binades.push(binade);
            let z0 = half_ulp_sigmas(binade);
            for d in [-1e-3, -1e-9, 0.0, 1e-9, 1e-3, 2e-2] {
                events.push(destination(q, brg + 5.0, z0 * (1.0 + d) * s));
            }
        }
        binades.dedup();
        if s < 1000.0 {
            // (At σ = 5000 mi every event is within 2.5σ of the query.)
            assert!(binades.len() >= 20, "σ={s}: binades {binades:?}");
        }
        assert_kde_matches_oracle(&events, s, &[q], "climbing sum");
        // The same corpus queried off-centre and from farther away.
        let others: Vec<GeoPoint> = [1.0, 5.0, 20.0, 39.0]
            .iter()
            .map(|&k| destination(q, 200.0, k * s))
            .collect();
        assert_kde_matches_oracle(&events, s, &others, "climbing sum, off-centre");
    }
}

#[test]
fn a_lone_far_cluster_with_a_subnormal_sum_matches_the_oracle() {
    let q = pt(35.0, -90.0);
    for s in BANDWIDTHS {
        let events: Vec<GeoPoint> = (0..20)
            .map(|i| destination(q, 18.0 * i as f64, (38.0 + 0.03 * i as f64) * s))
            .collect();
        assert_kde_matches_oracle(&events, s, &[q], "subnormal sum");
        if s < 1000.0 {
            // The sum stays a positive subnormal the whole way (at σ = 5000
            // mi these arcs wrap round the globe).
            let sum = *running_sums(&events, s, q).last().unwrap();
            assert!(sum > 0.0 && sum < f64::MIN_POSITIVE, "σ={s}: {sum:e}");
        }
    }
}

#[test]
fn cli_sized_random_corpora_match_the_oracle_and_absorb_terms() {
    riskroute_obs::enable();
    let mut rng = StdRng::seed_from_u64(3000);
    let conus = pt(37.0, -95.0);
    for global in [false, true] {
        let events: Vec<GeoPoint> = (0..3_000)
            .map(|_| {
                if global {
                    random_point(&mut rng)
                } else {
                    near(&mut rng, conus, 25.0)
                }
            })
            .collect();
        let mut queries: Vec<GeoPoint> = (0..8).map(|_| random_point(&mut rng)).collect();
        queries.extend((0..8).map(|_| near(&mut rng, conus, 30.0)));
        queries.extend(events.iter().take(4).copied());
        for s in BANDWIDTHS {
            let scope = riskroute_obs::ObsScope::begin("kde_oracle_cli_sized");
            {
                let _in_scope = scope.enter();
                assert_kde_matches_oracle(
                    &events,
                    s,
                    &queries,
                    &format!("3,000 events, global {global}"),
                );
            }
            let counters = riskroute_obs::trace_counters(scope.trace_id());
            let calls = queries.len() as u64;
            assert_eq!(term_count(&counters), 3_000 * calls, "σ={s}: {counters:?}");
            if s < 5000.0 {
                // Not vacuous: the reach really cuts the scan short.
                let absorbed = counters.get("kde_terms_absorbed").copied().unwrap_or(0);
                assert!(absorbed > 0, "σ={s}, global {global}: {counters:?}");
            }
        }
    }
}
