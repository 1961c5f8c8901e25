//! Bit-exactness of the geodesic KDE against a deliberately naive oracle.
//!
//! The oracle is the straight evaluation of Eq. 2: the haversine written
//! out for every event/query pair (both latitudes' cosines taken on the
//! spot), `exp` of every term, and an in-order `Iterator::sum`. `GeoKde`
//! instead prepares each point's trig once and skips events past its
//! underflow cutoff; every test here demands the same bits.

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
    let get = |k: &str| counters.get(k).copied().unwrap_or(0);
    assert_eq!(
        get("kde_terms_evaluated") + get("kde_terms_underflow_skipped"),
        100
    );
    // The far query skips all 50; the near one evaluates its neighbours.
    assert!(get("kde_terms_underflow_skipped") >= 50, "{counters:?}");
    assert!(get("kde_terms_evaluated") >= 1, "{counters:?}");
}
