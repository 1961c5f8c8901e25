//! K-fold cross-validated kernel bandwidth selection.
//!
//! The paper (§5.2) trains each event type's bandwidth with "5-way cross
//! validation (where the best bandwidth is found from 80 % of the observed
//! events to fit the remaining 20 %)", scored with KL divergence.
//!
//! Scoring held-out events by average negative log-likelihood selects exactly
//! the KL-minimizing bandwidth: `KL(p‖p̂_σ) = −H(p) − E_p[log p̂_σ]`, and the
//! entropy term does not depend on σ, so `argmin_σ KL = argmax_σ Σ log p̂_σ`
//! over held-out draws from `p`. We therefore report the mean held-out
//! negative log-likelihood as the "KL score" (equal to the KL divergence up
//! to the bandwidth-independent entropy constant).

use crate::kde::GeoKde;
use crate::rng::shuffled_indices;
use riskroute_geo::GeoPoint;

/// Outcome of a bandwidth search.
#[derive(Debug, Clone)]
pub struct BandwidthReport {
    /// The winning bandwidth in miles.
    pub best_bandwidth_miles: f64,
    /// Mean held-out negative log-likelihood at the winning bandwidth.
    pub best_score: f64,
    /// `(candidate bandwidth, score)` for every candidate evaluated.
    pub candidates: Vec<(f64, f64)>,
    /// Number of folds used.
    pub folds: usize,
}

/// Select the best bandwidth for `events` from `candidates` using `folds`-way
/// cross validation (the paper uses 5), deterministic under `seed`.
///
/// Returns the candidate minimizing mean held-out negative log-likelihood
/// (equivalently KL divergence; see module docs).
///
/// # Panics
/// Panics when `candidates` is empty, any candidate is non-positive, `folds
/// < 2`, or `events.len() < folds`.
pub fn select_bandwidth(
    events: &[GeoPoint],
    candidates: &[f64],
    folds: usize,
    seed: u64,
) -> BandwidthReport {
    assert!(
        !candidates.is_empty(),
        "need at least one candidate bandwidth"
    );
    assert!(
        candidates.iter().all(|&c| c.is_finite() && c > 0.0),
        "candidate bandwidths must be positive"
    );
    assert!(folds >= 2, "cross validation needs at least 2 folds");
    assert!(
        events.len() >= folds,
        "need at least one event per fold ({} events, {} folds)",
        events.len(),
        folds
    );

    let order = shuffled_indices(events.len(), seed);
    let mut scored: Vec<(f64, f64)> = Vec::with_capacity(candidates.len());
    for &bw in candidates {
        let mut total_nll = 0.0;
        let mut held_out = 0usize;
        for fold in 0..folds {
            let (train, test) = split_fold(&order, folds, fold);
            let train_pts: Vec<GeoPoint> = train.iter().map(|&i| events[i]).collect();
            let kde = GeoKde::fit(train_pts, bw);
            for &i in &test {
                total_nll -= kde.log_density(events[i]);
                held_out += 1;
            }
        }
        scored.push((bw, total_nll / held_out as f64));
    }
    let Some((best_bandwidth_miles, best_score)) =
        scored.iter().copied().min_by(|a, b| a.1.total_cmp(&b.1))
    else {
        unreachable!("candidates were asserted non-empty");
    };
    BandwidthReport {
        best_bandwidth_miles,
        best_score,
        candidates: scored,
        folds,
    }
}

/// Like [`select_bandwidth`] but built for *large* corpora: fits a
/// truncated, spatially-binned KDE ([`crate::BinnedKde`]) per fold and
/// scores at most `test_cap` held-out points per fold (deterministically
/// chosen). This is what makes cross-validating the paper's 143,847-event
/// NOAA wind corpus tractable.
///
/// Scores use the floored log density of [`crate::BinnedKde`], so candidates
/// whose truncation radius misses held-out points are penalized smoothly
/// rather than producing infinite scores.
///
/// # Panics
/// Same contract as [`select_bandwidth`], plus `test_cap > 0`.
pub fn select_bandwidth_binned(
    events: &[GeoPoint],
    candidates: &[f64],
    folds: usize,
    test_cap: usize,
    seed: u64,
) -> BandwidthReport {
    assert!(
        !candidates.is_empty(),
        "need at least one candidate bandwidth"
    );
    assert!(
        candidates.iter().all(|&c| c.is_finite() && c > 0.0),
        "candidate bandwidths must be positive"
    );
    assert!(folds >= 2, "cross validation needs at least 2 folds");
    assert!(test_cap > 0, "test_cap must be positive");
    assert!(
        events.len() >= folds,
        "need at least one event per fold ({} events, {} folds)",
        events.len(),
        folds
    );

    let order = shuffled_indices(events.len(), seed);
    let mut scored: Vec<(f64, f64)> = Vec::with_capacity(candidates.len());
    for &bw in candidates {
        let mut total_nll = 0.0;
        let mut held_out = 0usize;
        for fold in 0..folds {
            let (train, test) = split_fold(&order, folds, fold);
            let train_pts: Vec<GeoPoint> = train.iter().map(|&i| events[i]).collect();
            let kde = crate::BinnedKde::fit(&train_pts, bw);
            for &i in test.iter().take(test_cap) {
                total_nll -= kde.log_density_floored(events[i]);
                held_out += 1;
            }
        }
        scored.push((bw, total_nll / held_out as f64));
    }
    let Some((best_bandwidth_miles, best_score)) =
        scored.iter().copied().min_by(|a, b| a.1.total_cmp(&b.1))
    else {
        unreachable!("candidates were asserted non-empty");
    };
    BandwidthReport {
        best_bandwidth_miles,
        best_score,
        candidates: scored,
        folds,
    }
}

/// Split a shuffled index order into (train, test) for fold `fold` of
/// `folds`. Fold sizes differ by at most one.
fn split_fold(order: &[usize], folds: usize, fold: usize) -> (Vec<usize>, Vec<usize>) {
    let n = order.len();
    let base = n / folds;
    let extra = n % folds;
    // Folds 0..extra get base+1 elements.
    let start = fold * base + fold.min(extra);
    let len = base + usize::from(fold < extra);
    let test: Vec<usize> = order[start..start + len].to_vec();
    let train: Vec<usize> = order[..start]
        .iter()
        .chain(order[start + len..].iter())
        .copied()
        .collect();
    (train, test)
}

/// A geometric sweep of candidate bandwidths from `lo` to `hi` (inclusive)
/// with `steps >= 2` points — the standard grid for
/// [`select_bandwidth`].
///
/// # Panics
/// Panics unless `0 < lo < hi` and `steps >= 2`.
pub fn log_space(lo: f64, hi: f64, steps: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    assert!(steps >= 2, "need at least two steps");
    let ratio = (hi / lo).powf(1.0 / (steps - 1) as f64);
    (0..steps).map(|i| lo * ratio.powi(i as i32)).collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use riskroute_geo::distance::destination;
    use riskroute_rng::StdRng;

    fn pt(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    /// Sample events from an isotropic Gaussian cloud (σ in miles) centered
    /// at `center`, via polar Box–Muller over geodesic offsets.
    fn gaussian_cloud(center: GeoPoint, sigma_miles: f64, n: usize, seed: u64) -> Vec<GeoPoint> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let r = sigma_miles * (-2.0 * u1.ln()).sqrt();
                let theta = 360.0 * u2;
                destination(center, theta, r)
            })
            .collect()
    }

    #[test]
    fn split_fold_partitions_indices() {
        let order: Vec<usize> = (0..23).collect();
        let mut seen = [0u32; 23];
        for fold in 0..5 {
            let (train, test) = split_fold(&order, 5, fold);
            assert_eq!(train.len() + test.len(), 23);
            for &i in &test {
                seen[i] += 1;
            }
            // Train and test are disjoint.
            for &i in &test {
                assert!(!train.contains(&i));
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "each index held out once");
    }

    #[test]
    fn fold_sizes_differ_by_at_most_one() {
        let order: Vec<usize> = (0..23).collect();
        let sizes: Vec<usize> = (0..5).map(|f| split_fold(&order, 5, f).1.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn log_space_endpoints_and_monotone() {
        let v = log_space(1.0, 100.0, 5);
        assert_eq!(v.len(), 5);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[4] - 100.0).abs() < 1e-9);
        for w in v.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn selects_reasonable_bandwidth_for_known_spread() {
        // Events from a σ=60-mile cloud: CV should prefer a mid candidate
        // over extreme under/over-smoothing.
        let events = gaussian_cloud(pt(37.0, -95.0), 60.0, 200, 7);
        let report = select_bandwidth(&events, &[1.0, 30.0, 60.0, 120.0, 2000.0], 5, 11);
        assert!(
            (30.0..=120.0).contains(&report.best_bandwidth_miles),
            "picked {}",
            report.best_bandwidth_miles
        );
        assert_eq!(report.candidates.len(), 5);
        assert_eq!(report.folds, 5);
    }

    #[test]
    fn tighter_cloud_gets_smaller_bandwidth() {
        let cands = log_space(2.0, 500.0, 10);
        let tight = gaussian_cloud(pt(37.0, -95.0), 15.0, 150, 3);
        let loose = gaussian_cloud(pt(37.0, -95.0), 250.0, 150, 4);
        let bw_tight = select_bandwidth(&tight, &cands, 5, 9).best_bandwidth_miles;
        let bw_loose = select_bandwidth(&loose, &cands, 5, 9).best_bandwidth_miles;
        assert!(
            bw_tight < bw_loose,
            "tight {bw_tight} should be below loose {bw_loose}"
        );
    }

    #[test]
    fn more_events_shrink_bandwidth() {
        // Classic KDE behaviour: bandwidth shrinks as N grows (the paper
        // notes bandwidth "is, of course, dependent on the number of
        // historical events").
        let cands = log_space(2.0, 500.0, 12);
        let few = gaussian_cloud(pt(37.0, -95.0), 100.0, 30, 5);
        let many = gaussian_cloud(pt(37.0, -95.0), 100.0, 600, 5);
        let bw_few = select_bandwidth(&few, &cands, 5, 2).best_bandwidth_miles;
        let bw_many = select_bandwidth(&many, &cands, 5, 2).best_bandwidth_miles;
        assert!(
            bw_many <= bw_few,
            "many-events bw {bw_many} should not exceed few-events bw {bw_few}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let events = gaussian_cloud(pt(37.0, -95.0), 60.0, 100, 1);
        let a = select_bandwidth(&events, &[10.0, 50.0, 250.0], 5, 42);
        let b = select_bandwidth(&events, &[10.0, 50.0, 250.0], 5, 42);
        assert_eq!(a.best_bandwidth_miles, b.best_bandwidth_miles);
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    fn binned_selection_agrees_with_exact_on_moderate_corpus() {
        let events = gaussian_cloud(pt(37.0, -95.0), 60.0, 300, 7);
        let cands = [5.0, 20.0, 60.0, 200.0];
        let exact = select_bandwidth(&events, &cands, 5, 11);
        let binned = select_bandwidth_binned(&events, &cands, 5, usize::MAX, 11);
        assert_eq!(exact.best_bandwidth_miles, binned.best_bandwidth_miles);
    }

    #[test]
    fn binned_selection_shrinks_bandwidth_with_corpus_size() {
        // The Table-1 phenomenon: denser corpora support tighter kernels.
        let cands = log_space(2.0, 500.0, 12);
        let small = gaussian_cloud(pt(37.0, -95.0), 150.0, 200, 5);
        let large = gaussian_cloud(pt(37.0, -95.0), 150.0, 8_000, 5);
        let bw_small = select_bandwidth_binned(&small, &cands, 5, 200, 2).best_bandwidth_miles;
        let bw_large = select_bandwidth_binned(&large, &cands, 5, 200, 2).best_bandwidth_miles;
        assert!(
            bw_large < bw_small,
            "large-corpus bw {bw_large} should be below small-corpus bw {bw_small}"
        );
    }

    #[test]
    fn binned_selection_is_deterministic() {
        let events = gaussian_cloud(pt(37.0, -95.0), 60.0, 400, 3);
        let cands = [10.0, 50.0, 250.0];
        let a = select_bandwidth_binned(&events, &cands, 5, 100, 9);
        let b = select_bandwidth_binned(&events, &cands, 5, 100, 9);
        assert_eq!(a.best_bandwidth_miles, b.best_bandwidth_miles);
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    #[should_panic(expected = "test_cap must be positive")]
    fn binned_zero_test_cap_panics() {
        let events = gaussian_cloud(pt(37.0, -95.0), 60.0, 50, 3);
        let _ = select_bandwidth_binned(&events, &[10.0], 5, 0, 9);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panics() {
        let events = gaussian_cloud(pt(37.0, -95.0), 60.0, 20, 1);
        let _ = select_bandwidth(&events, &[], 5, 0);
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn one_fold_panics() {
        let events = gaussian_cloud(pt(37.0, -95.0), 60.0, 20, 1);
        let _ = select_bandwidth(&events, &[10.0], 1, 0);
    }

    #[test]
    #[should_panic(expected = "one event per fold")]
    fn too_few_events_panics() {
        let events = gaussian_cloud(pt(37.0, -95.0), 60.0, 3, 1);
        let _ = select_bandwidth(&events, &[10.0], 5, 0);
    }
}
