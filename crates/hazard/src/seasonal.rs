//! Seasonal risk modulation — the §5.2 extension the paper defers.
//!
//! "While we acknowledge that many of the disaster events have strong
//! seasonal correlations (e.g., tornados, hurricanes), for simplicity, here
//! we only consider a single outage probability distribution for each
//! disaster event type." This module lifts that simplification: each event
//! kind carries a monthly activity profile (normalized so the *annual mean*
//! weight is 1, keeping yearly totals consistent with the paper's static
//! model), and [`SeasonalRisk`] evaluates `o_h` for a given month.
//!
//! Profiles follow the U.S. climatology the corpora describe: Atlantic
//! hurricanes peak Aug–Oct, tornado season peaks Apr–Jun, severe storms ride
//! the warm half of the year, damaging wind peaks with summer convection,
//! and earthquakes are aseasonal.

use crate::events::EventKind;
use crate::surface::HistoricalRisk;
use riskroute_geo::GeoPoint;
use riskroute_par::Parallelism;

/// Months, 1-based like the calendar (1 = January).
pub type Month = u8;

/// Relative monthly activity (Jan..Dec) for one event kind. Each profile
/// averages to 1.0 over the year.
fn monthly_profile(kind: EventKind) -> [f64; 12] {
    let raw: [f64; 12] = match kind {
        // NHC climatology: essentially nothing before June, sharp Aug–Oct
        // peak (Sep ≈ ⅓ of annual activity).
        EventKind::FemaHurricane => [0.0, 0.0, 0.0, 0.0, 0.1, 0.6, 1.2, 2.8, 4.0, 2.4, 0.8, 0.1],
        // SPC climatology: spring peak, secondary late-fall Dixie season.
        EventKind::FemaTornado => [0.4, 0.5, 1.0, 2.2, 2.8, 1.8, 0.8, 0.6, 0.6, 0.7, 0.9, 0.7],
        // Severe storms: warm-season convection.
        EventKind::FemaStorm => [0.5, 0.5, 0.8, 1.2, 1.8, 2.0, 1.7, 1.4, 1.0, 0.7, 0.5, 0.9],
        // Earthquakes don't read the calendar.
        EventKind::NoaaEarthquake => [1.0; 12],
        // Damaging wind: summer thunderstorm peak, winter minimum.
        EventKind::NoaaWind => [0.5, 0.5, 0.8, 1.1, 1.5, 2.0, 2.2, 1.7, 1.0, 0.7, 0.5, 0.5],
    };
    // Normalize to annual mean 1.
    let mean: f64 = raw.iter().sum::<f64>() / 12.0;
    let mut out = [0.0; 12];
    for (o, r) in out.iter_mut().zip(raw.iter()) {
        *o = r / mean;
    }
    out
}

/// Seasonal weight of `kind` in `month` (annual mean = 1).
///
/// # Panics
/// Panics when `month` is outside `1..=12`.
pub fn seasonal_weight(kind: EventKind, month: Month) -> f64 {
    assert!((1..=12).contains(&month), "month {month} out of range");
    monthly_profile(kind)[usize::from(month) - 1]
}

/// A month-conditioned view over a [`HistoricalRisk`] model.
#[derive(Debug, Clone)]
pub struct SeasonalRisk<'a> {
    base: &'a HistoricalRisk,
    month: Month,
}

impl<'a> SeasonalRisk<'a> {
    /// Condition `base` on `month`.
    ///
    /// # Panics
    /// Panics when `month` is outside `1..=12`.
    pub fn new(base: &'a HistoricalRisk, month: Month) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        SeasonalRisk { base, month }
    }

    /// The conditioned month.
    pub fn month(&self) -> Month {
        self.month
    }

    /// Month-conditioned aggregate risk:
    /// `o_h(y | month) = Σ_kinds w_kind(month) · p_kind(y)`.
    pub fn risk(&self, y: GeoPoint) -> f64 {
        self.base
            .surfaces()
            .iter()
            .map(|s| seasonal_weight(s.kind(), self.month) * s.outage_probability(y))
            .sum()
    }

    /// Month-conditioned risk at every location, in order: the same
    /// kind-major pooled evaluation as [`HistoricalRisk::risk_at_all`] with
    /// the month's weights, so every value has the bits of
    /// [`risk`](Self::risk) at that point.
    pub fn risk_at_all(&self, points: &[GeoPoint]) -> Vec<f64> {
        self.base
            .weighted_risk_at_all(Parallelism::Auto, points, |kind| {
                seasonal_weight(kind, self.month)
            })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::events::ALL_EVENT_KINDS;

    fn pt(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn profiles_average_to_one() {
        for &kind in ALL_EVENT_KINDS {
            let mean: f64 = (1..=12).map(|m| seasonal_weight(kind, m)).sum::<f64>() / 12.0;
            assert!((mean - 1.0).abs() < 1e-12, "{kind}: mean {mean}");
        }
    }

    #[test]
    fn hurricane_season_peaks_in_september() {
        let sep = seasonal_weight(EventKind::FemaHurricane, 9);
        for m in 1..=12 {
            assert!(seasonal_weight(EventKind::FemaHurricane, m) <= sep);
        }
        assert_eq!(seasonal_weight(EventKind::FemaHurricane, 1), 0.0);
        assert_eq!(seasonal_weight(EventKind::FemaHurricane, 2), 0.0);
    }

    #[test]
    fn tornado_season_peaks_in_spring() {
        let may = seasonal_weight(EventKind::FemaTornado, 5);
        assert!(may > seasonal_weight(EventKind::FemaTornado, 1));
        assert!(may > seasonal_weight(EventKind::FemaTornado, 8));
    }

    #[test]
    fn earthquakes_are_aseasonal() {
        for m in 1..=12 {
            assert_eq!(seasonal_weight(EventKind::NoaaEarthquake, m), 1.0);
        }
    }

    #[test]
    fn gulf_coast_risk_swings_with_the_calendar() {
        let base = HistoricalRisk::standard(42, Some(500));
        let nola = pt(29.95, -90.07);
        let january = SeasonalRisk::new(&base, 1).risk(nola);
        let september = SeasonalRisk::new(&base, 9).risk(nola);
        assert!(
            september > 2.0 * january,
            "Sep {september} vs Jan {january}"
        );
        // California's quake-dominated risk barely moves.
        let la = pt(34.05, -118.24);
        let la_jan = SeasonalRisk::new(&base, 1).risk(la);
        let la_sep = SeasonalRisk::new(&base, 9).risk(la);
        assert!((la_sep / la_jan) < (september / january));
    }

    #[test]
    fn annual_mean_matches_static_model() {
        // Averaging the seasonal risk over all twelve months recovers the
        // paper's static o_h.
        let base = HistoricalRisk::standard(42, Some(500));
        let p = pt(35.0, -90.0);
        let annual_mean: f64 = (1..=12)
            .map(|m| SeasonalRisk::new(&base, m).risk(p))
            .sum::<f64>()
            / 12.0;
        assert!((annual_mean - base.risk(p)).abs() / base.risk(p) < 1e-9);
    }

    #[test]
    fn risk_at_all_matches_pointwise() {
        let base = HistoricalRisk::standard(42, Some(200));
        // A CONUS lattice plus the pole; January zeroes the hurricane term.
        let mut pts: Vec<GeoPoint> = (0..40)
            .map(|i| pt(26.0 + (i / 8) as f64 * 4.0, -122.0 + (i % 8) as f64 * 6.5))
            .collect();
        pts.push(pt(90.0, 0.0));
        for month in [1, 9] {
            let seasonal = SeasonalRisk::new(&base, month);
            for n in [pts.len(), 0, 1] {
                let v = seasonal.risk_at_all(&pts[..n]);
                assert_eq!(v.len(), n);
                for (&got, &p) in v.iter().zip(&pts) {
                    assert_eq!(
                        got.to_bits(),
                        seasonal.risk(p).to_bits(),
                        "month {month} at {p}"
                    );
                }
            }
            assert_eq!(seasonal.month(), month);
        }
    }

    #[test]
    #[should_panic(expected = "month 13")]
    fn invalid_month_panics() {
        let base = HistoricalRisk::standard(42, Some(100));
        let _ = SeasonalRisk::new(&base, 13);
    }
}
