//! Minimal calendar arithmetic for advisory timestamps.
//!
//! Advisory cadence in the paper's Figures 12–13 is labelled with NHC-style
//! timestamps ("5 PM EDT TUE AUG 23 2005"). This module provides just enough
//! date handling to reproduce those labels without a date-time dependency.

/// A wall-clock timestamp (local storm-basin time; the paper's advisories
/// mix EDT/CDT, which is cosmetic for our purposes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Timestamp {
    /// Four-digit year.
    pub year: u16,
    /// Month 1–12.
    pub month: u8,
    /// Day of month 1–31.
    pub day: u8,
    /// Hour 0–23.
    pub hour: u8,
}

const MONTH_NAMES: [&str; 12] = [
    "JAN", "FEB", "MAR", "APR", "MAY", "JUN", "JUL", "AUG", "SEP", "OCT", "NOV", "DEC",
];
const DAY_NAMES: [&str; 7] = ["SAT", "SUN", "MON", "TUE", "WED", "THU", "FRI"];

impl Timestamp {
    /// Construct a timestamp.
    ///
    /// # Panics
    /// Panics on out-of-range fields (month 1–12, day 1–days-in-month,
    /// hour 0–23).
    pub fn new(year: u16, month: u8, day: u8, hour: u8) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!(
            day >= 1 && u32::from(day) <= days_in_month(year, month),
            "day {day} out of range for {year}-{month}"
        );
        assert!(hour < 24, "hour {hour} out of range");
        Timestamp {
            year,
            month,
            day,
            hour,
        }
    }

    /// This timestamp advanced by `hours` (non-negative).
    pub fn plus_hours(mut self, hours: u32) -> Timestamp {
        let mut total = u32::from(self.hour) + hours;
        self.hour = (total % 24) as u8;
        total /= 24;
        for _ in 0..total {
            let dim = days_in_month(self.year, self.month);
            if u32::from(self.day) < dim {
                self.day += 1;
            } else {
                self.day = 1;
                if self.month == 12 {
                    self.month = 1;
                    self.year += 1;
                } else {
                    self.month += 1;
                }
            }
        }
        self
    }

    /// Day of week via Zeller's congruence.
    pub fn weekday(&self) -> &'static str {
        let (mut m, mut y) = (u32::from(self.month), u32::from(self.year));
        if m < 3 {
            m += 12;
            y -= 1;
        }
        let (k, j) = (y % 100, y / 100);
        let h = (u32::from(self.day) + (13 * (m + 1)) / 5 + k + k / 4 + j / 4 + 5 * j) % 7;
        DAY_NAMES[h as usize]
    }

    /// NHC-style label, e.g. `"5 PM TUE AUG 23 2005"`.
    pub fn label(&self) -> String {
        let (h12, ampm) = match self.hour {
            0 => (12, "AM"),
            1..=11 => (u32::from(self.hour), "AM"),
            12 => (12, "PM"),
            _ => (u32::from(self.hour) - 12, "PM"),
        };
        format!(
            "{} {} {} {} {} {}",
            h12,
            ampm,
            self.weekday(),
            MONTH_NAMES[usize::from(self.month) - 1],
            self.day,
            self.year
        )
    }
}

/// Days in the given month, honouring leap years.
pub fn days_in_month(year: u16, month: u8) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400) {
                29
            } else {
                28
            }
        }
        _ => unreachable!("validated month"),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn construction_validates() {
        let t = Timestamp::new(2005, 8, 23, 17);
        assert_eq!(t.label(), "5 PM TUE AUG 23 2005");
    }

    #[test]
    #[should_panic(expected = "day 31 out of range")]
    fn rejects_invalid_day() {
        let _ = Timestamp::new(2011, 9, 31, 0);
    }

    #[test]
    #[should_panic(expected = "month 13")]
    fn rejects_invalid_month() {
        let _ = Timestamp::new(2011, 13, 1, 0);
    }

    #[test]
    fn plus_hours_within_day() {
        let t = Timestamp::new(2011, 8, 20, 19).plus_hours(3);
        assert_eq!((t.day, t.hour), (20, 22));
    }

    #[test]
    fn plus_hours_rolls_day_month_year() {
        let t = Timestamp::new(2012, 10, 31, 23).plus_hours(2);
        assert_eq!((t.year, t.month, t.day, t.hour), (2012, 11, 1, 1));
        let t = Timestamp::new(2011, 12, 31, 23).plus_hours(1);
        assert_eq!((t.year, t.month, t.day, t.hour), (2012, 1, 1, 0));
    }

    #[test]
    fn leap_year_february() {
        assert_eq!(days_in_month(2012, 2), 29);
        assert_eq!(days_in_month(2011, 2), 28);
        assert_eq!(days_in_month(2000, 2), 29);
        assert_eq!(days_in_month(1900, 2), 28);
        let t = Timestamp::new(2012, 2, 28, 12).plus_hours(24);
        assert_eq!((t.month, t.day), (2, 29));
    }

    #[test]
    fn weekdays_are_correct() {
        // Katrina's landfall was Monday, August 29, 2005.
        assert_eq!(Timestamp::new(2005, 8, 29, 6).weekday(), "MON");
        // Sandy's NJ landfall was Monday, October 29, 2012.
        assert_eq!(Timestamp::new(2012, 10, 29, 20).weekday(), "MON");
        // Irene's NC landfall was Saturday, August 27, 2011.
        assert_eq!(Timestamp::new(2011, 8, 27, 8).weekday(), "SAT");
    }

    #[test]
    fn label_edges() {
        assert!(Timestamp::new(2005, 8, 23, 0).label().starts_with("12 AM"));
        assert!(Timestamp::new(2005, 8, 23, 12).label().starts_with("12 PM"));
        assert!(Timestamp::new(2005, 8, 23, 23).label().starts_with("11 PM"));
    }

    #[test]
    fn ordering_follows_time() {
        let a = Timestamp::new(2005, 8, 23, 17);
        assert!(a < a.plus_hours(1));
        assert!(a < a.plus_hours(24 * 40));
    }
}
