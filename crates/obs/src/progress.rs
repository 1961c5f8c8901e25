//! Stderr progress heartbeats with fraction-based ETA.

use std::time::{Duration, Instant};

/// A rate-limited stderr progress reporter. Feed it `done` / `total`
/// figures as work advances (the CLI passes stage counts and
/// `WorkBudget::work_done`); at most one line per interval is printed,
/// with elapsed time and an ETA extrapolated from the completed fraction.
#[derive(Debug)]
pub struct Heartbeat {
    label: String,
    started: Instant,
    last_emit: Option<Instant>,
    interval: Duration,
}

impl Heartbeat {
    /// A heartbeat with the default 1 s emission interval.
    pub fn new(label: impl Into<String>) -> Heartbeat {
        Heartbeat::with_interval(label, Duration::from_secs(1))
    }

    /// A heartbeat emitting at most once per `interval` (zero = every
    /// tick).
    pub fn with_interval(label: impl Into<String>, interval: Duration) -> Heartbeat {
        Heartbeat {
            label: label.into(),
            started: Instant::now(),
            last_emit: None,
            interval,
        }
    }

    /// Render one progress line for the given elapsed time (separated
    /// from the clock for testability).
    pub fn render_at(
        &self,
        elapsed: Duration,
        done: u64,
        total: Option<u64>,
        extra: &str,
    ) -> String {
        let mut line = format!("[{}] {done}", self.label);
        if let Some(total) = total.filter(|&t| t > 0) {
            let frac = done as f64 / total as f64;
            line.push_str(&format!("/{total} ({:.1}%)", 100.0 * frac));
            if done > 0 && done < total {
                let eta = elapsed.as_secs_f64() * (1.0 - frac) / frac;
                line.push_str(&format!(" eta {eta:.1}s"));
            }
        }
        line.push_str(&format!(" elapsed {:.1}s", elapsed.as_secs_f64()));
        if !extra.is_empty() {
            line.push(' ');
            line.push_str(extra);
        }
        line
    }

    /// Report progress; prints to stderr when the interval has elapsed
    /// since the last emission. Returns the line when it printed.
    pub fn tick(&mut self, done: u64, total: Option<u64>, extra: &str) -> Option<String> {
        let now = Instant::now();
        if self
            .last_emit
            .is_some_and(|last| now.duration_since(last) < self.interval)
        {
            return None;
        }
        self.last_emit = Some(now);
        let line = self.render_at(now.duration_since(self.started), done, total, extra);
        eprintln!("{line}");
        Some(line)
    }

    /// Print a final unconditional line.
    pub fn finish(&mut self, done: u64, total: Option<u64>, extra: &str) -> String {
        self.last_emit = Some(Instant::now());
        let line = self.render_at(self.started.elapsed(), done, total, extra);
        eprintln!("{line}");
        line
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn render_includes_fraction_and_eta() {
        let hb = Heartbeat::new("provision");
        let line = hb.render_at(Duration::from_secs(10), 2, Some(10), "work 200");
        assert!(line.starts_with("[provision] 2/10 (20.0%)"));
        // 10 s for 20% → 40 s remaining.
        assert!(line.contains("eta 40.0s"), "{line}");
        assert!(line.contains("elapsed 10.0s"));
        assert!(line.ends_with("work 200"));
    }

    #[test]
    fn render_without_total_or_at_completion_omits_eta() {
        let hb = Heartbeat::new("replay");
        let open_ended = hb.render_at(Duration::from_secs(1), 5, None, "");
        assert!(!open_ended.contains("eta"));
        assert_eq!(open_ended, "[replay] 5 elapsed 1.0s");
        let finished = hb.render_at(Duration::from_secs(1), 10, Some(10), "");
        assert!(!finished.contains("eta"));
        assert!(finished.contains("(100.0%)"));
    }

    #[test]
    fn tick_rate_limits_and_finish_always_prints() {
        let mut hb = Heartbeat::with_interval("x", Duration::from_secs(3600));
        assert!(hb.tick(1, Some(2), "").is_some());
        assert!(hb.tick(2, Some(2), "").is_none(), "inside the interval");
        assert!(!hb.finish(2, Some(2), "done").is_empty());
    }

    #[test]
    fn zero_interval_emits_every_tick() {
        let mut hb = Heartbeat::with_interval("y", Duration::ZERO);
        assert!(hb.tick(1, None, "").is_some());
        assert!(hb.tick(2, None, "").is_some());
    }
}
