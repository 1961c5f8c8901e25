//! Concurrency smoke test: the global collector under `std::thread`
//! fan-out must neither lose updates nor corrupt state.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::thread;

#[test]
fn collector_is_safe_under_thread_fan_out() {
    riskroute_obs::reset();
    riskroute_obs::enable();

    const THREADS: usize = 8;
    const ITERS: u64 = 500;

    thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..ITERS {
                    let mut span = riskroute_obs::span!("fanout_work", thread = t);
                    span.field("iter", i);
                    riskroute_obs::counter_add("fanout_ops", 1);
                    riskroute_obs::gauge_max("fanout_peak", i as f64);
                    riskroute_obs::histogram_observe("fanout_lat", 1e-6 * (i + 1) as f64);
                }
            });
        }
    });

    let snap = riskroute_obs::snapshot();
    let expected = THREADS as u64 * ITERS;
    assert_eq!(snap.counters["fanout_ops"], expected);
    assert_eq!(snap.gauges["fanout_peak"], (ITERS - 1) as f64);
    assert_eq!(snap.histograms["fanout_lat"].count(), expected);
    let stat = snap.span_stats["fanout_work"];
    assert_eq!(stat.count, expected);
    // Events either buffered or counted as dropped — none vanish.
    assert_eq!(snap.spans.len() as u64 + snap.dropped_events, expected);
    // Depth bookkeeping is per-thread: every recorded span is top-level.
    assert!(snap.spans.iter().all(|s| s.depth == 0));

    // Exports of a busy snapshot stay parseable.
    let lines =
        riskroute_obs::export::parse_jsonl(&riskroute_obs::export::to_jsonl(&snap)).unwrap();
    assert!(lines.len() as u64 > snap.spans.len() as u64);
    let prom = riskroute_obs::export::to_prometheus(&snap);
    assert!(prom.contains(&format!("riskroute_fanout_ops {expected}")));

    riskroute_obs::disable();
    riskroute_obs::reset();
}
