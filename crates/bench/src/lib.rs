//! Experiment harness support for the RiskRoute reproduction.
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper's evaluation (see `DESIGN.md` for the index); this library holds
//! the shared experiment context (corpus, population, hazards — all
//! deterministic under [`MASTER_SEED`]), plain-text table rendering, and
//! result-file plumbing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod experiments;
pub mod table;

pub use context::{ExperimentContext, MASTER_SEED};
pub use table::TextTable;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Directory experiment outputs are written to (repo-relative).
pub const RESULTS_DIR: &str = "results";

/// Write `content` to `results/<name>.txt` and echo it to stdout.
///
/// # Panics
/// Panics on I/O errors — the harness has nothing sensible to do without
/// its output directory.
pub fn emit(name: &str, content: &str) {
    let dir = PathBuf::from(RESULTS_DIR);
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(format!("{name}.txt"));
    let mut f = fs::File::create(&path).expect("create result file");
    f.write_all(content.as_bytes()).expect("write result file");
    println!("── {name} ──────────────────────────────────────────");
    println!("{content}");
    println!("(written to {})", path.display());
}

/// Write `content` to `results/<filename>` verbatim (no `.txt` suffix, no
/// stdout echo) — for machine-readable artifacts such as
/// `BENCH_sssp.json`.
///
/// # Panics
/// Panics on I/O errors, like [`emit`].
pub fn emit_named(filename: &str, content: &str) {
    let dir = PathBuf::from(RESULTS_DIR);
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(filename);
    let mut f = fs::File::create(&path).expect("create result file");
    f.write_all(content.as_bytes()).expect("write result file");
    println!("(written to {})", path.display());
}

/// Wall-clock milliseconds taken by `work`, with its output.
pub fn timed<T>(work: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = work();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Best wall time in milliseconds of each of `arms` arms, run interleaved.
///
/// Every trial runs each arm once, starting one arm later than the trial
/// before, so no arm always runs first (cold) or right after a given other
/// arm. `run(arm)` runs arm `arm` once and returns its wall time (usually
/// from [`timed`], so any untimed set-up stays out of it).
pub fn best_of_interleaved(
    arms: usize,
    trials: usize,
    mut run: impl FnMut(usize) -> f64,
) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; arms];
    for trial in 0..trials {
        for k in 0..arms {
            let arm = (k + trial) % arms;
            best[arm] = best[arm].min(run(arm));
        }
    }
    best
}

/// Section titles that can follow the per-experiment table in
/// `results/timings.txt` (each introduces a free-form block appended by a
/// scaling experiment).
const TIMINGS_SECTIONS: &[&str] = &[
    "thread scaling",
    "sssp scaling",
    "fork scaling",
    "tracing overhead",
    "delta scaling",
    "scale curve",
];

/// One parsed `timings.txt`: the per-experiment table plus named sections.
struct TimingsDoc {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    sections: Vec<(String, String)>,
}

fn parse_timings(content: &str) -> TimingsDoc {
    let lines: Vec<&str> = content.lines().collect();
    // Sections are delimited by their known title lines; everything before
    // the first title is the main table.
    let mut cut_points: Vec<(usize, &str)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if TIMINGS_SECTIONS.contains(&line.trim()) {
            cut_points.push((i, line.trim()));
        }
    }
    let main_end = cut_points.first().map_or(lines.len(), |&(i, _)| i);
    let mut header = Vec::new();
    let mut rows = Vec::new();
    for (i, line) in lines[..main_end].iter().enumerate() {
        if line.trim().is_empty() || line.trim_start().starts_with('-') {
            continue;
        }
        let cells: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        if i == 0 || header.is_empty() {
            header = cells;
        } else {
            rows.push(cells);
        }
    }
    let mut sections = Vec::new();
    for (si, &(start, title)) in cut_points.iter().enumerate() {
        let end = cut_points.get(si + 1).map_or(lines.len(), |&(i, _)| i);
        let body: String = lines[start + 1..end].join("\n").trim_end().to_string();
        sections.push((title.to_string(), body));
    }
    TimingsDoc {
        header,
        rows,
        sections,
    }
}

/// Merge a freshly rendered timings document into the previous contents of
/// `results/timings.txt`.
///
/// Partial harness invocations (`experiments fig7`) used to clobber the
/// file, losing every other experiment's row. Instead, rows are merged
/// **per experiment name** (the first column): previous rows keep their
/// order, a rerun experiment's row is replaced in place, and new
/// experiments append. Trailing sections (`thread scaling`, `scale curve`,
/// …) merge the same way by title. The new run's header wins; stale rows
/// whose column count no longer matches are dropped.
pub fn merge_timings(old: &str, new: &str) -> String {
    let old_doc = parse_timings(old);
    let new_doc = parse_timings(new);
    let header = if new_doc.header.is_empty() {
        old_doc.header
    } else {
        new_doc.header
    };
    if header.is_empty() {
        return new.to_string();
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    for row in &old_doc.rows {
        match new_doc.rows.iter().find(|r| r[0] == row[0]) {
            Some(newer) => rows.push(newer.clone()),
            None => rows.push(row.clone()),
        }
    }
    for row in &new_doc.rows {
        if !rows.iter().any(|r| r[0] == row[0]) {
            rows.push(row.clone());
        }
    }
    rows.retain(|r| r.len() == header.len());

    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);
    for row in &rows {
        table.row(row);
    }
    let mut out = table.render();

    let mut sections: Vec<(String, String)> = Vec::new();
    for (title, body) in &old_doc.sections {
        let body = new_doc
            .sections
            .iter()
            .find(|(t, _)| t == title)
            .map_or(body, |(_, b)| b);
        sections.push((title.clone(), body.clone()));
    }
    for (title, body) in &new_doc.sections {
        if !sections.iter().any(|(t, _)| t == title) {
            sections.push((title.clone(), body.clone()));
        }
    }
    for (title, body) in &sections {
        out.push('\n');
        out.push_str(title);
        out.push('\n');
        out.push_str(body);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn render(rows: &[(&str, &str)], sections: &[(&str, &str)]) -> String {
        let mut t = TextTable::new(&["experiment", "wall_ms"]);
        for (name, wall) in rows {
            t.row(&[(*name).to_string(), (*wall).to_string()]);
        }
        let mut out = t.render();
        for (title, body) in sections {
            out.push('\n');
            out.push_str(title);
            out.push('\n');
            out.push_str(body);
            out.push('\n');
        }
        out
    }

    #[test]
    fn rerun_replaces_row_in_place_and_appends_new() {
        let old = render(&[("fig7", "10.0"), ("fig8", "20.0")], &[]);
        let new = render(&[("fig8", "99.0"), ("table1", "5.0")], &[]);
        let merged = merge_timings(&old, &new);
        let lines: Vec<&str> = merged.lines().collect();
        // Header + rule + fig7 (kept), fig8 (replaced in place), table1.
        assert!(lines[2].starts_with("fig7"));
        assert!(lines[3].starts_with("fig8") && lines[3].ends_with("99.0"));
        assert!(lines[4].starts_with("table1"));
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn sections_merge_by_title() {
        let old = render(
            &[("fig7", "1.0")],
            &[("thread scaling", "old curve"), ("sssp scaling", "keep me")],
        );
        let new = render(&[("fig7", "2.0")], &[("thread scaling", "new curve")]);
        let merged = merge_timings(&old, &new);
        assert!(merged.contains("new curve"));
        assert!(!merged.contains("old curve"));
        assert!(merged.contains("keep me"));
        assert_eq!(merged.matches("thread scaling").count(), 1);
    }

    #[test]
    fn empty_old_passes_new_through_with_sections() {
        let new = render(&[("fig7", "1.0")], &[("scale curve", "body\n\nwith blank")]);
        let merged = merge_timings("", &new);
        assert!(merged.contains("fig7"));
        assert!(merged.contains("with blank"));
    }

    #[test]
    fn section_bodies_with_blank_lines_survive_round_trips() {
        let a = render(
            &[("fig7", "1.0")],
            &[("delta scaling", "intro text\n\nseg  wall\n----\nrow  1")],
        );
        let merged_once = merge_timings("", &a);
        let merged_twice = merge_timings(&merged_once, &a);
        assert_eq!(merged_once, merged_twice, "merge must be idempotent");
    }
}
