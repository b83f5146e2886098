//! Bench regression gate: compares a current `BENCH_*.json` against a
//! checked-in baseline and fails (exit 1) when any row regresses beyond
//! measurement noise *after* normalizing out the overall machine-speed
//! shift. Bad arguments, unreadable files and two files with no row in
//! common exit 2.
//!
//! ```text
//! bench_regress <baseline.json> <current.json> [--slack 0.10]
//! ```
//!
//! Shared CI runners differ in absolute speed from the machine that
//! recorded the baseline, so raw medians are not comparable. Every
//! common row's ratio `current/baseline` is computed and the median
//! ratio is taken as the machine shift. A row then fails only when its
//! measured spread interval `[low_ns, high_ns]`, normalized by the
//! shift, lies **entirely above** the baseline row's interval (widened
//! by `--slack` on each side) — the same interval-overlap significance
//! test `paper diff` applies to Monte-Carlo cells, here applied to
//! timing spreads. Overlapping intervals mean the movement is within
//! the runs' own jitter; a uniformly slower runner shifts every row and
//! is normalized away; only a kernel that got slower *relative to the
//! suite and beyond both runs' spread* fails.

use msc_obs::stats::Interval;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One benchmark row: its measured spread and median, nanoseconds.
#[derive(Clone, Copy, Debug)]
struct Row {
    interval: Interval,
    median: f64,
}

/// Parses the compat-criterion JSON sink: an array of flat objects with
/// `"name"`, `"low_ns"`, `"median_ns"`, `"high_ns"` fields, one object
/// per line. Rows missing the spread fields fall back to a degenerate
/// interval at the median (old baseline files stay comparable).
fn parse_rows(path: &str) -> Result<BTreeMap<String, Row>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut rows = BTreeMap::new();
    for line in body.lines() {
        let Some(name) = field_str(line, "name") else { continue };
        let Some(median) = field_num(line, "median_ns") else { continue };
        let low = field_num(line, "low_ns").unwrap_or(median);
        let high = field_num(line, "high_ns").unwrap_or(median);
        rows.insert(name, Row { interval: Interval::new(low, high), median });
    }
    if rows.is_empty() {
        return Err(format!("{path}: no benchmark rows found"));
    }
    Ok(rows)
}

/// Extracts `"key": "value"` from a JSON object line.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Extracts `"key": 123.4` from a JSON object line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut slack = 0.10f64;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            // `--threshold` kept as an alias so existing CI invocations
            // keep working.
            "--slack" | "--threshold" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("{a} needs a number");
                    return ExitCode::from(2);
                };
                slack = v;
            }
            s if s.starts_with("--") => {
                eprintln!("unknown flag: {s}");
                return ExitCode::from(2);
            }
            s => paths.push(s.to_string()),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        eprintln!("usage: bench_regress <baseline.json> <current.json> [--slack 0.10]");
        return ExitCode::from(2);
    };

    let (baseline, current) = match (parse_rows(baseline_path), parse_rows(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_regress: {e}");
            return ExitCode::from(2);
        }
    };

    // Rows present in only one suite (a bench added or removed since
    // the baseline was recorded) are skipped with a warning, not an
    // error: the gate fails only on measured regressions.
    let mut pairs: Vec<(String, Row, Row)> = Vec::new();
    for (name, base) in &baseline {
        match current.get(name) {
            Some(cur) if base.median > 0.0 => pairs.push((name.clone(), *base, *cur)),
            Some(_) => eprintln!("bench_regress: skip {name}: baseline median is 0"),
            None => eprintln!("bench_regress: skip {name}: only in baseline (removed bench?)"),
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            eprintln!(
                "bench_regress: skip {name}: only in current (new bench — refresh the baseline)"
            );
        }
    }
    // A gate that compared nothing has not passed: fail closed.
    if pairs.is_empty() {
        eprintln!(
            "bench_regress: no common rows between {baseline_path} and {current_path} — nothing compared"
        );
        return ExitCode::from(2);
    }

    let mut rs: Vec<f64> = pairs.iter().map(|(_, b, c)| c.median / b.median).collect();
    let shift = median(&mut rs);
    println!(
        "bench_regress: {} common rows, machine shift ×{shift:.2}, ±{:.0}% slack, \
         fail when normalized spreads are disjoint above",
        pairs.len(),
        slack * 100.0
    );

    let mut failures = 0u32;
    for (name, base, cur) in &pairs {
        // Normalize the current spread by the machine shift, then widen
        // the baseline spread by the slack factor on both sides — a
        // checked-in baseline is a single run and understates jitter.
        let normalized = cur.interval.scaled(1.0 / shift);
        let widened =
            Interval::new(base.interval.lo / (1.0 + slack), base.interval.hi * (1.0 + slack));
        let ratio = cur.median / base.median;
        let rel = ratio / shift;
        let regressed = !normalized.overlaps(&widened) && normalized.lo > widened.hi;
        let verdict = if regressed {
            failures += 1;
            "FAIL"
        } else if !normalized.overlaps(&widened) {
            // Disjoint *below*: a significant improvement — refresh the
            // baseline to tighten the gate, but never fail on it.
            "fast"
        } else {
            "ok"
        };
        println!(
            "  {verdict:4} {name}: ×{ratio:.2} raw, ×{rel:.2} vs suite, \
             [{:.0}, {:.0}] ns vs baseline [{:.0}, {:.0}] ns",
            normalized.lo, normalized.hi, widened.lo, widened.hi
        );
    }

    if failures > 0 {
        eprintln!("bench_regress: {failures} row(s) regressed beyond measured spread + slack");
        return ExitCode::FAILURE;
    }
    println!("bench_regress: no regressions");
    ExitCode::SUCCESS
}
