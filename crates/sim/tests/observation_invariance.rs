//! Observing a run never changes it: the report a Monte-Carlo
//! experiment prints is byte-identical across thread counts, cache
//! switches, and every observability switch — metrics export with the
//! flight recorder armed, the span profiler, and the event stream.
//! fig13 (early-stopped CRN cells on the cell engine), fig12 (a
//! (protocol × mode) sweep of plain engine cells), fig15 (engine cells
//! beside hand-rolled baseline trials), and abl-gamma (an SNR × γ sweep)
//! cover the kinds of trial loop.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `paper <exp> 12 42 --no-progress <extra>` in `cwd` and returns
/// its stdout.
fn report(exp: &str, extra: &[&str], cwd: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args([exp, "12", "42", "--no-progress"])
        .args(extra)
        .current_dir(cwd)
        .output()
        .expect("run paper binary");
    assert!(
        out.status.success(),
        "paper {exp} {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("msc-obs-inv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

fn assert_invariant(exp: &str) {
    let dir = scratch_dir(exp);
    let metrics = dir.join("metrics");
    let events = dir.join("events.jsonl");
    let (metrics, events) = (metrics.to_str().unwrap(), events.to_str().unwrap());
    let baseline = report(exp, &["--threads", "1"], &dir);
    assert!(!baseline.trim().is_empty(), "{exp} produced no report");
    let variants: [&[&str]; 7] = [
        &["--threads", "2"],
        &["--threads", "8"],
        &["--metrics-out", metrics],
        // Without --metrics-out the profile lands in the working
        // directory, which is the scratch dir here.
        &["--profile"],
        &["--events", events],
        &["--no-wave-cache"],
        &["--no-trace-cache"],
    ];
    for extra in variants {
        assert_eq!(baseline, report(exp, extra, &dir), "{exp} report moved under {extra:?}");
    }
    if exp == "fig13" {
        // The recorder really was armed: far cells fail to decode.
        assert!(dir.join("metrics/flight").is_dir(), "fig13 wrote no flight bundles");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig13_report_is_observation_invariant() {
    assert_invariant("fig13");
}

#[test]
fn fig12_report_is_observation_invariant() {
    assert_invariant("fig12");
}

#[test]
fn fig15_report_is_observation_invariant() {
    assert_invariant("fig15");
}

#[test]
fn abl_gamma_report_is_observation_invariant() {
    assert_invariant("abl-gamma");
}
