//! Flight-recorder end-to-end contract: a decode failure captured
//! during a run yields a bundle whose replay reproduces the identical
//! matcher scores and verdict — at any thread count — and which
//! failures a run keeps under the dump cap does not depend on it.

use msc_obs::flight::{self, FlightConfig};

/// Runs fig13 with the recorder armed and returns its failure dumps.
/// fig13's far LoS cells (24–28 m) are below decode sensitivity at
/// small n, so decode failures are guaranteed, not contrived.
fn record_failures(n: usize, seed: u64) -> Vec<flight::Dump> {
    flight::arm(FlightConfig::default());
    msc_obs::metrics::set_experiment("fig13");
    let _ = msc_sim::experiments::fig13::run(n, seed);
    let dumps = flight::take_dumps();
    flight::disarm();
    dumps
}

#[test]
fn forced_decode_failure_replays_identically_at_1_and_8_threads() {
    let _guard = flight::tests_serial();
    msc_par::set_threads(2);
    let dumps = record_failures(2, 7);
    assert!(!dumps.is_empty(), "fig13(2, 7) must produce decode failures at far distances");
    let dump = &dumps[0];
    assert_eq!(dump.reason, "decode_fail");
    assert!(!dump.record.scores.is_empty(), "record carries matcher scores");
    assert!(!dump.record.stages.is_empty(), "record carries stage timings");

    // The JSON round trip the `paper` binary performs.
    let bundle = flight::parse_bundle(&flight::bundle_to_json(dump, 2)).expect("bundle parses");
    assert_eq!(bundle.experiment, "fig13");
    assert_eq!(bundle.verdict, "decode_fail");

    for threads in [1, 8] {
        msc_par::set_threads(threads);
        let result = msc_sim::replay::replay(&bundle)
            .unwrap_or_else(|e| panic!("replay at {threads} threads: {e}"));
        assert!(result.matches, "replay at {threads} threads diverged: {:?}", result.diffs);
        assert_eq!(result.record.verdict, dump.record.verdict);
        assert_eq!(result.record.scores, dump.record.scores);
        assert_eq!(result.record.derived_seed, dump.record.derived_seed);
    }
    msc_par::set_threads(0);
}

#[test]
fn capped_dumps_are_the_same_trials_at_any_thread_count() {
    let _guard = flight::tests_serial();
    // abl-cfo at n = 48 fails more trials than the 32-dump cap keeps
    // (ZigBee aliases 48.8 kHz), and its 24 cells fan out together.
    let kept = |threads: usize| {
        msc_par::set_threads(threads);
        flight::arm(FlightConfig::default());
        msc_obs::metrics::set_experiment("abl-cfo");
        let _ = msc_sim::experiments::ablations::abl_cfo(48, 42);
        let suppressed = flight::stats().suppressed;
        let ids: Vec<(String, u64)> =
            flight::take_dumps().into_iter().map(|d| (d.record.cell, d.record.index)).collect();
        flight::disarm();
        (ids, suppressed)
    };
    let one = kept(1);
    assert_eq!(one.0.len(), FlightConfig::default().max_dumps);
    assert!(one.1 > 0, "the run must overflow the dump cap");
    for threads in [2, 8] {
        assert_eq!(kept(threads), one, "retained dumps moved at {threads} threads");
    }
    msc_par::set_threads(0);
}

#[test]
fn tampered_bundle_is_reported_as_mismatch() {
    let _guard = flight::tests_serial();
    msc_par::set_threads(2);
    let dumps = record_failures(2, 7);
    let bundle_json = flight::bundle_to_json(&dumps[0], 2);
    let mut bundle = flight::parse_bundle(&bundle_json).expect("parse");
    // Corrupt one recorded score: replay must notice, not rubber-stamp.
    bundle.scores[0].1 += 1.0;
    let result = msc_sim::replay::replay(&bundle).expect("replay runs");
    assert!(!result.matches, "tampered score must be flagged");
    assert!(!result.diffs.is_empty());
    msc_par::set_threads(0);
}

#[test]
fn id_miss_trials_are_recorded_for_identification_experiments() {
    let _guard = flight::tests_serial();
    msc_par::set_threads(2);
    flight::arm(FlightConfig::default());
    msc_obs::metrics::set_experiment("fig8");
    // fig8's 2.5 Msps short-window row misidentifies often (the paper's
    // 0.485-accuracy regime), so id_miss dumps are expected.
    let _ = msc_sim::experiments::fig08::run(16, 42);
    let stats = flight::stats();
    let dumps = flight::take_dumps();
    flight::disarm();
    msc_par::set_threads(0);
    assert!(stats.trials > 0, "identification trials must be recorded");
    let miss = dumps.iter().find(|d| d.reason == "id_miss");
    let miss = miss.unwrap_or_else(|| panic!("expected an id_miss dump, got {dumps:?}"));
    assert!(miss.record.cell.starts_with("id/"), "{}", miss.record.cell);
    // Per-protocol matcher scores travel with the record.
    assert_eq!(miss.record.scores.len(), 4, "{:?}", miss.record.scores);
}

/// Runs `paper <args> --no-progress --metrics-out <dir>` and replays
/// the first and last bundle it wrote at 1 and 8 threads.
fn paper_bundles_replay(args: &[&str], tag: &str) {
    use std::process::Command;
    let dir = std::env::temp_dir().join(format!("msc-flight-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .args(["--no-progress", "--metrics-out"])
        .arg(&dir)
        .output()
        .expect("run paper");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut bundles: Vec<_> = std::fs::read_dir(dir.join("flight"))
        .expect("flight dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    bundles.sort();
    assert!(!bundles.is_empty(), "no bundles written");

    for bundle in [&bundles[0], &bundles[bundles.len() - 1]] {
        for threads in ["1", "8"] {
            let replay = Command::new(env!("CARGO_BIN_EXE_paper"))
                .args(["replay"])
                .arg(bundle)
                .args(["--threads", threads])
                .output()
                .expect("run replay");
            let stdout = String::from_utf8_lossy(&replay.stdout);
            assert!(
                replay.status.success() && stdout.contains("REPRODUCED"),
                "replay of {} at {threads} threads: status {:?}\nstdout: {stdout}\nstderr: {}",
                bundle.display(),
                replay.status,
                String::from_utf8_lossy(&replay.stderr)
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paper_binary_writes_bundles_and_replays_them() {
    paper_bundles_replay(&["fig13", "2", "7"], "fig13-2");
}

#[test]
fn bundles_from_a_two_thread_sweep_replay() {
    // At n = 24 the 32 fig13 cells fan out together round by round;
    // a failure recorded from that sweep still replays alone.
    paper_bundles_replay(&["fig13", "24", "42", "--threads", "2"], "fig13-24");
}
