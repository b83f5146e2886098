//! Inputs fail closed: an unparseable positional argument, a bad
//! `MSC_*` knob, or a diff that compared nothing is an error (exit 2),
//! never a silent default or a pass.

use std::process::{Command, Output};

fn paper(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_paper"));
    cmd.args(args).arg("--no-progress");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("run paper binary")
}

/// Asserts exit code 2, no report on stdout, and `needle` on stderr.
fn assert_rejected(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "a rejected run printed a report");
    assert!(stderr.contains(needle), "stderr must name {needle:?}: {stderr}");
}

#[test]
fn unparseable_positional_arguments_are_usage_errors() {
    assert_rejected(&paper(&["fig13", "24", "4x2"], &[]), "seed");
    assert_rejected(&paper(&["fig13", "abc"], &[]), "n must be");
    assert_rejected(&paper(&["fig13", "-3"], &[]), "n must be");
}

#[test]
fn bad_knob_values_abort_naming_the_variable() {
    for v in ["nan", "inf", "-5", "3s"] {
        let out = paper(&["fleet", "8"], &[("MSC_FLEET_HORIZON_S", v)]);
        assert_rejected(&out, "MSC_FLEET_HORIZON_S");
    }
    assert_rejected(
        &paper(&["fig13", "2"], &[("MSC_PERTURB_MARGIN_DB", "6dB")]),
        "MSC_PERTURB_MARGIN_DB",
    );
    assert_rejected(
        &paper(&["tab2"], &[("MSC_FLEET_COLLISION_RATE", "2")]),
        "MSC_FLEET_COLLISION_RATE",
    );
}

#[test]
fn diff_that_compares_nothing_exits_2() {
    let root = std::env::temp_dir().join(format!("msc-fail-closed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let run = |exp: &str, dir: &str| {
        let dir = root.join(dir);
        let out = paper(&[exp, "--metrics-out", dir.to_str().unwrap()], &[]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        dir
    };
    let a = run("tab2", "a");
    let b = run("tab3", "b");
    let a2 = run("tab2", "a2");

    let diff = |x: &std::path::Path, y: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_paper")).arg("diff").arg(x).arg(y).output().unwrap()
    };
    // Disjoint experiments: nothing joins, so nothing was checked.
    let out = diff(&a, &b);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "disjoint diff must fail closed:\n{stdout}");
    assert!(stdout.contains("over 0 report(s)"), "{stdout}");
    // The same experiment twice still compares and passes.
    let out = diff(&a, &a2);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("over 1 report(s)"), "{stdout}");
    let _ = std::fs::remove_dir_all(&root);
}
