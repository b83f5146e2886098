//! The bench gate fails closed: two files with no row in common exit 2
//! instead of passing, while a matching pair still compares and passes.

use std::path::PathBuf;
use std::process::Command;

fn write(name: &str, rows: &[(&str, f64)]) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let lines: Vec<String> = rows
        .iter()
        .map(|(row, ns)| {
            format!(
                "  {{\"name\": \"{row}\", \"low_ns\": {}, \"median_ns\": {ns}, \"high_ns\": {}}}",
                ns * 0.9,
                ns * 1.1
            )
        })
        .collect();
    std::fs::write(&path, format!("[\n{}\n]\n", lines.join(",\n"))).unwrap();
    path
}

fn gate(baseline: &PathBuf, current: &PathBuf) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_bench_regress"))
        .arg(baseline)
        .arg(current)
        .output()
        .expect("run bench_regress")
        .status
        .code()
}

#[test]
fn disjoint_rows_exit_2_and_matching_rows_pass() {
    let base = write("regress_base.json", &[("kernel/a", 1000.0), ("kernel/b", 2000.0)]);
    let disjoint = write("regress_disjoint.json", &[("kernel/c", 1000.0), ("kernel/d", 2000.0)]);
    let same = write("regress_same.json", &[("kernel/a", 1010.0), ("kernel/b", 1990.0)]);
    assert_eq!(gate(&base, &disjoint), Some(2), "a gate that compared nothing must fail");
    assert_eq!(gate(&base, &same), Some(0), "matching rows within noise must pass");
}
