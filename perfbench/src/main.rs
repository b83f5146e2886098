//! `msc-perfbench --workload <suite|link|ident|fleet> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one workload and prints a table
//! of every metric, then the result line (one JSON object).
//!
//! Exits 2 without a result line on bad arguments, on any `MSC_*`
//! environment variable, or when an observability switch is on.

use msc_perfbench::host::Host;
use msc_perfbench::measure::{self, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => fail(&format!(
            "{e}\nusage: msc-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
            measure::WORKLOADS.join("|")
        )),
    };
    if let Err(e) = measure::refuse_ambient_env() {
        fail(&e);
    }
    let host = Host::probe();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host: nproc={} cpu=\"{}\" avx2={} git_rev={}",
        host.nproc, host.cpu, host.avx2, host.git_rev
    );
    let out = match measure::run(&args, &host) {
        Ok(o) => o,
        Err(e) => fail(&e),
    };
    println!("engine: {}", out.engine);
    for [name, value, unit, note] in &out.table {
        println!("  {name:32} {value:>16} {unit:6} {note}");
    }
    for note in &out.tally.notes {
        eprintln!("FAILED {note}");
    }
    if let Some(rec) = &out.recorder {
        let path = std::path::PathBuf::from(".perfbench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match rec.write_jsonl(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    );
}

/// A JSON number with every digit Rust prints; non-finite values (which
/// JSON cannot hold) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("msc-perfbench: {msg}");
    std::process::exit(2);
}
