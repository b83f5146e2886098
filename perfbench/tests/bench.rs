//! The benchmark's own checks: inputs are a pure function of the seed,
//! planted failures raise `fail_rate` without aborting the run, the
//! correctness checks reject bad outputs, and `BENCHMARK.json` names
//! exactly the metrics the program reports.

use msc_perfbench::harness::{median, tail, Done, Op, Runner};
use msc_perfbench::measure::{per_layer_names, Args, END_TO_END, WORKLOADS};
use msc_perfbench::spans::Recorder;
use msc_perfbench::{fleet, ident, link, suite};
use std::cell::Cell;

#[test]
fn fixed_seed_regenerates_identical_inputs() {
    assert_eq!(link::cells(7), link::cells(7));
    assert_ne!(link::cells(7), link::cells(8));
    assert_eq!(ident::configs(7), ident::configs(7));
    assert_ne!(ident::configs(7), ident::configs(8));
    let rows = |seed| format!("{:?}", fleet::rows(seed));
    assert_eq!(rows(7), rows(7));
    assert_ne!(rows(7), rows(8));

    // The generated traces, not just their specs, repeat.
    let spec = &ident::configs(7)[2];
    let fe = msc_sim::idtraces::front_end(spec.rate);
    let gen = || msc_sim::idtraces::generate_traces_hard(&fe, 1, spec.train_seed);
    let (a, b) = (gen(), gen());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((x.truth, x.jitter), (y.truth, y.jitter));
        assert_eq!(x.acquired, y.acquired);
    }
}

fn op<'a>(name: &str, f: impl Fn() -> Result<Done, String> + 'a) -> Op<'a> {
    Op::new(name, move |_rec: &Recorder| f())
}

fn fixed(digest: u64) -> Result<Done, String> {
    Ok(Done { digest, work: 1 })
}

#[test]
fn planted_digest_mismatch_raises_fail_rate() {
    let calls = Cell::new(0u64);
    let mut runner = Runner::new(
        vec![
            op("steady", || fixed(1)),
            op("drifting", || {
                calls.set(calls.get() + 1);
                fixed(if calls.get() == 1 { 10 } else { 11 })
            }),
        ],
        || {},
    );
    let off = Recorder::off();
    let passes: Vec<_> = (0..3).map(|_| runner.pass("test", &off)).collect();
    assert_eq!(runner.tally.attempted, 6);
    assert_eq!(runner.tally.failed, 2, "passes 2 and 3 differ from the reference");
    assert!((runner.tally.fail_rate() - 1.0 / 3.0).abs() < 1e-12);
    assert_eq!(passes.iter().map(|p| p.work).collect::<Vec<_>>(), [2, 1, 1]);
    assert!(runner.tally.notes[0].contains("test/drifting"));
}

#[test]
fn planted_panicking_op_raises_fail_rate() {
    let calls = Cell::new(0u64);
    let mut runner = Runner::new(
        vec![
            op("boom", || {
                calls.set(calls.get() + 1);
                if calls.get() == 2 {
                    panic!("planted");
                }
                fixed(5)
            }),
            op("after", || fixed(6)),
            op("rejected", || Err("planted check failure".into())),
        ],
        || {},
    );
    let rec = Recorder::on();
    for _ in 0..3 {
        runner.pass("test", &rec);
    }
    assert_eq!(runner.tally.attempted, 9);
    assert_eq!(runner.tally.failed, 4, "one panic and three check failures");
    assert!(runner.tally.notes.iter().any(|n| n.contains("panicked: planted")));
    // The op after the panic still ran on every pass, and the spans the
    // panic unwound through were closed.
    assert_eq!(rec.span_totals("test", "op.after").len(), 3);
    assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
}

#[test]
fn self_time_subtracts_children() {
    let rec = Recorder::on();
    rec.begin_pass("b");
    rec.span("parent", || {
        rec.span("child", || std::thread::sleep(std::time::Duration::from_millis(5)));
        std::thread::sleep(std::time::Duration::from_millis(5));
    });
    rec.end_pass();
    let spans = rec.spans();
    let own = rec.self_times();
    assert_eq!(spans[1].parent, Some(0));
    assert!((own[0] - (spans[0].secs() - spans[1].secs())).abs() < 1e-12);
    assert_eq!(own[1], spans[1].secs());
}

#[test]
fn tail_is_the_highest_percentile_with_ten_above() {
    let xs: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(tail(&xs), Some((50.0, 10.0)));
    assert_eq!(tail(&xs[..10]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn fleet_tally_check_rejects_broken_partition() {
    let mut r = msc_fleet::engine::FleetResult {
        carrier_packets: 10,
        attempts: 4,
        per_carrier: vec![Default::default(); 2],
        ..Default::default()
    };
    r.per_carrier[0].packets = 6;
    r.per_carrier[1].packets = 4;
    r.per_carrier[0].attempts = 4;
    assert_eq!(fleet::check_tallies(&r), Ok(()));
    r.per_carrier[1].attempts = 1;
    assert!(fleet::check_tallies(&r).unwrap_err().contains("attempts"));
}

#[test]
fn invariant_checks_accept_the_tables_and_reject_changes() {
    for id in ["tab1", "tab2", "tab3"] {
        let exp = msc_sim::experiments::find(id).expect("registry id");
        let text = (exp.run)(suite::N, 42).render();
        assert_eq!(suite::check_invariant(id, &text), Ok(()), "{id}");
        let bent = text.replace("133364", "133365").replace("279.5", "279.6").replace(
            "FreeRider     —                     ✓                   —",
            "FreeRider     ✓                     ✓                   ✓",
        );
        assert!(suite::check_invariant(id, &bent).is_err(), "{id} must reject a changed table");
    }
}

#[test]
fn arguments_fail_closed() {
    let parse = |s: &str| Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let a = parse("--workload fleet --seed 7 --seconds 3 --trace 1").expect("valid");
    assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("fleet", 7, 3.0, true));
    for bad in [
        "",
        "--workload nope",
        "--workload link --seed x",
        "--workload link --seed",
        "--workload link --trace 2",
        "--workload link --seconds 0",
        "--workload link --seconds nan",
        "--workload link --threads 4",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} must be rejected");
    }
}

#[test]
fn benchmark_json_names_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> =
        text.split("\"name\": \"").skip(1).filter_map(|s| s.split('"').next()).collect();
    let mut want: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    want.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
    want.extend(per_layer_names().into_iter().map(|(n, _)| n));
    assert_eq!(names, want);
    for (name, unit) in END_TO_END
        .iter()
        .copied()
        .chain(per_layer_names().iter().map(|(n, u)| (n.as_str(), *u)).collect::<Vec<_>>())
    {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
