//! Runs one workload: set-up, measured passes, correctness checks, and
//! the metrics of the result line.

use crate::fleet::Fleet;
use crate::harness::{median, tail, warm_up, Counters, Pass, Runner, Tally};
use crate::host::{self, Host};
use crate::ident::Ident;
use crate::link::Link;
use crate::spans::Recorder;
use crate::suite::Suite;
use crate::workload::{configure, protocol_slug, Body};
use msc_phy::protocol::Protocol;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["suite", "link", "ident", "fleet"];

/// Share of the pass time the timed run spends on extra set-ups between
/// passes; `setup_s` is the median of all set-ups.
const SETUP_SHARE: f64 = 0.1;

/// Share of `--seconds` the traced run spends on untraced passes of the
/// workload itself, and again on traced ones.
const TRACE_SHARE: f64 = 0.4;

/// Share of `--seconds` the traced run spends on detailed passes of a
/// workload that has them.
const DETAIL_SHARE: f64 = 0.15;

/// End-to-end metrics of the result line with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MiB")];

/// Command-line arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input generator derives from.
    pub seed: u64,
    /// Seconds of passes to measure.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`.
    /// Anything unknown or unparseable is an error, never a default.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args { workload: String::new(), seed: 42, seconds: 20.0, trace: false };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value:?}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => out.workload = value.clone(),
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|_| bad())?;
                    if !(out.seconds.is_finite() && out.seconds > 0.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(bad()),
            }
        }
        if out.workload.is_empty() {
            return Err(format!("--workload is required (one of {})", WORKLOADS.join(", ")));
        }
        Ok(out)
    }
}

/// Refuses ambient configuration: any `MSC_*` environment variable
/// (`MSC_FLEET_HORIZON_S`, `MSC_PERTURB_MARGIN_DB`, the detector knobs)
/// would change the workload silently.
pub fn refuse_ambient_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MSC_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// Every observability switch that could change what runs must be off:
/// the metrics registry, the profiler, the event sink, the flight
/// recorder (which forces the legacy engine), the trace subscriber and
/// the fleet MAC trace.
pub fn observability_off() -> Result<(), String> {
    let on: Vec<&str> = [
        ("metrics", msc_obs::metrics::enabled()),
        ("profiler", msc_obs::profile::enabled()),
        ("events", msc_obs::events::enabled()),
        ("flight recorder", msc_obs::flight::armed()),
        ("trace subscriber", msc_obs::trace::enabled()),
        ("fleet MAC trace", msc_sim::experiments::fleet::trace_on()),
        ("fleet phy check", msc_sim::experiments::fleet::phy_check()),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    if on.is_empty() {
        Ok(())
    } else {
        Err(format!("observability switched on: {}", on.join(", ")))
    }
}

/// One metric of the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run produced.
pub struct Outcome {
    /// Ops attempted and failed.
    pub tally: Tally,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable rows: name, value, unit, note.
    pub table: Vec<[String; 4]>,
    /// The traced run's spans.
    pub recorder: Option<Recorder>,
    /// Engine settings the workload pinned.
    pub engine: String,
}

/// Runs the workload `args` names.
pub fn run(args: &Args, host: &Host) -> Result<Outcome, String> {
    observability_off()?;
    match (args.workload.as_str(), args.trace) {
        ("suite", false) => timed::<Suite>(args, host),
        ("link", false) => timed::<Link>(args, host),
        ("ident", false) => timed::<Ident>(args, host),
        ("fleet", false) => timed::<Fleet>(args, host),
        ("suite", true) => Ok(traced::<Suite>(args, host)),
        ("link", true) => Ok(traced::<Link>(args, host)),
        ("ident", true) => Ok(traced::<Ident>(args, host)),
        ("fleet", true) => Ok(traced::<Fleet>(args, host)),
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

fn engine() -> String {
    format!(
        "threads={} batch={} early_stop={}",
        msc_par::threads(),
        msc_sim::engine::batch(),
        msc_sim::engine::early_stop()
    )
}

/// A table value: counts as integers, times and ratios with six
/// significant digits.
fn show(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.5e}")
    }
}

fn row(name: &str, value: String, unit: &str, note: String) -> [String; 4] {
    [name.to_string(), value, unit.to_string(), note]
}

/// Untimed checks after the measured passes: a 1-thread pass must
/// reproduce the `nproc` digests, a detailed pass (unless the traced
/// run has already made them) must reproduce the digests of the path
/// users call, and every observability switch must still be off.
fn verify<B: Body>(runner: &mut Runner, host: &Host, detail_done: bool) {
    let threads = B::threads(host.nproc);
    if threads > 1 {
        msc_par::set_threads(1);
        runner.pass("check.1-thread", &Recorder::off());
        msc_par::set_threads(threads);
    }
    if B::DETAIL && !detail_done {
        let check = Recorder::off();
        check.set_detail(true);
        runner.pass("check.detail", &check);
    }
    runner.tally.attempted += 1;
    if let Err(why) = observability_off() {
        runner.tally.fail("observability", why);
    }
}

/// One set-up of `B` with tracing off, and its time.
fn time_setup<B: Body>(seed: u64) -> (B, f64) {
    let t0 = Instant::now();
    let body = B::setup(seed, &Recorder::off());
    (body, t0.elapsed().as_secs_f64())
}

/// The timed run: end-to-end metrics with tracing off.
fn timed<B: Body>(args: &Args, host: &Host) -> Result<Outcome, String> {
    configure::<B>(host.nproc);
    let engine = engine();
    let off = Recorder::off();
    let (body, cold) = time_setup::<B>(args.seed);
    let t0 = Instant::now();
    if B::WARM_UP {
        warm_up(&body.ops());
    }
    let warm = t0.elapsed().as_secs_f64();
    let rss_reset = host::reset_peak_rss();
    let mut runner = Runner::new(body.ops(), B::prologue);
    // Set-up is timed again between passes, on at most SETUP_SHARE of
    // the pass time, so that `setup_s` samples the host over the whole
    // run as `wall_s` does; a few set-ups in a row would catch one
    // moment of a noisy host. A set-up leaves the caches the passes use
    // as warm as it found them (link refills the same excitations).
    let mut setups = vec![cold];
    let (mut spent, mut setup_spent) = (0.0, 0.0);
    let mut passes = Vec::new();
    while passes.is_empty() || spent < args.seconds {
        while setup_spent < SETUP_SHARE * spent {
            let (_, t) = time_setup::<B>(args.seed);
            setups.push(t);
            setup_spent += t;
        }
        let p = runner.pass(B::NAME, &off);
        spent += p.wall_s;
        passes.push(p);
    }
    let peak = host::peak_rss_mib().ok_or("VmHWM missing from /proc/self/status")?;
    verify::<B>(&mut runner, host, false);

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall = median(&walls);
    let work: u64 = passes.iter().map(|p| p.work).sum();
    let work_per_s = work as f64 / walls.iter().sum::<f64>();
    let metrics = vec![
        Metric { name: "setup_s".into(), value: median(&setups), unit: "s" },
        Metric { name: "wall_s".into(), value: wall, unit: "s" },
        Metric { name: "work_per_s".into(), value: work_per_s, unit: "1/s" },
        Metric { name: "peak_rss_mb".into(), value: peak, unit: "MiB" },
    ];
    let tally = runner.tally;

    let mut table = vec![
        row(
            "setup_s",
            format!("{:.6}", median(&setups)),
            "s",
            format!("median of {} set-ups (the first, cold: {cold:.6} s)", setups.len()),
        ),
        row(
            "warm_up_s",
            format!("{warm:.6}"),
            "s",
            if B::WARM_UP { "one untimed pass after set-up" } else { "none" }.into(),
        ),
        row(
            "wall_s",
            format!("{wall:.6}"),
            "s",
            format!(
                "median of {} passes (min {:.6}, max {:.6})",
                walls.len(),
                walls.iter().copied().fold(f64::INFINITY, f64::min),
                walls.iter().copied().fold(0.0, f64::max)
            ),
        ),
        match tail(&walls) {
            Some((pct, v)) => row(
                "wall_tail_s",
                format!("{v:.6}"),
                "s",
                format!("p{pct:.1} of {} passes (10 above it)", walls.len()),
            ),
            None => row(
                "wall_tail_s",
                "n/a".into(),
                "s",
                format!("{} passes; a tail needs at least 11", walls.len()),
            ),
        },
        row(B::WORK, format!("{work_per_s:.3}"), "1/s", format!("{work} units over all passes")),
        row(
            "peak_rss_mb",
            format!("{peak:.1}"),
            "MiB",
            if rss_reset { "VmHWM over the passes and set-ups" } else { "VmHWM incl. set-up" }
                .into(),
        ),
        row(
            "fail_rate",
            format!("{}", tally.fail_rate()),
            "ratio",
            format!("{} of {} ops", tally.failed, tally.attempted),
        ),
    ];
    for (name, value, unit) in body.exact() {
        table.push(row(name, show(value), unit, "exact for the seed".into()));
    }
    Ok(Outcome { tally, metrics, table, recorder: None, engine })
}

/// Every per-layer metric, `(name, unit)`, in result-line order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        msc_sim::experiments::REGISTRY.iter().map(|e| (format!("exp.{}_s", e.id), "s")).collect();
    let fixed = |v: &mut Vec<(String, &'static str)>, names: &[(&str, &'static str)]| {
        v.extend(names.iter().map(|&(n, u)| (n.to_string(), u)));
    };
    fixed(
        &mut v,
        &[
            ("sim.prepare_s", "s"),
            ("sim.wavecache_misses", "count"),
            ("sim.tracecache_misses", "count"),
        ],
    );
    for p in Protocol::ALL {
        let s = protocol_slug(p);
        v.push((format!("core.modulate_s.{s}"), "s"));
        v.push((format!("channel.apply_s.{s}"), "s"));
        v.push((format!("rx.decode_s.{s}"), "s"));
        v.push((format!("rx.decode_fail.{s}"), "ratio"));
    }
    fixed(
        &mut v,
        &[
            ("id.template_build_s", "s"),
            ("id.trace_gen_s", "s"),
            ("id.score_s", "s"),
            ("id.search_s", "s"),
            ("id.eval_s", "s"),
            ("fleet.calibrate_s", "s"),
            ("fleet.sweep_s", "s"),
            ("fleet.attempts", "count"),
            ("fleet.collisions", "count"),
            ("fleet.backoffs", "count"),
            ("fleet.retry_drops", "count"),
            ("fleet.delivered_per_attempt", "ratio"),
            ("par.calls", "count"),
            ("par.items", "count"),
            ("par.busy_s", "s"),
            ("par.idle_s", "s"),
            ("par.utilization", "ratio"),
            ("dsp.plan_misses", "count"),
            ("dsp.scratch_allocs", "count"),
            ("dsp.probe_misses", "count"),
            ("trace.overhead_frac", "ratio"),
        ],
    );
    v
}

/// Set-up, one traced pass and (if it has one) one detailed pass of a
/// workload other than the one under test, for the layers only it
/// exercises. Returns the traced pass.
fn probe<P: Body>(args: &Args, host: &Host, rec: &Recorder, tally: &mut Tally) -> Pass {
    configure::<P>(host.nproc);
    rec.begin_pass(&format!("setup.{}", P::NAME));
    let body = P::setup(args.seed, rec);
    rec.end_pass();
    if P::WARM_UP {
        warm_up(&body.ops());
    }
    let mut runner = Runner::new(body.ops(), P::prologue);
    let pass = runner.pass(P::NAME, rec);
    if P::DETAIL {
        rec.set_detail(true);
        runner.pass(&format!("{}.detail", P::NAME), rec);
        rec.set_detail(false);
    }
    tally.attempted += runner.tally.attempted;
    tally.failed += runner.tally.failed;
    tally.notes.append(&mut runner.tally.notes);
    pass
}

/// The traced run: per-layer metrics. The workload runs untraced and
/// traced passes of the same path in turn (their wall ratio is the
/// tracing overhead), then detailed passes if it has them; the layers it
/// does not exercise are measured on one traced (and one detailed) pass
/// of the workload that owns them.
fn traced<B: Body>(args: &Args, host: &Host) -> Outcome {
    configure::<B>(host.nproc);
    let engine = engine();
    let rec = Recorder::on();
    let off = Recorder::off();
    rec.begin_pass(&format!("setup.{}", B::NAME));
    let body = B::setup(args.seed, &rec);
    rec.end_pass();
    if B::WARM_UP {
        warm_up(&body.ops());
    }
    let mut runner = Runner::new(body.ops(), B::prologue);
    // Untraced and traced passes alternate, so drift in host speed
    // cancels out of the tracing overhead.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut spent = 0.0;
    while untraced.is_empty() || spent < 2.0 * TRACE_SHARE * args.seconds {
        let u = runner.pass(B::NAME, &off);
        let t = runner.pass(B::NAME, &rec);
        spent += u.wall_s + t.wall_s;
        untraced.push(u);
        traced.push(t);
    }
    if B::DETAIL {
        rec.set_detail(true);
        runner.measure(&format!("{}.detail", B::NAME), DETAIL_SHARE * args.seconds, &rec);
        rec.set_detail(false);
    }
    verify::<B>(&mut runner, host, B::DETAIL);
    let mut tally = runner.tally;
    // The suite's cache-miss counts come from its passes' counters.
    let mut suite = if B::NAME == Suite::NAME { traced.clone() } else { Vec::new() };
    for name in WORKLOADS.into_iter().filter(|&n| n != B::NAME) {
        match name {
            "suite" => suite.push(probe::<Suite>(args, host, &rec, &mut tally)),
            "link" => {
                probe::<Link>(args, host, &rec, &mut tally);
            }
            "ident" => {
                probe::<Ident>(args, host, &rec, &mut tally);
            }
            _ => {
                probe::<Fleet>(args, host, &rec, &mut tally);
            }
        }
    }

    let wall = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let per_pass = |ps: &[Pass], f: &dyn Fn(&Counters) -> f64| {
        median(&ps.iter().map(|p| f(&p.counters)).collect::<Vec<_>>())
    };
    let spans = |body: &str, name: &str| median(&rec.span_totals(body, name));
    let counts = |body: &str, name: &str| rec.count_totals(body, name).iter().sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut metrics = Vec::new();
    for (name, unit) in per_layer_names() {
        let value = if name.starts_with("exp.") {
            spans("suite", &name)
        } else if name == "sim.prepare_s" {
            spans("setup.link", &name)
        } else if name == "sim.wavecache_misses" {
            per_pass(&suite, &|c| c.wave_misses as f64)
        } else if name == "sim.tracecache_misses" {
            per_pass(&suite, &|c| c.trace_misses as f64)
        } else if let Some(slug) = name.strip_prefix("rx.decode_fail.") {
            ratio(
                counts("link.detail", &name),
                counts("link.detail", &format!("rx.decode_attempts.{slug}")),
            )
        } else if name.starts_with("core.")
            || name.starts_with("channel.")
            || name.starts_with("rx.")
        {
            spans("link.detail", &name)
        } else if name == "id.template_build_s" {
            spans("setup.ident", &name)
        } else if name.starts_with("id.") {
            spans("ident", &name)
        } else if name == "fleet.calibrate_s" {
            spans("setup.fleet", &name)
        } else if name == "fleet.sweep_s" {
            spans("fleet", &name)
        } else if name == "fleet.delivered_per_attempt" {
            ratio(
                counts("fleet.detail", "fleet.deliveries"),
                counts("fleet.detail", "fleet.attempts"),
            )
        } else if name.starts_with("fleet.") {
            median(&rec.count_totals("fleet.detail", &name))
        } else if name.starts_with("par.") || name.starts_with("dsp.") {
            let f: &dyn Fn(&Counters) -> f64 = match name.as_str() {
                "par.calls" => &|c| c.par_calls as f64,
                "par.items" => &|c| c.par_items as f64,
                "par.busy_s" => &|c| c.par_busy_us as f64 * 1e-6,
                "par.idle_s" => &|c| c.par_idle_us as f64 * 1e-6,
                "par.utilization" => &|c| {
                    let total = c.par_busy_us + c.par_idle_us;
                    if total == 0 {
                        1.0
                    } else {
                        c.par_busy_us as f64 / total as f64
                    }
                },
                "dsp.plan_misses" => &|c| c.plan_misses as f64,
                "dsp.scratch_allocs" => &|c| c.scratch_allocs as f64,
                _ => &|c| c.probe_misses as f64,
            };
            per_pass(&untraced, f)
        } else {
            // trace.overhead_frac
            wall(&traced) / wall(&untraced) - 1.0
        };
        metrics.push(Metric { name, value, unit });
    }

    let mut table = vec![
        row(
            "wall_s (untraced)",
            format!("{:.6}", wall(&untraced)),
            "s",
            format!("median of {} passes", untraced.len()),
        ),
        row(
            "wall_s (traced)",
            format!("{:.6}", wall(&traced)),
            "s",
            format!("median of {} passes", traced.len()),
        ),
    ];
    for m in &metrics {
        table.push(row(&m.name, show(m.value), m.unit, String::new()));
    }
    Outcome { tally, metrics, table, recorder: Some(rec), engine }
}
