//! The pass runner: ops, output digests, failure accounting and the
//! always-on library counters read around every pass.
//!
//! A workload is a fixed list of [`Op`]s. One pass runs every op once,
//! in order, on the calling thread (closed loop, one caller). An op
//! fails when it panics, when its own output check rejects it, or when
//! its output digest differs from the digest of its first successful
//! run: every pass of a run must reproduce the same outputs. A failure
//! is counted and the run goes on, so `fail_rate` can report it.

use crate::spans::Recorder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What one successful op run produced.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    /// Digest of the op's output (`msc_par::hash_label` of its `Debug`
    /// text); must repeat on every pass.
    pub digest: u64,
    /// Units of work the op completed (trials, traces, packets, ...).
    pub work: u64,
}

type OpFn<'a> = Box<dyn Fn(&Recorder) -> Result<Done, String> + 'a>;

/// One unit of work that succeeds or fails as a whole: an experiment
/// (`suite`), a cell (`link`), a config (`ident`) or a scenario row
/// (`fleet`).
pub struct Op<'a> {
    /// Op name, used in failure notes.
    pub name: String,
    run: OpFn<'a>,
}

impl<'a> Op<'a> {
    /// An op running `f`; `f` returns its output digest and work, or an
    /// error when its output fails a check.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Recorder) -> Result<Done, String> + 'a,
    ) -> Self {
        Op { name: name.into(), run: Box::new(f) }
    }
}

/// Runs every op once, untimed and unchecked: the warm-up pass at the
/// end of a set-up. Failures show up again in the measured passes.
pub fn warm_up(ops: &[Op]) {
    let off = Recorder::off();
    for op in ops {
        let _ = catch_unwind(AssertUnwindSafe(|| (op.run)(&off)));
    }
}

/// Ops attempted and failed over a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that panicked, failed a check or changed their output.
    pub failed: u64,
    /// One note per failure, oldest first.
    pub notes: Vec<String>,
}

impl Tally {
    /// Failed ops over attempted ops.
    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Records a failure of an op or of a run-level check.
    pub fn fail(&mut self, what: &str, why: impl Into<String>) {
        self.failed += 1;
        self.notes.push(format!("{what}: {}", why.into()));
    }
}

/// Always-on library counters, read before and after each pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// `msc-par` fan-out calls.
    pub par_calls: u64,
    /// `msc-par` items mapped.
    pub par_items: u64,
    /// Worker time executing items, µs (summed over workers).
    pub par_busy_us: u64,
    /// Worker time not executing items, µs (summed over workers).
    pub par_idle_us: u64,
    /// FFT plans built (thread-local plan cache misses).
    pub plan_misses: u64,
    /// Scratch buffers allocated (scratch pool misses).
    pub scratch_allocs: u64,
    /// Probe spectra computed (probe memo misses).
    pub probe_misses: u64,
    /// Excitation waveforms synthesized into the waveform cache.
    pub wave_misses: u64,
    /// Identification trace sets generated into the trace cache.
    pub trace_misses: u64,
}

impl Counters {
    /// Reads every counter now.
    pub fn now() -> Self {
        let pool = msc_obs::pool::snapshot();
        let plan = msc_dsp::plan::stats();
        Counters {
            par_calls: pool.calls,
            par_items: pool.items,
            par_busy_us: pool.busy_us,
            par_idle_us: pool.idle_us,
            plan_misses: plan.plan_misses,
            scratch_allocs: plan.scratch_allocs,
            probe_misses: plan.probe_misses,
            wave_misses: msc_sim::wavecache::stats().misses,
            trace_misses: msc_sim::tracecache::stats().misses,
        }
    }

    /// The counts accumulated since `earlier`.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            par_calls: self.par_calls - earlier.par_calls,
            par_items: self.par_items - earlier.par_items,
            par_busy_us: self.par_busy_us - earlier.par_busy_us,
            par_idle_us: self.par_idle_us - earlier.par_idle_us,
            plan_misses: self.plan_misses - earlier.plan_misses,
            scratch_allocs: self.scratch_allocs - earlier.scratch_allocs,
            probe_misses: self.probe_misses - earlier.probe_misses,
            wave_misses: self.wave_misses - earlier.wave_misses,
            trace_misses: self.trace_misses - earlier.trace_misses,
        }
    }
}

/// One timed pass over every op.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    /// Host seconds the pass took.
    pub wall_s: f64,
    /// Work the pass completed (sum over its successful ops).
    pub work: u64,
    /// Library counter deltas over the pass.
    pub counters: Counters,
}

/// Runs a workload's ops pass after pass and keeps the reference
/// digest of each op.
pub struct Runner<'a> {
    ops: Vec<Op<'a>>,
    prologue: Box<dyn Fn() + 'a>,
    reference: Vec<Option<u64>>,
    /// Ops attempted and failed so far.
    pub tally: Tally,
}

impl<'a> Runner<'a> {
    /// A runner over `ops`; `prologue` runs (timed) at the start of
    /// every pass.
    pub fn new(ops: Vec<Op<'a>>, prologue: impl Fn() + 'a) -> Self {
        let reference = vec![None; ops.len()];
        Runner { ops, prologue: Box::new(prologue), reference, tally: Tally::default() }
    }

    /// Runs every op once, in order, recording spans into `rec` under a
    /// new pass of body `body`.
    pub fn pass(&mut self, body: &str, rec: &Recorder) -> Pass {
        rec.begin_pass(body);
        let before = Counters::now();
        let t0 = Instant::now();
        let work = rec.span(&format!("pass.{body}"), || {
            (self.prologue)();
            let mut work = 0;
            for (i, op) in self.ops.iter().enumerate() {
                self.tally.attempted += 1;
                let what = format!("{body}/{}", op.name);
                let result = rec.span(&format!("op.{}", op.name), || {
                    catch_unwind(AssertUnwindSafe(|| (op.run)(rec)))
                });
                match result {
                    Err(panic) => {
                        self.tally.fail(&what, format!("panicked: {}", panic_text(&panic)))
                    }
                    Ok(Err(why)) => self.tally.fail(&what, why),
                    Ok(Ok(done)) => match self.reference[i] {
                        Some(d) if d != done.digest => self.tally.fail(
                            &what,
                            format!("output digest {:016x} != reference {d:016x}", done.digest),
                        ),
                        _ => {
                            self.reference[i] = Some(done.digest);
                            work += done.work;
                        }
                    },
                }
            }
            work
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let counters = Counters::now().since(before);
        rec.end_pass();
        Pass { wall_s, work, counters }
    }

    /// Runs passes back to back until `seconds` of pass time have been
    /// spent (at least one pass).
    pub fn measure(&mut self, body: &str, seconds: f64, rec: &Recorder) -> Vec<Pass> {
        let mut passes = Vec::new();
        let mut spent = 0.0;
        while passes.is_empty() || spent < seconds {
            let p = self.pass(body, rec);
            spent += p.wall_s;
            passes.push(p);
        }
        passes
    }
}

fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The highest percentile of `xs` with at least ten samples above it:
/// `(percentile, value)`, or `None` with fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}
