//! `suite`: every `experiments::REGISTRY` runner in registry order at
//! n = 24 on `nproc` threads — what users run as `paper all 24`. The
//! waveform and trace caches are cleared before every pass, since users
//! pay their fill once per run.

use crate::harness::{Done, Op};
use crate::link;
use crate::spans::Recorder;
use crate::workload::Body;
use msc_phy::protocol::Protocol;
use msc_sim::experiments::REGISTRY;
use msc_sim::{AnyLink, CellExcitation};

/// Trials per experiment (`paper all 24`).
pub const N: usize = 24;

/// The `suite` workload.
pub struct Suite {
    seed: u64,
}

impl Body for Suite {
    const NAME: &'static str = "suite";
    const WORK: &'static str = "experiments_per_s";
    const EARLY_STOP: bool = true;
    const WARM_UP: bool = false;

    fn threads(nproc: usize) -> usize {
        nproc
    }

    /// The suite builds everything inside its passes. Its set-up only
    /// warms the process-wide lazy statics (the environment knobs, read
    /// once and refused by the benchmark, and the AVX2 probe) and the
    /// caller's thread-local plans, by synthesizing one excitation per
    /// protocol. The first pass's prologue drops those excitations.
    fn setup(seed: u64, rec: &Recorder) -> Self {
        msc_sim::pipeline::perturb_margin_db();
        msc_sim::experiments::fleet::horizon_s();
        msc_dsp::simd::avx2_available();
        msc_sim::set_waveform_cache(true);
        for p in Protocol::ALL {
            let link = AnyLink::new(p, link::MODE);
            rec.span("sim.prepare_s", || {
                CellExcitation::prepare(
                    &link,
                    link::MODE,
                    link::N_PRODUCTIVE,
                    seed,
                    "perfbench/suite",
                )
            });
        }
        Suite { seed }
    }

    fn ops(&self) -> Vec<Op<'_>> {
        REGISTRY
            .iter()
            .map(|exp| {
                let span = format!("exp.{}_s", exp.id);
                Op::new(exp.id, move |rec| {
                    let report = rec.span(&span, || (exp.run)(N, self.seed));
                    let text = report.render();
                    check_invariant(exp.id, &text)?;
                    Ok(Done { digest: msc_par::hash_label(&text), work: 1 })
                })
            })
            .collect()
    }

    fn prologue() {
        msc_sim::set_waveform_cache(true);
        msc_sim::set_trace_cache(true);
    }
}

/// Seed-free results every run must reproduce exactly: Table 2's
/// 133,364 vs 2,860 flip-flops, Table 3's 279.5 mW total, and Table 1
/// with only Multiscatter checking all three columns.
pub fn check_invariant(id: &str, text: &str) -> Result<(), String> {
    let last = |prefix: &str| -> Option<&str> {
        text.lines().find(|l| l.starts_with(prefix)).and_then(|l| l.split_whitespace().last())
    };
    match id {
        "tab2" => {
            let naive = last("Total (Naive Impl.)");
            let nano = last("Nano FPGA Impl.");
            if naive != Some("133364") || nano != Some("2860") {
                return Err(format!("tab2 DFFs {naive:?} vs {nano:?}, want 133364 vs 2860"));
            }
        }
        "tab3" => {
            let total = last("Total");
            if total != Some("279.5") {
                return Err(format!("tab3 total {total:?} mW, want 279.5"));
            }
        }
        "tab1" => {
            let full: Vec<&str> = text
                .lines()
                .filter(|l| l.matches('✓').count() == 3)
                .filter_map(|l| l.split_whitespace().next())
                .collect();
            if full != ["Multiscatter"] {
                return Err(format!("tab1 rows with 3 checkmarks: {full:?}, want [Multiscatter]"));
            }
        }
        _ => {}
    }
    Ok(())
}
