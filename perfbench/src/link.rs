//! `link`: link-level Monte-Carlo cells through `pipeline::run_packets`
//! on one thread with warm caches — overlay modulation (`msc-core`),
//! channel (`msc-channel`) and decode (`msc-rx`/`msc-phy`) only.
//!
//! The detailed pass drives the same trials through the public
//! [`TrialBatch`] stages exactly as the batched engine does, so each
//! stage gets its own span; its outcomes must equal `run_packets`'.

use crate::harness::{Done, Op};
use crate::spans::Recorder;
use crate::workload::{protocol_slug, Body};
use msc_core::overlay::{params_for, Mode};
use msc_core::TagOverlayModulator;
use msc_phy::protocol::Protocol;
use msc_sim::pipeline::{run_packets, Impairments};
use msc_sim::{AnyLink, CellExcitation, Geometry, PacketOutcome, TrialBatch};
use std::cell::{Cell as StdCell, RefCell};

/// Receiver distances, m: clean, range edge and past the edge.
pub const DISTANCES_M: [f64; 3] = [4.0, 20.0, 28.0];
/// Monte-Carlo trials per cell and pass; a pass takes about a second
/// on one core.
pub const TRIALS: usize = 192;
/// Productive units per packet (as the fleet calibration uses).
pub const N_PRODUCTIVE: usize = 16;
/// Overlay mode of every cell.
pub const MODE: Mode = Mode::Mode1;

/// One cell's inputs, a pure function of the benchmark seed.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Excitation protocol.
    pub protocol: Protocol,
    /// LoS tag → receiver distance, m.
    pub distance_m: f64,
    /// Cell label; keys the per-trial seed streams.
    pub label: String,
    /// Trials per pass.
    pub trials: usize,
    /// Base seed of the cell's trial streams.
    pub seed: u64,
}

/// The cells of the `link` workload for `seed`.
pub fn cells(seed: u64) -> Vec<CellSpec> {
    let mut out = Vec::new();
    for p in Protocol::ALL {
        for d in DISTANCES_M {
            out.push(CellSpec {
                protocol: p,
                distance_m: d,
                label: format!("perfbench/link/{}/{d}m", protocol_slug(p)),
                trials: TRIALS,
                seed,
            });
        }
    }
    out
}

struct Cell {
    spec: CellSpec,
    link: AnyLink,
    excitation: CellExcitation,
    geometry: Geometry,
    undecoded: StdCell<u64>,
}

/// The `link` workload.
pub struct Link {
    cells: Vec<Cell>,
    batch: RefCell<TrialBatch>,
}

impl Body for Link {
    const NAME: &'static str = "link";
    const WORK: &'static str = "trials_per_s";
    const EARLY_STOP: bool = false;
    const DETAIL: bool = true;

    fn threads(_nproc: usize) -> usize {
        1
    }

    fn setup(seed: u64, rec: &Recorder) -> Self {
        // Start cold so every set-up synthesizes its excitations.
        msc_sim::set_waveform_cache(true);
        let cells = cells(seed)
            .into_iter()
            .map(|spec| {
                let link = AnyLink::new(spec.protocol, MODE);
                let excitation = rec.span("sim.prepare_s", || {
                    CellExcitation::prepare(&link, MODE, N_PRODUCTIVE, spec.seed, &spec.label)
                });
                let geometry = Geometry::los(spec.distance_m);
                Cell { spec, link, excitation, geometry, undecoded: StdCell::new(0) }
            })
            .collect();
        Link { cells, batch: RefCell::new(TrialBatch::new()) }
    }

    fn ops(&self) -> Vec<Op<'_>> {
        self.cells
            .iter()
            .map(|c| {
                Op::new(c.spec.label.clone(), move |rec| {
                    let outs = if rec.detail() {
                        self.staged(c, rec)
                    } else {
                        run_packets(
                            &c.link,
                            &c.geometry,
                            MODE,
                            N_PRODUCTIVE,
                            c.spec.trials,
                            c.spec.seed,
                            &c.spec.label,
                        )
                    };
                    if outs.len() != c.spec.trials {
                        return Err(format!(
                            "{} outcomes for {} trials",
                            outs.len(),
                            c.spec.trials
                        ));
                    }
                    c.undecoded.set(outs.iter().filter(|o| !o.decoded).count() as u64);
                    let digest = msc_par::hash_label(&format!("{outs:?}"));
                    Ok(Done { digest, work: outs.len() as u64 })
                })
            })
            .collect()
    }

    fn exact(&self) -> Vec<(&'static str, f64, &'static str)> {
        let undecoded: u64 = self.cells.iter().map(|c| c.undecoded.get()).sum();
        let packets: usize = self.cells.iter().map(|c| c.spec.trials).sum();
        vec![("link_per", undecoded as f64 / packets as f64, "ratio")]
    }
}

impl Link {
    /// One cell through the batched engine's stages, one span each,
    /// on the excitation prepared in set-up.
    fn staged(&self, c: &Cell, rec: &Recorder) -> Vec<PacketOutcome> {
        let p = c.spec.protocol;
        let slug = protocol_slug(p);
        let exc = &c.excitation;
        let modulator = TagOverlayModulator::new(p, params_for(p, MODE));
        let snr = c.geometry.uplink_snr_db(p);
        let imp = Impairments::snr(snr, c.geometry.fading);
        let cellh = msc_par::hash_label(&c.spec.label);
        let batch = msc_sim::engine::batch();
        let n = c.spec.trials;
        let (modulate, channel, decode) = (
            format!("core.modulate_s.{slug}"),
            format!("channel.apply_s.{slug}"),
            format!("rx.decode_s.{slug}"),
        );
        let mut tb = self.batch.borrow_mut();
        let mut outs = Vec::with_capacity(n);
        for b in 0..n.div_ceil(batch) {
            let lo = (b * batch) as u64;
            let len = batch.min(n - b * batch);
            rec.span(&modulate, || {
                tb.materialize(&modulator, exc, c.spec.seed, cellh, None, lo, len)
            });
            rec.span(&channel, || tb.apply_channel(imp));
            rec.span(&decode, || tb.decode_into(&c.link, exc, snr, &mut outs));
        }
        let failed = outs.iter().filter(|o| !o.decoded).count();
        rec.count(&format!("rx.decode_fail.{slug}"), failed as f64);
        rec.count(&format!("rx.decode_attempts.{slug}"), outs.len() as f64);
        outs
    }
}
