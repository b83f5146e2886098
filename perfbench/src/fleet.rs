//! `fleet`: the six paper scenario rows (3 MAC policies × mains /
//! outdoor harvest, 500 tags) plus a 1000-tag best-goodput mains row,
//! all at the 180 s paper horizon, through `msc_fleet::engine::run` on
//! `nproc` threads. The link table is calibrated once, in set-up.
//!
//! The detailed pass runs the same rows through `run_with` and a
//! counting `MacObserver`; its results must equal `run`'s.

use crate::harness::{Done, Op};
use crate::spans::Recorder;
use crate::workload::Body;
use msc_analog::harvester::Light;
use msc_fleet::engine::{run, run_with, EnergyModel, FleetConfig, FleetResult};
use msc_fleet::link::LinkTable;
use msc_fleet::mac::{Backoff, MacPolicy};
use msc_fleet::obs::{MacEvent, MacObserver};
use msc_fleet::traffic::Arrivals;
use msc_sim::experiments::fleet::{calibrate, paper_carriers, place_snr_db};

/// Simulated horizon of every row, s (the paper horizon, set here
/// rather than read from the environment).
pub const HORIZON_S: f64 = 180.0;
/// Calibration trials per (protocol, distance) cell.
pub const CAL_TRIALS: usize = 24;
/// Tag load while operating, W (Table 3: 279.5 mW).
const LOAD_W: f64 = 279.5e-3;

/// One scenario row's inputs, a pure function of the seed.
#[derive(Clone, Debug)]
pub struct RowSpec {
    /// Row name.
    pub name: String,
    /// Engine configuration.
    pub config: FleetConfig,
}

/// The rows of the `fleet` workload for `seed`.
pub fn rows(seed: u64) -> Vec<RowSpec> {
    let outdoor = EnergyModel::from_harvest(Light::paper_outdoor(), LOAD_W);
    let cfg = |tags: usize, policy: MacPolicy, energy: Option<EnergyModel>| FleetConfig {
        tags,
        horizon_s: HORIZON_S,
        carriers: paper_carriers(),
        readings: Arrivals::Periodic { rate: 1.0 },
        reading_bits: 64,
        policy,
        backoff: Backoff::default(),
        energy,
        queue_cap: 4,
        sample_every: 0,
        seed,
    };
    let mut out = Vec::new();
    for policy in MacPolicy::ALL {
        for (power, energy) in [("mains", None), ("outdoor-harvest", Some(outdoor))] {
            out.push(RowSpec {
                name: format!("{}/{power}/500", policy.label()),
                config: cfg(500, policy, energy),
            });
        }
    }
    out.push(RowSpec {
        name: format!("{}/mains/1000", MacPolicy::BestGoodput.label()),
        config: cfg(1000, MacPolicy::BestGoodput, None),
    });
    out
}

/// Counts the MAC events the per-layer metrics report.
#[derive(Default)]
struct Counting {
    attempts: u64,
    collisions: u64,
    backoffs: u64,
    retry_drops: u64,
    deliveries: u64,
}

impl MacObserver for Counting {
    fn on_event(&mut self, ev: MacEvent) {
        match ev {
            MacEvent::Attempt { .. } => self.attempts += 1,
            MacEvent::Collision { .. } => self.collisions += 1,
            MacEvent::Backoff { .. } => self.backoffs += 1,
            MacEvent::RetryDrop { .. } => self.retry_drops += 1,
            MacEvent::Delivery { .. } => self.deliveries += 1,
            _ => {}
        }
    }
}

/// The `fleet` workload.
pub struct Fleet {
    rows: Vec<RowSpec>,
    table: LinkTable,
}

impl Body for Fleet {
    const NAME: &'static str = "fleet";
    const WORK: &'static str = "fleet_pkts_per_s";
    const EARLY_STOP: bool = false;
    const DETAIL: bool = true;

    fn threads(nproc: usize) -> usize {
        nproc
    }

    fn setup(seed: u64, rec: &Recorder) -> Self {
        // Start cold so every set-up synthesizes its calibration cells.
        msc_sim::set_waveform_cache(true);
        let table = rec.span("fleet.calibrate_s", || calibrate(CAL_TRIALS, seed));
        Fleet { rows: rows(seed), table }
    }

    fn ops(&self) -> Vec<Op<'_>> {
        self.rows
            .iter()
            .map(|row| {
                Op::new(row.name.clone(), move |rec| {
                    let r = if rec.detail() {
                        let mut obs = Counting::default();
                        let r = run_with(&row.config, &self.table, place_snr_db, &mut obs);
                        rec.count("fleet.attempts", obs.attempts as f64);
                        rec.count("fleet.collisions", obs.collisions as f64);
                        rec.count("fleet.backoffs", obs.backoffs as f64);
                        rec.count("fleet.retry_drops", obs.retry_drops as f64);
                        rec.count("fleet.deliveries", obs.deliveries as f64);
                        r
                    } else {
                        rec.span("fleet.sweep_s", || run(&row.config, &self.table, place_snr_db))
                    };
                    check_tallies(&r)?;
                    let digest = msc_par::hash_label(&format!("{r:?}"));
                    Ok(Done { digest, work: r.carrier_packets })
                })
            })
            .collect()
    }
}

/// The per-carrier tallies must partition the run counters exactly.
pub fn check_tallies(r: &FleetResult) -> Result<(), String> {
    let sum =
        |f: fn(&msc_fleet::engine::CarrierTally) -> u64| r.per_carrier.iter().map(f).sum::<u64>();
    let pairs = [
        ("packets", sum(|t| t.packets), r.carrier_packets),
        ("idle", sum(|t| t.idle), r.idle_packets),
        ("attempts", sum(|t| t.attempts), r.attempts),
        ("delivered", sum(|t| t.delivered), r.delivered),
        ("collided_attempts", sum(|t| t.collided_attempts), r.collided_attempts),
        ("collision_slots", sum(|t| t.collision_slots), r.collision_slots),
        ("channel_losses", sum(|t| t.channel_losses), r.channel_losses),
    ];
    for (what, carriers, run) in pairs {
        if carriers != run {
            return Err(format!("per-carrier {what} sum {carriers} != run counter {run}"));
        }
    }
    Ok(())
}
