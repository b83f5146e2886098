//! What every workload provides to the measurement loop.

use crate::harness::Op;
use crate::spans::Recorder;
use msc_phy::protocol::Protocol;

/// One workload: its set-up, its ops, and the engine settings it pins.
pub trait Body: Sized {
    /// Workload name (`--workload`).
    const NAME: &'static str;
    /// Name of the throughput metric: work units per host second.
    const WORK: &'static str;
    /// Early-stopping setting the workload pins.
    const EARLY_STOP: bool;
    /// Whether one untimed warm-up pass follows set-up (outside
    /// `setup_s`), so thread-local FFT plans, scratch and batch pools
    /// are warm when timing starts. The suite pays its cold costs
    /// inside every pass instead.
    const WARM_UP: bool = true;

    /// Whether the workload has a detailed path (see
    /// [`Recorder::set_detail`]) whose outputs need their own check.
    const DETAIL: bool = false;

    /// Worker threads the workload runs with on an `nproc`-core host.
    fn threads(nproc: usize) -> usize;

    /// Builds everything the passes need, recording set-up spans.
    fn setup(seed: u64, rec: &Recorder) -> Self;

    /// The ops of one pass, in order.
    fn ops(&self) -> Vec<Op<'_>>;

    /// Runs (timed) at the start of every pass.
    fn prologue() {}

    /// Results that are exact for a given seed: `(name, value, unit)`.
    fn exact(&self) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }
}

/// Pins the process-wide engine settings for workload `B`: worker
/// threads, trial batch width and early stopping.
pub fn configure<B: Body>(nproc: usize) {
    msc_par::set_threads(B::threads(nproc));
    msc_sim::engine::set_batch(msc_sim::engine::DEFAULT_BATCH);
    msc_sim::engine::set_early_stop(B::EARLY_STOP);
}

/// Short protocol name used in metric names.
pub fn protocol_slug(p: Protocol) -> &'static str {
    match p {
        Protocol::WifiB => "11b",
        Protocol::WifiN => "11n",
        Protocol::Ble => "ble",
        Protocol::ZigBee => "zigbee",
    }
}
