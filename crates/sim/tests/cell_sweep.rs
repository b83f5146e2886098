//! The sweep engine's contract: `run_cells` over a mix of independent
//! cells returns exactly what each cell returns when run alone through
//! `run_cell` — at any thread count and batch width, with and without
//! early stopping and common random numbers — and the fleet link table
//! is calibrated once per waveform-cache lifetime.

use msc_channel::Fading;
use msc_core::overlay::Mode;
use msc_phy::protocol::Protocol;
use msc_sim::experiments::fleet::calibrate;
use msc_sim::pipeline::{run_cell, run_cells, AnyLink, CellJob, Geometry, Impairments};
use msc_sim::{PacketOutcome, StopPolicy};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests here: the pool width, batch width and the
/// waveform cache (with its counters) are process-wide.
fn serial() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Settles once every packet so far decoded: fires at the floor for
/// close cells, never for lossy ones.
fn all_decoded(outs: &[PacketOutcome]) -> bool {
    outs.iter().all(|o| o.decoded)
}

fn never(_: &[PacketOutcome]) -> bool {
    false
}

fn render(cells: &[Vec<PacketOutcome>]) -> Vec<String> {
    cells.iter().map(|outs| format!("{outs:?}")).collect()
}

#[test]
fn sweep_equals_cells_run_one_by_one_at_any_width() {
    let _serial = serial();
    let seed = 17;
    let link = |p| AnyLink::new(p, Mode::Mode1);
    let (ble, zigbee) = (&link(Protocol::Ble), &link(Protocol::ZigBee));
    let (wifi_b, wifi_n) = (&link(Protocol::WifiB), &link(Protocol::WifiN));
    let crn = StopPolicy { floor: 4, crn_group: Some("sweep/zigbee/crn"), decide: &all_decoded };
    let plain = StopPolicy { floor: 3, crn_group: None, decide: &never };
    let jobs = vec![
        CellJob::at(ble, &Geometry::los(8.0), 16, 10, "sweep/ble/8".into()),
        CellJob::at(zigbee, &Geometry::los(2.0), 16, 14, "sweep/zigbee/2".into()).with_policy(crn),
        CellJob::at(zigbee, &Geometry::los(26.0), 16, 9, "sweep/zigbee/26".into()).with_policy(crn),
        CellJob::at(wifi_b, &Geometry::nlos(24.0), 16, 7, "sweep/11b/24".into()).with_policy(plain),
        CellJob::new(
            wifi_n,
            Impairments::snr(15.0, Fading::None).with_cfo(20e3),
            12,
            5,
            "sweep/11n/cfo".into(),
        ),
        CellJob::at(ble, &Geometry::los(4.0), 16, 1, "sweep/ble/4".into()),
    ];
    let one_by_one = || -> Vec<Vec<PacketOutcome>> {
        jobs.iter()
            .map(|j| run_cell(j.link, j.imp, j.n_productive, j.n, seed, &j.cell, j.policy.as_ref()))
            .collect()
    };

    msc_par::set_threads(1);
    let reference = render(&one_by_one());
    let lens: Vec<usize> = one_by_one().iter().map(Vec::len).collect();
    assert_eq!(lens[0], 10);
    assert!(lens[1] < 14, "the close CRN cell must stop early: {lens:?}");
    assert_eq!(lens[3], 7, "a policy that never settles runs every trial");
    for threads in [1, 2, 8] {
        for batch in [1, 8, 32] {
            msc_par::set_threads(threads);
            msc_sim::engine::set_batch(batch);
            let swept = render(&run_cells(seed, &jobs));
            let alone = render(&one_by_one());
            msc_sim::engine::set_batch(msc_sim::engine::DEFAULT_BATCH);
            msc_par::set_threads(0);
            assert_eq!(swept, reference, "run_cells at {threads} threads, batch {batch}");
            assert_eq!(alone, reference, "run_cell at {threads} threads, batch {batch}");
        }
    }
}

#[test]
fn link_table_is_calibrated_once_per_cache_lifetime() {
    let _serial = serial();
    let misses = || msc_sim::wavecache::stats().misses;
    msc_sim::set_waveform_cache(true);
    let first = calibrate(3, 5);
    let after_first = misses();
    let again = calibrate(3, 5);
    assert_eq!(first, again, "a memoized table equals the calibrated one");
    assert_eq!(misses(), after_first, "a second calibration must synthesize nothing");

    // Re-enabling the cache starts it cold: the table is recalibrated.
    msc_sim::set_waveform_cache(true);
    let cold = calibrate(3, 5);
    assert_eq!(first, cold);
    assert_eq!(misses(), after_first + 20, "one synthesis per calibration cell");

    // With the cache off every call calibrates again.
    msc_sim::set_waveform_cache(false);
    let bypasses = msc_sim::wavecache::stats().bypasses;
    assert_eq!(calibrate(3, 5), first);
    assert_eq!(calibrate(3, 5), first);
    assert_eq!(msc_sim::wavecache::stats().bypasses, bypasses + 40);
    msc_sim::set_waveform_cache(true);
}
