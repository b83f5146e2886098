//! Same-seed runs must export byte-identical metrics, at any thread
//! count.
//!
//! Latency histograms (`pipe.stage_us`) record wall-clock durations
//! and are filtered from every comparison. `par.queue_depth` records
//! how the pool split the work into chunks — the one thing `--threads`
//! is meant to change (a 1-thread run records none) — so only the
//! comparison across thread counts drops it.

use msc_core::overlay::Mode;
use msc_obs::metrics::{self, Record, Registry};
use msc_phy::protocol::Protocol;
use msc_sim::pipeline::{run_packets, AnyLink, Geometry};

fn run_once(seed: u64, threads: usize) -> Vec<Record> {
    msc_par::set_threads(threads);
    Registry::global().reset();
    // Start each run with cold caches: the caches outlive the registry
    // reset, and their hit/miss counters (correctly) reflect cache
    // state, not the run's inputs.
    msc_sim::set_trace_cache(true);
    msc_sim::set_waveform_cache(true);
    metrics::set_experiment("det");
    // Identification path: per-template score histograms + decisions.
    let _ = msc_sim::experiments::fig05::run(4, seed);
    // Pipeline path: stage timings, SNR/BER histograms, decode counters.
    let geo = Geometry::los(8.0);
    for p in Protocol::ALL {
        let link = AnyLink::new(p, Mode::Mode1);
        let _ = run_packets(&link, &geo, Mode::Mode1, 16, 12, seed, &format!("det/{}", p.label()));
    }
    msc_par::set_threads(0);
    Registry::global().snapshot().into_iter().filter(|r| r.key.name != "pipe.stage_us").collect()
}

/// The export of `records`, minus the metrics named in `skip`.
fn export(records: &[Record], skip: &[&str]) -> String {
    let kept: Vec<_> = records.iter().filter(|r| !skip.contains(&r.key.name)).cloned().collect();
    msc_obs::export::to_jsonl(&kept)
}

#[test]
fn same_seed_runs_export_identical_metrics() {
    let _guard = metrics::tests_serial();
    metrics::enable();
    let a = run_once(42, 1);
    let b = run_once(42, 4);
    let c = run_once(42, 4);
    metrics::disable();
    Registry::global().reset();

    // The export covers the identification, pipeline and pool layers.
    let full = export(&b, &[]);
    assert!(full.contains("\"id.score\""), "id metrics missing:\n{full}");
    assert!(full.contains("\"pipe.packets\""), "pipeline metrics missing:\n{full}");
    assert!(full.contains("\"par.queue_depth\""), "pool metrics missing:\n{full}");
    assert_eq!(full, export(&c, &[]), "same-seed exports differ at 4 threads");
    let split = ["par.queue_depth"];
    assert_eq!(export(&a, &split), export(&b, &split), "exports differ between 1 and 4 threads");
}
