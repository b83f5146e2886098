//! Per-cell excitation waveform cache.
//!
//! Every Monte-Carlo trial of an experiment cell shares the same clean
//! overlay carrier: the productive payload is drawn once per cell from
//! its own RNG stream (`derive_seed(seed, cell, u64::MAX)` — disjoint
//! from every per-trial stream), and the synthesized waveform is stored
//! behind an [`Arc`] in a process-global cache keyed by everything that
//! determines the synthesis output (protocol, overlay parameters,
//! payload, link variant). Per-trial randomness — tag bits, fading,
//! noise, CFO — is applied downstream onto reused buffers, never onto
//! the shared excitation.
//!
//! ## Determinism contract
//!
//! Carrier synthesis is a pure function of the cache key, so a cache
//! hit returns a waveform bit-identical to what a fresh synthesis would
//! produce. Disabling the cache ([`set_waveform_cache`]) therefore
//! changes *work*, never *results*: reports are byte-identical with the
//! cache on or off, at any thread count.

use crate::pipeline::AnyLink;
use msc_core::overlay::Mode;
use msc_core::tag::payload_start_seconds;
use msc_dsp::IqBuf;
use msc_fleet::link::LinkTable;
use msc_obs::metrics;
use msc_phy::protocol::Protocol;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything that determines a synthesized overlay carrier.
#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    protocol: Protocol,
    kappa: usize,
    gamma: usize,
    variant: u64,
    payload: Vec<u8>,
}

fn cache() -> &'static Mutex<HashMap<CacheKey, Arc<IqBuf>>> {
    static CACHE: OnceLock<Mutex<HashMap<CacheKey, Arc<IqBuf>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

static ENABLED: AtomicBool = AtomicBool::new(true);

// Always-on counters (independent of the metrics registry) so
// `paper --profile` can surface cache effectiveness without
// `--metrics-out`, mirroring `msc_dsp::plan::stats`.
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BYPASSES: AtomicU64 = AtomicU64::new(0);

/// Waveform-cache effectiveness counters (process lifetime).
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Prepares served from the cache.
    pub hits: u64,
    /// Prepares that synthesized and inserted.
    pub misses: u64,
    /// Prepares that synthesized with the cache disabled.
    pub bypasses: u64,
    /// Waveforms currently cached.
    pub len: u64,
}

/// Reads the cache counters.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        bypasses: BYPASSES.load(Ordering::Relaxed),
        len: waveform_cache_len() as u64,
    }
}

/// Fleet link tables calibrated from cached waveforms, keyed by the
/// calibration's `(n, seed)`.
fn link_tables() -> &'static Mutex<HashMap<(usize, u64), LinkTable>> {
    static TABLES: OnceLock<Mutex<HashMap<(usize, u64), LinkTable>>> = OnceLock::new();
    TABLES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Enables or disables the global waveform cache (`paper
/// --no-wave-cache`). Either call also drops every cached waveform and
/// memoized link table, so the cache starts cold. Results are
/// identical either way; only the synthesis work changes.
pub fn set_waveform_cache(enabled: bool) {
    ENABLED.store(enabled, Ordering::SeqCst);
    cache().lock().unwrap().clear();
    link_tables().lock().unwrap().clear();
}

/// The fleet link table for `(n, seed)`, from `calibrate` on first use.
///
/// The table is a pure function of `(n, seed)` — the cells it runs are
/// seeded per trial and never stop early — so the cache may keep it
/// for the rest of the run: `paper all` calibrates once for `fleet`,
/// `fleet-scale` and `fleet-timeline`. It lives and dies with the
/// waveforms: [`set_waveform_cache`] drops it, with the cache off it
/// is recomputed on every call, and a replay run (which runs only its
/// target trial) never stores one.
pub fn link_table(n: usize, seed: u64, calibrate: impl FnOnce() -> LinkTable) -> LinkTable {
    if !waveform_cache_enabled() || msc_obs::flight::replay_target().is_some() {
        return calibrate();
    }
    if let Some(table) = link_tables().lock().unwrap().get(&(n, seed)) {
        return table.clone();
    }
    let table = calibrate();
    link_tables().lock().unwrap().insert((n, seed), table.clone());
    table
}

/// Whether the waveform cache is currently enabled.
pub fn waveform_cache_enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Number of waveforms currently cached.
pub fn waveform_cache_len() -> usize {
    cache().lock().unwrap().len()
}

/// One experiment cell's shared excitation: the per-cell payload and
/// its clean carrier, synthesized (or fetched) exactly once and shared
/// read-only across all trials and worker threads.
pub struct CellExcitation {
    /// The cell label it was prepared for (flight records name it).
    pub cell: String,
    /// The protocol this excitation runs.
    pub protocol: Protocol,
    /// The cell's productive payload units (bits; 4-bit symbols for
    /// ZigBee), drawn once from the cell's payload RNG stream.
    pub productive: Vec<u8>,
    /// Tag bits one carrier of this payload can carry.
    pub tag_capacity: usize,
    /// Sample index where the payload (tag-modulatable) region starts.
    pub payload_start: usize,
    /// The clean overlay carrier, shared read-only.
    pub carrier: Arc<IqBuf>,
}

impl CellExcitation {
    /// Draws the cell payload from `(seed, cell, u64::MAX)` and returns
    /// the cell's shared carrier — from the cache when enabled, freshly
    /// synthesized otherwise. `_mode` is unused (the link carries its
    /// overlay parameters); the signature is kept for existing callers.
    pub fn prepare(
        link: &AnyLink,
        _mode: Mode,
        n_productive: usize,
        seed: u64,
        cell: &str,
    ) -> Self {
        let cellh = msc_par::hash_label(cell);
        let mut rng = StdRng::seed_from_u64(msc_par::derive_seed(seed, cellh, u64::MAX));
        let productive = link.draw_productive(&mut rng, n_productive);
        let protocol = link.protocol();
        let label = protocol.label();
        let params = link.params();
        let key = CacheKey {
            protocol,
            kappa: params.kappa,
            gamma: params.gamma,
            variant: link.variant_salt(),
            payload: productive.clone(),
        };

        let carrier = if ENABLED.load(Ordering::SeqCst) {
            let hit = cache().lock().unwrap().get(&key).cloned();
            match hit {
                Some(c) => {
                    HITS.fetch_add(1, Ordering::Relaxed);
                    metrics::counter_add("wavecache.hit", label, "", 1);
                    c
                }
                None => {
                    MISSES.fetch_add(1, Ordering::Relaxed);
                    metrics::counter_add("wavecache.miss", label, "", 1);
                    // Synthesize outside the lock; a racing duplicate
                    // insert is idempotent (synthesis is pure).
                    let c = Arc::new(metrics::time_stage(label, "carrier", || {
                        link.carrier_for(&productive)
                    }));
                    cache().lock().unwrap().insert(key, Arc::clone(&c));
                    c
                }
            }
        } else {
            BYPASSES.fetch_add(1, Ordering::Relaxed);
            metrics::counter_add("wavecache.bypass", label, "", 1);
            Arc::new(metrics::time_stage(label, "carrier", || link.carrier_for(&productive)))
        };

        let payload_start =
            (payload_start_seconds(protocol) * carrier.rate().as_hz()).round() as usize;
        CellExcitation {
            cell: cell.to_string(),
            protocol,
            tag_capacity: link.tag_capacity(n_productive),
            payload_start,
            productive,
            carrier,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::overlay::Mode;

    #[test]
    fn cache_returns_shared_waveform_and_bypass_matches() {
        let link = AnyLink::new(Protocol::Ble, Mode::Mode1);
        set_waveform_cache(true);
        let a = CellExcitation::prepare(&link, Mode::Mode1, 8, 42, "wc-test/cell");
        let b = CellExcitation::prepare(&link, Mode::Mode1, 8, 42, "wc-test/cell");
        assert!(Arc::ptr_eq(&a.carrier, &b.carrier), "second prepare must hit the cache");
        assert_eq!(a.productive, b.productive);

        set_waveform_cache(false);
        let c = CellExcitation::prepare(&link, Mode::Mode1, 8, 42, "wc-test/cell");
        assert!(!Arc::ptr_eq(&a.carrier, &c.carrier));
        assert_eq!(a.carrier.samples(), c.carrier.samples(), "bypass must be bit-identical");
        assert_eq!(a.productive, c.productive);
        set_waveform_cache(true);
    }

    #[test]
    fn distinct_cells_get_distinct_payloads() {
        let link = AnyLink::new(Protocol::WifiB, Mode::Mode1);
        let a = CellExcitation::prepare(&link, Mode::Mode1, 16, 42, "wc-test/cell-a");
        let b = CellExcitation::prepare(&link, Mode::Mode1, 16, 42, "wc-test/cell-b");
        assert_ne!(a.productive, b.productive, "payload streams must be disjoint across cells");
    }
}
