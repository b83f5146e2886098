//! Process-wide Monte-Carlo run configuration: trial batch width,
//! adaptive early stopping, and the `MSC_*` float knobs.
//!
//! Batch width and early stopping are plain atomics set once at
//! startup and read by [`crate::pipeline::run_cells`] per sweep:
//!
//! * `batch` is the chunk width of the one cell engine,
//!   [`crate::pipeline::TrialBatch`]. Lanes are seeded per trial index,
//!   never per chunk, so every width — 1 included — produces identical
//!   outcomes; the width only trades pool granularity against SIMD
//!   lane count, and it stays out of the archive config hash.
//! * `early_stop` lets runners with a [`crate::pipeline::StopPolicy`]
//!   halt a cell once its verdict is statistically decided; disabling
//!   it (`paper --no-early-stop`) restores full trial counts. It
//!   changes how many trials a cell runs, so it feeds the config hash.
//!
//! The `MSC_*` knobs (`Knob`) are environment overrides for test and
//! smoke runs. Each has one reader, `Knob::get`, which fails closed:
//! a value that does not parse, is not finite, or is out of range
//! aborts the run with a message naming the variable.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Default trial batch width.
pub const DEFAULT_BATCH: usize = 8;

static BATCH: AtomicUsize = AtomicUsize::new(DEFAULT_BATCH);
static EARLY_STOP: AtomicBool = AtomicBool::new(true);

/// Sets the trial batch width (clamped to ≥ 1). Results do not depend
/// on it.
pub fn set_batch(n: usize) {
    BATCH.store(n.max(1), Ordering::SeqCst);
}

/// The configured trial batch width.
pub fn batch() -> usize {
    BATCH.load(Ordering::SeqCst)
}

/// Enables or disables adaptive per-cell early stopping.
pub fn set_early_stop(on: bool) {
    EARLY_STOP.store(on, Ordering::SeqCst);
}

/// Whether adaptive early stopping is enabled.
pub fn early_stop() -> bool {
    EARLY_STOP.load(Ordering::SeqCst)
}

/// An `MSC_*` float knob: environment variable, default when unset,
/// and the accepted range.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Knob {
    name: &'static str,
    default: f64,
    min: f64,
    max: f64,
}

/// Offset added to every receiver's implementation margin, dB
/// ([`crate::pipeline::perturb_margin_db`]).
pub(crate) const PERTURB_MARGIN_DB: Knob =
    Knob { name: "MSC_PERTURB_MARGIN_DB", default: 0.0, min: -60.0, max: 60.0 };
/// Fleet scenario horizon, seconds ([`crate::experiments::fleet::horizon_s`]).
pub(crate) const FLEET_HORIZON_S: Knob =
    Knob { name: "MSC_FLEET_HORIZON_S", default: 180.0, min: 1e-3, max: 86_400.0 };
/// Seconds without a delivery before a fleet tag counts as starved.
pub(crate) const FLEET_STARVE_S: Knob =
    Knob { name: "MSC_FLEET_STARVE_S", default: 30.0, min: 1e-3, max: 86_400.0 };
/// Per-window collision fraction that trips the fleet detector.
pub(crate) const FLEET_COLLISION_RATE: Knob =
    Knob { name: "MSC_FLEET_COLLISION_RATE", default: 0.5, min: 1e-6, max: 1.0 };

const KNOBS: [Knob; 4] = [PERTURB_MARGIN_DB, FLEET_HORIZON_S, FLEET_STARVE_S, FLEET_COLLISION_RATE];

impl Knob {
    /// Validates a raw value: `None` (unset) gives the default.
    fn parse(&self, raw: Option<&str>) -> Result<f64, String> {
        let Some(raw) = raw else {
            return Ok(self.default);
        };
        match raw.trim().parse::<f64>() {
            Ok(v) if v.is_finite() && (self.min..=self.max).contains(&v) => Ok(v),
            _ => Err(format!(
                "{}={raw:?}: expected a finite number in [{}, {}]",
                self.name, self.min, self.max
            )),
        }
    }

    /// The knob's value from the environment. An invalid value aborts
    /// the process with exit code 2 — a typo never becomes a default.
    pub(crate) fn get(&self) -> f64 {
        self.parse(std::env::var(self.name).ok().as_deref()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }
}

/// Reads every `MSC_*` knob once, so a bad value aborts before any
/// work runs.
pub fn check_knobs() {
    for k in KNOBS {
        k.get();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_fail_closed() {
        let k = FLEET_HORIZON_S;
        assert_eq!(k.parse(None), Ok(180.0));
        assert_eq!(k.parse(Some("3.5")), Ok(3.5));
        for bad in ["nan", "inf", "-1", "0", "1e9", "4x2", ""] {
            let err = k.parse(Some(bad)).unwrap_err();
            assert!(err.starts_with("MSC_FLEET_HORIZON_S="), "{err}");
        }
        assert_eq!(PERTURB_MARGIN_DB.parse(Some("-6")), Ok(-6.0));
        assert!(FLEET_COLLISION_RATE.parse(Some("1.5")).is_err());
    }
}
