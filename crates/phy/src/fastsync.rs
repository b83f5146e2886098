//! Thread-local decode fast-path hint set by the simulation engine.
//!
//! The Monte-Carlo pipeline modulates the tag overlay onto a cached
//! excitation waveform and applies a delay-free flat channel, so the
//! frame inside every trial buffer starts at a known sample offset
//! (zero) with at most a few samples of ambiguity. Demodulators that
//! normally run a full-buffer synchronization search (the ZigBee
//! matched-filter sync is ~70 % of its decode cost) can exploit that:
//! when a sync window hint is active they correlate only over
//! `0..=radius` candidate offsets.
//!
//! The hint makes two promises, and they are not equally safe:
//!
//! * **Frame start in `0..=radius`** — an accelerator. If the windowed
//!   search fails, demodulators fall back to the full search, so
//!   decode results stay identical whenever the frame really does
//!   start in-window.
//! * **No carrier frequency offset** — an oracle. ZigBee skips its CFO
//!   estimate under the hint (the estimator would only chase noise,
//!   and its correction clones the buffer), so a hinted decode of an
//!   offset carrier fails outright. Set the hint only for buffers the
//!   caller knows are offset-free: the engine's `TrialBatch` grants it
//!   only to lanes its channel did not frequency-shift.
//!
//! The hint is **thread-local** and scoped: `with_window(radius, f)`
//! sets it for the duration of `f` and restores the previous value on
//! the way out (also on panic), so concurrent tests and unrelated
//! decodes on other threads are never affected.

use std::cell::Cell;

thread_local! {
    static HINT: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Restore(Option<usize>);

impl Drop for Restore {
    fn drop(&mut self) {
        HINT.with(|h| h.set(self.0));
    }
}

/// Runs `f` with a sync-window hint of `radius` samples active on this
/// thread (frame start expected in `0..=radius`). Nestable; the
/// previous hint is restored when `f` returns or panics.
pub fn with_window<R>(radius: usize, f: impl FnOnce() -> R) -> R {
    let prev = HINT.with(|h| h.replace(Some(radius)));
    let _restore = Restore(prev);
    f()
}

/// The sync-window hint active on this thread, if any.
pub fn window() -> Option<usize> {
    HINT.with(|h| h.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_is_scoped_and_restored() {
        assert_eq!(window(), None);
        let out = with_window(8, || {
            assert_eq!(window(), Some(8));
            with_window(2, || assert_eq!(window(), Some(2)));
            assert_eq!(window(), Some(8));
            17
        });
        assert_eq!(out, 17);
        assert_eq!(window(), None);
    }

    #[test]
    fn hint_survives_panic_unwinding() {
        let caught = std::panic::catch_unwind(|| {
            with_window(4, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(window(), None);
    }
}
