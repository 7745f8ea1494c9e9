//! Deterministic failpoint injection for resilience testing.
//!
//! A failpoint is a named site in the numeric stack (e.g. `solver/lanczos`)
//! that tests can *arm* with a [`FailAction`]. Instrumented code calls
//! [`check`] (or [`trigger`]) at the site; when the point is armed the site
//! reacts — returning its typed failure, corrupting its output with a NaN,
//! or stalling — exactly as if the underlying numerics had misbehaved. This
//! makes every rung of the pipeline's fallback ladders drivable from tests
//! without flaky timing tricks or adversarial fixtures.
//!
//! Naming scheme: `<stage>/<site>`, with the stage matching the pipeline
//! phase or solver that hosts the site (`solver/lanczos`, `solver/geig`,
//! `solver/cg`, `solver/dense-geig`, `phase1/nan`, `phase1/stall`,
//! `phase2/stall`, `phase3/nan`, `phase3/stall`).
//!
//! The whole registry is compiled out unless the `failpoints` cargo feature
//! is enabled: without it [`check`] is an inline `None` and the arming API
//! is absent, so production builds carry zero overhead and zero risk of
//! accidental injection. The registry is process-global; tests that arm
//! failpoints must serialize themselves (the armed state is shared across
//! threads) and disarm afterwards.

/// What an armed failpoint makes the instrumented site do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// The site reports its typed failure (e.g. `NoConvergence`).
    Error,
    /// The site corrupts its output with a NaN.
    Nan,
    /// The site sleeps this many milliseconds before continuing.
    StallMs(u64),
}

#[cfg(feature = "failpoints")]
mod registry {
    use super::FailAction;
    use std::collections::HashMap; // cirstag-lint: allow(determinism) -- registry is keyed lookup only and never iterated, so map order cannot leak into results
    use std::sync::{Mutex, MutexGuard, OnceLock};

    struct Entry {
        action: FailAction,
        /// Remaining firings; `usize::MAX` means "always".
        remaining: usize,
        hits: usize,
    }

    // cirstag-lint: allow(determinism) -- registry is keyed lookup only and never iterated, so map order cannot leak into results
    fn map() -> MutexGuard<'static, HashMap<String, Entry>> {
        static MAP: OnceLock<Mutex<HashMap<String, Entry>>> = OnceLock::new(); // cirstag-lint: allow(determinism) -- registry is keyed lookup only and never iterated, so map order cannot leak into results
        MAP.get_or_init(|| Mutex::new(HashMap::new())) // cirstag-lint: allow(determinism) -- registry is keyed lookup only and never iterated, so map order cannot leak into results
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Arms `name` to fire `action` the next `times` times it is checked.
    pub fn arm(name: &str, action: FailAction, times: usize) {
        map().insert(
            name.to_string(),
            Entry {
                action,
                remaining: times,
                hits: 0,
            },
        );
    }

    /// Arms `name` to fire `action` on every check until disarmed.
    pub fn arm_always(name: &str, action: FailAction) {
        arm(name, action, usize::MAX);
    }

    /// Disarms `name` (no-op when not armed).
    pub fn disarm(name: &str) {
        map().remove(name);
    }

    /// Disarms every failpoint in the process.
    pub fn reset() {
        map().clear();
    }

    /// How many times `name` has fired since it was last armed.
    pub fn hits(name: &str) -> usize {
        map().get(name).map_or(0, |e| e.hits)
    }

    pub(super) fn check(name: &str) -> Option<FailAction> {
        let mut m = map();
        let e = m.get_mut(name)?;
        if e.remaining == 0 {
            return None;
        }
        if e.remaining != usize::MAX {
            e.remaining -= 1;
        }
        e.hits += 1;
        Some(e.action)
    }
}

#[cfg(feature = "failpoints")]
pub use registry::{arm, arm_always, disarm, hits, reset};

/// Consults the registry for `name`, consuming one firing when armed.
///
/// Always `None` when the `failpoints` feature is disabled.
#[inline]
pub fn check(name: &str) -> Option<FailAction> {
    #[cfg(feature = "failpoints")]
    {
        registry::check(name)
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = name;
        None
    }
}

/// Like [`check`], but handles [`FailAction::StallMs`] in place (the caller
/// only ever sees `Error` or `Nan`). Use at sites that cannot meaningfully
/// stall themselves.
#[inline]
pub fn trigger(name: &str) -> Option<FailAction> {
    match check(name) {
        Some(FailAction::StallMs(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
        other => other,
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The registry is process-global, so these tests serialize themselves.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn unarmed_is_none() {
        let _g = serial();
        reset();
        assert_eq!(check("nope/never"), None);
        assert_eq!(hits("nope/never"), 0);
    }

    #[test]
    fn fires_exactly_n_times() {
        let _g = serial();
        reset();
        arm("t/a", FailAction::Error, 2);
        assert_eq!(check("t/a"), Some(FailAction::Error));
        assert_eq!(check("t/a"), Some(FailAction::Error));
        assert_eq!(check("t/a"), None);
        assert_eq!(hits("t/a"), 2);
        reset();
    }

    #[test]
    fn arm_always_until_disarm() {
        let _g = serial();
        reset();
        arm_always("t/b", FailAction::Nan);
        for _ in 0..5 {
            assert_eq!(check("t/b"), Some(FailAction::Nan));
        }
        disarm("t/b");
        assert_eq!(check("t/b"), None);
        reset();
    }

    #[test]
    fn trigger_absorbs_stall() {
        let _g = serial();
        reset();
        arm("t/c", FailAction::StallMs(1), 1);
        let t0 = std::time::Instant::now();
        assert_eq!(trigger("t/c"), None);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(1));
        assert_eq!(hits("t/c"), 1);
        reset();
    }
}
