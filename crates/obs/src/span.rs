//! RAII stage spans.
//!
//! A [`Span`] measures the wall-clock time of one pipeline stage with a
//! monotonic clock. On drop it records the duration into the global
//! registry's histogram for the stage and — when a per-trace audit trail
//! is active on this thread — appends a `stage` event to it. This is the
//! only instrumentation call sites need:
//!
//! ```
//! let result = tcpa_obs::time("stage.calibrate", || 2 + 2);
//! assert_eq!(result, 4);
//! ```

use crate::{audit, registry, trace};
use std::time::Instant;

/// An in-flight stage timer; records on drop.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    detail: String,
    /// Span-tree bookkeeping, present only while tracing is enabled and
    /// an item context is open on this thread.
    traced: Option<trace::OpenSpan>,
}

impl Span {
    /// Starts timing `name` now.
    pub fn start(name: &'static str) -> Span {
        Span {
            name,
            start: Instant::now(),
            detail: String::new(),
            traced: trace::open_span(),
        }
    }

    /// Attaches a human-readable note carried into the audit event
    /// (ignored by the metrics histogram).
    pub fn note(&mut self, detail: impl Into<String>) {
        self.detail = detail.into();
    }

    /// The stage name this span records under.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        registry::global().record(self.name, elapsed);
        if let Some(open) = self.traced.take() {
            trace::close_span(open, self.name, &self.detail);
        }
        audit::stage_event(self.name, elapsed, std::mem::take(&mut self.detail));
    }
}

/// A point on the span clock after which an item's analysis should
/// stop. The analysis checks it itself between units of work, so an
/// overrun costs at most one unit past the budget and leaves every span
/// closed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline {
    at: Option<Instant>,
}

/// Returned by [`Deadline::check`] once the deadline has passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expired;

impl Deadline {
    /// A deadline that never passes.
    pub const NONE: Deadline = Deadline { at: None };

    /// A deadline `budget` from now; `None` (or a budget past the end of
    /// the clock) never passes.
    pub fn after(budget: Option<std::time::Duration>) -> Deadline {
        Deadline {
            at: budget.and_then(|b| Instant::now().checked_add(b)),
        }
    }

    /// `Err(Expired)` once the deadline has passed. Reads the clock only
    /// when a deadline is set.
    pub fn check(&self) -> Result<(), Expired> {
        match self.at {
            Some(at) if Instant::now() >= at => Err(Expired),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_global_registry() {
        let before = registry::global().snapshot();
        {
            let mut s = Span::start("stage.test_span");
            s.note("noted");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let after = registry::global().snapshot();
        let h = after.stages.get("stage.test_span").expect("recorded");
        let earlier = before
            .stages
            .get("stage.test_span")
            .map(|h| h.count())
            .unwrap_or(0);
        assert_eq!(h.count(), earlier + 1);
        assert!(h.sum() >= 1_000_000, "slept ≥1ms");
    }

    #[test]
    fn deadline_passes_only_when_set() {
        assert_eq!(Deadline::NONE.check(), Ok(()));
        assert_eq!(Deadline::after(None).check(), Ok(()));
        let far = Deadline::after(Some(std::time::Duration::from_secs(3600)));
        assert_eq!(far.check(), Ok(()));
        let now = Deadline::after(Some(std::time::Duration::ZERO));
        assert_eq!(now.check(), Err(Expired));
        let never = Deadline::after(Some(std::time::Duration::MAX));
        assert_eq!(never.check(), Ok(()));
    }
}
