//! Scoped wall-clock timing.

use std::time::Instant;

use crate::Hist;

/// A wall-clock span: created by [`Hist::span`], records its elapsed
/// nanoseconds into that histogram when dropped.
///
/// When no registry is [`crate::active`] at start, the span is inert —
/// it never reads the clock and drop does nothing, keeping instrumented
/// hot paths at ~zero cost while metrics are off.
#[derive(Debug)]
pub struct Span {
    armed: Option<(&'static Hist, Instant)>,
}

impl Span {
    /// Starts timing into `hist` if any registry is active on this
    /// thread.
    pub(crate) fn start(hist: &'static Hist) -> Self {
        let armed = crate::active().then(|| (hist, Instant::now()));
        Span { armed }
    }

    /// Discards the span without recording (e.g. on an error path the
    /// timing of which would pollute the distribution).
    pub fn cancel(mut self) {
        self.armed = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((hist, started)) = self.armed.take() {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            hist.record(ns);
        }
    }
}
