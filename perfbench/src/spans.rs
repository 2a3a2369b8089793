//! The traced pass's span recorder.
//!
//! A span has a name, a start, an end, a parent and the id of the trace
//! (input file) it belongs to. Spans are kept in memory while the pass
//! runs; at the end the last sweep's are written out, once, as a Chrome
//! `trace_event` document. A layer's self time is its spans' time minus the part of it
//! that child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::clock;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `calibrate`.
    pub name: &'static str,
    /// The trace (input index) it belongs to.
    pub trace: u32,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time child spans cover.
    pub self_ns: u64,
}

/// Records spans when enabled; runs the closures untouched otherwise.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    trace: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: clock::now(),
            trace: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans that follow with this trace id.
    pub fn set_trace(&mut self, trace: u32) {
        self.trace = trace;
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        let parent = self.open.last().copied();
        let start_ns = self.elapsed_ns();
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.elapsed_ns();
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.end_ns = end_ns;
        }
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let layer = out.entry(span.name).or_default();
            layer.count += 1;
            layer.total_ns += span.ns();
            layer.self_ns += span.ns().saturating_sub(covered);
        }
        out
    }

    /// The spans from index `first` on as a Chrome `trace_event` JSON
    /// document (one complete event per span, one lane per trace id).
    pub fn chrome_json(&self, first: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate().skip(first) {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                if i == first { "" } else { ",\n" },
                span.name,
                span.trace,
                span.start_ns as f64 / 1e3,
                span.ns() as f64 / 1e3,
                span.parent.map_or(-1, i64::from),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = clock::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.set_trace(7);
        rec.span("outer", |rec| {
            spin(200_000);
            rec.span("inner", |_| spin(300_000));
            rec.span("inner", |_| spin(300_000));
        });
        let times = rec.layer_times();
        let outer = times["outer"];
        let inner = times["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 200_000);
        assert!(rec.spans().iter().all(|s| s.trace == 7));
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(rec.chrome_json(0).contains("\"name\":\"inner\""));
        assert!(!rec.chrome_json(1).contains("\"name\":\"outer\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |_| 5), 5);
        assert!(rec.spans().is_empty());
    }
}
