//! A probe for the `corpus` layer that leaves `corpus.rs` untouched.
//!
//! [`ProbeSource`] wraps any [`TraceSource`] and stamps every `next_item`
//! pull with the pulling thread and the time. A worker pulls, processes
//! the item, and pulls again, so the gaps between one worker's pulls are
//! its busy time, and its final, empty pull is where it went idle.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use tcpa_trace::{CorpusItem, TraceSource};

use crate::clock;

/// One `next_item` call.
#[derive(Debug, Clone, Copy)]
pub struct Pull {
    /// The worker that pulled.
    pub thread: ThreadId,
    /// When.
    pub at: Instant,
    /// `false` when the source was exhausted.
    pub got_item: bool,
}

/// Stamps shared between the probe (moved into the pipeline) and the
/// benchmark.
pub type Stamps = Arc<Mutex<Vec<Pull>>>;

/// A [`TraceSource`] that records every pull.
pub struct ProbeSource<S> {
    inner: S,
    stamps: Stamps,
}

impl<S: TraceSource> ProbeSource<S> {
    /// Wraps `inner`; the returned handle reads the stamps afterwards.
    pub fn new(inner: S) -> (ProbeSource<S>, Stamps) {
        let stamps = Stamps::default();
        (
            ProbeSource {
                inner,
                stamps: Arc::clone(&stamps),
            },
            stamps,
        )
    }
}

impl<S: TraceSource> TraceSource for ProbeSource<S> {
    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn next_item(&mut self) -> Option<CorpusItem> {
        let item = self.inner.next_item();
        let pull = Pull {
            thread: thread::current().id(),
            at: clock::now(),
            got_item: item.is_some(),
        };
        self.stamps
            .lock()
            .expect("probe stamps: no holder panics while pushing")
            .push(pull);
        item
    }
}

/// What the pulls say about one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerUse {
    /// Summed worker time from first pull to final pull, over workers ×
    /// the run's wall time.
    pub busy_share: f64,
    /// From the first worker's final pull to the last worker's: how long
    /// some worker sat idle while another still worked.
    pub tail_idle: Duration,
}

/// Reduces one run's pulls, given the run's start and end.
pub fn worker_use(pulls: &[Pull], started: Instant, ended: Instant) -> WorkerUse {
    let mut per_worker: BTreeMap<String, (Instant, Instant)> = BTreeMap::new();
    for pull in pulls {
        let span = per_worker
            .entry(format!("{:?}", pull.thread))
            .or_insert((pull.at, pull.at));
        span.0 = span.0.min(pull.at);
        span.1 = span.1.max(pull.at);
    }
    let wall = ended.saturating_duration_since(started).as_secs_f64();
    let busy: f64 = per_worker
        .values()
        .map(|(first, last)| last.saturating_duration_since(*first).as_secs_f64())
        .sum();
    let workers = per_worker.len().max(1) as f64;
    let finals = per_worker.values().map(|span| span.1);
    let tail_idle = match (finals.clone().min(), finals.max()) {
        (Some(first), Some(last)) => last.saturating_duration_since(first),
        _ => Duration::ZERO,
    };
    WorkerUse {
        busy_share: if wall > 0.0 {
            busy / (workers * wall)
        } else {
            0.0
        },
        tail_idle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpa_trace::{MemorySource, Trace};

    #[test]
    fn stamps_every_pull_including_the_empty_one() {
        let source = MemorySource::new(vec![
            CorpusItem::memory("a", Trace::new()),
            CorpusItem::memory("b", Trace::new()),
        ]);
        let (mut probe, stamps) = ProbeSource::new(source);
        assert_eq!(probe.len_hint(), Some(2));
        while probe.next_item().is_some() {}
        let pulls = stamps.lock().expect("unpoisoned").clone();
        assert_eq!(pulls.len(), 3);
        assert_eq!(
            pulls.iter().map(|p| p.got_item).collect::<Vec<_>>(),
            [true, true, false]
        );
    }

    #[test]
    fn one_worker_busy_throughout_has_no_tail() {
        let t0 = clock::now();
        let me = thread::current().id();
        let pulls = [
            Pull {
                thread: me,
                at: t0,
                got_item: true,
            },
            Pull {
                thread: me,
                at: t0 + Duration::from_millis(10),
                got_item: false,
            },
        ];
        let used = worker_use(&pulls, t0, t0 + Duration::from_millis(20));
        assert!((used.busy_share - 0.5).abs() < 1e-9);
        assert_eq!(used.tail_idle, Duration::ZERO);
    }
}
