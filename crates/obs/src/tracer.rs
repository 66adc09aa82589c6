//! The ring-buffered event tracer.

use crate::event::{EventKind, TraceEvent};
use std::cell::{Cell, RefCell};

/// Default ring capacity when [`Tracer::enable`] is given none.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Everything a finished trace carries: the surviving ring contents (in
/// seq order) and how many older events the ring dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Events still in the ring, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring before export.
    pub dropped: u64,
}

impl TraceLog {
    /// Serializes the log as JSONL, one event per line, trailing
    /// newline included. Deterministic for a deterministic event
    /// sequence.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

#[derive(Debug, Default)]
struct Inner {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

/// A lightweight structured-event recorder.
///
/// The tracer is disabled by default; every emission site goes through
/// [`Tracer::emit_with`], whose closure is only evaluated when tracing
/// is on, so a disabled tracer costs one branch on an already-loaded
/// bool. Events are ring-buffered: once `capacity` events are held, the
/// oldest are dropped (and counted) rather than growing without bound.
///
/// Interior mutability (`Cell`/`RefCell`) lets layers that only hold
/// `&HostMm` — notably the KSM scanner's read paths — emit events; the
/// tracer is `Send` but not `Sync`, matching the one-owner-per-thread
/// discipline of `HostMm` itself.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    now: Cell<u64>,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// Creates a disabled tracer (the default state).
    #[must_use]
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Turns tracing on with the given ring capacity (`None` for
    /// [`DEFAULT_CAPACITY`]). Clears any previously recorded events.
    pub fn enable(&mut self, capacity: Option<usize>) {
        let capacity = capacity.unwrap_or(DEFAULT_CAPACITY).max(1);
        self.enabled = true;
        *self.inner.borrow_mut() = Inner {
            capacity,
            ..Inner::default()
        };
    }

    /// Whether events are currently being recorded.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the simulated tick stamped onto subsequent events. A no-op
    /// when disabled.
    #[inline]
    pub fn set_now(&self, tick: u64) {
        if self.enabled {
            self.now.set(tick);
        }
    }

    /// Records the event built by `build`, which is only called when
    /// tracing is enabled — emission sites pay nothing to construct
    /// payloads for a disabled tracer.
    #[inline]
    pub fn emit_with(&self, build: impl FnOnce() -> EventKind) {
        if self.enabled {
            self.record(build());
        }
    }

    fn record(&self, kind: EventKind) {
        let mut inner = self.inner.borrow_mut();
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.events.push_back(TraceEvent {
            seq,
            tick: self.now.get(),
            kind,
        });
    }

    /// Events evicted from the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Total events recorded so far (including any later dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.inner.borrow().seq
    }

    /// Drains the tracer into a [`TraceLog`], leaving it enabled but
    /// empty.
    #[must_use]
    pub fn take_log(&self) -> TraceLog {
        let mut inner = self.inner.borrow_mut();
        TraceLog {
            events: std::mem::take(&mut inner.events).into(),
            dropped: inner.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skip(vpn: u64) -> EventKind {
        EventKind::VolatileSkip {
            space: 0,
            vpn,
            frame: vpn,
            last_write: 0,
        }
    }

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let tracer = Tracer::new();
        tracer.emit_with(|| unreachable!("closure must not run when disabled"));
        assert_eq!(tracer.recorded(), 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut tracer = Tracer::new();
        tracer.enable(Some(2));
        for vpn in 0..5 {
            tracer.emit_with(|| skip(vpn));
        }
        assert_eq!(tracer.dropped(), 3);
        let log = tracer.take_log();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].seq, 3);
        assert_eq!(log.events[1].seq, 4);
    }

    #[test]
    fn ticks_are_stamped() {
        let mut tracer = Tracer::new();
        tracer.enable(None);
        tracer.set_now(42);
        tracer.emit_with(|| skip(1));
        let log = tracer.take_log();
        assert_eq!(log.events[0].tick, 42);
        assert!(log.to_jsonl().contains("\"tick\":42"));
    }
}
