//! The bounded structured event ring.
//!
//! Metrics answer "how many / how fast"; events answer "what happened" —
//! connection lifecycles, node failovers, rebalances, frame errors. The
//! ring is **quiet by default**: recording never prints, never blocks on
//! I/O, and never grows past its capacity (oldest events are dropped and
//! counted). Consumers drain on demand — an operator tool, a test, or the
//! scrape endpoint's `pts_obs_events_*` meta-metrics.
//!
//! Recording takes a short mutex (events are rare — per-connection, not
//! per-update — so this is deliberately *not* on the lock-free budget of
//! the metrics hot path).

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number (gaps reveal drops).
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch at record time.
    pub unix_ms: u64,
    /// Static event kind, dotted like metric names (e.g. `server.conn.open`).
    pub kind: &'static str,
    /// Free-form detail (addresses, node ids, byte counts).
    pub detail: String,
}

#[derive(Debug, Default)]
struct RingState {
    events: VecDeque<Event>,
    next_seq: u64,
    recorded: u64,
    dropped: u64,
}

/// A bounded ring of [`Event`]s. See the module docs for semantics.
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    state: Mutex<RingState>,
}

/// Capacity of the process-global ring returned by [`events`].
pub const GLOBAL_RING_CAPACITY: usize = 1024;

impl EventRing {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            capacity: capacity.max(1),
            state: Mutex::new(RingState::default()),
        }
    }

    /// Records an event, evicting the oldest if the ring is full.
    pub fn record(&self, kind: &'static str, detail: impl Into<String>) {
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let seq = state.next_seq;
        state.next_seq += 1;
        state.recorded += 1;
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.dropped += 1;
            // The same sequence-gap accounting, surfaced on the scrape
            // endpoint: silent event loss is itself an observable.
            dropped_counter().inc();
        }
        state.events.push_back(Event {
            seq,
            unix_ms,
            kind,
            detail: detail.into(),
        });
    }

    /// Removes and returns every pending event, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.events.drain(..).collect()
    }

    /// Pending (undrained) event count.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Totals since process start: `(recorded, dropped)`.
    pub fn totals(&self) -> (u64, u64) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (state.recorded, state.dropped)
    }
}

/// The `obs.events.dropped` counter handle, cached once: every ring
/// eviction (any [`EventRing`], not just the global one) bumps it.
fn dropped_counter() -> crate::Counter {
    static SITE: std::sync::OnceLock<crate::Counter> = std::sync::OnceLock::new();
    *SITE.get_or_init(|| crate::registry().counter("obs.events.dropped"))
}

/// The process-global event ring (capacity [`GLOBAL_RING_CAPACITY`]).
pub fn events() -> &'static EventRing {
    static GLOBAL: std::sync::OnceLock<EventRing> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(|| EventRing::new(GLOBAL_RING_CAPACITY))
}

/// Records an event on the process-global ring.
#[inline]
pub fn event(kind: &'static str, detail: impl Into<String>) {
    events().record(kind, detail);
}

/// Drains the process-global ring.
pub fn drain_events() -> Vec<Event> {
    events().drain()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let ring = EventRing::new(3);
        for i in 0..5 {
            ring.record("test.kind", format!("e{i}"));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.totals(), (5, 2));
        let drained = ring.drain();
        assert_eq!(
            drained.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest evicted, seq gap reveals the drop"
        );
        assert_eq!(drained[0].detail, "e2");
        assert!(ring.is_empty());
    }
}
