//! The flight recorder: a bounded ring buffer of recent engine events.
//!
//! A [`FlightRecorder`] keeps the last `capacity` [`SimEvent`]s of one
//! shard. It is plain owned data (no shared handle, so the shard owning
//! it stays `Send`): the serving fleet feeds it at the epoch barrier, in
//! the same pass that feeds telemetry. Its contents serialize into a
//! [`FlightSnapshot`] so a shard checkpoint can carry them — after a
//! kill/restore the buffer resumes from the checkpointed contents and,
//! the replay being deterministic, ends up byte-identical to an
//! undisturbed run, while the pre-kill contents survive as a post-mortem.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use taskdrop_sim::SimEvent;

/// Serialized flight-recorder contents (a [`FlightRecorder::snapshot`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightSnapshot {
    /// The ring capacity at snapshot time.
    pub capacity: usize,
    /// Recorded events, oldest first (at most `capacity`).
    pub events: Vec<SimEvent>,
}

/// One bounded event ring. Strictly read-only with respect to the
/// engine — recording changes no outcome.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<SimEvent>,
}

impl FlightRecorder {
    /// An empty recorder keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a flight recorder needs capacity for at least one event");
        FlightRecorder { capacity, events: VecDeque::with_capacity(capacity) }
    }

    /// The ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (at most [`FlightRecorder::capacity`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded (or everything was cleared).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<SimEvent> {
        self.events.iter().copied().collect()
    }

    /// Records one event, evicting the oldest at capacity.
    pub fn record(&mut self, ev: &SimEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(*ev);
    }

    /// Serializable copy of the current contents.
    #[must_use]
    pub fn snapshot(&self) -> FlightSnapshot {
        FlightSnapshot { capacity: self.capacity, events: self.events() }
    }

    /// Replaces the buffer (and capacity) with a snapshot's contents —
    /// the restore half of checkpointing.
    pub fn restore(&mut self, snapshot: &FlightSnapshot) {
        self.capacity = snapshot.capacity.max(1);
        self.events = snapshot.events.iter().copied().collect();
        while self.events.len() > self.capacity {
            self.events.pop_front();
        }
    }

    /// Drops all recorded events, keeping the capacity.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskdrop_pmf::Tick;

    fn round(now: Tick) -> SimEvent {
        SimEvent::MappingRound { now }
    }

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let mut rec = FlightRecorder::new(3);
        for t in 0..5 {
            rec.record(&round(t));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.events(), vec![round(2), round(3), round(4)]);
    }

    #[test]
    fn snapshot_restore_roundtrips() {
        let mut rec = FlightRecorder::new(4);
        rec.record(&round(1));
        rec.record(&round(2));
        let snap = rec.snapshot();
        rec.record(&round(3));
        assert_eq!(rec.len(), 3);
        rec.restore(&snap);
        assert_eq!(rec.events(), vec![round(1), round(2)]);
        assert_eq!(rec.capacity(), 4);
    }

    #[test]
    fn snapshot_survives_serde() {
        let mut rec = FlightRecorder::new(2);
        rec.record(&round(7));
        let json = serde_json::to_string(&rec.snapshot()).expect("serializable");
        let back: FlightSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, rec.snapshot());
    }
}
