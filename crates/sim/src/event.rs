//! The discrete-event queue.

use crate::checkpoint::EventEntry;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use taskdrop_model::MachineId;
use taskdrop_pmf::Tick;

/// An engine event.
///
/// `Completion` and `DeadlineKill` carry the machine's *epoch* — a counter
/// incremented every time a new task starts — so events belonging to an
/// already-finished or killed task are recognised as stale and ignored.
///
/// Serializable because pending events are part of a
/// [`Checkpoint`](crate::Checkpoint): failure timelines are pre-generated at
/// construction and in-flight executions carry their realised finish times,
/// so the outstanding event set cannot be recomputed from the rest of the
/// state.
///
/// The derived order only separates [`EventEntry`] values with equal time
/// and sequence number. The engine produces none: every push takes a fresh
/// number until the counter saturates, which only a forged checkpoint can
/// bring about. Past that, ties fall back to this order, which is still
/// total and deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Event {
    /// Task `workload_index` arrives.
    Arrival(usize),
    /// The task started in this epoch on this machine completes.
    Completion(MachineId, u64),
    /// The task started in this epoch reaches its deadline while running
    /// and is reactively killed (no value in finishing late).
    DeadlineKill(MachineId, u64),
    /// The machine fails: its running task is lost, its queue freezes.
    MachineFailure(MachineId),
    /// The machine comes back from repair.
    MachineRepair(MachineId),
}

/// Min-heap of [`EventEntry`] values, ordered by `(time, seq, event)`. The
/// monotone sequence number makes ordering total and FIFO among equal
/// timestamps, keeping the engine deterministic.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<EventEntry>>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at `time`. The sequence number saturates at
    /// `u64::MAX` (see [`Event`] for the order of ties past it).
    pub fn push(&mut self, time: Tick, event: Event) {
        self.seq = self.seq.saturating_add(1);
        self.heap.push(Reverse(EventEntry { time, seq: self.seq, event }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Tick, Event)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Time of the earliest event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<Tick> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Snapshot for checkpointing: every outstanding entry in pop order,
    /// plus the live sequence counter. Sorting makes the snapshot canonical
    /// — two queues with identical pending events and counters produce
    /// identical snapshots even if their heap arrays are arranged
    /// differently.
    pub fn snapshot(&self) -> (Vec<EventEntry>, u64) {
        let mut entries: Vec<EventEntry> = self.heap.iter().map(|Reverse(e)| *e).collect();
        entries.sort_unstable();
        (entries, self.seq)
    }

    /// Rebuilds a queue from a [`EventQueue::snapshot`]. Pop order — and
    /// every future FIFO tie-break, because the sequence counter resumes
    /// where it left off — is identical to the queue that was snapshotted.
    pub fn from_snapshot(entries: &[EventEntry], seq: u64) -> Self {
        let heap = entries.iter().copied().map(Reverse).collect();
        EventQueue { heap, seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::Arrival(2));
        q.push(10, Event::Arrival(0));
        q.push(20, Event::Completion(MachineId(1), 4));
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, Event::Arrival(0))));
        assert_eq!(q.pop(), Some((20, Event::Completion(MachineId(1), 4))));
        assert_eq!(q.pop(), Some((30, Event::Arrival(2))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut q = EventQueue::new();
        q.push(5, Event::Arrival(7));
        q.push(5, Event::DeadlineKill(MachineId(0), 1));
        q.push(5, Event::Arrival(8));
        assert_eq!(q.pop(), Some((5, Event::Arrival(7))));
        assert_eq!(q.pop(), Some((5, Event::DeadlineKill(MachineId(0), 1))));
        assert_eq!(q.pop(), Some((5, Event::Arrival(8))));
    }

    #[test]
    fn snapshot_roundtrip_preserves_pop_order_and_ties() {
        let mut q = EventQueue::new();
        q.push(5, Event::Arrival(7));
        q.push(2, Event::Completion(MachineId(1), 9));
        q.push(5, Event::DeadlineKill(MachineId(0), 1));
        let (entries, seq) = q.snapshot();
        assert_eq!(seq, 3);
        assert_eq!(entries.len(), 3);
        // Canonical order: sorted by (time, seq).
        assert_eq!(entries[0].time, 2);
        let mut restored = EventQueue::from_snapshot(&entries, seq);
        // A post-restore push ties at t=5 and must lose to both originals.
        restored.push(5, Event::Arrival(8));
        q.push(5, Event::Arrival(8));
        loop {
            let (a, b) = (q.pop(), restored.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn len_tracks_pushes() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(1, Event::Arrival(0));
        q.push(2, Event::Arrival(1));
        assert_eq!(q.peek_time(), Some(1));
        q.pop();
        assert_eq!(q.peek_time(), Some(2));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }
}
