//! The pending-event set of the discrete-event engine.
//!
//! [`EventQueue`] is an indexed binary heap keyed on
//! `(SimTime, sequence)`. The sequence number is a monotonically
//! increasing insertion counter, which gives **FIFO ordering among
//! same-timestamp events** — without it, the relative order of
//! simultaneous events would depend on heap internals, and the
//! simulation would no longer be reproducible across refactorings.
//!
//! The heap orders 24-byte `(time, seq, slot)` keys only; each payload
//! is written once into a free-listed slab and moved out once by
//! [`EventQueue::pop`], so a sift moves a key, never an event. Freed
//! slots are reused, so once the slab has reached the peak number of
//! pending events a push/pop cycle does not allocate.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled occurrence: an event payload plus its firing time.
#[derive(Clone, Debug)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Insertion sequence number; ties on `time` fire in insertion order.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

/// A heap entry: the ordering key of one pending event and the slab
/// slot that holds its payload.
#[derive(Debug)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: usize,
}

impl Key {
    /// `(time, seq)` as one integer: the heap's comparisons become a
    /// single 128-bit compare with no branch on the `time` tie. It is
    /// computed, not stored: a `u128` field would align the key to 16
    /// and pad it to 32 bytes.
    fn rank(&self) -> u128 {
        (self.time.as_micros() as u128) << 64 | self.seq as u128
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.rank().cmp(&self.rank())
    }
}

/// Min-priority queue of future events, ordered by `(time, insertion)`.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// Payloads by slot; `None` marks a slot on the free list.
    slab: Vec<Option<E>>,
    free: Vec<usize>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with space for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        self.heap.push(Key { time, seq, slot });
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let Key { time, seq, slot } = self.heap.pop()?;
        let event = self.slab[slot].take().expect("heap key points at a free slot");
        self.free.push(slot);
        Some(Scheduled { time, seq, event })
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Drop all pending events (the sequence counter keeps advancing, so
    /// determinism across a clear is preserved).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2), ());
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn clear_preserves_sequence_counter() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn heap_key_is_at_most_24_bytes() {
        assert!(std::mem::size_of::<Key>() <= 24, "{} B", std::mem::size_of::<Key>());
    }

    #[test]
    fn warm_push_pop_reuses_freed_slots() {
        // Hold 64 pending events, then run hold cycles (pop the earliest,
        // push one later): the slab must stay at the peak pending count.
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.push(SimTime::from_micros(i * 7 % 64), i);
        }
        let peak = q.slab.len();
        assert_eq!(peak, 64);
        for i in 64..10_000u64 {
            let s = q.pop().unwrap();
            q.push(s.time + SimDuration::from_micros(1 + i % 97), i);
            assert_eq!(q.slab.len(), peak, "slab grew past peak pending");
        }
        assert_eq!(q.len(), 64);
        assert_eq!(q.free.len(), 0);
    }
}
