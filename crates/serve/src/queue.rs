//! Admission queue: first in, first out.
//!
//! Every entry gets a monotonically increasing arrival sequence number at
//! [`AdmissionQueue::push`]; [`AdmissionQueue::pop_next`] takes the oldest,
//! so a request waits for the backlog that existed when it arrived and
//! nothing else (no starvation). The queue is plain data; the serving
//! runtime wraps it in a mutex and pairs it with a condvar.

use std::collections::VecDeque;

/// Entries retained in the admission-order log; beyond it the log stops
/// recording, so an unbounded request stream cannot grow queue memory.
const POP_LOG_CAP: usize = 65_536;

/// FIFO admission queue.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    pending: VecDeque<(u64, T)>,
    next_seq: u64,
    /// Arrival sequence numbers in the order they were dequeued (first
    /// `POP_LOG_CAP` admissions) — the record fairness assertions (and
    /// starvation debugging) read.
    pop_log: Vec<u64>,
}

impl<T> Default for AdmissionQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> AdmissionQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        AdmissionQueue { pending: VecDeque::new(), next_seq: 0, pop_log: Vec::new() }
    }

    /// Enqueues an item, assigning it the next arrival sequence number
    /// (returned, so callers can correlate admission order with arrival
    /// order).
    pub fn push(&mut self, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back((seq, item));
        seq
    }

    /// Dequeues the oldest item, with its arrival sequence number.
    pub fn pop_next(&mut self) -> Option<(u64, T)> {
        let entry = self.pending.pop_front()?;
        if self.pop_log.len() < POP_LOG_CAP {
            self.pop_log.push(entry.0);
        }
        Some(entry)
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Arrival sequence numbers in admission order (first
    /// `POP_LOG_CAP` admissions only).
    pub fn pop_order(&self) -> &[u64] {
        &self.pop_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_arrival_order() {
        let mut q = AdmissionQueue::new();
        for i in 0..10u64 {
            assert_eq!(q.push(i * 7), i);
        }
        // Interleave: pops between pushes still take the oldest.
        assert_eq!(q.pop_next(), Some((0, 0)));
        assert_eq!(q.push(70), 10);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_next().map(|(s, _)| s)).collect();
        assert_eq!(order, (1..=10).collect::<Vec<u64>>());
        assert!(q.is_empty());
        assert_eq!(q.pop_order(), (0..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn pop_log_stops_at_its_cap_and_the_queue_keeps_serving() {
        let mut q = AdmissionQueue::new();
        for i in 0..POP_LOG_CAP as u64 + 3 {
            q.push(());
            assert_eq!(q.pop_next(), Some((i, ())));
        }
        assert_eq!(q.pop_order().len(), POP_LOG_CAP);
        assert_eq!(q.pop_order().last(), Some(&(POP_LOG_CAP as u64 - 1)));
    }
}
