//! Bounded admission queue and daemon counters.
//!
//! Robustness posture (DESIGN.md §5f): the **admission queue** is the one
//! response to overload. It sheds load outright once its bound is hit (a
//! typed `503` beats an unbounded queue collapsing under memory pressure),
//! and admitted work runs on the failure policy it asked for. Every
//! interaction is counted in [`ServerStats`] so `stats` can tell an
//! operator how requests ended.

use serde::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Outcome of [`AdmissionQueue::try_push`].
#[derive(Debug, PartialEq, Eq)]
pub enum Admit {
    /// Admitted.
    Queued,
    /// Rejected: the queue is at capacity.
    Shed,
    /// Rejected: the daemon is shutting down.
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC work queue with explicit load shedding.
///
/// Producers never block: past capacity a push is refused ([`Admit::Shed`])
/// so the caller can answer `503` immediately. Consumers block in
/// [`AdmissionQueue::pop`] until work arrives; after [`AdmissionQueue::close`]
/// they drain the backlog and then observe `None`.
pub struct AdmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` pending items.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits `item` unless the queue is full or closed. Never blocks.
    pub fn try_push(&self, item: T) -> Admit {
        let mut s = self.lock();
        if s.closed {
            return Admit::Closed;
        }
        if s.items.len() >= self.capacity {
            return Admit::Shed;
        }
        s.items.push_back(item);
        drop(s);
        self.available.notify_one();
        Admit::Queued
    }

    /// Blocks until an item is available and pops it; `None` once the queue
    /// is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self
                .available
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: further pushes are refused, consumers drain the
    /// backlog and then exit.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Current backlog depth.
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// The admission bound this queue was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Monotonic daemon counters, exposed by the `stats` verb.
#[derive(Default)]
pub struct ServerStats {
    /// Request lines received (including malformed ones).
    pub received: AtomicU64,
    /// Requests answered `200`.
    pub completed: AtomicU64,
    /// Requests rejected `503` by the admission queue.
    pub shed: AtomicU64,
    /// Requests answered `504` (deadline expired before or during work).
    pub timeouts: AtomicU64,
    /// Requests answered `400`.
    pub bad_requests: AtomicU64,
    /// Requests answered `500` (analysis failure or worker panic).
    pub failed: AtomicU64,
    /// Worker panics caught at the isolation boundary.
    pub panics: AtomicU64,
    /// Workers respawned after a panic.
    pub respawns: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
}

impl ServerStats {
    /// Snapshot as a JSON object for the `stats` verb.
    pub fn to_value(&self, queue_depth: usize) -> Value {
        let read = |c: &AtomicU64| Value::UInt(c.load(Ordering::Relaxed));
        Value::Object(vec![
            ("received".to_string(), read(&self.received)),
            ("completed".to_string(), read(&self.completed)),
            ("shed".to_string(), read(&self.shed)),
            ("timeouts".to_string(), read(&self.timeouts)),
            ("bad_requests".to_string(), read(&self.bad_requests)),
            ("failed".to_string(), read(&self.failed)),
            ("panics".to_string(), read(&self.panics)),
            ("respawns".to_string(), read(&self.respawns)),
            ("connections".to_string(), read(&self.connections)),
            (
                "queue_depth".to_string(),
                Value::UInt(u64::try_from(queue_depth).unwrap_or(u64::MAX)),
            ),
        ])
    }

    /// Adds one to `counter`.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn queue_sheds_past_capacity_and_drains_after_close() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.try_push(1), Admit::Queued);
        assert_eq!(q.try_push(2), Admit::Queued);
        assert_eq!(q.try_push(3), Admit::Shed);
        q.close();
        assert_eq!(q.try_push(4), Admit::Closed);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None, "closed and drained");
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(AdmissionQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.try_push(9), Admit::Queued);
        assert_eq!(h.join().unwrap(), Some(9));
    }

    #[test]
    fn stats_snapshot_carries_counters_and_depth() {
        let s = ServerStats::default();
        ServerStats::bump(&s.completed);
        ServerStats::bump(&s.shed);
        ServerStats::bump(&s.shed);
        let v = s.to_value(3);
        let completed: u64 = v.field("completed").unwrap();
        assert_eq!(completed, 1);
        let shed: u64 = v.field("shed").unwrap();
        assert_eq!(shed, 2);
        let depth: u64 = v.field("queue_depth").unwrap();
        assert_eq!(depth, 3);
    }
}
