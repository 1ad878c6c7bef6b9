//! A bounded multi-producer / multi-consumer job queue on std primitives.
//!
//! This is the classic two-condvar bounded buffer: `push` blocks while the
//! queue is full, `pop` blocks while it is empty, and `close` wakes everyone
//! so consumers drain the backlog and then observe `None`. std's bounded
//! channel was measured in its place and lost: `std::sync::mpsc::sync_channel`,
//! with the workers sharing the receiver behind a `Mutex`, cut specbench's
//! `served_small` `queries_per_s` by 9.2% and 5.8% and raised its
//! `specqp_ms_p50` by 11.6% and 3.2% (two rounds of 10 alternating pairs,
//! shared 2-core container).
//!
//! Producers that must not block — an admission-control front-end shedding
//! load instead of queueing unboundedly — use [`BoundedQueue::try_push`],
//! which fails immediately when the queue is full.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a non-blocking push was refused. The rejected item
/// is handed back so the producer can retry, reroute or drop it explicitly.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue held `capacity` items.
    Full(T),
    /// The queue was closed; it will never accept items again.
    Closed(T),
}

impl<T> TryPushError<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            TryPushError::Full(item) | TryPushError::Closed(item) => item,
        }
    }
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO queue safe to share (by reference or `Arc`) between any
/// number of producer and consumer threads.
///
/// # Drain-on-close contract
///
/// [`close`](BoundedQueue::close) is a *graceful* shutdown signal, not an
/// abort: items already queued at close time stay queued and are handed out
/// by [`pop`](BoundedQueue::pop) in FIFO order before consumers observe
/// `None`. Only *new* pushes are refused after close. A service draining
/// in-flight requests on shutdown therefore needs no extra machinery — close
/// the queue, join the consumers, and every accepted item has been
/// processed. Nothing queued is ever silently dropped; the only way an item
/// dies unprocessed is a consumer dropping it after `pop` returns it.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue length.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.state.lock().expect("queue poisoned").items.is_empty()
    }

    /// `true` once [`close`](BoundedQueue::close) has been called — new
    /// pushes are refused, queued items still drain.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue poisoned").closed
    }

    /// Blocks until there is room, then enqueues `item`. Returns `Err(item)`
    /// if the queue was closed in the meantime.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue poisoned");
        while state.items.len() >= self.capacity && !state.closed {
            state = self.not_full.wait(state).expect("queue poisoned");
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Non-blocking push: enqueues `item` only if a slot is free right now.
    ///
    /// This is the admission-control primitive: a front-end that must bound
    /// latency calls `try_push` and converts [`TryPushError::Full`] into an
    /// explicit reject-with-retry-after instead of queueing unboundedly.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and dequeues it. Returns `None`
    /// once the queue is closed *and* drained — the consumer shutdown
    /// signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
    }

    /// Closes the queue: future pushes (blocking or not) fail, and `pop`
    /// returns `None` once the backlog drains — see the type-level
    /// *drain-on-close contract*.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_none() {
        let q = BoundedQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(7), "backlog drains after close");
        assert_eq!(q.pop(), None);
        assert_eq!(q.push(8), Err(8), "push after close fails");
    }

    #[test]
    fn push_blocks_until_pop_frees_a_slot() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1).is_ok())
        };
        // The producer is blocked on the full queue; free a slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn try_push_never_blocks() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        // Full: rejected immediately, item handed back.
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()), "freed slot accepts again");
        q.close();
        assert_eq!(q.try_push(4), Err(TryPushError::Closed(4)));
        assert_eq!(TryPushError::Full(7).into_inner(), 7);
    }

    #[test]
    fn mpmc_transfers_every_item_once() {
        let q = Arc::new(BoundedQueue::new(8));
        const ITEMS: usize = 2_000;
        const CONSUMERS: usize = 4;
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..ITEMS / 2 {
                        q.push(p * (ITEMS / 2) + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
    }
}
