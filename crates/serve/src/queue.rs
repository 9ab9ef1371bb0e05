//! A bounded MPMC queue with explicit rejection — the admission-control
//! heart of the server.
//!
//! The acceptor *tries* to push; when the queue is at capacity the push
//! fails immediately and the caller sheds the connection with a typed
//! `OVERLOADED` response. Nothing ever blocks on the queue, in either
//! direction: memory under overload is bounded by `capacity` accepted
//! sockets, the accept loop keeps answering (with rejections) no matter
//! how far offered load exceeds capacity, and an idle consumer parks on
//! its own wake pipe (see `server`) rather than on the queue.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Result of a [`Bounded::try_pop`].
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue is closed *and* drained; the worker should exit.
    Closed,
    /// Nothing is queued right now.
    Empty,
}

struct Inner<T> {
    q: VecDeque<T>,
    closed: bool,
}

/// The bounded queue. Neither `try_push` nor `try_pop` ever blocks.
pub struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    cap: usize,
}

impl<T> Bounded<T> {
    /// Creates a queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be at least 1");
        Bounded {
            inner: Mutex::new(Inner {
                q: VecDeque::with_capacity(cap),
                closed: false,
            }),
            cap,
        }
    }

    /// Enqueues `item`, returning the depth after the push, or gives the
    /// item back when the queue is full or closed (the caller sheds it).
    pub fn try_push(&self, item: T) -> Result<usize, T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed || inner.q.len() >= self.cap {
            return Err(item);
        }
        inner.q.push_back(item);
        Ok(inner.q.len())
    }

    /// Dequeues one item when one is ready. After [`close`], the
    /// remaining items are still handed out; only an empty closed queue
    /// reports [`Pop::Closed`].
    ///
    /// [`close`]: Bounded::close
    pub fn try_pop(&self) -> Pop<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.q.pop_front() {
            Some(item) => Pop::Item(item),
            None if inner.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Closes the queue: future pushes fail, and poppers exit once the
    /// backlog is drained.
    pub fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
    }

    /// Current depth (racy, for gauges only).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).q.len()
    }

    /// Whether the queue is empty (racy, for gauges only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let q = Bounded::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_drains_then_reports_closed() {
        let q = Bounded::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(3), "closed queue admits nothing");
        assert!(matches!(q.try_pop(), Pop::Item(1)));
        assert!(matches!(q.try_pop(), Pop::Item(2)));
        assert!(matches!(q.try_pop(), Pop::Closed));
    }

    #[test]
    fn pop_on_an_open_empty_queue_reports_empty() {
        let q: Bounded<u32> = Bounded::new(1);
        assert!(matches!(q.try_pop(), Pop::Empty));
    }

    #[test]
    fn cross_thread_handoff() {
        let q = std::sync::Arc::new(Bounded::new(8));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut got = 0u32;
                loop {
                    match q.try_pop() {
                        Pop::Item(_) => got += 1,
                        Pop::Closed => return got,
                        Pop::Empty => std::thread::yield_now(),
                    }
                }
            })
        };
        let mut pushed = 0;
        while pushed < 100 {
            if q.try_push(pushed).is_ok() {
                pushed += 1;
            }
        }
        q.close();
        assert_eq!(consumer.join().unwrap(), 100);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = Bounded::<u32>::new(0);
    }
}
