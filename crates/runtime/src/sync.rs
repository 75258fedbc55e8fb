//! The runtime's locking over `std::sync`: [`lock`], which recovers a
//! poisoned guard, and [`Fifo`], the closeable queue that feeds each shard
//! worker.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Lock `mutex`, recovering the guard when an earlier holder panicked: a
/// panic on one connection or worker must not turn every later lock into
/// a second one.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A closeable multi-producer, single-consumer FIFO: a `Mutex<VecDeque>`
/// plus one `Condvar` that parks the consumer while the queue is empty.
///
/// Not `std::sync::mpsc`: as the shard command queues, an `mpsc` channel
/// raised the served wire_hot benchmark's ack p50 from 0.165 to 0.192 ms
/// (+16%) and its CPU per sample from 241 to 261 ns (+8%), each worse in
/// 7 of 9 alternating pairs (2 vCPUs), while a queue of this design
/// stayed within ±3% on every metric.
pub(crate) struct Fifo<T> {
    state: Mutex<Queue<T>>,
    ready: Condvar,
}

struct Queue<T> {
    items: VecDeque<T>,
    /// Pushes are refused once this is false.
    open: bool,
}

impl<T> Fifo<T> {
    /// An open queue that one thread will drain with [`Fifo::consume`].
    pub(crate) fn new() -> Self {
        Fifo {
            state: Mutex::new(Queue {
                items: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
        }
    }

    /// Append `item` and wake the consumer; hands `item` back when the
    /// queue is closed.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        let mut queue = lock(&self.state);
        if !queue.open {
            return Err(item);
        }
        queue.items.push_back(item);
        drop(queue);
        self.ready.notify_one();
        Ok(())
    }

    /// Refuse further pushes. The consumer still runs what is queued,
    /// then returns from [`Fifo::consume`].
    pub(crate) fn close(&self) {
        lock(&self.state).open = false;
        self.ready.notify_one();
    }

    /// Run `job` on each item in order until the queue is closed and
    /// empty. When the consumer leaves, by a panic in `job` too, the queue
    /// closes and drops what it still holds: nothing would run it, and
    /// whoever waits on a dropped item (a barrier's reply channel) fails
    /// instead of blocking.
    pub(crate) fn consume(&self, mut job: impl FnMut(T)) {
        struct Leave<'a, T>(&'a Fifo<T>);
        impl<T> Drop for Leave<'_, T> {
            fn drop(&mut self) {
                let mut queue = lock(&self.0.state);
                queue.open = false;
                let orphans = std::mem::take(&mut queue.items);
                // Unlock first: dropping an item wakes whoever waits on it.
                drop(queue);
                drop(orphans);
            }
        }
        let _leave = Leave(self);
        // `pop` returns before `job` runs: the lock is never held by a job.
        while let Some(item) = self.pop() {
            job(item);
        }
    }

    /// The oldest item, waiting while the queue is empty and open; `None`
    /// once it is closed and empty.
    fn pop(&self) -> Option<T> {
        self.ready
            .wait_while(lock(&self.state), |q| q.items.is_empty() && q.open)
            .unwrap_or_else(PoisonError::into_inner)
            .items
            .pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::thread;

    #[test]
    fn items_come_out_in_push_order() {
        let fifo = Fifo::new();
        for i in 0..10 {
            fifo.push(i).unwrap();
        }
        fifo.close();
        let mut seen = Vec::new();
        fifo.consume(|i| seen.push(i));
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn close_refuses_pushes_but_lets_consumers_drain() {
        let fifo = Arc::new(Fifo::new());
        for v in 1..=100u64 {
            fifo.push(v).unwrap();
        }
        let consumer = {
            let fifo = Arc::clone(&fifo);
            thread::spawn(move || {
                let mut sum = 0;
                fifo.consume(|v| sum += v);
                sum
            })
        };
        fifo.close();
        assert_eq!(fifo.push(7), Err(7));
        assert_eq!(consumer.join().unwrap(), 5050);
    }

    /// A consumer that dies drops what it never ran, so a reply channel
    /// queued behind the fatal item fails at once, and later pushes are
    /// refused.
    #[test]
    fn a_dead_consumer_drops_its_queue() {
        let fifo = Arc::new(Fifo::new());
        let (reply, replied) = mpsc::channel::<()>();
        fifo.push(None).unwrap();
        fifo.push(Some(reply)).unwrap();
        let consumer = {
            let fifo = Arc::clone(&fifo);
            thread::spawn(move || fifo.consume(|item| assert!(item.is_some(), "fatal item")))
        };
        assert!(consumer.join().is_err());
        assert_eq!(replied.recv(), Err(mpsc::RecvError));
        assert!(fifo.push(None).is_err());
    }
}
