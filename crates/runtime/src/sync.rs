//! The runtime's locking over `std::sync`: [`lock`], which recovers a
//! poisoned guard, and [`Fifo`], the bounded closeable queue that feeds
//! each shard worker.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Items a [`Fifo`] holds before [`Fifo::push`] parks its producer. On the
/// served wire_hot benchmark (2 shards, 2 vCPUs) unbounded shard queues
/// reached 1890 commands; with this bound and the server's events handed
/// off as they are published, its peak RSS was 31.7–32.9 MiB over ten
/// runs, against 430–497 MiB before, and throughput, ack latency and CPU
/// per sample stayed inside the unbounded build's spread.
pub(crate) const CAPACITY: usize = 64;

/// Lock `mutex`, recovering the guard when an earlier holder panicked: a
/// panic on one connection or worker must not turn every later lock into
/// a second one.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded, closeable multi-producer, single-consumer FIFO: a
/// `Mutex<VecDeque>` plus two `Condvar`s, one that parks the consumer
/// while the queue is empty and one that parks producers while it holds
/// [`CAPACITY`] items. A producer parked on a full queue is how a shard
/// that falls behind pushes back on the connection feeding it.
///
/// Not `std::sync::mpsc`: as the shard command queues, an `mpsc` channel
/// raised the served wire_hot benchmark's ack p50 from 0.165 to 0.192 ms
/// (+16%) and its CPU per sample from 241 to 261 ns (+8%), each worse in
/// 7 of 9 alternating pairs (2 vCPUs), while a queue of this design
/// stayed within ±3% on every metric.
pub(crate) struct Fifo<T> {
    state: Mutex<Queue<T>>,
    /// Parks the consumer while the queue is empty.
    ready: Condvar,
    /// Parks producers while the queue is full.
    room: Condvar,
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
                items: VecDeque::with_capacity(CAPACITY),
                open: true,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
        }
    }

    /// Append `item`, parking while the queue is full, and wake the
    /// consumer; hands `item` back when the queue is closed, also when it
    /// closes while the producer is parked.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        let mut queue = self
            .room
            .wait_while(lock(&self.state), |q| q.open && q.items.len() >= CAPACITY)
            .unwrap_or_else(PoisonError::into_inner);
        if !queue.open {
            return Err(item);
        }
        let was_empty = queue.items.is_empty();
        queue.items.push_back(item);
        drop(queue);
        // The consumer parks only on an empty queue; a notify is a
        // syscall even with nobody waiting.
        if was_empty {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Refuse further pushes and release parked producers. The consumer
    /// still runs what is queued, then returns from [`Fifo::consume`].
    pub(crate) fn close(&self) {
        lock(&self.state).open = false;
        self.ready.notify_one();
        self.room.notify_all();
    }

    /// Run `job` on each item in order until the queue is closed and
    /// empty. When the consumer leaves, by a panic in `job` too, the queue
    /// closes and drops what it still holds: nothing would run it, and
    /// whoever waits on a dropped item (a barrier's reply channel) fails
    /// instead of blocking. Parked producers wake and get their items
    /// back.
    pub(crate) fn consume(&self, mut job: impl FnMut(T)) {
        struct Leave<'a, T>(&'a Fifo<T>);
        impl<T> Drop for Leave<'_, T> {
            fn drop(&mut self) {
                let mut queue = lock(&self.0.state);
                queue.open = false;
                let orphans = std::mem::take(&mut queue.items);
                // Unlock first: dropping an item wakes whoever waits on it.
                drop(queue);
                self.0.room.notify_all();
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
        let mut queue = self
            .ready
            .wait_while(lock(&self.state), |q| q.items.is_empty() && q.open)
            .unwrap_or_else(PoisonError::into_inner);
        let was_full = queue.items.len() >= CAPACITY;
        let item = queue.items.pop_front();
        drop(queue);
        // Producers park only on a full queue. Waking all of them keeps
        // one that loses the race for this slot from sleeping past the
        // next one.
        if was_full {
            self.room.notify_all();
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::Duration;

    /// Long enough for a runnable thread to get scheduled and park.
    const SETTLE: Duration = Duration::from_millis(50);

    /// Long enough that a missed wake-up fails the test instead of
    /// hanging it.
    const DEADLINE: Duration = Duration::from_secs(10);

    /// Fill `fifo` to capacity with `0, 1, ...`.
    fn fill(fifo: &Fifo<u64>) {
        for v in 0..CAPACITY as u64 {
            fifo.push(v).unwrap();
        }
    }

    /// Push `item` on a thread of its own; the channel carries the outcome.
    fn push_in_thread<T: Send + 'static>(
        fifo: &Arc<Fifo<T>>,
        item: T,
    ) -> mpsc::Receiver<Result<(), T>> {
        let (done, outcome) = mpsc::channel();
        let fifo = Arc::clone(fifo);
        thread::spawn(move || {
            let _ = done.send(fifo.push(item));
        });
        outcome
    }

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

    /// More items than the queue holds pass through a running consumer;
    /// after `close`, pushes are refused and the consumer still drains
    /// everything pushed before.
    #[test]
    fn close_refuses_pushes_but_lets_consumers_drain() {
        let fifo = Arc::new(Fifo::new());
        let consumer = {
            let fifo = Arc::clone(&fifo);
            thread::spawn(move || {
                let mut sum = 0;
                fifo.consume(|v| sum += v);
                sum
            })
        };
        for v in 1..=100u64 {
            fifo.push(v).unwrap();
        }
        fifo.close();
        assert_eq!(fifo.push(7), Err(7));
        assert_eq!(consumer.join().unwrap(), 5050);
    }

    #[test]
    fn a_push_parks_at_capacity_until_a_pop() {
        let fifo = Arc::new(Fifo::new());
        fill(&fifo);
        let pushed = push_in_thread(&fifo, 99);
        assert!(
            pushed.recv_timeout(SETTLE).is_err(),
            "a push past capacity did not park"
        );
        assert_eq!(fifo.pop(), Some(0));
        assert_eq!(pushed.recv_timeout(DEADLINE), Ok(Ok(())));
        fifo.close();
        let mut seen = Vec::new();
        fifo.consume(|v| seen.push(v));
        assert_eq!(seen.len(), CAPACITY);
        assert_eq!(seen.last(), Some(&99));
    }

    /// A producer parked on a full queue gets its item back, instead of
    /// blocking forever, when the consumer dies.
    #[test]
    fn a_parked_producer_fails_when_its_consumer_panics() {
        let fifo = Arc::new(Fifo::new());
        let (release, gate) = mpsc::channel::<()>();
        let consumer = {
            let fifo = Arc::clone(&fifo);
            thread::spawn(move || {
                fifo.consume(|_: u64| {
                    let _ = gate.recv();
                    panic!("fatal item");
                })
            })
        };
        // The consumer holds one item inside its job; fill behind it.
        fifo.push(u64::MAX).unwrap();
        while !lock(&fifo.state).items.is_empty() {
            thread::yield_now();
        }
        fill(&fifo);
        let pushed = push_in_thread(&fifo, 99);
        assert!(
            pushed.recv_timeout(SETTLE).is_err(),
            "a push past capacity did not park"
        );
        release.send(()).unwrap();
        assert!(consumer.join().is_err());
        assert_eq!(pushed.recv_timeout(DEADLINE), Ok(Err(99)));
    }

    /// A barrier pushed behind a full queue parks, then runs after every
    /// earlier item once the consumer starts.
    #[test]
    fn a_barrier_behind_a_full_queue_completes() {
        enum Item {
            Work(u64),
            Barrier(mpsc::Sender<u64>),
        }
        let fifo = Arc::new(Fifo::new());
        for v in 0..CAPACITY as u64 {
            assert!(fifo.push(Item::Work(v)).is_ok());
        }
        let (reply, replied) = mpsc::channel();
        let pushed = push_in_thread(&fifo, Item::Barrier(reply));
        assert!(
            pushed.recv_timeout(SETTLE).is_err(),
            "a barrier past capacity did not park"
        );
        let consumer = {
            let fifo = Arc::clone(&fifo);
            thread::spawn(move || {
                let mut sum = 0;
                fifo.consume(|item| match item {
                    Item::Work(v) => sum += v,
                    Item::Barrier(reply) => {
                        let _ = reply.send(sum);
                    }
                })
            })
        };
        let n = CAPACITY as u64;
        assert_eq!(replied.recv_timeout(DEADLINE), Ok(n * (n - 1) / 2));
        assert!(pushed.recv_timeout(DEADLINE).unwrap().is_ok());
        fifo.close();
        consumer.join().unwrap();
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
