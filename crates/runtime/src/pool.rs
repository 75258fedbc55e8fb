//! A work-sharing thread pool.
//!
//! Persistent worker threads consume jobs from one shared FIFO — the
//! substrate on which application-level tasks run. Parallel *loops* (the
//! OpenMP-style construct the paper's applications are built from) use the
//! scoped implementation in [`crate::loops`], which can borrow from the
//! caller's stack; this pool serves free-standing `'static` jobs and keeps
//! the live CPU-usage counter (paper Fig. 3) up to date.

use crate::cpustat::CpuUsage;
use crate::sync::{lock, Fifo};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    jobs: Fifo<Job>,
    usage: Arc<CpuUsage>,
    pending: AtomicUsize,
    /// Threads currently blocked in [`ThreadPool::wait_idle`]. Lets the
    /// worker fast path skip the idle lock entirely when nobody waits —
    /// the common case when jobs trickle in one at a time.
    waiters: AtomicUsize,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
}

/// A fixed-size pool of worker threads executing submitted jobs.
pub struct ThreadPool {
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers.
    ///
    /// # Panics
    /// Panics when `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread pool needs at least one worker");
        let shared = Arc::new(Shared {
            jobs: Fifo::new(threads),
            usage: CpuUsage::new(),
            pending: AtomicUsize::new(0),
            waiters: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let sh = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("par-runtime-worker-{i}"))
                    .spawn(move || {
                        sh.jobs.consume(|job| {
                            sh.usage.enter();
                            // A panicking job must not take its worker, the
                            // usage count or the pending count with it; the
                            // panic hook has already reported it.
                            let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
                            sh.usage.leave();
                            // SeqCst pairs with wait_idle's registration:
                            // either this decrement-to-zero sees the
                            // registered waiter, or the waiter's pending
                            // check sees the zero (store-buffer case ruled
                            // out by the single total order).
                            if sh.pending.fetch_sub(1, Ordering::SeqCst) == 1
                                && sh.waiters.load(Ordering::SeqCst) > 0
                            {
                                let _g = lock(&sh.idle_lock);
                                sh.idle_cv.notify_all();
                            }
                        })
                    })
                    .expect("failed to spawn pool worker"),
            );
        }
        ThreadPool { workers, shared }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The live CPU-usage counter updated by the workers.
    pub fn usage(&self) -> Arc<CpuUsage> {
        Arc::clone(&self.shared.usage)
    }

    /// Submit a job for execution. A job that panics counts as finished:
    /// its worker stays in the pool and the panic hook reports the panic.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        if self.shared.jobs.push(Box::new(job)).is_err() {
            panic!("pool workers exited early");
        }
    }

    /// Number of jobs submitted but not yet finished.
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }

    /// Block until every submitted job has finished, by returning or by
    /// panicking.
    ///
    /// Condvar-based: the waiter parks on the pool's idle condition
    /// variable and is woken by the worker that completes the last pending
    /// job — no polling, no spinning, no CPU burned while quiescing.
    /// Workers only touch the idle lock when a waiter is registered, so
    /// the per-job completion path stays lock-free when nothing waits.
    pub fn wait_idle(&self) {
        if self.shared.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Register before re-checking: the worker reads `waiters` *after*
        // its decrement, so (SeqCst) either it sees the registration and
        // notifies, or the re-check below sees pending == 0.
        self.shared.waiters.fetch_add(1, Ordering::SeqCst);
        let guard = self
            .shared
            .idle_cv
            .wait_while(lock(&self.shared.idle_lock), |_| {
                self.shared.pending.load(Ordering::SeqCst) != 0
            })
            .unwrap_or_else(PoisonError::into_inner);
        drop(guard);
        self.shared.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the queue stops the workers after draining.
        self.shared.jobs.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn wait_idle_on_empty_pool_returns() {
        let pool = ThreadPool::new(1);
        pool.wait_idle();
    }

    #[test]
    fn usage_returns_to_zero() {
        let pool = ThreadPool::new(2);
        let usage = pool.usage();
        for _ in 0..10 {
            pool.execute(std::thread::yield_now);
        }
        pool.wait_idle();
        assert_eq!(usage.active(), 0);
        assert!(usage.peak() >= 1);
    }

    #[test]
    fn concurrent_waiters_all_release() {
        let pool = Arc::new(ThreadPool::new(2));
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..200 {
            let d = Arc::clone(&done);
            pool.execute(move || {
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    pool.wait_idle();
                    assert_eq!(done.load(Ordering::Relaxed), 200);
                })
            })
            .collect();
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn wait_idle_fast_path_when_already_idle() {
        let pool = ThreadPool::new(2);
        for _ in 0..10 {
            pool.execute(|| {});
        }
        pool.wait_idle();
        // Second wait takes the no-waiter fast path (pending == 0).
        pool.wait_idle();
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn drop_joins_workers() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(3);
            for _ in 0..50 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.wait_idle();
        } // drop here
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = ThreadPool::new(0);
    }

    /// A running job must not hold the queue: here the first job waits
    /// for a signal only the second one, run by the other worker, sends.
    #[test]
    fn a_running_job_leaves_the_queue_to_the_other_worker() {
        use std::sync::mpsc;
        use std::time::Duration;
        let pool = ThreadPool::new(2);
        let (signal, signalled) = mpsc::channel();
        let (done, outcome) = mpsc::channel();
        pool.execute(move || {
            let got = signalled.recv_timeout(Duration::from_secs(10)).is_ok();
            done.send(got).unwrap();
        });
        pool.execute(move || signal.send(()).unwrap());
        assert!(outcome.recv().unwrap(), "the second job never ran");
        pool.wait_idle();
    }

    /// A job that panics still finishes: `wait_idle` returns, both
    /// counters read 0, and the one worker goes on to the next job.
    #[test]
    fn a_panicking_job_still_finishes() {
        use std::sync::mpsc;
        use std::time::Duration;
        let pool = Arc::new(ThreadPool::new(1));
        let ran = Arc::new(AtomicU64::new(0));
        pool.execute(|| panic!("job panics on purpose"));
        let r = Arc::clone(&ran);
        pool.execute(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        let (idle, idled) = mpsc::channel();
        let pool_ref = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || {
            pool_ref.wait_idle();
            idle.send(()).unwrap();
        });
        assert!(
            idled.recv_timeout(Duration::from_secs(10)).is_ok(),
            "wait_idle still blocked after a panicking job"
        );
        waiter.join().unwrap();
        assert_eq!(pool.pending(), 0);
        assert_eq!(pool.usage().active(), 0);
        assert_eq!(
            ran.load(Ordering::Relaxed),
            1,
            "the job after the panic never ran"
        );
    }

    #[test]
    fn threads_reports_size() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.threads(), 4);
    }
}
