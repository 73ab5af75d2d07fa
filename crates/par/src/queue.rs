//! MPMC job queue and fixed worker pool.
//!
//! [`channel`] is an unbounded multi-producer multi-consumer channel built
//! on `Mutex<VecDeque>` + `Condvar`; receivers block until an item arrives
//! or every sender has been dropped. [`WorkerPool`] layers a fixed set of
//! long-lived worker threads on top, giving the HTTP server a bounded
//! execution context: under load, connections queue instead of spawning
//! one OS thread each.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    cond: Condvar,
}

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
}

/// Sending half of an MPMC [`channel`]. Cloning adds a producer; the
/// channel closes once all clones are dropped.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half of an MPMC [`channel`]. Cloning adds a consumer;
/// each item is delivered to exactly one receiver.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Error returned by [`Sender::send`] when every receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Creates an unbounded MPMC channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner { queue: VecDeque::new(), senders: 1 }),
        cond: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

impl<T> Sender<T> {
    /// Enqueues `item` and wakes one blocked receiver. Fails only when
    /// every [`Receiver`] has been dropped.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        // Two Arcs per live endpoint pair; if only senders hold the Arc,
        // count == senders and no receiver can ever drain the queue.
        let senders = self.shared.inner.lock().expect("cx-par channel poisoned").senders;
        if Arc::strong_count(&self.shared) <= senders {
            return Err(SendError(item));
        }
        let mut inner = self.shared.inner.lock().expect("cx-par channel poisoned");
        inner.queue.push_back(item);
        drop(inner);
        self.shared.cond.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        // Clone the Arc before bumping `senders` so `senders` never
        // exceeds the number of live sender Arcs — `send`'s closed-check
        // relies on that invariant.
        let shared = Arc::clone(&self.shared);
        shared.inner.lock().expect("cx-par channel poisoned").senders += 1;
        Sender { shared }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("cx-par channel poisoned");
        inner.senders -= 1;
        let closed = inner.senders == 0;
        drop(inner);
        if closed {
            // Wake every blocked receiver so they observe the close.
            self.shared.cond.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until an item is available or the channel is closed
    /// (all senders dropped and the queue drained). Returns `None` on close.
    pub fn recv(&self) -> Option<T> {
        let mut inner = self.shared.inner.lock().expect("cx-par channel poisoned");
        loop {
            if let Some(item) = inner.queue.pop_front() {
                return Some(item);
            }
            if inner.senders == 0 {
                return None;
            }
            inner = self.shared.cond.wait(inner).expect("cx-par channel poisoned");
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver { shared: Arc::clone(&self.shared) }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of worker threads executing queued jobs.
///
/// Jobs run in submission order (picked up by whichever worker frees up
/// first). Dropping the pool closes the queue, lets the workers drain the
/// remaining jobs, and joins them.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` (at least 1) threads, each named `name-<i>`.
    pub fn new(name: &str, workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = channel::<Job>();
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        while let Some(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("failed to spawn cx-par worker thread")
            })
            .collect();
        WorkerPool { tx: Some(tx), handles }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Queues `job` for execution on the next free worker.
    ///
    /// Instrumented: bumps `cx_par_tasks_total{state="submitted"}` and the
    /// `cx_par_queue_depth` gauge on submit; the wrapper decrements the
    /// gauge when the job is picked up and counts it completed afterwards.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        cx_obs::metrics::inc("cx_par_tasks_total{state=\"submitted\"}");
        cx_obs::metrics::gauge_add("cx_par_queue_depth", 1);
        self.tx
            .as_ref()
            .expect("worker pool already shut down")
            .send(Box::new(move || {
                cx_obs::metrics::gauge_add("cx_par_queue_depth", -1);
                job();
                cx_obs::metrics::inc("cx_par_tasks_total{state=\"completed\"}");
            }))
            .unwrap_or_else(|_| unreachable!("workers hold receivers until tx drops"));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.tx.take();
        for h in self.handles.drain(..) {
            // A worker that panicked already aborted its job; don't
            // propagate during drop.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn channel_delivers_in_order_single_consumer() {
        let (tx, rx) = channel();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn recv_returns_none_after_all_senders_drop() {
        let (tx, rx) = channel::<u8>();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        tx2.send(2).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_fails_when_no_receivers() {
        let (tx, rx) = channel::<u8>();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn multi_consumer_splits_work() {
        let (tx, rx) = channel();
        let counter = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    while rx.recv().is_some() {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for i in 0..1000 {
            tx.send(i).unwrap();
        }
        drop(tx);
        drop(rx);
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn pool_runs_all_jobs_and_joins_on_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new("test", 4);
            assert_eq!(pool.workers(), 4);
            for _ in 0..256 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop waits for the queue to drain
        assert_eq!(counter.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn pool_clamps_to_one_worker() {
        let pool = WorkerPool::new("solo", 0);
        assert_eq!(pool.workers(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.execute(move || {
            d.store(1, Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }
}
