//! A bounded worker pool with an admission queue.
//!
//! The server must stay responsive under overload: SAT probes can run
//! for seconds, and an unbounded queue would silently convert overload
//! into unbounded latency. Instead admission is a [`SyncSender`] with a
//! fixed capacity — [`Pool::try_submit`] never blocks, and a full queue
//! is reported to the caller, which maps it to a *retryable* `overload`
//! protocol error. The client, not the queue, decides whether to wait.
//!
//! Workers are plain threads sharing one receiver. Dropping the pool
//! closes the channel and joins the workers, so already-admitted
//! requests finish (and their responses flush) before shutdown — the
//! "graceful" half of graceful degradation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use denali_metrics::Gauge;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`Pool::try_submit`] declined a job. The two cases demand
/// opposite client behaviour, so they must not be conflated: `Full` is
/// transient (back off and retry the identical request), `Closed` is
/// terminal (the server is shutting down; retrying re-sends into a
/// closing process).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity; shed with a *retryable*
    /// `overload` error.
    Full,
    /// The pool has shut down and accepts no further work; shed with a
    /// *non-retryable* `shutting_down` error.
    Closed,
}

/// A fixed set of worker threads fed by a bounded queue.
pub struct Pool {
    sender: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    queued: Arc<Gauge>,
    panics: Arc<AtomicU64>,
}

impl Pool {
    /// Spawns `workers` threads (at least 1) behind a queue holding at
    /// most `queue` waiting jobs beyond the ones being executed.
    pub fn new(workers: usize, queue: usize) -> Pool {
        Pool::with_depth_gauge(workers, queue, None)
    }

    /// [`Pool::new`], counting the queue depth in `gauge` (the
    /// server's `denali_serve_queue_depth` family) instead of a private
    /// gauge. The gauge is the pool's only depth counter, so
    /// [`Pool::depth`], the `stats` body and `/metrics` read one value.
    pub fn with_depth_gauge(workers: usize, queue: usize, gauge: Option<Arc<Gauge>>) -> Pool {
        let (sender, receiver) = mpsc::sync_channel::<Job>(queue);
        let receiver = Arc::new(Mutex::new(receiver));
        let queued = gauge.unwrap_or_default();
        let panics = Arc::new(AtomicU64::new(0));
        let workers = (0..workers.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let queued = Arc::clone(&queued);
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&receiver, &queued, &panics))
                    .expect("spawn worker thread")
            })
            .collect();
        Pool {
            sender: Some(sender),
            workers,
            queued,
            panics,
        }
    }

    /// Admits `job` if the queue has room.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity,
    /// [`SubmitError::Closed`] when the pool has shut down; either way
    /// the job is returned to the caller unexecuted (dropped here,
    /// since it is consumed).
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let sender = self.sender.as_ref().expect("pool not shut down");
        // Count before sending so a worker that dequeues instantly
        // never observes a decrement racing ahead of the increment.
        self.queued.add(1);
        sender.try_send(Box::new(job)).map_err(|err| {
            self.queued.sub(1);
            match err {
                TrySendError::Full(_) => SubmitError::Full,
                TrySendError::Disconnected(_) => SubmitError::Closed,
            }
        })
    }

    /// Jobs admitted but not yet started (the queue-depth gauge).
    pub fn depth(&self) -> u64 {
        self.queued.get()
    }

    /// Jobs that panicked on a worker (the worker survives each one).
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Closing the channel lets workers drain the queue, then exit.
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>, queued: &Gauge, panics: &AtomicU64) {
    loop {
        // Hold the lock only while dequeuing, never while running.
        let job = match receiver.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return, // pool dropped and queue drained
        };
        queued.sub(1);
        // A panicking job must not take the worker thread with it:
        // every panic would silently shrink the pool until admitted
        // requests hang forever. The payload is discarded — the server
        // layer answers the request (its job wrapper catches first and
        // renders an internal error); this is the backstop that keeps
        // the thread alive either way.
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn runs_jobs_on_workers() {
        let pool = Pool::new(2, 8);
        let (tx, rx) = channel();
        for i in 0..6 {
            let tx = tx.clone();
            pool.try_submit(move || tx.send(i).unwrap()).unwrap();
        }
        let mut got: Vec<i32> = (0..6).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn sheds_load_when_the_queue_is_full() {
        let pool = Pool::new(1, 1);
        let gate = Arc::new(Mutex::new(()));
        let hold = gate.lock().unwrap();
        // First job occupies the single worker...
        let g = Arc::clone(&gate);
        pool.try_submit(move || drop(g.lock().unwrap())).unwrap();
        // ...wait until it is actually running (queue drained)...
        while pool.depth() > 0 {
            std::thread::yield_now();
        }
        // ...second fills the queue slot; third must be rejected.
        let g = Arc::clone(&gate);
        pool.try_submit(move || drop(g.lock().unwrap())).unwrap();
        assert_eq!(pool.try_submit(|| ()), Err(SubmitError::Full));
        assert_eq!(pool.depth(), 1);
        drop(hold);
    }

    #[test]
    fn closed_pool_is_distinguishable_from_a_full_one() {
        // Construct a pool whose receiver is already gone: submission
        // must report Closed, not Full — clients retry Full but must
        // not retry into a shutting-down server.
        let (sender, receiver) = mpsc::sync_channel::<Job>(4);
        drop(receiver);
        let pool = Pool {
            sender: Some(sender),
            workers: Vec::new(),
            queued: Arc::default(),
            panics: Arc::new(AtomicU64::new(0)),
        };
        assert_eq!(pool.try_submit(|| ()), Err(SubmitError::Closed));
        assert_eq!(pool.depth(), 0, "a rejected job is not queued");
    }

    #[test]
    fn panicking_job_does_not_kill_its_worker() {
        let pool = Pool::new(1, 8);
        let (tx, rx) = channel();
        pool.try_submit(|| panic!("job blew up")).unwrap();
        // The single worker must survive to run the next job.
        pool.try_submit(move || tx.send(42).unwrap()).unwrap();
        assert_eq!(rx.recv().unwrap(), 42);
        assert_eq!(pool.panics(), 1);
    }

    #[test]
    fn depth_gauge_counts_the_queue() {
        let gauge = Arc::new(Gauge::default());
        let pool = Pool::with_depth_gauge(1, 4, Some(Arc::clone(&gauge)));
        let gate = Arc::new(Mutex::new(()));
        let hold = gate.lock().unwrap();
        let g = Arc::clone(&gate);
        pool.try_submit(move || drop(g.lock().unwrap())).unwrap();
        while pool.depth() > 0 {
            std::thread::yield_now();
        }
        let g = Arc::clone(&gate);
        pool.try_submit(move || drop(g.lock().unwrap())).unwrap();
        assert_eq!(gauge.get(), 1, "gauge tracks the queued job");
        drop(hold);
        drop(pool);
        assert_eq!(gauge.get(), 0, "gauge returns to zero once drained");
    }

    #[test]
    fn drop_drains_admitted_jobs() {
        let pool = Pool::new(2, 16);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 10);
    }
}
