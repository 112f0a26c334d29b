//! The process-wide stage pool: one set of `available_parallelism`
//! threads, started by the first session and shared by every session in
//! the process, that runs the pure per-chunk stage work.
//!
//! A session hands the pool one closure per chunk and gets back a
//! [`Pending`] handle; the closure's return value — or the message of the
//! panic it died with — comes back through that handle. Jobs never wait
//! on each other, so the shared FIFO job queue cannot deadlock. A
//! panicking job is caught on the thread that ran it: the thread survives
//! to run the next job, whichever session that job belongs to (the
//! session tests drive more panics than the pool has threads).

use crate::StagePanic;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

type Job = Box<dyn FnOnce() + Send>;

/// The pool's job queue, spawning the pool threads on first use.
fn jobs() -> &'static Sender<Job> {
    static JOBS: OnceLock<Sender<Job>> = OnceLock::new();
    JOBS.get_or_init(|| {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        for i in 0..threads {
            let rx = Arc::clone(&rx);
            // A thread that fails to spawn only shrinks the pool; the
            // first one to start keeps every job moving.
            let _ = std::thread::Builder::new()
                .name(format!("dox-stage-{i}"))
                .spawn(move || run_jobs(&rx));
        }
        tx
    })
}

/// Start the pool if no session has yet.
pub(crate) fn start() {
    jobs();
}

/// A pool thread's whole life: run jobs until the queue disconnects.
fn run_jobs(rx: &Mutex<Receiver<Job>>) {
    loop {
        // The lock is held while waiting for a job, never while running
        // one.
        let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        match next {
            Ok(job) => job(),
            Err(_) => return,
        }
    }
}

/// Render a panic payload as the message carried by [`StagePanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> StagePanic {
    let message = payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic payload was not a string".to_string());
    StagePanic(message)
}

/// Run `work` on a pool thread.
pub(crate) fn submit<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> Pending<T> {
    let (tx, rx) = sync_channel(1);
    let job: Job = Box::new(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(work)).map_err(panic_message));
    });
    // Pool threads never exit, so the queue stays connected; were the job
    // ever dropped unrun, `wait` reports it instead of hanging.
    let _ = jobs().send(job);
    Pending(rx)
}

/// The eventual result of one [`submit`]ted job.
pub(crate) struct Pending<T>(Receiver<Result<T, StagePanic>>);

impl<T> Pending<T> {
    /// Block until the job has run; a panic in the job comes back as its
    /// message.
    pub(crate) fn wait(self) -> Result<T, StagePanic> {
        self.0
            .recv()
            .unwrap_or_else(|_| Err(StagePanic("stage pool dropped the job".to_string())))
    }
}
