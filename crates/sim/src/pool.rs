//! A small persistent worker pool for parallel conservative-lookahead
//! windows.
//!
//! The federated simulator advances each member cluster inside short,
//! bounded windows — often tens of microseconds of real work — so the cost
//! of spawning OS threads per window would dwarf the work itself. This pool
//! keeps `n` parked workers alive for the lifetime of a session and runs
//! batches of borrowed closures against them: [`WorkerPool::run`] blocks
//! the caller until every job in the batch has finished, which is what
//! makes handing out non-`'static` closures sound (the borrowed state is
//! guaranteed to outlive the jobs because the lender is parked on the
//! completion barrier the whole time).
//!
//! [`WorkerPool::submit`] is the barrier-free sibling for owned jobs: the
//! workload service streams just-in-time session evaluations through it,
//! collecting results over a channel while the admission loop keeps
//! running. [`WorkerPool::cancel_queued`] discards never-started jobs on
//! early-abort paths.
//!
//! Nesting: every worker thread carries a mark, read by [`on_worker`]. A
//! parallel region entered from inside a job (a federated session evaluated
//! on the workload service's pool) runs inline instead of building a pool
//! of its own, so a serve holds O(workers) threads, not O(sessions).
//!
//! Determinism note: the pool intentionally offers no ordering guarantees —
//! jobs run on whichever worker grabs them first. Callers must therefore
//! keep all ordered state member-private during a window and merge it on
//! the spine afterwards (see `entk-core`'s conservative-lookahead merge).

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

thread_local! {
    /// Set once when a thread enters [`worker_loop`]; never cleared (the
    /// thread exits with the loop).
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a [`WorkerPool`] worker. Nested parallel
/// regions check this and run inline instead of spawning a pool of their
/// own: the enclosing pool already occupies the host's cores, so a nested
/// pool per job would only add threads, context switches and join latency.
pub fn on_worker() -> bool {
    ON_WORKER.with(Cell::get)
}

/// An owned job for the asynchronous [`WorkerPool::submit`] path.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct DoneState {
    outstanding: usize,
    panics: usize,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    done: Mutex<DoneState>,
    all_done: Condvar,
}

/// A fixed-size pool of parked worker threads executing batches of jobs
/// with a blocking completion barrier per batch.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (clamped to at least one). The
    /// threads park on a condvar until work arrives and die when the pool
    /// is dropped.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            done: Mutex::new(DoneState {
                outstanding: 0,
                panics: 0,
            }),
            all_done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("entk-sim-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn sim worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a batch of owned (`'static`) jobs and returns immediately —
    /// no completion barrier. Callers observe completion through the jobs
    /// themselves (typically a channel send at the end of each closure);
    /// the workload service uses this for just-in-time session evaluation.
    ///
    /// Mixing with [`WorkerPool::run`] is safe but conservative: `run`'s
    /// barrier waits for *all* outstanding jobs, submitted ones included.
    /// A submitted job that panics is contained on its worker; the panic
    /// is surfaced by the next `run` barrier on this pool, if any.
    pub fn submit(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        let n = jobs.len();
        self.shared.done.lock().expect("pool done lock").outstanding += n;
        {
            let mut state = self.shared.state.lock().expect("pool state lock");
            state.jobs.extend(jobs);
        }
        self.shared.work_ready.notify_all();
    }

    /// Drops every job that is still queued (never started) and returns
    /// how many were discarded. Jobs already running are unaffected. Used
    /// on early-abort paths so dropping the pool does not first drain a
    /// deep backlog of now-useless work.
    pub fn cancel_queued(&self) -> usize {
        let dropped = {
            let mut state = self.shared.state.lock().expect("pool state lock");
            let n = state.jobs.len();
            state.jobs.clear();
            n
        };
        if dropped > 0 {
            let mut done = self.shared.done.lock().expect("pool done lock");
            done.outstanding -= dropped;
            if done.outstanding == 0 {
                self.shared.all_done.notify_all();
            }
        }
        dropped
    }

    /// Runs a batch of jobs on the pool and blocks until all of them have
    /// completed. Jobs may borrow from the caller's stack: the blocking
    /// barrier guarantees no job outlives this call.
    ///
    /// If any job panics, the panic is contained on the worker (the thread
    /// survives for the next batch) and re-raised here once the batch has
    /// drained.
    pub fn run<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if jobs.is_empty() {
            return;
        }
        // SAFETY: the transmute only erases the `'scope` lifetime bound of
        // each boxed closure; layout is unchanged. It is sound because this
        // function does not return until `outstanding` drops back to zero,
        // i.e. every job has finished running — so no job can observe its
        // borrows after `'scope` ends.
        let jobs: Vec<Job> = jobs
            .into_iter()
            .map(|j| unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(j) })
            .collect();
        let n = jobs.len();
        self.shared.done.lock().expect("pool done lock").outstanding += n;
        {
            let mut state = self.shared.state.lock().expect("pool state lock");
            state.jobs.extend(jobs);
        }
        self.shared.work_ready.notify_all();
        let mut done = self.shared.done.lock().expect("pool done lock");
        while done.outstanding > 0 {
            done = self.shared.all_done.wait(done).expect("pool barrier wait");
        }
        if done.panics > 0 {
            done.panics = 0;
            drop(done);
            panic!("a worker-pool job panicked; see worker thread output");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.state.lock().expect("pool state lock").shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    ON_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state lock");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work_ready.wait(state).expect("pool worker wait");
            }
        };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err();
        let mut done = shared.done.lock().expect("pool done lock");
        done.outstanding -= 1;
        if panicked {
            done.panics += 1;
        }
        if done.outstanding == 0 {
            shared.all_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn runs_all_jobs_and_blocks_until_done() {
        let pool = WorkerPool::new(3);
        let sum = AtomicU64::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (1..=100u64)
            .map(|i| {
                let sum = &sum;
                Box::new(move || {
                    sum.fetch_add(i, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(jobs);
        // run() returned, so every borrowed increment has landed.
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn jobs_may_borrow_stack_state_across_batches() {
        let pool = WorkerPool::new(2);
        let mut slots = vec![0u64; 4];
        for round in 1..=3u64 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || *slot += round * (i as u64 + 1))
                        as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(jobs);
        }
        assert_eq!(slots, vec![6, 12, 18, 24]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(1);
        pool.run(Vec::new());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let ran = AtomicU64::new(0);
        pool.run(vec![Box::new(|| {
            ran.fetch_add(1, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send + '_>]);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn submitted_jobs_complete_without_a_barrier() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(
            (0..16u64)
                .map(|i| {
                    let tx = tx.clone();
                    Box::new(move || {
                        tx.send(i * i).unwrap();
                    }) as Job
                })
                .collect(),
        );
        let mut got: Vec<u64> = (0..16).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        let want: Vec<u64> = (0..16u64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cancel_queued_discards_unstarted_jobs() {
        // One worker, blocked on the first job: everything behind it is
        // still queued and must be discardable without running.
        let pool = WorkerPool::new(1);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let ran = Arc::new(AtomicU64::new(0));
        // Jobs run in submission order, so the lone worker grabs the gate
        // job first and blocks on it while the rest stay queued.
        let mut jobs: Vec<Job> = vec![Box::new(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })];
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            jobs.push(Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.submit(jobs);
        started_rx.recv().unwrap();
        let dropped = pool.cancel_queued();
        assert_eq!(dropped, 8);
        gate_tx.send(()).unwrap();
        // The barrier of an empty run() waits for the in-flight job only.
        pool.run(vec![Box::new(|| {}) as Box<dyn FnOnce() + Send + '_>]);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "cancelled jobs never ran");
    }

    #[test]
    fn on_worker_marks_pool_threads_only() {
        assert!(!on_worker(), "the test thread is not a pool worker");
        let pool = WorkerPool::new(2);
        let seen = Mutex::new(Vec::new());
        pool.run(vec![
            Box::new(|| seen.lock().unwrap().push(on_worker())) as Box<dyn FnOnce() + Send + '_>,
            Box::new(|| seen.lock().unwrap().push(on_worker())) as Box<dyn FnOnce() + Send + '_>,
        ]);
        assert_eq!(*seen.lock().unwrap(), vec![true, true]);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(vec![Box::new(move || tx.send(on_worker()).unwrap()) as Job]);
        assert!(rx.recv().unwrap(), "submitted jobs run on a worker too");
        assert!(!on_worker(), "running jobs never marks the caller");
    }

    #[test]
    fn job_panic_is_reraised_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| panic!("boom")) as Box<dyn FnOnce() + Send + '_>
            ]);
        }));
        assert!(result.is_err());
        // The worker thread survived the panic and keeps serving batches.
        let ran = AtomicU64::new(0);
        pool.run(vec![
            Box::new(|| {
                ran.fetch_add(1, Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send + '_>,
            Box::new(|| {
                ran.fetch_add(1, Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send + '_>,
        ]);
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }
}
