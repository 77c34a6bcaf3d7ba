//! The persistent worker pool behind every `par_*` entry point.
//!
//! Before this module existed, each parallel call spawned fresh OS threads
//! through `std::thread::scope` and joined them before returning. Thread
//! creation costs tens of microseconds per worker — more than an entire
//! 10k-point compiled sweep — which is how the pr5-hermetic bench record
//! ended up with a 0.99× "parallel speedup". The pool spawns each worker
//! **once** per process and hands work over with a `Mutex`/`Condvar`
//! rendezvous, so steady-state dispatch costs one lock round-trip and one
//! `notify_all` instead of N `clone(2)` calls.
//!
//! Design:
//!
//! * **One job at a time.** Jobs are work-stealing loops (every participant
//!   pulls indices from a shared atomic cursor until it is drained), so a
//!   single job already saturates the machine; queueing several would only
//!   add contention. A dispatch while another job is running — including a
//!   nested `par_*` call from inside a running task — degrades to running
//!   the task inline on the caller, which is always correct because task
//!   output is position-addressed and cursor-driven.
//! * **The caller participates.** `run(workers, task)` executes `task` on
//!   the calling thread too; only `workers - 1` pool threads join in. A
//!   `workers <= 1` dispatch never touches the pool at all.
//! * **Panic isolation.** [`run`] catches a panicking task on every thread,
//!   remembers the first payload, and resumes it on the caller **after**
//!   all workers have stopped — same contract as the old scoped engine.
//!   Pool threads never unwind, so the pool needs no respawn logic to
//!   survive a panicking kernel: the next job reuses the same threads.
//! * **Kernel-shape agnostic.** The pool moves chunk indices, not points:
//!   the batch engine (`fill_chunked_block`, which hands each stolen chunk
//!   to the kernel as whole structure-of-arrays column ranges) and the
//!   ordered map (`par_map_range`) dispatch through the same [`run`].
//!
//! # Why there is `unsafe` here
//!
//! A persistent pool cannot use `std::thread::scope`, whose borrow magic is
//! what let the old engine share stack-borrowed closures. Pool threads are
//! `'static`, so the borrowed `&dyn Fn()` must have its lifetime erased to
//! cross into them — the same trick `crossbeam`'s scoped threads use. The
//! soundness argument is confinement: the raw pointer is published under
//! the pool lock, every dereference happens between a worker's
//! `running += 1` and `running -= 1` (both under the lock), and [`run`]
//! does not return — or unwind — until it has retracted the job and
//! observed `running == 0`. No worker can touch the pointer after `run`
//! returns, so the borrow it was created from is live for every access.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A lifetime-erased pointer to the current job's task closure. Only
/// constructed by [`run`], which guarantees the pointee outlives every
/// dereference (see the module docs).
#[derive(Clone, Copy)]
struct TaskRef {
    ptr: *const (dyn Fn() + Sync),
}

// SAFETY: the pointee is a `&(dyn Fn() + Sync)` — `Sync`, so shared calls
// from several threads are sound — and `run` keeps it alive for as long as
// any worker can hold a `TaskRef` (the retract-then-drain protocol).
// Sending the pointer is therefore no more than sending the reference it
// was created from.
#[allow(unsafe_code)]
unsafe impl Send for TaskRef {}

struct Job {
    task: TaskRef,
    /// Pool workers still allowed to join this job.
    slots: usize,
}

struct State {
    /// Bumped on every dispatch so a sleeping worker can tell a fresh job
    /// from the one it just finished.
    epoch: u64,
    job: Option<Job>,
    /// Pool workers currently inside a task closure.
    running: usize,
    /// Pool worker threads spawned so far (grows on demand, never shrinks).
    threads: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes workers: a new job was dispatched.
    work_ready: Condvar,
    /// Wakes the dispatcher: `running` reached zero.
    work_done: Condvar,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        state: Mutex::new(State { epoch: 0, job: None, running: 0, threads: 0 }),
        work_ready: Condvar::new(),
        work_done: Condvar::new(),
    })
}

/// Serializes dispatches. Taken with `try_lock` only: a contended gate
/// (another job in flight, or a nested `par_*` call) falls back to inline
/// execution instead of blocking — a pool worker blocking here while its
/// own job waits on it would deadlock.
fn dispatch_gate() -> &'static Mutex<()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
}

/// Locks ignoring poison: pool state is only mutated under the lock by
/// panic-free code (tasks run outside it), so a poisoned mutex can only
/// mean a panic in an unrelated guard scope — the data is still coherent.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `task` on the calling thread plus up to `workers - 1` pool
/// threads, returning once every participant has finished. Panics from any
/// participant (caller included) are rethrown on the caller after all
/// workers have stopped; the first payload wins.
///
/// `task` must be a self-contained work-stealing loop: every invocation
/// pulls work from shared state until none is left, so running it on fewer
/// threads than requested (pool busy, spawn failure) is slower but never
/// wrong.
pub(crate) fn run(workers: usize, task: &(dyn Fn() + Sync)) {
    let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let guarded = || {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            let mut slot = lock(&panic_slot);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    };
    dispatch(workers, &guarded);
    let payload = lock(&panic_slot).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// The dispatch protocol: publish the job, participate, retract, drain.
/// `task` must not unwind (callers wrap it in `catch_unwind`).
fn dispatch(workers: usize, task: &(dyn Fn() + Sync)) {
    let helpers = workers.saturating_sub(1);
    if helpers == 0 {
        task();
        return;
    }
    let Ok(_gate) = dispatch_gate().try_lock() else {
        // Pool busy or nested dispatch: inline execution (see module docs).
        task();
        return;
    };
    let shared = shared();
    // SAFETY: pure lifetime erasure — the fat reference becomes a raw
    // pointer whose trait-object bound defaults to `'static`. Soundness of
    // later dereferences rests on the retract-and-drain protocol below
    // (see the module docs); the transmute itself changes no bytes.
    #[allow(unsafe_code)]
    let task_ref = TaskRef {
        ptr: unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync), *const (dyn Fn() + Sync)>(task)
        },
    };
    {
        let mut state = lock(&shared.state);
        ensure_threads(&mut state, helpers);
        let slots = helpers.min(state.threads);
        if slots == 0 {
            // Spawning failed entirely; run the whole job inline.
            drop(state);
            task();
            return;
        }
        state.epoch = state.epoch.wrapping_add(1);
        state.job = Some(Job { task: task_ref, slots });
        shared.work_ready.notify_all();
    }
    // Participate. `task` does not unwind, so control always reaches the
    // retract-and-drain step below — the linchpin of the SAFETY argument.
    task();
    // Retract the job so no new worker claims it, then wait out the ones
    // already inside. After this loop no thread holds a `TaskRef`.
    let mut state = lock(&shared.state);
    state.job = None;
    while state.running > 0 {
        state = shared.work_done.wait(state).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Grows the pool to `wanted` threads. Spawn failures degrade the pool
/// size rather than panicking — the job still completes on fewer threads.
fn ensure_threads(state: &mut State, wanted: usize) {
    while state.threads < wanted {
        let name = format!("act-pool-{}", state.threads);
        match std::thread::Builder::new().name(name).spawn(worker_loop) {
            Ok(_handle) => state.threads += 1,
            Err(_) => break,
        }
    }
}

fn worker_loop() {
    let shared = shared();
    let mut seen_epoch = 0u64;
    loop {
        let task = {
            let mut state = lock(&shared.state);
            loop {
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    let claimed = match state.job.as_mut() {
                        Some(job) if job.slots > 0 => {
                            job.slots -= 1;
                            Some(job.task)
                        }
                        // Fully claimed or already retracted: skip it.
                        _ => None,
                    };
                    if let Some(task) = claimed {
                        state.running += 1;
                        break task;
                    }
                }
                state = shared.work_ready.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: `running` was incremented under the lock before the
        // dispatcher could observe `running == 0`, and the dispatcher does
        // not return until it does — so the closure behind `task.ptr` is
        // still borrowed by a live `dispatch` frame. See the module docs.
        #[allow(unsafe_code)]
        let task: &(dyn Fn() + Sync) = unsafe { &*task.ptr };
        // Defense in depth: `run` already catches panics inside the task,
        // so this only trips if `dispatch` is misused. Either way a pool
        // thread must never unwind — it would strand the dispatcher.
        let _ = catch_unwind(AssertUnwindSafe(task));
        let mut state = lock(&shared.state);
        state.running -= 1;
        if state.running == 0 {
            shared.work_done.notify_all();
        }
    }
}

/// Measures the pool's steady-state dispatch overhead: the wall-clock cost
/// of handing a trivial job to `workers` threads and joining it. Used by
/// the one-shot calibration in [`crate::parallel`]; the first dispatch
/// (which spawns the threads) is excluded by a warmup round.
pub(crate) fn measure_dispatch_overhead(workers: usize, reps: u32) -> std::time::Duration {
    let touched = AtomicUsize::new(0);
    let task = || {
        touched.fetch_add(1, Ordering::Relaxed);
    };
    run(workers, &task); // warmup: spawns the threads
    let mut best = std::time::Duration::MAX;
    for _ in 0..reps.max(1) {
        let start = std::time::Instant::now();
        run(workers, &task);
        best = best.min(start.elapsed());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn caller_only_when_single_worker() {
        let hits = AtomicUsize::new(0);
        run(1, &|| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn all_participants_run_the_task() {
        // Each participant runs the closure once; with a 4-way dispatch the
        // cursor-style counter must land on ≥ 1 (caller) and ≤ 4.
        let hits = AtomicUsize::new(0);
        run(4, &|| {
            hits.fetch_add(1, Ordering::Relaxed);
            // Hold participants long enough that the pool threads get a
            // chance to claim their slots before the job is retracted.
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let hits = hits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn panics_resume_on_the_caller_and_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            run(4, &|| panic!("kernel exploded"));
        });
        assert!(caught.is_err(), "panic must propagate");
        // The pool must still dispatch jobs afterwards.
        let ran = AtomicBool::new(false);
        run(4, &|| {
            ran.store(true, Ordering::Relaxed);
        });
        assert!(ran.load(Ordering::Relaxed));
    }

    #[test]
    fn nested_dispatch_degrades_to_inline() {
        // A task that itself dispatches must not deadlock.
        let inner_hits = AtomicUsize::new(0);
        run(2, &|| {
            run(2, &|| {
                inner_hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(inner_hits.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn dispatch_overhead_is_measurable() {
        let overhead = measure_dispatch_overhead(2, 4);
        assert!(overhead < std::time::Duration::from_secs(1));
    }
}
