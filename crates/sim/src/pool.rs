//! A small fork-join work-stealing scheduler built on std threads and
//! channels (no external dependencies).
//!
//! [`parallel_map_with`] distributes a batch of independent jobs across worker
//! threads: each worker owns a deque seeded round-robin, pops its own work
//! LIFO (cache-warm) and steals FIFO from the other workers when it runs
//! dry. Results are tagged with their job index and reassembled in input
//! order, so a parallel map is *observably identical* to the sequential one
//! — identically-seeded suite runs byte-match regardless of thread count or
//! scheduling interleavings.
//!
//! Every call names its worker count; runs take theirs from
//! [`crate::driver::RunCtx::workers`], whose default is [`max_threads`].
//!
//! Nested use (an experiment fan-out whose jobs themselves call
//! [`parallel_map_with`] over a suite) is allowed: each invocation spawns its own
//! scoped workers, bounded by the job count, and the OS scheduler
//! multiplexes them. Workers never block on each other — a worker exits when
//! every deque is empty — so nesting cannot deadlock.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Mutex;

/// The default worker count: the `ELSQ_THREADS` environment variable if
/// set (minimum 1), otherwise the machine's available parallelism.
pub fn max_threads() -> usize {
    if let Ok(value) = std::env::var("ELSQ_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item, fanning the work out across up to `workers`
/// threads, and returns the results in input order.
///
/// Determinism: `f` is a pure function of its item in this workspace, and
/// results are reassembled by job index, so the output is identical to
/// `items.into_iter().map(f).collect()` for every thread count.
///
/// A panicking job re-raises its (stringified) payload here on the calling
/// thread once every job has finished; use [`try_parallel_map_with`] to
/// observe per-job panics instead.
pub fn parallel_map_with<T, R, F>(items: Vec<T>, f: F, workers: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    try_parallel_map_with(items, f, workers)
        .into_iter()
        .map(|r| match r {
            Ok(value) => value,
            Err(msg) => panic!("{msg}"),
        })
        .collect()
}

/// Panic-isolating [`parallel_map_with`]: every job runs under
/// `catch_unwind`, and a job that panics yields `Err(panic message)` in its
/// slot instead of unwinding the whole pool. The other jobs always run to
/// completion.
pub fn try_parallel_map_with<T, R, F>(items: Vec<T>, f: F, workers: usize) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let f = &f;
    let caught = move |item: T| -> Result<R, String> {
        // `payload.as_ref()`, not `&payload`: a `&Box<dyn Any + Send>`
        // would itself coerce to `&dyn Any` (the Box is `'static + Send`),
        // and then the `String` downcast inside `panic_message` could
        // never succeed.
        catch_unwind(AssertUnwindSafe(|| f(item)))
            .map_err(|payload| panic_message(payload.as_ref()))
    };
    let n = items.len();
    let workers = workers.min(n);
    if n <= 1 || workers <= 1 {
        return items.into_iter().map(caught).collect();
    }
    raw_parallel_map(items, caught, workers)
}

/// Renders a caught panic payload as a message string (`&str` and `String`
/// payloads pass through verbatim).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "panic of unknown type".to_string()
    }
}

/// The work-stealing core: `f` must not panic (callers wrap jobs in
/// `catch_unwind` first).
fn raw_parallel_map<T, R, F>(items: Vec<T>, f: F, workers: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();

    // Per-worker deques, seeded round-robin so every worker starts busy.
    let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % workers]
            .lock()
            .expect("queue lock poisoned")
            .push_back((i, item));
    }

    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let queues = &queues;
    let f = &f;
    std::thread::scope(|scope| {
        for me in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                while let Some((i, item)) = next_job(queues, me) {
                    // The receiver outlives every sender; a send can only
                    // fail if the collector below panicked, and then the
                    // whole scope unwinds anyway.
                    let _ = tx.send((i, f(item)));
                }
            });
        }
        drop(tx);

        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("every job produces exactly one result"))
            .collect()
    })
}

/// Pops the next job for worker `me`: its own deque first (LIFO), then a
/// steal sweep over the other workers' deques (FIFO — steal the oldest).
/// Returns `None` when every deque is empty; since jobs never enqueue new
/// jobs, empty-everywhere is a stable termination condition.
fn next_job<T>(queues: &[Mutex<VecDeque<(usize, T)>>], me: usize) -> Option<(usize, T)> {
    if let Some(job) = queues[me].lock().expect("queue lock poisoned").pop_back() {
        return Some(job);
    }
    let n = queues.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(job) = queues[victim]
            .lock()
            .expect("queue lock poisoned")
            .pop_front()
        {
            return Some(job);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_keep_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1, 2, 4, 7] {
            let out = parallel_map_with(items.clone(), |x| x * 3, workers);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map_with(
            (0..37).collect::<Vec<u32>>(),
            |x| {
                counter.fetch_add(1, Ordering::SeqCst);
                x
            },
            4,
        );
        assert_eq!(out.len(), 37);
        assert_eq!(counter.load(Ordering::SeqCst), 37);
    }

    #[test]
    fn empty_and_singleton_batches() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map_with(empty, |x| x, 3).is_empty());
        assert_eq!(parallel_map_with(vec![9], |x| x + 1, 3), vec![10]);
    }

    #[test]
    fn uneven_job_durations_still_order_results() {
        // Later items finish first; ordering must not depend on completion
        // time. Four workers guarantee genuine interleaving (and stealing)
        // even on a single-core host.
        let out = parallel_map_with(
            (0..16u64).collect::<Vec<_>>(),
            |x| {
                std::thread::sleep(std::time::Duration::from_millis(16 - x));
                x
            },
            4,
        );
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_maps_complete() {
        let out = parallel_map_with(
            (0..4u64).collect::<Vec<_>>(),
            |x| parallel_map_with((0..4u64).collect::<Vec<_>>(), move |y| x * 10 + y, 2),
            2,
        );
        assert_eq!(out[3], vec![30, 31, 32, 33]);
        assert_eq!(out.len(), 4);
    }
}
