//! A scoped worker pool for fanning independent simulation jobs across
//! cores.
//!
//! The experiment drivers run hundreds of mutually independent
//! `run_workload` cells (workload × prefetcher × cache-size points); each
//! cell builds its own [`crate::System`] from shared read-only inputs, so
//! the only coordination needed is handing out job indices and collecting
//! results in order. [`JobPool`] does exactly that on `std::thread::scope`
//! — no dependencies, no long-lived threads, no channels.
//!
//! # Determinism
//!
//! Results are returned in the order the jobs were submitted, regardless of
//! which worker ran which job or in what order they finished. Combined with
//! each job being a pure function of its inputs, a parallel run is
//! bit-identical to a serial one; `DROPLET_THREADS=1` additionally forces
//! the exact serial code path (a plain `for` loop on the caller's thread)
//! for debugging.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Environment variable overriding the worker count for every pool created
/// via [`JobPool::from_env`]. `1` forces the serial path.
pub const THREADS_ENV: &str = "DROPLET_THREADS";

/// A fan-out executor over scoped OS threads.
///
/// # Example
///
/// ```
/// use droplet::pool::JobPool;
/// let inputs = vec![1u64, 2, 3, 4];
/// let squares = JobPool::with_threads(2)
///     .run(inputs.iter().map(|&x| move || x * x).collect());
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct JobPool {
    threads: usize,
}

impl JobPool {
    /// A pool using up to `threads` workers (at least one).
    pub fn with_threads(threads: usize) -> Self {
        JobPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized from [`THREADS_ENV`] if set (and a positive integer),
    /// otherwise from `std::thread::available_parallelism`.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        JobPool::with_threads(threads)
    }

    /// The number of workers this pool will use for a large-enough batch.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job, returning results in submission order.
    ///
    /// With one worker (or one job) the jobs run in a plain loop on the
    /// calling thread — the exact serial path. Otherwise
    /// `min(jobs.len(), threads)` scoped workers pull job indices from a
    /// shared atomic counter. A panicking job propagates the panic to the
    /// caller after the remaining workers drain.
    pub fn run<F, R>(&self, jobs: Vec<F>) -> Vec<R>
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        let workers = self.threads.min(jobs.len());
        if workers <= 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }

        // Job slots are taken (not cloned) by whichever worker claims the
        // index; result slots are filled at the same index, so output order
        // matches input order independent of scheduling.
        let job_slots: Vec<Mutex<Option<F>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let result_slots: Vec<Mutex<Option<R>>> =
            (0..job_slots.len()).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);

        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= job_slots.len() {
                            break;
                        }
                        // Slot locks are never held across user code, so they never poison.
                        let job = job_slots[i]
                            .lock()
                            .expect("job slot poisoned")
                            .take()
                            .expect("job claimed twice");
                        let result = job();
                        *result_slots[i].lock().expect("result slot poisoned") = Some(result);
                    })
                })
                .collect();
            // Join explicitly so a worker panic re-raises with its original
            // payload (the bare scope exit would replace it with a generic
            // "a scoped thread panicked" message). All workers are joined
            // before re-raising, so no job is left mid-flight.
            let mut first_panic = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    first_panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
        });
        // A worker panic propagated above, so every slot is filled here.
        result_slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker exited without storing a result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_submission_order() {
        let pool = JobPool::with_threads(4);
        let results = pool.run(
            (0..64)
                .map(|i| {
                    move || {
                        // Stagger finish times so late-submitted jobs finish
                        // first if ordering were by completion.
                        if i % 2 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        i * 10
                    }
                })
                .collect(),
        );
        assert_eq!(results, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_on_calling_thread() {
        let caller = std::thread::current().id();
        let ids = JobPool::with_threads(1)
            .run(vec![move || std::thread::current().id(), move || {
                std::thread::current().id()
            }]);
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn parallel_matches_serial() {
        let jobs = || {
            (0..100u64)
                .map(|i| move || i.wrapping_mul(i) ^ 0xabcd)
                .collect()
        };
        let serial = JobPool::with_threads(1).run(jobs());
        let parallel = JobPool::with_threads(8).run(jobs());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let counter = AtomicUsize::new(0);
        let results = JobPool::with_threads(3).run(
            (0..57)
                .map(|_| {
                    let counter = &counter;
                    move || counter.fetch_add(1, Ordering::Relaxed)
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(counter.load(Ordering::Relaxed), 57);
        let mut seen = results;
        seen.sort_unstable();
        assert_eq!(seen, (0..57).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u32> = JobPool::with_threads(4).run(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(JobPool::with_threads(0).threads(), 1);
    }

    #[test]
    #[should_panic(expected = "job 3 exploded")]
    fn propagates_worker_panics() {
        JobPool::with_threads(4).run(
            (0..8)
                .map(|i| {
                    move || {
                        if i == 3 {
                            panic!("job 3 exploded");
                        }
                        i
                    }
                })
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    #[should_panic(expected = "serial job exploded")]
    fn propagates_serial_panics() {
        JobPool::with_threads(1).run(vec![|| panic!("serial job exploded")]);
    }
}
