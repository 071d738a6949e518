//! The one index-ordered worker pool.
//!
//! Every parallel runner in the workspace has the same shape: jobs are
//! numbered, any worker may run any job, and the results must be consumed
//! in job order so that output never depends on scheduling. [`ordered`] is
//! that shape once — the streaming shard-merge runner and the bench
//! crate's `run_cells` both call it — and the consumer sees a plain
//! iterator.

use std::any::Any;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Worker/consumer coordination state.
struct Pending<T> {
    /// Finished jobs awaiting their turn, keyed by job index. A job that
    /// panicked waits here as its payload.
    ready: BTreeMap<usize, Result<T, Box<dyn Any + Send>>>,
    /// The consumer has been handed every job below this index.
    taken_upto: usize,
    /// Set when the consumer is done, early or not; workers drain and exit.
    stop: bool,
}

/// Wakes and drains every worker when the consumer leaves, however it
/// leaves: a worker parked on the look-ahead window would otherwise keep
/// the scope from ever joining.
struct StopOnDrop<'a, T>(&'a Mutex<Pending<T>>, &'a Condvar);

impl<T> Drop for StopOnDrop<'_, T> {
    fn drop(&mut self) {
        if let Ok(mut g) = self.0.lock() {
            g.stop = true;
        }
        self.1.notify_all();
    }
}

/// Run `job(i)` for every `i` in `jobs` on `threads` workers (0 = all
/// cores; never more than there are jobs) and hand `consume`, on the
/// calling thread, an iterator over the results in index order.
///
/// Workers claim indices from a shared counter but run at most
/// `2 × threads` jobs ahead of the result the iterator last yielded, so
/// finished results waiting for their turn stay O(threads) however many
/// jobs there are. `consume` may stop early — `break`, `?`, `return` —
/// and what it returns is returned; however it leaves, every worker is
/// woken and joined before this returns. A job that panics is re-raised
/// by the iterator, on the calling thread, where its result was due.
pub fn ordered<T: Send, R>(
    jobs: Range<usize>,
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
    consume: impl FnOnce(&mut dyn Iterator<Item = T>) -> R,
) -> R {
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(jobs.len());
    let window = threads * 2;

    let next = AtomicUsize::new(jobs.start);
    let pending = Mutex::new(Pending {
        ready: BTreeMap::new(),
        taken_upto: jobs.start,
        stop: false,
    });
    let cv = Condvar::new();
    // A job's panic is caught on its worker, so no thread dies holding
    // the lock.
    let lock = || pending.lock().expect("pool lock is never poisoned");

    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.end {
                    break;
                }
                {
                    let mut g = lock();
                    while !g.stop && i >= g.taken_upto + window {
                        g = cv.wait(g).expect("pool lock is never poisoned");
                    }
                    if g.stop {
                        break;
                    }
                }
                let out = catch_unwind(AssertUnwindSafe(|| job(i)));
                lock().ready.insert(i, out);
                cv.notify_all();
            });
        }

        let _drain = StopOnDrop(&pending, &cv);
        consume(&mut jobs.clone().map(|k| {
            let mut g = lock();
            let out = loop {
                match g.ready.remove(&k) {
                    Some(out) => break out,
                    None => g = cv.wait(g).expect("pool lock is never poisoned"),
                }
            };
            g.taken_upto = k + 1;
            drop(g);
            cv.notify_all();
            out.unwrap_or_else(|payload| resume_unwind(payload))
        }))
    })
    .unwrap_or_else(|payload| resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job whose cost varies by index, so finish order differs from
    /// index order whenever there is more than one worker.
    fn job(i: usize) -> u64 {
        let spin = (i * 7919) % 13;
        (0..spin * 1000).fold(i as u64, |a, b| {
            a.wrapping_mul(6364136223846793005).wrapping_add(b as u64)
        })
    }

    #[test]
    fn results_arrive_as_the_serial_fold_would_see_them() {
        let serial: Vec<u64> = (3..60).map(job).collect();
        for threads in [1, 2, 8] {
            let seen: Vec<u64> = ordered(3..60, threads, job, |results| results.collect());
            assert_eq!(seen, serial, "{threads} threads");
        }
        let none: Vec<u64> = ordered(5..5, 4, |_| unreachable!(), |results| results.collect());
        assert!(none.is_empty());
    }

    #[test]
    fn consumer_stop_sees_exactly_the_prefix() {
        for threads in [1, 2, 8] {
            let ran = AtomicUsize::new(0);
            let counted = |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                job(i)
            };
            let seen: Vec<usize> = ordered(0..200, threads, counted, |results| {
                (0..).zip(results).map(|(i, _)| i).take(18).collect()
            });
            assert_eq!(seen, (0..=17).collect::<Vec<_>>(), "{threads} threads");
            // Nothing ran further ahead of the stop than the look-ahead
            // window plus one job in flight per worker.
            assert!(
                ran.load(Ordering::SeqCst) <= 18 + 3 * threads,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn consumer_error_is_returned_and_every_worker_joined() {
        for threads in [1, 2, 8] {
            let running = AtomicUsize::new(0);
            let tracked = |i| {
                running.fetch_add(1, Ordering::SeqCst);
                let v = job(i);
                running.fetch_sub(1, Ordering::SeqCst);
                v
            };
            let r: Result<(), &str> = ordered(0..200, threads, tracked, |results| {
                for (i, _) in results.enumerate() {
                    if i == 9 {
                        return Err("failed at 9");
                    }
                }
                Ok(())
            });
            assert_eq!(r, Err("failed at 9"));
            // `ordered` borrowed `running` for its workers; that it is
            // zero here means none is still inside a job.
            assert_eq!(running.load(Ordering::SeqCst), 0, "{threads} threads");
        }
    }

    #[test]
    fn panicking_job_is_re_raised_after_its_predecessors() {
        for threads in [1, 2, 8] {
            let mut seen = Vec::new();
            let exploding = |i| {
                if i == 11 {
                    panic!("job 11 exploded");
                }
                job(i)
            };
            let caught = catch_unwind(AssertUnwindSafe(|| {
                ordered(0..50, threads, exploding, |results| {
                    for (i, _) in results.enumerate() {
                        seen.push(i);
                    }
                })
            }));
            let payload = caught.expect_err("the job's panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<&str>().copied(),
                Some("job 11 exploded")
            );
            assert_eq!(seen, (0..11).collect::<Vec<_>>(), "{threads} threads");
        }
    }
}
