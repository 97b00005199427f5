//! A zero-dependency work pool over [`std::thread::scope`].
//!
//! The experiment runner uses it to execute independently-seeded
//! experiments concurrently: workers claim indices from a shared atomic
//! counter and write their results into per-index slots, so the caller
//! gets results back **in index order** regardless of which worker ran
//! which item — the property that keeps `exp all --jobs N` output
//! byte-identical to the serial run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(i)` for every `i` in `0..n` on up to `jobs` worker threads
/// and returns the results in index order.
///
/// `jobs = 1` (or `n <= 1`) runs inline on the calling thread with no
/// thread machinery at all, so the serial path is exactly the plain
/// loop it always was. A panicking `f` propagates to the caller once
/// the scope joins.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn run_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(jobs >= 1, "need at least one worker");
    if jobs == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every index claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 8] {
            let out = run_indexed(32, jobs, |i| i * i);
            assert_eq!(
                out,
                (0..32).map(|i| i * i).collect::<Vec<_>>(),
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(100, 8, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        assert_eq!(run_indexed(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn zero_items_yield_empty() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_jobs_panics() {
        run_indexed(1, 0, |i| i);
    }
}
