//! The one worker pool: the campaign engine and the paper grid both run on it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item on `jobs` worker threads and returns the
/// results in input order.
///
/// Workers claim the next unclaimed index from a shared atomic counter
/// (work stealing at item granularity: a worker that finishes early keeps
/// claiming while slower items run elsewhere). A panic in `f` reaches the
/// caller once every worker has stopped.
pub fn par_map<T: Sync, R: Send>(items: &[T], jobs: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs.clamp(1, items.len().max(1)))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break done };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..50).collect();
        let squares: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [0, 1, 3, 64] {
            assert_eq!(par_map(&items, jobs, |&x| x * x), squares);
        }
        assert!(par_map(&[] as &[u64], 4, |&x| x).is_empty());
    }
}
