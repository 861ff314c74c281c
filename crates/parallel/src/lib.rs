//! The thread budget and the one data-parallel primitive of the
//! anonymization hot paths.
//!
//! **The budget.** Every thread carries a thread budget: how many
//! threads the kernels it calls may occupy, itself included. A caller
//! grants one for the extent of a closure with [`with_threads`]; a
//! thread that never entered a budget has a budget of 1, and so does
//! every thread [`par_chunks`] spawns, so a kernel called from inside
//! another kernel's worker runs inline. The CLI's `--threads` is the
//! budget of the whole process: the evaluator splits it across the
//! jobs it runs at once, so a sweep with at least as many jobs as
//! threads runs every kernel inline, and a lone job gets all of it.
//!
//! **Determinism.** [`par_chunks`] splits `0..n` into contiguous chunks
//! whose bounds depend only on `n`, the chunk floor and the budget,
//! and returns the per-chunk results in chunk order. A caller that
//! reduces them with an operator associative over row order (per-key
//! `+=`, concatenation) gets the sequential result at every budget.

#![deny(missing_docs)]

use std::cell::Cell;

thread_local! {
    static BUDGET: Cell<usize> = const { Cell::new(1) };
}

/// The calling thread's budget: 1 unless a caller entered a larger
/// one with [`with_threads`].
fn budget() -> usize {
    BUDGET.with(Cell::get)
}

/// Run `f` with a thread budget of `n` (0 counts as 1). The previous
/// budget comes back when `f` returns or unwinds.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|b| b.replace(n.max(1))));
    f()
}

/// Contiguous chunk bounds for worker `t` of `threads` over `0..n`.
fn chunk_bounds(n: usize, threads: usize, t: usize) -> (usize, usize) {
    let chunk = n.div_ceil(threads);
    let lo = (t * chunk).min(n);
    let hi = ((t + 1) * chunk).min(n);
    (lo, hi)
}

/// Split `0..n` into contiguous chunks of at least `min_chunk` items,
/// one per budgeted thread, run `f(lo, hi)` on each chunk concurrently,
/// and return the partial results **in chunk order**.
///
/// With a budget of 1, or fewer than two chunks' worth of items, this
/// is the single call `f(0, n)` on the calling thread. Otherwise it
/// spawns one scoped thread per chunk, each with a budget of 1, and
/// adds their number to the `parallel/threads_spawned` counter of the
/// caller's recorder.
pub fn par_chunks<T, F>(n: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = budget().min(n / min_chunk.max(1)).max(1);
    if threads == 1 {
        return vec![f(0, n)];
    }
    secreta_obsv::current().count("parallel/threads_spawned", threads as u64);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                let (lo, hi) = chunk_bounds(n, threads, t);
                s.spawn(move || f(lo, hi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chunk workers do not panic"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_in_order() {
        for n in [0usize, 1, 4, 5, 63, 64, 1000] {
            for threads in [1usize, 2, 3, 8] {
                let parts = with_threads(threads, || {
                    par_chunks(n, 16, |lo, hi| (lo..hi).collect::<Vec<_>>())
                });
                let flat: Vec<usize> = parts.into_iter().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn chunked_counting_matches_sequential() {
        // the support-kernel pattern: per-chunk count maps merged in
        // chunk order must agree with one sequential pass
        let items: Vec<u32> = (0..5000).map(|i| (i * 7 % 23) as u32).collect();
        let seq = {
            let mut m = vec![0u32; 23];
            for &it in &items {
                m[it as usize] += 1;
            }
            m
        };
        for threads in [1usize, 2, 5] {
            let parts = with_threads(threads, || {
                par_chunks(items.len(), 8, |lo, hi| {
                    let mut m = vec![0u32; 23];
                    for &it in &items[lo..hi] {
                        m[it as usize] += 1;
                    }
                    m
                })
            });
            let mut merged = vec![0u32; 23];
            for p in parts {
                for (i, c) in p.into_iter().enumerate() {
                    merged[i] += c;
                }
            }
            assert_eq!(merged, seq, "threads={threads}");
        }
    }

    #[test]
    fn budget_is_scoped_and_never_inherited() {
        assert_eq!(budget(), 1, "a thread starts with a budget of 1");
        let seen = with_threads(4, || {
            let inner = with_threads(2, budget);
            let workers = par_chunks(4, 1, |_, _| budget());
            (budget(), inner, workers)
        });
        assert_eq!(seen, (4, 2, vec![1; 4]));
        assert_eq!(budget(), 1, "the budget is restored on return");
        let unwound = std::panic::catch_unwind(|| with_threads(3, || panic!("boom")));
        assert!(unwound.is_err());
        assert_eq!(budget(), 1, "the budget is restored on unwind");
        assert_eq!(with_threads(0, budget), 1, "a zero budget counts as 1");
    }

    #[test]
    fn spawns_are_counted_on_the_callers_recorder() {
        let rec = secreta_obsv::Recorder::enabled();
        let guard = secreta_obsv::install(&rec);
        par_chunks(64, 16, |lo, hi| hi - lo);
        with_threads(3, || par_chunks(64, 16, |lo, hi| hi - lo));
        drop(guard);
        let profile = rec.finish("test").expect("enabled recorder");
        assert_eq!(profile.counter("parallel/threads_spawned"), Some(3));
    }
}
