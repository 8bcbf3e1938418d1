//! Deterministic scoped-thread pool for the experiment engine.
//!
//! Every parallel construct in this workspace goes through [`par_map`] /
//! [`par_map_init`]: an order-preserving map over a slice, fanned out over
//! scoped worker threads that pull items from a shared atomic cursor. The
//! contract that makes parallelism safe in a bit-for-bit deterministic
//! simulation:
//!
//! * the worker function must be **pure per item** (no shared mutable
//!   state; anything it needs to report is part of its return value);
//! * results are reassembled **in input order**, so the output is
//!   byte-identical no matter how the items were scheduled across threads;
//! * with one worker (`SPRITE_THREADS=1`) no threads are spawned at all —
//!   the map degenerates to a plain sequential loop, which is the reference
//!   the determinism audit compares the parallel runs against — and at
//!   width N the calling thread claims chunks as worker zero, so only
//!   N − 1 threads are actually spawned per map.
//!
//! Worker count: [`override_threads`] (thread-local, used by benches and
//! tests — local so concurrent `cargo test` threads flipping thread counts
//! never race each other) beats the `SPRITE_THREADS` environment variable,
//! which beats [`std::thread::available_parallelism`]. Nested calls from
//! inside a worker run sequentially instead of spawning threads
//! recursively, so a parallel outer sweep (e.g. one deployment per budget)
//! composes with the parallel inner evaluation without oversubscribing the
//! machine.
//!
//! This module is the only place in the workspace allowed to touch
//! `std::thread::spawn` / `std::thread::scope` (enforced by clippy's
//! `disallowed_methods` lint, configured in `clippy.toml`).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Worker-count override for [`par_map`] calls made from this thread
    /// (0 = none). Thread-local so parallel test threads cannot race.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };

    /// Set inside pool workers so nested maps stay sequential.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Force the worker count for subsequent [`par_map`] calls made from the
/// current thread (`0` clears the override). Returns the previous override
/// so callers can restore it. Benches and determinism tests use this to
/// compare thread counts without re-spawning the process.
pub fn override_threads(n: usize) -> usize {
    OVERRIDE.with(|o| o.replace(n))
}

/// The `SPRITE_THREADS` parse, cached for the life of the process (0 =
/// unset or invalid). [`configured_threads`] sits on the hot path — every
/// `par_map` consults it — and environment reads take a process-global
/// lock, so the variable is read exactly once. Runtime changes to the
/// environment are deliberately ignored; tests and benches that need to
/// vary the width use [`override_threads`] instead.
fn env_threads() -> usize {
    static ENV_THREADS: OnceLock<usize> = OnceLock::new();
    *ENV_THREADS.get_or_init(|| {
        std::env::var("SPRITE_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// The worker count the next [`par_map`] will use: the
/// [`override_threads`] value if set, else `SPRITE_THREADS` if set and
/// positive (parsed once per process), else
/// [`std::thread::available_parallelism`].
#[must_use]
pub fn configured_threads() -> usize {
    let forced = OVERRIDE.with(Cell::get);
    if forced > 0 {
        return forced;
    }
    let env = env_threads();
    if env > 0 {
        return env;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// True when called from inside a pool worker (nested maps run inline).
#[must_use]
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// The contiguous run length a worker claims per cursor fetch: small
/// enough for load balance (at least 8 claims per worker when the input
/// allows it), large enough that the shared cursor is touched once per
/// run instead of once per item. Purely a scheduling decision — results
/// are reassembled in input order regardless, so the output never depends
/// on this value (the chunking tests pin that down).
#[must_use]
pub fn chunk_size(items: usize, threads: usize) -> usize {
    (items / (threads.max(1) * 8)).max(1)
}

/// Order-preserving parallel map: `f(index, &item)` for every item, results
/// in input order. See the module docs for the purity contract.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_init(items, || (), |(), i, t| f(i, t))
}

/// [`par_map`] with per-worker scratch state: `init()` runs once per worker
/// thread (once total in the sequential fallback) and the resulting state is
/// threaded through every item that worker processes. The state must not
/// influence results — it exists to reuse allocations (ranking scratch
/// buffers), not to carry information between items.
pub fn par_map_init<S, T, U, I, F>(items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let threads = configured_threads().min(items.len());
    if threads <= 1 || in_worker() {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    // Workers claim contiguous chunks, not single items: one atomic
    // fetch-add per run keeps the shared cursor off the per-item hot path,
    // and each claimed run lands in one `(start, results)` pair so the
    // final reassembly sorts a handful of runs instead of every item.
    let chunk = chunk_size(items.len(), threads);
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::new());
    let work = || {
        let mut state = init();
        let mut local: Vec<(usize, Vec<U>)> = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            let end = (start + chunk).min(items.len());
            let mut run = Vec::with_capacity(end - start);
            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                run.push(f(&mut state, i, item));
            }
            local.push((start, run));
        }
        results
            .lock()
            .expect("a pool worker panicked while publishing results")
            .extend(local);
    };
    // The pool is the one place threads are started: results are put
    // back in input order below, so callers see no thread interleaving.
    #[allow(clippy::disallowed_methods)]
    std::thread::scope(|scope| {
        // The caller is worker zero: it claims chunks instead of blocking
        // at the join, so a width-N map spawns only N − 1 threads.
        for _ in 1..threads {
            scope.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                work();
            });
        }
        let was = IN_WORKER.with(|w| w.replace(true));
        work();
        IN_WORKER.with(|w| w.set(was));
    });
    let mut runs = results
        .into_inner()
        .expect("a pool worker panicked while publishing results");
    runs.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(items.len());
    for (_, run) in runs {
        out.extend(run);
    }
    debug_assert_eq!(out.len(), items.len(), "every item maps to one result");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let prev = override_threads(4);
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        override_threads(prev);
        let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let items: Vec<u64> = (0..100).collect();
        let f = |_: usize, &x: &u64| (x as f64).sqrt().to_bits();
        let prev = override_threads(1);
        let seq = par_map(&items, f);
        override_threads(3);
        let par = par_map(&items, f);
        override_threads(prev);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_inputs() {
        let prev = override_threads(8);
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
        override_threads(prev);
    }

    #[test]
    fn nested_maps_run_inline() {
        let prev = override_threads(4);
        let out = par_map(&[10u32, 20, 30], |_, &x| {
            assert!(!in_worker() || configured_threads() >= 1);
            let inner: Vec<u32> = (0..x).collect();
            // Inside a worker this must not spawn another layer of threads.
            par_map(&inner, |_, &y| y).into_iter().sum::<u32>()
        });
        override_threads(prev);
        assert_eq!(out, vec![45, 190, 435]);
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        let prev = override_threads(2);
        let items: Vec<usize> = (0..50).collect();
        // The scratch buffer grows per worker; results must not depend on it.
        let out = par_map_init(&items, Vec::<usize>::new, |scratch, _, &x| {
            scratch.push(x);
            x * 2
        });
        override_threads(prev);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn override_beats_env_and_restores() {
        let prev = override_threads(5);
        assert_eq!(configured_threads(), 5);
        override_threads(prev);
    }

    #[test]
    fn chunk_size_balances_load_without_degenerating() {
        // At least one item per claim, no matter how small the input.
        assert_eq!(chunk_size(0, 4), 1);
        assert_eq!(chunk_size(3, 7), 1);
        // Big inputs yield ≥ 8 claims per worker for load balance.
        assert_eq!(chunk_size(320, 4), 10);
        assert!(chunk_size(100_000, 4) * 4 * 8 <= 100_000);
        // Degenerate thread counts never divide by zero.
        assert_eq!(chunk_size(64, 0), 8);
    }

    #[test]
    fn chunked_claiming_is_bit_identical_across_widths() {
        // Seeded pseudo-random payload; the map mixes the index into a
        // float so any reassembly slip flips observable bits.
        let items: Vec<u64> = (0..321).map(|i| i * 0x9e37_79b9).collect();
        let f = |i: usize, &x: &u64| {
            let v = (x ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (v as f64).sqrt().to_bits()
        };
        let prev = override_threads(1);
        let reference = par_map(&items, f);
        for workers in [2usize, 4, 7] {
            override_threads(workers);
            assert_eq!(par_map(&items, f), reference, "{workers} workers");
        }
        override_threads(prev);
    }

    #[test]
    fn chunking_handles_empty_input_and_fewer_items_than_workers() {
        let prev = override_threads(7);
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        // 3 items, 7 configured workers: threads clamp to the item count
        // and every item still maps exactly once, in order.
        let items: Vec<u32> = (0..3).collect();
        assert_eq!(par_map(&items, |_, &x| x * 3), vec![0, 3, 6]);
        override_threads(prev);
    }

    #[test]
    fn panicking_worker_propagates_and_pool_stays_usable() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let prev = override_threads(4);
            let out = par_map(&items, |_, &x| {
                assert!(x != 13, "injected worker panic");
                x
            });
            override_threads(prev);
            out
        }));
        assert!(result.is_err(), "a panicking worker must fail the map");
        // The panic must not wedge thread-local state or the pool itself.
        override_threads(0);
        let prev = override_threads(4);
        let ok = par_map(&items, |_, &x| x + 1);
        override_threads(prev);
        assert_eq!(ok, (1..=64).collect::<Vec<u32>>());
    }
}
