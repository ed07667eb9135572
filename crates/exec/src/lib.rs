//! # qcs-exec
//!
//! A small deterministic parallel-execution pool built on
//! [`std::thread::scope`] — no external dependencies — shared by the
//! simulator (Pauli trajectories), the transpiler (per-circuit batch
//! compilation), and the study pipeline (per-machine fan-out).
//!
//! Design rules:
//!
//! - **Deterministic result ordering.** Every mapping function returns
//!   results ordered by input index, regardless of which worker computed
//!   which item or in what order workers finished. Callers that also need
//!   bit-identical *values* at any thread count must make each item's
//!   computation self-contained (e.g. an independently seeded RNG per
//!   item — see `NoisySimulator`'s SplitMix64 per-trajectory seeds).
//! - **Bounded workers.** At most [`ExecConfig::threads`] OS threads are
//!   spawned per call (default: [`std::thread::available_parallelism`]),
//!   and never more than there are items.
//! - **Panic transparency.** A panic on a worker is resumed on the
//!   calling thread.
//!
//! # Examples
//!
//! ```
//! use qcs_exec::{parallel_map, ExecConfig};
//!
//! let squares = parallel_map(&ExecConfig::default(), &[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod hash;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread-count configuration for the parallel helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecConfig {
    /// Worker threads to use; `0` means [`std::thread::available_parallelism`].
    pub threads: usize,
}

impl ExecConfig {
    /// A config with an explicit thread count (`0` = auto).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig { threads }
    }

    /// A strictly single-threaded config.
    #[must_use]
    pub fn sequential() -> Self {
        ExecConfig { threads: 1 }
    }

    /// A config from the `QCS_THREADS` environment variable (unset, empty,
    /// or unparsable means auto). Lets binaries expose thread
    /// scaling without plumbing flags.
    #[must_use]
    pub fn from_env() -> Self {
        let threads = std::env::var("QCS_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        ExecConfig { threads }
    }

    /// The number of workers that would actually run for `items` work
    /// items: the configured (or detected) thread count, capped by the
    /// item count, and at least 1.
    #[must_use]
    pub fn effective_threads(&self, items: usize) -> usize {
        let configured = if self.threads == 0 {
            detected_parallelism()
        } else {
            self.threads
        };
        configured.min(items).max(1)
    }

    /// Work-aware variant of [`ExecConfig::effective_threads`]: the worker
    /// count additionally capped by the physically available cores and by
    /// `total work / MIN_WORK_PER_THREAD`, so that small workloads bypass
    /// the pool entirely (1 worker = the plain sequential loop) instead of
    /// paying spawn-and-join overhead that exceeds the work itself.
    ///
    /// Unlike `effective_threads` — which honors an explicit count
    /// verbatim, so a caller (or `QCS_THREADS`) can ask for any fan-out
    /// and get it — this is for *compute* dispatch, where threads beyond
    /// the core count or the work supply only add overhead.
    /// `work_per_item` is a caller-chosen unit (the simulator uses
    /// "amplitude operations", i.e. `kernels × 2^n` per trajectory).
    #[must_use]
    pub fn effective_threads_for_work(&self, items: usize, work_per_item: u64) -> usize {
        let cores = detected_parallelism();
        let total_work = (items as u64).saturating_mul(work_per_item);
        let by_work = usize::try_from(total_work / MIN_WORK_PER_THREAD).unwrap_or(usize::MAX);
        self.effective_threads(items)
            .min(cores)
            .min(by_work.max(1))
            .max(1)
    }
}

/// Minimum work units (caller-defined; the simulator counts amplitude
/// operations) each worker must have before
/// [`ExecConfig::effective_threads_for_work`] grants it a thread. Chosen
/// so that workloads in the tens-of-microseconds range — where scoped
/// spawn/join overhead dominates — run sequentially.
pub const MIN_WORK_PER_THREAD: u64 = 2_000_000;

/// Detected core count, probed once per process.
/// [`std::thread::available_parallelism`] re-reads the cgroup quota
/// files on every call (tens of microseconds inside a container), which
/// the simulator's per-run work-aware sizing cannot afford — the hot
/// paths ask several times per [`NoisySimulator`](../qcs_sim) run.
fn detected_parallelism() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Map `f` over `items` on a bounded worker pool, returning results in
/// input order. `f` receives `(index, &item)`.
///
/// Work is distributed dynamically (an atomic cursor), so uneven item
/// costs balance across workers; result placement is by index, so the
/// output is identical to the sequential map.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread.
pub fn parallel_map<T, R, F>(config: &ExecConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(config, items, || (), |(), index, item| f(index, item))
}

/// Like [`parallel_map`], but each worker first builds private scratch
/// state with `init` and threads it through every item it processes —
/// the hook for reusing allocations (buffers, tables) across items
/// without synchronization.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread.
pub fn parallel_map_with<T, R, S, F, I>(config: &ExecConfig, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = config.effective_threads(n);
    if workers <= 1 {
        let mut scratch = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut scratch, i, item))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = init();
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&mut scratch, i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(bucket) => bucket,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index visited exactly once"))
        .collect()
}

/// Fallible [`parallel_map`]: maps `f` over `items` in parallel and
/// returns either every `Ok` in input order or the `Err` of the
/// *lowest-indexed* failing item — the same error the sequential loop
/// would have reported first, independent of thread count.
///
/// All items are evaluated even when one fails (no cross-thread
/// cancellation); error selection, not early exit, is what stays
/// deterministic.
///
/// # Errors
///
/// The lowest-indexed `Err` produced by `f`, if any.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread.
pub fn try_parallel_map<T, R, E, F>(config: &ExecConfig, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let results = parallel_map(config, items, f);
    let mut out = Vec::with_capacity(results.len());
    for result in results {
        out.push(result?);
    }
    Ok(out)
}

/// SplitMix64 finalizer: a fast, well-scrambled 64-bit mixing function.
///
/// Used to derive statistically independent per-item RNG seeds from a
/// `(base seed, item index)` pair so that parallel work is bit-identical
/// to sequential work at any thread count.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The canonical per-item seed derivation: mixes `base_seed` with the
/// item `index` through two SplitMix64 rounds.
#[must_use]
pub fn derive_seed(base_seed: u64, index: u64) -> u64 {
    splitmix64(base_seed ^ splitmix64(index.wrapping_add(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let config = ExecConfig::with_threads(threads);
            let out = parallel_map(&config, &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_matches_sequential_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let sequential = parallel_map(&ExecConfig::sequential(), &items, |i, &x| {
            splitmix64(x) ^ i as u64
        });
        for threads in [2, 4, 16] {
            let parallel = parallel_map(&ExecConfig::with_threads(threads), &items, |i, &x| {
                splitmix64(x) ^ i as u64
            });
            assert_eq!(parallel, sequential);
        }
    }

    #[test]
    fn empty_and_single_item() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(&ExecConfig::default(), &none, |_, &x| x).is_empty());
        let one = parallel_map(&ExecConfig::with_threads(8), &[7u32], |_, &x| x + 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn scratch_state_is_reused_per_worker() {
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map_with(
            &ExecConfig::with_threads(4),
            &items,
            Vec::<usize>::new,
            |scratch, _, &x| {
                scratch.push(x);
                scratch.len()
            },
        );
        // Each worker's scratch grows monotonically: every result is >= 1,
        // and the total of "first uses" (len == 1) equals the worker count
        // actually engaged, which is at most 4.
        assert!(out.iter().all(|&len| len >= 1));
        assert!(out.iter().filter(|&&len| len == 1).count() <= 4);
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4] {
            let result: Result<Vec<usize>, usize> =
                try_parallel_map(&ExecConfig::with_threads(threads), &items, |_, &x| {
                    if x % 30 == 7 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                });
            assert_eq!(result.unwrap_err(), 7);
        }
    }

    #[test]
    fn try_map_ok_collects_in_order() {
        let items: Vec<usize> = (0..50).collect();
        let result: Result<Vec<usize>, ()> =
            try_parallel_map(&ExecConfig::with_threads(4), &items, |_, &x| Ok(x * 3));
        assert_eq!(result.unwrap(), items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let _ = parallel_map(&ExecConfig::with_threads(4), &items, |_, &x| {
            assert!(x != 63, "boom");
            x
        });
    }

    #[test]
    fn effective_threads_bounds() {
        assert_eq!(ExecConfig::sequential().effective_threads(100), 1);
        assert_eq!(ExecConfig::with_threads(8).effective_threads(3), 3);
        assert_eq!(ExecConfig::with_threads(8).effective_threads(0), 1);
        assert!(ExecConfig::default().effective_threads(100) >= 1);
    }

    #[test]
    fn work_aware_threads_bypass_pool_on_small_work() {
        // An explicit 8-thread config still collapses to 1 worker when the
        // total work is below one thread's minimum — the satellite fix for
        // the noisy_qft10_traj16 thread-scaling regression, where spawn
        // overhead exceeded the per-trajectory work.
        let config = ExecConfig::with_threads(8);
        assert_eq!(config.effective_threads_for_work(16, 1), 1);
        assert_eq!(config.effective_threads_for_work(16, 0), 1);
        assert_eq!(
            config.effective_threads_for_work(16, MIN_WORK_PER_THREAD / 16),
            1,
            "exactly one thread's worth of work must not fan out"
        );
        assert_eq!(config.effective_threads_for_work(0, u64::MAX), 1);
    }

    #[test]
    fn work_aware_threads_cap_by_cores_and_work() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let config = ExecConfig::with_threads(8);
        // Unbounded work: capped only by config and physical cores.
        assert_eq!(
            config.effective_threads_for_work(64, u64::MAX / 64),
            8.min(cores)
        );
        // Work for exactly 2 threads: never more than 2, whatever the cores.
        assert!(config.effective_threads_for_work(64, MIN_WORK_PER_THREAD / 16) <= 2);
        // Item cap still applies.
        assert_eq!(config.effective_threads_for_work(1, u64::MAX), 1);
    }

    #[test]
    fn derive_seed_decorrelates_neighbors() {
        let a = derive_seed(0, 0);
        let b = derive_seed(0, 1);
        let c = derive_seed(1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Hamming distance between neighboring indices should be large.
        assert!((a ^ b).count_ones() > 10);
    }
}
