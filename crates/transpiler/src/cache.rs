//! Content-addressed transpile cache.
//!
//! The paper's workload is dominated by *re*-compilation: batches of
//! identical or near-identical circuits submitted against the same machine
//! and calibration epoch (§IV-C observes clients resubmitting the same
//! program across days). Transpilation here is deterministic — same
//! circuit, target, and options always produce the same
//! [`TranspileResult`] — so the full pass pipeline can be memoized behind
//! a content hash of everything that feeds it:
//!
//! * the circuit structure (name, widths, every instruction's gate,
//!   parameter bits, and operand indices),
//! * the target (machine name, coupling edges, and the complete
//!   calibration snapshot including its cycle — the "calibration epoch"),
//! * the [`TranspileOptions`] (layout/routing method, optimization level).
//!   SABRE's lookahead window, its weight and the decay increment are
//!   constants of the routing pass, not options, so they are not keyed.
//!
//! Keys are two independently-seeded 64-bit [`FxHasher`] digests over that
//! material; a collision requires both 64-bit streams to collide at once.
//! Not cryptographic — this is a content address for memoization, and
//! keys only ever live in-process.
//! The table is one `Mutex<HashMap>`: the key is digested before the lock
//! is taken and the pipeline runs with no lock held, so the critical
//! section is a lookup plus an `Arc::clone`. Hit/miss counters are
//! lock-free atomics read through [`TranspileCache::stats`].
//!
//! Failures are *not* cached: an `Err` from the pipeline is returned but
//! never memoized, so a later call with the same key re-runs the passes.
//!
//! Concurrent misses on the same key are *coalesced*: the first caller
//! marks the key in-flight and runs the pipeline; later callers park on
//! the cache's condvar and wake as hits. This both avoids duplicate
//! compilations and makes the hit/miss counters schedule-independent —
//! a fan-out over the same calendar of calibrations reports the same
//! counters at any thread count, which the `extension_stale_compilation`
//! determinism check relies on.

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use qcs_circuit::Circuit;
use qcs_exec::hash::FxHasher;

use crate::error::TranspileError;
use crate::target::Target;
use crate::transpile::{TranspileOptions, TranspileResult};

/// Content address of one transpile call: two independently-seeded 64-bit
/// digests over the circuit, target, and options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TranspileKey {
    lo: u64,
    hi: u64,
}

/// The seeds of the key's two lanes.
const LANE_SEEDS: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xd1b5_4a32_d192_ed03];

impl TranspileKey {
    /// Digest the full input content of a transpile call.
    #[must_use]
    pub fn of(circuit: &Circuit, target: &Target, options: &TranspileOptions) -> Self {
        let mut lanes = Lanes(LANE_SEEDS.map(|seed| {
            let mut h = FxHasher::default();
            h.write_u64(seed);
            h
        }));
        hash_circuit(&mut lanes, circuit);
        hash_target(&mut lanes, target);
        hash_options(&mut lanes, options);
        let [lo, hi] = lanes.0.map(|h| h.finish());
        TranspileKey { lo, hi }
    }
}

/// Both seeded lanes of a key, fed by one walk over its material: every
/// write goes to each lane, so each ends as its own pass would have.
struct Lanes([FxHasher; 2]);

impl Hasher for Lanes {
    /// The low lane alone; [`TranspileKey::of`] reads both.
    fn finish(&self) -> u64 {
        self.0[0].finish()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.iter_mut().for_each(|h| h.write(bytes));
    }

    fn write_u64(&mut self, n: u64) {
        self.0.iter_mut().for_each(|h| h.write_u64(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.0.iter_mut().for_each(|h| h.write_usize(n));
    }
}

/// A string as its length, then its bytes: the length keeps adjacent
/// strings from running together ("ab" + "c" vs "a" + "bc").
fn write_str(h: &mut impl Hasher, s: &str) {
    h.write_usize(s.len());
    h.write(s.as_bytes());
}

fn hash_circuit(h: &mut impl Hasher, circuit: &Circuit) {
    write_str(h, circuit.name());
    h.write_usize(circuit.num_qubits());
    h.write_usize(circuit.num_clbits());
    h.write_usize(circuit.size());
    for inst in circuit.instructions() {
        write_str(h, inst.gate.name());
        let params = inst.gate.params();
        h.write_usize(params.len());
        // Every `f64` (here and in the calibration) goes in as its exact
        // bit pattern: keys must distinguish values that compare equal but
        // behave differently downstream (-0.0 vs 0.0).
        for p in params.iter() {
            h.write_u64(p.to_bits());
        }
        h.write_usize(inst.qubits().len());
        for q in inst.qubits() {
            h.write_usize(q.index());
        }
        h.write_usize(inst.clbits().len());
        for c in inst.clbits() {
            h.write_usize(c.index());
        }
    }
}

fn hash_target(h: &mut impl Hasher, target: &Target) {
    write_str(h, target.name());
    let topology = target.topology();
    h.write_usize(topology.num_qubits());
    h.write_usize(topology.num_edges());
    for &(a, b) in topology.edges() {
        h.write_usize(a);
        h.write_usize(b);
    }
    let snapshot = target.snapshot();
    // The calibration epoch: same machine on a different day is a miss.
    h.write_u64(snapshot.cycle);
    h.write_usize(snapshot.num_qubits());
    for q in 0..snapshot.num_qubits() {
        let cal = snapshot.qubit(q);
        h.write_u64(cal.t1_us.to_bits());
        h.write_u64(cal.t2_us.to_bits());
        h.write_u64(cal.single_qubit_error.to_bits());
        h.write_u64(cal.readout_error.to_bits());
    }
    // BTreeMap iteration: deterministic ascending edge order.
    for (&(a, b), cal) in snapshot.edges() {
        h.write_usize(a);
        h.write_usize(b);
        h.write_u64(cal.cx_error.to_bits());
        h.write_u64(cal.cx_duration_ns.to_bits());
    }
}

fn hash_options(h: &mut impl Hasher, options: &TranspileOptions) {
    h.write_usize(options.layout as usize);
    h.write_usize(options.routing as usize);
    h.write_u64(u64::from(options.optimization_level));
}

/// Point-in-time hit/miss statistics of a [`TranspileCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (including coalesced waiters).
    pub hits: u64,
    /// Lookups that ran the full pass pipeline.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when empty).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe, single-flight memo table from [`TranspileKey`] to
/// finished [`TranspileResult`]s.
///
/// Share one `&TranspileCache` (or `Arc`) across a study fan-out so every
/// worker sees the same entries and counters.
///
/// # Examples
///
/// ```
/// use qcs_topology::families;
/// use qcs_transpiler::{Target, TranspileCache, TranspileOptions};
/// use qcs_circuit::library;
///
/// let target = Target::uniform("m", families::line(4), 7);
/// let cache = TranspileCache::new();
/// for _ in 0..10 {
///     cache.transpile(&library::ghz(3), &target, TranspileOptions::default())?;
/// }
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().hits, 9);
/// # Ok::<(), qcs_transpiler::TranspileError>(())
/// ```
#[derive(Debug, Default)]
pub struct TranspileCache {
    map: Mutex<HashMap<TranspileKey, Slot>>,
    /// Parks callers waiting on an in-flight compilation. One condvar for
    /// every key: a finishing key also wakes other keys' waiters, which
    /// re-check their own slot and park again.
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// State of one memoized key: finished, or being compiled right now by
/// some other caller (in which case waiters coalesce onto its result).
#[derive(Debug)]
enum Slot {
    Ready(Arc<TranspileResult>),
    InFlight,
}

impl TranspileCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        TranspileCache::default()
    }

    /// Transpile through the cache: return the memoized result when the
    /// content key is already present, otherwise run the full pipeline
    /// and (on success) memoize it.
    ///
    /// Concurrent calls with the same key coalesce: exactly one runs the
    /// pipeline (and counts the miss), the rest park and wake as hits —
    /// so for a fixed multiset of calls the counters are identical at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Propagates any [`TranspileError`] from the pipeline; errors are
    /// never cached, and a failure releases coalesced waiters to re-run
    /// the pipeline themselves (each failed attempt is its own miss).
    pub fn transpile(
        &self,
        circuit: &Circuit,
        target: &Target,
        options: TranspileOptions,
    ) -> Result<Arc<TranspileResult>, TranspileError> {
        let key = TranspileKey::of(circuit, target, &options);
        let mut map = self.map.lock().expect("cache poisoned");
        loop {
            match map.get(&key) {
                Some(Slot::Ready(result)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(result));
                }
                Some(Slot::InFlight) => {
                    map = self.ready.wait(map).expect("cache poisoned");
                }
                None => {
                    map.insert(key, Slot::InFlight);
                    break;
                }
            }
        }
        drop(map);

        self.misses.fetch_add(1, Ordering::Relaxed);
        let outcome = crate::transpile::transpile(circuit, target, options);
        let mut map = self.map.lock().expect("cache poisoned");
        let ret = match outcome {
            Ok(result) => {
                let result = Arc::new(result);
                map.insert(key, Slot::Ready(Arc::clone(&result)));
                Ok(result)
            }
            Err(err) => {
                map.remove(&key);
                Err(err)
            }
        };
        drop(map);
        self.ready.notify_all();
        ret
    }

    /// Number of distinct keys currently memoized (in-flight keys are not
    /// counted — they hold no result yet).
    #[must_use]
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .expect("cache poisoned")
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drop all memoized entries (counters and in-flight markers are
    /// preserved — a compilation in progress still completes and wakes
    /// its waiters).
    pub fn clear(&self) {
        self.map
            .lock()
            .expect("cache poisoned")
            .retain(|_, slot| matches!(slot, Slot::InFlight));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_circuit::library;
    use qcs_topology::families;

    fn target() -> Target {
        Target::uniform("cairo", families::ibm_guadalupe_16q(), 11)
    }

    /// The two-pass digest: one full walk per seeded lane.
    fn two_pass_key(
        circuit: &Circuit,
        target: &Target,
        options: &TranspileOptions,
    ) -> TranspileKey {
        let [lo, hi] = LANE_SEEDS.map(|seed| {
            let mut h = FxHasher::default();
            h.write_u64(seed);
            hash_circuit(&mut h, circuit);
            hash_target(&mut h, target);
            hash_options(&mut h, options);
            h.finish()
        });
        TranspileKey { lo, hi }
    }

    /// Every `compiler_pin` circuit on every fleet machine under its four
    /// option sets.
    #[test]
    fn one_walk_key_matches_the_two_pass_digest() {
        let fleet = qcs_machine::Fleet::ibm_like();
        let options = [
            TranspileOptions::full(),
            TranspileOptions::minimal(),
            TranspileOptions {
                layout: crate::LayoutMethod::Dense,
                routing: crate::RoutingMethod::Sabre,
                optimization_level: 1,
            },
            TranspileOptions {
                layout: crate::LayoutMethod::NoiseAware,
                routing: crate::RoutingMethod::Naive,
                optimization_level: 0,
            },
        ];
        let mut keys = 0;
        let mut fold = FxHasher::default();
        for machine in fleet.iter() {
            let target = Target::from_machine(machine, 100.0 * 24.0 + 12.0);
            let circuits = [
                library::qft(4),
                library::qft(8),
                library::qft(12),
                library::ghz(machine.num_qubits()),
                library::quantum_volume(8, 8, 7),
                library::bernstein_vazirani(10, 0x15a),
                library::hardware_efficient_ansatz(6, 3, 11),
            ];
            for circuit in &circuits {
                for opts in &options {
                    let key = TranspileKey::of(circuit, &target, opts);
                    assert_eq!(
                        key,
                        two_pass_key(circuit, &target, opts),
                        "{}",
                        machine.name()
                    );
                    fold.write_u64(key.lo);
                    fold.write_u64(key.hi);
                    keys += 1;
                }
            }
        }
        assert_eq!(keys, 7 * options.len() * fleet.len());
        // The keys themselves, folded: the values the two-pass digest gave
        // before the lanes shared a walk.
        assert_eq!(fold.finish(), 0x9f96_6aa0_7b52_f869);
    }

    #[test]
    fn identical_inputs_share_a_key() {
        let t = target();
        let a = library::ghz(4);
        let b = library::ghz(4);
        let opts = TranspileOptions::default();
        assert_eq!(TranspileKey::of(&a, &t, &opts), TranspileKey::of(&b, &t, &opts));
    }

    #[test]
    fn key_is_sensitive_to_every_input_layer() {
        let t = target();
        let circuit = library::ghz(4);
        let opts = TranspileOptions::default();
        let base = TranspileKey::of(&circuit, &t, &opts);

        // Circuit structure.
        let mut other = library::ghz(4);
        other.rz(0.25, 0);
        assert_ne!(base, TranspileKey::of(&other, &t, &opts));

        // A single gate parameter, even when the diff is one bit pattern.
        let mut a = library::ghz(4);
        a.rz(0.0, 0);
        let mut b = library::ghz(4);
        b.rz(-0.0, 0);
        assert_ne!(
            TranspileKey::of(&a, &t, &opts),
            TranspileKey::of(&b, &t, &opts),
            "keys must distinguish 0.0 from -0.0"
        );

        // Calibration epoch: same machine name and topology, next cycle.
        let topology = families::ibm_guadalupe_16q();
        let profile = qcs_calibration::NoiseProfile::with_seed(11);
        let day0 = Target::new("cairo", topology.clone(), profile.snapshot(&topology, 0));
        let day1 = Target::new("cairo", topology.clone(), profile.snapshot(&topology, 1));
        assert_ne!(
            TranspileKey::of(&circuit, &day0, &opts),
            TranspileKey::of(&circuit, &day1, &opts),
            "a new calibration cycle must change the key"
        );

        // Options.
        let minimal = TranspileOptions::minimal();
        assert_ne!(base, TranspileKey::of(&circuit, &t, &minimal));
    }

    #[test]
    fn circuit_name_participates_in_the_key() {
        let t = target();
        let opts = TranspileOptions::default();
        let anon = library::ghz(3);
        let named = library::ghz(3).named("production");
        assert_ne!(
            TranspileKey::of(&anon, &t, &opts),
            TranspileKey::of(&named, &t, &opts)
        );
    }

    #[test]
    fn cache_hit_returns_bit_identical_result() {
        let t = target();
        let cache = TranspileCache::new();
        let circuit = library::qft(4);
        let opts = TranspileOptions::default();

        let miss = cache.transpile(&circuit, &t, opts).expect("transpile");
        let hit = cache.transpile(&circuit, &t, opts).expect("transpile");
        // The hit is not merely equal output — it is the memoized value.
        assert!(Arc::ptr_eq(&miss, &hit), "hit shares the memoized value");
        assert_eq!(miss.circuit, hit.circuit);
        assert_eq!(miss.timings.entries(), hit.timings.entries());

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn errors_are_not_cached() {
        let narrow = Target::uniform("toy", families::line(2), 3);
        let cache = TranspileCache::new();
        let wide = library::ghz(5);
        let opts = TranspileOptions::default();
        assert!(cache.transpile(&wide, &narrow, opts).is_err());
        assert!(cache.is_empty(), "failed transpiles must not be memoized");
        assert!(cache.transpile(&wide, &narrow, opts).is_err(), "re-runs, same error");
        assert_eq!(cache.stats().misses, 2, "each failed attempt is a fresh miss");
    }

    #[test]
    fn concurrent_same_key_misses_coalesce_into_one_compilation() {
        let t = target();
        let cache = TranspileCache::new();
        let circuit = library::qft(4);
        let opts = TranspileOptions::default();
        const CALLERS: usize = 8;

        let barrier = std::sync::Barrier::new(CALLERS);
        let results: Vec<Arc<TranspileResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.transpile(&circuit, &t, opts).expect("transpile")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("caller")).collect()
        });

        // Exactly one pipeline run regardless of scheduling: every caller
        // shares the single memoized allocation, and the counters are the
        // same ones a sequential loop would report.
        for r in &results[1..] {
            assert!(Arc::ptr_eq(&results[0], r), "all callers share one result");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, CALLERS as u64 - 1);
        assert_eq!(cache.len(), 1);
    }

    /// Run `f(worker)` on `callers` threads released together by a barrier.
    fn race<R: Send>(callers: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let barrier = std::sync::Barrier::new(callers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers)
                .map(|worker| {
                    let (barrier, f) = (&barrier, &f);
                    scope.spawn(move || {
                        barrier.wait();
                        f(worker)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller"))
                .collect()
        })
    }

    #[test]
    fn concurrent_lookups_over_several_keys_share_one_condvar() {
        // One condvar serves every key: a finishing key wakes other keys'
        // waiters too, and they must re-check their own slot and park again.
        let t = target();
        let cache = TranspileCache::new();
        let circuits: Vec<_> = (3..7).map(library::qft).collect();
        let opts = TranspileOptions::default();
        const THREADS: usize = 8;
        const LOOKUPS: usize = 32;

        // Worker `w`'s lookup `i` is key `(w + i) % 4`.
        let per_thread: Vec<Vec<Arc<TranspileResult>>> = race(THREADS, |worker| {
            (0..LOOKUPS)
                .map(|i| {
                    let circuit = &circuits[(worker + i) % circuits.len()];
                    cache.transpile(circuit, &t, opts).expect("transpile")
                })
                .collect()
        });

        let stats = cache.stats();
        assert_eq!(stats.misses, circuits.len() as u64);
        assert_eq!(stats.hits, (THREADS * LOOKUPS - circuits.len()) as u64);
        assert_eq!(cache.len(), circuits.len());
        for (worker, results) in per_thread.iter().enumerate() {
            for (i, r) in results.iter().enumerate() {
                // Worker 0's lookup `k < 4` is key `k`: the reference allocation.
                let key = (worker + i) % circuits.len();
                assert!(
                    Arc::ptr_eq(&per_thread[0][key], r),
                    "key {key} has one result"
                );
            }
        }
    }

    #[test]
    fn failing_leader_releases_parked_waiters() {
        let narrow = Target::uniform("toy", families::line(2), 3);
        let cache = TranspileCache::new();
        let wide = library::ghz(5);
        let opts = TranspileOptions::default();
        const CALLERS: usize = 8;

        let outcomes = race(CALLERS, |_| cache.transpile(&wide, &narrow, opts));

        // Whoever led removed its marker and woke the rest; each waiter
        // then retried as its own leader and failed the same way.
        assert!(outcomes.iter().all(Result::is_err));
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, CALLERS as u64));
    }

    #[test]
    fn stats_and_clear() {
        let cache = TranspileCache::new();
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.stats().hit_rate(), 0.0);
        let t = target();
        let opts = TranspileOptions::default();
        cache.transpile(&library::ghz(3), &t, opts).expect("transpile");
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1, "clear preserves counters");
    }
}
