//! Measurement helpers shared by every workload: quartiles over units,
//! percentiles over per-operation latencies, the input RNG, digests, CPU
//! pinning and peak memory.

use std::time::Instant;

use qcs_exec::splitmix64;
use qcs_stats::quantile_sorted;

/// Extremes, median and quartiles of one timing metric over a run's units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub min: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub max: f64,
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values`, linearly interpolated between order
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN: a run always measures at least
    /// one unit, and a NaN timing is a bug in the caller.
    pub fn of(values: &[f64]) -> Quartiles {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q| quantile_sorted(&sorted, q).expect("at least one measured unit");
        Quartiles {
            min: at(0.0),
            p25: at(0.25),
            p50: at(0.5),
            p75: at(0.75),
            max: at(1.0),
            n: sorted.len(),
        }
    }
}

/// The `q`-quantile of per-operation latencies (nanoseconds), sorting in
/// place. Returns 0 for an empty sample.
pub fn percentile_ns(latencies: &mut [u32], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (latencies.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    f64::from(latencies[lo]) * (1.0 - frac) + f64::from(latencies[hi]) * frac
}

/// Median of a slice of floats (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        Quartiles::of(values).p50
    }
}

/// Mean wall time of `f` over `iters` calls, nanoseconds.
pub fn mean_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

/// SplitMix64 stream: every benchmark input that is not produced by the
/// repo's own seeded generators comes from one of these.
#[derive(Debug, Clone)]
pub struct InputRng(u64);

impl InputRng {
    pub fn new(seed: u64, stream: u64) -> InputRng {
        InputRng(splitmix64(seed ^ splitmix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is far
    /// below anything a timing can see.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over 64-bit words: the digest of a workload's outputs and of its
/// size constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn new() -> Digest {
        Digest::default()
    }

    pub fn word(&mut self, word: u64) -> &mut Digest {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn float(&mut self, x: f64) -> &mut Digest {
        self.word(x.to_bits())
    }

    pub fn text(&mut self, s: &str) -> &mut Digest {
        for byte in s.bytes() {
            self.word(u64::from(byte));
        }
        self.word(s.len() as u64)
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The kernel's `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pin this process (and every thread it spawns afterwards) to one of the
/// CPUs it is allowed on, the highest-numbered one: CPU 0 takes most of a
/// shared VM's interrupts. Returns the CPU, or `None` when the kernel
/// refuses; the caller then marks cross-thread metrics `unresolved`.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable 128-byte buffer and the size
    // passed is its size; pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if got != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live 128-byte buffer read by the call, and the
    // size passed is its size; pid 0 names the calling thread, which at
    // this point is the only thread of the process.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (set == 0).then_some(cpu)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 off Linux.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Whether the dense simulator's AVX2 kernel clones will be selected.
pub fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q.p25, q.p50, q.p75, q.n), (2.0, 3.0, 4.0, 5));
        assert_eq!((q.min, q.max), (1.0, 5.0));
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q.p25, q.p50, q.p75), (1.75, 2.5, 3.25));
        let q = Quartiles::of(&[7.5]);
        assert_eq!(
            (q.min, q.p25, q.p50, q.p75, q.max, q.n),
            (7.5, 7.5, 7.5, 7.5, 7.5, 1)
        );
    }

    #[test]
    fn percentile_sorts_and_interpolates() {
        let mut ns: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile_ns(&mut ns, 0.5), 50.5);
        assert_eq!(percentile_ns(&mut ns, 0.99), 99.01);
        assert_eq!(percentile_ns(&mut ns, 1.0), 100.0);
        assert_eq!(percentile_ns(&mut ns, 0.0), 1.0);
        assert_eq!(percentile_ns(&mut [], 0.5), 0.0);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // The golden file stores these hex strings: the function may never
        // change under it.
        assert_eq!(Digest::new().hex(), "cbf29ce484222325");
        assert_eq!(Digest::new().word(1).word(2).hex(), "7717980363c8e066");
        assert_ne!(
            Digest::new().word(2).word(1).hex(),
            Digest::new().word(1).word(2).hex()
        );
        assert_eq!(
            Digest::new().float(0.5).text("fleet_stream").hex(),
            Digest::new().float(0.5).text("fleet_stream").hex()
        );
        assert_ne!(
            Digest::new().float(0.0).hex(),
            Digest::new().float(-0.0).hex()
        );
    }

    #[test]
    fn input_rng_repeats_per_seed_and_differs_across_streams() {
        let draw = |seed, stream| {
            let mut rng = InputRng::new(seed, stream);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9, 1), draw(9, 1));
        assert_ne!(draw(9, 1), draw(9, 2));
        assert_ne!(draw(9, 1), draw(10, 1));
        let mut rng = InputRng::new(3, 0);
        let mut items: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
