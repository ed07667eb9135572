//! Measurement result histograms, as returned to cloud clients.

use std::fmt;

use qcs_exec::hash::FxHashMap;

/// A histogram of measured classical bit-strings.
///
/// Keys are clbit words (bit `i` = classical bit `i`); the paper's
/// "Results" object (§II-B ⑥): one count of bitstrings per executed
/// circuit.
///
/// Storage is an Fx-hashed map (O(1) recording on the simulator's shot
/// loop, which records every shot here; the keys are words the simulator
/// makes, never untrusted input). [`Counts::iter`] and [`fmt::Display`]
/// are sorted by outcome word, and the unkeyed hasher makes even the
/// `Debug` order the same run to run. Counters saturate instead of
/// overflowing for pathological shot counts.
///
/// # Examples
///
/// ```
/// use qcs_sim::Counts;
///
/// let mut counts = Counts::new(2);
/// counts.record(0b11, 3);
/// counts.record(0b00, 1);
/// assert_eq!(counts.total(), 4);
/// assert_eq!(counts.frequency(0b11), 0.75);
/// assert_eq!(Counts::to_bitstring(0b01, 2), "01");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    width: usize,
    histogram: FxHashMap<u64, u64>,
}

impl Counts {
    /// An empty histogram over `width` classical bits.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Counts {
            width,
            histogram: FxHashMap::default(),
        }
    }

    /// An empty histogram pre-sized for an expected number of shots: the
    /// map reserves `min(expected_shots, 2^width)` slots up front — the
    /// bitstring cardinality bounds how many distinct outcomes can ever
    /// appear, so wide registers don't over-allocate and narrow ones
    /// never rehash mid-loop.
    #[must_use]
    pub fn with_capacity(width: usize, expected_shots: usize) -> Self {
        Counts {
            width,
            histogram: FxHashMap::with_capacity_and_hasher(
                Self::outcome_bound(width, expected_shots),
                Default::default(),
            ),
        }
    }

    /// `min(expected, 2^width)` without overflowing for wide registers.
    fn outcome_bound(width: usize, expected: usize) -> usize {
        match 1usize.checked_shl(width as u32) {
            Some(cardinality) => expected.min(cardinality),
            None => expected,
        }
    }

    /// Number of classical bits per outcome.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Add `n` observations of `outcome` (saturating at `u64::MAX`).
    pub fn record(&mut self, outcome: u64, n: u64) {
        let slot = self.histogram.entry(outcome).or_insert(0);
        *slot = slot.saturating_add(n);
    }

    /// Total shots recorded (saturating at `u64::MAX`).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.histogram
            .values()
            .fold(0u64, |acc, &v| acc.saturating_add(v))
    }

    /// Count of a specific outcome.
    #[must_use]
    pub fn count(&self, outcome: u64) -> u64 {
        self.histogram.get(&outcome).copied().unwrap_or(0)
    }

    /// Relative frequency of `outcome` (0 if no shots recorded).
    #[must_use]
    pub fn frequency(&self, outcome: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(outcome) as f64 / total as f64
        }
    }

    /// The most frequent outcome, if any (ties broken by smaller word).
    #[must_use]
    pub fn most_common(&self) -> Option<u64> {
        self.histogram
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&k, _)| k)
    }

    /// Iterate `(outcome, count)` in ascending outcome order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &u64)> {
        let mut entries: Vec<(&u64, &u64)> = self.histogram.iter().collect();
        entries.sort_unstable_by_key(|(k, _)| **k);
        entries.into_iter()
    }

    /// Number of distinct outcomes observed.
    #[must_use]
    pub fn num_outcomes(&self) -> usize {
        self.histogram.len()
    }

    /// Merge another histogram into this one. The map is pre-sized for
    /// the incoming outcomes (bounded by the bitstring cardinality) so
    /// the per-trajectory merge loop in the noisy simulator never rehashes
    /// more than once; counters saturate instead of overflowing.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn merge(&mut self, other: &Counts) {
        assert_eq!(self.width, other.width, "width mismatch");
        let incoming = Self::outcome_bound(self.width, other.num_outcomes())
            .saturating_sub(self.histogram.len());
        self.histogram.reserve(incoming);
        for (&k, &v) in &other.histogram {
            self.record(k, v);
        }
    }

    /// Render an outcome word as a bitstring, most-significant bit first.
    #[must_use]
    pub fn to_bitstring(outcome: u64, width: usize) -> String {
        (0..width)
            .rev()
            .map(|b| if (outcome >> b) & 1 == 1 { '1' } else { '0' })
            .collect()
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (&k, &v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {v}", Counts::to_bitstring(k, self.width))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut c = Counts::new(3);
        c.record(0b101, 5);
        c.record(0b101, 2);
        c.record(0b000, 3);
        assert_eq!(c.total(), 10);
        assert_eq!(c.count(0b101), 7);
        assert_eq!(c.frequency(0b000), 0.3);
        assert_eq!(c.most_common(), Some(0b101));
        assert_eq!(c.num_outcomes(), 2);
    }

    #[test]
    fn empty_counts() {
        let c = Counts::new(2);
        assert_eq!(c.total(), 0);
        assert_eq!(c.frequency(0), 0.0);
        assert_eq!(c.most_common(), None);
    }

    #[test]
    fn merge_adds() {
        let mut a = Counts::new(2);
        a.record(0b01, 2);
        let mut b = Counts::new(2);
        b.record(0b01, 3);
        b.record(0b10, 1);
        a.merge(&b);
        assert_eq!(a.count(0b01), 5);
        assert_eq!(a.count(0b10), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_rejects_width_mismatch() {
        let mut a = Counts::new(2);
        a.merge(&Counts::new(3));
    }

    #[test]
    fn bitstring_rendering() {
        assert_eq!(Counts::to_bitstring(0b110, 3), "110");
        assert_eq!(Counts::to_bitstring(0, 4), "0000");
        let mut c = Counts::new(2);
        c.record(0b10, 1);
        assert_eq!(c.to_string(), "{10: 1}");
    }

    #[test]
    fn iter_is_sorted_by_outcome() {
        let mut c = Counts::new(4);
        for k in [9u64, 3, 12, 0, 7] {
            c.record(k, 1);
        }
        let keys: Vec<u64> = c.iter().map(|(&k, _)| k).collect();
        assert_eq!(keys, vec![0, 3, 7, 9, 12]);
    }

    #[test]
    fn with_capacity_bounds_by_cardinality() {
        // 2-bit register: at most 4 outcomes no matter how many shots.
        let c = Counts::with_capacity(2, 1_000_000);
        assert!(c.histogram.capacity() < 64, "over-allocated for width 2");
        // A wide register must not overflow the shift.
        let w = Counts::with_capacity(64, 128);
        assert_eq!(w.width(), 64);
    }

    #[test]
    fn record_saturates_instead_of_overflowing() {
        let mut c = Counts::new(1);
        c.record(0, u64::MAX - 1);
        c.record(0, 5); // would overflow; must clamp
        assert_eq!(c.count(0), u64::MAX);
        c.record(1, 3);
        assert_eq!(c.total(), u64::MAX, "total saturates too");
        let mut other = Counts::new(1);
        other.record(0, 10);
        c.merge(&other); // merge into a saturated slot stays saturated
        assert_eq!(c.count(0), u64::MAX);
    }
}
