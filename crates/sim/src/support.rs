//! Affine GF(2) spans of basis states: the one type both the stabilizer
//! backend (the support of a stabilizer state) and the frame executor
//! (the support of a dense trajectory, see [`crate::frame`]) enumerate
//! and sample by rank.

/// The affine space `x0 ⊕ span{gens}` of `2^k` basis states, in reduced
/// form: the `gens` have distinct leading bits (their *pivots*),
/// descending, and no other generator nor `x0` carries a pivot bit. Rank
/// `r ∈ 0..2^k` is then the basis state `x0 ⊕ ⊕_{bit j of r} v_j` and
/// ranks enumerate the space in ascending basis order: the pivot bits of
/// an element are the bits of its rank, and the highest bit two elements
/// differ in is the highest pivot of their difference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Support {
    pub(crate) k: usize,
    pub(crate) x0: u128,
    pub(crate) gens: Vec<u128>,
}

/// The leading bit of a nonzero `x`.
fn lead(x: u128) -> u32 {
    127 - x.leading_zeros()
}

impl Support {
    /// The reduced form of `x0 ⊕ span{vectors}`: each vector is reduced
    /// against the generators so far and, when something is left, its
    /// leading bit becomes a new pivot, cleared from every generator that
    /// carries it (Gauss–Jordan elimination, one vector at a time).
    pub(crate) fn spanned(x0: u128, vectors: impl IntoIterator<Item = u128>) -> Self {
        let mut support = Support {
            k: 0,
            x0: 0,
            gens: Vec::new(),
        };
        for vector in vectors {
            let v = support.reduce(vector);
            if v == 0 {
                continue;
            }
            let pivot = lead(v);
            for gen in &mut support.gens {
                if *gen >> pivot & 1 != 0 {
                    *gen ^= v;
                }
            }
            // `v` carries no pivot, so no generator's leading bit moved.
            let at = support.gens.partition_point(|&gen| lead(gen) > pivot);
            support.gens.insert(at, v);
        }
        support.k = support.gens.len();
        support.x0 = support.reduce(x0);
        support
    }

    /// The element of `x ⊕ span{gens}` with no pivot bit set: wherever a
    /// generator's pivot (its leading bit) is set, XOR that generator
    /// (no other generator carries the bit, so one pass in any order).
    pub(crate) fn reduce(&self, mut x: u128) -> u128 {
        for &gen in &self.gens {
            if x >> lead(gen) & 1 != 0 {
                x ^= gen;
            }
        }
        x
    }

    /// The basis state of rank `rank ∈ 0..2^k` (ascending basis order) of
    /// the space translated to offset `x0` — [`Support::x0`] itself, or
    /// a reduced shift of it such as a stabilizer trajectory's.
    pub(crate) fn basis_of_rank(&self, x0: u128, rank: u64) -> u128 {
        let mut e = x0;
        for (j, gen) in self.gens.iter().enumerate() {
            if rank >> (self.k - 1 - j) & 1 != 0 {
                e ^= gen;
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ranks_enumerate_the_span_in_ascending_order() {
        // Random vectors (dependent ones included) at random offsets: the
        // ranks list exactly the affine space, each element once, sorted.
        let mut rng = StdRng::seed_from_u64(5);
        for n in 1..=10u32 {
            for _ in 0..20 {
                let count = rng.gen_range(0..n as usize + 3);
                let words: Vec<u128> = (0..=count)
                    .map(|_| u128::from(rng.gen_range(0..1u64 << n)))
                    .collect();
                let (x0, vectors) = (words[0], &words[1..]);
                let support = Support::spanned(x0, vectors.iter().copied());
                let mut expected = vec![x0];
                for &v in vectors {
                    let shifted: Vec<u128> = expected.iter().map(|&e| e ^ v).collect();
                    expected.extend(shifted);
                }
                expected.sort_unstable();
                expected.dedup();
                let ranks: Vec<u128> = (0..1u64 << support.k)
                    .map(|r| support.basis_of_rank(support.x0, r))
                    .collect();
                assert_eq!(ranks, expected, "n={n}, vectors {vectors:?}, x0 {x0}");
                for &gen in &support.gens {
                    assert_eq!(support.reduce(gen), 0);
                }
            }
        }
    }

    #[test]
    fn the_full_space_is_the_identity_ranking() {
        let support = Support::spanned(0b101, [0b110, 0b011, 0b001, 0b111]);
        assert_eq!((support.k, support.x0), (3, 0));
        assert_eq!(support.gens, [0b100, 0b010, 0b001]);
    }
}
