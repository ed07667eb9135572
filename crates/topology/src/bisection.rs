//! Bisection bandwidth of a coupling graph.
//!
//! "If the network is bisected into two partitions, the bisection bandwidth
//! of a network topology is the bandwidth available between the two
//! partitions" (paper, §IV-A). For unit-capacity links this is the minimum
//! number of edges crossing a roughly balanced node partition.
//!
//! Finding the exact minimum balanced cut is NP-hard; at device sizes we
//! combine exhaustive search (small graphs) with a seeded local-search
//! heuristic (larger graphs). The heuristic is deterministic given the same
//! input.

use crate::CouplingGraph;

/// Minimum fraction of nodes on the smaller side. `0.5` would be a strict
/// bisection; the paper-style topology comparison tolerates moderate
/// imbalance, matching how bisection is reported for irregular machine
/// graphs.
const MIN_FRACTION: f64 = 0.3;

/// Local-search restarts on the heuristic path.
const RESTARTS: usize = 48;

/// Result of a bisection computation.
#[derive(Debug)]
struct Bisection {
    /// Number of edges crossing the partition.
    cut_edges: usize,
    /// Side assignment per node (`true` = side A).
    side: Vec<bool>,
}

/// Compute the bisection bandwidth: the fewest edges crossing a partition
/// that puts at least 30% of the nodes on each side.
///
/// Returns 0 for graphs with fewer than 2 nodes or no edges.
///
/// # Examples
///
/// ```
/// use qcs_topology::{bisection_bandwidth, families};
///
/// // The paper's Fig 6 reference point: a 64-node mesh bisects at 8.
/// let mesh = families::grid(8, 8);
/// assert_eq!(bisection_bandwidth(&mesh), 8);
/// ```
#[must_use]
pub fn bisection_bandwidth(graph: &CouplingGraph) -> usize {
    bisect(graph).cut_edges
}

/// Compute a (near-)minimum balanced cut.
///
/// Uses exhaustive subset enumeration for `n <= 20` (exact) and a
/// Fiduccia–Mattheyses-style local search with deterministic restarts
/// beyond that.
fn bisect(graph: &CouplingGraph) -> Bisection {
    let n = graph.num_qubits();
    if n < 2 || graph.num_edges() == 0 {
        return Bisection {
            cut_edges: 0,
            side: vec![false; n],
        };
    }
    let min_side = ((n as f64) * MIN_FRACTION).ceil() as usize;
    let min_side = min_side.max(1);
    if n <= 20 {
        exact_bisection(graph, min_side)
    } else {
        heuristic_bisection(graph, min_side)
    }
}

/// Exhaustively enumerate subsets containing node 0 with allowed sizes.
fn exact_bisection(graph: &CouplingGraph, min_side: usize) -> Bisection {
    let n = graph.num_qubits();
    let mut best_cut = usize::MAX;
    let mut best_mask = 0u32;
    // Fix node 0 on side A to halve the search space.
    for mask in 0..(1u32 << (n - 1)) {
        let full = (mask << 1) | 1;
        let size_a = full.count_ones() as usize;
        if size_a < min_side || n - size_a < min_side {
            continue;
        }
        let mut cut = 0usize;
        for &(a, b) in graph.edges() {
            if ((full >> a) & 1) != ((full >> b) & 1) {
                cut += 1;
                if cut >= best_cut {
                    break;
                }
            }
        }
        if cut < best_cut {
            best_cut = cut;
            best_mask = full;
        }
    }
    let side = (0..n).map(|q| (best_mask >> q) & 1 == 1).collect();
    Bisection {
        cut_edges: best_cut,
        side,
    }
}

/// Deterministic xorshift PRNG so the crate stays dependency-free.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Local search over three candidate sources: deterministic sweep cuts
/// (prefix cuts of node orderings — exact for meshes and row-structured
/// graphs), BFS-grown regions, and random balanced partitions; each
/// candidate is polished by greedy boundary moves.
fn heuristic_bisection(graph: &CouplingGraph, min_side: usize) -> Bisection {
    let n = graph.num_qubits();
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut best = Bisection {
        cut_edges: usize::MAX,
        side: vec![false; n],
    };

    // Sweep cuts: evaluate every allowed prefix of several node orderings.
    let mut orderings: Vec<Vec<usize>> = vec![(0..n).collect()];
    let step = (n / 6).max(1);
    for seed in (0..n).step_by(step) {
        orderings.push(bfs_order(graph, seed));
    }
    for order in &orderings {
        if let Some(candidate) = best_prefix_cut(graph, order, min_side) {
            let mut side = candidate.side;
            refine(graph, &mut side, min_side, &mut rng);
            let cut = graph.cut_size(&side);
            if cut < best.cut_edges {
                best = Bisection { cut_edges: cut, side };
            }
        }
    }

    for restart in 0..RESTARTS {
        let mut side = if restart % 2 == 0 {
            bfs_grown_side(graph, restart % n, n / 2)
        } else {
            let mut s = vec![false; n];
            let mut size_a = 0;
            while size_a < n / 2 {
                let q = rng.below(n);
                if !s[q] {
                    s[q] = true;
                    size_a += 1;
                }
            }
            s
        };

        refine(graph, &mut side, min_side, &mut rng);
        let cut = graph.cut_size(&side);
        if cut < best.cut_edges {
            best = Bisection {
                cut_edges: cut,
                side,
            };
        }
    }
    best
}

/// Visit order of a BFS from `seed`, with unreachable nodes appended.
fn bfs_order(graph: &CouplingGraph, seed: usize) -> Vec<usize> {
    let n = graph.num_qubits();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[seed] = true;
    queue.push_back(seed);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in graph.neighbors(u) {
            if !visited[v] {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    for (q, &seen) in visited.iter().enumerate() {
        if !seen {
            order.push(q);
        }
    }
    order
}

/// The best cut among all balance-feasible prefixes of `order`, computed
/// incrementally in O(V + E).
fn best_prefix_cut(graph: &CouplingGraph, order: &[usize], min_side: usize) -> Option<Bisection> {
    let n = graph.num_qubits();
    if n < 2 * min_side {
        return None;
    }
    let mut in_prefix = vec![false; n];
    let mut cut = 0usize;
    let mut best_cut = usize::MAX;
    let mut best_len = 0usize;
    for (len, &v) in order.iter().enumerate() {
        for &u in graph.neighbors(v) {
            if in_prefix[u] {
                cut -= 1;
            } else {
                cut += 1;
            }
        }
        in_prefix[v] = true;
        let size_a = len + 1;
        if size_a >= min_side && n - size_a >= min_side && cut < best_cut {
            best_cut = cut;
            best_len = size_a;
        }
    }
    if best_cut == usize::MAX {
        return None;
    }
    let mut side = vec![false; n];
    for &v in &order[..best_len] {
        side[v] = true;
    }
    Some(Bisection {
        cut_edges: best_cut,
        side,
    })
}

/// Grow side A by BFS from a seed node until it holds `target` nodes.
fn bfs_grown_side(graph: &CouplingGraph, seed: usize, target: usize) -> Vec<bool> {
    let n = graph.num_qubits();
    let mut side = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let mut count = 0;
    side[seed] = true;
    count += 1;
    queue.push_back(seed);
    let mut visited = vec![false; n];
    visited[seed] = true;
    while let Some(u) = queue.pop_front() {
        if count >= target {
            break;
        }
        for &v in graph.neighbors(u) {
            if !visited[v] {
                visited[v] = true;
                if count < target {
                    side[v] = true;
                    count += 1;
                }
                queue.push_back(v);
            }
        }
    }
    // If the graph is disconnected, fill arbitrarily.
    let mut q = 0;
    while count < target && q < n {
        if !side[q] {
            side[q] = true;
            count += 1;
        }
        q += 1;
    }
    side
}

/// Greedy gain-based refinement with random tie-breaking; repeats until a
/// full sweep yields no improvement.
fn refine(graph: &CouplingGraph, side: &mut [bool], min_side: usize, rng: &mut XorShift) {
    let n = graph.num_qubits();
    loop {
        let mut improved = false;
        // Visit nodes in a randomized order.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.below(i + 1);
            order.swap(i, j);
        }
        for &q in &order {
            let size_a = side.iter().filter(|&&s| s).count();
            let from_a = side[q];
            // Balance check: moving q must keep both sides >= min_side.
            let (new_a, new_b) = if from_a {
                (size_a - 1, n - size_a + 1)
            } else {
                (size_a + 1, n - size_a - 1)
            };
            if new_a < min_side || new_b < min_side {
                continue;
            }
            // Gain = (crossing edges removed) - (crossing edges added).
            let mut gain: i64 = 0;
            for &v in graph.neighbors(q) {
                if side[v] == side[q] {
                    gain -= 1;
                } else {
                    gain += 1;
                }
            }
            if gain > 0 {
                side[q] = !side[q];
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    /// Sizes of the two partitions `(A, B)`.
    fn sizes(b: &Bisection) -> (usize, usize) {
        let a = b.side.iter().filter(|&&s| s).count();
        (a, b.side.len() - a)
    }

    #[test]
    fn path_bisects_at_one() {
        let g = families::line(10);
        assert_eq!(bisection_bandwidth(&g), 1);
    }

    #[test]
    fn ring_bisects_at_two() {
        let g = families::ring(12);
        assert_eq!(bisection_bandwidth(&g), 2);
    }

    #[test]
    fn small_grid_exact() {
        // 4x4 grid: strict bisection cuts 4 edges.
        let g = families::grid(4, 4);
        let b = exact_bisection(&g, 16 / 2);
        assert_eq!(b.cut_edges, 4);
        let (a, bb) = sizes(&b);
        assert_eq!(a + bb, 16);
        assert_eq!(a, 8);
    }

    #[test]
    fn mesh64_bisects_at_eight() {
        let g = families::grid(8, 8);
        assert_eq!(bisection_bandwidth(&g), 8);
    }

    #[test]
    fn hummingbird_bisects_at_three() {
        // The paper's headline Fig 6 datapoint: 65q Manhattan = 3.
        let g = families::ibm_hummingbird_65q();
        assert_eq!(bisection_bandwidth(&g), 3);
    }

    #[test]
    fn falcon27_low_bisection() {
        let g = families::ibm_falcon_27q();
        let bw = bisection_bandwidth(&g);
        assert!((1..=4).contains(&bw), "falcon bisection was {bw}");
    }

    #[test]
    fn edgeless_is_zero() {
        let g = CouplingGraph::edgeless(4);
        assert_eq!(bisection_bandwidth(&g), 0);
    }

    #[test]
    fn single_node_is_zero() {
        let g = CouplingGraph::edgeless(1);
        assert_eq!(bisection_bandwidth(&g), 0);
    }

    #[test]
    fn cut_matches_side_assignment() {
        let g = families::grid(5, 5);
        let b = bisect(&g);
        assert_eq!(g.cut_size(&b.side), b.cut_edges);
        let (a, bb) = sizes(&b);
        assert!(a >= 8 && bb >= 8); // 0.3 * 25 rounded up
    }

    #[test]
    fn complete_graph_cut() {
        // K6 strict bisection: 3x3 split cuts 9 edges.
        let g = families::complete(6);
        let b = exact_bisection(&g, 6 / 2);
        assert_eq!(b.cut_edges, 9);
    }
}
