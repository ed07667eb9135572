//! Undirected coupling graphs and basic graph algorithms.

use std::collections::VecDeque;
use std::fmt;

/// An undirected graph over qubits `0..n`, describing which pairs support a
/// native two-qubit gate.
///
/// Stored as an adjacency list plus a deduplicated edge list (each edge kept
/// once with `a < b`).
///
/// # Examples
///
/// ```
/// use qcs_topology::CouplingGraph;
///
/// let line = CouplingGraph::from_edges(3, &[(0, 1), (1, 2)]);
/// assert_eq!(line.num_edges(), 2);
/// assert_eq!(line.distance(0, 2), Some(2));
/// assert!(line.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingGraph {
    num_qubits: usize,
    adjacency: Vec<Vec<usize>>,
    edges: Vec<(usize, usize)>,
}

impl CouplingGraph {
    /// Build a graph from an edge list. Duplicate and reversed edges are
    /// collapsed; self-loops are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= num_qubits`.
    #[must_use]
    pub fn from_edges(num_qubits: usize, edges: &[(usize, usize)]) -> Self {
        let mut adjacency = vec![Vec::new(); num_qubits];
        let mut dedup = std::collections::BTreeSet::new();
        for &(a, b) in edges {
            assert!(
                a < num_qubits && b < num_qubits,
                "edge ({a},{b}) out of range for {num_qubits} qubits"
            );
            if a == b {
                continue;
            }
            dedup.insert((a.min(b), a.max(b)));
        }
        let edges: Vec<(usize, usize)> = dedup.into_iter().collect();
        for &(a, b) in &edges {
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        for adj in &mut adjacency {
            adj.sort_unstable();
        }
        CouplingGraph {
            num_qubits,
            adjacency,
            edges,
        }
    }

    /// A graph with no edges (e.g. a 1-qubit device).
    #[must_use]
    pub fn edgeless(num_qubits: usize) -> Self {
        CouplingGraph::from_edges(num_qubits, &[])
    }

    /// Number of qubits (nodes).
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The deduplicated edge list, each as `(low, high)`.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Neighbors of `q` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }

    /// Degree of node `q`.
    #[must_use]
    pub fn degree(&self, q: usize) -> usize {
        self.adjacency[q].len()
    }

    /// Whether `a` and `b` are directly coupled.
    #[must_use]
    pub fn are_coupled(&self, a: usize, b: usize) -> bool {
        a < self.num_qubits && self.adjacency[a].binary_search(&b).is_ok()
    }

    /// BFS distances from `source` to every node (`None` if unreachable).
    #[must_use]
    pub fn distances_from(&self, source: usize) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.num_qubits];
        let mut queue = VecDeque::new();
        dist[source] = Some(0);
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("visited nodes have a distance");
            for &v in &self.adjacency[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Shortest-path distance between `a` and `b` in hops.
    #[must_use]
    pub fn distance(&self, a: usize, b: usize) -> Option<usize> {
        self.distances_from(a)[b]
    }

    /// One shortest path from `a` to `b` (inclusive of both endpoints), or
    /// `None` if disconnected.
    #[must_use]
    pub fn shortest_path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        if a == b {
            return Some(vec![a]);
        }
        let mut parent = vec![usize::MAX; self.num_qubits];
        let mut seen = vec![false; self.num_qubits];
        let mut queue = VecDeque::new();
        seen[a] = true;
        queue.push_back(a);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adjacency[u] {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = u;
                    if v == b {
                        let mut path = vec![b];
                        let mut cur = b;
                        while cur != a {
                            cur = parent[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// All-pairs distance matrix; `usize::MAX` marks unreachable pairs.
    ///
    /// O(V·E); cheap at device sizes (≤ a few thousand qubits).
    #[must_use]
    pub fn distance_matrix(&self) -> Vec<Vec<usize>> {
        (0..self.num_qubits)
            .map(|s| {
                self.distances_from(s)
                    .into_iter()
                    .map(|d| d.unwrap_or(usize::MAX))
                    .collect()
            })
            .collect()
    }

    /// Whether the graph is connected (vacuously true for 0/1 nodes).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.num_qubits <= 1 {
            return true;
        }
        self.distances_from(0).iter().all(Option::is_some)
    }

    /// Graph diameter (longest shortest path); `None` if disconnected or
    /// empty.
    #[must_use]
    pub fn diameter(&self) -> Option<usize> {
        if self.num_qubits == 0 || !self.is_connected() {
            return None;
        }
        let mut best = 0;
        for s in 0..self.num_qubits {
            for d in self.distances_from(s).into_iter().flatten() {
                best = best.max(d);
            }
        }
        Some(best)
    }

    /// The subgraph induced by `nodes`: node `i` of the result corresponds
    /// to `nodes[i]`, and an edge exists where both endpoints are in
    /// `nodes` and coupled here.
    ///
    /// # Panics
    ///
    /// Panics if a node repeats or is out of range.
    #[must_use]
    pub fn induced_subgraph(&self, nodes: &[usize]) -> CouplingGraph {
        let mut index_of = std::collections::HashMap::with_capacity(nodes.len());
        for (new, &old) in nodes.iter().enumerate() {
            assert!(old < self.num_qubits, "node {old} out of range");
            assert!(
                index_of.insert(old, new).is_none(),
                "node {old} repeated in subgraph selection"
            );
        }
        let edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter_map(|&(a, b)| {
                let na = index_of.get(&a)?;
                let nb = index_of.get(&b)?;
                Some((*na, *nb))
            })
            .collect();
        CouplingGraph::from_edges(nodes.len(), &edges)
    }

    /// Count edges crossing a partition described by `side[q] == true/false`.
    ///
    /// # Panics
    ///
    /// Panics if `side.len() != num_qubits`.
    #[must_use]
    pub fn cut_size(&self, side: &[bool]) -> usize {
        assert_eq!(side.len(), self.num_qubits, "partition size mismatch");
        self.edges
            .iter()
            .filter(|&&(a, b)| side[a] != side[b])
            .count()
    }
}

impl fmt::Display for CouplingGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coupling graph: {} qubits, {} edges",
            self.num_qubits,
            self.edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> CouplingGraph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        CouplingGraph::from_edges(n, &edges)
    }

    #[test]
    fn dedup_and_selfloops() {
        let g = CouplingGraph::from_edges(3, &[(0, 1), (1, 0), (1, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = CouplingGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn distances_on_path() {
        let g = path(5);
        assert_eq!(g.distance(0, 4), Some(4));
        assert_eq!(g.distance(2, 2), Some(0));
        assert_eq!(g.diameter(), Some(4));
    }

    #[test]
    fn shortest_path_endpoints() {
        let g = path(5);
        let p = g.shortest_path(1, 4).unwrap();
        assert_eq!(p, vec![1, 2, 3, 4]);
        assert_eq!(g.shortest_path(3, 3).unwrap(), vec![3]);
    }

    #[test]
    fn disconnected_detected() {
        let g = CouplingGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        assert_eq!(g.distance(0, 3), None);
        assert_eq!(g.diameter(), None);
        assert_eq!(g.shortest_path(0, 2), None);
    }

    #[test]
    fn edgeless_single_qubit() {
        let g = CouplingGraph::edgeless(1);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(0));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn coupled_check() {
        let g = path(4);
        assert!(g.are_coupled(1, 2));
        assert!(!g.are_coupled(0, 2));
    }

    #[test]
    fn cut_size_counts_crossing() {
        let g = path(4);
        let side = vec![true, true, false, false];
        assert_eq!(g.cut_size(&side), 1);
        let side = vec![true, false, true, false];
        assert_eq!(g.cut_size(&side), 3);
    }

    #[test]
    fn induced_subgraph_maps_edges() {
        let g = path(5);
        // Select 1,2,3: path of 3.
        let sub = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.num_qubits(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.are_coupled(0, 1) && sub.are_coupled(1, 2));
        // Select disconnected nodes 0 and 4.
        let sub = g.induced_subgraph(&[0, 4]);
        assert_eq!(sub.num_edges(), 0);
        // Order-sensitive mapping.
        let sub = g.induced_subgraph(&[3, 1, 2]);
        assert!(sub.are_coupled(0, 2)); // 3-2
        assert!(sub.are_coupled(1, 2)); // 1-2
        assert!(!sub.are_coupled(0, 1));
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn induced_subgraph_rejects_duplicates() {
        let _ = path(3).induced_subgraph(&[0, 0]);
    }

    #[test]
    fn distance_matrix_symmetric() {
        let g = path(6);
        let m = g.distance_matrix();
        for (i, row) in m.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(d, m[j][i]);
            }
        }
        assert_eq!(m[0][5], 5);
    }
}
