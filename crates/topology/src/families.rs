//! Generators for the topology families used by real quantum machines and
//! the classical comparison topologies from the paper (Fig 6).

use crate::CouplingGraph;

/// A linear chain `0 - 1 - ... - n-1` (IBM's 5-qubit "linear" devices).
#[must_use]
pub fn line(n: usize) -> CouplingGraph {
    let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    CouplingGraph::from_edges(n, &edges)
}

/// A ring of `n` qubits.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn ring(n: usize) -> CouplingGraph {
    assert!(n >= 3, "ring needs at least 3 nodes");
    let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    edges.push((n - 1, 0));
    CouplingGraph::from_edges(n, &edges)
}

/// A `rows x cols` 2D mesh — the classical comparison topology in Fig 6
/// (a 64-node mesh has bisection bandwidth 8).
#[must_use]
pub fn grid(rows: usize, cols: usize) -> CouplingGraph {
    let n = rows * cols;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            if c + 1 < cols {
                edges.push((id, id + 1));
            }
            if r + 1 < rows {
                edges.push((id, id + cols));
            }
        }
    }
    CouplingGraph::from_edges(n, &edges)
}

/// A star: node 0 coupled to all others.
#[must_use]
pub fn star(n: usize) -> CouplingGraph {
    let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
    CouplingGraph::from_edges(n, &edges)
}

/// A fully-connected graph (trapped-ion-style all-to-all connectivity).
#[must_use]
pub fn complete(n: usize) -> CouplingGraph {
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            edges.push((a, b));
        }
    }
    CouplingGraph::from_edges(n, &edges)
}

/// IBM's 5-qubit "T" layout (Vigo, Ourense, Valencia):
///
/// ```text
/// 0 - 1 - 2
///     |
///     3
///     |
///     4
/// ```
#[must_use]
pub fn ibm_t_5q() -> CouplingGraph {
    CouplingGraph::from_edges(5, &[(0, 1), (1, 2), (1, 3), (3, 4)])
}

/// IBM's 5-qubit "bowtie" layout (Yorktown):
///
/// ```text
/// 0   3
/// |\ /|
/// | 2 |
/// |/ \|
/// 1   4
/// ```
#[must_use]
pub fn ibm_bowtie_5q() -> CouplingGraph {
    CouplingGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
}

/// IBM's 7-qubit "H" layout (Casablanca, Jakarta, Lagos):
///
/// ```text
/// 0       4
/// |       |
/// 1 - 3 - 5
/// |       |
/// 2       6
/// ```
#[must_use]
pub fn ibm_h_7q() -> CouplingGraph {
    CouplingGraph::from_edges(7, &[(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)])
}

/// IBM's 15-qubit ladder (Melbourne): two rows with rung couplings.
#[must_use]
pub fn ibm_melbourne_15q() -> CouplingGraph {
    CouplingGraph::from_edges(
        15,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (7, 8),
            (8, 9),
            (9, 10),
            (10, 11),
            (11, 12),
            (12, 13),
            (13, 14),
            (0, 14),
            (1, 13),
            (2, 12),
            (3, 11),
            (4, 10),
            (5, 9),
            (6, 8),
        ],
    )
}

/// IBM's 16-qubit Falcon r4 layout (Guadalupe) — a single heavy-hex cell
/// with spurs.
#[must_use]
pub fn ibm_guadalupe_16q() -> CouplingGraph {
    CouplingGraph::from_edges(
        16,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 5),
            (1, 4),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
        ],
    )
}

/// IBM's 27-qubit Falcon layout (Toronto, Paris, Sydney, Montreal, Mumbai).
#[must_use]
pub fn ibm_falcon_27q() -> CouplingGraph {
    CouplingGraph::from_edges(
        27,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 5),
            (1, 4),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
            (14, 16),
            (15, 18),
            (16, 19),
            (17, 18),
            (18, 21),
            (19, 20),
            (19, 22),
            (21, 23),
            (22, 25),
            (23, 24),
            (24, 25),
            (25, 26),
        ],
    )
}

/// IBM's 65-qubit Hummingbird heavy-hex layout (Manhattan, Brooklyn):
/// five rows of qubits joined by vertical connector qubits. The paper
/// reports its bisection bandwidth as 3 (Fig 6).
#[must_use]
pub fn ibm_hummingbird_65q() -> CouplingGraph {
    let mut edges = Vec::new();
    // Row qubit index ranges: r0: 0..=9, r1: 13..=23, r2: 27..=37,
    // r3: 41..=51, r4: 55..=64. Connectors: 10,11,12 / 24,25,26 /
    // 38,39,40 / 52,53,54.
    let rows: [(usize, usize); 5] = [(0, 9), (13, 23), (27, 37), (41, 51), (55, 64)];
    for &(lo, hi) in &rows {
        for q in lo..hi {
            edges.push((q, q + 1));
        }
    }
    // Connectors between row 0 and row 1.
    edges.extend_from_slice(&[(0, 10), (4, 11), (8, 12), (10, 13), (11, 17), (12, 21)]);
    // Row 1 -> row 2.
    edges.extend_from_slice(&[(15, 24), (19, 25), (23, 26), (24, 29), (25, 33), (26, 37)]);
    // Row 2 -> row 3.
    edges.extend_from_slice(&[(27, 38), (31, 39), (35, 40), (38, 41), (39, 45), (40, 49)]);
    // Row 3 -> row 4.
    edges.extend_from_slice(&[(43, 52), (47, 53), (51, 54), (52, 56), (53, 60), (54, 64)]);
    CouplingGraph::from_edges(65, &edges)
}

/// A generic heavy-hex-style lattice with `rows` qubit rows of width
/// `row_len`, used to model hypothetical future machines (e.g. the
/// ~1000-qubit target of Fig 5).
///
/// Every other row boundary alternates connector alignment, mirroring the
/// IBM hummingbird pattern. Connector spacing is 4 row positions.
///
/// # Panics
///
/// Panics if `rows == 0` or `row_len < 5`.
#[must_use]
pub fn heavy_hex(rows: usize, row_len: usize) -> CouplingGraph {
    assert!(rows > 0 && row_len >= 5, "heavy hex needs rows>0, row_len>=5");
    let mut edges = Vec::new();
    let connectors_per_gap = (row_len - 1) / 4 + 1;
    let mut id = 0usize;
    let mut row_start = Vec::new();
    for _ in 0..rows {
        row_start.push(id);
        for q in 0..row_len - 1 {
            edges.push((id + q, id + q + 1));
        }
        id += row_len;
        id += connectors_per_gap; // reserve connector ids after each row
    }
    let total = id - connectors_per_gap; // last row has no trailing connectors
    for r in 0..rows - 1 {
        let conn_base = row_start[r] + row_len;
        for k in 0..connectors_per_gap {
            let conn = conn_base + k;
            // Alternate alignment between even and odd gaps.
            let offset = if r % 2 == 0 { 4 * k } else { (4 * k + 2).min(row_len - 1) };
            let top = row_start[r] + offset.min(row_len - 1);
            let bottom = row_start[r + 1] + offset.min(row_len - 1);
            edges.push((top, conn));
            edges.push((conn, bottom));
        }
    }
    CouplingGraph::from_edges(total, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_ring_degrees() {
        let l = line(5);
        assert_eq!(l.degree(0), 1);
        assert_eq!(l.degree(2), 2);
        let r = ring(5);
        assert!(r.is_connected());
        assert!((0..5).all(|q| r.degree(q) == 2));
    }

    #[test]
    fn grid_structure() {
        let g = grid(8, 8);
        assert_eq!(g.num_qubits(), 64);
        assert_eq!(g.num_edges(), 2 * 8 * 7);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(14));
    }

    #[test]
    fn star_and_complete() {
        let s = star(6);
        assert_eq!(s.degree(0), 5);
        assert_eq!(s.diameter(), Some(2));
        let k = complete(6);
        assert_eq!(k.num_edges(), 15);
        assert_eq!(k.diameter(), Some(1));
    }

    #[test]
    fn ibm_small_layouts_connected() {
        for g in [ibm_t_5q(), ibm_bowtie_5q(), ibm_h_7q()] {
            assert!(g.is_connected());
        }
        assert_eq!(ibm_t_5q().num_qubits(), 5);
        assert_eq!(ibm_h_7q().num_qubits(), 7);
    }

    #[test]
    fn melbourne_is_ladder() {
        let g = ibm_melbourne_15q();
        assert_eq!(g.num_qubits(), 15);
        assert!(g.is_connected());
        // Average degree 2E/N above 2: more rungs than a line.
        assert!(g.num_edges() > g.num_qubits());
    }

    #[test]
    fn guadalupe_and_falcon_shapes() {
        let g = ibm_guadalupe_16q();
        assert_eq!(g.num_qubits(), 16);
        assert!(g.is_connected());
        let f = ibm_falcon_27q();
        assert_eq!(f.num_qubits(), 27);
        assert!(f.is_connected());
        // Heavy-hex graphs are sparse: max degree 3.
        assert!((0..27).all(|q| f.degree(q) <= 3));
    }

    #[test]
    fn hummingbird_shape() {
        let g = ibm_hummingbird_65q();
        assert_eq!(g.num_qubits(), 65);
        assert!(g.is_connected());
        assert!((0..65).all(|q| g.degree(q) <= 3));
        assert_eq!(g.num_edges(), 72);
    }

    #[test]
    fn heavy_hex_generator_scales() {
        let g = heavy_hex(5, 11);
        assert!(g.is_connected());
        assert!((0..g.num_qubits()).all(|q| g.degree(q) <= 3));
        let big = heavy_hex(19, 45);
        assert!(big.num_qubits() > 900 && big.num_qubits() < 1100);
        assert!(big.is_connected());
    }
}
