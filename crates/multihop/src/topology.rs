//! Neighbor topology induced by node positions and a common transmission
//! range.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::geometry::Point;

/// An undirected unit-disk neighbor graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    adjacency: Vec<Vec<usize>>,
}

impl Topology {
    /// Builds the topology: nodes `i ≠ j` are neighbors iff their distance
    /// is at most `range` meters.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty or `range` is not positive.
    #[must_use]
    pub fn from_positions(positions: &[Point], range: f64) -> Self {
        assert!(!positions.is_empty(), "need at least one node"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        assert!(range > 0.0, "transmission range must be positive"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        let n = positions.len();
        let mut adjacency = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if positions[i].distance_to(&positions[j]) <= range {
                    adjacency[i].push(j);
                    adjacency[j].push(i);
                }
            }
        }
        Topology { adjacency }
    }

    /// Builds directly from adjacency lists (for synthetic graphs in
    /// tests/experiments). Lists are symmetrized and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if any neighbor index is out of range or self-referential.
    #[must_use]
    pub fn from_adjacency(lists: Vec<Vec<usize>>) -> Self {
        let n = lists.len();
        let mut adjacency = vec![Vec::new(); n];
        for (i, list) in lists.iter().enumerate() {
            for &j in list {
                assert!(j < n, "neighbor index {j} out of range"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
                assert_ne!(i, j, "self-loops are not allowed"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
                if !adjacency[i].contains(&j) {
                    adjacency[i].push(j);
                }
                if !adjacency[j].contains(&i) {
                    adjacency[j].push(i);
                }
            }
        }
        Topology { adjacency }
    }

    /// A path graph `0 − 1 − … − (n−1)`: the canonical chain topology of
    /// the paper's multi-hop discussion, and the slowest-converging case
    /// for TFT min-propagation (`diameter = n − 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn line(n: usize) -> Self {
        assert!(n > 0, "need at least one node"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        Topology::from_adjacency(
            (0..n).map(|i| if i + 1 < n { vec![i + 1] } else { vec![] }).collect(),
        )
    }

    /// A `rows × cols` 4-neighbor grid, row-major node numbering
    /// (`node = r·cols + c`). Useful as a dense-but-not-complete fixture
    /// between the line and the clique.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        let mut lists = vec![Vec::new(); rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if c + 1 < cols {
                    lists[i].push(i + 1);
                }
                if r + 1 < rows {
                    lists[i].push(i + cols);
                }
            }
        }
        Topology::from_adjacency(lists)
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Whether the graph has no nodes (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Neighbors of `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adjacency[i]
    }

    /// Degree of `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn degree(&self, i: usize) -> usize {
        self.adjacency[i].len()
    }

    /// The node's *contention-domain size*: itself plus its neighbors —
    /// the `n` of its local single-hop game.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn local_population(&self, i: usize) -> usize {
        self.degree(i) + 1
    }

    /// Whether every node can reach every other node.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.bfs_distances(0).iter().all(|d| d.is_some())
    }

    /// Hop distances from `source` (`None` for unreachable nodes).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    #[must_use]
    pub fn bfs_distances(&self, source: usize) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.len()];
        dist[source] = Some(0);
        let mut queue = VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued nodes have distances"); // PANIC-POLICY: invariant: queued nodes have distances
            for &v in &self.adjacency[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Graph diameter (longest shortest path); `None` if disconnected.
    #[must_use]
    pub fn diameter(&self) -> Option<usize> {
        let mut best = 0;
        for s in 0..self.len() {
            for d in self.bfs_distances(s) {
                best = best.max(d?);
            }
        }
        Some(best)
    }

    /// Connected components, each sorted ascending.
    #[must_use]
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.len()];
        let mut out = Vec::new();
        for s in 0..self.len() {
            if seen[s] {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = VecDeque::from([s]);
            seen[s] = true;
            while let Some(u) = queue.pop_front() {
                comp.push(u);
                for &v in &self.adjacency[u] {
                    if !seen[v] {
                        seen[v] = true;
                        queue.push_back(v);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// Nodes within range of `receiver` but *not* within range of
    /// `sender` — the hidden terminals threatening a `sender → receiver`
    /// transmission.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn hidden_terminals(&self, sender: usize, receiver: usize) -> Vec<usize> {
        self.adjacency[receiver]
            .iter()
            .copied()
            .filter(|&h| h != sender && !self.adjacency[sender].contains(&h))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Topology {
        // 0 - 1 - 2 - … - (n−1), unit spacing, range 1.
        let positions: Vec<Point> = (0..n).map(|i| Point { x: i as f64, y: 0.0 }).collect();
        Topology::from_positions(&positions, 1.0)
    }

    #[test]
    fn unit_disk_adjacency() {
        let t = line(4);
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.neighbors(1), &[0, 2]);
        assert_eq!(t.degree(2), 2);
        assert_eq!(t.local_population(1), 3);
    }

    #[test]
    fn connectivity_and_diameter() {
        let t = line(5);
        assert!(t.is_connected());
        assert_eq!(t.diameter(), Some(4));
    }

    #[test]
    fn disconnected_graph_detected() {
        let positions = vec![Point { x: 0.0, y: 0.0 }, Point { x: 100.0, y: 0.0 }];
        let t = Topology::from_positions(&positions, 1.0);
        assert!(!t.is_connected());
        assert_eq!(t.diameter(), None);
        assert_eq!(t.components().len(), 2);
    }

    #[test]
    fn from_adjacency_symmetrizes() {
        let t = Topology::from_adjacency(vec![vec![1], vec![], vec![1]]);
        assert_eq!(t.neighbors(1), &[0, 2]);
        assert!(t.is_connected());
    }

    #[test]
    fn hidden_terminals_found() {
        // Line 0-1-2: node 2 is hidden from 0 w.r.t. receiver 1.
        let t = line(3);
        assert_eq!(t.hidden_terminals(0, 1), vec![2]);
        assert_eq!(t.hidden_terminals(1, 0), Vec::<usize>::new());
    }

    #[test]
    fn bfs_distances_on_line() {
        let t = line(4);
        let d = t.bfs_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn line_constructor_matches_unit_disk_line() {
        assert_eq!(Topology::line(4), line(4));
        assert_eq!(Topology::line(5).diameter(), Some(4));
        let single = Topology::line(1);
        assert_eq!(single.len(), 1);
        assert_eq!(single.degree(0), 0);
    }

    #[test]
    fn grid_constructor_adjacency_and_diameter() {
        let g = Topology::grid(2, 3);
        assert_eq!(g.len(), 6);
        // Corner, edge, and interior degrees of a 2×3 grid.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2, 4]);
        assert_eq!(g.neighbors(4), &[1, 3, 5]);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(3));
        // Degenerate grids collapse to lines.
        assert_eq!(Topology::grid(1, 4), Topology::line(4));
        assert_eq!(Topology::grid(4, 1), Topology::line(4));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_line_rejected() {
        let _ = Topology::line(0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn empty_grid_rejected() {
        let _ = Topology::grid(0, 3);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let _ = Topology::from_adjacency(vec![vec![0]]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_range_rejected() {
        let _ = Topology::from_positions(&[Point { x: 0.0, y: 0.0 }], 0.0);
    }
}
