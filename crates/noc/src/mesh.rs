//! 2D-mesh topology (paper §II-A.2, Fig. 1(a)).
//!
//! `N = cols × rows` processors, each attached to a router; routers connect
//! to their 4-neighbourhood through pairs of directed links. Node `k` sits at
//! coordinate `(k % cols, k / cols)`.

use crate::error::{NocError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node (processor + router) in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Mesh coordinate `(x, y)`; `x` grows east, `y` grows south.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coord {
    /// Column.
    pub x: usize,
    /// Row.
    pub y: usize,
}

/// A directed link between two adjacent routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Link {
    /// Source router.
    pub from: NodeId,
    /// Destination router.
    pub to: NodeId,
}

/// A `cols × rows` 2D mesh.
///
/// ```
/// use ndp_noc::Mesh2D;
///
/// let mesh = Mesh2D::new(4, 4)?;
/// assert_eq!(mesh.num_nodes(), 16);
/// let (a, b) = (ndp_noc::NodeId(0), ndp_noc::NodeId(15));
/// assert_eq!(mesh.manhattan_distance(a, b), 6);
/// # Ok::<(), ndp_noc::NocError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh2D {
    cols: usize,
    rows: usize,
}

impl Mesh2D {
    /// Creates a mesh.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::EmptyMesh`] if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Result<Self> {
        if cols == 0 || rows == 0 {
            return Err(NocError::EmptyMesh { cols, rows });
        }
        Ok(Mesh2D { cols, rows })
    }

    /// A square `side × side` mesh.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::EmptyMesh`] if `side` is zero.
    pub fn square(side: usize) -> Result<Self> {
        Mesh2D::new(side, side)
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of nodes `N`.
    pub fn num_nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Iterates all node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId)
    }

    /// The coordinate of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coord(&self, node: NodeId) -> Coord {
        assert!(node.0 < self.num_nodes(), "node {node} out of range");
        Coord { x: node.0 % self.cols, y: node.0 / self.cols }
    }

    /// The node at `coord`.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the mesh.
    pub fn node_at(&self, coord: Coord) -> NodeId {
        assert!(coord.x < self.cols && coord.y < self.rows, "coord outside mesh");
        NodeId(coord.y * self.cols + coord.x)
    }

    /// Manhattan (hop) distance between two nodes.
    pub fn manhattan_distance(&self, a: NodeId, b: NodeId) -> usize {
        let ca = self.coord(a);
        let cb = self.coord(b);
        ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)
    }

    /// The up-to-four mesh neighbours of `node` (E, W, S, N order).
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let c = self.coord(node);
        let mut out = Vec::with_capacity(4);
        if c.x + 1 < self.cols {
            out.push(self.node_at(Coord { x: c.x + 1, y: c.y }));
        }
        if c.x > 0 {
            out.push(self.node_at(Coord { x: c.x - 1, y: c.y }));
        }
        if c.y + 1 < self.rows {
            out.push(self.node_at(Coord { x: c.x, y: c.y + 1 }));
        }
        if c.y > 0 {
            out.push(self.node_at(Coord { x: c.x, y: c.y - 1 }));
        }
        out
    }

    /// All directed links (each adjacent pair contributes two).
    pub fn links(&self) -> Vec<Link> {
        let mut out = Vec::new();
        for n in self.nodes() {
            for m in self.neighbors(n) {
                out.push(Link { from: n, to: m });
            }
        }
        out
    }

    /// A stable dense index for a directed link, usable as an array key.
    ///
    /// # Panics
    ///
    /// Panics if the nodes are not mesh-adjacent.
    pub fn link_index(&self, from: NodeId, to: NodeId) -> usize {
        let cf = self.coord(from);
        let ct = self.coord(to);
        assert_eq!(
            cf.x.abs_diff(ct.x) + cf.y.abs_diff(ct.y),
            1,
            "link must connect adjacent nodes ({from} -> {to})"
        );
        // 4 slots per source node: E, W, S, N.
        let dir = if ct.x == cf.x + 1 {
            0
        } else if ct.x + 1 == cf.x {
            1
        } else if ct.y == cf.y + 1 {
            2
        } else {
            3
        };
        from.0 * 4 + dir
    }

    /// Number of link-index slots (`4·N`, some unused at the borders).
    pub fn link_index_len(&self) -> usize {
        self.num_nodes() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let m = Mesh2D::new(4, 3).unwrap();
        for n in m.nodes() {
            assert_eq!(m.node_at(m.coord(n)), n);
        }
    }

    #[test]
    fn empty_mesh_rejected() {
        assert!(Mesh2D::new(0, 4).is_err());
        assert!(Mesh2D::new(4, 0).is_err());
    }

    #[test]
    fn corner_has_two_neighbors_center_has_four() {
        let m = Mesh2D::square(3).unwrap();
        assert_eq!(m.neighbors(NodeId(0)).len(), 2);
        assert_eq!(m.neighbors(NodeId(4)).len(), 4);
        assert_eq!(m.neighbors(NodeId(8)).len(), 2);
    }

    #[test]
    fn link_count_matches_mesh_formula() {
        // Directed links in a c×r mesh: 2·(c−1)·r + 2·c·(r−1).
        let m = Mesh2D::new(4, 4).unwrap();
        assert_eq!(m.links().len(), 2 * 3 * 4 + 2 * 4 * 3);
    }

    #[test]
    fn link_indices_unique() {
        let m = Mesh2D::square(4).unwrap();
        let mut seen = std::collections::HashSet::new();
        for l in m.links() {
            assert!(seen.insert(m.link_index(l.from, l.to)));
        }
    }

    /// `link_index` against index arithmetic on every directed link of
    /// every mesh up to 8×8: S, N, E, W are `+cols`, `−cols`, `+1`, `−1`
    /// (vertical first, since `+1` is `+cols` on a one-column mesh).
    #[test]
    fn link_index_matches_the_reference_formula() {
        for cols in 1..=8 {
            for rows in 1..=8 {
                let m = Mesh2D::new(cols, rows).unwrap();
                for l in m.links() {
                    let (a, b) = (l.from.0, l.to.0);
                    let dir = if b == a + cols {
                        2
                    } else if b + cols == a {
                        3
                    } else if b == a + 1 {
                        0
                    } else {
                        assert_eq!(b + 1, a, "{cols}x{rows}: {a} -> {b} is no link");
                        1
                    };
                    assert_eq!(
                        m.link_index(l.from, l.to),
                        4 * a + dir,
                        "{cols}x{rows}: {a} -> {b}"
                    );
                }
            }
        }
    }

    /// Pairs that are not links still panic: a node with itself, a
    /// diagonal step, two hops along a row, and the index step across a
    /// row's end, whose index difference is that of an E/W link.
    #[test]
    fn link_index_panics_for_every_kind_of_non_adjacent_pair() {
        let m = Mesh2D::new(4, 3).unwrap();
        for (a, b) in [(5, 5), (0, 5), (5, 0), (0, 2), (3, 4), (4, 3)] {
            let r = std::panic::catch_unwind(|| m.link_index(NodeId(a), NodeId(b)));
            let msg = r.expect_err("non-adjacent pair must panic");
            let msg = msg.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("link must connect adjacent nodes"), "{a} -> {b}: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "adjacent")]
    fn link_index_panics_for_non_adjacent() {
        let m = Mesh2D::square(4).unwrap();
        let _ = m.link_index(NodeId(0), NodeId(5));
    }

    #[test]
    fn manhattan_distance_symmetric() {
        let m = Mesh2D::new(5, 2).unwrap();
        for a in m.nodes() {
            for b in m.nodes() {
                assert_eq!(m.manhattan_distance(a, b), m.manhattan_distance(b, a));
            }
        }
    }
}
