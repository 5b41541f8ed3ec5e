//! Paths and routing algorithms.
//!
//! Two routing families are provided:
//!
//! * **deterministic XY** ([`xy_path`]) — the baseline minimal route used by
//!   single-path deployments and the flit-level simulator's default;
//! * **weighted shortest paths** ([`shortest_path`]) — Dijkstra over the
//!   energy- or time-weighted link graph, producing the paper's
//!   energy-oriented (`ρ = 1`) and time-oriented (`ρ = 2`) path options.

use crate::mesh::{Mesh2D, NodeId};
use crate::params::WeightedNoc;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which of the paper's two per-pair path options (`ρ ∈ {1, 2}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PathKind {
    /// `ρ = 1`: minimizes total transfer energy.
    EnergyOriented,
    /// `ρ = 2`: minimizes total transfer latency.
    TimeOriented,
}

impl PathKind {
    /// Both kinds, in `ρ` order.
    pub const ALL: [PathKind; 2] = [PathKind::EnergyOriented, PathKind::TimeOriented];

    /// Zero-based `ρ` index (0 for energy, 1 for time).
    pub fn index(self) -> usize {
        match self {
            PathKind::EnergyOriented => 0,
            PathKind::TimeOriented => 1,
        }
    }

    /// The kind for a zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `idx > 1`.
    pub fn from_index(idx: usize) -> Self {
        match idx {
            0 => PathKind::EnergyOriented,
            1 => PathKind::TimeOriented,
            _ => panic!("path index {idx} out of range (ρ ∈ {{0, 1}})"),
        }
    }
}

/// A route through the mesh: the ordered router sequence from source to
/// destination, inclusive. A self-route contains the single node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    nodes: Vec<NodeId>,
}

impl Path {
    /// Builds a path from a router sequence.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "a path needs at least one node");
        Path { nodes }
    }

    /// The router sequence.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Source router.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination router.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("nonempty")
    }

    /// Number of links traversed.
    pub fn hop_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Iterates the directed links of the path.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }

    /// Whether `node` lies on the path.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Total per-unit latency in ms over `noc`: every link plus every router
    /// traversal contributes.
    pub fn time_ms(&self, noc: &WeightedNoc) -> f64 {
        if self.hop_count() == 0 {
            return 0.0;
        }
        let links: f64 = self.links().map(|(a, b)| noc.link_time_ms(a, b)).sum();
        links + self.nodes.len() as f64 * noc.router_time_ms()
    }

    /// Total per-unit energy in mJ over `noc`.
    pub fn energy_mj(&self, noc: &WeightedNoc) -> f64 {
        if self.hop_count() == 0 {
            return 0.0;
        }
        let links: f64 = self.links().map(|(a, b)| noc.link_energy_mj(a, b)).sum();
        links + self.nodes.len() as f64 * noc.router_energy_mj()
    }

    /// Per-unit energy in mJ attributed to the processor of router `k`
    /// (paper's `e_{βγkρ}`): its router traversal plus its outgoing link.
    pub fn energy_at_mj(&self, noc: &WeightedNoc, k: NodeId) -> f64 {
        if self.hop_count() == 0 {
            return 0.0;
        }
        let mut e = 0.0;
        for (i, &n) in self.nodes.iter().enumerate() {
            if n == k {
                e += noc.router_energy_mj();
                if i + 1 < self.nodes.len() {
                    e += noc.link_energy_mj(n, self.nodes[i + 1]);
                }
            }
        }
        e
    }
}

/// Deterministic XY (dimension-ordered) minimal route: first travel along X,
/// then along Y.
pub fn xy_path(mesh: &Mesh2D, from: NodeId, to: NodeId) -> Path {
    let mut nodes = vec![from];
    let target = mesh.coord(to);
    let mut cur = mesh.coord(from);
    while cur.x != target.x {
        cur.x = if cur.x < target.x { cur.x + 1 } else { cur.x - 1 };
        nodes.push(mesh.node_at(cur));
    }
    while cur.y != target.y {
        cur.y = if cur.y < target.y { cur.y + 1 } else { cur.y - 1 };
        nodes.push(mesh.node_at(cur));
    }
    Path::new(nodes)
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; ties by node index for determinism.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Dijkstra shortest path from `from` to `to` under the chosen weighting
/// (link weight + destination router weight per hop).
///
/// Always succeeds on a connected mesh.
pub fn shortest_path(noc: &WeightedNoc, from: NodeId, to: NodeId, kind: PathKind) -> Path {
    if from == to {
        return Path::new(vec![from]);
    }
    let mesh = noc.mesh();
    let n = mesh.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[from.index()] = 0.0;
    heap.push(HeapEntry { cost: 0.0, node: from.index() });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node] {
            continue;
        }
        if node == to.index() {
            break;
        }
        for nb in mesh.neighbors(NodeId(node)) {
            let w = match kind {
                PathKind::EnergyOriented => {
                    noc.link_energy_mj(NodeId(node), nb) + noc.router_energy_mj()
                }
                PathKind::TimeOriented => noc.link_time_ms(NodeId(node), nb) + noc.router_time_ms(),
            };
            let next = cost + w;
            if next < dist[nb.index()] {
                dist[nb.index()] = next;
                prev[nb.index()] = node;
                heap.push(HeapEntry { cost: next, node: nb.index() });
            }
        }
    }
    let mut nodes = vec![to];
    let mut cur = to.index();
    while cur != from.index() {
        cur = prev[cur];
        debug_assert_ne!(cur, usize::MAX, "mesh is connected");
        nodes.push(NodeId(cur));
    }
    nodes.reverse();
    Path::new(nodes)
}

/// The shortest-path tree of one source: [`shortest_path`]'s search run
/// until every node has settled, with the same heap order and strict-`<`
/// relaxation. The caller supplies the neighbours and the hop weights,
/// which must equal the ones `shortest_path` reads for the same `kind`.
///
/// [`path_to`](Self::path_to) then returns `shortest_path(from, to, kind)`
/// for every `to`, bit for bit. The early-exit search stops when `to`
/// settles, and up to that pop both searches do the same work. Weights are
/// non-negative, so no later relaxation is strictly below a settled
/// distance: the predecessors of `to` and of every node on its path are
/// final by then. The buffers are reused from one source to the next.
#[derive(Default)]
pub(crate) struct ShortestPathTree {
    source: usize,
    dist: Vec<f64>,
    /// The node before each node on its path; `usize::MAX` at the source.
    prev: Vec<usize>,
    heap: BinaryHeap<HeapEntry>,
}

impl ShortestPathTree {
    /// Grows the tree of `from`. `neighbors[v]` lists `v`'s neighbours in
    /// [`Mesh2D::neighbors`] order, and `weight(u, v)` is the cost of the
    /// hop `u → v`.
    pub(crate) fn grow(
        &mut self,
        neighbors: &[Vec<NodeId>],
        from: NodeId,
        weight: impl Fn(usize, usize) -> f64,
    ) {
        let n = neighbors.len();
        self.source = from.index();
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.prev.clear();
        self.prev.resize(n, usize::MAX);
        self.heap.clear();
        self.dist[from.index()] = 0.0;
        self.heap.push(HeapEntry { cost: 0.0, node: from.index() });
        while let Some(HeapEntry { cost, node }) = self.heap.pop() {
            if cost > self.dist[node] {
                continue;
            }
            for nb in neighbors[node].iter().map(|nb| nb.index()) {
                let next = cost + weight(node, nb);
                if next < self.dist[nb] {
                    self.dist[nb] = next;
                    self.prev[nb] = node;
                    self.heap.push(HeapEntry { cost: next, node: nb });
                }
            }
        }
    }

    /// The tree's route from its source to `to`.
    pub(crate) fn path_to(&self, to: NodeId) -> Path {
        let mut len = 1;
        let mut cur = to.index();
        while cur != self.source {
            cur = self.prev[cur];
            len += 1;
        }
        let mut nodes = vec![to; len];
        cur = to.index();
        for slot in nodes[..len - 1].iter_mut().rev() {
            cur = self.prev[cur];
            *slot = NodeId(cur);
        }
        Path::new(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NocParams;

    fn noc(side: usize, seed: u64) -> WeightedNoc {
        WeightedNoc::new(Mesh2D::square(side).unwrap(), NocParams::typical(), seed).unwrap()
    }

    #[test]
    fn xy_path_is_minimal() {
        let mesh = Mesh2D::square(4).unwrap();
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                let p = xy_path(&mesh, a, b);
                assert_eq!(p.hop_count(), mesh.manhattan_distance(a, b));
                assert_eq!(p.source(), a);
                assert_eq!(p.destination(), b);
            }
        }
    }

    #[test]
    fn xy_goes_x_first() {
        let mesh = Mesh2D::square(3).unwrap();
        let p = xy_path(&mesh, NodeId(0), NodeId(8)); // (0,0) -> (2,2)
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(2), NodeId(5), NodeId(8)]);
    }

    #[test]
    fn dijkstra_paths_are_connected_and_minimal_hops_without_jitter() {
        let mesh = Mesh2D::square(4).unwrap();
        let mut p = NocParams::typical();
        p.jitter = 0.0;
        let noc = WeightedNoc::new(mesh.clone(), p, 0).unwrap();
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                for kind in PathKind::ALL {
                    let path = shortest_path(&noc, a, b, kind);
                    assert_eq!(path.source(), a);
                    assert_eq!(path.destination(), b);
                    for (u, v) in path.links() {
                        assert_eq!(mesh.manhattan_distance(u, v), 1);
                    }
                    // Uniform weights => shortest == manhattan.
                    assert_eq!(path.hop_count(), mesh.manhattan_distance(a, b));
                }
            }
        }
    }

    #[test]
    fn energy_path_never_beaten_on_energy() {
        let noc = noc(4, 11);
        let mesh = noc.mesh().clone();
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                let pe = shortest_path(&noc, a, b, PathKind::EnergyOriented);
                let pt = shortest_path(&noc, a, b, PathKind::TimeOriented);
                assert!(pe.energy_mj(&noc) <= pt.energy_mj(&noc) + 1e-12);
                assert!(pt.time_ms(&noc) <= pe.time_ms(&noc) + 1e-12);
            }
        }
    }

    #[test]
    fn jitter_creates_distinct_paths_somewhere() {
        // With 25% jitter on a 4x4 mesh some pair should route differently.
        let noc = noc(4, 5);
        let mesh = noc.mesh().clone();
        let mut distinct = false;
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                let pe = shortest_path(&noc, a, b, PathKind::EnergyOriented);
                let pt = shortest_path(&noc, a, b, PathKind::TimeOriented);
                if pe != pt {
                    distinct = true;
                }
            }
        }
        assert!(distinct, "expected at least one pair with differing ρ-paths");
    }

    #[test]
    fn per_processor_energy_sums_to_path_energy() {
        let noc = noc(4, 9);
        let mesh = noc.mesh().clone();
        let p = shortest_path(&noc, NodeId(0), NodeId(15), PathKind::EnergyOriented);
        let total: f64 = mesh.nodes().map(|k| p.energy_at_mj(&noc, k)).sum();
        assert!((total - p.energy_mj(&noc)).abs() < 1e-12);
    }

    #[test]
    fn self_route_costs_nothing() {
        let noc = noc(3, 1);
        let p = shortest_path(&noc, NodeId(4), NodeId(4), PathKind::TimeOriented);
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.time_ms(&noc), 0.0);
        assert_eq!(p.energy_mj(&noc), 0.0);
        assert_eq!(p.energy_at_mj(&noc, NodeId(4)), 0.0);
    }
}
