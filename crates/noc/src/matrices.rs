//! The paper's communication cost matrices.
//!
//! From the weighted NoC graph we precompute, for every ordered processor
//! pair `(β, γ)` and every path option `ρ`:
//!
//! * `t_{βγρ}` — per-unit-data transfer latency (ms),
//! * `e_{βγkρ}` — per-unit-data energy consumed **at processor k** (mJ),
//!
//! exactly the `t` and `e` tensors of §II-A.2. Same-processor transfers are
//! free (`β = γ ⇒` zero time and energy, paper citation [12]).

use crate::mesh::NodeId;
use crate::params::WeightedNoc;
use crate::routing::{Path, PathKind, ShortestPathTree};
use serde::{Deserialize, Serialize};

/// Precomputed per-pair path tables and cost tensors.
///
/// ```
/// use ndp_noc::{CommMatrices, Mesh2D, NocParams, NodeId, PathKind, WeightedNoc};
///
/// let noc = WeightedNoc::new(Mesh2D::square(4)?, NocParams::typical(), 7)?;
/// let mats = CommMatrices::build(&noc);
/// let (a, b) = (NodeId(0), NodeId(15));
/// assert!(mats.time_ms(a, b, PathKind::TimeOriented)
///     <= mats.time_ms(a, b, PathKind::EnergyOriented));
/// # Ok::<(), ndp_noc::NocError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommMatrices {
    n: usize,
    /// `t[β·n·2 + γ·2 + ρ]`
    time: Vec<f64>,
    /// `e[((β·n + γ)·n + k)·2 + ρ]`
    energy: Vec<f64>,
    /// `paths[β·n·2 + γ·2 + ρ]`
    paths: Vec<Path>,
    /// `max_{β≠γ} e_{βγkρ}` at `[k·2 + ρ]`.
    max_energy: Vec<f64>,
    /// `min_{β≠γ} e_{βγkρ}` at `[k·2 + ρ]`.
    min_energy: Vec<f64>,
}

impl CommMatrices {
    /// Precomputes both path options for every ordered pair.
    ///
    /// One full Dijkstra per source and `ρ` (2N searches) yields every path
    /// from that source, each equal to
    /// [`shortest_path`](crate::shortest_path)`(β, γ, ρ)` bit for bit: the
    /// tree is the same search run past its early exit, which changes no
    /// settled node's predecessor (`routing.rs` has the argument).
    ///
    /// `e_{βγkρ}` is zero off the path, so each pair writes only its own
    /// routers' entries: O(N²·hops) work on top of zeroing the N³ tensor,
    /// against O(N³·hops) for one entry per processor. A shortest path
    /// visits each router once, so each entry comes from the same two
    /// additions as [`Path::energy_at_mj`], and `t_{βγρ}` from the same sum
    /// as [`Path::time_ms`].
    ///
    /// The per-processor extremes are folded here, once, from the same
    /// entries. No entry is NaN or −0: each is `+0` or `0.0` plus
    /// non-negative costs. So `f64::max` and `f64::min` give the same bits
    /// in any fold order, and each pair whose path misses `k` adds only its
    /// zero, which is counted instead of read.
    pub fn build(noc: &WeightedNoc) -> Self {
        let n = noc.mesh().num_nodes();
        let mesh = MeshTables::new(noc);
        let (router_time, router_energy) = (noc.router_time_ms(), noc.router_energy_mj());
        let mut time = vec![0.0; n * n * 2];
        let mut energy = vec![0.0; n * n * n * 2];
        let mut paths = Vec::with_capacity(n * n * 2);
        let mut max_energy = vec![f64::MIN; n * 2];
        let mut min_energy = vec![f64::MAX; n * 2];
        let mut on_paths = vec![0; n * 2];
        let mut trees: [ShortestPathTree; 2] = Default::default();
        for b in 0..n {
            // `shortest_path`'s hop weights: the link plus the next router.
            let [by_energy, by_time] = &mut trees;
            by_energy.grow(&mesh.neighbors, NodeId(b), |u, v| {
                mesh.link_energy[u * n + v] + router_energy
            });
            by_time
                .grow(&mesh.neighbors, NodeId(b), |u, v| mesh.link_time[u * n + v] + router_time);
            for g in 0..n {
                let pair = b * n + g;
                for (tree, kind) in trees.iter().zip(PathKind::ALL) {
                    let p = tree.path_to(NodeId(g));
                    let rho = kind.index();
                    let nodes = p.nodes();
                    if nodes.len() > 1 {
                        let links: f64 = nodes
                            .windows(2)
                            .map(|w| mesh.link_time[w[0].index() * n + w[1].index()])
                            .sum();
                        time[pair * 2 + rho] = links + nodes.len() as f64 * router_time;
                        for (i, &k) in nodes.iter().enumerate() {
                            // The router, then the outgoing link.
                            let mut e = 0.0;
                            e += router_energy;
                            if let Some(&next) = nodes.get(i + 1) {
                                e += mesh.link_energy[k.index() * n + next.index()];
                            }
                            energy[(pair * n + k.index()) * 2 + rho] = e;
                            let at = k.index() * 2 + rho;
                            max_energy[at] = max_energy[at].max(e);
                            min_energy[at] = min_energy[at].min(e);
                            on_paths[at] += 1;
                        }
                    }
                    paths.push(p);
                }
            }
        }
        for (at, &on) in on_paths.iter().enumerate() {
            // A 1-node mesh has no pair at all: the extremes read 0, as in
            // `fold_time`.
            if on == 0 || on < n * (n - 1) {
                max_energy[at] = max_energy[at].max(0.0);
                min_energy[at] = min_energy[at].min(0.0);
            }
        }
        CommMatrices { n, time, energy, paths, max_energy, min_energy }
    }

    /// Number of processors `N`.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// `t_{βγρ}`: per-unit latency from `beta` to `gamma` through the `rho`
    /// path, in ms. Zero when `beta == gamma`.
    ///
    /// # Panics
    ///
    /// Panics if a node index is out of range.
    pub fn time_ms(&self, beta: NodeId, gamma: NodeId, rho: PathKind) -> f64 {
        self.time[(beta.index() * self.n + gamma.index()) * 2 + rho.index()]
    }

    /// `e_{βγkρ}`: per-unit energy at processor `k` for a `beta → gamma`
    /// transfer through the `rho` path, in mJ.
    ///
    /// # Panics
    ///
    /// Panics if a node index is out of range.
    pub fn energy_at_mj(&self, beta: NodeId, gamma: NodeId, k: NodeId, rho: PathKind) -> f64 {
        self.energy
            [((beta.index() * self.n + gamma.index()) * self.n + k.index()) * 2 + rho.index()]
    }

    /// Total per-unit energy of a transfer (sum over all `k`).
    pub fn total_energy_mj(&self, beta: NodeId, gamma: NodeId, rho: PathKind) -> f64 {
        (0..self.n).map(|k| self.energy_at_mj(beta, gamma, NodeId(k), rho)).sum()
    }

    /// The concrete route behind `(beta, gamma, rho)`.
    ///
    /// # Panics
    ///
    /// Panics if a node index is out of range.
    pub fn path(&self, beta: NodeId, gamma: NodeId, rho: PathKind) -> &Path {
        &self.paths[(beta.index() * self.n + gamma.index()) * 2 + rho.index()]
    }

    /// `max_{β≠γ,ρ} t_{βγρ}` — used by the heuristic's averaged
    /// communication time (paper §III, P3).
    pub fn max_time_ms(&self) -> f64 {
        self.fold_time(f64::MIN, f64::max)
    }

    /// `min_{β≠γ,ρ} t_{βγρ}`.
    pub fn min_time_ms(&self) -> f64 {
        self.fold_time(f64::MAX, f64::min)
    }

    fn fold_time(&self, init: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
        let mut acc = init;
        let mut any = false;
        for b in 0..self.n {
            for g in 0..self.n {
                if b == g {
                    continue;
                }
                for rho in 0..2 {
                    acc = f(acc, self.time[(b * self.n + g) * 2 + rho]);
                    any = true;
                }
            }
        }
        // A single-node NoC has no off-diagonal pair: every transfer is
        // local and free, so the min/max per-unit latency is 0 — not the
        // `f64::MIN`/`f64::MAX` sentinel, which would poison the heuristic's
        // averaged communication estimate `(max + min) / 2`.
        if any {
            acc
        } else {
            0.0
        }
    }

    /// `max_{β≠γ} e_{βγkρ}` for a fixed processor `k` and path kind.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn max_energy_at_mj(&self, k: NodeId, rho: PathKind) -> f64 {
        self.max_energy[k.index() * 2 + rho.index()]
    }

    /// `min_{β≠γ} e_{βγkρ}` for a fixed processor `k` and path kind.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn min_energy_at_mj(&self, k: NodeId, rho: PathKind) -> f64 {
        self.min_energy[k.index() * 2 + rho.index()]
    }

    /// `max_{β,γ,k,ρ} e_{βγkρ}` — the paper's `e_k^comm` numerator for the
    /// `μ` index of Fig. 2(b).
    pub fn max_energy_any_mj(&self) -> f64 {
        let mut acc = f64::MIN;
        for &e in &self.energy {
            acc = acc.max(e);
        }
        acc
    }
}

/// The mesh as the searches read it: each node's neighbours in
/// [`Mesh2D::neighbors`](crate::Mesh2D::neighbors) order, and the per-unit
/// link costs at `[from·n + to]` (zero between non-adjacent nodes), read
/// through [`WeightedNoc`] once per link instead of once per use.
struct MeshTables {
    neighbors: Vec<Vec<NodeId>>,
    link_time: Vec<f64>,
    link_energy: Vec<f64>,
}

impl MeshTables {
    fn new(noc: &WeightedNoc) -> Self {
        let mesh = noc.mesh();
        let n = mesh.num_nodes();
        let neighbors: Vec<Vec<NodeId>> = mesh.nodes().map(|v| mesh.neighbors(v)).collect();
        let (mut link_time, mut link_energy) = (vec![0.0; n * n], vec![0.0; n * n]);
        for (u, adjacent) in neighbors.iter().enumerate() {
            for &v in adjacent {
                link_time[u * n + v.index()] = noc.link_time_ms(NodeId(u), v);
                link_energy[u * n + v.index()] = noc.link_energy_mj(NodeId(u), v);
            }
        }
        MeshTables { neighbors, link_time, link_energy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh2D;
    use crate::params::NocParams;

    fn mats(side: usize, seed: u64) -> (WeightedNoc, CommMatrices) {
        let noc =
            WeightedNoc::new(Mesh2D::square(side).unwrap(), NocParams::typical(), seed).unwrap();
        let m = CommMatrices::build(&noc);
        (noc, m)
    }

    #[test]
    fn diagonal_is_free() {
        let (_, m) = mats(3, 1);
        for k in 0..9 {
            for rho in PathKind::ALL {
                assert_eq!(m.time_ms(NodeId(k), NodeId(k), rho), 0.0);
                assert_eq!(m.total_energy_mj(NodeId(k), NodeId(k), rho), 0.0);
            }
        }
    }

    #[test]
    fn energy_oriented_dominates_energy_time_oriented_dominates_time() {
        let (_, m) = mats(4, 3);
        for b in 0..16 {
            for g in 0..16 {
                let (b, g) = (NodeId(b), NodeId(g));
                assert!(
                    m.total_energy_mj(b, g, PathKind::EnergyOriented)
                        <= m.total_energy_mj(b, g, PathKind::TimeOriented) + 1e-12
                );
                assert!(
                    m.time_ms(b, g, PathKind::TimeOriented)
                        <= m.time_ms(b, g, PathKind::EnergyOriented) + 1e-12
                );
            }
        }
    }

    #[test]
    fn per_processor_energies_sum_to_path_energy() {
        let (noc, m) = mats(4, 17);
        for b in 0..16 {
            for g in 0..16 {
                for rho in PathKind::ALL {
                    let (b, g) = (NodeId(b), NodeId(g));
                    let path_e = m.path(b, g, rho).energy_mj(&noc);
                    assert!((m.total_energy_mj(b, g, rho) - path_e).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn off_path_processors_consume_nothing() {
        let (_, m) = mats(4, 2);
        let (b, g) = (NodeId(0), NodeId(1));
        let p = m.path(b, g, PathKind::TimeOriented).clone();
        for k in 0..16 {
            if !p.contains(NodeId(k)) {
                assert_eq!(m.energy_at_mj(b, g, NodeId(k), PathKind::TimeOriented), 0.0);
            }
        }
    }

    #[test]
    fn single_node_noc_has_zero_comm_extremes() {
        // N = 1: no off-diagonal pair exists, so every min/max helper must
        // report 0 (all communication is local and free) rather than the
        // f64::MIN / f64::MAX fold sentinels.
        let (_, m) = mats(1, 5);
        assert_eq!(m.num_nodes(), 1);
        assert_eq!(m.min_time_ms(), 0.0);
        assert_eq!(m.max_time_ms(), 0.0);
        for rho in PathKind::ALL {
            assert_eq!(m.min_energy_at_mj(NodeId(0), rho), 0.0);
            assert_eq!(m.max_energy_at_mj(NodeId(0), rho), 0.0);
        }
        // The averaged comm estimate the heuristic builds from these stays
        // finite and sensible.
        let avg = (m.max_time_ms() + m.min_time_ms()) / 2.0;
        assert_eq!(avg, 0.0);
    }

    #[test]
    fn min_max_helpers_bracket_everything() {
        let (_, m) = mats(3, 8);
        let (lo, hi) = (m.min_time_ms(), m.max_time_ms());
        assert!(lo > 0.0 && hi >= lo);
        for b in 0..9 {
            for g in 0..9 {
                if b == g {
                    continue;
                }
                for rho in PathKind::ALL {
                    let t = m.time_ms(NodeId(b), NodeId(g), rho);
                    assert!(t >= lo - 1e-12 && t <= hi + 1e-12);
                }
            }
        }
    }
}
