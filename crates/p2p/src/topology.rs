//! Node identities and overlay topology.

use bcwan_chain::IdMap;
use std::fmt;

/// A peer identifier on the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Which peers can talk to which.
///
/// BcWAN gateways "communicate directly with another gateway in a
/// peer-to-peer manner"; the paper's five-node PlanetLab deployment is a
/// full mesh, but sparse topologies are useful for gossip experiments.
///
/// Each node's peers are kept sorted, so a flood walks them in a
/// deterministic order without collecting or sorting anything.
#[derive(Debug, Clone)]
pub struct Topology {
    adjacency: IdMap<NodeId, Vec<NodeId>>,
}

impl Topology {
    /// A full mesh over `n` nodes with ids `0..n`.
    pub fn full_mesh(n: u32) -> Self {
        let mut adjacency = IdMap::default();
        for i in 0..n {
            let peers: Vec<NodeId> = (0..n).filter(|&j| j != i).map(NodeId).collect();
            adjacency.insert(NodeId(i), peers);
        }
        Topology { adjacency }
    }

    /// A ring lattice: every node links to its `degree` nearest
    /// neighbours (`degree/2` on each side, minimum one hop).
    /// `O(n·degree)` links keep 1 000-node fleets constructible where a
    /// full mesh would need half a million; gossip still reaches everyone
    /// through re-flooding, in `O(n/degree)` hops worst case.
    pub fn ring_lattice(n: u32, degree: u32) -> Self {
        let mut topology = Topology::empty(n);
        if n < 2 {
            return topology;
        }
        let half = (degree / 2).max(1).min(n.saturating_sub(1) / 2 + 1);
        for i in 0..n {
            for hop in 1..=half {
                topology.connect(NodeId(i), NodeId((i + hop) % n));
            }
        }
        topology
    }

    /// An empty topology to build up with [`Topology::connect`].
    pub fn empty(n: u32) -> Self {
        Topology {
            adjacency: (0..n).map(|i| (NodeId(i), Vec::new())).collect(),
        }
    }

    /// Adds a bidirectional link.
    pub fn connect(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            return;
        }
        for (from, to) in [(a, b), (b, a)] {
            let peers = self.adjacency.entry(from).or_default();
            if let Err(at) = peers.binary_search(&to) {
                peers.insert(at, to);
            }
        }
    }

    /// Peers of `node` in ascending id order (empty for unknown nodes).
    pub(crate) fn peers_of(&self, node: NodeId) -> &[NodeId] {
        self.adjacency.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Whether a direct link exists.
    pub fn linked(&self, a: NodeId, b: NodeId) -> bool {
        self.peers_of(a).binary_search(&b).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mesh_links_everyone() {
        let t = Topology::full_mesh(5);
        assert!(t.peers_of(NodeId(5)).is_empty(), "ids are 0..5");
        for i in 0..5 {
            assert_eq!(t.peers_of(NodeId(i)).len(), 4);
            for j in 0..5 {
                assert_eq!(t.linked(NodeId(i), NodeId(j)), i != j);
            }
        }
    }

    #[test]
    fn ring_has_two_neighbours() {
        let t = Topology::ring_lattice(6, 2);
        for i in 0..6 {
            assert_eq!(t.peers_of(NodeId(i)).len(), 2, "node {i}");
        }
        assert!(t.linked(NodeId(0), NodeId(5)));
        assert!(!t.linked(NodeId(0), NodeId(3)));
    }

    #[test]
    fn ring_lattice_shape() {
        let topo = Topology::ring_lattice(10, 6);
        for i in 0..10u32 {
            // Degree 6: three neighbours each side.
            assert_eq!(topo.peers_of(NodeId(i)).len(), 6, "node {i}");
        }
        assert!(topo.linked(NodeId(0), NodeId(3)));
        assert!(!topo.linked(NodeId(0), NodeId(5)));
        // Degenerate sizes stay connected.
        let tiny = Topology::ring_lattice(2, 6);
        assert!(tiny.linked(NodeId(0), NodeId(1)));
    }

    #[test]
    fn connect_links_both_ways_and_ignores_self_links() {
        let mut t = Topology::empty(3);
        assert!(t.peers_of(NodeId(0)).is_empty());
        t.connect(NodeId(0), NodeId(1));
        assert!(t.linked(NodeId(0), NodeId(1)));
        assert!(t.linked(NodeId(1), NodeId(0)));
        assert!(!t.linked(NodeId(0), NodeId(2)));
        t.connect(NodeId(2), NodeId(2));
        assert!(!t.linked(NodeId(2), NodeId(2)));
    }

    #[test]
    fn connect_keeps_peers_sorted_and_unique() {
        let mut t = Topology::empty(8);
        for j in [5, 2, 7, 2, 1, 5] {
            t.connect(NodeId(0), NodeId(j));
        }
        assert_eq!(t.peers_of(NodeId(0)), [1, 2, 5, 7].map(NodeId));
        assert_eq!(t.peers_of(NodeId(5)), [NodeId(0)]);
        assert!(t.peers_of(NodeId(3)).is_empty());
        assert!(t.peers_of(NodeId(99)).is_empty());
    }

    #[test]
    fn peers_sorted_for_determinism() {
        let t = Topology::full_mesh(10);
        let peers = t.peers_of(NodeId(3));
        let mut sorted = peers.to_vec();
        sorted.sort_unstable();
        assert_eq!(peers, sorted);
    }
}
