//! The simulated wide-area network: latency, loss, duplication, partitions.
//!
//! [`Network::broadcast`] and [`Network::dial`] are *passive*: they
//! compute the deliveries a send produces (zero on loss, two on
//! duplication) and hand back their arrival delays; the caller owns the
//! event queue and schedules them.
//! This keeps the network model independent of any particular event type.

use crate::topology::{NodeId, Topology};
use bcwan_chain::IdSet;
use bcwan_sim::{LatencyModel, SimDuration, SimRng};

/// An in-flight message headed to `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload.
    pub msg: M,
}

/// Link fault model.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Probability a message is silently dropped.
    pub drop_probability: f64,
    /// Probability a message is delivered twice.
    pub duplicate_probability: f64,
}

impl FaultModel {
    /// No faults.
    pub fn none() -> Self {
        FaultModel {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
        }
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        Self::none()
    }
}

bcwan_sim::counters! {
    /// Lifetime traffic counters (`net.*` rows in bench reports).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct NetStats {
        /// Sends attempted: one per flood peer, one per dial.
        pub sent: u64 => "net.sent_total",
        /// Deliveries produced (≥ sent minus drops; duplicates add
        /// extras).
        pub delivered: u64 => "net.delivered_total",
        /// Sends swallowed by the loss fault model.
        pub dropped_fault: u64 => "net.dropped_fault_total",
        /// Sends blocked by a partition / missing link.
        pub dropped_partition: u64 => "net.dropped_partition_total",
        /// Extra deliveries from the duplication fault model.
        pub duplicated: u64 => "net.duplicated_total",
    }
}

/// The overlay network simulator.
#[derive(Debug, Clone)]
pub struct Network {
    topology: Topology,
    latency: LatencyModel,
    faults: FaultModel,
    stats: NetStats,
}

impl Network {
    /// Builds a network over `topology` with one latency model for every
    /// link (the paper's PlanetLab sites are statistically exchangeable).
    pub fn new(topology: Topology, latency: LatencyModel) -> Self {
        Network {
            topology,
            latency,
            faults: FaultModel::none(),
            stats: NetStats::default(),
        }
    }

    /// Lifetime traffic counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Enables the fault model.
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.faults = faults;
        self
    }

    /// Appends the deliveries of one send over the `from → to` overlay
    /// link to `out`: none when the link is missing or the message is
    /// dropped, two on duplication. Returns what the send adds to the
    /// traffic counters.
    fn transmit_into<M: Clone>(
        &self,
        rng: &mut SimRng,
        from: NodeId,
        to: NodeId,
        msg: M,
        out: &mut Vec<(SimDuration, Delivery<M>)>,
    ) -> NetStats {
        let sent = NetStats {
            sent: 1,
            ..NetStats::default()
        };
        if !self.topology.linked(from, to) {
            return NetStats {
                dropped_partition: 1,
                ..sent
            };
        }
        if rng.chance(self.faults.drop_probability) {
            return NetStats {
                dropped_fault: 1,
                ..sent
            };
        }
        // Draw order (delay, duplicate coin, duplicate's delay) is part of
        // every same-seed result; the payload is cloned only for the
        // fault model's duplicate and otherwise moved.
        let delay = self.latency.sample(rng);
        let duplicate = rng
            .chance(self.faults.duplicate_probability)
            .then(|| self.latency.sample(rng));
        let Some(delay2) = duplicate else {
            out.push((delay, Delivery { from, to, msg }));
            return NetStats {
                delivered: 1,
                ..sent
            };
        };
        let copy = Delivery {
            from,
            to,
            msg: msg.clone(),
        };
        out.push((delay, copy));
        out.push((delay2, Delivery { from, to, msg }));
        NetStats {
            delivered: 2,
            duplicated: 1,
            ..sent
        }
    }

    /// A directory-driven direct dial. It is immune to the drop/duplicate
    /// fault model: a TCP connection (the paper's gateway→recipient leg)
    /// retransmits below this abstraction. It is also independent of the
    /// static gossip adjacency: the sender looked the peer's IP up (on
    /// chain, §4.3) and opens a TCP connection straight to it, so the
    /// overlay graph that shapes flood fan-out does not constrain it.
    /// Chaos-level cuts are the caller's concern (they model live
    /// failures, not graph shape).
    pub fn dial<M>(
        &mut self,
        rng: &mut SimRng,
        from: NodeId,
        to: NodeId,
        msg: M,
    ) -> (SimDuration, Delivery<M>) {
        self.stats.sent += 1;
        self.stats.delivered += 1;
        (self.latency.sample(rng), Delivery { from, to, msg })
    }

    /// Computes deliveries for a broadcast to every peer of `from`, in
    /// ascending peer order, into one vector sized for the peer count.
    pub fn broadcast<M: Clone>(
        &mut self,
        rng: &mut SimRng,
        from: NodeId,
        msg: &M,
    ) -> Vec<(SimDuration, Delivery<M>)> {
        let peers = self.topology.peers_of(from);
        let mut out = Vec::with_capacity(peers.len());
        for &peer in peers {
            let sent = self.transmit_into(rng, from, peer, msg.clone(), &mut out);
            self.stats.merge(&sent);
        }
        out
    }
}

/// Gossip relay dedupe: tracks message ids a node has already seen so
/// flooded broadcasts terminate.
#[derive(Debug, Clone, Default)]
pub struct SeenFilter {
    seen: IdSet<[u8; 32]>,
}

impl SeenFilter {
    /// A fresh filter.
    pub fn new() -> Self {
        SeenFilter::default()
    }

    /// Returns `true` the first time `id` is offered, `false` afterwards.
    pub fn first_sighting(&mut self, id: [u8; 32]) -> bool {
        self.seen.insert(id)
    }

    /// Forgets `id`, so its next sighting counts as the first again.
    /// Returns whether it was known. Used when a reorg orphans a
    /// transaction: the owner will re-broadcast it, and relays that
    /// remembered the txid would otherwise drop the recovery flood.
    pub fn forget(&mut self, id: &[u8; 32]) -> bool {
        self.seen.remove(id)
    }

    /// Number of distinct ids seen.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been seen.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Network {
        /// The deliveries of one overlay send, in a fresh vector.
        fn transmit<M: Clone>(
            &mut self,
            rng: &mut SimRng,
            from: NodeId,
            to: NodeId,
            msg: M,
        ) -> Vec<(SimDuration, Delivery<M>)> {
            let mut out = Vec::new();
            let sent = self.transmit_into(rng, from, to, msg, &mut out);
            self.stats.merge(&sent);
            out
        }
    }

    /// A 4-node full mesh, minus the links in `cut`.
    fn net_without(cut: &[(u32, u32)], drop: f64, dup: f64) -> Network {
        let mut topology = Topology::empty(4);
        for a in 0..4 {
            for b in a + 1..4 {
                if !cut.contains(&(a, b)) {
                    topology.connect(NodeId(a), NodeId(b));
                }
            }
        }
        Network::new(
            topology,
            LatencyModel::Constant(SimDuration::from_millis(10)),
        )
        .with_faults(FaultModel {
            drop_probability: drop,
            duplicate_probability: dup,
        })
    }

    fn net(drop: f64, dup: f64) -> Network {
        net_without(&[], drop, dup)
    }

    #[test]
    fn transmit_delivers_with_latency() {
        let mut network = net(0.0, 0.0);
        let mut rng = SimRng::seed_from_u64(1);
        let deliveries = network.transmit(&mut rng, NodeId(0), NodeId(1), "hello");
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, SimDuration::from_millis(10));
        assert_eq!(deliveries[0].1.msg, "hello");
        assert_eq!(deliveries[0].1.to, NodeId(1));
    }

    #[test]
    fn unlinked_nodes_cannot_talk() {
        let mut network = net_without(&[(0, 1)], 0.0, 0.0);
        let mut rng = SimRng::seed_from_u64(2);
        assert!(network
            .transmit(&mut rng, NodeId(0), NodeId(1), ())
            .is_empty());
        // Other links unaffected.
        assert_eq!(
            network.transmit(&mut rng, NodeId(0), NodeId(2), ()).len(),
            1
        );
    }

    #[test]
    fn drops_happen_at_configured_rate() {
        let mut network = net(0.5, 0.0);
        let mut rng = SimRng::seed_from_u64(3);
        let delivered = (0..1000)
            .map(|_| network.transmit(&mut rng, NodeId(0), NodeId(1), ()).len())
            .sum::<usize>();
        assert!((380..620).contains(&delivered), "{delivered}/1000");
    }

    #[test]
    fn duplicates_happen_at_configured_rate() {
        let mut network = net(0.0, 0.5);
        let mut rng = SimRng::seed_from_u64(4);
        let delivered = (0..1000)
            .map(|_| network.transmit(&mut rng, NodeId(0), NodeId(1), ()).len())
            .sum::<usize>();
        assert!((1380..1620).contains(&delivered), "{delivered}/1000");
    }

    #[test]
    fn transmit_keeps_draw_order_and_clones_only_for_duplicates() {
        use std::cell::Cell;
        use std::rc::Rc;

        /// A payload that counts how often it is cloned.
        struct Counted(Rc<Cell<u32>>);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                self.0.set(self.0.get() + 1);
                Counted(self.0.clone())
            }
        }

        let faults = FaultModel {
            drop_probability: 0.2,
            duplicate_probability: 0.3,
        };
        let mut network = Network::new(Topology::full_mesh(2), LatencyModel::planetlab())
            .with_faults(faults.clone());
        // The draw order every same-seed result depends on: drop coin,
        // delay, duplicate coin, the duplicate's delay.
        let latency = LatencyModel::planetlab();
        let (mut rng, mut reference) = (SimRng::seed_from_u64(77), SimRng::seed_from_u64(77));
        let clones = Rc::new(Cell::new(0));
        for _ in 0..500 {
            let sent = network.transmit(&mut rng, NodeId(0), NodeId(1), Counted(clones.clone()));
            let mut expected = Vec::new();
            if !reference.chance(faults.drop_probability) {
                expected.push(latency.sample(&mut reference));
                if reference.chance(faults.duplicate_probability) {
                    expected.push(latency.sample(&mut reference));
                }
            }
            let delays: Vec<SimDuration> = sent.iter().map(|(delay, _)| *delay).collect();
            assert_eq!(delays, expected);
        }
        let duplicated = network.stats().duplicated;
        assert!(duplicated > 50);
        assert_eq!(
            u64::from(clones.get()),
            duplicated,
            "one clone per duplicate"
        );
    }

    #[test]
    fn broadcast_reaches_all_peers() {
        let mut network = net(0.0, 0.0);
        let mut rng = SimRng::seed_from_u64(5);
        let deliveries = network.broadcast(&mut rng, NodeId(2), &"block");
        assert_eq!(deliveries.len(), 3);
        let targets: Vec<_> = deliveries.iter().map(|(_, d)| d.to).collect();
        assert!(targets.contains(&NodeId(0)));
        assert!(targets.contains(&NodeId(1)));
        assert!(targets.contains(&NodeId(3)));
    }

    #[test]
    fn broadcast_is_transmit_to_each_peer_in_order() {
        let mut topology = Topology::empty(6);
        for peer in [4, 1, 5, 2] {
            topology.connect(NodeId(0), NodeId(peer));
        }
        let mut network =
            Network::new(topology, LatencyModel::planetlab()).with_faults(FaultModel {
                drop_probability: 0.2,
                duplicate_probability: 0.3,
            });
        let (mut rng, mut reference) = (SimRng::seed_from_u64(8), SimRng::seed_from_u64(8));
        for _ in 0..200 {
            let flood = network.broadcast(&mut rng, NodeId(0), &7u8);
            let expected: Vec<_> = [1, 2, 4, 5]
                .into_iter()
                .flat_map(|peer| network.transmit(&mut reference, NodeId(0), NodeId(peer), 7u8))
                .collect();
            assert_eq!(flood, expected);
        }
    }

    #[test]
    fn stats_count_traffic() {
        let mut network = net_without(&[(0, 3)], 0.0, 0.0);
        let mut rng = SimRng::seed_from_u64(9);
        network.transmit(&mut rng, NodeId(0), NodeId(1), ());
        network.dial(&mut rng, NodeId(0), NodeId(2), ());
        network.transmit(&mut rng, NodeId(0), NodeId(3), ());
        let s = network.stats();
        assert_eq!(s.sent, 3);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.dropped_partition, 1);
        assert_eq!(s.dropped_fault, 0);

        let mut lossy = net(1.0, 0.0);
        lossy.transmit(&mut rng, NodeId(0), NodeId(1), ());
        assert_eq!(lossy.stats().dropped_fault, 1);
    }

    #[test]
    fn seen_filter_dedupes() {
        let mut filter = SeenFilter::new();
        assert!(filter.first_sighting([1; 32]));
        assert!(!filter.first_sighting([1; 32]));
        assert!(filter.first_sighting([2; 32]));
        assert_eq!(filter.len(), 2);
    }
}
