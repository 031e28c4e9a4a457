//! The calendar wheel a [`Shard`](super::Shard) keeps its nodes in,
//! keyed by the tick at which each node next wakes.
//!
//! Ticks `base..base + RING` map onto a ring of slots (`tick % RING`);
//! each slot is an intrusive singly linked list threaded through one
//! `next` link per node, and an occupancy bitmap finds the earliest
//! non-empty slot in a few word scans. Wakes at or past the ring's
//! horizon wait in a min-heap and move into the ring as `base`
//! advances. Finding the next due tick never walks idle ticks: it is a
//! bitmap scan when the ring holds anything, else the heap's minimum —
//! a metering cadence whose wakes all lie hours ahead costs one heap
//! peek, not thousands of empty slots. Heap entries are packed into one
//! `u64` (`tick << node_bits | node`), so sifting compares plain
//! integers.
//!
//! Every node is in exactly one place (a slot or the heap) between a
//! [`TickWheel::push`] and the [`TickWheel::take`] that returns it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ticks the ring covers: 17 minutes at the 1 s default tick, so a
/// dense cell's wakes (minutes apart) never touch the heap.
const RING: usize = 1024;
const WORDS: usize = RING / 64;
/// End of a slot's list.
const NIL: u32 = u32::MAX;

pub(super) struct TickWheel {
    /// No entry is due before this tick; the ring holds ticks
    /// `base..base + RING`.
    base: u64,
    /// First node of each slot's list, or `NIL`.
    heads: Vec<u32>,
    /// Bit `s` is set iff slot `s` is non-empty.
    occupied: [u64; WORDS],
    /// Entries in the ring (an empty ring defers to `overflow` without
    /// a scan).
    in_ring: usize,
    /// Per-node link to the next node in the same slot.
    next: Vec<u32>,
    /// Packed entries due at or after `base + RING`.
    overflow: BinaryHeap<Reverse<u64>>,
    /// Low bits of a packed entry that hold the node index.
    node_bits: u32,
}

impl TickWheel {
    /// An empty wheel for node indices `0..nodes`, at tick 0.
    pub(super) fn new(nodes: usize) -> Self {
        TickWheel {
            base: 0,
            heads: vec![NIL; RING],
            occupied: [0; WORDS],
            in_ring: 0,
            next: vec![NIL; nodes],
            overflow: BinaryHeap::new(),
            node_bits: usize::BITS - nodes.leading_zeros(),
        }
    }

    /// Files `node` under `tick`, or under the earliest tick not yet
    /// taken if `tick` is already past.
    pub(super) fn push(&mut self, node: u32, tick: u64) {
        let tick = tick.max(self.base);
        if tick - self.base < RING as u64 {
            self.link(node, tick);
        } else {
            // A tick at or past 2^(64 − node_bits) — 2^54 for a 1 000-node
            // shard, 570 years of 1 µs ticks — clamps to just under it
            // so the entry stays packed; no run steps that far.
            let tick = tick.min(u64::MAX >> self.node_bits);
            self.overflow
                .push(Reverse(tick << self.node_bits | u64::from(node)));
        }
    }

    /// The earliest tick with a node filed under it.
    pub(super) fn next_due(&self) -> Option<u64> {
        if self.in_ring == 0 {
            // Every overflow entry lies past every ring entry, so only
            // an empty ring hands the answer to the heap.
            return self
                .overflow
                .peek()
                .map(|&Reverse(key)| key >> self.node_bits);
        }
        let start = self.base as usize % RING;
        let mut word = start / 64;
        let mut bits = self.occupied[word] & (u64::MAX << (start % 64));
        while bits == 0 {
            // Back at the start word after a full turn, `bits` is its
            // low part: the slots just short of the horizon.
            word = (word + 1) % WORDS;
            bits = self.occupied[word];
        }
        let slot = word * 64 + bits.trailing_zeros() as usize;
        Some(self.base + ((slot + RING - start) % RING) as u64)
    }

    /// Appends every node filed at or before `tick` to `out` (in no
    /// particular order), jumping from one occupied tick to the next,
    /// and moves `base` past `tick`.
    pub(super) fn take(&mut self, tick: u64, out: &mut Vec<u32>) {
        while let Some(due) = self.next_due().filter(|&due| due <= tick) {
            self.advance(due);
            let slot = due as usize % RING;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            let mut node = std::mem::replace(&mut self.heads[slot], NIL);
            while node != NIL {
                out.push(node);
                self.in_ring -= 1;
                node = self.next[node as usize];
            }
            if due == tick {
                break;
            }
        }
        self.advance(self.base.max(tick + 1));
    }

    /// Moves `base` to `to` (no entry is due before it) and pulls the
    /// overflow entries the horizon now covers into the ring.
    fn advance(&mut self, to: u64) {
        self.base = to;
        let horizon = to + RING as u64;
        while let Some(&Reverse(key)) = self.overflow.peek() {
            let tick = key >> self.node_bits;
            if tick >= horizon {
                break;
            }
            self.overflow.pop();
            self.link((key & !(u64::MAX << self.node_bits)) as u32, tick);
        }
    }

    fn link(&mut self, node: u32, tick: u64) {
        let slot = tick as usize % RING;
        self.next[node as usize] = self.heads[slot];
        self.heads[slot] = node;
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.in_ring += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcwan_sim::SimRng;

    /// The wheel against a `BinaryHeap` of `(tick, node)` with the same
    /// clamp, through `ops` random steps over `nodes` nodes. Each step
    /// either advances to the next due tick, as a fast-forwarding shard
    /// does, or takes the very next tick, or jumps up to `max_jump`
    /// ticks ahead; every taken node is pushed again at a random
    /// distance from the clamp (`0` lands on the next tick) up to
    /// `max_gap` ticks.
    fn against_heap(seed: u64, nodes: u32, ops: usize, max_gap: u64, max_jump: u64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut wheel = TickWheel::new(nodes as usize);
        let mut reference = BinaryHeap::new();
        let below = |rng: &mut SimRng, n: u64| rng.index(n as usize) as u64;
        let gap = |rng: &mut SimRng| match below(rng, 10) {
            0 => 0,
            1 => RING as u64 + below(rng, 4 * RING as u64),
            _ => below(rng, max_gap + 1),
        };
        for node in 0..nodes {
            let tick = gap(&mut rng);
            wheel.push(node, tick);
            reference.push(Reverse((tick, node)));
        }
        let mut now = 0u64;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for op in 0..ops {
            let reference_due = reference.peek().map(|&Reverse((t, _))| t.max(now + 1));
            assert_eq!(
                wheel.next_due().map(|t| t.max(now + 1)),
                reference_due,
                "next_due at op {op}"
            );
            now = match below(&mut rng, 4) {
                0 => now + 1,
                1 => now + 1 + below(&mut rng, max_jump + 1),
                _ => reference_due.unwrap_or(now + 1),
            };
            got.clear();
            want.clear();
            wheel.take(now, &mut got);
            while let Some(&Reverse((tick, node))) = reference.peek() {
                if tick > now {
                    break;
                }
                reference.pop();
                want.push(node);
            }
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "due set at tick {now} (op {op})");
            for &node in &got {
                let tick = now + 1 + gap(&mut rng);
                // Sometimes file a wake that is already past: it must
                // come due at the next tick, like the heap's clamp.
                let tick = if below(&mut rng, 8) == 0 {
                    now.saturating_sub(below(&mut rng, 3))
                } else {
                    tick
                };
                wheel.push(node, tick);
                reference.push(Reverse((tick.max(now + 1), node)));
            }
        }
        assert_eq!(wheel.in_ring + wheel.overflow.len(), reference.len());
    }

    #[test]
    fn matches_a_heap_on_dense_wakes() {
        for seed in 0..8 {
            against_heap(seed, 200, 2_000, 300, 5);
        }
    }

    #[test]
    fn matches_a_heap_past_the_horizon() {
        // Gaps up to 20 ring lengths: most wakes start in the overflow
        // heap and migrate as `base` advances.
        for seed in 100..108 {
            against_heap(seed, 64, 2_000, 20 * RING as u64, 3);
        }
    }

    #[test]
    fn matches_a_heap_across_long_idle_jumps() {
        // Jumps of several ring lengths skip whole turns of the ring
        // with entries on both sides of the horizon.
        for seed in 200..208 {
            against_heap(seed, 32, 1_000, 3 * RING as u64, 4 * RING as u64);
        }
    }

    #[test]
    fn a_far_wake_comes_due_from_the_heap() {
        let mut wheel = TickWheel::new(2);
        wheel.push(0, 50 * RING as u64 + 7);
        assert_eq!(wheel.next_due(), Some(50 * RING as u64 + 7));
        let mut out = Vec::new();
        wheel.take(50 * RING as u64 + 6, &mut out);
        assert!(out.is_empty());
        // Node 0 is in the ring now, one slot ahead; a wake already
        // past joins it there.
        wheel.push(1, 0);
        assert_eq!(wheel.next_due(), Some(50 * RING as u64 + 7));
        wheel.take(50 * RING as u64 + 7, &mut out);
        out.sort_unstable();
        assert_eq!(out, [0, 1]);
        assert_eq!(wheel.next_due(), None);
    }

    #[test]
    fn an_idle_take_pulls_in_what_the_horizon_now_covers() {
        // Node 0 waits in the overflow heap; a take that finds nothing
        // due still moves the horizon past it, so node 1, filed in the
        // ring after it, cannot be reported first.
        let mut wheel = TickWheel::new(2);
        wheel.push(0, 2 * RING as u64);
        let mut out = Vec::new();
        wheel.take(RING as u64 + 500, &mut out);
        assert!(out.is_empty());
        wheel.push(1, 2 * RING as u64 + 100);
        assert_eq!(wheel.next_due(), Some(2 * RING as u64));
        wheel.take(2 * RING as u64, &mut out);
        assert_eq!(out, [0]);
    }

    #[test]
    fn a_slot_just_short_of_the_horizon_is_found_after_wrapping() {
        // `base` mid-word, the only entry in the start word's low bits.
        let mut wheel = TickWheel::new(1);
        let mut out = Vec::new();
        wheel.take(RING as u64 + 9, &mut out);
        let last = wheel.base + RING as u64 - 1;
        wheel.push(0, last);
        assert_eq!(wheel.overflow.len(), 0);
        assert_eq!(wheel.next_due(), Some(last));
    }
}
