//! One keyed hasher for the maps keyed by digests and dense ids.
//!
//! Txids, block hashes and outpoints are SHA-256 output already, and
//! node ids are small dense integers; neither needs `std`'s default
//! SipHash-1-3, which took a fifth of a 200-host `World` run's main
//! thread hashing them (EXPERIMENTS.md § "IH"). An [`IdHasher`] folds
//! each 8-byte word of the key into its state with one 64×64→128-bit
//! multiply whose halves are XORed, and `finish` folds once more, so
//! every byte of the key reaches both the low bits a table indexes its
//! buckets with and the top seven bits it tags them with.
//!
//! The two 64-bit keys come from `std`'s `RandomState`, drawn anew for
//! every map as `std` draws its own. Keys received off the network
//! therefore cannot be ground towards one bucket without the map's key,
//! and no two maps — not even the same map in two same-seed runs in one
//! process — iterate in the same order, so the rerun and bit-identity
//! tests keep catching code that depends on iteration order. The hash
//! is keyed, not a MAC: it holds against keys chosen blind, which is all
//! a hash table needs, and is not a substitute for SipHash where an
//! attacker can observe the table's timing at length.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` on the id hasher.
pub type IdMap<K, V> = HashMap<K, V, IdState>;

/// A `HashSet` on the id hasher.
pub type IdSet<K> = HashSet<K, IdState>;

/// The per-map key [`IdHasher`]s start from (see module docs).
#[derive(Debug, Clone)]
pub struct IdState {
    seed: u64,
    multiplier: u64,
}

impl Default for IdState {
    /// A fresh random key.
    fn default() -> Self {
        let keys = RandomState::new();
        IdState {
            seed: keys.hash_one(0u8),
            multiplier: keys.hash_one(1u8),
        }
    }
}

impl BuildHasher for IdState {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            acc: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// The hasher an [`IdState`] builds: one folded multiply per 8-byte
/// word, one more in `finish`.
#[derive(Debug, Clone)]
pub struct IdHasher {
    acc: u64,
    multiplier: u64,
}

/// The 128-bit product of `a` and `b` with its halves XORed together.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

impl IdHasher {
    #[inline]
    fn word(&mut self, word: u64) {
        self.acc = fold(self.acc ^ word, self.multiplier);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.word(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // A tail is at most 7 bytes; its length in the free top byte
            // keeps `b"ab"` and `b"ab\0"` apart.
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            last[7] = tail.len() as u8;
            self.word(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.acc, self.multiplier.rotate_left(32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockHash;
    use crate::tx::{OutPoint, TxId};

    /// The largest number of `hashes` that share one value of
    /// `bucket(hash)`.
    fn max_load(hashes: &[u64], bucket: impl Fn(u64) -> u64) -> usize {
        let mut loads: HashMap<u64, usize> = HashMap::new();
        for &h in hashes {
            *loads.entry(bucket(h)).or_default() += 1;
        }
        loads.into_values().max().unwrap_or(0)
    }

    /// Asserts that `hashes` (4 096 of them) spread over a table's low
    /// 12 index bits and over its top-7-bit tag as random hashes do: a
    /// random hash's fullest index bucket holds ~7 and its fullest tag
    /// ~50, a hasher that misses the varying bytes puts all 4 096 in one.
    fn assert_spread(what: &str, hashes: &[u64]) {
        assert_eq!(hashes.len(), 4096);
        let index = max_load(hashes, |h| h & 0xfff);
        let tag = max_load(hashes, |h| h >> 57);
        assert!(index <= 16, "{what}: {index} keys share one index bucket");
        assert!(tag <= 80, "{what}: {tag} keys share one tag");
    }

    #[test]
    fn equal_keys_hash_equally_within_one_map() {
        let state = IdState::default();
        let op = OutPoint {
            txid: TxId([7; 32]),
            vout: 3,
        };
        assert_eq!(state.hash_one(op), state.hash_one(op));
        assert_eq!(state.hash_one(op), state.clone().hash_one(op));
        let mut map: IdMap<OutPoint, u32> = IdMap::default();
        map.insert(op, 1);
        assert_eq!(map.get(&op), Some(&1));
        assert_eq!(map.clone().get(&op), Some(&1));
    }

    #[test]
    fn two_builders_have_different_keys() {
        let (a, b) = (IdState::default(), IdState::default());
        let id = BlockHash([42; 32]);
        assert_ne!(a.hash_one(id), b.hash_one(id));
        assert_ne!(a.hash_one(0u32), b.hash_one(0u32));
    }

    #[test]
    fn every_byte_of_a_digest_moves_the_hash() {
        let state = IdState::default();
        let base = TxId([0x5a; 32]);
        let h = state.hash_one(base);
        for i in 0..32 {
            for bit in 0..8 {
                let mut flipped = base;
                flipped.0[i] ^= 1 << bit;
                assert_ne!(state.hash_one(flipped), h, "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn structured_keys_spread_over_index_bits_and_tag() {
        for _ in 0..4 {
            let state = IdState::default();
            let txid = TxId([0xc3; 32]);
            let outpoints: Vec<u64> = (0..4096)
                .map(|vout| state.hash_one(OutPoint { txid, vout }))
                .collect();
            assert_spread("outpoints of one txid", &outpoints);

            let shared_prefix: Vec<u64> = (0..4096u64)
                .map(|n| {
                    let mut id = [0x11; 32];
                    id[24..].copy_from_slice(&n.to_le_bytes());
                    state.hash_one(TxId(id))
                })
                .collect();
            assert_spread("ids sharing 24 bytes", &shared_prefix);
        }
    }

    #[test]
    fn tail_length_separates_zero_padding() {
        let state = IdState::default();
        let hash = |bytes: &[u8]| {
            let mut h = state.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
    }
}
