//! Persistent chain storage: append-only block/undo files, a flat
//! coins table, and a crash-safe manifest.
//!
//! A store directory holds four kinds of files, all built from the CRC'd
//! record framing in the private `files` module:
//!
//! ```text
//! blocks.dat      kind 'B' records — whole blocks, canonical layout
//! undo.dat        kind 'U' records — block hash ‖ spent-entry list
//! coins-<g>.log   kind 'P' (outpoint ‖ entry) / 'D' (outpoint) records
//! manifest.log    kind 'C' commit    (tip ‖ height ‖ blocks_len ‖ undo_len)
//!                 kind 'F' coins mark (gen ‖ coins_len ‖ tip ‖ height)
//! ```
//!
//! The **manifest is the commit point**: block and undo bytes are
//! appended first, then a `C` record naming the file lengths they end
//! at. On reopen the store takes the *last `C` record whose lengths are
//! covered by CRC-valid data* and truncates everything past it — a torn
//! write anywhere rolls the chain back to the last durable commit, never
//! to an inconsistent hybrid. Coins flushes work the same way: `P`/`D`
//! records first, then an `F` mark naming the generation and length
//! that are now meaningful. fsync is configurable
//! ([`StoreConfig::fsync`]) and applied at commit/flush boundaries only;
//! with it off the store is still proof against process crashes (the
//! sim's chaos model), just not against power loss.
//!
//! The coins log is append-only per generation and compacts by
//! rewriting live entries into generation `g+1`, marking it with an `F`
//! record, and deleting the old file.

mod coins;
mod files;

pub use coins::{CoinsCache, FlushOp};

use crate::block::{Block, BlockHash};
use crate::codec::{
    decode_block, decode_outpoint, decode_undo, decode_utxo_entry, encode_block, encode_outpoint,
    encode_undo, encode_utxo_entry, Reader,
};
use crate::idmap::{IdMap, IdSet};
use crate::tx::OutPoint;
use crate::utxo::{UndoData, UtxoEntry};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

const KIND_BLOCK: u8 = b'B';
const KIND_UNDO: u8 = b'U';
const KIND_PUT: u8 = b'P';
const KIND_DEL: u8 = b'D';
const KIND_COMMIT: u8 = b'C';
const KIND_COINS_MARK: u8 = b'F';

/// Compaction floor: a coins log smaller than this is never rewritten.
const COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// Tuning knobs for a `ChainStore`.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// fsync at commit/flush boundaries (durability against power loss,
    /// not just process crash). Off by default: the sim's chaos model
    /// kills processes, not power, and a 1000-host soak cannot afford
    /// a million fsyncs.
    pub fsync: bool,
    /// Connect this many blocks between automatic coins flushes.
    pub coins_flush_interval: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            fsync: false,
            coins_flush_interval: 8,
        }
    }
}

bcwan_sim::counters! {
    /// Counters a store accumulates over its lifetime (`store.*` rows;
    /// the `labeled` ones also per host in small fleets).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct StoreStats {
        /// Coins flushes performed (manual or interval-driven).
        pub flush_total: u64 => labeled "store.flush_total",
        /// Full rebuilds of the coins table from the block file (missing
        /// or corrupt coins data at open).
        pub reindex_total: u64 => "store.reindex_total",
        /// Bytes appended across all files, framing included.
        pub bytes_written: u64 => labeled "store.bytes_written_total",
        /// Block records appended.
        pub blocks_appended: u64 => "store.blocks_appended_total",
        /// Undo records appended.
        pub undo_appended: u64 => "store.undo_appended_total",
        /// Coins-log compactions (generation rewrites).
        pub compact_total: u64 => "store.compact_total",
    }
}

/// Why a store failed to open or load.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The directory holds no usable commit — nothing to reopen.
    Empty,
    /// Data was present but unusable (e.g. committed tip unresolvable).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
            StoreError::Empty => write!(f, "store holds no usable commit"),
            StoreError::Corrupt(why) => write!(f, "store corrupt: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What [`ChainStore::open`] recovered from disk, for the chain to
/// rebuild its in-memory state from.
pub(crate) struct LoadedChain {
    /// Every committed block, in append (= first-connect) order. Parents
    /// always precede children; stale branch blocks are included.
    pub blocks: Vec<Block>,
    /// Undo data per stored block.
    pub undo: IdMap<BlockHash, UndoData>,
    /// The committed tip.
    pub tip: BlockHash,
    /// The committed tip height.
    pub height: u64,
    /// The last durable coins snapshot: the tip/height it was flushed
    /// at and the live entries. `None` means the coins data was missing
    /// or corrupt and the chain must reindex from the block file.
    pub coins: Option<(BlockHash, u64, IdMap<OutPoint, UtxoEntry>)>,
}

/// A chain's persistent backing: one directory of record-framed files
/// (see module docs). Holds paths, never open descriptors.
#[derive(Debug, Clone)]
pub(crate) struct ChainStore {
    dir: PathBuf,
    cfg: StoreConfig,
    blocks_len: u64,
    undo_len: u64,
    coins_gen: u32,
    coins_len: u64,
    coins_live_bytes: u64,
    /// Payload length of each live coin's record: what the coins file
    /// holds, for the live-byte and compaction accounting.
    coins_index: IdMap<OutPoint, u32>,
    stored_blocks: IdSet<BlockHash>,
    stored_undo: IdSet<BlockHash>,
    connects_since_flush: u64,
    stats: StoreStats,
}

impl ChainStore {
    /// Creates a fresh store in `dir`, wiping any previous contents of
    /// the directory's store files.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory.
    pub fn create(dir: impl Into<PathBuf>, cfg: StoreConfig) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        for name in ["blocks.dat", "undo.dat", "manifest.log"] {
            let _ = std::fs::remove_file(dir.join(name));
        }
        remove_coins_logs(&dir, None);
        Ok(ChainStore {
            dir,
            cfg,
            blocks_len: 0,
            undo_len: 0,
            coins_gen: 0,
            coins_len: 0,
            coins_live_bytes: 0,
            coins_index: IdMap::default(),
            stored_blocks: IdSet::default(),
            stored_undo: IdSet::default(),
            connects_since_flush: 0,
            stats: StoreStats::default(),
        })
    }

    /// Reopens an existing store, recovering the last durable commit
    /// (see module docs for the truncate-back discipline).
    ///
    /// # Errors
    ///
    /// [`StoreError::Empty`] if no commit survives, [`StoreError::Corrupt`]
    /// if a commit names a tip the block data cannot resolve, or
    /// [`StoreError::Io`] on filesystem failure.
    pub fn open(
        dir: impl Into<PathBuf>,
        cfg: StoreConfig,
    ) -> Result<(Self, LoadedChain), StoreError> {
        let dir = dir.into();
        let (manifest, manifest_valid) = files::read_valid_prefix(&dir.join("manifest.log"))?;
        let (block_records, blocks_valid) = files::read_valid_prefix(&dir.join("blocks.dat"))?;
        let (undo_records, undo_valid) = files::read_valid_prefix(&dir.join("undo.dat"))?;

        // Decode blocks/undo up front, tracking the byte length each
        // record prefix ends at so a commit can be checked against it.
        let mut blocks = Vec::new();
        let mut block_ends = Vec::new();
        let mut pos = 0u64;
        for rec in &block_records {
            pos += files::RECORD_HEADER + rec.payload.len() as u64;
            if rec.kind != KIND_BLOCK {
                break;
            }
            let mut r = Reader::new(&rec.payload);
            let Ok(block) = decode_block(&mut r) else {
                break;
            };
            if r.finish().is_err() {
                break;
            }
            blocks.push(block);
            block_ends.push(pos);
        }
        let mut undo_list = Vec::new();
        let mut undo_ends = Vec::new();
        pos = 0;
        for rec in &undo_records {
            pos += files::RECORD_HEADER + rec.payload.len() as u64;
            if rec.kind != KIND_UNDO {
                break;
            }
            let mut r = Reader::new(&rec.payload);
            let Ok(hash) = r.array32() else { break };
            let Ok(data) = decode_undo(&mut r) else { break };
            if r.finish().is_err() {
                break;
            }
            undo_list.push((BlockHash(hash), data));
            undo_ends.push(pos);
        }

        // Last commit whose named lengths are fully covered by valid,
        // decodable data.
        let mut commit = None;
        for rec in manifest.iter().rev() {
            if rec.kind != KIND_COMMIT {
                continue;
            }
            let mut r = Reader::new(&rec.payload);
            let (Ok(tip), Ok(height), Ok(blocks_len), Ok(undo_len)) =
                (r.array32(), r.u64(), r.u64(), r.u64())
            else {
                continue;
            };
            let blocks_ok = blocks_len == 0 || block_ends.contains(&blocks_len);
            let undo_ok = undo_len == 0 || undo_ends.contains(&undo_len);
            if blocks_ok && undo_ok && blocks_len <= blocks_valid && undo_len <= undo_valid {
                commit = Some((BlockHash(tip), height, blocks_len, undo_len));
                break;
            }
        }
        let Some((tip, height, blocks_len, undo_len)) = commit else {
            return Err(StoreError::Empty);
        };

        // Discard everything past the commit point.
        files::truncate(&dir.join("blocks.dat"), blocks_len)?;
        files::truncate(&dir.join("undo.dat"), undo_len)?;
        files::truncate(&dir.join("manifest.log"), manifest_valid)?;
        let committed_blocks = block_ends.iter().filter(|&&e| e <= blocks_len).count();
        blocks.truncate(committed_blocks);
        let committed_undo = undo_ends.iter().filter(|&&e| e <= undo_len).count();
        let committed_hashes: IdSet<BlockHash> = blocks.iter().map(|b| b.hash()).collect();
        if !committed_hashes.contains(&tip) {
            return Err(StoreError::Corrupt(format!(
                "committed tip {tip} not in block file"
            )));
        }
        // Only undo records the commit covers are meaningful; drop the
        // truncated tail and anything for a block we no longer hold.
        undo_list.truncate(committed_undo);
        let undo: IdMap<BlockHash, UndoData> = undo_list
            .into_iter()
            .filter(|(h, _)| committed_hashes.contains(h))
            .collect();

        // Best coins mark whose generation file covers its length and
        // whose tip is a committed block.
        let mut coins = None;
        let mut coins_gen = 0u32;
        let mut coins_len = 0u64;
        for rec in manifest.iter().rev() {
            if rec.kind != KIND_COINS_MARK {
                continue;
            }
            let mut r = Reader::new(&rec.payload);
            let (Ok(gen), Ok(len), Ok(mark_tip), Ok(mark_height)) =
                (r.u32(), r.u64(), r.array32(), r.u64())
            else {
                continue;
            };
            let mark_tip = BlockHash(mark_tip);
            if !committed_hashes.contains(&mark_tip) {
                continue;
            }
            let path = coins_path(&dir, gen);
            let Ok((records, valid)) = files::read_valid_prefix(&path) else {
                continue;
            };
            if len > valid {
                continue;
            }
            if let Some((entries, index, live_bytes)) = replay_coins(&records, len) {
                files::truncate(&path, len)?;
                coins = Some((mark_tip, mark_height, entries, index, live_bytes));
                coins_gen = gen;
                coins_len = len;
                break;
            }
        }
        remove_coins_logs(&dir, coins.as_ref().map(|_| coins_gen));

        let (loaded_coins, coins_index, coins_live_bytes) = match coins {
            Some((t, h, entries, index, live)) => (Some((t, h, entries)), index, live),
            None => (None, IdMap::default(), 0),
        };

        // Undo map the chain gets; the store keeps the hash set.
        let stored_undo: IdSet<BlockHash> = undo.keys().copied().collect();
        let loaded = LoadedChain {
            blocks,
            undo,
            tip,
            height,
            coins: loaded_coins,
        };
        let store = ChainStore {
            dir,
            cfg,
            blocks_len,
            undo_len,
            coins_gen,
            coins_len,
            coins_live_bytes,
            coins_index,
            stored_blocks: committed_hashes,
            stored_undo,
            connects_since_flush: 0,
            stats: StoreStats::default(),
        };
        Ok((store, loaded))
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Appends a block record (idempotent per hash).
    pub(crate) fn append_block(&mut self, block: &Block) -> io::Result<()> {
        let hash = block.hash();
        if self.stored_blocks.contains(&hash) {
            return Ok(());
        }
        let mut framed = Vec::new();
        files::frame(&mut framed, KIND_BLOCK, &encode_block(block));
        self.blocks_len = files::append(&self.dir.join("blocks.dat"), &framed, false)?;
        self.stats.bytes_written += framed.len() as u64;
        self.stats.blocks_appended += 1;
        self.stored_blocks.insert(hash);
        Ok(())
    }

    /// Appends a block's undo record (idempotent per hash).
    pub(crate) fn append_undo(&mut self, hash: BlockHash, undo: &UndoData) -> io::Result<()> {
        if self.stored_undo.contains(&hash) {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(32 + 4);
        payload.extend_from_slice(&hash.0);
        payload.extend_from_slice(&encode_undo(undo));
        let mut framed = Vec::new();
        files::frame(&mut framed, KIND_UNDO, &payload);
        self.undo_len = files::append(&self.dir.join("undo.dat"), &framed, false)?;
        self.stats.bytes_written += framed.len() as u64;
        self.stats.undo_appended += 1;
        self.stored_undo.insert(hash);
        Ok(())
    }

    /// Commits the current file lengths under `tip`/`height`: after this
    /// record is durable, reopen recovers exactly this state.
    pub(crate) fn commit(&mut self, tip: BlockHash, height: u64) -> io::Result<()> {
        let mut payload = Vec::with_capacity(32 + 24);
        payload.extend_from_slice(&tip.0);
        payload.extend_from_slice(&height.to_le_bytes());
        payload.extend_from_slice(&self.blocks_len.to_le_bytes());
        payload.extend_from_slice(&self.undo_len.to_le_bytes());
        let mut framed = Vec::new();
        files::frame(&mut framed, KIND_COMMIT, &payload);
        files::append(&self.dir.join("manifest.log"), &framed, self.cfg.fsync)?;
        self.stats.bytes_written += framed.len() as u64;
        self.connects_since_flush += 1;
        Ok(())
    }

    /// Whether enough blocks have connected since the last coins flush
    /// for the interval policy to trigger another.
    pub(crate) fn flush_due(&self) -> bool {
        self.connects_since_flush >= self.cfg.coins_flush_interval
    }

    /// Appends a drained set of flush operations to the coins log and
    /// marks it with an `F` record; compacts the log first when it has
    /// bloated. A `Del` for an outpoint the log does not hold (a coin
    /// created and spent since the last flush) writes nothing.
    pub(crate) fn flush_coins(
        &mut self,
        ops: &[FlushOp],
        tip: BlockHash,
        height: u64,
    ) -> io::Result<()> {
        let replaced = self.maybe_compact()?;
        let mut framed = Vec::new();
        for op in ops {
            match op {
                FlushOp::Put(outpoint, entry) => {
                    let mut payload = Vec::with_capacity(70);
                    encode_outpoint(&mut payload, outpoint);
                    encode_utxo_entry(&mut payload, entry);
                    files::frame(&mut framed, KIND_PUT, &payload);
                    let len = payload.len() as u32;
                    if let Some(old) = self.coins_index.insert(*outpoint, len) {
                        self.coins_live_bytes -= old as u64;
                    }
                    self.coins_live_bytes += len as u64;
                }
                FlushOp::Del(outpoint) => {
                    let Some(old) = self.coins_index.remove(outpoint) else {
                        continue;
                    };
                    self.coins_live_bytes -= old as u64;
                    let mut payload = Vec::with_capacity(36);
                    encode_outpoint(&mut payload, outpoint);
                    files::frame(&mut framed, KIND_DEL, &payload);
                }
            }
        }
        let path = coins_path(&self.dir, self.coins_gen);
        self.coins_len = files::append(&path, &framed, self.cfg.fsync)?;
        self.stats.bytes_written += framed.len() as u64;
        self.append_coins_mark(tip, height)?;
        // The mark names the new generation: only now is the old one
        // garbage (a crash before it reopens from the old file).
        if let Some(old_path) = replaced {
            let _ = std::fs::remove_file(old_path);
        }
        self.stats.flush_total += 1;
        self.connects_since_flush = 0;
        Ok(())
    }

    /// Abandons the coins log entirely (reindex path): starts an empty
    /// new generation so the next flush writes the full rebuilt set.
    pub(crate) fn reset_coins(&mut self) -> io::Result<()> {
        let old = self.coins_gen;
        self.coins_gen += 1;
        self.coins_len = 0;
        self.coins_live_bytes = 0;
        self.coins_index.clear();
        let _ = std::fs::remove_file(coins_path(&self.dir, old));
        self.stats.reindex_total += 1;
        Ok(())
    }

    fn append_coins_mark(&mut self, tip: BlockHash, height: u64) -> io::Result<()> {
        let mut payload = Vec::with_capacity(4 + 8 + 32 + 8);
        payload.extend_from_slice(&self.coins_gen.to_le_bytes());
        payload.extend_from_slice(&self.coins_len.to_le_bytes());
        payload.extend_from_slice(&tip.0);
        payload.extend_from_slice(&height.to_le_bytes());
        let mut framed = Vec::new();
        files::frame(&mut framed, KIND_COINS_MARK, &payload);
        files::append(&self.dir.join("manifest.log"), &framed, self.cfg.fsync)?;
        self.stats.bytes_written += framed.len() as u64;
        Ok(())
    }

    /// Rewrites the coins log into a new generation containing only live
    /// entries, when dead records dominate the file. Returns the path of
    /// the replaced generation, which the caller deletes once an `F` mark
    /// names the new one.
    fn maybe_compact(&mut self) -> io::Result<Option<PathBuf>> {
        let framing = self.coins_index.len() as u64 * files::RECORD_HEADER;
        if self.coins_len < COMPACT_MIN_BYTES
            || self.coins_len < 3 * (self.coins_live_bytes + framing)
        {
            return Ok(None);
        }
        let old_path = coins_path(&self.dir, self.coins_gen);
        let (records, _) = files::read_valid_prefix(&old_path)?;
        let Some((entries, _, _)) = replay_coins(&records, self.coins_len) else {
            return Ok(None);
        };
        let mut live: Vec<(OutPoint, UtxoEntry)> = entries.into_iter().collect();
        live.sort_unstable_by_key(|(op, _)| *op);
        let mut framed = Vec::new();
        let mut index = IdMap::with_capacity_and_hasher(live.len(), Default::default());
        let mut live_bytes = 0u64;
        for (op, entry) in &live {
            let mut payload = Vec::with_capacity(70);
            encode_outpoint(&mut payload, op);
            encode_utxo_entry(&mut payload, entry);
            index.insert(*op, payload.len() as u32);
            live_bytes += payload.len() as u64;
            files::frame(&mut framed, KIND_PUT, &payload);
        }
        let new_gen = self.coins_gen + 1;
        let new_path = coins_path(&self.dir, new_gen);
        let _ = std::fs::remove_file(&new_path);
        let new_len = files::append(&new_path, &framed, self.cfg.fsync)?;
        self.stats.bytes_written += framed.len() as u64;
        self.coins_gen = new_gen;
        self.coins_len = new_len;
        self.coins_live_bytes = live_bytes;
        self.coins_index = index;
        self.stats.compact_total += 1;
        // The mark making the new generation authoritative is appended
        // by the flush that follows; until then reopen uses the old
        // generation, so it must outlive this call.
        Ok(Some(old_path))
    }
}

fn coins_path(dir: &Path, gen: u32) -> PathBuf {
    dir.join(format!("coins-{gen}.log"))
}

fn remove_coins_logs(dir: &Path, keep: Option<u32>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(gen) = name
            .strip_prefix("coins-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        if Some(gen) != keep {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Replays `P`/`D` records up to `limit` bytes into a live-entry map,
/// also building the record-length index and live-byte total. `None` if
/// a record fails to decode.
#[allow(clippy::type_complexity)]
fn replay_coins(
    records: &[files::Record],
    limit: u64,
) -> Option<(IdMap<OutPoint, UtxoEntry>, IdMap<OutPoint, u32>, u64)> {
    let mut entries = IdMap::default();
    let mut index = IdMap::default();
    let mut live_bytes = 0u64;
    let mut pos = 0u64;
    for rec in records {
        let end = pos + files::RECORD_HEADER + rec.payload.len() as u64;
        if end > limit {
            break;
        }
        pos = end;
        let mut r = Reader::new(&rec.payload);
        match rec.kind {
            KIND_PUT => {
                let op = decode_outpoint(&mut r).ok()?;
                let entry = decode_utxo_entry(&mut r).ok()?;
                r.finish().ok()?;
                let len = rec.payload.len() as u32;
                if let Some(old) = index.insert(op, len) {
                    live_bytes -= old as u64;
                }
                live_bytes += len as u64;
                entries.insert(op, entry);
            }
            KIND_DEL => {
                let op = decode_outpoint(&mut r).ok()?;
                r.finish().ok()?;
                if let Some(old) = index.remove(&op) {
                    live_bytes -= old as u64;
                }
                entries.remove(&op);
            }
            _ => return None,
        }
    }
    Some((entries, index, live_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{TxId, TxOut};
    use crate::{Chain, ChainParams};
    use bcwan_script::Script;

    /// A store directory removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("bcwan-compact-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn coin(i: u32) -> (OutPoint, UtxoEntry) {
        let mut txid = [0u8; 32];
        txid[..4].copy_from_slice(&i.to_le_bytes());
        let entry = UtxoEntry {
            output: TxOut {
                value: u64::from(i),
                script_pubkey: Script::new(),
            },
            height: 0,
            coinbase: false,
        };
        (
            OutPoint {
                txid: TxId(txid),
                vout: 0,
            },
            entry,
        )
    }

    fn put(i: u32) -> FlushOp {
        let (op, entry) = coin(i);
        FlushOp::Put(op, entry)
    }

    /// A store whose committed genesis block every coins mark names, its
    /// coins log churned until the next flush compacts it: eight coins
    /// stay live while each flush spends the previous flush's batch of a
    /// hundred and creates the next. Returns the store, the genesis hash
    /// and the live coins.
    fn churned_store(dir: &Path) -> (ChainStore, BlockHash, IdMap<OutPoint, UtxoEntry>) {
        let genesis = Chain::make_genesis(&ChainParams::fast_test(), &[]);
        let tip = genesis.hash();
        let mut store = ChainStore::create(dir, StoreConfig::default()).unwrap();
        store.append_block(&genesis).unwrap();
        store.commit(tip, 0).unwrap();
        store
            .flush_coins(&(0..8).map(put).collect::<Vec<_>>(), tip, 0)
            .unwrap();
        let due = |store: &ChainStore| {
            let framing = store.coins_index.len() as u64 * files::RECORD_HEADER;
            store.coins_len >= COMPACT_MIN_BYTES
                && store.coins_len >= 3 * (store.coins_live_bytes + framing)
        };
        let mut batch = 8..8;
        while !due(&store) {
            let next = batch.end..batch.end + 100;
            let mut ops: Vec<FlushOp> = batch.map(|i| FlushOp::Del(coin(i).0)).collect();
            ops.extend(next.clone().map(put));
            store.flush_coins(&ops, tip, 0).unwrap();
            batch = next;
        }
        assert_eq!(store.stats().compact_total, 0);
        (store, tip, (0..8).chain(batch).map(coin).collect())
    }

    /// What a reopen of `dir` recovers as the coins set, and whether the
    /// chain on top of it had to reindex.
    fn reopen(dir: &Path) -> (IdMap<OutPoint, UtxoEntry>, u64) {
        let (_, loaded) = ChainStore::open(dir, StoreConfig::default()).unwrap();
        let (_, _, entries) = loaded.coins.expect("a coins snapshot survives");
        let opened =
            Chain::open_store(ChainParams::fast_test(), dir, StoreConfig::default()).unwrap();
        let reindex_total = opened.chain.store_summary().unwrap().store.reindex_total;
        assert_eq!(opened.reindexed, reindex_total > 0);
        (entries, reindex_total)
    }

    #[test]
    fn compaction_rewrites_live_coins_and_deletes_the_old_generation_after_its_mark() {
        let dir = TempDir::new("flush");
        let (mut store, tip, live) = churned_store(&dir.0);
        let old_gen = store.coins_gen;
        store.flush_coins(&[], tip, 0).unwrap();
        assert_eq!(store.stats().compact_total, 1);
        assert_eq!(store.coins_gen, old_gen + 1);
        assert!(!coins_path(&dir.0, old_gen).exists());
        assert!(coins_path(&dir.0, old_gen + 1).exists());
        drop(store);
        assert_eq!(reopen(&dir.0), (live, 0));
    }

    #[test]
    fn a_crash_between_the_rewrite_and_its_mark_reopens_from_the_old_generation() {
        let dir = TempDir::new("crash");
        let (mut store, _, live) = churned_store(&dir.0);
        let old_gen = store.coins_gen;
        let replaced = store.maybe_compact().unwrap();
        assert_eq!(replaced, Some(coins_path(&dir.0, old_gen)));
        assert!(coins_path(&dir.0, old_gen + 1).exists());
        // The process dies here: no F record names the new generation.
        drop(store);
        assert!(coins_path(&dir.0, old_gen).exists());
        assert_eq!(reopen(&dir.0), (live, 0));
        // The unmarked generation is cleaned up on reopen.
        assert!(!coins_path(&dir.0, old_gen + 1).exists());
    }
}
