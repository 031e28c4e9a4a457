//! Canonical binary decoding for chain types.
//!
//! [`Transaction::serialize`] and [`BlockHeader::serialize`] define the
//! chain's canonical byte layouts; this module is their inverse, shared
//! by every consumer that needs to read those bytes back — the overlay
//! wire codec in `bcwan::wire` and the persistent store in
//! [`crate::store`]. Keeping one decoder means a transaction that
//! round-trips through a block file or a TCP frame re-hashes to the
//! same txid it had when it was serialized.
//!
//! Decoding is total: any byte slice either yields a value or a
//! [`CodecError`] — never a panic, and never an allocation larger than
//! the input it was handed (counts are not trusted; every element read
//! is bounds-checked first).

use crate::block::{Block, BlockHash, BlockHeader};
use crate::tx::{OutPoint, Transaction, TxId, TxIn, TxOut};
use crate::utxo::{UndoData, UtxoEntry};
use bcwan_script::Script;
use std::fmt;

/// Why bytes did not decode into a chain value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    Truncated,
    /// Bytes were left over after a complete value.
    TrailingBytes(usize),
    /// An embedded script failed to parse.
    BadScript(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::BadScript(why) => write!(f, "embedded script invalid: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked cursor over the input. Every `take` verifies length
/// before touching (or allocating for) the bytes, so hostile length
/// prefixes cannot trigger oversized allocations.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// The next `n` bytes, advancing the cursor.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// An empty vector for the `count` items read next, each at least
    /// `min_len` encoded bytes: exact capacity for well-formed input (a
    /// decoded block is kept for the chain's lifetime, so push-growth
    /// slack would be too), and never more than the remaining bytes can
    /// hold, whatever the count claims.
    fn vec_for<T>(&self, count: u32, min_len: usize) -> Vec<T> {
        let fits = (self.bytes.len() - self.pos) / min_len;
        Vec::with_capacity((count as usize).min(fits))
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A raw 32-byte array (hashes).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 32 bytes remain.
    pub fn array32(&mut self) -> Result<[u8; 32], CodecError> {
        Ok(self.take(32)?.try_into().expect("32 bytes"))
    }

    /// A `u32`-length-prefixed byte vector.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the prefix overruns the input.
    pub fn vec(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// A `u32`-length-prefixed script.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] on overrun, [`CodecError::BadScript`]
    /// if the bytes are not a valid script.
    pub fn script(&mut self) -> Result<Script, CodecError> {
        let len = self.u32()? as usize;
        Script::from_bytes(self.take(len)?).map_err(|e| CodecError::BadScript(e.to_string()))
    }

    /// Asserts the input is fully consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] if anything remains.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

/// Appends a `u32`-length-prefixed byte slice.
pub fn push_vec(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Appends a `u32`-length-prefixed script, encoded in place: the bytes
/// [`push_vec`] would write for its [`Script::to_bytes`].
pub(crate) fn push_script(out: &mut Vec<u8>, script: &Script) {
    out.extend_from_slice(&(script.byte_len() as u32).to_le_bytes());
    script.encode_into(out);
}

/// Reads back [`Transaction::serialize`]'s layout, field by field.
///
/// # Errors
///
/// A [`CodecError`] for truncated or malformed input.
pub fn decode_transaction(r: &mut Reader<'_>) -> Result<Transaction, CodecError> {
    let version = r.u32()?;
    let input_count = r.u32()?;
    // Outpoint 36, script length 4, sequence 4.
    let mut inputs = r.vec_for(input_count, 44);
    for _ in 0..input_count {
        inputs.push(TxIn {
            prevout: decode_outpoint(r)?,
            script_sig: r.script()?,
            sequence: r.u32()?,
        });
    }
    let output_count = r.u32()?;
    // Value 8, script length 4.
    let mut outputs = r.vec_for(output_count, 12);
    for _ in 0..output_count {
        outputs.push(decode_txout(r)?);
    }
    let lock_time = r.u64()?;
    Ok(Transaction {
        version,
        inputs,
        outputs,
        lock_time,
    })
}

/// Reads back an 88-byte [`BlockHeader::serialize`] record.
///
/// # Errors
///
/// [`CodecError::Truncated`] if fewer than 88 bytes remain.
pub fn decode_header(r: &mut Reader<'_>) -> Result<BlockHeader, CodecError> {
    let header_bytes = r.take(88)?;
    Ok(BlockHeader {
        version: u32::from_le_bytes(header_bytes[0..4].try_into().expect("4 bytes")),
        prev_hash: BlockHash(header_bytes[4..36].try_into().expect("32 bytes")),
        merkle_root: header_bytes[36..68].try_into().expect("32 bytes"),
        time_us: u64::from_le_bytes(header_bytes[68..76].try_into().expect("8 bytes")),
        bits: u32::from_le_bytes(header_bytes[76..80].try_into().expect("4 bytes")),
        nonce: u64::from_le_bytes(header_bytes[80..88].try_into().expect("8 bytes")),
    })
}

/// Reads a whole block: 88-byte header, `u32` transaction count, then
/// each transaction in [`Transaction::serialize`] layout.
///
/// # Errors
///
/// A [`CodecError`] for truncated or malformed input.
pub fn decode_block(r: &mut Reader<'_>) -> Result<Block, CodecError> {
    let header = decode_header(r)?;
    let tx_count = r.u32()?;
    // Version 4, two counts 8, lock time 8.
    let mut transactions = r.vec_for(tx_count, 20);
    for _ in 0..tx_count {
        transactions.push(decode_transaction(r)?);
    }
    Ok(Block {
        header,
        transactions,
    })
}

/// Serializes a block in the layout [`decode_block`] reads back.
pub fn encode_block(block: &Block) -> Vec<u8> {
    let mut out = Vec::with_capacity(block.size());
    out.extend_from_slice(&block.header.serialize());
    out.extend_from_slice(&(block.transactions.len() as u32).to_le_bytes());
    for tx in &block.transactions {
        tx.serialize_into(&mut out);
    }
    out
}

/// Appends an outpoint: 32-byte txid, then `u32` vout.
pub(crate) fn encode_outpoint(out: &mut Vec<u8>, op: &OutPoint) {
    out.extend_from_slice(&op.txid.0);
    out.extend_from_slice(&op.vout.to_le_bytes());
}

/// Reads back [`encode_outpoint`]'s layout.
///
/// # Errors
///
/// [`CodecError::Truncated`] if fewer than 36 bytes remain.
pub(crate) fn decode_outpoint(r: &mut Reader<'_>) -> Result<OutPoint, CodecError> {
    Ok(OutPoint {
        txid: TxId(r.array32()?),
        vout: r.u32()?,
    })
}

fn decode_txout(r: &mut Reader<'_>) -> Result<TxOut, CodecError> {
    Ok(TxOut {
        value: r.u64()?,
        script_pubkey: r.script()?,
    })
}

/// Appends a UTXO entry: `u64` value, `u32`-prefixed script, `u64`
/// creation height, one coinbase flag byte.
pub(crate) fn encode_utxo_entry(out: &mut Vec<u8>, entry: &UtxoEntry) {
    out.extend_from_slice(&entry.output.value.to_le_bytes());
    push_script(out, &entry.output.script_pubkey);
    out.extend_from_slice(&entry.height.to_le_bytes());
    out.push(entry.coinbase as u8);
}

/// Reads back [`encode_utxo_entry`]'s layout.
///
/// # Errors
///
/// A [`CodecError`] for truncated or malformed input.
pub(crate) fn decode_utxo_entry(r: &mut Reader<'_>) -> Result<UtxoEntry, CodecError> {
    let output = decode_txout(r)?;
    let height = r.u64()?;
    let coinbase = r.u8()? != 0;
    Ok(UtxoEntry {
        output,
        height,
        coinbase,
    })
}

/// Serializes a block's undo data: `u32` spent-entry count, then per
/// entry an outpoint followed by the [`UtxoEntry`] it restores.
pub(crate) fn encode_undo(undo: &UndoData) -> Vec<u8> {
    let spent = undo.spent_entries();
    let mut out = Vec::with_capacity(4 + spent.len() * 64);
    out.extend_from_slice(&(spent.len() as u32).to_le_bytes());
    for (op, entry) in spent {
        encode_outpoint(&mut out, op);
        encode_utxo_entry(&mut out, entry);
    }
    out
}

/// Reads back [`encode_undo`]'s layout.
///
/// # Errors
///
/// A [`CodecError`] for truncated or malformed input.
pub(crate) fn decode_undo(r: &mut Reader<'_>) -> Result<UndoData, CodecError> {
    let count = r.u32()?;
    let mut spent = Vec::new();
    for _ in 0..count {
        let op = decode_outpoint(r)?;
        let entry = decode_utxo_entry(r)?;
        spent.push((op, entry));
    }
    Ok(UndoData::from_spent(spent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ChainParams;
    use crate::wallet::Wallet;
    use crate::Chain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_block() -> Block {
        let params = ChainParams::fast_test();
        let mut rng = StdRng::seed_from_u64(3);
        let wallet = Wallet::generate(&mut rng);
        Chain::make_genesis(&params, &[(wallet.address(), 25)])
    }

    #[test]
    fn block_round_trips_with_txids() {
        let block = sample_block();
        let bytes = encode_block(&block);
        let mut r = Reader::new(&bytes);
        let decoded = decode_block(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, block);
        assert_eq!(decoded.hash(), block.hash());
        assert_eq!(decoded.transactions[0].txid(), block.transactions[0].txid());
    }

    #[test]
    fn undo_round_trips() {
        let block = sample_block();
        let entry = UtxoEntry {
            output: block.transactions[0].outputs[0].clone(),
            height: 7,
            coinbase: true,
        };
        let op = OutPoint {
            txid: block.transactions[0].txid(),
            vout: 0,
        };
        let undo = UndoData::from_spent(vec![(op, entry)]);
        let bytes = encode_undo(&undo);
        let mut r = Reader::new(&bytes);
        let decoded = decode_undo(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded.spent_entries(), undo.spent_entries());
    }

    #[test]
    fn decoded_vectors_hold_no_slack_and_a_hostile_count_reserves_nothing() {
        let mut rng = StdRng::seed_from_u64(4);
        let payees: Vec<_> = (0..5)
            .map(|_| (Wallet::generate(&mut rng).address(), 25))
            .collect();
        let block = Chain::make_genesis(&ChainParams::fast_test(), &payees);
        let bytes = encode_block(&block);
        let decoded = decode_block(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(decoded, block);
        assert_eq!(decoded.transactions.capacity(), decoded.transactions.len());
        for tx in &decoded.transactions {
            assert_eq!(tx.inputs.capacity(), tx.inputs.len());
            assert_eq!(tx.outputs.capacity(), tx.outputs.len());
        }
        // 41 bytes left can hold two 20-byte transactions, whatever the
        // count says.
        let tail = [0u8; 41];
        let r = Reader::new(&tail);
        assert_eq!(r.vec_for::<Transaction>(u32::MAX, 20).capacity(), 2);
    }

    #[test]
    fn truncation_at_every_cut_errors_cleanly() {
        let block = sample_block();
        let bytes = encode_block(&block);
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                decode_block(&mut r).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
