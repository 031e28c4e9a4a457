//! Transactions: the UTXO model, serialization, ids and signature hashes.

use crate::codec::push_script;
use bcwan_crypto::sha256d;
use bcwan_script::Script;
use std::fmt;

/// A transaction id: double-SHA256 of the serialized transaction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TxId(pub [u8; 32]);

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TxId({})", self)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Abbreviate like block explorers do.
        let hex = bcwan_crypto::hex::encode(&self.0);
        write!(f, "{}…{}", &hex[..8], &hex[56..])
    }
}

impl TxId {
    /// Full lowercase hex.
    pub fn to_hex(&self) -> String {
        bcwan_crypto::hex::encode(&self.0)
    }
}

/// A reference to a transaction output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OutPoint {
    /// The transaction holding the output.
    pub txid: TxId,
    /// The output index.
    pub vout: u32,
}

impl fmt::Display for OutPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.txid, self.vout)
    }
}

/// Sequence value that marks an input final (disables lock-time checks).
pub const SEQUENCE_FINAL: u32 = 0xffff_ffff;

/// A transaction input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxIn {
    /// The output being spent.
    pub prevout: OutPoint,
    /// The unlocking script.
    pub script_sig: Script,
    /// Sequence number; must be below [`SEQUENCE_FINAL`] for
    /// `OP_CHECKLOCKTIMEVERIFY` to be meaningful (BIP-65).
    pub sequence: u32,
}

impl TxIn {
    /// Whether this input is final.
    pub(crate) fn is_final(&self) -> bool {
        self.sequence == SEQUENCE_FINAL
    }
}

/// A transaction output: an amount locked by a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxOut {
    /// Amount in base units (the chain's native token).
    pub value: u64,
    /// The locking script.
    pub script_pubkey: Script,
}

/// A transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Format version.
    pub version: u32,
    /// Inputs (empty exactly for coinbase? no — coinbase has one null input).
    pub inputs: Vec<TxIn>,
    /// Outputs.
    pub outputs: Vec<TxOut>,
    /// Block height before which this transaction may not be mined
    /// (0 = always final). Interacts with `OP_CHECKLOCKTIMEVERIFY`.
    pub lock_time: u64,
}

/// Every transaction's id, in order.
pub(crate) fn txids_of(transactions: &[Transaction]) -> Vec<TxId> {
    transactions.iter().map(Transaction::txid).collect()
}

/// The null outpoint used by coinbase inputs.
pub(crate) fn null_outpoint() -> OutPoint {
    OutPoint {
        txid: TxId([0; 32]),
        vout: u32::MAX,
    }
}

impl Transaction {
    /// Builds a coinbase transaction paying `outputs`; `height` is mixed
    /// into the input script so coinbase txids are unique per block.
    pub fn coinbase(height: u64, extra: &[u8], outputs: Vec<TxOut>) -> Self {
        let mut tag = height.to_le_bytes().to_vec();
        tag.extend_from_slice(extra);
        Transaction {
            version: 1,
            inputs: vec![TxIn {
                prevout: null_outpoint(),
                script_sig: Script::builder().push(tag).build(),
                sequence: SEQUENCE_FINAL,
            }],
            outputs,
            lock_time: 0,
        }
    }

    /// Whether this is a coinbase transaction.
    pub fn is_coinbase(&self) -> bool {
        self.inputs.len() == 1 && self.inputs[0].prevout == null_outpoint()
    }

    /// Canonical byte serialization (hashing and size accounting).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size());
        self.serialize_into(&mut out);
        out
    }

    /// Appends [`Transaction::serialize`]'s bytes to `out` — for callers
    /// that lay several transactions into one buffer (a block's wire and
    /// store encodings).
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.inputs.len() as u32).to_le_bytes());
        for input in &self.inputs {
            out.extend_from_slice(&input.prevout.txid.0);
            out.extend_from_slice(&input.prevout.vout.to_le_bytes());
            push_script(out, &input.script_sig);
            out.extend_from_slice(&input.sequence.to_le_bytes());
        }
        out.extend_from_slice(&(self.outputs.len() as u32).to_le_bytes());
        for output in &self.outputs {
            out.extend_from_slice(&output.value.to_le_bytes());
            push_script(out, &output.script_pubkey);
        }
        out.extend_from_slice(&self.lock_time.to_le_bytes());
    }

    /// The transaction id.
    pub fn txid(&self) -> TxId {
        TxId(sha256d(&self.serialize()))
    }

    /// The transaction id and the serialized size, from one
    /// serialization — for callers that need both (block connect, pool
    /// admission) and would otherwise serialize twice.
    pub(crate) fn txid_and_size(&self) -> (TxId, usize) {
        let bytes = self.serialize();
        (TxId(sha256d(&bytes)), bytes.len())
    }

    /// Serialized size in bytes, counted field by field without
    /// serializing: version, two counts and lock time (20), then per
    /// input an outpoint, a length-prefixed script and a sequence, per
    /// output a value and a length-prefixed script.
    pub fn size(&self) -> usize {
        let inputs: usize = self
            .inputs
            .iter()
            .map(|input| 36 + 4 + input.script_sig.byte_len() + 4)
            .sum();
        let outputs: usize = self
            .outputs
            .iter()
            .map(|output| 8 + 4 + output.script_pubkey.byte_len())
            .sum();
        20 + inputs + outputs
    }

    /// Sum of output values; `None` if it passes `u64::MAX`.
    pub fn total_output(&self) -> Option<u64> {
        self.outputs
            .iter()
            .try_fold(0u64, |sum, o| sum.checked_add(o.value))
    }

    /// The SIGHASH_ALL signature hash for `input_index`.
    ///
    /// The hash commits to the whole transaction with every unlocking
    /// script blanked and the signed input's script slot holding the
    /// previous output's locking script — the classic Bitcoin scheme.
    ///
    /// # Panics
    ///
    /// Panics if `input_index` is out of range.
    pub fn sighash(&self, input_index: usize, prev_script_pubkey: &Script) -> [u8; 32] {
        assert!(input_index < self.inputs.len(), "input index out of range");
        let mut copy = self.clone();
        for (i, input) in copy.inputs.iter_mut().enumerate() {
            input.script_sig = if i == input_index {
                prev_script_pubkey.clone()
            } else {
                Script::new()
            };
        }
        // The transaction, then the input index and the hash type.
        let mut data = Vec::with_capacity(copy.size() + 5);
        copy.serialize_into(&mut data);
        data.extend_from_slice(&(input_index as u32).to_le_bytes());
        data.push(0x01); // SIGHASH_ALL
        sha256d(&data)
    }

    /// Whether the transaction is final at `height`: lock-time reached or
    /// all inputs final.
    pub(crate) fn is_final_at(&self, height: u64) -> bool {
        if self.lock_time == 0 || self.lock_time <= height {
            return true;
        }
        self.inputs.iter().all(TxIn::is_final)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcwan_script::Opcode;

    fn sample_tx() -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxIn {
                prevout: OutPoint {
                    txid: TxId([9; 32]),
                    vout: 1,
                },
                script_sig: Script::builder().push(vec![1, 2, 3]).build(),
                sequence: 0,
            }],
            outputs: vec![TxOut {
                value: 50,
                script_pubkey: Script::builder().op(Opcode::Dup).build(),
            }],
            lock_time: 0,
        }
    }

    #[test]
    fn txid_is_stable_and_sensitive() {
        let tx = sample_tx();
        assert_eq!(tx.txid(), tx.txid());
        let mut modified = tx.clone();
        modified.outputs[0].value = 51;
        assert_ne!(tx.txid(), modified.txid());
    }

    #[test]
    fn coinbase_detection() {
        let cb = Transaction::coinbase(
            5,
            b"miner-1",
            vec![TxOut {
                value: 100,
                script_pubkey: Script::new(),
            }],
        );
        assert!(cb.is_coinbase());
        assert!(!sample_tx().is_coinbase());
        // Unique per height.
        let cb2 = Transaction::coinbase(
            6,
            b"miner-1",
            vec![TxOut {
                value: 100,
                script_pubkey: Script::new(),
            }],
        );
        assert_ne!(cb.txid(), cb2.txid());
    }

    #[test]
    fn sighash_commits_to_outputs_and_index() {
        let tx = sample_tx();
        let spk = Script::builder().op(Opcode::CheckSig).build();
        let h1 = tx.sighash(0, &spk);
        let mut tx2 = tx.clone();
        tx2.outputs[0].value = 9999;
        assert_ne!(h1, tx2.sighash(0, &spk));
        // Different prev script → different hash.
        let other_spk = Script::builder().op(Opcode::Dup).build();
        assert_ne!(h1, tx.sighash(0, &other_spk));
    }

    #[test]
    fn sighash_ignores_existing_script_sigs() {
        let tx = sample_tx();
        let spk = Script::builder().op(Opcode::CheckSig).build();
        let mut resigned = tx.clone();
        resigned.inputs[0].script_sig = Script::builder().push(vec![9, 9]).build();
        assert_eq!(tx.sighash(0, &spk), resigned.sighash(0, &spk));
    }

    #[test]
    #[should_panic(expected = "input index out of range")]
    fn sighash_bad_index_panics() {
        sample_tx().sighash(7, &Script::new());
    }

    #[test]
    fn finality_rules() {
        let mut tx = sample_tx();
        assert!(tx.is_final_at(0), "lock_time 0 is always final");
        tx.lock_time = 100;
        assert!(!tx.is_final_at(99));
        assert!(tx.is_final_at(100));
        // Final sequences override lock time.
        tx.inputs[0].sequence = SEQUENCE_FINAL;
        assert!(tx.is_final_at(0));
    }

    #[test]
    fn totals_and_size() {
        let tx = sample_tx();
        assert_eq!(tx.total_output(), Some(50));
        assert_eq!(tx.size(), tx.serialize().len());
        let mut rich = tx.clone();
        rich.outputs.extend(tx.outputs.clone());
        rich.outputs[0].value = u64::MAX;
        assert_eq!(rich.total_output(), None, "past u64::MAX is no total");
    }

    /// The counted size equals the serialized length for every push
    /// encoding (empty, direct, PUSHDATA1, PUSHDATA2), any input and
    /// output counts, and a coinbase.
    #[test]
    fn counted_size_equals_serialized_length() {
        let mut tx = sample_tx();
        for (n, len) in [0usize, 1, 75, 76, 255, 256, 600].into_iter().enumerate() {
            let script = Script::builder()
                .push(vec![n as u8; len])
                .op(Opcode::Dup)
                .build();
            tx.inputs.push(TxIn {
                prevout: OutPoint {
                    txid: TxId([n as u8; 32]),
                    vout: n as u32,
                },
                script_sig: script.clone(),
                sequence: 7,
            });
            tx.outputs.push(TxOut {
                value: n as u64,
                script_pubkey: script,
            });
            assert_eq!(tx.size(), tx.serialize().len(), "push of {len} bytes");
            let mut out = vec![0xee];
            tx.serialize_into(&mut out);
            assert_eq!(out[1..], tx.serialize()[..]);
        }
        let coinbase = Transaction::coinbase(9, b"extra", vec![]);
        assert_eq!(coinbase.size(), coinbase.serialize().len());
    }

    #[test]
    fn txid_display_abbreviates() {
        let tx = sample_tx();
        let text = tx.txid().to_string();
        assert!(text.contains('…'));
        assert_eq!(tx.txid().to_hex().len(), 64);
    }
}
