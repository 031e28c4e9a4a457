//! Transaction and block validation rules, plus the validation fast path:
//! a shared signature cache and parallel per-block script verification.

use crate::block::{Block, BlockHash};
use crate::hashed::HashedTx;
use crate::params::ChainParams;
use crate::tx::{Transaction, TxId};
use crate::utxo::{BlockOverlay, UtxoEntry, UtxoError, UtxoSet, UtxoView};
use bcwan_crypto::ecdsa::{batch_verify, EcdsaPublicKey, Signature};
use bcwan_crypto::Sha256;
use bcwan_script::interpreter::{verify_spend, DeferringChecker, DigestChecker, ExecContext};
use bcwan_script::{Opcode, Script, ScriptError};
use bcwan_sim::metrics::Registry;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Why a transaction was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// No inputs or no outputs.
    Empty,
    /// Unexpected coinbase outside a block context.
    UnexpectedCoinbase,
    /// An input's referenced output is unknown or spent.
    MissingInput(crate::tx::OutPoint),
    /// The same output is spent twice within the transaction.
    DuplicateInput(crate::tx::OutPoint),
    /// Outputs exceed inputs.
    ValueOutOfRange {
        /// Sum of spent input values.
        input: u64,
        /// Sum of created output values.
        output: u64,
    },
    /// A coinbase output was spent before maturity.
    ImmatureCoinbase {
        /// Height the coinbase was created at.
        created: u64,
        /// Height of the attempted spend.
        spend: u64,
    },
    /// The transaction's lock time has not yet been reached.
    NotFinal {
        /// Transaction lock time.
        lock_time: u64,
        /// Current chain height.
        height: u64,
    },
    /// Script execution failed or evaluated false.
    ScriptFailed {
        /// The failing input index.
        input: usize,
        /// The underlying script error (`None` = clean false).
        error: Option<ScriptError>,
    },
    /// An OP_RETURN output carries a non-zero value (burns are banned to
    /// keep directory announcements free of accounting surprises).
    ValueInOpReturn,
    /// The transaction would create an output that is still unspent —
    /// it is byte-identical to an earlier transaction (in practice a
    /// replayed coinbase; the rule is Bitcoin's BIP-30).
    DuplicateOutput(crate::tx::OutPoint),
}

impl From<UtxoError> for TxError {
    fn from(e: UtxoError) -> Self {
        match e {
            UtxoError::MissingInput(op) => TxError::MissingInput(op),
            UtxoError::DuplicateOutput(op) => TxError::DuplicateOutput(op),
        }
    }
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::Empty => write!(f, "transaction has no inputs or outputs"),
            TxError::UnexpectedCoinbase => write!(f, "coinbase not allowed here"),
            TxError::MissingInput(op) => write!(f, "missing input {op}"),
            TxError::DuplicateInput(op) => write!(f, "duplicate input {op}"),
            TxError::ValueOutOfRange { input, output } => {
                write!(f, "outputs {output} exceed inputs {input}")
            }
            TxError::ImmatureCoinbase { created, spend } => {
                write!(f, "coinbase from height {created} spent at {spend}")
            }
            TxError::NotFinal { lock_time, height } => {
                write!(f, "lock time {lock_time} not reached at height {height}")
            }
            TxError::ScriptFailed { input, error } => match error {
                Some(e) => write!(f, "script failed on input {input}: {e}"),
                None => write!(f, "script evaluated false on input {input}"),
            },
            TxError::ValueInOpReturn => write!(f, "op_return output carries value"),
            TxError::DuplicateOutput(op) => write!(f, "output {op} already exists unspent"),
        }
    }
}

impl std::error::Error for TxError {}

/// Why a block was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// Block has no transactions.
    Empty,
    /// First transaction is not a coinbase, or a later one is.
    BadCoinbasePlacement,
    /// Header does not meet the required difficulty.
    InsufficientWork {
        /// Bits achieved by the header hash.
        achieved: u32,
        /// Bits required by consensus.
        required: u32,
    },
    /// Header difficulty field does not match consensus parameters.
    WrongBits {
        /// Bits claimed in the header.
        claimed: u32,
        /// Bits required by consensus.
        required: u32,
    },
    /// Merkle root mismatch.
    BadMerkleRoot,
    /// Serialized size exceeds the consensus limit.
    TooLarge {
        /// Serialized block size.
        size: usize,
        /// Consensus limit.
        limit: usize,
    },
    /// Coinbase pays more than subsidy + fees.
    ExcessiveCoinbase {
        /// Coinbase output total.
        paid: u64,
        /// Subsidy plus collected fees.
        allowed: u64,
    },
    /// A transaction in the block is invalid.
    BadTransaction {
        /// Index within the block.
        index: usize,
        /// The underlying error.
        error: TxError,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::Empty => write!(f, "block has no transactions"),
            BlockError::BadCoinbasePlacement => write!(f, "bad coinbase placement"),
            BlockError::InsufficientWork { achieved, required } => {
                write!(f, "pow {achieved} bits, need {required}")
            }
            BlockError::WrongBits { claimed, required } => {
                write!(
                    f,
                    "header claims {claimed} bits, consensus requires {required}"
                )
            }
            BlockError::BadMerkleRoot => write!(f, "merkle root mismatch"),
            BlockError::TooLarge { size, limit } => {
                write!(f, "block of {size} bytes exceeds {limit}")
            }
            BlockError::ExcessiveCoinbase { paid, allowed } => {
                write!(f, "coinbase pays {paid}, allowed {allowed}")
            }
            BlockError::BadTransaction { index, error } => {
                write!(f, "transaction {index} invalid: {error}")
            }
        }
    }
}

impl std::error::Error for BlockError {}

/// Above this input count the duplicate-input check switches from a linear
/// scan over prior inputs (no allocation) to a `HashSet`.
const DUP_LINEAR_MAX: usize = 32;

/// Which verifier dominates a spend, for [`SigCache`] accounting.
///
/// The cache itself is agnostic — a key is a key — but hits and misses are
/// counted per kind so the escrow paths are observable on their own
/// (`validate.sigcache.rsa.*` vs the ECDSA `validate.sigcache.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigKind {
    /// Ordinary ECDSA spends (P2PKH-style `OP_CHECKSIGVERIFY`).
    Ecdsa,
    /// Escrow spends whose locking script runs `OP_CHECKRSA512PAIR`
    /// (the paper's session-key reveal / CLTV refund branches).
    Rsa,
}

impl SigKind {
    /// Classifies a spend by its locking script: anything carrying the
    /// RSA pair-check opcode counts as an escrow verification.
    pub fn of(script_pubkey: &Script) -> Self {
        if script_pubkey.contains_op(Opcode::CheckRsa512Pair) {
            SigKind::Rsa
        } else {
            SigKind::Ecdsa
        }
    }
}

/// A shared cache of script verifications that already succeeded.
///
/// Keyed on `sha256(txid || input index || script_pubkey)`, so a lookup
/// hashes what admission already knows and the sighash is computed only
/// on a miss, when the script actually runs. The key covers every input
/// of [`verify_spend`]: the txid commits to all unlocking scripts, every
/// sequence (hence `input_final`), the lock time and the outputs — all
/// that the interpreter and the sighash read — the index picks the input,
/// and the spent script is in the key itself. A hit therefore means "this
/// exact interpreter input already returned true" (Bitcoin Core keys its
/// script-execution cache by wtxid for the same reason). Only
/// constructors that hash the body themselves ([`HashedTx`],
/// [`HashedBlock`](crate::hashed::HashedBlock) and the chain's own block
/// index) supply the txid. Mempool admission populates the cache;
/// `connect_block` then skips re-verifying the same spends.
///
/// Eviction is two-generation (as in Bitcoin Core's sigcache): when the
/// current generation fills half the capacity it becomes the previous
/// generation and a fresh one starts, so memory is bounded and recently
/// verified entries survive at least one rotation. Only *successful*
/// verifications are stored; failures always re-run.
#[derive(Debug)]
pub struct SigCache {
    inner: Mutex<SigCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    rsa_hits: AtomicU64,
    rsa_misses: AtomicU64,
}

#[derive(Debug)]
struct SigCacheInner {
    current: HashSet<[u8; 32]>,
    previous: HashSet<[u8; 32]>,
    /// Generation size: half the nominal capacity.
    half: usize,
}

impl SigCache {
    /// Default nominal capacity (entries across both generations).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a cache holding roughly `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        SigCache {
            inner: Mutex::new(SigCacheInner {
                current: HashSet::new(),
                previous: HashSet::new(),
                half: (capacity / 2).max(1),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rsa_hits: AtomicU64::new(0),
            rsa_misses: AtomicU64::new(0),
        }
    }

    /// The cache key for input `input_index` of transaction `txid`
    /// spending an output locked by `script_pubkey`.
    pub fn key(txid: &TxId, input_index: usize, script_pubkey: &Script) -> [u8; 32] {
        // Two fixed-width fields, then the script to the end: no
        // boundary can be confused, so no length prefix is needed.
        let mut hasher = Sha256::new();
        hasher.update(&txid.0);
        hasher.update(&(input_index as u64).to_le_bytes());
        hasher.update(&script_pubkey.to_bytes());
        hasher.finalize()
    }

    /// Whether this spend already verified successfully, counted against
    /// the counters for `kind`; a previous-generation hit is promoted to
    /// the current one.
    pub fn contains(&self, key: &[u8; 32], kind: SigKind) -> bool {
        let mut inner = self.lock();
        let found = if inner.current.contains(key) {
            true
        } else if inner.previous.contains(key) {
            Self::insert_locked(&mut inner, *key);
            true
        } else {
            false
        };
        drop(inner);
        let counter = match (kind, found) {
            (SigKind::Ecdsa, true) => &self.hits,
            (SigKind::Ecdsa, false) => &self.misses,
            (SigKind::Rsa, true) => &self.rsa_hits,
            (SigKind::Rsa, false) => &self.rsa_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Records a successful verification.
    pub fn insert(&self, key: [u8; 32]) {
        Self::insert_locked(&mut self.lock(), key);
    }

    fn insert_locked(inner: &mut SigCacheInner, key: [u8; 32]) {
        if inner.current.len() >= inner.half {
            inner.previous = std::mem::take(&mut inner.current);
        }
        inner.current.insert(key);
    }

    fn lock(&self) -> MutexGuard<'_, SigCacheInner> {
        // A panicking verifier thread can't leave the set inconsistent
        // (inserts are single HashSet ops), so poisoning is ignorable.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// ECDSA-classified lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// ECDSA-classified lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `OP_CHECKRSA512PAIR`-classified lookup hits so far.
    pub fn rsa_hits(&self) -> u64 {
        self.rsa_hits.load(Ordering::Relaxed)
    }

    /// `OP_CHECKRSA512PAIR`-classified lookup misses so far.
    pub fn rsa_misses(&self) -> u64 {
        self.rsa_misses.load(Ordering::Relaxed)
    }

    /// Entries currently cached (both generations).
    pub fn len(&self) -> usize {
        let inner = self.lock();
        inner.current.len() + inner.previous.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exports `validate.sigcache.hit|miss` (ECDSA spends) and
    /// `validate.sigcache.rsa.hit|miss` (escrow pair-check spends) into a
    /// metrics registry.
    pub fn export(&self, registry: &mut Registry) {
        registry.set_counter("validate.sigcache.hit", self.hits());
        registry.set_counter("validate.sigcache.miss", self.misses());
        registry.set_counter("validate.sigcache.rsa.hit", self.rsa_hits());
        registry.set_counter("validate.sigcache.rsa.miss", self.rsa_misses());
    }
}

impl Default for SigCache {
    fn default() -> Self {
        SigCache::new(Self::DEFAULT_CAPACITY)
    }
}

/// The structural (pre-script) half of transaction validation: structure,
/// finality, duplicate inputs, input existence, coinbase maturity and value
/// balance. Returns the fee plus one borrowed UTXO entry per input (in
/// input order) so script verification never re-queries the view.
fn validate_transaction_structure<'a, V: UtxoView>(
    tx: &Transaction,
    utxo: &'a V,
    height: u64,
    params: &ChainParams,
) -> Result<(u64, Vec<&'a UtxoEntry>), TxError> {
    if tx.inputs.is_empty() || tx.outputs.is_empty() {
        return Err(TxError::Empty);
    }
    if tx.is_coinbase() {
        return Err(TxError::UnexpectedCoinbase);
    }
    if !tx.is_final_at(height) {
        return Err(TxError::NotFinal {
            lock_time: tx.lock_time,
            height,
        });
    }
    for output in &tx.outputs {
        if output.script_pubkey.is_op_return() && output.value != 0 {
            return Err(TxError::ValueInOpReturn);
        }
    }

    // Duplicate detection: typical transactions have a handful of inputs,
    // where a linear scan beats allocating and hashing into a set.
    let mut seen =
        (tx.inputs.len() > DUP_LINEAR_MAX).then(|| HashSet::with_capacity(tx.inputs.len()));
    let mut entries = Vec::with_capacity(tx.inputs.len());
    let mut input_value: u64 = 0;
    for (i, input) in tx.inputs.iter().enumerate() {
        let duplicate = match &mut seen {
            Some(set) => !set.insert(input.prevout),
            None => tx.inputs[..i].iter().any(|p| p.prevout == input.prevout),
        };
        if duplicate {
            return Err(TxError::DuplicateInput(input.prevout));
        }
        let entry = utxo
            .view_get(&input.prevout)
            .ok_or(TxError::MissingInput(input.prevout))?;
        if entry.coinbase && height < entry.height + params.coinbase_maturity {
            return Err(TxError::ImmatureCoinbase {
                created: entry.height,
                spend: height,
            });
        }
        input_value += entry.output.value;
        entries.push(entry);
    }
    let output_value = tx.total_output();
    if output_value > input_value {
        return Err(TxError::ValueOutOfRange {
            input: input_value,
            output: output_value,
        });
    }
    Ok((input_value - output_value, entries))
}

/// Verifies every input's script of a structurally valid `tx`,
/// consulting and populating the memo when one comes with the
/// transaction's id.
fn verify_inputs(
    tx: &Transaction,
    entries: &[&UtxoEntry],
    memo: Option<(&SigCache, TxId)>,
) -> Result<(), TxError> {
    for (i, (input, entry)) in tx.inputs.iter().zip(entries).enumerate() {
        let script_pubkey = &entry.output.script_pubkey;
        let key = memo.map(|(cache, txid)| (cache, SigCache::key(&txid, i, script_pubkey)));
        if let Some((cache, key)) = &key {
            if cache.contains(key, SigKind::of(script_pubkey)) {
                continue;
            }
        }
        let checker = DigestChecker {
            digest: tx.sighash(i, script_pubkey),
        };
        let ctx = ExecContext {
            checker: &checker,
            lock_time: tx.lock_time,
            input_final: input.is_final(),
        };
        match verify_spend(&input.script_sig, script_pubkey, &ctx) {
            Ok(true) => {
                if let Some((cache, key)) = key {
                    cache.insert(key);
                }
            }
            Ok(false) => {
                return Err(TxError::ScriptFailed {
                    input: i,
                    error: None,
                })
            }
            Err(e) => {
                return Err(TxError::ScriptFailed {
                    input: i,
                    error: Some(e),
                })
            }
        }
    }
    Ok(())
}

/// Validates a non-coinbase transaction against the UTXO set at `height`
/// and returns its fee.
///
/// Checks: structure, finality, input existence, coinbase maturity, value
/// balance, and full script verification on every input.
///
/// # Errors
///
/// The specific [`TxError`].
pub fn validate_transaction<V: UtxoView>(
    tx: &Transaction,
    utxo: &V,
    height: u64,
    params: &ChainParams,
) -> Result<u64, TxError> {
    let (fee, entries) = validate_transaction_structure(tx, utxo, height, params)?;
    verify_inputs(tx, &entries, None)?;
    Ok(fee)
}

/// [`validate_transaction`] with a shared [`SigCache`]: spends whose
/// exact `(txid, input, script_pubkey)` already verified are accepted
/// without computing a sighash or running the interpreter, and fresh
/// successes are recorded.
///
/// # Errors
///
/// The specific [`TxError`].
pub fn validate_transaction_cached<V: UtxoView>(
    tx: &HashedTx,
    utxo: &V,
    height: u64,
    params: &ChainParams,
    cache: Option<&SigCache>,
) -> Result<u64, TxError> {
    let (fee, entries) = validate_transaction_structure(tx, utxo, height, params)?;
    verify_inputs(tx, &entries, cache.map(|cache| (cache, tx.txid())))?;
    Ok(fee)
}

/// Tuning for [`validate_block_with`].
#[derive(Debug, Clone, Copy)]
pub struct BlockValidationOptions<'a> {
    /// Shared signature cache consulted before (and populated after) each
    /// script run. `None` disables caching.
    pub cache: Option<&'a SigCache>,
    /// Script-verification worker threads: `0` picks one per available
    /// CPU, `1` forces the sequential path.
    pub workers: usize,
    /// Verify cache-miss ECDSA spends with randomized batch verification
    /// (one multi-scalar multiplication per [`BATCH_CHUNK`] of jobs)
    /// instead of one-at-a-time. Semantically identical to per-signature
    /// verification: any batch failure falls back to sequential re-runs,
    /// so the accept/reject decision and the reported error never change.
    pub batch: bool,
}

impl Default for BlockValidationOptions<'_> {
    fn default() -> Self {
        BlockValidationOptions {
            cache: None,
            workers: 0,
            batch: true,
        }
    }
}

/// One input's script verification, detached from the rolling UTXO view:
/// everything the interpreter needs is snapshotted (digest computed, both
/// scripts cloned) so jobs can run on any thread in any order. Only a
/// memo miss becomes a job.
struct ScriptJob {
    tx_index: usize,
    input_index: usize,
    digest: [u8; 32],
    script_sig: Script,
    script_pubkey: Script,
    lock_time: u64,
    input_final: bool,
    /// Precomputed cache key (present iff a cache is configured).
    key: Option<[u8; 32]>,
}

/// Runs one snapshotted job; inserts the key into `cache` on success.
fn run_script_job(job: &ScriptJob, cache: Option<&SigCache>) -> Result<(), TxError> {
    let checker = DigestChecker { digest: job.digest };
    let ctx = ExecContext {
        checker: &checker,
        lock_time: job.lock_time,
        input_final: job.input_final,
    };
    match verify_spend(&job.script_sig, &job.script_pubkey, &ctx) {
        Ok(true) => {
            if let (Some(cache), Some(key)) = (cache, job.key.as_ref()) {
                cache.insert(*key);
            }
            Ok(())
        }
        Ok(false) => Err(TxError::ScriptFailed {
            input: job.input_index,
            error: None,
        }),
        Err(e) => Err(TxError::ScriptFailed {
            input: job.input_index,
            error: Some(e),
        }),
    }
}

/// Jobs per batch-verification chunk. Workers claim contiguous chunks of
/// this many jobs (`next.fetch_add(BATCH_CHUNK)`), so chunk boundaries —
/// and therefore the exact batches handed to [`batch_verify`] — depend
/// only on job order, never on thread count or scheduling. Four of the
/// verifier's 8-signature sub-batches fit in one chunk.
pub const BATCH_CHUNK: usize = 32;

/// Runs one chunk of jobs through the batch-verification fast path,
/// appending any failures as `(tx_index, input_index, error)`.
///
/// Each job first executes with a [`DeferringChecker`]: parseable ECDSA
/// `(pubkey, signature)` pairs are recorded and assumed valid, malformed
/// ones are rejected exactly. Three outcomes per job:
///
/// - passed with nothing recorded — the run was exact; done;
/// - passed with recorded pairs — the verdict is conditional on those
///   signatures, which go into one chunk-wide [`batch_verify`] call;
/// - failed with nothing recorded — the failure is exact; reported;
/// - anything else (failed with recorded pairs, or the chunk's batch
///   rejected) — re-run sequentially with a real checker, because an
///   optimistic `true` may have steered execution down a branch the real
///   verdict wouldn't take.
///
/// The fallback makes the path semantically identical to per-signature
/// verification: same accept/reject per spend, same error. Only the cost
/// changes — on clean blocks (the overwhelming case) one multi-scalar
/// multiplication replaces up to [`BATCH_CHUNK`] double-scalar ones.
fn run_chunk_batched(
    chunk: &[ScriptJob],
    cache: Option<&SigCache>,
    failures: &mut Vec<(usize, usize, TxError)>,
) {
    // Optimistic pass: (chunk-local job index, recorded pairs).
    let mut deferred: Vec<(usize, Vec<(EcdsaPublicKey, Signature)>)> = Vec::new();
    let mut rerun: Vec<usize> = Vec::new();
    for (j, job) in chunk.iter().enumerate() {
        let checker = DeferringChecker::new();
        let ctx = ExecContext {
            checker: &checker,
            lock_time: job.lock_time,
            input_final: job.input_final,
        };
        let result = verify_spend(&job.script_sig, &job.script_pubkey, &ctx);
        let recorded = checker.into_recorded();
        match result {
            Ok(true) if recorded.is_empty() => {
                if let (Some(cache), Some(key)) = (cache, job.key.as_ref()) {
                    cache.insert(*key);
                }
            }
            Ok(true) => deferred.push((j, recorded)),
            Ok(false) if recorded.is_empty() => {
                failures.push((
                    job.tx_index,
                    job.input_index,
                    TxError::ScriptFailed {
                        input: job.input_index,
                        error: None,
                    },
                ));
            }
            Err(e) if recorded.is_empty() => {
                failures.push((
                    job.tx_index,
                    job.input_index,
                    TxError::ScriptFailed {
                        input: job.input_index,
                        error: Some(e),
                    },
                ));
            }
            Ok(false) | Err(_) => rerun.push(j),
        }
    }
    // One batch over every conditional pass in the chunk.
    if !deferred.is_empty() {
        let items: Vec<(&[u8; 32], &Signature, &EcdsaPublicKey)> = deferred
            .iter()
            .flat_map(|(j, recorded)| {
                recorded
                    .iter()
                    .map(move |(pk, sig)| (&chunk[*j].digest, sig, pk))
            })
            .collect();
        match batch_verify(&items) {
            Ok(()) => {
                // Every deferred signature is individually valid, so each
                // optimistic run was identical to a real one: all pass.
                for (j, _) in &deferred {
                    if let (Some(cache), Some(key)) = (cache, chunk[*j].key.as_ref()) {
                        cache.insert(*key);
                    }
                }
            }
            // Some signature in the chunk is bad. Re-run every deferred
            // job with a real checker for exact per-job verdicts (rare:
            // this only triggers on invalid blocks).
            Err(_) => rerun.extend(deferred.iter().map(|(j, _)| *j)),
        }
    }
    rerun.sort_unstable();
    for j in rerun {
        let job = &chunk[j];
        if let Err(error) = run_script_job(job, cache) {
            failures.push((job.tx_index, job.input_index, error));
        }
    }
}

/// Runs the collected script jobs and returns the positionally-first
/// failure as `(tx_index, error)`, or `None` if all verified.
///
/// The parallel path never aborts early: every job runs, all failures are
/// collected, and the one with the smallest `(tx_index, input_index)` is
/// reported — exactly what the sequential path (jobs are in that order)
/// returns — so the accept/reject decision and the reported error are
/// independent of thread count and scheduling. With `opts.batch` set the
/// jobs are processed in fixed [`BATCH_CHUNK`]-sized chunks through
/// [`run_chunk_batched`]; chunk boundaries depend only on job order, so
/// the batches (and thus every verification outcome) are deterministic
/// too.
fn run_script_jobs(
    jobs: &[ScriptJob],
    opts: &BlockValidationOptions<'_>,
) -> Option<(usize, TxError)> {
    if jobs.is_empty() {
        return None;
    }
    let workers = match opts.workers {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        w => w,
    }
    .min(jobs.len());
    if workers <= 1 {
        if opts.batch {
            let mut failures = Vec::new();
            for chunk in jobs.chunks(BATCH_CHUNK) {
                run_chunk_batched(chunk, opts.cache, &mut failures);
                if !failures.is_empty() {
                    break; // chunks are in job order: the min is in here
                }
            }
            return failures
                .into_iter()
                .min_by_key(|(tx, input, _)| (*tx, *input))
                .map(|(tx, _, error)| (tx, error));
        }
        for job in jobs {
            if let Err(error) = run_script_job(job, opts.cache) {
                return Some((job.tx_index, error));
            }
        }
        return None;
    }
    let next = AtomicUsize::new(0);
    let failures: Mutex<Vec<(usize, usize, TxError)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                if opts.batch {
                    loop {
                        let base = next.fetch_add(BATCH_CHUNK, Ordering::Relaxed);
                        if base >= jobs.len() {
                            break;
                        }
                        let end = (base + BATCH_CHUNK).min(jobs.len());
                        let mut local = Vec::new();
                        run_chunk_batched(&jobs[base..end], opts.cache, &mut local);
                        if !local.is_empty() {
                            failures
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .extend(local);
                        }
                    }
                } else {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        if let Err(error) = run_script_job(job, opts.cache) {
                            failures
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push((job.tx_index, job.input_index, error));
                        }
                    }
                }
            });
        }
    });
    failures
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .min_by_key(|(tx, input, _)| (*tx, *input))
        .map(|(tx, _, error)| (tx, error))
}

/// Validates a block body against the UTXO state at `height` (the height
/// this block would occupy). Header linkage is the chain's job; this
/// checks PoW, merkle, size, coinbase rules and every transaction.
///
/// Equivalent to [`validate_block_with`] under default options (no cache,
/// auto-sized worker pool).
///
/// # Errors
///
/// The specific [`BlockError`].
pub fn validate_block(
    block: &Block,
    utxo: &UtxoSet,
    height: u64,
    params: &ChainParams,
) -> Result<(), BlockError> {
    validate_block_with(
        block,
        utxo,
        height,
        params,
        &BlockValidationOptions::default(),
    )
}

/// [`validate_block`] with explicit fast-path options.
///
/// Validation runs in two passes. The sequential pass walks transactions in
/// order against a borrow-only overlay of `utxo` (so intra-block chains
/// work and the set is never copied), performs every context-dependent
/// check, and snapshots each input's script job — sighash digest plus both
/// scripts — before the overlay moves on. Jobs whose cache key is already
/// present (verified at mempool admission) are dropped on the spot. The
/// remaining context-free script runs then execute on a
/// `std::thread::scope` worker pool (or inline when `workers == 1`).
///
/// A structural failure at transaction `s` stops job collection at `s`, so
/// any script failure that surfaces is at an index `< s` and positionally
/// precedes it; the reported error is therefore identical to fully
/// sequential validation.
///
/// # Errors
///
/// The specific [`BlockError`].
pub fn validate_block_with(
    block: &Block,
    utxo: &UtxoSet,
    height: u64,
    params: &ChainParams,
    opts: &BlockValidationOptions<'_>,
) -> Result<(), BlockError> {
    let (txids, size) = block.txids_and_size();
    let digests = Digests::of(block, &txids, size);
    validate_block_digests(block, &digests, utxo, height, params, opts)
}

/// What block validation reads off a block besides its body: computed
/// once per body — by [`HashedBlock::new`](crate::HashedBlock::new), or
/// on a stored block's first connect — however many chains validate it.
pub(crate) struct Digests<'a> {
    /// The header's hash, for the proof-of-work check.
    pub(crate) hash: BlockHash,
    /// Every transaction's id, in block order.
    pub(crate) txids: &'a [TxId],
    /// The serialized size.
    pub(crate) size: usize,
    /// Whether the header's merkle root commits to `txids`
    /// ([`BlockHeader::commits_to`](crate::BlockHeader::commits_to)).
    pub(crate) merkle_ok: bool,
}

impl<'a> Digests<'a> {
    /// Hashes the header and builds the merkle tree over `txids`.
    fn of(block: &Block, txids: &'a [TxId], size: usize) -> Self {
        Digests {
            hash: block.hash(),
            txids,
            size,
            merkle_ok: block.header.commits_to(txids),
        }
    }
}

/// [`validate_block_with`] for a caller that already holds the block's
/// [`Digests`]: the chain reuses the ones its block arrived with.
pub(crate) fn validate_block_digests(
    block: &Block,
    digests: &Digests<'_>,
    utxo: &UtxoSet,
    height: u64,
    params: &ChainParams,
    opts: &BlockValidationOptions<'_>,
) -> Result<(), BlockError> {
    check_block_context_free(block, digests, params)?;
    let txids = digests.txids;

    // Sequential pass: context-dependent checks against a rolling view so
    // intra-block chains (tx B spends tx A's output) work, snapshotting
    // script jobs before each apply. The coinbase goes through the view
    // too: its outputs must not collide with unspent ones.
    let mut view = BlockOverlay::new(utxo);
    if let Err(e) = view.apply(&block.transactions[0], txids[0], height) {
        return Err(BlockError::BadTransaction {
            index: 0,
            error: e.into(),
        });
    }
    let mut fees: u64 = 0;
    let mut jobs: Vec<ScriptJob> = Vec::new();
    let mut structural_failure: Option<(usize, TxError)> = None;
    for (index, tx) in block.transactions.iter().enumerate().skip(1) {
        let applied = validate_transaction_structure(tx, &view, height, params)
            .map(|(fee, entries)| {
                fees += fee;
                collect_script_jobs(tx, txids[index], index, &entries, opts.cache, &mut jobs);
            })
            .and_then(|()| Ok(view.apply(tx, txids[index], height)?));
        if let Err(error) = applied {
            structural_failure = Some((index, error));
            break;
        }
    }

    if let Some((index, error)) = run_script_jobs(&jobs, opts) {
        return Err(BlockError::BadTransaction { index, error });
    }
    if let Some((index, error)) = structural_failure {
        return Err(BlockError::BadTransaction { index, error });
    }

    let allowed = params.coinbase_reward + fees;
    let paid = block.transactions[0].total_output();
    if paid > allowed {
        return Err(BlockError::ExcessiveCoinbase { paid, allowed });
    }
    Ok(())
}

/// The checks that need no UTXO state: non-empty, difficulty, proof of
/// work, merkle root, size, coinbase placement — in that order.
fn check_block_context_free(
    block: &Block,
    digests: &Digests<'_>,
    params: &ChainParams,
) -> Result<(), BlockError> {
    if block.transactions.is_empty() {
        return Err(BlockError::Empty);
    }
    if block.header.bits != params.difficulty_bits {
        return Err(BlockError::WrongBits {
            claimed: block.header.bits,
            required: params.difficulty_bits,
        });
    }
    let achieved = digests.hash.leading_zero_bits();
    if achieved < params.difficulty_bits {
        return Err(BlockError::InsufficientWork {
            achieved,
            required: params.difficulty_bits,
        });
    }
    if !digests.merkle_ok {
        return Err(BlockError::BadMerkleRoot);
    }
    if digests.size > params.max_block_size {
        return Err(BlockError::TooLarge {
            size: digests.size,
            limit: params.max_block_size,
        });
    }
    if !block.transactions[0].is_coinbase() {
        return Err(BlockError::BadCoinbasePlacement);
    }
    if block.transactions[1..].iter().any(Transaction::is_coinbase) {
        return Err(BlockError::BadCoinbasePlacement);
    }
    Ok(())
}

/// Snapshots one structurally valid transaction's script jobs, skipping
/// spends the cache already holds (verified at mempool admission) before
/// any sighash is computed.
fn collect_script_jobs(
    tx: &Transaction,
    txid: TxId,
    tx_index: usize,
    entries: &[&UtxoEntry],
    cache: Option<&SigCache>,
    jobs: &mut Vec<ScriptJob>,
) {
    for (i, (input, entry)) in tx.inputs.iter().zip(entries).enumerate() {
        let script_pubkey = &entry.output.script_pubkey;
        let key = cache.map(|_| SigCache::key(&txid, i, script_pubkey));
        if let (Some(cache), Some(key)) = (cache, key.as_ref()) {
            if cache.contains(key, SigKind::of(script_pubkey)) {
                continue;
            }
        }
        jobs.push(ScriptJob {
            tx_index,
            input_index: i,
            digest: tx.sighash(i, script_pubkey),
            script_sig: input.script_sig.clone(),
            script_pubkey: script_pubkey.clone(),
            lock_time: tx.lock_time,
            input_final: input.is_final(),
            key,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockHash};
    use crate::tx::{OutPoint, TxIn, TxOut};
    use crate::wallet::Wallet;
    use bcwan_script::Script;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        params: ChainParams,
        utxo: UtxoSet,
        wallet: Wallet,
        coin: OutPoint,
        coin_script: Script,
    }

    /// UTXO with one mature 1000-value coin owned by `wallet`.
    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(42);
        let params = ChainParams::fast_test();
        let wallet = Wallet::generate(&mut rng);
        let cb = Transaction::coinbase(
            0,
            b"f",
            vec![TxOut {
                value: 1000,
                script_pubkey: wallet.locking_script(),
            }],
        );
        let mut utxo = UtxoSet::new();
        utxo.apply_block(std::slice::from_ref(&cb), 0).unwrap();
        Fixture {
            params,
            utxo,
            coin: OutPoint {
                txid: cb.txid(),
                vout: 0,
            },
            coin_script: wallet.locking_script(),
            wallet,
        }
    }

    fn spend_height(f: &Fixture) -> u64 {
        f.params.coinbase_maturity // first height the coin is mature
    }

    #[test]
    fn sigcache_counts_rsa_escrow_lookups_separately() {
        let mut rng = StdRng::seed_from_u64(7);
        let (epk, _esk) =
            bcwan_crypto::generate_keypair(&mut rng, bcwan_crypto::RsaKeySize::Rsa512);
        let escrow =
            bcwan_script::templates::ephemeral_key_release(&epk, &[1u8; 20], &[2u8; 20], 100);
        let p2pkh = bcwan_script::templates::p2pkh(&[3u8; 20]);
        assert_eq!(SigKind::of(&escrow), SigKind::Rsa);
        assert_eq!(SigKind::of(&p2pkh), SigKind::Ecdsa);

        let cache = SigCache::default();
        let txid = TxId([9u8; 32]);
        let rsa_key = SigCache::key(&txid, 0, &escrow);
        let ecdsa_key = SigCache::key(&txid, 0, &p2pkh);
        // Miss, insert, hit — per kind, without cross-talk.
        assert!(!cache.contains(&rsa_key, SigKind::of(&escrow)));
        cache.insert(rsa_key);
        assert!(cache.contains(&rsa_key, SigKind::of(&escrow)));
        assert!(!cache.contains(&ecdsa_key, SigKind::of(&p2pkh)));
        assert_eq!((cache.rsa_hits(), cache.rsa_misses()), (1, 1));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let mut registry = Registry::new();
        cache.export(&mut registry);
        let counters: std::collections::HashMap<_, _> =
            registry.snapshot().counters.into_iter().collect();
        assert_eq!(counters["validate.sigcache.rsa.hit"], 1);
        assert_eq!(counters["validate.sigcache.rsa.miss"], 1);
        assert_eq!(counters["validate.sigcache.hit"], 0);
        assert_eq!(counters["validate.sigcache.miss"], 1);
    }

    #[test]
    fn valid_spend_passes_and_reports_fee() {
        let f = fixture();
        let tx = f.wallet.build_payment(
            vec![(f.coin, f.coin_script.clone())],
            vec![TxOut {
                value: 990,
                script_pubkey: Script::new(),
            }],
            0,
        );
        let fee = validate_transaction(&tx, &f.utxo, spend_height(&f), &f.params).unwrap();
        assert_eq!(fee, 10);
    }

    #[test]
    fn immature_coinbase_rejected() {
        let f = fixture();
        let tx = f.wallet.build_payment(
            vec![(f.coin, f.coin_script.clone())],
            vec![TxOut {
                value: 1000,
                script_pubkey: Script::new(),
            }],
            0,
        );
        let err = validate_transaction(&tx, &f.utxo, 1, &f.params).unwrap_err();
        assert!(matches!(
            err,
            TxError::ImmatureCoinbase {
                created: 0,
                spend: 1
            }
        ));
    }

    #[test]
    fn overspend_rejected() {
        let f = fixture();
        let tx = f.wallet.build_payment(
            vec![(f.coin, f.coin_script.clone())],
            vec![TxOut {
                value: 2000,
                script_pubkey: Script::new(),
            }],
            0,
        );
        assert!(matches!(
            validate_transaction(&tx, &f.utxo, spend_height(&f), &f.params),
            Err(TxError::ValueOutOfRange {
                input: 1000,
                output: 2000
            })
        ));
    }

    #[test]
    fn missing_input_rejected() {
        let f = fixture();
        let ghost = OutPoint {
            txid: crate::tx::TxId([9; 32]),
            vout: 0,
        };
        let tx = f.wallet.build_payment(
            vec![(ghost, f.coin_script.clone())],
            vec![TxOut {
                value: 1,
                script_pubkey: Script::new(),
            }],
            0,
        );
        assert!(matches!(
            validate_transaction(&tx, &f.utxo, spend_height(&f), &f.params),
            Err(TxError::MissingInput(_))
        ));
    }

    #[test]
    fn wrong_signature_rejected() {
        let mut rng = StdRng::seed_from_u64(99);
        let f = fixture();
        let thief = Wallet::generate(&mut rng);
        let tx = thief.build_payment(
            vec![(f.coin, f.coin_script.clone())],
            vec![TxOut {
                value: 1000,
                script_pubkey: Script::new(),
            }],
            0,
        );
        assert!(matches!(
            validate_transaction(&tx, &f.utxo, spend_height(&f), &f.params),
            Err(TxError::ScriptFailed { input: 0, .. })
        ));
    }

    #[test]
    fn non_final_transaction_rejected() {
        let f = fixture();
        let tx = f.wallet.build_payment(
            vec![(f.coin, f.coin_script.clone())],
            vec![TxOut {
                value: 1000,
                script_pubkey: Script::new(),
            }],
            1_000, // lock_time in the future
        );
        assert!(matches!(
            validate_transaction(&tx, &f.utxo, spend_height(&f), &f.params),
            Err(TxError::NotFinal {
                lock_time: 1000,
                ..
            })
        ));
    }

    #[test]
    fn duplicate_input_rejected() {
        let f = fixture();
        let mut tx = f.wallet.build_payment(
            vec![
                (f.coin, f.coin_script.clone()),
                (f.coin, f.coin_script.clone()),
            ],
            vec![TxOut {
                value: 100,
                script_pubkey: Script::new(),
            }],
            0,
        );
        // keep both inputs identical
        tx.inputs[1] = TxIn {
            prevout: f.coin,
            script_sig: tx.inputs[0].script_sig.clone(),
            sequence: 0,
        };
        assert!(matches!(
            validate_transaction(&tx, &f.utxo, spend_height(&f), &f.params),
            Err(TxError::DuplicateInput(_))
        ));
    }

    #[test]
    fn op_return_with_value_rejected() {
        let f = fixture();
        let tx = f.wallet.build_payment(
            vec![(f.coin, f.coin_script.clone())],
            vec![TxOut {
                value: 5,
                script_pubkey: bcwan_script::templates::op_return(b"data"),
            }],
            0,
        );
        assert!(matches!(
            validate_transaction(&tx, &f.utxo, spend_height(&f), &f.params),
            Err(TxError::ValueInOpReturn)
        ));
    }

    #[test]
    fn valid_block_accepted() {
        let f = fixture();
        let height = spend_height(&f);
        let spend = f.wallet.build_payment(
            vec![(f.coin, f.coin_script.clone())],
            vec![TxOut {
                value: 980,
                script_pubkey: Script::new(),
            }],
            0,
        );
        let cb = Transaction::coinbase(
            height,
            b"miner",
            vec![TxOut {
                value: f.params.coinbase_reward + 20,
                script_pubkey: Script::new(),
            }],
        );
        let block = Block::mine(
            BlockHash::GENESIS_PREV,
            0,
            f.params.difficulty_bits,
            vec![cb, spend],
        );
        assert_eq!(validate_block(&block, &f.utxo, height, &f.params), Ok(()));
    }

    #[test]
    fn coinbase_overpay_rejected() {
        let f = fixture();
        let height = spend_height(&f);
        let cb = Transaction::coinbase(
            height,
            b"miner",
            vec![TxOut {
                value: f.params.coinbase_reward + 1, // no fees collected
                script_pubkey: Script::new(),
            }],
        );
        let block = Block::mine(
            BlockHash::GENESIS_PREV,
            0,
            f.params.difficulty_bits,
            vec![cb],
        );
        assert!(matches!(
            validate_block(&block, &f.utxo, height, &f.params),
            Err(BlockError::ExcessiveCoinbase { .. })
        ));
    }

    #[test]
    fn wrong_difficulty_rejected() {
        let f = fixture();
        let cb = Transaction::coinbase(
            0,
            b"m",
            vec![TxOut {
                value: 1,
                script_pubkey: Script::new(),
            }],
        );
        let block = Block::mine(BlockHash::GENESIS_PREV, 0, 2, vec![cb]);
        assert!(matches!(
            validate_block(&block, &f.utxo, 0, &f.params),
            Err(BlockError::WrongBits { claimed: 2, .. })
        ));
    }

    #[test]
    fn tampered_merkle_rejected() {
        let f = fixture();
        let cb = Transaction::coinbase(
            0,
            b"m",
            vec![TxOut {
                value: 1,
                script_pubkey: Script::new(),
            }],
        );
        let mut block = Block::mine(
            BlockHash::GENESIS_PREV,
            0,
            f.params.difficulty_bits,
            vec![cb.clone()],
        );
        block.transactions.push(Transaction::coinbase(
            1,
            b"x",
            vec![TxOut {
                value: 1,
                script_pubkey: Script::new(),
            }],
        ));
        let result = validate_block(&block, &f.utxo, 0, &f.params);
        assert!(
            matches!(result, Err(BlockError::BadMerkleRoot)),
            "{result:?}"
        );
    }

    /// The clone-based validator the overlay replaced, kept as the
    /// oracle: copies the whole UTXO set, walks the block over the copy
    /// one transaction at a time (structure, then scripts, then apply)
    /// and hands back the resulting set. The coinbase is applied too —
    /// the duplicate-output rule the original skipped.
    fn validate_block_by_clone(
        block: &Block,
        utxo: &UtxoSet,
        height: u64,
        params: &ChainParams,
    ) -> Result<UtxoSet, BlockError> {
        let txids = crate::tx::txids_of(&block.transactions);
        check_block_context_free(block, &Digests::of(block, &txids, block.size()), params)?;
        let mut view = utxo.clone();
        let mut undo = crate::utxo::UndoData::default();
        let mut fees = 0;
        for (index, tx) in block.transactions.iter().enumerate() {
            let bad = |error| BlockError::BadTransaction { index, error };
            if index > 0 {
                fees += validate_transaction(tx, &view, height, params).map_err(bad)?;
            }
            view.apply_transaction(tx, height, &mut undo)
                .map_err(|e| bad(e.into()))?;
        }
        let allowed = params.coinbase_reward + fees;
        let paid = block.transactions[0].total_output();
        if paid > allowed {
            return Err(BlockError::ExcessiveCoinbase { paid, allowed });
        }
        Ok(view)
    }

    fn sorted_entries(set: &UtxoSet) -> Vec<(OutPoint, UtxoEntry)> {
        let mut entries: Vec<_> = set.iter().map(|(op, e)| (*op, e.clone())).collect();
        entries.sort_by_key(|(op, _)| *op);
        entries
    }

    #[test]
    fn overlay_validation_matches_the_clone_oracle_on_random_blocks() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x0b5e_55ed);
        let params = ChainParams::fast_test();
        let wallets: Vec<Wallet> = (0..3).map(|_| Wallet::generate(&mut rng)).collect();
        let height = params.coinbase_maturity + 5;

        // The base set: one old (mature) coinbase with many coins, one
        // recent (immature) coinbase, and an earlier block's coinbase
        // that a block under test may replay.
        let pay = |w: &Wallet, value| TxOut {
            value,
            script_pubkey: w.locking_script(),
        };
        let mature = Transaction::coinbase(
            0,
            b"mature",
            (0..40).map(|i| pay(&wallets[i % 3], 1_000)).collect(),
        );
        let immature = Transaction::coinbase(
            height - 1,
            b"immature",
            (0..6).map(|i| pay(&wallets[i % 3], 1_000)).collect(),
        );
        let replayable = Transaction::coinbase(1, b"replay", vec![pay(&wallets[0], 7)]);
        let mut base = UtxoSet::new();
        base.apply_block(&[mature.clone(), replayable.clone()], 0)
            .unwrap();
        base.apply_block(std::slice::from_ref(&immature), height - 1)
            .unwrap();
        let coin = |tx: &Transaction, vout: usize| {
            (
                OutPoint {
                    txid: tx.txid(),
                    vout: vout as u32,
                },
                tx.outputs[vout].script_pubkey.clone(),
                vout % 3, // owner wallet
            )
        };

        let (mut accepted, mut refused) = (0, 0);
        for round in 0..120 {
            // Each round spends a fresh slice of the mature coins (rounds
            // are independent: `base` is never mutated).
            let mut txs: Vec<Transaction> = Vec::new();
            let mut fees = 0;
            let spend = |(op, script, owner): (OutPoint, Script, usize), out: u64, to: usize| {
                wallets[owner].build_payment(vec![(op, script)], vec![pay(&wallets[to], out)], 0)
            };
            for k in 0..rng.gen_range(1..5usize) {
                let c = coin(&mature, (round * 7 + k * 3) % 40);
                let fee = rng.gen_range(0..20u64);
                fees += fee;
                txs.push(spend(c, 1_000 - fee, rng.gen_range(0..3)));
            }
            // One or two faults (or legal twists), at random positions:
            // two make the positionally-first-error rule matter.
            for _ in 0..rng.gen_range(1..3u32) {
                let at = rng.gen_range(0..txs.len() + 1);
                match rng.gen_range(0..9u32) {
                    0 => {} // plain valid block
                    1 => {
                        // Intra-block chain: spend the output of an earlier tx.
                        let parent = rng.gen_range(0..txs.len());
                        let owner = wallets
                            .iter()
                            .position(|w| {
                                w.locking_script() == txs[parent].outputs[0].script_pubkey
                            })
                            .unwrap();
                        let c = (
                            OutPoint {
                                txid: txs[parent].txid(),
                                vout: 0,
                            },
                            txs[parent].outputs[0].script_pubkey.clone(),
                            owner,
                        );
                        let value = txs[parent].outputs[0].value;
                        // Sometimes the child lands *before* its parent.
                        let pos = if rng.gen_bool(0.7) { txs.len() } else { 0 };
                        txs.insert(pos, spend(c, value, 0));
                    }
                    2 => {
                        // In-block double spend of a base coin.
                        let victim = txs[rng.gen_range(0..txs.len())].inputs[0].prevout;
                        let vout = victim.vout as usize;
                        txs.insert(at, spend(coin(&mature, vout), 900, 1));
                    }
                    3 => {
                        // The same transaction twice.
                        let again = txs[rng.gen_range(0..txs.len())].clone();
                        txs.insert(at, again);
                    }
                    4 => {
                        // Missing input.
                        let ghost = OutPoint {
                            txid: TxId([round as u8; 32]),
                            vout: 0,
                        };
                        txs.insert(at, spend((ghost, wallets[0].locking_script(), 0), 5, 1));
                    }
                    5 => {
                        // Immature coinbase spend.
                        txs.insert(at, spend(coin(&immature, round % 6), 1_000, 2));
                    }
                    6 => {
                        // Wrong signer.
                        let (op, script, owner) = coin(&mature, (round * 7 + 39) % 40);
                        txs.insert(at, spend((op, script, (owner + 1) % 3), 1_000, 0));
                    }
                    7 => fees += 1, // coinbase overpays by one
                    _ => {}         // replayed coinbase, below
                }
            }
            let replay = round % 9 == 8;
            let coinbase = if replay {
                replayable.clone()
            } else {
                Transaction::coinbase(
                    height,
                    &[round as u8],
                    vec![pay(&wallets[0], params.coinbase_reward + fees)],
                )
            };
            txs.insert(0, coinbase);
            let block = Block::mine(BlockHash::GENESIS_PREV, 0, params.difficulty_bits, txs);

            let oracle = validate_block_by_clone(&block, &base, height, &params);
            for workers in [1, 0] {
                let opts = BlockValidationOptions {
                    workers,
                    ..BlockValidationOptions::default()
                };
                let verdict = validate_block_with(&block, &base, height, &params, &opts);
                assert_eq!(
                    verdict,
                    oracle.as_ref().map(|_| ()).map_err(Clone::clone),
                    "round {round}, workers {workers}"
                );
            }
            match oracle {
                Ok(expected) => {
                    let mut applied = base.clone();
                    applied.apply_block(&block.transactions, height).unwrap();
                    assert_eq!(
                        sorted_entries(&applied),
                        sorted_entries(&expected),
                        "round {round}"
                    );
                    accepted += 1;
                }
                Err(_) => refused += 1,
            }
        }
        assert!(accepted >= 20 && refused >= 40, "{accepted} / {refused}");
    }

    #[test]
    fn intra_block_chains_validate() {
        let f = fixture();
        let height = spend_height(&f);
        let first = f.wallet.build_payment(
            vec![(f.coin, f.coin_script.clone())],
            vec![TxOut {
                value: 1000,
                script_pubkey: f.wallet.locking_script(),
            }],
            0,
        );
        let second = f.wallet.build_payment(
            vec![(
                OutPoint {
                    txid: first.txid(),
                    vout: 0,
                },
                f.wallet.locking_script(),
            )],
            vec![TxOut {
                value: 1000,
                script_pubkey: Script::new(),
            }],
            0,
        );
        let cb = Transaction::coinbase(
            height,
            b"m",
            vec![TxOut {
                value: f.params.coinbase_reward,
                script_pubkey: Script::new(),
            }],
        );
        let block = Block::mine(
            BlockHash::GENESIS_PREV,
            0,
            f.params.difficulty_bits,
            vec![cb, first, second],
        );
        assert_eq!(validate_block(&block, &f.utxo, height, &f.params), Ok(()));
    }
}
