//! Transaction and block validation rules, plus the validation fast path:
//! a shared signature cache and parallel per-block script verification.

use crate::block::Block;
use crate::hashed::{HashedBlock, HashedTx};
use crate::idmap::IdSet;
use crate::params::ChainParams;
use crate::tx::{Transaction, TxId};
use crate::utxo::{BlockDelta, BlockOverlay, UtxoEntry, UtxoError, UtxoSet, UtxoView};
use bcwan_crypto::ecdsa::{batch_verify, EcdsaPublicKey, Signature};
use bcwan_script::interpreter::{
    verify_spend, DeferringChecker, DigestChecker, ExecContext, SignatureChecker,
};
use bcwan_script::{Opcode, Script, ScriptError};
use bcwan_sim::metrics::Registry;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

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
    /// The input or the output values sum past `u64::MAX`.
    ValueOverflow,
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
            TxError::ValueOverflow => write!(f, "values sum past u64::MAX"),
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
    /// The coinbase's outputs, or the subsidy plus the fees, sum past
    /// `u64::MAX`.
    ValueOverflow,
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
            BlockError::ValueOverflow => write!(f, "coinbase values sum past u64::MAX"),
            BlockError::BadTransaction { index, error } => {
                write!(f, "transaction {index} invalid: {error}")
            }
        }
    }
}

impl std::error::Error for BlockError {}

/// Above this input count the duplicate-input check switches from a linear
/// scan over prior inputs (no allocation) to an [`IdSet`].
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
/// Keyed on `(txid, input index, spent script)` ([`SigKey`]), so a lookup
/// compares what admission already knows and the sighash is computed only
/// on a miss, when the script actually runs. The key covers every input
/// of [`verify_spend`]: the txid commits to all unlocking scripts, every
/// sequence (hence `input_final`), the lock time and the outputs — all
/// that the interpreter and the sighash read — the index picks the input,
/// and the spent script is in the key itself. A hit therefore means "this
/// exact interpreter input already returned true" (Bitcoin Core keys its
/// script-execution cache by wtxid for the same reason). Only
/// constructors that hash the body themselves ([`HashedTx`] and
/// [`HashedBlock`]) supply the txid. Mempool admission populates the
/// cache; block connect then skips re-verifying the same spends.
///
/// Nothing is digested to look a spend up: the set hashes the txid and
/// index, and equality then compares the script, which is a pointer check
/// when both sides share one body's [`Script`] (the usual case — a UTXO
/// entry holds a clone of the output that created it).
///
/// Eviction is two-generation (as in Bitcoin Core's sigcache): when the
/// current generation holds `SIG_CACHE_GENERATION` entries it becomes the
/// previous generation and a fresh one starts, so memory is bounded: at
/// most two generations of keys, each holding a txid, an index and a
/// reference count on a script the UTXO set usually still shares.
/// Recently verified entries survive at least one rotation. Only
/// *successful* verifications are stored; failures always re-run, so an
/// empty cache gives every verdict a full one does.
#[derive(Debug, Default)]
pub struct SigCache {
    inner: Mutex<SigCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    rsa_hits: AtomicU64,
    rsa_misses: AtomicU64,
}

/// Entries per [`SigCache`] generation: the cache holds at most twice this.
const SIG_CACHE_GENERATION: usize = 1 << 15;

#[derive(Debug, Default)]
struct SigCacheInner {
    current: IdSet<SigKey>,
    previous: IdSet<SigKey>,
}

/// A [`SigCache`] key: input `input_index` of transaction `txid`,
/// spending an output locked by `script_pubkey`.
///
/// Hashing reads only `(txid, input_index)`; equality also compares the
/// script, so the same input spending a different script is a different
/// key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigKey {
    txid: TxId,
    input_index: usize,
    script_pubkey: Script,
}

impl Hash for SigKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.txid.hash(state);
        self.input_index.hash(state);
    }
}

impl SigCache {
    /// The cache key for input `input_index` of transaction `txid`
    /// spending an output locked by `script_pubkey`: the script is shared,
    /// not copied, and nothing is hashed.
    pub fn key(txid: &TxId, input_index: usize, script_pubkey: &Script) -> SigKey {
        SigKey {
            txid: *txid,
            input_index,
            script_pubkey: script_pubkey.clone(),
        }
    }

    /// Whether this spend already verified successfully, counted against
    /// the counters for `kind`; a previous-generation hit is promoted to
    /// the current one.
    pub fn contains(&self, key: &SigKey, kind: SigKind) -> bool {
        let mut inner = self.lock();
        let found = if inner.current.contains(key) {
            true
        } else if inner.previous.contains(key) {
            Self::insert_locked(&mut inner, key.clone());
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
    pub fn insert(&self, key: SigKey) {
        Self::insert_locked(&mut self.lock(), key);
    }

    fn insert_locked(inner: &mut SigCacheInner, key: SigKey) {
        if inner.current.len() >= SIG_CACHE_GENERATION {
            inner.previous = std::mem::take(&mut inner.current);
        }
        inner.current.insert(key);
    }

    fn lock(&self) -> MutexGuard<'_, SigCacheInner> {
        // A panicking verifier thread can't leave the set inconsistent
        // (inserts are single set ops), so poisoning is ignorable.
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
    pub(crate) fn rsa_hits(&self) -> u64 {
        self.rsa_hits.load(Ordering::Relaxed)
    }

    /// `OP_CHECKRSA512PAIR`-classified lookup misses so far.
    pub(crate) fn rsa_misses(&self) -> u64 {
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
    let mut seen = (tx.inputs.len() > DUP_LINEAR_MAX)
        .then(|| IdSet::with_capacity_and_hasher(tx.inputs.len(), Default::default()));
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
        input_value = input_value
            .checked_add(entry.output.value)
            .ok_or(TxError::ValueOverflow)?;
        entries.push(entry);
    }
    let output_value = tx.total_output().ok_or(TxError::ValueOverflow)?;
    if output_value > input_value {
        return Err(TxError::ValueOutOfRange {
            input: input_value,
            output: output_value,
        });
    }
    Ok((input_value - output_value, entries))
}

/// Validates a non-coinbase transaction against the UTXO view at `height`
/// and returns its fee.
///
/// Everything that depends on the view is checked first: structure,
/// finality, input existence, coinbase maturity and value balance. Then
/// each input goes through `script_job` and `run_script_job` in order,
/// stopping at the first failure: a spend `memo` already holds is accepted
/// without a sighash or a script run, and a fresh success is recorded. An
/// empty memo (`&SigCache::default()`) gives the same verdict.
///
/// # Errors
///
/// The specific [`TxError`].
pub fn validate_transaction<V: UtxoView>(
    tx: &HashedTx,
    utxo: &V,
    height: u64,
    params: &ChainParams,
    memo: &SigCache,
) -> Result<u64, TxError> {
    let (fee, entries) = validate_transaction_structure(tx, utxo, height, params)?;
    for (i, entry) in entries.iter().enumerate() {
        if let Some(job) = script_job(tx, tx.txid(), 0, i, &entry.output.script_pubkey, memo) {
            run_script_job(&job, memo)?;
        }
    }
    Ok(fee)
}

/// One input's script run: the spending transaction (whose unlocking
/// script, sequence and lock time the interpreter reads), the sighash,
/// and the memo key a success is recorded under — which also names the
/// input and holds the spent script, so a job outlives the view it was
/// collected from.
struct ScriptJob<'t> {
    tx: &'t Transaction,
    /// Position in the block (`0` at admission).
    tx_index: usize,
    digest: [u8; 32],
    key: SigKey,
}

impl ScriptJob<'_> {
    /// Which input of `tx` this job runs.
    fn input_index(&self) -> usize {
        self.key.input_index
    }

    /// Runs the interpreter with `checker` answering signature checks.
    fn run(&self, checker: &dyn SignatureChecker) -> Result<bool, ScriptError> {
        let input = &self.tx.inputs[self.input_index()];
        let ctx = ExecContext {
            checker,
            lock_time: self.tx.lock_time,
            input_final: input.is_final(),
        };
        verify_spend(&input.script_sig, &self.key.script_pubkey, &ctx)
    }

    /// The error this job's input is refused with.
    fn failed(&self, error: Option<ScriptError>) -> TxError {
        TxError::ScriptFailed {
            input: self.input_index(),
            error,
        }
    }
}

/// The one place an input becomes a job: looks input `input_index` of
/// `tx` (whose id is `txid`), spending `script_pubkey`, up in `memo`, and
/// only on a miss computes its sighash. `None` means the spend already
/// verified.
fn script_job<'t>(
    tx: &'t Transaction,
    txid: TxId,
    tx_index: usize,
    input_index: usize,
    script_pubkey: &Script,
    memo: &SigCache,
) -> Option<ScriptJob<'t>> {
    let key = SigCache::key(&txid, input_index, script_pubkey);
    if memo.contains(&key, SigKind::of(script_pubkey)) {
        return None;
    }
    Some(ScriptJob {
        tx,
        tx_index,
        digest: tx.sighash(input_index, script_pubkey),
        key,
    })
}

/// Runs one job with an exact checker; records a success in `memo`.
fn run_script_job(job: &ScriptJob<'_>, memo: &SigCache) -> Result<(), TxError> {
    match job.run(&DigestChecker { digest: job.digest }) {
        Ok(true) => {
            memo.insert(job.key.clone());
            Ok(())
        }
        Ok(false) => Err(job.failed(None)),
        Err(e) => Err(job.failed(Some(e))),
    }
}

/// Jobs per batch-verification chunk. Workers claim contiguous chunks of
/// this many jobs (`next.fetch_add(BATCH_CHUNK)`), so chunk boundaries —
/// and therefore the exact batches handed to [`batch_verify`] — depend
/// only on job order, never on thread count or scheduling. Four of the
/// verifier's 8-signature sub-batches fit in one chunk.
pub(crate) const BATCH_CHUNK: usize = 32;

/// Runs one chunk of jobs through the batch-verification fast path,
/// appending any failures as `(tx_index, input_index, error)`.
///
/// Each job first executes with a [`DeferringChecker`]: parseable ECDSA
/// `(pubkey, signature)` pairs are recorded and assumed valid, malformed
/// ones are rejected exactly. Outcomes per job:
///
/// - passed with nothing recorded — the run was exact; done;
/// - passed with recorded pairs — the verdict is conditional on those
///   signatures, which go into one chunk-wide [`batch_verify`] call;
/// - failed with nothing recorded — the failure is exact; reported;
/// - anything else (failed with recorded pairs, or the chunk's batch
///   rejected) — re-run with [`run_script_job`], because an optimistic
///   `true` may have steered execution down a branch the real verdict
///   wouldn't take.
///
/// The fallback makes the path semantically identical to per-signature
/// verification: same accept/reject per spend, same error. Only the cost
/// changes — on clean blocks (the overwhelming case) one multi-scalar
/// multiplication replaces up to [`BATCH_CHUNK`] double-scalar ones.
fn run_chunk_batched(
    chunk: &[ScriptJob<'_>],
    memo: &SigCache,
    failures: &mut Vec<(usize, usize, TxError)>,
) {
    // Optimistic pass: (chunk-local job index, recorded pairs).
    let mut deferred: Vec<(usize, Vec<(EcdsaPublicKey, Signature)>)> = Vec::new();
    let mut rerun: Vec<usize> = Vec::new();
    for (j, job) in chunk.iter().enumerate() {
        let checker = DeferringChecker::new();
        let result = job.run(&checker);
        let recorded = checker.into_recorded();
        match result {
            Ok(true) if recorded.is_empty() => memo.insert(job.key.clone()),
            Ok(true) => deferred.push((j, recorded)),
            Ok(false) if recorded.is_empty() => {
                failures.push((job.tx_index, job.input_index(), job.failed(None)));
            }
            Err(e) if recorded.is_empty() => {
                failures.push((job.tx_index, job.input_index(), job.failed(Some(e))));
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
            // Every deferred signature is individually valid, so each
            // optimistic run was identical to a real one: all pass.
            Ok(()) => deferred
                .iter()
                .for_each(|(j, _)| memo.insert(chunk[*j].key.clone())),
            // Some signature in the chunk is bad. Re-run every deferred
            // job with a real checker for exact per-job verdicts (rare:
            // this only triggers on invalid blocks).
            Err(_) => rerun.extend(deferred.iter().map(|(j, _)| *j)),
        }
    }
    rerun.sort_unstable();
    for j in rerun {
        let job = &chunk[j];
        if let Err(error) = run_script_job(job, memo) {
            failures.push((job.tx_index, job.input_index(), error));
        }
    }
}

/// Runs the collected jobs on up to `cpus` threads and returns the
/// positionally-first failure as `(tx_index, error)`, or `None` if all
/// verified.
///
/// One worker loop: a worker claims the next whole [`BATCH_CHUNK`] from an
/// atomic counter and runs it through [`run_chunk_batched`], so chunk
/// boundaries — hence the batches and every verdict — depend only on job
/// order. With one worker (one CPU, or at most one job) the loop runs
/// inline, otherwise on a `std::thread::scope` pool. Nobody stops early:
/// every chunk runs, and the failure with the smallest `(tx_index,
/// input_index)` is reported — the one a sequential loop over the jobs
/// (they are in that order) would hit first.
fn run_script_jobs(
    jobs: &[ScriptJob<'_>],
    memo: &SigCache,
    cpus: usize,
) -> Option<(usize, TxError)> {
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    let work = || loop {
        let base = next.fetch_add(BATCH_CHUNK, Ordering::Relaxed);
        if base >= jobs.len() {
            break;
        }
        let mut local = Vec::new();
        run_chunk_batched(
            &jobs[base..jobs.len().min(base + BATCH_CHUNK)],
            memo,
            &mut local,
        );
        if !local.is_empty() {
            failures
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(local);
        }
    };
    match cpus.min(jobs.len()) {
        0 | 1 => work(),
        workers => std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        }),
    }
    failures
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .min_by_key(|(tx, input, _)| (*tx, *input))
        .map(|(tx, _, error)| (tx, error))
}

/// Validates a block body against the UTXO state at `height` (the height
/// this block would occupy), consulting and filling `memo` as
/// [`validate_transaction`] does. Header linkage is the chain's job; this
/// checks PoW, merkle, size, coinbase rules and every transaction.
///
/// # Errors
///
/// The specific [`BlockError`].
pub fn validate_block(
    block: &Block,
    utxo: &UtxoSet,
    height: u64,
    params: &ChainParams,
    memo: &SigCache,
) -> Result<(), BlockError> {
    let block = HashedBlock::new(block.clone());
    validate_hashed_block(&block, utxo, height, params, memo).map(drop)
}

/// [`validate_block`] for a block that carries its digests, returning
/// the overlay it leaves on `utxo` — what the chain commits on connect.
/// Script jobs run on one thread per available CPU.
pub(crate) fn validate_hashed_block(
    block: &HashedBlock,
    utxo: &UtxoSet,
    height: u64,
    params: &ChainParams,
    memo: &SigCache,
) -> Result<BlockDelta, BlockError> {
    // Read once: on Linux the answer comes from the affinity mask and the
    // cgroup quota files, too slow to ask on every block of a fleet run.
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
    validate_block_on(cpus, block, utxo, height, params, memo)
}

/// [`validate_hashed_block`] with script jobs on up to `cpus` threads.
///
/// Validation runs in two passes. The sequential pass walks transactions in
/// order against a borrow-only overlay of `utxo` (so intra-block chains
/// work and the set is never copied): each input is resolved through the
/// overlay once, checked, turned into a job if the memo misses it, and
/// then spent in the overlay. The context-free jobs then run through
/// [`run_script_jobs`]. A valid block hands back the overlay.
///
/// A structural failure at transaction `s` stops job collection at `s`, so
/// any script failure that surfaces is at an index `< s` and positionally
/// precedes it; the reported error is therefore identical to fully
/// sequential validation.
fn validate_block_on(
    cpus: usize,
    block: &HashedBlock,
    utxo: &UtxoSet,
    height: u64,
    params: &ChainParams,
    memo: &SigCache,
) -> Result<BlockDelta, BlockError> {
    check_block_context_free(block, params)?;
    let txids = block.txids();

    // The coinbase goes through the view too: its outputs must not
    // collide with unspent ones.
    let mut view = BlockOverlay::new(utxo, &block.transactions);
    if let Err(e) = view.apply(&block.transactions[0], txids[0], height) {
        return Err(BlockError::BadTransaction {
            index: 0,
            error: e.into(),
        });
    }
    // `None` once the fees sum past `u64::MAX`.
    let mut fees = Some(0u64);
    let mut jobs: Vec<ScriptJob<'_>> = Vec::new();
    let mut structural_failure: Option<(usize, TxError)> = None;
    for (index, tx) in block.transactions.iter().enumerate().skip(1) {
        let applied = validate_transaction_structure(tx, &view, height, params)
            .map(|(fee, entries)| {
                fees = fees.and_then(|total| total.checked_add(fee));
                jobs.extend(entries.iter().enumerate().filter_map(|(i, entry)| {
                    let script_pubkey = &entry.output.script_pubkey;
                    script_job(tx, txids[index], index, i, script_pubkey, memo)
                }));
            })
            .and_then(|()| Ok(view.apply(tx, txids[index], height)?));
        if let Err(error) = applied {
            structural_failure = Some((index, error));
            break;
        }
    }

    if let Some((index, error)) = run_script_jobs(&jobs, memo, cpus) {
        return Err(BlockError::BadTransaction { index, error });
    }
    if let Some((index, error)) = structural_failure {
        return Err(BlockError::BadTransaction { index, error });
    }

    let allowed = fees
        .and_then(|fees| fees.checked_add(params.coinbase_reward))
        .ok_or(BlockError::ValueOverflow)?;
    let paid = block.transactions[0]
        .total_output()
        .ok_or(BlockError::ValueOverflow)?;
    if paid > allowed {
        return Err(BlockError::ExcessiveCoinbase { paid, allowed });
    }
    Ok(view.into_delta())
}

/// The checks that need no UTXO state: non-empty, difficulty, proof of
/// work, merkle root, size, coinbase placement — in that order.
fn check_block_context_free(block: &HashedBlock, params: &ChainParams) -> Result<(), BlockError> {
    if block.transactions.is_empty() {
        return Err(BlockError::Empty);
    }
    if block.header.bits != params.difficulty_bits {
        return Err(BlockError::WrongBits {
            claimed: block.header.bits,
            required: params.difficulty_bits,
        });
    }
    let achieved = block.hash().leading_zero_bits();
    if achieved < params.difficulty_bits {
        return Err(BlockError::InsufficientWork {
            achieved,
            required: params.difficulty_bits,
        });
    }
    if !block.merkle_ok() {
        return Err(BlockError::BadMerkleRoot);
    }
    if block.size() > params.max_block_size {
        return Err(BlockError::TooLarge {
            size: block.size(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockHash};
    use crate::store::CoinsCache;
    use crate::tx::{OutPoint, TxIn, TxOut};
    use crate::wallet::Wallet;
    use bcwan_script::Script;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    const COINS: usize = 8;

    struct Fixture {
        params: ChainParams,
        utxo: UtxoSet,
        wallet: Wallet,
        coins: Vec<OutPoint>,
    }

    /// UTXO with `COINS` 1000-value coins owned by `wallet`, minted by a
    /// coinbase at height 0.
    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(42);
        let params = ChainParams::fast_test();
        let wallet = Wallet::generate(&mut rng);
        let coin = TxOut {
            value: 1000,
            script_pubkey: wallet.locking_script(),
        };
        let cb = Transaction::coinbase(0, b"f", vec![coin; COINS]);
        let mut utxo = UtxoSet::new();
        utxo.apply_block(std::slice::from_ref(&cb), 0).unwrap();
        let coins = (0..COINS as u32)
            .map(|vout| OutPoint {
                txid: cb.txid(),
                vout,
            })
            .collect();
        Fixture {
            params,
            utxo,
            wallet,
            coins,
        }
    }

    fn spend_height(f: &Fixture) -> u64 {
        f.params.coinbase_maturity // first height the coins are mature
    }

    /// An output locked by the empty script.
    fn out(value: u64) -> TxOut {
        TxOut {
            value,
            script_pubkey: Script::new(),
        }
    }

    /// `f.wallet` paying `coin` into one `value` output.
    fn spend(f: &Fixture, coin: OutPoint, value: u64) -> Transaction {
        let input = (coin, f.wallet.locking_script());
        f.wallet.build_payment(vec![input], vec![out(value)], 0)
    }

    /// [`validate_transaction`] with an empty memo.
    fn validate_tx(
        tx: &Transaction,
        utxo: &impl UtxoView,
        height: u64,
        params: &ChainParams,
    ) -> Result<u64, TxError> {
        let tx = HashedTx::new(tx.clone());
        validate_transaction(&tx, utxo, height, params, &SigCache::default())
    }

    /// [`validate_block`] with an empty memo.
    fn validate(f: &Fixture, block: &Block, height: u64) -> Result<(), BlockError> {
        validate_block(block, &f.utxo, height, &f.params, &SigCache::default())
    }

    /// Block validation with script jobs on up to `cpus` threads.
    fn validate_on(
        cpus: usize,
        block: &Block,
        utxo: &UtxoSet,
        height: u64,
        params: &ChainParams,
        memo: &SigCache,
    ) -> Result<(), BlockError> {
        let block = HashedBlock::new(block.clone());
        validate_block_on(cpus, &block, utxo, height, params, memo).map(drop)
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
        cache.insert(rsa_key.clone());
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
    fn sigcache_key_compares_the_spent_script() {
        let p2pkh = bcwan_script::templates::p2pkh(&[3u8; 20]);
        let other = bcwan_script::templates::p2pkh(&[4u8; 20]);
        let cache = SigCache::default();
        let txid = TxId([9u8; 32]);
        cache.insert(SigCache::key(&txid, 0, &p2pkh));

        // Same txid and index, a different spent script: a miss.
        assert!(!cache.contains(&SigCache::key(&txid, 0, &other), SigKind::Ecdsa));
        // The same script parsed on its own (no shared buffer): a hit.
        let parsed = Script::from_bytes(&p2pkh.to_bytes()).unwrap();
        assert_ne!(
            parsed.instructions().as_ptr(),
            p2pkh.instructions().as_ptr()
        );
        assert!(cache.contains(&SigCache::key(&txid, 0, &parsed), SigKind::Ecdsa));
        // Another input or another transaction: a miss.
        assert!(!cache.contains(&SigCache::key(&txid, 1, &p2pkh), SigKind::Ecdsa));
        let other_txid = TxId([8u8; 32]);
        assert!(!cache.contains(&SigCache::key(&other_txid, 0, &p2pkh), SigKind::Ecdsa));
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
    }

    #[test]
    fn sigcache_rotation_keeps_two_generations() {
        let script = bcwan_script::templates::p2pkh(&[3u8; 20]);
        let key = |n: usize| SigCache::key(&TxId([0u8; 32]), n, &script);
        let cache = SigCache::default();
        for n in 0..2 * SIG_CACHE_GENERATION {
            cache.insert(key(n));
        }
        assert_eq!(cache.len(), 2 * SIG_CACHE_GENERATION);
        // Filling the second generation rotated the first into `previous`;
        // one more insert rotates again and drops the oldest generation.
        cache.insert(key(2 * SIG_CACHE_GENERATION));
        assert_eq!(cache.len(), SIG_CACHE_GENERATION + 1);
        assert!(!cache.contains(&key(0), SigKind::Ecdsa));
        assert!(cache.contains(&key(SIG_CACHE_GENERATION), SigKind::Ecdsa));
        assert!(cache.contains(&key(2 * SIG_CACHE_GENERATION), SigKind::Ecdsa));
        for n in 0..4 * SIG_CACHE_GENERATION {
            cache.insert(key(n));
            assert!(cache.len() <= 2 * SIG_CACHE_GENERATION);
        }
    }

    #[test]
    fn valid_spend_passes_and_reports_fee() {
        let f = fixture();
        let tx = spend(&f, f.coins[0], 990);
        assert_eq!(
            validate_tx(&tx, &f.utxo, spend_height(&f), &f.params),
            Ok(10)
        );
    }

    #[test]
    fn immature_coinbase_rejected() {
        let f = fixture();
        let tx = spend(&f, f.coins[0], 1000);
        assert_eq!(
            validate_tx(&tx, &f.utxo, 1, &f.params),
            Err(TxError::ImmatureCoinbase {
                created: 0,
                spend: 1
            })
        );
    }

    #[test]
    fn overspend_rejected() {
        let f = fixture();
        let tx = spend(&f, f.coins[0], 2000);
        assert_eq!(
            validate_tx(&tx, &f.utxo, spend_height(&f), &f.params),
            Err(TxError::ValueOutOfRange {
                input: 1000,
                output: 2000
            })
        );
    }

    #[test]
    fn missing_input_rejected() {
        let f = fixture();
        let ghost = OutPoint {
            txid: TxId([9; 32]),
            vout: 0,
        };
        assert_eq!(
            validate_tx(&spend(&f, ghost, 1), &f.utxo, spend_height(&f), &f.params),
            Err(TxError::MissingInput(ghost))
        );
    }

    #[test]
    fn wrong_signature_rejected() {
        let mut rng = StdRng::seed_from_u64(99);
        let f = fixture();
        let thief = Wallet::generate(&mut rng);
        let input = (f.coins[0], f.wallet.locking_script());
        let tx = thief.build_payment(vec![input], vec![out(1000)], 0);
        assert!(matches!(
            validate_tx(&tx, &f.utxo, spend_height(&f), &f.params),
            Err(TxError::ScriptFailed { input: 0, .. })
        ));
    }

    #[test]
    fn non_final_transaction_rejected() {
        let f = fixture();
        let input = (f.coins[0], f.wallet.locking_script());
        // lock_time in the future
        let tx = f.wallet.build_payment(vec![input], vec![out(1000)], 1_000);
        assert!(matches!(
            validate_tx(&tx, &f.utxo, spend_height(&f), &f.params),
            Err(TxError::NotFinal {
                lock_time: 1000,
                ..
            })
        ));
    }

    #[test]
    fn duplicate_input_rejected() {
        let f = fixture();
        let input = (f.coins[0], f.wallet.locking_script());
        let mut tx = f
            .wallet
            .build_payment(vec![input.clone(), input], vec![out(100)], 0);
        // keep both inputs identical
        tx.inputs[1] = TxIn {
            prevout: f.coins[0],
            script_sig: tx.inputs[0].script_sig.clone(),
            sequence: 0,
        };
        assert_eq!(
            validate_tx(&tx, &f.utxo, spend_height(&f), &f.params),
            Err(TxError::DuplicateInput(f.coins[0]))
        );
    }

    #[test]
    fn op_return_with_value_rejected() {
        let f = fixture();
        let input = (f.coins[0], f.wallet.locking_script());
        let burn = TxOut {
            value: 5,
            script_pubkey: bcwan_script::templates::op_return(b"data"),
        };
        let tx = f.wallet.build_payment(vec![input], vec![burn], 0);
        assert_eq!(
            validate_tx(&tx, &f.utxo, spend_height(&f), &f.params),
            Err(TxError::ValueInOpReturn)
        );
    }

    #[test]
    fn valid_block_accepted() {
        let f = fixture();
        let height = spend_height(&f);
        let payment = spend(&f, f.coins[0], 980);
        let cb = Transaction::coinbase(height, b"miner", vec![out(f.params.coinbase_reward + 20)]);
        let bits = f.params.difficulty_bits;
        let block = Block::mine(BlockHash::GENESIS_PREV, 0, bits, vec![cb, payment]);
        assert_eq!(validate(&f, &block, height), Ok(()));
    }

    #[test]
    fn coinbase_overpay_rejected() {
        let f = fixture();
        let height = spend_height(&f);
        // No fees collected.
        let cb = Transaction::coinbase(height, b"miner", vec![out(f.params.coinbase_reward + 1)]);
        let block = Block::mine(
            BlockHash::GENESIS_PREV,
            0,
            f.params.difficulty_bits,
            vec![cb],
        );
        assert!(matches!(
            validate(&f, &block, height),
            Err(BlockError::ExcessiveCoinbase { .. })
        ));
    }

    #[test]
    fn wrong_difficulty_rejected() {
        let f = fixture();
        let cb = Transaction::coinbase(0, b"m", vec![out(1)]);
        let block = Block::mine(BlockHash::GENESIS_PREV, 0, 2, vec![cb]);
        assert!(matches!(
            validate(&f, &block, 0),
            Err(BlockError::WrongBits { claimed: 2, .. })
        ));
    }

    #[test]
    fn tampered_merkle_rejected() {
        let f = fixture();
        let cb = Transaction::coinbase(0, b"m", vec![out(1)]);
        let mut block = Block::mine(
            BlockHash::GENESIS_PREV,
            0,
            f.params.difficulty_bits,
            vec![cb],
        );
        block
            .transactions
            .push(Transaction::coinbase(1, b"x", vec![out(1)]));
        let result = validate(&f, &block, 0);
        assert!(
            matches!(result, Err(BlockError::BadMerkleRoot)),
            "{result:?}"
        );
    }

    /// A materialized UTXO set: the oracle's state, every entry its own.
    type Materialized = BTreeMap<OutPoint, UtxoEntry>;

    impl UtxoView for Materialized {
        fn view_get(&self, outpoint: &OutPoint) -> Option<&UtxoEntry> {
            self.get(outpoint)
        }
    }

    fn materialize(set: &UtxoSet) -> Materialized {
        set.iter().map(|(op, e)| (*op, e.clone())).collect()
    }

    /// The reference apply of one transaction, as the set did it before
    /// the overlay became the only apply: check every input is live and
    /// every output is not, then spend (recording the spent entries in
    /// `undo`) and create, straight into the set.
    fn apply_by_reference(
        set: &mut Materialized,
        tx: &Transaction,
        height: u64,
        undo: &mut Vec<(OutPoint, UtxoEntry)>,
    ) -> Result<(), UtxoError> {
        let (txid, coinbase) = (tx.txid(), tx.is_coinbase());
        let inputs = if coinbase { &[][..] } else { &tx.inputs[..] };
        if let Some(missing) = inputs.iter().find(|i| !set.contains_key(&i.prevout)) {
            return Err(UtxoError::MissingInput(missing.prevout));
        }
        let outpoints = (0..tx.outputs.len() as u32).map(|vout| OutPoint { txid, vout });
        if let Some(live) = outpoints.clone().find(|op| set.contains_key(op)) {
            return Err(UtxoError::DuplicateOutput(live));
        }
        for input in inputs {
            let entry = set.remove(&input.prevout).expect("checked above");
            undo.push((input.prevout, entry));
        }
        for (op, output) in outpoints.zip(&tx.outputs) {
            let output = output.clone();
            set.insert(
                op,
                UtxoEntry {
                    output,
                    height,
                    coinbase,
                },
            );
        }
        Ok(())
    }

    /// The clone-based validator the overlay replaced, kept as the
    /// oracle: copies the whole UTXO set, walks the block over the copy
    /// one transaction at a time (structure, then scripts, then
    /// [`apply_by_reference`]) and hands back the resulting set and undo
    /// record. The coinbase is applied too — the duplicate-output rule
    /// the original skipped.
    fn validate_block_by_clone(
        block: &Block,
        utxo: &UtxoSet,
        height: u64,
        params: &ChainParams,
    ) -> Result<(Materialized, Vec<(OutPoint, UtxoEntry)>), BlockError> {
        check_block_context_free(&HashedBlock::new(block.clone()), params)?;
        let mut view = materialize(utxo);
        let mut undo = Vec::new();
        let mut fees = Some(params.coinbase_reward);
        for (index, tx) in block.transactions.iter().enumerate() {
            let bad = |error| BlockError::BadTransaction { index, error };
            if index > 0 {
                let fee = validate_tx(tx, &view, height, params).map_err(bad)?;
                fees = fees.and_then(|sum| sum.checked_add(fee));
            }
            apply_by_reference(&mut view, tx, height, &mut undo).map_err(|e| bad(e.into()))?;
        }
        let allowed = fees.ok_or(BlockError::ValueOverflow)?;
        let paid = block.transactions[0]
            .outputs
            .iter()
            .try_fold(0u64, |sum, o| sum.checked_add(o.value))
            .ok_or(BlockError::ValueOverflow)?;
        if paid > allowed {
            return Err(BlockError::ExcessiveCoinbase { paid, allowed });
        }
        Ok((view, undo))
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

        let spend = |(op, script, owner): (OutPoint, Script, usize), out: u64, to: usize| {
            wallets[owner].build_payment(vec![(op, script)], vec![pay(&wallets[to], out)], 0)
        };
        // The first output of `tx`, paid to wallet `owner`.
        let first_out = |tx: &Transaction, owner: usize| {
            let op = OutPoint {
                txid: tx.txid(),
                vout: 0,
            };
            (op, wallets[owner].locking_script(), owner)
        };

        // Every block is validated against the oracle at 1, 2 and 4
        // threads, cold and warm, then connected: the overlay validation
        // built is committed into a coins cache over `base`, which must
        // then hold the oracle's set and undo record — or, refused, still
        // hold `base` and have noted nothing.
        let check = |label: &str, block: &Block| {
            let oracle = validate_block_by_clone(block, &base, height, &params);
            let expected = oracle.as_ref().map(drop).map_err(Clone::clone);
            for cpus in [1, 2, 4] {
                // Cold, then warm: the memo never changes a verdict.
                let memo = SigCache::default();
                for pass in ["cold", "warm"] {
                    let verdict = validate_on(cpus, block, &base, height, &params, &memo);
                    assert_eq!(verdict, expected, "{label}, cpus {cpus}, {pass}");
                }
            }
            let mut cache =
                CoinsCache::from_snapshot(base.iter().map(|(op, e)| (*op, e.clone())).collect());
            let hashed = HashedBlock::new(block.clone());
            let memo = SigCache::default();
            let connected = validate_block_on(1, &hashed, cache.set(), height, &params, &memo)
                .map(|delta| cache.commit(delta));
            match (oracle, connected) {
                (Ok((set, undo)), Ok(got)) => {
                    let oracle_set = UtxoSet::from_loaded(set.clone().into_iter().collect());
                    assert_eq!(
                        cache.set().fingerprint(),
                        oracle_set.fingerprint(),
                        "{label}"
                    );
                    assert_eq!(materialize(cache.set()), set, "{label}");
                    assert_eq!(got.spent_entries(), &undo[..], "{label}");
                }
                (Err(_), Err(_)) => {
                    assert_eq!(materialize(cache.set()), materialize(&base), "{label}");
                    assert!(cache.flush_ops().is_empty(), "{label}: notes kept");
                    // The unvalidated apply refuses a block that breaks the
                    // UTXO rule just as cleanly (one that breaks another
                    // rule it applies).
                    if cache.apply_block(&hashed, height).is_err() {
                        assert_eq!(materialize(cache.set()), materialize(&base), "{label}");
                        assert!(cache.flush_ops().is_empty(), "{label}: notes kept");
                    }
                }
                _ => unreachable!("the verdicts agree"),
            }
            expected
        };

        let (mut accepted, mut refused, mut overflowed) = (0, 0, 0);
        for round in 0..180 {
            // Each round spends a fresh slice of the mature coins (rounds
            // are independent: `base` is never mutated).
            let mut txs: Vec<Transaction> = Vec::new();
            let mut fees = 0;
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
                match rng.gen_range(0..10u32) {
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
                        let c = first_out(&txs[parent], owner);
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
                    8 => {
                        // Outputs summing past u64::MAX: with wrapping
                        // sums, one coin minted u64::MAX for a fee of 1.
                        let (op, script, owner) = coin(&mature, (round * 7 + 23) % 40);
                        let outputs = vec![pay(&wallets[1], u64::MAX), pay(&wallets[2], 1_000)];
                        txs.insert(
                            at,
                            wallets[owner].build_payment(vec![(op, script)], outputs, 0),
                        );
                    }
                    _ => {} // replayed coinbase, below
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
            match check(&format!("round {round}"), &block) {
                Ok(()) => accepted += 1,
                Err(BlockError::BadTransaction {
                    error: TxError::ValueOverflow,
                    ..
                }) => overflowed += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(accepted >= 20 && refused >= 40, "{accepted} / {refused}");
        assert!(overflowed >= 5, "{overflowed} refused as overflowing");

        // Three fixed blocks. A three-deep intra-block spend chain: the
        // middle outputs are created and spent inside the block, so the
        // undo record holds entries the set never did.
        let mined = |txs| Block::mine(BlockHash::GENESIS_PREV, 0, params.difficulty_bits, txs);
        let reward = |fees: u64| {
            let paid = vec![pay(&wallets[0], params.coinbase_reward + fees)];
            Transaction::coinbase(height, b"fixed", paid)
        };
        let a = spend(coin(&mature, 0), 990, 1);
        let b = spend(first_out(&a, 1), 980, 2);
        let c = spend(first_out(&b, 2), 970, 0);
        let spend_chain = mined(vec![reward(30), a.clone(), b.clone(), c]);
        assert_eq!(check("spend chain", &spend_chain), Ok(()));
        // A replayed coinbase in front of a valid spend.
        let replay = mined(vec![replayable.clone(), a.clone()]);
        let error = TxError::DuplicateOutput(first_out(&replayable, 0).0);
        let expected = Err(BlockError::BadTransaction { index: 0, error });
        assert_eq!(check("replayed coinbase", &replay), expected);
        // A block that fails mid-way, after its overlay spent a base coin
        // and created and spent an output of its own.
        let ghost = OutPoint {
            txid: TxId([0xee; 32]),
            vout: 0,
        };
        let orphan = spend((ghost, wallets[0].locking_script(), 0), 5, 1);
        let tail = spend(coin(&mature, 3), 1_000, 2);
        let broken = mined(vec![reward(20), a, b, orphan, tail]);
        let error = TxError::MissingInput(ghost);
        let expected = Err(BlockError::BadTransaction { index: 3, error });
        assert_eq!(check("fails mid-way", &broken), expected);
    }

    #[test]
    fn intra_block_chains_validate() {
        let f = fixture();
        let height = spend_height(&f);
        let input = (f.coins[0], f.wallet.locking_script());
        let relock = TxOut {
            value: 1000,
            script_pubkey: f.wallet.locking_script(),
        };
        let first = f.wallet.build_payment(vec![input], vec![relock], 0);
        let parent = OutPoint {
            txid: first.txid(),
            vout: 0,
        };
        let second = spend(&f, parent, 1000);
        let cb = Transaction::coinbase(height, b"m", vec![out(f.params.coinbase_reward)]);
        let bits = f.params.difficulty_bits;
        let block = Block::mine(BlockHash::GENESIS_PREV, 0, bits, vec![cb, first, second]);
        assert_eq!(validate(&f, &block, height), Ok(()));
    }

    // Scheduling independence: the same verdict and the *same* error at
    // every thread count and every memo state, for a valid block, a bad
    // mid-block signature, and a mid-block structural failure.

    /// Each coin paid on with a fee of 10.
    fn spends(f: &Fixture) -> Vec<Transaction> {
        f.coins.iter().map(|&c| spend(f, c, 990)).collect()
    }

    fn mine(f: &Fixture, spends: Vec<Transaction>) -> Block {
        let coinbase = out(f.params.coinbase_reward);
        let mut txs = vec![Transaction::coinbase(
            spend_height(f),
            b"pd-block",
            vec![coinbase],
        )];
        txs.extend(spends);
        Block::mine(BlockHash([0u8; 32]), 0, f.params.difficulty_bits, txs)
    }

    fn validate_at(
        f: &Fixture,
        block: &Block,
        cpus: usize,
        memo: &SigCache,
    ) -> Result<(), BlockError> {
        validate_on(cpus, block, &f.utxo, spend_height(f), &f.params, memo)
    }

    /// `validate_at` on an empty memo, then on the same memo once the
    /// first run has recorded its successes: both must equal `expected`.
    /// Returns the memo.
    fn assert_cold_and_warm(
        f: &Fixture,
        block: &Block,
        cpus: usize,
        expected: &Result<(), BlockError>,
    ) -> SigCache {
        let memo = SigCache::default();
        for pass in ["cold", "warm"] {
            let verdict = validate_at(f, block, cpus, &memo);
            assert_eq!(&verdict, expected, "cpus {cpus}, {pass}");
        }
        memo
    }

    #[test]
    fn valid_block_accepted_at_every_worker_count() {
        let f = fixture();
        let block = mine(&f, spends(&f));
        for cpus in [1, 2, 4] {
            let memo = assert_cold_and_warm(&f, &block, cpus, &Ok(()));
            // The warm run hit every spend the cold one recorded.
            let coins = COINS as u64;
            assert_eq!((memo.hits(), memo.misses()), (coins, coins), "cpus {cpus}");
        }
    }

    #[test]
    fn bad_mid_block_signature_reported_identically() {
        let f = fixture();
        let mut txs = spends(&f);
        // Corrupt transaction #4's signature by editing an output after
        // signing: the sighash no longer matches, scripts still parse.
        txs[4].outputs[0].value = 989;
        let block = mine(&f, txs);

        let expected = validate_at(&f, &block, 1, &SigCache::default());
        let Err(BlockError::BadTransaction { index, ref error }) = expected else {
            panic!("corrupted block unexpectedly validated: {expected:?}");
        };
        assert_eq!(index, 5, "coinbase is tx 0, corrupted spend is tx 5");
        assert!(matches!(error, TxError::ScriptFailed { input: 0, .. }));
        // Valid inputs are recorded, the bad one never is: a warm memo
        // still reports the same failure.
        for cpus in [1, 2, 4] {
            assert_cold_and_warm(&f, &block, cpus, &expected);
        }
    }

    #[test]
    fn batched_verification_reports_identical_error_as_sequential() {
        let f = fixture();
        let mut txs = spends(&f);
        // One bad signature mid-block: tx 3 (block index 4), input 0. The
        // batch over its chunk must reject, fall back to per-signature
        // verification, and surface the exact same (tx, input) error the
        // clone oracle — one transaction, then one input, at a time —
        // reports.
        txs[3].outputs[0].value = 989;
        let block = mine(&f, txs);
        let height = spend_height(&f);
        let expected = validate_block_by_clone(&block, &f.utxo, height, &f.params).map(|_| ());
        let Err(BlockError::BadTransaction {
            index: 4,
            ref error,
        }) = expected
        else {
            panic!("corrupted block unexpectedly validated: {expected:?}");
        };
        assert!(matches!(error, TxError::ScriptFailed { input: 0, .. }));
        for cpus in [1, 2, 4] {
            assert_cold_and_warm(&f, &block, cpus, &expected);
        }

        // A clean block accepts as the oracle does, on every CPU.
        let good = mine(&f, spends(&f));
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        assert!(validate_block_by_clone(&good, &f.utxo, height, &f.params).is_ok());
        assert_cold_and_warm(&f, &good, cpus, &Ok(()));
    }

    #[test]
    fn structural_failure_beats_later_script_failures() {
        let f = fixture();
        let mut txs = spends(&f);
        // Tx 3 (index 4 in the block) overspends: structural failure. Jobs
        // are only collected for txs before it, all of which are valid, so
        // tx 5's bad signature never runs and every thread count must
        // report the structural error.
        txs[3] = spend(&f, f.coins[3], 2000);
        txs[5].outputs[0].value = 989;
        let block = mine(&f, txs);

        let expected = validate_at(&f, &block, 1, &SigCache::default());
        assert!(matches!(
            expected,
            Err(BlockError::BadTransaction {
                index: 4,
                error: TxError::ValueOutOfRange { .. }
            })
        ));
        for cpus in [2, 4] {
            assert_cold_and_warm(&f, &block, cpus, &expected);
        }
    }

    /// A chain whose genesis pays `wallet` one 1 000-value coin, spendable
    /// at height 1, and a spend of it paying `outputs`.
    fn one_coin_chain(outputs: &[u64]) -> (crate::Chain, Transaction) {
        let mut rng = StdRng::seed_from_u64(42);
        let wallet = Wallet::generate(&mut rng);
        let mut params = ChainParams::fast_test();
        params.coinbase_maturity = 0;
        let genesis = crate::Chain::make_genesis(&params, &[(wallet.address(), 1_000)]);
        let chain = crate::Chain::new(params, genesis);
        let coin = OutPoint {
            txid: chain.block_at(0).unwrap().transactions[0].txid(),
            vout: 0,
        };
        let outputs = outputs.iter().map(|&value| out(value)).collect();
        let tx = wallet.build_payment(vec![(coin, wallet.locking_script())], outputs, 0);
        (chain, tx)
    }

    /// Block 1 on `chain`: a coinbase paying `coinbase`, then `txs`.
    fn block_on(chain: &crate::Chain, coinbase: &[u64], txs: Vec<Transaction>) -> Block {
        let outputs = coinbase.iter().map(|&value| out(value)).collect();
        let mut all = vec![Transaction::coinbase(1, b"overflow", outputs)];
        all.extend(txs);
        Block::mine(chain.tip(), 1, chain.params().difficulty_bits, all)
    }

    #[test]
    fn outputs_summing_past_u64_max_are_refused_at_admission_and_connect() {
        // One 1 000-value coin paying [u64::MAX, 1 000]. Wrapping sums
        // admitted it with a fee of 1 in a release build (and panicked in
        // a debug one), minting an output worth u64::MAX.
        let (mut chain, inflate) = one_coin_chain(&[u64::MAX, 1_000]);
        let mut pool = crate::Mempool::with_cache(chain.sig_cache().clone());
        let params = chain.params().clone();
        assert_eq!(
            pool.insert(inflate.clone(), chain.utxo(), 1, &params),
            Err(crate::MempoolError::Invalid(TxError::ValueOverflow))
        );
        assert!(pool.is_empty());

        let block = block_on(&chain, &[params.coinbase_reward], vec![inflate]);
        assert_eq!(
            chain.add_block(block),
            Err(crate::ChainError::Invalid(BlockError::BadTransaction {
                index: 1,
                error: TxError::ValueOverflow
            }))
        );
        assert_eq!(chain.height(), 0);
    }

    #[test]
    fn a_coinbase_paying_past_u64_max_is_refused() {
        // [u64::MAX, 2] wrapped to 1, which the subsidy allows.
        let (mut chain, _) = one_coin_chain(&[]);
        let block = block_on(&chain, &[u64::MAX, 2], Vec::new());
        assert_eq!(
            chain.add_block(block),
            Err(crate::ChainError::Invalid(BlockError::ValueOverflow))
        );
        assert_eq!(chain.height(), 0);
    }
}
