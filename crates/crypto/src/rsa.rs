//! RSA with small moduli (512-bit by default), mirroring the paper's choice.
//!
//! BcWAN gateways generate an **ephemeral RSA-512 keypair** per message
//! (paper §4.4/§5.1): the public key `ePk` travels to the node over LoRa,
//! the node wraps its AES output under `ePk`, and the fair-exchange script
//! (`OP_CHECKRSA512PAIR`) pays whoever reveals the matching private key
//! `eSk`. Nodes also sign `(Em, ePk)` with a provisioned RSA key.
//!
//! The paper explicitly accepts RSA-512's weakness as a payload-size
//! trade-off (§6); [`RsaKeySize`] exposes 1024/2048 for the key-size
//! ablation bench.

use crate::bignum::{BigUint, MontgomeryCtx};
use crate::sha256::sha256;
use rand::RngCore;
use std::fmt;

/// Supported modulus sizes.
///
/// RSA-512 is the paper's choice (64-byte blocks fit LoRa payload limits);
/// the larger sizes exist for the §6 key-size/airtime ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RsaKeySize {
    /// 512-bit modulus, 64-byte blocks — the paper's parameter.
    Rsa512,
    /// 1024-bit modulus, 128-byte blocks.
    Rsa1024,
    /// 2048-bit modulus, 256-byte blocks.
    Rsa2048,
}

impl RsaKeySize {
    /// Modulus size in bits.
    pub fn bits(self) -> usize {
        match self {
            RsaKeySize::Rsa512 => 512,
            RsaKeySize::Rsa1024 => 1024,
            RsaKeySize::Rsa2048 => 2048,
        }
    }

    /// Modulus (and ciphertext/signature block) size in bytes.
    pub fn block_len(self) -> usize {
        self.bits() / 8
    }
}

impl fmt::Display for RsaKeySize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RSA-{}", self.bits())
    }
}

/// An RSA public key `(n, e)`.
///
/// The modulus is held as a [`MontgomeryCtx`], built once at construction,
/// so no operation re-derives `R² mod n`. The context compares, hashes and
/// serializes as its modulus alone: it is an accelerator, not key identity.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RsaPublicKey {
    n: MontgomeryCtx,
    e: BigUint,
}

/// An RSA private key; retains `n` and both exponents.
///
/// Keys produced by [`generate_keypair`] additionally carry CRT parameters
/// (`p`, `q`, `dP`, `dQ`, `qInv`) so the private operation runs as two
/// half-size exponentiations (~4× faster). The parameters are deliberately
/// **not serialized**: the claim transaction publishes only `n || e || d`,
/// so keys parsed back from the wire fall back to the plain `c^d mod n`
/// path, and equality compares `(n, e, d)` only.
#[derive(Clone)]
pub struct RsaPrivateKey {
    n: MontgomeryCtx,
    e: BigUint,
    d: BigUint,
    crt: Option<CrtParams>,
}

impl PartialEq for RsaPrivateKey {
    fn eq(&self, other: &Self) -> bool {
        // CRT params are a derived accelerator, not part of key identity.
        self.n == other.n && self.e == other.e && self.d == other.d
    }
}

impl Eq for RsaPrivateKey {}

/// Chinese-remainder-theorem private-key parameters.
#[derive(Clone)]
struct CrtParams {
    p: MontgomeryCtx,
    q: MontgomeryCtx,
    /// `d mod (p-1)`.
    dp: BigUint,
    /// `d mod (q-1)`.
    dq: BigUint,
    /// `q^{-1} mod p`.
    qinv: BigUint,
}

/// Errors from RSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// Plaintext too long for the modulus (must leave padding room).
    MessageTooLong {
        /// Attempted message length.
        len: usize,
        /// Maximum allowed for this modulus.
        max: usize,
    },
    /// Ciphertext/signature block is not exactly the modulus size.
    BadBlockLength {
        /// Supplied block length.
        len: usize,
        /// Required block length.
        expected: usize,
    },
    /// Decrypted block had malformed padding.
    BadPadding,
    /// Serialized key bytes were malformed.
    MalformedKey,
}

impl fmt::Display for RsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsaError::MessageTooLong { len, max } => {
                write!(f, "message of {len} bytes exceeds maximum {max}")
            }
            RsaError::BadBlockLength { len, expected } => {
                write!(f, "block of {len} bytes, expected {expected}")
            }
            RsaError::BadPadding => write!(f, "invalid rsa padding"),
            RsaError::MalformedKey => write!(f, "malformed rsa key encoding"),
        }
    }
}

impl std::error::Error for RsaError {}

impl fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RsaPublicKey(n={:.8}…, e={})",
            self.modulus().to_hex(),
            self.e
        )
    }
}

impl fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print d.
        write!(f, "RsaPrivateKey(n={:.8}…)", self.n.modulus().to_hex())
    }
}

/// Generates an RSA keypair of the given size.
///
/// Primes come from [`generate_prime`] (a sieved window, then one
/// random-base Miller–Rabin round and Baillie–PSW, drawing 20 bases),
/// `p` first, then `q`; `e = 65537`. Both primes have their top two bits
/// set, so `n` always has exactly `size.bits()` bits and no pair is drawn
/// again for its length — only, rarely, for `p = q` or `gcd(e, φ) ≠ 1`.
/// Determinism: pass a seeded RNG to get reproducible keys in simulations.
pub fn generate_keypair<R: RngCore>(
    rng: &mut R,
    size: RsaKeySize,
) -> (RsaPublicKey, RsaPrivateKey) {
    let half = size.bits() / 2;
    let e = BigUint::from_u64(65537);
    loop {
        let p = generate_prime(rng, half);
        let q = generate_prime(rng, half);
        if p == q {
            continue;
        }
        let n = p.mul(&q);
        // Both primes are at least 1.5·2^(h−1), so n ≥ 2.25·2^(2h−2) > 2^(2h−1).
        debug_assert_eq!(n.bit_len(), size.bits(), "top two bits set on both primes");
        let one = BigUint::one();
        let phi = p.sub(&one).mul(&q.sub(&one));
        let Some(d) = e.mod_inverse(&phi) else {
            continue;
        };
        let ctx = |m: &BigUint| MontgomeryCtx::new(m).expect("odd primes and their product");
        let p_ctx = ctx(&p);
        // q^(p−2) is q⁻¹ mod p by Fermat: one modexp in p's context
        // instead of an extended Euclid.
        let qinv = p_ctx.mod_pow(&q, &p.sub(&BigUint::from_u64(2)));
        debug_assert!(p_ctx.mul_mod(&qinv, &q).is_one(), "p is prime");
        let crt = Some(CrtParams {
            dp: d.rem(&p.sub(&one)),
            dq: d.rem(&q.sub(&one)),
            qinv,
            p: p_ctx,
            q: ctx(&q),
        });
        let public = RsaPublicKey {
            n: ctx(&n),
            e: e.clone(),
        };
        let private = RsaPrivateKey {
            n: public.n.clone(),
            e,
            d,
            crt,
        };
        return (public, private);
    }
}

impl RsaPublicKey {
    /// The modulus size in bytes (ciphertexts and signatures have this length).
    pub fn block_len(&self) -> usize {
        self.modulus().bit_len().div_ceil(8)
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        self.n.modulus()
    }

    /// The public exponent.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Encrypts `plaintext` with PKCS#1-v1.5-style random padding
    /// (`00 02 <nonzero random> 00 <message>`).
    ///
    /// # Errors
    ///
    /// [`RsaError::MessageTooLong`] if the message exceeds `block_len - 11`.
    pub fn encrypt<R: RngCore>(&self, rng: &mut R, plaintext: &[u8]) -> Result<Vec<u8>, RsaError> {
        let k = self.block_len();
        if plaintext.len() + 11 > k {
            return Err(RsaError::MessageTooLong {
                len: plaintext.len(),
                max: k - 11,
            });
        }
        let mut block = Vec::with_capacity(k);
        block.push(0x00);
        block.push(0x02);
        for _ in 0..(k - 3 - plaintext.len()) {
            loop {
                let mut b = [0u8; 1];
                rng.fill_bytes(&mut b);
                if b[0] != 0 {
                    block.push(b[0]);
                    break;
                }
            }
        }
        block.push(0x00);
        block.extend_from_slice(plaintext);
        let m = BigUint::from_bytes_be(&block);
        let c = self.n.mod_pow(&m, &self.e);
        Ok(c.to_bytes_be_padded(k).expect("c < n fits"))
    }

    /// Verifies a signature over `message` (SHA-256 digest, type-1 padding).
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        let k = self.block_len();
        if signature.len() != k {
            return false;
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= *self.modulus() {
            return false;
        }
        let m = self.n.mod_pow(&s, &self.e);
        let Some(block) = m.to_bytes_be_padded(k) else {
            return false;
        };
        let expected = signature_block(&sha256(message), k);
        // Length-constant comparison is irrelevant in a simulator, but cheap.
        block
            .iter()
            .zip(expected.iter())
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0
    }

    /// Checks that `private` is the private half of this public key —
    /// the semantic of the paper's `OP_CHECKRSA512PAIR` operator
    /// ("implemented using the VerifyPubKey method … from OpenSSL").
    ///
    /// Validates both the shared modulus and the exponent relation
    /// `e·d ≡ 1` by a random encrypt/decrypt probe, so a forged `d` for the
    /// right `n` is rejected.
    pub fn matches_private(&self, private: &RsaPrivateKey) -> bool {
        if self.n != private.n || self.e != private.e {
            return false;
        }
        // Probe with a fixed small value: (v^e)^d mod n == v.
        let v = BigUint::from_u64(0x42);
        let c = self.n.mod_pow(&v, &self.e);
        self.n.mod_pow(&c, &private.d) == v
    }

    /// Serializes as `len(n) (2 bytes BE) || n || len(e) (2 bytes BE) || e`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.modulus().to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(4 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u16).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u16).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses the [`RsaPublicKey::to_bytes`] encoding.
    ///
    /// # Errors
    ///
    /// [`RsaError::MalformedKey`] on truncated or trailing data, a modulus
    /// that is even or `≤ 1`, or a zero exponent.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RsaError> {
        let (n, rest) = read_modulus(bytes)?;
        let (e, rest) = read_exponent(rest)?;
        if !rest.is_empty() {
            return Err(RsaError::MalformedKey);
        }
        Ok(RsaPublicKey { n, e })
    }
}

impl RsaPrivateKey {
    /// The modulus size in bytes.
    pub fn block_len(&self) -> usize {
        self.n.modulus().bit_len().div_ceil(8)
    }

    /// The private operation `c^d mod n`, via CRT (Garner recombination)
    /// when the prime factorization is available.
    fn private_pow(&self, c: &BigUint) -> BigUint {
        match &self.crt {
            Some(crt) => {
                let (p, q) = (crt.p.modulus(), crt.q.modulus());
                let m1 = crt.p.mod_pow(c, &crt.dp);
                let m2 = crt.q.mod_pow(c, &crt.dq);
                // h = qInv·(m1 − m2) mod p, m = m2 + h·q  (< n since h < p).
                let h = crt.p.mul_mod(&crt.qinv, &m1.sub_mod(&m2.rem(p), p));
                m2.add(&h.mul(q))
            }
            None => self.n.mod_pow(c, &self.d),
        }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> RsaPublicKey {
        RsaPublicKey {
            n: self.n.clone(),
            e: self.e.clone(),
        }
    }

    /// Decrypts a ciphertext produced by [`RsaPublicKey::encrypt`].
    ///
    /// # Errors
    ///
    /// [`RsaError::BadBlockLength`] or [`RsaError::BadPadding`].
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, RsaError> {
        let k = self.block_len();
        if ciphertext.len() != k {
            return Err(RsaError::BadBlockLength {
                len: ciphertext.len(),
                expected: k,
            });
        }
        let c = BigUint::from_bytes_be(ciphertext);
        let m = self.private_pow(&c);
        let block = m.to_bytes_be_padded(k).ok_or(RsaError::BadPadding)?;
        if block[0] != 0x00 || block[1] != 0x02 {
            return Err(RsaError::BadPadding);
        }
        let sep = block[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(RsaError::BadPadding)?;
        if sep < 8 {
            return Err(RsaError::BadPadding); // require ≥8 padding bytes
        }
        Ok(block[2 + sep + 1..].to_vec())
    }

    /// Signs `message` (SHA-256 digest under type-1 padding).
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let k = self.block_len();
        let block = signature_block(&sha256(message), k);
        let m = BigUint::from_bytes_be(&block);
        let s = self.private_pow(&m);
        s.to_bytes_be_padded(k).expect("s < n fits")
    }

    /// Serializes as three length-prefixed chunks `n || e || d`.
    ///
    /// The BcWAN claim transaction publishes exactly this encoding in its
    /// unlocking script to reveal the ephemeral private key.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.modulus().to_bytes_be();
        let e = self.e.to_bytes_be();
        let d = self.d.to_bytes_be();
        let mut out = Vec::with_capacity(6 + n.len() + e.len() + d.len());
        for chunk in [&n, &e, &d] {
            out.extend_from_slice(&(chunk.len() as u16).to_be_bytes());
            out.extend_from_slice(chunk);
        }
        out
    }

    /// Parses the [`RsaPrivateKey::to_bytes`] encoding.
    ///
    /// # Errors
    ///
    /// [`RsaError::MalformedKey`] on truncated or trailing data, a modulus
    /// that is even or `≤ 1`, or a zero exponent.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RsaError> {
        let (n, rest) = read_modulus(bytes)?;
        let (e, rest) = read_exponent(rest)?;
        let (d, rest) = read_exponent(rest)?;
        if !rest.is_empty() {
            return Err(RsaError::MalformedKey);
        }
        Ok(RsaPrivateKey {
            n,
            e,
            d,
            // The wire format carries no factorization; plain-d path.
            crt: None,
        })
    }
}

/// Reads a modulus chunk. No honest producer emits an even modulus or one
/// `≤ 1`, and refusing them here is what lets every parsed key carry a
/// Montgomery context (and keeps `mod_pow` off its zero-modulus panic).
fn read_modulus(bytes: &[u8]) -> Result<(MontgomeryCtx, &[u8]), RsaError> {
    let (n, rest) = read_chunk(bytes)?;
    let ctx = MontgomeryCtx::new(&BigUint::from_bytes_be(n)).ok_or(RsaError::MalformedKey)?;
    Ok((ctx, rest))
}

/// Reads an exponent chunk; zero is not an exponent of any key pair.
fn read_exponent(bytes: &[u8]) -> Result<(BigUint, &[u8]), RsaError> {
    let (x, rest) = read_chunk(bytes)?;
    let x = BigUint::from_bytes_be(x);
    if x.is_zero() {
        return Err(RsaError::MalformedKey);
    }
    Ok((x, rest))
}

fn read_chunk(bytes: &[u8]) -> Result<(&[u8], &[u8]), RsaError> {
    if bytes.len() < 2 {
        return Err(RsaError::MalformedKey);
    }
    let len = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
    if bytes.len() < 2 + len {
        return Err(RsaError::MalformedKey);
    }
    Ok((&bytes[2..2 + len], &bytes[2 + len..]))
}

/// Deterministic type-1 block: `00 01 ff..ff 00 <sha256 digest>`.
fn signature_block(digest: &[u8; 32], k: usize) -> Vec<u8> {
    assert!(k >= 32 + 11, "modulus too small for signature block");
    let mut block = Vec::with_capacity(k);
    block.push(0x00);
    block.push(0x01);
    block.extend(std::iter::repeat_n(0xff, k - 3 - 32));
    block.push(0x00);
    block.extend_from_slice(digest);
    block
}

/// Whether an odd `n ≥ 3` is prime, by trial division.
const fn is_odd_prime(n: u64) -> bool {
    let mut d = 3;
    while d * d <= n && !n.is_multiple_of(d) {
        d += 2;
    }
    d * d > n
}

/// How many odd primes lie below `bound`.
const fn odd_primes_below(bound: u64) -> usize {
    let (mut count, mut n) = (0, 3);
    while n < bound {
        count += is_odd_prime(n) as usize;
        n += 2;
    }
    count
}

/// The first `N` odd primes.
const fn odd_primes<const N: usize>() -> [u64; N] {
    let mut primes = [0u64; N];
    let (mut found, mut n) = (0, 3);
    while found < N {
        if is_odd_prime(n) {
            primes[found] = n;
            found += 1;
        }
        n += 2;
    }
    primes
}

/// How many runs [`word_runs`] cuts `primes` into.
const fn word_run_count(primes: &[u64]) -> usize {
    let (mut count, mut product, mut i) = (1, 1u64, 0);
    while i < primes.len() {
        match product.checked_mul(primes[i]) {
            Some(next) => {
                product = next;
                i += 1;
            }
            None => {
                count += 1;
                product = 1;
            }
        }
    }
    count
}

/// `primes` cut greedily into `R` runs whose product fits one word, as
/// `(product, end index)`: a number is reduced once per run, and the
/// run's primes then divide that single word instead of the number.
const fn word_runs<const R: usize>(primes: &[u64]) -> [(u64, usize); R] {
    let mut runs = [(1u64, 0usize); R];
    let (mut run, mut i) = (0, 0);
    while i < primes.len() {
        match runs[run].0.checked_mul(primes[i]) {
            Some(product) => {
                runs[run] = (product, i + 1);
                i += 1;
            }
            None => run += 1,
        }
    }
    runs
}

/// Every odd prime below this bound sieves [`generate_prime`]'s windows.
///
/// A measured constant, not a tuning knob: raising it removes fewer and
/// fewer survivors (a fraction `∏(1 − 1/p)` ≈ `1.12 / ln bound` of odd
/// numbers is left) while the per-window residues cost grows with the
/// prime count. RSA-512 keygen is fastest around here (EXPERIMENTS § KS).
pub const SIEVE_BOUND: u64 = 4096;

/// The odd primes below [`SIEVE_BOUND`].
const SIEVE_PRIMES: [u64; odd_primes_below(SIEVE_BOUND)] = odd_primes();

/// [`SIEVE_PRIMES`] in word-sized runs.
const SIEVE_RUNS: [(u64, usize); word_run_count(&SIEVE_PRIMES)] = word_runs(&SIEVE_PRIMES);

/// [`is_probable_prime`] trial-divides by the first 54 of
/// [`SIEVE_PRIMES`], 3 to 257: which candidates reach Miller–Rabin is
/// part of its draw contract.
const TRIAL_PRIMES: usize = 54;

/// `(p, n mod p)` for each of [`SIEVE_PRIMES`] in order, one word
/// reduction per run, computed as the iterator is drawn.
fn residues(n: &BigUint) -> impl Iterator<Item = (u64, u64)> + '_ {
    let starts = std::iter::once(0).chain(SIEVE_RUNS.iter().map(|&(_, end)| end));
    SIEVE_RUNS
        .iter()
        .zip(starts)
        .flat_map(move |(&(product, end), start)| {
            let residue = n.rem_u64(product);
            SIEVE_PRIMES[start..end]
                .iter()
                .map(move |&p| (p, residue % p))
        })
}

/// Trial division of an odd `n ≥ 3` by the first [`TRIAL_PRIMES`] odd
/// primes: `Some(true)` if `n` is one of them, `Some(false)` if one of
/// them divides it properly, `None` if it has no factor up to 257.
fn sieve(n: &BigUint) -> Option<bool> {
    let trial = &SIEVE_PRIMES[..TRIAL_PRIMES];
    if let Some(small) = n.to_u64().filter(|v| v <= &trial[TRIAL_PRIMES - 1]) {
        // Every odd composite this small has a factor in the table.
        return Some(trial.contains(&small));
    }
    residues(n)
        .take(TRIAL_PRIMES)
        .any(|(_, r)| r == 0)
        .then_some(false)
}

/// Probabilistic primality test: Miller–Rabin with `rounds` random
/// bases, whose survivors of the first base are settled by Baillie–PSW.
///
/// A candidate that passes its first random base goes through
/// Baillie–PSW. If it passes, the other `rounds − 1` bases are drawn but
/// not tested: no composite is known to pass Baillie–PSW, and none exists
/// below 2⁶⁴. If it fails, `n` is composite, and rounds 2, 3, … run as
/// plain Miller–Rabin would — so the verdict can differ from `rounds`
/// random bases only on a Baillie–PSW pseudoprime.
///
/// Draw order is part of the contract (seeded runs must reproduce their
/// keys): nothing is drawn for a candidate the sieve decides, and a
/// survivor draws one base in `[2, n−2]` per round until the first round
/// it fails — the draws of `rounds` random-base Miller–Rabin rounds.
pub fn is_probable_prime<R: RngCore>(rng: &mut R, n: &BigUint, rounds: usize) -> bool {
    let two = BigUint::from_u64(2);
    if n.is_even() {
        return *n == two;
    }
    if n.is_one() {
        return false;
    }
    if let Some(verdict) = sieve(n) {
        return verdict;
    }
    if rounds == 0 {
        return true;
    }
    // Write n-1 = d * 2^s with d odd.
    let n_minus_1 = n.sub(&BigUint::one());
    let s = (0..)
        .find(|&i| n_minus_1.bit(i))
        .expect("n - 1 is non-zero");
    let d = n_minus_1.shr(s);
    // One context serves every round of this candidate.
    let ctx = MontgomeryCtx::new(n).expect("n is odd and above 257");
    let bound = n.sub(&BigUint::from_u64(3));
    // Random base in [2, n-2].
    let mut base = || BigUint::random_below(rng, &bound).add(&two);
    if !ctx.is_strong_probable_prime(&base(), &d, s) {
        return false;
    }
    if baillie_psw(&ctx, &d, s) {
        for _ in 1..rounds {
            base();
        }
        return true;
    }
    (1..rounds).all(|_| ctx.is_strong_probable_prime(&base(), &d, s))
}

/// Baillie–PSW for the modulus `n = d·2^s + 1` of `ctx` (`d` odd): the
/// strong base-2 test, then the extra-strong Lucas test with Baillie's
/// parameters.
fn baillie_psw(ctx: &MontgomeryCtx, d: &BigUint, s: usize) -> bool {
    ctx.is_strong_probable_prime(&BigUint::from_u64(2), d, s)
        && ctx.is_strong_lucas_probable_prime()
}

/// The offsets `2j`, `j < 2·bits`, at which `start + 2j` has no factor
/// below [`SIEVE_BOUND`] — a window over `2·bits` odd numbers from an odd
/// `start`, which holds a `bits`-bit prime with probability ≈ 1 − e^−5.8.
///
/// One residue per prime, then each prime crosses out every `p`-th slot:
/// `start + 2j ≡ 0 (mod p)` exactly when `j ≡ −r·2⁻¹ (mod p)`, with `r`
/// the residue of `start` and `2⁻¹ = (p + 1) / 2`.
pub fn sieve_window(start: &BigUint, bits: usize) -> Vec<u64> {
    debug_assert!(start.is_odd(), "windows hold odd numbers");
    let width = 2 * bits;
    let mut composite = vec![false; width];
    for (p, r) in residues(start) {
        let p = p as usize;
        let mut j = (p - r as usize) % p * p.div_ceil(2) % p;
        while j < width {
            composite[j] = true;
            j += p;
        }
    }
    (0..width)
        .filter(|&j| !composite[j])
        .map(|j| 2 * j as u64)
        .collect()
}

/// Generates a random prime with exactly `bits` bits, the top two set (so
/// the product of two is exactly `2·bits` bits long).
///
/// Draw order is part of the contract (seeded runs must reproduce their
/// keys): one `bits`-bit start per window ([`BigUint::random_bits`], then
/// bits `bits − 2` and 0 set), then [`is_probable_prime`]'s 20 bases for
/// each survivor of [`sieve_window`], in order, up to the first that
/// passes its first base and Baillie–PSW. A window with no prime, or one
/// that runs past `bits` bits, is followed by a fresh start.
pub fn generate_prime<R: RngCore>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 16, "prime size too small");
    loop {
        let mut start = BigUint::random_bits(rng, bits);
        start.set_bit(bits - 2);
        start.set_bit(0);
        for offset in sieve_window(&start, bits) {
            let candidate = start.add(&BigUint::from_u64(offset));
            if candidate.bit_len() > bits {
                break;
            }
            if is_probable_prime(rng, &candidate, 20) {
                return candidate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xbc1a2018)
    }

    #[test]
    fn miller_rabin_known_primes_and_composites() {
        let mut r = rng();
        for p in [2u64, 3, 5, 65537, 1_000_000_007, 2_147_483_647] {
            assert!(is_probable_prime(&mut r, &BigUint::from_u64(p), 20), "{p}");
        }
        for c in [0u64, 1, 4, 9, 561, 41041, 1_000_000_008, 25326001] {
            // 561, 41041, 25326001 are Carmichael numbers.
            assert!(!is_probable_prime(&mut r, &BigUint::from_u64(c), 20), "{c}");
        }
    }

    /// Base-2 strong pseudoprimes (OEIS A001262) below 10⁵.
    const BASE_2_STRONG_PSEUDOPRIMES: [u64; 16] = [
        2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281, 74665, 80581,
        85489, 88357, 90751,
    ];

    /// Extra-strong Lucas pseudoprimes with Baillie's parameters (OEIS
    /// A217719) below 10⁵.
    const EXTRA_STRONG_LUCAS_PSEUDOPRIMES: [u64; 12] = [
        989, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059, 72389, 73919, 75077,
    ];

    /// `n` as a context with `n = d·2^s + 1`, `d` odd.
    fn split(n: &BigUint) -> (MontgomeryCtx, BigUint, usize) {
        let n_minus_1 = n.sub(&BigUint::one());
        let s = (0..).find(|&i| n_minus_1.bit(i)).expect("n > 1");
        let ctx = MontgomeryCtx::new(n).expect("odd n > 1");
        (ctx, n_minus_1.shr(s), s)
    }

    /// `(strong base-2 verdict, extra-strong Lucas verdict)` for an odd `n > 3`.
    fn halves(n: &BigUint) -> (bool, bool) {
        let (ctx, d, s) = split(n);
        (
            ctx.is_strong_probable_prime(&BigUint::from_u64(2), &d, s),
            ctx.is_strong_lucas_probable_prime(),
        )
    }

    fn is_prime_u64(n: u64) -> bool {
        n >= 2
            && (2..)
                .take_while(|d| d * d <= n)
                .all(|d| !n.is_multiple_of(d))
    }

    #[test]
    fn each_half_of_baillie_psw_passes_exactly_the_primes_and_its_pseudoprimes() {
        for n in (5..100_000u64).step_by(2) {
            let (base_2, lucas) = halves(&BigUint::from_u64(n));
            let prime = is_prime_u64(n);
            assert_eq!(
                base_2,
                prime || BASE_2_STRONG_PSEUDOPRIMES.contains(&n),
                "{n}"
            );
            assert_eq!(
                lucas,
                prime || EXTRA_STRONG_LUCAS_PSEUDOPRIMES.contains(&n),
                "{n}"
            );
            let (ctx, d, s) = split(&BigUint::from_u64(n));
            assert_eq!(baillie_psw(&ctx, &d, s), prime, "{n}");
        }
    }

    #[test]
    fn chernick_carmichael_numbers_fail_baillie_psw() {
        let mut r = rng();
        let mut found = 0;
        for k in 1..2_000u64 {
            let factors = [6 * k + 1, 12 * k + 1, 18 * k + 1];
            if !factors.iter().all(|&f| is_prime_u64(f)) {
                continue;
            }
            let n = factors
                .iter()
                .fold(BigUint::one(), |n, &f| n.mul(&BigUint::from_u64(f)));
            let (ctx, d, s) = split(&n);
            assert!(!baillie_psw(&ctx, &d, s), "k = {k}");
            assert!(!is_probable_prime(&mut r, &n, 20), "k = {k}");
            found += 1;
        }
        assert!(found >= 20, "{found} Chernick numbers");
    }

    #[test]
    fn squares_of_primes_are_rejected_without_looping() {
        let mut r = rng();
        let mut roots: Vec<BigUint> = (SIEVE_BOUND..)
            .filter(|&p| is_prime_u64(p))
            .take(5)
            .chain([1093, 3511])
            .map(BigUint::from_u64)
            .collect();
        roots.push(generate_prime(&mut r, 128));
        for root in roots {
            let n = root.mul(&root);
            let (_, lucas) = halves(&n);
            assert!(!lucas, "{root}²");
            let (ctx, d, s) = split(&n);
            assert!(!baillie_psw(&ctx, &d, s), "{root}²");
            assert!(!is_probable_prime(&mut r, &n, 20), "{root}²");
        }
        // 1093² and 3511² (Wieferich primes squared) pass base 2: only
        // the Lucas half's square check stops them.
        for root in [1093u64, 3511] {
            let (base_2, _) = halves(&BigUint::from_u64(root * root));
            assert!(base_2, "{root}²");
        }
    }

    #[test]
    fn baillie_psw_confirms_generated_primes_and_draws_every_round() {
        for bits in [16, 64, 256, 512] {
            let mut r = rng();
            let p = generate_prime(&mut r, bits);
            let (ctx, d, s) = split(&p);
            assert!(baillie_psw(&ctx, &d, s), "{bits} bits");
            // A prime draws all 20 bases, whatever tests them.
            let mut tested = r.clone();
            assert!(is_probable_prime(&mut tested, &p, 20));
            let bound = p.sub(&BigUint::from_u64(3));
            for _ in 0..20 {
                BigUint::random_below(&mut r, &bound);
            }
            assert_eq!(tested.next_u64(), r.next_u64(), "{bits} bits");
        }
    }

    #[test]
    fn fermat_qinv_is_the_crt_inverse() {
        let mut r = rng();
        for size in [RsaKeySize::Rsa512, RsaKeySize::Rsa1024] {
            let (_, private) = generate_keypair(&mut r, size);
            let crt = private.crt.as_ref().expect("generated keys carry CRT");
            let (p, q) = (crt.p.modulus(), crt.q.modulus());
            assert_eq!(Some(crt.qinv.clone()), q.mod_inverse(p), "{size}");
        }
    }

    #[test]
    fn generated_prime_has_requested_size() {
        let mut r = rng();
        let p = generate_prime(&mut r, 64);
        assert_eq!(p.bit_len(), 64);
        assert!(p.is_odd());
    }

    #[test]
    fn keypair_512_round_trip() {
        let mut r = rng();
        let (public, private) = generate_keypair(&mut r, RsaKeySize::Rsa512);
        assert_eq!(public.block_len(), 64);
        let msg = b"sensor reading 21.5C";
        let ct = public.encrypt(&mut r, msg).unwrap();
        assert_eq!(ct.len(), 64);
        assert_eq!(private.decrypt(&ct).unwrap(), msg);
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut r = rng();
        let (public, private) = generate_keypair(&mut r, RsaKeySize::Rsa512);
        let msg = b"Em || ePk as in paper step 4";
        let sig = private.sign(msg);
        assert_eq!(sig.len(), 64);
        assert!(public.verify(msg, &sig));
        assert!(!public.verify(b"tampered", &sig));
        let mut bad = sig.clone();
        bad[10] ^= 1;
        assert!(!public.verify(msg, &bad));
        assert!(!public.verify(msg, &sig[..63])); // wrong length
    }

    #[test]
    fn message_too_long_rejected() {
        let mut r = rng();
        let (public, _) = generate_keypair(&mut r, RsaKeySize::Rsa512);
        let too_long = vec![0u8; 64 - 10];
        assert!(matches!(
            public.encrypt(&mut r, &too_long),
            Err(RsaError::MessageTooLong { .. })
        ));
        // 53 bytes = 64 - 11 is the maximum.
        let max = vec![0u8; 53];
        assert!(public.encrypt(&mut r, &max).is_ok());
    }

    #[test]
    fn pair_check_detects_mismatch() {
        let mut r = rng();
        let (pub1, prv1) = generate_keypair(&mut r, RsaKeySize::Rsa512);
        let (pub2, prv2) = generate_keypair(&mut r, RsaKeySize::Rsa512);
        assert!(pub1.matches_private(&prv1));
        assert!(pub2.matches_private(&prv2));
        assert!(!pub1.matches_private(&prv2));
        assert!(!pub2.matches_private(&prv1));
    }

    #[test]
    fn key_serialization_round_trip() {
        let mut r = rng();
        let (public, private) = generate_keypair(&mut r, RsaKeySize::Rsa512);
        let p2 = RsaPublicKey::from_bytes(&public.to_bytes()).unwrap();
        assert_eq!(public, p2);
        let s2 = RsaPrivateKey::from_bytes(&private.to_bytes()).unwrap();
        assert_eq!(private, s2);
        assert!(p2.matches_private(&s2));
    }

    #[test]
    fn malformed_key_bytes_rejected() {
        assert!(matches!(
            RsaPublicKey::from_bytes(&[]),
            Err(RsaError::MalformedKey)
        ));
        assert!(matches!(
            RsaPublicKey::from_bytes(&[0, 5, 1]),
            Err(RsaError::MalformedKey)
        ));
        let mut r = rng();
        let (public, _) = generate_keypair(&mut r, RsaKeySize::Rsa512);
        let mut bytes = public.to_bytes();
        bytes.push(0); // trailing garbage
        assert!(matches!(
            RsaPublicKey::from_bytes(&bytes),
            Err(RsaError::MalformedKey)
        ));
    }

    #[test]
    fn corrupted_ciphertext_fails_cleanly() {
        let mut r = rng();
        let (public, private) = generate_keypair(&mut r, RsaKeySize::Rsa512);
        let mut ct = public.encrypt(&mut r, b"data").unwrap();
        ct[0] ^= 0xff;
        // Either padding fails or the plaintext differs; never the original.
        match private.decrypt(&ct) {
            Ok(pt) => assert_ne!(pt, b"data".to_vec()),
            Err(RsaError::BadPadding) | Err(RsaError::BadBlockLength { .. }) => {}
            Err(e) => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn crt_and_plain_private_ops_agree() {
        let mut r = rng();
        let (public, private) = generate_keypair(&mut r, RsaKeySize::Rsa512);
        // Serialization drops the CRT params, leaving the plain-d path.
        let plain = RsaPrivateKey::from_bytes(&private.to_bytes()).unwrap();
        assert!(plain.crt.is_none() && private.crt.is_some());
        let ct = public.encrypt(&mut r, b"crt probe").unwrap();
        assert_eq!(private.decrypt(&ct).unwrap(), plain.decrypt(&ct).unwrap());
        assert_eq!(private.sign(b"same sig"), plain.sign(b"same sig"));
    }

    #[test]
    fn key_sizes_block_lengths() {
        assert_eq!(RsaKeySize::Rsa512.block_len(), 64);
        assert_eq!(RsaKeySize::Rsa1024.block_len(), 128);
        assert_eq!(RsaKeySize::Rsa2048.block_len(), 256);
        assert_eq!(RsaKeySize::Rsa512.to_string(), "RSA-512");
    }

    #[test]
    fn debug_never_reveals_private_exponent() {
        let mut r = rng();
        let (_, private) = generate_keypair(&mut r, RsaKeySize::Rsa512);
        let dbg = format!("{private:?}");
        assert!(dbg.starts_with("RsaPrivateKey("));
        assert!(dbg.len() < 40);
    }
}
