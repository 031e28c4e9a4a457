//! ECDSA over secp256k1 with RFC 6979 deterministic nonces.
//!
//! Every blockchain actor (gateway, recipient, miner wallet) holds an ECDSA
//! keypair; transactions are authorized by `OP_CHECKSIG` over these
//! signatures, as in Bitcoin/Multichain.
//!
//! The entire module runs on fixed-limb arithmetic: scalars mod `n` are
//! Montgomery [`Scalar`]s and points use lazily reduced
//! [`crate::field::FieldElement`] coordinates — no `BigUint` anywhere on
//! this path. Verification inverts the public `s` in variable time
//! ([`Scalar::invert_vartime`]), computes `u1·G + u2·Q` on one doubling
//! chain ([`crate::msm::ecmult`]: GLV halves of `u2` over `Q`, 128-bit
//! halves of `u1` over baked tables of `G`), and skips the final field
//! inversion by comparing `x(R')` against `r` projectively. Signing keeps
//! the fixed-sequence Fermat inverse for its secret nonce and the
//! fixed-window base table for its lone `k·G`.
//!
//! [`batch_verify`] amortizes further across many signatures: sub-batches
//! share one Strauss multi-scalar multiplication and one scalar batch
//! inversion, with a deterministic blinded linear combination guarding
//! against cross-signature cancellation. Any doubt — a mismatch, a
//! non-canonical `R` lift, a degenerate input — falls back to per-signature
//! [`EcdsaPublicKey::verify_digest`], so the batch path is semantically
//! identical to the sequential one (same accept/reject per signature, and
//! the first failing index is reported exactly).

use crate::field::FieldElement;
use crate::hmac::hmac_sha256;
use crate::msm::{
    base_terms, ecmult, glv_terms, normalize_batch, odd_multiples, small_mul, strauss_affine,
    AffineTerm, HALF_TABLE_LEN,
};
use crate::scalar::{Scalar, N};
use crate::secp256k1::{scalar_mul_base, AffinePoint, JacobianPoint};
use crate::sha256::{sha256, Sha256};
use rand::RngCore;
use std::fmt;

/// A secp256k1 private key (a scalar in `[1, n-1]`).
#[derive(Clone, PartialEq, Eq)]
pub struct EcdsaPrivateKey {
    d: Scalar,
}

/// A secp256k1 public key (a curve point).
#[derive(Clone, PartialEq, Eq)]
pub struct EcdsaPublicKey {
    point: AffinePoint,
}

/// An ECDSA signature `(r, s)`, serialized as 64 bytes `r || s`.
///
/// Invariant: both components are in `[1, n−1]` — enforced at signing and
/// by [`Signature::from_bytes`].
#[derive(Clone, PartialEq, Eq)]
pub struct Signature {
    r: Scalar,
    s: Scalar,
}

/// Errors from ECDSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcdsaError {
    /// Key bytes were out of range or malformed.
    InvalidKey,
    /// Signature bytes were malformed.
    InvalidSignature,
}

impl fmt::Display for EcdsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcdsaError::InvalidKey => write!(f, "invalid ecdsa key encoding"),
            EcdsaError::InvalidSignature => write!(f, "invalid ecdsa signature encoding"),
        }
    }
}

impl std::error::Error for EcdsaError {}

impl fmt::Debug for EcdsaPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("EcdsaPrivateKey { .. }")
    }
}

impl fmt::Debug for EcdsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EcdsaPublicKey({})",
            crate::hex::encode(&self.to_bytes())
        )
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.to_bytes();
        write!(
            f,
            "Signature(r={}…, s={}…)",
            crate::hex::encode(&b[..4]),
            crate::hex::encode(&b[32..36])
        )
    }
}

impl EcdsaPrivateKey {
    /// Generates a random private key.
    ///
    /// Draws 32-byte candidates and rejects values outside `[1, n−1]` —
    /// byte-for-byte the same RNG consumption as the previous
    /// `BigUint::random_below` implementation, so seeded simulations keep
    /// their key material.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        loop {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            match Scalar::from_bytes_be(&bytes) {
                Some(d) if !d.is_zero() => return EcdsaPrivateKey { d },
                _ => continue,
            }
        }
    }

    /// Builds a key from 32 big-endian bytes.
    ///
    /// # Errors
    ///
    /// [`EcdsaError::InvalidKey`] if out of `[1, n-1]` or not 32 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EcdsaError> {
        let arr: [u8; 32] = bytes.try_into().map_err(|_| EcdsaError::InvalidKey)?;
        match Scalar::from_bytes_be(&arr) {
            Some(d) if !d.is_zero() => Ok(EcdsaPrivateKey { d }),
            _ => Err(EcdsaError::InvalidKey),
        }
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.d.to_bytes_be()
    }

    /// Derives the public key `d·G`.
    pub fn public_key(&self) -> EcdsaPublicKey {
        EcdsaPublicKey {
            point: scalar_mul_base(&self.d),
        }
    }

    /// Signs `message` (hashed with SHA-256 internally) using an RFC 6979
    /// deterministic nonce. The low-S normalization matches Bitcoin.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let digest = sha256(message);
        self.sign_digest(&digest)
    }

    /// Signs a precomputed 32-byte digest.
    pub fn sign_digest(&self, digest: &[u8; 32]) -> Signature {
        let z = Scalar::reduce_bytes_be(digest);
        let mut extra: u32 = 0;
        loop {
            let k = rfc6979_nonce(&self.d, digest, extra);
            extra = extra.wrapping_add(1);
            let AffinePoint::Coords { x, .. } = scalar_mul_base(&k) else {
                continue;
            };
            // r = x mod n (any 256-bit value is < 2n, one conditional
            // subtract).
            let r = Scalar::reduce_bytes_be(&x.to_bytes_be());
            if r.is_zero() {
                continue;
            }
            // s = k⁻¹ (z + r·d) mod n; k is secret, so the Fermat inverse.
            let s = k.invert().mul(&z.add(&r.mul(&self.d)));
            if s.is_zero() {
                continue;
            }
            // Low-S normalization.
            let s = if s.is_high() { s.negate() } else { s };
            return Signature { r, s };
        }
    }
}

impl EcdsaPublicKey {
    /// SEC1 compressed bytes (33).
    pub fn to_bytes(&self) -> [u8; 33] {
        self.point.to_compressed()
    }

    /// Parses SEC1 compressed bytes.
    ///
    /// # Errors
    ///
    /// [`EcdsaError::InvalidKey`] if not a valid curve point.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EcdsaError> {
        AffinePoint::from_compressed(bytes)
            .map(|point| EcdsaPublicKey { point })
            .ok_or(EcdsaError::InvalidKey)
    }

    /// Verifies a signature over `message` (SHA-256 applied internally).
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        self.verify_digest(&sha256(message), sig)
    }

    /// Verifies a signature over a precomputed digest.
    ///
    /// `s` is public, so it is inverted in variable time; `u1·G + u2·Q`
    /// shares one doubling chain ([`ecmult`]); and the final check
    /// compares `x(R')` with `r` projectively, saving the affine
    /// normalization inversion.
    pub fn verify_digest(&self, digest: &[u8; 32], sig: &Signature) -> bool {
        if sig.r.is_zero() || sig.s.is_zero() {
            return false;
        }
        let z = Scalar::reduce_bytes_be(digest);
        let s_inv = sig.s.invert_vartime();
        let u1 = z.mul(&s_inv);
        let u2 = sig.r.mul(&s_inv);
        let acc = ecmult(&u1, &u2, &JacobianPoint::from_affine(&self.point));
        x_equals_r(&acc, &sig.r)
    }
}

impl Signature {
    /// Serializes as 64 bytes `r || s` (compact form).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r.to_bytes_be());
        out[32..].copy_from_slice(&self.s.to_bytes_be());
        out
    }

    /// Parses the 64-byte compact form.
    ///
    /// # Errors
    ///
    /// [`EcdsaError::InvalidSignature`] on bad length or out-of-range values.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EcdsaError> {
        if bytes.len() != 64 {
            return Err(EcdsaError::InvalidSignature);
        }
        let rb: [u8; 32] = bytes[..32].try_into().expect("32 bytes");
        let sb: [u8; 32] = bytes[32..].try_into().expect("32 bytes");
        match (Scalar::from_bytes_be(&rb), Scalar::from_bytes_be(&sb)) {
            (Some(r), Some(s)) if !r.is_zero() && !s.is_zero() => Ok(Signature { r, s }),
            _ => Err(EcdsaError::InvalidSignature),
        }
    }
}

/// `n` as a base-field element (`n < p`, so the limbs carry over).
const N_AS_FE: FieldElement = FieldElement::from_raw_limbs(N);

/// Canonical limbs of `p − n` (≈ 1.58·2^128): `x = r + n` is a valid
/// second x-candidate only when `r` is below this.
const P_MINUS_N: [u64; 4] = [0x402D_A172_2FC9_BAEE, 0x4551_2319_50B7_5FC4, 1, 0];

/// Does the Jacobian point's affine x-coordinate reduce to `r` mod `n`?
///
/// Checked projectively: `x(A) = X/Z²`, so `x(A) = c` iff `X = c·Z²`.
/// Candidates are `c = r` and — in the astronomically rare case
/// `r < p − n` *and* the true x overflowed `n` — `c = r + n`.
fn x_equals_r(a: &JacobianPoint, r: &Scalar) -> bool {
    if a.is_infinity() {
        return false;
    }
    let r_fe = FieldElement::from_bytes_be(&r.to_bytes_be()).expect("r < n < p");
    let z2 = a.z.sqr();
    if a.x == r_fe.mul(&z2) {
        return true;
    }
    let rl = r.to_canonical_limbs();
    let mut below = false;
    for i in (0..4).rev() {
        if rl[i] != P_MINUS_N[i] {
            below = rl[i] < P_MINUS_N[i];
            break;
        }
    }
    below && a.x == r_fe.add(&N_AS_FE).mul(&z2)
}

/// Sub-batch width for [`batch_verify`]: the ε-sign search below is
/// exponential in this, and 8 balances shared-work amortization against
/// the worst-case 2⁷ candidate patterns.
const SUB_BATCH: usize = 8;

/// Chunks smaller than this verify individually — the fixed batch
/// overhead (R lifts, base-point fold, table normalization) only pays for
/// itself from a few signatures up.
const MIN_BATCH: usize = 4;

/// Bits per deterministic blinder. Soundness: a batch that is not
/// signature-wise valid survives the blinded equation with probability
/// ~2^−32 per transcript; the blinders are bound to the full batch
/// content (Fiat–Shamir over SHA-256), so an adversary must grind ~2^32
/// *distinct* batches — recomputing the transcript hash each time — to
/// fish for a single false accept, and a false accept admits one invalid
/// spend rather than forging a key. 32 bits keeps the per-item `wᵢ·Rᵢ`
/// ladder (the one per-signature cost that cannot share the Strauss
/// doubling chain) to 32 doublings; 48-bit blinders were measured to
/// spend ~30% more time there for soundness this chain does not need.
const BLIND_BITS: u32 = 32;

/// Verifies a batch of `(digest, signature, public key)` triples.
///
/// Returns `Ok(())` when every signature verifies, or `Err(i)` with the
/// index of the **first** triple whose individual
/// [`EcdsaPublicKey::verify_digest`] fails — the same accept/reject and
/// error-selection semantics as a sequential loop, which the chain's
/// deterministic validation relies on.
///
/// Internally the items are processed in fixed sub-batches of
/// `SUB_BATCH` (8). Each sub-batch checks one blinded equation
/// `Σ wᵢ·(uᵢG + vᵢQᵢ) = Σ wᵢεᵢRᵢ` via a shared Strauss MSM (GLV-split
/// coefficients, pubkey-coalesced tables, one batched field inversion and
/// one batched scalar inversion), where `Rᵢ` is the even-y lift of `rᵢ`
/// and the sign pattern `ε` is searched Gray-code-incrementally (ECDSA
/// does not transmit `R`'s parity). Any failure or degenerate case falls
/// back to per-signature verification of that sub-batch.
pub fn batch_verify(items: &[(&[u8; 32], &Signature, &EcdsaPublicKey)]) -> Result<(), usize> {
    for (chunk_idx, chunk) in items.chunks(SUB_BATCH).enumerate() {
        let ok = chunk.len() >= MIN_BATCH && sub_batch_holds(chunk);
        if !ok {
            let base = chunk_idx * SUB_BATCH;
            for (i, (digest, sig, pk)) in chunk.iter().enumerate() {
                if !pk.verify_digest(digest, sig) {
                    return Err(base + i);
                }
            }
        }
    }
    Ok(())
}

/// Deterministic per-item blinders: `w₀ = 1`, the rest are the low
/// [`BLIND_BITS`] of `SHA-256(seed ‖ i)` where `seed` hashes the whole
/// sub-batch transcript (domain-separated). Zero is remapped to 1 so no
/// item ever drops out of the equation.
fn blinders(chunk: &[(&[u8; 32], &Signature, &EcdsaPublicKey)]) -> Vec<u64> {
    let mut h = Sha256::new();
    h.update(b"bcwan/batch-verify/v1");
    for (digest, sig, pk) in chunk {
        h.update(*digest);
        h.update(&sig.to_bytes());
        h.update(&pk.to_bytes());
    }
    let seed = h.finalize();
    let mask = (1u64 << BLIND_BITS) - 1;
    let mut ws = Vec::with_capacity(chunk.len());
    ws.push(1u64);
    for i in 1..chunk.len() {
        let mut hi = Sha256::new();
        hi.update(&seed);
        hi.update(&(i as u32).to_be_bytes());
        let b = hi.finalize();
        let w = u64::from_be_bytes(b[..8].try_into().expect("8 bytes")) & mask;
        ws.push(if w == 0 { 1 } else { w });
    }
    ws
}

/// Batched modular inversion (Montgomery's trick): one
/// [`Scalar::invert_vartime`] plus 3 multiplications per element. All
/// inputs must be non-zero (the `Signature` invariant guarantees it for
/// `s`) and public: the only caller inverts the `s` of signatures being
/// verified.
fn batch_invert(vals: &[Scalar]) -> Vec<Scalar> {
    let mut prefix = Vec::with_capacity(vals.len());
    let mut acc = Scalar::ONE;
    for v in vals {
        prefix.push(acc);
        acc = acc.mul(v);
    }
    let mut inv = acc.invert_vartime();
    let mut out = vec![Scalar::ZERO; vals.len()];
    for i in (0..vals.len()).rev() {
        out[i] = prefix[i].mul(&inv);
        inv = inv.mul(&vals[i]);
    }
    out
}

/// Checks the blinded batch equation for one sub-batch. `false` means
/// "could not confirm" (invalid signature, unusual encoding, or any
/// degenerate intermediate) — the caller falls back to per-item verifies.
fn sub_batch_holds(chunk: &[(&[u8; 32], &Signature, &EcdsaPublicKey)]) -> bool {
    let t = chunk.len();
    let ws = blinders(chunk);

    // Scalar phase: uᵢ = zᵢ/sᵢ, vᵢ = rᵢ/sᵢ; fold e = Σ wᵢuᵢ and coalesce
    // Q-coefficients bᵢ = wᵢvᵢ by public key (blocks from the same wallet
    // share Q, collapsing the point-side work).
    let s_invs = batch_invert(&chunk.iter().map(|(_, sig, _)| sig.s).collect::<Vec<_>>());
    let mut e = Scalar::ZERO;
    let mut unique_q: Vec<(&AffinePoint, Scalar)> = Vec::with_capacity(t);
    for (i, (digest, sig, pk)) in chunk.iter().enumerate() {
        if sig.r.is_zero() || sig.s.is_zero() {
            return false;
        }
        let w = Scalar::from_u64(ws[i]);
        let u = Scalar::reduce_bytes_be(digest).mul(&s_invs[i]);
        let v = sig.r.mul(&s_invs[i]);
        e = e.add(&w.mul(&u));
        let b = w.mul(&v);
        match unique_q.iter_mut().find(|(q, _)| **q == pk.point) {
            Some((_, coeff)) => *coeff = coeff.add(&b),
            None => unique_q.push((&pk.point, b)),
        }
    }

    // Point phase: lift each Rᵢ (even y) and form the per-item blinded
    // products Pᵢ = wᵢ·Rᵢ; these cannot share a doubling chain, but their
    // doubles Dᵢ (the Gray-search increments) are normalized together with
    // all Q tables below in a single field inversion.
    let mut p_pts = Vec::with_capacity(t);
    for (i, (_, sig, _)) in chunk.iter().enumerate() {
        let r_fe = FieldElement::from_bytes_be(&sig.r.to_bytes_be()).expect("r < n < p");
        let Some(r_point) = AffinePoint::lift_x_even_y(r_fe) else {
            // x(R) not on the curve, or the true x was r + n: the per-item
            // fallback settles it.
            return false;
        };
        let p_i = small_mul(ws[i], &JacobianPoint::from_affine(&r_point));
        if p_i.is_infinity() {
            return false;
        }
        p_pts.push(p_i);
    }

    // One shared normalization: every unique-Q odd-multiple table plus all
    // Dᵢ = 2Pᵢ, then A = Σ bQ·Q + e·G in one Strauss loop: GLV halves over
    // the Q tables, e's 128-bit halves over the baked G tables.
    let mut to_norm: Vec<JacobianPoint> = Vec::with_capacity(unique_q.len() * HALF_TABLE_LEN + t);
    for (q, _) in &unique_q {
        to_norm.extend(odd_multiples(
            &JacobianPoint::from_affine(q),
            HALF_TABLE_LEN,
        ));
    }
    for p in &p_pts {
        to_norm.push(p.double());
    }
    let Some(normalized) = normalize_batch(&to_norm) else {
        return false;
    };
    let (q_tables, d_pts) = normalized.split_at(unique_q.len() * HALF_TABLE_LEN);
    let mut terms: Vec<AffineTerm> = Vec::with_capacity(unique_q.len() * 2 + 2);
    for (qi, (_, coeff)) in unique_q.iter().enumerate() {
        glv_terms(
            coeff,
            &q_tables[qi * HALF_TABLE_LEN..(qi + 1) * HALF_TABLE_LEN],
            &mut terms,
        );
    }
    terms.extend(base_terms(&e));
    let a = strauss_affine(&terms);

    // Sign search: S(ε) = Σ εᵢPᵢ must hit ±A for some pattern ε with
    // ε₀ = +1 (the global sign is absorbed by comparing x only: if
    // x(S) = x(A) then A = ±S, and −S corresponds to the complementary
    // pattern). Gray-code enumeration flips one εᵢ per candidate — a
    // single mixed addition of ∓Dᵢ.
    let mut s_acc = JacobianPoint::infinity();
    for p in &p_pts {
        s_acc = s_acc.add(p);
    }
    let x_matches = |s: &JacobianPoint| -> bool {
        if s.is_infinity() || a.is_infinity() {
            return s.is_infinity() && a.is_infinity();
        }
        s.x.mul(&a.z.sqr()) == a.x.mul(&s.z.sqr())
    };
    if x_matches(&s_acc) {
        return true;
    }
    let mut eps = [1i8; SUB_BATCH];
    for g in 1u32..(1u32 << (t - 1)) {
        // Reflected Gray code: candidate g flips item (trailing zeros + 1);
        // item 0 stays +1.
        let i = g.trailing_zeros() as usize + 1;
        let (dx, dy) = &d_pts[i];
        s_acc = if eps[i] == 1 {
            s_acc.add_mixed(dx, &dy.negate())
        } else {
            s_acc.add_mixed(dx, dy)
        };
        eps[i] = -eps[i];
        if x_matches(&s_acc) {
            return true;
        }
    }
    false
}

/// RFC 6979 §3.2 nonce derivation (HMAC-SHA256), with an extra counter so
/// the rare rejected candidates advance deterministically. Always returns
/// a value in `[1, n−1]`.
fn rfc6979_nonce(d: &Scalar, digest: &[u8; 32], extra: u32) -> Scalar {
    let x = d.to_bytes_be();
    let h1_bytes = Scalar::reduce_bytes_be(digest).to_bytes_be();

    let mut v = [0x01u8; 32];
    let mut k = [0x00u8; 32];

    // K = HMAC_K(V || sep || x || h1 [|| extra]), V = HMAC_K(V), for
    // sep = 0x00 then 0x01.
    let mut msg = [0u8; 32 + 1 + 32 + 32 + 4];
    msg[33..65].copy_from_slice(&x);
    msg[65..97].copy_from_slice(&h1_bytes);
    msg[97..].copy_from_slice(&extra.to_be_bytes());
    let len = if extra > 0 { msg.len() } else { 97 };
    for sep in [0x00, 0x01] {
        msg[..32].copy_from_slice(&v);
        msg[32] = sep;
        k = hmac_sha256(&k, &msg[..len]);
        v = hmac_sha256(&k, &v);
    }

    loop {
        v = hmac_sha256(&k, &v);
        // Same acceptance as the generic candidate < n check: strict parse
        // plus non-zero.
        if let Some(candidate) = Scalar::from_bytes_be(&v) {
            if !candidate.is_zero() {
                return candidate;
            }
        }
        // K = HMAC_K(V || 0x00), V = HMAC_K(V)
        msg[..32].copy_from_slice(&v);
        msg[32] = 0x00;
        k = hmac_sha256(&k, &msg[..33]);
        v = hmac_sha256(&k, &v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::BigUint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2018)
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut r = rng();
        let private = EcdsaPrivateKey::generate(&mut r);
        let public = private.public_key();
        let msg = b"pay 10 units to gateway";
        let sig = private.sign(msg);
        assert!(public.verify(msg, &sig));
        assert!(!public.verify(b"pay 1000 units to gateway", &sig));
    }

    #[test]
    fn deterministic_signatures() {
        let mut r = rng();
        let private = EcdsaPrivateKey::generate(&mut r);
        let sig1 = private.sign(b"same message");
        let sig2 = private.sign(b"same message");
        assert_eq!(
            sig1.to_bytes(),
            sig2.to_bytes(),
            "RFC 6979 is deterministic"
        );
    }

    #[test]
    fn rfc6979_test_vector() {
        // RFC 6979 A.2.5-style vector for secp256k1 (community standard):
        // key = 1, message "Satoshi Nakamoto".
        let private = EcdsaPrivateKey::from_bytes(
            &crate::hex::decode("0000000000000000000000000000000000000000000000000000000000000001")
                .unwrap(),
        )
        .unwrap();
        let sig = private.sign(b"Satoshi Nakamoto");
        let bytes = sig.to_bytes();
        assert_eq!(
            crate::hex::encode(&bytes[..32]),
            "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8"
        );
        assert_eq!(
            crate::hex::encode(&bytes[32..]),
            "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5"
        );
    }

    #[test]
    fn wrong_public_key_rejects() {
        let mut r = rng();
        let alice = EcdsaPrivateKey::generate(&mut r);
        let eve = EcdsaPrivateKey::generate(&mut r);
        let sig = alice.sign(b"message");
        assert!(!eve.public_key().verify(b"message", &sig));
    }

    #[test]
    fn signature_serialization_round_trip() {
        let mut r = rng();
        let private = EcdsaPrivateKey::generate(&mut r);
        let sig = private.sign(b"serialize me");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(sig, parsed);
        assert!(Signature::from_bytes(&[0u8; 64]).is_err()); // r = s = 0
        assert!(Signature::from_bytes(&[1u8; 63]).is_err()); // bad length
        assert!(Signature::from_bytes(&[0xffu8; 64]).is_err()); // r, s >= n
    }

    #[test]
    fn key_serialization_round_trip() {
        let mut r = rng();
        let private = EcdsaPrivateKey::generate(&mut r);
        let restored = EcdsaPrivateKey::from_bytes(&private.to_bytes()).unwrap();
        assert_eq!(private, restored);
        let public = private.public_key();
        let restored_pub = EcdsaPublicKey::from_bytes(&public.to_bytes()).unwrap();
        assert_eq!(public, restored_pub);
    }

    #[test]
    fn invalid_keys_rejected() {
        assert!(EcdsaPrivateKey::from_bytes(&[0u8; 32]).is_err()); // zero
        assert!(EcdsaPrivateKey::from_bytes(&[0xffu8; 32]).is_err()); // >= n
        assert!(EcdsaPrivateKey::from_bytes(&[1u8; 31]).is_err()); // short
        assert!(EcdsaPublicKey::from_bytes(&[0u8; 33]).is_err());
    }

    #[test]
    fn low_s_normalization() {
        let mut r = rng();
        let private = EcdsaPrivateKey::generate(&mut r);
        for i in 0..8u8 {
            let sig = private.sign(&[i]);
            assert!(!sig.s.is_high(), "signature must be low-S");
        }
    }

    #[test]
    fn key_generation_preserves_rng_stream() {
        // The Scalar-based rejection sampler must consume the RNG exactly
        // like BigUint::random_below did, so every seeded wallet in the
        // simulator keeps its key. Pin against the oracle reimplementation.
        let n =
            BigUint::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
                .unwrap();
        for seed in [0u64, 1, 2018, 0xdead] {
            let mut r1 = StdRng::seed_from_u64(seed);
            let got = EcdsaPrivateKey::generate(&mut r1);
            let mut r2 = StdRng::seed_from_u64(seed);
            let want = loop {
                let d = BigUint::random_below(&mut r2, &n);
                if !d.is_zero() {
                    break d;
                }
            };
            assert_eq!(BigUint::from_bytes_be(&got.to_bytes()), want, "seed {seed}");
        }
    }

    #[test]
    fn p_minus_n_constant_matches_oracle() {
        let p =
            BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        let n =
            BigUint::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
                .unwrap();
        let diff = p.sub(&n);
        let bytes = diff.to_bytes_be_padded(32).unwrap();
        let mut limbs = [0u64; 4];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            limbs[3 - i] = u64::from_be_bytes(chunk.try_into().unwrap());
        }
        assert_eq!(limbs, P_MINUS_N);
    }

    #[test]
    fn batch_accepts_valid_signatures() {
        let mut r = rng();
        let keys: Vec<EcdsaPrivateKey> =
            (0..3).map(|_| EcdsaPrivateKey::generate(&mut r)).collect();
        let pubs: Vec<EcdsaPublicKey> = keys.iter().map(|k| k.public_key()).collect();
        let mut digests = Vec::new();
        let mut sigs = Vec::new();
        for i in 0..20usize {
            let digest = sha256(&i.to_le_bytes());
            sigs.push(keys[i % 3].sign_digest(&digest));
            digests.push(digest);
        }
        let items: Vec<(&[u8; 32], &Signature, &EcdsaPublicKey)> = (0..20)
            .map(|i| (&digests[i], &sigs[i], &pubs[i % 3]))
            .collect();
        assert_eq!(batch_verify(&items), Ok(()));
    }

    #[test]
    fn batch_names_first_bad_index() {
        let mut r = rng();
        let key = EcdsaPrivateKey::generate(&mut r);
        let public = key.public_key();
        let mut digests = Vec::new();
        let mut sigs = Vec::new();
        for i in 0..12usize {
            let digest = sha256(&i.to_le_bytes());
            sigs.push(key.sign_digest(&digest));
            digests.push(digest);
        }
        // Corrupt index 5 (valid encoding, wrong digest) and index 9.
        sigs[5] = key.sign_digest(&sha256(b"other"));
        sigs[9] = key.sign_digest(&sha256(b"another"));
        let items: Vec<(&[u8; 32], &Signature, &EcdsaPublicKey)> =
            (0..12).map(|i| (&digests[i], &sigs[i], &public)).collect();
        assert_eq!(batch_verify(&items), Err(5));
    }

    #[test]
    fn batch_empty_and_tiny() {
        assert_eq!(batch_verify(&[]), Ok(()));
        let mut r = rng();
        let key = EcdsaPrivateKey::generate(&mut r);
        let public = key.public_key();
        let digest = sha256(b"solo");
        let sig = key.sign_digest(&digest);
        assert_eq!(batch_verify(&[(&digest, &sig, &public)]), Ok(()));
        let bad = key.sign_digest(&sha256(b"not solo"));
        assert_eq!(batch_verify(&[(&digest, &bad, &public)]), Err(0));
    }

    #[test]
    fn debug_hides_private_scalar() {
        let mut r = rng();
        let private = EcdsaPrivateKey::generate(&mut r);
        assert_eq!(format!("{private:?}"), "EcdsaPrivateKey { .. }");
    }
}
