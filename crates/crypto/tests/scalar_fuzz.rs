//! Randomized equivalence tests for the Montgomery `Scalar` type and for
//! signature verification.
//!
//! `Scalar` replaced `BigUint` arithmetic mod `n` on the ECDSA hot path;
//! like the field layer it is a pure speedup, so every operation must be
//! bit-identical to the generic big-integer oracle — including at the
//! awkward spots: values adjacent to `n`, to `n/2` (the low-S boundary)
//! and around limb carries. The variable-time inverse must equal the
//! Fermat one. Single verification must give a textbook double-and-add
//! verifier's verdict on every signature and on its mutations, and batch
//! verification must agree with the per-signature verdicts on every input
//! and name the first bad index when it rejects.

use bcwan_crypto::ecdsa::{batch_verify, EcdsaPrivateKey, EcdsaPublicKey, Signature};
use bcwan_crypto::field::FieldElement;
use bcwan_crypto::secp256k1::{AffinePoint, JacobianPoint, GENERATOR};
use bcwan_crypto::sha256::sha256;
use bcwan_crypto::{BigUint, Scalar};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn n() -> BigUint {
    BigUint::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141").unwrap()
}

fn to_big(s: &Scalar) -> BigUint {
    BigUint::from_bytes_be(&s.to_bytes_be())
}

fn from_big(v: &BigUint) -> Scalar {
    let bytes: [u8; 32] = v
        .to_bytes_be_padded(32)
        .expect("256-bit value")
        .try_into()
        .expect("32 bytes");
    Scalar::reduce_bytes_be(&bytes)
}

/// Random 256-bit values, biased toward the interesting boundaries: near
/// `n`, near `n/2`, near powers of two (limb carries), tiny, and huge.
fn interesting_values(rng: &mut StdRng, rounds: usize) -> Vec<BigUint> {
    let n = n();
    let half = n.shr(1);
    let mut out = vec![
        BigUint::zero(),
        BigUint::one(),
        n.sub(&BigUint::one()),
        n.clone(),
        n.add(&BigUint::one()),
        half.clone(),
        half.add(&BigUint::one()),
    ];
    // Limb boundaries: 2^64k ± small.
    for k in 1..4usize {
        let pow = BigUint::one().shl(64 * k);
        out.push(pow.sub(&BigUint::one()));
        out.push(pow.clone());
        out.push(pow.add(&BigUint::one()));
    }
    for _ in 0..rounds {
        let mut buf = [0u8; 32];
        rng.fill_bytes(&mut buf);
        let v = BigUint::from_bytes_be(&buf);
        // Half the time, squeeze the value into a ±4 window around n.
        if rng.gen_bool(0.5) {
            let delta = BigUint::from_u64(rng.gen_range(0..8));
            let near = if rng.gen_bool(0.5) {
                n.add(&delta)
            } else {
                n.sub(&delta)
            };
            out.push(near);
        }
        out.push(v);
    }
    out
}

#[test]
fn add_sub_mul_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5ca1a);
    let n = n();
    let values = interesting_values(&mut rng, 60);
    for (i, a_big) in values.iter().enumerate() {
        let b_big = &values[(i * 7 + 3) % values.len()];
        let a_red = a_big.rem(&n);
        let b_red = b_big.rem(&n);
        let a = from_big(a_big);
        let b = from_big(b_big);
        assert_eq!(to_big(&a), a_red, "reduce diverged for case {i}");
        assert_eq!(to_big(&a.add(&b)), a_red.add_mod(&b_red, &n), "add {i}");
        assert_eq!(to_big(&a.sub(&b)), a_red.sub_mod(&b_red, &n), "sub {i}");
        assert_eq!(to_big(&a.mul(&b)), a_red.mul_mod(&b_red, &n), "mul {i}");
        assert_eq!(to_big(&a.sqr()), a_red.mul_mod(&a_red, &n), "sqr {i}");
        assert_eq!(
            to_big(&a.negate()),
            BigUint::zero().sub_mod(&a_red, &n),
            "negate {i}"
        );
    }
}

#[test]
fn invert_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(0x1d1d);
    let n = n();
    for (i, v) in interesting_values(&mut rng, 30).iter().enumerate() {
        let red = v.rem(&n);
        let s = from_big(v);
        if red.is_zero() {
            assert!(s.invert().is_zero(), "0⁻¹ convention, case {i}");
            continue;
        }
        let oracle = red.mod_inverse(&n).expect("n prime, value non-zero");
        assert_eq!(to_big(&s.invert()), oracle, "invert {i}");
        assert_eq!(s.mul(&s.invert()), Scalar::ONE, "invert round-trip {i}");
    }
}

#[test]
fn invert_vartime_matches_fermat_and_oracle() {
    let mut rng = StdRng::seed_from_u64(0x1a7e);
    let n = n();
    let mut values = interesting_values(&mut rng, 40);
    // Powers of two, and long runs of trailing zeros under random odd
    // heads and below n: the shapes that stretch safegcd's zero-skipping
    // divsteps.
    for k in 0..256 {
        values.push(BigUint::one().shl(k));
        values.push(n.sub(&BigUint::one().shl(k)));
        let mut head = [0u8; 8];
        rng.fill_bytes(&mut head);
        let mut odd = BigUint::from_bytes_be(&head);
        odd.set_bit(0);
        values.push(odd.shl(k).rem(&n));
    }
    for (i, v) in values.iter().enumerate() {
        let red = v.rem(&n);
        let s = from_big(v);
        let fast = s.invert_vartime();
        assert_eq!(fast, s.invert(), "invert_vartime vs Fermat, case {i}");
        if red.is_zero() {
            assert!(fast.is_zero(), "0⁻¹ convention, case {i}");
            continue;
        }
        let oracle = red.mod_inverse(&n).expect("n prime, value non-zero");
        assert_eq!(to_big(&fast), oracle, "invert_vartime {i}");
    }
}

#[test]
fn strict_parse_and_is_high_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0xb0b);
    let n = n();
    let half = n.sub(&BigUint::one()).shr(1);
    for (i, v) in interesting_values(&mut rng, 40).iter().enumerate() {
        let bytes: [u8; 32] = match v.to_bytes_be_padded(32) {
            Some(b) => b.try_into().unwrap(),
            None => continue, // > 256 bits cannot occur here
        };
        let parsed = Scalar::from_bytes_be(&bytes);
        assert_eq!(parsed.is_some(), *v < n, "strict parse {i}");
        if let Some(s) = parsed {
            assert_eq!(s.is_high(), *v > half, "is_high {i} ({v:?})");
            assert_eq!(s.to_bytes_be(), bytes, "round trip {i}");
        }
    }
}

/// Builds `count` valid `(digest, signature, pubkey)` triples from a few
/// wallets (repeated keys exercise the batch path's pubkey coalescing).
fn valid_batch(
    rng: &mut StdRng,
    count: usize,
    wallets: usize,
) -> (Vec<[u8; 32]>, Vec<Signature>, Vec<EcdsaPublicKey>) {
    let keys: Vec<EcdsaPrivateKey> = (0..wallets)
        .map(|_| EcdsaPrivateKey::generate(rng))
        .collect();
    let mut digests = Vec::with_capacity(count);
    let mut sigs = Vec::with_capacity(count);
    let mut pubs = Vec::with_capacity(count);
    for i in 0..count {
        let mut msg = [0u8; 16];
        rng.fill_bytes(&mut msg);
        let digest = sha256(&msg);
        let key = &keys[i % wallets];
        sigs.push(key.sign_digest(&digest));
        pubs.push(key.public_key());
        digests.push(digest);
    }
    (digests, sigs, pubs)
}

#[test]
fn batch_agrees_with_sequential_verdicts() {
    let mut rng = StdRng::seed_from_u64(0xba7c);
    for round in 0..12 {
        let count = 1 + (round * 5) % 23; // 1..23, crosses sub-batch sizes
        let wallets = 1 + round % 4;
        let (digests, mut sigs, pubs) = valid_batch(&mut rng, count, wallets);

        // Corrupt 0–3 signatures: replace with a signature over a different
        // digest (valid encoding, invalid for its slot).
        let corruptions = round % 4;
        let mut corrupted = Vec::new();
        for c in 0..corruptions {
            let idx = rng.gen_range(0..count);
            if !corrupted.contains(&idx) {
                let other = EcdsaPrivateKey::generate(&mut rng);
                sigs[idx] = other.sign_digest(&sha256(&[c as u8, 0xfe]));
                corrupted.push(idx);
            }
        }
        corrupted.sort_unstable();

        let items: Vec<(&[u8; 32], &Signature, &EcdsaPublicKey)> = (0..count)
            .map(|i| (&digests[i], &sigs[i], &pubs[i]))
            .collect();

        // The reference verdict: sequential per-signature verification.
        let first_bad = items.iter().position(|(d, s, p)| !p.verify_digest(d, s));

        let got = batch_verify(&items);
        match first_bad {
            None => assert_eq!(got, Ok(()), "round {round}: all valid"),
            Some(i) => assert_eq!(
                got,
                Err(i),
                "round {round}: first bad index (corrupted {corrupted:?})"
            ),
        }
    }
}

#[test]
fn batch_rejects_swapped_digests() {
    // Two valid signatures with their digests exchanged: each signature is
    // individually valid for the *other* slot, so naive (unblinded)
    // cancellation is the classic attack shape. The first slot must fail.
    let mut rng = StdRng::seed_from_u64(0x5a5a);
    let (digests, mut sigs, pubs) = valid_batch(&mut rng, 8, 1);
    sigs.swap(2, 3);
    let items: Vec<(&[u8; 32], &Signature, &EcdsaPublicKey)> =
        (0..8).map(|i| (&digests[i], &sigs[i], &pubs[i])).collect();
    assert_eq!(batch_verify(&items), Err(2));
}

/// Textbook ECDSA verification with the Fermat inverse and double-and-add
/// products: the oracle for `verify_digest`.
fn reference_verdict(q: &AffinePoint, digest: &[u8; 32], sig: &[u8; 64]) -> bool {
    let scalar = |b: &[u8]| Scalar::from_bytes_be(b.try_into().expect("32 bytes"));
    let (Some(r), Some(s)) = (scalar(&sig[..32]), scalar(&sig[32..])) else {
        return false;
    };
    if r.is_zero() || s.is_zero() {
        return false;
    }
    let w = s.invert();
    let z = Scalar::reduce_bytes_be(digest);
    let g = JacobianPoint::from_affine(&GENERATOR);
    let q = JacobianPoint::from_affine(q);
    match g
        .scalar_mul(&z.mul(&w))
        .add(&q.scalar_mul(&r.mul(&w)))
        .to_affine()
    {
        AffinePoint::Infinity => false,
        AffinePoint::Coords { x, .. } => Scalar::reduce_bytes_be(&x.to_bytes_be()) == r,
    }
}

/// Signatures checked against the reference: CI runs this file in release
/// at the full count; the debug tier-1 run takes a twentieth.
const VERIFY_TRIPLES: usize = if cfg!(debug_assertions) { 500 } else { 10_000 };

#[test]
fn verify_matches_double_and_add_reference() {
    let mut rng = StdRng::seed_from_u64(0x7e51f);
    let n_bytes: [u8; 32] = n().to_bytes_be_padded(32).unwrap().try_into().unwrap();
    let mut accepted = 0;
    for i in 0..VERIFY_TRIPLES {
        let key = EcdsaPrivateKey::generate(&mut rng);
        let pk = key.public_key();
        let q = AffinePoint::from_compressed(&pk.to_bytes()).expect("valid key");
        let mut digest = [0u8; 32];
        rng.fill_bytes(&mut digest);
        let sig = key.sign_digest(&digest).to_bytes();
        // The signature as made, then one mutation in turn: a flipped
        // digest bit, r and s swapped, s negated (high-S, still valid),
        // a digest ≡ 0 (mod n).
        let (mut d2, mut s2) = (digest, sig);
        match i % 4 {
            0 => d2[rng.gen_range(0..32)] ^= 1u8 << rng.gen_range(0..8u32),
            1 => {
                s2[..32].copy_from_slice(&sig[32..]);
                s2[32..].copy_from_slice(&sig[..32]);
            }
            2 => {
                let s = Scalar::from_bytes_be(sig[32..].try_into().unwrap()).unwrap();
                s2[32..].copy_from_slice(&s.negate().to_bytes_be());
            }
            _ => d2 = if i % 8 == 3 { [0; 32] } else { n_bytes },
        }
        for (digest, sig) in [(&digest, &sig), (&d2, &s2)] {
            let want = reference_verdict(&q, digest, sig);
            let parsed = Signature::from_bytes(sig).expect("r, s in [1, n−1]");
            assert_eq!(
                pk.verify_digest(digest, &parsed),
                want,
                "triple {i}, mutation {}",
                i % 4
            );
            accepted += usize::from(want);
        }
    }
    // Every original and every high-S twin verifies; the other mutations
    // do not.
    assert_eq!(accepted, VERIFY_TRIPLES + VERIFY_TRIPLES / 4);
}

#[test]
fn verify_accepts_a_point_whose_x_is_r_plus_n() {
    // A point R with x(R) in [n, p) signs as r = x − n, and only the
    // second x-candidate of verification (r + n) matches it. Build R from
    // x = r + n, pick s and z, and recover the one key the signature
    // verifies under: Q = r⁻¹·(s·R − z·G). Both ends of the range: r small,
    // and r just below p − n, where x = r + n is just below p.
    let n = n();
    let p = BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
        .unwrap();
    let p_minus_n = p.sub(&n);
    let g = JacobianPoint::from_affine(&GENERATOR);
    let mut rng = StdRng::seed_from_u64(0x4a11a5);
    let mut made = 0;
    for start in [BigUint::one(), p_minus_n.sub(&BigUint::from_u64(64))] {
        let mut r_big = start;
        let (r_pt, r_big) = loop {
            let x = FieldElement::from_biguint(&r_big.add(&n)).expect("r + n < p");
            if let Some(y) = x.sqr().mul(&x).add(&FieldElement::from_u64(7)).sqrt() {
                break (
                    AffinePoint::Coords {
                        x,
                        y: y.normalize(),
                    },
                    r_big,
                );
            }
            r_big = r_big.add(&BigUint::one());
        };
        assert!(r_big < p_minus_n);
        let r = from_big(&r_big);
        let mut z_bytes = [0u8; 32];
        rng.fill_bytes(&mut z_bytes);
        let z = Scalar::reduce_bytes_be(&z_bytes);
        let s = Scalar::from_u64(rng.gen_range(1..u64::MAX));
        let q = JacobianPoint::from_affine(&r_pt)
            .scalar_mul(&s)
            .add(&g.scalar_mul(&z).neg())
            .scalar_mul(&r.invert())
            .to_affine();
        let pk = EcdsaPublicKey::from_bytes(&q.to_compressed()).unwrap();
        let mut sig_bytes = [0u8; 64];
        sig_bytes[..32].copy_from_slice(&r.to_bytes_be());
        sig_bytes[32..].copy_from_slice(&s.to_bytes_be());
        let sig = Signature::from_bytes(&sig_bytes).unwrap();
        let digest = z.to_bytes_be();
        assert!(pk.verify_digest(&digest, &sig), "r = {r_big:?}");
        assert!(reference_verdict(&q, &digest, &sig_bytes));
        // The r-only candidate misses: x(R) itself is not r.
        let AffinePoint::Coords { x, .. } = r_pt else {
            unreachable!()
        };
        assert_ne!(x.to_biguint(), r_big);
        // A neighbouring r is refused.
        let mut wrong = sig_bytes;
        wrong[..32].copy_from_slice(&r.add(&Scalar::ONE).to_bytes_be());
        assert!(!pk.verify_digest(&digest, &Signature::from_bytes(&wrong).unwrap()));
        // In a batch, the even-y lift of r is not R: the sub-batch falls
        // back to per-signature verification and still accepts.
        let (digests, sigs, pubs) = valid_batch(&mut rng, 7, 2);
        let mut items: Vec<(&[u8; 32], &Signature, &EcdsaPublicKey)> =
            (0..7).map(|i| (&digests[i], &sigs[i], &pubs[i])).collect();
        items.insert(3, (&digest, &sig, &pk));
        assert_eq!(batch_verify(&items), Ok(()));
        made += 1;
    }
    assert_eq!(made, 2);
}
