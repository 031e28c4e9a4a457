//! Randomized equivalence tests for the lazily reduced secp256k1 field.
//!
//! [`FieldElement`] is a pure speedup over the generic `BigUint` modular
//! arithmetic it replaced inside point operations: for every input, every
//! operation must produce bit-identical results to the schoolbook oracle.
//! These tests drive add/sub/mul/sqr/invert/sqrt over seeded random
//! elements plus the edge cases that break carry-fold reductions — 0, 1,
//! `p−1`, values just below `p`, and limb-boundary patterns like
//! `2^64 − 1` / `2^192` — mirroring the `fastpath_fuzz.rs` pattern used
//! for the Montgomery layer. The 5×52 limbs are only reduced lazily, so
//! the suite also runs chains of carry-free operations up to and past the
//! magnitude bounds, and sends non-canonical encodings of 0 and of values
//! in `[p, 2^256)` through every observation of a canonical value. A
//! fixed-vector test pins known secp256k1 points (G, 2G, 3G) through the
//! arithmetic end to end.

use bcwan_crypto::field::FieldElement;
use bcwan_crypto::secp256k1::{scalar_mul_base, AffinePoint};
use bcwan_crypto::{BigUint, Scalar};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn p() -> BigUint {
    BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f").unwrap()
}

fn random_element(rng: &mut StdRng) -> BigUint {
    let mut buf = [0u8; 32];
    rng.fill_bytes(&mut buf);
    // Reduce into the field; the explicit edge list covers values near p.
    BigUint::from_bytes_be(&buf).add_mod(&BigUint::zero(), &p())
}

/// Edge values that stress the reduction: identities, the top of the
/// field, and every limb boundary (the carry fold crosses 64-bit lanes).
fn edge_elements() -> Vec<BigUint> {
    let p = p();
    let mut edges = vec![
        BigUint::zero(),
        BigUint::one(),
        BigUint::from_u64(2),
        p.sub(&BigUint::one()),           // p − 1
        p.sub(&BigUint::from_u64(2)),     // p − 2
        p.sub(&BigUint::from_u64(0x3d1)), // p − 977: folds to ±2^32 territory
        BigUint::from_u64(u64::MAX),      // limb 0 saturated
        BigUint::from_u64(0x1_0000_03D1), // the fold constant itself
    ];
    for limb in 1..4usize {
        edges.push(BigUint::one().shl(64 * limb)); // 2^64, 2^128, 2^192
        edges.push(BigUint::one().shl(64 * limb).sub(&BigUint::one()));
    }
    edges
}

fn fe(v: &BigUint) -> FieldElement {
    FieldElement::from_biguint(v).expect("value < p")
}

/// Pairs to fuzz: random ⨯ random, plus every edge against randoms and
/// every edge against every edge.
fn operand_pairs(rng: &mut StdRng, rounds: usize) -> Vec<(BigUint, BigUint)> {
    let mut pairs = Vec::new();
    for _ in 0..rounds {
        pairs.push((random_element(rng), random_element(rng)));
    }
    let edges = edge_elements();
    for a in &edges {
        pairs.push((a.clone(), random_element(rng)));
        for b in &edges {
            pairs.push((a.clone(), b.clone()));
        }
    }
    pairs
}

#[test]
fn add_sub_mul_match_oracle() {
    let p = p();
    let mut rng = StdRng::seed_from_u64(0xf1e1d);
    for (i, (a, b)) in operand_pairs(&mut rng, 300).into_iter().enumerate() {
        let (fa, fb) = (fe(&a), fe(&b));
        assert_eq!(
            fa.add(&fb).to_biguint(),
            a.add_mod(&b, &p),
            "case {i}: add diverged for a={} b={}",
            a.to_hex(),
            b.to_hex()
        );
        assert_eq!(
            fa.sub(&fb).to_biguint(),
            a.sub_mod(&b, &p),
            "case {i}: sub diverged for a={} b={}",
            a.to_hex(),
            b.to_hex()
        );
        assert_eq!(
            fa.mul(&fb).to_biguint(),
            a.mul_mod(&b, &p),
            "case {i}: mul diverged for a={} b={}",
            a.to_hex(),
            b.to_hex()
        );
    }
}

#[test]
fn sqr_double_negate_match_oracle() {
    let p = p();
    let mut rng = StdRng::seed_from_u64(0x5c0a);
    let mut cases = edge_elements();
    for _ in 0..300 {
        cases.push(random_element(&mut rng));
    }
    for a in cases {
        let fa = fe(&a);
        assert_eq!(
            fa.sqr().to_biguint(),
            a.mul_mod(&a, &p),
            "sqr diverged for {}",
            a.to_hex()
        );
        assert_eq!(
            fa.double().to_biguint(),
            a.add_mod(&a, &p),
            "double diverged for {}",
            a.to_hex()
        );
        assert_eq!(
            fa.negate().to_biguint(),
            BigUint::zero().sub_mod(&a, &p),
            "negate diverged for {}",
            a.to_hex()
        );
    }
}

#[test]
fn invert_matches_oracle() {
    let p = p();
    let mut rng = StdRng::seed_from_u64(0x1af);
    let mut cases = edge_elements();
    for _ in 0..60 {
        cases.push(random_element(&mut rng));
    }
    for a in cases {
        let fa = fe(&a);
        let inv = fa.invert();
        match a.mod_inverse(&p) {
            Some(oracle) => {
                assert_eq!(
                    inv.to_biguint(),
                    oracle,
                    "invert diverged for {}",
                    a.to_hex()
                );
                assert_eq!(fa.mul(&inv), FieldElement::ONE);
            }
            // Only zero is non-invertible mod a prime; the chain maps it to
            // zero and callers guard it.
            None => {
                assert!(a.is_zero());
                assert!(inv.is_zero());
            }
        }
    }
}

#[test]
fn sqrt_matches_oracle() {
    let p = p();
    // (p + 1) / 4 — the oracle exponent.
    let exp = p.add(&BigUint::one()).shr(2);
    let mut rng = StdRng::seed_from_u64(0x5a11);
    let mut cases = edge_elements();
    for _ in 0..60 {
        cases.push(random_element(&mut rng));
    }
    for a in cases {
        let candidate = a.mod_pow(&exp, &p);
        let is_qr = candidate.mul_mod(&candidate, &p) == a;
        match fe(&a).sqrt() {
            Some(r) => {
                assert!(
                    is_qr,
                    "sqrt returned a root for a non-residue {}",
                    a.to_hex()
                );
                assert_eq!(
                    r.to_biguint(),
                    candidate,
                    "sqrt diverged for {}",
                    a.to_hex()
                );
                assert_eq!(r.sqr(), fe(&a));
            }
            None => assert!(!is_qr, "sqrt missed a residue {}", a.to_hex()),
        }
    }
}

#[test]
fn mixed_expression_matches_oracle() {
    // A composite expression exercising carry interactions between ops:
    // r = (a·b + a² − b)⁻¹ · a, checked against the oracle step by step.
    let p = p();
    let mut rng = StdRng::seed_from_u64(0xc0ffee);
    for round in 0..80 {
        let a = random_element(&mut rng);
        let b = random_element(&mut rng);
        let (fa, fb) = (fe(&a), fe(&b));
        let t = fa.mul(&fb).add(&fa.sqr()).sub(&fb);
        let t_oracle = a
            .mul_mod(&b, &p)
            .add_mod(&a.mul_mod(&a, &p), &p)
            .sub_mod(&b, &p);
        assert_eq!(
            t.to_biguint(),
            t_oracle,
            "round {round}: expression diverged"
        );
        if let Some(inv_oracle) = t_oracle.mod_inverse(&p) {
            assert_eq!(
                t.invert().mul(&fa).to_biguint(),
                inv_oracle.mul_mod(&a, &p),
                "round {round}: inverse expression diverged"
            );
        }
    }
}

#[test]
fn byte_round_trip_rejects_unreduced() {
    // p itself and p + k must be rejected by the strict parser.
    let p = p();
    for k in [0u64, 1, 977] {
        let v = p.add(&BigUint::from_u64(k));
        if let Some(bytes) = v.to_bytes_be_padded(32) {
            let arr: [u8; 32] = bytes.as_slice().try_into().unwrap();
            assert!(
                FieldElement::from_bytes_be(&arr).is_none(),
                "accepted unreduced value p+{k}"
            );
        }
    }
    // Canonical values round-trip bit-identically.
    let mut rng = StdRng::seed_from_u64(0xbe5);
    for _ in 0..50 {
        let a = random_element(&mut rng);
        let fa = fe(&a);
        assert_eq!(FieldElement::from_bytes_be(&fa.to_bytes_be()), Some(fa));
    }
}

/// Raw 5×52 limbs as a big integer (no reduction).
fn limbs_value(n: &[u64; 5]) -> BigUint {
    n.iter().rev().fold(BigUint::zero(), |acc, &l| {
        acc.shl(52).add(&BigUint::from_u64(l))
    })
}

#[test]
fn branchless_cond_sub_matches_branchy_reference() {
    use bcwan_crypto::field_core::{
        fe_normalize, fe_normalize_weak, fe_normalizes_to_zero, fe_normalizes_to_zero_var, FOLD,
        M48, M52, MAX_MAG, P,
    };

    // The obvious branchy normalization the constant-time one replaces:
    // carry and fold until the top limb fits, then subtract p while the
    // value is ≥ p.
    fn branchy(n: [u64; 5]) -> [u64; 5] {
        let mut t = n;
        loop {
            for i in 0..4 {
                t[i + 1] += t[i] >> 52;
                t[i] &= M52;
            }
            let x = t[4] >> 48;
            if x == 0 {
                break;
            }
            t[4] &= M48;
            t[0] += x * FOLD;
        }
        // t ≥ p: equal to p, or above it at the top differing limb.
        while (0..5)
            .rev()
            .find(|&i| t[i] != P[i])
            .is_none_or(|i| t[i] > P[i])
        {
            let mut borrow = 0;
            for i in 0..5 {
                let width = if i == 4 { 48 } else { 52 };
                let d = (t[i] | 1 << width) - P[i] - borrow;
                borrow = u64::from(d >> width == 0);
                t[i] = d & ((1 << width) - 1);
            }
        }
        t
    }

    // Limb patterns straddling every decision boundary at the largest
    // magnitude normalization accepts: p − 1 (keep), p (subtract to
    // zero), p + 1, 2p, limbs that differ from p's only in one place,
    // all-ones limbs (2^256 − 1), and every limb at its magnitude bound.
    let bound = |m: u64| {
        [
            2 * m * M52,
            2 * m * M52,
            2 * m * M52,
            2 * m * M52,
            2 * m * M48,
        ]
    };
    let mut cases: Vec<[u64; 5]> = vec![
        [0; 5],
        [1, 0, 0, 0, 0],
        P,
        [P[0] - 1, P[1], P[2], P[3], P[4]],
        [P[0] + 1, P[1], P[2], P[3], P[4]],
        P.map(|l| 2 * l),
        [P[0], P[1] - 1, P[2], P[3], P[4]],
        [P[0], P[1], P[2], P[3], P[4] - 1],
        [M52, M52, M52, M52, M48],
        [0, M52, M52, M52, M48],
        [M52, 0, M52, M52, M48],
        [M52, M52, M52, M52, 0],
        bound(1),
        bound(u64::from(MAX_MAG)),
    ];
    let mut rng = StdRng::seed_from_u64(0xcd5);
    for _ in 0..500 {
        // Random limbs under a random magnitude up to the maximum.
        let m = 1 + rng.next_u64() % u64::from(MAX_MAG);
        let limbs = bound(m).map(|b| rng.next_u64() % (b + 1));
        cases.push(limbs);
        // Bias toward the boundary: the same low limbs with the upper
        // limbs pinned to p's, so only the low limbs decide.
        cases.push([limbs[0] & M52, limbs[1] & M52, P[2], P[3], P[4]]);
        cases.push([limbs[0] & M52, P[1], P[2], P[3], P[4]]);
    }
    let p = p();
    for r in cases {
        let want = limbs_value(&r).rem(&p);
        assert_eq!(
            fe_normalize(&r),
            branchy(r),
            "normalize diverged for {r:x?}"
        );
        assert_eq!(
            limbs_value(&fe_normalize(&r)),
            want,
            "normalize value {r:x?}"
        );
        let weak = fe_normalize_weak(&r);
        assert!(weak[..4].iter().all(|&l| l <= M52) && weak[4] >> 49 == 0);
        assert_eq!(
            limbs_value(&weak).rem(&p),
            want,
            "weak normalize value {r:x?}"
        );
        assert_eq!(
            fe_normalizes_to_zero(&r),
            want.is_zero(),
            "zero test {r:x?}"
        );
        assert_eq!(
            fe_normalizes_to_zero_var(&r),
            want.is_zero(),
            "zero test {r:x?}"
        );
    }
}

#[test]
fn carry_free_chains_up_to_and_past_the_magnitude_bounds() {
    use bcwan_crypto::field_core::{MAX_MAG, MUL_MAX_MAG};
    let p = p();
    let mut rng = StdRng::seed_from_u64(0x3a6);
    // p − 1 has every limb near the top of its range and 0's negation has
    // every limb at 2·(m + 1)·p's: the worst cases for carry-free growth.
    let mut seeds = vec![fe(&p.sub(&BigUint::one())), FieldElement::ZERO.negate()];
    for _ in 0..40 {
        seeds.push(fe(&random_element(&mut rng)));
    }
    for (i, seed) in seeds.iter().enumerate() {
        let other = fe(&random_element(&mut rng));
        let (mut a, mut want) = (*seed, seed.to_biguint());
        // Grow the magnitude one op at a time through every value up to
        // one step past MUL_MAX_MAG, multiplying and squaring at each.
        let mut step = 0;
        while a.magnitude() <= MUL_MAX_MAG {
            (a, want) = match step % 4 {
                0 => (a.add(seed), want.add_mod(&seed.to_biguint(), &p)),
                1 => (a.negate(), BigUint::zero().sub_mod(&want, &p)),
                2 => (a.sub(&FieldElement::ONE), want.sub_mod(&BigUint::one(), &p)),
                _ => (a.double(), want.add_mod(&want, &p)),
            };
            step += 1;
            assert_eq!(a.to_biguint(), want, "seed {i}, step {step}");
            assert_eq!(
                a.mul(&other).to_biguint(),
                want.mul_mod(&other.to_biguint(), &p)
            );
            assert_eq!(a.sqr().to_biguint(), want.mul_mod(&want, &p));
            assert_eq!(a.mul(&a).magnitude(), 1);
        }
        assert!(a.magnitude() > MUL_MAX_MAG, "the chain went one step past");
        // Keep going to the hard ceiling: sums and negations weakly
        // normalize rather than pass MAX_MAG.
        for step in 0..200 {
            (a, want) = if step % 3 == 0 {
                (a.negate(), BigUint::zero().sub_mod(&want, &p))
            } else {
                (a.add(&a), want.add_mod(&want, &p))
            };
            assert!(
                a.magnitude() <= MAX_MAG,
                "seed {i}: magnitude {}",
                a.magnitude()
            );
            assert_eq!(a.to_biguint(), want, "seed {i}, ceiling step {step}");
        }
        assert_eq!(
            a.mul(&other).to_biguint(),
            want.mul_mod(&other.to_biguint(), &p)
        );
        assert_eq!(
            a.invert().mul(&a).to_biguint(),
            BigUint::from_u64(u64::from(!want.is_zero()))
        );
    }
}

#[test]
fn non_canonical_encodings_observe_canonical_values() {
    // Built by carry-free arithmetic, whose limbs are exactly the sums:
    // p − 1 plus 1 has the limbs of p, and so on.
    let p = p();
    let pm1 = fe(&p.sub(&BigUint::one()));
    let one = FieldElement::ONE;
    let fold = FieldElement::from_u64(0x1_0000_03D1);
    let two = FieldElement::from_u64(2);
    let cases = [
        ("p", pm1.add(&one), BigUint::zero()),
        ("2p", pm1.add(&pm1).add(&two), BigUint::zero()),
        ("p + 1", pm1.add(&two), BigUint::one()),
        (
            "2^256 − 1 (all-ones limbs)",
            pm1.add(&fold),
            BigUint::from_u64(0x1_0000_03D0),
        ),
        ("4p (−0)", FieldElement::ZERO.negate(), BigUint::zero()),
        ("x − x", pm1.sub(&pm1), BigUint::zero()),
        (
            "p + 977",
            pm1.add(&FieldElement::from_u64(978)),
            BigUint::from_u64(977),
        ),
    ];
    for (name, v, want) in cases {
        assert!(!v.is_normalized(), "{name} must stay lazily reduced");
        let canonical = FieldElement::from_biguint(&want).expect("< p");
        assert_eq!(v, canonical, "{name}: ==");
        assert_eq!(canonical, v, "{name}: == (swapped)");
        assert_eq!(v.is_zero(), want.is_zero(), "{name}: is_zero");
        assert_eq!(v.is_odd(), want.bit(0), "{name}: is_odd");
        assert_eq!(v.to_biguint(), want, "{name}: to_bytes_be");
        assert_eq!(
            v.normalize().to_bytes_be(),
            canonical.to_bytes_be(),
            "{name}"
        );
        assert_eq!(format!("{v:?}"), format!("{canonical:?}"), "{name}: Debug");
    }
    // Distinct values stay distinct however they are encoded.
    assert_ne!(pm1.add(&two), FieldElement::ZERO);
    assert_ne!(pm1.add(&one), FieldElement::ONE);
}

#[test]
fn fixed_vectors_pin_known_points() {
    // Standard secp256k1 small multiples, as published in the curve's
    // reference test vectors. These pin the whole pipeline — const-baked
    // table, mixed addition, field inversion at normalization.
    let vectors = [
        (
            1u64,
            "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
            "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8",
        ),
        (
            2,
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a",
        ),
        (
            3,
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
            "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672",
        ),
    ];
    for (k, want_x, want_y) in vectors {
        match scalar_mul_base(&Scalar::from_u64(k)) {
            AffinePoint::Coords { x, y } => {
                assert_eq!(
                    bcwan_crypto::hex::encode(&x.to_bytes_be()),
                    want_x,
                    "{k}G x"
                );
                assert_eq!(
                    bcwan_crypto::hex::encode(&y.to_bytes_be()),
                    want_y,
                    "{k}G y"
                );
            }
            AffinePoint::Infinity => panic!("{k}G must be finite"),
        }
    }
}
