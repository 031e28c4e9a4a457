//! Seeded property tests for the cryptographic primitives.
//!
//! Each property runs [`CASES`] inputs drawn from a `StdRng` seeded with
//! `BASE_SEED + case`; a failure names the case's seed. (Modular
//! exponentiation against an oracle, even moduli included, is
//! `fastpath_fuzz.rs::montgomery_mod_pow_{matches_schoolbook,edge_cases}`.)

use bcwan_crypto::aes::{cbc_decrypt, cbc_encrypt};
use bcwan_crypto::bignum::BigUint;
use bcwan_crypto::ecdsa::EcdsaPrivateKey;
use bcwan_crypto::hex;
use bcwan_crypto::secp256k1::{scalar_mul_base, JacobianPoint, GENERATOR};
use bcwan_crypto::Scalar;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const BASE_SEED: u64 = 0xc29f_7000;
const CASES: u64 = 64;

/// Runs `check(seed, rng)` once per case.
fn for_each_case(cases: u64, check: impl Fn(u64, &mut StdRng)) {
    for seed in BASE_SEED..BASE_SEED + cases {
        check(seed, &mut StdRng::seed_from_u64(seed));
    }
}

fn bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; rng.gen_range(0..max_len + 1)];
    rng.fill_bytes(&mut out);
    out
}

fn biguint(rng: &mut StdRng, max_bytes: usize) -> BigUint {
    BigUint::from_bytes_be(&bytes(rng, max_bytes))
}

#[test]
fn bignum_bytes_round_trip() {
    for_each_case(CASES, |seed, rng| {
        let v = biguint(rng, 63);
        assert_eq!(
            BigUint::from_bytes_be(&v.to_bytes_be()),
            v,
            "seed {seed:#x}"
        );
    });
}

#[test]
fn bignum_hex_round_trip() {
    for_each_case(CASES, |seed, rng| {
        let v = biguint(rng, 48);
        assert_eq!(BigUint::from_hex(&v.to_hex()).unwrap(), v, "seed {seed:#x}");
    });
}

#[test]
fn bignum_add_commutes() {
    for_each_case(CASES, |seed, rng| {
        let (a, b) = (biguint(rng, 40), biguint(rng, 40));
        assert_eq!(a.add(&b), b.add(&a), "seed {seed:#x}");
    });
}

#[test]
fn bignum_add_sub_inverse() {
    for_each_case(CASES, |seed, rng| {
        let (a, b) = (biguint(rng, 40), biguint(rng, 40));
        assert_eq!(a.add(&b).sub(&b), a, "seed {seed:#x}");
    });
}

#[test]
fn bignum_mul_commutes() {
    for_each_case(CASES, |seed, rng| {
        let (a, b) = (biguint(rng, 32), biguint(rng, 32));
        assert_eq!(a.mul(&b), b.mul(&a), "seed {seed:#x}");
    });
}

#[test]
fn bignum_mul_distributes() {
    for_each_case(CASES, |seed, rng| {
        let (a, b, c) = (biguint(rng, 24), biguint(rng, 24), biguint(rng, 24));
        assert_eq!(
            a.mul(&b.add(&c)),
            a.mul(&b).add(&a.mul(&c)),
            "seed {seed:#x}"
        );
    });
}

#[test]
fn bignum_div_rem_identity() {
    for_each_case(CASES, |seed, rng| {
        let (a, b) = (biguint(rng, 64), biguint(rng, 32));
        if b.is_zero() {
            return;
        }
        let (q, r) = a.div_rem(&b);
        assert!(r < b, "seed {seed:#x}");
        assert_eq!(q.mul(&b).add(&r), a, "seed {seed:#x}");
    });
}

#[test]
fn bignum_shift_round_trip() {
    for_each_case(CASES, |seed, rng| {
        let (a, n) = (biguint(rng, 32), rng.gen_range(0..200usize));
        assert_eq!(a.shl(n).shr(n), a, "seed {seed:#x}: shift {n}");
    });
}

#[test]
fn bignum_mod_inverse_is_inverse() {
    for_each_case(CASES, |seed, rng| {
        let (a, m) = (biguint(rng, 24), biguint(rng, 24));
        if m <= BigUint::one() {
            return;
        }
        if let Some(inv) = a.mod_inverse(&m) {
            assert_eq!(a.mul_mod(&inv, &m), BigUint::one(), "seed {seed:#x}");
            assert!(inv < m, "seed {seed:#x}");
        }
    });
}

#[test]
fn sha256_is_deterministic_and_injective_in_practice() {
    for_each_case(CASES, |seed, rng| {
        let (a, b) = (bytes(rng, 127), bytes(rng, 127));
        let ha = bcwan_crypto::sha256(&a);
        assert_eq!(ha, bcwan_crypto::sha256(&a), "seed {seed:#x}");
        if a != b {
            assert_ne!(ha, bcwan_crypto::sha256(&b), "seed {seed:#x}");
        }
    });
}

#[test]
fn cbc_round_trip() {
    for_each_case(CASES, |seed, rng| {
        let (mut key, mut iv) = ([0u8; 32], [0u8; 16]);
        rng.fill_bytes(&mut key);
        rng.fill_bytes(&mut iv);
        let plaintext = bytes(rng, 199);
        let ct = cbc_encrypt(&key, &iv, &plaintext);
        assert_eq!(ct.len() % 16, 0, "seed {seed:#x}");
        assert!(ct.len() > plaintext.len(), "seed {seed:#x}");
        assert_eq!(
            cbc_decrypt(&key, &iv, &ct).unwrap(),
            plaintext,
            "seed {seed:#x}"
        );
    });
}

#[test]
fn hex_round_trip() {
    for_each_case(CASES, |seed, rng| {
        let raw = bytes(rng, 63);
        assert_eq!(
            hex::decode(&hex::encode(&raw)).unwrap(),
            raw,
            "seed {seed:#x}"
        );
    });
}

#[test]
fn ecdsa_sign_verify() {
    for_each_case(CASES, |seed, rng| {
        let mut secret = [0u8; 32];
        rng.fill_bytes(&mut secret);
        let msg = bytes(rng, 63);
        // Out-of-range secrets (≥ the group order, or zero) are rejected
        // by the constructor; nothing to check for those draws.
        let Ok(private) = EcdsaPrivateKey::from_bytes(&secret) else {
            return;
        };
        let public = private.public_key();
        let sig = private.sign(&msg);
        assert!(public.verify(&msg, &sig), "seed {seed:#x}");
        let mut tampered = msg.clone();
        tampered.push(0x55);
        assert!(!public.verify(&tampered, &sig), "seed {seed:#x}");
    });
}

#[test]
fn ec_group_associativity() {
    for_each_case(CASES, |seed, rng| {
        let point = |k: u64| JacobianPoint::from_affine(&scalar_mul_base(&Scalar::from_u64(k)));
        let pa = point(rng.gen_range(1..u64::MAX));
        let pb = point(rng.gen_range(1..u64::MAX));
        let g = JacobianPoint::from_affine(&GENERATOR);
        let left = pa.add(&pb).add(&g).to_affine();
        let right = pa.add(&pb.add(&g)).to_affine();
        assert_eq!(left, right, "seed {seed:#x}");
    });
}

#[test]
fn rsa_encrypt_decrypt_round_trip() {
    // RSA keygen is the expensive part: a handful of cases.
    for_each_case(8, |seed, rng| {
        let msg = bytes(rng, 52);
        let (public, private) =
            bcwan_crypto::generate_keypair(rng, bcwan_crypto::RsaKeySize::Rsa512);
        let ct = public.encrypt(rng, &msg).unwrap();
        assert_eq!(private.decrypt(&ct).unwrap(), msg, "seed {seed:#x}");
        let sig = private.sign(&msg);
        assert!(public.verify(&msg, &sig), "seed {seed:#x}");
        assert!(public.matches_private(&private), "seed {seed:#x}");
    });
}
