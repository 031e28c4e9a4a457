//! Randomized equivalence tests for the validation fast path.
//!
//! The Montgomery modexp, the windowed base multiplication and the
//! one-chain verify multiply `u1·G + u2·Q` are pure speedups: for every
//! input they must produce bit-identical results to the schoolbook
//! routines they replaced. These tests pin that equivalence over seeded
//! random inputs plus the edge cases that tend to break fixed-window and
//! wNAF ladders (zero, one, exponent zero, scalars at and past the group
//! order, the 128-bit split point of `u1`). Key generation's window sieve
//! and prime search are checked the same way, against trial division.
//! `is_probable_prime` confirms a prime with Baillie–PSW once it passes
//! its first random base and only draws the other bases, so keygen's
//! survivors are run through it against 20 random-base rounds too.

use bcwan_crypto::msm::ecmult;
use bcwan_crypto::rsa::{generate_prime, is_probable_prime, sieve_window, SIEVE_BOUND};
use bcwan_crypto::secp256k1::{scalar_mul_base, AffinePoint, JacobianPoint, GENERATOR};
use bcwan_crypto::{
    generate_keypair, BigUint, MontgomeryCtx, RsaKeySize, RsaPrivateKey, RsaPublicKey, Scalar,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn random_biguint(rng: &mut StdRng, bits: usize) -> BigUint {
    let bytes = bits.div_ceil(8);
    let mut buf = vec![0u8; bytes];
    rng.fill_bytes(&mut buf);
    // Mask the top byte so the value has at most `bits` bits.
    let extra = bytes * 8 - bits;
    if extra > 0 {
        buf[0] &= 0xff >> extra;
    }
    BigUint::from_bytes_be(&buf)
}

fn random_odd_modulus(rng: &mut StdRng, bits: usize) -> BigUint {
    let mut m = random_biguint(rng, bits);
    if m.is_zero() || m == BigUint::one() {
        m = BigUint::from_u64(3);
    }
    if m.bit(0) {
        m
    } else {
        m.add(&BigUint::one())
    }
}

#[test]
fn montgomery_mul_mod_matches_schoolbook() {
    let mut rng = StdRng::seed_from_u64(0xb1ff);
    for round in 0..200 {
        let bits = 64 + (round % 8) * 64; // 64..512 bit moduli
        let m = random_odd_modulus(&mut rng, bits);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus > 1");
        // Operands deliberately allowed to exceed the modulus.
        let a = random_biguint(&mut rng, bits + 32);
        let b = random_biguint(&mut rng, bits + 32);
        assert_eq!(
            ctx.mul_mod(&a, &b),
            a.mul_mod(&b, &m),
            "round {round}: mul_mod diverged for {bits}-bit modulus"
        );
    }
}

#[test]
fn montgomery_mod_pow_matches_schoolbook() {
    let mut rng = StdRng::seed_from_u64(0xf00d);
    for round in 0..60 {
        let bits = 64 + (round % 8) * 64;
        let m = random_odd_modulus(&mut rng, bits);
        let base = random_biguint(&mut rng, bits + 16);
        let exp = random_biguint(&mut rng, 1 + round % 192);
        assert_eq!(
            base.mod_pow(&exp, &m),
            base.mod_pow_schoolbook(&exp, &m),
            "round {round}: mod_pow diverged for {bits}-bit modulus"
        );
    }
}

#[test]
fn montgomery_mod_pow_edge_cases() {
    let m = BigUint::from_u64(0xffff_ffff_ffff_ffc5); // odd 64-bit value
    let cases = [
        (BigUint::zero(), BigUint::from_u64(17)),
        (BigUint::one(), BigUint::from_u64(12345)),
        (BigUint::from_u64(2), BigUint::zero()), // x^0 == 1
        (BigUint::zero(), BigUint::zero()),      // 0^0 == 1 by convention
        (m.clone(), BigUint::from_u64(3)),       // base ≡ 0 mod m
    ];
    for (base, exp) in &cases {
        assert_eq!(base.mod_pow(exp, &m), base.mod_pow_schoolbook(exp, &m));
    }
    // Smallest supported modulus.
    let three = BigUint::from_u64(3);
    for b in 0..6u64 {
        let base = BigUint::from_u64(b);
        let exp = BigUint::from_u64(b + 1);
        assert_eq!(
            base.mod_pow(&exp, &three),
            base.mod_pow_schoolbook(&exp, &three)
        );
    }
    // Even moduli must still work (schoolbook fallback path).
    let even = BigUint::from_u64(1 << 20);
    let base = BigUint::from_u64(0xdead_beef);
    let exp = BigUint::from_u64(77);
    assert_eq!(
        base.mod_pow(&exp, &even),
        base.mod_pow_schoolbook(&exp, &even)
    );
    assert!(MontgomeryCtx::new(&even).is_none());
}

/// `2^(64·limbs) − c`.
fn below_power(limbs: usize, c: u64) -> BigUint {
    BigUint::one().shl(64 * limbs).sub(&BigUint::from_u64(c))
}

/// Odd moduli of exactly `limbs` limbs that stress the fixed-width engine:
/// just below `R`, top limb all-ones over random low limbs (both drive the
/// running value past `R`, so the carry word and the final subtraction
/// fire), top limb one (so `R mod n` is far from `R − n`), and plain random.
fn edge_moduli(rng: &mut StdRng, limbs: usize) -> Vec<BigUint> {
    let low = random_biguint(rng, 64 * (limbs - 1));
    let mut all_ones_top = BigUint::from_u64(u64::MAX).shl(64 * (limbs - 1)).add(&low);
    let mut one_top = BigUint::one().shl(64 * (limbs - 1)).add(&low);
    let mut random = random_biguint(rng, 64 * limbs);
    for m in [&mut all_ones_top, &mut one_top, &mut random] {
        m.set_bit(0);
    }
    random.set_bit(64 * limbs - 1);
    if limbs == 1 {
        one_top = BigUint::from_u64(3); // 1 is not a modulus
    }
    vec![
        below_power(limbs, 1),
        below_power(limbs, 59),
        all_ones_top,
        one_top,
        random,
    ]
}

#[test]
fn fixed_width_engine_matches_schoolbook_at_every_limb_count() {
    // 4, 8, 16 and 32 limbs take the monomorphised product; every other
    // count up to 32 the slice loop on stack rows; 33 the heap block.
    let mut rng = StdRng::seed_from_u64(0x15_c105);
    for limbs in 1..=33 {
        for (which, m) in edge_moduli(&mut rng, limbs).into_iter().enumerate() {
            assert_eq!(m.bit_len().div_ceil(64), limbs);
            let ctx = MontgomeryCtx::new(&m).expect("odd modulus > 1");
            let m_minus_1 = m.sub(&BigUint::one());
            let bases = [
                BigUint::zero(),
                BigUint::one(),
                m_minus_1.clone(),
                m.clone(),
                random_biguint(&mut rng, 64 * limbs).rem(&m),
                random_biguint(&mut rng, 64 * limbs + 40), // base ≥ n
            ];
            for base in &bases {
                for exp in [0, 1, 65537].map(BigUint::from_u64) {
                    assert_eq!(
                        base.mod_pow(&exp, &m),
                        base.mod_pow_schoolbook(&exp, &m),
                        "{limbs} limbs, modulus {which}: {base:?}^{exp:?}"
                    );
                }
                assert_eq!(
                    ctx.mul_mod(base, &m_minus_1),
                    base.mul_mod(&m_minus_1, &m),
                    "{limbs} limbs, modulus {which}: {base:?}·(n−1)"
                );
            }
            // A long exponent with all nibbles in play: full width where the
            // width picks the code path, 128 bits in between (the schoolbook
            // oracle is cubic in the width).
            let full = limbs <= 8 || [16, 17, 32, 33].contains(&limbs);
            let exp = random_biguint(&mut rng, if full { 64 * limbs } else { 128 });
            let base = &bases[5];
            assert_eq!(
                ctx.mod_pow(base, &exp),
                base.mod_pow_schoolbook(&exp, &m),
                "{limbs} limbs, modulus {which}: {base:?}^{exp:?}"
            );
        }
    }
}

/// The primality test as it was before it moved onto word residues and one
/// Montgomery context per candidate: per-prime `BigUint::rem`, schoolbook
/// modexp. Kept here as the oracle for verdict *and* RNG draws.
fn is_probable_prime_reference(rng: &mut StdRng, n: &BigUint, rounds: usize) -> bool {
    const SMALL: [u64; 54] = [
        3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
        97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
        191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257,
    ];
    if n.is_zero() || n.is_one() {
        return false;
    }
    let two = BigUint::from_u64(2);
    if *n == two {
        return true;
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL {
        let sp = BigUint::from_u64(p);
        if *n == sp {
            return true;
        }
        if n.rem(&sp).is_zero() {
            return false;
        }
    }
    let one = BigUint::one();
    let n_minus_1 = n.sub(&one);
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    'witness: for _ in 0..rounds {
        let bound = n.sub(&BigUint::from_u64(3));
        let a = BigUint::random_below(rng, &bound).add(&two);
        let mut x = a.mod_pow_schoolbook(&d, n);
        if x.is_one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = x.mul_mod(&x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Same verdict, and the RNG left in the same state, as the reference —
/// with `rounds = 0` that isolates the trial-division decision.
fn assert_primality_matches_reference(rng: &mut StdRng, n: &BigUint) {
    for rounds in [0, 20] {
        let mut reference_rng = rng.clone();
        let expected = is_probable_prime_reference(&mut reference_rng, n, rounds);
        assert_eq!(
            is_probable_prime(rng, n, rounds),
            expected,
            "{n:?}, {rounds} rounds"
        );
        assert_eq!(
            rng.next_u64(),
            reference_rng.next_u64(),
            "{n:?}, {rounds} rounds: draws"
        );
    }
}

#[test]
fn primality_test_matches_reference_verdict_and_draws() {
    const SMALL_PRIMES: [u64; 8] = [3, 5, 7, 53, 59, 101, 251, 257];
    let mut rng = StdRng::seed_from_u64(0x51e7e);
    for n in 0..=257u64 {
        assert_primality_matches_reference(&mut rng, &BigUint::from_u64(n));
    }
    for round in 0..160 {
        let mut n = random_biguint(&mut rng, 64 + (round % 8) * 64);
        n.set_bit(0);
        assert_primality_matches_reference(&mut rng, &n);
    }
    // Small prime × prime: only the sieve stands between these and 20
    // rounds. Squares of the table's ends and products of 259 and up
    // included.
    let big = generate_prime(&mut rng, 192);
    for p in SMALL_PRIMES {
        for cofactor in [BigUint::from_u64(p), BigUint::from_u64(263), big.clone()] {
            let n = BigUint::from_u64(p).mul(&cofactor);
            assert_primality_matches_reference(&mut rng, &n);
            assert!(!is_probable_prime(&mut rng, &n, 20));
        }
    }
    // Carmichael numbers: the first few fall to the sieve; the Chernick
    // products (6k+1)(12k+1)(18k+1) have no factor below 258, so only the
    // strong test rejects them.
    let chernick = |k: u64| (6 * k + 1) * (12 * k + 1) * (18 * k + 1);
    for n in [
        561,
        1105,
        1729,
        41041,
        825_265,
        25_326_001,
        chernick(51),
        chernick(55),
        chernick(100),
    ] {
        let n = BigUint::from_u64(n);
        assert_primality_matches_reference(&mut rng, &n);
        assert!(!is_probable_prime(&mut rng, &n, 20));
    }
    // Primes run all 20 rounds; 2^64 − 59, 2^127 − 1 and fresh ones.
    let mut primes = vec![
        below_power(1, 59),
        BigUint::one().shl(127).sub(&BigUint::one()),
    ];
    for bits in [64, 128, 256] {
        primes.push(generate_prime(&mut rng, bits));
    }
    for p in &primes {
        assert_primality_matches_reference(&mut rng, p);
        assert!(is_probable_prime(&mut rng, p, 20));
    }
}

#[test]
fn parsed_keys_and_crt_keys_compute_the_same_values() {
    let mut rng = StdRng::seed_from_u64(0xc47);
    let sizes = [
        RsaKeySize::Rsa512,
        RsaKeySize::Rsa512,
        RsaKeySize::Rsa512,
        RsaKeySize::Rsa1024,
    ];
    for size in sizes {
        let (public, private) = generate_keypair(&mut rng, size);
        // The wire form carries neither the CRT parameters nor any
        // Montgomery constant; the parsed halves rebuild their own.
        let plain = RsaPrivateKey::from_bytes(&private.to_bytes()).unwrap();
        let parsed_public = RsaPublicKey::from_bytes(&public.to_bytes()).unwrap();
        assert_eq!(plain, private);
        assert_eq!(parsed_public, public);
        assert_eq!(plain.to_bytes(), private.to_bytes());
        assert_eq!(format!("{plain:?}"), format!("{private:?}"));
        assert_eq!(format!("{parsed_public:?}"), format!("{public:?}"));

        for round in 0..8u8 {
            let message = vec![round; 1 + usize::from(round) * 5];
            let signature = private.sign(&message);
            assert_eq!(signature, plain.sign(&message), "{size} CRT vs plain");
            assert!(parsed_public.verify(&message, &signature));
            let sealed = parsed_public.encrypt(&mut rng, &message).unwrap();
            assert_eq!(private.decrypt(&sealed).unwrap(), message);
            assert_eq!(plain.decrypt(&sealed).unwrap(), message);
        }
        assert!(parsed_public.matches_private(&plain));
        assert!(public.matches_private(&plain) && parsed_public.matches_private(&private));
    }
}

/// The odd primes below [`SIEVE_BOUND`], by trial division: the oracle's
/// own table.
fn sieve_primes() -> Vec<u64> {
    (3..SIEVE_BOUND)
        .step_by(2)
        .filter(|&n| {
            (3..)
                .step_by(2)
                .take_while(|d| d * d <= n)
                .all(|d| n % d != 0)
        })
        .collect()
}

/// `start mod p` for each sieve prime, by full bignum division.
fn residues(start: &BigUint, primes: &[u64]) -> Vec<u64> {
    primes
        .iter()
        .map(|&p| start.rem(&BigUint::from_u64(p)).to_u64().expect("below p"))
        .collect()
}

/// Whether `start + offset` has a factor among `primes`, given `start`'s
/// residues.
fn has_small_factor(residues: &[u64], primes: &[u64], offset: u64) -> bool {
    primes
        .iter()
        .zip(residues)
        .any(|(&p, &r)| (r + offset % p).is_multiple_of(p))
}

/// A `bits`-bit odd window start as `generate_prime` draws it: top two
/// bits and bit 0 set.
fn window_start<R: RngCore>(rng: &mut R, bits: usize) -> BigUint {
    let mut start = BigUint::random_bits(rng, bits);
    start.set_bit(bits - 2);
    start.set_bit(0);
    start
}

#[test]
fn sieve_window_skips_exactly_what_trial_division_rejects() {
    let primes = sieve_primes();
    let mut rng = StdRng::seed_from_u64(0x5e1e);
    let per_size = if cfg!(debug_assertions) { 2 } else { 12 };
    for bits in [16, 17, 63, 64, 65, 128, 256, 512, 1024] {
        for round in 0..per_size {
            let start = window_start(&mut rng, bits);
            let residues = residues(&start, &primes);
            let want: Vec<u64> = (0..2 * bits as u64)
                .map(|j| 2 * j)
                .filter(|&offset| !has_small_factor(&residues, &primes, offset))
                .collect();
            assert_eq!(
                sieve_window(&start, bits),
                want,
                "{bits} bits, round {round}"
            );
        }
    }
}

/// `generate_prime` rebuilt from public parts and the oracle's trial
/// division: one start per window, then every odd offset without a small
/// factor through `is_probable_prime` at 20 rounds, in order.
fn generate_prime_reference(rng: &mut StdRng, bits: usize, primes: &[u64]) -> BigUint {
    loop {
        let start = window_start(rng, bits);
        let residues = residues(&start, primes);
        for offset in (0..2 * bits as u64).map(|j| 2 * j) {
            if has_small_factor(&residues, primes, offset) {
                continue;
            }
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

#[test]
fn generated_primes_have_the_top_two_bits_and_every_survivor_is_tested() {
    let primes = sieve_primes();
    let mut seeds = 0..;
    let per_size = if cfg!(debug_assertions) { 2 } else { 10 };
    for bits in [16, 24, 64, 256, 512] {
        for _ in 0..per_size {
            let seed = seeds.next().expect("unbounded");
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference_rng = rng.clone();
            let p = generate_prime(&mut rng, bits);
            let label = format!("{bits} bits, seed {seed}");
            assert_eq!(p.bit_len(), bits, "{label}");
            assert!(p.bit(bits - 2) && p.is_odd(), "{label}");
            assert_eq!(
                p,
                generate_prime_reference(&mut reference_rng, bits, &primes),
                "{label}"
            );
            assert_eq!(rng.next_u64(), reference_rng.next_u64(), "{label}: draws");
        }
    }
}

/// Every survivor of `windows` `bits`-bit windows through
/// `assert_primality_matches_reference`; returns `(survivors, primes)`.
fn check_window_survivors(rng: &mut StdRng, bits: usize, windows: usize) -> (usize, usize) {
    let (mut survivors, mut primes) = (0, 0);
    for _ in 0..windows {
        let start = window_start(rng, bits);
        for offset in sieve_window(&start, bits) {
            let n = start.add(&BigUint::from_u64(offset));
            assert_primality_matches_reference(rng, &n);
            survivors += 1;
            primes += usize::from(is_probable_prime(&mut rng.clone(), &n, 20));
        }
    }
    (survivors, primes)
}

#[test]
fn window_survivors_at_256_bits_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(0xb95d);
    let want = if cfg!(debug_assertions) { 500 } else { 10_000 };
    let (mut survivors, mut primes) = (0, 0);
    while survivors < want {
        let (s, p) = check_window_survivors(&mut rng, 256, 1);
        survivors += s;
        primes += p;
    }
    // About one survivor in twelve is prime at this size.
    assert!(primes * 30 > survivors, "{primes} primes in {survivors}");
}

#[test]
fn window_survivors_from_16_to_1024_bits_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(0x1024);
    let sizes = [
        16, 17, 20, 24, 31, 32, 33, 48, 63, 64, 65, 96, 127, 128, 129, 192, 255, 257, 384, 511,
        512, 768, 1023, 1024,
    ];
    for bits in sizes {
        // Debug builds stop at 512 bits: a 1 024-bit window costs seconds there.
        let windows = match (bits, cfg!(debug_assertions)) {
            (..=128, false) => 40,
            (..=128, true) => 8,
            (..=512, false) => 4,
            (..=512, true) => 1,
            (_, false) => 2,
            (_, true) => continue,
        };
        let (survivors, _) = check_window_survivors(&mut rng, bits, windows);
        assert!(survivors > 0, "{bits} bits");
    }
}

/// `d` of a private key, from its `len ‖ n ‖ len ‖ e ‖ len ‖ d` encoding.
fn private_exponent(private: &RsaPrivateKey) -> BigUint {
    let bytes = private.to_bytes();
    let mut rest = bytes.as_slice();
    let mut chunks = Vec::new();
    while let [hi, lo, tail @ ..] = rest {
        let len = usize::from(u16::from_be_bytes([*hi, *lo]));
        chunks.push(BigUint::from_bytes_be(&tail[..len]));
        rest = &tail[len..];
    }
    chunks.pop().expect("three chunks")
}

#[test]
fn keygen_takes_its_first_pair_at_every_size() {
    let one = BigUint::one();
    let e = BigUint::from_u64(65537);
    let sizes = if cfg!(debug_assertions) {
        [
            (RsaKeySize::Rsa512, 8),
            (RsaKeySize::Rsa1024, 2),
            (RsaKeySize::Rsa2048, 0),
        ]
    } else {
        [
            (RsaKeySize::Rsa512, 64),
            (RsaKeySize::Rsa1024, 8),
            (RsaKeySize::Rsa2048, 2),
        ]
    };
    for (size, count) in sizes {
        for seed in 0..count {
            let mut rng = StdRng::seed_from_u64(seed);
            // The pair a keygen with no retry of any kind would take.
            let mut primes_rng = rng.clone();
            let p = generate_prime(&mut primes_rng, size.bits() / 2);
            let q = generate_prime(&mut primes_rng, size.bits() / 2);
            let (public, private) = generate_keypair(&mut rng, size);
            let label = format!("{size}, seed {seed}");
            assert_ne!(p, q, "{label}");
            assert_eq!(*public.modulus(), p.mul(&q), "{label}: the first pair");
            assert_eq!(public.modulus().bit_len(), size.bits(), "{label}");
            assert_eq!(rng.next_u64(), primes_rng.next_u64(), "{label}: draws");
            let phi = p.sub(&one).mul(&q.sub(&one));
            let d = private_exponent(&private);
            assert_eq!(e.mul(&d).rem(&phi), one, "{label}: e·d ≡ 1 (mod φ)");
        }
    }
}

/// A scalar with roughly `bits` random bits (reduced mod `n`).
fn random_scalar(rng: &mut StdRng, bits: usize) -> Scalar {
    let mut buf = [0u8; 32];
    let bytes = bits.div_ceil(8);
    rng.fill_bytes(&mut buf[32 - bytes..]);
    let extra = bytes * 8 - bits;
    if extra > 0 {
        buf[32 - bytes] &= 0xff >> extra;
    }
    Scalar::reduce_bytes_be(&buf)
}

#[test]
fn windowed_base_mul_matches_double_and_add() {
    let g = JacobianPoint::from_affine(&GENERATOR);
    let mut rng = StdRng::seed_from_u64(0xecc);

    let n_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
    let mut cases: Vec<Scalar> = vec![
        Scalar::ZERO,
        Scalar::ONE,
        Scalar::from_u64(2),
        Scalar::from_u64(15),
        Scalar::from_u64(16),
        n_minus_1,
        n_minus_1.sub(&Scalar::from_u64(16)),
    ];
    for bits in [1, 4, 5, 63, 64, 65, 128, 255, 256] {
        cases.push(random_scalar(&mut rng, bits));
    }
    for k in &cases {
        let fast = scalar_mul_base(k);
        let slow = g.scalar_mul(k).to_affine();
        assert_eq!(fast, slow, "scalar_mul_base diverged for k={k:?}");
    }
}

/// The oracle for the one-chain multiply: double-and-add on each term,
/// summed.
fn ecmult_reference(u1: &Scalar, u2: &Scalar, q: &JacobianPoint) -> AffinePoint {
    let g = JacobianPoint::from_affine(&GENERATOR);
    g.scalar_mul(u1).add(&q.scalar_mul(u2)).to_affine()
}

/// A random point `d·G`.
fn random_point(rng: &mut StdRng) -> JacobianPoint {
    JacobianPoint::from_affine(&scalar_mul_base(&random_scalar(rng, 256)))
}

#[test]
fn shamir_double_mul_matches_separate_muls() {
    let mut rng = StdRng::seed_from_u64(0x54a3);
    for round in 0..24 {
        let q = random_point(&mut rng);
        let u1 = match round % 4 {
            0 => Scalar::ZERO,
            1 => random_scalar(&mut rng, 1 + (round % 25) * 10),
            _ => random_scalar(&mut rng, 256),
        };
        let u2 = match round % 3 {
            0 => Scalar::ZERO,
            _ => random_scalar(&mut rng, 256),
        };
        assert_eq!(
            ecmult(&u1, &u2, &q).to_affine(),
            ecmult_reference(&u1, &u2, &q),
            "round {round}: ecmult diverged"
        );
    }
}

#[test]
fn one_chain_mul_matches_reference_across_widths() {
    // Each width of u1 and u2 from 1 to 256 bits, so both wNAF stream
    // pairs end at every length relative to each other.
    let mut rng = StdRng::seed_from_u64(0x61f);
    for round in 0..16 {
        let q = random_point(&mut rng);
        let u1 = random_scalar(&mut rng, 256 - (round * 16) % 256);
        let u2 = random_scalar(&mut rng, 1 + (round * 16) % 256);
        assert_eq!(
            ecmult(&u1, &u2, &q).to_affine(),
            ecmult_reference(&u1, &u2, &q),
            "round {round}: ecmult diverged"
        );
    }
}

#[test]
fn one_chain_mul_edge_scalars() {
    let mut rng = StdRng::seed_from_u64(0xed6e);
    let n_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
    let two_128 = Scalar::from_bytes_be(&{
        let mut b = [0u8; 32];
        b[15] = 1;
        b
    })
    .expect("2^128 < n");
    let edges = [
        Scalar::ZERO,
        Scalar::ONE,
        n_minus_1,
        two_128.sub(&Scalar::ONE),    // top of the low half
        two_128,                      // first value with a high half
        two_128.add(&Scalar::ONE),    // both halves non-zero
        random_scalar(&mut rng, 128), // u1 < 2^128
        random_scalar(&mut rng, 127),
        n_minus_1.sub(&two_128), // u1 ≥ 2^128, low half all but full
        random_scalar(&mut rng, 256),
    ];
    let g = JacobianPoint::from_affine(&GENERATOR);
    for q in [g.clone(), random_point(&mut rng)] {
        for u1 in &edges {
            for u2 in &edges {
                assert_eq!(
                    ecmult(u1, u2, &q).to_affine(),
                    ecmult_reference(u1, u2, &q),
                    "u1 = {u1:?}, u2 = {u2:?}"
                );
            }
        }
    }
    // Over Q = G the two terms cancel (u2 = −u1) and coincide (u2 = u1),
    // so the chain's additions meet P + (−P) and P + P.
    for u1 in &edges {
        assert!(ecmult(u1, &u1.negate(), &g).is_infinity(), "u1 = {u1:?}");
        assert_eq!(
            ecmult(u1, u1, &g).to_affine(),
            scalar_mul_base(&u1.add(u1)),
            "u1 = {u1:?}"
        );
    }
}
