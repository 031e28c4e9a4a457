// Raw 5×52-limb arithmetic over the secp256k1 base field.
//
// The prime is `p = 2^256 − 2^32 − 977`, so `2^256 ≡ FOLD (mod p)` with
// `FOLD = 2^32 + 977 = 0x1000003D1`. A value is five little-endian `u64`
// limbs in radix 2^52 (libsecp256k1's `field_5x52` layout): limbs 0–3
// carry 52 bits and limb 4 carries 48, which leaves 12 (16) spare bits per
// word. Additions therefore do no carry at all, and a product folds its
// high half back with one multiply by `FOLD` per limb. Every function here
// is a `const fn` over `[u64; 5]` so the same code drives both the runtime
// `field::FieldElement` wrapper and the `build.rs` generator that
// const-bakes the base-point tables (which is why this file uses plain
// `//` comments: build.rs splices it in with `include!`).
//
// Magnitude. A value has magnitude `m` when
//     n[i] ≤ 2·m·(2^52 − 1) for i < 4,   n[4] ≤ 2·m·(2^48 − 1).
// It is *normalized* when every limb is in range (`n[i] < 2^52`,
// `n[4] < 2^48`) and the value is `< p`: the one canonical representative.
// A normalized value has magnitude 1. The rules:
//   - `fe_add` sums magnitudes; `fe_half` takes `m` to `m / 2 + 1`;
//   - `fe_negate(a, m)` needs `a`'s magnitude `≤ m` and returns `m + 1`;
//   - `fe_mul`/`fe_sqr` accept magnitude `≤ MUL_MAX_MAG` and return 1;
//   - `fe_normalize_weak` returns magnitude 1, `fe_normalize` the
//     canonical value; both, and the zero tests, accept up to `MAX_MAG`.
// The `FieldElement` wrapper carries each value's magnitude and weakly
// normalizes an operand that would break a rule; debug builds also check
// the limbs against the bound (`fe_within`) here and in the wrapper, so a
// magnitude that was accounted wrong fails the tests. The fuzz suite (`tests/field_fuzz.rs`) checks every
// operation at the bounds against `bignum::BigUint` as oracle.

/// Mask of a 52-bit limb.
pub const M52: u64 = 0xF_FFFF_FFFF_FFFF;

/// Mask of the 48-bit top limb.
pub const M48: u64 = 0xFFFF_FFFF_FFFF;

/// `2^256 mod p = 2^32 + 977`.
pub const FOLD: u64 = 0x1_0000_03D1;

/// The secp256k1 field prime `p = 2^256 − 2^32 − 977` in 5×52 limbs.
pub const P: [u64; 5] = [0xF_FFFE_FFFF_FC2F, M52, M52, M52, M48];

/// Largest operand magnitude `fe_mul` and `fe_sqr` accept: eight keeps
/// every column of the product below 2^128 (see `fe_mul`).
pub const MUL_MAX_MAG: u32 = 8;

/// Largest magnitude any value may reach. Normalization leaves at most
/// one carry into bit 256 up to here, and limbs stay below 2^59.
pub const MAX_MAG: u32 = 32;

/// `2^260 mod p`: the weight of limb position 5 folded back to position 0.
const R260: u64 = FOLD << 4;

/// Whether every limb is within the bound of magnitude `m`.
pub(crate) const fn fe_within(a: &[u64; 5], m: u32) -> bool {
    let k = 2 * m as u64;
    a[0] <= k * M52 && a[1] <= k * M52 && a[2] <= k * M52 && a[3] <= k * M52 && a[4] <= k * M48
}

/// The full 128-bit product of two limbs.
#[inline]
const fn wide(x: u64, y: u64) -> u128 {
    x as u128 * y as u128
}

/// 5×52 limbs of a 256-bit value given as little-endian 4×64 limbs. No
/// reduction: the value may be anything below 2^256.
#[inline]
pub(crate) const fn from_u64x4(a: &[u64; 4]) -> [u64; 5] {
    [
        a[0] & M52,
        (a[0] >> 52 | a[1] << 12) & M52,
        (a[1] >> 40 | a[2] << 24) & M52,
        (a[2] >> 28 | a[3] << 36) & M52,
        a[3] >> 16,
    ]
}

/// Little-endian 4×64 limbs of a normalized value.
#[inline]
pub(crate) const fn to_u64x4(a: &[u64; 5]) -> [u64; 4] {
    [
        a[0] | a[1] << 52,
        a[1] >> 12 | a[2] << 40,
        a[2] >> 24 | a[3] << 28,
        a[3] >> 36 | a[4] << 16,
    ]
}

/// Limb-wise sum; magnitudes add.
#[inline]
pub(crate) const fn fe_add(a: &[u64; 5], b: &[u64; 5]) -> [u64; 5] {
    [
        a[0] + b[0],
        a[1] + b[1],
        a[2] + b[2],
        a[3] + b[3],
        a[4] + b[4],
    ]
}

/// `2·(m + 1)·p − a` limb by limb, for `a` of magnitude at most `m`: the
/// negation, of magnitude `m + 1`. Every limb of the multiple of `p`
/// exceeds the matching limb of `a`, so nothing borrows.
#[inline]
pub(crate) const fn fe_negate(a: &[u64; 5], m: u32) -> [u64; 5] {
    debug_assert!(fe_within(a, m));
    let k = 2 * (m as u64 + 1);
    [
        P[0] * k - a[0],
        P[1] * k - a[1],
        P[2] * k - a[2],
        P[3] * k - a[3],
        P[4] * k - a[4],
    ]
}

/// `a / 2 mod p` for `a` of magnitude `m`: adds `p` when `a` is odd (as a
/// mask, not a branch), then shifts every limb right by one, passing each
/// limb's low bit down to the limb below. The result has magnitude
/// `m / 2 + 1`.
#[inline]
pub(crate) const fn fe_half(a: &[u64; 5]) -> [u64; 5] {
    debug_assert!(fe_within(a, MAX_MAG));
    let mask = (a[0] & 1).wrapping_neg() >> 12;
    let t0 = a[0] + (P[0] & mask);
    let t1 = a[1] + mask;
    let t2 = a[2] + mask;
    let t3 = a[3] + mask;
    let t4 = a[4] + (mask >> 4);
    [
        (t0 >> 1) + ((t1 & 1) << 51),
        (t1 >> 1) + ((t2 & 1) << 51),
        (t2 >> 1) + ((t3 & 1) << 51),
        (t3 >> 1) + ((t4 & 1) << 51),
        t4 >> 1,
    ]
}

/// Carry every limb into range, folding the bits above 256 once: the same
/// value with magnitude 1 (limbs 0–3 below 2^52, limb 4 below 2^49), not
/// necessarily below `p`.
#[inline]
pub const fn fe_normalize_weak(a: &[u64; 5]) -> [u64; 5] {
    debug_assert!(fe_within(a, MAX_MAG));
    let [mut t0, mut t1, mut t2, mut t3, mut t4] = *a;
    let x = t4 >> 48;
    t4 &= M48;
    t0 += x * FOLD;
    t1 += t0 >> 52;
    t0 &= M52;
    t2 += t1 >> 52;
    t1 &= M52;
    t3 += t2 >> 52;
    t2 &= M52;
    t4 += t3 >> 52;
    t3 &= M52;
    [t0, t1, t2, t3, t4]
}

/// The canonical representative: limbs in range and value `< p`.
///
/// Branchless: after the weak pass the value is below `2p`, so one
/// conditional subtraction of `p` finishes. It is done as an addition of
/// `x·FOLD` with `x ∈ {0, 1}` computed by comparisons and bit operations,
/// then dropping bit 256 — the same instruction sequence whether or not it
/// subtracts, so the normalization does not branch on the value.
#[inline]
pub const fn fe_normalize(a: &[u64; 5]) -> [u64; 5] {
    let [mut t0, mut t1, mut t2, mut t3, mut t4] = fe_normalize_weak(a);
    // `≥ p` iff bit 256 is set, or limbs 1–4 are all ones and limb 0 is at
    // least p's.
    let ones = t1 & t2 & t3;
    let x = (t4 >> 48) | ((t4 == M48) as u64 & (ones == M52) as u64 & (t0 >= P[0]) as u64);
    t0 += x * FOLD;
    t1 += t0 >> 52;
    t0 &= M52;
    t2 += t1 >> 52;
    t1 &= M52;
    t3 += t2 >> 52;
    t2 &= M52;
    t4 += t3 >> 52;
    t3 &= M52;
    [t0, t1, t2, t3, t4 & M48]
}

/// Whether the value is `≡ 0 (mod p)`, without branching on it. After the
/// weak pass the value is below `2p`, so the only zero representatives
/// left are 0 and `p`; `z0` watches for the first, `z1` for the second.
#[inline]
pub const fn fe_normalizes_to_zero(a: &[u64; 5]) -> bool {
    let [t0, t1, t2, t3, t4] = fe_normalize_weak(a);
    let z0 = t0 | t1 | t2 | t3 | t4;
    // P[0] ^ 0x1000003D0 = M52 and M48 ^ (0xF << 48) = M52.
    let z1 = (t0 ^ 0x1_0000_03D0) & t1 & t2 & t3 & (t4 ^ 0xF_0000_0000_0000);
    (z0 == 0) | (z1 == M52)
}

/// [`fe_normalizes_to_zero`] with an early exit: limb 0 is final after the
/// first fold, and unless it is 0 or `p`'s the value is neither. Only for
/// values that are not secret (point-at-infinity and `P = Q` checks).
#[inline]
pub const fn fe_normalizes_to_zero_var(a: &[u64; 5]) -> bool {
    let t0 = a[0] + (a[4] >> 48) * FOLD;
    let low = t0 & M52;
    if low != 0 && low ^ 0x1_0000_03D0 != M52 {
        return false;
    }
    let t4 = a[4] & M48;
    let t1 = a[1] + (t0 >> 52);
    let t2 = a[2] + (t1 >> 52);
    let t3 = a[3] + (t2 >> 52);
    let t4 = t4 + (t3 >> 52);
    let (t1, t2, t3) = (t1 & M52, t2 & M52, t3 & M52);
    let z0 = low | t1 | t2 | t3 | t4;
    let z1 = (low ^ 0x1_0000_03D0) & t1 & t2 & t3 & (t4 ^ 0xF_0000_0000_0000);
    (z0 == 0) | (z1 == M52)
}

/// Field multiplication: `a·b mod p`, magnitude 1 (not normalized).
///
/// Operands of magnitude ≤ 8 have limbs below 2^56 (limb 4 below 2^52),
/// so each column of ≤ 5 partial products stays below 2^115. The product
/// columns `p0 … p8` are consumed in the order libsecp256k1 uses: the
/// high columns `p5 … p8` fold into `p0 … p3` through
/// `2^260 ≡ R260 (mod p)`, with `c` carrying the low output limbs and
/// `d` the columns still to fold.
#[inline]
pub(crate) const fn fe_mul(a: &[u64; 5], b: &[u64; 5]) -> [u64; 5] {
    debug_assert!(fe_within(a, MUL_MAX_MAG) && fe_within(b, MUL_MAX_MAG));
    let [a0, a1, a2, a3, a4] = *a;
    let [b0, b1, b2, b3, b4] = *b;

    let mut d = wide(a0, b3) + wide(a1, b2) + wide(a2, b1) + wide(a3, b0); // p3
    let mut c = wide(a4, b4); // p8
    d += wide((c as u64) & M52, R260);
    c >>= 52;
    let t3 = (d as u64) & M52;
    d >>= 52;

    d += wide(a0, b4) + wide(a1, b3) + wide(a2, b2) + wide(a3, b1) + wide(a4, b0); // p4
    d += wide(c as u64, R260);
    let t4 = (d as u64) & M52;
    d >>= 52;
    // Bits 48..52 of limb 4 sit at weight 2^256: fold them with p5.
    let tx = t4 >> 48;
    let t4 = t4 & M48;

    c = wide(a0, b0); // p0
    d += wide(a1, b4) + wide(a2, b3) + wide(a3, b2) + wide(a4, b1); // p5
    let u0 = (((d as u64) & M52) << 4) | tx;
    d >>= 52;
    c += wide(u0, FOLD);
    let r0 = (c as u64) & M52;
    c >>= 52;

    c += wide(a0, b1) + wide(a1, b0); // p1
    d += wide(a2, b4) + wide(a3, b3) + wide(a4, b2); // p6
    c += wide((d as u64) & M52, R260);
    d >>= 52;
    let r1 = (c as u64) & M52;
    c >>= 52;

    c += wide(a0, b2) + wide(a1, b1) + wide(a2, b0); // p2
    d += wide(a3, b4) + wide(a4, b3); // p7
    c += wide((d as u64) & M52, R260);
    d >>= 52;
    let r2 = (c as u64) & M52;
    c >>= 52;

    c += wide(d as u64, R260) + t3 as u128; // p8's remaining fold
    let r3 = (c as u64) & M52;
    c >>= 52;
    [r0, r1, r2, r3, c as u64 + t4]
}

/// Field squaring: `a² mod p`, magnitude 1. The same column schedule as
/// [`fe_mul`] with each cross product `aᵢ·aⱼ` (`i ≠ j`) formed once and
/// doubled by pre-doubling one factor: 15 limb products instead of 25.
#[inline]
pub(crate) const fn fe_sqr(a: &[u64; 5]) -> [u64; 5] {
    debug_assert!(fe_within(a, MUL_MAX_MAG));
    let [a0, a1, a2, a3, a4] = *a;

    let mut d = wide(a0 * 2, a3) + wide(a1 * 2, a2); // p3
    let mut c = wide(a4, a4); // p8
    d += wide((c as u64) & M52, R260);
    c >>= 52;
    let t3 = (d as u64) & M52;
    d >>= 52;

    let a4x2 = a4 * 2;
    d += wide(a0, a4x2) + wide(a1 * 2, a3) + wide(a2, a2); // p4
    d += wide(c as u64, R260);
    let t4 = (d as u64) & M52;
    d >>= 52;
    let tx = t4 >> 48;
    let t4 = t4 & M48;

    c = wide(a0, a0); // p0
    d += wide(a1, a4x2) + wide(a2 * 2, a3); // p5
    let u0 = (((d as u64) & M52) << 4) | tx;
    d >>= 52;
    c += wide(u0, FOLD);
    let r0 = (c as u64) & M52;
    c >>= 52;

    let a0x2 = a0 * 2;
    c += wide(a0x2, a1); // p1
    d += wide(a2, a4x2) + wide(a3, a3); // p6
    c += wide((d as u64) & M52, R260);
    d >>= 52;
    let r1 = (c as u64) & M52;
    c >>= 52;

    c += wide(a0x2, a2) + wide(a1, a1); // p2
    d += wide(a3, a4x2); // p7
    c += wide((d as u64) & M52, R260);
    d >>= 52;
    let r2 = (c as u64) & M52;
    c >>= 52;

    c += wide(d as u64, R260) + t3 as u128;
    let r3 = (c as u64) & M52;
    c >>= 52;
    [r0, r1, r2, r3, c as u64 + t4]
}

/// `n` squarings followed by a multiply — the building block of the
/// addition chains below.
const fn fe_sqrn_mul(a: &[u64; 5], n: u32, b: &[u64; 5]) -> [u64; 5] {
    let mut t = *a;
    let mut i = 0;
    while i < n {
        t = fe_sqr(&t);
        i += 1;
    }
    fe_mul(&t, b)
}

/// Shared prefix of the inversion and square-root addition chains:
/// returns `(x2, x22, x223)` where `xk = a^(2^k − 1)`.
const fn fe_chain_prefix(a: &[u64; 5]) -> ([u64; 5], [u64; 5], [u64; 5]) {
    let x2 = fe_sqrn_mul(a, 1, a);
    let x3 = fe_sqrn_mul(&x2, 1, a);
    let x6 = fe_sqrn_mul(&x3, 3, &x3);
    let x9 = fe_sqrn_mul(&x6, 3, &x3);
    let x11 = fe_sqrn_mul(&x9, 2, &x2);
    let x22 = fe_sqrn_mul(&x11, 11, &x11);
    let x44 = fe_sqrn_mul(&x22, 22, &x22);
    let x88 = fe_sqrn_mul(&x44, 44, &x44);
    let x176 = fe_sqrn_mul(&x88, 88, &x88);
    let x220 = fe_sqrn_mul(&x176, 44, &x44);
    let x223 = fe_sqrn_mul(&x220, 3, &x3);
    (x2, x22, x223)
}

/// Field inversion by Fermat's little theorem: `a^(p−2) mod p` via the
/// 255-squaring/15-multiply addition chain from libsecp256k1, for `a` of
/// magnitude ≤ 8. Maps zero to zero (callers guard the projective `Z = 0`
/// case explicitly).
pub(crate) const fn fe_inv(a: &[u64; 5]) -> [u64; 5] {
    let (x2, x22, x223) = fe_chain_prefix(a);
    // p − 2 = 2^256 − 2^32 − 979: tail bits 11111111 11111111 11111100 0010 1101.
    let t = fe_sqrn_mul(&x223, 23, &x22);
    let t = fe_sqrn_mul(&t, 5, a);
    let t = fe_sqrn_mul(&t, 3, &x2);
    fe_sqrn_mul(&t, 2, a)
}

/// Square-root candidate `a^((p+1)/4) mod p` (valid because `p ≡ 3 mod 4`)
/// for `a` of magnitude ≤ 8. The result only squares back to `a` when `a`
/// is a quadratic residue — callers must check `r² == a`.
pub(crate) const fn fe_sqrt_candidate(a: &[u64; 5]) -> [u64; 5] {
    let (x2, x22, x223) = fe_chain_prefix(a);
    // (p + 1) / 4 = 2^254 − 2^30 − 244: tail bits 111111 1111111111 1111110000 1100.
    let t = fe_sqrn_mul(&x223, 23, &x22);
    let t = fe_sqrn_mul(&t, 6, &x2);
    fe_sqr(&fe_sqr(&t))
}
