//! Fixed-limb arithmetic modulo the secp256k1 group order `n`.
//!
//! [`Scalar`] is the mod-`n` counterpart of [`crate::field::FieldElement`]:
//! four little-endian `u64` limbs, no heap, no `BigUint` anywhere on the
//! signing/verification path. Unlike the base field, `n` is not
//! pseudo-Mersenne, so reduction uses Montgomery multiplication (a fixed
//! 4-limb CIOS loop, the same algorithm as the generic
//! [`crate::bignum::MontgomeryCtx`] but fully unrolled and allocation-free)
//! and inversion uses Fermat's little theorem (`a^(n−2)`) with a 4-bit
//! window. Where the input is public — the `s` of a signature being
//! verified — [`Scalar::invert_vartime`] runs Bernstein–Yang's safegcd
//! instead, about six times faster.
//!
//! Values are kept in Montgomery form (`a·R mod n`, `R = 2^256`)
//! internally; conversion happens only at the byte boundary
//! ([`Scalar::from_bytes_be`] / [`Scalar::to_bytes_be`]). Because both the
//! Montgomery and the canonical representative are fully reduced, derived
//! equality on the limbs is value equality.
//!
//! All constants below (`R`, `R²`, `−n⁻¹ mod 2^64`) are *computed* by
//! `const fn`s from the limbs of `n` rather than transcribed, so a typo'd
//! digit cannot survive: `tests/scalar_fuzz.rs` checks every operation
//! against the `BigUint` oracle.

/// Add with carry: returns `(sum, carry_out)` for `a + b + carry`.
pub(crate) const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// Subtract with borrow: returns `(diff, borrow_out)` for `a − b − borrow`.
pub(crate) const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let (d, b1) = a.overflowing_sub(b);
    let (d, b2) = d.overflowing_sub(borrow);
    (d, (b1 | b2) as u64)
}

/// The group order `n`, little-endian limbs.
pub const N: [u64; 4] = [
    0xBFD2_5E8C_D036_4141,
    0xBAAE_DCE6_AF48_A03B,
    0xFFFF_FFFF_FFFF_FFFE,
    0xFFFF_FFFF_FFFF_FFFF,
];

/// `(n − 1) / 2`: the low-S threshold (a signature's `s` is "high" when
/// its canonical value exceeds this).
const HALF_N: [u64; 4] = [
    0xDFE9_2F46_681B_20A0,
    0x5D57_6E73_57A4_501D,
    0xFFFF_FFFF_FFFF_FFFF,
    0x7FFF_FFFF_FFFF_FFFF,
];

/// `2^256 − n`: the additive fold used when a carry escapes limb 3
/// (`2^256 ≡ DELTA (mod n)`). About 2^129, so one fold never carries
/// twice.
const DELTA: [u64; 4] = sub_256(&[0, 0, 0, 0], &N).0;

/// `R mod n = 2^256 − n` (since `n > 2^255`): the Montgomery form of 1.
const R_MOD_N: [u64; 4] = DELTA;

/// `R² mod n`, computed by doubling `R mod n` 256 times.
const R2_MOD_N: [u64; 4] = compute_r2();

/// `R³ mod n`: turns the plain inverse of a Montgomery residue `a·R` back
/// into Montgomery form, `mont_mul((aR)⁻¹, R³) = a⁻¹·R`.
const R3_MOD_N: [u64; 4] = mont_mul(&R2_MOD_N, &R2_MOD_N);

/// `−n⁻¹ mod 2^64`, by Newton iteration (each step doubles the number of
/// correct low bits; 6 steps cover 64).
const N0_INV: u64 = compute_n0_inv();

const fn compute_n0_inv() -> u64 {
    let mut inv = 1u64;
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(N[0].wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
}

/// 256-bit add: returns `(sum, carry)`.
const fn add_256(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let (r0, c) = adc(a[0], b[0], 0);
    let (r1, c) = adc(a[1], b[1], c);
    let (r2, c) = adc(a[2], b[2], c);
    let (r3, c) = adc(a[3], b[3], c);
    ([r0, r1, r2, r3], c)
}

/// 256-bit subtract: returns `(diff, borrow)`.
const fn sub_256(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let (r0, bw) = sbb(a[0], b[0], 0);
    let (r1, bw) = sbb(a[1], b[1], bw);
    let (r2, bw) = sbb(a[2], b[2], bw);
    let (r3, bw) = sbb(a[3], b[3], bw);
    ([r0, r1, r2, r3], bw)
}

/// Subtract `n` once if the value is `≥ n` (value must be `< 2n`).
/// Branchless mask select.
const fn cond_sub_n(r: [u64; 4]) -> [u64; 4] {
    let (d, borrow) = sub_256(&r, &N);
    let keep = borrow.wrapping_neg();
    [
        (r[0] & keep) | (d[0] & !keep),
        (r[1] & keep) | (d[1] & !keep),
        (r[2] & keep) | (d[2] & !keep),
        (r[3] & keep) | (d[3] & !keep),
    ]
}

/// `(a + b) mod n` for reduced inputs.
const fn add_mod(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let (r, carry) = add_256(a, b);
    // a + b < 2n < 2^257. On carry the true value is r + 2^256 ≡ r + DELTA;
    // r = a + b − 2^256 < 2n − 2^256 and DELTA = 2^256 − n, so r + DELTA < n
    // and the fold cannot carry again.
    let folded = if carry == 1 { add_256(&r, &DELTA).0 } else { r };
    cond_sub_n(folded)
}

/// `(a − b) mod n` for reduced inputs.
const fn sub_mod(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let (r, borrow) = sub_256(a, b);
    if borrow == 1 {
        add_256(&r, &N).0
    } else {
        r
    }
}

const fn compute_r2() -> [u64; 4] {
    let mut acc = R_MOD_N;
    let mut i = 0;
    while i < 256 {
        acc = add_mod(&acc, &acc);
        i += 1;
    }
    acc
}

/// Montgomery product `a·b·R⁻¹ mod n` by the CIOS method, fixed to 4
/// limbs: interleave one row of the schoolbook product with one reduction
/// step (`m = t0·n' mod 2^64`, add `m·n`, shift one limb).
const fn mont_mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut t = [0u64; 5];
    let mut i = 0;
    while i < 4 {
        // t += a[i] · b
        let mut carry = 0u64;
        let mut j = 0;
        while j < 4 {
            let cur = t[j] as u128 + a[i] as u128 * b[j] as u128 + carry as u128;
            t[j] = cur as u64;
            carry = (cur >> 64) as u64;
            j += 1;
        }
        let (t4, overflow) = adc(t[4], carry, 0);
        t[4] = t4;
        // m chosen so t + m·n ≡ 0 (mod 2^64); then shift right one limb.
        let m = t[0].wrapping_mul(N0_INV);
        let cur = t[0] as u128 + m as u128 * N[0] as u128;
        let mut carry = (cur >> 64) as u64;
        let mut j = 1;
        while j < 4 {
            let cur = t[j] as u128 + m as u128 * N[j] as u128 + carry as u128;
            t[j - 1] = cur as u64;
            carry = (cur >> 64) as u64;
            j += 1;
        }
        let (t3, c) = adc(t[4], carry, 0);
        t[3] = t3;
        // `overflow` from the product row and `c` here cannot both be set;
        // their sum is the next iteration's 5th limb.
        t[4] = overflow + c;
        i += 1;
    }
    // Result < 2n (standard CIOS bound for n < 2^256): if the 5th limb is
    // set the value is ≥ 2^256 ≥ n, fold it, then one conditional subtract.
    let r = [t[0], t[1], t[2], t[3]];
    let folded = if t[4] != 0 { add_256(&r, &DELTA).0 } else { r };
    cond_sub_n(folded)
}

/// A scalar modulo the secp256k1 group order, held in Montgomery form.
///
/// Always fully reduced; construct via [`Scalar::from_bytes_be`] (strict,
/// rejects `≥ n`) or [`Scalar::reduce_bytes_be`] (wrapping). `Copy`,
/// heap-free, and `BigUint`-free — the ECDSA hot path runs entirely on
/// this type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scalar([u64; 4]);

impl Scalar {
    /// The additive identity.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The multiplicative identity (`R mod n` internally).
    pub const ONE: Scalar = Scalar(R_MOD_N);

    /// A small scalar.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar(mont_mul(&[v, 0, 0, 0], &R2_MOD_N))
    }

    /// A scalar from canonical (non-Montgomery) little-endian limbs that
    /// are already `< n`. Internal bridge for the GLV decomposition, which
    /// produces half-width limb values directly.
    pub(crate) const fn from_canonical_limbs(limbs: [u64; 4]) -> Scalar {
        assert!(!ge_n(&limbs));
        Scalar(mont_mul(&limbs, &R2_MOD_N))
    }

    /// Parse a 32-byte big-endian encoding. Returns `None` when the value
    /// is not reduced (`≥ n`) — the strict check ECDSA needs for `r`, `s`
    /// and private keys.
    pub fn from_bytes_be(bytes: &[u8; 32]) -> Option<Scalar> {
        let limbs = limbs_from_bytes(bytes);
        if ge_n(&limbs) {
            return None;
        }
        Some(Scalar(mont_mul(&limbs, &R2_MOD_N)))
    }

    /// Parse 32 big-endian bytes, reducing modulo `n`. Because
    /// `n > 2^255`, any 256-bit value is `< 2n` and a single conditional
    /// subtract fully reduces it — this is the digest-to-scalar step of
    /// ECDSA (`z = e mod n`) and of RFC 6979.
    pub fn reduce_bytes_be(bytes: &[u8; 32]) -> Scalar {
        let limbs = cond_sub_n(limbs_from_bytes(bytes));
        Scalar(mont_mul(&limbs, &R2_MOD_N))
    }

    /// The canonical (non-Montgomery) little-endian limbs. Used by the
    /// point-multiplication layers, which window over canonical bits.
    pub(crate) fn to_canonical_limbs(self) -> [u64; 4] {
        mont_mul(&self.0, &[1, 0, 0, 0])
    }

    /// The canonical 32-byte big-endian encoding.
    pub fn to_bytes_be(&self) -> [u8; 32] {
        let limbs = self.to_canonical_limbs();
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * i..8 * i + 8].copy_from_slice(&limbs[3 - i].to_be_bytes());
        }
        out
    }

    /// True iff this is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// True iff the canonical value exceeds `(n − 1)/2` — the "high-S"
    /// test behind Bitcoin-style low-S normalization.
    pub fn is_high(&self) -> bool {
        let limbs = self.to_canonical_limbs();
        gt(&limbs, &HALF_N)
    }

    /// Modular addition.
    #[must_use]
    pub fn add(&self, rhs: &Scalar) -> Scalar {
        Scalar(add_mod(&self.0, &rhs.0))
    }

    /// Modular subtraction.
    #[must_use]
    pub fn sub(&self, rhs: &Scalar) -> Scalar {
        Scalar(sub_mod(&self.0, &rhs.0))
    }

    /// Additive inverse (`n − self`; zero maps to zero).
    #[must_use]
    pub fn negate(&self) -> Scalar {
        Scalar(sub_mod(&[0, 0, 0, 0], &self.0))
    }

    /// Modular multiplication (one Montgomery product).
    #[must_use]
    pub fn mul(&self, rhs: &Scalar) -> Scalar {
        Scalar(mont_mul(&self.0, &rhs.0))
    }

    /// Modular squaring.
    #[must_use]
    pub fn sqr(&self) -> Scalar {
        Scalar(mont_mul(&self.0, &self.0))
    }

    /// Multiplicative inverse by Fermat's little theorem: `a^(n−2) mod n`
    /// with a 4-bit fixed window over the constant exponent (≈256
    /// squarings plus 78 multiplies). Zero maps to zero; ECDSA guards
    /// `s ≠ 0` and `k ≠ 0` before inverting.
    ///
    /// The operation sequence is fixed by `n`, not by `self`: this is the
    /// inverse for secret inputs (a signing nonce `k`). Public inputs take
    /// [`Self::invert_vartime`].
    #[must_use]
    pub fn invert(&self) -> Scalar {
        // table[d] = a^d in Montgomery form, d = 0..15.
        let mut table = [R_MOD_N; 16];
        table[1] = self.0;
        let mut d = 2;
        while d < 16 {
            table[d] = mont_mul(&table[d - 1], &self.0);
            d += 1;
        }
        let (exp, _) = sub_256(&N, &[2, 0, 0, 0]);
        let mut acc = R_MOD_N; // 1 in Montgomery form
        let mut first = true;
        // Walk the 64 nibbles of n−2 from most significant down.
        for limb_idx in (0..4).rev() {
            for nib_idx in (0..16).rev() {
                if !first {
                    for _ in 0..4 {
                        acc = mont_mul(&acc, &acc);
                    }
                }
                let d = ((exp[limb_idx] >> (4 * nib_idx)) & 0xf) as usize;
                if d != 0 {
                    acc = mont_mul(&acc, &table[d]);
                    first = false;
                }
            }
        }
        Scalar(acc)
    }

    /// Multiplicative inverse by safegcd (Bernstein–Yang divsteps, in
    /// libsecp256k1's variable-time form). Zero maps to zero.
    ///
    /// Its running time depends on the value, so it may only see public
    /// inputs: a signature's `s` during verification. Secrets (a signing
    /// nonce) take the fixed-sequence [`Self::invert`].
    #[must_use]
    pub fn invert_vartime(&self) -> Scalar {
        // Inverting the Montgomery residue aR gives a⁻¹R⁻¹; one product
        // with R³ brings it back to a⁻¹R.
        Scalar(mont_mul(&safegcd::invert_mod_n(&self.0), &R3_MOD_N))
    }
}

/// Variable-time modular inversion mod `n` by safegcd: batches of 62
/// divsteps on the low word decide a 2×2 transition matrix, which is then
/// applied to the full-width `(f, g)` and to the Bézout coefficients
/// `(d, e)`, until `g` reaches zero. A transcription of libsecp256k1's
/// `modinv64_var`; values are five signed 62-bit limbs.
mod safegcd {
    use super::{N, N0_INV};

    /// `Σ v[i]·2^(62·i)`; each limb in `(−2^62, 2^62)` between steps.
    type Signed62 = [i64; 5];

    const M62: u64 = u64::MAX >> 2;

    const N62: Signed62 = to_signed62(&N);

    /// `n⁻¹ mod 2^62` (`N0_INV` is `−n⁻¹ mod 2^64`).
    const N_INV62: u64 = N0_INV.wrapping_neg() & M62;

    /// The 2×2 matrix of 62 divsteps, scaled by 2^62:
    /// `[f', g'] = [[u, v], [q, r]]·[f, g] / 2^62`.
    struct Trans {
        u: i64,
        v: i64,
        q: i64,
        r: i64,
    }

    const fn to_signed62(a: &[u64; 4]) -> Signed62 {
        [
            (a[0] & M62) as i64,
            ((a[0] >> 62 | a[1] << 2) & M62) as i64,
            ((a[1] >> 60 | a[2] << 4) & M62) as i64,
            ((a[2] >> 58 | a[3] << 6) & M62) as i64,
            (a[3] >> 56) as i64,
        ]
    }

    /// Limbs in `[0, 2^62)` and value below 2^256 back to 4×64.
    fn from_signed62(v: &Signed62) -> [u64; 4] {
        let [v0, v1, v2, v3, v4] = v.map(|l| l as u64);
        [
            v0 | v1 << 62,
            v1 >> 2 | v2 << 60,
            v2 >> 4 | v3 << 58,
            v3 >> 6 | v4 << 56,
        ]
    }

    /// `a⁻¹ mod n` for limbs `a < n`; zero maps to zero.
    pub(super) fn invert_mod_n(a: &[u64; 4]) -> [u64; 4] {
        let mut d: Signed62 = [0; 5];
        let mut e: Signed62 = [1, 0, 0, 0, 0];
        let mut f = N62;
        let mut g = to_signed62(a);
        let mut len = 5;
        // eta = −delta; delta starts at 1.
        let mut eta: i64 = -1;
        loop {
            let (next_eta, t) = divsteps_62_var(eta, f[0] as u64, g[0] as u64);
            eta = next_eta;
            update_de(&mut d, &mut e, &t);
            update_fg(len, &mut f, &mut g, &t);
            if g[0] == 0 && g[1..len].iter().all(|&l| l == 0) {
                break;
            }
            // Shrink the active length once the top limbs of f and g are
            // both 0 or −1, folding the sign into the limb below.
            let (fl, gl) = (f[len - 1], g[len - 1]);
            if len > 1 && (fl ^ (fl >> 63)) == 0 && (gl ^ (gl >> 63)) == 0 {
                f[len - 2] |= ((fl as u64) << 62) as i64;
                g[len - 2] |= ((gl as u64) << 62) as i64;
                len -= 1;
            }
        }
        // g = 0 and f = ±gcd = ±1, so d = ±a⁻¹: fix the sign and range.
        from_signed62(&normalize(d, f[len - 1]))
    }

    /// 62 divsteps on the low words `f0`, `g0` (`f0` odd), skipping runs of
    /// zero bits at once and cancelling up to 6 bits of `g` per step.
    /// Returns the new `eta` and the transition matrix.
    fn divsteps_62_var(mut eta: i64, f0: u64, g0: u64) -> (i64, Trans) {
        let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
        let (mut f, mut g) = (f0, g0);
        let mut i: u32 = 62;
        loop {
            // A sentinel bit stops the zero count at i.
            let zeros = (g | (u64::MAX << i)).trailing_zeros();
            g >>= zeros;
            u <<= zeros;
            v <<= zeros;
            eta -= i64::from(zeros);
            i -= zeros;
            if i == 0 {
                break;
            }
            debug_assert!(f & 1 == 1 && g & 1 == 1);
            debug_assert_eq!(
                u.wrapping_mul(f0).wrapping_add(v.wrapping_mul(g0)),
                f << (62 - i)
            );
            debug_assert_eq!(
                q.wrapping_mul(f0).wrapping_add(r.wrapping_mul(g0)),
                g << (62 - i)
            );
            // At most i steps remain, and at most eta + 1 before the
            // sign of eta flips again.
            let w = if eta < 0 {
                // Swap: (f, g) ← (g, −f), and the matrix rows likewise.
                eta = -eta;
                (f, g) = (g, f.wrapping_neg());
                (u, q) = (q, u.wrapping_neg());
                (v, r) = (r, v.wrapping_neg());
                // Cancel up to 6 bits of g: −g/f mod 2^6, with
                // f⁻¹ ≡ f·(2 − f²) (mod 2^6).
                let limit = (eta + 1).min(i64::from(i)) as u32;
                let m = (u64::MAX >> (64 - limit)) & 63;
                f.wrapping_mul(g)
                    .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2))
                    & m
            } else {
                // Cancel up to 4 bits of g: f⁻¹ mod 16 is f + 8·[f ≡ 3 mod 4].
                let limit = (eta + 1).min(i64::from(i)) as u32;
                let m = (u64::MAX >> (64 - limit)) & 15;
                let inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
                inv.wrapping_neg().wrapping_mul(g) & m
            };
            g = g.wrapping_add(f.wrapping_mul(w));
            q = q.wrapping_add(u.wrapping_mul(w));
            r = r.wrapping_add(v.wrapping_mul(w));
        }
        let t = Trans {
            u: u as i64,
            v: v as i64,
            q: q as i64,
            r: r as i64,
        };
        (eta, t)
    }

    /// `[d, e] ← ([[u, v], [q, r]]·[d, e] + n·[md, me]) / 2^62`, with
    /// `md`, `me` chosen so the division is exact and the results stay in
    /// `(−2n, n)`.
    fn update_de(d: &mut Signed62, e: &mut Signed62, t: &Trans) {
        let (d_in, e_in) = (*d, *e);
        let (u, v, q, r) = (
            i128::from(t.u),
            i128::from(t.v),
            i128::from(t.q),
            i128::from(t.r),
        );
        // Start md, me at [u, q] if d < 0, plus [v, r] if e < 0.
        let sd = d_in[4] >> 63;
        let se = e_in[4] >> 63;
        let mut md = (t.u & sd) + (t.v & se);
        let mut me = (t.q & sd) + (t.r & se);
        let mut cd = u * i128::from(d_in[0]) + v * i128::from(e_in[0]);
        let mut ce = q * i128::from(d_in[0]) + r * i128::from(e_in[0]);
        // Correct md, me so the low 62 bits of the sums cancel.
        md -= (N_INV62.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
        me -= (N_INV62.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
        cd += i128::from(N62[0]) * i128::from(md);
        ce += i128::from(N62[0]) * i128::from(me);
        debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
        cd >>= 62;
        ce >>= 62;
        for k in 1..5 {
            cd += u * i128::from(d_in[k])
                + v * i128::from(e_in[k])
                + i128::from(N62[k]) * i128::from(md);
            ce += q * i128::from(d_in[k])
                + r * i128::from(e_in[k])
                + i128::from(N62[k]) * i128::from(me);
            d[k - 1] = (cd as u64 & M62) as i64;
            e[k - 1] = (ce as u64 & M62) as i64;
            cd >>= 62;
            ce >>= 62;
        }
        d[4] = cd as i64;
        e[4] = ce as i64;
    }

    /// `[f, g] ← [[u, v], [q, r]]·[f, g] / 2^62` over the first `len`
    /// limbs (the rest are sign extension).
    fn update_fg(len: usize, f: &mut Signed62, g: &mut Signed62, t: &Trans) {
        let (u, v, q, r) = (
            i128::from(t.u),
            i128::from(t.v),
            i128::from(t.q),
            i128::from(t.r),
        );
        let mut cf = u * i128::from(f[0]) + v * i128::from(g[0]);
        let mut cg = q * i128::from(f[0]) + r * i128::from(g[0]);
        debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
        cf >>= 62;
        cg >>= 62;
        for k in 1..len {
            let (fk, gk) = (i128::from(f[k]), i128::from(g[k]));
            cf += u * fk + v * gk;
            cg += q * fk + r * gk;
            f[k - 1] = (cf as u64 & M62) as i64;
            g[k - 1] = (cg as u64 & M62) as i64;
            cf >>= 62;
            cg >>= 62;
        }
        f[len - 1] = cf as i64;
        g[len - 1] = cg as i64;
    }

    /// `r` in `(−2n, n)`, negated when `sign < 0`, brought into `[0, n)`
    /// with limbs in `[0, 2^62)`.
    fn normalize(mut r: Signed62, sign: i64) -> Signed62 {
        let add_n = |r: &mut Signed62| {
            let mask = r[4] >> 63;
            for (limb, n) in r.iter_mut().zip(N62) {
                *limb += n & mask;
            }
        };
        let carry = |r: &mut Signed62| {
            for k in 0..4 {
                r[k + 1] += r[k] >> 62;
                r[k] &= M62 as i64;
            }
        };
        // (−2n, n) → (−n, n), then negate if asked.
        add_n(&mut r);
        let neg = sign >> 63;
        for limb in &mut r {
            *limb = (*limb ^ neg) - neg;
        }
        carry(&mut r);
        // (−n, n) → [0, n).
        add_n(&mut r);
        carry(&mut r);
        r
    }
}

/// Big-endian bytes → little-endian limbs (no reduction).
fn limbs_from_bytes(bytes: &[u8; 32]) -> [u64; 4] {
    let mut limbs = [0u64; 4];
    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
        limbs[3 - i] = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    limbs
}

/// True iff `a ≥ n`.
const fn ge_n(a: &[u64; 4]) -> bool {
    let (_, borrow) = sub_256(a, &N);
    borrow == 0
}

/// True iff `a > b` (little-endian limb compare).
fn gt(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::BigUint;

    fn n() -> BigUint {
        BigUint::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
            .unwrap()
    }

    fn to_big(s: &Scalar) -> BigUint {
        BigUint::from_bytes_be(&s.to_bytes_be())
    }

    #[test]
    fn derived_constants_match_oracle() {
        let n = n();
        let r = BigUint::one().shl(256).rem(&n);
        assert_eq!(to_big(&Scalar::ONE), BigUint::one());
        assert_eq!(BigUint::from_bytes_be(&bytes_of(&R_MOD_N)), r);
        assert_eq!(
            BigUint::from_bytes_be(&bytes_of(&R2_MOD_N)),
            r.mul_mod(&r, &n)
        );
        assert_eq!(
            BigUint::from_bytes_be(&bytes_of(&HALF_N)),
            n.sub(&BigUint::one()).shr(1)
        );
        // n · (−n⁻¹) ≡ −1 (mod 2^64)
        assert_eq!(N[0].wrapping_mul(N0_INV), u64::MAX);
    }

    fn bytes_of(limbs: &[u64; 4]) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * i..8 * i + 8].copy_from_slice(&limbs[3 - i].to_be_bytes());
        }
        out
    }

    #[test]
    fn strict_parse_rejects_n_and_above() {
        let n = n();
        let nb: [u8; 32] = n.to_bytes_be_padded(32).unwrap().try_into().unwrap();
        assert!(Scalar::from_bytes_be(&nb).is_none());
        assert!(Scalar::from_bytes_be(&[0xff; 32]).is_none());
        let nm1: [u8; 32] = n
            .sub(&BigUint::one())
            .to_bytes_be_padded(32)
            .unwrap()
            .try_into()
            .unwrap();
        let s = Scalar::from_bytes_be(&nm1).unwrap();
        assert_eq!(s.to_bytes_be(), nm1);
        // n − 1 ≡ −1: squaring gives 1.
        assert_eq!(s.sqr(), Scalar::ONE);
    }

    #[test]
    fn reduce_wraps_mod_n() {
        let n = n();
        let nb: [u8; 32] = n.to_bytes_be_padded(32).unwrap().try_into().unwrap();
        assert!(Scalar::reduce_bytes_be(&nb).is_zero());
        let all_ff = [0xffu8; 32];
        let want = BigUint::from_bytes_be(&all_ff).rem(&n);
        assert_eq!(to_big(&Scalar::reduce_bytes_be(&all_ff)), want);
    }

    #[test]
    fn invert_round_trips() {
        for v in [1u64, 2, 3, 977, 0xdead_beef, u64::MAX] {
            let s = Scalar::from_u64(v);
            assert_eq!(s.mul(&s.invert()), Scalar::ONE, "v={v}");
            let oracle = BigUint::from_u64(v).mod_inverse(&n()).unwrap();
            assert_eq!(to_big(&s.invert()), oracle, "v={v}");
        }
        assert!(Scalar::ZERO.invert().is_zero());
    }

    #[test]
    fn is_high_at_the_boundary() {
        let half = n().sub(&BigUint::one()).shr(1);
        let at: [u8; 32] = half.to_bytes_be_padded(32).unwrap().try_into().unwrap();
        assert!(!Scalar::from_bytes_be(&at).unwrap().is_high());
        let above: [u8; 32] = half
            .add(&BigUint::one())
            .to_bytes_be_padded(32)
            .unwrap()
            .try_into()
            .unwrap();
        assert!(Scalar::from_bytes_be(&above).unwrap().is_high());
        assert!(!Scalar::ZERO.is_high());
    }
}
