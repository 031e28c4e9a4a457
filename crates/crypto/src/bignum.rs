//! Arbitrary-precision unsigned integer arithmetic.
//!
//! [`BigUint`] backs the crate's RSA (key generation and the key
//! material). The secp256k1 field and scalar arithmetic run on fixed-limb
//! types of their own (`field_core`, `scalar`), for which `BigUint` is
//! only the test oracle (the fuzz tests convert through
//! `FieldElement::from_biguint` / `to_biguint`). It stores
//! little-endian `u64` limbs with `u128` intermediates, is always kept
//! normalized (no trailing zero limbs), and implements the handful of
//! number-theoretic operations the crate needs: modular exponentiation
//! and modular inverse.
//!
//! The implementation favours clarity and testability over raw speed;
//! schoolbook multiplication and long division are entirely adequate for
//! 256–2048-bit operands at the call rates of the BcWAN simulator. The one
//! exception is modular exponentiation — every RSA operation and each
//! Miller–Rabin round and Lucas chain of the per-message keygen — which
//! runs on the allocation-free fixed-width engine of [`MontgomeryCtx`].

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// # Examples
///
/// ```
/// use bcwan_crypto::bignum::BigUint;
///
/// let a = BigUint::from_u64(1 << 40);
/// let b = &a * &a;
/// assert_eq!(b, BigUint::from_hex("100000000000000000000").unwrap());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; invariant: no trailing zero limbs (zero == empty).
    limbs: Vec<u64>,
}

/// Error returned when parsing a [`BigUint`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigUintError {
    offending: char,
}

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid digit {:?} in big integer literal",
            self.offending
        )
    }
}

impl std::error::Error for ParseBigUintError {}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds a value from big-endian bytes (the natural wire order for
    /// cryptographic material). Leading zero bytes are accepted.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | u64::from(b);
            }
            limbs.push(limb);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Serializes to big-endian bytes with no leading zeros (empty for `0`).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[first..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padding with zeros.
    ///
    /// # Errors
    ///
    /// Returns `None` if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParseBigUintError`] on any non-hex character.
    pub fn from_hex(s: &str) -> Result<Self, ParseBigUintError> {
        let mut nibbles = Vec::with_capacity(s.len());
        for c in s.chars() {
            let v = c.to_digit(16).ok_or(ParseBigUintError { offending: c })?;
            nibbles.push(v as u8);
        }
        // Pack big-endian nibbles into bytes.
        if nibbles.len() % 2 == 1 {
            nibbles.insert(0, 0);
        }
        let bytes: Vec<u8> = nibbles.chunks(2).map(|p| (p[0] << 4) | p[1]).collect();
        Ok(Self::from_bytes_be(&bytes))
    }

    /// Formats as lowercase hex with no leading zeros (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Whether the low bit is set.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Whether the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        !self.is_odd()
    }

    /// Number of significant bits (`0` for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (zero-indexed from the least significant bit).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Value of the `i`-th 4-bit group (zero-indexed from the least
    /// significant nibble) — the digit consumed per window by the
    /// fixed-window exponentiation and EC scalar-multiplication paths.
    pub(crate) fn nibble(&self, i: usize) -> u8 {
        let (limb, off) = (i / 16, (i % 16) * 4);
        self.limbs.get(limb).map_or(0, |l| ((l >> off) & 0xf) as u8)
    }

    /// Sets bit `i` to one, growing as needed.
    pub fn set_bit(&mut self, i: usize) {
        let (limb, off) = (i / 64, i % 64);
        if self.limbs.len() <= limb {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << off;
    }

    /// Returns the value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Builds a value from little-endian limbs, dropping high zero limbs.
    fn from_limbs(limbs: &[u64]) -> Self {
        let mut out = BigUint {
            limbs: limbs.to_vec(),
        };
        out.normalize();
        out
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    fn add_assign(&mut self, other: &Self) {
        let n = self.limbs.len().max(other.limbs.len());
        self.limbs.resize(n, 0);
        let mut carry = 0u64;
        for i in 0..n {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = self.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`; use [`BigUint::checked_sub`] when underflow
    /// is a legal outcome.
    pub fn sub(&self, other: &Self) -> Self {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }

    /// `self - other`, or `None` on underflow.
    pub fn checked_sub(&self, other: &Self) -> Option<Self> {
        if self < other {
            return None;
        }
        let mut limbs = self.limbs.clone();
        let mut borrow = 0u64;
        for (i, limb) in limbs.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = limb.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *limb = d2;
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        let mut out = BigUint { limbs };
        out.normalize();
        Some(out)
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut limbs = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = u128::from(limbs[i + j]) + u128::from(a) * u128::from(b) + carry;
                limbs[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = u128::from(limbs[k]) + carry;
                limbs[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let (limb_shift, bit_shift) = (n / 64, n % 64);
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                limbs.push(carry);
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> Self {
        let (limb_shift, bit_shift) = (n / 64, n % 64);
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let mut limbs: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift > 0 {
            let mut carry = 0u64;
            for l in limbs.iter_mut().rev() {
                let new = (*l >> bit_shift) | carry;
                carry = *l << (64 - bit_shift);
                *l = new;
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Quotient and remainder of `self / divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        // Fast path for single-limb divisors.
        if divisor.limbs.len() == 1 {
            let d = u128::from(divisor.limbs[0]);
            let mut rem = 0u128;
            let mut q = vec![0u64; self.limbs.len()];
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | u128::from(self.limbs[i]);
                q[i] = (cur / d) as u64;
                rem = cur % d;
            }
            let mut quot = BigUint { limbs: q };
            quot.normalize();
            return (quot, Self::from_u64(rem as u64));
        }
        // Knuth Algorithm D (TAOCP vol. 2, 4.3.1) on u64 limbs.
        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;

        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        u.resize(self.limbs.len() + 1, 0); // room for the extra high limb

        let b = 1u128 << 64;
        let mut q = vec![0u64; m + 1];

        // D2–D7: compute one quotient limb per iteration, high to low.
        for j in (0..=m).rev() {
            // D3: estimate qhat from the top two dividend limbs.
            let top = (u128::from(u[j + n]) << 64) | u128::from(u[j + n - 1]);
            let mut qhat = top / u128::from(v[n - 1]);
            let mut rhat = top % u128::from(v[n - 1]);
            while qhat >= b || qhat * u128::from(v[n - 2]) > (rhat << 64) + u128::from(u[j + n - 2])
            {
                qhat -= 1;
                rhat += u128::from(v[n - 1]);
                if rhat >= b {
                    break;
                }
            }

            // D4: multiply-and-subtract qhat * v from u[j..=j+n].
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let product = qhat * u128::from(v[i]) + carry;
                carry = product >> 64;
                let sub = i128::from(u[j + i]) - (product as u64 as i128) + borrow;
                u[j + i] = sub as u64; // wraps mod 2^64
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = i128::from(u[j + n]) - (carry as i128) + borrow;
            u[j + n] = sub as u64;
            borrow = sub >> 64;

            // D5/D6: if we subtracted too much (rare), add one v back.
            if borrow < 0 {
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let sum = u128::from(u[j + i]) + u128::from(v[i]) + carry;
                    u[j + i] = sum as u64;
                    carry = sum >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }

        // D8: denormalize the remainder.
        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint {
            limbs: u[..n].to_vec(),
        };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &Self) -> Self {
        self.div_rem(m).1
    }

    /// `self mod m` for a word-sized modulus, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub(crate) fn rem_u64(&self, m: u64) -> u64 {
        assert!(m != 0, "BigUint division by zero");
        let m = u128::from(m);
        let rem = self
            .limbs
            .iter()
            .rev()
            .fold(0u128, |rem, &limb| ((rem << 64) | u128::from(limb)) % m);
        rem as u64
    }

    /// `(self * other) mod m`.
    pub fn mul_mod(&self, other: &Self, m: &Self) -> Self {
        self.mul(other).rem(m)
    }

    /// `(self + other) mod m`; operands must already be `< m`.
    pub fn add_mod(&self, other: &Self, m: &Self) -> Self {
        let s = self.add(other);
        if s >= *m {
            s.sub(m)
        } else {
            s
        }
    }

    /// `(self - other) mod m`; operands must already be `< m`.
    pub fn sub_mod(&self, other: &Self, m: &Self) -> Self {
        if self >= other {
            self.sub(other)
        } else {
            self.add(m).sub(other)
        }
    }

    /// `self^exp mod m`.
    ///
    /// Odd moduli (every RSA modulus and the secp256k1 field prime) are
    /// routed through a [`MontgomeryCtx`] fixed-window ladder; even moduli
    /// fall back to [`BigUint::mod_pow_schoolbook`], since Montgomery
    /// reduction requires `gcd(m, 2^64) = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mod_pow(&self, exp: &Self, m: &Self) -> Self {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if let Some(ctx) = MontgomeryCtx::new(m) {
            return ctx.mod_pow(self, exp);
        }
        self.mod_pow_schoolbook(exp, m)
    }

    /// `self^exp mod m` by plain square-and-multiply with full division
    /// at every step.
    ///
    /// Kept as the reference implementation: the Montgomery fast path is
    /// fuzz-tested for bit-identical results against this routine, and even
    /// moduli (where Montgomery reduction is undefined) still use it.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mod_pow_schoolbook(&self, exp: &Self, m: &Self) -> Self {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m.is_one() {
            return Self::zero();
        }
        let mut base = self.rem(m);
        let mut result = Self::one();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul_mod(&base, m);
            }
            base = base.mul_mod(&base, m);
        }
        result
    }

    /// Modular multiplicative inverse: `self^-1 mod m`, if it exists.
    ///
    /// Uses the extended Euclidean algorithm over signed cofactors.
    pub fn mod_inverse(&self, m: &Self) -> Option<Self> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let a = self.rem(m);
        if a.is_zero() {
            return None;
        }
        // Track (old_r, r) and the coefficient of `a` as (sign, magnitude).
        let mut old_r = a;
        let mut r = m.clone();
        let mut old_s = (false, Self::one()); // (negative?, |s|)
        let mut s = (false, Self::zero());
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = std::mem::replace(&mut r, rem);
            // new_s = old_s - q * s  (signed arithmetic on magnitudes)
            let qs = q.mul(&s.1);
            let new_s = signed_sub(&old_s, &(s.0, qs));
            old_s = std::mem::replace(&mut s, new_s);
        }
        if !old_r.is_one() {
            return None; // not coprime
        }
        let (neg, mag) = old_s;
        let mag = mag.rem(m);
        Some(if neg && !mag.is_zero() {
            m.sub(&mag)
        } else {
            mag
        })
    }

    /// Whether `self` is a perfect square: Newton's integer square root
    /// from above, `x ← (x + self/x) / 2` until it stops falling, then
    /// one product.
    fn is_square(&self) -> bool {
        if self.is_zero() {
            return true;
        }
        let mut x = Self::one().shl(self.bit_len().div_ceil(2));
        loop {
            let next = x.add(&self.div_rem(&x).0).shr(1);
            if next >= x {
                return x.mul(&x) == *self;
            }
            x = next;
        }
    }

    /// Uniform random value in `[0, bound)` using the supplied RNG.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: rand::RngCore>(rng: &mut R, bound: &Self) -> Self {
        assert!(!bound.is_zero(), "bound must be positive");
        let bytes = bound.bit_len().div_ceil(8);
        loop {
            let mut buf = vec![0u8; bytes];
            rng.fill_bytes(&mut buf);
            // Mask excess high bits so rejection is cheap.
            let excess = bytes * 8 - bound.bit_len();
            if excess > 0 {
                buf[0] &= 0xff >> excess;
            }
            let candidate = Self::from_bytes_be(&buf);
            if candidate < *bound {
                return candidate;
            }
        }
    }

    /// Random value with exactly `bits` significant bits (top bit set).
    pub fn random_bits<R: rand::RngCore>(rng: &mut R, bits: usize) -> Self {
        assert!(bits > 0, "bit count must be positive");
        let bytes = bits.div_ceil(8);
        let mut buf = vec![0u8; bytes];
        rng.fill_bytes(&mut buf);
        let excess = bytes * 8 - bits;
        buf[0] &= 0xff >> excess;
        let mut v = Self::from_bytes_be(&buf);
        v.set_bit(bits - 1);
        v
    }
}

/// Computes `a - b` over sign-magnitude pairs.
fn signed_sub(a: &(bool, BigUint), b: &(bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - (-b) = a + b ; (-a) - b = -(a + b)
        (false, true) => (false, a.1.add(&b.1)),
        (true, false) => (true, a.1.add(&b.1)),
        // same sign: magnitude subtraction with possible sign flip
        (sa, _) => {
            if a.1 >= b.1 {
                (sa, a.1.sub(&b.1))
            } else {
                (!sa, b.1.sub(&a.1))
            }
        }
    }
}

/// Precomputed Montgomery-reduction context for a fixed odd modulus.
///
/// Montgomery arithmetic replaces the full division after every modular
/// multiplication with shifts and adds against `R = 2^(64·k)` (where `k` is
/// the limb count of the modulus). It requires `gcd(n, R) = 1`, which for a
/// power-of-two `R` means `n` must be odd — true for every RSA modulus
/// (product of odd primes) and for the secp256k1 field prime and group
/// order. [`MontgomeryCtx::new`] returns `None` for even or trivial moduli
/// so callers can fall back to schoolbook reduction.
///
/// Residues are `k`-limb little-endian slices, zero-padded and always
/// `< n`. Every operation works in one block of 19 such rows (window table,
/// operand, accumulator, product target) — on the stack up to 32 limbs
/// (2048 bits), one heap block per call above that — so no product
/// allocates. Everything but `n` is derived from `n`, which is why equality
/// and hashing look at `n` alone.
#[derive(Debug, Clone)]
pub struct MontgomeryCtx {
    /// The (odd, > 1) modulus.
    n: BigUint,
    /// Limb count of `n`; all Montgomery residues use this width.
    k: usize,
    /// `-n^{-1} mod 2^64`, the per-word reduction factor `n'`.
    n0inv: u64,
    /// `R^2 mod n`, used to convert into Montgomery form.
    r2: Vec<u64>,
    /// `R mod n`, i.e. `1` in Montgomery form.
    r1: Vec<u64>,
}

impl PartialEq for MontgomeryCtx {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
    }
}

impl Eq for MontgomeryCtx {}

impl std::hash::Hash for MontgomeryCtx {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.n.hash(state);
    }
}

/// Widest modulus (2048 bits) whose working rows live on the stack.
const MAX_STACK_LIMBS: usize = 32;

/// Rows of working storage per operation: the 16-entry window table, one
/// operand, the accumulator and the product target.
const SCRATCH_ROWS: usize = 19;

/// CIOS (coarsely integrated operand scanning) Montgomery product with the
/// two inner passes fused: `out = a · b · R^{-1} mod n` for `k`-limb
/// residues `a, b < n`, where `k = n.len()`. The running value lives in
/// `out` plus one carry word, so nothing is allocated.
///
/// This is the only source of the loop: [`mont_mul_fixed`] instantiates it
/// with array operands for the limb counts RSA uses, everything else calls
/// it on slices.
#[inline(always)]
fn mont_mul(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0inv: u64) {
    let k = n.len();
    let (out, a, b) = (&mut out[..k], &a[..k], &b[..k]);
    out.fill(0);
    // t[k]: the running value stays < 2n < 2^(64k+1), so one word holds it.
    let mut top = 0u64;
    for &ai in a {
        // m is chosen so that t + ai·b + m·n has a zero low word; dropping
        // that word is the division by 2^64.
        let s = u128::from(out[0]) + u128::from(ai) * u128::from(b[0]);
        let m = (s as u64).wrapping_mul(n0inv);
        let r = u128::from(s as u64) + u128::from(m) * u128::from(n[0]);
        let (mut carry_ab, mut carry_mn) = (s >> 64, r >> 64);
        for j in 1..k {
            let s = u128::from(out[j]) + u128::from(ai) * u128::from(b[j]) + carry_ab;
            carry_ab = s >> 64;
            let r = u128::from(s as u64) + u128::from(m) * u128::from(n[j]) + carry_mn;
            carry_mn = r >> 64;
            out[j - 1] = r as u64;
        }
        let s = u128::from(top) + carry_ab + carry_mn;
        out[k - 1] = s as u64;
        top = (s >> 64) as u64;
    }
    if top != 0 || !limbs_less(out, n) {
        limbs_sub_assign(out, n);
    }
}

/// [`mont_mul`] at a compile-time width, so the compiler sees every loop
/// bound and drops the bounds checks.
fn mont_mul_fixed<const K: usize>(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0inv: u64) {
    fn fixed<const K: usize>(s: &[u64]) -> &[u64; K] {
        s.try_into().expect("residue has the modulus width")
    }
    let out: &mut [u64; K] = out.try_into().expect("residue has the modulus width");
    mont_mul(out, fixed::<K>(a), fixed::<K>(b), fixed::<K>(n), n0inv);
}

/// Montgomery square at a compile-time width: `out = a · a · R^{-1} mod
/// n`, the value [`mont_mul_fixed`] returns for `b = a`. The square is
/// formed first, each cross term `a[i]·a[j]` once and doubled
/// (`K(K+1)/2` word products), then reduced word by word (`K²` more):
/// 26 word products at RSA-512 keygen's 4 limbs against CIOS's 32. Both
/// results are reduced below `n`, so they are the same number.
fn mont_sqr_fixed<const K: usize>(out: &mut [u64], a: &[u64], n: &[u64], n0inv: u64) {
    let out: &mut [u64; K] = out.try_into().expect("residue has the modulus width");
    let a: &[u64; K] = a.try_into().expect("residue has the modulus width");
    let n: &[u64; K] = n.try_into().expect("modulus width");
    // t = a², 2K words (sized for the widest K this is used at).
    let mut t = [0u64; 2 * MAX_SQR_LIMBS];
    let t = &mut t[..2 * K];
    for i in 0..K {
        let mut carry = 0u128;
        for j in i + 1..K {
            let p = u128::from(a[i]) * u128::from(a[j]) + u128::from(t[i + j]) + carry;
            t[i + j] = p as u64;
            carry = p >> 64;
        }
        t[i + K] = carry as u64;
    }
    // The cross terms sum to below a²/2 < 2^(128K-1): doubling fits.
    let mut high = 0;
    for word in t.iter_mut() {
        let next = *word >> 63;
        *word = (*word << 1) | high;
        high = next;
    }
    let mut carry = 0u128;
    for i in 0..K {
        let p = u128::from(a[i]) * u128::from(a[i]);
        let lo = u128::from(t[2 * i]) + (p & u128::from(u64::MAX)) + carry;
        t[2 * i] = lo as u64;
        let hi = u128::from(t[2 * i + 1]) + (p >> 64) + (lo >> 64);
        t[2 * i + 1] = hi as u64;
        carry = hi >> 64;
    }
    // Reduce: each step adds m·n·2^(64i), zeroing word i; `top` carries
    // out of word i + K into the next step's top word.
    let mut top = 0u64;
    for i in 0..K {
        let m = t[i].wrapping_mul(n0inv);
        let mut carry = 0u128;
        for j in 0..K {
            let p = u128::from(m) * u128::from(n[j]) + u128::from(t[i + j]) + carry;
            t[i + j] = p as u64;
            carry = p >> 64;
        }
        let s = u128::from(t[i + K]) + carry + u128::from(top);
        t[i + K] = s as u64;
        top = (s >> 64) as u64;
    }
    out.copy_from_slice(&t[K..]);
    // (a² + m·n) / R < (n² + R·n) / R < 2n: one subtraction at most.
    if top != 0 || !limbs_less(out, n) {
        limbs_sub_assign(out, n);
    }
}

/// Widest modulus, in limbs, that squares through [`mont_sqr_fixed`]:
/// RSA-512 moduli and their (keygen and CRT) primes.
const MAX_SQR_LIMBS: usize = 8;

/// `a < b` for equal-width little-endian limb slices.
fn limbs_less(a: &[u64], b: &[u64]) -> bool {
    a.iter().rev().lt(b.iter().rev())
}

/// `a -= b` for equal-width limb slices, wrapping mod `2^(64·len)`.
fn limbs_sub_assign(a: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        *x = d2;
        borrow = b1 | b2;
    }
}

/// `a += b` for equal-width limb slices, wrapping mod `2^(64·len)`;
/// returns the carry out.
fn limbs_add_assign(a: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(u64::from(carry));
        *x = s2;
        carry = c1 | c2;
    }
    carry
}

/// `a = (a + b) mod n` for residues `a, b < n`.
fn limbs_add_mod(a: &mut [u64], b: &[u64], n: &[u64]) {
    if limbs_add_assign(a, b) || !limbs_less(a, n) {
        limbs_sub_assign(a, n);
    }
}

/// `a = (a − b) mod n` for residues `a, b < n`: the wrapped difference,
/// plus `n` (wrapping back) when it borrowed.
fn limbs_sub_mod(a: &mut [u64], b: &[u64], n: &[u64]) {
    let borrow = limbs_less(a, b);
    limbs_sub_assign(a, b);
    if borrow {
        limbs_add_assign(a, n);
    }
}

/// The Jacobi symbol `(a/n)` for a word `a > 0` and an odd `n`: the
/// factors of two in `a` by the second supplement, then reciprocity
/// turns it into `(n mod a / a)`, which [`jacobi_u64`] finishes in words.
fn jacobi(a: u64, n: &BigUint) -> i32 {
    let n8 = n.limbs[0] % 8;
    let twos = a.trailing_zeros();
    let a = a >> twos;
    let mut sign = if twos % 2 == 1 && (n8 == 3 || n8 == 5) {
        -1
    } else {
        1
    };
    if a % 4 == 3 && n8 % 4 == 3 {
        sign = -sign;
    }
    sign * jacobi_u64(n.rem_u64(a), a)
}

/// The Jacobi symbol `(a/m)` for an odd word `m`.
fn jacobi_u64(mut a: u64, mut m: u64) -> i32 {
    let mut sign = 1;
    a %= m;
    while a != 0 {
        while a.is_multiple_of(2) {
            a /= 2;
            if m % 8 == 3 || m % 8 == 5 {
                sign = -sign;
            }
        }
        std::mem::swap(&mut a, &mut m);
        if a % 4 == 3 && m % 4 == 3 {
            sign = -sign;
        }
        a %= m;
    }
    if m == 1 {
        sign
    } else {
        0
    }
}

impl MontgomeryCtx {
    /// Builds a context for `n`, or `None` if `n` is even or `<= 1`
    /// (Montgomery reduction needs `gcd(n, 2^64) = 1`).
    pub fn new(n: &BigUint) -> Option<Self> {
        if !n.is_odd() || n.is_one() {
            return None;
        }
        let k = n.limbs.len();
        // Newton iteration for the inverse of n[0] mod 2^64: each step
        // doubles the number of correct low bits, and the odd seed is
        // already correct mod 8 (x*x ≡ 1 mod 8 for odd x), so five steps
        // reach 96 ≥ 64 bits.
        let n0 = n.limbs[0];
        let mut inv = n0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n0inv = inv.wrapping_neg();
        let r1 = BigUint::one().shl(64 * k).rem(n);
        let r2 = r1.mul_mod(&r1, n);
        let padded = |x: BigUint| {
            let mut limbs = x.limbs;
            limbs.resize(k, 0);
            limbs
        };
        Some(MontgomeryCtx {
            n: n.clone(),
            k,
            n0inv,
            r2: padded(r2),
            r1: padded(r1),
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// `out = a · b · R^{-1} mod n`, at the width picked from the modulus'
    /// limb count: monomorphised for RSA-512/1024/2048 moduli and their CRT
    /// primes, the same loop over plain slices for anything else.
    #[inline]
    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        let n = &self.n.limbs;
        match self.k {
            4 => mont_mul_fixed::<4>(out, a, b, n, self.n0inv),
            8 => mont_mul_fixed::<8>(out, a, b, n, self.n0inv),
            16 => mont_mul_fixed::<16>(out, a, b, n, self.n0inv),
            32 => mont_mul_fixed::<32>(out, a, b, n, self.n0inv),
            _ => mont_mul(out, a, b, n, self.n0inv),
        }
    }

    /// `out = a · a · R^{-1} mod n`: [`mul`](Self::mul) with `b = a`, on a
    /// dedicated square at the RSA-512 widths.
    #[inline]
    fn sqr(&self, out: &mut [u64], a: &[u64]) {
        let n = &self.n.limbs;
        match self.k {
            4 => mont_sqr_fixed::<4>(out, a, n, self.n0inv),
            8 => mont_sqr_fixed::<8>(out, a, n, self.n0inv),
            _ => self.mul(out, a, a),
        }
    }

    /// Splits `SCRATCH_ROWS · k` words of working storage — `stack` when
    /// the modulus fits it, `heap` grown once otherwise — into the window
    /// table and three single rows.
    fn rows<'a>(
        &self,
        stack: &'a mut [u64; SCRATCH_ROWS * MAX_STACK_LIMBS],
        heap: &'a mut Vec<u64>,
    ) -> (&'a mut [u64], &'a mut [u64], &'a mut [u64], &'a mut [u64]) {
        let k = self.k;
        let block = if k <= MAX_STACK_LIMBS {
            &mut stack[..SCRATCH_ROWS * k]
        } else {
            heap.resize(SCRATCH_ROWS * k, 0);
            &mut heap[..]
        };
        let (table, rest) = block.split_at_mut(16 * k);
        let (x, rest) = rest.split_at_mut(k);
        let (acc, tmp) = rest.split_at_mut(k);
        (table, x, acc, tmp)
    }

    /// Writes `x mod n` into the `k`-limb row `out`.
    fn load(&self, x: &BigUint, out: &mut [u64]) {
        let reduced;
        let limbs = if *x < self.n {
            &x.limbs
        } else {
            reduced = x.rem(&self.n);
            &reduced.limbs
        };
        out[..limbs.len()].copy_from_slice(limbs);
        out[limbs.len()..].fill(0);
    }

    /// Converts the Montgomery residue `x` back to an ordinary [`BigUint`],
    /// using two free rows: one to hold the constant `1`, one for the product.
    fn demont(&self, x: &[u64], one: &mut [u64], out: &mut [u64]) -> BigUint {
        one.fill(0);
        one[0] = 1;
        self.mul(out, x, one);
        BigUint::from_limbs(out)
    }

    /// `base_m^exp` in Montgomery form by a fixed 4-bit-window ladder: a
    /// table of small powers (only as many as the largest exponent digit
    /// needs, so `e = 65537` builds none), then four squarings plus at most
    /// one table multiply per exponent nibble. `exp` must be non-zero.
    /// Returns the row holding the result and the other, free row.
    fn pow_mont<'a>(
        &self,
        table: &mut [u64],
        base_m: &[u64],
        exp: &BigUint,
        mut acc: &'a mut [u64],
        mut tmp: &'a mut [u64],
    ) -> (&'a mut [u64], &'a mut [u64]) {
        let k = self.k;
        let windows = exp.bit_len().div_ceil(4);
        let largest = (0..windows).map(|w| exp.nibble(w)).max().unwrap_or(0) as usize;
        // table[d] = base^d in Montgomery form.
        table[..k].copy_from_slice(&self.r1);
        table[k..2 * k].copy_from_slice(base_m);
        for d in 2..=largest {
            let (lower, upper) = table.split_at_mut(d * k);
            self.mul(&mut upper[..k], &lower[(d - 1) * k..], base_m);
        }
        let entry = |d: usize| d * k..(d + 1) * k;
        // The top window is non-zero by construction (it holds the highest
        // set bit), so the accumulator starts from it directly.
        acc.copy_from_slice(&table[entry(exp.nibble(windows - 1) as usize)]);
        for w in (0..windows - 1).rev() {
            for _ in 0..4 {
                self.sqr(tmp, acc);
                std::mem::swap(&mut acc, &mut tmp);
            }
            let d = exp.nibble(w) as usize;
            if d != 0 {
                self.mul(tmp, acc, &table[entry(d)]);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        (acc, tmp)
    }

    /// `(a · b) mod n`: one product leaves `a·b·R^{-1}`, a second against
    /// `R^2` restores the factor.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let (mut stack, mut heap) = ([0u64; SCRATCH_ROWS * MAX_STACK_LIMBS], Vec::new());
        let (_, x, acc, tmp) = self.rows(&mut stack, &mut heap);
        self.load(a, acc);
        self.load(b, tmp);
        self.mul(x, acc, tmp);
        self.mul(acc, x, &self.r2);
        BigUint::from_limbs(acc)
    }

    /// `base^exp mod n`.
    pub fn mod_pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            // n > 1, so 1 mod n = 1.
            return BigUint::one();
        }
        let (mut stack, mut heap) = ([0u64; SCRATCH_ROWS * MAX_STACK_LIMBS], Vec::new());
        let (table, x, acc, tmp) = self.rows(&mut stack, &mut heap);
        self.load(base, tmp);
        self.mul(x, tmp, &self.r2);
        let (acc, tmp) = self.pow_mont(table, x, exp, acc, tmp);
        self.demont(acc, x, tmp)
    }

    /// One Miller–Rabin round run entirely in Montgomery form: whether the
    /// modulus `n = d·2^s + 1` (`d` odd, `s ≥ 1`) is a strong probable
    /// prime to `base`, i.e. `base^d ≡ 1` or `base^(d·2^r) ≡ −1 (mod n)`
    /// for some `r < s`.
    pub(crate) fn is_strong_probable_prime(&self, base: &BigUint, d: &BigUint, s: usize) -> bool {
        let (mut stack, mut heap) = ([0u64; SCRATCH_ROWS * MAX_STACK_LIMBS], Vec::new());
        let (table, x, acc, tmp) = self.rows(&mut stack, &mut heap);
        self.load(base, tmp);
        self.mul(x, tmp, &self.r2);
        let (mut acc, mut tmp) = self.pow_mont(table, x, d, acc, tmp);
        // −1 in Montgomery form is n − (R mod n); the table is free now.
        let minus_one = &mut table[..self.k];
        minus_one.copy_from_slice(&self.n.limbs);
        limbs_sub_assign(minus_one, &self.r1);
        if *acc == self.r1[..] || acc == minus_one {
            return true;
        }
        for _ in 1..s {
            self.sqr(tmp, acc);
            std::mem::swap(&mut acc, &mut tmp);
            if acc == minus_one {
                return true;
            }
        }
        false
    }

    /// The extra-strong Lucas probable-prime test, Baillie–PSW's second
    /// half, run entirely in Montgomery form.
    ///
    /// Parameters by Baillie's method C: the first `P = 3, 4, …` with
    /// `D = P² − 4` and Jacobi symbol `(D/n) = −1`, and `Q = 1`. A square
    /// `n` has no such `P`, so after 40 misses `n` is checked for being
    /// one. With `n + 1 = s·2^r` (`s` odd), `n` passes if `U_s ≡ 0` and
    /// `V_s ≡ ±2`, or if `V_(s·2^t) ≡ 0` for some `t < r − 1` (mod `n`).
    /// Only `V` is carried, up the bits of `s` as the pair `(V_k, V_(k+1))`:
    /// `V_2k = V_k² − 2` and `V_(2k+1) = V_k·V_(k+1) − P`, one product and
    /// one square per bit; `U_s ≡ 0` is read off `P·V_s ≡ 2·V_(s+1)`
    /// (Crandall–Pomerance eq. 3.13). Go's `math/big` `probablyPrimeLucas`
    /// runs the same algorithm.
    pub(crate) fn is_strong_lucas_probable_prime(&self) -> bool {
        let n = &self.n;
        let mut p = 3u64;
        loop {
            match jacobi(p * p - 4, n) {
                -1 => break,
                // D = (P − 2)(P + 2), and every odd factor of P − 2 (and
                // of a composite P + 2) sat in an earlier D: the factor
                // shared with n is P + 2 itself.
                0 => return *n == BigUint::from_u64(p + 2),
                _ => {}
            }
            if p == 42 && n.is_square() {
                return false;
            }
            p += 1;
        }
        let n_plus_1 = n.add(&BigUint::one());
        let r = (0..).find(|&i| n_plus_1.bit(i)).expect("n + 1 is non-zero");
        let s = n_plus_1.shr(r);

        let k = self.k;
        let (mut stack, mut heap) = ([0u64; SCRATCH_ROWS * MAX_STACK_LIMBS], Vec::new());
        let (table, mut vk, mut vk1, mut tmp) = self.rows(&mut stack, &mut heap);
        let (p_m, rest) = table.split_at_mut(k);
        let (two_m, rest) = rest.split_at_mut(k);
        let (minus_two_m, rest) = rest.split_at_mut(k);
        let scratch = &mut rest[..k];
        // P, 2 and −2 in Montgomery form.
        self.load(&BigUint::from_u64(p), scratch);
        self.mul(p_m, scratch, &self.r2);
        two_m.copy_from_slice(&self.r1);
        limbs_add_mod(two_m, &self.r1, &n.limbs);
        minus_two_m.copy_from_slice(&n.limbs);
        limbs_sub_assign(minus_two_m, two_m);
        // (V_0, V_1) = (2, P), then k runs through the prefixes of s.
        vk.copy_from_slice(two_m);
        vk1.copy_from_slice(p_m);
        for i in (0..s.bit_len()).rev() {
            // V_(2k+1) = V_k·V_(k+1) − P belongs to either next pair.
            self.mul(tmp, vk, vk1);
            limbs_sub_mod(tmp, p_m, &n.limbs);
            if s.bit(i) {
                // k ← 2k + 1: (V_(2k+1), V_(2k+2) = V_(k+1)² − 2).
                std::mem::swap(&mut vk, &mut tmp);
                self.sqr(tmp, vk1);
                std::mem::swap(&mut vk1, &mut tmp);
                limbs_sub_mod(vk1, two_m, &n.limbs);
            } else {
                // k ← 2k: (V_2k = V_k² − 2, V_(2k+1)).
                std::mem::swap(&mut vk1, &mut tmp);
                self.sqr(tmp, vk);
                std::mem::swap(&mut vk, &mut tmp);
                limbs_sub_mod(vk, two_m, &n.limbs);
            }
        }
        if *vk == *two_m || *vk == *minus_two_m {
            self.mul(tmp, vk, p_m);
            scratch.copy_from_slice(vk1);
            limbs_add_mod(scratch, vk1, &n.limbs);
            if *tmp == *scratch {
                return true;
            }
        }
        for _ in 1..r {
            if vk.iter().all(|&w| w == 0) {
                return true;
            }
            // 2 is a fixed point of V ↦ V² − 2: no later term is 0.
            if *vk == *two_m {
                return false;
            }
            self.sqr(tmp, vk);
            limbs_sub_mod(tmp, two_m, &n.limbs);
            std::mem::swap(&mut vk, &mut tmp);
        }
        false
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        Self::from_u64(u64::from(v))
    }
}

impl std::ops::Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::add(self, rhs)
    }
}

impl std::ops::Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        BigUint::sub(self, rhs)
    }
}

impl std::ops::Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::mul(self, rhs)
    }
}

impl std::ops::Rem for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        BigUint::rem(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
        assert_eq!(BigUint::default(), BigUint::zero());
    }

    #[test]
    fn bytes_round_trip() {
        let v = BigUint::from_bytes_be(&[0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(v.to_bytes_be(), vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(
            v.to_bytes_be_padded(11).unwrap(),
            vec![0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        );
        assert!(v.to_bytes_be_padded(3).is_none());
    }

    #[test]
    fn hex_round_trip() {
        let cases = [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ];
        for c in cases {
            assert_eq!(BigUint::from_hex(c).unwrap().to_hex(), c);
        }
        // Leading zeros and uppercase are accepted on parse, normalized on print.
        assert_eq!(BigUint::from_hex("00FF").unwrap().to_hex(), "ff");
        assert!(BigUint::from_hex("xyz").is_err());
    }

    #[test]
    fn add_sub_round_trip() {
        let a = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let b = BigUint::from_hex("1").unwrap();
        let s = a.add(&b);
        assert_eq!(s.to_hex(), "100000000000000000000000000000000");
        assert_eq!(s.sub(&b), a);
        assert_eq!(b.checked_sub(&a), None);
    }

    #[test]
    fn mul_known_values() {
        let a = BigUint::from_hex("ffffffffffffffff").unwrap();
        let sq = a.mul(&a);
        assert_eq!(sq.to_hex(), "fffffffffffffffe0000000000000001");
        assert_eq!(BigUint::zero().mul(&a), BigUint::zero());
        assert_eq!(BigUint::one().mul(&a), a);
    }

    #[test]
    fn div_rem_known_values() {
        let a = BigUint::from_hex("deadbeefdeadbeefdeadbeef").unwrap();
        let b = BigUint::from_hex("12345").unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);

        // Single-limb fast path.
        let (q2, r2) = a.div_rem(&BigUint::from_u64(7));
        assert_eq!(q2.mul(&BigUint::from_u64(7)).add(&r2), a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = BigUint::one().div_rem(&BigUint::zero());
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_hex("1f").unwrap();
        assert_eq!(a.shl(4).to_hex(), "1f0");
        assert_eq!(a.shl(64).to_hex(), "1f0000000000000000");
        assert_eq!(a.shl(64).shr(64), a);
        assert_eq!(a.shr(5).to_hex(), "0");
        assert_eq!(BigUint::zero().shl(100), BigUint::zero());
    }

    #[test]
    fn mod_pow_small() {
        // 3^4 mod 5 = 1
        let r = BigUint::from_u64(3).mod_pow(&BigUint::from_u64(4), &BigUint::from_u64(5));
        assert_eq!(r, BigUint::one());
        // Fermat: 2^(p-1) mod p = 1 for prime p
        let p = BigUint::from_u64(1_000_000_007);
        let r = BigUint::from_u64(2).mod_pow(&p.sub(&BigUint::one()), &p);
        assert_eq!(r, BigUint::one());
        // mod 1 is always 0
        assert_eq!(
            BigUint::from_u64(5).mod_pow(&BigUint::from_u64(5), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    fn mod_inverse_known() {
        // 3 * 4 = 12 = 1 mod 11
        let inv = BigUint::from_u64(3)
            .mod_inverse(&BigUint::from_u64(11))
            .unwrap();
        assert_eq!(inv, BigUint::from_u64(4));
        // Not coprime -> None
        assert!(BigUint::from_u64(6)
            .mod_inverse(&BigUint::from_u64(9))
            .is_none());
        // Zero has no inverse
        assert!(BigUint::zero().mod_inverse(&BigUint::from_u64(7)).is_none());
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_hex("100000000000000000").unwrap();
        let b = BigUint::from_hex("ff").unwrap();
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = StdRng::seed_from_u64(42);
        let bound = BigUint::from_hex("10000000000000001").unwrap();
        for _ in 0..50 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = StdRng::seed_from_u64(7);
        for bits in [1, 8, 63, 64, 65, 256] {
            let v = BigUint::random_bits(&mut rng, bits);
            assert_eq!(v.bit_len(), bits);
        }
    }

    #[test]
    fn display_and_debug_nonempty() {
        assert_eq!(format!("{}", BigUint::zero()), "0x0");
        assert_eq!(format!("{:?}", BigUint::from_u64(255)), "BigUint(0xff)");
        assert_eq!(format!("{:x}", BigUint::from_u64(255)), "ff");
    }

    /// The dedicated square is the general product with `b = a`, word for
    /// word, at both widths it serves: random residues, the extremes
    /// `0`, `1` and `n − 1`, and moduli just below `R` (where the final
    /// subtraction and the top carry are taken most) and just above
    /// `R / 2`.
    #[test]
    fn mont_square_matches_mont_mul() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for k in [4, 8] {
            for case in 0..200 {
                let mut n = BigUint::random_bits(&mut rng, 64 * k);
                match case % 4 {
                    0 => {
                        n = BigUint::one()
                            .shl(64 * k)
                            .sub(&BigUint::from_u64(2 * case + 1))
                    }
                    1 => {
                        n = BigUint::one()
                            .shl(64 * k - 1)
                            .add(&BigUint::from_u64(2 * case + 1))
                    }
                    _ => n.set_bit(0),
                }
                let ctx = MontgomeryCtx::new(&n).expect("odd modulus");
                let n_minus_1 = n.sub(&BigUint::one());
                for a in [
                    BigUint::zero(),
                    BigUint::one(),
                    n_minus_1,
                    BigUint::random_below(&mut rng, &n),
                    BigUint::random_below(&mut rng, &n),
                ] {
                    let mut row = vec![0u64; k];
                    ctx.load(&a, &mut row);
                    let (mut sqr, mut mul) = (vec![0u64; k], vec![0u64; k]);
                    ctx.sqr(&mut sqr, &row);
                    ctx.mul(&mut mul, &row, &row);
                    assert_eq!(sqr, mul, "{k} limbs, n = {n:x}, a = {a:x}");
                }
            }
        }
    }

    /// `(a/m)` from its definition: the product of Legendre symbols over
    /// `m`'s prime factors, each by Euler's criterion.
    fn jacobi_by_factors(a: u64, mut m: u64) -> i32 {
        let mut symbol = 1;
        let mut q = 3;
        while m > 1 {
            while m.is_multiple_of(q) {
                let euler = BigUint::from_u64(a)
                    .mod_pow(&BigUint::from_u64((q - 1) / 2), &BigUint::from_u64(q));
                symbol *= match euler.to_u64() {
                    Some(0) => 0,
                    Some(1) => 1,
                    _ => -1,
                };
                m /= q;
            }
            q += 2;
        }
        symbol
    }

    #[test]
    fn jacobi_matches_its_definition() {
        for m in (1..400u64).step_by(2) {
            for a in 1..300u64 {
                let want = jacobi_by_factors(a, m);
                assert_eq!(jacobi_u64(a, m), want, "({a}/{m})");
                assert_eq!(jacobi(a, &BigUint::from_u64(m)), want, "({a}/{m})");
            }
        }
    }

    #[test]
    fn is_square_finds_exactly_the_squares() {
        let mut rng = StdRng::seed_from_u64(0x5a);
        for n in 0..5_000u64 {
            let root = (n as f64).sqrt() as u64;
            assert_eq!(BigUint::from_u64(n).is_square(), root * root == n, "{n}");
        }
        for bits in [64, 127, 128, 256, 1024] {
            let x = BigUint::random_bits(&mut rng, bits);
            let square = x.mul(&x);
            assert!(square.is_square(), "{bits}-bit root");
            assert!(!square.add(&BigUint::one()).is_square(), "{bits}-bit root");
            assert!(!square.sub(&BigUint::one()).is_square(), "{bits}-bit root");
        }
    }

    #[test]
    fn set_and_get_bits() {
        let mut v = BigUint::zero();
        v.set_bit(100);
        assert!(v.bit(100));
        assert!(!v.bit(99));
        assert_eq!(v.bit_len(), 101);
    }
}
