//! Dedicated secp256k1 field element: five 52-bit limbs, lazily reduced,
//! no heap.
//!
//! [`FieldElement`] wraps the raw-limb `const fn` core in
//! [`crate::field_core`] (libsecp256k1's `field_5x52` layout) and carries
//! each value's *magnitude* — how far its limbs may have grown past 52
//! bits. Additions, doublings and negations do no carry and no
//! conditional subtract; a multiplication or squaring reduces its product
//! to magnitude 1 and accepts operands up to [`field_core::MUL_MAX_MAG`].
//! The bound is enforced, never assumed: an operand past it is weakly
//! normalized (one carry pass) first, and no value exceeds
//! [`field_core::MAX_MAG`]. The magnitude depends only on the sequence of
//! operations, never on the values, so these checks do not branch on
//! data.
//!
//! A value is fully normalized — reduced to the canonical representative
//! below `p` — only where a canonical value is observed: `==`,
//! [`FieldElement::is_zero`], [`FieldElement::is_odd`],
//! [`FieldElement::to_bytes_be`], and when a curve point is built in affine
//! coordinates. A normalized value is flagged as such, so comparing two of
//! them is a limb compare.
//!
//! These coordinates carry the elliptic-curve hot paths
//! ([`crate::secp256k1`]); scalars mod `n` live in [`crate::scalar`].
//! `BigUint` is deliberately retained as the *oracle*: every operation here
//! is fuzz-checked against the generic implementation in
//! `tests/field_fuzz.rs`, at and past the magnitude bounds.
//!
//! [`field_core::MUL_MAX_MAG`]: crate::field_core::MUL_MAX_MAG
//! [`field_core::MAX_MAG`]: crate::field_core::MAX_MAG

use crate::bignum::BigUint;
use crate::field_core as fc;
use std::fmt;

/// `mag` of a fully normalized value; it counts as magnitude 1.
const NORMALIZED: u32 = 0;

/// An element of the secp256k1 base field `p = 2^256 − 2^32 − 977`, held
/// lazily reduced.
///
/// Limbs are little-endian radix-2^52 `u64`s; see the module docs for the
/// magnitude rule. The type is `Copy` and heap-free; all arithmetic lowers
/// to the `const fn` core shared with the build-time table generator.
/// Equality compares values, not limbs.
#[derive(Clone, Copy)]
pub struct FieldElement {
    n: [u64; 5],
    /// Magnitude bound of `n`, or [`NORMALIZED`] for the canonical limbs.
    mag: u32,
}

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement::from_u64(0);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement::from_u64(1);

    /// Wrap a value given as little-endian 4×64 limbs. The value must be
    /// reduced (`< p`); this is asserted, at compile time for the
    /// const-baked base tables and curve constants, its intended users.
    pub(crate) const fn from_raw_limbs(limbs: [u64; 4]) -> Self {
        assert!(lt_p(&limbs), "from_raw_limbs needs a value below p");
        FieldElement::new(fc::from_u64x4(&limbs), NORMALIZED)
    }

    /// A small scalar as a field element.
    pub const fn from_u64(v: u64) -> Self {
        FieldElement::from_raw_limbs([v, 0, 0, 0])
    }

    /// Parse a 32-byte big-endian encoding. Returns `None` when the value
    /// is not reduced (`≥ p`), matching the strictness of compressed-point
    /// parsing.
    pub fn from_bytes_be(bytes: &[u8; 32]) -> Option<Self> {
        let mut limbs = [0u64; 4];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            limbs[3 - i] = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        lt_p(&limbs).then(|| FieldElement::new(fc::from_u64x4(&limbs), NORMALIZED))
    }

    /// The canonical 32-byte big-endian encoding.
    pub fn to_bytes_be(&self) -> [u8; 32] {
        let limbs = fc::to_u64x4(&self.normalize().n);
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * i..8 * i + 8].copy_from_slice(&limbs[3 - i].to_be_bytes());
        }
        out
    }

    /// Convert from the generic big integer. Returns `None` when `v ≥ p`.
    pub fn from_biguint(v: &BigUint) -> Option<Self> {
        if v.bit_len() > 256 {
            return None;
        }
        let bytes = v.to_bytes_be_padded(32).expect("≤256 bits fits 32 bytes");
        let arr: [u8; 32] = bytes.as_slice().try_into().expect("padded to 32 bytes");
        Self::from_bytes_be(&arr)
    }

    /// Convert to the generic big integer (the oracle type).
    pub fn to_biguint(&self) -> BigUint {
        BigUint::from_bytes_be(&self.to_bytes_be())
    }

    /// A value from limbs the caller has bounded by `mag` (or normalized,
    /// for [`NORMALIZED`]). Debug builds check the claim.
    #[inline]
    const fn new(n: [u64; 5], mag: u32) -> FieldElement {
        debug_assert!(fc::fe_within(&n, if mag == NORMALIZED { 1 } else { mag }));
        debug_assert!(mag <= fc::MAX_MAG);
        FieldElement { n, mag }
    }

    /// The magnitude bound the limbs currently satisfy (1 when normalized).
    #[inline]
    pub fn magnitude(&self) -> u32 {
        self.mag.max(1)
    }

    /// Whether the limbs are the canonical representative.
    #[inline]
    pub fn is_normalized(&self) -> bool {
        self.mag == NORMALIZED
    }

    /// The canonical representative of the same value.
    #[must_use]
    #[inline]
    pub fn normalize(&self) -> FieldElement {
        if self.is_normalized() {
            return *self;
        }
        FieldElement::new(fc::fe_normalize(&self.n), NORMALIZED)
    }

    /// The same value at magnitude 1: one carry pass, no reduction below
    /// `p`.
    #[inline]
    fn normalize_weak(&self) -> FieldElement {
        if self.mag <= 1 {
            return *self;
        }
        FieldElement::new(fc::fe_normalize_weak(&self.n), 1)
    }

    /// True iff this is the additive identity. Branchless in the value.
    #[inline]
    pub fn is_zero(&self) -> bool {
        if self.is_normalized() {
            return self.n == [0; 5];
        }
        fc::fe_normalizes_to_zero(&self.n)
    }

    /// [`Self::is_zero`] with an early exit that usually decides from one
    /// limb. For values that are not secret: the point-at-infinity and
    /// equal-points checks of the curve formulas.
    #[inline]
    pub(crate) fn is_zero_vartime(&self) -> bool {
        fc::fe_normalizes_to_zero_var(&self.n)
    }

    /// True iff the canonical representative is odd (used for compressed
    /// point parity).
    #[inline]
    pub fn is_odd(&self) -> bool {
        self.normalize().n[0] & 1 == 1
    }

    /// Field addition. No carry: the magnitudes add.
    #[must_use]
    #[inline]
    pub fn add(&self, rhs: &FieldElement) -> FieldElement {
        let (a, b) = if self.magnitude() + rhs.magnitude() > fc::MAX_MAG {
            (self.normalize_weak(), rhs.normalize_weak())
        } else {
            (*self, *rhs)
        };
        FieldElement::new(fc::fe_add(&a.n, &b.n), a.magnitude() + b.magnitude())
    }

    /// Field subtraction, as the addition of the negation.
    #[must_use]
    #[inline]
    pub fn sub(&self, rhs: &FieldElement) -> FieldElement {
        self.add(&rhs.negate())
    }

    /// Field multiplication; the result has magnitude 1.
    #[must_use]
    #[inline]
    pub fn mul(&self, rhs: &FieldElement) -> FieldElement {
        FieldElement::new(fc::fe_mul(&self.mul_operand().n, &rhs.mul_operand().n), 1)
    }

    /// Field squaring, with its own product (15 limb multiplies, not 25).
    #[must_use]
    #[inline]
    pub fn sqr(&self) -> FieldElement {
        FieldElement::new(fc::fe_sqr(&self.mul_operand().n), 1)
    }

    /// Doubling, `2·self`.
    #[must_use]
    #[inline]
    pub fn double(&self) -> FieldElement {
        self.add(self)
    }

    /// `self / 2`, without a branch on the value's parity.
    #[must_use]
    #[inline]
    pub(crate) fn half(&self) -> FieldElement {
        FieldElement::new(fc::fe_half(&self.n), self.magnitude() / 2 + 1)
    }

    /// Additive inverse, `p − self` (zero maps to zero). No carry: the
    /// magnitude grows by one.
    #[must_use]
    #[inline]
    pub fn negate(&self) -> FieldElement {
        let a = if self.magnitude() >= fc::MAX_MAG {
            self.normalize_weak()
        } else {
            *self
        };
        let m = a.magnitude();
        FieldElement::new(fc::fe_negate(&a.n, m), m + 1)
    }

    /// Multiplicative inverse by Fermat's little theorem (`a^(p−2)`), via a
    /// fixed 255-squaring addition chain. Zero maps to zero; callers guard
    /// the projective point-at-infinity case before inverting `Z`.
    #[must_use]
    pub fn invert(&self) -> FieldElement {
        FieldElement::new(fc::fe_inv(&self.mul_operand().n), 1)
    }

    /// Modular square root: `Some(r)` with `r² = self` when `self` is a
    /// quadratic residue (via the `(p+1)/4` exponent chain, `p ≡ 3 mod 4`),
    /// `None` otherwise.
    pub fn sqrt(&self) -> Option<FieldElement> {
        let r = FieldElement::new(fc::fe_sqrt_candidate(&self.mul_operand().n), 1);
        (r.sqr() == *self).then_some(r)
    }

    /// `self`, weakly normalized if its magnitude is past what a product
    /// accepts.
    #[inline]
    fn mul_operand(&self) -> FieldElement {
        if self.magnitude() > fc::MUL_MAX_MAG {
            self.normalize_weak()
        } else {
            *self
        }
    }
}

impl PartialEq for FieldElement {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.normalize().n == other.normalize().n
    }
}

impl Eq for FieldElement {}

impl fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FieldElement({})",
            crate::hex::encode(&self.to_bytes_be())
        )
    }
}

/// True iff little-endian 4×64 limbs hold a value below `p`.
const fn lt_p(limbs: &[u64; 4]) -> bool {
    // p = 2^256 − 0x1000003D1: below p iff the top three limbs are not all
    // ones, or limb 0 is below p's.
    limbs[3] & limbs[2] & limbs[1] != u64::MAX || limbs[0] < 0xFFFF_FFFE_FFFF_FC2F
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> BigUint {
        BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .unwrap()
    }

    #[test]
    fn constants_round_trip() {
        assert_eq!(FieldElement::ZERO.to_biguint(), BigUint::zero());
        assert_eq!(FieldElement::ONE.to_biguint(), BigUint::one());
        assert!(FieldElement::ZERO.is_zero());
        assert!(!FieldElement::ONE.is_zero());
        assert!(FieldElement::ONE.is_odd());
    }

    #[test]
    fn p_is_rejected_and_p_minus_one_accepted() {
        assert!(FieldElement::from_biguint(&p()).is_none());
        let pm1 = p().sub(&BigUint::one());
        let fe = FieldElement::from_biguint(&pm1).unwrap();
        assert_eq!(fe.to_biguint(), pm1);
        // (p−1) + 1 ≡ 0
        assert!(fe.add(&FieldElement::ONE).is_zero());
        // (p−1)² ≡ 1
        assert_eq!(fe.sqr(), FieldElement::ONE);
    }

    #[test]
    fn invert_matches_oracle() {
        let fe = FieldElement::from_u64(0xdead_beef);
        let inv = fe.invert();
        assert_eq!(fe.mul(&inv), FieldElement::ONE);
        let oracle = BigUint::from_u64(0xdead_beef).mod_inverse(&p()).unwrap();
        assert_eq!(inv.to_biguint(), oracle);
    }

    #[test]
    fn sqrt_of_four_is_two_up_to_sign() {
        let r = FieldElement::from_u64(4).sqrt().expect("4 is a QR");
        assert_eq!(r.sqr(), FieldElement::from_u64(4));
    }

    #[test]
    fn bytes_round_trip() {
        let v =
            BigUint::from_hex("c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5")
                .unwrap();
        let fe = FieldElement::from_biguint(&v).unwrap();
        assert_eq!(FieldElement::from_bytes_be(&fe.to_bytes_be()), Some(fe));
        assert_eq!(fe.to_biguint(), v);
    }
}
