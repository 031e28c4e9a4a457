//! secp256k1 elliptic-curve group arithmetic (`y² = x³ + 7` over F_p).
//!
//! The blockchain substrate signs transactions with ECDSA over this curve,
//! exactly as Bitcoin (and therefore Multichain, the paper's blockchain)
//! does. Points use Jacobian projective coordinates internally so scalar
//! multiplication needs a single field inversion at the end.
//!
//! Everything here is fixed-limb: coordinates are lazily reduced
//! [`FieldElement`]s (5×52 limbs) and scalars are Montgomery [`Scalar`]s
//! modulo the group order — `BigUint` does not appear on this path at all
//! (it survives only as the fuzz oracle, bridged through the byte
//! encodings). An [`AffinePoint`]'s coordinates are fully normalized when
//! it is built, so comparing points is a limb compare. The fixed-window
//! base-point table is const-baked by `build.rs` into `.rodata`, so
//! processes pay nothing to build it and `k·G` uses mixed addition against
//! affine entries.

use crate::field::FieldElement;
use crate::scalar::Scalar;
use std::fmt;

// `BASE_TABLE[w][d-1] = (d · 16^w) · G` as affine (x, y) pairs, generated
// at build time from the same `field_core` limb arithmetic (see build.rs).
// Signing and key derivation use it; verification walks the wNAF tables
// in `crate::msm` instead.
include!(concat!(env!("OUT_DIR"), "/base_table.rs"));

/// The curve coefficient `b = 7` in `y² = x³ + 7`.
const CURVE_B: FieldElement = FieldElement::from_u64(7);

/// Generator x-coordinate.
pub(crate) const GEN_X: FieldElement = FieldElement::from_raw_limbs([
    0x59F2_815B_16F8_1798,
    0x029B_FCDB_2DCE_28D9,
    0x55A0_6295_CE87_0B07,
    0x79BE_667E_F9DC_BBAC,
]);

/// Generator y-coordinate.
pub(crate) const GEN_Y: FieldElement = FieldElement::from_raw_limbs([
    0x9C47_D08F_FB10_D4B8,
    0xFD17_B448_A685_5419,
    0x5DA4_FBFC_0E11_08A8,
    0x483A_DA77_26A3_C465,
]);

/// The generator point `G`.
pub const GENERATOR: AffinePoint = AffinePoint::Coords { x: GEN_X, y: GEN_Y };

/// A point in affine coordinates, or the point at infinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AffinePoint {
    /// The identity element.
    Infinity,
    /// A finite point `(x, y)`. Every constructor in this crate stores
    /// fully normalized coordinates.
    Coords {
        /// x-coordinate.
        x: FieldElement,
        /// y-coordinate.
        y: FieldElement,
    },
}

impl AffinePoint {
    /// Whether the point satisfies the curve equation (or is infinity).
    pub(crate) fn is_on_curve(&self) -> bool {
        match self {
            AffinePoint::Infinity => true,
            AffinePoint::Coords { x, y } => y.sqr() == x.sqr().mul(x).add(&CURVE_B),
        }
    }

    /// SEC1 compressed encoding: `02/03 || x` (33 bytes).
    ///
    /// # Panics
    ///
    /// Panics on the point at infinity, which has no SEC1 encoding here.
    pub fn to_compressed(&self) -> [u8; 33] {
        match self {
            AffinePoint::Infinity => panic!("cannot encode point at infinity"),
            AffinePoint::Coords { x, y } => {
                let mut out = [0u8; 33];
                out[0] = if y.is_odd() { 0x03 } else { 0x02 };
                out[1..].copy_from_slice(&x.to_bytes_be());
                out
            }
        }
    }

    /// Parses a SEC1 compressed encoding, checking curve membership.
    pub fn from_compressed(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 33 || (bytes[0] != 0x02 && bytes[0] != 0x03) {
            return None;
        }
        let xb: [u8; 32] = bytes[1..].try_into().expect("33-byte input");
        // Rejects x ≥ p.
        let x = FieldElement::from_bytes_be(&xb)?;
        // y² = x³ + 7; sqrt via exponent (p+1)/4 since p ≡ 3 (mod 4).
        let rhs = x.sqr().mul(&x).add(&CURVE_B);
        let mut y = rhs.sqrt()?.normalize(); // None when x is not on the curve
        let want_odd = bytes[0] == 0x03;
        if y.is_odd() != want_odd {
            y = y.negate().normalize();
        }
        let point = AffinePoint::Coords { x, y };
        debug_assert!(point.is_on_curve());
        Some(point)
    }

    /// Lifts an x-coordinate to the curve point with *even* y, if one
    /// exists. This is the `R` recovery step of batch verification: an
    /// ECDSA `(r, s)` pair determines `R` only up to sign, so the batch
    /// equation fixes the even-y representative and searches signs.
    pub(crate) fn lift_x_even_y(x: FieldElement) -> Option<Self> {
        let rhs = x.sqr().mul(&x).add(&CURVE_B);
        let mut y = rhs.sqrt()?.normalize();
        if y.is_odd() {
            y = y.negate().normalize();
        }
        Some(AffinePoint::Coords {
            x: x.normalize(),
            y,
        })
    }
}

/// Jacobian-coordinate point: `(X, Y, Z)` with `x = X/Z²`, `y = Y/Z³`.
///
/// Coordinates are fixed-limb [`FieldElement`]s; the point-at-infinity is
/// encoded as `Z = 0`.
#[derive(Debug, Clone)]
pub struct JacobianPoint {
    pub(crate) x: FieldElement,
    pub(crate) y: FieldElement,
    pub(crate) z: FieldElement,
}

impl JacobianPoint {
    /// The identity element.
    pub(crate) fn infinity() -> Self {
        JacobianPoint {
            x: FieldElement::ONE,
            y: FieldElement::ONE,
            z: FieldElement::ZERO,
        }
    }

    /// Whether this is the identity. Decided from `Z`'s low limb in all
    /// but a vanishing share of cases, so the curve formulas can ask on
    /// every addition without paying a full normalization.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero_vartime()
    }

    /// Lifts an affine point.
    pub fn from_affine(p: &AffinePoint) -> Self {
        match p {
            AffinePoint::Infinity => Self::infinity(),
            AffinePoint::Coords { x, y } => JacobianPoint {
                x: *x,
                y: *y,
                z: FieldElement::ONE,
            },
        }
    }

    /// Projects back to affine coordinates (one field inversion), fully
    /// normalized.
    pub fn to_affine(&self) -> AffinePoint {
        if self.is_infinity() {
            return AffinePoint::Infinity;
        }
        let z_inv = self.z.invert();
        let z2 = z_inv.sqr();
        let z3 = z2.mul(&z_inv);
        AffinePoint::Coords {
            x: self.x.mul(&z2).normalize(),
            y: self.y.mul(&z3).normalize(),
        }
    }

    /// The negation `(X, −Y, Z)` — one field negation, no multiplies.
    /// Signed-digit multiplication (wNAF, GLV) leans on this being free.
    #[must_use]
    pub fn neg(&self) -> Self {
        JacobianPoint {
            x: self.x,
            y: self.y.negate(),
            z: self.z,
        }
    }

    /// Point doubling (handles the identity and 2-torsion edge cases):
    /// 3M + 4S. libsecp256k1's formula, which returns the doubled point
    /// scaled by `λ = 1/2` (`Z3 = Y·Z` instead of `2·Y·Z`) and keeps every
    /// intermediate at magnitude ≤ 4, so no operand needs a carry pass.
    pub fn double(&self) -> Self {
        if self.is_infinity() || self.y.is_zero_vartime() {
            return Self::infinity();
        }
        // S = Y², L = 3/2·X², T = −X·S.
        let s = self.y.sqr();
        let xx = self.x.sqr();
        let l = xx.double().add(&xx).half();
        let t = s.negate().mul(&self.x);
        // X3 = L² − 2·X·S, Y3 = −(L·(X3 − X·S) + S²), Z3 = Y·Z.
        let x3 = l.sqr().add(&t).add(&t);
        let y3 = x3.add(&t).mul(&l).add(&s.sqr()).negate();
        JacobianPoint {
            x: x3,
            y: y3,
            z: self.z.mul(&self.y),
        }
    }

    /// Point addition: 12M + 4S (libsecp256k1's `gej_add_var`).
    pub fn add(&self, other: &Self) -> Self {
        if self.is_infinity() {
            return other.clone();
        }
        if other.is_infinity() {
            return self.clone();
        }
        let z22 = other.z.sqr();
        let z12 = self.z.sqr();
        let u1 = self.x.mul(&z22);
        let u2 = other.x.mul(&z12);
        let s1 = self.y.mul(&z22).mul(&other.z);
        let s2 = other.y.mul(&z12).mul(&self.z);
        self.add_tail(&u1, &u2, &s1, &s2, &self.z.mul(&other.z))
    }

    /// Mixed addition with an affine point (`Z2 = 1`): 8M + 3S instead of
    /// the 12M + 4S of the general formula. Used for the const-baked
    /// affine tables and for the batch-normalized tables in
    /// [`crate::msm`].
    pub(crate) fn add_mixed(&self, x2: &FieldElement, y2: &FieldElement) -> Self {
        if self.is_infinity() {
            return JacobianPoint {
                x: *x2,
                y: *y2,
                z: FieldElement::ONE,
            };
        }
        let z12 = self.z.sqr();
        let u2 = x2.mul(&z12);
        let s2 = y2.mul(&z12).mul(&self.z);
        self.add_tail(&self.x, &u2, &self.y, &s2, &self.z)
    }

    /// The shared end of both additions, given both points brought to the
    /// common denominator (`U = X·Z'²`, `S = Y·Z'³`) and `Z1·Z2`. Equal
    /// points are caught by `H = U2 − U1 = 0` — one zero test instead of
    /// two normalizations — and handed to [`Self::double`]; opposite
    /// points give the identity.
    fn add_tail(
        &self,
        u1: &FieldElement,
        u2: &FieldElement,
        s1: &FieldElement,
        s2: &FieldElement,
        z1z2: &FieldElement,
    ) -> Self {
        let h = u2.sub(u1);
        let i = s1.sub(s2);
        if h.is_zero_vartime() {
            if i.is_zero_vartime() {
                return self.double();
            }
            return Self::infinity(); // P + (−P)
        }
        // With I = S1 − S2 = −(S2 − S1), H2 = −H², H3 = −H³, T = −U1·H²:
        // X3 = I² − H³ − 2·U1·H², Y3 = (U1·H² − X3)·(S2 − S1) − S1·H³,
        // Z3 = Z1·Z2·H.
        let h2 = h.sqr().negate();
        let h3 = h2.mul(&h);
        let t = u1.mul(&h2);
        let x3 = i.sqr().add(&h3).add(&t).add(&t);
        let y3 = t.add(&x3).mul(&i).add(&h3.mul(s1));
        JacobianPoint {
            x: x3,
            y: y3,
            z: z1z2.mul(&h),
        }
    }

    /// Scalar multiplication by double-and-add (MSB first) over the
    /// canonical bits of `k`. Kept as the simple reference path the fuzz
    /// suites check the fast ones against; the hot paths use the windowed
    /// base table and the GLV/wNAF routines in [`crate::msm`].
    pub fn scalar_mul(&self, k: &Scalar) -> Self {
        let limbs = k.to_canonical_limbs();
        let mut acc = Self::infinity();
        for i in (0..256).rev() {
            acc = acc.double();
            if (limbs[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }
}

impl fmt::Display for AffinePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffinePoint::Infinity => write!(f, "∞"),
            AffinePoint::Coords { x, .. } => {
                write!(f, "({}…)", crate::hex::encode(&x.to_bytes_be()[..8]))
            }
        }
    }
}

/// `k·G` for the curve generator via the const-baked fixed-window table:
/// one mixed addition per non-zero nibble of `k` (≤ 64 additions, no
/// doublings, no table build at runtime). A lone `k·G` with no doubling
/// chain to share — signing and key derivation — is cheapest this way.
pub fn scalar_mul_base(k: &Scalar) -> AffinePoint {
    let limbs = k.to_canonical_limbs();
    let mut acc = JacobianPoint::infinity();
    for w in 0..64 {
        let d = ((limbs[w / 16] >> (4 * (w % 16))) & 0xf) as usize;
        if d != 0 {
            let (x, y) = &BASE_TABLE[w][d - 1];
            acc = acc.add_mixed(x, y);
        }
    }
    acc.to_affine()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::BigUint;

    fn scalar(v: u64) -> Scalar {
        Scalar::from_u64(v)
    }

    #[test]
    fn generator_is_on_curve() {
        assert!(GENERATOR.is_on_curve());
    }

    #[test]
    fn generator_has_order_n() {
        // (n−1)·G = −G (same x, opposite y); n itself is not representable
        // as a Scalar (it reduces to zero), which pins n·G = ∞ trivially.
        let n_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
        let n1g = scalar_mul_base(&n_minus_1);
        match (&GENERATOR, &n1g) {
            (AffinePoint::Coords { x: gx, y: gy }, AffinePoint::Coords { x, y }) => {
                assert_eq!(gx, x);
                assert_eq!(gy.negate(), *y);
            }
            _ => panic!("unexpected infinity"),
        }
        assert_eq!(scalar_mul_base(&Scalar::ZERO), AffinePoint::Infinity);
    }

    #[test]
    fn small_multiples_known_values() {
        // 2G — standard test vector.
        let two_g = scalar_mul_base(&scalar(2));
        match two_g {
            AffinePoint::Coords { x, .. } => assert_eq!(
                crate::hex::encode(&x.to_bytes_be()),
                "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
            ),
            _ => panic!("infinity"),
        }
        // 1G = G
        assert_eq!(scalar_mul_base(&Scalar::ONE), GENERATOR);
    }

    #[test]
    fn const_table_matches_runtime() {
        // The build-script table must agree with runtime point arithmetic:
        // BASE_TABLE[w][d-1] == (d · 16^w) · G. Sample windows across the
        // whole range (including both ends) rather than all 960 entries.
        let g = JacobianPoint::from_affine(&GENERATOR);
        for w in [0usize, 1, 7, 31, 63] {
            for d in [1u64, 2, 15] {
                // k = d · 16^w as a scalar (always < n for sampled w).
                let k_big = BigUint::from_u64(d).shl(4 * w);
                let kb: [u8; 32] = k_big
                    .to_bytes_be_padded(32)
                    .unwrap()
                    .try_into()
                    .expect("fits");
                let k = Scalar::from_bytes_be(&kb).expect("< n");
                let want = g.scalar_mul(&k).to_affine();
                let (x, y) = BASE_TABLE[w][d as usize - 1];
                let got = AffinePoint::Coords { x, y };
                assert_eq!(got, want, "window {w}, digit {d}");
                assert!(got.is_on_curve(), "window {w}, digit {d} off-curve");
            }
        }
    }

    #[test]
    fn add_matches_scalar_mul() {
        let g = JacobianPoint::from_affine(&GENERATOR);
        let three_by_add = g.add(&g).add(&g).to_affine();
        let three_by_mul = scalar_mul_base(&scalar(3));
        assert_eq!(three_by_add, three_by_mul);
    }

    #[test]
    fn mixed_add_matches_general_add() {
        let g = JacobianPoint::from_affine(&GENERATOR);
        let q = g.double().add(&g); // 3G, Z ≠ 1
        assert_eq!(
            q.add_mixed(&GEN_X, &GEN_Y).to_affine(),
            q.add(&g).to_affine()
        );
        // Identity and inverse edge cases.
        assert_eq!(
            JacobianPoint::infinity()
                .add_mixed(&GEN_X, &GEN_Y)
                .to_affine(),
            GENERATOR
        );
        assert_eq!(
            g.add_mixed(&GEN_X, &GEN_Y.negate()).to_affine(),
            AffinePoint::Infinity
        );
        assert_eq!(
            g.add_mixed(&GEN_X, &GEN_Y).to_affine(),
            scalar_mul_base(&scalar(2))
        );
    }

    #[test]
    fn addition_with_infinity() {
        let g = JacobianPoint::from_affine(&GENERATOR);
        let inf = JacobianPoint::infinity();
        assert_eq!(inf.add(&g).to_affine(), GENERATOR);
        assert_eq!(g.add(&inf).to_affine(), GENERATOR);
        assert_eq!(inf.add(&inf).to_affine(), AffinePoint::Infinity);
        assert_eq!(inf.double().to_affine(), AffinePoint::Infinity);
    }

    #[test]
    fn p_plus_minus_p_is_infinity() {
        let g = JacobianPoint::from_affine(&GENERATOR);
        assert_eq!(g.add(&g.neg()).to_affine(), AffinePoint::Infinity);
    }

    #[test]
    fn compressed_round_trip() {
        for k in [1u64, 2, 3, 12345, 0xffff_ffff] {
            let p = scalar_mul_base(&scalar(k));
            let enc = p.to_compressed();
            let dec = AffinePoint::from_compressed(&enc).unwrap();
            assert_eq!(p, dec, "k={k}");
        }
    }

    #[test]
    fn compressed_generator_known_bytes() {
        let enc = GENERATOR.to_compressed();
        assert_eq!(
            crate::hex::encode(&enc),
            "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
        );
    }

    #[test]
    fn from_compressed_rejects_garbage() {
        assert!(AffinePoint::from_compressed(&[0u8; 33]).is_none());
        assert!(AffinePoint::from_compressed(&[2u8; 10]).is_none());
        // x >= p
        let mut bytes = [0xffu8; 33];
        bytes[0] = 0x02;
        assert!(AffinePoint::from_compressed(&bytes).is_none());
    }

    #[test]
    fn lift_x_even_y_matches_compressed_parse() {
        let p = scalar_mul_base(&scalar(7));
        let AffinePoint::Coords { x, .. } = p else {
            panic!("finite")
        };
        let lifted = AffinePoint::lift_x_even_y(x).expect("on curve");
        let AffinePoint::Coords { y, .. } = lifted else {
            panic!("finite")
        };
        assert!(!y.is_odd());
        assert!(lifted.is_on_curve());
        // x = 5 is not on the curve (5³+7 = 132 is a non-residue mod p).
        assert!(AffinePoint::lift_x_even_y(FieldElement::from_u64(5)).is_none());
    }

    #[test]
    fn scalar_mul_distributes() {
        // (a+b)G == aG + bG
        let a = scalar(0xdead_beef);
        let b = scalar(0x1234_5678);
        let lhs = scalar_mul_base(&a.add(&b));
        let rhs = JacobianPoint::from_affine(&scalar_mul_base(&a))
            .add(&JacobianPoint::from_affine(&scalar_mul_base(&b)))
            .to_affine();
        assert_eq!(lhs, rhs);
    }
}
