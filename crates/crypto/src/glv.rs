//! GLV endomorphism for secp256k1 (Gallant–Lambert–Vanstone).
//!
//! secp256k1 has `j`-invariant 0, so it admits an efficiently computable
//! endomorphism `φ(x, y) = (β·x, y)` where `β` is a primitive cube root of
//! unity in the base field. On the scalar side `φ` acts as multiplication
//! by `λ`, a cube root of unity mod `n`: `φ(P) = λ·P` for every point `P`.
//!
//! [`split_lambda`] decomposes a full-width scalar `k` into
//! `k ≡ k1 + λ·k2 (mod n)` with `|k1|, |k2| ≲ √n` (≤ 129 bits), using the
//! standard precomputed lattice basis `(a1, b1), (a2, b2)` for the kernel
//! of `(k1, k2) ↦ k1 + λ·k2`. A double-scalar multiply over two half-width
//! scalars halves the doubling count of `k·P`, which is where the GLV
//! speedup comes from (see [`crate::msm`]).
//!
//! The constants below are the canonical secp256k1 lattice values; they
//! are not trusted as transcribed — the unit tests pin `λ³ ≡ 1 (mod n)`,
//! `β³ ≡ 1 (mod p)`, `φ(G) = λ·G`, and the decomposition identity and
//! width bound over random scalars.

use crate::field::FieldElement;
use crate::scalar::{adc, Scalar};

/// `λ`: cube root of unity mod `n`, acting as `φ` on the curve group.
pub(crate) const LAMBDA: Scalar = Scalar::from_canonical_limbs([
    0xDF02_967C_1B23_BD72,
    0x122E_22EA_2081_6678,
    0xA526_1C02_8812_645A,
    0x5363_AD4C_C05C_30E0,
]);

/// `β`: cube root of unity mod `p`; `φ(x, y) = (β·x, y)`.
pub(crate) const BETA: FieldElement = FieldElement::from_raw_limbs([
    0xC139_6C28_7195_01EE,
    0x9CF0_4975_12F5_8995,
    0x6E64_479E_AC34_34E9,
    0x7AE9_6A2B_657C_0710,
]);

/// `−b1` from the GLV lattice basis (128 bits).
const MINUS_B1: Scalar =
    Scalar::from_canonical_limbs([0x6F54_7FA9_0ABF_E4C3, 0xE443_7ED6_010E_8828, 0, 0]);

/// `−b2 mod n` from the GLV lattice basis.
const MINUS_B2: Scalar = Scalar::from_canonical_limbs([
    0xD765_CDA8_3DB1_562C,
    0x8A28_0AC5_0774_346D,
    0xFFFF_FFFF_FFFF_FFFE,
    0xFFFF_FFFF_FFFF_FFFF,
]);

/// `g1 = round(2^384 · b2 / n)` — rounding multiplier for `c1`.
const G1: [u64; 4] = [
    0xE893_209A_45DB_B031,
    0x3DAA_8A14_71E8_CA7F,
    0xE86C_90E4_9284_EB15,
    0x3086_D221_A7D4_6BCD,
];

/// `g2 = round(2^384 · (−b1) / n)` — rounding multiplier for `c2`.
const G2: [u64; 4] = [
    0x1571_B4AE_8AC4_7F71,
    0x2212_08AC_9DF5_06C6,
    0x6F54_7FA9_0ABF_E4C4,
    0xE443_7ED6_010E_8828,
];

/// A signed half-width scalar produced by [`split_lambda`].
///
/// The magnitude fits in 129 bits (limb `[2]` ≤ 1, limb `[3]` = 0), so a
/// multiplication loop over it needs at most 129 doublings. The sign is
/// applied by negating the *point* (free in Jacobian coordinates), never
/// the scalar.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SplitScalar {
    /// Whether the signed value is negative (magnitude is `abs` either way).
    pub neg: bool,
    /// Little-endian limbs of the magnitude, `< 2^129`.
    pub abs: [u64; 4],
}

/// Schoolbook 4×4 multiply into a 512-bit product (8 limbs,
/// little-endian): the rounded high-half extraction below needs the full
/// product.
fn mul_wide(a: &[u64; 4], b: &[u64; 4]) -> [u64; 8] {
    let mut t = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u128;
        for j in 0..4 {
            let cur = t[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry;
            t[i + j] = cur as u64;
            carry = cur >> 64;
        }
        t[i + 4] = carry as u64;
    }
    t
}

/// `round(k · g / 2^384)` for canonical limbs `k` and multiplier `g`:
/// take limbs 6..8 of the 512-bit product and round by bit 383. The
/// result is < 2^127, returned as canonical limbs.
fn mul_shift_384(k: &[u64; 4], g: &[u64; 4]) -> [u64; 4] {
    let t = mul_wide(k, g);
    let round = t[5] >> 63;
    let (lo, carry) = adc(t[6], round, 0);
    let (hi, carry) = adc(t[7], 0, carry);
    debug_assert_eq!(carry, 0);
    [lo, hi, 0, 0]
}

/// Decompose `k ≡ k1 + λ·k2 (mod n)` with `|k1|, |k2| ≤ 2^129`.
///
/// Babai rounding on the precomputed lattice: `c1 = round(g1·k / 2^384)`,
/// `c2 = round(g2·k / 2^384)`, then `k2 = c1·(−b1) + c2·(−b2)` and
/// `k1 = k − k2·λ`, all mod `n`. Signs are extracted through
/// [`Scalar::is_high`], which is exact here because the magnitudes are
/// far below `n/2`.
pub(crate) fn split_lambda(k: &Scalar) -> (SplitScalar, SplitScalar) {
    let kl = k.to_canonical_limbs();
    let c1 = Scalar::from_canonical_limbs(mul_shift_384(&kl, &G1));
    let c2 = Scalar::from_canonical_limbs(mul_shift_384(&kl, &G2));
    let k2 = c1.mul(&MINUS_B1).add(&c2.mul(&MINUS_B2));
    let k1 = k.sub(&k2.mul(&LAMBDA));
    (to_split(&k1), to_split(&k2))
}

fn to_split(s: &Scalar) -> SplitScalar {
    if s.is_high() {
        SplitScalar {
            neg: true,
            abs: s.negate().to_canonical_limbs(),
        }
    } else {
        SplitScalar {
            neg: false,
            abs: s.to_canonical_limbs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secp256k1::{scalar_mul_base, AffinePoint, GEN_X, GEN_Y};
    use rand::{RngCore, SeedableRng};

    /// Number of significant bits in a split half's magnitude.
    fn bit_len(half: &SplitScalar) -> u32 {
        for i in (0..4).rev() {
            if half.abs[i] != 0 {
                return 64 * i as u32 + 64 - half.abs[i].leading_zeros();
            }
        }
        0
    }

    /// The value a split half represents, as a [`Scalar`] (sign applied
    /// mod `n`): how these tests rebuild k to check [`split_lambda`].
    fn to_scalar(half: &SplitScalar) -> Scalar {
        let s = Scalar::from_canonical_limbs(half.abs);
        if half.neg {
            s.negate()
        } else {
            s
        }
    }

    #[test]
    fn lambda_is_a_nontrivial_cube_root_of_unity_mod_n() {
        assert_ne!(LAMBDA, Scalar::ONE);
        assert_ne!(LAMBDA.sqr(), Scalar::ONE);
        assert_eq!(LAMBDA.sqr().mul(&LAMBDA), Scalar::ONE);
    }

    #[test]
    fn beta_is_a_nontrivial_cube_root_of_unity_mod_p() {
        let one = FieldElement::from_u64(1);
        assert_ne!(BETA, one);
        assert_eq!(BETA.sqr().mul(&BETA), one);
    }

    #[test]
    fn endomorphism_matches_lambda_mul_on_generator() {
        // λ·G computed by plain scalar multiplication must equal φ(G) =
        // (β·Gx, Gy) — this ties λ and β to the same endomorphism.
        let lam_g = scalar_mul_base(&LAMBDA);
        let phi_g = AffinePoint::Coords {
            x: BETA.mul(&GEN_X),
            y: GEN_Y,
        };
        assert_eq!(lam_g, phi_g);
        assert!(phi_g.is_on_curve());
    }

    #[test]
    fn split_reconstructs_and_is_half_width() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x617c);
        for i in 0..200 {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            let k = Scalar::reduce_bytes_be(&bytes);
            let (k1, k2) = split_lambda(&k);
            // k ≡ k1 + λ·k2 (mod n)
            let recon = to_scalar(&k1).add(&LAMBDA.mul(&to_scalar(&k2)));
            assert_eq!(recon, k, "iteration {i}");
            // Half-width bound from the lattice basis.
            assert!(bit_len(&k1) <= 129, "k1 too wide: {}", bit_len(&k1));
            assert!(bit_len(&k2) <= 129, "k2 too wide: {}", bit_len(&k2));
        }
    }

    #[test]
    fn split_edge_scalars() {
        for k in [
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::ZERO.sub(&Scalar::ONE), // n − 1
            LAMBDA,
            LAMBDA.negate(),
        ] {
            let (k1, k2) = split_lambda(&k);
            assert_eq!(to_scalar(&k1).add(&LAMBDA.mul(&to_scalar(&k2))), k);
            assert!(bit_len(&k1) <= 129 && bit_len(&k2) <= 129);
        }
    }

    #[test]
    fn bit_len_counts_magnitude_bits() {
        let s = SplitScalar {
            neg: false,
            abs: [0, 0, 1, 0],
        };
        assert_eq!(bit_len(&s), 129);
        let z = SplitScalar {
            neg: true,
            abs: [0, 0, 0, 0],
        };
        assert_eq!(bit_len(&z), 0);
        assert!(to_scalar(&z).is_zero());
    }
}
