//! Multi-scalar multiplication: wNAF, Strauss joint loops, and the
//! verification multiply `u1·G + u2·Q`.
//!
//! Three layers of the verification fast path live here:
//!
//! - [`ecmult`] — the single-signature multiply `u1·G + u2·Q` on one
//!   doubling chain: `u2` goes through the GLV split (`crate::glv`) as
//!   two half-width (≤129-bit) wNAF streams over `Q`'s and `φ(Q)`'s odd
//!   multiples, and `u1`, split at bit 128, as two more streams over the
//!   const-baked affine odd multiples of `G` and `2^128·G` (`G_ODD`). About
//!   130 doublings serve all four.
//! - `strauss_affine` — the batch-verification workhorse: any number of
//!   signed wNAF terms with *affine* precomputed tables (batch-normalized
//!   via `normalize_batch`'s shared inversion, or the baked `G_ODD`) folded
//!   over a single doubling chain with mixed additions.
//! - `small_mul` — an individual product by a blinder-width scalar
//!   (≤ 64 bits), used for the per-signature `wᵢ·Rᵢ` terms that the batch
//!   equation cannot share.
//!
//! Negative wNAF digits cost nothing extra: point negation in Jacobian or
//! affine coordinates is a single field negation of `y`.

use crate::field::FieldElement;
use crate::glv::{split_lambda, BETA};
use crate::scalar::Scalar;
use crate::secp256k1::JacobianPoint;
use std::borrow::Cow;

// `G_ODD[h][i] = (2i + 1) · 2^(128·h) · G` as affine (x, y) pairs,
// generated at build time from the same `field_core` limb arithmetic (see
// build.rs).
include!(concat!(env!("OUT_DIR"), "/g_odd.rs"));

/// wNAF window of the baked `G_ODD` tables, read back from their length
/// (`2^(w−2)` odd multiples).
const W_BASE: u32 = G_ODD[0].len().trailing_zeros() + 2;

/// wNAF window for half-width (≤129-bit) GLV coefficients: digits in
/// `{±1, ±3, …, ±15}`, 8-entry odd-multiple tables, ~1 non-zero digit
/// per 6 bits.
const W_HALF: u32 = 5;

/// wNAF window for blinder-width products: 4-entry tables keep the
/// per-signature precomputation small.
const W_SMALL: u32 = 4;

fn limbs_is_zero(k: &[u64; 4]) -> bool {
    k[0] | k[1] | k[2] | k[3] == 0
}

fn limbs_shr1(k: &[u64; 4]) -> [u64; 4] {
    [
        (k[0] >> 1) | (k[1] << 63),
        (k[1] >> 1) | (k[2] << 63),
        (k[2] >> 1) | (k[3] << 63),
        k[3] >> 1,
    ]
}

fn limbs_add_small(k: &[u64; 4], v: u64) -> [u64; 4] {
    let (r0, c) = k[0].overflowing_add(v);
    let (r1, c1) = k[1].overflowing_add(c as u64);
    let (r2, c2) = k[2].overflowing_add(c1 as u64);
    let r3 = k[3] + c2 as u64; // magnitudes stay < 2^130, never carries out
    [r0, r1, r2, r3]
}

fn limbs_sub_small(k: &[u64; 4], v: u64) -> [u64; 4] {
    let (r0, b) = k[0].overflowing_sub(v);
    let (r1, b1) = k[1].overflowing_sub(b as u64);
    let (r2, b2) = k[2].overflowing_sub(b1 as u64);
    let r3 = k[3] - b2 as u64; // k ≥ v here (k odd, v = k's low window)
    [r0, r1, r2, r3]
}

/// Width-`w` non-adjacent form of a non-negative magnitude, least
/// significant digit first. Digits are zero or odd with `|d| < 2^(w−1)`,
/// and after each non-zero digit the next `w−1` digits are zero.
pub(crate) fn wnaf_digits(k: &[u64; 4], w: u32) -> Vec<i32> {
    debug_assert!((2..=15).contains(&w));
    let mut k = *k;
    let mut out = Vec::with_capacity(132);
    let full = 1i64 << w;
    let half = 1i64 << (w - 1);
    let mask = (1u64 << w) - 1;
    while !limbs_is_zero(&k) {
        let d = if k[0] & 1 == 1 {
            let m = (k[0] & mask) as i64;
            let d = if m >= half { m - full } else { m };
            if d >= 0 {
                k = limbs_sub_small(&k, d as u64);
            } else {
                k = limbs_add_small(&k, (-d) as u64);
            }
            d as i32
        } else {
            0
        };
        out.push(d);
        k = limbs_shr1(&k);
    }
    out
}

/// Jacobian odd multiples `[P, 3P, 5P, …, (2·count−1)P]`.
pub(crate) fn odd_multiples(p: &JacobianPoint, count: usize) -> Vec<JacobianPoint> {
    let mut table = Vec::with_capacity(count);
    table.push(p.clone());
    let two_p = p.double();
    for i in 1..count {
        let next = table[i - 1].add(&two_p);
        table.push(next);
    }
    table
}

/// Normalizes a slice of Jacobian points to affine `(x, y)` pairs of
/// fully normalized field elements with a single field inversion
/// (Montgomery's trick: prefix-product the `Z`s, invert once, unwind).
/// Returns `None` if any point is the identity — callers on the batch path
/// fall back to per-item verification rather than special-casing, since a
/// prime-order curve only yields ∞ here for degenerate inputs.
pub(crate) fn normalize_batch(pts: &[JacobianPoint]) -> Option<Vec<(FieldElement, FieldElement)>> {
    let mut prefix = Vec::with_capacity(pts.len());
    let mut acc = FieldElement::ONE;
    for p in pts {
        if p.is_infinity() {
            return None;
        }
        prefix.push(acc);
        acc = acc.mul(&p.z);
    }
    let mut inv = acc.invert();
    let mut out = vec![(FieldElement::ZERO, FieldElement::ZERO); pts.len()];
    for i in (0..pts.len()).rev() {
        let z_inv = prefix[i].mul(&inv); // z_i⁻¹
        inv = inv.mul(&pts[i].z);
        let z2 = z_inv.sqr();
        let z3 = z2.mul(&z_inv);
        out[i] = (pts[i].x.mul(&z2).normalize(), pts[i].y.mul(&z3).normalize());
    }
    Some(out)
}

/// `u1·G + u2·Q` on one doubling chain — the single-signature verify.
///
/// `u2` is split `k1 + λ·k2` and its two half-width wNAF streams run over
/// Jacobian odd multiples of `Q` and `φ(Q)` (the endomorphism image is one
/// field multiplication per entry); `u1` is split at bit 128 and its two
/// halves run over the affine `G_ODD` tables with mixed additions. About
/// 130 doublings, ~43 general and ~28 mixed additions, against the ~130
/// doublings plus ~60 base-table additions of computing the two products
/// apart. `Q`'s tables stay Jacobian: a normalizing inversion costs more
/// than the general-vs-mixed difference on ~43 additions (the batch path
/// amortizes one inversion across many tables instead).
pub fn ecmult(u1: &Scalar, u2: &Scalar, q: &JacobianPoint) -> JacobianPoint {
    let (k1, k2) = split_lambda(u2);
    let t1 = odd_multiples(q, HALF_TABLE_LEN);
    // φ maps (X : Y : Z) ↦ (β·X : Y : Z) directly in Jacobian coordinates.
    let t2: Vec<JacobianPoint> = t1
        .iter()
        .map(|p| JacobianPoint {
            x: p.x.mul(&BETA),
            y: p.y,
            z: p.z,
        })
        .collect();
    let d1 = wnaf_digits(&k1.abs, W_HALF);
    let d2 = wnaf_digits(&k2.abs, W_HALF);
    let base = base_terms(u1);
    let len = [
        d1.len(),
        d2.len(),
        base[0].digits.len(),
        base[1].digits.len(),
    ]
    .into_iter()
    .max()
    .unwrap_or(0);
    let mut acc = JacobianPoint::infinity();
    for i in (0..len).rev() {
        acc = acc.double();
        for (digits, table, neg) in [(&d1, &t1, k1.neg), (&d2, &t2, k2.neg)] {
            let d = digits.get(i).copied().unwrap_or(0);
            if d != 0 {
                let entry = &table[(d.unsigned_abs() as usize - 1) / 2];
                // Term sign × digit sign; negation is free.
                acc = if (d < 0) != neg {
                    acc.add(&entry.neg())
                } else {
                    acc.add(entry)
                };
            }
        }
        for term in &base {
            acc = term.add_digit(acc, i);
        }
    }
    acc
}

/// The two [`AffineTerm`]s of `k·G`: the low and high 128 bits of `k` as
/// wNAF digits over the baked odd multiples of `G` and `2^128·G`.
pub(crate) fn base_terms(k: &Scalar) -> [AffineTerm<'static>; 2] {
    let l = k.to_canonical_limbs();
    std::array::from_fn(|h| AffineTerm {
        neg: false,
        digits: wnaf_digits(&[l[2 * h], l[2 * h + 1], 0, 0], W_BASE),
        table: Cow::Borrowed(&G_ODD[h]),
    })
}

/// An individual `k·P` for a small magnitude `k` (≤ 64 bits): the
/// per-signature blinded-`R` products of batch verification, where the
/// doubling chain cannot be shared because each product is a distinct
/// output point.
pub(crate) fn small_mul(k: u64, p: &JacobianPoint) -> JacobianPoint {
    if k == 0 || p.is_infinity() {
        return JacobianPoint::infinity();
    }
    if k == 1 {
        // The first batch blinder is pinned to 1; skip the table build
        // and ladder entirely.
        return p.clone();
    }
    let digits = wnaf_digits(&[k, 0, 0, 0], W_SMALL);
    let table = odd_multiples(p, 1 << (W_SMALL - 2));
    let mut acc = JacobianPoint::infinity();
    for i in (0..digits.len()).rev() {
        acc = acc.double();
        let d = digits[i];
        if d != 0 {
            let entry = &table[(d.unsigned_abs() as usize - 1) / 2];
            acc = if d < 0 {
                acc.add(&entry.neg())
            } else {
                acc.add(entry)
            };
        }
    }
    acc
}

/// One signed wNAF term of a Strauss sum: `±(Σ digitsᵢ·2^i)` times the
/// point whose affine odd multiples `[P, 3P, 5P, …]` are in `table`.
pub(crate) struct AffineTerm<'a> {
    /// Whether the whole term is negated (GLV split sign).
    pub neg: bool,
    /// wNAF digits, least significant first.
    pub digits: Vec<i32>,
    /// Affine odd multiples of the base point: built per call, or the
    /// baked `G_ODD`.
    pub table: Cow<'a, [(FieldElement, FieldElement)]>,
}

impl AffineTerm<'_> {
    /// `acc` plus this term's digit `i` times its point (one mixed
    /// addition, or none for a zero digit).
    fn add_digit(&self, acc: JacobianPoint, i: usize) -> JacobianPoint {
        let d = self.digits.get(i).copied().unwrap_or(0);
        if d == 0 {
            return acc;
        }
        let (x, y) = &self.table[(d.unsigned_abs() as usize - 1) / 2];
        if (d < 0) != self.neg {
            acc.add_mixed(x, &y.negate())
        } else {
            acc.add_mixed(x, y)
        }
    }
}

/// Strauss interleaving: evaluates `Σ termⱼ` over a single doubling chain
/// with one mixed addition per non-zero digit. All tables are affine, so
/// every addition is the cheap 7M+4S mixed form.
pub(crate) fn strauss_affine(terms: &[AffineTerm]) -> JacobianPoint {
    let len = terms.iter().map(|t| t.digits.len()).max().unwrap_or(0);
    let mut acc = JacobianPoint::infinity();
    for i in (0..len).rev() {
        acc = acc.double();
        for term in terms {
            acc = term.add_digit(acc, i);
        }
    }
    acc
}

/// Table length used by [`glv_terms`] (odd multiples up to `2^(W_HALF−1)−1`).
pub(crate) const HALF_TABLE_LEN: usize = 1 << (W_HALF - 2);

/// Builds the two GLV half-width [`AffineTerm`]s for `coeff·Q` given `Q`'s
/// normalized odd-multiple table ([`HALF_TABLE_LEN`] entries). The φ-table
/// is derived entry-wise (`x ↦ β·x`), one multiplication per entry.
pub(crate) fn glv_terms<'a>(
    coeff: &Scalar,
    q_table: &'a [(FieldElement, FieldElement)],
    out: &mut Vec<AffineTerm<'a>>,
) {
    let (k1, k2) = split_lambda(coeff);
    let phi_table: Vec<(FieldElement, FieldElement)> =
        q_table.iter().map(|(x, y)| (x.mul(&BETA), *y)).collect();
    out.push(AffineTerm {
        neg: k1.neg,
        digits: wnaf_digits(&k1.abs, W_HALF),
        table: Cow::Borrowed(q_table),
    });
    out.push(AffineTerm {
        neg: k2.neg,
        digits: wnaf_digits(&k2.abs, W_HALF),
        table: Cow::Owned(phi_table),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secp256k1::{scalar_mul_base, AffinePoint, GENERATOR};
    use rand::{RngCore, SeedableRng};

    fn random_scalar(rng: &mut impl RngCore) -> Scalar {
        let mut b = [0u8; 32];
        rng.fill_bytes(&mut b);
        Scalar::reduce_bytes_be(&b)
    }

    #[test]
    fn wnaf_digits_reconstruct_and_obey_width() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for w in [2u32, 4, 5] {
            for _ in 0..50 {
                let mut limbs = [0u64; 4];
                limbs[0] = rng.next_u64();
                limbs[1] = rng.next_u64();
                limbs[2] = rng.next_u64() & 1; // ≤129 bits, like a GLV half
                let digits = wnaf_digits(&limbs, w);
                // Reconstruct Σ dᵢ·2^i in scalar arithmetic (MSB first).
                let mut acc = Scalar::ZERO;
                for &d in digits.iter().rev() {
                    acc = acc.add(&acc);
                    if d > 0 {
                        acc = acc.add(&Scalar::from_u64(d as u64));
                    } else if d < 0 {
                        acc = acc.sub(&Scalar::from_u64((-d) as u64));
                    }
                    assert!(d == 0 || d % 2 != 0, "digits must be odd");
                    assert!((d.unsigned_abs() as i64) < (1i64 << (w - 1)));
                }
                assert_eq!(acc, Scalar::from_canonical_limbs(limbs), "w={w}");
            }
        }
    }

    /// `u1·G + u2·Q` by double-and-add on each term, summed.
    fn ecmult_reference(u1: &Scalar, u2: &Scalar, q: &JacobianPoint) -> AffinePoint {
        let g = JacobianPoint::from_affine(&GENERATOR);
        g.scalar_mul(u1).add(&q.scalar_mul(u2)).to_affine()
    }

    #[test]
    fn ecmult_matches_reference_ladder() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = JacobianPoint::from_affine(&GENERATOR);
        for _ in 0..25 {
            let (u1, u2) = (random_scalar(&mut rng), random_scalar(&mut rng));
            assert_eq!(
                ecmult(&u1, &u2, &g).to_affine(),
                ecmult_reference(&u1, &u2, &g)
            );
        }
        // Edge scalars, including u1·G + u2·G = ∞.
        let n_minus_1 = Scalar::ZERO.sub(&Scalar::ONE);
        assert!(ecmult(&Scalar::ZERO, &Scalar::ZERO, &g).is_infinity());
        assert_eq!(
            ecmult(&Scalar::ONE, &Scalar::ZERO, &g).to_affine(),
            GENERATOR
        );
        assert_eq!(
            ecmult(&Scalar::ZERO, &Scalar::ONE, &g).to_affine(),
            GENERATOR
        );
        assert!(ecmult(&Scalar::ONE, &n_minus_1, &g).is_infinity());
        assert_eq!(
            ecmult(&n_minus_1, &n_minus_1, &g).to_affine(),
            ecmult_reference(&n_minus_1, &n_minus_1, &g)
        );
    }

    #[test]
    fn ecmult_on_non_generator_points() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let q = JacobianPoint::from_affine(&scalar_mul_base(&Scalar::from_u64(0xabcdef)));
        for _ in 0..10 {
            let (u1, u2) = (random_scalar(&mut rng), random_scalar(&mut rng));
            assert_eq!(
                ecmult(&u1, &u2, &q).to_affine(),
                ecmult_reference(&u1, &u2, &q)
            );
        }
    }

    #[test]
    fn g_odd_tables_match_runtime() {
        // G_ODD[h][i] == (2i + 1) · 2^(128·h) · G, sampled at both ends.
        let g = JacobianPoint::from_affine(&GENERATOR);
        let last = G_ODD[0].len() - 1;
        let two_128 = Scalar::from_canonical_limbs([0, 0, 1, 0]);
        for (h, base) in [Scalar::ONE, two_128].iter().enumerate() {
            for i in [0, 1, last / 2, last] {
                let k = Scalar::from_u64(2 * i as u64 + 1).mul(base);
                let (x, y) = G_ODD[h][i];
                let got = AffinePoint::Coords { x, y };
                assert_eq!(got, g.scalar_mul(&k).to_affine(), "table {h}, entry {i}");
                assert!(x.is_normalized() && y.is_normalized());
            }
        }
    }

    #[test]
    fn small_mul_matches_reference() {
        let g = JacobianPoint::from_affine(&GENERATOR);
        for k in [0u64, 1, 2, 3, 7, 0xdead, 0xffff_ffff_ffff] {
            assert_eq!(
                small_mul(k, &g).to_affine(),
                g.scalar_mul(&Scalar::from_u64(k)).to_affine(),
                "k={k}"
            );
        }
    }

    #[test]
    fn normalize_batch_matches_to_affine() {
        let g = JacobianPoint::from_affine(&GENERATOR);
        let pts: Vec<JacobianPoint> = (1..6)
            .map(|i| {
                let mut p = g.clone();
                for _ in 0..i {
                    p = p.double();
                }
                p
            })
            .collect();
        let norm = normalize_batch(&pts).expect("no infinities");
        for (p, (x, y)) in pts.iter().zip(&norm) {
            match p.to_affine() {
                AffinePoint::Coords { x: ax, y: ay } => {
                    assert_eq!((ax, ay), (*x, *y));
                }
                _ => panic!("unexpected infinity"),
            }
        }
        // A batch containing ∞ is refused.
        let with_inf = vec![g.clone(), JacobianPoint::infinity()];
        assert!(normalize_batch(&with_inf).is_none());
    }

    #[test]
    fn strauss_affine_sums_terms() {
        // 3·G + 5·Q − 2·G (as a negated term) against direct arithmetic.
        let g = JacobianPoint::from_affine(&GENERATOR);
        let q = JacobianPoint::from_affine(&scalar_mul_base(&Scalar::from_u64(99)));
        let g_table = normalize_batch(&odd_multiples(&g, 4)).unwrap();
        let q_table = normalize_batch(&odd_multiples(&q, 4)).unwrap();
        let terms = vec![
            AffineTerm {
                neg: false,
                digits: wnaf_digits(&[3, 0, 0, 0], W_SMALL),
                table: Cow::Borrowed(&g_table),
            },
            AffineTerm {
                neg: false,
                digits: wnaf_digits(&[5, 0, 0, 0], W_SMALL),
                table: Cow::Borrowed(&q_table),
            },
            AffineTerm {
                neg: true,
                digits: wnaf_digits(&[2, 0, 0, 0], W_SMALL),
                table: Cow::Borrowed(&g_table),
            },
        ];
        let got = strauss_affine(&terms).to_affine();
        // 3G − 2G + 5Q = G + 5·99·G = (1 + 495)·G
        let want = scalar_mul_base(&Scalar::from_u64(496));
        assert_eq!(got, want);
    }

    #[test]
    fn glv_terms_evaluate_to_coeff_times_q() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let q = JacobianPoint::from_affine(&scalar_mul_base(&Scalar::from_u64(0x1234)));
        let q_table = normalize_batch(&odd_multiples(&q, HALF_TABLE_LEN)).unwrap();
        for _ in 0..10 {
            let coeff = random_scalar(&mut rng);
            let mut terms = Vec::new();
            glv_terms(&coeff, &q_table, &mut terms);
            assert_eq!(terms.len(), 2);
            let got = strauss_affine(&terms).to_affine();
            assert_eq!(got, q.scalar_mul(&coeff).to_affine());
        }
    }
}
