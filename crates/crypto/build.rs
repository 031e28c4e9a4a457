//! Const-bakes the secp256k1 base-point tables.
//!
//! Two tables, computed at compile time with the crate's own limb
//! arithmetic (`include!("src/field_core.rs")`) and emitted as `static`s
//! of affine `(x, y)` pairs into `OUT_DIR`, so they live in `.rodata` and
//! every addition against them is the cheaper mixed form (`Z2 = 1`):
//!
//! - `base_table.rs`: `BASE_TABLE[w][d-1] = (d · 16^w) · G`, the 64×15
//!   fixed-window table behind `scalar_mul_base` (signing, key
//!   derivation);
//! - `g_odd.rs`: `G_ODD[0][i] = (2i+1) · G` and
//!   `G_ODD[1][i] = (2i+1) · 2^128 · G`, the wNAF tables over which
//!   verification walks the two 128-bit halves of `u1` inside the doubling
//!   chain of `u2·Q`.
//!
//! Entries are written as canonical 4×64-limb hex through
//! `FieldElement::from_raw_limbs`. Sampling tests in `src/secp256k1.rs`
//! (`const_table_matches_runtime`) and `src/msm.rs`
//! (`g_odd_tables_match_runtime`) pin the baked entries against runtime
//! scalar multiplication.

use std::fmt::Write as _;

#[allow(dead_code)]
mod fc {
    include!("src/field_core.rs");
}

/// wNAF window of the `G_ODD` tables: digits up to ±(2^(w−1) − 1), so
/// 2^(w−2) odd multiples per table. The library reads the width back from
/// the table length. Timed on a 2-vCPU x86-64 Xeon, `verify_digest` at
/// w = 6 ran ~5 % slower than at 7, 8 or 9, which were within 2 % of each
/// other; 8 keeps the two tables at 12 KiB.
const G_WINDOW: u32 = 8;

/// A field element held fully normalized between operations: table
/// generation runs once per build, so it buys simplicity with a
/// normalization after every step.
type Fe = [u64; 5];

fn add(a: &Fe, b: &Fe) -> Fe {
    fc::fe_normalize(&fc::fe_add(a, b))
}

fn sub(a: &Fe, b: &Fe) -> Fe {
    fc::fe_normalize(&fc::fe_add(a, &fc::fe_negate(b, 1)))
}

fn mul(a: &Fe, b: &Fe) -> Fe {
    fc::fe_normalize(&fc::fe_mul(a, b))
}

fn sqr(a: &Fe) -> Fe {
    fc::fe_normalize(&fc::fe_sqr(a))
}

/// Generator x-coordinate, little-endian 4×64 limbs.
const GX: [u64; 4] = [
    0x59F2_815B_16F8_1798,
    0x029B_FCDB_2DCE_28D9,
    0x55A0_6295_CE87_0B07,
    0x79BE_667E_F9DC_BBAC,
];
/// Generator y-coordinate, little-endian 4×64 limbs.
const GY: [u64; 4] = [
    0x9C47_D08F_FB10_D4B8,
    0xFD17_B448_A685_5419,
    0x5DA4_FBFC_0E11_08A8,
    0x483A_DA77_26A3_C465,
];

#[derive(Clone, Copy)]
struct Jac {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// Jacobian doubling (dbl-2007-bl, a = 0). Table multiples are never the
/// identity or 2-torsion, so no guards are needed here.
fn double(p: &Jac) -> Jac {
    let xx = sqr(&p.x);
    let yy = sqr(&p.y);
    let yyyy = sqr(&yy);
    let s = {
        let t = mul(&p.x, &yy);
        add(&add(&t, &t), &add(&t, &t))
    };
    let m = add(&add(&xx, &xx), &xx);
    let x3 = sub(&sqr(&m), &add(&s, &s));
    let eight_yyyy = {
        let t = add(&yyyy, &yyyy);
        let t = add(&t, &t);
        add(&t, &t)
    };
    let y3 = sub(&mul(&m, &sub(&s, &x3)), &eight_yyyy);
    let z3 = {
        let t = mul(&p.y, &p.z);
        add(&t, &t)
    };
    Jac {
        x: x3,
        y: y3,
        z: z3,
    }
}

/// Jacobian addition (add-2007-bl). The tables only ever add distinct
/// multiples `d·B` and `B`, so the doubling/inverse branches are errors.
fn add_points(p: &Jac, q: &Jac) -> Jac {
    let z1z1 = sqr(&p.z);
    let z2z2 = sqr(&q.z);
    let u1 = mul(&p.x, &z2z2);
    let u2 = mul(&q.x, &z1z1);
    let s1 = mul(&mul(&p.y, &q.z), &z2z2);
    let s2 = mul(&mul(&q.y, &p.z), &z1z1);
    if u1 == u2 {
        assert!(s1 == s2, "P + (−P) cannot occur during table generation");
        return double(p);
    }
    let h = sub(&u2, &u1);
    let i = {
        let t = add(&h, &h);
        sqr(&t)
    };
    let j = mul(&h, &i);
    let r = {
        let t = sub(&s2, &s1);
        add(&t, &t)
    };
    let v = mul(&u1, &i);
    let x3 = sub(&sub(&sqr(&r), &j), &add(&v, &v));
    let s1j = mul(&s1, &j);
    let y3 = sub(&mul(&r, &sub(&v, &x3)), &add(&s1j, &s1j));
    let z_sum = add(&p.z, &q.z);
    let z3 = mul(&sub(&sub(&sqr(&z_sum), &z1z1), &z2z2), &h);
    Jac {
        x: x3,
        y: y3,
        z: z3,
    }
}

/// Affine coordinates as canonical 4×64 limbs.
fn to_affine(p: &Jac) -> ([u64; 4], [u64; 4]) {
    let z_inv = fc::fe_normalize(&fc::fe_inv(&p.z));
    let z2 = sqr(&z_inv);
    let z3 = mul(&z2, &z_inv);
    (fc::to_u64x4(&mul(&p.x, &z2)), fc::to_u64x4(&mul(&p.y, &z3)))
}

/// `[B, 3B, 5B, …]`, `count` odd multiples of `b` in affine form.
fn odd_multiples(b: &Jac, count: usize) -> Vec<([u64; 4], [u64; 4])> {
    let two_b = double(b);
    let mut acc = *b;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(to_affine(&acc));
        acc = add_points(&acc, &two_b);
    }
    out
}

/// One `(FieldElement, FieldElement)` entry of a generated table.
fn write_entry(out: &mut String, indent: &str, (x, y): &([u64; 4], [u64; 4])) {
    write!(out, "{indent}(").unwrap();
    for limbs in [x, y] {
        out.push_str("FieldElement::from_raw_limbs([");
        for limb in limbs {
            write!(out, "{limb:#x}, ").unwrap();
        }
        out.push_str("]), ");
    }
    out.push_str("),\n");
}

fn write_out(name: &str, text: &str) {
    let dest = std::path::Path::new(&std::env::var("OUT_DIR").unwrap()).join(name);
    std::fs::write(dest, text).unwrap();
}

fn main() {
    println!("cargo:rerun-if-changed=src/field_core.rs");
    println!("cargo:rerun-if-changed=build.rs");

    let g = Jac {
        x: fc::from_u64x4(&GX),
        y: fc::from_u64x4(&GY),
        z: fc::from_u64x4(&[1, 0, 0, 0]),
    };

    // BASE_TABLE[w][d-1] = (d · 16^w) · G.
    let mut window_base = g;
    let mut out = String::with_capacity(1 << 20);
    out.push_str(
        "// Generated by build.rs — do not edit.\n\
         // BASE_TABLE[w][d-1] = (d * 16^w) * G as affine (x, y) field elements.\n\
         static BASE_TABLE: [[(FieldElement, FieldElement); 15]; 64] = [\n",
    );
    for _ in 0..64 {
        let mut acc = window_base;
        out.push_str("    [\n");
        for _ in 0..15 {
            write_entry(&mut out, "        ", &to_affine(&acc));
            acc = add_points(&acc, &window_base);
        }
        out.push_str("    ],\n");
        // After 15 additions `acc = 16·window_base`: the next window's base.
        window_base = acc;
    }
    out.push_str("];\n");
    write_out("base_table.rs", &out);

    // G_ODD[h][i] = (2i + 1) · 2^(128·h) · G.
    let mut g128 = g;
    for _ in 0..128 {
        g128 = double(&g128);
    }
    let len = 1usize << (G_WINDOW - 2);
    let mut out = String::with_capacity(1 << 16);
    write!(
        out,
        "// Generated by build.rs — do not edit.\n\
         // G_ODD[h][i] = (2i + 1) * 2^(128 h) * G as affine (x, y) field elements.\n\
         static G_ODD: [[(FieldElement, FieldElement); {len}]; 2] = [\n",
    )
    .unwrap();
    for base in [g, g128] {
        out.push_str("    [\n");
        for entry in odd_multiples(&base, len) {
            write_entry(&mut out, "        ", &entry);
        }
        out.push_str("    ],\n");
    }
    out.push_str("];\n");
    write_out("g_odd.rs", &out);
}
