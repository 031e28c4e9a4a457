//! Seeded property tests: codec round trips and interpreter robustness.
//!
//! Each property runs [`CASES`] inputs drawn from a `StdRng` seeded with
//! `BASE_SEED + case`; a failure names the case's seed, so one
//! `check(seed)` call replays it. Seeds that once failed stay below as
//! named regression cases.

use bcwan_script::interpreter::{run_script, verify_spend, ExecContext, RejectAllChecker};
use bcwan_script::{decode_num, encode_num, Instruction, Opcode, Script};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::panic::catch_unwind;

const BASE_SEED: u64 = 0x5c21_9700;
const CASES: u64 = 1024;

/// Runs `check(seed, rng)` once per case.
fn for_each_case(check: impl Fn(u64, &mut StdRng)) {
    for seed in BASE_SEED..BASE_SEED + CASES {
        check(seed, &mut StdRng::seed_from_u64(seed));
    }
}

fn bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; rng.gen_range(0..max_len)];
    rng.fill_bytes(&mut out);
    out
}

/// A push of up to 79 bytes or any operator. `OP_0` only arises as the
/// empty push: the codec normalizes `Op(Op0)` to `Push([])` (the case
/// proptest once shrank to, `instrs = [Op(Op0)]`).
fn instruction(rng: &mut StdRng) -> Instruction {
    if rng.gen::<bool>() {
        return Instruction::Push(bytes(rng, 80));
    }
    match Opcode::ALL[rng.gen_range(0..Opcode::ALL.len())] {
        Opcode::Op0 => Instruction::Push(Vec::new()),
        op => Instruction::Op(op),
    }
}

fn instructions(rng: &mut StdRng, max_len: usize) -> Vec<Instruction> {
    (0..rng.gen_range(0..max_len))
        .map(|_| instruction(rng))
        .collect()
}

fn ctx(checker: &RejectAllChecker, lock_time: u64) -> ExecContext<'_> {
    ExecContext {
        checker,
        lock_time,
        input_final: false,
    }
}

#[test]
fn script_wire_round_trip() {
    for_each_case(|seed, rng| {
        let script = Script::from_instructions(instructions(rng, 24));
        let parsed = Script::from_bytes(&script.to_bytes());
        // Push(empty) encodes as OP_0 and parses back to Push(empty), so
        // equality holds including that case.
        assert_eq!(parsed.as_ref(), Ok(&script), "seed {seed:#x}");
    });
}

#[test]
fn byte_len_counts_the_encoding() {
    for_each_case(|seed, rng| {
        let script = Script::from_instructions(instructions(rng, 24));
        let bytes = script.to_bytes();
        assert_eq!(script.byte_len(), bytes.len(), "seed {seed:#x}");
        let mut appended = vec![0xa5];
        script.encode_into(&mut appended);
        assert_eq!(appended[1..], bytes[..], "seed {seed:#x}");
    });
}

#[test]
fn op0_normalizes_to_the_empty_push() {
    let script = Script::from_instructions(vec![Instruction::Op(Opcode::Op0)]);
    let parsed = Script::from_bytes(&script.to_bytes()).unwrap();
    assert_eq!(
        parsed,
        Script::from_instructions(vec![Instruction::Push(Vec::new())])
    );
}

#[test]
fn script_num_round_trip() {
    let check = |n: i64, what: &str| {
        // Full 8-byte range round-trips except i64::MIN (whose magnitude
        // overflows); Bitcoin's CScriptNum has the same carve-out.
        if n != i64::MIN {
            assert_eq!(decode_num(&encode_num(n)), Some(n), "{what}");
        }
    };
    for n in [0, 1, -1, 127, 128, -128, 255, 256, i64::MAX, i64::MIN + 1] {
        check(n, &format!("edge {n}"));
    }
    for_each_case(|seed, rng| {
        // Random magnitudes at every byte width, both signs.
        let n = (rng.gen::<u64>() >> rng.gen_range(0..64u32)) as i64;
        check(n, &format!("seed {seed:#x}"));
        check(n.wrapping_neg(), &format!("seed {seed:#x} negated"));
    });
}

#[test]
fn script_num_encoding_is_minimal() {
    assert!(encode_num(0).is_empty());
    for_each_case(|seed, rng| {
        let n = i64::from(rng.gen::<u32>() as i32 >> rng.gen_range(0..32u32));
        let enc = encode_num(n);
        if n == 0 {
            assert!(enc.is_empty(), "seed {seed:#x}");
        } else {
            // No redundant trailing byte: the encoding of n must be the
            // shortest that still round-trips.
            assert!(enc.len() <= 5, "seed {seed:#x}: {n} took {enc:?}");
            let shorter = &enc[..enc.len() - 1];
            assert_ne!(decode_num(shorter), Some(n), "seed {seed:#x}: {n}");
        }
    });
}

#[test]
fn interpreter_never_panics() {
    for_each_case(|seed, rng| {
        let script = Script::from_instructions(instructions(rng, 32));
        // Result content is arbitrary; absence of panic is the property.
        let outcome = catch_unwind(|| run_script(&script, &ctx(&RejectAllChecker, 50)));
        assert!(outcome.is_ok(), "seed {seed:#x}: panicked on {script:?}");
    });
}

#[test]
fn verify_spend_never_panics() {
    for_each_case(|seed, rng| {
        let pushes = (0..rng.gen_range(0..6usize))
            .map(|_| Instruction::Push(bytes(rng, 64)))
            .collect();
        let script_sig = Script::from_instructions(pushes);
        let script_pubkey = Script::from_instructions(instructions(rng, 24));
        let lock_time = rng.gen::<u64>();
        let outcome = catch_unwind(|| {
            verify_spend(
                &script_sig,
                &script_pubkey,
                &ctx(&RejectAllChecker, lock_time),
            )
        });
        assert!(
            outcome.is_ok(),
            "seed {seed:#x}: panicked on {script_sig:?} / {script_pubkey:?}"
        );
    });
}

#[test]
fn parser_never_panics_on_garbage() {
    for_each_case(|seed, rng| {
        let garbage = bytes(rng, 256);
        let outcome = catch_unwind(|| Script::from_bytes(&garbage));
        assert!(
            outcome.is_ok(),
            "seed {seed:#x}: panicked on {garbage:02x?}"
        );
    });
}

#[test]
fn arithmetic_ops_match_reference() {
    for_each_case(|seed, rng| {
        let a = rng.gen_range(0..200_000u64) as i64 - 100_000;
        let b = rng.gen_range(0..200_000u64) as i64 - 100_000;
        for (op, expect) in [
            (Opcode::Add, a + b),
            (Opcode::Sub, a - b),
            (Opcode::Min, a.min(b)),
            (Opcode::Max, a.max(b)),
        ] {
            let script = Script::builder()
                .push_num(a)
                .push_num(b)
                .op(op)
                .push_num(expect)
                .op(Opcode::NumEqual)
                .build();
            assert_eq!(
                run_script(&script, &ctx(&RejectAllChecker, 0)),
                Ok(true),
                "seed {seed:#x}: {a} {op} {b}"
            );
        }
    });
}
