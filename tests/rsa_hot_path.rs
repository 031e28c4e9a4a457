//! Integration test R1: the RSA hot path is a pure speed-up.
//!
//! The constants below were recorded at the commit *before* RSA moved onto
//! the fixed-width Montgomery engine. For a seeded RNG, key generation must
//! keep returning exactly these keys and leave the RNG in exactly this
//! state — same candidates, same accept/reject decisions, same Miller–Rabin
//! bases — because every txid, fingerprint and simulated latency in the
//! repository is downstream of them.
//!
//! The second half pins the malformed-key hardening: keys with a zero, one
//! or even modulus, or a zero exponent, are refused at parse time, so a
//! hostile `<sk> <pk> OP_CHECKRSA512PAIR` evaluates to false instead of
//! panicking the validating node.

use bcwan_chain::{
    ChainParams, Mempool, MempoolError, OutPoint, Transaction, TxError, TxIn, TxOut, UtxoSet,
};
use bcwan_crypto::hex;
use bcwan_crypto::rsa::{
    generate_keypair, generate_prime, RsaError, RsaKeySize, RsaPrivateKey, RsaPublicKey,
};
use bcwan_script::{run_script, ExecContext, Opcode, RejectAllChecker, Script};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

struct GoldenPair {
    seed: u64,
    size: RsaKeySize,
    public: &'static str,
    private: &'static str,
    next_u64: u64,
}

const GOLDEN_PAIRS: [GoldenPair; 4] = [
    GoldenPair {
        seed: 2018,
        size: RsaKeySize::Rsa512,
        public: "0040d43c33eec7c8e5668119cf9955b33e1a6ad1f6ffae6729c76280c3bca079c0f82f4d660c6c13f067ea1a398cad344b83b4e1912661b2180c3e0ed6f0168d4b990003010001",
        private: "0040d43c33eec7c8e5668119cf9955b33e1a6ad1f6ffae6729c76280c3bca079c0f82f4d660c6c13f067ea1a398cad344b83b4e1912661b2180c3e0ed6f0168d4b990003010001004090448034cf3fa39883278d73b8cac7eb633368c832c053a9022f6f5e98634b24ecf0ca572c5c4e4f017d5834e6751b2b77a795b654527a145c1870c2f98491f5",
        next_u64: 0x18559494da971f13,
    },
    GoldenPair {
        seed: 4242,
        size: RsaKeySize::Rsa512,
        public: "0040a1ef15826005e143da81ae99e1d09452c909d3588a982353493efe7f168fb773f5d1fef5994922a71538734e1b6dc62f66be069b41266df5a5fd81994a2677ad0003010001",
        private: "0040a1ef15826005e143da81ae99e1d09452c909d3588a982353493efe7f168fb773f5d1fef5994922a71538734e1b6dc62f66be069b41266df5a5fd81994a2677ad00030100010040113324d4b94046a1ff6680d6256f13220bea7841524f40894b215ec4beefbaeb71de276554234311de1d24a6873e11e5369098f98a09f297b107db88485fb3bd",
        next_u64: 0xe9fc8344f91fa093,
    },
    GoldenPair {
        seed: 0xbc1a2018,
        size: RsaKeySize::Rsa512,
        public: "0040b569c5b443de2241f40cdae9c2a323f57be8012e8b863ed7bd78f30a73f6fe324162910d212076e3c6e2c8909d9d265d324b5c26096b085c57f63e276aaa3adb0003010001",
        private: "0040b569c5b443de2241f40cdae9c2a323f57be8012e8b863ed7bd78f30a73f6fe324162910d212076e3c6e2c8909d9d265d324b5c26096b085c57f63e276aaa3adb0003010001004039a32f734494d0e18f7e7e170305fe28c28345ccd9fb7effe06d0b1ae919324d9027e779e834c3bf4f0d1e188bd528143570395513e9f6d06723bd4a2221e9b1",
        next_u64: 0x9b99066eac3b80d5,
    },
    GoldenPair {
        seed: 7,
        size: RsaKeySize::Rsa1024,
        public: "0080bef39c3716d96be1ea82e7218883f09f81a31770a9d932f75bfd0c705e4a25b0ea66b079f14f6beeb6ee2c82abada30aef5cb1aad0e944a63efed285f91a619769a6a6a362a689c6f4b9863e6152fd9139edccb783566eafec3c0283544cfcb62dc41529827e9170363cce953ab60b2e79ed45316be6a7a18627b453fbc50a230003010001",
        private: "0080bef39c3716d96be1ea82e7218883f09f81a31770a9d932f75bfd0c705e4a25b0ea66b079f14f6beeb6ee2c82abada30aef5cb1aad0e944a63efed285f91a619769a6a6a362a689c6f4b9863e6152fd9139edccb783566eafec3c0283544cfcb62dc41529827e9170363cce953ab60b2e79ed45316be6a7a18627b453fbc50a23000301000100806db0a54924100ba00045e81de43cdea9d21f6ce4a43d07c0fe8fb3688d518cab3f4b740ee8a6d5fa900ceb76b8c60b05ca107663089527815468af68947b2a19816486b6405a87230606945a12132be885a4c498dad79f21ee9ab3ff4308d540a0a4d5ceefc8aad05d8e9c12ed553f2b3cbee10b99d5be0303171c19dffa87f9",
        next_u64: 0x403fbec872986d96,
    },
];

/// `(seed, generate_prime(256) as hex, the RNG's next draw)`.
const GOLDEN_PRIMES: [(u64, &str, u64); 3] = [
    (
        2018,
        "eb8c3a8613f0836b21b7467ccf80845192810c44d2bea81e3799fd404fa2ad23",
        0x18d0d4e8377390fa,
    ),
    (
        4242,
        "a120b498d3968c0ecc0236b7331bd21d99614a88dbec5318d2b7750ce4a39d51",
        0xed5bfb4fe9d79759,
    ),
    (
        0xbc1a2018,
        "ccef9baf84c693fa948076c059f32adba7719b0db03ab91611759cf93c4bac2d",
        0x41665a43bf109b01,
    ),
];

#[test]
fn seeded_keypairs_are_bit_identical_to_the_recorded_ones() {
    for golden in &GOLDEN_PAIRS {
        let mut rng = StdRng::seed_from_u64(golden.seed);
        let (public, private) = generate_keypair(&mut rng, golden.size);
        let label = format!("seed {} {}", golden.seed, golden.size);
        assert_eq!(hex::encode(&public.to_bytes()), golden.public, "{label}");
        assert_eq!(hex::encode(&private.to_bytes()), golden.private, "{label}");
        assert_eq!(rng.next_u64(), golden.next_u64, "{label}: draws consumed");
        // The recorded bytes are a working key, not just equal bytes.
        assert!(public.matches_private(&private), "{label}");
        assert!(
            public.verify(b"golden", &private.sign(b"golden")),
            "{label}"
        );
    }
}

#[test]
fn seeded_primes_are_bit_identical_to_the_recorded_ones() {
    for &(seed, prime, next_u64) in &GOLDEN_PRIMES {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(generate_prime(&mut rng, 256).to_hex(), prime, "seed {seed}");
        assert_eq!(rng.next_u64(), next_u64, "seed {seed}: draws consumed");
    }
}

/// Length-prefixed chunks, the key wire format.
fn key_bytes(chunks: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    for chunk in chunks {
        out.extend_from_slice(&(chunk.len() as u16).to_be_bytes());
        out.extend_from_slice(chunk);
    }
    out
}

/// Key pairs no honest producer emits, as `(private, public)` encodings
/// that agree on `n` and `e` so the pair check would reach its modexp.
fn degenerate_pairs() -> Vec<(Vec<u8>, Vec<u8>)> {
    let moduli: [&[u8]; 4] = [&[], &[1], &[0x10], &[0x01, 0x00]];
    let mut pairs: Vec<_> = moduli
        .iter()
        .map(|n| (key_bytes(&[n, &[3], &[3]]), key_bytes(&[n, &[3]])))
        .collect();
    // Odd modulus, zero exponents.
    pairs.push((key_bytes(&[&[35], &[], &[5]]), key_bytes(&[&[35], &[]])));
    pairs.push((key_bytes(&[&[35], &[5], &[]]), key_bytes(&[&[35], &[5]])));
    pairs
}

#[test]
fn degenerate_keys_are_malformed() {
    for (i, (private, public)) in degenerate_pairs().iter().enumerate() {
        assert_eq!(
            RsaPrivateKey::from_bytes(private).err(),
            Some(RsaError::MalformedKey),
            "private key of pair {i}"
        );
        // The last pair's public half is fine on its own (only `d` is zero).
        if i != 5 {
            assert_eq!(
                RsaPublicKey::from_bytes(public).err(),
                Some(RsaError::MalformedKey),
                "public key of pair {i}"
            );
        }
    }
}

#[test]
fn pair_check_on_degenerate_keys_is_false_not_a_panic() {
    let checker = RejectAllChecker;
    let ctx = ExecContext {
        checker: &checker,
        lock_time: 0,
        input_final: false,
    };
    for (private, public) in degenerate_pairs() {
        let script = Script::builder()
            .push(private)
            .push(public)
            .op(Opcode::CheckRsa512Pair)
            .build();
        assert_eq!(run_script(&script, &ctx), Ok(false));
    }
}

#[test]
fn mempool_refuses_a_zero_modulus_claim_with_a_typed_error() {
    let (private, public) = degenerate_pairs().swap_remove(0);
    let params = ChainParams::fast_test();
    // A coin locked by `<zero-modulus pk> OP_CHECKRSA512PAIR` ...
    let funding = Transaction::coinbase(
        0,
        b"r1",
        vec![TxOut {
            value: 1000,
            script_pubkey: Script::builder()
                .push(public)
                .op(Opcode::CheckRsa512Pair)
                .build(),
        }],
    );
    let mut utxo = UtxoSet::new();
    utxo.apply_block(std::slice::from_ref(&funding), 0).unwrap();
    // ... and the spend that "reveals" the matching zero-modulus sk.
    let spend = Transaction {
        version: 1,
        inputs: vec![TxIn {
            prevout: OutPoint {
                txid: funding.txid(),
                vout: 0,
            },
            script_sig: Script::builder().push(private).build(),
            sequence: 0,
        }],
        outputs: vec![TxOut {
            value: 900,
            script_pubkey: Script::new(),
        }],
        lock_time: 0,
    };
    let mut pool = Mempool::new();
    assert_eq!(
        pool.insert(spend, &utxo, params.coinbase_maturity, &params),
        Err(MempoolError::Invalid(TxError::ScriptFailed {
            input: 0,
            error: None
        }))
    );
}
