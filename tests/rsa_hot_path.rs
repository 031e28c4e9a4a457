//! Integration test R1: the RSA hot path is a pure speed-up.
//!
//! The constants below were recorded when prime generation moved onto
//! sieved windows with the top two bits set (the Montgomery engine before
//! it left them unchanged). For a seeded RNG, key generation must keep
//! returning exactly these keys and leave the RNG in exactly this state —
//! same window starts, same accept/reject decisions, same Miller–Rabin
//! bases — because every txid and fingerprint in the repository is
//! downstream of them.
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
        public: "0040a16d262b354c308c6aafd11295397e78864b43b4fc81b0d3635150e2a25a340128c4ad98ab33876945204c41743a3916143e6c0ca36de9c8ea687249e6bffdaf0003010001",
        private: "0040a16d262b354c308c6aafd11295397e78864b43b4fc81b0d3635150e2a25a340128c4ad98ab33876945204c41743a3916143e6c0ca36de9c8ea687249e6bffdaf000301000100409c33ba1365676c32f3a95d6dd5e7e4714bc1d8aa710c2dc6defbf880d508e3f81159c00057dd7ceba80ed60802a8a75b0873631f7ff9eda6c45cfffe3ee8f201",
        next_u64: 0x930fa1b0799495c3,
    },
    GoldenPair {
        seed: 4242,
        size: RsaKeySize::Rsa512,
        public: "0040d2ced7f193f156d94eed383cc4fc82bfba7812b840718215124b2c9db8767a6b77acbe4f4d2a59c11deb8d1b68209ca399fd38220126a7098a6c795aaf7dc35b0003010001",
        private: "0040d2ced7f193f156d94eed383cc4fc82bfba7812b840718215124b2c9db8767a6b77acbe4f4d2a59c11deb8d1b68209ca399fd38220126a7098a6c795aaf7dc35b00030100010040ae2bada8efe5af2ede120aabd2c91a31d49b8e43e322a52a49b2088bcb3340527702fd154ba39a9bf652537e115d73fb37c35d0245ae87377c5f873386250b09",
        next_u64: 0x5c9e506e039c0aa8,
    },
    GoldenPair {
        seed: 0xbc1a2018,
        size: RsaKeySize::Rsa512,
        public: "0040c9d1684f70fd737a7e7daeaf2c6e4b227a0a4a753bb0fcd9345c1ec42a4998393ab6852ca95738c3d44b729d6bc82990ea37b458e6962cb7c6adfa481ca02a130003010001",
        private: "0040c9d1684f70fd737a7e7daeaf2c6e4b227a0a4a753bb0fcd9345c1ec42a4998393ab6852ca95738c3d44b729d6bc82990ea37b458e6962cb7c6adfa481ca02a130003010001004081a83f538a4bca7ccff6fedb1bb8601cee3ade4b22e63a0b71501d93f976fe8be197c3c4efea9cb9bcf19251a4ebcae51fae20807dd7a5fbe7214c1dcd22dd41",
        next_u64: 0xc77092e3f5b37060,
    },
    GoldenPair {
        seed: 7,
        size: RsaKeySize::Rsa1024,
        public: "0080d923b8c780089455d8829726062047c104dca17e4ace3efed41b32952f78e33ac98283d0221b30f2be7f74e9022503c47e86afc560f8b4375b3a924b0058e1f49ef828a5c1a6ca2bcd22e3f39595518a3382abf1692f57c048a67859788aa35b747933f9db40c18f091e6044522314e8f29128abd118b7c56c40ad720e73092b0003010001",
        private: "0080d923b8c780089455d8829726062047c104dca17e4ace3efed41b32952f78e33ac98283d0221b30f2be7f74e9022503c47e86afc560f8b4375b3a924b0058e1f49ef828a5c1a6ca2bcd22e3f39595518a3382abf1692f57c048a67859788aa35b747933f9db40c18f091e6044522314e8f29128abd118b7c56c40ad720e73092b00030100010080bb8a01beb4d334228cd4056dbedec47a6e138c9b824a6dd83423a5657a51e397d39118fd7b6796b82155fe087d64b0c3563047c1a6c64708848faae8824d4221278f52c313c631ef8112f1583395c5a32426f01f1092de130d9c9fbbd76d61f2d69b30b7ec88de019085500a8acbb84e3929bf38dbe5ed8744ca62cfa257ad01",
        next_u64: 0xf2414f88495287b5,
    },
];

/// `(seed, generate_prime(256) as hex, the RNG's next draw)`.
const GOLDEN_PRIMES: [(u64, &str, u64); 3] = [
    (
        2018,
        "d500a17ecec89878b0effd4883e3c37e66bc6a26b765ec52641b8fa46967e6cf",
        0xde0a153bd13503c2,
    ),
    (
        4242,
        "fd32e5f77e20065b439793df51e2ef25bd47de1154b3e7b382104c8cf3a29d75",
        0xdb55f27221e323d5,
    ),
    (
        0xbc1a2018,
        "da493460a48cac66dfcf75d1b2a6ca9fc266d943169d7606c005262938950285",
        0x97a1232e14d3af2c,
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
