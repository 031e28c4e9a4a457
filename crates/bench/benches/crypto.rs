//! Micro-benchmarks for the cryptographic primitives on the BcWAN hot
//! path (Fig. 4 framing, Fig. 3 steps 1/3/4/8/10). Plain `main` harness
//! (`cargo bench -p bcwan-bench --bench crypto`).

use bcwan_bench::bench_fn;
use bcwan_crypto::aes::{cbc_decrypt, cbc_encrypt};
use bcwan_crypto::ecdsa::EcdsaPrivateKey;
use bcwan_crypto::field::FieldElement;
use bcwan_crypto::rsa::{generate_keypair, generate_prime, RsaKeySize, RsaPrivateKey};
use bcwan_crypto::{hash160, sha256d, BigUint};
use bcwan_script::interpreter::{verify_spend, DigestChecker, ExecContext};
use bcwan_script::templates;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn main() {
    let data = vec![0xa5u8; 160]; // one BcWAN data-uplink frame
    bench_fn("sha256d_160B", 10_000, || sha256d(black_box(&data)));
    let pubkey = [0x02u8; 33];
    bench_fn("hash160_pubkey", 10_000, || hash160(black_box(&pubkey)));

    let key = [7u8; 32];
    let iv = [9u8; 16];
    let reading = b"t=21.5C;h=40%";
    bench_fn("aes256_cbc_encrypt_reading", 10_000, || {
        cbc_encrypt(black_box(&key), black_box(&iv), black_box(reading))
    });
    let ct = cbc_encrypt(&key, &iv, reading);
    bench_fn("aes256_cbc_decrypt_reading", 10_000, || {
        cbc_decrypt(black_box(&key), black_box(&iv), black_box(&ct)).unwrap()
    });

    // The modexp under every RSA operation, at the CRT-prime and the
    // RSA-512 modulus width, full-width exponent; and the prime search
    // that is most of a keygen.
    let mut rng = StdRng::seed_from_u64(1);
    for bits in [256, 512] {
        let modulus = generate_prime(&mut rng, bits);
        let base = BigUint::random_below(&mut rng, &modulus);
        let exp = BigUint::random_bits(&mut rng, bits);
        bench_fn(&format!("mod_pow_{bits}"), 500, || {
            black_box(&base).mod_pow(black_box(&exp), black_box(&modulus))
        });
    }
    bench_fn("generate_prime_256", 40, || {
        generate_prime(black_box(&mut rng), 256)
    });

    let mut rng = StdRng::seed_from_u64(1);
    bench_fn("rsa512_keygen (paper step 1)", 10, || {
        generate_keypair(black_box(&mut rng), RsaKeySize::Rsa512)
    });
    let (pk, sk) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
    let inner = vec![0u8; 34]; // Fig. 4 frame
    bench_fn("rsa512_encrypt_fig4 (step 3)", 200, || {
        pk.encrypt(black_box(&mut rng), black_box(&inner)).unwrap()
    });
    let em = pk.encrypt(&mut rng, &inner).unwrap();
    bench_fn("rsa512_decrypt (step 10)", 100, || {
        sk.decrypt(black_box(&em)).unwrap()
    });
    bench_fn("rsa512_sign (step 4)", 100, || sk.sign(black_box(&em)));
    // A key read back from its wire form has no CRT parameters: the plain
    // `m^d mod n` path every revealed eSk takes.
    let parsed = RsaPrivateKey::from_bytes(&sk.to_bytes()).unwrap();
    bench_fn("rsa512_sign (parsed key, no CRT)", 100, || {
        parsed.sign(black_box(&em))
    });
    let sig = sk.sign(&em);
    bench_fn("rsa512_verify (step 8)", 200, || {
        pk.verify(black_box(&em), black_box(&sig))
    });
    bench_fn("rsa512_pair_check (OP_CHECKRSA512PAIR)", 100, || {
        pk.matches_private(black_box(&sk))
    });

    let mut rng = StdRng::seed_from_u64(2);
    let ec = EcdsaPrivateKey::generate(&mut rng);
    let digest = [0x5au8; 32];
    bench_fn("ecdsa_sign_digest", 100, || {
        ec.sign_digest(black_box(&digest))
    });
    let sig = ec.sign_digest(&digest);
    let public = ec.public_key();
    bench_fn("ecdsa_verify_digest", 100, || {
        public.verify_digest(black_box(&digest), black_box(&sig))
    });

    // Batch verification across block-shaped workloads. "grouped" mimics a
    // real block — a handful of wallets each spending several outputs — so
    // the verifier's pubkey coalescing folds repeated keys into one
    // multi-scalar term; "distinct" is the adversarial shape where every
    // signature carries a fresh key. Compare per-signature cost against
    // `ecdsa_verify_digest` above.
    let make_batch = |wallets: usize, count: usize| {
        let mut rng = StdRng::seed_from_u64(3);
        let keys: Vec<EcdsaPrivateKey> = (0..wallets)
            .map(|_| EcdsaPrivateKey::generate(&mut rng))
            .collect();
        let per_key = count / wallets;
        let mut digests = Vec::new();
        let mut sigs = Vec::new();
        let mut pubs = Vec::new();
        for i in 0..count {
            let mut d = [0u8; 32];
            d[..8].copy_from_slice(&(i as u64).to_le_bytes());
            let key = &keys[(i / per_key.max(1)).min(wallets - 1)];
            sigs.push(key.sign_digest(&d));
            pubs.push(key.public_key());
            digests.push(d);
        }
        (digests, sigs, pubs)
    };
    for (name, wallets, count, iters) in [
        ("ecdsa_batch_verify4_distinct", 4, 4, 60),
        ("ecdsa_batch_verify16_distinct", 16, 16, 30),
        ("ecdsa_batch_verify64_distinct", 64, 64, 10),
        ("ecdsa_batch_verify64_grouped (8 wallets)", 8, 64, 10),
        ("ecdsa_batch_verify256_grouped (8 wallets)", 8, 256, 5),
    ] {
        let (digests, sigs, pubs) = make_batch(wallets, count);
        let items: Vec<(
            &[u8; 32],
            &bcwan_crypto::Signature,
            &bcwan_crypto::EcdsaPublicKey,
        )> = (0..count)
            .map(|i| (&digests[i], &sigs[i], &pubs[i]))
            .collect();
        bench_fn(name, iters, || {
            bcwan_crypto::batch_verify(black_box(&items)).unwrap()
        });
    }

    // The fixed-limb field primitives under every EC point operation.
    let fa = FieldElement::from_u64(0xdead_beef_1234_5678)
        .mul(&FieldElement::from_u64(0x9e37_79b9))
        .add(&FieldElement::ONE);
    let fb = fa.sqr().sub(&FieldElement::from_u64(977));
    bench_fn("fe_mul", 100_000, || black_box(&fa).mul(black_box(&fb)));
    bench_fn("fe_sqr", 100_000, || black_box(&fa).sqr());
    bench_fn("fe_invert", 10_000, || black_box(&fa).invert());

    // Full escrow spend check: the Listing 1 reveal path — ePk/eSk pair
    // check (OP_CHECKRSA512PAIR), P2PKH hash check, and the final
    // OP_CHECKSIG over the sighash digest. This is the per-input cost a
    // validator pays for a claim transaction on a sigcache miss.
    let gateway_hash = hash160(&public.to_bytes());
    let buyer_hash = [0x33u8; 20];
    let escrow = templates::ephemeral_key_release(&pk, &gateway_hash, &buyer_hash, 100);
    let reveal = templates::key_reveal_sig(&sig.to_bytes(), &public.to_bytes(), &sk);
    let checker = DigestChecker { digest };
    let ctx = ExecContext {
        checker: &checker,
        lock_time: 0,
        input_final: true,
    };
    bench_fn("escrow_verify (reveal path, cache miss)", 100, || {
        verify_spend(black_box(&reveal), black_box(&escrow), &ctx).unwrap()
    });
}
