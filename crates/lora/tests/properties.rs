//! Seeded property tests: frame codecs and airtime monotonicity.
//!
//! Each property runs [`CASES`] inputs drawn from a [`SimRng`] seeded
//! with `BASE_SEED + case`; a failure names the case's seed. (The
//! duty-cycle budget property, at duty fractions from 1 % to 100 %, is
//! `duty_cycle_invariants.rs`.)

use bcwan_lora::airtime::time_on_air;
use bcwan_lora::frame::{EncryptedReading, LoraFrame, ADDRESS_LEN};
use bcwan_lora::params::{RadioConfig, SpreadingFactor};
use bcwan_sim::{SimDuration, SimRng};
use rand::RngCore;
use std::panic::catch_unwind;

const BASE_SEED: u64 = 0x10ca_7000;
const CASES: u64 = 512;

/// Runs `check(seed, rng)` once per case.
fn for_each_case(check: impl Fn(u64, &mut SimRng)) {
    for seed in BASE_SEED..BASE_SEED + CASES {
        check(seed, &mut SimRng::seed_from_u64(seed));
    }
}

fn bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; rng.index(max_len)];
    rng.fill_bytes(&mut out);
    out
}

/// Any of the three frame kinds with random field contents.
fn frame(rng: &mut SimRng) -> LoraFrame {
    let device_id = rng.next_u32();
    let mut recipient = [0u8; ADDRESS_LEN];
    rng.fill_bytes(&mut recipient);
    match rng.index(3) {
        0 => LoraFrame::UplinkRequest {
            device_id,
            recipient,
        },
        1 => LoraFrame::DownlinkEphemeralKey {
            device_id,
            public_key: bytes(rng, 200),
        },
        _ => LoraFrame::DataUplink {
            device_id,
            recipient,
            em: bytes(rng, 128),
            sig: bytes(rng, 128),
        },
    }
}

#[test]
fn frame_codec_round_trip() {
    for_each_case(|seed, rng| {
        let frame = frame(rng);
        assert_eq!(
            LoraFrame::decode(&frame.encode()).as_ref(),
            Ok(&frame),
            "seed {seed:#x}"
        );
    });
}

#[test]
fn frame_decoder_never_panics() {
    for_each_case(|seed, rng| {
        // Half pure garbage, half a valid frame with a few bytes
        // overwritten (garbage rarely gets past the tag byte).
        let mut input = if seed % 2 == 0 {
            bytes(rng, 300)
        } else {
            frame(rng).encode()
        };
        for _ in 0..rng.index(4) {
            if !input.is_empty() {
                let at = rng.index(input.len());
                input[at] = rng.next_u32() as u8;
            }
        }
        let outcome = catch_unwind(|| LoraFrame::decode(&input));
        assert!(outcome.is_ok(), "seed {seed:#x}: panicked on {input:02x?}");
    });
}

#[test]
fn truncated_frames_error_not_panic() {
    for_each_case(|seed, rng| {
        let encoded = frame(rng).encode();
        let cut = rng.index(encoded.len());
        let outcome = catch_unwind(|| LoraFrame::decode(&encoded[..cut]));
        assert!(
            matches!(outcome, Ok(Err(_))),
            "seed {seed:#x}: {outcome:?} for {cut} of {} bytes",
            encoded.len()
        );
    });
}

#[test]
fn encrypted_reading_round_trip() {
    for_each_case(|seed, rng| {
        let mut iv = [0u8; 16];
        rng.fill_bytes(&mut iv);
        let mut ciphertext = vec![0u8; (1 + rng.index(7)) * 16];
        rng.fill_bytes(&mut ciphertext);
        let reading = EncryptedReading { iv, ciphertext };
        assert_eq!(
            EncryptedReading::decode(&reading.encode()).as_ref(),
            Ok(&reading),
            "seed {seed:#x}"
        );
    });
}

/// Airtime is monotone in payload length for every SF.
#[test]
fn airtime_monotone_in_payload() {
    for_each_case(|seed, rng| {
        let (a, b) = (rng.index(220), rng.index(220));
        let (shorter, longer) = (a.min(b), a.max(b));
        for sf in SpreadingFactor::ALL {
            let cfg = RadioConfig::with_sf(sf);
            assert!(
                time_on_air(&cfg, shorter) <= time_on_air(&cfg, longer),
                "seed {seed:#x}: {sf}: airtime({shorter}) > airtime({longer})"
            );
        }
    });
}

/// Airtime is monotone in spreading factor for every payload.
#[test]
fn airtime_monotone_in_sf() {
    for len in 0..220 {
        let mut prev = SimDuration::ZERO;
        for sf in SpreadingFactor::ALL {
            let t = time_on_air(&RadioConfig::with_sf(sf), len);
            assert!(t >= prev, "{sf} not slower for len {len}");
            prev = t;
        }
    }
}
