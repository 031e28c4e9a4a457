//! One adapter file per library crate. Every call the harness makes into
//! the repository's API goes through a function here, wrapped in a span
//! of that layer, so that a refactor which renames an entry point needs
//! a mechanical fix in exactly one file (see the README).

pub mod bcwan;
pub mod chain;
pub mod crypto;
pub mod lora;
pub mod p2p;
pub mod script;
pub mod sim;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The generator every input is drawn from: `--seed` plus a fixed label
/// per use, so two inputs of one run never share a stream.
pub fn input_rng(seed: u64, label: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ label)
}
