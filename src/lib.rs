//! Umbrella crate for the BcWAN reproduction workspace.
//!
//! Re-exports the member crates so the examples and integration tests can
//! use a single dependency root. See the individual crates for the real
//! APIs: [`bcwan`] (protocol), [`bcwan_chain`], [`bcwan_script`],
//! [`bcwan_crypto`], [`bcwan_lora`], [`bcwan_p2p`], [`bcwan_sim`].
//!
//! The README below doubles as the crate documentation; its Rust
//! snippet runs as a doctest so the quickstart cannot rot.
#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]

pub use bcwan;
pub use bcwan_chain;
pub use bcwan_crypto;
pub use bcwan_lora;
pub use bcwan_p2p;
pub use bcwan_script;
pub use bcwan_sim;
