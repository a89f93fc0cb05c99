//! Cryptographic primitives for the Autarky SGX simulator.
//!
//! The real SGX memory-encryption engine and sealing machinery are opaque
//! hardware; the simulator replaces them with well-known software
//! constructions implemented from scratch in this crate:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, used for enclave measurement
//!   (`EEXTEND`) and as the compression core for [`hmac`].
//! * [`hmac`] — RFC 2104 HMAC-SHA256, used for report MACs and key
//!   derivation.
//! * [`chacha20`] — RFC 7539 ChaCha20 stream cipher, the simulator's
//!   stand-in for the AES-based memory-encryption engine. It computes up
//!   to 16 blocks per kernel call in a lane loop that the compiler
//!   vectorizes, and XORs 32-bit words.
//! * [`poly1305`] — RFC 7539 Poly1305 one-time authenticator, with
//!   44/44/42-bit limbs and `u128` products, absorbing two blocks per
//!   step.
//! * [`aead`] — ChaCha20-Poly1305 AEAD, used by `EWB`/`ELDU` page sealing,
//!   the SGXv2 software eviction path, sealed snapshots and the ORAM block
//!   store. The associated data carries the page's virtual address and
//!   anti-replay version counter, which is exactly the integrity contract
//!   SGX's paging instructions provide.
//!
//! Every page eviction, page fetch and ORAM bucket write pays for the
//! AEAD, so the two kernels set most of the simulator's host time on
//! paging- and ORAM-heavy runs. They are tuned within the crate's rules:
//! safe, portable Rust with no target-specific code path or build flag,
//! relying on LLVM's auto-vectorizer on baseline x86-64. Their module docs
//! say why the code is shaped the way it is.
//!
//! All implementations are pure safe Rust, deterministic, and validated
//! against the relevant RFC/NIST test vectors (RFC 7539 Appendix A in
//! `tests/rfc7539_appendix_a.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod constant_time;
pub mod hmac;
pub mod poly1305;
pub mod sha256;

pub use aead::{open, seal, AeadError, KEY_LEN, NONCE_LEN, TAG_LEN};
pub use chacha20::ChaCha20;
pub use constant_time::ct_eq;
pub use hmac::{hmac_sha256, HmacSha256};
pub use poly1305::Poly1305;
pub use sha256::{sha256, Sha256};
