//! Host-clock benchmark of the Autarky simulator.
//!
//! Four workloads each put a different layer on the critical path:
//! `spell-sgx1` (runtime fault path, SGXv1 paging, AEAD), `kv-oram` (ORAM
//! and bucket AEAD, no faults), `kv-sgx2-writes` (SGXv2 software sealing
//! of single pages under writes) and `font-pinned` (the translation and
//! execution path alone). The client is single-threaded and closed-loop:
//! it issues the next op only when the previous one returns, and checks
//! every op's output. See `RATIONALE.md` for why each workload exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

/// A seed never used while this benchmark or a change measured with it
/// was written: re-check any claimed gain on it before accepting it.
pub const HELD_OUT_SEED: u64 = 90_210;
