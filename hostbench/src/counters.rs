//! Snapshots of the simulator's public counters, read around each op of a
//! traced run. Every value is a simulated count, so it repeats exactly for
//! a seed and a fixed number of ops.

use autarky::sgx::{CostTag, COST_TAGS};
use autarky::telemetry::SpanKind;

use crate::workload::System;

/// Counters before the per-tag cycle totals, in [`Counters`] index order.
const SCALAR_NAMES: [&str; 23] = [
    "sgx-sim.faults",
    "sgx-sim.aexs",
    "sgx-sim.eenters",
    "sgx-sim.eresumes",
    "sgx-sim.ewbs",
    "sgx-sim.eldus",
    "sgx-sim.eaugs",
    "sgx-sim.eaccepts",
    "sgx-sim.sim_cycles",
    "runtime.faults_handled",
    "runtime.pages_fetched",
    "runtime.pages_evicted",
    "runtime.retries",
    "runtime.misbehavior",
    "oram.accesses",
    "oram.bucket_reads",
    "oram.bucket_writes",
    "oram.crypto_bytes",
    "oram.cache_hits",
    "oram.cache_misses",
    "telemetry.spans",
    "os-sim.observations",
    "os-sim.resident_frames",
];

/// Number of counters in a snapshot.
pub const N: usize = SCALAR_NAMES.len() + COST_TAGS;

/// Index of a scalar counter by name (panics on a name not in the table,
/// which is a bug in this crate).
pub fn idx(name: &str) -> usize {
    SCALAR_NAMES
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("unknown counter {name}"))
}

/// Index of a cost tag's cycle total.
pub fn tag_idx(tag: CostTag) -> usize {
    SCALAR_NAMES.len() + tag as usize
}

/// Name of every counter, in index order.
pub fn names() -> Vec<String> {
    SCALAR_NAMES
        .iter()
        .map(|s| s.to_string())
        .chain(
            CostTag::ALL
                .iter()
                .map(|t| format!("sgx-sim.sim_cycles.{}", t.name())),
        )
        .collect()
}

/// One reading of every counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters(pub [u64; N]);

impl Counters {
    /// Read the counters of `sys`.
    pub fn read(sys: &System) -> Self {
        let machine = &sys.world.os.machine;
        let m = machine.stats();
        let rt = &sys.world.rt;
        let oram = sys.heap.oram_stats();
        let spans: u64 = SpanKind::ALL
            .iter()
            .map(|&k| rt.telemetry.span_agg(k).count)
            .sum();
        let scalars = [
            m.faults,
            m.aexs,
            m.eenters,
            m.eresumes,
            m.ewbs,
            m.eldus,
            m.eaugs,
            m.eaccepts,
            machine.clock.now(),
            rt.stats.faults_handled,
            rt.stats.pages_fetched,
            rt.stats.pages_evicted,
            rt.stats.retries,
            rt.stats.misbehavior,
            oram.accesses(),
            oram.bucket_reads(),
            oram.bucket_writes(),
            oram.crypto_bytes(),
            oram.cache_hits(),
            oram.cache_misses(),
            spans,
            sys.world.os.observations().len() as u64,
            sys.world.os.resident_frames(sys.world.eid) as u64,
        ];
        let mut out = [0u64; N];
        out[..scalars.len()].copy_from_slice(&scalars);
        out[scalars.len()..].copy_from_slice(&machine.clock.tag_totals());
        Counters(out)
    }

    /// Field-wise `self - earlier`. Gauges such as resident frames may
    /// shrink, so the difference saturates at 0; read gauges directly.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| {
            self.0[i].saturating_sub(earlier.0[i])
        }))
    }

    /// Counter `i`.
    pub fn get(&self, i: usize) -> u64 {
        self.0[i]
    }
}
