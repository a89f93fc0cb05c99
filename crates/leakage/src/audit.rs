//! The leakage audit harness: paired secret runs across the policy ×
//! workload matrix, distinguishability per cell, and the CI gates.
//!
//! For every cell the harness runs K=2 secret classes × N seeds, captures
//! the adversary view of the secret-dependent phase only (setup —
//! loading dictionaries, populating stores — is public), and feeds the
//! traces to [`distinguishability`]. The gates encode the paper's
//! claims:
//!
//! * **baseline** (vanilla SGX + fault tracer): the adversary *must*
//!   distinguish the secrets — if it can't, the audit itself is broken
//!   (sanity gate, MI ≥ threshold);
//! * **cached-oram** (§5.2.2): bucket traffic must be independent of the
//!   secret (MI ≤ threshold);
//! * **rate-limit** (§5.2.4): observed faults must stay within the
//!   configured bound, i.e. measured bits/progress ≤ the ε budget;
//! * **clusters** (§5.2.3): informational — the report shows how much
//!   the anonymity sets coarsen the channel, but cluster sizing is a
//!   policy choice, not a pass/fail;
//! * **restore** (sealed checkpoint/restore): the secret phase is
//!   interrupted by a snapshot → host crash → failover-restore cycle,
//!   and the audit isolates what that cycle itself hands the OS — the
//!   sealed blob's transport chunks. The chunk sequence must be
//!   independent of the secret (MI ≤ threshold): this is the size
//!   channel the snapshot payload padding exists to close.
//! * **fleet** (multi-tenant EPC): two enclaves share one machine's
//!   EPC; the *secret tenant* processes the cell workload's secret
//!   phase while a neighbor serves a fixed public request sequence.
//!   The adversary view is every kernel event attributable to the
//!   *neighbor* — the gate asks whether the co-tenant's secret
//!   modulates the neighbor's paging trace through the shared machine
//!   (MI ≤ threshold), i.e. whether self-paging budgets actually
//!   isolate tenants from each other's access patterns.

use autarky::{Profile, SystemBuilder};
use autarky_json::{object, Json};
use autarky_os_sim::{EnclaveImage, Observation, Os};
use autarky_runtime::{is_telemetry_export_key, RateLimit, RuntimeConfig};
use autarky_sgx_sim::machine::MachineConfig;
use autarky_sgx_sim::{EnclaveId, MonotonicCounter};
use autarky_workloads::{font, jpeg, kvstore, spell, EncHeap, EnclaveHandle, World};

use crate::capture::Capture;
use crate::metrics::{distinguishability, Distinguishability};
use crate::trace::Trace;

/// Audit parameters and gate thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditConfig {
    /// Seeds (runs) per secret class per cell; ≥ 2.
    pub seeds: usize,
    /// The baseline sanity gate: minimum MI (bits/run) the unprotected
    /// configuration must leak.
    pub baseline_min_mi: f64,
    /// The ORAM gate: maximum MI (bits/run) the cached-ORAM
    /// configuration may leak.
    pub oram_max_mi: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            seeds: 3,
            baseline_min_mi: 0.9,
            oram_max_mi: 0.25,
        }
    }
}

/// The audited protection policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Baseline,
    RateLimit,
    Clusters,
    CachedOram,
    /// Self-paging with periodic sealed telemetry exports; the audit
    /// isolates the export channel and gates its distinguishability.
    Telemetry,
    /// Self-paging with a mid-phase sealed snapshot → crash → failover
    /// restore; the audit isolates the snapshot transport channel and
    /// gates its distinguishability.
    Restore,
    /// Two self-paging tenants on one shared EPC; the audit isolates
    /// the *neighbor's* trace and gates whether the co-tenant's secret
    /// bleeds into it.
    Fleet,
}

impl Policy {
    const ALL: [Policy; 7] = [
        Policy::Baseline,
        Policy::RateLimit,
        Policy::Clusters,
        Policy::CachedOram,
        Policy::Telemetry,
        Policy::Restore,
        Policy::Fleet,
    ];

    fn name(self) -> &'static str {
        match self {
            Policy::Baseline => "baseline",
            Policy::RateLimit => "rate-limit",
            Policy::Clusters => "clusters",
            Policy::CachedOram => "cached-oram",
            Policy::Telemetry => "telemetry",
            Policy::Restore => "restore",
            Policy::Fleet => "fleet",
        }
    }
}

/// The audited workloads (the paper's Table 2 attack victims plus the
/// Figure 8 store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Jpeg,
    Font,
    Spell,
    Kvstore,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Jpeg,
        Workload::Font,
        Workload::Spell,
        Workload::Kvstore,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Jpeg => "jpeg",
            Workload::Font => "font",
            Workload::Spell => "spell",
            Workload::Kvstore => "kvstore",
        }
    }
}

/// Per-run bookkeeping the rate gate needs.
#[derive(Debug, Clone, Copy, Default)]
struct RunStats {
    faults: u64,
    progress: u64,
    tracked_pages: usize,
    rate_limit: Option<RateLimit>,
    terminated: bool,
}

/// The rate-limit gate evidence for one cell (worst run shown).
#[derive(Debug, Clone, PartialEq)]
pub struct RateGate {
    /// Faults the runtime handled in the worst run.
    pub faults: u64,
    /// Forward progress in that run.
    pub progress: u64,
    /// Faults the policy would have tolerated at that progress.
    pub allowed: f64,
    /// Measured leakage rate: post-burst faults × log2(tracked pages) /
    /// progress, in bits per unit of progress.
    pub measured_bits_per_progress: f64,
    /// The configured ε budget in bits per unit of progress.
    pub budget_bits_per_progress: f64,
}

/// Gate outcome for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Threshold held.
    Pass,
    /// Threshold violated (fails the audit).
    Fail,
    /// No threshold applies to this cell.
    Info,
}

/// One (policy × workload) cell of the audit matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Policy label.
    pub policy: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Distinguishability summary over the captured traces.
    pub dist: Distinguishability,
    /// Rate-limit evidence (rate-limit cells only).
    pub rate: Option<RateGate>,
    /// Gate outcome.
    pub gate: Gate,
    /// Human-readable gate explanation.
    pub reason: String,
}

/// The full audit result.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Seeds per class the audit ran with.
    pub seeds: usize,
    /// All cells, policy-major order.
    pub cells: Vec<CellResult>,
    /// Conjunction of every gated cell.
    pub pass: bool,
}

/// Stable policy labels of the audit matrix, in report order (the
/// vocabulary external matrix drivers select cells by).
pub fn policy_names() -> [&'static str; 7] {
    Policy::ALL.map(Policy::name)
}

/// Stable workload labels of the audit matrix, in report order.
pub fn workload_names() -> [&'static str; 4] {
    Workload::ALL.map(Workload::name)
}

/// Run the full audit matrix.
pub fn run_audit(config: &AuditConfig) -> AuditReport {
    run_audit_filtered(config, &[])
}

/// Run a subset of the matrix: `only` holds `policy/workload` labels
/// (e.g. `cached-oram/spell`); empty runs everything.
pub fn run_audit_filtered(config: &AuditConfig, only: &[String]) -> AuditReport {
    assert!(config.seeds >= 2, "need ≥2 seeds per class");
    let mut cells = Vec::new();
    for policy in Policy::ALL {
        for workload in Workload::ALL {
            let label = format!("{}/{}", policy.name(), workload.name());
            if only.is_empty() || only.iter().any(|o| o == &label) {
                cells.push(audit_cell(config, policy, workload));
            }
        }
    }
    let pass = cells.iter().all(|c| c.gate != Gate::Fail);
    AuditReport {
        seeds: config.seeds,
        cells,
        pass,
    }
}

fn audit_cell(config: &AuditConfig, policy: Policy, workload: Workload) -> CellResult {
    let mut classes: [Vec<Vec<u64>>; 2] = [Vec::new(), Vec::new()];
    let mut worst_rate: Option<RateGate> = None;
    for secret in 0..2u32 {
        for seed in 0..config.seeds as u64 {
            let (trace, stats) = run_one(policy, workload, secret, seed);
            assert!(
                !stats.terminated,
                "{}/{} secret {secret} seed {seed}: enclave terminated under audit load",
                policy.name(),
                workload.name()
            );
            classes[secret as usize].push(trace.symbols());
            if let Some(limit) = stats.rate_limit {
                let gate = rate_gate(&stats, limit);
                let is_worse = worst_rate
                    .as_ref()
                    .map(|w| gate.measured_bits_per_progress > w.measured_bits_per_progress)
                    .unwrap_or(true);
                if is_worse {
                    worst_rate = Some(gate);
                }
            }
        }
    }
    let dist = distinguishability(&classes[0], &classes[1]);

    let (gate, reason) = match policy {
        Policy::Baseline => {
            if dist.mi_bits >= config.baseline_min_mi {
                (
                    Gate::Pass,
                    format!(
                        "sanity: baseline leaks {:.2} ≥ {:.2} bits/run",
                        dist.mi_bits, config.baseline_min_mi
                    ),
                )
            } else {
                (
                    Gate::Fail,
                    format!(
                        "audit broken: baseline leaks only {:.2} < {:.2} bits/run",
                        dist.mi_bits, config.baseline_min_mi
                    ),
                )
            }
        }
        Policy::CachedOram => {
            if dist.mi_bits <= config.oram_max_mi {
                (
                    Gate::Pass,
                    format!(
                        "ORAM indistinguishable: {:.2} ≤ {:.2} bits/run",
                        dist.mi_bits, config.oram_max_mi
                    ),
                )
            } else {
                (
                    Gate::Fail,
                    format!(
                        "ORAM leaks {:.2} > {:.2} bits/run",
                        dist.mi_bits, config.oram_max_mi
                    ),
                )
            }
        }
        Policy::RateLimit => match &worst_rate {
            Some(rate) if (rate.faults as f64) <= rate.allowed => (
                Gate::Pass,
                format!(
                    "within budget: {:.3} ≤ {:.3} bits/progress ({} faults / {} progress)",
                    rate.measured_bits_per_progress,
                    rate.budget_bits_per_progress,
                    rate.faults,
                    rate.progress
                ),
            ),
            Some(rate) => (
                Gate::Fail,
                format!(
                    "over budget: {} faults > {:.1} allowed at progress {}",
                    rate.faults, rate.allowed, rate.progress
                ),
            ),
            None => (Gate::Fail, "rate-limit run recorded no policy".to_owned()),
        },
        Policy::Clusters => (
            Gate::Info,
            format!(
                "anonymity sets: cross-class TV {:.2}, MI {:.2} bits/run",
                dist.mean_cross_tv, dist.mi_bits
            ),
        ),
        Policy::Telemetry => {
            if dist.mean_symbols[0] == 0.0 && dist.mean_symbols[1] == 0.0 {
                (
                    Gate::Fail,
                    "telemetry cell captured no export traffic".to_owned(),
                )
            } else if dist.mi_bits <= config.oram_max_mi {
                (
                    Gate::Pass,
                    format!(
                        "telemetry export indistinguishable: {:.2} ≤ {:.2} bits/run",
                        dist.mi_bits, config.oram_max_mi
                    ),
                )
            } else {
                (
                    Gate::Fail,
                    format!(
                        "telemetry export leaks {:.2} > {:.2} bits/run",
                        dist.mi_bits, config.oram_max_mi
                    ),
                )
            }
        }
        Policy::Restore => {
            if dist.mean_symbols[0] == 0.0 && dist.mean_symbols[1] == 0.0 {
                (
                    Gate::Fail,
                    "restore cell captured no snapshot transport".to_owned(),
                )
            } else if dist.mi_bits <= config.oram_max_mi {
                (
                    Gate::Pass,
                    format!(
                        "sealed snapshot transport indistinguishable: {:.2} ≤ {:.2} bits/run",
                        dist.mi_bits, config.oram_max_mi
                    ),
                )
            } else {
                (
                    Gate::Fail,
                    format!(
                        "sealed snapshot transport leaks {:.2} > {:.2} bits/run \
                         (blob size channel open?)",
                        dist.mi_bits, config.oram_max_mi
                    ),
                )
            }
        }
        Policy::Fleet => {
            if dist.mean_symbols[0] == 0.0 && dist.mean_symbols[1] == 0.0 {
                (
                    Gate::Fail,
                    "fleet cell captured no neighbor traffic".to_owned(),
                )
            } else if dist.mi_bits <= config.oram_max_mi {
                (
                    Gate::Pass,
                    format!(
                        "cross-tenant isolation holds: neighbor trace leaks \
                         {:.2} ≤ {:.2} bits/run",
                        dist.mi_bits, config.oram_max_mi
                    ),
                )
            } else {
                (
                    Gate::Fail,
                    format!(
                        "neighbor trace leaks {:.2} > {:.2} bits/run of the \
                         co-tenant's secret",
                        dist.mi_bits, config.oram_max_mi
                    ),
                )
            }
        }
    };

    CellResult {
        policy: policy.name(),
        workload: workload.name(),
        dist,
        rate: worst_rate,
        gate,
        reason,
    }
}

fn rate_gate(stats: &RunStats, limit: RateLimit) -> RateGate {
    let bits_per_fault = (stats.tracked_pages.max(2) as f64).log2();
    let billable = stats.faults.saturating_sub(limit.burst) as f64;
    let measured = if stats.progress == 0 {
        // No progress: only the burst allowance applies; any billable
        // fault is an infinite rate. Surface it as such.
        if billable > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        billable * bits_per_fault / stats.progress as f64
    };
    RateGate {
        faults: stats.faults,
        progress: stats.progress,
        allowed: limit.allowed_faults(stats.progress),
        measured_bits_per_progress: measured,
        budget_bits_per_progress: limit.budget_bits_per_progress(stats.tracked_pages),
    }
}

// ----------------------------------------------------------------------
// Per-run execution.
// ----------------------------------------------------------------------

/// Self-paging resident budget: small enough that every audited workload
/// pages under pressure (so the residual channel actually carries
/// traffic), large enough that no single operation starves.
const BUDGET_PAGES: usize = 48;

/// Build the world for one audited run. Only the ORAM profile consumes
/// the seed (position-map randomness); deterministic profiles produce
/// identical traces across seeds, which the analysis handles (zero
/// within-class variance).
fn build_world(policy: Policy, seed: u64) -> (World, EncHeap) {
    let (profile, budget) = match policy {
        Policy::Baseline => (Profile::Unprotected, 0),
        Policy::RateLimit => (
            Profile::RateLimited {
                max_faults_per_progress: 64.0,
                burst: 4096,
            },
            BUDGET_PAGES,
        ),
        Policy::Clusters => (
            Profile::Clusters {
                pages_per_cluster: 10,
            },
            BUDGET_PAGES,
        ),
        Policy::CachedOram => (
            Profile::CachedOram {
                capacity_pages: 512,
                cache_pages: 24,
            },
            0,
        ),
        // The telemetry and restore cells run ordinary self-paging; what
        // they audit is the traffic layered on top (exports, snapshot
        // transport).
        Policy::Telemetry | Policy::Restore => (
            Profile::Clusters {
                pages_per_cluster: 10,
            },
            BUDGET_PAGES,
        ),
        // The fleet cell's observed neighbor: ordinary self-paging whose
        // fixed working set (sized in `run_fleet_cell`) exceeds this
        // budget, so the neighbor pages continuously — an empty neighbor
        // trace would make the isolation gate vacuous.
        Policy::Fleet => (
            Profile::Clusters {
                pages_per_cluster: 10,
            },
            BUDGET_PAGES,
        ),
    };
    let (world, heap) = SystemBuilder::new("leakage-audit", profile)
        .epc_pages(4096)
        .heap_pages(1024)
        .code_pages(24)
        .budget_pages(budget)
        .seed(0xA0D1_7000 + seed * 7919)
        .build()
        .expect("audit world builds");
    (world, heap)
}

/// Arm the legacy fault-tracing attacker for the baseline runs: unmap
/// the given pages so every first touch (and every page transition)
/// faults with an unmasked address. Targets are armed at full density —
/// the tracer resolves accesses that straddle two adjacent armed pages
/// itself (see `Os::arm_fault_tracer`), so data and code ranges alike
/// need no stride games.
fn arm_baseline(world: &mut World, pages: impl Iterator<Item = autarky_sgx_sim::Vpn>) {
    world
        .os
        .arm_fault_tracer(world.eid, pages)
        .expect("tracer arms");
}

/// Snapshot the enclave, crash the host, and restore on a failover host
/// mid-phase (the audit analogue of the flight recorder's crash hook).
/// Returns the adversary's view of the cycle: one [`UntrustedAccess`]
/// event per page-sized chunk of the sealed blob the OS transported.
/// The happy path must succeed — a failure here is a harness bug, not a
/// leakage finding.
///
/// [`UntrustedAccess`]: autarky_os_sim::Observation::UntrustedAccess
fn crash_and_restore(world: &mut World) -> Vec<autarky_os_sim::Observation> {
    let mut counter = MonotonicCounter::new(world.os.machine.platform_key(), world.eid);
    let blob =
        autarky_snapshot::snapshot(&world.os, &world.rt, &mut counter).expect("mid-audit snapshot");
    let mut host = Os::new(MachineConfig::default());
    host.adopt_untrusted_state(&mut world.os, world.eid)
        .expect("failover host adopts OS-side state");
    world.os = host;
    world.rt =
        autarky_snapshot::restore(&mut world.os, &mut counter, &blob).expect("failover restore");
    (0..autarky_snapshot::transport_chunks(blob.len()))
        .map(|chunk| autarky_os_sim::Observation::UntrustedAccess {
            key: autarky_snapshot::snapshot_transport_key(chunk),
            write: true,
        })
        .collect()
}

fn run_one(policy: Policy, workload: Workload, secret: u32, seed: u64) -> (Trace, RunStats) {
    if policy == Policy::Fleet {
        return run_fleet_cell(workload, secret, seed);
    }
    let (mut world, mut heap) = build_world(policy, seed);
    let mut events = match workload {
        Workload::Jpeg => run_jpeg(policy, secret, &mut world, &mut heap),
        Workload::Font => run_font(policy, secret, &mut world, &mut heap),
        Workload::Spell => run_spell(policy, secret, &mut world, &mut heap),
        Workload::Kvstore => run_kvstore(policy, secret, &mut world, &mut heap),
    };
    if policy == Policy::Telemetry {
        // The telemetry cell isolates the export channel: paging traffic
        // is already audited by the other cells, so the adversary view
        // here is exactly the sealed-snapshot writes.
        events.retain(|ev| {
            matches!(ev, autarky_os_sim::Observation::UntrustedAccess { key, .. }
                if is_telemetry_export_key(*key))
        });
    }
    if policy == Policy::Restore {
        // Likewise the restore cell isolates the snapshot transport:
        // the paging traffic around it is the clusters cell's job.
        events.retain(|ev| {
            matches!(ev, autarky_os_sim::Observation::UntrustedAccess { key, .. }
                if autarky_snapshot::is_snapshot_transport_key(*key))
        });
    }
    let meta = world.rt.policy_meta();
    let stats = RunStats {
        faults: world.rt.fault_count(),
        progress: world.rt.progress_total(),
        tracked_pages: meta.tracked_pages,
        rate_limit: meta.rate_limit,
        terminated: world.rt.is_terminated(),
    };
    let trace = Trace::new(policy.name(), workload.name(), secret, seed, events);
    (trace, stats)
}

fn run_jpeg(
    policy: Policy,
    secret: u32,
    world: &mut World,
    heap: &mut EncHeap,
) -> Vec<autarky_os_sim::Observation> {
    const SIDE: usize = 32;
    let (img_a, img_b) = jpeg::secret_pair(SIDE);
    let image = if secret == 0 { img_a } else { img_b };
    let compressed = jpeg::encode(SIDE, SIDE, &image);
    let mut decoder = jpeg::Decoder::new(world, heap, SIDE, SIDE).expect("decoder");
    if policy == Policy::Baseline {
        // Code fetches touch one page per exec, so adjacent targets are
        // safe here.
        let pages: Vec<_> = world.image.code_range().collect();
        arm_baseline(world, pages.into_iter());
    }
    let capture = Capture::begin(&world.os, heap);
    decoder.decode(world, heap, &compressed).expect("decode");
    if policy == Policy::Telemetry {
        world.rt.export_epoch(&mut world.os).expect("export");
    }
    // Snapshot after the decode so the checkpoint holds the maximally
    // secret-dependent resident set.
    let transport = if policy == Policy::Restore {
        crash_and_restore(world)
    } else {
        Vec::new()
    };
    let mut events = capture.finish(&world.os, heap);
    events.extend(transport);
    events
}

fn run_font(
    policy: Policy,
    secret: u32,
    world: &mut World,
    heap: &mut EncHeap,
) -> Vec<autarky_os_sim::Observation> {
    const LEN: usize = 16;
    let (text_a, text_b) = font::secret_pair(LEN);
    let text = if secret == 0 { text_a } else { text_b };
    let mut renderer = font::FontRenderer::new(world, heap, LEN).expect("renderer");
    if policy == Policy::Baseline {
        let pages: Vec<_> = world.image.code_range().collect();
        arm_baseline(world, pages.into_iter());
    }
    let capture = Capture::begin(&world.os, heap);
    renderer.render_text(world, heap, &text).expect("render");
    if policy == Policy::Telemetry {
        world.rt.export_epoch(&mut world.os).expect("export");
    }
    let transport = if policy == Policy::Restore {
        crash_and_restore(world)
    } else {
        Vec::new()
    };
    let mut events = capture.finish(&world.os, heap);
    events.extend(transport);
    events
}

fn run_spell(
    policy: Policy,
    secret: u32,
    world: &mut World,
    heap: &mut EncHeap,
) -> Vec<autarky_os_sim::Observation> {
    const DICT_WORDS: usize = 300;
    const QUERY_WORDS: usize = 24;
    let dictionary = spell::Dictionary::load(world, heap, "en", DICT_WORDS).expect("dict");
    let (text_a, text_b) = spell::secret_pair("en", DICT_WORDS, QUERY_WORDS);
    let text = if secret == 0 { text_a } else { text_b };
    if policy == Policy::Baseline {
        arm_baseline(world, dictionary.pages.iter().copied());
    }
    let capture = Capture::begin(&world.os, heap);
    let mut transport = Vec::new();
    for (i, word) in text.iter().enumerate() {
        dictionary.check(world, heap, word).expect("check");
        if policy == Policy::Telemetry && (i + 1) % 8 == 0 {
            world.rt.export_epoch(&mut world.os).expect("export");
        }
        // Crash mid-phase: the checkpoint's resident set reflects the
        // secret-dependent queries processed so far.
        if policy == Policy::Restore && i + 1 == QUERY_WORDS / 2 {
            transport = crash_and_restore(world);
        }
    }
    let mut events = capture.finish(&world.os, heap);
    events.extend(transport);
    events
}

fn run_kvstore(
    policy: Policy,
    secret: u32,
    world: &mut World,
    heap: &mut EncHeap,
) -> Vec<autarky_os_sim::Observation> {
    const ITEMS: u64 = 128;
    const VALUE_SIZE: usize = 512;
    const GETS: usize = 48;
    let mut store = kvstore::KvStore::new(
        world,
        heap,
        ITEMS,
        VALUE_SIZE,
        kvstore::ItemClustering::None,
    )
    .expect("store");
    store.load(world, heap, ITEMS).expect("load");
    let (keys_a, keys_b) = kvstore::secret_pair(ITEMS, GETS);
    let keys = if secret == 0 { keys_a } else { keys_b };
    if policy == Policy::Baseline {
        let pages: Vec<_> = world.image.heap_range().collect();
        arm_baseline(world, pages.into_iter());
    }
    let capture = Capture::begin(&world.os, heap);
    let mut transport = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        store.get(world, heap, key).expect("get").expect("present");
        if policy == Policy::Telemetry && (i + 1) % 16 == 0 {
            world.rt.export_epoch(&mut world.os).expect("export");
        }
        if policy == Policy::Restore && i + 1 == GETS / 2 {
            transport = crash_and_restore(world);
        }
    }
    let mut events = capture.finish(&world.os, heap);
    events.extend(transport);
    events
}

// ----------------------------------------------------------------------
// The fleet cell: two tenants on one shared EPC.
// ----------------------------------------------------------------------

/// Fleet-cell sizing for the observed neighbor: 128 items at two per
/// page is a 64-page value working set, deliberately wider than
/// [`BUDGET_PAGES`] so the neighbor's public trace always carries
/// paging traffic.
const FLEET_NEIGHBOR_ITEMS: u64 = 128;
const FLEET_NEIGHBOR_VALUE: usize = 2048;

/// The enclave an observation is attributable to, if any (untrusted
/// buffer accesses carry no enclave identity).
fn observation_eid(ev: &Observation) -> Option<EnclaveId> {
    match ev {
        Observation::Fault { eid, .. }
        | Observation::FetchSyscall { eid, .. }
        | Observation::EvictSyscall { eid, .. }
        | Observation::AllocSyscall { eid, .. }
        | Observation::SetEnclaveManaged { eid, .. }
        | Observation::SetOsManaged { eid, .. }
        | Observation::DemandPaging { eid, .. }
        | Observation::AdBitObserved { eid, .. }
        | Observation::FaultInjected { eid, .. } => Some(*eid),
        Observation::UntrustedAccess { .. } => None,
    }
}

/// Serve four fixed public GETs on the neighbor tenant (the enclave the
/// adversary watches), then hand the shared host back. The stride walk
/// is deterministic and secret-independent, and wider than the paging
/// budget, so every chunk pages.
fn fleet_neighbor_chunk(
    os: Os,
    handle: EnclaveHandle,
    heap: &mut EncHeap,
    store: &mut kvstore::KvStore,
    cursor: &mut u64,
) -> (Os, EnclaveHandle) {
    let mut world = World::join(os, handle);
    for _ in 0..4 {
        let key = cursor.wrapping_mul(29) % FLEET_NEIGHBOR_ITEMS;
        *cursor += 1;
        store
            .get(&mut world, heap, key)
            .expect("neighbor get")
            .expect("neighbor key present");
    }
    world.split()
}

/// One run of the fleet cell: tenant B processes the cell workload's
/// secret phase while neighbor A serves fixed public kvstore GETs,
/// interleaved so both tenants page against the shared EPC at once.
/// The trace keeps only events attributable to A — what an adversary
/// colocated with the *neighbor* learns about B's secret.
fn run_fleet_cell(workload: Workload, secret: u32, seed: u64) -> (Trace, RunStats) {
    // Neighbor A (the observed tenant) comes up through the ordinary
    // builder path; its profile and budget live in `build_world`.
    let (world_a, mut heap_a) = build_world(Policy::Fleet, seed);
    let eid_a = world_a.eid;
    let (os, handle_a) = world_a.split();
    let mut world = World::join(os, handle_a);
    let mut store_a = kvstore::KvStore::new(
        &mut world,
        &mut heap_a,
        FLEET_NEIGHBOR_ITEMS,
        FLEET_NEIGHBOR_VALUE,
        kvstore::ItemClustering::None,
    )
    .expect("neighbor store");
    store_a
        .load(&mut world, &mut heap_a, FLEET_NEIGHBOR_ITEMS)
        .expect("neighbor load");
    let (mut os, handle_a) = world.split();

    // Tenant B (the secret tenant) attaches to the same host, sharing
    // its EPC. Everything before the mark — including B's workload
    // setup below, which is secret-independent — is public; the
    // A-filtered capture only sees what A does afterwards anyway.
    let mut image = EnclaveImage::named("fleet-secret-tenant");
    image.heap_pages = 1024;
    let handle_b = World::attach_to(
        &mut os,
        image,
        RuntimeConfig {
            budget: BUDGET_PAGES,
            ..Default::default()
        },
    )
    .expect("secret tenant attaches");
    let mut heap_b = EncHeap::direct();
    let mut cursor = 0u64;
    let mark = os.observation_mark();

    let (os, handle_a, handle_b) = match workload {
        Workload::Jpeg => {
            const SIDE: usize = 32;
            let (img0, img1) = jpeg::secret_pair(SIDE);
            let px = if secret == 0 { img0 } else { img1 };
            let compressed = jpeg::encode(SIDE, SIDE, &px);
            let mut wb = World::join(os, handle_b);
            let mut decoder =
                jpeg::Decoder::new(&mut wb, &mut heap_b, SIDE, SIDE).expect("decoder");
            let (os, hb) = wb.split();
            let (os, ha) =
                fleet_neighbor_chunk(os, handle_a, &mut heap_a, &mut store_a, &mut cursor);
            let mut wb = World::join(os, hb);
            decoder
                .decode(&mut wb, &mut heap_b, &compressed)
                .expect("decode");
            let (os, hb) = wb.split();
            let (os, ha) = fleet_neighbor_chunk(os, ha, &mut heap_a, &mut store_a, &mut cursor);
            (os, ha, hb)
        }
        Workload::Font => {
            const LEN: usize = 16;
            let (t0, t1) = font::secret_pair(LEN);
            let text = if secret == 0 { t0 } else { t1 };
            let mut wb = World::join(os, handle_b);
            let mut renderer =
                font::FontRenderer::new(&mut wb, &mut heap_b, LEN).expect("renderer");
            let (os, hb) = wb.split();
            let (os, ha) =
                fleet_neighbor_chunk(os, handle_a, &mut heap_a, &mut store_a, &mut cursor);
            let mut wb = World::join(os, hb);
            renderer
                .render_text(&mut wb, &mut heap_b, &text)
                .expect("render");
            let (os, hb) = wb.split();
            let (os, ha) = fleet_neighbor_chunk(os, ha, &mut heap_a, &mut store_a, &mut cursor);
            (os, ha, hb)
        }
        Workload::Spell => {
            const DICT_WORDS: usize = 300;
            const QUERY_WORDS: usize = 24;
            let mut wb = World::join(os, handle_b);
            let dict =
                spell::Dictionary::load(&mut wb, &mut heap_b, "en", DICT_WORDS).expect("dict");
            let (t0, t1) = spell::secret_pair("en", DICT_WORDS, QUERY_WORDS);
            let text = if secret == 0 { t0 } else { t1 };
            let (mut os, mut hb) = wb.split();
            let mut ha = handle_a;
            for (i, word) in text.iter().enumerate() {
                let mut wb = World::join(os, hb);
                dict.check(&mut wb, &mut heap_b, word).expect("check");
                (os, hb) = wb.split();
                if (i + 1) % 6 == 0 {
                    (os, ha) = fleet_neighbor_chunk(os, ha, &mut heap_a, &mut store_a, &mut cursor);
                }
            }
            (os, ha, hb)
        }
        Workload::Kvstore => {
            const ITEMS: u64 = 128;
            const VALUE_SIZE: usize = 512;
            const GETS: usize = 48;
            let mut wb = World::join(os, handle_b);
            let mut store_b = kvstore::KvStore::new(
                &mut wb,
                &mut heap_b,
                ITEMS,
                VALUE_SIZE,
                kvstore::ItemClustering::None,
            )
            .expect("secret store");
            store_b.load(&mut wb, &mut heap_b, ITEMS).expect("load");
            let (keys0, keys1) = kvstore::secret_pair(ITEMS, GETS);
            let keys = if secret == 0 { keys0 } else { keys1 };
            let (mut os, mut hb) = wb.split();
            let mut ha = handle_a;
            for (i, &key) in keys.iter().enumerate() {
                let mut wb = World::join(os, hb);
                store_b
                    .get(&mut wb, &mut heap_b, key)
                    .expect("get")
                    .expect("present");
                (os, hb) = wb.split();
                if (i + 1) % 12 == 0 {
                    (os, ha) = fleet_neighbor_chunk(os, ha, &mut heap_a, &mut store_a, &mut cursor);
                }
            }
            (os, ha, hb)
        }
    };

    let events: Vec<Observation> = os
        .observations_since(mark)
        .iter()
        .filter(|ev| observation_eid(ev) == Some(eid_a))
        .cloned()
        .collect();
    let meta = handle_a.rt.policy_meta();
    let stats = RunStats {
        faults: handle_a.rt.fault_count(),
        progress: handle_a.rt.progress_total(),
        tracked_pages: meta.tracked_pages,
        rate_limit: meta.rate_limit,
        terminated: handle_a.rt.is_terminated() || handle_b.rt.is_terminated(),
    };
    let trace = Trace::new("fleet", workload.name(), secret, seed, events);
    (trace, stats)
}

// ----------------------------------------------------------------------
// Report rendering (JSON through the workspace codec, plus markdown).
// ----------------------------------------------------------------------

impl AuditReport {
    /// Serialize the report as JSON (stable key order).
    pub fn to_json(&self) -> String {
        let cells = self.cells.iter().map(|cell| {
            let d = &cell.dist;
            let gate = match cell.gate {
                Gate::Pass => "pass",
                Gate::Fail => "fail",
                Gate::Info => "info",
            };
            let mut fields = vec![
                ("policy", cell.policy.into()),
                ("workload", cell.workload.into()),
                ("gate", gate.into()),
                ("reason", cell.reason.as_str().into()),
                ("mi_bits", Json::Float(d.mi_bits)),
                ("accuracy", Json::Float(d.accuracy)),
                ("mean_cross_tv", Json::Float(d.mean_cross_tv)),
                ("mean_within_tv", Json::Float(d.mean_within_tv)),
                ("mean_cross_edit", Json::Float(d.mean_cross_edit)),
                (
                    "mean_symbols",
                    Json::Array(d.mean_symbols.map(Json::Float).into()),
                ),
            ];
            if let Some(rate) = &cell.rate {
                let rate = object([
                    ("faults", rate.faults.into()),
                    ("progress", rate.progress.into()),
                    ("allowed", Json::Float(rate.allowed)),
                    (
                        "measured_bits_per_progress",
                        Json::Float(rate.measured_bits_per_progress),
                    ),
                    (
                        "budget_bits_per_progress",
                        Json::Float(rate.budget_bits_per_progress),
                    ),
                ]);
                fields.push(("rate", rate));
            }
            object(fields)
        });
        object([
            ("seeds", self.seeds.into()),
            ("pass", Json::Bool(self.pass)),
            ("cells", Json::Array(cells.collect())),
        ])
        .pretty()
    }

    /// Render the report as a markdown table plus gate lines.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# Leakage audit\n\n");
        out.push_str(&format!(
            "Seeds per class: {} — overall: **{}**\n\n",
            self.seeds,
            if self.pass { "PASS" } else { "FAIL" }
        ));
        out.push_str(
            "| policy | workload | MI (bits/run) | accuracy | cross-TV | within-TV | \
             cross-edit | symbols (s0/s1) | gate |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|---|\n");
        for cell in &self.cells {
            let d = &cell.dist;
            out.push_str(&format!(
                "| {} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.0}/{:.0} | {} |\n",
                cell.policy,
                cell.workload,
                d.mi_bits,
                d.accuracy,
                d.mean_cross_tv,
                d.mean_within_tv,
                d.mean_cross_edit,
                d.mean_symbols[0],
                d.mean_symbols[1],
                match cell.gate {
                    Gate::Pass => "pass",
                    Gate::Fail => "**FAIL**",
                    Gate::Info => "info",
                },
            ));
        }
        out.push('\n');
        for cell in &self.cells {
            out.push_str(&format!(
                "- `{}/{}`: {}\n",
                cell.policy, cell.workload, cell.reason
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_spell_is_distinguishable() {
        let config = AuditConfig::default();
        let cell = audit_cell(&config, Policy::Baseline, Workload::Spell);
        assert_eq!(cell.gate, Gate::Pass, "{}", cell.reason);
        assert!(cell.dist.mi_bits >= 0.9, "MI {:.3}", cell.dist.mi_bits);
        assert!(cell.dist.mean_cross_tv > 0.0);
    }

    #[test]
    fn cached_oram_kvstore_is_indistinguishable() {
        let config = AuditConfig::default();
        let cell = audit_cell(&config, Policy::CachedOram, Workload::Kvstore);
        assert_eq!(cell.gate, Gate::Pass, "{}", cell.reason);
        assert!(cell.dist.mi_bits <= 0.25, "MI {:.3}", cell.dist.mi_bits);
    }

    #[test]
    fn rate_limited_font_stays_under_budget() {
        let config = AuditConfig::default();
        let cell = audit_cell(&config, Policy::RateLimit, Workload::Font);
        assert_eq!(cell.gate, Gate::Pass, "{}", cell.reason);
        let rate = cell.rate.expect("rate evidence recorded");
        assert!((rate.faults as f64) <= rate.allowed);
    }

    #[test]
    fn telemetry_export_is_indistinguishable() {
        let config = AuditConfig::default();
        let cell = audit_cell(&config, Policy::Telemetry, Workload::Spell);
        assert_eq!(cell.gate, Gate::Pass, "{}", cell.reason);
        assert!(
            cell.dist.mean_symbols[0] > 0.0,
            "export traffic was captured"
        );
        assert!(cell.dist.mi_bits <= 0.25, "MI {:.3}", cell.dist.mi_bits);
    }

    #[test]
    fn restore_transport_is_indistinguishable() {
        let config = AuditConfig::default();
        for workload in [Workload::Spell, Workload::Kvstore] {
            let cell = audit_cell(&config, Policy::Restore, workload);
            assert_eq!(
                cell.gate,
                Gate::Pass,
                "{}: {}",
                workload.name(),
                cell.reason
            );
            assert!(
                cell.dist.mean_symbols[0] > 0.0,
                "{}: snapshot transport was captured",
                workload.name()
            );
            assert!(
                cell.dist.mi_bits <= 0.25,
                "{}: MI {:.3}",
                workload.name(),
                cell.dist.mi_bits
            );
        }
    }

    #[test]
    fn fleet_neighbor_trace_is_secret_independent() {
        let config = AuditConfig::default();
        for workload in [Workload::Kvstore, Workload::Spell] {
            let cell = audit_cell(&config, Policy::Fleet, workload);
            assert_eq!(
                cell.gate,
                Gate::Pass,
                "{}: {}",
                workload.name(),
                cell.reason
            );
            assert!(
                cell.dist.mean_symbols[0] > 0.0,
                "{}: neighbor traffic was captured",
                workload.name()
            );
            assert!(
                cell.dist.mi_bits <= 0.25,
                "{}: MI {:.3}",
                workload.name(),
                cell.dist.mi_bits
            );
        }
    }

    #[test]
    fn report_renders_json_and_markdown() {
        let report = AuditReport {
            seeds: 2,
            cells: vec![CellResult {
                policy: "baseline",
                workload: "jpeg",
                dist: Distinguishability {
                    mean_within_tv: 0.0,
                    mean_cross_tv: 0.5,
                    accuracy: 1.0,
                    mi_bits: 1.0,
                    mean_cross_edit: 0.7,
                    mean_symbols: [100.0, 100.0],
                },
                rate: None,
                gate: Gate::Pass,
                reason: "sanity".to_owned(),
            }],
            pass: true,
        };
        let json = report.to_json();
        assert!(json.contains("\"policy\": \"baseline\""));
        assert!(json.contains("\"pass\": true"));
        let md = report.to_markdown();
        assert!(md.contains("| baseline | jpeg |"));
        assert!(md.contains("PASS"));
    }
}
