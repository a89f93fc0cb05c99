//! Cell executors: the bridge from a [`CellSpec`] to the subsystem it
//! exercises.
//!
//! Each kind wraps an existing crate as a *library call* — no
//! subprocesses, no re-parsing of CLI output — so a campaign cell sees
//! exactly what the subsystem's own tests see:
//!
//! * `bench` → [`autarky_bench::perf`] single-workload measurement with
//!   the baseline regression gate;
//! * `leakage` → [`autarky_leakage::run_audit_filtered`] on one
//!   (policy × workload) audit cell;
//! * `replay` → [`autarky_flightrec::verify_replay`] record → replay →
//!   diff determinism check;
//! * `fleet` → [`autarky_fleet::Fleet`] load-generated run with latency
//!   percentiles and the zero-silent-drop accounting gate;
//! * `profile` → [`autarky_profile::collect`] cycle-attribution profile
//!   with the unattributed-residual gate and a hot-path cycles/fault
//!   baseline gate;
//! * `figure` → paper-figure reproduction (fig5's tag-ledger latency
//!   breakdown), gated on the breakdown being non-degenerate.
//!
//! Executors are pure functions of the spec (plus, for bench and
//! profile, the baseline file named in it), so a cell's outcome is
//! reproducible from its content address alone. Profile cells
//! deliberately report only simulated-cycle metrics — the collector's
//! host wall-clock account stays out of the journal so resumed and
//! fresh campaigns stay byte-identical.

use autarky_fleet::Request;
use autarky_fleet::{
    export_trace, kv_stream, render_alert_log, spell_stream, Arrivals, Fleet, FleetConfig,
    FleetReport, LoadConfig, MemberConfig, StagedCrash, TimedRequest, WatchConfig, WorkloadKind,
};
use autarky_flightrec::{verify_replay, Schedule, SchedulePolicy, ScheduleWorkload};
use autarky_leakage::{run_audit_filtered, AuditConfig, Gate};
use autarky_os_sim::{FaultPlan, FlightEvent};
use autarky_runtime::{PagingMechanism, RuntimeConfig};

use crate::cell::{CellKind, CellOutcome, CellSpec, GateOutcome};

/// Execute one cell against its subsystem.
pub fn execute_cell(spec: &CellSpec) -> CellOutcome {
    match spec.kind {
        CellKind::Bench => run_bench(spec),
        CellKind::Leakage => run_leakage(spec),
        CellKind::Replay => run_replay(spec),
        CellKind::Fleet => run_fleet(spec),
        CellKind::Profile => run_profile(spec),
        CellKind::Figure => run_figure(spec),
        CellKind::Watch => run_watch(spec),
    }
}

// ---------------------------------------------------------------- bench

fn run_bench(spec: &CellSpec) -> CellOutcome {
    let Some(perf) = autarky_bench::perf::measure_one(&spec.workload, spec.params.scale) else {
        return CellOutcome::fail(format!("unknown bench workload {:?}", spec.workload));
    };
    let cur = perf.cycles_per_op();
    let mut metrics = vec![
        ("ops".to_owned(), perf.ops as f64),
        ("cycles".to_owned(), perf.cycles as f64),
        ("cycles_per_op".to_owned(), cur),
        ("faults".to_owned(), perf.faults as f64),
        ("fault_rate".to_owned(), perf.fault_rate()),
    ];
    // Telemetry tie-in: surface the hottest span so a regression's
    // *where* rides along with its *how much*.
    if let Some(top) = perf.spans.iter().max_by_key(|s| s.cycles) {
        metrics.push((format!("top_span_{}_cycles", top.name), top.cycles as f64));
    }
    let Some(baseline_path) = &spec.params.baseline else {
        return CellOutcome {
            gate: GateOutcome::Info,
            metrics,
            reason: format!("{:.1} cycles/op (no baseline configured)", cur),
        };
    };
    let base = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("unreadable: {e}"))
        .and_then(|json| autarky_bench::perf::baseline_entries(&json))
        .and_then(|entries| {
            let found = entries.into_iter().find(|(name, _)| *name == spec.workload);
            found
                .map(|(_, v)| v)
                .ok_or_else(|| format!("no workload {:?}", spec.workload))
        });
    let base = match base {
        Ok(base) => base,
        Err(e) => {
            return CellOutcome {
                gate: GateOutcome::Fail,
                metrics,
                reason: format!("baseline {baseline_path}: {e}"),
            }
        }
    };
    if base <= 0.0 {
        return CellOutcome {
            gate: GateOutcome::Fail,
            metrics,
            reason: format!("baseline cycles/op for {:?} is not positive", spec.workload),
        };
    }
    let delta_pct = (cur / base - 1.0) * 100.0;
    metrics.push(("baseline_cycles_per_op".to_owned(), base));
    metrics.push(("delta_pct".to_owned(), delta_pct));
    let gate = if delta_pct <= spec.params.max_growth_pct {
        GateOutcome::Pass
    } else {
        GateOutcome::Fail
    };
    CellOutcome {
        gate,
        metrics,
        reason: format!(
            "{cur:.1} cycles/op vs baseline {base:.1} ({delta_pct:+.1}%, limit +{:.1}%)",
            spec.params.max_growth_pct
        ),
    }
}

// -------------------------------------------------------------- leakage

fn run_leakage(spec: &CellSpec) -> CellOutcome {
    let Some(policy) = &spec.policy else {
        return CellOutcome::fail("leakage cell without a policy axis");
    };
    let cfg = AuditConfig {
        seeds: spec.params.samples,
        baseline_min_mi: spec.params.baseline_min_mi,
        oram_max_mi: spec.params.oram_max_mi,
    };
    let label = format!("{policy}/{}", spec.workload);
    let report = run_audit_filtered(&cfg, std::slice::from_ref(&label));
    let Some(cell) = report.cells.first() else {
        return CellOutcome::fail(format!("audit matrix has no cell {label}"));
    };
    let mut metrics = vec![
        ("mi_bits".to_owned(), cell.dist.mi_bits),
        ("accuracy".to_owned(), cell.dist.accuracy),
        ("mean_cross_tv".to_owned(), cell.dist.mean_cross_tv),
        ("mean_within_tv".to_owned(), cell.dist.mean_within_tv),
        ("mean_symbols_0".to_owned(), cell.dist.mean_symbols[0]),
        ("mean_symbols_1".to_owned(), cell.dist.mean_symbols[1]),
    ];
    if let Some(rate) = &cell.rate {
        metrics.push(("rate_faults".to_owned(), rate.faults as f64));
        metrics.push((
            "rate_bits_per_progress".to_owned(),
            rate.measured_bits_per_progress,
        ));
    }
    let gate = match cell.gate {
        Gate::Pass => GateOutcome::Pass,
        Gate::Fail => GateOutcome::Fail,
        Gate::Info => GateOutcome::Info,
    };
    CellOutcome {
        gate,
        metrics,
        reason: cell.reason.clone(),
    }
}

// --------------------------------------------------------------- replay

/// Injection rate for the named replay fault plans. Matches the
/// moderate rates the flight-recorder tests drive: high enough that
/// injections actually land, low enough that hostile runs usually
/// terminate with a detection rather than an early wedge.
const REPLAY_TRANSIENT_RATE: f64 = 0.0625;
const REPLAY_HOSTILE_RATE: f64 = 0.03;

fn run_replay(spec: &CellSpec) -> CellOutcome {
    let (Some(policy), Some(plan_name), Some(seed)) = (&spec.policy, &spec.fault_plan, spec.seed)
    else {
        return CellOutcome::fail("replay cell missing policy/fault_plan/seed axis");
    };
    let Some(policy) = SchedulePolicy::from_name(policy) else {
        return CellOutcome::fail(format!("unknown replay policy {policy:?}"));
    };
    let Some(workload) = ScheduleWorkload::from_name(&spec.workload) else {
        return CellOutcome::fail(format!("unknown replay workload {:?}", spec.workload));
    };
    // The plan RNG seed is derived from the cell's content address, so
    // two cells differing only in their seed axis inject differently —
    // while record and replay of the *same* cell share one plan.
    let plan_seed = spec.derived_seed();
    let fault_plan = match plan_name.as_str() {
        "quiet" => None,
        "transient" => Some(FaultPlan::transient_only(plan_seed, REPLAY_TRANSIENT_RATE)),
        "hostile" => Some(FaultPlan::hostile(plan_seed, REPLAY_HOSTILE_RATE)),
        other => return CellOutcome::fail(format!("unknown replay fault plan {other:?}")),
    };
    let schedule = Schedule {
        policy,
        workload,
        secret: spec.params.secret,
        seed,
        fault_plan,
    };
    let verdict = verify_replay(&schedule);
    let metrics = vec![
        ("events".to_owned(), verdict.record.records.len() as f64),
        (
            "telemetry_bytes".to_owned(),
            verdict.record.telemetry_snapshot.len() as f64,
        ),
        ("dropped".to_owned(), verdict.record.dropped as f64),
        (
            "outcome_ok".to_owned(),
            f64::from(u8::from(verdict.record.outcome == "ok")),
        ),
    ];
    if verdict.deterministic() {
        return CellOutcome {
            gate: GateOutcome::Pass,
            metrics,
            reason: format!(
                "deterministic ({} events, outcome {})",
                verdict.record.records.len(),
                verdict.record.outcome
            ),
        };
    }
    let mut why = Vec::new();
    if !verdict.log_identical {
        why.push("log diverged".to_owned());
    }
    if !verdict.telemetry_identical {
        why.push("telemetry diverged".to_owned());
    }
    if !verdict.outcome_identical {
        why.push(format!(
            "outcome {:?} vs {:?}",
            verdict.record.outcome, verdict.replay.outcome
        ));
    }
    if !verdict.decisions_resolved {
        why.push("unresolved decision chain".to_owned());
    }
    if let Some(div) = &verdict.divergence {
        why.push(format!("first divergence at log line {}", div.index + 1));
    }
    CellOutcome {
        gate: GateOutcome::Fail,
        metrics,
        reason: format!("replay not deterministic: {}", why.join("; ")),
    }
}

// ---------------------------------------------------------------- fleet

/// KV members preload this many items; with 2 KiB values that is two
/// items per page, so a small paging budget keeps members faulting.
const FLEET_KV_ITEMS: u64 = 64;
const FLEET_KV_VALUE_SIZE: usize = 2048;
const FLEET_SPELL_DICT_WORDS: usize = 600;
const FLEET_SPELL_WORDS_PER_REQ: usize = 12;
/// Near-uniform key skew: working set stays larger than the budget.
const FLEET_KV_THETA: f64 = 0.2;

fn run_fleet(spec: &CellSpec) -> CellOutcome {
    let (Some(shape), Some(plan_name), Some(enclave_size), Some(_seed)) = (
        &spec.traffic_shape,
        &spec.fault_plan,
        spec.enclave_size,
        spec.seed,
    ) else {
        return CellOutcome::fail("fleet cell missing traffic_shape/fault_plan/enclave_size/seed");
    };
    let heap_pages = enclave_size as usize;
    // Budget scales with the enclave so bigger cells are not trivially
    // all-resident; the floor keeps tiny cells making progress.
    let budget = (heap_pages / 12).clamp(12, 48);
    let member = |name: &str, workload: WorkloadKind| MemberConfig {
        name: name.into(),
        workload,
        heap_pages,
        epc_quota: 0,
        runtime: RuntimeConfig {
            budget,
            ..Default::default()
        },
        pin_kv_metadata: false,
    };
    let kv = || WorkloadKind::Kv {
        items: FLEET_KV_ITEMS,
        value_size: FLEET_KV_VALUE_SIZE,
    };
    let spell = || WorkloadKind::Spell {
        dict_words: FLEET_SPELL_DICT_WORDS,
    };
    let members = match spec.workload.as_str() {
        "kvstore" => vec![
            member("kv-a", kv()),
            member("kv-b", kv()),
            member("kv-c", kv()),
        ],
        "spell" => vec![
            member("spell-a", spell()),
            member("spell-b", spell()),
            member("spell-c", spell()),
        ],
        "mixed" => vec![
            member("kv-a", kv()),
            member("kv-b", kv()),
            member("spell-a", spell()),
        ],
        other => return CellOutcome::fail(format!("unknown fleet workload {other:?}")),
    };
    let member_count = members.len();
    let requests = spec.params.requests;
    let plan_seed = spec.derived_seed();
    let staged_crash = match plan_name.as_str() {
        "quiet" => None,
        "transient" => Some(StagedCrash {
            after_total_served: (requests as u64 / 6).max(5),
            member: 0,
            plan: FaultPlan::transient_only(plan_seed, 0.05),
        }),
        "staged-evict" => Some(StagedCrash {
            after_total_served: (requests as u64 / 6).max(5),
            member: 0,
            plan: FaultPlan {
                // Unbounded continuous eviction: guarantees detection
                // (see the fleet tests' attack_plan rationale); the
                // supervisor disarms it at the first failover.
                spurious_evict: 1.0,
                max_injections: None,
                ..FaultPlan::quiescent(plan_seed)
            },
        }),
        other => return CellOutcome::fail(format!("unknown fleet fault plan {other:?}")),
    };
    let cfg = FleetConfig {
        epc_frames: spec.params.epc_frames,
        members,
        queue_cap: 256,
        watchdog_cycles: 50_000_000,
        restart_budget_cycles: 500_000_000,
        restart_cost_cycles: 5_000_000,
        max_retries: 3,
        retry_backoff_cycles: 100_000,
        max_watchdog_strikes: 1,
        max_restarts: 3,
        snapshot_every: 32,
        epc_reserve_frames: 0,
        shrink_floor_pages: 16,
        flight_capacity: 1 << 18,
        staged_crash,
        watch: None,
    };
    let traffic: Vec<Vec<TimedRequest>> = (0..member_count)
        .map(|i| {
            let load = LoadConfig {
                seed: plan_seed.wrapping_add(0x9e37_79b9 * (i as u64 + 1)),
                requests,
                arrivals: arrivals_for(shape),
                start_cycles: 1_000,
            };
            match spec.workload.as_str() {
                "spell" => spell_stream(
                    load,
                    "en",
                    FLEET_SPELL_DICT_WORDS,
                    FLEET_SPELL_WORDS_PER_REQ,
                ),
                "mixed" if i == member_count - 1 => spell_stream(
                    load,
                    "en",
                    FLEET_SPELL_DICT_WORDS,
                    FLEET_SPELL_WORDS_PER_REQ,
                ),
                _ => kv_stream(load, FLEET_KV_ITEMS, FLEET_KV_THETA),
            }
        })
        .collect();
    let mut fleet = match Fleet::new(cfg) {
        Ok(fleet) => fleet,
        Err(e) => return CellOutcome::fail(format!("fleet boot failed: {e}")),
    };
    let stats = match fleet.run(traffic) {
        Ok(stats) => stats,
        Err(e) => return CellOutcome::fail(format!("fleet run failed: {e}")),
    };
    let report = FleetReport::from_stats(&stats, fleet.now());

    let offered: u64 = report.members.iter().map(|m| m.offered).sum();
    let served: u64 = report.members.iter().map(|m| m.served).sum();
    let rejected: u64 = report.members.iter().map(|m| m.rejected).sum();
    let restarts: u32 = report.members.iter().map(|m| m.restarts).sum();
    let worst = |f: &dyn Fn(&autarky_fleet::MemberReport) -> u64| {
        report.members.iter().map(f).max().unwrap_or(0)
    };
    let metrics = vec![
        ("offered".to_owned(), offered as f64),
        ("served".to_owned(), served as f64),
        ("rejected".to_owned(), rejected as f64),
        ("restarts".to_owned(), f64::from(restarts)),
        (
            "p50_worst_cycles".to_owned(),
            worst(&|m| m.p50_cycles) as f64,
        ),
        (
            "p99_worst_cycles".to_owned(),
            worst(&|m| m.p99_cycles) as f64,
        ),
        (
            "p999_worst_cycles".to_owned(),
            worst(&|m| m.p999_cycles) as f64,
        ),
        ("run_cycles".to_owned(), report.run_cycles as f64),
    ];

    let mut failures = Vec::new();
    if !report.all_accounted() {
        failures.push("silent request drop (offered != served + rejected)".to_owned());
    }
    if plan_name == "staged-evict" {
        if !report.all_byte_identical() {
            failures.push("a restore was not byte-identical".to_owned());
        }
        if report.members.first().map_or(0, |m| m.restarts) == 0 {
            failures.push("victim was never failed over".to_owned());
        }
    }
    if failures.is_empty() {
        CellOutcome {
            gate: GateOutcome::Pass,
            metrics,
            reason: format!(
                "accounted: {served} served + {rejected} rejected of {offered}, {restarts} restarts"
            ),
        }
    } else {
        CellOutcome {
            gate: GateOutcome::Fail,
            metrics,
            reason: failures.join("; "),
        }
    }
}

// ---------------------------------------------------------------- watch

/// Keys the victim's stream cycles through, ascending. At two 2 KiB
/// items a page this spans 24 item pages against a 16-page budget, so
/// the FIFO always misses and the oldest pages — the injector's
/// victims — go untouched for a full key cycle.
const WATCH_COLD_KEYS: u64 = 48;
/// Arrival grid shared by every member's stream.
const WATCH_BURST_GAP_CYCLES: u64 = 20_000;
const WATCH_BURST_LEN: usize = 25;
const WATCH_IDLE_GAP_CYCLES: u64 = 30_000_000;
const WATCH_START_CYCLES: u64 = 1_000;
/// Storm shape: delays are the limp (each stormed request overruns the
/// 2M-cycle watchdog budget), spurious evicts are the probe.
const WATCH_STORM_DELAY_CYCLES: u64 = 1_500_000;

fn watch_bursty(seed: u64, requests: usize) -> LoadConfig {
    LoadConfig {
        seed,
        requests,
        arrivals: Arrivals::Bursty {
            burst_gap_cycles: WATCH_BURST_GAP_CYCLES,
            burst_len: WATCH_BURST_LEN as u32,
            idle_gap_cycles: WATCH_IDLE_GAP_CYCLES,
        },
        start_cycles: WATCH_START_CYCLES,
    }
}

/// The victim's stream: GETs cycling `0..WATCH_COLD_KEYS` ascending on
/// the shared bursty grid. Deterministic by construction (no RNG).
fn watch_victim_stream(requests: usize) -> Vec<TimedRequest> {
    let mut at = WATCH_START_CYCLES;
    let mut out = Vec::with_capacity(requests);
    for i in 0..requests {
        out.push(TimedRequest {
            arrival_cycles: at,
            request: Request::Get {
                key: (i as u64) % WATCH_COLD_KEYS,
            },
        });
        at += if (i + 1) % WATCH_BURST_LEN == 0 {
            WATCH_IDLE_GAP_CYCLES
        } else {
            WATCH_BURST_GAP_CYCLES
        };
    }
    out
}

/// Watchtower tuned to the staged storm: the SLO-burn detector judges
/// dispatch service time — the watchdog's own measure — so the race
/// against the three-strike watchdog runs on equal terms.
fn watch_tower_config() -> WatchConfig {
    WatchConfig {
        epoch_cycles: 1_000_000,
        warmup_windows: 8,
        fault_h_milli: 0,
        entropy_h_milli: 0,
        p99_budget_cycles: 1_600_000,
        min_window_requests: 1,
        ..Default::default()
    }
}

struct WatchRun {
    stats: Vec<autarky_fleet::MemberStats>,
    report: FleetReport,
    alert_log: String,
    trace: String,
    attacks: usize,
}

fn watch_scenario(spec: &CellSpec) -> Result<(FleetConfig, Vec<Vec<TimedRequest>>), String> {
    let requests = spec.params.requests;
    let plan_seed = spec.derived_seed();
    let victim = MemberConfig {
        name: "kv-a".into(),
        workload: WorkloadKind::Kv {
            items: FLEET_KV_ITEMS,
            value_size: FLEET_KV_VALUE_SIZE,
        },
        heap_pages: 192,
        epc_quota: 0,
        runtime: RuntimeConfig {
            budget: 16,
            ..Default::default()
        },
        // Keep the hot bucket array out of the self-paging set so a
        // spurious evict always lands on a cold item page.
        pin_kv_metadata: true,
    };
    let peer_kv = MemberConfig {
        name: "kv-b".into(),
        pin_kv_metadata: false,
        ..victim.clone()
    };
    let spell = MemberConfig {
        name: "spell-a".into(),
        workload: WorkloadKind::Spell {
            dict_words: FLEET_SPELL_DICT_WORDS,
        },
        heap_pages: 256,
        epc_quota: 0,
        runtime: RuntimeConfig {
            budget: 24,
            ..Default::default()
        },
        pin_kv_metadata: false,
    };
    let (members, traffic) = match spec.workload.as_str() {
        "kvstore" => (
            vec![victim, peer_kv],
            vec![
                watch_victim_stream(requests),
                kv_stream(
                    watch_bursty(plan_seed.wrapping_add(0x9e37_79b9), requests),
                    FLEET_KV_ITEMS,
                    0.99,
                ),
            ],
        ),
        "mixed" => (
            vec![victim, peer_kv, spell],
            vec![
                watch_victim_stream(requests),
                kv_stream(
                    watch_bursty(plan_seed.wrapping_add(0x9e37_79b9), requests),
                    FLEET_KV_ITEMS,
                    0.99,
                ),
                spell_stream(
                    watch_bursty(plan_seed.wrapping_add(2 * 0x9e37_79b9), requests),
                    "en",
                    FLEET_SPELL_DICT_WORDS,
                    FLEET_SPELL_WORDS_PER_REQ,
                ),
            ],
        ),
        other => return Err(format!("unknown watch workload {other:?}")),
    };
    let member_count = members.len();
    let staged_crash = match spec.fault_plan.as_deref() {
        Some("quiet") => None,
        // Arm as the first fleet-wide burst finishes draining: the
        // detectors complete warmup on healthy traffic and the storm
        // lands on the burst's tail.
        Some("storm") => Some(StagedCrash {
            after_total_served: (member_count * WATCH_BURST_LEN - member_count - 2) as u64,
            member: 0,
            plan: FaultPlan {
                spurious_evict: 0.2,
                delay: 0.75,
                delay_cycles: WATCH_STORM_DELAY_CYCLES,
                max_injections: None,
                ..FaultPlan::quiescent(plan_seed)
            },
        }),
        other => return Err(format!("unknown watch fault plan {other:?}")),
    };
    let cfg = FleetConfig {
        epc_frames: spec.params.epc_frames,
        members,
        queue_cap: 64,
        watchdog_cycles: 2_000_000,
        restart_budget_cycles: 500_000_000,
        restart_cost_cycles: 5_000_000,
        max_retries: 3,
        retry_backoff_cycles: 100_000,
        max_watchdog_strikes: 3,
        max_restarts: 3,
        snapshot_every: 32,
        epc_reserve_frames: 32,
        shrink_floor_pages: 16,
        flight_capacity: 1 << 18,
        staged_crash,
        watch: Some(watch_tower_config()),
    };
    Ok((cfg, traffic))
}

fn watch_run_once(spec: &CellSpec) -> Result<WatchRun, String> {
    let (cfg, traffic) = watch_scenario(spec)?;
    let mut fleet = Fleet::new(cfg).map_err(|e| format!("watch fleet boot failed: {e}"))?;
    let stats = fleet
        .run(traffic)
        .map_err(|e| format!("watch fleet run failed: {e}"))?;
    let report = FleetReport::from_stats(&stats, fleet.now());
    let member_names = fleet.member_names();
    let members: Vec<_> = stats.iter().map(|s| (s.eid, s.name.clone())).collect();
    let alert_log = render_alert_log(fleet.watch_alerts(), &member_names);
    let records = fleet.flight_log();
    let attacks = records
        .iter()
        .filter(|r| matches!(r.event, FlightEvent::AttackDetected { .. }))
        .count();
    let trace = export_trace(&records, &members);
    Ok(WatchRun {
        stats,
        report,
        alert_log,
        trace,
        attacks,
    })
}

fn run_watch(spec: &CellSpec) -> CellOutcome {
    if spec.fault_plan.is_none() || spec.seed.is_none() {
        return CellOutcome::fail("watch cell missing fault_plan/seed");
    }
    // Watched twice: the alert log and merged Perfetto trace must come
    // back byte-identical, or the observability layer itself perturbs
    // the run.
    let run = match watch_run_once(spec) {
        Ok(run) => run,
        Err(e) => return CellOutcome::fail(e),
    };
    let rerun = match watch_run_once(spec) {
        Ok(run) => run,
        Err(e) => return CellOutcome::fail(e),
    };

    let alerts: u64 = run.stats.iter().map(|s| s.watch_alerts).sum();
    let first_alert = run.stats[0].first_alert_cycles;
    let first_failover = run.stats[0].first_failover_cycles;
    let offered: u64 = run.report.members.iter().map(|m| m.offered).sum();
    let served: u64 = run.report.members.iter().map(|m| m.served).sum();
    let restarts: u32 = run.report.members.iter().map(|m| m.restarts).sum();
    let metrics = vec![
        ("alerts".to_owned(), alerts as f64),
        ("first_alert_cycles".to_owned(), first_alert as f64),
        ("first_failover_cycles".to_owned(), first_failover as f64),
        ("restarts".to_owned(), f64::from(restarts)),
        ("offered".to_owned(), offered as f64),
        ("served".to_owned(), served as f64),
        ("run_cycles".to_owned(), run.report.run_cycles as f64),
    ];

    let mut failures = Vec::new();
    if !run.report.all_accounted() {
        failures.push("silent request drop (offered != served + rejected)".to_owned());
    }
    if run.alert_log != rerun.alert_log {
        failures.push("alert log differs across reruns".to_owned());
    }
    if run.trace != rerun.trace {
        failures.push("merged trace differs across reruns".to_owned());
    }
    match spec.fault_plan.as_deref() {
        Some("quiet") => {
            if alerts > spec.params.max_false_alerts {
                failures.push(format!(
                    "false positives: {alerts} alerts on quiescent traffic \
                     (budget {})",
                    spec.params.max_false_alerts
                ));
            }
            if restarts > 0 {
                failures.push(format!("{restarts} restarts on quiescent traffic"));
            }
        }
        Some("storm") => {
            if run.stats[0].watch_alerts < spec.params.min_alerts {
                failures.push(format!(
                    "victim raised {} alerts, expected at least {}",
                    run.stats[0].watch_alerts, spec.params.min_alerts
                ));
            }
            if first_alert == 0 || (first_failover > 0 && first_alert > first_failover) {
                failures.push(format!(
                    "alert (cycle {first_alert}) did not lead failover \
                     (cycle {first_failover})"
                ));
            }
            if run.report.members.first().map_or(0, |m| m.restarts) == 0 {
                failures.push("victim was never failed over".to_owned());
            }
            if run.attacks > 0 {
                failures.push(format!(
                    "{} AttackDetected verdicts: the probe tripped the \
                     resident-fault tripwire instead of the watchtower",
                    run.attacks
                ));
            }
            if !run.report.all_byte_identical() {
                failures.push("a restore was not byte-identical".to_owned());
            }
        }
        _ => failures.push("watch cell missing fault_plan".to_owned()),
    }

    if failures.is_empty() {
        CellOutcome {
            gate: GateOutcome::Pass,
            metrics,
            reason: format!(
                "{alerts} alerts, first at cycle {first_alert} vs failover at \
                 {first_failover}; artifacts byte-identical"
            ),
        }
    } else {
        CellOutcome {
            gate: GateOutcome::Fail,
            metrics,
            reason: failures.join("; "),
        }
    }
}

// -------------------------------------------------------------- profile

fn run_profile(spec: &CellSpec) -> CellOutcome {
    let Some(policy) = &spec.policy else {
        return CellOutcome::fail("profile cell without a policy axis");
    };
    let collect_spec = autarky_profile::CollectSpec {
        workload: spec.workload.clone(),
        policy: policy.clone(),
        scale: spec.params.scale,
    };
    let got = match autarky_profile::collect(&collect_spec) {
        Ok(got) => got,
        Err(e) => return CellOutcome::fail(format!("profile collection failed: {e}")),
    };
    // Simulated-cycle metrics only: the wall-clock account in
    // `got.wall` is host time and must never reach the journal.
    let p = &got.profile;
    let mut metrics = vec![
        ("ops".to_owned(), p.ops as f64),
        ("total_cycles".to_owned(), p.total_cycles as f64),
        ("attributed_pct".to_owned(), p.attributed_pct()),
        ("residual_pct".to_owned(), p.residual_pct()),
        ("orphan_cycles".to_owned(), p.orphan_cycles as f64),
        ("faults".to_owned(), p.faults as f64),
        ("fault_p50_cycles".to_owned(), p.fault_latency.p50 as f64),
        ("fault_p99_cycles".to_owned(), p.fault_latency.p99 as f64),
        (
            "hot_path_cycles_per_fault".to_owned(),
            p.hot_path_cycles_per_fault(),
        ),
    ];
    let mut failures = Vec::new();
    if !p.passes_residual_gate(spec.params.residual_max_pct) {
        failures.push(format!(
            "residual {:.2}% > {:.2}% allowed",
            p.residual_pct(),
            spec.params.residual_max_pct
        ));
    }
    let mut hot_line = String::new();
    if let Some(baseline_path) = &spec.params.baseline {
        let base = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|json| autarky_profile::hot_path_baseline(&json, &p.name()));
        match base {
            Err(e) => failures.push(format!("baseline {baseline_path}: {e}")),
            Ok(base) if base <= 0.0 => failures.push(format!(
                "baseline hot path for {:?} is not positive",
                p.name()
            )),
            Ok(base) => {
                let cur = p.hot_path_cycles_per_fault();
                let delta_pct = (cur / base - 1.0) * 100.0;
                metrics.push(("baseline_hot_path_cycles_per_fault".to_owned(), base));
                metrics.push(("hot_path_delta_pct".to_owned(), delta_pct));
                hot_line =
                    format!(", hot path {cur:.1} vs {base:.1} cycles/fault ({delta_pct:+.1}%)");
                if delta_pct > spec.params.max_growth_pct {
                    failures.push(format!(
                        "hot path {delta_pct:+.1}% > +{:.1}% allowed",
                        spec.params.max_growth_pct
                    ));
                }
            }
        }
    }
    if failures.is_empty() {
        CellOutcome {
            gate: GateOutcome::Pass,
            metrics,
            reason: format!(
                "{:.2}% of {} cycles attributed across {} faults{hot_line}",
                p.attributed_pct(),
                p.total_cycles,
                p.faults
            ),
        }
    } else {
        CellOutcome {
            gate: GateOutcome::Fail,
            metrics,
            reason: failures.join("; "),
        }
    }
}

// --------------------------------------------------------------- figure

/// Fig5 iterations per scale unit (the figure's batch loop is 16 pages
/// per iteration, so scale 1 measures 160 fault/evict round trips).
const FIGURE_ITERS_PER_SCALE: u64 = 10;

fn run_figure(spec: &CellSpec) -> CellOutcome {
    if spec.workload != "fig5" {
        return CellOutcome::fail(format!("unknown figure {:?}", spec.workload));
    }
    let mechanism = match spec.policy.as_deref() {
        Some("sgx1") | None => PagingMechanism::Sgx1,
        Some("sgx2") => PagingMechanism::Sgx2,
        Some(other) => return CellOutcome::fail(format!("unknown figure mechanism {other:?}")),
    };
    let iters = FIGURE_ITERS_PER_SCALE * spec.params.scale as u64;
    let (fault, evict) = autarky_bench::fig5::measure(mechanism, iters);
    let metrics = vec![
        ("fault_preemption".to_owned(), fault.preemption as f64),
        ("fault_invocation".to_owned(), fault.invocation as f64),
        (
            "fault_runtime_overhead".to_owned(),
            fault.runtime_overhead as f64,
        ),
        ("fault_sgx_paging".to_owned(), fault.sgx_paging as f64),
        ("fault_total".to_owned(), fault.total() as f64),
        ("evict_preemption".to_owned(), evict.preemption as f64),
        ("evict_invocation".to_owned(), evict.invocation as f64),
        (
            "evict_runtime_overhead".to_owned(),
            evict.runtime_overhead as f64,
        ),
        ("evict_sgx_paging".to_owned(), evict.sgx_paging as f64),
        ("evict_total".to_owned(), evict.total() as f64),
    ];
    // The breakdown partitions the measured total by construction; the
    // gate is that the figure is non-degenerate — both operations
    // actually cost cycles (a zero side means the loop measured nothing).
    if fault.total() > 0 && evict.total() > 0 {
        CellOutcome {
            gate: GateOutcome::Pass,
            metrics,
            reason: format!(
                "{}: fault {} / evict {} cycles per page",
                fault.mech,
                fault.total(),
                evict.total()
            ),
        }
    } else {
        CellOutcome {
            gate: GateOutcome::Fail,
            metrics,
            reason: format!(
                "degenerate breakdown: fault {} / evict {} cycles per page",
                fault.total(),
                evict.total()
            ),
        }
    }
}

fn arrivals_for(shape: &str) -> Arrivals {
    match shape {
        // A burst longer than any cell's request count degenerates to a
        // fixed inter-arrival gap: steady, clocklike load.
        "steady" => Arrivals::Bursty {
            burst_gap_cycles: 200_000,
            burst_len: u32::MAX,
            idle_gap_cycles: 0,
        },
        "poisson" => Arrivals::Poisson {
            mean_gap_cycles: 200_000,
        },
        // Matches the fleet smoke scenario: tight bursts, long idles.
        _ => Arrivals::Bursty {
            burst_gap_cycles: 20_000,
            burst_len: 25,
            idle_gap_cycles: 30_000_000,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::SuiteParams;

    #[test]
    fn bench_cell_without_baseline_is_informational() {
        let spec = CellSpec::new(
            CellKind::Bench,
            None,
            "spell".into(),
            None,
            None,
            None,
            None,
            SuiteParams::default(),
        );
        let out = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Info);
        assert!(out.metrics.iter().any(|(k, _)| k == "cycles_per_op"));
    }

    #[test]
    fn bench_cell_fails_on_unreadable_baseline() {
        let spec = CellSpec::new(
            CellKind::Bench,
            None,
            "spell".into(),
            None,
            None,
            None,
            None,
            SuiteParams {
                baseline: Some("/nonexistent/baseline.json".into()),
                ..SuiteParams::default()
            },
        );
        let out = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Fail);
        assert!(out.reason.contains("unreadable"));
    }

    #[test]
    fn replay_quiet_cell_is_deterministic() {
        let spec = CellSpec::new(
            CellKind::Replay,
            Some("clusters".into()),
            "spell".into(),
            None,
            Some("quiet".into()),
            None,
            Some(1),
            SuiteParams::default(),
        );
        let out = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Pass, "reason: {}", out.reason);
        assert!(out.reason.contains("deterministic"));
    }

    #[test]
    fn leakage_cell_reports_mi() {
        let spec = CellSpec::new(
            CellKind::Leakage,
            Some("baseline".into()),
            "jpeg".into(),
            None,
            None,
            None,
            None,
            SuiteParams::default(),
        );
        let out = execute_cell(&spec);
        // The unprotected baseline must leak, so this cell gates Pass.
        assert_eq!(out.gate, GateOutcome::Pass, "reason: {}", out.reason);
        assert!(out.metrics.iter().any(|(k, _)| k == "mi_bits"));
    }

    #[test]
    fn profile_cell_gates_on_residual_and_reports_hot_path() {
        let spec = CellSpec::new(
            CellKind::Profile,
            Some("clusters".into()),
            "spell".into(),
            None,
            None,
            None,
            None,
            SuiteParams::default(),
        );
        let out = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Pass, "reason: {}", out.reason);
        for key in [
            "attributed_pct",
            "residual_pct",
            "hot_path_cycles_per_fault",
        ] {
            assert!(
                out.metrics.iter().any(|(k, _)| k == key),
                "missing metric {key}: {:?}",
                out.metrics
            );
        }
        // No host wall-clock metric may reach the journal.
        assert!(
            !out.metrics.iter().any(|(k, _)| k.contains("wall")),
            "wall-clock leaked into metrics: {:?}",
            out.metrics
        );
    }

    #[test]
    fn profile_cell_fails_on_impossible_residual_gate() {
        let spec = CellSpec::new(
            CellKind::Profile,
            Some("clusters".into()),
            "paging".into(),
            None,
            None,
            None,
            None,
            SuiteParams {
                residual_max_pct: -0.5,
                ..SuiteParams::default()
            },
        );
        let out = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Fail);
        assert!(out.reason.contains("residual"), "reason: {}", out.reason);
    }

    #[test]
    fn figure_cell_reports_the_fig5_breakdown() {
        let spec = CellSpec::new(
            CellKind::Figure,
            Some("sgx1".into()),
            "fig5".into(),
            None,
            None,
            None,
            None,
            SuiteParams::default(),
        );
        let out = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Pass, "reason: {}", out.reason);
        let get = |key: &str| {
            out.metrics
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing metric {key}"))
        };
        // Components partition the totals exactly (fig5's invariant).
        assert_eq!(
            get("fault_total"),
            get("fault_preemption")
                + get("fault_invocation")
                + get("fault_runtime_overhead")
                + get("fault_sgx_paging")
        );
        assert!(get("evict_total") > 0.0);
    }

    #[test]
    fn fleet_quiet_cell_accounts_every_request() {
        let spec = CellSpec::new(
            CellKind::Fleet,
            None,
            "kvstore".into(),
            Some(192),
            Some("quiet".into()),
            Some("steady".into()),
            Some(1),
            SuiteParams {
                requests: 40,
                ..SuiteParams::default()
            },
        );
        let out = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Pass, "reason: {}", out.reason);
        assert!(out.metrics.iter().any(|(k, _)| k == "p99_worst_cycles"));
    }
}
