//! One benchmark run: set-up, then a measured phase of checked ops.
//!
//! The untraced run gives the end-to-end metrics and reads no counter
//! per op. The traced run reads the simulator's counters around each op
//! of a fixed-length window, records spans, calibrates the crypto entry
//! points and derives the per-layer metrics.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use autarky::crypto::{aead, sha256};
use autarky::rt::{PagingMechanism, RtError};
use autarky::sgx::{CostTag, PAGE_SIZE};

use crate::counters::{idx, names, tag_idx, Counters};
use crate::stats::{median, peak_rss_mib, percentile};
use crate::trace::{SpanId, Tracer};
use crate::workload::{OpGen, System, Workload};

/// Set-ups per run at least; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
/// Set-ups continue until this much host time is spent on them.
const SETUP_MIN_S: f64 = 1.0;
/// Set-ups per run at most.
const MAX_SETUPS: usize = 200;
/// Share of the measured phase's windows whose ops give the end-to-end
/// timings: the windows the host ran fastest. A shared host slows this
/// process by a third for spells of milliseconds to minutes; the fastest
/// windows show the program's own speed.
const KEEP_WINDOW_SHARE: usize = 10;
/// Ops the kept windows hold at least, so that ten lie beyond p99.
const MIN_KEPT_OPS: usize = 1000;
/// Untraced ops after the traced window, at least, for `bench.trace_overhead`.
const MIN_UNTRACED_S: f64 = 1.0;
/// Calls per crypto entry point in the calibration.
const CALIBRATION_CALLS: usize = 200;

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count or base, for the human-readable report.
    pub note: String,
}

/// What a run prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// No op output was wrong, no op failed and the enclave stayed healthy.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error or a wrong output.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (span self times, bases).
    pub notes: Vec<String>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }
}

/// A set-up system and the host time each set-up took.
pub struct Setup {
    /// The system of the last set-up.
    pub sys: System,
    /// `SystemBuilder::build` seconds, one per set-up.
    pub build_s: Vec<f64>,
    /// Load-call seconds, one per set-up.
    pub load_s: Vec<f64>,
}

/// Build and load the system at least `min_reps` times and until `min_s`
/// seconds are spent (at most [`MAX_SETUPS`] times), keeping the last.
/// Each earlier system is dropped before the next is built.
pub fn setup(
    w: Workload,
    seed: u64,
    min_reps: usize,
    min_s: f64,
    mut tracer: Option<(&mut Tracer, SpanId)>,
) -> Result<Setup, RtError> {
    let (mut build_s, mut load_s) = (Vec::new(), Vec::new());
    let mut spent = 0.0;
    let mut last = None;
    while build_s.len() < min_reps || (spent < min_s && build_s.len() < MAX_SETUPS) {
        drop(last.take());
        let t0 = Instant::now();
        let (mut world, mut heap) = w.builder(seed).build()?;
        let t1 = Instant::now();
        let app = w.load(&mut world, &mut heap)?;
        let t2 = Instant::now();
        if let Some((tr, parent)) = tracer.as_mut() {
            let [t0, t1, t2] = [t0, t1, t2].map(|t| tr.ns_at(t));
            tr.record("core.build", Some(*parent), None, t0, t1);
            tr.record("workloads.load", Some(*parent), None, t1, t2);
        }
        build_s.push((t1 - t0).as_secs_f64());
        load_s.push((t2 - t1).as_secs_f64());
        spent += (t2 - t0).as_secs_f64();
        last = Some(System::new(world, heap, app));
    }
    Ok(Setup {
        sys: last.expect("at least one set-up ran"),
        build_s,
        load_s,
    })
}

/// Ops attempted and failed.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// Generate, call and check one op; returns the call's host ns.
fn step(sys: &mut System, gen: &mut OpGen, tally: &mut Tally) -> u64 {
    let op = gen.next_op();
    let t = Instant::now();
    let out = sys.call(&op);
    let ns = t.elapsed().as_nanos() as u64;
    tally.attempted += 1;
    if !out.is_ok_and(|out| sys.check(&op, out)) {
        tally.failed += 1;
    }
    ns
}

/// Host ns of the ops in the fastest `1/KEEP_WINDOW_SHARE` of the complete
/// windows of `window_ops` ops, and in at least [`MIN_KEPT_OPS`] ops.
///
/// A window's rank is its median op latency over the simulated cycles it
/// held. The cycles measure the window's work, so the rank follows how
/// fast the host ran more than which ops fell in the window. The median
/// keeps a window with a few slow ops in the running, so the kept ops
/// still carry the program's own tail. `window_cycles[i]` is the simulated
/// clock when window `i` began.
fn fastest_windows(lat_ns: &[u64], window_cycles: &[u64], window_ops: usize) -> Vec<u64> {
    let windows: Vec<&[u64]> = lat_ns.chunks_exact(window_ops).collect();
    if windows.is_empty() {
        return lat_ns.to_vec();
    }
    let rank: Vec<f64> = windows
        .iter()
        .enumerate()
        .map(|(i, ops)| {
            let cycles = window_cycles[i + 1] - window_cycles[i];
            percentile(ops, 50.0) as f64 / cycles.max(1) as f64
        })
        .collect();
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| rank[a].total_cmp(&rank[b]));
    let keep = windows
        .len()
        .div_ceil(KEEP_WINDOW_SHARE)
        .max(MIN_KEPT_OPS.div_ceil(window_ops))
        .min(windows.len());
    order[..keep]
        .iter()
        .flat_map(|&i| windows[i].iter().copied())
        .collect()
}

/// Whether the enclave ended the run alive and unaccused.
fn healthy(sys: &System) -> bool {
    !sys.world.rt.is_terminated() && sys.world.rt.stats.misbehavior == 0
}

fn setup_metric(r: &mut Report, s: &Setup) {
    let total: Vec<f64> = s
        .build_s
        .iter()
        .zip(&s.load_s)
        .map(|(b, l)| b + l)
        .collect();
    r.push(
        "setup_s",
        median(&total),
        "s",
        format!("median of {} set-ups (build + load)", total.len()),
    );
}

/// The untraced run: end-to-end metrics only.
pub fn run_untraced(w: Workload, seed: u64, seconds: f64) -> Result<Report, RtError> {
    let s = setup(w, seed, MIN_SETUPS, SETUP_MIN_S, None)?;
    let mut r = Report::default();
    setup_metric(&mut r, &s);
    let mut sys = s.sys;
    let mut gen = OpGen::new(w, seed);
    let mut tally = Tally::default();
    // Host ns of every op's call, and the simulated clock at the start of
    // each window of `window_ops` ops (read once a window, never per op).
    let window_ops = w.window_ops();
    let mut all_ns: Vec<u64> = Vec::new();
    let mut window_cycles = vec![sys.world.now()];
    let mut rss = None;
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        all_ns.push(step(&mut sys, &mut gen, &mut tally));
        if all_ns.len().is_multiple_of(window_ops) {
            window_cycles.push(sys.world.now());
        }
        if tally.attempted == w.rss_ops() {
            rss = Some(peak_rss_mib());
        }
    }
    // Memory is compared at equal work: a fast host must not read as a
    // smaller footprint because it stopped early.
    while tally.attempted < w.rss_ops() {
        step(&mut sys, &mut gen, &mut tally);
    }
    let rss = rss.unwrap_or_else(peak_rss_mib);

    let lat_ns = fastest_windows(&all_ns, &window_cycles, window_ops);
    let (n, busy_ns) = (lat_ns.len(), lat_ns.iter().sum::<u64>());
    let basis = format!(
        "{n} ops in the fastest windows of {window_ops} ops; {} ops in all",
        all_ns.len()
    );
    r.push(
        "ops_per_s",
        n as f64 * 1e9 / busy_ns.max(1) as f64,
        "ops/s",
        format!("ops / host time in calls; {basis}"),
    );
    r.push(
        "op_us_p50",
        percentile(&lat_ns, 50.0) as f64 / 1e3,
        "us",
        basis.clone(),
    );
    r.push(
        "op_us_p99",
        percentile(&lat_ns, 99.0) as f64 / 1e3,
        "us",
        format!("{} beyond; {basis}", n - (n as f64 * 0.99).ceil() as usize),
    );
    r.push(
        "peak_rss_mib",
        rss,
        "MiB",
        format!("VmHWM after set-up and {} measured ops", w.rss_ops()),
    );
    r.correct = tally.failed == 0 && healthy(&sys);
    r.attempted = tally.attempted;
    r.failed = tally.failed;
    Ok(r)
}

/// Host time and simulated work of one op in the traced window.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Host ns in the op's call.
    pub ns: u64,
    /// Page faults the call raised.
    pub faults: u64,
    /// ORAM tree accesses the call made.
    pub oram_accesses: u64,
}

/// The traced window: counters at both ends and one sample per op.
pub struct Window {
    /// Counters before the first op.
    pub start: Counters,
    /// Counters after the last op.
    pub end: Counters,
    /// One sample per op.
    pub ops: Vec<OpSample>,
    /// Host wall time of the window, counter reads and spans included.
    pub wall: Duration,
}

/// Run `ops` ops, reading every counter around each call and recording an
/// `op` span with `op.call` and `op.check` children under `parent`.
pub fn traced_window(
    sys: &mut System,
    gen: &mut OpGen,
    ops: u64,
    tr: &mut Tracer,
    parent: SpanId,
    failed: &mut u64,
) -> Window {
    let faults = idx("sgx-sim.faults");
    let accesses = idx("oram.accesses");
    let start = Counters::read(sys);
    let mut samples = Vec::with_capacity(ops as usize);
    let t0 = Instant::now();
    for i in 0..ops {
        let op_span = tr.open("op", Some(parent), Some(i));
        let op = gen.next_op();
        let before = Counters::read(sys);
        let t = tr.now_ns();
        let out = sys.call(&op);
        let t_end = tr.now_ns();
        let delta = Counters::read(sys).since(&before);
        let call = tr.record("op.call", Some(op_span), Some(i), t, t_end);
        tr.set_delta(call, delta);
        let check = tr.open("op.check", Some(op_span), Some(i));
        if !out.is_ok_and(|out| sys.check(&op, out)) {
            *failed += 1;
        }
        tr.close(check);
        tr.close(op_span);
        samples.push(OpSample {
            ns: t_end - t,
            faults: delta.get(faults),
            oram_accesses: delta.get(accesses),
        });
    }
    Window {
        start,
        end: Counters::read(sys),
        ops: samples,
        wall: t0.elapsed(),
    }
}

/// Median host µs per call of `f` over [`CALIBRATION_CALLS`] calls, each a
/// span under `parent`. `prep` readies `state` untimed before each call.
fn calibrate<S>(
    tr: &mut Tracer,
    parent: SpanId,
    name: &'static str,
    state: &mut S,
    prep: impl Fn(&mut S),
    f: impl Fn(&mut S),
) -> f64 {
    let mut us = Vec::with_capacity(CALIBRATION_CALLS);
    for _ in 0..CALIBRATION_CALLS {
        prep(state);
        let id = tr.open(name, Some(parent), None);
        f(state);
        tr.close(id);
        us.push(tr.spans()[id].dur_ns() as f64 / 1e3);
    }
    median(&us)
}

/// Median µs of `aead::seal`, `aead::open` and `sha256` on one page.
fn calibrate_crypto(tr: &mut Tracer, parent: SpanId) -> (f64, f64, f64) {
    use std::hint::black_box;
    let key = [7u8; aead::KEY_LEN];
    let nonce = [3u8; aead::NONCE_LEN];
    let plain: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 31 % 251) as u8).collect();
    let mut sealed = plain.clone();
    let tag = aead::seal(&key, &nonce, b"", &mut sealed);
    let mut buf = plain.clone();
    let seal_us = calibrate(
        tr,
        parent,
        "crypto.seal",
        &mut buf,
        |b| b.copy_from_slice(&plain),
        |b| {
            black_box(aead::seal(&key, &nonce, b"", black_box(b)));
        },
    );
    let mut opened = (plain.clone(), true);
    let open_us = calibrate(
        tr,
        parent,
        "crypto.open",
        &mut opened,
        |(b, _)| b.copy_from_slice(&sealed),
        |(b, ok)| *ok &= aead::open(&key, &nonce, b"", black_box(b), &tag).is_ok(),
    );
    assert!(
        opened.1 && opened.0 == plain,
        "aead::open must invert aead::seal"
    );
    let sha_us = calibrate(
        tr,
        parent,
        "crypto.sha256",
        &mut (),
        |_| {},
        |_| {
            black_box(sha256(black_box(&plain)));
        },
    );
    (seal_us, open_us, sha_us)
}

/// The traced run: per-layer metrics, spans written to `trace_out`.
pub fn run_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace_out: &Path,
) -> Result<Report, RtError> {
    let mut tr = Tracer::new();
    let run = tr.open("run", None, None);
    let setup_span = tr.open("setup", Some(run), None);
    let s = setup(
        w,
        seed,
        MIN_SETUPS,
        SETUP_MIN_S,
        Some((&mut tr, setup_span)),
    )?;
    tr.close(setup_span);
    let mut r = Report::default();
    r.push(
        "core.build_s",
        median(&s.build_s),
        "s",
        format!("median of {}", s.build_s.len()),
    );
    r.push(
        "workloads.load_s",
        median(&s.load_s),
        "s",
        format!("median of {}", s.load_s.len()),
    );
    let mut sys = s.sys;
    let mut gen = OpGen::new(w, seed);

    let t_measure = Instant::now();
    let measure = tr.open("measure", Some(run), None);
    let mut failed = 0;
    let win = traced_window(
        &mut sys,
        &mut gen,
        w.trace_ops(),
        &mut tr,
        measure,
        &mut failed,
    );
    tr.close(measure);

    // Untraced ops until `seconds` are spent in all: the base of
    // `bench.trace_overhead`.
    let untraced = tr.open("untraced", Some(run), None);
    let mut tally = Tally::default();
    let t_u = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while t_measure.elapsed() < budget || t_u.elapsed().as_secs_f64() < MIN_UNTRACED_S {
        step(&mut sys, &mut gen, &mut tally);
    }
    let untraced_wall = t_u.elapsed();
    tr.close(untraced);

    let cal = tr.open("crypto.calibrate", Some(run), None);
    let (seal_us, open_us, sha_us) = calibrate_crypto(&mut tr, cal);
    tr.close(cal);
    tr.close(run);

    per_layer(&mut r, w, &win, (seal_us, open_us, sha_us));
    let traced_us_per_op = win.wall.as_secs_f64() * 1e6 / w.trace_ops() as f64;
    let untraced_us_per_op = untraced_wall.as_secs_f64() * 1e6 / tally.attempted.max(1) as f64;
    r.push(
        "bench.trace_overhead",
        traced_us_per_op / untraced_us_per_op,
        "ratio",
        format!(
            "traced {traced_us_per_op:.2} us/op over {} ops / untraced {untraced_us_per_op:.2} us/op over {} ops, wall time with checks",
            w.trace_ops(),
            tally.attempted
        ),
    );
    r.push(
        "bench.trace_ops",
        w.trace_ops() as f64,
        "count",
        "ops in the traced window, the base of every count".into(),
    );

    for (name, (count, total, own)) in tr.self_times() {
        r.notes.push(format!(
            "span {name:<18} n={count:<7} total {:>10.6} s  self {:>10.6} s",
            total as f64 / 1e9,
            own as f64 / 1e9
        ));
    }
    match write_trace(&tr, trace_out) {
        Ok(()) => r.notes.push(format!(
            "{} spans written to {}",
            tr.spans().len(),
            trace_out.display()
        )),
        Err(e) => r
            .notes
            .push(format!("spans not written to {}: {e}", trace_out.display())),
    }
    r.correct = failed == 0 && tally.failed == 0 && healthy(&sys);
    r.attempted = w.trace_ops() + tally.attempted;
    r.failed = failed + tally.failed;
    Ok(r)
}

fn write_trace(tr: &Tracer, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(fs::File::create(path)?);
    tr.write_jsonl(&mut out)?;
    out.flush()
}

/// Per-layer metrics of a traced window.
fn per_layer(r: &mut Report, w: Workload, win: &Window, crypto_us: (f64, f64, f64)) {
    let d = win.end.since(&win.start);
    let c = |name: &str| d.get(idx(name));
    let ops = win.ops.len() as u64;
    let call_ns: u64 = win.ops.iter().map(|o| o.ns).sum();

    let nofault: Vec<u64> = win
        .ops
        .iter()
        .filter(|o| o.faults == 0 && o.oram_accesses == 0)
        .map(|o| o.ns)
        .collect();
    let nofault_ns = percentile(&nofault, 50.0);
    r.push(
        "workloads.op_nofault_us_p50",
        nofault_ns as f64 / 1e3,
        "us",
        format!("n={} of {ops} ops", nofault.len()),
    );

    // Host time a class of op spends beyond a plain op, per unit of the
    // work that defines the class.
    let excess_per = |sel: &dyn Fn(&OpSample) -> u64| -> (Vec<u64>, f64) {
        let class: Vec<&OpSample> = win.ops.iter().filter(|o| sel(o) > 0).collect();
        let units: u64 = class.iter().map(|o| sel(o)).sum();
        let ns: u64 = class.iter().map(|o| o.ns).sum();
        let excess = ns as f64 - class.len() as f64 * nofault_ns as f64;
        let per = if units == 0 {
            0.0
        } else {
            excess / units as f64 / 1e3
        };
        (class.iter().map(|o| o.ns).collect(), per)
    };

    for name in [
        "runtime.faults_handled",
        "runtime.pages_fetched",
        "runtime.pages_evicted",
    ] {
        r.push(name, c(name) as f64, "count", String::new());
    }
    let handled = c("runtime.faults_handled");
    r.push(
        "runtime.pages_per_fault",
        c("runtime.pages_fetched") as f64 / handled.max(1) as f64,
        "pages/fault",
        format!("base {handled} faults handled"),
    );
    for name in ["runtime.retries", "runtime.misbehavior"] {
        r.push(name, c(name) as f64, "count", String::new());
    }
    let (fault_ns, per_fault_us) = excess_per(&|o| o.faults);
    r.push(
        "runtime.op_fault_us_p50",
        percentile(&fault_ns, 50.0) as f64 / 1e3,
        "us",
        format!("n={} faulting ops", fault_ns.len()),
    );
    r.push(
        "runtime.host_us_per_fault",
        per_fault_us,
        "us",
        format!("base {} faults", c("sgx-sim.faults")),
    );

    for name in [
        "sgx-sim.faults",
        "sgx-sim.aexs",
        "sgx-sim.eenters",
        "sgx-sim.eresumes",
        "sgx-sim.ewbs",
        "sgx-sim.eldus",
        "sgx-sim.eaugs",
        "sgx-sim.eaccepts",
    ] {
        r.push(name, c(name) as f64, "count", String::new());
    }
    r.push(
        "sgx-sim.sim_cycles_per_op",
        c("sgx-sim.sim_cycles") as f64 / ops.max(1) as f64,
        "cycles/op",
        format!("base {ops} ops"),
    );
    let all = names();
    for tag in CostTag::ALL {
        let i = tag_idx(tag);
        r.push(all[i].clone(), d.get(i) as f64, "cycles", String::new());
    }

    r.push(
        "os-sim.observations",
        c("os-sim.observations") as f64,
        "count",
        String::new(),
    );
    r.push(
        "os-sim.resident_frames",
        win.end.get(idx("os-sim.resident_frames")) as f64,
        "frames",
        "at the end of the window".into(),
    );

    for name in ["oram.accesses", "oram.bucket_reads", "oram.bucket_writes"] {
        r.push(name, c(name) as f64, "count", String::new());
    }
    let oram_bytes = c("oram.crypto_bytes");
    r.push(
        "oram.crypto_bytes",
        oram_bytes as f64,
        "bytes",
        String::new(),
    );
    let (hits, misses) = (c("oram.cache_hits"), c("oram.cache_misses"));
    r.push(
        "oram.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        format!("{hits} hits / {} lookups", hits + misses),
    );
    let (tree_ns, per_access_us) = excess_per(&|o| o.oram_accesses);
    r.push(
        "oram.op_miss_us_p50",
        percentile(&tree_ns, 50.0) as f64 / 1e3,
        "us",
        format!("n={} ops that touched the tree", tree_ns.len()),
    );
    r.push(
        "oram.host_us_per_access",
        per_access_us,
        "us",
        format!("base {} accesses", c("oram.accesses")),
    );

    let (seal_us, open_us, sha_us) = crypto_us;
    let cal = format!("median of {CALIBRATION_CALLS} calls");
    r.push("crypto.aead_seal_4k_us", seal_us, "us", cal.clone());
    r.push("crypto.aead_open_4k_us", open_us, "us", cal.clone());
    r.push("crypto.sha256_4k_us", sha_us, "us", cal);
    let page = PAGE_SIZE as u64;
    let page_bytes = match w.mechanism() {
        PagingMechanism::Sgx1 => (c("sgx-sim.ewbs") + c("sgx-sim.eldus")) * page,
        PagingMechanism::Sgx2 => (c("runtime.pages_fetched") + c("runtime.pages_evicted")) * page,
    };
    let aead_bytes = page_bytes + oram_bytes;
    r.push(
        "crypto.aead_bytes",
        aead_bytes as f64,
        "bytes",
        format!("{page_bytes} page + {oram_bytes} ORAM bucket"),
    );
    let us_per_byte = (seal_us + open_us) / 2.0 / page as f64;
    r.push(
        "crypto.est_host_share",
        aead_bytes as f64 * us_per_byte / (call_ns as f64 / 1e3).max(1e-9),
        "ratio",
        format!(
            "{aead_bytes} B x {:.3} ns/B / {:.6} s host time in {ops} calls",
            us_per_byte * 1e3,
            call_ns as f64 / 1e9
        ),
    );
    r.push(
        "telemetry.spans",
        c("telemetry.spans") as f64,
        "count",
        String::new(),
    );
}
