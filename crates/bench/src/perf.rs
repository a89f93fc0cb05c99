//! The perf-regression pipeline: figure-shaped smoke workloads measured
//! through the telemetry layer, serialized as `BENCH_PR4.json`, and
//! diffed against a committed baseline with a tolerance gate.
//!
//! Every number here is *simulated* cycles, so a run is bit-stable across
//! machines: the CI `bench-smoke` job regenerates the report and fails if
//! any workload's cycles/op regressed by more than the tolerance against
//! the committed `baselines/bench-v1.json`.
//!
//! The JSON goes through the workspace codec (`autarky-json`), so the
//! baseline reader accepts any layout of the same document, and a
//! baseline that is not JSON or lists no workloads fails the gate.
//!
//! Besides the whole-suite pipeline, single workloads are addressable by
//! name ([`measure_one`]) so external matrix drivers (the campaign
//! runner) can gate one `workload × baseline` cell at a time.

use autarky::prelude::*;
use autarky::telemetry::SpanKind;
use autarky::workloads::font::FontRenderer;
use autarky::workloads::kvstore::{ItemClustering, KvStore};
use autarky::workloads::spell::{synth_wordlist, Dictionary};
use autarky::{Profile, SystemBuilder};
use autarky_json::{object, Json};

use crate::fig5::BATCH;

/// One span kind's contribution to a measured phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanLine {
    /// Span registry name (e.g. `fault_handler`).
    pub name: &'static str,
    /// Spans completed during the measured phase.
    pub count: u64,
    /// Simulated cycles spent inside the span kind.
    pub cycles: u64,
}

/// One workload's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPerf {
    /// Workload label (stable across baselines).
    pub name: &'static str,
    /// Operations performed in the measured phase.
    pub ops: u64,
    /// Simulated cycles the measured phase took.
    pub cycles: u64,
    /// Page faults raised during the measured phase.
    pub faults: u64,
    /// Span breakdown of the measured phase (kinds with activity only).
    pub spans: Vec<SpanLine>,
}

impl WorkloadPerf {
    /// Cycles per operation.
    pub fn cycles_per_op(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.cycles as f64 / self.ops as f64
    }

    /// Faults per operation.
    pub fn fault_rate(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.faults as f64 / self.ops as f64
    }
}

/// The full report (`BENCH_PR4.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Scale the suite ran at.
    pub scale: u32,
    /// All workloads, fixed order.
    pub workloads: Vec<WorkloadPerf>,
}

/// Snapshot of the per-kind span aggregates, for measuring deltas around
/// a timed phase.
type SpanSnap = [(u64, u64); autarky::telemetry::SPAN_KINDS];

fn span_snap(world: &World) -> SpanSnap {
    let mut snap = [(0u64, 0u64); autarky::telemetry::SPAN_KINDS];
    for (i, &kind) in SpanKind::ALL.iter().enumerate() {
        let agg = world.rt.telemetry.span_agg(kind);
        snap[i] = (agg.count, agg.total_cycles);
    }
    snap
}

fn span_delta(world: &World, before: &SpanSnap) -> Vec<SpanLine> {
    SpanKind::ALL
        .iter()
        .enumerate()
        .filter_map(|(i, &kind)| {
            let agg = world.rt.telemetry.span_agg(kind);
            let count = agg.count - before[i].0;
            let cycles = agg.total_cycles - before[i].1;
            (count > 0).then_some(SpanLine {
                name: kind.name(),
                count,
                cycles,
            })
        })
        .collect()
}

/// Measure one timed phase: runs `phase`, returns the workload record.
fn measure_phase(
    name: &'static str,
    ops: u64,
    world: &mut World,
    phase: impl FnOnce(&mut World),
) -> WorkloadPerf {
    let faults0 = world.os.machine.stats().faults;
    let spans0 = span_snap(world);
    let t0 = world.now();
    phase(world);
    let cycles = world.now() - t0;
    let faults = world.os.machine.stats().faults - faults0;
    let spans = span_delta(world, &spans0);
    WorkloadPerf {
        name,
        ops,
        cycles,
        faults,
        spans,
    }
}

/// Fig-5-shaped paging microbenchmark: batch-16 evictions, each page
/// refetched by an individual fault (cycles per fault round-trip).
pub fn measure_paging(scale: u32) -> WorkloadPerf {
    let iters = 20 * scale as u64;
    let (mut world, mut heap) = SystemBuilder::new(
        "perf-paging",
        Profile::Clusters {
            pages_per_cluster: 1,
        },
    )
    .epc_pages(4096)
    .heap_pages(256)
    .build()
    .expect("paging system");
    let ptr = heap
        .alloc(&mut world, (BATCH as usize) * PAGE_SIZE)
        .expect("alloc");
    heap.write(&mut world, ptr, &[0xA5u8; PAGE_SIZE])
        .expect("touch");
    let first = Vpn(ptr.0 >> 12);
    let pages: Vec<Vpn> = (0..BATCH).map(|i| Vpn(first.0 + i)).collect();
    measure_phase("paging", iters * BATCH, &mut world, |world| {
        for _ in 0..iters {
            world.rt.evict_pages(&mut world.os, &pages).expect("evict");
            for &vpn in &pages {
                let p = autarky::workloads::Ptr(vpn.0 << 12);
                heap.read(world, p, &mut [0u8; 1]).expect("fetch");
            }
        }
    })
}

/// Table-2-shaped spell check: dictionary lookups under a self-paging
/// budget (cycles per checked word).
pub fn measure_spell(scale: u32) -> WorkloadPerf {
    // Sized so the dictionary overflows the resident budget, so
    // lookups actually page (a zero-fault spell run would gate nothing).
    const DICT_WORDS: usize = 1500;
    let queries = 120 * scale as usize;
    let (mut world, mut heap) = SystemBuilder::new(
        "perf-spell",
        Profile::Clusters {
            pages_per_cluster: 10,
        },
    )
    .epc_pages(4096)
    .heap_pages(1024)
    .budget_pages(16)
    .build()
    .expect("spell system");
    let dictionary = Dictionary::load(&mut world, &mut heap, "en", DICT_WORDS).expect("dict");
    let words = synth_wordlist("en", DICT_WORDS);
    measure_phase("spell", queries as u64, &mut world, |world| {
        for i in 0..queries {
            let word = &words[(i * 7) % words.len()];
            dictionary.check(world, &mut heap, word).expect("check");
        }
    })
}

/// Fig-8-shaped key-value store on the cached-ORAM backend (cycles per
/// GET).
pub fn measure_kvstore(scale: u32) -> WorkloadPerf {
    const ITEMS: u64 = 128;
    const VALUE_SIZE: usize = 512;
    let gets = 96 * scale as u64;
    let (mut world, mut heap) = SystemBuilder::new(
        "perf-kvstore",
        Profile::CachedOram {
            capacity_pages: 512,
            cache_pages: 24,
        },
    )
    .epc_pages(4096)
    .heap_pages(1024)
    .build()
    .expect("kvstore system");
    let mut store = KvStore::new(
        &mut world,
        &mut heap,
        ITEMS,
        VALUE_SIZE,
        ItemClustering::None,
    )
    .expect("store");
    store.load(&mut world, &mut heap, ITEMS).expect("load");
    measure_phase("kvstore", gets, &mut world, |world| {
        for i in 0..gets {
            let key = (i * 7) % ITEMS;
            store
                .get(world, &mut heap, key)
                .expect("get")
                .expect("present");
        }
    })
}

/// FreeType-shaped glyph rendering with everything pinned: the zero-fault
/// reference point (cycles per glyph).
pub fn measure_font(scale: u32) -> WorkloadPerf {
    let glyphs = 400 * scale as usize;
    let (mut world, mut heap) = SystemBuilder::new("perf-font", Profile::PinAll)
        .epc_pages(4096)
        .heap_pages(256)
        .code_pages(24)
        .build()
        .expect("font system");
    let mut font = FontRenderer::new(&mut world, &mut heap, 64).expect("font");
    let text: String = (0..glyphs)
        .map(|k| (b'a' + (k % 26) as u8) as char)
        .collect();
    measure_phase("font", glyphs as u64, &mut world, |world| {
        font.render_text(world, &mut heap, &text).expect("render");
    })
}

/// Stable names of the perf-suite workloads, in suite order (the
/// campaign runner's bench axis vocabulary).
pub const WORKLOAD_NAMES: [&str; 4] = ["paging", "spell", "kvstore", "font"];

/// Measure one suite workload by name; `None` for names outside
/// [`WORKLOAD_NAMES`].
pub fn measure_one(name: &str, scale: u32) -> Option<WorkloadPerf> {
    match name {
        "paging" => Some(measure_paging(scale)),
        "spell" => Some(measure_spell(scale)),
        "kvstore" => Some(measure_kvstore(scale)),
        "font" => Some(measure_font(scale)),
        _ => None,
    }
}

/// Run the whole suite.
pub fn run_suite(scale: u32) -> PerfReport {
    PerfReport {
        scale,
        workloads: vec![
            measure_paging(scale),
            measure_spell(scale),
            measure_kvstore(scale),
            measure_font(scale),
        ],
    }
}

impl PerfReport {
    /// Serialize as JSON (stable key order; the format
    /// [`baseline_entries`] reads).
    pub fn to_json(&self) -> String {
        let workloads = self.workloads.iter().map(|w| {
            let spans = w.spans.iter().map(|s| {
                object([
                    ("name", s.name.into()),
                    ("count", s.count.into()),
                    ("cycles", s.cycles.into()),
                ])
            });
            object([
                ("name", w.name.into()),
                ("ops", w.ops.into()),
                ("cycles", w.cycles.into()),
                ("cycles_per_op", Json::Fixed(w.cycles_per_op(), 3)),
                ("faults", w.faults.into()),
                ("fault_rate", Json::Fixed(w.fault_rate(), 6)),
                ("spans", Json::Array(spans.collect())),
            ])
        });
        object([
            ("version", 1u32.into()),
            ("scale", self.scale.into()),
            ("workloads", Json::Array(workloads.collect())),
        ])
        .pretty()
    }

    /// Render as a markdown table (the CI artifact).
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# PR4 perf report\n\n");
        out.push_str(&format!("Scale: {}\n\n", self.scale));
        out.push_str("| workload | ops | cycles/op | fault rate | top span (count, cycles) |\n");
        out.push_str("|---|---|---|---|---|\n");
        for w in &self.workloads {
            let top = w
                .spans
                .iter()
                .max_by_key(|s| s.cycles)
                .map(|s| format!("{} ({}, {})", s.name, s.count, s.cycles))
                .unwrap_or_else(|| "-".to_owned());
            out.push_str(&format!(
                "| {} | {} | {:.1} | {:.4} | {} |\n",
                w.name,
                w.ops,
                w.cycles_per_op(),
                w.fault_rate(),
                top
            ));
        }
        out
    }
}

/// The `(name, cycles_per_op)` pairs of a baseline written by
/// [`PerfReport::to_json`], in any JSON layout. `Err` unless the text is
/// JSON with at least one workload and every workload has both fields:
/// a baseline that yields nothing must fail the gate, not pass it.
pub fn baseline_entries(json: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = autarky_json::parse(json).map_err(|e| e.to_string())?;
    let workloads = doc.get("workloads").and_then(Json::as_array);
    let entries: Option<Vec<_>> = workloads
        .unwrap_or_default()
        .iter()
        .map(|w| {
            let name = w.get("name")?.as_str()?.to_owned();
            Some((name, w.get("cycles_per_op")?.as_f64()?))
        })
        .collect();
    match entries {
        Some(entries) if !entries.is_empty() => Ok(entries),
        _ => Err("no workloads with a name and cycles_per_op".to_owned()),
    }
}

/// Outcome of a baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One human-readable line per compared workload.
    pub lines: Vec<String>,
    /// Workloads over tolerance (empty = gate passes).
    pub regressions: Vec<String>,
}

/// Compare a fresh report against a committed baseline. `tolerance` is a
/// fraction (0.10 = fail on >10% cycles/op growth). Improvements and new
/// workloads never fail; a workload that *disappeared* does. `Err` when
/// the baseline is unreadable (see [`baseline_entries`]).
pub fn compare(
    current: &PerfReport,
    baseline_json: &str,
    tolerance: f64,
) -> Result<Comparison, String> {
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for (name, base) in baseline_entries(baseline_json)? {
        match current.workloads.iter().find(|w| w.name == name) {
            Some(w) if base > 0.0 => {
                let cur = w.cycles_per_op();
                let delta = cur / base - 1.0;
                lines.push(format!(
                    "{name}: {base:.1} -> {cur:.1} cycles/op ({:+.2}%)",
                    delta * 100.0
                ));
                if delta > tolerance {
                    regressions.push(format!(
                        "{name}: +{:.2}% > {:.1}% tolerance",
                        delta * 100.0,
                        tolerance * 100.0
                    ));
                }
            }
            Some(_) => lines.push(format!("{name}: baseline is zero, skipped")),
            None => regressions.push(format!("{name}: present in baseline, missing from run")),
        }
    }
    Ok(Comparison { lines, regressions })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_reports_and_self_compares_clean() {
        let report = run_suite(1);
        assert_eq!(report.workloads.len(), 4);
        let paging = &report.workloads[0];
        assert_eq!(paging.name, "paging");
        assert!(paging.faults > 0, "the paging workload must fault");
        assert!(
            paging.spans.iter().any(|s| s.name == "fault_handler"),
            "fault handler spans recorded: {:?}",
            paging.spans
        );
        let font = report.workloads.iter().find(|w| w.name == "font").unwrap();
        assert_eq!(font.faults, 0, "pinned font run is fault-free");

        let json = report.to_json();
        let parsed = baseline_entries(&json).expect("own report is a baseline");
        assert_eq!(parsed.len(), 4);
        let cmp = compare(&report, &json, 0.10).expect("baseline reads");
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
        assert_eq!(cmp.lines.len(), 4);

        let md = report.to_markdown();
        assert!(md.contains("| paging |"));
    }

    #[test]
    fn compare_flags_regressions_and_missing_workloads() {
        let report = PerfReport {
            scale: 1,
            workloads: vec![WorkloadPerf {
                name: "paging",
                ops: 10,
                cycles: 2000,
                faults: 10,
                spans: Vec::new(),
            }],
        };
        // Baseline has paging at 100 cycles/op (current is 200) and a
        // workload the current run no longer produces.
        let baseline = "{\"workloads\": [{\"name\": \"paging\", \"cycles_per_op\": 100.000}, \
                        {\"name\": \"gone\", \"cycles_per_op\": 5.000}]}";
        let cmp = compare(&report, baseline, 0.10).expect("baseline reads");
        assert_eq!(cmp.regressions.len(), 2, "{:?}", cmp.regressions);
        assert!(cmp.regressions[0].contains("paging"));
        assert!(cmp.regressions[1].contains("gone"));

        // Within tolerance passes.
        let ok = compare(
            &report,
            "{\"workloads\": [{\"name\": \"paging\", \"cycles_per_op\": 195.0}]}",
            0.10,
        )
        .expect("baseline reads");
        assert!(ok.regressions.is_empty(), "{:?}", ok.regressions);
    }

    const COMMITTED: &str = include_str!("../../../baselines/bench-v1.json");

    #[test]
    fn baseline_reads_the_same_pairs_from_any_layout() {
        let committed = baseline_entries(COMMITTED).expect("committed baseline reads");
        assert_eq!(committed.len(), 4);
        assert_eq!(committed[1], ("spell".to_owned(), 339211.075));
        // The same document re-saved onto one line by a formatter.
        let one_line: String = COMMITTED.lines().map(str::trim).collect();
        assert_eq!(one_line.lines().count(), 1);
        assert_eq!(baseline_entries(&one_line), Ok(committed));
    }

    #[test]
    fn unreadable_or_empty_baseline_fails_the_gate() {
        let report = PerfReport {
            scale: 1,
            workloads: Vec::new(),
        };
        for baseline in ["", "garbage", "{\"workloads\": []}", "{\"version\": 1}"] {
            assert!(
                compare(&report, baseline, 0.10).is_err(),
                "{baseline:?} must fail the gate"
            );
        }
    }
}
