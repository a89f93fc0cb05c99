//! The assembled profile: attribution tree + residual accounting +
//! per-fault latency + per-cluster breakdown, with deterministic folded
//! and JSON renderings.
//!
//! The JSON goes through the workspace codec (`autarky-json`):
//! [`CycleProfile::to_json`] renders it pretty-printed, one scalar key
//! per line, so committed profile baselines stay greppable and
//! diff-friendly, and [`CycleProfile::from_json`] is field lookups on
//! the parsed value.

use autarky_json::{object, Json};
use autarky_telemetry::LatencySummary;

use crate::tree::ProfileNode;

/// One page cluster's share of the fault traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterRow {
    /// Cluster key: the smallest virtual page number the round trip
    /// fetched (the fault page itself when no cluster decision fired).
    pub page: u64,
    /// Fault round trips attributed to this cluster.
    pub faults: u64,
    /// Round-trip cycles spent on this cluster.
    pub cycles: u64,
}

/// A complete cycle-attribution profile of one measured phase.
///
/// Everything here is a pure function of the simulated execution —
/// host wall-clock numbers deliberately live *outside* this type (see
/// `collect::Collected`), so folded/JSON/SVG artifacts are byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleProfile {
    /// Workload name (also the root frame of every stack).
    pub workload: String,
    /// Policy variant the workload ran under.
    pub policy: String,
    /// Scale factor of the run.
    pub scale: u32,
    /// Operations retired in the measured phase.
    pub ops: u64,
    /// Simulated cycles the measured phase took (clock delta).
    pub total_cycles: u64,
    /// Cycles the profiler could not attribute: unjournaled clock
    /// movement plus orphaned in-chain enclave work.
    pub residual_cycles: u64,
    /// The orphan component of the residual (in-chain `runtime` /
    /// `crypto` / `oram` charges with no covering span).
    pub orphan_cycles: u64,
    /// Charge-journal records lost to overflow.
    pub journal_dropped: u64,
    /// Span-ring records lost to overflow during the phase.
    pub span_dropped: u64,
    /// Flight-recorder records lost to overflow during the phase.
    pub flight_dropped: u64,
    /// Fault round trips observed.
    pub faults: u64,
    /// Per-fault round-trip latency digest.
    pub fault_latency: LatencySummary,
    /// Ledger tag totals over the phase (nonzero tags, tag order).
    pub tags: Vec<(String, u64)>,
    /// Hottest page clusters (by round-trip cycles, capped).
    pub clusters: Vec<ClusterRow>,
    /// The attribution tree below the workload root frame.
    pub root: ProfileNode,
}

/// Cap on the per-cluster breakdown (the tail adds noise, not insight).
pub const CLUSTER_ROWS: usize = 16;

impl CycleProfile {
    /// Cycles successfully attributed to a call path.
    pub fn attributed_cycles(&self) -> u64 {
        self.total_cycles.saturating_sub(self.residual_cycles)
    }

    /// Attributed share of the phase, percent.
    pub fn attributed_pct(&self) -> f64 {
        if self.total_cycles == 0 {
            return 100.0;
        }
        self.attributed_cycles() as f64 * 100.0 / self.total_cycles as f64
    }

    /// Unattributed share of the phase, percent.
    pub fn residual_pct(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.residual_cycles as f64 * 100.0 / self.total_cycles as f64
    }

    /// Whether the residual stays under `max_pct` percent.
    pub fn passes_residual_gate(&self, max_pct: f64) -> bool {
        self.residual_pct() <= max_pct
    }

    /// One ledger tag's cycles over the phase (0 when absent).
    pub fn tag(&self, name: &str) -> u64 {
        self.tags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Cycles under the `fault_round_trip` chain frame — the hot path
    /// the baseline gate watches.
    pub fn hot_path_cycles(&self) -> u64 {
        self.root
            .child("fault_round_trip")
            .map(ProfileNode::total)
            .unwrap_or(0)
    }

    /// Hot-path cycles per fault round trip (0.0 for fault-free runs).
    pub fn hot_path_cycles_per_fault(&self) -> f64 {
        if self.faults == 0 {
            return 0.0;
        }
        self.hot_path_cycles() as f64 / self.faults as f64
    }

    /// `policy/workload` — the name baselines key on.
    pub fn name(&self) -> String {
        format!("{}/{}", self.policy, self.workload)
    }

    /// Collapsed-stack rendering: `stack cycles` lines sorted by stack,
    /// every frame rooted at the workload name.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, cycles) in self.root.frames(&self.workload) {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&cycles.to_string());
            out.push('\n');
        }
        out
    }

    /// Serialize as JSON (stable key order; the format
    /// [`CycleProfile::from_json`] and [`hot_path_baseline`] read).
    pub fn to_json(&self) -> String {
        let tags = self.tags.iter().map(|(tag, cycles)| {
            object([("tag", tag.as_str().into()), ("cycles", (*cycles).into())])
        });
        let clusters = self.clusters.iter().map(|row| {
            object([
                ("page", row.page.into()),
                ("cluster_faults", row.faults.into()),
                ("cluster_cycles", row.cycles.into()),
            ])
        });
        let frames = self
            .root
            .frames(&self.workload)
            .into_iter()
            .map(|(stack, cycles)| {
                object([("stack", Json::Str(stack)), ("cycles", cycles.into())])
            });
        object([
            ("version", 1u32.into()),
            ("name", Json::Str(self.name())),
            ("workload", self.workload.as_str().into()),
            ("policy", self.policy.as_str().into()),
            ("scale", self.scale.into()),
            ("ops", self.ops.into()),
            ("total_cycles", self.total_cycles.into()),
            ("attributed_cycles", self.attributed_cycles().into()),
            ("residual_cycles", self.residual_cycles.into()),
            ("orphan_cycles", self.orphan_cycles.into()),
            ("residual_pct", Json::Fixed(self.residual_pct(), 4)),
            ("journal_dropped", self.journal_dropped.into()),
            ("span_dropped", self.span_dropped.into()),
            ("flight_dropped", self.flight_dropped.into()),
            ("faults", self.faults.into()),
            ("fault_p50_cycles", self.fault_latency.p50.into()),
            ("fault_p99_cycles", self.fault_latency.p99.into()),
            ("fault_p999_cycles", self.fault_latency.p999.into()),
            ("fault_mean_cycles", Json::Fixed(self.fault_latency.mean, 3)),
            (
                "hot_path_cycles_per_fault",
                Json::Fixed(self.hot_path_cycles_per_fault(), 3),
            ),
            ("tags", Json::Array(tags.collect())),
            ("clusters", Json::Array(clusters.collect())),
            ("frames", Json::Array(frames.collect())),
        ])
        .pretty()
    }

    /// Parse a profile back from [`CycleProfile::to_json`] output. The
    /// error names the reader's byte offset or the missing field.
    pub fn from_json(json: &str) -> Result<CycleProfile, String> {
        let doc = autarky_json::parse(json).map_err(|e| e.to_string())?;
        let rows = |key: &str| {
            let rows = doc.get(key).and_then(Json::as_array);
            rows.ok_or_else(|| format!("{key:?}: expected an array"))
        };

        let workload = text(&doc, "workload")?;
        let faults = int(&doc, "faults")?;
        let tags = rows("tags")?
            .iter()
            .map(|t| Ok((text(t, "tag")?, int(t, "cycles")?)))
            .collect::<Result<_, String>>()?;
        let clusters = rows("clusters")?
            .iter()
            .map(|c| {
                Ok(ClusterRow {
                    page: int(c, "page")?,
                    faults: int(c, "cluster_faults")?,
                    cycles: int(c, "cluster_cycles")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let frames = rows("frames")?
            .iter()
            .map(|f| Ok((text(f, "stack")?, int(f, "cycles")?)))
            .collect::<Result<Vec<_>, String>>()?;
        let root = if frames.is_empty() {
            ProfileNode::new()
        } else {
            match ProfileNode::from_frames(&frames) {
                Some((root_name, root)) if root_name == workload => root,
                _ => return Err(format!("frames are not all rooted at {workload:?}")),
            }
        };
        let mean = doc.get("fault_mean_cycles").and_then(Json::as_f64);
        let mean = mean.ok_or("\"fault_mean_cycles\": expected a number")?;
        Ok(CycleProfile {
            policy: text(&doc, "policy")?,
            scale: u32::try_from(int(&doc, "scale")?)
                .map_err(|_| "scale out of range".to_owned())?,
            ops: int(&doc, "ops")?,
            total_cycles: int(&doc, "total_cycles")?,
            residual_cycles: int(&doc, "residual_cycles")?,
            orphan_cycles: int(&doc, "orphan_cycles")?,
            journal_dropped: int(&doc, "journal_dropped")?,
            span_dropped: int(&doc, "span_dropped")?,
            flight_dropped: int(&doc, "flight_dropped")?,
            fault_latency: LatencySummary {
                count: faults,
                p50: int(&doc, "fault_p50_cycles")?,
                p99: int(&doc, "fault_p99_cycles")?,
                p999: int(&doc, "fault_p999_cycles")?,
                mean,
            },
            workload,
            faults,
            tags,
            clusters,
            root,
        })
    }
}

fn int(v: &Json, key: &str) -> Result<u64, String> {
    let value = v.get(key).and_then(Json::as_u64);
    value.ok_or_else(|| format!("{key:?}: expected an unsigned integer"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    let value = v.get(key).and_then(Json::as_str).map(str::to_owned);
    value.ok_or_else(|| format!("{key:?}: expected a string"))
}

/// Look up one profile's committed hot-path cycles/fault in a baseline:
/// either a digest with an `entries` array of
/// `{"name", "hot_path_cycles_per_fault"}` objects (like
/// `baselines/profile-v1.json`) or a single [`CycleProfile::to_json`]
/// document. `Err` when the baseline is not JSON or has no such entry.
pub fn hot_path_baseline(baseline_json: &str, name: &str) -> Result<f64, String> {
    let doc = autarky_json::parse(baseline_json).map_err(|e| e.to_string())?;
    let entries = doc.get("entries").and_then(Json::as_array);
    let entries = entries.unwrap_or(std::slice::from_ref(&doc));
    entries
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|e| e.get("hot_path_cycles_per_fault")?.as_f64())
        .ok_or_else(|| format!("no entry {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CycleProfile {
        let mut root = ProfileNode::new();
        root.add(&["fault_round_trip", "fault_handler", "runtime"], 700);
        root.add(&["fault_round_trip", "preemption"], 4200);
        root.add(&["oram_access", "oram"], 90);
        CycleProfile {
            workload: "spell".into(),
            policy: "clusters".into(),
            scale: 1,
            ops: 120,
            total_cycles: 5000,
            residual_cycles: 10,
            orphan_cycles: 4,
            journal_dropped: 0,
            span_dropped: 0,
            flight_dropped: 0,
            faults: 2,
            fault_latency: LatencySummary {
                count: 2,
                p50: 2400,
                p99: 2600,
                p999: 2600,
                mean: 2450.5,
            },
            tags: vec![("preemption".into(), 4200), ("runtime".into(), 700)],
            clusters: vec![ClusterRow {
                page: 16,
                faults: 2,
                cycles: 4900,
            }],
            root,
        }
    }

    #[test]
    fn accounting_identities_hold() {
        let p = sample();
        assert_eq!(p.attributed_cycles(), 4990);
        assert!((p.attributed_pct() - 99.8).abs() < 1e-9);
        assert!((p.residual_pct() - 0.2).abs() < 1e-9);
        assert!(p.passes_residual_gate(5.0));
        assert!(!p.passes_residual_gate(0.1));
        assert_eq!(p.hot_path_cycles(), 4900);
        assert!((p.hot_path_cycles_per_fault() - 2450.0).abs() < 1e-9);
        assert_eq!(p.tag("preemption"), 4200);
        assert_eq!(p.tag("missing"), 0);
        assert_eq!(p.name(), "clusters/spell");
    }

    #[test]
    fn folded_output_is_sorted_and_rooted() {
        let folded = sample().folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "spell;fault_round_trip;fault_handler;runtime 700",
                "spell;fault_round_trip;preemption 4200",
                "spell;oram_access;oram 90",
            ]
        );
    }

    #[test]
    fn json_roundtrips_exactly() {
        let p = sample();
        let json = p.to_json();
        let back = CycleProfile::from_json(&json).expect("parses");
        assert_eq!(back, p);
        assert_eq!(back.to_json(), json, "re-encoding is byte-stable");
    }

    #[test]
    fn baseline_lookup_matches_by_name() {
        let json = sample().to_json();
        let hot = hot_path_baseline(&json, "clusters/spell").expect("found");
        assert!((hot - 2450.0).abs() < 1e-6);
        assert!(hot_path_baseline(&json, "elided/spell").is_err());
        let committed = include_str!("../../../baselines/profile-v1.json");
        assert_eq!(
            hot_path_baseline(committed, "clusters/spell"),
            Ok(213251.309)
        );
        assert!(hot_path_baseline(&json[..json.len() / 2], "clusters/spell").is_err());
    }
}
