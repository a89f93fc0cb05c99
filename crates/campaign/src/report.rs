//! The campaign report: one JSON document plus one markdown summary
//! covering every cell.
//!
//! The report is a pure function of the cell specs and their journaled
//! outcomes — no wall-clock, no hostnames, no resumed-vs-fresh marks —
//! so a campaign interrupted and resumed produces a report
//! byte-identical to an uninterrupted run (the resume property test
//! pins this).

use autarky_json::{object, Json};

use crate::cell::GateOutcome;
use crate::runner::CellRun;

/// A finished campaign, ready to render.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name from the config.
    pub name: String,
    /// Every cell, in expansion order.
    pub runs: Vec<CellRun>,
}

impl CampaignReport {
    /// Cells whose gate passed.
    pub fn passed(&self) -> usize {
        self.count(GateOutcome::Pass)
    }

    /// Cells whose gate failed.
    pub fn failed(&self) -> usize {
        self.count(GateOutcome::Fail)
    }

    /// Ungated (informational) cells.
    pub fn info(&self) -> usize {
        self.count(GateOutcome::Info)
    }

    fn count(&self, gate: GateOutcome) -> usize {
        self.runs.iter().filter(|r| r.outcome.gate == gate).count()
    }

    /// The campaign verdict: true iff no gate failed.
    pub fn pass(&self) -> bool {
        self.failed() == 0
    }

    /// Serialize as JSON (stable key order).
    pub fn to_json(&self) -> String {
        let results = self.runs.iter().map(|run| {
            let spec = &run.spec;
            let metrics = run
                .outcome
                .metrics
                .iter()
                .map(|(key, value)| (key.as_str(), Json::Float(*value)));
            object([
                ("id", spec.id.as_str().into()),
                ("kind", spec.kind.name().into()),
                ("policy", spec.policy.as_deref().into()),
                ("workload", spec.workload.as_str().into()),
                ("enclave_size", spec.enclave_size.into()),
                ("fault_plan", spec.fault_plan.as_deref().into()),
                ("traffic_shape", spec.traffic_shape.as_deref().into()),
                ("seed", spec.seed.into()),
                ("gate", run.outcome.gate.name().into()),
                ("metrics", object(metrics)),
                ("reason", run.outcome.reason.as_str().into()),
            ])
        });
        object([
            ("version", 1u32.into()),
            ("campaign", self.name.as_str().into()),
            ("cells", self.runs.len().into()),
            ("passed", self.passed().into()),
            ("failed", self.failed().into()),
            ("info", self.info().into()),
            ("pass", Json::Bool(self.pass())),
            ("results", Json::Array(results.collect())),
        ])
        .pretty()
    }

    /// Render as a markdown summary (the CI artifact).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("# Campaign report: {}\n\n", self.name);
        out.push_str(&format!(
            "{} cells — {} passed, {} failed, {} informational — verdict **{}**\n\n",
            self.runs.len(),
            self.passed(),
            self.failed(),
            self.info(),
            if self.pass() { "PASS" } else { "FAIL" }
        ));
        out.push_str("| cell | kind | coordinates | gate | reason |\n");
        out.push_str("|------|------|-------------|------|--------|\n");
        for run in &self.runs {
            let spec = &run.spec;
            let coords = [
                spec.policy.as_deref(),
                Some(spec.workload.as_str()),
                spec.fault_plan.as_deref(),
                spec.traffic_shape.as_deref(),
            ]
            .into_iter()
            .flatten()
            .collect::<Vec<_>>()
            .join(" × ");
            let mut coords = coords;
            if let Some(size) = spec.enclave_size {
                coords.push_str(&format!(" × {size}p"));
            }
            if let Some(seed) = spec.seed {
                coords.push_str(&format!(" × s{seed}"));
            }
            out.push_str(&format!(
                "| `{}` | {} | {} | {} | {} |\n",
                spec.id,
                spec.kind.name(),
                coords,
                run.outcome.gate.name(),
                run.outcome.reason.replace('|', "\\|").replace('\n', " ")
            ));
        }
        // Failures get their metrics spelled out; passing cells stay
        // one-line so big sweeps remain skimmable.
        let failures: Vec<&CellRun> = self
            .runs
            .iter()
            .filter(|r| r.outcome.gate == GateOutcome::Fail)
            .collect();
        if !failures.is_empty() {
            out.push_str("\n## Failed cells\n\n");
            for run in failures {
                out.push_str(&format!("### `{}` {}\n\n", run.spec.id, run.spec.coords()));
                out.push_str(&format!("{}\n\n", run.outcome.reason));
                for (key, value) in &run.outcome.metrics {
                    out.push_str(&format!("- {key}: {}\n", Json::Float(*value).line()));
                }
                out.push('\n');
            }
        }
        out
    }

    /// One bench-trajectory line for `baselines/BENCH_HISTORY.jsonl`:
    /// the cycles/op of every bench cell in this campaign, keyed by
    /// workload. `None` when the campaign ran no bench cells, so
    /// non-perf campaigns never pollute the trajectory. Deliberately
    /// timestamp-free — the file's line order *is* the trajectory, and
    /// a wall-clock stamp would break the report's determinism
    /// contract.
    pub fn bench_history_line(&self) -> Option<String> {
        let mut entries: Vec<(String, f64)> = Vec::new();
        for run in &self.runs {
            if run.spec.kind != crate::cell::CellKind::Bench {
                continue;
            }
            if entries.iter().any(|(w, _)| *w == run.spec.workload) {
                continue;
            }
            if let Some((_, v)) = run
                .outcome
                .metrics
                .iter()
                .find(|(k, _)| k == "cycles_per_op")
            {
                entries.push((run.spec.workload.clone(), *v));
            }
        }
        if entries.is_empty() {
            return None;
        }
        let bench = entries.into_iter().map(|(w, v)| (w, Json::Float(v)));
        Some(
            object([
                ("campaign", self.name.as_str().into()),
                ("bench", object(bench)),
            ])
            .line(),
        )
    }
}

/// Render the bench trajectory (the accumulated
/// `BENCH_HISTORY.jsonl` contents) as a markdown section: one row per
/// recorded run, one column per workload, cycles/op in the cells, and
/// a closing first→latest delta line per workload. Unparseable lines
/// are skipped rather than failing the report — the history file is
/// append-only across many CI runs and must never brick a campaign.
pub fn render_bench_trend(history: &str) -> String {
    let runs: Vec<Vec<(String, f64)>> = history
        .lines()
        .filter_map(history_entries)
        .filter(|entries| !entries.is_empty())
        .collect();
    if runs.is_empty() {
        return String::new();
    }
    // Column order: first appearance across the whole history.
    let mut workloads: Vec<String> = Vec::new();
    for entries in &runs {
        for (w, _) in entries {
            if !workloads.contains(w) {
                workloads.push(w.clone());
            }
        }
    }
    let mut out = String::from("\n## Cycles/op trend\n\n");
    out.push_str(&format!("{} recorded runs (oldest first):\n\n", runs.len()));
    out.push_str("| run |");
    for w in &workloads {
        out.push_str(&format!(" {w} |"));
    }
    out.push_str("\n|-----|");
    for _ in &workloads {
        out.push_str("------|");
    }
    out.push('\n');
    for (i, entries) in runs.iter().enumerate() {
        out.push_str(&format!("| {} |", i + 1));
        for w in &workloads {
            match entries.iter().find(|(k, _)| k == w) {
                Some((_, v)) => out.push_str(&format!(" {:.1} |", v)),
                None => out.push_str(" — |"),
            }
        }
        out.push('\n');
    }
    out.push('\n');
    for w in &workloads {
        let series: Vec<f64> = runs
            .iter()
            .filter_map(|entries| entries.iter().find(|(k, _)| k == w).map(|(_, v)| *v))
            .collect();
        if let (Some(first), Some(last)) = (series.first(), series.last()) {
            if *first > 0.0 && series.len() > 1 {
                out.push_str(&format!(
                    "- {w}: {:.1} → {:.1} cycles/op ({:+.1}% over {} runs)\n",
                    first,
                    last,
                    (last / first - 1.0) * 100.0,
                    series.len()
                ));
            }
        }
    }
    out
}

/// The `"bench": {"workload": cycles, ...}` map of one history line
/// written by [`CampaignReport::bench_history_line`]; `None` when the
/// line is not JSON or a value is not a number.
fn history_entries(line: &str) -> Option<Vec<(String, f64)>> {
    let doc = autarky_json::parse(line).ok()?;
    let Some(Json::Object(bench)) = doc.get("bench") else {
        return None;
    };
    bench
        .iter()
        .map(|(w, v)| Some((w.clone(), v.as_f64()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellKind, CellOutcome, CellSpec, SuiteParams};

    fn run(gate: GateOutcome, reason: &str) -> CellRun {
        CellRun {
            spec: CellSpec::new(
                CellKind::Replay,
                Some("clusters".into()),
                "spell".into(),
                None,
                Some("quiet".into()),
                None,
                Some(1),
                SuiteParams::default(),
            ),
            outcome: CellOutcome {
                gate,
                metrics: vec![("events".into(), 42.0)],
                reason: reason.into(),
            },
            resumed: false,
        }
    }

    #[test]
    fn verdict_is_conjunction_of_gates() {
        let report = CampaignReport {
            name: "t".into(),
            runs: vec![run(GateOutcome::Pass, "ok"), run(GateOutcome::Info, "fyi")],
        };
        assert!(report.pass());
        let report = CampaignReport {
            name: "t".into(),
            runs: vec![run(GateOutcome::Pass, "ok"), run(GateOutcome::Fail, "no")],
        };
        assert!(!report.pass());
        assert_eq!(report.failed(), 1);
    }

    #[test]
    fn report_ignores_the_resumed_flag() {
        let mut a = CampaignReport {
            name: "t".into(),
            runs: vec![run(GateOutcome::Pass, "ok")],
        };
        let json_fresh = a.to_json();
        let md_fresh = a.to_markdown();
        a.runs[0].resumed = true;
        assert_eq!(
            a.to_json(),
            json_fresh,
            "resume must not perturb the report"
        );
        assert_eq!(a.to_markdown(), md_fresh);
    }

    #[test]
    fn json_escapes_quotes_and_reason_text() {
        let report = CampaignReport {
            name: "t".into(),
            runs: vec![run(GateOutcome::Fail, "said \"no\"\nline two")],
        };
        let json = report.to_json();
        assert!(json.contains("said \\\"no\\\"\\nline two"));
        assert!(json.contains("\"pass\": false"));
    }

    fn bench_run(workload: &str, cycles_per_op: f64) -> CellRun {
        CellRun {
            spec: CellSpec::new(
                CellKind::Bench,
                None,
                workload.into(),
                None,
                None,
                None,
                None,
                SuiteParams::default(),
            ),
            outcome: CellOutcome {
                gate: GateOutcome::Pass,
                metrics: vec![("cycles_per_op".into(), cycles_per_op)],
                reason: "ok".into(),
            },
            resumed: false,
        }
    }

    #[test]
    fn history_line_covers_bench_cells_only() {
        let report = CampaignReport {
            name: "bench-smoke".into(),
            runs: vec![
                bench_run("spell", 1234.5),
                bench_run("font", 42.0),
                run(GateOutcome::Pass, "not a bench cell"),
            ],
        };
        let line = report.bench_history_line().expect("has bench cells");
        assert_eq!(
            line,
            "{\"campaign\": \"bench-smoke\", \"bench\": \
             {\"spell\": 1234.5, \"font\": 42}}"
        );
        // And the emitted line round-trips through the trend parser.
        let parsed = history_entries(&line).expect("parses");
        assert_eq!(
            parsed,
            vec![("spell".into(), 1234.5), ("font".into(), 42.0)]
        );

        let no_bench = CampaignReport {
            name: "fleet-only".into(),
            runs: vec![run(GateOutcome::Pass, "ok")],
        };
        assert!(no_bench.bench_history_line().is_none());
    }

    #[test]
    fn trend_renders_rows_per_run_and_deltas() {
        let history = "\
{\"campaign\": \"bench-smoke\", \"bench\": {\"spell\": 1000, \"font\": 50}}\n\
not json at all\n\
{\"campaign\": \"bench-smoke\", \"bench\": {\"spell\": 1100, \"font\": 45}}\n";
        let md = render_bench_trend(history);
        assert!(md.contains("## Cycles/op trend"));
        assert!(md.contains("2 recorded runs"), "bad line skipped:\n{md}");
        assert!(md.contains("| 1 | 1000.0 | 50.0 |"));
        assert!(md.contains("| 2 | 1100.0 | 45.0 |"));
        assert!(md.contains("- spell: 1000.0 → 1100.0 cycles/op (+10.0% over 2 runs)"));
        assert!(md.contains("- font: 50.0 → 45.0 cycles/op (-10.0% over 2 runs)"));
        assert_eq!(render_bench_trend(""), "");
    }

    #[test]
    fn markdown_lists_failures_with_metrics() {
        let report = CampaignReport {
            name: "t".into(),
            runs: vec![run(GateOutcome::Fail, "broke")],
        };
        let md = report.to_markdown();
        assert!(md.contains("## Failed cells"));
        assert!(md.contains("- events: 42"));
        assert!(md.contains("verdict **FAIL**"));
    }
}
