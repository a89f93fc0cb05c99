//! Generate `BENCH_PR4.json` (+ optional markdown) from the telemetry
//! perf suite and optionally gate against a committed baseline.
//!
//! ```text
//! telemetry-report [--scale N] [--out PATH] [--markdown PATH]
//!                  [--baseline PATH] [--tolerance PCT]
//! ```
//!
//! With `--baseline`, exits non-zero if any workload's cycles/op grew by
//! more than the tolerance (default 10%). All numbers are simulated
//! cycles, so runs are bit-stable across machines.

use std::process::ExitCode;

use autarky_bench::harness::WallTimer;
use autarky_bench::perf::{compare, run_suite};

fn die(msg: &str) -> ! {
    eprintln!("telemetry-report: {msg}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1u32;
    let mut out: Option<String> = None;
    let mut markdown: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut tolerance = 0.10f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse::<u32>().ok())
                    .unwrap_or_else(|| die("--scale needs a positive integer"))
                    .max(1);
            }
            "--out" => {
                i += 1;
                out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--out needs a path")),
                );
            }
            "--markdown" => {
                i += 1;
                markdown = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--markdown needs a path")),
                );
            }
            "--baseline" => {
                i += 1;
                baseline = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--baseline needs a path")),
                );
            }
            "--tolerance" => {
                i += 1;
                let pct: f64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--tolerance needs a percentage"));
                tolerance = pct / 100.0;
            }
            "--help" | "-h" => {
                println!(
                    "usage: telemetry-report [--scale N] [--out PATH] [--markdown PATH] \
                     [--baseline PATH] [--tolerance PCT]"
                );
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown argument: {other}")),
        }
        i += 1;
    }

    let timer = WallTimer::new();
    let report = run_suite(scale);
    let total_ops: u64 = report.workloads.iter().map(|w| w.ops).sum();
    let total_cycles: u64 = report.workloads.iter().map(|w| w.cycles).sum();
    let wall = timer.finish(total_ops, total_cycles);
    // Host-side simulator speed: printed only, never written into the
    // JSON/markdown artifacts (those stay bit-stable across machines).
    println!("wall clock: {}", wall.render());
    let json = report.to_json();
    match &out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }
    if let Some(path) = &markdown {
        std::fs::write(path, report.to_markdown())
            .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        println!("wrote {path}");
    }

    if let Some(path) = &baseline {
        let base =
            std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
        let cmp = compare(&report, &base, tolerance)
            .unwrap_or_else(|e| die(&format!("baseline {path}: {e}")));
        for line in &cmp.lines {
            println!("  {line}");
        }
        if !cmp.regressions.is_empty() {
            eprintln!(
                "REGRESSION ({} workloads over tolerance):",
                cmp.regressions.len()
            );
            for r in &cmp.regressions {
                eprintln!("  {r}");
            }
            return ExitCode::FAILURE;
        }
        println!("baseline gate: PASS (tolerance {:.1}%)", tolerance * 100.0);
    }
    ExitCode::SUCCESS
}
