//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric with its unit and sample count, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when an op failed or returned a wrong output.

use std::path::PathBuf;
use std::process::ExitCode;

use autarky_hostbench::run::{run_traced, run_untraced, Report};
use autarky_hostbench::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: hostbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]",
        names.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

fn print(report: &Report) {
    for m in &report.metrics {
        println!("{:<40} {:>16.4} {:<12} {}", m.name, m.value, m.unit, m.note);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "# hostbench {} seed={} seconds={} trace={} (single-threaded closed loop, 1 client)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        let out = args.trace_out.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{}.jsonl", w.name()))
        });
        run_traced(w, args.seed, args.seconds, &out)
    } else {
        run_untraced(w, args.seed, args.seconds)
    };
    match result {
        Ok(report) => {
            print(&report);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "hostbench: {} of {} ops failed or the enclave was terminated",
                    report.failed, report.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("hostbench: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}
