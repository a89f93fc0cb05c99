//! Collect a cycle-attribution profile and emit its artifacts.
//!
//! ```text
//! profile [--workload W] [--policy P] [--scale N] [--out DIR]
//!         [--residual-max PCT] [--baseline PATH] [--max-growth-pct PCT]
//! ```
//!
//! Writes `profile-{workload}-{policy}.folded`, `.svg`, and `.json`
//! into `--out` (default `.`). Prints a summary plus host wall-clock
//! simulator throughput (stdout only — the artifacts are deterministic
//! simulated-cycle data and stay byte-stable across machines).
//!
//! Exit codes: 0 = ok, 1 = a gate failed (residual over `--residual-max`,
//! or hot-path cycles/fault grew more than `--max-growth-pct` over the
//! `--baseline` entry), 2 = usage/environment error.

use std::process::ExitCode;

use autarky_profile::{collect, flamegraph, hot_path_baseline, CollectSpec};

fn die(msg: &str) -> ! {
    eprintln!("profile: {msg}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = "spell".to_owned();
    let mut policy = "clusters".to_owned();
    let mut scale = 1u32;
    let mut out_dir = ".".to_owned();
    let mut residual_max = 5.0f64;
    let mut baseline: Option<String> = None;
    let mut max_growth_pct = 10.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                i += 1;
                workload = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("--workload needs a name"));
            }
            "--policy" => {
                i += 1;
                policy = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("--policy needs a name"));
            }
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
                out_dir = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("--out needs a directory"));
            }
            "--residual-max" => {
                i += 1;
                residual_max = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--residual-max needs a percentage"));
            }
            "--baseline" => {
                i += 1;
                baseline = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--baseline needs a path")),
                );
            }
            "--max-growth-pct" => {
                i += 1;
                max_growth_pct = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--max-growth-pct needs a percentage"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: profile [--workload W] [--policy P] [--scale N] [--out DIR] \
                     [--residual-max PCT] [--baseline PATH] [--max-growth-pct PCT]"
                );
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown argument: {other}")),
        }
        i += 1;
    }

    let spec = CollectSpec {
        workload: workload.clone(),
        policy: policy.clone(),
        scale,
    };
    let got = collect(&spec).unwrap_or_else(|e| die(&e));
    let profile = &got.profile;

    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| die(&format!("create {out_dir}: {e}")));
    let stem = format!("{out_dir}/profile-{workload}-{policy}");
    for (ext, data) in [
        ("folded", profile.folded()),
        ("svg", flamegraph(profile)),
        ("json", profile.to_json()),
    ] {
        let path = format!("{stem}.{ext}");
        std::fs::write(&path, data).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        println!("wrote {path}");
    }

    println!(
        "{}: {} cycles over {} ops, {} faults (p50 {} / p99 {} cycles), \
         {:.2}% attributed ({} residual cycles, {} orphaned)",
        profile.name(),
        profile.total_cycles,
        profile.ops,
        profile.faults,
        profile.fault_latency.p50,
        profile.fault_latency.p99,
        profile.attributed_pct(),
        profile.residual_cycles,
        profile.orphan_cycles,
    );
    println!("wall clock: {}", got.wall.render());

    let mut failed = false;
    if !profile.passes_residual_gate(residual_max) {
        eprintln!(
            "RESIDUAL GATE: {:.2}% unattributed > {residual_max:.2}% allowed",
            profile.residual_pct()
        );
        failed = true;
    }
    if let Some(path) = &baseline {
        let base =
            std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
        let base_hot = hot_path_baseline(&base, &profile.name())
            .unwrap_or_else(|e| die(&format!("baseline {path}: {e}")));
        if base_hot > 0.0 {
            let cur = profile.hot_path_cycles_per_fault();
            let delta_pct = (cur / base_hot - 1.0) * 100.0;
            println!("hot path: {base_hot:.1} -> {cur:.1} cycles/fault ({delta_pct:+.2}%)");
            if delta_pct > max_growth_pct {
                eprintln!("HOT PATH GATE: +{delta_pct:.2}% > {max_growth_pct:.1}% allowed");
                failed = true;
            }
        } else {
            println!("hot path baseline is zero, skipped");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
