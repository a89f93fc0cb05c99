//! Compare two profile JSON files frame-by-frame.
//!
//! ```text
//! profile-diff A.json B.json [--svg PATH] [--top N]
//! ```
//!
//! Prints the top frame deltas (B minus A, largest magnitude first) and
//! optionally writes a red/blue differential flamegraph. Prints
//! `(no differences)` and exits 0 when the profiles agree frame-for-
//! frame; the SVG (when requested) is still written.

use std::process::ExitCode;

use autarky_profile::{diff_flamegraph, CycleProfile, ProfileDiff};

fn die(msg: &str) -> ! {
    eprintln!("profile-diff: {msg}");
    std::process::exit(2);
}

fn load(path: &str) -> CycleProfile {
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    CycleProfile::from_json(&json).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut svg: Option<String> = None;
    let mut top = 20usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--svg" => {
                i += 1;
                svg = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--svg needs a path")),
                );
            }
            "--top" => {
                i += 1;
                top = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--top needs a positive integer"));
            }
            "--help" | "-h" => {
                println!("usage: profile-diff A.json B.json [--svg PATH] [--top N]");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => die(&format!("unknown argument: {other}")),
            other => paths.push(other.to_owned()),
        }
        i += 1;
    }
    if paths.len() != 2 {
        die("expected exactly two profile JSON paths");
    }

    let a = load(&paths[0]);
    let b = load(&paths[1]);
    let diff = ProfileDiff::between(&a, &b);
    print!("{}", diff.render_text(top));

    if let Some(path) = &svg {
        std::fs::write(path, diff_flamegraph(&a, &b))
            .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
