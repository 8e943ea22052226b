//! Figure 7a: Ace runtime system versus CRL, both under the default
//! sequentially-consistent invalidation protocol.
//!
//! Usage:
//!
//! ```text
//! fig7a [--small|--paper] [--procs N] [--runs K] [--json [PATH]]
//!       [--trace PATH]  (re-runs EM3D traced and writes Chrome JSON)
//! ```
//!
//! `--json` without a path writes `BENCH_fig7a.json` at the repo root,
//! the canonical location CI and EXPERIMENTS.md point at.

use ace_apps::Variant;
use ace_bench::fig7::{fig7a, write_trace, Scale};
use ace_bench::json::{self, JsonRow};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--paper") {
        Scale::Paper
    } else if args.iter().any(|a| a == "--small") {
        Scale::Small
    } else {
        Scale::Default
    };
    let procs = arg_val(&args, "--procs").unwrap_or(8);
    let runs = arg_val(&args, "--runs").unwrap_or(3);

    println!("Figure 7a: Ace runtime vs CRL (SC protocol), {procs} procs, avg of {runs} runs");
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>14}",
        "benchmark", "Ace (ms)", "CRL (ms)", "CRL/Ace", "adaptive (ms)"
    );
    let rows = fig7a(scale, procs, runs);
    for r in &rows {
        println!(
            "{:<12} {:>12.2} {:>12.2} {:>10.2} {:>14.2}",
            r.app,
            r.ace_ms,
            r.crl_ms,
            r.ratio,
            r.adaptive.sim_ms()
        );
    }
    println!("\n(simulated time on the CM-5-flavoured cost model; >1 means Ace is faster;");
    println!(" the adaptive column is Ace under the runtime protocol-selection engine)");

    if let Some(path) = json::out_path(&args, "BENCH_fig7a.json") {
        let mut out = Vec::new();
        for r in &rows {
            out.push(JsonRow::new("fig7a", &r.app, "ace", procs, r.ace));
            out.push(JsonRow::new("fig7a", &r.app, "crl", procs, r.crl));
            out.push(JsonRow::new("fig7a", &r.app, "adaptive", procs, r.adaptive));
        }
        json::write(&path, &out).expect("write --json file");
        println!("wrote {} rows to {}", out.len(), path.display());
    }

    if let Some(path) = arg_str(&args, "--trace") {
        write_trace("em3d", scale, Variant::Sc, procs, std::path::Path::new(&path))
            .expect("write --trace file");
    }
}

fn arg_str(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).cloned()
}

fn arg_val(args: &[String], key: &str) -> Option<usize> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}
