//! Figure 7b: single (SC) protocol versus application-specific protocols
//! in Ace.
//!
//! Usage:
//!
//! ```text
//! fig7b [--small|--paper] [--procs N] [--runs K] [--json [PATH]]
//!       [--trace PATH]  (re-runs EM3D/custom traced and writes Chrome JSON)
//!       [--check [APP,...]]  (conformance-checker overhead table instead
//!       of the figure; default apps em3d,water; asserts zero violations)
//!       [--check-max-overhead PCT]  (with --check: fail if any row's
//!       simulated-time overhead exceeds PCT percent)
//! ```
//!
//! `--json` without a path writes `BENCH_fig7b.json` at the repo root,
//! the canonical location CI and EXPERIMENTS.md point at.

use ace_apps::Variant;
use ace_bench::fig7::{check_overhead, fig7b, write_trace, Scale};
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

    if args.iter().any(|a| a == "--check") {
        run_check(&args, scale, procs, runs);
        return;
    }

    println!(
        "Figure 7b: SC vs application-specific protocols in Ace, {procs} procs, avg of {runs} runs"
    );
    println!(
        "{:<12} {:>12} {:>14} {:>10} {:>14} {:>9} {:>22}",
        "benchmark",
        "SC (ms)",
        "custom (ms)",
        "speedup",
        "adaptive (ms)",
        "switches",
        "custom wire/logical"
    );
    let rows = fig7b(scale, procs, runs);
    let avg: f64 = rows.iter().map(|r| r.speedup).sum::<f64>() / rows.len() as f64;
    for r in &rows {
        println!(
            "{:<12} {:>12.2} {:>14.2} {:>10.2} {:>14.2} {:>9} {:>12}/{}",
            r.app,
            r.sc_ms,
            r.custom_ms,
            r.speedup,
            r.adaptive_ms,
            r.adaptive.switches,
            r.custom.wire_msgs,
            r.custom.msgs
        );
    }
    println!("\naverage speedup: {avg:.2} (paper: range 1.02-5, average ~2)");
    println!("custom protocols: barnes=dynamic update, bsc=home-owned, em3d=static update,");
    println!("                  tsp=fetch-and-add counter, water=null+pipelined phases");
    println!("adaptive: the engine picks per-space protocols at flush points at runtime");
    println!("*-nocoal configs rerun with the coalescing transport disabled");

    if let Some(path) = json::out_path(&args, "BENCH_fig7b.json") {
        let mut out = Vec::new();
        for r in &rows {
            out.push(JsonRow::new("fig7b", &r.app, "sc", procs, r.sc));
            out.push(JsonRow::new("fig7b", &r.app, "custom", procs, r.custom));
            out.push(JsonRow::new("fig7b", &r.app, "sc-nocoal", procs, r.sc_nocoal));
            out.push(JsonRow::new("fig7b", &r.app, "custom-nocoal", procs, r.custom_nocoal));
            out.push(JsonRow::new("fig7b", &r.app, "adaptive", procs, r.adaptive));
        }
        json::write(&path, &out).expect("write --json file");
        println!("wrote {} rows to {}", out.len(), path.display());
    }

    if let Some(path) = arg_str(&args, "--trace") {
        write_trace("em3d", scale, Variant::Custom, procs, std::path::Path::new(&path))
            .expect("write --trace file");
    }
}

/// The `--check` mode: run the requested apps with the conformance
/// checker off and on (`CheckMode::Fail`) and print the overhead table.
/// A completed run already proves zero violations — `Fail` panics on the
/// first one — and the recorded count is asserted anyway.
fn run_check(args: &[String], scale: Scale, procs: usize, runs: usize) {
    let apps = ace_bench::parse_apps(args, "--check", &["em3d", "water"]);
    let refs: Vec<&str> = apps.iter().map(|s| s.as_str()).collect();

    println!("Conformance-checker overhead (CheckMode::Fail vs off), {procs} procs, {runs} runs");
    println!(
        "{:<12} {:<8} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8}",
        "benchmark", "variant", "sim off", "sim on", "sim %", "wall off", "wall on", "wall %"
    );
    let rows = check_overhead(&refs, scale, procs, runs);
    for r in &rows {
        println!(
            "{:<12} {:<8} {:>10.2}ms {:>10.2}ms {:>7.1}% {:>10.2}ms {:>10.2}ms {:>7.1}%",
            r.app,
            r.variant.name(),
            r.off.sim_ms(),
            r.on.sim_ms(),
            r.sim_overhead_pct(),
            r.off.wall_ns as f64 / 1e6,
            r.on.wall_ns as f64 / 1e6,
            r.wall_overhead_pct(),
        );
        assert_eq!(r.violations, 0, "{}/{}: checker found violations", r.app, r.variant.name());
        if let Some(max) = arg_val(args, "--check-max-overhead") {
            assert!(
                r.sim_overhead_pct() <= max as f64,
                "{}/{}: checker sim overhead {:.1}% exceeds the {max}% bound",
                r.app,
                r.variant.name(),
                r.sim_overhead_pct()
            );
        }
    }
    println!("\nall runs completed under CheckMode::Fail with zero violations");
    println!("(vector clocks and checker bookkeeping charge nothing to the cost model;");
    println!(" the simulated-time delta is the shutdown-time history gather plus jitter)");
}

fn arg_str(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).cloned()
}

fn arg_val(args: &[String], key: &str) -> Option<usize> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}
