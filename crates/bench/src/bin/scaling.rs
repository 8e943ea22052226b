//! Processor-count scaling of the protocol-customizability story, now on
//! the multiplexed execution engine: Barnes, EM3D, and Water swept over
//! powers of two from 2 up to the `MAX_NODES` ceiling of 4096.
//!
//! The sweep weak-scales each workload (inputs grow with the processor
//! count) so a row's simulated time reflects how coherence and transport
//! costs grow with sharing breadth, not a shrinking slice of a fixed
//! problem. Wall-clock is printed alongside simulated time so the
//! scheduler's own overhead stays visible: simulated time is the figure,
//! wall time is the engine.
//!
//! Usage:
//!
//! ```text
//! scaling [--app NAME[,NAME...]] [--max N] [--min N]
//!         [--backend threads|multiplexed] [--runs K]
//!         [--json [PATH]] [--smoke]
//! ```
//!
//! `--json` without a path writes `BENCH_scaling.json` at the repo root,
//! the canonical location CI and EXPERIMENTS.md point at. `--smoke` runs
//! the CI gate instead of the sweep: EM3D at 256 nodes under the
//! multiplexed backend must complete with wire <= logical envelopes.

use std::time::Instant;

use ace_apps::runner::{launch_ace_with, RunOutcome};
use ace_apps::{barnes, em3d, water, Variant};
use ace_bench::fig7::VariantStats;
use ace_bench::json::{self, JsonRow};
use ace_core::{CostModel, ExecBackend, MachineBuilder, Spmd, MAX_NODES};

/// Apps in the sweep: the three the scale-out engine was built to drive.
const APPS: [&str; 3] = ["barnes", "em3d", "water"];

/// Per-app ceiling for the default sweep. Water's deterministic force
/// reduction takes `nprocs` barrier-separated turns per step, so its
/// machine-size cost is quadratic in ranks no matter how thin the input;
/// the curve past 1024 would measure only that artifact.
fn app_max(app: &str) -> usize {
    match app {
        "water" => 1024,
        _ => MAX_NODES,
    }
}

fn machine(procs: usize, backend: ExecBackend) -> MachineBuilder {
    Spmd::builder().nprocs(procs).cost(CostModel::cm5()).backend(backend)
}

/// One weak-scaled run: work per node is constant, so the per-app
/// parameters grow linearly with the processor count.
fn run_scaled(app: &str, procs: usize, v: Variant, backend: ExecBackend) -> RunOutcome {
    match app {
        "em3d" => {
            let p = em3d::Params {
                e_nodes: 2 * procs,
                h_nodes: 2 * procs,
                degree: 3,
                pct_remote: 20,
                steps: 2,
                seed: 7,
                hoist_maps: true,
            };
            launch_ace_with(machine(procs, backend), move |d| em3d::run(d, &p, v))
        }
        "barnes" => {
            // One body per rank: Barnes' per-body force cost already grows
            // with the total body count, so this is the thinnest input
            // where every rank still owns tree work.
            let p = barnes::Params { bodies: procs, steps: 1, theta: 1.0, seed: 3 };
            launch_ace_with(machine(procs, backend), move |d| barnes::run(d, &p, v))
        }
        "water" => {
            // Capped at the paper's full 512-molecule input: the pair
            // phase is quadratic in molecules, so past 256 ranks the
            // sweep strong-scales the paper input instead.
            let p = water::Params { molecules: (2 * procs).min(512), steps: 1, seed: 23 };
            launch_ace_with(machine(procs, backend), move |d| water::run(d, &p, v))
        }
        other => panic!("unknown app {other}"),
    }
}

/// Best-wall-clock stats over `runs` repetitions (same estimator as the
/// fig7 harnesses: logical counts are deterministic, wall keeps the min).
fn measure(app: &str, procs: usize, v: Variant, backend: ExecBackend, runs: usize) -> VariantStats {
    let mut out = VariantStats { wall_ns: u64::MAX, ..Default::default() };
    for _ in 0..runs.max(1) {
        let r = run_scaled(app, procs, v, backend);
        assert!(r.verification.is_finite(), "{app}@{procs}: lost its verification value");
        out.sim_ns = r.sim_ns;
        out.msgs = r.msgs;
        out.wire_msgs = r.wire_msgs;
        out.bytes = r.bytes;
        out.switches = r.counters.switches;
        out.wall_ns = out.wall_ns.min(r.wall.as_nanos() as u64);
    }
    out
}

fn smoke() {
    let start = Instant::now();
    let r = run_scaled("em3d", 256, Variant::Custom, ExecBackend::Multiplexed);
    let ok = r.verification.is_finite() && r.wire_msgs <= r.msgs;
    println!(
        "scaling smoke: em3d @ 256 multiplexed: verification={:.6} wire={} logical={} wall={:?}",
        r.verification,
        r.wire_msgs,
        r.msgs,
        start.elapsed()
    );
    if !ok {
        eprintln!("scaling smoke FAILED");
        std::process::exit(1);
    }
    println!("scaling smoke PASSED");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let apps: Vec<String> = ace_bench::parse_apps(&args, "--app", &APPS);
    let min = arg_val(&args, "--min").unwrap_or(2).max(2);
    let max = arg_val(&args, "--max").unwrap_or(MAX_NODES).min(MAX_NODES);
    let runs = arg_val(&args, "--runs").unwrap_or(1);
    let backend = match args
        .iter()
        .position(|a| a == "--backend")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
    {
        Some("threads") => ExecBackend::Threads,
        Some("multiplexed") | None => ExecBackend::Multiplexed,
        Some(other) => panic!("unknown backend {other} (want threads|multiplexed)"),
    };

    println!(
        "scaling: custom-protocol speedup vs processor count, weak-scaled, {backend:?} backend\n"
    );
    let mut rows: Vec<JsonRow> = Vec::new();
    for app in &apps {
        let mut counts = Vec::new();
        let mut p = min.next_power_of_two();
        while p <= max.min(app_max(app)) {
            counts.push(p);
            p *= 2;
        }
        println!(
            "{app}\n{:>6} {:>12} {:>14} {:>9} {:>14} {:>9} {:>12} {:>12}",
            "procs",
            "SC (ms)",
            "custom (ms)",
            "speedup",
            "adaptive (ms)",
            "switches",
            "SC wall",
            "custom wall"
        );
        for &procs in &counts {
            let sc = measure(app, procs, Variant::Sc, backend, runs);
            let cu = measure(app, procs, Variant::Custom, backend, runs);
            let ad = measure(app, procs, Variant::Adaptive, backend, runs);
            println!(
                "{procs:>6} {:>12.2} {:>14.2} {:>9.2} {:>14.2} {:>9} {:>10.1}ms {:>10.1}ms",
                sc.sim_ms(),
                cu.sim_ms(),
                sc.sim_ms() / cu.sim_ms(),
                ad.sim_ms(),
                ad.switches,
                sc.wall_ns as f64 / 1e6,
                cu.wall_ns as f64 / 1e6,
            );
            rows.push(JsonRow::new("scaling", app, "sc", procs, sc));
            rows.push(JsonRow::new("scaling", app, "custom", procs, cu));
            rows.push(JsonRow::new("scaling", app, "adaptive", procs, ad));
        }
        println!();
    }

    if let Some(path) = json::out_path(&args, "BENCH_scaling.json") {
        json::write(&path, &rows).expect("write --json file");
        println!("wrote {} rows to {}", rows.len(), path.display());
    }
}

fn arg_val(args: &[String], flag: &str) -> Option<usize> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).and_then(|s| s.parse().ok())
}
