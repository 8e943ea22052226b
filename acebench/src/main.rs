//! End-to-end and per-layer benchmark of the Ace reproduction.
//!
//! ```text
//! acebench --workload <em3d-push|em3d-pull|water-adapt|em3d-wide|all>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A *simulation* is one `launch_ace_with` of a workload on a CM-5-costed
//! machine whose nodes are multiplexed over two execution slots, so no
//! more than two simulated nodes run at once on a two-core host.
//! Simulations run back to back, one at a time (a closed loop), for
//! `--seconds`. Every simulation's verification value is compared bit for
//! bit with a reference computed once per run under another protocol
//! assignment; a mismatch or a caught panic counts as a failed
//! simulation.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` spends half
//! the time on untraced simulations and half on traced ones, whose `Dsm`
//! calls go through the timing adapter of [`ledger`], and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object; `README.md` beside this package explains every metric.

mod ledger;

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ace_apps::runner::launch_ace_with;
use ace_apps::{em3d, water, Dsm, Variant};
use ace_core::{CostModel, ExecBackend, MachineBuilder, OpCounters, Spmd, TraceConfig};

use ledger::{since, Class, NodeLedger, Span, Timed};

/// Execution slots of the multiplexed machine: one per host core.
const WORKERS: usize = 2;
/// An untraced end-to-end run keeps going past `--seconds` until it has
/// this many simulations, so that ten of them lie above `host_p90`.
const MIN_SIMS: usize = 100;
/// No phase runs longer than this, so a run ends well within 180 s even
/// when the program gets much slower.
const HARD_STOP: Duration = Duration::from_secs(140);

const WORKLOADS: [&str; 4] = ["em3d-push", "em3d-pull", "water-adapt", "em3d-wide"];

enum App {
    Em3d(em3d::Params),
    Water(water::Params),
}

struct Workload {
    name: &'static str,
    nprocs: usize,
    app: App,
    /// The protocol assignment measured.
    variant: Variant,
    /// The protocol assignment that computes the reference value.
    reference: Variant,
}

/// The fig7 default EM3D input: 400+400 nodes, degree 6, 20% remote.
fn em3d_fig7(seed: u64, steps: usize) -> em3d::Params {
    em3d::Params {
        e_nodes: 400,
        h_nodes: 400,
        degree: 6,
        pct_remote: 20,
        steps,
        seed,
        hoist_maps: false,
    }
}

/// Build a workload; `seed` reaches only the generated `Params`.
fn workload(name: &str, seed: Option<u64>) -> Option<Workload> {
    let em3d_seed = seed.unwrap_or(7);
    Some(match name {
        // Writers push at barriers: the coalescing send path and the
        // annotation fast path carry the run.
        "em3d-push" => Workload {
            name: "em3d-push",
            nprocs: 8,
            app: App::Em3d(em3d_fig7(em3d_seed, 10)),
            variant: Variant::Custom,
            reference: Variant::Sc,
        },
        // The same input under SC: readers pull, and every miss blocks.
        "em3d-pull" => Workload {
            name: "em3d-pull",
            nprocs: 8,
            app: App::Em3d(em3d_fig7(em3d_seed, 10)),
            variant: Variant::Sc,
            reference: Variant::Custom,
        },
        // Adaptive profiles, flush-point switches and the reduction's
        // barrier turns sit on the critical path.
        "water-adapt" => Workload {
            name: "water-adapt",
            nprocs: 8,
            app: App::Water(water::Params { molecules: 96, steps: 2, seed: seed.unwrap_or(23) }),
            variant: Variant::Adaptive,
            reference: Variant::Sc,
        },
        // The scaling-sweep input at 256 ranks: machine construction and
        // the slot gate across 256 nodes dominate host time.
        "em3d-wide" => Workload {
            name: "em3d-wide",
            nprocs: 256,
            app: App::Em3d(em3d::Params {
                e_nodes: 512,
                h_nodes: 512,
                degree: 3,
                pct_remote: 20,
                steps: 2,
                seed: em3d_seed,
                hoist_maps: true,
            }),
            variant: Variant::Adaptive,
            reference: Variant::Sc,
        },
        _ => return None,
    })
}

impl Workload {
    fn run<D: Dsm>(&self, d: &D, v: Variant) -> f64 {
        match &self.app {
            App::Em3d(p) => em3d::run(d, p, v),
            App::Water(p) => water::run(d, p, v),
        }
    }

    fn machine(&self) -> MachineBuilder {
        Spmd::builder()
            .nprocs(self.nprocs)
            .cost(CostModel::cm5())
            .backend(ExecBackend::Multiplexed)
            .workers(WORKERS)
    }
}

/// What one simulation produced.
struct Sim {
    bits: u64,
    sim_ns: u64,
    host_ns: u64,
    /// Launch until the last node entered its body.
    setup_ns: u64,
    /// Last body exit until the launch returned.
    teardown_ns: u64,
    msgs: u64,
    wire_msgs: u64,
    bytes: u64,
    counters: OpCounters,
    /// Traced simulations only: virtual time in the trace's hook spans,
    /// events the trace rings dropped, and each node's ledger by rank.
    hook_ns: u64,
    ring_dropped: u64,
    ledgers: Vec<NodeLedger>,
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// Run one simulation of `w` under `v`, traced through the timing adapter
/// when given a simulation id. A panic anywhere in the machine (including
/// a watchdog timeout or an `AceError` surfaced as a panic) comes back as
/// `Err`.
fn simulate(w: &Workload, v: Variant, traced: Option<u32>) -> Result<Sim, String> {
    let n = w.nprocs;
    let marks: Vec<[AtomicU64; 2]> = (0..n).map(|_| Default::default()).collect();
    let ledgers: Mutex<Vec<(usize, NodeLedger)>> = Mutex::new(Vec::with_capacity(n));
    let mut builder = w.machine();
    if traced.is_some() {
        builder = builder.trace(TraceConfig::on());
    }
    let origin = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        launch_ace_with(builder, |d| {
            let rank = d.rank();
            marks[rank][0].store(since(origin), Ordering::Relaxed);
            let value = match traced {
                Some(sim) => {
                    // Spans are kept for the first traced simulation only:
                    // one simulation's spans are up to ~200k records.
                    let timed = Timed::new(d, origin, sim, sim == 0);
                    let value = w.run(&timed, v);
                    let ledger = timed.finish();
                    ledgers
                        .lock()
                        .expect("no node panics holding the ledger lock")
                        .push((rank, ledger));
                    value
                }
                None => w.run(d, v),
            };
            marks[rank][1].store(since(origin), Ordering::Relaxed);
            value
        })
    }));
    let host_ns = since(origin);
    let out = out.map_err(|e| panic_message(e.as_ref()))?;
    let last = |i: usize| marks.iter().map(|m| m[i].load(Ordering::Relaxed)).max().unwrap_or(0);
    let (hook_ns, ring_dropped) = match &out.trace {
        Some(t) => {
            let s = t.summary();
            (s.hooks.iter().map(|h| h.time_ns).sum(), s.dropped)
        }
        None => (0, 0),
    };
    let mut ledgers = ledgers.into_inner().expect("the launch joined every node");
    ledgers.sort_by_key(|(rank, _)| *rank);
    Ok(Sim {
        bits: out.verification.to_bits(),
        sim_ns: out.sim_ns,
        host_ns,
        setup_ns: last(0),
        teardown_ns: host_ns.saturating_sub(last(1)),
        msgs: out.msgs,
        wire_msgs: out.wire_msgs,
        bytes: out.bytes,
        counters: out.counters,
        hook_ns,
        ring_dropped,
        ledgers: ledgers.into_iter().map(|(_, l)| l).collect(),
    })
}

/// Median round trip, in nanoseconds, of a burst of pings answered by
/// the ponger thread of [`measure`].
///
/// This two-thread channel ping-pong is timed before every simulation.
/// The host this benchmark was tuned on is shared: over tens of seconds
/// the cost of waking a parked thread drifts by about ±10%, and host time
/// per simulation, which is mostly such hand-offs, drifts with it. The
/// probe's round trip tracked that drift (correlation 0.92 over 5 s
/// windows) while a pure arithmetic loop did not, so the end-to-end host
/// metrics are reported in probe round trips. The probe runs no code of
/// the repository, so no change to the program moves it.
///
/// The two probe threads are pinned to two different cores. Left to the
/// scheduler, both land on one core whenever the other is busy, and the
/// round trip then halves (about 8 µs against 16 µs) while simulations
/// get slower. Under a bursty load on one core, five `em3d-push` runs
/// spread 0.18 in `host_p50` with an unpinned probe and 0.02 with a
/// pinned one.
fn round_trip_ns(ping: &Sender<()>, pong: &Receiver<()>) -> f64 {
    let mut rts: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            ping.send(()).expect("the ponger answers until the phase ends");
            pong.recv().expect("the ponger answers until the phase ends");
            t.elapsed().as_nanos() as f64
        })
        .collect();
    rts.sort_by(f64::total_cmp);
    rts[rts.len() / 2]
}

/// Core affinity of the calling thread, through glibc.
#[cfg(target_os = "linux")]
mod affinity {
    /// glibc's `cpu_set_t`: one bit per core, 1024 cores.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
    }

    /// The cores the calling thread may run on.
    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is writable and as large as the size passed; pid 0
        // is the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
            return Vec::new();
        }
        (0..1024).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    /// Pin the calling thread to `core`. Threads it spawns later inherit
    /// the pin, so only the probe's own threads call this.
    pub fn pin(core: usize) -> bool {
        let mut set: CpuSet = [0; 16];
        set[core / 64] |= 1 << (core % 64);
        // SAFETY: `set` is as large as the size passed; pid 0 is the
        // calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_core: usize) -> bool {
        false
    }
}

/// Simulations run back to back for one phase of a run.
#[derive(Default)]
struct Phase {
    sims: Vec<Sim>,
    /// Probe round-trip times, one per simulation attempted.
    probes: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Phase {
    /// Quantile `q` of host time per simulation, in probe round trips.
    fn host_rt(&self, q: f64) -> f64 {
        let host: Vec<f64> = self.sims.iter().map(|s| s.host_ns as f64).collect();
        quantile(&host, q) / quantile(&self.probes, 0.5)
    }
}

fn measure(w: &Workload, reference: u64, time: Duration, min_sims: usize, traced: bool) -> Phase {
    let (ping, ponger_rx) = channel::<()>();
    let (ponger_tx, pong) = channel::<()>();
    let (go, pinger_rx) = channel::<()>();
    let (pinger_tx, round_trip) = channel::<f64>();
    let (core_a, core_b) = match affinity::allowed()[..] {
        [a, b, ..] => (Some(a), Some(b)),
        _ => {
            eprintln!("{}: fewer than two cores to pin the probe to; it runs unpinned", w.name);
            (None, None)
        }
    };
    let pin_to = move |core: Option<usize>| {
        if let Some(c) = core {
            if !affinity::pin(c) {
                eprintln!("{}: could not pin a probe thread to core {c}", w.name);
            }
        }
    };
    std::thread::scope(|scope| {
        scope.spawn(move || {
            pin_to(core_b);
            while ponger_rx.recv().is_ok() && ponger_tx.send(()).is_ok() {}
        });
        scope.spawn(move || {
            pin_to(core_a);
            while pinger_rx.recv().is_ok() && pinger_tx.send(round_trip_ns(&ping, &pong)).is_ok() {}
        });
        let mut ph = Phase::default();
        let start = Instant::now();
        while (start.elapsed() < time || ph.sims.len() < min_sims) && start.elapsed() < HARD_STOP {
            let id = ph.attempted as u32;
            ph.attempted += 1;
            go.send(()).expect("the pinger runs until the phase ends");
            ph.probes.push(round_trip.recv().expect("the pinger answers every request"));
            match simulate(w, w.variant, traced.then_some(id)) {
                Ok(s) if s.bits == reference => ph.sims.push(s),
                Ok(s) => {
                    ph.failed += 1;
                    eprintln!(
                        "{}: simulation {id} verification {} != reference {}",
                        w.name,
                        f64::from_bits(s.bits),
                        f64::from_bits(reference)
                    );
                }
                Err(msg) => {
                    ph.failed += 1;
                    eprintln!("{}: simulation {id} failed: {msg}", w.name);
                }
            }
        }
        // Closing `go` ends the pinger, and its `ping` closing ends the ponger.
        drop(go);
        ph
    })
}

/// Linear-interpolated quantile of unsorted values (0 for no values).
fn quantile(vals: &[f64], q: f64) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    let mut v = vals.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median_of(sims: &[Sim], f: impl Fn(&Sim) -> f64) -> f64 {
    quantile(&sims.iter().map(f).collect::<Vec<_>>(), 0.5)
}

/// The process's peak resident set, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics of one report, in print order.
type Metrics = Vec<(String, f64, &'static str)>;

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn end_to_end(w: &Workload, reference: u64, seconds: Duration) -> Report {
    let ph = measure(w, reference, seconds, MIN_SIMS, false);
    let ms = |ns: u64| ns as f64 / 1e6;
    let host: Vec<f64> = ph.sims.iter().map(|s| ms(s.host_ns)).collect();
    if host.len() < MIN_SIMS {
        eprintln!(
            "{}: only {} simulations; host_p90 has fewer than ten above it",
            w.name,
            host.len()
        );
    }
    let failed_frac = ph.failed as f64 / ph.attempted as f64;
    let metrics = vec![
        ("sim_ms".into(), median_of(&ph.sims, |s| ms(s.sim_ns)), "ms"),
        ("host_p50".into(), ph.host_rt(0.5), "probe_rt"),
        ("setup_s".into(), median_of(&ph.sims, |s| s.setup_ns as f64 / 1e9), "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
        ("ok_frac".into(), 1.0 - failed_frac, "ratio"),
    ];
    println!(
        "{}: {} simulations attempted, {} failed, failed_frac {failed_frac} ratio",
        w.name, ph.attempted, ph.failed
    );
    // The tail is printed but not reported as a metric: on a shared host
    // it follows bursts of the host's load, and runs of the same code
    // spread by up to a quarter of its median between their quartiles.
    println!(
        "{}: host_ms_p50 {} ms, host_ms_p90 {} ms, host_p90 {} probe_rt, probe round trip {} us",
        w.name,
        quantile(&host, 0.5),
        quantile(&host, 0.9),
        ph.host_rt(0.9),
        quantile(&ph.probes, 0.5) / 1e3
    );
    Report { correct: ph.failed == 0, attempted: ph.attempted, failed: ph.failed, metrics }
}

fn per_layer(
    w: &Workload,
    seed: u64,
    reference: u64,
    seconds: Duration,
    spans_out: &Path,
) -> Report {
    let plain = measure(w, reference, seconds / 2, 4, false);
    let traced = measure(w, reference, seconds / 2, 1, true);
    let mut correct = plain.failed == 0 && traced.failed == 0;

    // Self-checks: the adapter changes nothing the simulation computes,
    // and its ledger accounts for every simulated nanosecond.
    if let Some(base) = plain.sims.first() {
        for (i, s) in traced.sims.iter().enumerate() {
            if (s.bits, s.msgs, s.bytes) != (base.bits, base.msgs, base.bytes) {
                correct = false;
                eprintln!(
                    "{}: traced simulation {i} gave (msgs {}, bytes {}), untraced (msgs {}, bytes {})",
                    w.name, s.msgs, s.bytes, base.msgs, base.bytes
                );
            }
        }
    }
    for (i, s) in traced.sims.iter().enumerate() {
        for (rank, l) in s.ledgers.iter().enumerate() {
            if !l.balanced() {
                correct = false;
                eprintln!(
                    "{}: traced simulation {i} node {rank}: ledger books {} ns, clock advanced {} ns",
                    w.name,
                    l.books.iter().map(|b| b.sim_ns).sum::<u64>(),
                    l.clock_advance
                );
            }
        }
    }
    if let Some(first) = traced.sims.first() {
        let spans = first.ledgers.iter().flat_map(|l| &l.spans);
        if let Err(e) = write_spans(spans_out, &format!("{} seed {seed}", w.name), spans) {
            eprintln!("{}: could not write {}: {e}", w.name, spans_out.display());
        }
    }

    let n = w.nprocs as f64;
    let ms = |ns: f64| ns / 1e6;
    let sum_book = |s: &Sim, c: Class, f: fn(&ledger::Book) -> u64| -> f64 {
        s.ledgers.iter().map(|l| f(&l.books[c as usize])).sum::<u64>() as f64
    };
    let calls = |c: Class| median_of(&traced.sims, |s| sum_book(s, c, |b| b.calls));
    let host_ms = |c: Class| median_of(&traced.sims, |s| ms(sum_book(s, c, |b| b.host_ns) / n));
    let sim_ms = |c: Class| median_of(&traced.sims, |s| ms(sum_book(s, c, |b| b.sim_ns) / n));
    let count = |f: fn(&OpCounters) -> u64| median_of(&traced.sims, |s| f(&s.counters) as f64);
    let plain_sim: Vec<f64> = plain.sims.iter().map(|s| s.sim_ns as f64).collect();
    let wire = plain.sims.iter().map(|s| s.wire_msgs);
    let m = |name: &str, v: f64, unit: &'static str| (name.to_string(), v, unit);
    let metrics = vec![
        m("core.annot.calls", calls(Class::Annot), "count"),
        m("core.annot.host_ms", host_ms(Class::Annot), "ms"),
        m("core.annot.sim_ms", sim_ms(Class::Annot), "ms"),
        m(
            "core.fast_hit_ratio",
            median_of(&traced.sims, |s| s.counters.fast_hit_rate().unwrap_or(0.0)),
            "ratio",
        ),
        m(
            "core.region_cache_hit_ratio",
            median_of(&traced.sims, |s| s.counters.region_cache_hit_rate().unwrap_or(0.0)),
            "ratio",
        ),
        m("core.access.calls", calls(Class::Access), "count"),
        m("core.access.host_ms", host_ms(Class::Access), "ms"),
        m("core.access.sim_ms", sim_ms(Class::Access), "ms"),
        m("core.sync.calls", calls(Class::Sync), "count"),
        m("core.sync.host_ms", host_ms(Class::Sync), "ms"),
        m("core.sync.sim_ms", sim_ms(Class::Sync), "ms"),
        m("core.coll.host_ms", host_ms(Class::Coll), "ms"),
        m("core.coll.sim_ms", sim_ms(Class::Coll), "ms"),
        m("core.alloc.host_ms", host_ms(Class::Alloc), "ms"),
        m("core.alloc.sim_ms", sim_ms(Class::Alloc), "ms"),
        m("protocols.dispatched", count(|c| c.dispatched), "count"),
        m("protocols.read_misses", count(|c| c.read_misses), "count"),
        m("protocols.write_misses", count(|c| c.write_misses), "count"),
        m("protocols.proto_msgs", count(|c| c.proto_msgs), "count"),
        m("protocols.switches", count(|c| c.switches), "count"),
        m("protocols.hook.sim_ms", median_of(&traced.sims, |s| ms(s.hook_ns as f64 / n)), "ms"),
        m("machine.logical_msgs", median_of(&traced.sims, |s| s.msgs as f64), "count"),
        m("machine.wire_msgs", median_of(&traced.sims, |s| s.wire_msgs as f64), "count"),
        m("machine.bytes", median_of(&traced.sims, |s| s.bytes as f64), "B"),
        m(
            "machine.wire_ratio",
            median_of(&traced.sims, |s| s.wire_msgs as f64 / s.msgs.max(1) as f64),
            "ratio",
        ),
        m("machine.teardown.host_ms", median_of(&plain.sims, |s| ms(s.teardown_ns as f64)), "ms"),
        m(
            "machine.sim_iqr_pct",
            100.0 * (quantile(&plain_sim, 0.75) - quantile(&plain_sim, 0.25))
                / quantile(&plain_sim, 0.5).max(1.0),
            "%",
        ),
        m(
            "machine.wire_spread",
            (wire.clone().max().unwrap_or(0) - wire.min().unwrap_or(0)) as f64,
            "count",
        ),
        m("apps.compute.sim_ms", sim_ms(Class::Compute), "ms"),
        m(
            "apps.self.host_ms",
            median_of(&traced.sims, |s| {
                let own: u64 = s.ledgers.iter().map(|l| l.body_host_ns - l.calls_host_ns).sum();
                ms(own as f64 / n)
            }),
            "ms",
        ),
        m("trace.overhead_ratio", traced.host_rt(0.5) / plain.host_rt(0.5), "ratio"),
        m("trace.dropped", median_of(&traced.sims, |s| s.ring_dropped as f64), "count"),
    ];
    Report {
        correct,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
    }
}

/// Write spans as tab-separated values, one per line, after a comment
/// line naming the run.
fn write_spans<'s>(
    path: &Path,
    run: &str,
    spans: impl Iterator<Item = &'s Span>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "# {run}")?;
    writeln!(f, "sim\tnode\tparent\tname\thost_start_ns\thost_end_ns\tsim_start_ns\tsim_end_ns")?;
    for s in spans {
        let parent = if s.parent == ledger::NO_PARENT { -1 } else { s.parent as i64 };
        writeln!(
            f,
            "{}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.sim, s.node, s.name, s.host_start, s.host_end, s.sim_start, s.sim_end
        )?;
    }
    f.flush()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*v))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: None, seconds: 25, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = Some(val.parse().map_err(bad)?),
            "--seconds" => a.seconds = val.parse().map_err(bad)?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn run_one(name: &str, args: &Args, trace: bool) -> Result<Report, String> {
    let w = workload(name, args.seed)
        .ok_or_else(|| format!("unknown workload {name}; one of {WORKLOADS:?} or all"))?;
    let seed = match &w.app {
        App::Em3d(p) => p.seed,
        App::Water(p) => p.seed,
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "== {} seed {seed}: {} ranks, multiplexed over {WORKERS} workers, cm5 costs, host {cores} cores, trace {} ==",
        w.name,
        w.nprocs,
        u8::from(trace)
    );
    let reference = simulate(&w, w.reference, None)
        .map_err(|e| {
            format!("{}: reference simulation under {} failed: {e}", w.name, w.reference.name())
        })?
        .bits;
    let seconds = Duration::from_secs(args.seconds);
    let report = if trace {
        let out =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("spans-{}.tsv", w.name));
        per_layer(&w, seed, reference, seconds, &out)
    } else {
        end_to_end(&w, reference, seconds)
    };
    for (name, v, unit) in &report.metrics {
        println!("{:<28} {:>16.6} {unit}", format!("{}.{name}", w.name), v);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("acebench: {e}");
            return ExitCode::from(2);
        }
    };
    // Both phases of every workload, in one report keyed by workload.
    let runs: Vec<(&str, bool)> = if args.workload == "all" {
        WORKLOADS.iter().flat_map(|w| [(*w, false), (*w, true)]).collect()
    } else {
        vec![(args.workload.as_str(), args.trace)]
    };
    let mut all = Report { correct: true, attempted: 0, failed: 0, metrics: Vec::new() };
    for (name, trace) in &runs {
        match run_one(name, &args, *trace) {
            Ok(r) => {
                all.correct &= r.correct;
                all.attempted += r.attempted;
                all.failed += r.failed;
                let prefix = if runs.len() > 1 { format!("{name}.") } else { String::new() };
                all.metrics
                    .extend(r.metrics.into_iter().map(|(n, v, u)| (format!("{prefix}{n}"), v, u)));
            }
            Err(e) => {
                eprintln!("acebench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", json(&all));
    ExitCode::SUCCESS
}
