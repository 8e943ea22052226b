//! Coalescing must be a pure transport optimization. Batching logical
//! sends into shared wire envelopes may change *when* messages depart and
//! how their cost is charged, but never *what* is delivered: the same
//! logical messages, in the same per-pair order, carrying the same
//! payloads. So running the same deterministic workload with coalescing
//! forced off and on has to agree on every logical observable — the
//! verification value, the per-node digest of every home region, the
//! logical message and byte counts (in total and per protocol tag), and
//! the annotation counters. Only the wire-envelope grouping (and with it
//! simulated time) may differ.
//!
//! As in `fast_path_equivalence`, EM3D and Water are bit-deterministic
//! end to end and get the strict comparison, including per-tag logical
//! counts read from a traced run. Water earns it through its fixed
//! (node, molecule-index) force reduction order (see `water::run`).
//!
//! The file ends with a liveness test: a machine whose coalescing
//! threshold is unreachable, so *every* departure relies on a
//! blocking point flushing the buffers. If any wait could block with
//! sends still buffered, this run would hang until the watchdog panics.

use std::collections::BTreeMap;

use ace_apps::{em3d, water, AceDsm, Variant};
use ace_core::{run_ace_with, CoalescePolicy, CostModel, OpCounters, Spmd, TraceConfig};
use proptest::prelude::*;

/// Logical observables plus the wire grouping for one traced run.
struct Obs {
    verification: f64,
    digests: Vec<u64>,
    counters: OpCounters,
    msgs: u64,
    wire_msgs: u64,
    bytes: u64,
    /// Protocol tag -> (logical messages, payload bytes).
    per_tag: BTreeMap<&'static str, (u64, u64)>,
}

fn run_app<F>(coalesce: bool, nprocs: usize, f: F) -> Obs
where
    F: Fn(&AceDsm) -> f64 + Sync,
{
    let r = run_ace_with(
        Spmd::builder().nprocs(nprocs).cost(CostModel::cm5()).trace(TraceConfig::on()),
        |rt| {
            rt.set_coalescing(coalesce);
            let d = AceDsm::new(rt);
            let v = f(&d);
            // Rendezvous so every node's digest sees the settled final state.
            rt.machine_barrier();
            (v, rt.data_digest(), rt.counters())
        },
    );
    let mut counters = OpCounters::default();
    for (_, _, c) in &r.results {
        counters.merge(c);
    }
    let trace = r.trace.expect("trace requested");
    let per_tag = trace.summary().tags.iter().map(|t| (t.tag, (t.logical, t.bytes))).collect();
    Obs {
        verification: r.results[0].0,
        digests: r.results.iter().map(|(_, d, _)| *d).collect(),
        counters,
        msgs: r.stats.total_msgs(),
        wire_msgs: r.stats.total_wire_msgs(),
        bytes: r.stats.total_bytes(),
        per_tag,
    }
}

/// The scheduling-independent invariants, valid for every workload.
fn assert_transport_accounting(off: &Obs, on: &Obs, ctx: &str) {
    assert_eq!(
        off.wire_msgs, off.msgs,
        "{ctx}: with coalescing off every logical send is its own envelope"
    );
    assert!(
        on.wire_msgs <= on.msgs,
        "{ctx}: coalescing can only merge envelopes (wire={} logical={})",
        on.wire_msgs,
        on.msgs
    );
    // Annotation counts are fixed by app control flow; the transport must
    // not change how often the runtime is asked to do anything.
    for (name, get) in [
        ("start_reads", (|c: &OpCounters| c.start_reads) as fn(&OpCounters) -> u64),
        ("start_writes", |c| c.start_writes),
        ("ends", |c| c.ends),
        ("unmaps", |c| c.unmaps),
        ("barriers", |c| c.barriers),
        ("locks", |c| c.locks),
    ] {
        assert_eq!(get(&off.counters), get(&on.counters), "{ctx}: {name}");
    }
}

/// Full logical bit-equivalence, for workloads deterministic end to end.
fn assert_equivalent(off: &Obs, on: &Obs, ctx: &str) {
    assert_eq!(off.verification.to_bits(), on.verification.to_bits(), "{ctx}: verification value");
    assert_eq!(off.digests, on.digests, "{ctx}: per-node region digests");
    assert_eq!(off.msgs, on.msgs, "{ctx}: total logical message count");
    assert_eq!(off.bytes, on.bytes, "{ctx}: total payload bytes");
    assert_eq!(off.per_tag, on.per_tag, "{ctx}: per-tag logical counts and bytes");

    // All counters must agree exactly except the wire grouping, which is
    // the one thing coalescing exists to change (and which carries
    // wall-clock jitter besides — see `fast_path_equivalence`).
    let strip = |c: &OpCounters| OpCounters { wire_msgs: 0, ..c.clone() };
    assert_eq!(strip(&off.counters), strip(&on.counters), "{ctx}: counters");
    assert_transport_accounting(off, on, ctx);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn em3d_coalescing_preserves_behavior(
        seed in 0u64..1000,
        steps in 1usize..4,
        pct_remote in 5u32..50,
        custom in any::<bool>(),
    ) {
        let p = em3d::Params {
            e_nodes: 40,
            h_nodes: 40,
            degree: 3,
            pct_remote,
            steps,
            seed,
            hoist_maps: false,
        };
        let v = if custom { Variant::Custom } else { Variant::Sc };
        let off = run_app(false, 4, |d| em3d::run(d, &p, v));
        let on = run_app(true, 4, |d| em3d::run(d, &p, v));
        assert_equivalent(&off, &on, "em3d");
    }

    #[test]
    fn water_coalescing_preserves_behavior(
        seed in 0u64..1000,
        molecules in 16usize..48,
        custom in any::<bool>(),
    ) {
        let p = water::Params { molecules, steps: 2, seed };
        let v = if custom { Variant::Custom } else { Variant::Sc };
        let off = run_app(false, 4, |d| water::run(d, &p, v));
        let on = run_app(true, 4, |d| water::run(d, &p, v));
        // Water's fixed (node, molecule) force reduction order makes it
        // bit-deterministic, so it earns the same strict comparison as
        // EM3D — digests, per-tag counts, and all.
        assert_equivalent(&off, &on, "water");
    }
}

#[test]
fn em3d_coalescing_reduces_wire_traffic_at_default_scale() {
    // One deterministic, larger configuration outside proptest. The
    // update-protocol variant is the fan-out-heavy one: each end_write
    // pushes a UPD per cross-region sharer, and consecutive pushes to the
    // same sharer share envelopes.
    let p = em3d::Params {
        e_nodes: 120,
        h_nodes: 120,
        degree: 4,
        pct_remote: 25,
        steps: 6,
        seed: 42,
        hoist_maps: false,
    };
    let off = run_app(false, 4, |d| em3d::run(d, &p, Variant::Custom));
    let on = run_app(true, 4, |d| em3d::run(d, &p, Variant::Custom));
    assert_equivalent(&off, &on, "em3d custom default scale");
    assert!(
        on.wire_msgs < on.msgs,
        "EM3D update pushes should coalesce: {} wire vs {} logical",
        on.wire_msgs,
        on.msgs
    );
}

#[test]
fn coalescing_cannot_deadlock_even_with_an_unreachable_threshold() {
    // Threshold(usize::MAX) means no send ever flushes on its own —
    // every departure in the whole run happens because a blocking point
    // flushed the buffers. A missing flush anywhere deadlocks the machine
    // and trips the watchdog.
    let p = em3d::Params {
        e_nodes: 30,
        h_nodes: 30,
        degree: 3,
        pct_remote: 30,
        steps: 2,
        seed: 7,
        hoist_maps: false,
    };
    for variant in [Variant::Sc, Variant::Custom] {
        let r = run_ace_with(Spmd::builder().nprocs(4).cost(CostModel::cm5()), |rt| {
            rt.node().set_coalesce(CoalescePolicy::Threshold(usize::MAX));
            let d = AceDsm::new(rt);
            em3d::run(&d, &p, variant)
        });
        assert!(r.results[0].is_finite(), "{variant:?} produced a result");
    }
}
