//! Microbenchmarks for the three wall-clock optimization layers: zero-copy
//! payload fan-out, the inline region-lookup cache, and the burst
//! message drain. Each bench isolates one layer's hot path.

use ace_core::{run_ace, CostModel, RegionId};
use ace_machine::{CostModel as MachineCost, Spmd};
use ace_protocols::{DynamicUpdate, NullProtocol};
use criterion::{criterion_group, criterion_main, Criterion};
use std::cell::RefCell;
use std::rc::Rc;

/// Layer 1 — zero-copy payloads: broadcast an 8 KiB payload to 8 nodes
/// repeatedly. The fan-out shares one `Arc` allocation per round; the
/// simulated bandwidth charge is per-recipient as before.
fn zero_copy(c: &mut Criterion) {
    let mut g = c.benchmark_group("layers");
    g.sample_size(10);
    g.bench_function("bcast_8kib_8procs_x50", |b| {
        b.iter(|| {
            run_ace(8, CostModel::free(), |rt| {
                let vals: Vec<u64> = (0..1024).collect();
                for _ in 0..50 {
                    if rt.rank() == 0 {
                        rt.bcast(0, &vals);
                    } else {
                        rt.bcast(0, &[]);
                    }
                }
            })
        })
    });
    // A protocol-level fan-out: one home pushes a region update to 7
    // sharers per round (DynUpdate's start-of-round snapshot fan-out).
    g.bench_function("update_fanout_1kib_8procs_x50", |b| {
        b.iter(|| {
            run_ace(8, CostModel::free(), |rt| {
                let s = rt.new_space(Rc::new(DynamicUpdate::new()));
                let rid = if rt.rank() == 0 {
                    RegionId(rt.bcast(0, &[rt.gmalloc::<u64>(s, 128).0])[0])
                } else {
                    RegionId(rt.bcast(0, &[])[0])
                };
                rt.map(rid);
                // Subscribe every node with one read round.
                rt.start_read(rid);
                rt.end_read(rid);
                rt.barrier(s);
                for i in 0..50u64 {
                    if rt.rank() == 0 {
                        rt.start_write(rid);
                        rt.with_mut::<u64, _>(rid, |d| d[0] = i);
                        rt.end_write(rid);
                    }
                    rt.barrier(s);
                }
            })
        })
    });
    g.finish();
}

/// Layer 2 — region-lookup fast path: a tight access loop over a small
/// working set. Every annotation funnels through `AceRt::lookup`, so this
/// measures the inline cache against hash-map probing.
fn region_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("layers");
    g.sample_size(10);
    g.bench_function("lookup_hot_loop_20k", |b| {
        b.iter(|| {
            run_ace(1, CostModel::free(), |rt| {
                let s = rt.new_space(Rc::new(NullProtocol));
                let regions: Vec<RegionId> = (0..4).map(|_| rt.gmalloc::<u64>(s, 8)).collect();
                for r in &regions {
                    rt.map(*r);
                }
                let mut acc = 0u64;
                for i in 0..20_000usize {
                    let r = regions[i % regions.len()];
                    rt.start_read(r);
                    acc = acc.wrapping_add(rt.with::<u64, _>(r, |d| d[0]));
                    rt.end_read(r);
                }
                acc
            })
        })
    });
    g.finish();
}

/// Layer 3 — burst drain: one node floods another with small messages;
/// the receiver's throughput is bounded by how fast it can pull them off
/// the channel.
fn burst_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("layers");
    g.sample_size(10);
    g.bench_function("drain_flood_30k", |b| {
        b.iter(|| {
            Spmd::builder().nprocs(2).cost(MachineCost::free()).run::<u64, _, _>(|node| {
                const K: usize = 30_000;
                if node.rank() == 0 {
                    for i in 0..K as u64 {
                        node.send(1, i);
                    }
                    0
                } else {
                    let seen = RefCell::new(0usize);
                    node.poll_until(
                        "flood",
                        |_, _| *seen.borrow_mut() += 1,
                        || *seen.borrow() == K,
                    );
                    let n = *seen.borrow();
                    n
                }
            })
        })
    });
    g.finish();
}

criterion_group!(benches, zero_copy, region_lookup, burst_drain);
criterion_main!(benches);
