//! Wall-clock cost of one scheduler round trip under the two execution
//! backends. A token passed around a ring blocks on every receive, so
//! each hop pays one full pass through the blocking path. Under `Threads`
//! that is a channel park/unpark and an OS context switch. Under
//! `Multiplexed` the waiting node goes idle — it marks itself idle at the
//! slot gate and hands its slot on — and the sender's `notify` wakes it
//! exactly once, already holding a slot, so the gate's toll is the
//! difference between the two lines. The free cost model zeroes the
//! simulated charges, so only real engine work is measured.
//!
//! The oversubscribed variants run on fewer slots than nodes. With one
//! slot, every hop is a direct handoff through the gate. With eight nodes
//! over two slots, the woken node usually finds no free slot and `notify`
//! queues it FIFO behind the nodes already waiting — the path a wide
//! machine takes on almost every wakeup.

use ace_core::{CostModel, ExecBackend, Spmd};
use criterion::{criterion_group, criterion_main, Criterion};
use std::cell::Cell;

/// Round trips of the two-node ping-pong; every variant passes the token
/// `2 * HOPS` times, so the per-pass cost is the mean over `2 * HOPS`.
const HOPS: usize = 2_000;
const PASSES: u64 = 2 * HOPS as u64;

/// Pass a token `PASSES` times around a ring of `nodes` (with two nodes,
/// the ping-pong).
fn ring(nodes: usize, backend: ExecBackend, workers: Option<usize>) -> u64 {
    let mut b = Spmd::builder().nprocs(nodes).cost(CostModel::free()).backend(backend);
    if let Some(w) = workers {
        b = b.workers(w);
    }
    let r = b.run::<u64, _, _>(|node| {
        let (rank, n) = (node.rank() as u64, nodes as u64);
        let next = (node.rank() + 1) % nodes;
        if rank == 0 {
            node.send(next, 1);
        }
        // Token `t` visits rank `t % n`.
        for _ in (1..=PASSES).filter(|t| t % n == rank) {
            let got = Cell::new(0u64);
            node.poll_until("token", |_, env| got.set(env.msg), || got.get() != 0);
            if got.get() < PASSES {
                node.send(next, got.get() + 1);
            }
        }
        PASSES
    });
    r.results[0]
}

fn sched_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("schedpath");
    g.sample_size(20);
    // Report per-pass cost: Criterion's mean for one iteration divided by
    // PASSES is the ns-per-yield headline; threads vs multiplexed is the
    // slot gate's toll.
    for (name, nodes, backend, workers) in [
        ("threads_pingpong", 2, ExecBackend::Threads, None),
        ("multiplexed_pingpong", 2, ExecBackend::Multiplexed, None),
        ("multiplexed_1slot_pingpong", 2, ExecBackend::Multiplexed, Some(1)),
        ("multiplexed_ring8_2slot", 8, ExecBackend::Multiplexed, Some(2)),
    ] {
        g.bench_function(format!("{name}_x{HOPS}"), |b| b.iter(|| ring(nodes, backend, workers)));
    }
    g.finish();
}

criterion_group!(benches, sched_loop);
criterion_main!(benches);
