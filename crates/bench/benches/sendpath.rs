//! Wall-clock cost of one logical `Node::send` under three coalescing
//! settings: `Off` (every send is its own wire envelope), `Threshold(8)`
//! (the runtime default — buffers flush every eighth message), and
//! `Threshold(usize::MAX)` (everything buffers until a blocking point). The free
//! cost model zeroes the simulated charges, so the loop measures the real
//! sender-side work: channel injection per envelope for `Off` versus a
//! buffer push (plus the amortized flush) for the coalescing policies.

use ace_core::{CoalescePolicy, CostModel, Spmd};
use criterion::{criterion_group, criterion_main, Criterion};
use std::cell::Cell;

const SENDS: usize = 20_000;

fn send_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("sendpath");
    g.sample_size(20);
    // Report per-send cost: Criterion's mean for one iteration divided by
    // SENDS is the ns-per-logical-send headline.
    for (name, policy) in [
        ("off", CoalescePolicy::Off),
        ("threshold8", CoalescePolicy::Threshold(8)),
        ("threshold_max", CoalescePolicy::Threshold(usize::MAX)),
    ] {
        g.bench_function(format!("{name}_send_x{SENDS}"), |b| {
            b.iter(|| {
                Spmd::builder().nprocs(2).cost(CostModel::free()).coalesce(policy).run::<u64, _, _>(
                    |node| {
                        if node.rank() == 0 {
                            for i in 0..SENDS as u64 {
                                node.send(1, i + 1);
                            }
                            node.flush_coalesced();
                            0
                        } else {
                            let seen = Cell::new(0usize);
                            node.poll_until(
                                "all sends",
                                |_, _| seen.set(seen.get() + 1),
                                || seen.get() == SENDS,
                            );
                            seen.get() as u64
                        }
                    },
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, send_loop);
criterion_main!(benches);
