//! Machine-level checks that the multiplexed backend preserves the
//! substrate's contracts at scale: failure detection still names the
//! culprit promptly when nodes share a worker pool, no wakeup is lost
//! between a send and an idle receiver, and a machine at the 4096-node
//! ceiling constructs and tears down.

use std::cell::Cell;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ace_machine::{CostModel, ExecBackend, Spmd};

/// The tests here spawn hundreds-to-thousands of node threads each; run
/// concurrently they starve one another, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
#[should_panic(expected = "node 1 panicked: boom")]
fn peer_death_is_detected_under_multiplexing() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Node 1 crashes while node 0 blocks in a receive wait. The waiter
    // yields its slot while parked, so the death must still be noticed
    // promptly — well under the watchdog — and the propagated panic must
    // name the crashing node via the shared failure board, not the
    // innocent waiter.
    let start = Instant::now();
    let r = std::panic::catch_unwind(|| {
        Spmd::builder()
            .nprocs(8)
            .cost(CostModel::free())
            .backend(ExecBackend::Multiplexed)
            .workers(2)
            .run::<u64, _, _>(|node| {
                if node.rank() == 1 {
                    panic!("boom");
                }
                node.poll_until("a message that never comes", |_, _| {}, || false);
            })
    });
    assert!(r.is_err());
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "peer death took {:?} to detect; watchdog should not be involved",
        start.elapsed()
    );
    std::panic::resume_unwind(r.unwrap_err());
}

#[test]
fn machine_at_the_node_ceiling_constructs_and_runs() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The full 4096-node machine: shared routing table, per-node state,
    // and the slot gate all at the MAX_NODES ceiling. Each node passes a
    // token around a ring so every channel and both gate directions get
    // exercised at least once.
    let n = ace_machine::MAX_NODES;
    let r = Spmd::builder()
        .nprocs(n)
        .cost(CostModel::free())
        .backend(ExecBackend::Multiplexed)
        .run::<u64, _, _>(|node| {
            let next = (node.rank() + 1) % n;
            node.send(next, node.rank() as u64);
            let got = std::cell::Cell::new(u64::MAX);
            node.poll_until("ring token", |_, env| got.set(env.msg), || got.get() != u64::MAX);
            got.get()
        });
    for (rank, &got) in r.results.iter().enumerate() {
        assert_eq!(got as usize, (rank + n - 1) % n, "ring token came from the wrong rank");
    }
}

#[test]
fn token_ring_over_two_slots_loses_no_wakeup() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Every hop hands the token to a node that is idle, off-slot, and
    // woken only by the sender's notify; 64 nodes over 2 slots make most
    // grants queue behind the slot gate. A single lost wakeup stalls the
    // ring until the watchdog panics.
    const HOPS: u64 = 10_000;
    let n = 64u64;
    let r = Spmd::builder()
        .nprocs(n as usize)
        .cost(CostModel::free())
        .backend(ExecBackend::Multiplexed)
        .workers(2)
        .watchdog(Duration::from_secs(5))
        .run::<u64, _, _>(|node| {
            let rank = node.rank() as u64;
            let next = (node.rank() + 1) % n as usize;
            if rank == 0 {
                node.send(next, 1);
            }
            // Token `t` visits rank `t % n`.
            let mut last = 0;
            for _ in (1..=HOPS).filter(|t| t % n == rank) {
                let got = Cell::new(0u64);
                node.poll_until("ring token", |_, env| got.set(env.msg), || got.get() != 0);
                last = got.get();
                if last < HOPS {
                    node.send(next, last + 1);
                }
            }
            last
        });
    assert_eq!(r.results[(HOPS % n) as usize], HOPS, "the last hop landed where it should");
    assert_eq!(r.stats.nodes.iter().map(|s| s.msgs_recv).sum::<u64>(), HOPS);
}
