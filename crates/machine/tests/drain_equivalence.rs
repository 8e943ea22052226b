//! The burst drain must be observationally identical to absorbing each
//! message as it is popped: same per-pair FIFO order, same per-message
//! virtual-clock arrival times. The drain is a wall-clock optimization
//! only — it pulls messages off the channel in bursts but absorbs each one
//! at pop time, so the receiver's clocks follow a closed form.

use std::cell::{Cell, RefCell};

use ace_machine::{CostModel, Spmd, HEADER_BYTES};
use proptest::collection::vec;
use proptest::prelude::*;

/// One sender (rank 0) emits `sends` with compute charges before each;
/// the receiver (rank 1) records each message with its clock right after
/// the absorb, then charges from `recv_charges`. Returns the receiver's
/// observations.
fn run_scenario(cost: &CostModel, sends: &[(u64, u64)], recv_charges: &[u64]) -> Vec<(u64, u64)> {
    let r = Spmd::builder().nprocs(2).cost(cost.clone()).run::<u64, _, _>(|node| {
        if node.rank() == 0 {
            for &(m, charge) in sends {
                node.charge(charge);
                node.send(1, m);
            }
            Vec::new()
        } else {
            let seen = RefCell::new(Vec::new());
            let i = Cell::new(0usize);
            node.poll_until(
                "scenario messages",
                |n, env| {
                    seen.borrow_mut().push((env.msg, n.now()));
                    n.charge(recv_charges[i.get() % recv_charges.len()]);
                    i.set(i.get() + 1);
                },
                || seen.borrow().len() == sends.len(),
            );
            seen.into_inner()
        }
    });
    let mut out = r.results;
    out.swap_remove(1)
}

/// The absorb-at-pop model: the sender's clock after its k-th send is
/// `send_k`, and the receiver's clock after absorbing message k is
/// `clock_k = max(clock_{k-1} + charge_{k-1}, send_k + wire_time(bytes))
/// + recv_overhead`, starting from zero.
fn absorb_at_pop_model(
    cost: &CostModel,
    sends: &[(u64, u64)],
    recv_charges: &[u64],
) -> Vec<(u64, u64)> {
    let flight = cost.wire_time(8 + HEADER_BYTES);
    let (mut send_k, mut ready) = (0u64, 0u64);
    sends
        .iter()
        .enumerate()
        .map(|(k, &(m, charge))| {
            send_k += charge + cost.send_overhead;
            let clock_k = ready.max(send_k + flight) + cost.recv_overhead;
            ready = clock_k + recv_charges[k % recv_charges.len()];
            (m, clock_k)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn drain_matches_absorb_at_pop_model(
        sends in vec((1u64..1_000_000, 0u64..5_000), 1..150),
        recv_charges in vec(0u64..3_000, 1..8),
    ) {
        let cost = CostModel::cm5();
        let observed = run_scenario(&cost, &sends, &recv_charges);
        prop_assert_eq!(observed, absorb_at_pop_model(&cost, &sends, &recv_charges));
    }
}

#[test]
fn per_pair_fifo_holds_under_batching() {
    // Several senders racing at the same receiver: cross-pair interleaving
    // is free to vary, but each pair's stream must arrive in send order
    // even when the drain pulls many messages per burst.
    const N: usize = 4;
    const PER: u64 = 300;
    let r = Spmd::builder().nprocs(N).cost(CostModel::free()).run::<u64, _, _>(|node| {
        if node.rank() == 0 {
            let seqs = RefCell::new(vec![Vec::new(); N]);
            node.poll_until(
                "all streams",
                |_, env| seqs.borrow_mut()[env.src].push(env.msg),
                || seqs.borrow().iter().skip(1).all(|s| s.len() == PER as usize),
            );
            seqs.into_inner()
        } else {
            for i in 0..PER {
                node.send(0, i);
            }
            Vec::new()
        }
    });
    for (src, seq) in r.results[0].iter().enumerate().skip(1) {
        assert_eq!(seq, &(0..PER).collect::<Vec<_>>(), "stream from node {src} reordered");
    }
}
