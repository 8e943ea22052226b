//! The in-process backend: crossbeam channels as the network.
//!
//! This is the original substrate, unchanged in behaviour: one unbounded
//! channel per destination rank, a shared read-only sender table (so an
//! `n`-node machine clones one `Arc` per node, not `n` senders), and the
//! machine-wide `FailBoard` for fail-fast peer-death detection. All
//! latency and bandwidth semantics live above this layer in the cost
//! model; the channel itself is instantaneous.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::envelope::Wire;
use crate::transport::{FailBoard, Transport, TryWireError, WaitWireError};

/// One rank's endpoint on the in-process channel mesh: its own receiver,
/// the shared sender table, and the shared failure board.
pub struct InProcTransport<M> {
    rx: Receiver<Wire<M>>,
    txs: Arc<Vec<Sender<Wire<M>>>>,
    board: Arc<FailBoard>,
}

impl<M> InProcTransport<M> {
    /// Build the full machine's endpoints at once: `nprocs` channels, one
    /// shared sender table, one shared failure board. Endpoint `i` is
    /// moved into rank `i`'s thread.
    pub(crate) fn mesh(nprocs: usize, board: &Arc<FailBoard>) -> Vec<InProcTransport<M>> {
        let mut txs = Vec::with_capacity(nprocs);
        let mut rxs = Vec::with_capacity(nprocs);
        for _ in 0..nprocs {
            let (tx, rx) = crossbeam::channel::unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        let txs = Arc::new(txs);
        rxs.into_iter()
            .map(|rx| InProcTransport { rx, txs: Arc::clone(&txs), board: Arc::clone(board) })
            .collect()
    }
}

impl<M> Transport<M> for InProcTransport<M> {
    fn send_wire(&self, dst: usize, wire: Wire<M>) {
        // A send can only fail if the destination thread already exited,
        // which means the SPMD program violated its quiescence contract;
        // losing the message is the faithful outcome (the wire goes dead).
        let _ = self.txs[dst].send(wire);
    }

    fn try_recv_wire(&self) -> Result<Wire<M>, TryWireError> {
        self.rx.try_recv().map_err(|e| match e {
            TryRecvError::Empty => TryWireError::Empty,
            TryRecvError::Disconnected => TryWireError::Dead,
        })
    }

    fn recv_wire_timeout(&self, d: Duration) -> Result<Wire<M>, WaitWireError> {
        self.rx.recv_timeout(d).map_err(|e| match e {
            RecvTimeoutError::Timeout => WaitWireError::Timeout,
            RecvTimeoutError::Disconnected => WaitWireError::Dead,
        })
    }

    fn failed_rank(&self) -> isize {
        self.board.failed_rank()
    }

    fn failure_detail(&self) -> String {
        self.board.detail()
    }

    fn signal_failure(&self, rank: usize, msg: &str) {
        self.board.record(rank, msg.to_string());
    }

    fn shutdown(&self) {
        // Dropping the endpoint (and with it this rank's `Arc` on the
        // sender table) is the whole protocol: once every rank's clone is
        // gone the channels disconnect, which peers observe as a dead
        // wire. No explicit goodbye is needed in-process.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Envelope;

    fn env(src: usize, msg: u64) -> Wire<u64> {
        Wire::Single(Envelope { src, send_time: 0, bytes: 28, vc: None, sw: 0, msg })
    }

    #[test]
    fn mesh_routes_per_pair_fifo() {
        let board = Arc::new(FailBoard::new());
        let eps = InProcTransport::<u64>::mesh(2, &board);
        eps[0].send_wire(1, env(0, 1));
        eps[0].send_wire(1, env(0, 2));
        eps[0].send_wire(0, env(0, 3)); // self-send loops back
        for (ep, want) in [(&eps[1], 1), (&eps[1], 2), (&eps[0], 3)] {
            match ep.try_recv_wire() {
                Ok(Wire::Single(e)) => assert_eq!(e.msg, want),
                other => panic!("expected Single({want}), got {other:?}",),
            }
        }
        assert_eq!(eps[1].try_recv_wire().err(), Some(TryWireError::Empty));
    }

    #[test]
    fn dead_wire_reported_after_senders_drop() {
        // Every endpoint holds the shared sender table (including its own
        // sender), so a live mesh never disconnects from the inside —
        // in-process peer death travels through the failure board instead.
        // The dead-wire mapping still matters for teardown races, so pin
        // it on a hand-built endpoint whose senders are all gone.
        let board = Arc::new(FailBoard::new());
        let (tx, rx) = crossbeam::channel::unbounded::<Wire<u64>>();
        let ep = InProcTransport { rx, txs: Arc::new(Vec::new()), board };
        drop(tx);
        assert_eq!(ep.try_recv_wire().err(), Some(TryWireError::Dead));
        assert_eq!(ep.recv_wire_timeout(Duration::from_millis(1)).err(), Some(WaitWireError::Dead));
    }

    #[test]
    fn failure_board_is_shared_across_endpoints() {
        let board = Arc::new(FailBoard::new());
        let eps = InProcTransport::<u64>::mesh(3, &board);
        assert_eq!(eps[2].failed_rank(), -1);
        eps[0].signal_failure(0, "boom");
        assert_eq!(eps[2].failed_rank(), 0);
        assert_eq!(eps[1].failure_detail(), "boom");
    }
}
