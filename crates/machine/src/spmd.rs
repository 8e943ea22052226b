//! SPMD launcher: run one closure on every simulated processor.
//!
//! Machines are configured through [`Spmd::builder`], which gathers every
//! knob — processor count, cost model, watchdog, coalescing, tracing,
//! transport — into a [`MachineBuilder`] instead of the former scattered
//! per-node mutators.
//!
//! Two launch shapes exist:
//!
//! * [`MachineBuilder::run`] — the whole machine in this process, one OS
//!   thread per rank, on either transport backend ([`TransportKind`]).
//! * [`MachineBuilder::spawn_rank`] — exactly one rank in this process,
//!   over the socket transport; the other ranks are other OS processes
//!   meeting at the configured rendezvous address.

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ace_trace::{MachineTrace, NodeTrace, TraceConfig};

use crate::cost::CostModel;
use crate::envelope::MsgSize;
use crate::node::{CheckMode, CoalescePolicy, Node, NodeSetup, DEFAULT_WATCHDOG};
use crate::sched::{default_workers, ExecBackend, Scheduler, SlotHandle, MUX_STACK_BYTES};
use crate::stats::{MachineStats, NodeStats};
use crate::transport::{
    ConfigError, FailBoard, InProcTransport, SockAddr, SocketCfg, SocketTransport, Transport,
    TransportKind, WireCodec, SOCKET_MAX_RANKS,
};
use crate::MAX_NODES;

/// Outcome of an SPMD run: per-node results, counters, and both clocks.
#[derive(Debug)]
pub struct SpmdResult<R> {
    /// Per-node return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-node communication counters.
    pub stats: MachineStats,
    /// Simulated completion time (max final virtual clock), nanoseconds.
    pub sim_ns: u64,
    /// Real elapsed time of the whole run.
    pub wall: Duration,
    /// The merged event trace, when the builder enabled tracing.
    pub trace: Option<MachineTrace>,
}

/// Outcome of a single-rank launch ([`MachineBuilder::spawn_rank`]): this
/// process's slice of a multi-process machine.
#[derive(Debug)]
pub struct RankRun<R> {
    /// The rank this process ran.
    pub rank: usize,
    /// Total ranks in the machine.
    pub nprocs: usize,
    /// The closure's return value.
    pub result: R,
    /// This rank's communication counters.
    pub stats: NodeStats,
    /// Real elapsed time, including the bootstrap handshake.
    pub wall: Duration,
    /// This rank's event trace, when the builder enabled tracing.
    pub trace: Option<MachineTrace>,
}

/// The simulated machine. Entry point for configuring and launching runs:
/// `Spmd::builder().nprocs(8).cost(CostModel::cm5()).run(f)`.
pub struct Spmd;

impl Spmd {
    /// Start configuring a machine. Defaults: 1 processor, CM-5 cost
    /// model, in-process transport, tracing off, coalescing off, default
    /// watchdog.
    pub fn builder() -> MachineBuilder {
        MachineBuilder::new()
    }
}

/// Configuration for a machine, built via [`Spmd::builder`].
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    nprocs: usize,
    cost: CostModel,
    trace: TraceConfig,
    watchdog: Duration,
    coalesce: CoalescePolicy,
    check: CheckMode,
    backend: ExecBackend,
    workers: Option<usize>,
    transport: TransportKind,
}

impl Default for MachineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-rank transport seed moved into a node's thread; the endpoint
/// itself is constructed on that thread.
enum NodeSeed<M> {
    InProc(InProcTransport<M>),
    Socket(SocketCfg),
}

/// Extract a panic payload's message for failure propagation.
fn panic_message(e: &(dyn std::any::Any + Send)) -> &str {
    e.downcast_ref::<String>()
        .map(|s| s.as_str())
        .or_else(|| e.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>")
}

/// Machines wider than this return their freed heap to the OS when they
/// finish (see [`release_freed_memory`]). Smaller machines free too
/// little for it to matter, and the next run would only fault the same
/// pages back in: at 8 ranks trimming added ~10% to machine construction.
const TRIM_ABOVE_RANKS: usize = 64;

/// Return the heap pages a finished machine freed to the OS. A machine's
/// nodes allocate on their own threads, so glibc spreads the run's state
/// over up to eight arenas per core and keeps every freed page resident
/// for reuse. A process that runs wide machines back to back (the bench
/// harnesses, the scaling sweep) then carries the last run's holes, and
/// whatever it keeps between runs lands in those already-touched pages,
/// so its resident set grows with every run. Trimming takes under a
/// millisecond after a 256-node run.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and has no
        // preconditions; it locks each arena itself, so it is safe to call
        // while other threads allocate.
        unsafe {
            malloc_trim(0);
        }
    }
}

impl MachineBuilder {
    /// A builder with the defaults described on [`Spmd::builder`].
    pub fn new() -> Self {
        MachineBuilder {
            nprocs: 1,
            cost: CostModel::cm5(),
            trace: TraceConfig::off(),
            watchdog: DEFAULT_WATCHDOG,
            coalesce: CoalescePolicy::Off,
            check: CheckMode::Off,
            backend: ExecBackend::default(),
            workers: None,
            transport: TransportKind::InProc,
        }
    }

    /// Number of simulated processors (1..=[`MAX_NODES`]).
    pub fn nprocs(mut self, n: usize) -> Self {
        self.nprocs = n;
        self
    }

    /// The cost model charging virtual time for computation and messages.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Event-tracing configuration (off by default; see `ace_trace`).
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = cfg;
        self
    }

    /// How long a blocked node waits before panicking as wedged.
    pub fn watchdog(mut self, d: Duration) -> Self {
        self.watchdog = d;
        self
    }

    /// Initial per-destination send-coalescing policy (off by default at
    /// the substrate level; nodes can switch at runtime with
    /// [`Node::set_coalesce`]).
    pub fn coalesce(mut self, policy: CoalescePolicy) -> Self {
        self.coalesce = policy;
        self
    }

    /// Runtime conformance-checking mode (off by default). `Log` records
    /// violations and keeps going; `Fail` panics on the first one. The
    /// machine layer carries the mode and the vector-clock piggyback; the
    /// runtime above it performs the access-control checks.
    pub fn check(mut self, mode: CheckMode) -> Self {
        self.check = mode;
        self
    }

    /// How simulated nodes map onto OS execution (see [`ExecBackend`]).
    /// `Threads` (the default) runs every node as a free OS thread;
    /// `Multiplexed` gates execution through a worker-sized slot pool and
    /// shrinks per-node stacks, which is what makes 256–4096-node machines
    /// practical on a desktop.
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Width of the execution-slot pool under [`ExecBackend::Multiplexed`]
    /// (default: one slot per host core). Ignored under `Threads`.
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one worker slot");
        self.workers = Some(n);
        self
    }

    /// Which wire substrate the machine runs on (see [`TransportKind`]);
    /// in-process channels by default. Incompatible combinations are
    /// rejected eagerly by [`MachineBuilder::validate`] rather than at
    /// some blocking point deep in a run.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Check the configuration for incompatible knob combinations. Called
    /// by every launch entry point; exposed so callers can surface a
    /// typed error instead of a panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if matches!(self.transport, TransportKind::Socket(_)) {
            if matches!(self.backend, ExecBackend::Multiplexed) {
                return Err(ConfigError::SocketMultiplexed);
            }
            if self.nprocs > SOCKET_MAX_RANKS {
                return Err(ConfigError::SocketRanks {
                    nprocs: self.nprocs,
                    max: SOCKET_MAX_RANKS,
                });
            }
        }
        Ok(())
    }

    fn node_setup(&self) -> NodeSetup {
        NodeSetup {
            watchdog: self.watchdog,
            trace: self.trace.clone(),
            coalesce: self.coalesce,
            check: self.check,
        }
    }

    /// Launch `nprocs` simulated processors, each running `f` with its own
    /// [`Node`], in the single-program-multiple-data style of the paper
    /// ("a single user thread per processor (SPMD)", §3.1).
    ///
    /// The closure must uphold the quiescence contract: when it returns on
    /// one node, no other node may still require service from it. The
    /// runtimes enforce this by ending every program with a machine-wide
    /// barrier.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is zero or exceeds [`MAX_NODES`], if the
    /// configuration is invalid ([`MachineBuilder::try_run`] returns the
    /// typed error instead), or if any node's closure panics. When several
    /// nodes die (one crashes and its blocked peers then fail with "peer
    /// exited"), the panic propagated is the *first* node that died — the
    /// root cause, not a symptom.
    pub fn run<M, R, F>(&self, f: F) -> SpmdResult<R>
    where
        M: MsgSize + WireCodec + Send + 'static,
        R: Send,
        F: Fn(&Node<M>) -> R + Sync,
    {
        match self.try_run(f) {
            Ok(r) => r,
            Err(e) => panic!("invalid machine configuration: {e}"),
        }
    }

    /// [`MachineBuilder::run`] with eager configuration validation as a
    /// typed error instead of a panic.
    pub fn try_run<M, R, F>(&self, f: F) -> Result<SpmdResult<R>, ConfigError>
    where
        M: MsgSize + WireCodec + Send + 'static,
        R: Send,
        F: Fn(&Node<M>) -> R + Sync,
    {
        self.validate()?;
        let r = self.run_inner(f);
        if self.nprocs > TRIM_ABOVE_RANKS {
            release_freed_memory();
        }
        Ok(r)
    }

    fn run_inner<M, R, F>(&self, f: F) -> SpmdResult<R>
    where
        M: MsgSize + WireCodec + Send + 'static,
        R: Send,
        F: Fn(&Node<M>) -> R + Sync,
    {
        let nprocs = self.nprocs;
        assert!(nprocs >= 1, "need at least one node");
        assert!(nprocs <= MAX_NODES, "at most {MAX_NODES} nodes supported");

        let cost = Arc::new(self.cost.clone());
        let setup = self.node_setup();
        let board = Arc::new(FailBoard::new());
        // One failure board and (in-process) one shared sender table:
        // every node clones an `Arc`, so wiring an n-node machine is
        // O(n), not n copies of n senders.
        let seeds: Vec<NodeSeed<M>> = match &self.transport {
            TransportKind::InProc => {
                InProcTransport::mesh(nprocs, &board).into_iter().map(NodeSeed::InProc).collect()
            }
            TransportKind::Socket(cfg) => {
                // Resolve `Auto` once so every rank of this loopback run
                // meets at the same generated rendezvous path.
                let cfg = cfg.resolved();
                (0..nprocs).map(|_| NodeSeed::Socket(cfg.clone())).collect()
            }
        };
        let sched = match self.backend {
            ExecBackend::Threads => None,
            ExecBackend::Multiplexed => {
                Some(Arc::new(Scheduler::new(self.workers.unwrap_or_else(default_workers), nprocs)))
            }
        };

        let start = Instant::now();
        type Outcome<R> = (R, NodeStats, Option<NodeTrace>);
        let mut outcomes: Vec<Option<Outcome<R>>> = Vec::with_capacity(nprocs);
        for _ in 0..nprocs {
            outcomes.push(None);
        }

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(nprocs);
            for (rank, seed) in seeds.into_iter().enumerate() {
                let board = Arc::clone(&board);
                let sched = sched.clone();
                let cost = Arc::clone(&cost);
                let setup = &setup;
                let f = &f;
                let mut builder = std::thread::Builder::new().name(format!("node-{rank}"));
                if sched.is_some() {
                    // Multiplexed machines run thousands of mostly-parked
                    // threads; shrink their stacks from the platform default
                    // (often 8 MiB) so the address-space bill stays sane.
                    builder = builder.stack_size(MUX_STACK_BYTES);
                }
                let handle = builder
                    .spawn_scoped(scope, move || {
                        // Under Multiplexed, hold an execution slot for the
                        // whole computation except while idle inside
                        // `poll_until` (the one yield point; a peer's send
                        // hands the slot back). The final release is
                        // idempotent, so it is safe no matter where a panic
                        // unwound from.
                        let slot =
                            sched.as_ref().map(|s| Rc::new(SlotHandle::new(Arc::clone(s), rank)));
                        if let Some(s) = &slot {
                            s.acquire();
                        }
                        // The endpoint is parked here so the failure path
                        // below can broadcast through it even though it is
                        // constructed inside the catch_unwind closure.
                        let ep: RefCell<Option<Rc<dyn Transport<M>>>> = RefCell::new(None);
                        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            let transport: Rc<dyn Transport<M>> = match seed {
                                NodeSeed::InProc(t) => Rc::new(t),
                                NodeSeed::Socket(cfg) => Rc::new(
                                    SocketTransport::establish(
                                        rank,
                                        nprocs,
                                        &cfg,
                                        Arc::clone(&board),
                                    )
                                    .unwrap_or_else(|e| {
                                        panic!("socket transport bootstrap failed: {e}")
                                    }),
                                ),
                            };
                            *ep.borrow_mut() = Some(Rc::clone(&transport));
                            let node = Node::new(
                                rank,
                                nprocs,
                                Rc::clone(&transport),
                                cost,
                                slot.clone(),
                                setup,
                            );
                            let r = f(&node);
                            let stats = node.stats();
                            let trace = node.take_trace();
                            transport.shutdown();
                            (r, stats, trace)
                        }));
                        if let Some(s) = &slot {
                            s.release();
                        }
                        match out {
                            Ok(out) => out,
                            Err(e) => {
                                // Publish rank + message (first writer wins)
                                // so blocked peers fail fast naming the root
                                // cause, then let the panic continue into
                                // the join below.
                                let msg = panic_message(e.as_ref());
                                board.record(rank, msg.to_string());
                                if let Some(t) = ep.borrow().as_ref() {
                                    t.signal_failure(rank, msg);
                                }
                                std::panic::resume_unwind(e);
                            }
                        }
                    })
                    .expect("spawn node thread");
                handles.push(handle);
            }
            let mut failures: Vec<(usize, String)> = Vec::new();
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(out) => outcomes[rank] = Some(out),
                    Err(e) => failures.push((rank, panic_message(e.as_ref()).to_string())),
                }
            }
            if !failures.is_empty() {
                let culprit = board.failed_rank();
                let (rank, msg) =
                    failures.iter().find(|(r, _)| *r as isize == culprit).unwrap_or(&failures[0]);
                panic!("node {rank} panicked: {msg}");
            }
        });

        let wall = start.elapsed();
        let mut results = Vec::with_capacity(nprocs);
        let mut stats = MachineStats::default();
        let mut node_traces = Vec::new();
        for out in outcomes {
            let (r, s, t) = out.expect("node produced no result");
            results.push(r);
            stats.nodes.push(s);
            if let Some(t) = t {
                node_traces.push(t);
            }
        }
        let trace = self.trace.enabled.then_some(MachineTrace { nodes: node_traces });
        let sim_ns = stats.sim_time();
        SpmdResult { results, stats, sim_ns, wall, trace }
    }

    /// Launch exactly one rank of a **multi-process** socket machine in
    /// this process, blocking until its closure returns. The other
    /// `nprocs - 1` ranks are expected to be peer OS processes calling
    /// `spawn_rank` with the same machine size and rendezvous address
    /// (rank 0 hosts the rendezvous).
    ///
    /// Requires `.transport(TransportKind::Socket(..))` with a concrete
    /// rendezvous address — every incompatibility is reported eagerly as
    /// a [`ConfigError`] before any socket exists.
    ///
    /// # Panics
    ///
    /// Panics if the bootstrap handshake fails or times out, or if `f`
    /// panics (after broadcasting the failure to peer processes, so their
    /// blocked ranks fail fast naming this rank).
    pub fn spawn_rank<M, R, F>(&self, rank: usize, f: F) -> Result<RankRun<R>, ConfigError>
    where
        M: MsgSize + WireCodec + Send + 'static,
        F: FnOnce(&Node<M>) -> R,
    {
        self.validate()?;
        let cfg = match &self.transport {
            TransportKind::Socket(c) => c.clone(),
            TransportKind::InProc => return Err(ConfigError::SpawnRankNeedsSocket),
        };
        if matches!(cfg.rendezvous, SockAddr::Auto) {
            return Err(ConfigError::RendezvousUnspecified);
        }
        if rank >= self.nprocs {
            return Err(ConfigError::RankOutOfRange { rank, nprocs: self.nprocs });
        }
        let start = Instant::now();
        let board = Arc::new(FailBoard::new());
        let setup = self.node_setup();
        let cost = Arc::new(self.cost.clone());
        let transport: Rc<dyn Transport<M>> = Rc::new(
            SocketTransport::establish(rank, self.nprocs, &cfg, Arc::clone(&board))
                .unwrap_or_else(|e| panic!("rank {rank}: socket transport bootstrap failed: {e}")),
        );
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let node = Node::new(rank, self.nprocs, Rc::clone(&transport), cost, None, &setup);
            let r = f(&node);
            let stats = node.stats();
            let trace = node.take_trace();
            (r, stats, trace)
        }));
        match out {
            Ok((result, stats, trace)) => {
                transport.shutdown();
                Ok(RankRun {
                    rank,
                    nprocs: self.nprocs,
                    result,
                    stats,
                    wall: start.elapsed(),
                    trace: trace.map(|t| MachineTrace { nodes: vec![t] }),
                })
            }
            Err(e) => {
                let msg = panic_message(e.as_ref()).to_string();
                board.record(rank, msg.clone());
                transport.signal_failure(rank, &msg);
                std::panic::resume_unwind(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_trace::EventKind;

    #[test]
    fn every_rank_runs_once() {
        let r =
            Spmd::builder().nprocs(8).cost(CostModel::free()).run::<(), _, _>(|node| node.rank());
        assert_eq!(r.results, (0..8).collect::<Vec<_>>());
        assert_eq!(r.stats.nodes.len(), 8);
        assert!(r.trace.is_none(), "tracing is off by default");
    }

    #[test]
    fn sim_time_is_max_clock() {
        let r = Spmd::builder().nprocs(4).cost(CostModel::free()).run::<(), _, _>(|node| {
            node.charge(node.rank() as u64 * 1000);
        });
        assert_eq!(r.sim_ns, 3000);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_nodes_rejected() {
        Spmd::builder().nprocs(MAX_NODES + 1).cost(CostModel::free()).run::<(), _, _>(|_| {});
    }

    #[test]
    #[should_panic(expected = "node 2 panicked: boom")]
    fn panics_propagate_with_rank() {
        Spmd::builder().nprocs(4).cost(CostModel::free()).run::<(), _, _>(|node| {
            if node.rank() == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "node 1 panicked: boom")]
    fn peer_death_reports_root_cause() {
        // Node 1 crashes while node 0 is blocked waiting on it. Node 0 must
        // detect the death promptly (well under the watchdog) and the
        // propagated panic must name the crashing node, not the waiter.
        let start = Instant::now();
        let r = std::panic::catch_unwind(|| {
            Spmd::builder().nprocs(2).cost(CostModel::free()).run::<u64, _, _>(|node| {
                if node.rank() == 1 {
                    panic!("boom");
                }
                node.poll_until("a message that never comes", |_, _| {}, || false);
            })
        });
        assert!(r.is_err());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "peer death took {:?} to detect; watchdog should not be involved",
            start.elapsed()
        );
        std::panic::resume_unwind(r.unwrap_err());
    }

    #[test]
    fn all_to_all_ring() {
        // Every node sends its rank to every other node and sums receipts.
        let n = 6usize;
        let r = Spmd::builder().nprocs(n).cost(CostModel::cm5()).run::<u64, _, _>(|node| {
            for dst in 0..n {
                if dst != node.rank() {
                    node.send(dst, node.rank() as u64 + 1);
                }
            }
            let acc = std::cell::Cell::new((0u64, 0usize));
            node.poll_until(
                "ring receipts",
                |_, env| {
                    let (sum, cnt) = acc.get();
                    acc.set((sum + env.msg, cnt + 1));
                },
                || acc.get().1 == n - 1,
            );
            acc.get().0
        });
        let total: u64 = (1..=n as u64).sum();
        for (rank, got) in r.results.iter().enumerate() {
            assert_eq!(*got, total - (rank as u64 + 1));
        }
    }

    #[test]
    fn traced_run_records_message_events() {
        let cost = CostModel::cm5();
        let r = Spmd::builder().nprocs(2).cost(cost).trace(TraceConfig::on()).run::<u64, _, _>(
            |node| {
                if node.rank() == 0 {
                    node.send(1, 42u64);
                } else {
                    let got = std::cell::Cell::new(0u64);
                    node.poll_until("payload", |_, env| got.set(env.msg), || got.get() != 0);
                }
            },
        );
        let trace = r.trace.expect("tracing was enabled");
        assert_eq!(trace.nodes.len(), 2);
        // Send/Recv events are per wire envelope; with coalescing off the
        // wire and logical totals coincide.
        assert_eq!(trace.send_count(), r.stats.total_wire_msgs());
        assert_eq!(r.stats.total_wire_msgs(), r.stats.total_msgs());
        let n1 = &trace.nodes[1];
        assert!(n1.events.iter().any(|e| matches!(e.kind, EventKind::Recv { src: 0, .. })));
        assert!(n1.events.iter().any(|e| matches!(e.kind, EventKind::Block { .. })));
        assert!(n1.events.iter().any(|e| matches!(e.kind, EventKind::Unblock { .. })));
        // Per-node virtual-time monotonicity (clocks never run backwards).
        for n in &trace.nodes {
            assert!(n.events.windows(2).all(|w| w[0].t <= w[1].t));
        }
        // The export round-trips through the validator.
        let check = ace_trace::validate_chrome_trace(&trace.to_chrome_json()).unwrap();
        assert_eq!(check.flow_starts, r.stats.total_wire_msgs());
        assert_eq!(check.flows_matched, r.stats.total_wire_msgs());
    }

    #[test]
    fn overflowed_ring_still_exports_valid_flows() {
        // A capacity-2 ring on both nodes evicts most Send events on the
        // sender while recvs referencing them may survive on the receiver
        // (and vice versa). The Chrome export must not emit dangling flow
        // ends for the orphaned recvs — the validator now rejects them.
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::cm5())
            .trace(TraceConfig::with_capacity(2))
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for i in 0..10u64 {
                        node.send(1, i + 1);
                    }
                } else {
                    let seen = std::cell::Cell::new(0u64);
                    node.poll_until(
                        "10 msgs",
                        |_, _| seen.set(seen.get() + 1),
                        || seen.get() == 10,
                    );
                }
            });
        let trace = r.trace.expect("tracing was enabled");
        assert!(
            trace.nodes.iter().any(|n| n.dropped > 0),
            "test premise: the ring must actually overflow"
        );
        let check = ace_trace::validate_chrome_trace(&trace.to_chrome_json())
            .expect("overflowed trace must still export valid flows");
        assert!(check.flow_ends <= check.flow_starts);
        assert_eq!(check.flows_matched, check.flow_ends, "every emitted arrow has both ends");
    }

    #[test]
    fn coalesced_traced_run_draws_one_flow_per_wire_message() {
        // Five logical sends under an unreachable threshold become one
        // wire envelope:
        // one Send event carrying subs=5, one flow arrow, one Recv.
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::cm5())
            .trace(TraceConfig::on())
            .coalesce(CoalescePolicy::Threshold(usize::MAX))
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for i in 0..5 {
                        node.send(1, i + 1);
                    }
                    node.flush_coalesced();
                } else {
                    let seen = std::cell::Cell::new(0u64);
                    node.poll_until("5 msgs", |_, _| seen.set(seen.get() + 1), || seen.get() == 5);
                }
            });
        assert_eq!(r.stats.total_msgs(), 5);
        assert_eq!(r.stats.total_wire_msgs(), 1);
        let trace = r.trace.expect("tracing was enabled");
        assert_eq!(trace.send_count(), 1);
        let subs: Vec<u32> = trace.nodes[0]
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Send { subs, .. } => Some(subs),
                _ => None,
            })
            .collect();
        assert_eq!(subs, vec![5]);
        let check = ace_trace::validate_chrome_trace(&trace.to_chrome_json()).unwrap();
        assert_eq!(check.flow_starts, 1);
        assert_eq!(check.flows_matched, 1);
    }

    // --- socket transport through the full builder/node stack ---

    #[test]
    fn socket_loopback_all_to_all() {
        let n = 4usize;
        let r = Spmd::builder()
            .nprocs(n)
            .cost(CostModel::cm5())
            .transport(TransportKind::socket_loopback())
            .run::<u64, _, _>(|node| {
                for dst in 0..n {
                    if dst != node.rank() {
                        node.send(dst, node.rank() as u64 + 1);
                    }
                }
                let acc = std::cell::Cell::new((0u64, 0usize));
                node.poll_until(
                    "ring receipts",
                    |_, env| {
                        let (sum, cnt) = acc.get();
                        acc.set((sum + env.msg, cnt + 1));
                    },
                    || acc.get().1 == n - 1,
                );
                acc.get().0
            });
        let total: u64 = (1..=n as u64).sum();
        for (rank, got) in r.results.iter().enumerate() {
            assert_eq!(*got, total - (rank as u64 + 1));
        }
        // Logical counts match the in-process machine; byte accounting
        // uses the socket framing header instead of the simulated one.
        assert_eq!(r.stats.total_msgs(), (n * (n - 1)) as u64);
        assert_eq!(
            r.stats.nodes[0].bytes_sent,
            (n - 1) as u64 * (8 + crate::transport::SOCKET_HEADER_BYTES as u64)
        );
    }

    #[test]
    fn socket_coalesced_batches_cross_the_wire() {
        // Coalescing must flow through the socket framing unchanged:
        // 5 logical messages, one wire envelope, delivered in order.
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::cm5())
            .transport(TransportKind::socket_loopback())
            .coalesce(CoalescePolicy::Threshold(usize::MAX))
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for i in 0..5 {
                        node.send(1, i + 1);
                    }
                    node.flush_coalesced();
                    Vec::new()
                } else {
                    let seen = std::cell::RefCell::new(Vec::new());
                    node.poll_until(
                        "5 msgs",
                        |_, env| seen.borrow_mut().push(env.msg),
                        || seen.borrow().len() == 5,
                    );
                    seen.into_inner()
                }
            });
        assert_eq!(r.results[1], vec![1, 2, 3, 4, 5]);
        assert_eq!(r.stats.total_msgs(), 5);
        assert_eq!(r.stats.total_wire_msgs(), 1);
    }

    #[test]
    #[should_panic(expected = "node 1 panicked: boom")]
    fn socket_peer_death_reports_root_cause() {
        // Same contract as in-process: a rank dying over sockets must be
        // detected promptly by blocked peers via the Failed broadcast,
        // and the propagated panic names the root cause.
        let start = Instant::now();
        let r = std::panic::catch_unwind(|| {
            Spmd::builder()
                .nprocs(2)
                .cost(CostModel::free())
                .transport(TransportKind::socket_loopback())
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
            "socket peer death took {:?} to detect",
            start.elapsed()
        );
        std::panic::resume_unwind(r.unwrap_err());
    }

    // --- eager rejection of incompatible configurations (one per combo) ---

    fn socket_builder() -> MachineBuilder {
        Spmd::builder().nprocs(2).transport(TransportKind::socket_loopback())
    }

    #[test]
    fn socket_plus_multiplexed_rejected_eagerly() {
        let b = socket_builder().backend(ExecBackend::Multiplexed);
        assert_eq!(b.validate(), Err(ConfigError::SocketMultiplexed));
        assert_eq!(
            b.try_run::<u64, _, _>(|_| ()).err(),
            Some(ConfigError::SocketMultiplexed),
            "try_run must reject before spawning anything"
        );
    }

    #[test]
    #[should_panic(expected = "invalid machine configuration")]
    fn socket_plus_multiplexed_panics_in_run() {
        socket_builder().backend(ExecBackend::Multiplexed).run::<u64, _, _>(|_| ());
    }

    #[test]
    fn socket_beyond_rank_cap_rejected_eagerly() {
        let b = socket_builder().nprocs(SOCKET_MAX_RANKS + 1);
        assert_eq!(
            b.validate(),
            Err(ConfigError::SocketRanks { nprocs: SOCKET_MAX_RANKS + 1, max: SOCKET_MAX_RANKS })
        );
    }

    #[test]
    fn spawn_rank_requires_socket_transport() {
        let err = Spmd::builder().nprocs(2).spawn_rank::<u64, _, _>(0, |_| ()).err();
        assert_eq!(err, Some(ConfigError::SpawnRankNeedsSocket));
    }

    #[test]
    fn spawn_rank_rejects_out_of_range_rank() {
        let b = Spmd::builder()
            .nprocs(2)
            .transport(TransportKind::Socket(SocketCfg::unix("/tmp/ace-test-never-used.sock")));
        let err = b.spawn_rank::<u64, _, _>(5, |_| ()).err();
        assert_eq!(err, Some(ConfigError::RankOutOfRange { rank: 5, nprocs: 2 }));
    }

    #[test]
    fn spawn_rank_rejects_auto_rendezvous() {
        let err = socket_builder().spawn_rank::<u64, _, _>(0, |_| ()).err();
        assert_eq!(err, Some(ConfigError::RendezvousUnspecified));
    }
}
