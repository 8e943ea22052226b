//! A simulated processor: rank, message endpoints, virtual clock, counters.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ace_trace::{EventKind, MachineTrace, NodeTrace, TraceConfig, TraceSink};

use crate::cost::CostModel;
use crate::envelope::{Envelope, MsgSize, Wire};
use crate::sched::SlotHandle;
use crate::stats::NodeStats;
use crate::transport::{Transport, TryWireError, WaitWireError};

/// How often an idle node wakes, off-slot, to check for peer death and
/// the watchdog. A message ends the wait at once — on the channel under
/// `Threads`, by a sender's slot grant under `Multiplexed` — so the tick
/// only bounds how quickly a *failure* is noticed, and a long collective
/// wait costs fifty wakeups per second.
const IDLE_POLL_CEIL: Duration = Duration::from_millis(20);

/// How long a blocked node waits before concluding the run is wedged.
/// Protocol bugs in a message-passing system manifest as silent hangs; the
/// watchdog converts them into a panic with the caller-provided diagnostic.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

/// How many messages [`Node::try_recv`] pulls off the channel per drain
/// burst. Draining in bursts amortizes the channel's synchronization over
/// many messages; the burst is bounded so a flood of incoming traffic
/// cannot starve the caller's predicate checks.
const DRAIN_BURST: usize = 64;

/// When to flush a destination's coalescing buffer.
///
/// Under any policy other than `Off`, [`Node::send`] appends the logical
/// message to a per-destination buffer instead of injecting a wire
/// envelope. A buffered batch is charged one `msg_latency`, one
/// [`Node::header_bytes`] header and one `send_overhead` for the whole wire
/// envelope, plus [`CostModel::pack_cost`] per sub-message — the
/// amortization that makes fine-grained protocol fan-out cheap.
///
/// Liveness rule: every blocking point flushes. [`Node::poll_until`]
/// flushes on entry, whenever a handled message leaves the local inbox
/// empty, and before the node goes idle, so no peer can deadlock waiting
/// on a message its sender is still buffering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoalescePolicy {
    /// Every logical send is its own wire envelope (legacy behaviour,
    /// bit-identical to the pre-coalescing substrate).
    #[default]
    Off,
    /// Flush a destination as soon as its buffer holds N sub-messages
    /// (and at every blocking point). `Threshold(usize::MAX)` buffers
    /// without bound and flushes only at blocking points.
    Threshold(usize),
}

/// How the runtime conformance checker (`ace-check`) treats violations.
///
/// The machine layer only carries the mode and the vector-clock plumbing
/// it needs (see [`Envelope::vc`]); the actual access-control checks live
/// in the runtime layer above. Checking is metrologically invisible: no
/// mode charges virtual time or bytes, so check-on and check-off runs of
/// a conforming program report identical simulated costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// No checking; misuse falls back to the debug assertions.
    #[default]
    Off,
    /// Record violations (per-node counters, structured errors, trace
    /// events) but let the run continue.
    Log,
    /// Panic on the first violation, with the structured report as the
    /// panic message.
    Fail,
}

impl CheckMode {
    /// Whether this mode performs any checking at all.
    pub fn enabled(self) -> bool {
        self != CheckMode::Off
    }
}

/// Construction-time per-node knobs, fixed by the machine builder.
#[derive(Debug, Clone)]
pub(crate) struct NodeSetup {
    pub watchdog: Duration,
    pub trace: TraceConfig,
    pub coalesce: CoalescePolicy,
    pub check: CheckMode,
}

impl Default for NodeSetup {
    fn default() -> Self {
        NodeSetup {
            watchdog: DEFAULT_WATCHDOG,
            trace: TraceConfig::off(),
            coalesce: CoalescePolicy::Off,
            check: CheckMode::Off,
        }
    }
}

/// An inbox entry: an envelope plus its precomputed arrival time and
/// receive charge. Arrival is a pure function of the *wire* envelope
/// (send time + flight time of the wire bytes), computed once when the
/// wire message is expanded; the charge and trace event are applied when
/// the entry is popped, preserving absorb-at-pop semantics.
struct Inbound<M> {
    env: Envelope<M>,
    arrival: u64,
    /// `recv_overhead` for a single or a batch's first part; `pack_cost`
    /// (the unpack charge) for subsequent parts of the same batch.
    charge: u64,
    /// `Some((subs, wire_bytes))` on the entry that represents the wire
    /// envelope itself (a single, or a batch's first part): pop emits one
    /// Recv trace event so flow arrows stay one-per-wire-message.
    wire: Option<(u32, u32)>,
}

/// Per-destination coalescing buffers that scale to thousands of ranks: a
/// dense `Vec` of buffers at small `nprocs`, a `HashMap` keyed by the few
/// destinations actually touched above that (a 4096-node machine must not
/// pay 4096 empty `Vec`s per node), plus a dirty list so flushing visits
/// only destinations that hold messages instead of scanning every rank.
struct OutBufs<M> {
    dense: Vec<Vec<(M, usize)>>,
    sparse: HashMap<usize, Vec<(M, usize)>>,
    /// Destinations whose buffer went empty→nonempty since the last full
    /// flush. May hold duplicates (a threshold flush empties a buffer but
    /// leaves its entry); `flush_coalesced` sorts and the per-destination
    /// flush no-ops on empty, so duplicates are harmless.
    dirty: Vec<usize>,
}

/// Above this many ranks the per-destination buffers live in a map.
const DENSE_OUTBUF_MAX: usize = 64;

impl<M> OutBufs<M> {
    fn new(nprocs: usize) -> Self {
        OutBufs {
            dense: if nprocs <= DENSE_OUTBUF_MAX {
                (0..nprocs).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            sparse: HashMap::new(),
            dirty: Vec::new(),
        }
    }

    /// Append one part to `dst`'s buffer, returning the buffer's new
    /// length (for threshold checks).
    fn push(&mut self, dst: usize, part: (M, usize)) -> usize {
        let buf = if self.dense.is_empty() {
            self.sparse.entry(dst).or_default()
        } else {
            &mut self.dense[dst]
        };
        if buf.is_empty() {
            self.dirty.push(dst);
        }
        buf.push(part);
        buf.len()
    }

    /// Take `dst`'s buffered parts (empty if none).
    fn take(&mut self, dst: usize) -> Vec<(M, usize)> {
        if self.dense.is_empty() {
            self.sparse.remove(&dst).unwrap_or_default()
        } else {
            std::mem::take(&mut self.dense[dst])
        }
    }

    /// Take the dirty list, sorted ascending so flush order (and with it
    /// the per-destination `send_overhead` clock charges) is rank order —
    /// identical to the old full scan, independent of send order.
    fn take_dirty(&mut self) -> Vec<usize> {
        let mut d = std::mem::take(&mut self.dirty);
        d.sort_unstable();
        d
    }
}

/// One simulated processor.
///
/// A `Node` is owned by exactly one OS thread and is deliberately `!Sync`:
/// everything inside uses `Cell`/`RefCell`. The only cross-thread objects
/// are the channel endpoints and the shared routing table.
pub struct Node<M> {
    rank: usize,
    nprocs: usize,
    /// The wire substrate this node sends and receives through. Dynamic
    /// dispatch keeps the backend a runtime choice without a generics
    /// ripple through the protocol and application layers; the per-wire
    /// header charge is cached in `header_bytes` so the hot send path
    /// pays no virtual call for accounting.
    transport: Rc<dyn Transport<M>>,
    /// Cached [`Transport::header_bytes`].
    header_bytes: usize,
    cost: Arc<CostModel>,
    clock: Cell<u64>,
    logical_sent: Cell<u64>,
    wire_sent: Cell<u64>,
    bytes_sent: Cell<u64>,
    wire_bytes_sent: Cell<u64>,
    msgs_recv: Cell<u64>,
    watchdog: Cell<Duration>,
    /// Local inbox filled by draining the channel in bursts. Messages are
    /// *not* absorbed on drain — [`Node::absorb`] runs when a message is
    /// popped for handling, so per-message virtual-clock semantics are
    /// identical to unbatched reception (same order, same arrival math).
    inbox: RefCell<VecDeque<Inbound<M>>>,
    /// Per-destination coalescing buffers; `pending` counts buffered
    /// parts across all destinations so the common empty case is one load.
    coalesce: Cell<CoalescePolicy>,
    outbuf: RefCell<OutBufs<M>>,
    pending: Cell<usize>,
    /// This thread's handle on the execution-slot gate under
    /// [`crate::ExecBackend::Multiplexed`]; `None` under `Threads`. The
    /// slot is given up only while the node is idle inside
    /// [`Node::poll_until`] with nothing to handle, and comes back with
    /// the first message a peer sends it (every wire send notifies the
    /// gate), before any node state is touched again.
    slot: Option<Rc<SlotHandle>>,
    /// Structured event sink; a no-op unless the builder enabled tracing.
    sink: TraceSink,
    /// Conformance-checking mode (the runtime layer does the checking; the
    /// node carries the mode, the vector clock, and the violation count).
    check: CheckMode,
    /// This node's vector clock (one component per rank), maintained only
    /// when `check` is enabled: ticked on sends and checker-visible
    /// events, merged from [`Envelope::vc`] on absorb.
    vc: RefCell<Vec<u64>>,
    /// Conformance violations recorded against this node.
    violations: Cell<u64>,
    /// This node's protocol-switch epoch: bumped when the runtime commits
    /// a protocol switch, stamped on every outgoing wire envelope (see
    /// [`Envelope::sw`]). Metrologically invisible. Incoming messages from
    /// a later epoch stay in the inbox until this node commits that
    /// switch too (see [`Node::pop_inbox`]).
    sw_epoch: Cell<u64>,
}

impl<M: MsgSize + Send> Node<M> {
    pub(crate) fn new(
        rank: usize,
        nprocs: usize,
        transport: Rc<dyn Transport<M>>,
        cost: Arc<CostModel>,
        slot: Option<Rc<SlotHandle>>,
        setup: &NodeSetup,
    ) -> Self {
        let header_bytes = transport.header_bytes();
        Node {
            rank,
            nprocs,
            transport,
            header_bytes,
            cost,
            clock: Cell::new(0),
            logical_sent: Cell::new(0),
            wire_sent: Cell::new(0),
            bytes_sent: Cell::new(0),
            wire_bytes_sent: Cell::new(0),
            msgs_recv: Cell::new(0),
            watchdog: Cell::new(setup.watchdog),
            inbox: RefCell::new(VecDeque::new()),
            coalesce: Cell::new(setup.coalesce),
            outbuf: RefCell::new(OutBufs::new(nprocs)),
            pending: Cell::new(0),
            slot,
            sink: TraceSink::new(&setup.trace),
            check: setup.check,
            vc: RefCell::new(if setup.check.enabled() { vec![0; nprocs] } else { Vec::new() }),
            violations: Cell::new(0),
            sw_epoch: Cell::new(0),
        }
    }

    /// This node's rank in `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of nodes in the machine.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Fixed per-wire-envelope header charge of the transport this node
    /// runs on ([`Transport::header_bytes`]): the simulated CM-5 header
    /// in-process, the measured framing overhead on a real backend.
    pub fn header_bytes(&self) -> usize {
        self.header_bytes
    }

    /// Current virtual clock in nanoseconds.
    pub fn now(&self) -> u64 {
        self.clock.get()
    }

    /// Advance the virtual clock by a computation charge.
    pub fn charge(&self, ns: u64) {
        self.clock.set(self.clock.get() + ns);
    }

    /// This node's event sink. Higher layers (the Ace runtime) stamp
    /// their own events — hook spans, state transitions — through it;
    /// check [`TraceSink::enabled`] before building an event.
    pub fn trace_sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Drain the node's event buffer for merging, if tracing is on.
    pub(crate) fn take_trace(&self) -> Option<NodeTrace> {
        self.sink.enabled().then(|| self.sink.take(self.rank))
    }

    /// The coalescing policy in effect.
    pub fn coalesce_policy(&self) -> CoalescePolicy {
        self.coalesce.get()
    }

    /// Number of logical messages currently buffered across destinations.
    pub fn pending_coalesced(&self) -> usize {
        self.pending.get()
    }

    /// Switch the coalescing policy, flushing anything already buffered
    /// first so no message straddles a policy change.
    pub fn set_coalesce(&self, policy: CoalescePolicy) {
        self.flush_coalesced();
        self.coalesce.set(policy);
    }

    /// The conformance-checking mode this machine was built with.
    pub fn check_mode(&self) -> CheckMode {
        self.check
    }

    /// This node's protocol-switch epoch (stamped on outgoing envelopes).
    pub fn switch_epoch(&self) -> u64 {
        self.sw_epoch.get()
    }

    /// Advance this node's switch epoch to `epoch` (monotone; called by
    /// the runtime at a protocol switch's commit point, between the drain
    /// barrier and the adopt barrier). Subsequent sends carry the new
    /// epoch, and held messages from that epoch become deliverable.
    pub fn set_switch_epoch(&self, epoch: u64) {
        debug_assert!(
            epoch >= self.sw_epoch.get(),
            "switch epoch must be monotone: {} -> {epoch}",
            self.sw_epoch.get()
        );
        self.sw_epoch.set(epoch.max(self.sw_epoch.get()));
    }

    /// Record one conformance violation against this node (called by the
    /// runtime checker; surfaced through [`NodeStats::violations`]).
    pub fn note_violation(&self) {
        self.violations.set(self.violations.get() + 1);
    }

    /// Conformance violations recorded against this node so far.
    pub fn violations(&self) -> u64 {
        self.violations.get()
    }

    /// Tick this node's own vector-clock component and return a snapshot.
    /// The checker calls this at every event it wants causally ordered
    /// (section opens/closes); panics if checking is off.
    pub fn vc_tick(&self) -> Arc<[u64]> {
        debug_assert!(self.check.enabled(), "vector clocks require a check mode");
        let mut vc = self.vc.borrow_mut();
        vc[self.rank] += 1;
        vc.as_slice().into()
    }

    /// Tick-and-snapshot for an outgoing wire envelope, or `None` when
    /// checking is off (the common case: no allocation, one branch).
    fn vc_stamp(&self) -> Option<Arc<[u64]>> {
        self.check.enabled().then(|| self.vc_tick())
    }

    /// Merge a peer's vector clock into this node's (elementwise max,
    /// then tick own component) — the receive half of the piggyback.
    fn vc_merge(&self, other: &[u64]) {
        let mut vc = self.vc.borrow_mut();
        for (mine, theirs) in vc.iter_mut().zip(other) {
            *mine = (*mine).max(*theirs);
        }
        vc[self.rank] += 1;
    }

    /// Inject a message to `dst`. Under [`CoalescePolicy::Off`] this
    /// charges send overhead and emits one wire envelope; otherwise the
    /// message joins `dst`'s coalescing buffer (charging `pack_cost`) and
    /// goes out with the next flush. Sending to self is allowed (the
    /// message is delivered via the normal polling path, like a loopback
    /// active message).
    pub fn send(&self, dst: usize, msg: M) {
        debug_assert!(dst < self.nprocs, "send to nonexistent node {dst}");
        match self.coalesce.get() {
            CoalescePolicy::Off => {
                self.charge(self.cost.send_overhead);
                let bytes = msg.size_bytes() + self.header_bytes;
                self.logical_sent.set(self.logical_sent.get() + 1);
                self.wire_sent.set(self.wire_sent.get() + 1);
                self.bytes_sent.set(self.bytes_sent.get() + bytes as u64);
                self.wire_bytes_sent.set(self.wire_bytes_sent.get() + bytes as u64);
                if self.sink.enabled() {
                    let t = self.clock.get();
                    self.sink.emit(
                        t,
                        EventKind::Pack { dst: dst as u16, tag: msg.tag(), bytes: bytes as u32 },
                    );
                    self.sink.emit(
                        t,
                        EventKind::Send {
                            dst: dst as u16,
                            tag: msg.tag(),
                            bytes: bytes as u32,
                            subs: 1,
                        },
                    );
                }
                let env = Envelope {
                    src: self.rank,
                    send_time: self.clock.get(),
                    bytes,
                    vc: self.vc_stamp(),
                    sw: self.sw_epoch.get(),
                    msg,
                };
                self.put_wire(dst, Wire::Single(env));
            }
            CoalescePolicy::Threshold(n) => {
                self.charge(self.cost.pack_cost);
                let payload = msg.size_bytes();
                // Logical accounting is policy-independent: the same
                // per-message payload+header charge as `Off`, so apps see
                // deterministic byte counts regardless of how messages
                // end up grouped on the wire.
                self.logical_sent.set(self.logical_sent.get() + 1);
                self.bytes_sent.set(self.bytes_sent.get() + (payload + self.header_bytes) as u64);
                if self.sink.enabled() {
                    self.sink.emit(
                        self.clock.get(),
                        EventKind::Pack {
                            dst: dst as u16,
                            tag: msg.tag(),
                            bytes: (payload + self.header_bytes) as u32,
                        },
                    );
                }
                let len = self.outbuf.borrow_mut().push(dst, (msg, payload));
                self.pending.set(self.pending.get() + 1);
                if len >= n.max(1) {
                    self.flush_dst(dst);
                }
            }
        }
    }

    /// Flush every destination's coalescing buffer, in rank order. A
    /// no-op when nothing is buffered (the overwhelmingly common case at
    /// blocking points). Called automatically by [`Node::poll_until`] on
    /// entry, whenever a handled message empties the inbox, and before the
    /// node goes idle — together those make every blocking point flush,
    /// the liveness rule coalescing relies on.
    pub fn flush_coalesced(&self) {
        if self.pending.get() == 0 {
            return;
        }
        // Visit only destinations that buffered something since the last
        // flush, in ascending rank order so the per-destination clock
        // charges land exactly as the old 0..nprocs scan did. (The dirty
        // list is taken first: `flush_dst` re-borrows the buffers.)
        let dirty = self.outbuf.borrow_mut().take_dirty();
        for dst in dirty {
            self.flush_dst(dst);
        }
    }

    /// Flush point after a handled message inside a poll loop: flush only
    /// once the local inbox has drained. While already-delivered messages
    /// remain queued the node cannot block, so holding the buffers open is
    /// safe — and it lets the replies generated while draining one
    /// coalesced batch (say, the acks for a train of update pushes) leave
    /// as one wire envelope instead of one per handled message.
    fn flush_after_handle(&self) {
        if self.inbox.borrow().is_empty() {
            self.flush_coalesced();
        }
    }

    /// Flush one destination's buffer as a single wire envelope: one
    /// `send_overhead`, one header, summed payload bytes.
    fn flush_dst(&self, dst: usize) {
        let parts = self.outbuf.borrow_mut().take(dst);
        if parts.is_empty() {
            return;
        }
        self.pending.set(self.pending.get() - parts.len());
        self.charge(self.cost.send_overhead);
        let wire_bytes = parts.iter().map(|&(_, b)| b).sum::<usize>() + self.header_bytes;
        self.wire_sent.set(self.wire_sent.get() + 1);
        self.wire_bytes_sent.set(self.wire_bytes_sent.get() + wire_bytes as u64);
        if self.sink.enabled() {
            self.sink.emit(
                self.clock.get(),
                EventKind::Send {
                    dst: dst as u16,
                    tag: parts[0].0.tag(),
                    bytes: wire_bytes as u32,
                    subs: parts.len() as u32,
                },
            );
        }
        let wire = Wire::Batch {
            src: self.rank,
            send_time: self.clock.get(),
            wire_bytes,
            parts,
            vc: self.vc_stamp(),
            sw: self.sw_epoch.get(),
        };
        self.put_wire(dst, wire);
    }

    /// Hand one wire envelope to the transport and, under the multiplexed
    /// backend, wake `dst` if it is idle. The push must come first: the
    /// gate's lost-wakeup argument orders it before the idle check.
    fn put_wire(&self, dst: usize, wire: Wire<M>) {
        self.transport.send_wire(dst, wire);
        if let Some(slot) = &self.slot {
            slot.notify(dst);
        }
    }

    /// Expand one wire message into inbox entries. Arrival is computed
    /// here — once per wire envelope, from its wire bytes — so a batch's
    /// parts all become available at the same virtual instant, exactly
    /// when the one wire message lands.
    fn enqueue_wire(&self, w: Wire<M>, inbox: &mut VecDeque<Inbound<M>>) {
        match w {
            Wire::Single(env) => {
                let arrival = env.send_time + self.cost.wire_time(env.bytes);
                inbox.push_back(Inbound {
                    arrival,
                    charge: self.cost.recv_overhead,
                    wire: Some((1, env.bytes as u32)),
                    env,
                });
            }
            Wire::Batch { src, send_time, wire_bytes, parts, vc, sw } => {
                let arrival = send_time + self.cost.wire_time(wire_bytes);
                let subs = parts.len() as u32;
                let mut vc = vc;
                for (i, (msg, payload)) in parts.into_iter().enumerate() {
                    // Only the batch's first delivered part carries the
                    // sender's vector clock: one merge per wire envelope.
                    inbox.push_back(Inbound {
                        env: Envelope { src, send_time, bytes: payload, vc: vc.take(), sw, msg },
                        arrival,
                        charge: if i == 0 { self.cost.recv_overhead } else { self.cost.pack_cost },
                        wire: (i == 0).then_some((subs, wire_bytes as u32)),
                    });
                }
            }
        }
    }

    /// Pull a burst of messages off the channel into the local inbox,
    /// without absorbing them. Per-pair FIFO is preserved: the channel
    /// delivers in send order per source and the inbox is a queue. A
    /// coalesced batch counts as one pull but may expand past the burst
    /// limit; the limit only bounds channel synchronization per burst.
    fn drain_burst(&self, inbox: &mut VecDeque<Inbound<M>>) {
        while inbox.len() < DRAIN_BURST {
            match self.transport.try_recv_wire() {
                Ok(w) => self.enqueue_wire(w, inbox),
                Err(TryWireError::Empty) => break,
                Err(TryWireError::Dead) => self.peer_exited("transport disconnected"),
            }
        }
    }

    /// Pop the next deliverable inbox entry: plain FIFO over the drained
    /// inbox.
    ///
    /// An entry stamped with a later switch epoch than this node's is not
    /// deliverable: it is held in place until this node commits that
    /// switch. A switch commits between two machine barriers, and a peer
    /// that saw the first barrier's release may already be adopting
    /// regions under the new protocol (a dynamic-update JOIN, say) while
    /// this node still waits for its own copy of the release; handling
    /// that message now would run it through the old protocol. Holding it
    /// keeps per-pair FIFO, since each sender's epochs only grow.
    fn pop_inbox(&self, inbox: &mut VecDeque<Inbound<M>>) -> Option<Inbound<M>> {
        let epoch = self.sw_epoch.get();
        let i = inbox.iter().position(|inb| {
            // The two-barrier handshake bounds the skew to one switch.
            debug_assert!(
                inb.env.sw <= epoch + 1,
                "node {}: message from switch epoch {} arrived at epoch {epoch}",
                self.rank,
                inb.env.sw,
            );
            inb.env.sw <= epoch
        })?;
        inbox.remove(i)
    }

    /// Non-blocking receive. On delivery the local clock advances to cover
    /// the message's flight time and the receive overhead is charged.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        let mut inbox = self.inbox.borrow_mut();
        if inbox.is_empty() {
            self.drain_burst(&mut inbox);
        }
        let inb = self.pop_inbox(&mut inbox)?;
        drop(inbox);
        self.absorb(&inb);
        Some(inb.env)
    }

    fn absorb(&self, inb: &Inbound<M>) {
        let now = self.clock.get().max(inb.arrival) + inb.charge;
        self.clock.set(now);
        self.msgs_recv.set(self.msgs_recv.get() + 1);
        if let Some(vc) = &inb.env.vc {
            self.vc_merge(vc);
        }
        if self.sink.enabled() {
            if let Some((subs, wire_bytes)) = inb.wire {
                self.sink.emit(
                    now,
                    EventKind::Recv {
                        src: inb.env.src as u16,
                        tag: inb.env.msg.tag(),
                        bytes: wire_bytes,
                        sent_at: inb.env.send_time,
                        subs,
                    },
                );
            }
        }
    }

    /// The first recorded failure's panic message, as a `: msg` suffix for
    /// peer-death panics (empty if the message hasn't been published yet —
    /// the failure flag trips before the detail store lands).
    fn failure_suffix(&self) -> String {
        let msg = self.transport.failure_detail();
        if msg.is_empty() {
            String::new()
        } else {
            format!(": {msg}")
        }
    }

    /// Diagnose a dead peer and panic immediately instead of letting the
    /// caller stall into the watchdog.
    fn peer_exited(&self, what: &str) -> ! {
        let culprit = self.transport.failed_rank();
        if culprit >= 0 {
            panic!(
                "node {}: peer exited (node {culprit} died{}) while: {what}",
                self.rank,
                self.failure_suffix()
            );
        }
        panic!("node {}: peer exited while: {what}", self.rank);
    }

    /// Panic if some peer's node has died by panic: a message this node
    /// is waiting on may never arrive, so failing fast with the culprit's
    /// rank (and its panic message, read lock-free off the transport)
    /// beats a silent multi-second watchdog stall.
    fn check_peers(&self, what: &str) {
        if self.peer_failed() {
            panic!(
                "node {}: peer exited (node {} died{}) while waiting for: {what}",
                self.rank,
                self.transport.failed_rank(),
                self.failure_suffix()
            );
        }
    }

    /// Whether some other node has died by panic (one atomic load).
    fn peer_failed(&self) -> bool {
        let culprit = self.transport.failed_rank();
        culprit >= 0 && culprit as usize != self.rank
    }

    /// The watchdog deadline scaled to machine size: a 4096-node barrier
    /// legitimately takes longer to drain over a core-sized worker pool
    /// than a 4-node one, so the configured timeout grows by one multiple
    /// per 64 ranks. Machines up to 64 nodes keep the configured value
    /// exactly (the timing-sensitive tests pin small machines).
    fn effective_watchdog(&self) -> Duration {
        self.watchdog.get().saturating_mul(1 + (self.nprocs / 64) as u32)
    }

    /// Service incoming messages until `pred` returns true, invoking
    /// `handle` on each one. This is the substrate's equivalent of an
    /// Active Messages poll loop: a blocked processor keeps servicing
    /// incoming protocol requests. Panics with `what` if the watchdog
    /// expires (a wedged protocol) or a peer's thread dies (a crashed
    /// protocol on the other side).
    ///
    /// Coalescing liveness: the node's own buffers are flushed on entry —
    /// before the wait can block on a reply this node itself still holds —
    /// and again whenever a handled message leaves the inbox empty,
    /// because handlers send replies (a sharer answering a recall inside a
    /// barrier wait, say) that a peer's forward progress may depend on.
    /// While the inbox still holds delivered messages the node cannot
    /// block, so the flush is deferred and the replies for one incoming
    /// batch coalesce.
    ///
    /// `pred` is evaluated on entry and after **every** handled message,
    /// and at no other time — not on an idle wakeup — so it must read only
    /// state that `handle` (or the caller, before the call) changes; that
    /// is what lets an idle node sleep until a peer sends it something.
    /// As soon as the wait is satisfied the loop returns, leaving any
    /// further queued messages for the node's next poll. This matters for
    /// virtual-time fidelity — a thread that races ahead in wall-clock
    /// time can enqueue messages whose virtual send time is far in this
    /// node's future, and absorbing them while blocked on an earlier event
    /// would serialize logically parallel phases (the node's own next
    /// compute phase would start *after* the peer's, inflating simulated
    /// time from max-of-nodes toward sum-of-nodes).
    pub fn poll_until(
        &self,
        what: &str,
        mut handle: impl FnMut(&Self, Envelope<M>),
        mut pred: impl FnMut() -> bool,
    ) {
        self.flush_coalesced();
        if pred() {
            return;
        }
        if self.sink.enabled() {
            self.sink.emit(self.clock.get(), EventKind::Block { what: what.into() });
        }
        let start = Instant::now();
        loop {
            match self.try_recv() {
                Some(env) => {
                    handle(self, env);
                    self.flush_after_handle();
                    if pred() {
                        break;
                    }
                }
                None => self.wait_for_delivery(what, start),
            }
        }
        if self.sink.enabled() {
            self.sink.emit(self.clock.get(), EventKind::Unblock { what: what.into() });
        }
    }

    /// Nothing to handle: block until a wire envelope is delivered, then
    /// return with it queued (under `Multiplexed`, also with a slot held).
    /// Every [`IDLE_POLL_CEIL`] tick without a delivery runs the
    /// peer-death and watchdog checks; under `Multiplexed` they run
    /// off-slot, and a failing check takes a slot back before panicking.
    fn wait_for_delivery(&self, what: &str, start: Instant) {
        self.flush_coalesced();
        let doomed = || self.peer_failed() || start.elapsed() > self.effective_watchdog();
        let Some(slot) = &self.slot else {
            loop {
                match self.transport.recv_wire_timeout(IDLE_POLL_CEIL) {
                    Ok(w) => return self.enqueue_wire(w, &mut self.inbox.borrow_mut()),
                    Err(WaitWireError::Timeout) if doomed() => self.fail_wait(what),
                    Err(WaitWireError::Timeout) => {}
                    Err(WaitWireError::Dead) => self.peer_exited("transport disconnected"),
                }
            }
        };
        let repolled = slot.go_idle(|| match self.transport.try_recv_wire() {
            Err(TryWireError::Empty) => None,
            got => Some(got),
        });
        match repolled {
            Some(Ok(w)) => return self.enqueue_wire(w, &mut self.inbox.borrow_mut()),
            Some(Err(_)) => self.peer_exited("transport disconnected"),
            None => {}
        }
        while !slot.wait_idle(IDLE_POLL_CEIL) {
            if doomed() {
                slot.leave_idle();
                self.fail_wait(what);
            }
        }
    }

    /// Panic out of a doomed wait: name the dead peer if there is one,
    /// otherwise report the watchdog stall.
    fn fail_wait(&self, what: &str) -> ! {
        self.check_peers(what);
        if self.sink.enabled() {
            // Dump this node's wait-graph view before dying: which
            // hook/region the stall sits inside, not just `what`.
            let t = MachineTrace { nodes: vec![self.sink.take(self.rank)] };
            let report = t.wait_graph_report();
            if !report.is_empty() {
                eprintln!("{report}");
            }
        }
        panic!("node {} wedged waiting for: {what} (clock {} ns)", self.rank, self.now());
    }

    /// Snapshot of this node's statistics (final clock filled in). Flushes
    /// the coalescing buffers first so the wire counts cover everything the
    /// program has logically sent.
    pub fn stats(&self) -> NodeStats {
        self.flush_coalesced();
        NodeStats {
            logical_msgs: self.logical_sent.get(),
            wire_msgs: self.wire_sent.get(),
            bytes_sent: self.bytes_sent.get(),
            wire_bytes: self.wire_bytes_sent.get(),
            msgs_recv: self.msgs_recv.get(),
            violations: self.violations.get(),
            switch_epoch: self.sw_epoch.get(),
            final_clock: self.clock.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::HEADER_BYTES;
    use crate::sched::ExecBackend;
    use crate::spmd::Spmd;

    #[test]
    fn clock_advances_on_send_and_recv() {
        let cost = CostModel::cm5();
        let r = Spmd::builder().nprocs(2).cost(cost.clone()).run::<u64, _, _>(|node| {
            if node.rank() == 0 {
                node.send(1, 42u64);
                node.now()
            } else {
                let got = Cell::new(0u64);
                node.poll_until("payload", |_, env| got.set(env.msg), || got.get() != 0);
                assert_eq!(got.get(), 42);
                node.now()
            }
        });
        // Sender paid send overhead; receiver's clock covers flight time.
        assert_eq!(r.results[0], cost.send_overhead);
        assert!(r.results[1] >= cost.send_overhead + cost.wire_time(8 + HEADER_BYTES));
    }

    #[test]
    fn self_send_is_delivered() {
        let r = Spmd::builder().nprocs(1).cost(CostModel::free()).run::<u64, _, _>(|node| {
            node.send(0, 7);
            let got = Cell::new(0u64);
            node.poll_until("self message", |_, env| got.set(env.msg), || got.get() != 0);
            got.get()
        });
        assert_eq!(r.results[0], 7);
    }

    #[test]
    #[should_panic(expected = "wedged waiting for")]
    fn watchdog_fires() {
        Spmd::builder()
            .nprocs(1)
            .cost(CostModel::free())
            .watchdog(Duration::from_millis(50))
            .run::<u64, _, _>(|node| {
                node.poll_until("never", |_, _| {}, || false);
            });
    }

    #[test]
    fn pred_is_reevaluated_only_after_a_handled_message() {
        // The receiver idles through several idle ticks between messages;
        // none of those wakeups may re-run `pred`: once on entry, then
        // once per handled message.
        for backend in [ExecBackend::Threads, ExecBackend::Multiplexed] {
            let r = Spmd::builder()
                .nprocs(2)
                .cost(CostModel::free())
                .backend(backend)
                .workers(2)
                .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for i in 0..3 {
                        std::thread::sleep(IDLE_POLL_CEIL * 3);
                        node.send(1, i + 1);
                    }
                    0
                } else {
                    let (seen, evals) = (Cell::new(0u64), Cell::new(0u64));
                    node.poll_until(
                        "3 msgs",
                        |_, _| seen.set(seen.get() + 1),
                        || {
                            evals.set(evals.get() + 1);
                            seen.get() == 3
                        },
                    );
                    evals.get()
                }
            });
            assert_eq!(r.results[1], 1 + 3, "{backend:?}");
        }
    }

    #[test]
    fn messages_from_a_later_switch_epoch_wait_for_the_commit() {
        // Node 0 has committed switch 1 and sends; node 1 has not. The
        // barrier orders node 1's polls after the message is queued.
        let queued = std::sync::Barrier::new(2);
        let r = Spmd::builder().nprocs(2).cost(CostModel::free()).run::<u64, _, _>(|node| {
            if node.rank() == 0 {
                node.set_switch_epoch(1);
                node.send(1, 7);
                queued.wait();
                0
            } else {
                queued.wait();
                assert!(node.try_recv().is_none(), "held until this node commits");
                node.set_switch_epoch(1);
                node.try_recv().expect("deliverable after the commit").msg
            }
        });
        assert_eq!(r.results[1], 7);
    }

    #[test]
    fn stats_count_messages() {
        let r = Spmd::builder().nprocs(2).cost(CostModel::free()).run::<u64, _, _>(|node| {
            if node.rank() == 0 {
                for i in 0..5 {
                    node.send(1, i + 1);
                }
            } else {
                let seen = Cell::new(0u64);
                node.poll_until("5 messages", |_, _| seen.set(seen.get() + 1), || seen.get() == 5);
            }
        });
        assert_eq!(r.stats.nodes[0].logical_msgs, 5);
        // Coalescing off: every logical message is its own wire message.
        assert_eq!(r.stats.nodes[0].wire_msgs, 5);
        assert_eq!(r.stats.nodes[1].msgs_recv, 5);
        assert_eq!(r.stats.nodes[0].bytes_sent, 5 * (8 + HEADER_BYTES as u64));
        assert_eq!(r.stats.nodes[0].wire_bytes, r.stats.nodes[0].bytes_sent);
    }

    #[test]
    fn fifo_between_pair() {
        let r = Spmd::builder().nprocs(2).cost(CostModel::free()).run::<u64, _, _>(|node| {
            if node.rank() == 0 {
                for i in 0..100 {
                    node.send(1, i);
                }
                Vec::new()
            } else {
                let seen = RefCell::new(Vec::new());
                node.poll_until(
                    "100 msgs",
                    |_, env| seen.borrow_mut().push(env.msg),
                    || seen.borrow().len() == 100,
                );
                seen.into_inner()
            }
        });
        assert_eq!(r.results[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn inbox_messages_absorb_at_pop_not_at_drain() {
        // A burst of queued messages must not advance the clock until each
        // one is actually popped: after the first poll_until returns (its
        // predicate satisfied by message #1), the receiver's clock reflects
        // one receive even though the whole burst is already local.
        let cost = CostModel::cm5();
        let recv_overhead = cost.recv_overhead;
        let r = Spmd::builder().nprocs(2).cost(cost).run::<u64, _, _>(|node| {
            if node.rank() == 0 {
                for i in 0..10 {
                    node.send(1, i + 1);
                }
                0
            } else {
                let got = Cell::new(0u64);
                node.poll_until("first msg", |_, env| got.set(env.msg), || got.get() == 1);
                let after_one = node.stats().msgs_recv;
                assert_eq!(after_one, 1, "only the popped message is absorbed");
                let seen = Cell::new(1u64);
                node.poll_until("rest", |_, _| seen.set(seen.get() + 1), || seen.get() == 10);
                node.stats().msgs_recv
            }
        });
        assert_eq!(r.results[1], 10);
        assert!(recv_overhead > 0);
    }

    #[test]
    fn batch_charges_one_latency_one_header() {
        // Three logical u64 sends coalesce into one wire envelope: the
        // sender pays 3× pack + 1× send_overhead; the receiver's clock
        // covers one flight of (3×8 + HEADER) bytes plus one recv_overhead
        // and two pack (unpack) charges — not three full latencies.
        let cost = CostModel::cm5();
        let c = cost.clone();
        let r = Spmd::builder()
            .nprocs(2)
            .cost(cost.clone())
            .coalesce(CoalescePolicy::Threshold(usize::MAX))
            .run::<u64, _, _>(move |node| {
                if node.rank() == 0 {
                    for i in 0..3 {
                        node.send(1, i + 1);
                    }
                    assert_eq!(node.pending_coalesced(), 3);
                    node.flush_coalesced();
                    let s = node.stats();
                    assert_eq!(s.logical_msgs, 3);
                    assert_eq!(s.wire_msgs, 1);
                    assert_eq!(s.bytes_sent, 3 * (8 + HEADER_BYTES as u64));
                    assert_eq!(s.wire_bytes, 3 * 8 + HEADER_BYTES as u64);
                    node.now()
                } else {
                    let seen = Cell::new(0u64);
                    node.poll_until("3 msgs", |_, _| seen.set(seen.get() + 1), || seen.get() == 3);
                    node.now()
                }
            });
        let send_done = 3 * c.pack_cost + c.send_overhead;
        assert_eq!(r.results[0], send_done);
        let arrival = send_done + c.wire_time(3 * 8 + HEADER_BYTES);
        assert_eq!(r.results[1], arrival + c.recv_overhead + 2 * c.pack_cost);
    }

    #[test]
    fn threshold_flushes_without_an_explicit_wait() {
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::free())
            .coalesce(CoalescePolicy::Threshold(2))
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for i in 0..5 {
                        node.send(1, i + 1);
                    }
                    // 2+2 flushed by the threshold; one message still queued.
                    let pending = node.pending_coalesced() as u64;
                    node.flush_coalesced();
                    (pending, node.stats().wire_msgs)
                } else {
                    let seen = Cell::new(0u64);
                    node.poll_until("5 msgs", |_, _| seen.set(seen.get() + 1), || seen.get() == 5);
                    (0, 0)
                }
            });
        assert_eq!(r.results[0], (1, 3));
        assert_eq!(r.stats.nodes[0].logical_msgs, 5);
        assert_eq!(r.stats.nodes[1].msgs_recv, 5);
    }

    #[test]
    fn coalesced_fifo_between_pair() {
        // Order must survive batching, including across threshold flushes
        // interleaved with wait-point flushes.
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::free())
            .coalesce(CoalescePolicy::Threshold(7))
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    for i in 0..100 {
                        node.send(1, i);
                    }
                    Vec::new()
                } else {
                    let seen = RefCell::new(Vec::new());
                    node.poll_until(
                        "100 msgs",
                        |_, env| seen.borrow_mut().push(env.msg),
                        || seen.borrow().len() == 100,
                    );
                    seen.into_inner()
                }
            });
        assert_eq!(r.results[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn wait_points_flush_so_request_reply_cannot_deadlock() {
        // Request/reply ping-pong under an unreachable threshold: nothing
        // flushes until a node actually blocks, so this deadlocks unless
        // poll_until flushes on entry (the request) and after each handled
        // message (the reply, sent from handler context).
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::free())
            .coalesce(CoalescePolicy::Threshold(usize::MAX))
            .watchdog(Duration::from_secs(5))
            .run::<u64, _, _>(|node| {
                let done = Cell::new(0u64);
                if node.rank() == 0 {
                    node.send(1, 10);
                    node.poll_until("reply", |_, env| done.set(env.msg), || done.get() != 0);
                } else {
                    node.poll_until(
                        "request",
                        |n, env| {
                            n.send(0, env.msg + 1);
                            done.set(env.msg);
                        },
                        || done.get() != 0,
                    );
                }
                done.get()
            });
        assert_eq!(r.results, vec![11, 10]);
    }

    #[test]
    fn set_coalesce_flushes_before_switching() {
        let r = Spmd::builder()
            .nprocs(2)
            .cost(CostModel::free())
            .coalesce(CoalescePolicy::Threshold(usize::MAX))
            .run::<u64, _, _>(|node| {
                if node.rank() == 0 {
                    node.send(1, 1);
                    node.send(1, 2);
                    assert_eq!(node.pending_coalesced(), 2);
                    node.set_coalesce(CoalescePolicy::Off);
                    assert_eq!(node.pending_coalesced(), 0);
                    node.send(1, 3);
                    let s = node.stats();
                    (s.logical_msgs, s.wire_msgs)
                } else {
                    let seen = Cell::new(0u64);
                    node.poll_until("3 msgs", |_, _| seen.set(seen.get() + 1), || seen.get() == 3);
                    (0, 0)
                }
            });
        // Two buffered messages went out as one batch, then one single.
        assert_eq!(r.results[0], (3, 2));
    }
}
