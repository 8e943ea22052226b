//! Cooperative node scheduling: multiplex many simulated nodes over a
//! fixed pool of execution slots.
//!
//! The substrate's original design gave every simulated node its own OS
//! thread and let the kernel schedule all of them. That is faithful and
//! simple, but it stops scaling long before the node counts where the
//! protocol-customization story gets interesting: thousands of runnable
//! threads thrash the kernel scheduler, and a machine-wide barrier turns
//! into a context-switch storm.
//!
//! The multiplexed backend keeps one OS thread per node (so node state can
//! stay `Cell`/`RefCell` and app closures can block naturally at any call
//! depth) but gates *execution* through a fixed number of slots — one per
//! host core by default. A node holds a slot while it computes and gives
//! it up at exactly one point: when `poll_until` finds nothing to handle
//! (after flushing its coalescing buffers), the node goes **idle**. At any
//! instant at most `workers` node threads are runnable; every idle node is
//! parked with no slot held.
//!
//! Wakeup is sender-driven. Going idle happens under the gate lock in
//! three steps: mark the rank idle, re-poll the node's channel without
//! blocking, and only if that finds nothing hand the slot to the queue
//! head. A sender pushes its wire envelope first and then calls
//! `SlotHandle::notify` for the destination; if the destination is idle,
//! `notify` takes it off the idle list and grants it a free slot or
//! queues it FIFO. A SeqCst fence on each side (after the idle mark, after
//! the push) closes the lost-wakeup race: either the sender sees the idle
//! mark, or the re-poll sees the message. So an idle node is woken exactly
//! once, already holding a slot, with a message waiting — it never queues
//! for a slot just to find out whether it has work.
//!
//! Slot handoff is FIFO: a release grants the slot directly to the oldest
//! waiter instead of returning it to the free pool, so no node starves
//! even when the machine is oversubscribed a hundredfold. An idle node
//! still wakes on a slow tick to check for peer death and the watchdog;
//! those checks run off-slot and leave the gate untouched unless they
//! fail. The per-node stacks are shrunk (see `MUX_STACK_BYTES`) so
//! thousands of mostly-parked threads stay cheap.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How simulated nodes map onto OS execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// One freely-running OS thread per node (the legacy substrate).
    /// Exact at small scale; collapses past a few hundred nodes.
    #[default]
    Threads,
    /// One small-stacked thread per node, cooperatively multiplexed over
    /// a worker-sized pool of execution slots (see module docs). Required
    /// for the 256–4096 node runs; observationally equivalent to
    /// `Threads` (same messages, same virtual clocks) because nodes only
    /// yield where they already blocked.
    Multiplexed,
}

/// Stack size for node threads under [`ExecBackend::Multiplexed`]. The
/// apps recurse only logarithmically (Barnes' octree walk), so 1 MiB is
/// deep water; at 4096 nodes this is 4 GiB of *virtual* reservation, of
/// which only the touched pages materialize.
pub(crate) const MUX_STACK_BYTES: usize = 1 << 20;

/// Default worker-pool width: one slot per host core.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// One rank's standing at the gate. Both flags are written only under
/// the gate lock; `idle` is also read lock-free by `notify`'s fast path
/// (ordered by the paired fences), `granted` by the rank's own thread
/// while it parks (Release on grant, Acquire on wake).
struct Waiter {
    /// The rank's node thread, registered by [`SlotHandle::new`].
    thread: OnceLock<Thread>,
    /// The rank gave its slot up with nothing to handle and waits for a
    /// sender's `notify`.
    idle: AtomicBool,
    /// A slot has been handed to this rank.
    granted: AtomicBool,
}

struct Gate {
    free: usize,
    /// Ranks waiting for a slot, oldest first.
    queue: VecDeque<usize>,
}

/// The execution-slot gate shared by every node of one machine.
///
/// A counting semaphore with a FIFO waiter queue and a per-rank idle
/// list, built on `park`/`unpark` so an idle machine burns no CPU. The
/// mutex guards only the tiny grant/queue state — it is held for a
/// handful of instructions per slot transfer, never across a park.
pub(crate) struct Scheduler {
    gate: Mutex<Gate>,
    waiters: Box<[Waiter]>,
    /// Unparks issued, so tests can pin "woken exactly once".
    #[cfg(test)]
    unparks: std::sync::atomic::AtomicUsize,
}

impl Scheduler {
    pub(crate) fn new(workers: usize, nprocs: usize) -> Self {
        Scheduler {
            gate: Mutex::new(Gate { free: workers.max(1), queue: VecDeque::new() }),
            waiters: (0..nprocs)
                .map(|_| Waiter {
                    thread: OnceLock::new(),
                    idle: AtomicBool::new(false),
                    granted: AtomicBool::new(false),
                })
                .collect(),
            #[cfg(test)]
            unparks: Default::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Gate> {
        // Nothing that can panic runs under the lock, so poisoning means a
        // bug in this module.
        self.gate.lock().expect("slot gate poisoned")
    }

    /// Take a free slot for `rank`, or queue it; returns whether it got
    /// one now. Runs under the gate lock.
    fn claim(&self, g: &mut Gate, rank: usize) -> bool {
        if g.free > 0 {
            g.free -= 1;
            self.waiters[rank].granted.store(true, Ordering::Release);
            true
        } else {
            g.queue.push_back(rank);
            false
        }
    }

    /// Give up a slot: hand it directly to the queue head (so the slot
    /// never revisits the free pool and waiters are served strictly FIFO)
    /// or return it to the pool. Runs under the gate lock; returns the
    /// rank to unpark once the lock is dropped.
    fn pass_on(&self, g: &mut Gate) -> Option<usize> {
        match g.queue.pop_front() {
            Some(rank) => {
                self.waiters[rank].granted.store(true, Ordering::Release);
                Some(rank)
            }
            None => {
                g.free += 1;
                None
            }
        }
    }

    fn unpark(&self, rank: usize) {
        #[cfg(test)]
        self.unparks.fetch_add(1, Ordering::SeqCst);
        if let Some(t) = self.waiters[rank].thread.get() {
            t.unpark();
        }
    }

    fn acquire(&self, rank: usize) {
        let w = &self.waiters[rank];
        {
            let mut g = self.lock();
            w.granted.store(false, Ordering::Relaxed);
            if self.claim(&mut g, rank) {
                return;
            }
        }
        self.wait_granted(rank, None);
    }

    fn release(&self) {
        let next = self.pass_on(&mut self.lock());
        if let Some(rank) = next {
            self.unpark(rank);
        }
    }

    /// A message was just pushed to `rank`'s channel: if the rank is idle,
    /// take it off the idle list and grant it a free slot or queue it.
    fn notify(&self, rank: usize) {
        let w = &self.waiters[rank];
        // Pairs with the fence in `go_idle`: the push before this fence and
        // the re-poll after that one cannot both miss each other.
        fence(Ordering::SeqCst);
        if !w.idle.load(Ordering::Relaxed) {
            return;
        }
        let granted = {
            let mut g = self.lock();
            if !w.idle.swap(false, Ordering::Relaxed) {
                return;
            }
            self.claim(&mut g, rank)
        };
        if granted {
            self.unpark(rank);
        }
    }

    /// Park until `rank` is granted a slot or `deadline` passes; returns
    /// whether the grant landed. `park` may return spuriously and a grant
    /// may land before the park (the token is buffered), so this loops on
    /// the flag.
    fn wait_granted(&self, rank: usize, deadline: Option<Instant>) -> bool {
        let w = &self.waiters[rank];
        loop {
            if w.granted.load(Ordering::Acquire) {
                return true;
            }
            match deadline {
                None => std::thread::park(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return false;
                    }
                    std::thread::park_timeout(d - now);
                }
            }
        }
    }
}

/// A node thread's handle on the slot gate. Owned by the thread that
/// created it (not `Sync`); the `held` flag makes `acquire`/`release`
/// idempotent so the exit-path release is safe no matter where a panic
/// unwound from.
pub(crate) struct SlotHandle {
    sched: Arc<Scheduler>,
    rank: usize,
    held: Cell<bool>,
}

impl SlotHandle {
    /// Register the calling thread as `rank`'s node thread.
    pub(crate) fn new(sched: Arc<Scheduler>, rank: usize) -> Self {
        let registered = sched.waiters[rank].thread.set(std::thread::current());
        assert!(registered.is_ok(), "rank {rank} registered twice at the slot gate");
        SlotHandle { sched, rank, held: Cell::new(false) }
    }

    /// Block until this thread holds an execution slot.
    pub(crate) fn acquire(&self) {
        if !self.held.get() {
            self.sched.acquire(self.rank);
            self.held.set(true);
        }
    }

    /// Give the slot up (at thread exit).
    pub(crate) fn release(&self) {
        if self.held.get() {
            self.held.set(false);
            self.sched.release();
        }
    }

    /// Tell the gate a message was just sent to `dst` (see
    /// [`Scheduler::notify`]). A no-op unless `dst` is idle.
    pub(crate) fn notify(&self, dst: usize) {
        self.sched.notify(dst);
    }

    /// Go idle: under the gate lock, mark this rank idle, run `repoll`
    /// (a non-blocking receive) and, only if it finds nothing, hand the
    /// slot on. `Some` means a message turned up in the re-poll and the
    /// slot is still held; `None` means the rank is idle, off-slot, and
    /// must [`wait_idle`](Self::wait_idle) for a sender's grant.
    pub(crate) fn go_idle<T>(&self, repoll: impl FnOnce() -> Option<T>) -> Option<T> {
        debug_assert!(self.held.get(), "only a running node can go idle");
        let sched = &self.sched;
        let w = &sched.waiters[self.rank];
        let next = {
            let mut g = sched.lock();
            w.granted.store(false, Ordering::Relaxed);
            w.idle.store(true, Ordering::Relaxed);
            // Pairs with the fence in `notify` (see there).
            fence(Ordering::SeqCst);
            if let Some(got) = repoll() {
                w.idle.store(false, Ordering::Relaxed);
                return Some(got);
            }
            self.held.set(false);
            sched.pass_on(&mut g)
        };
        if let Some(rank) = next {
            sched.unpark(rank);
        }
        None
    }

    /// Park, idle, for at most `tick`. Returns `true` once a sender's
    /// `notify` has granted this rank a slot (a message is waiting), or
    /// `false` on timeout with the gate untouched — the rank stays idle
    /// and off-slot.
    pub(crate) fn wait_idle(&self, tick: Duration) -> bool {
        let granted = self.sched.wait_granted(self.rank, Some(Instant::now() + tick));
        self.held.set(granted);
        granted
    }

    /// End an idle wait without a message (to fail loudly): claim a slot
    /// exactly as a sender's `notify` would — or take the grant a racing
    /// `notify` already arranged — and block until it is held.
    pub(crate) fn leave_idle(&self) {
        self.sched.notify(self.rank);
        self.sched.wait_granted(self.rank, None);
        self.held.set(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn free(sched: &Scheduler) -> usize {
        sched.lock().free
    }

    fn queued(sched: &Scheduler) -> Vec<usize> {
        sched.lock().queue.iter().copied().collect()
    }

    #[test]
    fn gate_bounds_concurrency() {
        let sched = Arc::new(Scheduler::new(3, 24));
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for rank in 0..24 {
                let sched = Arc::clone(&sched);
                let live = Arc::clone(&live);
                let peak = Arc::clone(&peak);
                scope.spawn(move || {
                    let slot = SlotHandle::new(sched, rank);
                    for _ in 0..50 {
                        slot.acquire();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::hint::black_box(now);
                        live.fetch_sub(1, Ordering::SeqCst);
                        slot.release();
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "slots leaked: peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn release_is_idempotent_and_acquire_reentrant() {
        let sched = Arc::new(Scheduler::new(1, 1));
        let slot = SlotHandle::new(Arc::clone(&sched), 0);
        slot.acquire();
        slot.acquire(); // no-op: already held
        slot.release();
        slot.release(); // no-op: not held
        assert_eq!(free(&sched), 1, "slot returned exactly once");
    }

    #[test]
    fn oversubscribed_fifo_makes_progress() {
        // 64 "nodes" over 2 slots, each yielding many times: everyone
        // must finish (no starvation, no lost wakeup).
        let sched = Arc::new(Scheduler::new(2, 64));
        let done = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for rank in 0..64 {
                let sched = Arc::clone(&sched);
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    let slot = SlotHandle::new(sched, rank);
                    for _ in 0..100 {
                        slot.acquire();
                        slot.release();
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn notify_grants_an_idle_node_a_slot_and_unparks_it_once() {
        let sched = Arc::new(Scheduler::new(1, 2));
        let (idle_tx, idle_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let s = Arc::clone(&sched);
            let idler = scope.spawn(move || {
                let slot = SlotHandle::new(s, 1);
                slot.acquire();
                assert!(slot.go_idle(|| None::<()>).is_none());
                idle_tx.send(()).unwrap();
                // A long tick: only the grant can end this wait in time.
                let woke = slot.wait_idle(Duration::from_secs(30));
                slot.release();
                woke
            });
            idle_rx.recv().unwrap();
            assert_eq!(free(&sched), 1, "going idle hands the slot back");
            let before = sched.unparks.load(Ordering::SeqCst);
            sched.notify(1);
            sched.notify(1); // already off the idle list: no second grant
            assert_eq!(sched.unparks.load(Ordering::SeqCst) - before, 1, "woken exactly once");
            assert!(idler.join().unwrap(), "the idle node woke holding a slot");
        });
        assert_eq!(free(&sched), 1);
        assert!(queued(&sched).is_empty());
    }

    #[test]
    fn notify_queues_an_idle_node_when_no_slot_is_free() {
        let sched = Arc::new(Scheduler::new(1, 2));
        let (idle_tx, idle_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let s = Arc::clone(&sched);
            let idler = scope.spawn(move || {
                let slot = SlotHandle::new(s, 1);
                slot.acquire();
                assert!(slot.go_idle(|| None::<()>).is_none());
                idle_tx.send(()).unwrap();
                let woke = slot.wait_idle(Duration::from_secs(30));
                slot.release();
                woke
            });
            idle_rx.recv().unwrap();
            let runner = SlotHandle::new(Arc::clone(&sched), 0);
            runner.acquire();
            sched.notify(1);
            assert_eq!(queued(&sched), vec![1], "no free slot: the idle node queues");
            runner.release(); // direct handoff to the queue head
            assert!(idler.join().unwrap());
        });
        assert_eq!(free(&sched), 1);
    }

    #[test]
    fn notify_to_a_running_node_is_a_no_op() {
        let sched = Arc::new(Scheduler::new(2, 2));
        let slot = SlotHandle::new(Arc::clone(&sched), 0);
        slot.acquire();
        let before = sched.unparks.load(Ordering::SeqCst);
        sched.notify(0);
        assert_eq!(free(&sched), 1);
        assert!(queued(&sched).is_empty());
        assert_eq!(sched.unparks.load(Ordering::SeqCst), before);
        slot.release();
        assert_eq!(free(&sched), 2);
    }

    #[test]
    fn idle_tick_timeout_leaves_the_gate_untouched() {
        let sched = Arc::new(Scheduler::new(2, 2));
        let slot = SlotHandle::new(Arc::clone(&sched), 0);
        slot.acquire();
        assert!(slot.go_idle(|| None::<()>).is_none());
        assert_eq!(free(&sched), 2);
        for _ in 0..3 {
            assert!(!slot.wait_idle(Duration::from_millis(5)), "no notify, no grant");
            assert_eq!(free(&sched), 2, "a timed-out tick takes no slot");
            assert!(queued(&sched).is_empty(), "a timed-out tick does not queue");
        }
        // Failing out of the wait claims a slot like a notify would.
        slot.leave_idle();
        assert_eq!(free(&sched), 1);
        slot.release();
        assert_eq!(free(&sched), 2);
    }

    #[test]
    fn repoll_hit_keeps_the_slot() {
        let sched = Arc::new(Scheduler::new(1, 1));
        let slot = SlotHandle::new(Arc::clone(&sched), 0);
        slot.acquire();
        assert_eq!(slot.go_idle(|| Some(7)), Some(7));
        assert_eq!(free(&sched), 0, "a message found by the re-poll keeps the slot");
        sched.notify(0); // not idle: no grant, no queue
        assert!(queued(&sched).is_empty());
        slot.release();
        assert_eq!(free(&sched), 1);
    }
}
