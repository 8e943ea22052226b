//! The timing adapter: a [`Dsm`] that forwards every call to the Ace
//! runtime and books, per call class, the host nanoseconds spent inside
//! the call and the node's simulated-clock delta across it.
//!
//! Time is booked as *self* time: a `Dsm` call made from inside another
//! call's closure (a `with` kernel that charges flops, say) is booked to
//! its own class and subtracted from the enclosing call. So on every node
//! the simulated deltas summed over all classes equal the node's clock
//! advance from body entry to body exit, which [`NodeLedger::balanced`]
//! checks exactly.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use ace_apps::{AceDsm, Dsm};
use ace_core::Pod;
use ace_protocols::ProtoSpec;

/// The classes of `Dsm` calls the ledger books separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// map / unmap / start_read / end_read / start_write / end_write.
    Annot,
    /// with / with_mut, including the kernel closure.
    Access,
    /// barrier / lock / unlock.
    Sync,
    /// bcast / gather / allreduce.
    Coll,
    /// new_space / change_protocol / gmalloc.
    Alloc,
    /// charge_flops / charge_mem.
    Compute,
}

/// Number of [`Class`]es.
pub const CLASSES: usize = 6;

/// Calls, host self-time and simulated self-time of one class on one node.
#[derive(Debug, Default, Clone, Copy)]
pub struct Book {
    pub calls: u64,
    pub host_ns: u64,
    pub sim_ns: u64,
}

/// Marks a span with no enclosing span.
pub const NO_PARENT: u32 = u32::MAX;

/// One `Dsm` call. Host times are nanoseconds since the simulation's
/// launch; simulated times are the node's virtual clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub node: u32,
    pub sim: u32,
    pub host_start: u64,
    pub host_end: u64,
    pub sim_start: u64,
    pub sim_end: u64,
    /// Index of the enclosing span in the same node's span list.
    pub parent: u32,
}

/// Everything one node booked during one simulation.
#[derive(Debug)]
pub struct NodeLedger {
    pub books: [Book; CLASSES],
    /// Virtual-clock advance from body entry to body exit.
    pub clock_advance: u64,
    /// Host time from body entry to body exit.
    pub body_host_ns: u64,
    /// Host time inside top-level `Dsm` calls.
    pub calls_host_ns: u64,
    pub spans: Vec<Span>,
}

impl NodeLedger {
    /// The simulated deltas of all classes add up to the clock advance.
    pub fn balanced(&self) -> bool {
        self.books.iter().map(|b| b.sim_ns).sum::<u64>() == self.clock_advance
    }
}

struct Frame {
    span: u32,
    child_host: u64,
    child_sim: u64,
}

/// The adapter. Lives on one node's thread for one simulation.
pub struct Timed<'d, 'a, 'n> {
    inner: &'d AceDsm<'a, 'n>,
    origin: Instant,
    sim: u32,
    record_spans: bool,
    entry_host: u64,
    entry_clock: u64,
    books: RefCell<[Book; CLASSES]>,
    stack: RefCell<Vec<Frame>>,
    calls_host: Cell<u64>,
    spans: RefCell<Vec<Span>>,
}

impl<'d, 'a, 'n> Timed<'d, 'a, 'n> {
    /// Wrap `inner` at body entry. `origin` is the simulation's launch
    /// instant; spans are kept only when `record_spans` is set.
    pub fn new(inner: &'d AceDsm<'a, 'n>, origin: Instant, sim: u32, record_spans: bool) -> Self {
        Timed {
            inner,
            origin,
            sim,
            record_spans,
            entry_host: since(origin),
            entry_clock: inner.rt().node().now(),
            books: RefCell::new([Book::default(); CLASSES]),
            stack: RefCell::new(Vec::new()),
            calls_host: Cell::new(0),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Close the ledger at body exit.
    pub fn finish(self) -> NodeLedger {
        NodeLedger {
            books: self.books.into_inner(),
            clock_advance: self.inner.rt().node().now() - self.entry_clock,
            body_host_ns: since(self.origin) - self.entry_host,
            calls_host_ns: self.calls_host.get(),
            spans: self.spans.into_inner(),
        }
    }

    fn timed<R>(&self, class: Class, name: &'static str, f: impl FnOnce() -> R) -> R {
        let node = self.inner.rt().node();
        let parent = self.stack.borrow().last().map_or(NO_PARENT, |fr| fr.span);
        let span = if self.record_spans {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                node: node.rank() as u32,
                sim: self.sim,
                host_start: 0,
                host_end: 0,
                sim_start: 0,
                sim_end: 0,
                parent,
            });
            (spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.borrow_mut().push(Frame { span, child_host: 0, child_sim: 0 });
        let (h0, s0) = (since(self.origin), node.now());
        let r = f();
        let (h1, s1) = (since(self.origin), node.now());
        let (dh, ds) = (h1 - h0, s1 - s0);
        let frame = {
            let mut stack = self.stack.borrow_mut();
            let frame = stack.pop().expect("the frame pushed above");
            match stack.last_mut() {
                Some(outer) => {
                    outer.child_host += dh;
                    outer.child_sim += ds;
                }
                None => self.calls_host.set(self.calls_host.get() + dh),
            }
            frame
        };
        let book = &mut self.books.borrow_mut()[class as usize];
        book.calls += 1;
        book.host_ns += dh - frame.child_host;
        book.sim_ns += ds - frame.child_sim;
        if self.record_spans {
            let s = &mut self.spans.borrow_mut()[span as usize];
            (s.host_start, s.host_end, s.sim_start, s.sim_end) = (h0, h1, s0, s1);
        }
        r
    }
}

/// Host nanoseconds since `origin`.
pub fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

impl Dsm for Timed<'_, '_, '_> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }
    fn new_space(&self, spec: ProtoSpec) -> u32 {
        self.timed(Class::Alloc, "new_space", || self.inner.new_space(spec))
    }
    fn change_protocol(&self, space: u32, spec: ProtoSpec) {
        self.timed(Class::Alloc, "change_protocol", || self.inner.change_protocol(space, spec))
    }
    fn gmalloc_words(&self, space: u32, words: usize) -> u64 {
        self.timed(Class::Alloc, "gmalloc", || self.inner.gmalloc_words(space, words))
    }
    fn map(&self, r: u64) {
        self.timed(Class::Annot, "map", || self.inner.map(r))
    }
    fn unmap(&self, r: u64) {
        self.timed(Class::Annot, "unmap", || self.inner.unmap(r))
    }
    fn start_read(&self, r: u64) {
        self.timed(Class::Annot, "start_read", || self.inner.start_read(r))
    }
    fn end_read(&self, r: u64) {
        self.timed(Class::Annot, "end_read", || self.inner.end_read(r))
    }
    fn start_write(&self, r: u64) {
        self.timed(Class::Annot, "start_write", || self.inner.start_write(r))
    }
    fn end_write(&self, r: u64) {
        self.timed(Class::Annot, "end_write", || self.inner.end_write(r))
    }
    fn with<T: Pod, R>(&self, r: u64, f: impl FnOnce(&[T]) -> R) -> R {
        self.timed(Class::Access, "with", || self.inner.with(r, f))
    }
    fn with_mut<T: Pod, R>(&self, r: u64, f: impl FnOnce(&mut [T]) -> R) -> R {
        self.timed(Class::Access, "with_mut", || self.inner.with_mut(r, f))
    }
    fn barrier(&self, space: u32) {
        self.timed(Class::Sync, "barrier", || self.inner.barrier(space))
    }
    fn lock(&self, r: u64) {
        self.timed(Class::Sync, "lock", || self.inner.lock(r))
    }
    fn unlock(&self, r: u64) {
        self.timed(Class::Sync, "unlock", || self.inner.unlock(r))
    }
    fn bcast(&self, root: usize, vals: &[u64]) -> Arc<[u64]> {
        self.timed(Class::Coll, "bcast", || self.inner.bcast(root, vals))
    }
    fn gather(&self, root: usize, vals: &[u64]) -> Option<Vec<Arc<[u64]>>> {
        self.timed(Class::Coll, "gather", || self.inner.gather(root, vals))
    }
    fn allreduce_u64(&self, val: u64, op: fn(u64, u64) -> u64) -> u64 {
        self.timed(Class::Coll, "allreduce_u64", || self.inner.allreduce_u64(val, op))
    }
    fn allreduce_f64(&self, val: f64, op: fn(f64, f64) -> f64) -> f64 {
        self.timed(Class::Coll, "allreduce_f64", || self.inner.allreduce_f64(val, op))
    }
    fn charge_flops(&self, n: u64) {
        self.timed(Class::Compute, "charge_flops", || self.inner.charge_flops(n))
    }
    fn charge_mem(&self, n: u64) {
        self.timed(Class::Compute, "charge_mem", || self.inner.charge_mem(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_apps::runner::launch_ace;
    use ace_core::CostModel;
    use std::sync::Mutex;

    #[test]
    fn nested_calls_book_self_time_and_balance() {
        let ledgers = Mutex::new(Vec::new());
        let origin = Instant::now();
        launch_ace(2, CostModel::cm5(), |d| {
            let t = Timed::new(d, origin, 0, true);
            let s = t.new_space(ProtoSpec::Sc);
            let r = t.gmalloc::<u64>(s, 1);
            t.map(r);
            t.start_write(r);
            t.with_mut::<u64, _>(r, |v| {
                v[0] = 1;
                t.charge_flops(10);
            });
            t.end_write(r);
            t.barrier(s);
            ledgers.lock().unwrap().push(t.finish());
            0.0
        });
        for l in ledgers.into_inner().unwrap() {
            assert!(l.balanced(), "{l:?}");
            assert_eq!(l.books[Class::Compute as usize].calls, 1);
            assert_eq!(l.books[Class::Compute as usize].sim_ns, 10 * CostModel::cm5().flop);
            let with_mut = l.spans.iter().position(|s| s.name == "with_mut").unwrap();
            let flops = l.spans.iter().find(|s| s.name == "charge_flops").unwrap();
            assert_eq!(flops.parent, with_mut as u32);
        }
    }
}
