//! The real-socket backend: the same machine over TCP or Unix-domain
//! stream sockets, across OS processes.
//!
//! Topology is a full mesh. A run bootstraps in two phases:
//!
//! 1. **Rendezvous.** Every rank first binds its own *mesh listener*,
//!    then rank 0 additionally binds the rendezvous address from
//!    [`SocketCfg`]. Each other rank connects there and sends
//!    `Join { want_rank, listen_addr }`; once all `nprocs` ranks are
//!    present, rank 0 answers each with `Welcome { rank, addrs }` — the
//!    assigned rank plus every rank's mesh address — and closes the
//!    rendezvous listener.
//! 2. **Mesh.** Rank `i` connects to every rank `j < i` (announcing
//!    itself with `Hello { rank }`) and accepts connections from every
//!    `j > i`. Listeners come down once the mesh is complete; there is no
//!    reconnect path — a lost connection is a dead peer.
//!
//! After the handshake each endpoint runs one **writer thread** and one
//! **reader thread** per peer. Writers own the send half: they encode
//! [`Wire`] envelopes with [`WireCodec`], frame them with a `u32` length
//! prefix, and batch flushes by draining their feed channel before each
//! `flush` — per-pair FIFO holds because one FIFO channel feeds one
//! ordered byte stream. Readers decode frames into the endpoint's inbox
//! channel, which the node parks on exactly as it parks on the in-process
//! channel.
//!
//! Failure mapping is reconnect-free fail-fast, same contract as the
//! in-process backend: a panicking node broadcasts a `Failed` frame
//! (rank + panic message) to every peer before closing, and an endpoint
//! whose connection dies *without* a `Goodbye` frame records the peer as
//! failed — both land on the machine-wide `FailBoard` that
//! `Node::check_peers` polls.

use std::cell::{Cell, RefCell};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::envelope::Wire;
use crate::transport::codec::{put_string, CodecError, WireCodec, WireReader};
use crate::transport::{FailBoard, Transport, TryWireError, WaitWireError};

/// Rank cap for socket machines: the mesh needs O(n²) descriptors
/// machine-wide and 2(n-1) I/O threads per rank, so the backend stays
/// honest about what a full mesh can carry. (In-process machines go to
/// [`crate::MAX_NODES`].)
pub const SOCKET_MAX_RANKS: usize = 64;

/// Measured fixed framing overhead per wire envelope on this backend:
/// 4-byte length prefix + 1 frame kind + 1 wire tag + 4 source rank +
/// 8 send time + 4 byte count + 1 vector-clock presence flag. Reported
/// through [`Transport::header_bytes`], so byte *accounting* under
/// `Socket` reflects real framing while logical message counts stay
/// identical to the in-process backend.
pub const SOCKET_HEADER_BYTES: usize = 23;

/// Hard ceiling on a received frame's body, so a corrupt length prefix
/// cannot ask for gigabytes.
const MAX_FRAME: usize = 1 << 28;

/// Poll interval for deadline-bounded accepts and connect retries.
const HANDSHAKE_POLL: Duration = Duration::from_millis(2);

/// Frame kinds (first body byte).
const FR_WIRE: u8 = 0;
const FR_FAILED: u8 = 1;
const FR_GOODBYE: u8 = 2;
const HS_JOIN: u8 = 10;
const HS_WELCOME: u8 = 11;
const HS_HELLO: u8 = 12;

/// Per-run uniquifier for auto-generated rendezvous and mesh-listener
/// paths (several loopback machines may run concurrently in one test
/// process).
static PATH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A socket address, either family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SockAddr {
    /// A TCP `host:port`, e.g. `"127.0.0.1:7000"`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// Pick a fresh Unix-domain path under the temp directory at run
    /// time. Only valid for single-process (loopback) machines: other
    /// processes cannot know the generated path, so
    /// [`crate::MachineBuilder::spawn_rank`] rejects it.
    Auto,
}

impl SockAddr {
    fn is_tcp(&self) -> bool {
        matches!(self, SockAddr::Tcp(_))
    }
}

/// Socket-backend configuration: where ranks rendezvous and how long the
/// bootstrap may take.
#[derive(Debug, Clone)]
pub struct SocketCfg {
    /// The rendezvous address rank 0 listens on and every other rank
    /// connects to. The mesh uses the same address family.
    pub rendezvous: SockAddr,
    /// Bound on the whole bootstrap (rendezvous plus mesh). Processes of
    /// a multi-process launch may start seconds apart; connects retry
    /// until this deadline.
    pub handshake_timeout: Duration,
}

impl SocketCfg {
    /// Loopback configuration: auto-generated Unix-domain paths, for
    /// single-process runs (tests, the equivalence suite).
    pub fn loopback() -> Self {
        SocketCfg { rendezvous: SockAddr::Auto, handshake_timeout: Duration::from_secs(30) }
    }

    /// Rendezvous over a Unix-domain socket at `path`.
    pub fn unix(path: impl Into<PathBuf>) -> Self {
        SocketCfg { rendezvous: SockAddr::Unix(path.into()), ..Self::loopback() }
    }

    /// Rendezvous over TCP at `addr` (`host:port`).
    pub fn tcp(addr: impl Into<String>) -> Self {
        SocketCfg { rendezvous: SockAddr::Tcp(addr.into()), ..Self::loopback() }
    }

    /// Override the bootstrap deadline.
    pub fn handshake_timeout(mut self, d: Duration) -> Self {
        self.handshake_timeout = d;
        self
    }

    /// Resolve [`SockAddr::Auto`] to a concrete per-run Unix path.
    pub(crate) fn resolved(&self) -> SocketCfg {
        match &self.rendezvous {
            SockAddr::Auto => {
                let path = std::env::temp_dir().join(format!(
                    "ace-rdv-{}-{}",
                    std::process::id(),
                    PATH_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                SocketCfg { rendezvous: SockAddr::Unix(path), ..self.clone() }
            }
            _ => self.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Family-agnostic streams and listeners
// ---------------------------------------------------------------------------

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nb),
            Stream::Unix(s) => s.set_nonblocking(nb),
        }
    }

    fn shutdown_write(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Bind the rendezvous listener at the configured address. A stale
    /// Unix socket file from a crashed previous run is removed first.
    fn bind_rendezvous(addr: &SockAddr) -> io::Result<Listener> {
        match addr {
            SockAddr::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a.as_str())?)),
            SockAddr::Unix(p) => {
                let _ = std::fs::remove_file(p);
                Ok(Listener::Unix(UnixListener::bind(p)?, p.clone()))
            }
            SockAddr::Auto => unreachable!("Auto is resolved before binding"),
        }
    }

    /// Bind this rank's mesh listener in the same family as the
    /// rendezvous: an ephemeral loopback TCP port, or a derived
    /// per-rank Unix path next to the rendezvous path.
    fn bind_mesh(rendezvous: &SockAddr, rank: usize) -> io::Result<Listener> {
        if rendezvous.is_tcp() {
            return Ok(Listener::Tcp(TcpListener::bind("127.0.0.1:0")?));
        }
        let base = match rendezvous {
            SockAddr::Unix(p) => p.clone(),
            _ => unreachable!("Auto is resolved before binding"),
        };
        let path = base.with_file_name(format!(
            "{}.m{rank}.{}.{}",
            base.file_name().and_then(|s| s.to_str()).unwrap_or("ace"),
            std::process::id(),
            PATH_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_file(&path);
        Ok(Listener::Unix(UnixListener::bind(&path)?, path))
    }

    /// The address string peers dial: `tcp:host:port` or `unix:path`.
    fn advertised(&self) -> io::Result<String> {
        Ok(match self {
            Listener::Tcp(l) => format!("tcp:{}", l.local_addr()?),
            Listener::Unix(_, p) => format!("unix:{}", p.display()),
        })
    }

    /// Accept one connection before `deadline` (polling non-blocking so a
    /// wedged bootstrap cannot hang forever). The accepted stream is
    /// returned in blocking mode.
    fn accept_deadline(&self, deadline: Instant) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
        }
        loop {
            let got = match self {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            };
            match got {
                Ok(s) => {
                    s.set_nonblocking(false)?;
                    return Ok(s);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "handshake accept timed out",
                        ));
                    }
                    std::thread::sleep(HANDSHAKE_POLL);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Close the listener, removing a Unix socket file.
    fn cleanup(self) {
        if let Listener::Unix(_, p) = self {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Dial an advertised `tcp:`/`unix:` address, retrying until `deadline`
/// (the peer's listener may not be up yet in a multi-process launch).
fn connect(addr: &str, deadline: Instant) -> io::Result<Stream> {
    loop {
        let got = if let Some(a) = addr.strip_prefix("tcp:") {
            TcpStream::connect(a).map(Stream::Tcp)
        } else if let Some(p) = addr.strip_prefix("unix:") {
            UnixStream::connect(p).map(Stream::Unix)
        } else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unparseable peer address {addr:?}"),
            ));
        };
        match got {
            Ok(s) => return Ok(s),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionRefused
                        | io::ErrorKind::NotFound
                        | io::ErrorKind::AddrNotAvailable
                ) =>
            {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("connect to {addr} timed out: {e}"),
                    ));
                }
                std::thread::sleep(HANDSHAKE_POLL);
            }
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; n];
    r.read_exact(&mut body)?;
    Ok(body)
}

fn bad_frame(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed handshake frame: {e}"))
}

fn remaining(deadline: Instant) -> io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(io::Error::new(io::ErrorKind::TimedOut, "handshake deadline expired"));
    }
    Ok(left)
}

// ---------------------------------------------------------------------------
// Rendezvous
// ---------------------------------------------------------------------------

/// Run the rank-0 side of the rendezvous: collect `nprocs - 1` joins,
/// assign ranks, reply with the full address table. Returns that table.
fn host_rendezvous(
    cfg: &SocketCfg,
    nprocs: usize,
    my_addr: String,
    deadline: Instant,
) -> io::Result<Vec<String>> {
    let rdv = Listener::bind_rendezvous(&cfg.rendezvous)?;
    let mut addrs = vec![String::new(); nprocs];
    addrs[0] = my_addr;
    let mut joined: Vec<(usize, Stream)> = Vec::with_capacity(nprocs - 1);
    for _ in 1..nprocs {
        let mut s = rdv.accept_deadline(deadline)?;
        s.set_read_timeout(Some(remaining(deadline)?))?;
        let body = read_frame(&mut s)?;
        let mut r = WireReader::new(&body);
        if r.u8().map_err(bad_frame)? != HS_JOIN {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "expected Join"));
        }
        let want = r.u32().map_err(bad_frame)? as usize;
        let addr = r.string().map_err(bad_frame)?;
        // Honor the requested rank when it's free; otherwise hand out the
        // lowest free one (the joiner errors out if that's not the rank
        // it was launched as — a double-launch, not something to paper
        // over).
        let assigned = if want < nprocs && addrs[want].is_empty() {
            want
        } else {
            match addrs.iter().position(|a| a.is_empty()) {
                Some(i) => i,
                None => unreachable!("accept loop admits exactly nprocs - 1 joiners"),
            }
        };
        addrs[assigned] = addr;
        joined.push((assigned, s));
    }
    for (rank, mut s) in joined {
        let mut body = vec![HS_WELCOME];
        body.extend_from_slice(&(rank as u32).to_le_bytes());
        body.extend_from_slice(&(nprocs as u32).to_le_bytes());
        for a in &addrs {
            put_string(&mut body, a);
        }
        write_frame(&mut s, &body)?;
        s.flush()?;
    }
    rdv.cleanup();
    Ok(addrs)
}

/// Run the joiner side: announce our mesh address and desired rank, wait
/// for the address table.
fn join_rendezvous(
    cfg: &SocketCfg,
    rank: usize,
    nprocs: usize,
    my_addr: &str,
    deadline: Instant,
) -> io::Result<Vec<String>> {
    let rdv_addr = match &cfg.rendezvous {
        SockAddr::Tcp(a) => format!("tcp:{a}"),
        SockAddr::Unix(p) => format!("unix:{}", p.display()),
        SockAddr::Auto => unreachable!("Auto is resolved before binding"),
    };
    let mut s = connect(&rdv_addr, deadline)?;
    let mut body = vec![HS_JOIN];
    body.extend_from_slice(&(rank as u32).to_le_bytes());
    put_string(&mut body, my_addr);
    write_frame(&mut s, &body)?;
    s.flush()?;
    s.set_read_timeout(Some(remaining(deadline)?))?;
    let body = read_frame(&mut s)?;
    let mut r = WireReader::new(&body);
    if r.u8().map_err(bad_frame)? != HS_WELCOME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "expected Welcome"));
    }
    let assigned = r.u32().map_err(bad_frame)? as usize;
    let n = r.u32().map_err(bad_frame)? as usize;
    if assigned != rank {
        return Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            format!("rank {rank} already joined this machine (rendezvous offered {assigned})"),
        ));
    }
    if n != nprocs {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("machine size mismatch: launched with nprocs={nprocs}, rendezvous says {n}"),
        ));
    }
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        addrs.push(r.string().map_err(bad_frame)?);
    }
    Ok(addrs)
}

// ---------------------------------------------------------------------------
// The endpoint
// ---------------------------------------------------------------------------

/// What the node enqueues to a per-peer writer thread.
enum Out<M> {
    Wire(Wire<M>),
    Failed { rank: u32, msg: String },
    Goodbye,
}

/// One rank's endpoint on a socket machine. Construction
/// (`SocketTransport::establish`) performs the full bootstrap described
/// in the module docs; afterwards the endpoint is driven entirely by the
/// owning node thread plus its per-peer I/O threads.
pub struct SocketTransport<M> {
    rank: usize,
    inbox_rx: Receiver<Wire<M>>,
    /// Kept so the inbox channel can never disconnect and so self-sends
    /// loop back without touching a socket.
    loop_tx: Sender<Wire<M>>,
    /// Per-peer writer feeds, `None` at our own rank.
    writers: Vec<Option<Sender<Out<M>>>>,
    writer_joins: RefCell<Vec<JoinHandle<()>>>,
    board: Arc<FailBoard>,
    shut: Cell<bool>,
}

impl<M: WireCodec + Send + 'static> SocketTransport<M> {
    /// Bootstrap this rank's endpoint: bind, rendezvous, build the mesh,
    /// start the per-peer I/O threads. Blocks until the whole machine has
    /// met (all `nprocs` ranks) or the handshake deadline passes.
    pub(crate) fn establish(
        rank: usize,
        nprocs: usize,
        cfg: &SocketCfg,
        board: Arc<FailBoard>,
    ) -> io::Result<SocketTransport<M>> {
        assert!(rank < nprocs, "rank {rank} out of range for {nprocs} ranks");
        let deadline = Instant::now() + cfg.handshake_timeout;
        let mesh = Listener::bind_mesh(&cfg.rendezvous, rank)?;
        let my_addr = mesh.advertised()?;
        let addrs = if rank == 0 {
            host_rendezvous(cfg, nprocs, my_addr, deadline)?
        } else {
            join_rendezvous(cfg, rank, nprocs, &my_addr, deadline)?
        };

        let mut streams: Vec<Option<Stream>> = (0..nprocs).map(|_| None).collect();
        // Dial every lower rank, announcing who we are...
        for (peer, addr) in addrs.iter().enumerate().take(rank) {
            let mut s = connect(addr, deadline)?;
            let mut body = vec![HS_HELLO];
            body.extend_from_slice(&(rank as u32).to_le_bytes());
            write_frame(&mut s, &body)?;
            s.flush()?;
            streams[peer] = Some(s);
        }
        // ...and accept every higher one, learning who they are.
        for _ in rank + 1..nprocs {
            let mut s = mesh.accept_deadline(deadline)?;
            s.set_read_timeout(Some(remaining(deadline)?))?;
            let body = read_frame(&mut s)?;
            let mut r = WireReader::new(&body);
            if r.u8().map_err(bad_frame)? != HS_HELLO {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "expected Hello"));
            }
            let peer = r.u32().map_err(bad_frame)? as usize;
            if peer <= rank || peer >= nprocs || streams[peer].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected Hello from rank {peer}"),
                ));
            }
            streams[peer] = Some(s);
        }
        mesh.cleanup();

        let (in_tx, inbox_rx) = unbounded();
        let mut writers: Vec<Option<Sender<Out<M>>>> = (0..nprocs).map(|_| None).collect();
        let mut writer_joins = Vec::with_capacity(nprocs.saturating_sub(1));
        for (peer, slot) in streams.iter_mut().enumerate() {
            let Some(s) = slot.take() else { continue };
            s.set_read_timeout(None)?;
            let read_half = s.try_clone()?;
            let in_tx = in_tx.clone();
            let rd_board = Arc::clone(&board);
            std::thread::Builder::new()
                .name(format!("ace-rd-{rank}-{peer}"))
                .spawn(move || reader_loop(read_half, peer, in_tx, rd_board))
                .expect("spawn socket reader");
            let (wtx, wrx) = unbounded();
            let h = std::thread::Builder::new()
                .name(format!("ace-wr-{rank}-{peer}"))
                .spawn(move || writer_loop(s, wrx, rank))
                .expect("spawn socket writer");
            writers[peer] = Some(wtx);
            writer_joins.push(h);
        }
        Ok(SocketTransport {
            rank,
            inbox_rx,
            loop_tx: in_tx,
            writers,
            writer_joins: RefCell::new(writer_joins),
            board,
            shut: Cell::new(false),
        })
    }
}

impl<M> SocketTransport<M> {
    /// Close the wire once: optionally broadcast a failure, always say
    /// goodbye, and join the writers so every frame is flushed before the
    /// owning thread (or process) goes away.
    fn farewell(&self, failed: Option<(usize, &str)>) {
        if self.shut.replace(true) {
            return;
        }
        for tx in self.writers.iter().flatten() {
            if let Some((rank, msg)) = failed {
                let _ = tx.send(Out::Failed { rank: rank as u32, msg: msg.to_string() });
            }
            let _ = tx.send(Out::Goodbye);
        }
        for h in self.writer_joins.borrow_mut().drain(..) {
            let _ = h.join();
        }
    }
}

impl<M> Transport<M> for SocketTransport<M> {
    fn send_wire(&self, dst: usize, wire: Wire<M>) {
        if dst == self.rank {
            let _ = self.loop_tx.send(wire);
        } else if let Some(tx) = &self.writers[dst] {
            // A send after the writer exited (peer gone) is a dead wire;
            // dropping the envelope matches the in-process semantics.
            let _ = tx.send(Out::Wire(wire));
        }
    }

    fn try_recv_wire(&self) -> Result<Wire<M>, TryWireError> {
        self.inbox_rx.try_recv().map_err(|e| match e {
            TryRecvError::Empty => TryWireError::Empty,
            // Unreachable while `loop_tx` is held, but map it anyway.
            TryRecvError::Disconnected => TryWireError::Dead,
        })
    }

    fn recv_wire_timeout(&self, d: Duration) -> Result<Wire<M>, WaitWireError> {
        self.inbox_rx.recv_timeout(d).map_err(|e| match e {
            RecvTimeoutError::Timeout => WaitWireError::Timeout,
            RecvTimeoutError::Disconnected => WaitWireError::Dead,
        })
    }

    fn header_bytes(&self) -> usize {
        SOCKET_HEADER_BYTES
    }

    fn failed_rank(&self) -> isize {
        self.board.failed_rank()
    }

    fn failure_detail(&self) -> String {
        self.board.detail()
    }

    fn signal_failure(&self, rank: usize, msg: &str) {
        self.board.record(rank, msg.to_string());
        self.farewell(Some((rank, msg)));
    }

    fn shutdown(&self) {
        self.farewell(None);
    }
}

/// Writer thread: one per peer, owning the connection's send half.
/// Batches syscalls by draining the feed channel before flushing, so a
/// burst of wire envelopes becomes one stream write — per-pair FIFO is
/// preserved because this single thread drains a FIFO channel into an
/// ordered byte stream.
fn writer_loop<M: WireCodec>(s: Stream, rx: Receiver<Out<M>>, my_rank: usize) {
    let mut w = io::BufWriter::new(s);
    let mut buf = Vec::new();
    // Once a write fails the peer is gone; keep draining the channel so
    // the node never blocks, but stop touching the socket.
    let mut dead = false;
    'feed: loop {
        let first = match rx.recv() {
            Ok(m) => m,
            // Endpoint dropped without shutdown (the hard-kill path):
            // flush what we have and close abruptly — peers see EOF
            // without a goodbye and record us as failed.
            Err(_) => break 'feed,
        };
        let mut next = Some(first);
        while let Some(m) = next {
            match m {
                Out::Wire(wire) => {
                    if !dead {
                        buf.clear();
                        buf.push(FR_WIRE);
                        wire.encode(&mut buf);
                        dead = write_frame(&mut w, &buf).is_err();
                    }
                }
                Out::Failed { rank, msg } => {
                    if !dead {
                        buf.clear();
                        buf.push(FR_FAILED);
                        buf.extend_from_slice(&rank.to_le_bytes());
                        put_string(&mut buf, &msg);
                        dead = write_frame(&mut w, &buf).is_err() || w.flush().is_err();
                    }
                }
                Out::Goodbye => {
                    if !dead {
                        buf.clear();
                        buf.push(FR_GOODBYE);
                        buf.extend_from_slice(&(my_rank as u32).to_le_bytes());
                        let _ = write_frame(&mut w, &buf);
                        let _ = w.flush();
                    }
                    w.get_ref().shutdown_write();
                    return;
                }
            }
            next = rx.try_recv().ok();
        }
        if !dead && w.flush().is_err() {
            dead = true;
        }
    }
    let _ = w.flush();
    // The detached reader thread holds its own clone of this socket, so
    // merely dropping the write half would leave the connection open;
    // half-close explicitly so the peer's reader sees EOF (no goodbye)
    // and records this rank as failed.
    w.get_ref().shutdown_write();
}

/// Reader thread: one per peer, owning the connection's receive half.
/// Decoded wire envelopes feed the endpoint's inbox channel; failure
/// frames and abrupt closes land on the failure board.
fn reader_loop<M: WireCodec>(
    mut s: Stream,
    peer: usize,
    inbox: Sender<Wire<M>>,
    board: Arc<FailBoard>,
) {
    loop {
        let body = match read_frame(&mut s) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                // EOF without a Goodbye frame: the peer's process died
                // abruptly (a panic broadcasts Failed + Goodbye first, so
                // first-writer-wins keeps the real cause).
                board.record(peer, "connection closed without goodbye".to_string());
                return;
            }
            Err(e) => {
                board.record(peer, format!("connection error: {e}"));
                return;
            }
        };
        let mut r = WireReader::new(&body);
        match r.u8() {
            Ok(FR_WIRE) => match Wire::<M>::decode(&mut r) {
                Ok(wire) => {
                    if inbox.send(wire).is_err() {
                        return; // our own endpoint is gone
                    }
                }
                Err(e) => {
                    board.record(peer, format!("undecodable wire frame: {e}"));
                    return;
                }
            },
            Ok(FR_FAILED) => {
                let rank = r.u32().unwrap_or(peer as u32) as usize;
                let msg = r.string().unwrap_or_default();
                board.record(rank, msg);
            }
            Ok(FR_GOODBYE) => return,
            Ok(k) => {
                board.record(peer, format!("unknown frame kind {k}"));
                return;
            }
            Err(_) => {
                board.record(peer, "empty frame".to_string());
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Envelope;

    fn endpoints(n: usize) -> Vec<SocketTransport<u64>> {
        let cfg = SocketCfg::loopback().resolved();
        let board: Vec<Arc<FailBoard>> = (0..n).map(|_| Arc::new(FailBoard::new())).collect();
        std::thread::scope(|scope| {
            let mut hs = Vec::new();
            for rank in 0..n {
                let cfg = cfg.clone();
                let board = Arc::clone(&board[rank]);
                hs.push(scope.spawn(move || {
                    SocketTransport::establish(rank, n, &cfg, board).expect("establish")
                }));
            }
            hs.into_iter().map(|h| h.join().expect("handshake thread")).collect()
        })
    }

    fn single(src: usize, msg: u64) -> Wire<u64> {
        Wire::Single(Envelope { src, send_time: 0, bytes: 31, vc: None, sw: 0, msg })
    }

    #[test]
    fn mesh_establishes_and_delivers_fifo() {
        let eps = endpoints(3);
        for i in 0..10 {
            eps[0].send_wire(2, single(0, i));
        }
        eps[1].send_wire(1, single(1, 99)); // self-send loops back
        let mut got = Vec::new();
        while got.len() < 10 {
            match eps[2].recv_wire_timeout(Duration::from_secs(5)) {
                Ok(Wire::Single(e)) => got.push(e.msg),
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        match eps[1].recv_wire_timeout(Duration::from_secs(1)) {
            Ok(Wire::Single(e)) => assert_eq!(e.msg, 99),
            other => panic!("unexpected: {other:?}"),
        }
        for ep in &eps {
            ep.shutdown();
        }
    }

    #[test]
    fn failure_broadcast_reaches_peers() {
        let eps = endpoints(2);
        eps[1].signal_failure(1, "boom at rank 1");
        let t0 = Instant::now();
        while eps[0].failed_rank() < 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "failure frame never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(eps[0].failed_rank(), 1);
        assert_eq!(eps[0].failure_detail(), "boom at rank 1");
        eps[0].shutdown();
    }

    #[test]
    fn abrupt_drop_is_detected_as_peer_death() {
        let mut eps = endpoints(2);
        let ep0 = eps.remove(0);
        drop(eps); // rank 1 vanishes without shutdown(): no goodbye
        let t0 = Instant::now();
        while ep0.failed_rank() < 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "abrupt close never detected");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ep0.failed_rank(), 1);
        ep0.shutdown();
    }

    #[test]
    fn machine_size_mismatch_is_an_error_not_a_hang() {
        // A joiner launched with the wrong --procs must fail fast with a
        // mismatch error instead of wedging the bootstrap.
        let cfg = SocketCfg::loopback().handshake_timeout(Duration::from_secs(3)).resolved();
        std::thread::scope(|scope| {
            let c0 = cfg.clone();
            let host = scope.spawn(move || {
                SocketTransport::<u64>::establish(0, 2, &c0, Arc::new(FailBoard::new()))
            });
            let c1 = cfg.clone();
            let joiner = scope.spawn(move || {
                SocketTransport::<u64>::establish(1, 3, &c1, Arc::new(FailBoard::new()))
            });
            let err = joiner.join().unwrap().err().expect("size mismatch must be rejected");
            assert!(err.to_string().contains("machine size mismatch"), "{err}");
            // The host is left waiting for a mesh connection that will
            // never come; its own deadline converts that into an error.
            assert!(host.join().unwrap().is_err(), "host must time out, not hang");
        });
    }
}
