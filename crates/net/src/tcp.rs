//! TCP transport: real sockets served on the owning thread's event loop.
//!
//! Topology: every node listens on one address and dials one outbound
//! connection per peer. The sender identity travels inside each frame (see
//! [`crate::frame`]), so connection direction is irrelevant to the protocol
//! and node restarts need no handshake state.
//!
//! There are no reader or writer threads. The thread that owns the
//! transport (the node's event loop) does the socket I/O itself:
//!
//! * **receive** — [`Transport::recv_timeout`] hands out an already decoded
//!   frame if one is buffered. Otherwise it makes one `ppoll(2)` call,
//!   bounded by the timeout, over the listener, every accepted connection,
//!   every write-blocked outbound connection and a wake socket. It then
//!   accepts new connections, reads each readable connection up to a fixed
//!   byte budget, decodes every complete frame with a cursor (one buffer
//!   drain per read, not per frame) and resumes blocked writers. A stream
//!   that fails the codec's magic, version or size checks is dropped. No
//!   inbound queue sits between the socket and the node: when the node
//!   falls behind, TCP flow control pushes back on the sender;
//! * **send** — [`Transport::send`] and [`Transport::broadcast`] encode on
//!   the caller (a broadcast once, its bytes shared across peers). If the
//!   peer's connection is up and not blocked the frame goes out at once
//!   with a nonblocking `write_vectored` of up to 64 frames;
//!   otherwise it waits in the peer's queue. A queue at `queue_capacity`
//!   sheds the newest frame, so memory stays bounded and shed order is
//!   deterministic. Flushes that find one frame count as `flushes_idle`,
//!   flushes of a backlog as `flushes_full` (see [`TransportStats`]);
//! * **connect** — connects run on short-lived connector threads, so the
//!   event loop never blocks in `connect`. A connector retries with capped
//!   backoff while frames are queued, then flushes the backlog itself, so
//!   frames sent before the owner ever polls still arrive. A broken
//!   connection loses only a half-written head frame; the rest of the queue
//!   rides the reconnect.
//!
//! Under the node runtime's stage profiler, frames that end a blocking wait
//! are read and decoded inside the `idle` span; frames picked up by a
//! zero-timeout receive land in `decode`.
//!
//! The workspace builds offline without tokio/mio, so readiness is a
//! hand-rolled `ppoll(2)` call on Linux (a sub-millisecond sleep elsewhere).
//! The [`Transport`] trait is the seam where an async implementation would
//! slot in unchanged.

use crate::frame::{BufferPool, FrameCodec};
use crate::transport::{warn_drop, Transport, TransportStats, DEFAULT_QUEUE_CAPACITY};
use prestige_types::Actor;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A complete, pre-encoded wire frame. Produced once per broadcast, no
/// matter how many peers it fans out to.
type SharedFrame = Arc<[u8]>;

/// Initial reconnect backoff; doubles per failure up to [`MAX_BACKOFF`].
const INITIAL_BACKOFF: Duration = Duration::from_millis(50);
/// Reconnect backoff cap.
const MAX_BACKOFF: Duration = Duration::from_secs(2);
/// Most frames coalesced into one `write_vectored` call.
const MAX_IOV: usize = 64;
/// Size of one `read` from an inbound connection.
const READ_CHUNK: usize = 64 * 1024;
/// Most bytes read from one connection per poll, so one busy peer cannot
/// starve the others and the decoded backlog stays bounded.
const READ_BUDGET: usize = 4 * READ_CHUNK;

/// Configuration of a TCP endpoint.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Address to accept peer connections on.
    pub listen: SocketAddr,
    /// Addresses of every peer this node may send to.
    pub peers: HashMap<Actor, SocketAddr>,
    /// Per-peer outbound queue capacity (frames).
    pub queue_capacity: usize,
    /// Frame codec (wire version and max-frame guard).
    pub codec: FrameCodec,
}

impl TcpConfig {
    /// A config with default queue capacity and codec.
    pub fn new(listen: SocketAddr, peers: HashMap<Actor, SocketAddr>) -> Self {
        TcpConfig {
            listen,
            peers,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            codec: FrameCodec::new(),
        }
    }
}

/// A TCP endpoint implementing [`Transport`] for any serde-encodable message
/// type.
pub struct TcpTransport<M: serde::Serialize + serde::Deserialize + Send + 'static> {
    me: Actor,
    config: TcpConfig,
    /// `None` once shut down.
    listener: Option<TcpListener>,
    /// Accepted inbound connections.
    conns: Vec<Conn>,
    /// Decoded frames not yet handed to the caller, oldest first.
    inbox: VecDeque<(Actor, M)>,
    links: HashMap<Actor, Arc<Link>>,
    /// Read end of the wake socket: connector threads write to it when they
    /// leave a write-blocked connection behind.
    wake: UnixStream,
    stats: Arc<TransportStats>,
    /// Scratch buffers reused across frame encodings.
    encode_pool: BufferPool,
    /// Scratch for one `read`.
    chunk: Box<[u8]>,
    /// Poll set and the links behind its `POLLOUT` entries, reused.
    fds: Vec<poll::PollFd>,
    blocked: Vec<Arc<Link>>,
}

/// One accepted inbound connection and its undecoded bytes.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// The outbound side of one peer, shared between the owner and the peer's
/// connector thread.
struct Link {
    me: Actor,
    peer: Actor,
    addr: SocketAddr,
    stats: Arc<TransportStats>,
    /// Write end of the owner's wake socket.
    wake: UnixStream,
    out: Mutex<Outbound>,
}

struct Outbound {
    /// Established nonblocking connection, if any.
    stream: Option<TcpStream>,
    /// Frames awaiting write, oldest first.
    queue: VecDeque<SharedFrame>,
    /// Bytes of `queue[0]` already written (a partial vectored write).
    partial: usize,
    /// The socket returned `WouldBlock`; the owner polls it for `POLLOUT`.
    blocked: bool,
    /// A connector thread is in flight.
    connecting: bool,
    /// The transport shut down; connectors give up.
    closed: bool,
}

impl<M: serde::Serialize + serde::Deserialize + Send + 'static> TcpTransport<M> {
    /// Binds the listen address. Outbound connections are established
    /// lazily on first send to each peer.
    pub fn bind(me: Actor, mut config: TcpConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(config.listen)?;
        // Record the OS-assigned address so port-0 binds are discoverable.
        config.listen = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (wake, wake_tx) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let stats = Arc::new(TransportStats::default());
        let mut links = HashMap::new();
        for (&peer, &addr) in &config.peers {
            let link = Link {
                me,
                peer,
                addr,
                stats: Arc::clone(&stats),
                wake: wake_tx.try_clone()?,
                out: Mutex::new(Outbound {
                    stream: None,
                    queue: VecDeque::new(),
                    partial: 0,
                    blocked: false,
                    connecting: false,
                    closed: false,
                }),
            };
            links.insert(peer, Arc::new(link));
        }
        Ok(TcpTransport {
            me,
            config,
            listener: Some(listener),
            conns: Vec::new(),
            inbox: VecDeque::new(),
            links,
            wake,
            stats,
            encode_pool: BufferPool::new(),
            chunk: vec![0u8; READ_CHUNK].into_boxed_slice(),
            fds: Vec::new(),
            blocked: Vec::new(),
        })
    }

    /// The actual bound listen address (the OS-assigned port when the
    /// config requested port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.config.listen
    }

    /// Writes `frame` towards `to` at once if the connection allows, else
    /// queues it; counts and warns on drop.
    fn enqueue(&mut self, to: Actor, frame: SharedFrame) {
        self.stats.sent.fetch_add(1, Ordering::Relaxed);
        let Some(link) = self.links.get(&to) else {
            let total = self.stats.note_drop(to);
            warn_drop(&self.stats, self.me, to, "no address configured", total);
            return;
        };
        let mut out = link.lock();
        // Bounded backpressure: shed the *newest* frame when the peer's
        // queue is at capacity.
        if out.closed || out.queue.len() >= self.config.queue_capacity {
            let reason = if out.closed {
                "transport shut down"
            } else {
                "outbound queue full"
            };
            drop(out);
            let total = self.stats.note_drop(to);
            warn_drop(&self.stats, self.me, to, reason, total);
            return;
        }
        out.queue.push_back(frame);
        if !out.blocked {
            link.flush(&mut out);
        }
        link.reconnect_if_down(&mut out);
    }

    /// Encodes `message` exactly once and hands the shared bytes to every
    /// recipient: on the leader→replica hot path a fan-out costs one
    /// serialization plus one refcount bump per peer. A message over the
    /// codec's frame limit counts as a drop towards each recipient.
    fn fan_out(&mut self, recipients: &[Actor], message: &M) {
        match self
            .config
            .codec
            .encode_shared(self.me, message, &self.encode_pool)
        {
            Ok(frame) => {
                for &to in recipients {
                    self.enqueue(to, Arc::clone(&frame));
                }
            }
            Err(_) => {
                for &to in recipients {
                    self.stats.sent.fetch_add(1, Ordering::Relaxed);
                    let total = self.stats.note_drop(to);
                    warn_drop(&self.stats, self.me, to, "frame encoding failed", total);
                }
            }
        }
    }

    /// One readiness wait of at most `timeout`, then all the I/O it
    /// reported: reads and decodes into the inbox, accepts, resumes blocked
    /// writers.
    fn poll(&mut self, timeout: Duration) {
        use poll::{PollFd, POLLIN, POLLOUT};
        self.fds.clear();
        self.blocked.clear();
        self.fds.push(PollFd::new(self.wake.as_raw_fd(), POLLIN));
        if let Some(listener) = &self.listener {
            self.fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        let first_conn = self.fds.len();
        for conn in &self.conns {
            self.fds.push(PollFd::new(conn.stream.as_raw_fd(), POLLIN));
        }
        for link in self.links.values() {
            let out = link.lock();
            if let (true, Some(stream)) = (out.blocked, &out.stream) {
                self.fds.push(PollFd::new(stream.as_raw_fd(), POLLOUT));
                self.blocked.push(Arc::clone(link));
            }
        }
        poll::wait(&mut self.fds, timeout);

        if self.fds[0].revents != 0 {
            while let Ok(n) = (&self.wake).read(&mut self.chunk) {
                if n == 0 {
                    break;
                }
            }
        }
        // Reverse order, so `swap_remove` only moves connections already
        // served.
        let codec = self.config.codec;
        for i in (0..self.conns.len()).rev() {
            if self.fds[first_conn + i].revents != 0
                && !read_conn(&mut self.conns[i], &mut self.chunk, codec, &mut self.inbox)
            {
                self.conns.swap_remove(i);
            }
        }
        if let Some(listener) = self.listener.as_ref().filter(|_| self.fds[1].revents != 0) {
            // An error other than `WouldBlock` (out of file descriptors, say)
            // ends this round; the listener stays readable and the next poll
            // retries.
            while let Ok((stream, _)) = listener.accept() {
                if stream.set_nonblocking(true).is_ok() {
                    let _ = stream.set_nodelay(true);
                    self.conns.push(Conn {
                        stream,
                        buf: Vec::new(),
                    });
                }
            }
        }
        for (link, fd) in self
            .blocked
            .iter()
            .zip(&self.fds[self.fds.len() - self.blocked.len()..])
        {
            if fd.revents != 0 {
                let mut out = link.lock();
                link.flush(&mut out);
                link.reconnect_if_down(&mut out);
            }
        }
    }
}

/// Reads `conn` up to [`READ_BUDGET`] and decodes every complete frame into
/// `inbox`. Returns `false` when the connection is finished: closed by the
/// peer, broken, or carrying a stream the codec rejects.
fn read_conn<M: serde::Deserialize>(
    conn: &mut Conn,
    chunk: &mut [u8],
    codec: FrameCodec,
    inbox: &mut VecDeque<(Actor, M)>,
) -> bool {
    let mut open = true;
    let mut budget = READ_BUDGET;
    while budget > 0 {
        match conn.stream.read(chunk) {
            Ok(0) => {
                open = false;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                budget = budget.saturating_sub(n);
                if n < chunk.len() {
                    break; // drained; spare the `WouldBlock` syscall
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => {
                open = false;
                break;
            }
        }
    }
    let mut at = 0;
    loop {
        match codec.decode::<M>(&conn.buf[at..]) {
            Ok(Some((from, message, used))) => {
                inbox.push_back((from, message));
                at += used;
            }
            Ok(None) => break,
            Err(_) => return false, // corrupt stream: drop the connection
        }
    }
    conn.buf.drain(..at);
    open
}

impl Link {
    fn lock(&self) -> MutexGuard<'_, Outbound> {
        self.out.lock().expect("link lock")
    }

    /// Writes as much of the queue as the socket accepts, coalescing up to
    /// [`MAX_IOV`] frames per `write_vectored` syscall.
    fn flush(&self, out: &mut Outbound) {
        let Some(stream) = out.stream.as_mut() else {
            return;
        };
        let stats = &self.stats;
        if out.queue.len() == 1 {
            stats.flushes_idle.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.flushes_full.fetch_add(1, Ordering::Relaxed);
        }
        out.blocked = false;
        while !out.queue.is_empty() {
            let mut slices = [IoSlice::new(&[]); MAX_IOV];
            slices[0] = IoSlice::new(&out.queue[0][out.partial..]);
            let mut iov = 1;
            for frame in out.queue.iter().skip(1).take(MAX_IOV - 1) {
                slices[iov] = IoSlice::new(frame);
                iov += 1;
            }
            match stream.write_vectored(&slices[..iov]) {
                Ok(mut written) => {
                    stats.writev_calls.fetch_add(1, Ordering::Relaxed);
                    if iov > 1 {
                        stats
                            .frames_coalesced
                            .fetch_add(iov as u64, Ordering::Relaxed);
                    }
                    // Retire fully written frames; remember the offset into
                    // a partially written head.
                    while written > 0 {
                        let head_left = out.queue[0].len() - out.partial;
                        if written < head_left {
                            out.partial += written;
                            break;
                        }
                        written -= head_left;
                        out.partial = 0;
                        out.queue.pop_front();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    out.blocked = true;
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    // Broken connection. A half-written head frame is torn
                    // on the wire and must not be resumed on a fresh
                    // connection; it is the only frame lost.
                    if out.partial > 0 {
                        out.partial = 0;
                        out.queue.pop_front();
                        let total = stats.note_drop(self.peer);
                        warn_drop(stats, self.me, self.peer, "connection broken", total);
                    }
                    out.stream = None;
                    return;
                }
            }
        }
    }

    /// Starts a connector thread if frames wait for a connection that is
    /// down and none is in flight.
    fn reconnect_if_down(self: &Arc<Self>, out: &mut Outbound) {
        if out.stream.is_some() || out.connecting || out.queue.is_empty() {
            return;
        }
        out.connecting = true;
        let link = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("tcp-connect-{}-to-{}", self.me, self.peer))
            .spawn(move || link.connect_loop())
            .expect("spawn connector thread");
    }

    /// Connects with capped backoff until it succeeds or the transport shuts
    /// down, then flushes the backlog on the fresh connection.
    fn connect_loop(&self) {
        let mut backoff = INITIAL_BACKOFF;
        loop {
            let attempt = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500))
                .and_then(|s| {
                    s.set_nodelay(true)?;
                    s.set_nonblocking(true)?;
                    Ok(s)
                });
            let mut out = self.lock();
            if out.closed {
                return;
            }
            if let Ok(stream) = attempt {
                out.stream = Some(stream);
                self.flush(&mut out);
                if out.stream.is_some() {
                    out.connecting = false;
                    if out.blocked {
                        // Have the owner's next poll watch this socket.
                        let _ = (&self.wake).write(&[1]);
                    }
                    return;
                }
            }
            drop(out);
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF);
        }
    }
}

impl<M: serde::Serialize + serde::Deserialize + Send + 'static> Transport<M> for TcpTransport<M> {
    fn me(&self) -> Actor {
        self.me
    }

    fn send(&mut self, to: Actor, message: M) {
        self.fan_out(&[to], &message);
    }

    fn broadcast(&mut self, recipients: &[Actor], message: M)
    where
        M: Clone,
    {
        self.fan_out(recipients, &message);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(Actor, M)> {
        if self.inbox.is_empty() {
            let start = Instant::now();
            let mut wait = timeout;
            loop {
                self.poll(wait);
                wait = timeout.saturating_sub(start.elapsed());
                if !self.inbox.is_empty() || wait.is_zero() {
                    break;
                }
            }
        }
        let delivery = self.inbox.pop_front()?;
        self.stats.received.fetch_add(1, Ordering::Relaxed);
        Some(delivery)
    }

    fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.stats)
    }

    fn shutdown(&mut self) {
        self.listener = None;
        self.conns.clear();
        for link in self.links.values() {
            let mut out = link.lock();
            out.closed = true;
            out.stream = None;
            out.queue.clear();
        }
    }
}

impl<M: serde::Serialize + serde::Deserialize + Send + 'static> Drop for TcpTransport<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Minimal readiness support: `ppoll(2)` on Linux, a bounded sleep elsewhere.
/// Hand-rolled because the offline build has no `libc`/`mio`.
mod poll {
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        fd: RawFd,
        events: i16,
        pub revents: i16,
    }

    impl PollFd {
        pub fn new(fd: RawFd, events: i16) -> Self {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    /// Waits up to `timeout` for any of `fds` to become ready, filling in
    /// each `revents`.
    #[cfg(target_os = "linux")]
    pub fn wait(fds: &mut [PollFd], timeout: Duration) {
        use std::os::raw::{c_int, c_long, c_ulong};

        #[repr(C)]
        struct Timespec {
            tv_sec: c_long,
            tv_nsec: c_long,
        }
        extern "C" {
            fn ppoll(
                fds: *mut PollFd,
                nfds: c_ulong,
                timeout: *const Timespec,
                sigmask: *const u8,
            ) -> c_int;
        }

        let ts = Timespec {
            tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // An interrupted call (EINTR) reports nothing ready; the caller polls
        // again.
        // SAFETY: `fds` is a live slice of repr(C) pollfd structs and `ts` a
        // live timespec; the kernel reads and writes them only during the
        // call. A null signal mask keeps the caller's mask.
        unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            );
        }
    }

    /// Waits briefly and reports every descriptor ready; the nonblocking
    /// calls that follow sort out which really were.
    #[cfg(not(target_os = "linux"))]
    pub fn wait(fds: &mut [PollFd], timeout: Duration) {
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        fds.iter_mut().for_each(|fd| fd.revents = fd.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_types::{Message, ServerId, SyncKind};

    fn server(i: u32) -> Actor {
        Actor::Server(ServerId(i))
    }

    fn msg(n: u64) -> Message {
        Message::SyncReq {
            kind: SyncKind::Transaction,
            from: n,
            to: n,
        }
    }

    fn localhost(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    /// Picks two free ports by binding port 0 and releasing.
    fn two_free_ports() -> (SocketAddr, SocketAddr) {
        let a = TcpListener::bind(localhost(0)).unwrap();
        let b = TcpListener::bind(localhost(0)).unwrap();
        (a.local_addr().unwrap(), b.local_addr().unwrap())
    }

    #[test]
    fn frames_travel_between_two_tcp_endpoints() {
        let (addr_a, addr_b) = two_free_ports();
        let peers_a = HashMap::from([(server(1), addr_b)]);
        let peers_b = HashMap::from([(server(0), addr_a)]);
        let mut a: TcpTransport<Message> =
            TcpTransport::bind(server(0), TcpConfig::new(addr_a, peers_a)).unwrap();
        let mut b: TcpTransport<Message> =
            TcpTransport::bind(server(1), TcpConfig::new(addr_b, peers_b)).unwrap();

        for i in 0..10 {
            a.send(server(1), msg(i));
        }
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < 10 && std::time::Instant::now() < deadline {
            if let Some((from, m)) = b.recv_timeout(Duration::from_millis(100)) {
                assert_eq!(from, server(0));
                got.push(m);
            }
        }
        assert_eq!(got.len(), 10, "all frames must arrive in order");
        assert_eq!(got[0], msg(0));
        assert_eq!(got[9], msg(9));
        let (writev, _, idle, full) = a.stats().writer_snapshot();
        assert!(writev > 0, "writes must go through the vectored path");
        assert!(idle + full > 0, "every flush is classified idle or full");
    }

    #[test]
    fn outbound_queue_survives_peer_coming_up_late() {
        let (addr_a, addr_b) = two_free_ports();
        let peers_a = HashMap::from([(server(1), addr_b)]);
        let mut a: TcpTransport<Message> =
            TcpTransport::bind(server(0), TcpConfig::new(addr_a, peers_a)).unwrap();

        // Send before the peer exists: a connector retries with backoff and
        // the frames survive the unreachable window (only overflow sheds).
        for i in 0..5 {
            a.send(server(1), msg(i));
        }
        std::thread::sleep(Duration::from_millis(150));
        let peers_b = HashMap::from([(server(0), addr_a)]);
        let mut b: TcpTransport<Message> =
            TcpTransport::bind(server(1), TcpConfig::new(addr_b, peers_b)).unwrap();

        a.send(server(1), msg(99));
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while got.len() < 6 && std::time::Instant::now() < deadline {
            if let Some((_, m)) = b.recv_timeout(Duration::from_millis(100)) {
                got.push(m);
            }
        }
        let expected: Vec<Message> = (0..5).map(msg).chain([msg(99)]).collect();
        assert_eq!(
            got, expected,
            "every queued frame must arrive, in order, once the peer is up"
        );
        assert_eq!(a.stats().snapshot().2, 0, "nothing may be shed");
    }

    #[test]
    fn send_to_unconfigured_peer_counts_as_drop() {
        let (addr_a, _) = two_free_ports();
        let mut a: TcpTransport<Message> =
            TcpTransport::bind(server(0), TcpConfig::new(addr_a, HashMap::new())).unwrap();
        a.send(server(9), msg(1));
        assert_eq!(a.stats().snapshot(), (1, 0, 1));
    }

    #[test]
    fn overflow_sheds_newest_and_keeps_oldest() {
        let (addr_a, addr_b) = two_free_ports();
        let peers_a = HashMap::from([(server(1), addr_b)]);
        let mut config = TcpConfig::new(addr_a, peers_a);
        config.queue_capacity = 4;
        let mut a: TcpTransport<Message> = TcpTransport::bind(server(0), config).unwrap();

        // No listener on addr_b yet: connects fail, frames queue. The first
        // `capacity` sends are retained, everything after sheds (newest
        // first) — deterministically, because nothing can drain the queue.
        for i in 0..10 {
            a.send(server(1), msg(i));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while a.stats().snapshot().2 < 6 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            a.stats().snapshot(),
            (10, 0, 6),
            "exactly the overflow sheds"
        );

        // Bring the peer up: exactly the four oldest frames arrive, in order.
        let peers_b = HashMap::from([(server(0), addr_a)]);
        let mut b: TcpTransport<Message> =
            TcpTransport::bind(server(1), TcpConfig::new(addr_b, peers_b)).unwrap();
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while got.len() < 4 && std::time::Instant::now() < deadline {
            if let Some((_, m)) = b.recv_timeout(Duration::from_millis(100)) {
                got.push(m);
            }
        }
        let expected: Vec<Message> = (0..4).map(msg).collect();
        assert_eq!(got, expected, "the oldest frames survive, in order");
        assert!(
            b.recv_timeout(Duration::from_millis(300)).is_none(),
            "shed frames must not materialize later"
        );
    }

    #[test]
    fn coalesced_wire_bytes_equal_non_coalesced_encoding() {
        use std::io::Read;

        // A raw listener stands in for the peer so the test can capture the
        // exact bytes on the wire.
        let listener = TcpListener::bind(localhost(0)).unwrap();
        let addr_b = listener.local_addr().unwrap();
        let (addr_a, _) = two_free_ports();
        let peers_a = HashMap::from([(server(1), addr_b)]);
        let mut a: TcpTransport<Message> =
            TcpTransport::bind(server(0), TcpConfig::new(addr_a, peers_a)).unwrap();

        // Reference encoding: each frame alone, concatenated.
        let codec = FrameCodec::new();
        let pool = BufferPool::new();
        let mut expected: Vec<u8> = Vec::new();
        let messages: Vec<Message> = (0..200).map(msg).collect();
        for m in &messages {
            expected.extend_from_slice(&codec.encode_shared(server(0), m, &pool).unwrap());
        }

        // Burst-send so the transport has every chance to coalesce (the first
        // frames queue while the connector is still completing).
        for m in &messages {
            a.send(server(1), m.clone());
        }
        let (stream, _) = listener.accept().unwrap();
        let mut stream = stream;
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut wire: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while wire.len() < expected.len() && std::time::Instant::now() < deadline {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => wire.extend_from_slice(&chunk[..n]),
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(_) => break,
            }
        }
        assert_eq!(
            wire, expected,
            "coalesced wire bytes must equal the frame-at-a-time encoding"
        );
        let (writev, coalesced, _, _) = a.stats().writer_snapshot();
        assert!(writev > 0);
        assert!(
            writev < messages.len() as u64 || coalesced > 0,
            "200 burst frames over one connection should not take 200+ uncoalesced syscalls"
        );
    }

    /// Receives until `done` holds for what arrived, or ten seconds pass.
    fn recv_until(
        t: &mut TcpTransport<Message>,
        done: impl Fn(&[(Actor, Message)]) -> bool,
    ) -> Vec<(Actor, Message)> {
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done(&got) && std::time::Instant::now() < deadline {
            got.extend(t.recv_timeout(Duration::from_millis(50)));
        }
        got
    }

    #[test]
    fn burst_and_byte_at_a_time_frames_arrive_in_order() {
        let (addr_b, _) = two_free_ports();
        let mut b: TcpTransport<Message> =
            TcpTransport::bind(server(1), TcpConfig::new(addr_b, HashMap::new())).unwrap();
        let codec = FrameCodec::new();
        let mut peer = TcpStream::connect(addr_b).unwrap();
        peer.set_nodelay(true).unwrap();

        // 500 frames in one write: many frames per read, decoded with one
        // cursor pass.
        let burst: Vec<u8> = (0..500)
            .flat_map(|i| codec.encode(server(0), &msg(i)).unwrap())
            .collect();
        peer.write_all(&burst).unwrap();
        // One more frame, a byte at a time, with the receiver polling
        // between bytes: a partial frame is never delivered early.
        let last = codec.encode(server(0), &msg(500)).unwrap();
        let mut got = Vec::new();
        for (k, byte) in last.iter().enumerate() {
            peer.write_all(std::slice::from_ref(byte)).unwrap();
            while let Some(delivery) = b.recv_timeout(Duration::from_millis(1)) {
                got.push(delivery);
            }
            if k + 1 < last.len() {
                assert!(got.len() <= 500, "a partial frame was delivered");
            }
        }
        got.extend(recv_until(&mut b, |rest| got.len() + rest.len() >= 501));
        let expected: Vec<(Actor, Message)> = (0..=500).map(|i| (server(0), msg(i))).collect();
        assert_eq!(got, expected, "every frame arrives once, in order");
    }

    #[test]
    fn corrupt_stream_is_dropped_while_another_keeps_delivering() {
        let (addr_b, _) = two_free_ports();
        let mut b: TcpTransport<Message> =
            TcpTransport::bind(server(1), TcpConfig::new(addr_b, HashMap::new())).unwrap();
        let codec = FrameCodec::new();
        let mut bad = TcpStream::connect(addr_b).unwrap();
        let mut good = TcpStream::connect(addr_b).unwrap();

        let mut forged = codec.encode(server(2), &msg(7)).unwrap();
        forged[..4].copy_from_slice(b"XXXX");
        bad.write_all(&forged).unwrap();
        good.write_all(&codec.encode(server(0), &msg(1)).unwrap())
            .unwrap();
        assert_eq!(recv_until(&mut b, |g| !g.is_empty()), [(server(0), msg(1))]);

        // The receiver closes the corrupt connection: its peer reads EOF
        // (or a reset) while the receiver keeps polling.
        bad.set_nonblocking(true).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let closed = loop {
            assert!(b.recv_timeout(Duration::from_millis(10)).is_none());
            match bad.read(&mut [0u8; 16]) {
                Ok(0) => break true,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => break true,
                Ok(_) => panic!("the receiver never writes on an inbound connection"),
            }
            if std::time::Instant::now() > deadline {
                break false;
            }
        };
        assert!(closed, "a stream with bad magic must be dropped");

        for i in 2..4 {
            good.write_all(&codec.encode(server(0), &msg(i)).unwrap())
                .unwrap();
        }
        assert_eq!(
            recv_until(&mut b, |g| g.len() >= 2),
            [(server(0), msg(2)), (server(0), msg(3))],
            "the healthy connection keeps delivering"
        );
    }

    #[test]
    fn restarted_peer_receives_frames_without_the_sender_polling() {
        let (addr_a, addr_b) = two_free_ports();
        let peers_a = HashMap::from([(server(1), addr_b)]);
        // `a` only ever sends: its connector threads do all its connecting
        // and flushing.
        let mut a: TcpTransport<Message> =
            TcpTransport::bind(server(0), TcpConfig::new(addr_a, peers_a)).unwrap();
        let bind_b =
            || TcpTransport::bind(server(1), TcpConfig::new(addr_b, HashMap::new())).unwrap();

        let mut b: TcpTransport<Message> = bind_b();
        for i in 0..3 {
            a.send(server(1), msg(i));
        }
        let got: Vec<Message> = recv_until(&mut b, |g| g.len() >= 3)
            .into_iter()
            .map(|(_, m)| m)
            .collect();
        assert_eq!(got, (0..3).map(msg).collect::<Vec<_>>());

        // Restart the peer on the same address.
        drop(b);
        let mut b: TcpTransport<Message> = bind_b();
        // The first write after the restart still lands in the connection
        // the old peer closed, and TCP reports the reset only to the next
        // write. That write fails, stays queued, and the connector carries
        // it and everything after it to the new peer.
        a.send(server(1), msg(100));
        std::thread::sleep(Duration::from_millis(50));
        for i in 101..=110 {
            a.send(server(1), msg(i));
        }
        let got: Vec<Message> = recv_until(&mut b, |g| g.last().map(|d| &d.1) == Some(&msg(110)))
            .into_iter()
            .map(|(_, m)| m)
            .skip_while(|m| *m == msg(100))
            .collect();
        assert_eq!(
            got,
            (101..=110).map(msg).collect::<Vec<_>>(),
            "frames sent after the restart arrive, in order"
        );
        assert_eq!(a.stats().snapshot().2, 0, "nothing may be shed");
    }
}
