//! The open-loop load generator: one thread, one client identity.
//!
//! Requests fall due on a seeded Poisson schedule whose rate is a fixed
//! step function of time ([`Plan`]), so the same seed and plan give the same
//! due times whatever the cluster does. The generator speaks the client
//! protocol as `PrestigeClient` does: requests due within one bundle window
//! go out together in a `Prop` broadcast to every replica, a request counts
//! as committed at its `f + 1`-th distinct `Notif`, and a request still
//! uncommitted one client timeout after it fell due is complained about
//! with a `Compt` broadcast. Latency is measured from the due time, so time
//! the generator or the cluster stalls is charged to every request it
//! delays.

use crate::os::{self, PollFd, POLLIN};
use crate::trace::{self, now_ns};
use prestige_crypto::{digest_of, KeyRegistry};
use prestige_net::{FrameCodec, LoopbackTransport, Transport};
use prestige_types::{Actor, ClientId, Message, Proposal, ServerId, Transaction};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Requests falling due within this window share one `Prop` bundle, the
/// way many users behind one client connection would.
pub const BUNDLE_WINDOW_NS: u64 = 500_000;
/// How often overdue requests are looked for.
const COMPLAINT_CHECK_NS: u64 = 20_000_000;
/// Largest bundle, so a backlog never becomes one giant frame.
const MAX_BUNDLE: usize = 4096;

/// The offered-rate schedule: `(start_ns, rate per second)` steps, each in
/// force until the next; no request falls due at or after `end_ns`.
#[derive(Debug, Clone)]
pub struct Plan {
    pub steps: Vec<(u64, f64)>,
    pub end_ns: u64,
}

impl Plan {
    fn rate_at(&self, t: u64) -> (f64, u64) {
        let mut rate = 0.0;
        let mut next = self.end_ns;
        for (i, &(start, r)) in self.steps.iter().enumerate() {
            if start <= t {
                rate = r;
                next = self.steps.get(i + 1).map_or(self.end_ns, |s| s.0);
            }
        }
        (rate, next)
    }

    /// Expected number of requests, for sizing the record table.
    fn expected(&self) -> usize {
        let mut total = 0.0;
        for (i, &(start, rate)) in self.steps.iter().enumerate() {
            let end = self.steps.get(i + 1).map_or(self.end_ns, |s| s.0);
            total += rate * end.saturating_sub(start) as f64 / 1e9;
        }
        (total * 1.05) as usize + 1024
    }
}

/// One request's life. `ack_ns == 0` means never committed.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub due_ns: u64,
    pub ack_ns: u64,
    /// Time from due to sent (ns, saturating).
    pub late_ns: u32,
    /// Bit `i`: replica `i` notified; bit 7: complained about.
    mask: u8,
}

const COMPLAINED: u8 = 0x80;

/// State the orchestrator reads or sets while the generator runs.
#[derive(Debug, Default)]
pub struct Shared {
    /// Stop issuing new requests (the ladder found its limit).
    pub halt: AtomicBool,
    /// Leave the loop now.
    pub stop: AtomicBool,
    pub issued: AtomicU64,
    pub acked: AtomicU64,
    pub first_ack_ns: AtomicU64,
    pub tid: AtomicU64,
}

/// What the generator hands back when it ends.
pub struct Outcome {
    pub reqs: Vec<Req>,
    pub complaints: Vec<u64>,
    /// `(ack time, request index)` for every commit, in ack order.
    pub ack_order: Vec<(u64, u32)>,
}

/// The generator's link to the replicas.
pub trait GenIo: Send {
    fn broadcast(&mut self, message: Message);
    fn recv(&mut self, timeout: Duration) -> Option<(Actor, Message)>;
}

/// In-process loopback link: the client's own fabric endpoint.
pub struct LoopbackIo {
    pub endpoint: LoopbackTransport<Message>,
    pub servers: Vec<Actor>,
}

impl GenIo for LoopbackIo {
    fn broadcast(&mut self, message: Message) {
        self.endpoint.broadcast(&self.servers, message);
    }
    fn recv(&mut self, timeout: Duration) -> Option<(Actor, Message)> {
        self.endpoint.recv_timeout(timeout)
    }
}

/// Real TCP link on the generator's own thread: one outbound connection per
/// replica for proposals, one inbound connection per replica (the replicas
/// dial the client's listen address) for notifications, multiplexed with
/// `ppoll(2)`. Frames use the program's public codec. A broken outbound
/// connection (a killed replica) is redialled at most every 50 ms; what is
/// sent meanwhile is lost for that replica, as for any client.
pub struct TcpIo {
    me: Actor,
    codec: FrameCodec,
    listener: TcpListener,
    outs: Vec<Outbound>,
    ins: Vec<(TcpStream, Vec<u8>)>,
    pending: VecDeque<(Actor, Message)>,
    scratch: Vec<u8>,
}

struct Outbound {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    redial_at: u64,
}

const REDIAL_NS: u64 = 50_000_000;

fn dial(addr: &SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

impl TcpIo {
    /// Binds the client's listen socket; [`TcpIo::connect`] dials replicas.
    pub fn bind(me: Actor) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        Ok(TcpIo {
            me,
            codec: FrameCodec::new(),
            listener,
            outs: Vec::new(),
            ins: Vec::new(),
            pending: VecDeque::new(),
            scratch: Vec::new(),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Dials every replica, retrying briefly while they come up.
    pub fn connect(&mut self, replicas: &[SocketAddr]) -> std::io::Result<()> {
        for &addr in replicas {
            let mut tries = 0;
            let stream = loop {
                match dial(&addr) {
                    Ok(s) => break s,
                    Err(e) if tries >= 200 => return Err(e),
                    Err(_) => {
                        tries += 1;
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            };
            self.outs.push(Outbound {
                addr,
                stream: Some(stream),
                redial_at: 0,
            });
        }
        Ok(())
    }

    fn pump(&mut self, timeout: Duration) {
        let mut fds: Vec<PollFd> = std::iter::once(self.listener.as_raw_fd())
            .chain(self.ins.iter().map(|(s, _)| s.as_raw_fd()))
            .map(|fd| PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            })
            .collect();
        os::poll_readable(&mut fds, timeout);
        while let Ok((stream, _)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_ok() {
                self.ins.push((stream, Vec::new()));
            }
        }
        let mut chunk = [0u8; 64 * 1024];
        let mut closed = Vec::new();
        for (i, (stream, buf)) in self.ins.iter_mut().enumerate() {
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => {
                        closed.push(i);
                        break;
                    }
                    Ok(k) => buf.extend_from_slice(&chunk[..k]),
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        closed.push(i);
                        break;
                    }
                }
            }
            let mut at = 0;
            while let Ok(Some((from, message, used))) = self.codec.decode::<Message>(&buf[at..]) {
                self.pending.push_back((from, message));
                at += used;
            }
            buf.drain(..at);
        }
        // A replica that closed its connection redials when it next sends.
        for i in closed.into_iter().rev() {
            self.ins.swap_remove(i);
        }
    }
}

impl GenIo for TcpIo {
    fn broadcast(&mut self, message: Message) {
        if self
            .codec
            .encode_into(self.me, &message, &mut self.scratch)
            .is_ok()
        {
            let now = now_ns();
            for out in &mut self.outs {
                if out.stream.is_none() && now >= out.redial_at {
                    out.stream = dial(&out.addr).ok();
                    out.redial_at = now + REDIAL_NS;
                }
                if let Some(stream) = &mut out.stream {
                    if stream.write_all(&self.scratch).is_err() {
                        out.stream = None;
                        out.redial_at = now + REDIAL_NS;
                    }
                }
            }
        }
    }
    fn recv(&mut self, timeout: Duration) -> Option<(Actor, Message)> {
        if self.pending.is_empty() {
            self.pump(timeout);
        }
        self.pending.pop_front()
    }
}

/// Everything a generator run needs.
pub struct GenConfig {
    pub client: ClientId,
    pub payload: usize,
    pub threshold: u32,
    pub timeout_ns: u64,
    pub seed: u64,
    pub plan: Plan,
    /// How long past the plan's end to wait for outstanding commits.
    pub drain_ns: u64,
}

/// splitmix64: a tiny seeded generator for the arrival schedule.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The arrival process: Poisson with the plan's piecewise rate.
struct Schedule {
    rng: Rng,
    plan: Plan,
    next_due: Option<u64>,
}

impl Schedule {
    fn new(plan: Plan, seed: u64, start: u64) -> Self {
        let mut s = Schedule {
            rng: Rng(seed ^ 0x5eed_5eed_5eed_5eed),
            plan,
            next_due: None,
        };
        s.next_due = s.advance(start);
        s
    }

    fn advance(&mut self, mut t: u64) -> Option<u64> {
        loop {
            if t >= self.plan.end_ns {
                return None;
            }
            let (rate, step_end) = self.plan.rate_at(t);
            if rate <= 0.0 {
                t = step_end;
                continue;
            }
            let gap = (-self.rng.unit().ln() / rate * 1e9) as u64;
            if t + gap < step_end {
                return Some(t + gap);
            }
            // Memoryless: restart the draw at the step boundary.
            t = step_end;
        }
    }

    fn pop_due(&mut self, now: u64) -> Option<u64> {
        let due = self.next_due.filter(|&d| d <= now)?;
        self.next_due = self.advance(due);
        Some(due)
    }
}

fn proposal(client: ClientId, ts: u64, payload: usize) -> Proposal {
    let tx = Transaction::with_size(client, ts, payload);
    let digest = digest_of(&tx.payload);
    Proposal::new(tx, digest)
}

/// Runs the generator to completion on the calling thread.
pub fn run(
    cfg: GenConfig,
    registry: &KeyRegistry,
    mut io: Box<dyn GenIo>,
    shared: Arc<Shared>,
) -> Outcome {
    shared.tid.store(os::current_tid(), Ordering::SeqCst);
    let keypair = registry
        .key_of(Actor::Client(cfg.client))
        .expect("generator client key is registered")
        .clone();
    let bundle_sig = keypair.sign(b"bundle");
    let complaint_sig = keypair.sign(b"complaint");
    let start = now_ns();
    let mut schedule = Schedule::new(cfg.plan.clone(), cfg.seed, start);
    let mut reqs: Vec<Req> = Vec::with_capacity(cfg.plan.expected());
    let mut ack_order: Vec<(u64, u32)> = Vec::with_capacity(reqs.capacity());
    let mut complaints = Vec::new();
    let mut outstanding = 0u64;
    let mut oldest = 0usize; // every request before this index is acked
    let mut complain_cursor = 0usize;
    let mut last_bundle = 0u64;
    let mut next_check = start + COMPLAINT_CHECK_NS;
    let mut last_complaint = 0u64;
    let drain_deadline = cfg.plan.end_ns + cfg.drain_ns;

    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let now = now_ns();
        let halted = shared.halt.load(Ordering::Relaxed);
        let exhausted = schedule.next_due.is_none() || halted;
        if exhausted && (outstanding == 0 || now >= drain_deadline) {
            break;
        }

        // Issue everything due, one bundle per window.
        if !halted && now >= last_bundle + BUNDLE_WINDOW_NS {
            let mut proposals = Vec::new();
            while proposals.len() < MAX_BUNDLE {
                let Some(due) = schedule.pop_due(now) else {
                    break;
                };
                let ts = reqs.len() as u64 + 1;
                reqs.push(Req {
                    due_ns: due,
                    ack_ns: 0,
                    late_ns: (now - due).min(u32::MAX as u64) as u32,
                    mask: 0,
                });
                proposals.push(proposal(cfg.client, ts, cfg.payload));
            }
            if !proposals.is_empty() {
                let span =
                    trace::begin("gen.bundle", reqs.len() as u64 + 1 - proposals.len() as u64);
                outstanding += proposals.len() as u64;
                shared.issued.store(reqs.len() as u64, Ordering::Relaxed);
                io.broadcast(Message::Prop {
                    proposals,
                    client_sig: bundle_sig,
                });
                trace::end(span);
                last_bundle = now;
            }
        }

        // Complain about the oldest overdue request, one per check.
        if now >= next_check {
            next_check = now + COMPLAINT_CHECK_NS;
            while oldest < reqs.len() && reqs[oldest].ack_ns != 0 {
                oldest += 1;
            }
            complain_cursor = complain_cursor.max(oldest);
            while complain_cursor < reqs.len()
                && (reqs[complain_cursor].ack_ns != 0
                    || reqs[complain_cursor].mask & COMPLAINED != 0)
            {
                complain_cursor += 1;
            }
            let target = if complain_cursor < reqs.len()
                && now >= reqs[complain_cursor].due_ns + cfg.timeout_ns
            {
                Some(complain_cursor)
            } else if oldest < reqs.len()
                && now >= reqs[oldest].due_ns + 3 * cfg.timeout_ns
                && now >= last_complaint + cfg.timeout_ns
            {
                // Still stuck long after complaining: complain again.
                Some(oldest)
            } else {
                None
            };
            if let Some(i) = target {
                reqs[i].mask |= COMPLAINED;
                last_complaint = now;
                complaints.push(now);
                io.broadcast(Message::Compt {
                    proposal: proposal(cfg.client, i as u64 + 1, cfg.payload),
                    client_sig: complaint_sig,
                });
            }
        }

        // Wait for notifications until the next bundle or check is due.
        let mut wake = next_check.min(drain_deadline);
        if !exhausted {
            let next = schedule.next_due.unwrap_or(u64::MAX);
            wake = wake.min(next.max(last_bundle + BUNDLE_WINDOW_NS));
        }
        let mut timeout = Duration::from_nanos(wake.saturating_sub(now_ns()));
        for _ in 0..256 {
            let Some((from, message)) = io.recv(timeout) else {
                break;
            };
            timeout = Duration::ZERO;
            let (Actor::Server(ServerId(s)), Message::Notif { tx_keys, seq, .. }) = (from, message)
            else {
                continue;
            };
            let span = trace::begin("gen.notif", seq.0);
            let at = now_ns();
            for (client, ts) in tx_keys {
                let Some(req) = (client == cfg.client)
                    .then(|| reqs.get_mut(ts as usize - 1))
                    .flatten()
                else {
                    continue;
                };
                if req.ack_ns != 0 {
                    continue;
                }
                req.mask |= 1 << s.min(6);
                if (req.mask & !COMPLAINED).count_ones() >= cfg.threshold {
                    req.ack_ns = at;
                    outstanding -= 1;
                    ack_order.push((at, ts as u32 - 1));
                    if shared.first_ack_ns.load(Ordering::Relaxed) == 0 {
                        shared.first_ack_ns.store(at, Ordering::Relaxed);
                    }
                }
            }
            shared
                .acked
                .store(ack_order.len() as u64, Ordering::Relaxed);
            trace::end(span);
        }
    }
    Outcome {
        reqs,
        complaints,
        ack_order,
    }
}
