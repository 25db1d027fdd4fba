//! In-memory span tracing around the seams the nodes are built from.
//!
//! The wrappers here ([`TracedProcess`], [`TracedTransport`],
//! [`TracedStorage`]) sit *outside* the program: they wrap the public
//! `Process`, `Transport` and `Storage` objects a node is assembled from and
//! record one span per call. A span holds its name, wall start and end, its
//! on-CPU time, the span that was open on the same thread when it began (its
//! parent) and an id: the instance sequence number for replication handlers,
//! the transaction timestamp for generator spans. Self time is a span's CPU
//! time minus the CPU time of its children.
//!
//! Recording is gated by [`TRACING`], so the wrappers can stay installed
//! while only a chosen window is recorded. Spans are kept per thread and
//! collected with [`collect`] when the run ends.

use crate::os;
use prestige_net::{FrameCodec, Transport, TransportStats};
use prestige_sim::{Context, Process, TimerId};
use prestige_storage::{Storage, StorageStats, WalRecordRef};
use prestige_types::{Actor, Message, Wire};
use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Whether spans are being recorded right now.
pub static TRACING: AtomicBool = AtomicBool::new(false);

/// Messages and encoded bytes handed to traced transports while tracing.
pub static SENT_MSGS: AtomicU64 = AtomicU64::new(0);
pub static SENT_BYTES: AtomicU64 = AtomicU64::new(0);
/// WAL bytes appended through traced storage while tracing.
pub static WAL_BYTES: AtomicU64 = AtomicU64::new(0);

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the benchmark's epoch: the one clock the generator,
/// the orchestrator and every span share.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
    pub child_cpu_ns: u64,
    pub parent: u32,
    pub id: u64,
}

impl Span {
    pub fn self_cpu_ns(&self) -> u64 {
        self.cpu_ns.saturating_sub(self.child_cpu_ns)
    }
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Default)]
struct ThreadSpans {
    thread: String,
    spans: Vec<Span>,
    open: Vec<u32>,
}

type Buffer = Arc<Mutex<ThreadSpans>>;

static REGISTRY: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Buffer>> = const { RefCell::new(None) };
}

fn with_buffer<R>(f: impl FnOnce(&mut ThreadSpans) -> R) -> R {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let buffer = local.get_or_insert_with(|| {
            let buffer: Buffer = Arc::new(Mutex::new(ThreadSpans {
                thread: std::thread::current().name().unwrap_or("?").to_string(),
                ..ThreadSpans::default()
            }));
            REGISTRY
                .lock()
                .expect("span registry lock")
                .push(Arc::clone(&buffer));
            buffer
        });
        let mut spans = buffer.lock().expect("thread span buffer lock");
        f(&mut spans)
    })
}

/// A span that has begun and not yet ended.
pub struct Open {
    index: u32,
    cpu0: u64,
}

/// Opens a span when tracing is on.
pub fn begin(name: &'static str, id: u64) -> Option<Open> {
    if !TRACING.load(Ordering::Relaxed) {
        return None;
    }
    let start_ns = now_ns();
    let cpu0 = os::thread_cpu_ns();
    let index = with_buffer(|t| {
        let index = t.spans.len() as u32;
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            cpu_ns: 0,
            child_cpu_ns: 0,
            parent: t.open.last().copied().unwrap_or(NO_PARENT),
            id,
        });
        t.open.push(index);
        index
    });
    Some(Open { index, cpu0 })
}

/// Closes a span, optionally renaming it (a WAL append that fsynced).
pub fn end_as(open: Option<Open>, rename: Option<&'static str>) {
    let Some(open) = open else { return };
    let cpu = os::thread_cpu_ns().saturating_sub(open.cpu0);
    let end_ns = now_ns();
    with_buffer(|t| {
        t.open.pop();
        let span = &mut t.spans[open.index as usize];
        span.end_ns = end_ns;
        span.cpu_ns = cpu;
        if let Some(name) = rename {
            span.name = name;
        }
        let parent = span.parent;
        if parent != NO_PARENT {
            t.spans[parent as usize].child_cpu_ns += cpu;
        }
    });
}

pub fn end(open: Option<Open>) {
    end_as(open, None)
}

/// Takes every span recorded so far, grouped by thread name.
pub fn collect() -> Vec<(String, Vec<Span>)> {
    REGISTRY
        .lock()
        .expect("span registry lock")
        .iter()
        .map(|buffer| {
            let mut t = buffer.lock().expect("thread span buffer lock");
            (t.thread.clone(), std::mem::take(&mut t.spans))
        })
        .collect()
}

/// Writes spans as tab-separated lines: thread, index, parent, name, id,
/// start, end, cpu, self cpu (all nanoseconds).
pub fn write_tsv(path: &std::path::Path, threads: &[(String, Vec<Span>)]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "thread\tindex\tparent\tname\tid\tstart_ns\tend_ns\tcpu_ns\tself_cpu_ns"
    )?;
    for (thread, spans) in threads {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{thread}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.id,
                s.start_ns,
                s.end_ns,
                s.cpu_ns,
                s.self_cpu_ns()
            )?;
        }
    }
    out.flush()
}

/// Handler spans reported one by one: one per message kind that matters,
/// the timer, and `other` for every remaining kind and job completions.
pub const HANDLER_SPANS: [&str; 19] = [
    "handler.Prop",
    "handler.Ord",
    "handler.OrdReply",
    "handler.Cmt",
    "handler.CmtReply",
    "handler.CommitBlock",
    "handler.Compt",
    "handler.ConfVC",
    "handler.ReVC",
    "handler.Camp",
    "handler.VoteCP",
    "handler.NewVcBlock",
    "handler.VcYes",
    "handler.CkptShare",
    "handler.CkptCert",
    "handler.SyncReq",
    "handler.SyncResp",
    "handler.timer",
    "handler.other",
];

fn handler_span_name(kind: &str) -> &'static str {
    HANDLER_SPANS
        .iter()
        .find(|name| name.strip_prefix("handler.") == Some(kind))
        .copied()
        .unwrap_or("handler.other")
}

/// The instance sequence number a replication message belongs to.
fn instance_of(message: &Message) -> u64 {
    match message {
        Message::Ord { n, .. }
        | Message::OrdReply { n, .. }
        | Message::Cmt { n, .. }
        | Message::CmtReply { n, .. } => n.0,
        Message::CommitBlock { block, .. } => block.n.0,
        Message::Notif { seq, .. } => seq.0,
        _ => 0,
    }
}

/// A node's protocol object with every handler call recorded as a span.
/// `as_any` forwards, so harness inspection still sees the inner server.
pub struct TracedProcess {
    inner: Box<dyn Process<Message> + Send>,
}

impl TracedProcess {
    pub fn new(inner: Box<dyn Process<Message> + Send>) -> Self {
        TracedProcess { inner }
    }
}

impl Process<Message> for TracedProcess {
    fn on_start(&mut self, ctx: &mut Context<Message>) {
        self.inner.on_start(ctx)
    }
    fn on_message(&mut self, from: Actor, message: Message, ctx: &mut Context<Message>) {
        let span = begin(handler_span_name(message.kind()), instance_of(&message));
        self.inner.on_message(from, message, ctx);
        end(span);
    }
    fn on_timer(&mut self, id: TimerId, tag: u64, ctx: &mut Context<Message>) {
        let span = begin("handler.timer", tag);
        self.inner.on_timer(id, tag, ctx);
        end(span);
    }
    fn on_job_complete(&mut self, token: u64, ok: bool, ctx: &mut Context<Message>) {
        let span = begin("handler.other", token);
        self.inner.on_job_complete(token, ok, ctx);
        end(span);
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A transport endpoint with sends and receives recorded as spans and every
/// outbound message counted and sized with the wire codec.
pub struct TracedTransport {
    inner: Box<dyn Transport<Message>>,
    codec: FrameCodec,
    scratch: Vec<u8>,
}

impl TracedTransport {
    pub fn new(inner: Box<dyn Transport<Message>>) -> Self {
        TracedTransport {
            inner,
            codec: FrameCodec::new(),
            scratch: Vec::new(),
        }
    }

    fn count(&mut self, message: &Message, copies: usize) {
        if TRACING.load(Ordering::Relaxed) {
            let me = self.inner.me();
            if self
                .codec
                .encode_into(me, message, &mut self.scratch)
                .is_ok()
            {
                SENT_BYTES.fetch_add((self.scratch.len() * copies) as u64, Ordering::Relaxed);
            }
            SENT_MSGS.fetch_add(copies as u64, Ordering::Relaxed);
        }
    }
}

impl Transport<Message> for TracedTransport {
    fn me(&self) -> Actor {
        self.inner.me()
    }
    fn send(&mut self, to: Actor, message: Message) {
        self.count(&message, 1);
        let span = begin("transport.send", instance_of(&message));
        self.inner.send(to, message);
        end(span);
    }
    fn broadcast(&mut self, recipients: &[Actor], message: Message) {
        self.count(&message, recipients.len());
        let span = begin("transport.send", instance_of(&message));
        self.inner.broadcast(recipients, message);
        end(span);
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Option<(Actor, Message)> {
        let span = begin("transport.recv", 0);
        let got = self.inner.recv_timeout(timeout);
        end(span);
        got
    }
    fn stats(&self) -> Arc<TransportStats> {
        self.inner.stats()
    }
    fn shutdown(&mut self) {
        self.inner.shutdown()
    }
}

/// A storage sink with appends, syncs and prunes recorded as spans. An
/// append during which the log fsynced (its batching window closed) is
/// recorded as `wal.sync`, so sync latency covers every fsync.
pub struct TracedStorage {
    inner: Box<dyn Storage>,
}

impl TracedStorage {
    pub fn new(inner: Box<dyn Storage>) -> Self {
        TracedStorage { inner }
    }
}

impl Storage for TracedStorage {
    fn append(&mut self, record: WalRecordRef<'_>) -> std::io::Result<()> {
        let before = self.inner.stats();
        let id = match &record {
            WalRecordRef::Block(block) => block.n.0,
            _ => 0,
        };
        let span = begin("wal.append", id);
        let result = self.inner.append(record);
        let after = self.inner.stats();
        let synced = after.fsyncs > before.fsyncs;
        end_as(span, synced.then_some("wal.sync"));
        if TRACING.load(Ordering::Relaxed) {
            WAL_BYTES.fetch_add(
                after.wal_bytes.saturating_sub(before.wal_bytes),
                Ordering::Relaxed,
            );
        }
        result
    }
    fn sync(&mut self) -> std::io::Result<()> {
        let span = begin("wal.sync", 0);
        let result = self.inner.sync();
        end(span);
        result
    }
    fn prune_below(&mut self, stable_seq: u64) -> std::io::Result<u64> {
        let span = begin("wal.prune", stable_seq);
        let result = self.inner.prune_below(stable_seq);
        end(span);
        result
    }
    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }
}
