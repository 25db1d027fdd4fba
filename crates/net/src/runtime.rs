//! The node runtime: drives an I/O-free [`Process`] on real time and a real
//! transport.
//!
//! The deterministic protocol implementations in `prestige-core` are written
//! against the driver contract of `prestige-sim` ([`Context`] / `Effects`):
//! handlers react to deliveries and timer expirations and buffer their
//! effects. The simulator turns those effects into virtual events; this
//! runtime turns the *same* effects into socket writes and OS timers, so the
//! exact same server and client code runs unmodified on a real cluster:
//!
//! * `ctx.now()` — wall-clock nanoseconds since the node started
//!   (`SimTime` is just a nanosecond counter, so protocol timeout arithmetic
//!   carries over unchanged);
//! * `ctx.send(..)` — handed to the [`Transport`];
//! * `ctx.set_timer(..)` — kept in a local timer heap, fired by the event
//!   loop when due (cancellations respected);
//! * `ctx.charge_cpu(..)` — ignored: real CPU time passes by itself.
//!
//! Protocol nodes verify and apply inline, inside their handlers, so one
//! thread does all of a node's protocol work. The one seam for work done
//! elsewhere is [`JobSource`]: a node spawned with completion sources has
//! each finished `(token, ok)` pair fed back through
//! `Process::on_job_complete` as an ordinary event, interleaved with
//! deliveries and timers on the same thread. No launcher in this crate
//! attaches one.
//!
//! # Profiling
//!
//! When a [`LoopProfile`] is attached (see [`NodeHandle::spawn_instrumented`]),
//! the loop buckets its wall time by stage: every handler invocation runs
//! under a root span (messages → `guards`, timer fires → `timer`, job
//! completions → `guards`, control drains → `control`), the protocol core opens
//! sub-spans for the expensive interior work (`inline_verify`, `apply`,
//! `storage_append`), the effects writer opens an `encode_broadcast`
//! sub-span, and waits land in `idle` (a queued message's receive cost lands
//! in `decode`). Sub-span self time is subtracted from the enclosing root, so
//! the stages *partition* busy time — summing them never double counts. Cost
//! when attached is two monotonic clock reads per span; when absent
//! (`--no-profile`, the simulator) the spans compile to a `None` check.

use crate::transport::Transport;
use prestige_core::{LoopProfile, LoopStage};
use prestige_sim::{Context, Effects, Emission, Process, SimRng, SimTime, TimerId};
use prestige_types::{Actor, Wire};
use std::collections::{BinaryHeap, HashSet};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest the event loop sleeps before re-checking control messages.
const IDLE_TICK: Duration = Duration::from_millis(20);

/// Cap on the transport wait while jobs are outstanding, so completions are
/// consumed with sub-millisecond latency even when no messages arrive to
/// wake the loop.
const JOB_POLL_TICK: Duration = Duration::from_micros(200);

/// How many additional queued messages one loop iteration drains after a
/// successful receive, before re-checking timers and control. Bounded so a
/// flood cannot starve timers; large enough to amortize the per-iteration
/// bookkeeping under load.
const MESSAGE_BURST: usize = 64;

/// How many job completions one loop iteration consumes per source before
/// re-checking timers and control, so a busy source cannot starve timers.
const JOB_BURST: usize = 128;

/// A source of finished jobs, polled by the event loop: each completion is
/// delivered to the node as `Process::on_job_complete(token, ok)`.
pub trait JobSource: Send + Sync {
    /// Pops one finished completion, if any.
    fn try_done(&self) -> Option<(u64, bool)>;
    /// Jobs submitted whose completions have not been consumed yet.
    fn pending(&self) -> usize;
}

/// A pending timer in the node's local heap (min-heap by due time, FIFO on
/// ties via the timer id, mirroring the simulator's tie-break).
#[derive(Debug, PartialEq, Eq)]
struct PendingTimer {
    due: SimTime,
    id: TimerId,
    tag: u64,
}

impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want the earliest due.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A boxed closure run against the live node on the runtime thread.
type InspectFn<M> = Box<dyn FnOnce(&mut dyn Process<M>) + Send>;

enum Control<M> {
    Inspect(InspectFn<M>),
    Stop,
}

/// Handle to a node running on its own runtime thread.
pub struct NodeHandle<M> {
    actor: Actor,
    ctl: Sender<Control<M>>,
    join: Option<JoinHandle<Box<dyn Process<M> + Send>>>,
}

impl<M: Wire + Send + 'static> NodeHandle<M> {
    /// Starts a runtime thread driving `node` over `transport`.
    ///
    /// `seed` feeds the node's deterministic RNG stream (used for timeout
    /// randomization); distinct nodes should get distinct seeds, conventionally
    /// derived the same way the simulator does it.
    pub fn spawn(
        node: Box<dyn Process<M> + Send>,
        transport: Box<dyn Transport<M>>,
        seed: u64,
    ) -> Self {
        Self::spawn_instrumented(node, transport, seed, Vec::new(), None)
    }

    /// The general spawn: any number of [`JobSource`]s drained as
    /// `Process::on_job_complete` events, plus an optional always-on stage
    /// profiler (see the module docs' *Profiling* section).
    pub fn spawn_instrumented(
        node: Box<dyn Process<M> + Send>,
        mut transport: Box<dyn Transport<M>>,
        seed: u64,
        sources: Vec<Arc<dyn JobSource>>,
        profile: Option<Arc<LoopProfile>>,
    ) -> Self {
        let actor = transport.me();
        let (ctl_tx, ctl_rx) = channel();
        let join = std::thread::Builder::new()
            .name(format!("prestige-node-{actor}"))
            .spawn(move || run_event_loop(node, &mut *transport, seed, ctl_rx, sources, profile))
            .expect("spawn node runtime thread");
        NodeHandle {
            actor,
            ctl: ctl_tx,
            join: Some(join),
        }
    }

    /// The actor this node runs as.
    pub fn actor(&self) -> Actor {
        self.actor
    }

    /// Runs a closure against the live node state on the runtime thread and
    /// returns its result. Returns `None` if the node has already stopped or
    /// does not answer within `timeout`.
    pub fn inspect_with_timeout<R, F>(&self, f: F, timeout: Duration) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut dyn Process<M>) -> R + Send + 'static,
    {
        let (reply_tx, reply_rx) = channel();
        let request = Control::Inspect(Box::new(move |node: &mut dyn Process<M>| {
            // The receiver may have given up; a failed send is harmless.
            let _ = reply_tx.send(f(node));
        }));
        if self.ctl.send(request).is_err() {
            return None;
        }
        reply_rx.recv_timeout(timeout).ok()
    }

    /// [`Self::inspect_with_timeout`] with a 5-second budget.
    pub fn inspect<R, F>(&self, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut dyn Process<M>) -> R + Send + 'static,
    {
        self.inspect_with_timeout(f, Duration::from_secs(5))
    }

    /// Downcasting convenience over [`Self::inspect`]: runs `f` against the
    /// node as concrete type `T`.
    pub fn inspect_as<T, R, F>(&self, f: F) -> Option<R>
    where
        T: 'static,
        R: Send + 'static,
        F: FnOnce(&T) -> R + Send + 'static,
    {
        self.inspect(move |node| node.as_any().downcast_ref::<T>().map(f))
            .flatten()
    }

    /// Stops the runtime thread and returns the node for post-mortem
    /// inspection.
    pub fn stop(mut self) -> Option<Box<dyn Process<M> + Send>> {
        let _ = self.ctl.send(Control::Stop);
        self.join.take().and_then(|j| j.join().ok())
    }
}

impl<M> Drop for NodeHandle<M> {
    fn drop(&mut self) {
        let _ = self.ctl.send(Control::Stop);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn run_event_loop<M: Wire + Send + 'static>(
    mut node: Box<dyn Process<M> + Send>,
    transport: &mut dyn Transport<M>,
    seed: u64,
    ctl: Receiver<Control<M>>,
    sources: Vec<Arc<dyn JobSource>>,
    profile: Option<Arc<LoopProfile>>,
) -> Box<dyn Process<M> + Send> {
    let me = transport.me();
    let epoch = Instant::now();
    let now = |epoch: Instant| SimTime(epoch.elapsed().as_nanos() as u64);

    // Same per-node stream derivation as `Simulation::add_node`, so timeout
    // randomization behaves comparably across runtimes.
    let salt = match me {
        Actor::Server(s) => s.0 as u64,
        Actor::Client(c) => 0x1_0000_0000u64 + c.0,
    };
    let mut rng = SimRng::new(seed).derive(salt);
    let mut next_timer_id: u64 = 0;
    let mut timers: BinaryHeap<PendingTimer> = BinaryHeap::new();
    let mut cancelled: HashSet<TimerId> = HashSet::new();

    let apply = |effects: Effects<M>,
                 timers: &mut BinaryHeap<PendingTimer>,
                 cancelled: &mut HashSet<TimerId>,
                 transport: &mut dyn Transport<M>,
                 profile: &Option<Arc<LoopProfile>>,
                 at: SimTime| {
        for id in effects.cancels {
            cancelled.insert(id);
        }
        for (id, delay, tag) in effects.timers {
            timers.push(PendingTimer {
                due: at + delay,
                id,
                tag,
            });
        }
        if !effects.emissions.is_empty() {
            // Serialization + socket handoff, carved out of the handler's
            // root span so it shows up as its own stage.
            let span = LoopProfile::begin(profile);
            for emission in effects.emissions {
                match emission {
                    Emission::Send(to, message) => transport.send(to, message),
                    // Fan-out goes through the transport's broadcast so an
                    // encode-once implementation serializes the payload a
                    // single time for all recipients.
                    Emission::Broadcast(tos, message) => transport.broadcast(&tos, message),
                }
            }
            LoopProfile::end_sub(profile, span, LoopStage::EncodeBroadcast);
        }
        // effects.cpu intentionally ignored: real time already passed.
    };

    // Start the node.
    {
        let mut effects = Effects::new();
        let t = now(epoch);
        let mut ctx = Context::new(t, me, &mut rng, &mut next_timer_id, &mut effects);
        node.on_start(&mut ctx);
        apply(effects, &mut timers, &mut cancelled, transport, &profile, t);
    }

    loop {
        // Control messages first so stop/inspect stay responsive under load.
        let span = LoopProfile::begin(&profile);
        loop {
            match ctl.try_recv() {
                Ok(Control::Stop) => {
                    if let Some(p) = &profile {
                        p.set_total(epoch.elapsed().as_nanos() as u64);
                    }
                    transport.shutdown();
                    return node;
                }
                Ok(Control::Inspect(f)) => f(&mut *node),
                Err(_) => break,
            }
        }
        LoopProfile::end_root(&profile, span, LoopStage::Control);

        // Deliver finished jobs as ordinary events, bounded per iteration so
        // a busy source cannot starve timers. The handler's own bookkeeping
        // lands in `guards`; its heavy interior carves itself out via
        // sub-spans.
        for source in &sources {
            for _ in 0..JOB_BURST {
                let Some((token, ok)) = source.try_done() else {
                    break;
                };
                let span = LoopProfile::begin(&profile);
                let t = now(epoch);
                let mut effects = Effects::new();
                let mut ctx = Context::new(t, me, &mut rng, &mut next_timer_id, &mut effects);
                node.on_job_complete(token, ok, &mut ctx);
                apply(effects, &mut timers, &mut cancelled, transport, &profile, t);
                LoopProfile::end_root(&profile, span, LoopStage::Guards);
            }
        }

        let t = now(epoch);
        if let Some(p) = &profile {
            // Keep the loop's wall-time total fresh so live snapshots (taken
            // while the cluster runs) see a consistent busy/idle split.
            p.set_total(t.0);
        }

        // Fire every timer that is due (skipping cancelled ones).
        while let Some(head) = timers.peek() {
            if head.due > t {
                break;
            }
            let PendingTimer { id, tag, due: _ } = timers.pop().expect("peeked");
            if cancelled.remove(&id) {
                continue;
            }
            // Handlers observe actual wall-clock time, not the scheduled due
            // time — real runtimes cannot hide scheduling lag.
            let span = LoopProfile::begin(&profile);
            let mut effects = Effects::new();
            let mut ctx = Context::new(t, me, &mut rng, &mut next_timer_id, &mut effects);
            node.on_timer(id, tag, &mut ctx);
            apply(effects, &mut timers, &mut cancelled, transport, &profile, t);
            LoopProfile::end_root(&profile, span, LoopStage::Timer);
        }

        // Sleep until the next timer (bounded by the idle tick), waking early
        // for any inbound message; while jobs are outstanding the wait is
        // capped so completions are consumed promptly.
        let mut wait = match timers.peek() {
            Some(head) => {
                let gap = head.due.since(now(epoch));
                Duration::from_nanos(gap.0).min(IDLE_TICK)
            }
            None => IDLE_TICK,
        };
        if sources.iter().any(|s| s.pending() > 0) {
            wait = wait.min(JOB_POLL_TICK);
        }
        // A zero-timeout poll first: a message already queued charges its
        // receive to `decode`; only an actually-empty queue pays the blocking
        // wait, which is `idle` whether or not a message ends the wait.
        let mut span = LoopProfile::begin(&profile);
        let received = match transport.recv_timeout(Duration::ZERO) {
            Some(m) => {
                span = LoopProfile::rollover(&profile, span, LoopStage::Decode);
                Some(m)
            }
            None => {
                let got = transport.recv_timeout(wait);
                if got.is_some() {
                    span = LoopProfile::rollover(&profile, span, LoopStage::Idle);
                } else {
                    LoopProfile::end_root(&profile, span.take(), LoopStage::Idle);
                }
                got
            }
        };
        if let Some((from, message)) = received {
            let t = now(epoch);
            let mut effects = Effects::new();
            let mut ctx = Context::new(t, me, &mut rng, &mut next_timer_id, &mut effects);
            node.on_message(from, message, &mut ctx);
            apply(effects, &mut timers, &mut cancelled, transport, &profile, t);
            LoopProfile::end_root(&profile, span, LoopStage::Guards);
            // Under load, drain a bounded burst of already-queued messages
            // before paying for the timer/control bookkeeping again.
            for _ in 0..MESSAGE_BURST {
                let span = LoopProfile::begin(&profile);
                let Some((from, message)) = transport.recv_timeout(Duration::ZERO) else {
                    LoopProfile::end_root(&profile, span, LoopStage::Decode);
                    break;
                };
                let span = LoopProfile::rollover(&profile, span, LoopStage::Decode);
                let t = now(epoch);
                let mut effects = Effects::new();
                let mut ctx = Context::new(t, me, &mut rng, &mut next_timer_id, &mut effects);
                node.on_message(from, message, &mut ctx);
                apply(effects, &mut timers, &mut cancelled, transport, &profile, t);
                LoopProfile::end_root(&profile, span, LoopStage::Guards);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackNet;
    use prestige_types::ServerId;
    use std::any::Any;

    #[derive(Debug, Clone)]
    struct TestMsg(u64);

    impl Wire for TestMsg {
        fn wire_size(&self) -> usize {
            8
        }
        fn kind(&self) -> &'static str {
            "TestMsg"
        }
    }

    /// Sends one ping on start, echoes everything back incremented, and
    /// counts timer fires.
    struct Echo {
        peer: Option<Actor>,
        received: Vec<u64>,
        ticks: u64,
    }

    impl Process<TestMsg> for Echo {
        fn on_start(&mut self, ctx: &mut Context<TestMsg>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, TestMsg(1));
            }
            ctx.set_timer(prestige_sim::SimDuration::from_ms(5.0), 7);
        }
        fn on_message(&mut self, from: Actor, message: TestMsg, ctx: &mut Context<TestMsg>) {
            self.received.push(message.0);
            if message.0 < 10 {
                ctx.send(from, TestMsg(message.0 + 1));
            }
        }
        fn on_timer(&mut self, _id: TimerId, tag: u64, _ctx: &mut Context<TestMsg>) {
            assert_eq!(tag, 7);
            self.ticks += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn server(i: u32) -> Actor {
        Actor::Server(ServerId(i))
    }

    #[test]
    fn two_nodes_ping_pong_over_loopback_runtime() {
        let net: LoopbackNet<TestMsg> = LoopbackNet::new();
        let t0 = net.endpoint(server(0));
        let t1 = net.endpoint(server(1));
        let a = NodeHandle::spawn(
            Box::new(Echo {
                peer: Some(server(1)),
                received: vec![],
                ticks: 0,
            }),
            Box::new(t0),
            1,
        );
        let b = NodeHandle::spawn(
            Box::new(Echo {
                peer: None,
                received: vec![],
                ticks: 0,
            }),
            Box::new(t1),
            1,
        );

        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let done = a
                .inspect_as::<Echo, _, _>(|e| e.received.contains(&10))
                .unwrap_or(false);
            if done || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        let a_node = a.stop().expect("node a returned");
        let b_node = b.stop().expect("node b returned");
        let a_echo = a_node.as_any().downcast_ref::<Echo>().unwrap();
        let b_echo = b_node.as_any().downcast_ref::<Echo>().unwrap();
        // a sent 1; b received odd numbers, a received even numbers up to 10.
        assert_eq!(a_echo.received, vec![2, 4, 6, 8, 10]);
        assert_eq!(b_echo.received, vec![1, 3, 5, 7, 9]);
        assert!(a_echo.ticks >= 1, "5 ms timer must have fired");
    }

    /// Timers must fire even when no messages arrive, and cancellation must
    /// suppress firing.
    struct TimerProbe {
        fired: Vec<u64>,
    }

    impl Process<TestMsg> for TimerProbe {
        fn on_start(&mut self, ctx: &mut Context<TestMsg>) {
            let keep = ctx.set_timer(prestige_sim::SimDuration::from_ms(10.0), 1);
            let _ = keep;
            let cancel_me = ctx.set_timer(prestige_sim::SimDuration::from_ms(15.0), 2);
            ctx.cancel_timer(cancel_me);
            ctx.set_timer(prestige_sim::SimDuration::from_ms(20.0), 3);
        }
        fn on_message(&mut self, _f: Actor, _m: TestMsg, _ctx: &mut Context<TestMsg>) {}
        fn on_timer(&mut self, _id: TimerId, tag: u64, _ctx: &mut Context<TestMsg>) {
            self.fired.push(tag);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn timers_fire_in_order_and_respect_cancellation() {
        let net: LoopbackNet<TestMsg> = LoopbackNet::new();
        let handle = NodeHandle::spawn(
            Box::new(TimerProbe { fired: vec![] }),
            Box::new(net.endpoint(server(0))),
            3,
        );
        std::thread::sleep(Duration::from_millis(80));
        let node = handle.stop().expect("node returned");
        let probe = node.as_any().downcast_ref::<TimerProbe>().unwrap();
        assert_eq!(probe.fired, vec![1, 3], "tag 2 was cancelled");
    }
}
