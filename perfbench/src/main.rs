//! `perfbench` — the repository benchmark: a 4-replica PrestigeBFT cluster
//! in one process under a seeded open-loop load, measured end to end and,
//! in a separate traced run, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones. A
//! human-readable summary goes to standard error. A correctness violation
//! (a fork, an acknowledged request missing from or duplicated in the
//! committed prefix, a generator that fell behind its schedule) exits
//! non-zero without printing a result.

mod cluster;
mod gen;
mod os;
mod trace;

use cluster::{Cluster, Counters, CLIENT};
use gen::{GenConfig, GenIo, LoopbackIo, Outcome, Plan, Shared, TcpIo};
use prestige_core::LoopStage;
use prestige_net::{verify_no_fork_chains, StoragePlan};
use prestige_types::{Actor, ClusterConfig, ServerId, TimeoutConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use trace::now_ns;

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000_000_000;

/// Warmup before every measured window, so leaders, batches and queues are
/// in steady state when measurement starts.
const WARMUP_NS: u64 = SEC;
/// Cluster launches per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Fresh clusters an end-to-end run measures in turn.
const LIFETIMES: usize = 4;
/// A run is invalid when the generator's p99 lateness exceeds this share of
/// the client timeout: past it, its own lag could start raising complaints.
const LATENESS_BOUND: f64 = 0.1;
/// `max_rate_tx_s` ladder: each rung offered for this long.
const RUNG_NS: u64 = SEC;
/// The ladder's latency limit on p99 (ms).
const LADDER_P99_LIMIT_MS: f64 = 50.0;
/// Churn: kills fall due this long into the window and then once per
/// period; each waits until the previous victim has caught up.
const FIRST_KILL_NS: u64 = SEC;
const KILL_PERIOD_NS: u64 = 10 * SEC;
const DOWNTIME_NS: u64 = SEC;
/// A churn window stays open past its nominal end, by at most this much,
/// until the last victim has caught up, so every catch-up is measured whole.
const CATCHUP_GRACE_NS: u64 = 10 * SEC;

/// One workload: a cluster shape and an offered load.
struct Workload {
    name: &'static str,
    /// TCP on 127.0.0.1 with a WAL per replica; otherwise loopback, in memory.
    wire: bool,
    batch: usize,
    payload: usize,
    /// Fixed offered rate (requests per second).
    rate: f64,
    /// Offered rates climbed for `max_rate_tx_s` (traced runs only).
    ladder: &'static [f64],
    /// Leader kills, detected with the paper's fast timeouts.
    kills: bool,
    /// Latency percentiles are taken per interval of this length and the
    /// median across intervals is reported; `None` makes each lifetime's
    /// window one interval (so each holds exactly one leader failure).
    interval_ns: Option<u64>,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "steady",
        wire: false,
        batch: 500,
        payload: 32,
        rate: 60_000.0,
        ladder: &[
            40_000.0, 60_000.0, 80_000.0, 100_000.0, 120_000.0, 140_000.0, 160_000.0, 180_000.0,
        ],
        kills: false,
        interval_ns: Some(SEC / 2),
    },
    Workload {
        name: "leader_churn",
        wire: true,
        batch: 100,
        payload: 64,
        rate: 20_000.0,
        ladder: &[],
        kills: true,
        interval_ns: None,
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn cluster_config(w: &Workload) -> ClusterConfig {
    let mut config = ClusterConfig::new(4)
        .with_batch_size(w.batch)
        .with_payload_size(w.payload)
        .with_pipeline_depth(4);
    if w.kills {
        config = config.with_timeouts(TimeoutConfig::fast());
    }
    config
}

fn sleep_until(t: u64) {
    let now = now_ns();
    if t > now {
        std::thread::sleep(Duration::from_nanos(t - now));
    }
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

// ---------------------------------------------------------------------------
// Thread accounting
// ---------------------------------------------------------------------------

const ROLES: [&str; 7] = [
    "server_loop",
    "tcp_writer",
    "tcp_read",
    "tcp_conn",
    "verify",
    "generator",
    "other",
];

/// Thread role from its `comm`, which the kernel cuts to 15 characters
/// (`prestige-node-S1` reads `prestige-node-S`).
fn role_of(comm: &str, tid: u64, gen_tid: u64) -> usize {
    if tid == gen_tid {
        5
    } else if comm.starts_with("prestige-node-S") {
        0
    } else if comm.starts_with("tcp-writer-") {
        1
    } else if comm.starts_with("tcp-read") {
        2
    } else if comm.starts_with("tcp-accept-") || comm.starts_with("tcp-connect-") {
        3
    } else if comm.starts_with("prestige-verify") {
        4
    } else {
        6
    }
}

/// Per-thread scheduler counters, remembering threads that have exited
/// (a killed replica's loop) at their last sampled value.
#[derive(Default)]
struct ThreadBook {
    start: HashMap<u64, os::Sched>,
    last: HashMap<u64, (String, os::Sched)>,
}

impl ThreadBook {
    fn begin(&mut self) {
        self.last = os::sample_threads();
        self.start = self.last.iter().map(|(t, (_, s))| (*t, *s)).collect();
    }
    fn refresh(&mut self) {
        self.last.extend(os::sample_threads());
    }
    /// `(on-CPU, run-queue wait)` per role over the window, in ns.
    fn by_role(&self, gen_tid: u64) -> [(u64, u64); 7] {
        let mut out = [(0u64, 0u64); 7];
        for (tid, (comm, end)) in &self.last {
            let start = self.start.get(tid).copied().unwrap_or_default();
            let role = role_of(comm, *tid, gen_tid);
            out[role].0 += end.run_ns.saturating_sub(start.run_ns);
            out[role].1 += end.wait_ns.saturating_sub(start.wait_ns);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// One cluster with its generator
// ---------------------------------------------------------------------------

struct Rig {
    cluster: Cluster,
    shared: Arc<Shared>,
    gen: Option<JoinHandle<Outcome>>,
    /// Generator start: the plan's time origin.
    base: u64,
    wal_root: Option<PathBuf>,
}

fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench-work")
}

/// Launches a cluster and starts the generator on `plan_of(base)`.
fn launch(
    w: &Workload,
    seed: u64,
    traced: bool,
    tag: &str,
    plan_of: impl FnOnce(u64) -> Plan,
) -> std::io::Result<Rig> {
    let config = cluster_config(w);
    let wal_root = w.wire.then(|| {
        let root = work_dir().join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    });
    let storage = wal_root.as_ref().map(|r| StoragePlan::new(r.clone()));
    let (cluster, io): (Cluster, Box<dyn GenIo>) = if w.wire {
        let mut io = TcpIo::bind(Actor::Client(CLIENT))?;
        let cluster = Cluster::launch(config, seed, Some(io.local_addr()), storage, traced)?;
        io.connect(&cluster.server_addrs())?;
        (cluster, Box::new(io))
    } else {
        let cluster = Cluster::launch(config, seed, None, storage, traced)?;
        let endpoint = cluster.client_endpoint().expect("loopback cluster");
        let servers = cluster.server_actors();
        (cluster, Box::new(LoopbackIo { endpoint, servers }))
    };
    let shared = Arc::new(Shared::default());
    let base = now_ns();
    let cfg = GenConfig {
        client: CLIENT,
        payload: w.payload,
        threshold: cluster.config.f() + 1,
        timeout_ns: (cluster.config.timeouts.client_timeout_ms * MS as f64) as u64,
        seed,
        plan: plan_of(base),
        drain_ns: 4 * SEC,
    };
    let registry = cluster.registry.clone();
    let gen_shared = Arc::clone(&shared);
    let gen = std::thread::Builder::new()
        .name("perfbench-gen".into())
        .spawn(move || gen::run(cfg, &registry, io, gen_shared))?;
    Ok(Rig {
        cluster,
        shared,
        gen: Some(gen),
        base,
        wal_root,
    })
}

impl Rig {
    /// Waits until the first request commits; `None` after 30 s.
    fn wait_first_commit(&self) -> Option<u64> {
        let deadline = now_ns() + 30 * SEC;
        loop {
            let t = self.shared.first_ack_ns.load(Ordering::Relaxed);
            if t != 0 {
                return Some(t);
            }
            if now_ns() > deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn join_gen(&mut self) -> Outcome {
        self.gen
            .take()
            .expect("generator running")
            .join()
            .expect("generator thread panicked")
    }

    /// Stops everything and removes the WAL directory.
    fn teardown(mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(gen) = self.gen.take() {
            let _ = gen.join();
        }
        self.cluster.shutdown();
        if let Some(root) = &self.wal_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// Launch-to-first-commit, `count` times; the last rig is kept running.
fn timed_setups(
    w: &Workload,
    seed: u64,
    traced: bool,
    count: usize,
    plan_of: impl Fn(u64) -> Plan,
) -> Result<(Vec<f64>, Rig), String> {
    let mut times = Vec::new();
    for k in 0..count {
        let t0 = now_ns();
        let rig = launch(w, seed, traced, &format!("s{k}"), &plan_of)
            .map_err(|e| format!("cluster launch failed: {e}"))?;
        let first = rig
            .wait_first_commit()
            .ok_or("no request committed within 30 s of launch")?;
        times.push((first - t0) as f64 / 1e9);
        if k + 1 == count {
            return Ok((times, rig));
        }
        rig.teardown();
    }
    unreachable!("count >= 1")
}

// ---------------------------------------------------------------------------
// The measured window
// ---------------------------------------------------------------------------

/// One leader kill and what followed it.
#[derive(Debug, Clone, Copy, Default)]
struct Kill {
    at: u64,
    view_before: u64,
    elected_at: Option<u64>,
    restarted_at: Option<u64>,
    caught_up_at: Option<u64>,
}

/// Everything sampled at the window edges.
struct Window {
    start: u64,
    end: u64,
    proc_cpu: u64,
    threads: ThreadBook,
    counters_start: Counters,
    counters_end: Counters,
    view_start: u64,
    view_end: u64,
    transport_start: (u64, u64, u64),
    transport_end: (u64, u64, u64),
    profile_start: prestige_core::LoopSnapshot,
    profile_end: prestige_core::LoopSnapshot,
    kills: Vec<Kill>,
}

/// `(sent, dropped, writev_calls)` summed over every replica transport.
fn transport_totals(cluster: &Cluster) -> (u64, u64, u64) {
    let mut t = (0, 0, 0);
    for s in &cluster.transport_stats {
        let (sent, _, dropped) = s.snapshot();
        t.0 += sent;
        t.1 += dropped;
        t.2 += s.writer_snapshot().0;
    }
    t
}

/// Runs the window `[start, end)`: samples its edges, flips tracing, and in
/// a churn workload kills and restarts leaders inside it.
fn measure_window(rig: &mut Rig, w: &Workload, start: u64, end: u64, traced: bool) -> Window {
    sleep_until(start);
    let mut threads = ThreadBook::default();
    threads.begin();
    let proc0 = os::process_cpu_ns();
    let counters_start = rig.cluster.total_counters();
    let view_start = rig.cluster.leader().map_or(0, |l| l.1);
    let transport_start = transport_totals(&rig.cluster);
    let profile_start = rig.cluster.loop_profile();
    if traced {
        trace::TRACING.store(true, Ordering::SeqCst);
    }
    let mut kills = Vec::new();
    let mut end = end;
    if w.kills {
        end = churn(rig, start, end, &mut kills, &mut threads);
        rig.shared.halt.store(true, Ordering::Relaxed);
    }
    sleep_until(end);
    trace::TRACING.store(false, Ordering::SeqCst);
    threads.refresh();
    let proc1 = os::process_cpu_ns();
    Window {
        start,
        end,
        proc_cpu: proc1 - proc0,
        threads,
        counters_start,
        counters_end: rig.cluster.total_counters(),
        view_start,
        view_end: rig.cluster.leader().map_or(0, |l| l.1),
        transport_start,
        transport_end: transport_totals(&rig.cluster),
        profile_start,
        profile_end: rig.cluster.loop_profile(),
        kills,
    }
}

/// Kills the current leader at fixed offsets, restarts it blank after a
/// fixed downtime, and kills again only once it has caught up. Returns the
/// window's end: the nominal one, or later if the last victim was still
/// catching up then.
fn churn(
    rig: &mut Rig,
    start: u64,
    end: u64,
    kills: &mut Vec<Kill>,
    threads: &mut ThreadBook,
) -> u64 {
    let depth = rig.cluster.config.pipeline_depth as u64;
    let mut next_kill = start + FIRST_KILL_NS;
    let mut current: Option<(ServerId, Kill)> = None;
    loop {
        let now = now_ns();
        if now >= end + CATCHUP_GRACE_NS || (now >= end && current.is_none()) {
            break;
        }
        match current.as_mut() {
            None if now >= next_kill && now < end => {
                if let Some((leader, view)) = rig.cluster.leader() {
                    threads.refresh(); // the victim's loop thread is about to exit
                    let at = now_ns();
                    rig.cluster.kill(leader);
                    current = Some((
                        leader,
                        Kill {
                            at,
                            view_before: view,
                            ..Kill::default()
                        },
                    ));
                }
            }
            None => {}
            Some((victim, kill)) => {
                if kill.elected_at.is_none() {
                    let moved = rig.cluster.live().into_iter().any(|id| {
                        rig.cluster
                            .counters(id)
                            .is_some_and(|c| c.view > kill.view_before)
                    });
                    if moved {
                        kill.elected_at = Some(now_ns());
                    }
                }
                if kill.restarted_at.is_none() && now >= kill.at + DOWNTIME_NS {
                    if rig.cluster.restart(*victim).is_ok() {
                        kill.restarted_at = Some(now_ns());
                    }
                } else if kill.restarted_at.is_some() {
                    let tips: Vec<(ServerId, u64)> = rig
                        .cluster
                        .live()
                        .into_iter()
                        .filter_map(|id| Some((id, rig.cluster.counters(id)?.latest_seq)))
                        .collect();
                    let own = tips.iter().find(|(id, _)| id == victim).map(|t| t.1);
                    let best = tips.iter().map(|t| t.1).max().unwrap_or(0);
                    if own.is_some_and(|o| o + depth >= best) && kill.elected_at.is_some() {
                        kill.caught_up_at = Some(now_ns());
                        kills.push(*kill);
                        next_kill = start + FIRST_KILL_NS + kills.len() as u64 * KILL_PERIOD_NS;
                        current = None;
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    if let Some((_, kill)) = current {
        kills.push(kill);
    }
    end.max(now_ns())
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/// The gate: no fork among the live replicas' chains, and every
/// acknowledged request exactly once with status true in the committed
/// prefix a quorum of live replicas holds (a restarted replica may still be
/// catching up); no request committed twice, none unknown. Returns that
/// prefix's tip.
fn check_correct(cluster: &Cluster, outcome: &Outcome) -> Result<u64, String> {
    let quorum = cluster.config.quorum() as usize;
    let quorum_tip = |mut tips: Vec<u64>| {
        tips.sort_unstable_by(|a, b| b.cmp(a));
        (tips.len() >= quorum).then(|| (tips[quorum - 1], tips[0]))
    };
    // Let a quorum settle on the highest tip before comparing.
    let deadline = now_ns() + 5 * SEC;
    loop {
        let tips = cluster
            .live()
            .into_iter()
            .filter_map(|id| cluster.counters(id).map(|c| c.latest_seq))
            .collect();
        let settled = quorum_tip(tips).is_some_and(|(q, max)| q == max);
        if settled || now_ns() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let chains = cluster.chains();
    verify_no_fork_chains(&chains)?;
    let tips = chains
        .iter()
        .map(|(_, c)| c.last().map_or(0, |l| l.0))
        .collect();
    let (tip, _) =
        quorum_tip(tips).ok_or_else(|| format!("only {} replicas answered", chains.len()))?;
    let mut blocks: BTreeMap<u64, Vec<(u64, bool)>> = BTreeMap::new();
    for id in cluster.live() {
        if blocks.len() as u64 == tip {
            break;
        }
        for (n, txs) in cluster.client_txs(id, tip).unwrap_or_default() {
            blocks.entry(n).or_insert(txs);
        }
    }
    if let Some(n) = (1..=tip).find(|n| !blocks.contains_key(n)) {
        return Err(format!("committed block {n} is held by no live replica"));
    }
    let issued = outcome.reqs.len();
    let mut committed = vec![0u8; issued];
    for (n, txs) in &blocks {
        for &(ts, ok) in txs {
            let slot = (ts as usize)
                .checked_sub(1)
                .and_then(|i| committed.get_mut(i))
                .ok_or_else(|| format!("block {n} commits unknown request {ts}"))?;
            if ok {
                *slot += 1;
                if *slot > 1 {
                    return Err(format!(
                        "request {ts} committed twice (second in block {n})"
                    ));
                }
            }
        }
    }
    for (i, r) in outcome.reqs.iter().enumerate() {
        if r.ack_ns != 0 && committed[i] != 1 {
            return Err(format!(
                "acknowledged request {} is not in the common committed prefix (tip {tip})",
                i + 1
            ));
        }
    }
    Ok(tip)
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Latency view of the requests due in a window.
struct Latency {
    sorted_ms: Vec<f64>,
    due: usize,
    within_timeout: usize,
    acks_in_window: u64,
    lateness_p99_ms: f64,
}

fn latency(outcome: &Outcome, start: u64, end: u64, timeout_ns: u64) -> Latency {
    let mut sorted_ms = Vec::new();
    let mut late = Vec::new();
    let mut within_timeout = 0;
    for r in outcome
        .reqs
        .iter()
        .filter(|r| r.due_ns >= start && r.due_ns < end)
    {
        late.push(r.late_ns as f64 / 1e6);
        if r.ack_ns == 0 {
            sorted_ms.push(f64::INFINITY);
        } else {
            let l = r.ack_ns - r.due_ns;
            within_timeout += usize::from(l <= timeout_ns);
            sorted_ms.push(l as f64 / 1e6);
        }
    }
    sorted_ms.sort_by(f64::total_cmp);
    late.sort_by(f64::total_cmp);
    let acks_in_window = outcome
        .ack_order
        .iter()
        .filter(|(at, _)| *at >= start && *at < end)
        .count() as u64;
    Latency {
        due: sorted_ms.len(),
        sorted_ms,
        within_timeout,
        acks_in_window,
        lateness_p99_ms: percentile(&late, 99.0),
    }
}

/// Ordered metric list with units.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records a metric; a non-finite value (a percentile that reached an
    /// uncommitted request) is written as the largest finite number, so it
    /// reads as the worst possible result.
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { f64::MAX };
        self.0.push((name.into(), value, unit));
    }
    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Failover figures per kill, in ms: `(total, detect, elect, resume)`.
fn failovers(outcome: &Outcome, kills: &[Kill]) -> Vec<(f64, f64, f64, f64)> {
    kills
        .iter()
        .filter_map(|k| {
            let resume = outcome
                .ack_order
                .iter()
                .find(|(at, i)| *at > k.at && outcome.reqs[*i as usize].due_ns > k.at)?
                .0;
            let detect = outcome.complaints.iter().copied().find(|&c| c > k.at)?;
            let elect = k.elected_at?;
            let ms = |a: u64, b: u64| (b as f64 - a as f64) / 1e6;
            Some((
                ms(k.at, resume),
                ms(k.at, detect),
                ms(detect, elect),
                ms(elect, resume),
            ))
        })
        .collect()
}

/// The ladder verdict: the highest rung whose requests met the p99 limit
/// with every lower rung passing too (an uncommitted request misses).
fn ladder_max(outcome: &Outcome, rungs: &[(u64, f64)], halted_after: usize) -> f64 {
    let mut best = 0.0;
    for &(start, rate) in rungs.iter().take(halted_after) {
        let lat = latency(outcome, start, start + RUNG_NS, u64::MAX);
        let p99 = percentile(&lat.sorted_ms, 99.0);
        eprintln!(
            "  ladder {rate:>9.0} tx/s: p99 {p99:.2} ms over {} requests",
            lat.due
        );
        if lat.due == 0 || p99 > LADDER_P99_LIMIT_MS {
            break;
        }
        best = rate;
    }
    best
}

/// A finished measurement: the window, the generator's record, the tip.
struct Measured {
    window: Window,
    outcome: Outcome,
    gen_tid: u64,
    peak_rss_mb: f64,
}

/// Warmup, window, drain, correctness gate.
fn run_measured(
    mut rig: Rig,
    w: &Workload,
    window_ns: u64,
    traced: bool,
) -> Result<Measured, String> {
    let start = rig.base + WARMUP_NS;
    let end = start + window_ns;
    let window = measure_window(&mut rig, w, start, end, traced);
    let gen_tid = rig.shared.tid.load(Ordering::Relaxed);
    let outcome = rig.join_gen();
    let peak_rss_mb = os::peak_rss_mb();
    let checked = check_correct(&rig.cluster, &outcome);
    rig.teardown();
    let tip = checked?;
    eprintln!(
        "  correctness: no fork, common tip {tip}, every acknowledged request committed once"
    );
    Ok(Measured {
        window,
        outcome,
        gen_tid,
        peak_rss_mb,
    })
}

/// Climbs the workload's ladder of offered rates on a fresh cluster, one
/// rung per second after a warmup at the first rung, and stops offering
/// more once the backlog exceeds what the latency limit allows. Returns the
/// highest rung that met the limit with every lower rung meeting it too.
fn climb_ladder(w: &Workload, seed: u64) -> Result<f64, String> {
    let rungs_of = |base: u64| -> Vec<(u64, f64)> {
        w.ladder
            .iter()
            .enumerate()
            .map(|(k, &r)| (base + WARMUP_NS + k as u64 * RUNG_NS, r))
            .collect()
    };
    let plan = |base: u64| {
        let mut steps = vec![(base, w.ladder[0])];
        steps.extend(rungs_of(base));
        Plan {
            steps,
            end_ns: base + WARMUP_NS + w.ladder.len() as u64 * RUNG_NS,
        }
    };
    let (_, mut rig) = timed_setups(w, seed, false, 1, plan)?;
    let rungs = rungs_of(rig.base);
    let mut climbed = 0;
    for &(rung_start, rate) in &rungs {
        sleep_until(rung_start + RUNG_NS);
        climbed += 1;
        let backlog = rig.shared.issued.load(Ordering::Relaxed) as f64
            - rig.shared.acked.load(Ordering::Relaxed) as f64;
        if backlog > rate * LADDER_P99_LIMIT_MS / 1e3 {
            rig.shared.halt.store(true, Ordering::Relaxed);
            break;
        }
    }
    let outcome = rig.join_gen();
    let checked = check_correct(&rig.cluster, &outcome);
    rig.teardown();
    checked?;
    Ok(ladder_max(&outcome, &rungs, climbed))
}

/// The fixed-rate plan: warmup plus window, and for churn the grace a
/// window may stay open for a catch-up (the generator is halted at the
/// window's actual end).
fn plan_fixed(w: &Workload, window_ns: u64) -> impl Fn(u64) -> Plan + '_ {
    let grace = if w.kills { CATCHUP_GRACE_NS } else { 0 };
    move |base| Plan {
        steps: vec![(base, w.rate)],
        end_ns: base + WARMUP_NS + window_ns + grace,
    }
}

/// End-to-end figures of one measured window.
struct EndToEnd {
    lat: Latency,
    cpu_ns: u64,
    cpu_ns_per_tx: f64,
    gen_cpu_ns: u64,
}

fn end_to_end(m: &Measured, timeout_ns: u64) -> Result<EndToEnd, String> {
    let win = &m.window;
    let lat = latency(&m.outcome, win.start, win.end, timeout_ns);
    if lat.due == 0 || lat.acks_in_window == 0 {
        return Err("no request fell due or committed in the window".into());
    }
    let bound_ms = LATENESS_BOUND * timeout_ns as f64 / 1e6;
    if lat.lateness_p99_ms > bound_ms {
        return Err(format!(
            "generator fell behind its schedule: p99 lateness {:.2} ms > {bound_ms:.0} ms",
            lat.lateness_p99_ms
        ));
    }
    let gen_cpu_ns = win.threads.by_role(m.gen_tid)[5].0;
    let cpu_ns = win.proc_cpu.saturating_sub(gen_cpu_ns);
    Ok(EndToEnd {
        cpu_ns_per_tx: cpu_ns as f64 / lat.acks_in_window as f64,
        lat,
        cpu_ns,
        gen_cpu_ns,
    })
}

fn attempted_failed(outcome: &Outcome) -> (usize, usize) {
    let failed = outcome.reqs.iter().filter(|r| r.ack_ns == 0).count();
    (outcome.reqs.len(), failed)
}

/// The seed of a run's `k`-th cluster lifetime.
fn lifetime_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add(k as u64 * 0x9e37_79b9)
}

/// The end-to-end run: `LIFETIMES` fresh clusters one after another, each
/// measured for its share of the window; latencies are pooled over all of
/// them and CPU is summed, so one launch's luck (thread placement on a small
/// host) weighs only its share.
fn run_untraced(args: &Args) -> Result<(Metrics, usize, usize), String> {
    let w = &args.workload;
    let sub_ns = (args.seconds * 1e9) as u64 / LIFETIMES as u64;
    let mut setups = Vec::new();
    let mut pooled: Vec<f64> = Vec::new();
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let (mut within, mut secs, mut cpu, mut acks, mut rss) = (0usize, 0.0, 0u64, 0u64, 0.0f64);
    let (mut attempted, mut failed) = (0, 0);
    for k in 0..LIFETIMES {
        let count = if k == 0 { SETUPS + 1 - LIFETIMES } else { 1 };
        let (times, rig) = timed_setups(
            w,
            lifetime_seed(args.seed, k),
            false,
            count,
            plan_fixed(w, sub_ns),
        )?;
        setups.extend(times);
        let timeout_ns = (rig.cluster.config.timeouts.client_timeout_ms * MS as f64) as u64;
        let m = run_measured(rig, w, sub_ns, false)?;
        let e = end_to_end(&m, timeout_ns)?;
        let fo: Vec<String> = failovers(&m.outcome, &m.window.kills)
            .iter()
            .map(|f| format!("{:.0}", f.0))
            .collect();
        eprintln!(
            "  lifetime {k}: p50 {:.3} ms, p99 {:.3} ms over {} requests, {:.0} CPU ns/tx, failover ms [{}]",
            percentile(&e.lat.sorted_ms, 50.0),
            percentile(&e.lat.sorted_ms, 99.0),
            e.lat.due,
            e.cpu_ns_per_tx,
            fo.join(" ")
        );
        within += e.lat.within_timeout;
        secs += (m.window.end - m.window.start) as f64 / 1e9;
        cpu += e.cpu_ns;
        acks += e.lat.acks_in_window;
        rss = rss.max(m.peak_rss_mb);
        let (start, end) = (m.window.start, m.window.end);
        let step = w.interval_ns.unwrap_or(end - start);
        for t in (start..end)
            .step_by(step as usize)
            .filter(|t| t + step <= end)
        {
            let lat = latency(&m.outcome, t, t + step, timeout_ns);
            p50s.push(percentile(&lat.sorted_ms, 50.0));
            p99s.push(percentile(&lat.sorted_ms, 99.0));
        }
        pooled.extend(e.lat.sorted_ms);
        let (a, f) = attempted_failed(&m.outcome);
        attempted += a;
        failed += f;
    }
    pooled.sort_by(f64::total_cmp);
    let mut out = Metrics::default();
    out.put("commit_p50_ms", median(&mut p50s), "ms");
    out.put("commit_p99_ms", median(&mut p99s), "ms");
    out.put("goodput_tx_s", within as f64 / secs, "tx/s");
    out.put("cpu_ns_per_tx", cpu as f64 / acks as f64, "ns");
    out.put("setup_s", median(&mut setups), "s");
    out.put("peak_rss_mb", rss, "MiB");
    let pooled_p99 = percentile(&pooled, 99.0);
    eprintln!(
        "  {} requests due in the windows, {within} committed within the client timeout; \
         percentiles are medians over {} intervals; pooled: p50 {:.3} ms, p99 {pooled_p99:.3} ms \
         ({} beyond), p99.9 {:.3} ms",
        pooled.len(),
        p99s.len(),
        percentile(&pooled, 50.0),
        pooled.iter().filter(|&&l| l > pooled_p99).count(),
        percentile(&pooled, 99.9)
    );
    Ok((out, attempted, failed))
}

/// Self CPU and call count per span name on threads whose name starts with
/// `thread_prefix`.
fn span_totals(
    threads: &[(String, Vec<trace::Span>)],
    thread_prefix: &str,
) -> HashMap<&'static str, (u64, u64)> {
    let mut out: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for (_, spans) in threads.iter().filter(|(n, _)| n.starts_with(thread_prefix)) {
        for s in spans {
            let e = out.entry(s.name).or_default();
            e.0 += s.self_cpu_ns();
            e.1 += 1;
        }
    }
    out
}

fn span_wall_percentiles(threads: &[(String, Vec<trace::Span>)], name: &str) -> (f64, f64) {
    let mut walls: Vec<f64> = threads
        .iter()
        .flat_map(|(_, spans)| spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.wall_ns() as f64)
        .collect();
    walls.sort_by(f64::total_cmp);
    (percentile(&walls, 50.0), percentile(&walls, 99.0))
}

fn run_traced(args: &Args) -> Result<(Metrics, usize, usize), String> {
    let w = &args.workload;
    let half = (args.seconds * 1e9 / 2.0) as u64;
    let max_rate = if w.ladder.is_empty() {
        0.0
    } else {
        eprintln!("ladder");
        climb_ladder(w, args.seed)?
    };

    // Untraced half: the reference for the tracing overhead.
    eprintln!("untraced reference window ({} s)", half as f64 / 1e9);
    let (_, rig) = timed_setups(w, args.seed, false, 1, plan_fixed(w, half))?;
    let timeout_ns = (rig.cluster.config.timeouts.client_timeout_ms * MS as f64) as u64;
    let plain = run_measured(rig, w, half, false)?;
    let plain_e = end_to_end(&plain, timeout_ns)?;

    // Traced half: wrappers and the loop profile record the window.
    eprintln!("traced window ({} s)", half as f64 / 1e9);
    for c in [&trace::SENT_MSGS, &trace::SENT_BYTES, &trace::WAL_BYTES] {
        c.store(0, Ordering::SeqCst);
    }
    let _ = trace::collect();
    let (_, rig) = timed_setups(w, args.seed, true, 1, plan_fixed(w, half))?;
    let m = run_measured(rig, w, half, true)?;
    let e = end_to_end(&m, timeout_ns)?;
    let threads = trace::collect();
    let win = &m.window;
    let tx = e.lat.acks_in_window.max(1) as f64;
    let mut out = Metrics::default();

    // core::server handlers (self CPU, children = WAL calls inside them).
    let server = span_totals(&threads, "prestige-node-");
    let mut handler_self = 0u64;
    for key in trace::HANDLER_SPANS {
        let (self_ns, calls) = server.get(key).copied().unwrap_or_default();
        handler_self += self_ns;
        out.put(format!("{key}.self_ns_per_tx"), self_ns as f64 / tx, "ns");
        out.put(format!("{key}.calls_per_tx"), calls as f64 / tx, "count");
    }

    // core::profile stages.
    let (p0, p1) = (&win.profile_start, &win.profile_end);
    for stage in LoopStage::ALL {
        if stage == LoopStage::Idle {
            continue;
        }
        let d = p1.stage_nanos(stage).saturating_sub(p0.stage_nanos(stage));
        out.put(
            format!("loop.{}_ns_per_tx", stage.name()),
            d as f64 / tx,
            "ns",
        );
    }
    let idle = p1
        .stage_nanos(LoopStage::Idle)
        .saturating_sub(p0.stage_nanos(LoopStage::Idle));
    let total = p1.total_nanos.saturating_sub(p0.total_nanos).max(1);
    out.put("loop.idle_frac", idle as f64 / total as f64, "fraction");

    // Threads by role.
    let roles = win.threads.by_role(m.gen_tid);
    for (i, role) in ROLES.iter().enumerate() {
        out.put(
            format!("cpu.{role}_ns_per_tx"),
            roles[i].0 as f64 / tx,
            "ns",
        );
        out.put(
            format!("runq.{role}_ns_per_tx"),
            roles[i].1 as f64 / tx,
            "ns",
        );
    }
    let role_sum: u64 = roles.iter().map(|r| r.0).sum();
    let coverage = role_sum as f64 / win.proc_cpu.max(1) as f64;
    out.put("cpu.coverage", coverage, "fraction");

    // net::transport / net::tcp.
    let send = server.get("transport.send").copied().unwrap_or_default();
    let recv = server.get("transport.recv").copied().unwrap_or_default();
    let (s0, s1) = (win.transport_start, win.transport_end);
    let writev = s1.2 - s0.2;
    let delivered = (s1.0 - s0.0).saturating_sub(s1.1 - s0.1);
    out.put("transport.send_ns_per_tx", send.0 as f64 / tx, "ns");
    out.put("transport.recv_ns_per_tx", recv.0 as f64 / tx, "ns");
    out.put(
        "transport.msgs_per_tx",
        trace::SENT_MSGS.load(Ordering::SeqCst) as f64 / tx,
        "count",
    );
    out.put(
        "transport.bytes_per_tx",
        trace::SENT_BYTES.load(Ordering::SeqCst) as f64 / tx,
        "B",
    );
    out.put("transport.dropped", (s1.1 - s0.1) as f64, "count");
    out.put("tcp.writev_per_tx", writev as f64 / tx, "count");
    out.put(
        "tcp.frames_per_writev",
        if writev == 0 {
            0.0
        } else {
            delivered as f64 / writev as f64
        },
        "count",
    );

    // storage::wal and checkpoints.
    let (a50, a99) = span_wall_percentiles(&threads, "wal.append");
    let (y50, y99) = span_wall_percentiles(&threads, "wal.sync");
    let syncs = server.get("wal.sync").map_or(0, |s| s.1);
    let (c0, c1) = (&win.counters_start, &win.counters_end);
    out.put("wal.append_ns_p50", a50, "ns");
    out.put("wal.append_ns_p99", a99, "ns");
    out.put("wal.sync_ns_p50", y50, "ns");
    out.put("wal.sync_ns_p99", y99, "ns");
    out.put("wal.syncs_per_tx", syncs as f64 / tx, "count");
    out.put(
        "wal.bytes_per_tx",
        trace::WAL_BYTES.load(Ordering::SeqCst) as f64 / tx,
        "B",
    );
    out.put(
        "ckpt.formed",
        (c1.checkpoints - c0.checkpoints) as f64,
        "count",
    );
    out.put(
        "ckpt.gc_pruned_keys",
        (c1.gc_pruned - c0.gc_pruned) as f64,
        "count",
    );

    // core::view_change, reputation, crypto::pow.
    let fo = failovers(&m.outcome, &win.kills);
    let kills = win.kills.len();
    let med = |f: fn(&(f64, f64, f64, f64)) -> f64| {
        let mut v: Vec<f64> = fo.iter().map(f).collect();
        median(&mut v)
    };
    let failover_ms = med(|f| f.0);
    let (detect, elect, resume) = (med(|f| f.1), med(|f| f.2), med(|f| f.3));
    let views = win.view_end.saturating_sub(win.view_start);
    let campaigns = c1.campaigns - c0.campaigns;
    out.put("failover_ms", failover_ms, "ms");
    out.put("failover.kills", kills as f64, "count");
    out.put("failover.detect_ms", detect, "ms");
    out.put("failover.elect_ms", elect, "ms");
    out.put("failover.resume_ms", resume, "ms");
    out.put("vc.views", views as f64, "count");
    out.put(
        "vc.views_per_kill",
        if kills == 0 {
            0.0
        } else {
            views as f64 / kills as f64
        },
        "count",
    );
    out.put(
        "vc.campaigns_per_kill",
        if kills == 0 {
            0.0
        } else {
            campaigns as f64 / kills as f64
        },
        "count",
    );
    out.put(
        "vc.no_winner",
        (c1.election_timeouts - c0.election_timeouts) as f64,
        "count",
    );
    out.put(
        "vc.pow_ms_per_campaign",
        if campaigns == 0 {
            0.0
        } else {
            (c1.pow_ms - c0.pow_ms) / campaigns as f64
        },
        "ms",
    );

    // core::sync.
    let mut catchup: Vec<f64> = win
        .kills
        .iter()
        .filter_map(|k| Some((k.caught_up_at? - k.restarted_at?) as f64 / 1e6))
        .collect();
    out.put("sync.catchup_ms", median(&mut catchup), "ms");
    out.put(
        "sync.reqs_sent",
        (c1.sync_reqs - c0.sync_reqs) as f64,
        "count",
    );
    out.put(
        "sync.snapshot_syncs",
        (c1.snapshot_syncs - c0.snapshot_syncs) as f64,
        "count",
    );

    // The generator's own figures (run validity).
    let p99 = percentile(&e.lat.sorted_ms, 99.0);
    out.put("gen.lateness_p99_ms", e.lat.lateness_p99_ms, "ms");
    out.put("gen.cpu_ns_per_tx", e.gen_cpu_ns as f64 / tx, "ns");
    out.put("gen.samples", e.lat.due as f64, "count");
    out.put(
        "gen.beyond_p99",
        e.lat.sorted_ms.iter().filter(|&&l| l > p99).count() as f64,
        "count",
    );
    out.put("gen.pooled_p99_ms", p99, "ms");
    out.put("gen.p999_ms", percentile(&e.lat.sorted_ms, 99.9), "ms");
    out.put(
        "gen.late_share",
        1.0 - e.lat.within_timeout as f64 / e.lat.due as f64,
        "fraction",
    );

    // The ladder (steady only) and the tracing overhead.
    out.put("max_rate_tx_s", max_rate, "tx/s");
    let p50 = percentile(&e.lat.sorted_ms, 50.0);
    let plain_p50 = percentile(&plain_e.lat.sorted_ms, 50.0);
    out.put(
        "trace.overhead_cpu_frac",
        e.cpu_ns_per_tx / plain_e.cpu_ns_per_tx - 1.0,
        "fraction",
    );
    out.put("trace.overhead_p50_frac", p50 / plain_p50 - 1.0, "fraction");
    out.put(
        "trace.spans",
        threads.iter().map(|t| t.1.len()).sum::<usize>() as f64,
        "count",
    );

    // Reconciliation.
    let loop_cpu = roles[0].0.max(1) as f64;
    let loop_spans = handler_self
        + send.0
        + recv.0
        + server.get("wal.append").map_or(0, |s| s.0)
        + server.get("wal.sync").map_or(0, |s| s.0)
        + server.get("wal.prune").map_or(0, |s| s.0);
    let span_cover = loop_spans as f64 / loop_cpu;
    let phase_sum = if failover_ms > 0.0 {
        (detect + elect + resume) / failover_ms
    } else {
        1.0
    };
    out.put(
        "reconcile.handler_share_of_loop_cpu",
        handler_self as f64 / loop_cpu,
        "fraction",
    );
    out.put("reconcile.span_cover_of_loop_cpu", span_cover, "fraction");
    out.put("reconcile.failover_phase_sum_frac", phase_sum, "fraction");
    let mut checks = vec![
        ("cpu.coverage >= 0.95", coverage >= 0.95),
        (
            "loop spans within 10% of server_loop CPU",
            (span_cover - 1.0).abs() <= 0.10,
        ),
    ];
    if w.kills {
        checks.push((
            "failover phases sum within 10%",
            (phase_sum - 1.0).abs() <= 0.10,
        ));
        checks.push((
            "at least one view change per kill",
            kills > 0 && views >= kills as u64,
        ));
    } else {
        checks.push(("no view change", views == 0));
    }
    if !w.wire {
        checks.push((
            "no WAL work",
            syncs == 0 && trace::WAL_BYTES.load(Ordering::SeqCst) == 0,
        ));
        checks.push(("no TCP work", writev == 0));
    }
    for (what, ok) in &checks {
        eprintln!("  reconcile: {what}: {}", if *ok { "pass" } else { "FAIL" });
    }

    let dir = PathBuf::from(".perfbench-out");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{}.spans.tsv", w.name));
        match trace::write_tsv(&path, &threads) {
            Ok(()) => eprintln!("  spans written to {}", path.display()),
            Err(err) => eprintln!("  could not write spans: {err}"),
        }
    }
    let (attempted, failed) = attempted_failed(&m.outcome);
    Ok((out, attempted, failed))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <steady|leader_churn> --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let (nproc, model) = os::host_fingerprint();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | host: nproc {nproc}, {model}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let _ = std::fs::remove_dir_all(work_dir());
    match result {
        Ok((metrics, attempted, failed)) => {
            for (name, value, unit) in &metrics.0 {
                eprintln!("  {name:<40} {value:>14.4} {unit}");
            }
            println!(
                "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
                metrics.json()
            );
        }
        Err(e) => {
            eprintln!("perfbench: run invalid: {e}");
            std::process::exit(1);
        }
    }
}
