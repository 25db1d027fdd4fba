//! A 4-replica cluster assembled in this process from the program's public
//! parts: `PrestigeServer`, `NodeHandle::spawn_instrumented`, the loopback
//! fabric or `TcpTransport`, and the WAL. In a traced run every node's
//! process, transport and storage are wrapped (see [`crate::trace`]) and a
//! `LoopProfile` is attached; an untraced run has neither.

use crate::trace::{TracedProcess, TracedStorage, TracedTransport};
use prestige_core::{LoopProfile, LoopSnapshot, PrestigeServer};
use prestige_crypto::KeyRegistry;
use prestige_net::{
    LoopbackNet, LoopbackTransport, NodeHandle, StoragePlan, TcpConfig, TcpTransport, Transport,
    TransportStats,
};
use prestige_sim::Process;
use prestige_storage::{Storage, Wal};
use prestige_types::{Actor, ClientId, ClusterConfig, Digest, Message, ServerId};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

pub const CLIENT: ClientId = ClientId(0);

/// The client's `(timestamp, status)` pairs of each committed block, by
/// sequence number.
pub type ClientTxs = Vec<(u64, Vec<(u64, bool)>)>;

/// Server-side counters read through `inspect_as::<PrestigeServer>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub latest_seq: u64,
    pub view: u64,
    pub leader: u32,
    pub views_installed: u64,
    pub campaigns: u64,
    pub election_timeouts: u64,
    pub pow_ms: f64,
    pub sync_reqs: u64,
    pub snapshot_syncs: u64,
    pub checkpoints: u64,
    pub gc_pruned: u64,
}

impl Counters {
    fn of(s: &PrestigeServer) -> Self {
        let st = s.stats();
        Counters {
            latest_seq: s.store().latest_seq().0,
            view: s.current_view().0,
            leader: s.current_leader().0,
            views_installed: st.views_installed,
            campaigns: st.campaigns_started,
            election_timeouts: st.election_timeouts,
            pow_ms: st.pow_ms_total,
            sync_reqs: st.sync_reqs_sent,
            snapshot_syncs: st.snapshot_syncs,
            checkpoints: st.checkpoints_formed,
            gc_pruned: st.gc_pruned_keys,
        }
    }

    /// Event counters summed (tips and views are not summed).
    pub fn add(&mut self, o: &Counters) {
        self.views_installed += o.views_installed;
        self.campaigns += o.campaigns;
        self.election_timeouts += o.election_timeouts;
        self.pow_ms += o.pow_ms;
        self.sync_reqs += o.sync_reqs;
        self.snapshot_syncs += o.snapshot_syncs;
        self.checkpoints += o.checkpoints;
        self.gc_pruned += o.gc_pruned;
    }
}

enum Fabric {
    Loopback(LoopbackNet<Message>),
    Tcp(HashMap<Actor, SocketAddr>),
}

/// A running cluster.
pub struct Cluster {
    pub config: ClusterConfig,
    pub registry: KeyRegistry,
    seed: u64,
    fabric: Fabric,
    storage: Option<StoragePlan>,
    traced: bool,
    nodes: Vec<Option<NodeHandle<Message>>>,
    /// Counters of stopped incarnations, so event totals survive kills.
    retired: Counters,
    /// Transport counters of every incarnation.
    pub transport_stats: Vec<Arc<TransportStats>>,
    /// Loop profiles of every incarnation (traced runs only).
    pub profiles: Vec<Arc<LoopProfile>>,
}

impl Cluster {
    /// Launches `config.n()` correct replicas. With `gen_addr` the replicas
    /// talk TCP on 127.0.0.1 and notify the client at that address;
    /// otherwise they share one loopback fabric.
    pub fn launch(
        config: ClusterConfig,
        seed: u64,
        gen_addr: Option<SocketAddr>,
        storage: Option<StoragePlan>,
        traced: bool,
    ) -> std::io::Result<Self> {
        let registry = KeyRegistry::new(seed, config.n(), 1);
        let fabric = match gen_addr {
            None => Fabric::Loopback(LoopbackNet::new()),
            Some(client) => {
                // Reserve ephemeral ports by binding, then release them for
                // the real binds, so every node starts with the full map.
                let mut addrs = HashMap::new();
                let mut reservations = Vec::new();
                for i in 0..config.n() {
                    let l = std::net::TcpListener::bind("127.0.0.1:0")?;
                    addrs.insert(Actor::Server(ServerId(i)), l.local_addr()?);
                    reservations.push(l);
                }
                addrs.insert(Actor::Client(CLIENT), client);
                Fabric::Tcp(addrs)
            }
        };
        let mut cluster = Cluster {
            nodes: (0..config.n()).map(|_| None).collect(),
            config,
            registry,
            seed,
            fabric,
            storage,
            traced,
            retired: Counters::default(),
            transport_stats: Vec::new(),
            profiles: Vec::new(),
        };
        for i in 0..cluster.config.n() {
            cluster.start(ServerId(i))?;
        }
        Ok(cluster)
    }

    /// The replicas' TCP addresses in id order (TCP clusters only).
    pub fn server_addrs(&self) -> Vec<SocketAddr> {
        match &self.fabric {
            Fabric::Tcp(addrs) => (0..self.config.n())
                .map(|i| addrs[&Actor::Server(ServerId(i))])
                .collect(),
            Fabric::Loopback(_) => Vec::new(),
        }
    }

    /// The client's endpoint on the loopback fabric.
    pub fn client_endpoint(&self) -> Option<LoopbackTransport<Message>> {
        match &self.fabric {
            Fabric::Loopback(net) => Some(net.endpoint(Actor::Client(CLIENT))),
            Fabric::Tcp(_) => None,
        }
    }

    pub fn server_actors(&self) -> Vec<Actor> {
        (0..self.config.n())
            .map(|i| Actor::Server(ServerId(i)))
            .collect()
    }

    /// Builds and spawns server `id` (blank, or from its WAL when durable).
    fn start(&mut self, id: ServerId) -> std::io::Result<()> {
        let me = Actor::Server(id);
        let mut server =
            PrestigeServer::new(id, self.config.clone(), self.registry.clone(), self.seed);
        if let Some(plan) = &self.storage {
            let dir = plan.server_dir(id);
            std::fs::create_dir_all(&dir)?;
            let (wal, records) =
                Wal::open(&dir, plan.options.clone()).map_err(std::io::Error::other)?;
            server.replay_wal(records);
            let sink: Box<dyn Storage> = if self.traced {
                Box::new(TracedStorage::new(Box::new(wal)))
            } else {
                Box::new(wal)
            };
            server.attach_storage(sink);
        }
        let profile = self.traced.then(|| {
            let p = Arc::new(LoopProfile::default());
            server.attach_profiler(Arc::clone(&p));
            p
        });
        let transport: Box<dyn Transport<Message>> = match &self.fabric {
            Fabric::Loopback(net) => Box::new(net.endpoint(me)),
            Fabric::Tcp(addrs) => {
                let peers = addrs
                    .iter()
                    .filter(|(a, _)| **a != me)
                    .map(|(a, s)| (*a, *s))
                    .collect();
                Box::new(TcpTransport::bind(me, TcpConfig::new(addrs[&me], peers))?)
            }
        };
        self.transport_stats.push(transport.stats());
        let (process, transport): (
            Box<dyn Process<Message> + Send>,
            Box<dyn Transport<Message>>,
        ) = if self.traced {
            (
                Box::new(TracedProcess::new(Box::new(server))),
                Box::new(TracedTransport::new(transport)),
            )
        } else {
            (Box::new(server), transport)
        };
        if let Some(p) = &profile {
            self.profiles.push(Arc::clone(p));
        }
        let handle =
            NodeHandle::spawn_instrumented(process, transport, self.seed, Vec::new(), profile);
        self.nodes[id.0 as usize] = Some(handle);
        Ok(())
    }

    /// Crashes server `id`: its endpoint leaves the fabric and its runtime
    /// stops, exactly what a killed process looks like to the others.
    pub fn kill(&mut self, id: ServerId) {
        if let Fabric::Loopback(net) = &self.fabric {
            net.disconnect(Actor::Server(id));
        }
        if let Some(node) = self.nodes[id.0 as usize].take() {
            if let Some(process) = node.stop() {
                if let Some(s) = process.as_any().downcast_ref::<PrestigeServer>() {
                    self.retired.add(&Counters::of(s));
                }
            }
        }
    }

    /// Restarts a killed server blank: a durable server's WAL is wiped
    /// first, so every block must come back over sync.
    pub fn restart(&mut self, id: ServerId) -> std::io::Result<()> {
        if let Some(plan) = &self.storage {
            std::fs::remove_dir_all(plan.server_dir(id))?;
        }
        self.start(id)
    }

    pub fn live(&self) -> Vec<ServerId> {
        (0..self.config.n())
            .map(ServerId)
            .filter(|id| self.nodes[id.0 as usize].is_some())
            .collect()
    }

    fn inspect<R: Send + 'static>(
        &self,
        id: ServerId,
        f: impl FnOnce(&PrestigeServer) -> R + Send + 'static,
    ) -> Option<R> {
        self.nodes[id.0 as usize]
            .as_ref()?
            .inspect_as::<PrestigeServer, _, _>(f)
    }

    pub fn counters(&self, id: ServerId) -> Option<Counters> {
        self.inspect(id, Counters::of)
    }

    /// Event counters summed over every incarnation, live and retired.
    pub fn total_counters(&self) -> Counters {
        let mut total = self.retired;
        for id in self.live() {
            if let Some(c) = self.counters(id) {
                total.add(&c);
            }
        }
        total
    }

    /// The leader most live replicas follow, with the highest view seen.
    pub fn leader(&self) -> Option<(ServerId, u64)> {
        let mut votes: HashMap<u32, usize> = HashMap::new();
        let mut view = 0;
        for id in self.live() {
            if let Some(c) = self.counters(id) {
                *votes.entry(c.leader).or_default() += 1;
                view = view.max(c.view);
            }
        }
        let leader = votes.into_iter().max_by_key(|&(l, n)| (n, l))?.0;
        Some((ServerId(leader), view))
    }

    /// Each live replica's committed chain as `(seq, digest)` pairs.
    pub fn chains(&self) -> Vec<(ServerId, Vec<(u64, Digest)>)> {
        self.live()
            .into_iter()
            .filter_map(|id| Some((id, self.inspect(id, |s| s.store().chain_digests())?)))
            .collect()
    }

    /// The generator client's transactions in replica `id`'s committed
    /// blocks up to `tip`: `(seq, [(timestamp, status)])`. Blocks without
    /// certificates (a checkpoint anchor) are left out.
    pub fn client_txs(&self, id: ServerId, tip: u64) -> Option<ClientTxs> {
        self.inspect(id, move |s| {
            let store = s.store();
            (1..=tip)
                .filter_map(|n| {
                    let b = store.tx_block(prestige_types::SeqNum(n))?;
                    if b.ordering_qc.is_none() && b.commit_qc.is_none() && b.tx.is_empty() {
                        return None;
                    }
                    let txs =
                        b.tx.iter()
                            .zip(&b.status)
                            .filter(|(t, _)| t.client == CLIENT)
                            .map(|(t, ok)| (t.timestamp, *ok))
                            .collect();
                    Some((n, txs))
                })
                .collect()
        })
    }

    /// Sum of the loop profiles of every incarnation.
    pub fn loop_profile(&self) -> LoopSnapshot {
        let mut total = LoopSnapshot::default();
        for p in &self.profiles {
            total.merge(&p.snapshot());
        }
        total
    }

    /// Stops every node and waits for each to end.
    pub fn shutdown(mut self) {
        for slot in &mut self.nodes {
            if let Some(node) = slot.take() {
                let _ = node.stop();
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
