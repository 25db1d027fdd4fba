//! The two-phase replication protocol (§4.3), split into cohesive units:
//!
//! * [`leader`] — batching, the pipelined ordering window, QC assembly from
//!   reply shares, and the stalled-instance retransmission path;
//! * [`follower`] — the `Ord` / `Cmt` / `CommitBlock` receive handlers,
//!   including the Byzantine double-assign cross-check and the recording of
//!   per-instance commit-sign state the certified recovery plane builds on;
//! * [`verify`] — certificate validation and the in-order apply path shared
//!   by live commits and sync.
//!
//! One consensus instance commits one `txBlock`:
//!
//! 1. clients broadcast `Prop` bundles; the leader batches proposals and
//!    assigns a sequence number (`Ord`),
//! 2. followers acknowledge the ordering (`OrdReply` shares → `ordering_QC`),
//! 3. the leader broadcasts `Cmt` with the `ordering_QC`; followers acknowledge
//!    (`CmtReply` shares → `commit_QC`),
//! 4. the leader assembles the `txBlock`, broadcasts it (`CommitBlock`), and
//!    every server notifies the owning clients (`Notif`).
//!
//! Servers never respond to messages from a lower view. Blocks are applied in
//! sequence-number order on every replica so the digest chain is identical
//! everywhere.
//!
//! **Pipelining.** The leader keeps up to `Config::pipeline_depth`
//! consecutive sequence numbers in flight: it flushes and broadcasts batch
//! `n+k` while the ordering/commit QCs for `n` are still outstanding.
//! Followers acknowledge ordering rounds in any order; commits are forced
//! back into sequence order by the `pending_commit_blocks` buffer inside
//! [`PrestigeServer::apply_committed_block`].
//!
//! Every handler checks a message and acts on it in the same call: cheap
//! guards first, then the signature, share, or QC check, then the state
//! change. The simulator and the real runtime run this one path.

mod follower;
mod leader;
mod verify;

use crate::server::PrestigeServer;
use prestige_types::{Digest, Proposal, SeqNum, View};

// The batch digest lives in `prestige-crypto` next to the other framed
// hashes; re-exported here for compatibility.
pub use prestige_crypto::batch_digest;

/// CPU cost charged per transaction when hashing / validating a batch (ms).
/// Roughly the cost of one digest computation on the paper's Skylake vCPUs.
pub(crate) const PER_TX_CPU_MS: f64 = 0.0004;

impl PrestigeServer {
    /// Digest over an ordered batch (see the free function [`batch_digest`]).
    pub(crate) fn batch_digest(view: View, n: SeqNum, batch: &[Proposal]) -> Digest {
        batch_digest(view, n, batch)
    }

    /// The leader's in-flight window: how many consecutive sequence numbers
    /// may be awaiting their QCs at once.
    pub(crate) fn pipeline_depth(&self) -> usize {
        self.config.pipeline_depth.max(1)
    }

    /// How long an in-flight instance may wait for its quorum before the
    /// batch timer re-broadcasts its phase message (ms). A quarter of the
    /// client patience window: a couple of retransmission rounds fit before
    /// clients start complaining and forcing a view change. The same cadence
    /// drives the follower-side sync repair timer (see [`crate::sync`]).
    pub(crate) fn retransmit_interval_ms(&self) -> f64 {
        (self.pacemaker.timeouts().client_timeout_ms / 4.0).max(20.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_crypto::{sign_share, KeyRegistry, QcBuilder};
    use prestige_sim::{Context, Effects, Emission, Process, SimRng, SimTime};
    use prestige_types::{
        Actor, ClientId, ClusterConfig, Message, QcKind, ServerId, Transaction, TxBlock,
    };
    use std::sync::Arc;

    /// Runs `f` against a server with a fresh driver context and returns the
    /// buffered effects.
    pub(super) fn with_ctx(
        server: &mut PrestigeServer,
        f: impl FnOnce(&mut PrestigeServer, &mut Context<Message>),
    ) -> Effects<Message> {
        let mut effects = Effects::new();
        let mut rng = SimRng::new(3);
        let mut next_timer_id = 100;
        let me = Actor::Server(server.id());
        let mut ctx = Context::new(
            SimTime::from_ms(1.0),
            me,
            &mut rng,
            &mut next_timer_id,
            &mut effects,
        );
        f(server, &mut ctx);
        effects
    }

    pub(super) fn ord_fields(
        registry: &KeyRegistry,
        n: u64,
    ) -> (Arc<Vec<Proposal>>, Digest, [u8; 32]) {
        let batch: Vec<Proposal> = vec![Proposal::new(
            Transaction::with_size(ClientId(1), n, 16),
            Digest::ZERO,
        )];
        let digest = batch_digest(View(1), SeqNum(n), &batch);
        let leader = Actor::Server(ServerId(0));
        let sig = registry.key_of(leader).unwrap().sign(digest.as_ref());
        (Arc::new(batch), digest, sig)
    }

    pub(super) fn contains_ord_reply(effects: &Effects<Message>) -> bool {
        effects.emissions.iter().any(|e| {
            matches!(
                e,
                Emission::Send(_, Message::OrdReply { .. })
                    | Emission::Broadcast(_, Message::OrdReply { .. })
            )
        })
    }

    /// Builds a valid QC over `digest` signed by servers `0..quorum`.
    pub(super) fn build_qc(
        registry: &KeyRegistry,
        kind: QcKind,
        view: View,
        n: SeqNum,
        digest: Digest,
        quorum: u32,
    ) -> prestige_types::QuorumCertificate {
        let mut b = QcBuilder::new(kind, view, n, digest, quorum);
        for s in 0..quorum {
            let share = sign_share(registry, ServerId(s), kind, view, n, &digest).unwrap();
            b.add_share(registry, &share).unwrap();
        }
        b.assemble().unwrap()
    }

    #[test]
    fn forged_ord_gets_no_reply_and_the_node_keeps_serving() {
        // An `Ord` whose leader signature does not verify, or whose signed
        // digest is not the digest of the carried batch, is rejected: no
        // phase-1 share, nothing recorded. A valid `Ord` for the same
        // instance afterwards is acknowledged normally.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = PrestigeServer::new(ServerId(1), config, registry.clone(), 0);
        let deliver = |s: &mut PrestigeServer, batch, digest, sig| {
            with_ctx(s, |s, ctx| {
                s.on_message(
                    Actor::Server(ServerId(0)),
                    Message::Ord {
                        view: View(1),
                        n: SeqNum(1),
                        batch,
                        digest,
                        sig,
                    },
                    ctx,
                );
            })
        };
        let (batch, digest, sig) = ord_fields(&registry, 1);
        // A genuine leader signature over another batch's digest.
        let (_, other_digest, other_sig) = ord_fields(&registry, 2);

        for (digest, sig, what) in [
            (digest, [0xEE; 32], "forged signature"),
            (other_digest, other_sig, "digest of another batch"),
        ] {
            let effects = deliver(&mut follower, Arc::clone(&batch), digest, sig);
            assert!(
                !contains_ord_reply(&effects),
                "Ord with a {what} must not be acknowledged"
            );
            assert!(follower.ordered_digests.is_empty());
            assert!(follower.ordered_batches.is_empty());
        }

        let effects = deliver(&mut follower, batch, digest, sig);
        assert!(
            contains_ord_reply(&effects),
            "node keeps serving after a rejection"
        );
    }

    #[test]
    fn view_change_reproposes_uncommitted_but_never_committed_ordered_txs() {
        // Committed-instance preservation across a view change: the ordered
        // batch at n=2 (contiguous above the committed tip) must be
        // re-proposed verbatim *at sequence number 2* when this server is
        // elected; the ordered batch beyond the gap (n=4) cannot be placed
        // (its predecessor is unknown) and its never-committed transactions
        // return to the proposal pool — while a transaction that already
        // committed under a different sequence number must not.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = PrestigeServer::new(ServerId(1), config.clone(), registry.clone(), 0);
        let quorum = config.quorum();
        let view = View(1);
        let leader = Actor::Server(ServerId(0));

        // Ord at n=2 carrying txs X and Y, and Ord at n=4 (gap at 3)
        // carrying tx Z.
        let tx_x = Transaction::with_size(ClientId(1), 100, 16);
        let tx_y = Transaction::with_size(ClientId(1), 200, 16);
        let tx_z = Transaction::with_size(ClientId(1), 300, 16);
        let batch2: Vec<Proposal> = vec![
            Proposal::new(tx_x.clone(), Digest::ZERO),
            Proposal::new(tx_y.clone(), Digest::ZERO),
        ];
        let batch4: Vec<Proposal> = vec![Proposal::new(tx_z.clone(), Digest::ZERO)];
        for (n, batch) in [(SeqNum(2), batch2.clone()), (SeqNum(4), batch4)] {
            let digest = batch_digest(view, n, &batch);
            let sig = registry.key_of(leader).unwrap().sign(digest.as_ref());
            with_ctx(&mut follower, |s, ctx| {
                s.on_message(
                    leader,
                    Message::Ord {
                        view,
                        n,
                        batch: Arc::new(batch),
                        digest,
                        sig,
                    },
                    ctx,
                );
            });
        }

        // X commits inside block n=1 (different sequence number than its
        // ordering round).
        let commit_batch = vec![Proposal::new(tx_x.clone(), Digest::ZERO)];
        let commit_digest = batch_digest(view, SeqNum(1), &commit_batch);
        let mut block = TxBlock::new(view, SeqNum(1), vec![tx_x.clone()]);
        block.ordering_qc = Some(build_qc(
            &registry,
            QcKind::Ordering,
            view,
            SeqNum(1),
            commit_digest,
            quorum,
        ));
        block.commit_qc = Some(build_qc(
            &registry,
            QcKind::Commit,
            view,
            SeqNum(1),
            commit_digest,
            quorum,
        ));
        with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                leader,
                Message::CommitBlock {
                    block: Arc::new(block),
                    sig: [0u8; 32],
                },
                ctx,
            );
        });
        assert_eq!(follower.store().latest_seq(), SeqNum(1));

        // View change elects THIS server: the contiguous prefix (n=2) is
        // re-proposed in place, the orphan beyond the gap (n=4) is
        // materialized.
        let effects = with_ctx(&mut follower, |s, ctx| {
            s.note_view_installed(ctx, ServerId(1));
        });
        let reproposed: Vec<(SeqNum, Vec<(ClientId, u64)>)> = effects
            .emissions
            .iter()
            .filter_map(|e| match e {
                Emission::Broadcast(_, Message::Ord { n, batch, .. }) => {
                    Some((*n, batch.iter().map(|p| p.tx.key()).collect()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            reproposed,
            vec![(SeqNum(2), vec![tx_x.key(), tx_y.key()])],
            "the contiguous ordered batch must be re-proposed verbatim at \
             its original sequence number"
        );
        assert_eq!(
            follower.next_seq,
            SeqNum(3),
            "fresh batches continue after the preserved prefix"
        );
        assert!(follower.inflight.contains_key(&2));
        let pending: Vec<_> = follower
            .pending_proposals
            .iter()
            .map(|p| p.tx.key())
            .collect();
        assert!(
            !pending.contains(&tx_x.key()),
            "committed tx must not be re-proposed: {pending:?}"
        );
        assert!(
            pending.contains(&tx_z.key()),
            "uncommitted tx beyond the gap must survive into the proposal \
             pool: {pending:?}"
        );
        assert!(
            !follower.ordered_batches.contains_key(&4),
            "orphaned entries are consumed by materialization"
        );
    }

    #[test]
    fn externally_committed_instance_releases_its_inflight_slot() {
        // A leader's in-flight instance may commit through an external path
        // (a straggler CommitBlock from the previous view racing the
        // re-proposed instance): the pipeline slot must be released, or it
        // leaks and the dead instance is retransmitted forever.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut server = PrestigeServer::new(ServerId(0), config.clone(), registry.clone(), 0);
        let quorum = config.quorum();
        let view = View(1);

        // The leader (S0 leads view 1) proposes a batch: inflight opens.
        let tx = Transaction::with_size(ClientId(1), 50, 16);
        with_ctx(&mut server, |s, ctx| {
            s.handle_prop(
                Actor::Client(ClientId(1)),
                vec![Proposal::new(tx.clone(), Digest::ZERO)],
                [0u8; 32],
                ctx,
            );
            s.flush_batch(ctx);
        });
        assert!(server.inflight.contains_key(&1));

        // The same instance commits via a CommitBlock built elsewhere.
        let commit_digest =
            batch_digest(view, SeqNum(1), &[Proposal::new(tx.clone(), Digest::ZERO)]);
        let mut block = TxBlock::new(view, SeqNum(1), vec![tx]);
        block.ordering_qc = Some(build_qc(
            &registry,
            QcKind::Ordering,
            view,
            SeqNum(1),
            commit_digest,
            quorum,
        ));
        block.commit_qc = Some(build_qc(
            &registry,
            QcKind::Commit,
            view,
            SeqNum(1),
            commit_digest,
            quorum,
        ));
        with_ctx(&mut server, |s, ctx| {
            s.apply_committed_block(Arc::new(block), ctx);
        });
        assert_eq!(server.store().latest_seq(), SeqNum(1));
        assert!(
            !server.inflight.contains_key(&1),
            "the committed instance must release its pipeline slot"
        );
    }

    #[test]
    fn far_future_ord_is_refused() {
        // `ordered_batches` persists across view changes now, so orderings
        // absurdly far beyond the committed tip (only a Byzantine leader
        // produces them) must be refused instead of retained.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = PrestigeServer::new(ServerId(1), config.clone(), registry.clone(), 0);
        let view = View(1);
        let leader = Actor::Server(ServerId(0));
        let far = 1 + config.pipeline_depth as u64 + 1024 + 1;
        let batch = vec![Proposal::new(
            Transaction::with_size(ClientId(1), 60, 16),
            Digest::ZERO,
        )];
        let digest = batch_digest(view, SeqNum(far), &batch);
        let sig = registry.key_of(leader).unwrap().sign(digest.as_ref());
        let effects = with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                leader,
                Message::Ord {
                    view,
                    n: SeqNum(far),
                    batch: Arc::new(batch),
                    digest,
                    sig,
                },
                ctx,
            );
        });
        assert!(
            !follower.ordered_batches.contains_key(&far),
            "a far-future ordering must not be retained"
        );
        assert!(
            effects
                .emissions
                .iter()
                .all(|e| !matches!(e, Emission::Send(_, Message::OrdReply { .. }))),
            "a far-future ordering must not be acknowledged"
        );
    }

    #[test]
    fn follower_keeps_ordered_batches_keyed_across_view_changes() {
        // A server that stays a follower keeps its uncommitted ordered
        // batches keyed by sequence number across the view change (they back
        // its C3 freshness claim and a later election's re-propose); nothing
        // is materialized into its proposal pool.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = PrestigeServer::new(ServerId(1), config, registry.clone(), 0);
        let view = View(1);
        let leader = Actor::Server(ServerId(0));
        let tx = Transaction::with_size(ClientId(1), 7, 16);
        let batch = vec![Proposal::new(tx.clone(), Digest::ZERO)];
        let digest = batch_digest(view, SeqNum(1), &batch);
        let sig = registry.key_of(leader).unwrap().sign(digest.as_ref());
        with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                leader,
                Message::Ord {
                    view,
                    n: SeqNum(1),
                    batch: Arc::new(batch),
                    digest,
                    sig,
                },
                ctx,
            );
        });
        assert_eq!(follower.ordered_contiguous_tip(), SeqNum(1));

        with_ctx(&mut follower, |s, ctx| {
            s.note_view_installed(ctx, ServerId(2));
        });
        assert!(
            follower.ordered_batches.contains_key(&1),
            "ordered batch survives the view change keyed by sequence number"
        );
        assert!(follower.pending_proposals.is_empty());
        assert_eq!(follower.ordered_contiguous_tip(), SeqNum(1));
    }

    #[test]
    fn commit_share_records_signed_tip_and_certifies_the_instance() {
        // Sending a CmtReply is the act that can complete a commit QC this
        // server never hears about again; the recorded tip (and since the
        // certified recovery plane, the per-instance record plus the stored
        // ordering QC) is what C3 checks candidates against — and what this
        // server's own future campaigns can prove.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = PrestigeServer::new(ServerId(1), config.clone(), registry.clone(), 0);
        let quorum = config.quorum();
        let view = View(1);
        let leader = Actor::Server(ServerId(0));
        assert_eq!(follower.signed_commit_tip, 0);

        let (batch, digest, sig) = ord_fields(&registry, 1);
        with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                leader,
                Message::Ord {
                    view,
                    n: SeqNum(1),
                    batch,
                    digest,
                    sig,
                },
                ctx,
            );
        });
        let ordering_qc = build_qc(&registry, QcKind::Ordering, view, SeqNum(1), digest, quorum);
        let effects = with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                leader,
                Message::Cmt {
                    view,
                    n: SeqNum(1),
                    ordering_qc,
                    sig: [0u8; 32],
                },
                ctx,
            );
        });
        assert!(
            effects
                .emissions
                .iter()
                .any(|e| matches!(e, Emission::Send(_, Message::CmtReply { .. }))),
            "the follower must commit-sign the valid ordering QC"
        );
        assert_eq!(follower.signed_commit_tip, 1);
        assert_eq!(
            follower.signed_commit_info.get(&1),
            Some(&(view, digest)),
            "the per-instance commit-sign record must be kept"
        );
        assert!(
            follower.ord_qcs.contains_key(&1),
            "the ordering QC must be stored for future tip certificates"
        );
        assert_eq!(
            follower.certified_ord_tip(),
            SeqNum(1),
            "QC + matching batch certify the instance"
        );
    }

    #[test]
    fn commit_block_qc_is_verified_once_across_cmt_and_commit_block() {
        // The memo-cache dedup: a follower that verified the ordering QC when
        // it arrived in `Cmt` must not pay for it again inside `CommitBlock`.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 2);
        let mut follower = PrestigeServer::new(ServerId(1), config.clone(), registry.clone(), 0);
        let (batch, digest, sig) = ord_fields(&registry, 1);
        let view = View(1);
        let n = SeqNum(1);
        let quorum = config.quorum();

        let ordering_qc = build_qc(&registry, QcKind::Ordering, view, n, digest, quorum);
        let commit_qc = build_qc(&registry, QcKind::Commit, view, n, digest, quorum);

        with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                Actor::Server(ServerId(0)),
                Message::Ord {
                    view,
                    n,
                    batch: Arc::clone(&batch),
                    digest,
                    sig,
                },
                ctx,
            );
            s.on_message(
                Actor::Server(ServerId(0)),
                Message::Cmt {
                    view,
                    n,
                    ordering_qc: ordering_qc.clone(),
                    sig,
                },
                ctx,
            );
        });
        assert_eq!(follower.stats().qc_cache_hits, 0);

        let mut block = TxBlock::new(view, n, batch.iter().map(|p| p.tx.clone()).collect());
        block.ordering_qc = Some(ordering_qc);
        block.commit_qc = Some(commit_qc);
        with_ctx(&mut follower, |s, ctx| {
            s.on_message(
                Actor::Server(ServerId(0)),
                Message::CommitBlock {
                    block: Arc::new(block),
                    sig: [0u8; 32],
                },
                ctx,
            );
        });
        assert_eq!(follower.store().latest_seq(), n, "block must commit");
        assert_eq!(
            follower.stats().qc_cache_hits,
            1,
            "the ordering QC from Cmt must ride the memo cache"
        );
    }

    #[test]
    fn batch_digest_depends_on_contents_and_position() {
        let p1 = Proposal::new(Transaction::with_size(ClientId(1), 1, 32), Digest::ZERO);
        let p2 = Proposal::new(Transaction::with_size(ClientId(1), 2, 32), Digest::ZERO);
        let a = PrestigeServer::batch_digest(View(1), SeqNum(1), &[p1.clone(), p2.clone()]);
        let b = PrestigeServer::batch_digest(View(1), SeqNum(1), &[p2, p1.clone()]);
        let c = PrestigeServer::batch_digest(View(1), SeqNum(2), std::slice::from_ref(&p1));
        let d = PrestigeServer::batch_digest(View(2), SeqNum(1), &[p1]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(c, d);
    }

    #[test]
    fn servers_share_batch_digest_function() {
        // The leader and followers must derive identical digests or phase-1
        // shares would never aggregate.
        let config = ClusterConfig::new(4);
        let registry = KeyRegistry::new(9, 4, 1);
        let leader = PrestigeServer::new(ServerId(0), config.clone(), registry.clone(), 0);
        let follower = PrestigeServer::new(ServerId(1), config, registry, 0);
        let batch = vec![Proposal::new(
            Transaction::with_size(ClientId(1), 7, 32),
            Digest::ZERO,
        )];
        assert_eq!(
            PrestigeServer::batch_digest(leader.current_view(), SeqNum(1), &batch),
            PrestigeServer::batch_digest(follower.current_view(), SeqNum(1), &batch),
        );
    }
}
