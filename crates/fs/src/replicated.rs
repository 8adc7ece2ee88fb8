//! The fault-tolerant nameserver: state machine replication over
//! Paxos, the paper's §3.3.1 future-work item ("we can improve the
//! fault-tolerance of the nameserver by using a state machine
//! replication algorithm, such as Paxos, to replicate the nameserver
//! to multiple nodes").
//!
//! The state machine is [`Nameserver`] and this module owns none of its
//! rules: it sequences [`NsOp`]s through the [`mayflower_consensus`]
//! replicated log and hands each replica's gap-free committed prefix,
//! in slot order, to that replica's [`Nameserver::apply`]. The one
//! random step of the namespace — a create's UUID and placement — is
//! taken before the log, by the proposing node's
//! [`Nameserver::decide`], so every replica stores the identical
//! entry. What [`ReplicatedNameserver::submit`] returns *is* the
//! proposing node's `apply` result; an op the rule book refuses is
//! refused identically on every replica, changes none of them, and
//! still advances every applied prefix — the log has no poison entry.
//! Reads can be served by any replica that has applied the ops the
//! caller depends on (read-your-writes via the proposing node).

use std::path::Path;
use std::sync::Arc;

use mayflower_consensus::cluster::{Cluster as PaxosGroup, FaultModel};
use mayflower_consensus::ReplicaId;
use mayflower_net::Topology;

use crate::error::FsError;
use crate::nameserver::{Nameserver, NameserverConfig, NsOp};
use crate::types::{FileMeta, Redundancy};

/// A nameserver replicated across `n` nodes via Paxos.
///
/// Mutations are [`NsOp`]s passed to [`ReplicatedNameserver::submit`]
/// at a chosen node (tolerating crashed minorities); reads are served
/// from any live node's applied state.
pub struct ReplicatedNameserver {
    group: PaxosGroup<NsOp>,
    nameservers: Vec<Arc<Nameserver>>,
    /// Ops applied so far per node (prefix length).
    applied: Vec<usize>,
}

impl ReplicatedNameserver {
    /// Creates an `n`-way replicated nameserver with databases under
    /// `dir/ns-<i>`; `seed` drives the Paxos message schedule.
    ///
    /// # Errors
    ///
    /// Returns an error if any replica's database cannot be opened.
    pub fn open(
        topo: Arc<Topology>,
        dir: &Path,
        n: usize,
        config: NameserverConfig,
        seed: u64,
    ) -> Result<ReplicatedNameserver, FsError> {
        let nameservers = (0..n)
            .map(|i| {
                // Any node may take a create, and the files of all of
                // them share the dataservers: each node must decide
                // from its own id/placement stream (node 0 keeps the
                // configured one).
                let mut config = config.clone();
                config.seed ^= 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64);
                Nameserver::open(topo.clone(), &dir.join(format!("ns-{i}")), config).map(Arc::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ReplicatedNameserver {
            group: PaxosGroup::with_faults(n, seed, FaultModel::default()),
            nameservers,
            applied: vec![0; n],
        })
    }

    /// Number of replicas.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.nameservers.len()
    }

    /// Crashes a node (stops participating in consensus).
    pub fn crash(&mut self, node: u32) {
        self.group.crash(ReplicaId(node));
    }

    /// Restarts a crashed node; it catches up from the log on the next
    /// operation.
    pub fn restart(&mut self, node: u32) {
        self.group.restart(ReplicaId(node));
    }

    /// Proposes `op` at `node`, drives consensus to quiescence, applies
    /// every newly committed op on every replica, and returns what
    /// `node`'s [`Nameserver::apply`] returned for `op`.
    ///
    /// An `Err` that is the rule book's refusal (`NotFound`,
    /// `AlreadyExists`, `InvalidArgument`) means the op was committed
    /// and changed nothing anywhere; the group stays usable.
    ///
    /// # Errors
    ///
    /// The op's own refusal; [`FsError::Consistency`] if no quorum is
    /// reachable (the op is withdrawn and was applied nowhere); or a
    /// replica's database failure, which leaves that replica behind to
    /// retry from the same op at the next submit.
    pub fn submit(&mut self, node: u32, op: &NsOp) -> Result<Option<FileMeta>, FsError> {
        self.group.propose(ReplicaId(node), op.clone());
        self.group.run_to_quiescence();
        let mut outcome = None;
        for (i, ns) in self.nameservers.iter().enumerate() {
            let committed = self.group.replica(ReplicaId(i as u32)).committed_prefix();
            for chosen in committed.into_iter().skip(self.applied[i]) {
                let result = ns.apply(chosen);
                let refused = matches!(
                    result,
                    Err(FsError::NotFound(_)
                        | FsError::AlreadyExists(_)
                        | FsError::InvalidArgument(_))
                );
                if result.is_err() && !refused {
                    // Not a verdict on the op: this replica's store failed.
                    return result;
                }
                self.applied[i] += 1;
                if i == node as usize && chosen == op {
                    outcome = Some(result);
                }
            }
        }
        outcome.unwrap_or_else(|| {
            // Withdraw so the stuck proposal cannot wedge later ops.
            self.group.abandon(ReplicaId(node));
            Err(FsError::Consistency(
                "operation not committed (no quorum reachable)".into(),
            ))
        })
    }

    /// The decide step of a create at `node`: see
    /// [`Nameserver::decide`]. Stores and proposes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] if `node`'s applied state has
    /// the name, or [`FsError::InvalidArgument`].
    pub fn decide(
        &self,
        node: u32,
        name: &str,
        redundancy: Redundancy,
    ) -> Result<FileMeta, FsError> {
        self.nameservers[node as usize].decide(name, redundancy, None)
    }

    /// Creates a file under the configured replication factor: `node`
    /// decides UUID and placement, then replicates the decision.
    ///
    /// # Errors
    ///
    /// See [`ReplicatedNameserver::create_with`].
    pub fn create(&mut self, node: u32, name: &str) -> Result<FileMeta, FsError> {
        let n = self.nameservers[node as usize].config().replication;
        self.create_with(node, name, Redundancy::Replicated { n })
    }

    /// Creates a file under an explicit redundancy policy, replicated
    /// or coded: [`ReplicatedNameserver::decide`] at `node`, then
    /// [`ReplicatedNameserver::submit`] of the [`NsOp::Create`].
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`], [`FsError::InvalidArgument`]
    /// for an empty name or an unsatisfiable policy, or
    /// [`FsError::Consistency`] if no quorum is reachable.
    pub fn create_with(
        &mut self,
        node: u32,
        name: &str,
        redundancy: Redundancy,
    ) -> Result<FileMeta, FsError> {
        let meta = self.decide(node, name, redundancy)?;
        self.submit(node, &NsOp::Create(meta.clone()))?;
        Ok(meta)
    }

    /// Reads a file's metadata from a specific node's applied state.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if that node has not (yet) applied
    /// a create for the name.
    pub fn lookup_at(&self, node: u32, name: &str) -> Result<FileMeta, FsError> {
        self.nameservers[node as usize].lookup(name)
    }

    /// Number of files according to a node's applied state.
    #[must_use]
    pub fn file_count_at(&self, node: u32) -> usize {
        self.nameservers[node as usize].file_count()
    }

    /// Every file in a node's applied state, in name order — the scan
    /// shard migration uses to find the keys a ring change moves.
    #[must_use]
    pub fn list_at(&self, node: u32) -> Vec<FileMeta> {
        self.nameservers[node as usize].list()
    }
}

impl std::fmt::Debug for ReplicatedNameserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedNameserver")
            .field("replicas", &self.nameservers.len())
            .field("applied", &self.applied)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::TreeParams;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "mayflower-repl-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn replicated(dir: &TempDir, n: usize) -> ReplicatedNameserver {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        ReplicatedNameserver::open(topo, &dir.0, n, NameserverConfig::default(), 7).unwrap()
    }

    #[test]
    fn create_is_visible_on_every_replica() {
        let dir = TempDir::new("visible");
        let mut rns = replicated(&dir, 3);
        let meta = rns.create(0, "a/b").unwrap();
        for node in 0..3 {
            let found = rns.lookup_at(node, "a/b").unwrap();
            assert_eq!(found.id, meta.id, "node {node} diverged");
            assert_eq!(found.replicas, meta.replicas);
        }
    }

    #[test]
    fn ops_through_different_nodes_stay_consistent() {
        let dir = TempDir::new("multi");
        let mut rns = replicated(&dir, 3);
        let f1 = rns.create(0, "f1").unwrap();
        let f2 = rns.create(1, "f2").unwrap();
        assert_ne!(f1.id, f2.id, "each node decides from its own id stream");
        let size = NsOp::RecordSize {
            name: "f1".into(),
            size: 99,
        };
        rns.submit(2, &size).unwrap();
        let deleted = rns.submit(1, &NsOp::Delete("f2".into())).unwrap();
        assert_eq!(deleted, Some(f2), "delete returns the dead metadata");
        for node in 0..3 {
            assert_eq!(rns.file_count_at(node), 1, "node {node}");
            assert_eq!(rns.lookup_at(node, "f1").unwrap().size, 99);
            assert!(rns.lookup_at(node, "f2").is_err());
        }
    }

    #[test]
    fn survives_minority_crash_and_failover() {
        let dir = TempDir::new("failover");
        let mut rns = replicated(&dir, 3);
        rns.create(0, "before").unwrap();
        // The original proposer crashes; the system fails over.
        rns.crash(0);
        let meta = rns.create(1, "after").unwrap();
        assert_eq!(rns.lookup_at(1, "after").unwrap().id, meta.id);
        assert_eq!(rns.lookup_at(2, "after").unwrap().id, meta.id);
        // The crashed node recovers and catches up on the next op.
        rns.restart(0);
        let size = NsOp::RecordSize {
            name: "after".into(),
            size: 5,
        };
        rns.submit(1, &size).unwrap();
        assert!(rns.lookup_at(0, "after").is_ok());
    }

    #[test]
    fn majority_crash_rejects_writes_safely() {
        let dir = TempDir::new("quorumloss");
        let mut rns = replicated(&dir, 3);
        rns.create(0, "ok").unwrap();
        rns.crash(1);
        rns.crash(2);
        let err = rns.create(0, "blocked");
        assert!(
            matches!(err, Err(FsError::Consistency(_))),
            "write without quorum must fail: {err:?}"
        );
        // Reads of committed state still work on the live node.
        assert!(rns.lookup_at(0, "ok").is_ok());
    }

    /// A refused op is committed like any other; if a replica's
    /// applied prefix stopped at it, every later op on the group would
    /// fail with that op's error for ever.
    #[test]
    fn a_refused_op_advances_every_replica_and_leaves_the_group_usable() {
        use crate::types::Redundancy;
        let dir = TempDir::new("refused");
        let mut rns = replicated(&dir, 3);
        rns.create(0, "a").unwrap();
        rns.create_with(0, "coded", Redundancy::Coded { k: 4, m: 2 })
            .unwrap();
        let seal = |sealed_chunks| NsOp::RecordSeal {
            name: "coded".into(),
            sealed_chunks,
        };
        rns.submit(0, &seal(2)).unwrap();
        let refused = [
            NsOp::Rename {
                from: "a".into(),
                to: String::new(),
                overwrite: true,
            },
            NsOp::Create(rns.lookup_at(0, "a").unwrap()),
            seal(1),
        ];
        for (i, op) in refused.into_iter().enumerate() {
            let err = rns.submit(0, &op).unwrap_err();
            assert!(
                matches!(err, FsError::InvalidArgument(_) | FsError::AlreadyExists(_)),
                "{op:?}: {err}"
            );
            rns.create(1, &format!("after-{i}")).unwrap();
            let listing = rns.list_at(0);
            assert_eq!(listing.len(), 3 + i, "{op:?}");
            assert_eq!(rns.list_at(1), listing, "{op:?}");
            assert_eq!(rns.list_at(2), listing, "{op:?}");
        }
        assert_eq!(rns.lookup_at(2, "coded").unwrap().sealed_chunks, 2);
    }

    #[test]
    fn five_way_replication_tolerates_two_crashes() {
        let dir = TempDir::new("fiveway");
        let mut rns = replicated(&dir, 5);
        rns.crash(3);
        rns.crash(4);
        rns.create(0, "resilient").unwrap();
        for node in 0..3 {
            assert!(rns.lookup_at(node, "resilient").is_ok());
        }
    }
}
