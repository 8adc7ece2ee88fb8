//! An in-process Mayflower deployment: one dataserver per topology
//! host, a nameserver, and the primary-relay append path.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

use mayflower_net::{HostId, Topology};
use mayflower_telemetry::trace::{self as trace, TraceHandle, Tracer};
use parking_lot::Mutex;

use crate::client::{Client, ClientMetrics};
use crate::coding::{self, EcMetrics};
use crate::datapath::DatapathMetrics;
use crate::dataserver::Dataserver;
use crate::error::FsError;
use crate::nameserver::{Nameserver, NameserverConfig, NsOp};
use crate::selector::{NearestSelector, ReplicaSelector};
use crate::types::{Consistency, FileId, FileMeta};

/// Cluster-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {
    /// Nameserver settings (replication, chunk size, placement).
    pub nameserver: NameserverConfig,
    /// Read consistency level for clients (§3.4).
    pub consistency: Consistency,
}

/// Serializes appends per file: the "primary dataserver is responsible
/// for ordering all of the append requests for the file" (§3.3.2).
#[derive(Debug, Default)]
pub(crate) struct AppendCoordinator {
    locks: Mutex<HashMap<FileId, Arc<Mutex<()>>>>,
}

impl AppendCoordinator {
    pub(crate) fn file_lock(&self, id: FileId) -> Arc<Mutex<()>> {
        self.locks.lock().entry(id).or_default().clone()
    }
}

/// An in-process Mayflower cluster: the deployment unit used by the
/// examples, the integration tests and the Figure 8 prototype
/// experiment. All components are real (real nameserver database,
/// real bytes in dataserver chunk files); only the network transfer
/// *timing* is delegated to the fluid simulator by the experiment
/// harness.
#[derive(Debug)]
pub struct Cluster {
    topo: Arc<Topology>,
    nameserver: Arc<Nameserver>,
    dataservers: BTreeMap<HostId, Arc<Dataserver>>,
    coordinator: Arc<AppendCoordinator>,
    consistency: Consistency,
    registry: mayflower_telemetry::Registry,
    ec: Arc<EcMetrics>,
    datapath: Arc<DatapathMetrics>,
    /// Causal-tracing root (DESIGN.md §17), disabled by default; every
    /// component handle below shares it.
    tracer: Arc<Tracer>,
    /// Repair and seal spans.
    trace_recovery: TraceHandle,
}

impl Cluster {
    /// Creates a cluster rooted at `dir`: `dir/nameserver` for the
    /// metadata database and `dir/ds-<host>` per dataserver.
    ///
    /// # Errors
    ///
    /// Returns an error if any directory cannot be created.
    pub fn create(
        dir: &Path,
        topo: Arc<Topology>,
        config: ClusterConfig,
    ) -> Result<Cluster, FsError> {
        let nameserver = Arc::new(Nameserver::open(
            topo.clone(),
            &dir.join("nameserver"),
            config.nameserver,
        )?);
        let registry = mayflower_telemetry::Registry::new();
        let tracer = Tracer::new_wall();
        let ds_scope = registry.scope("fs").scope("dataserver");
        let mut dataservers = BTreeMap::new();
        for host in topo.hosts() {
            let ds = Dataserver::open(host, &dir.join(format!("ds-{host}")))?;
            ds.attach_metrics(&ds_scope);
            ds.attach_trace(tracer.handle("dataserver"));
            dataservers.insert(host, Arc::new(ds));
        }
        let ec = Arc::new(EcMetrics::new(&registry.scope("ec")));
        let datapath = Arc::new(DatapathMetrics::new(
            &registry.scope("fs").scope("datapath"),
        ));
        let trace_recovery = tracer.handle("recovery");
        Ok(Cluster {
            topo,
            nameserver,
            dataservers,
            coordinator: Arc::new(AppendCoordinator::default()),
            consistency: config.consistency,
            registry,
            ec,
            datapath,
            tracer,
            trace_recovery,
        })
    }

    /// The cluster's causal tracer. It records nothing until
    /// [`Tracer::begin_capture`]; from then until `take_capture` it
    /// records per-operation span trees across clients, dataservers and
    /// repair flows.
    #[must_use]
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The cluster-wide telemetry registry: dataserver chunk IO and
    /// client operation metrics all land here (`mayfs metrics` renders
    /// it).
    #[must_use]
    pub fn registry(&self) -> &mayflower_telemetry::Registry {
        &self.registry
    }

    /// The cluster's topology.
    #[must_use]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The nameserver.
    #[must_use]
    pub fn nameserver(&self) -> &Arc<Nameserver> {
        &self.nameserver
    }

    /// The dataserver on a host.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not in the topology.
    #[must_use]
    pub fn dataserver(&self, host: HostId) -> &Arc<Dataserver> {
        self.dataservers
            .get(&host)
            .expect("every topology host runs a dataserver")
    }

    /// All dataservers, in host order.
    #[must_use]
    pub fn dataservers(&self) -> Vec<Arc<Dataserver>> {
        self.dataservers.values().cloned().collect()
    }

    /// A client on `host` with the default HDFS-style nearest-replica
    /// read selection.
    #[must_use]
    pub fn client(&self, host: HostId) -> Client {
        self.client_with_selector(host, Box::new(NearestSelector::new(self.topo.clone())))
    }

    /// A client on `host` with a custom read selector (e.g. one backed
    /// by the Flowserver).
    #[must_use]
    pub fn client_with_selector(&self, host: HostId, selector: Box<dyn ReplicaSelector>) -> Client {
        self.client_with_meta_and_selector(host, self.nameserver.clone(), selector)
    }

    /// A client on `host` whose metadata operations go through `meta`
    /// instead of the cluster's own nameserver — the hook the sharded
    /// metadata plane uses to hand every client a shard router while
    /// data-path I/O keeps flowing to this cluster's dataservers.
    #[must_use]
    pub fn client_with_meta(&self, host: HostId, meta: Arc<dyn crate::MetadataService>) -> Client {
        self.client_with_meta_and_selector(
            host,
            meta,
            Box::new(NearestSelector::new(self.topo.clone())),
        )
    }

    /// [`Cluster::client_with_meta`] with a custom read selector.
    #[must_use]
    pub fn client_with_meta_and_selector(
        &self,
        host: HostId,
        meta: Arc<dyn crate::MetadataService>,
        selector: Box<dyn ReplicaSelector>,
    ) -> Client {
        Client::new(
            host,
            meta,
            self.dataservers.clone(),
            self.coordinator.clone(),
            self.consistency,
            selector,
            ClientMetrics::new(&self.registry.scope("fs").scope("client")),
            self.datapath.clone(),
            self.ec.clone(),
            self.tracer.handle("client"),
        )
    }

    /// Stores `meta` over the file's nameserver entry in one step — a
    /// concurrent lookup sees the old mapping or the new one, never
    /// `NotFound` — then refreshes the replicas' local copies of it.
    fn replace_mapping(&self, meta: &FileMeta) -> Result<(), FsError> {
        self.nameserver.apply(&NsOp::Replace(meta.clone()))?;
        for r in &meta.replicas {
            let _ = self.dataserver(*r).update_meta(meta);
        }
        Ok(())
    }

    /// One **targeted** repair step, the unit of work the recovery
    /// subsystem's throttled executor issues: copy `name` from
    /// `source` onto `dest` with a dataserver-to-dataserver
    /// [`Dataserver::pull_repair`] and splice `dest` into the replica
    /// set in place of the first lost replica. A lost primary is
    /// replaced in slot 0, so `dest` becomes the file's primary and
    /// appends resume through it.
    ///
    /// The source and destination are decided by the caller — the
    /// repair planner picks them jointly with a network path by
    /// consulting the Flowserver at background priority.
    ///
    /// Idempotent under the per-file lock: if the file is no longer
    /// under-replicated (a concurrent repair won the race) or `dest`
    /// already holds a replica, nothing is copied and `Ok(0)` is
    /// returned. Returns the number of bytes copied otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Unavailable`] if `source` no longer holds a
    /// live copy or `dest` is down, and nameserver errors from
    /// persisting the new mapping.
    pub fn repair_to(&self, name: &str, source: HostId, dest: HostId) -> Result<u64, FsError> {
        trace::in_span(self.trace_recovery.span("repair_to"), |span| {
            trace::annotate(span, "file", name);
            // `copy` times the step but is not the ambient parent: the
            // dataservers' spans stay its siblings, under `repair_to`.
            let repair = trace::current_context();
            trace::in_span(self.trace_recovery.child("copy"), |copy| {
                trace::annotate(copy, "source", source);
                trace::annotate(copy, "dest", dest);
                let copied = trace::with_context(repair, || {
                    let meta = self.nameserver.lookup(name)?;
                    let lock = self.coordinator.file_lock(meta.id);
                    let _guard = lock.lock();
                    // Re-read under the lock (a concurrent repair may
                    // have won).
                    let mut meta = self.nameserver.lookup(name)?;

                    let Some(lost) = meta
                        .replicas
                        .iter()
                        .position(|r| !self.dataserver(*r).has_file(meta.id))
                    else {
                        return Ok(0); // fully replicated again — nothing to do
                    };
                    if meta.replicas.contains(&dest) && self.dataserver(dest).has_file(meta.id) {
                        return Ok(0);
                    }
                    if !self.dataserver(source).has_file(meta.id) {
                        return Err(FsError::Unavailable(format!(
                            "{name}: repair source host {source} lost its copy"
                        )));
                    }
                    let copied = self
                        .dataserver(dest)
                        .pull_repair(&**self.dataserver(source), &meta)?;
                    meta.replicas[lost] = dest;
                    self.replace_mapping(&meta)?;
                    Ok(copied)
                })?;
                trace::annotate(copy, "bytes", copied);
                Ok(copied)
            })
        })
    }

    /// Seals every complete-but-unsealed chunk of a coded file now,
    /// instead of waiting for the next append to trigger it: reads each
    /// chunk from a live replica, stripes it into `k + m` checksummed
    /// fragments on the fragment hosts, advances the nameserver's seal
    /// watermark, and reclaims the replicated chunk copies. Returns the
    /// new watermark (in chunks).
    ///
    /// Safe to call at any time and idempotent; a fragment host that is
    /// down stops the seal early (those chunks stay replicated).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown files and
    /// [`FsError::CorruptMetadata`] for inconsistent fragment maps.
    pub fn seal(&self, name: &str) -> Result<u64, FsError> {
        trace::in_span(self.trace_recovery.span("seal"), |span| {
            trace::annotate(span, "file", name);
            let meta = self.nameserver.lookup(name)?;
            let lock = self.coordinator.file_lock(meta.id);
            let _guard = lock.lock();
            coding::seal_complete_chunks(
                self.nameserver.as_ref(),
                &self.dataservers,
                name,
                Some(&self.ec),
            )
        })
    }

    /// One targeted **coded repair** step, the erasure-tier counterpart
    /// of [`Cluster::repair_to`]: reconstructs fragment `index` of
    /// every sealed chunk from `k` surviving fragments, stores it on
    /// `dest`, and splices `dest` into the fragment map. The repair
    /// planner picks `dest` and schedules the `k` source transfers with
    /// the Flowserver at background priority.
    ///
    /// Idempotent under the per-file lock: if the fragment is live and
    /// complete on its current host, nothing is rebuilt and `Ok(0)` is
    /// returned. Returns the fragment bytes written otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::InvalidArgument`] for replicated files, an
    /// out-of-range index, or a `dest` already holding another
    /// fragment; [`FsError::Unavailable`] when fewer than `k` fragments
    /// of any sealed chunk survive.
    pub fn repair_fragment(&self, name: &str, index: usize, dest: HostId) -> Result<u64, FsError> {
        trace::in_span(self.trace_recovery.span("repair_fragment"), |span| {
            trace::annotate(span, "file", name);
            // As in `repair_to`: the fragment reads and puts stay
            // siblings of `rebuild`, under `repair_fragment`.
            let repair = trace::current_context();
            trace::in_span(self.trace_recovery.child("rebuild"), |rebuild| {
                trace::annotate(rebuild, "fragment", index);
                trace::annotate(rebuild, "dest", dest);
                let written = trace::with_context(repair, || {
                    let meta = self.nameserver.lookup(name)?;
                    let lock = self.coordinator.file_lock(meta.id);
                    let _guard = lock.lock();
                    // Re-read under the lock (a concurrent repair may
                    // have won).
                    let meta = self.nameserver.lookup(name)?;
                    if !meta.is_coded() {
                        return Err(FsError::InvalidArgument(format!(
                            "{name} is not a coded file"
                        )));
                    }
                    if index >= meta.fragments.len() {
                        return Err(FsError::InvalidArgument(format!(
                            "fragment index {index} out of range for {name}"
                        )));
                    }
                    if meta
                        .fragments
                        .iter()
                        .enumerate()
                        .any(|(i, h)| i != index && *h == dest)
                    {
                        return Err(FsError::InvalidArgument(format!(
                            "host {dest} already holds another fragment of {name}"
                        )));
                    }
                    if meta.sealed_chunks == 0 {
                        return Ok(0);
                    }
                    let current = meta.fragments[index];
                    let intact = (0..meta.sealed_chunks)
                        .all(|c| self.dataserver(current).has_fragment(meta.id, c, index));
                    if intact {
                        return Ok(0);
                    }
                    let written = coding::rebuild_fragment(
                        &self.dataservers,
                        &meta,
                        index,
                        dest,
                        Some(&self.ec),
                    )?;
                    self.nameserver.set_fragment(name, index, dest)?;
                    let meta = self.nameserver.lookup(name)?;
                    for host in meta.replicas.iter().chain(&meta.fragments) {
                        let _ = self.dataserver(*host).update_meta(&meta);
                    }
                    Ok(written)
                })?;
                trace::annotate(rebuild, "bytes", written);
                Ok(written)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::TreeParams;
    use mayflower_simcore::testutil::TempDir;

    fn small_cluster(dir: &TempDir) -> Cluster {
        let topo = Arc::new(Topology::three_tier(&TreeParams {
            pods: 2,
            racks_per_pod: 2,
            hosts_per_rack: 2,
            ..TreeParams::paper_testbed()
        }));
        let config = ClusterConfig {
            nameserver: NameserverConfig {
                chunk_size: 16,
                ..NameserverConfig::default()
            },
            ..ClusterConfig::default()
        };
        Cluster::create(dir.path(), topo, config).unwrap()
    }

    #[test]
    fn cluster_spawns_a_dataserver_per_host() {
        let dir = TempDir::new("spawn");
        let c = small_cluster(&dir);
        assert_eq!(c.dataservers().len(), 8);
    }

    #[test]
    fn append_replicates_to_all_replicas() {
        let dir = TempDir::new("replicate");
        let c = small_cluster(&dir);
        let meta = c.nameserver().create("f").unwrap();
        for r in &meta.replicas {
            c.dataserver(*r).create_file(&meta).unwrap();
        }
        c.client(meta.primary()).append("f", b"hello").unwrap();
        for r in &meta.replicas {
            let (data, size) = c.dataserver(*r).read_local(meta.id, 0, 5).unwrap();
            assert_eq!(data, b"hello", "replica {r} diverged");
            assert_eq!(size, 5);
        }
        assert_eq!(c.nameserver().lookup("f").unwrap().size, 5);
    }

    /// The first host outside `meta`'s replica set whose rack no live
    /// replica occupies — where the recovery planner would rebuild.
    fn spare(c: &Cluster, meta: &FileMeta) -> HostId {
        let topo = c.topology();
        let live: Vec<HostId> = meta
            .replicas
            .iter()
            .copied()
            .filter(|r| c.dataserver(*r).has_file(meta.id))
            .collect();
        topo.hosts()
            .into_iter()
            .find(|h| {
                !meta.replicas.contains(h)
                    && live.iter().all(|r| topo.rack_of(*r) != topo.rack_of(*h))
            })
            .expect("a rack with no live replica")
    }

    #[test]
    fn repair_restores_replication_after_loss() {
        let dir = TempDir::new("repair");
        let c = small_cluster(&dir);
        let meta = c.nameserver().create("fixme").unwrap();
        for r in &meta.replicas {
            c.dataserver(*r).create_file(&meta).unwrap();
        }
        c.client(meta.primary())
            .append("fixme", b"precious payload")
            .unwrap();

        // Lose a non-primary replica.
        let victim = meta.replicas[1];
        c.dataserver(victim).delete_file(meta.id).unwrap();

        let dest = spare(&c, &meta);
        assert_eq!(c.repair_to("fixme", meta.primary(), dest).unwrap(), 16);
        let fixed = c.nameserver().lookup("fixme").unwrap();
        assert_eq!(fixed.replicas.len(), 3);
        assert!(!fixed.replicas.contains(&victim));
        assert_eq!(fixed.replicas[1], dest, "dest takes the lost slot");
        assert_eq!(fixed.primary(), meta.primary(), "primary preserved");
        // Every replica (incl. the new one) serves the full payload.
        for r in &fixed.replicas {
            let (data, _) = c.dataserver(*r).read_local(meta.id, 0, 100).unwrap();
            assert_eq!(data, b"precious payload", "replica {r}");
        }
        // No two replicas share a rack.
        let mut racks: Vec<_> = fixed
            .replicas
            .iter()
            .map(|h| c.topology().rack_of(*h))
            .collect();
        racks.sort();
        racks.dedup();
        assert_eq!(racks.len(), 3);
        // Idempotent: nothing left to repair.
        assert_eq!(c.repair_to("fixme", meta.primary(), dest).unwrap(), 0);
    }

    #[test]
    fn repairing_a_crashed_primary_makes_dest_the_primary() {
        let dir = TempDir::new("primary");
        let c = small_cluster(&dir);
        let meta = c.nameserver().create("hot").unwrap();
        for r in &meta.replicas {
            c.dataserver(*r).create_file(&meta).unwrap();
        }
        let mut client = c.client(meta.primary());
        client.append("hot", b"before crash ").unwrap();

        let old_primary = meta.primary();
        c.dataserver(old_primary).crash();
        let dest = spare(&c, &meta);
        c.repair_to("hot", meta.replicas[1], dest).unwrap();
        let after = c.nameserver().lookup("hot").unwrap();
        assert_eq!(after.primary(), dest, "dest fills the primary's slot");
        assert_eq!(after.replicas[1..], meta.replicas[1..], "survivors kept");

        // Appends go through again, ordered by the new primary.
        let mut client = c.client(dest);
        client.append("hot", b"after crash").unwrap();
        for r in &after.replicas {
            let (data, _) = c.dataserver(*r).read_local(meta.id, 0, 100).unwrap();
            assert_eq!(data, b"before crash after crash", "replica {r}");
        }

        // The crashed host restarts with its pre-crash bytes intact —
        // stale, and no longer in the replica set.
        c.dataserver(old_primary).restart();
        let (stale, _) = c
            .dataserver(old_primary)
            .read_local(meta.id, 0, 100)
            .unwrap();
        assert_eq!(stale, b"before crash ");
    }

    /// Repair changes where a file lives in one namespace op: a lookup
    /// racing it always finds the file.
    #[test]
    fn a_file_stays_mapped_while_its_mapping_is_replaced() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let dir = TempDir::new("replace");
        let c = Arc::new(small_cluster(&dir));
        let id = c.client(HostId(0)).create("busy").unwrap().id;
        c.client(HostId(0)).append("busy", b"payload").unwrap();

        let done = Arc::new(AtomicBool::new(false));
        let reader = {
            let (c, done) = (c.clone(), done.clone());
            std::thread::spawn(move || {
                let mut lookups = 0u64;
                while !done.load(Ordering::Relaxed) {
                    assert_eq!(c.nameserver().lookup("busy").unwrap().id, id);
                    lookups += 1;
                }
                lookups
            })
        };
        for _ in 0..200 {
            let before = c.nameserver().lookup("busy").unwrap();
            let crashed = before.primary();
            c.dataserver(crashed).crash();
            let dest = spare(&c, &before);
            c.repair_to("busy", before.replicas[1], dest).unwrap();
            // The crashed host comes back empty, free to be a spare.
            c.dataserver(crashed).restart();
            c.dataserver(crashed).delete_file(id).unwrap();
        }
        done.store(true, Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0);
        let after = c.nameserver().lookup("busy").unwrap();
        assert_eq!(after.replicas.len(), 3);
        assert_eq!(c.client(HostId(0)).read("busy").unwrap(), b"payload");
    }

    #[test]
    fn repair_without_a_live_source_is_unavailable() {
        let dir = TempDir::new("unrepairable");
        let c = small_cluster(&dir);
        // Lost files first: the crashed hosts stay down.
        for (name, crash) in [("gone", false), ("doomed", true)] {
            let meta = c.nameserver().create(name).unwrap();
            for r in &meta.replicas {
                let ds = c.dataserver(*r);
                ds.create_file(&meta).unwrap();
                if crash {
                    ds.crash();
                } else {
                    ds.delete_file(meta.id).unwrap();
                }
            }
            let dest = spare(&c, &meta);
            assert!(
                matches!(
                    c.repair_to(name, meta.primary(), dest),
                    Err(FsError::Unavailable(_))
                ),
                "{name}"
            );
            assert_eq!(c.nameserver().lookup(name).unwrap().replicas, meta.replicas);
        }
    }

    #[test]
    fn concurrent_appends_keep_replicas_identical() {
        let dir = TempDir::new("order");
        let c = Arc::new(small_cluster(&dir));
        let meta = c.nameserver().create("f").unwrap();
        for r in &meta.replicas {
            c.dataserver(*r).create_file(&meta).unwrap();
        }
        let threads: Vec<_> = (0..6u8)
            .map(|t| {
                let mut client = c.client(meta.primary());
                std::thread::spawn(move || {
                    for _ in 0..30 {
                        client.append("f", &[t; 8]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let size = 6 * 30 * 8;
        let reference = c
            .dataserver(meta.replicas[0])
            .read_local(meta.id, 0, size)
            .unwrap()
            .0;
        assert_eq!(reference.len() as u64, size);
        // Sequential consistency: every replica saw the same order.
        for r in &meta.replicas[1..] {
            let other = c.dataserver(*r).read_local(meta.id, 0, size).unwrap().0;
            assert_eq!(other, reference, "replica {r} ordered differently");
        }
        // And no torn append records.
        for rec in reference.chunks(8) {
            assert!(rec.iter().all(|b| *b == rec[0]));
        }
    }
}
