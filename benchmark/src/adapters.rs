//! The pinned API surface: every call the benchmark makes into the
//! program lives in this file, and nothing outside it names a program
//! type. When a program function is renamed or deleted
//! (`ShardedCluster`, `Cluster::client_with_meta_and_selector`,
//! `RemoteNameserver`, ...), a later benchmark change edits this file
//! only. `README.md` lists the surface.
//!
//! Three kinds of thing live here:
//!
//! * **rigs** — the deployments the workloads run against (`FsRig`,
//!   `CtlRig`, `SimRig`) behind plain-data methods;
//! * **decorators** — wrappers for the seams the program's client
//!   already accepts (`MetadataService`, `ReplicaSelector`, rpc
//!   `Transport` and `Service`) that record a child span and return
//!   exactly what the wrapped value returns;
//! * **drives** — closures that call one layer's public functions
//!   directly; `layers.rs` times them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mayflower_ec::Codec;
use mayflower_flowserver::remote::{FlowserverService, RemoteFlowserver};
use mayflower_flowserver::{Flowserver, FlowserverConfig, Selection};
use mayflower_fs::remote::{NameserverService, RemoteNameserver};
use mayflower_fs::{
    Client, ClusterConfig, Dataserver, FileId, FileMeta, FsError, MetadataService, Nameserver,
    NameserverConfig, ReadAssignment, Redundancy, ReplicaSelector,
};
use mayflower_kvstore::{KvStore, Options as KvOptions};
use mayflower_net::{ecmp_path, FlowKey, HostId, LinkId, Topology, TreeParams};
use mayflower_rpc::codec::{read_frame, write_frame};
use mayflower_rpc::{
    Client as RpcClient, InProcTransport, Request, Response, RpcError, Service, TcpServer,
    TcpTransport, Transport,
};
use mayflower_sdn::{CounterSource, FlowCookie};
use mayflower_shard::{ShardPlaneConfig, ShardRouter, ShardedCluster};
use mayflower_sim::engine::NoHooks;
use mayflower_sim::{replay, replay_with_telemetry, JobRecord, ReplayOptions, Strategy};
use mayflower_simcore::{EventQueue, SimRng, SimTime};
use mayflower_simnet::maxmin::compute_rates_masked;
use mayflower_simnet::{FluidNet, RoutedFlow};
use mayflower_telemetry::Snapshot;
use mayflower_workload::{TrafficMatrix, WorkloadParams};
use parking_lot::Mutex;

use crate::spans::Recorder;

/// Hosts in the paper's tree.
pub const PAPER_HOSTS: u32 = 64;

fn paper_topology() -> Arc<Topology> {
    Arc::new(Topology::three_tier(&TreeParams::paper_testbed()))
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn counter(snap: &Snapshot, id: &str) -> Result<u64, String> {
    snap.counter(id)
        .ok_or_else(|| format!("the program no longer exports counter {id}"))
}

// ------------------------------------------------------------------
// Decorators
// ------------------------------------------------------------------

/// Records a `router.*` span around every metadata call.
pub struct TracedMeta {
    inner: Arc<dyn MetadataService>,
    rec: Arc<Recorder>,
}

impl MetadataService for TracedMeta {
    fn create_with(&self, name: &str, redundancy: Redundancy) -> Result<FileMeta, FsError> {
        let s = self.rec.begin("router.create");
        let out = self.inner.create_with(name, redundancy);
        self.rec.end(s);
        out
    }

    fn lookup(&self, name: &str) -> Result<FileMeta, FsError> {
        let s = self.rec.begin("router.lookup");
        let out = self.inner.lookup(name);
        self.rec.end(s);
        out
    }

    fn record_size(&self, name: &str, size: u64) -> Result<(), FsError> {
        let s = self.rec.begin("router.record_size");
        let out = self.inner.record_size(name, size);
        self.rec.end(s);
        out
    }

    fn record_seal(&self, name: &str, sealed_chunks: u64) -> Result<(), FsError> {
        let s = self.rec.begin("router.record_seal");
        let out = self.inner.record_seal(name, sealed_chunks);
        self.rec.end(s);
        out
    }

    fn rename(&self, old: &str, new: &str, overwrite: bool) -> Result<Option<FileMeta>, FsError> {
        let s = self.rec.begin("router.rename");
        let out = self.inner.rename(old, new, overwrite);
        self.rec.end(s);
        out
    }

    fn delete(&self, name: &str) -> Result<FileMeta, FsError> {
        let s = self.rec.begin("router.delete");
        let out = self.inner.delete(name);
        self.rec.end(s);
        out
    }
}

/// Records a `flowserver.select` span around every selection.
pub struct TracedSelector {
    inner: Box<dyn ReplicaSelector>,
    rec: Arc<Recorder>,
}

impl ReplicaSelector for TracedSelector {
    fn select_read(
        &mut self,
        client: HostId,
        replicas: &[HostId],
        size_bytes: u64,
    ) -> Vec<ReadAssignment> {
        let s = self.rec.begin("flowserver.select");
        let out = self.inner.select_read(client, replicas, size_bytes);
        self.rec.end(s);
        out
    }

    fn select_fragments(
        &mut self,
        client: HostId,
        available: &[(usize, HostId)],
        k: usize,
    ) -> Vec<usize> {
        let s = self.rec.begin("flowserver.select_fragments");
        let out = self.inner.select_fragments(client, available, k);
        self.rec.end(s);
        out
    }
}

/// Bytes and calls seen by a [`TracedTransport`] while recording.
#[derive(Debug, Default)]
pub struct WireCount {
    calls: AtomicU64,
    bytes: AtomicU64,
}

/// Records an `rpc.transport` span around every round trip and, while
/// recording, counts the framed bytes of both envelopes.
pub struct TracedTransport<T> {
    inner: T,
    rec: Arc<Recorder>,
    wire: Arc<WireCount>,
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn round_trip(&self, request: Request) -> Result<Response, RpcError> {
        // Sizes are taken outside the span so the extra encodes do not
        // count as transport time.
        let sent = self.rec.in_op().then(|| request.encode().len() as u64 + 4);
        let s = self.rec.begin("rpc.transport");
        let out = self.inner.round_trip(request);
        self.rec.end(s);
        if let (Some(sent), Ok(response)) = (sent, &out) {
            self.wire.calls.fetch_add(1, Ordering::Relaxed);
            self.wire
                .bytes
                .fetch_add(sent + response.encode().len() as u64 + 4, Ordering::Relaxed);
        }
        out
    }
}

/// Records an `rpc.service` span, on the server thread, under the
/// round trip in flight.
pub struct TracedService {
    inner: Arc<dyn Service>,
    rec: Arc<Recorder>,
}

impl Service for TracedService {
    fn call(&self, method: &str, body: &[u8]) -> Result<Vec<u8>, RpcError> {
        let s = self.rec.begin_detached("rpc.service");
        let out = self.inner.call(method, body);
        self.rec.end(s);
        out
    }
}

// ------------------------------------------------------------------
// The filesystem rig
// ------------------------------------------------------------------

/// A [`ReplicaSelector`] that asks a Flowserver for every read, as the
/// paper's client does (and as `tests/end_to_end.rs` does). The
/// transfer itself is local file I/O, so the flow is retired as soon
/// as it is chosen: selection always runs against zero tracked flows.
struct FlowserverSelector {
    fs: Flowserver,
}

impl ReplicaSelector for FlowserverSelector {
    fn select_read(
        &mut self,
        client: HostId,
        replicas: &[HostId],
        size_bytes: u64,
    ) -> Vec<ReadAssignment> {
        let sel =
            self.fs
                .select_replica_path(client, replicas, (size_bytes * 8) as f64, SimTime::ZERO);
        let out = match &sel {
            Selection::Unavailable => Vec::new(),
            Selection::Local => vec![ReadAssignment {
                replica: client,
                bytes: size_bytes,
            }],
            Selection::Single(a) => vec![ReadAssignment {
                replica: a.replica,
                bytes: size_bytes,
            }],
            Selection::Split(parts) => {
                let total_bits: f64 = parts.iter().map(|p| p.size_bits).sum();
                let mut out: Vec<ReadAssignment> = parts
                    .iter()
                    .map(|p| ReadAssignment {
                        replica: p.replica,
                        bytes: ((p.size_bits / total_bits) * size_bytes as f64) as u64,
                    })
                    .collect();
                let assigned: u64 = out.iter().map(|a| a.bytes).sum();
                out[0].bytes += size_bytes - assigned;
                out
            }
        };
        for a in sel.assignments() {
            self.fs.flow_completed(a.cookie);
        }
        out
    }
}

/// How a file is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `n` full replicas.
    Replicated(usize),
    /// `k` data + `m` parity fragments per sealed chunk.
    Coded(usize, usize),
}

/// Counts read from the cluster's own telemetry registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsCounts {
    /// Client metadata-cache hits.
    pub cache_hits: u64,
    /// Client metadata-cache misses.
    pub cache_misses: u64,
    /// Client retries of transient failures.
    pub retries: u64,
    /// Metadata calls routed by shard routers.
    pub router_calls: u64,
    /// Shard-map refreshes by shard routers.
    pub router_map_refreshes: u64,
    /// Flowserver shortest-path cache hits.
    pub path_cache_hits: u64,
    /// Flowserver shortest-path cache misses.
    pub path_cache_misses: u64,
}

impl FsCounts {
    /// What was counted since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &FsCounts) -> FsCounts {
        FsCounts {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            retries: self.retries - earlier.retries,
            router_calls: self.router_calls - earlier.router_calls,
            router_map_refreshes: self.router_map_refreshes - earlier.router_map_refreshes,
            path_cache_hits: self.path_cache_hits - earlier.path_cache_hits,
            path_cache_misses: self.path_cache_misses - earlier.path_cache_misses,
        }
    }
}

/// A sharded on-disk cluster on the paper's 64-host tree.
pub struct FsRig {
    cluster: ShardedCluster,
}

impl FsRig {
    /// Creates the cluster under `dir`: 4 plain shards, `chunk_size`
    /// chunks, default placement.
    ///
    /// # Errors
    ///
    /// Describes the creation failure.
    pub fn create(dir: &Path, chunk_size: u64) -> Result<FsRig, String> {
        let nameserver = NameserverConfig {
            chunk_size,
            ..NameserverConfig::default()
        };
        let cluster = ShardedCluster::create(
            dir,
            paper_topology(),
            ClusterConfig {
                nameserver: nameserver.clone(),
                ..ClusterConfig::default()
            },
            ShardPlaneConfig {
                shards: 4,
                nameserver,
                ..ShardPlaneConfig::default()
            },
        )
        .map_err(text)?;
        Ok(FsRig { cluster })
    }

    /// A client on `host` with fan-out `width`, its metadata routed
    /// through a shard router and its reads steered by a Flowserver,
    /// both behind span-recording decorators.
    #[must_use]
    pub fn client(&self, host: u32, width: usize, rec: &Arc<Recorder>) -> FsClient {
        let data = self.cluster.cluster();
        let router = Arc::new(ShardRouter::new(
            self.cluster.plane().clone(),
            &data.registry().scope("shard_router"),
        ));
        let mut flowserver = Flowserver::new(data.topology().clone(), FlowserverConfig::default());
        flowserver.attach_metrics(data.registry());
        let mut inner = data.client_with_meta_and_selector(
            HostId(host),
            Arc::new(TracedMeta {
                inner: router,
                rec: rec.clone(),
            }),
            Box::new(TracedSelector {
                inner: Box::new(FlowserverSelector { fs: flowserver }),
                rec: rec.clone(),
            }),
        );
        inner.set_parallelism(width);
        FsClient { inner }
    }

    /// The directory of every dataserver.
    #[must_use]
    pub fn dataserver_roots(&self) -> Vec<PathBuf> {
        self.cluster
            .cluster()
            .dataservers()
            .iter()
            .map(|d| d.root().to_path_buf())
            .collect()
    }

    /// The registry counts the per-layer table uses.
    ///
    /// # Errors
    ///
    /// Names the counter the program no longer exports.
    pub fn counts(&self) -> Result<FsCounts, String> {
        let snap = self.cluster.cluster().registry().snapshot();
        Ok(FsCounts {
            cache_hits: counter(&snap, "fs_client_cache_hits_total")?,
            cache_misses: counter(&snap, "fs_client_cache_misses_total")?,
            retries: counter(&snap, "fs_client_retries_total")?,
            router_calls: counter(&snap, "shard_router_routed_ops_total")?,
            router_map_refreshes: counter(&snap, "shard_router_map_refreshes_total")?,
            path_cache_hits: counter(&snap, "flowserver_path_cache_hits_total")?,
            path_cache_misses: counter(&snap, "flowserver_path_cache_misses_total")?,
        })
    }
}

/// The program's filesystem client behind plain-data methods.
pub struct FsClient {
    inner: Client,
}

impl FsClient {
    /// Creates a file.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn create(&mut self, name: &str, layout: Layout) -> Result<(), String> {
        let redundancy = match layout {
            Layout::Replicated(n) => Redundancy::Replicated { n },
            Layout::Coded(k, m) => Redundancy::Coded { k, m },
        };
        self.inner
            .create_with(name, redundancy)
            .map(drop)
            .map_err(text)
    }

    /// Appends; returns the new size.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn append(&mut self, name: &str, data: &[u8]) -> Result<u64, String> {
        self.inner.append(name, data).map_err(text)
    }

    /// Reads the whole file.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn read(&mut self, name: &str) -> Result<Vec<u8>, String> {
        self.inner.read(name).map_err(text)
    }

    /// Reads a range.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn read_range(&mut self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, String> {
        self.inner.read_range(name, offset, len).map_err(text)
    }

    /// Looks metadata up; returns the recorded size.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn meta_size(&mut self, name: &str) -> Result<u64, String> {
        self.inner.meta(name).map(|m| m.size).map_err(text)
    }

    /// Renames.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn rename(&mut self, old: &str, new: &str) -> Result<(), String> {
        self.inner.rename(old, new).map_err(text)
    }

    /// Deletes.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn delete(&mut self, name: &str) -> Result<(), String> {
        self.inner.delete(name).map_err(text)
    }
}

// ------------------------------------------------------------------
// The control-plane rig
// ------------------------------------------------------------------

/// A plain nameserver and a Flowserver, each behind its RPC service
/// on a loopback TCP server, with one client connection per service.
pub struct CtlRig {
    ns: RemoteNameserver<TracedTransport<TcpTransport>>,
    fs: RemoteFlowserver<TracedTransport<TcpTransport>>,
    servers: Vec<TcpServer>,
    wire: Arc<WireCount>,
}

impl CtlRig {
    /// Starts both servers on `127.0.0.1:0` and connects to them.
    ///
    /// # Errors
    ///
    /// Describes the failure.
    pub fn start(dir: &Path, rec: &Arc<Recorder>) -> Result<CtlRig, String> {
        let topo = paper_topology();
        let nameserver = Arc::new(
            Nameserver::open(topo.clone(), dir, NameserverConfig::default()).map_err(text)?,
        );
        let flowserver = Arc::new(Mutex::new(Flowserver::new(
            topo,
            FlowserverConfig::default(),
        )));
        let wire = Arc::new(WireCount::default());
        let traced = |inner: Arc<dyn Service>| -> Arc<dyn Service> {
            Arc::new(TracedService {
                inner,
                rec: rec.clone(),
            })
        };
        let connect = |server: &TcpServer| -> Result<TracedTransport<TcpTransport>, String> {
            Ok(TracedTransport {
                inner: TcpTransport::connect(server.local_addr()).map_err(text)?,
                rec: rec.clone(),
                wire: wire.clone(),
            })
        };
        let ns_server = TcpServer::bind(
            "127.0.0.1:0",
            traced(Arc::new(NameserverService::new(nameserver))),
        )
        .map_err(text)?;
        let fs_server = TcpServer::bind(
            "127.0.0.1:0",
            traced(Arc::new(FlowserverService::new(flowserver))),
        )
        .map_err(text)?;
        let ns = RemoteNameserver::new(connect(&ns_server)?);
        let fs = RemoteFlowserver::new(connect(&fs_server)?);
        Ok(CtlRig {
            ns,
            fs,
            servers: vec![ns_server, fs_server],
            wire,
        })
    }

    /// `nameserver.create`; returns the placed replicas.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn create(&self, name: &str) -> Result<Vec<u32>, String> {
        let meta = self.ns.create(name).map_err(text)?;
        Ok(meta.replicas.iter().map(|h| h.0).collect())
    }

    /// `nameserver.lookup`; returns the replicas and the size.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn lookup(&self, name: &str) -> Result<(Vec<u32>, u64), String> {
        let meta = self.ns.lookup(name).map_err(text)?;
        Ok((meta.replicas.iter().map(|h| h.0).collect(), meta.size))
    }

    /// `nameserver.size`.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn record_size(&self, name: &str, size: u64) -> Result<(), String> {
        self.ns.record_size(name, size).map_err(text)
    }

    /// `nameserver.delete`.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn delete(&self, name: &str) -> Result<(), String> {
        self.ns.delete(name).map(drop).map_err(text)
    }

    /// `flowserver.select` for a `bytes`-long read; returns the chosen
    /// replicas with the cookies of the flows installed (none when a
    /// replica is on the client's own host).
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn select(
        &self,
        client: u32,
        replicas: &[u32],
        bytes: u64,
    ) -> Result<Vec<(u32, u64)>, String> {
        let replicas: Vec<HostId> = replicas.iter().copied().map(HostId).collect();
        let sel = self
            .fs
            .select(HostId(client), &replicas, (bytes * 8) as f64, SimTime::ZERO)
            .map_err(text)?;
        Ok(sel
            .assignments()
            .iter()
            .map(|a| (a.replica.0, a.cookie.0))
            .collect())
    }

    /// `flowserver.completed`.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn completed(&self, cookie: u64) -> Result<(), String> {
        self.fs.completed(FlowCookie(cookie)).map_err(text)
    }

    /// `flowserver.tracked`.
    ///
    /// # Errors
    ///
    /// The program's error, rendered.
    pub fn tracked(&self) -> Result<usize, String> {
        self.fs.tracked().map_err(text)
    }

    /// `(calls, framed bytes)` counted while spans were recorded.
    #[must_use]
    pub fn wire(&self) -> (u64, u64) {
        (
            self.wire.calls.load(Ordering::Relaxed),
            self.wire.bytes.load(Ordering::Relaxed),
        )
    }

    /// Closes both connections, so the per-connection server threads
    /// see end-of-file and return, then stops both accept loops.
    pub fn shutdown(self) {
        let CtlRig {
            ns,
            fs,
            mut servers,
            ..
        } = self;
        drop((ns, fs));
        for s in &mut servers {
            s.shutdown();
        }
    }
}

// ------------------------------------------------------------------
// The simulator rig
// ------------------------------------------------------------------

/// What one replay produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Jobs replayed; all of them completed.
    pub jobs: usize,
    /// Host seconds the replay took.
    pub wall_s: f64,
    /// FNV-1a over every record's fields: equal digests mean identical
    /// simulated results.
    pub digest: u64,
    /// Simulated completion seconds of the remote (non-local) jobs.
    pub remote_durations: Vec<f64>,
    /// Mean number of jobs in flight: Σ durations ÷ makespan.
    pub mean_concurrency: f64,
}

/// Exact counts from a replay's own registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    /// Flowserver selections of every outcome.
    pub selections: u64,
    /// Stats polls ingested.
    pub polls: u64,
    /// Estimates shielded by the update-freeze window.
    pub update_freezes: u64,
}

/// One topology and one generated traffic matrix, replayed many times.
pub struct SimRig {
    topo: Arc<Topology>,
    matrix: TrafficMatrix,
    /// Generator state after the matrix was drawn; every replay starts
    /// from a clone, so replays are identical.
    rng: SimRng,
    /// Host seconds spent building the topology.
    pub topology_build_s: f64,
    /// Host seconds spent generating the matrix.
    pub generate_s: f64,
}

fn tree_of(hosts: usize) -> TreeParams {
    match hosts {
        64 => TreeParams::paper_testbed(),
        // The 8×8×16 tree of `sim::scale`.
        1024 => TreeParams {
            pods: 8,
            racks_per_pod: 8,
            hosts_per_rack: 16,
            ..TreeParams::paper_testbed()
        },
        other => panic!("no tree preset for {other} hosts"),
    }
}

fn digest_records(records: &[JobRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        mix(r.id as u64);
        mix(r.arrival.as_secs().to_bits());
        mix(r.finish.as_secs().to_bits());
        mix(u64::from(r.local));
        mix(r.subflows as u64);
        for t in &r.subflow_finishes {
            mix(t.as_secs().to_bits());
        }
    }
    h
}

impl SimRig {
    /// Builds the `hosts`-host tree and draws a `jobs`-job matrix from
    /// `seed`: the paper's default workload at 64 hosts, the
    /// parameters of `sim::scale` (3072 files, Zipf 0.5) at 1024.
    #[must_use]
    pub fn build(hosts: usize, jobs: usize, seed: u64) -> SimRig {
        let started = Instant::now();
        let topo = Arc::new(Topology::three_tier(&tree_of(hosts)));
        let topology_build_s = started.elapsed().as_secs_f64();
        let params = if hosts == 64 {
            WorkloadParams {
                job_count: jobs,
                ..WorkloadParams::default()
            }
        } else {
            WorkloadParams {
                job_count: jobs,
                file_count: 3072,
                zipf_exponent: 0.5,
                ..WorkloadParams::default()
            }
        };
        let started = Instant::now();
        let mut rng = SimRng::seed_from(seed);
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        let generate_s = started.elapsed().as_secs_f64();
        SimRig {
            topo,
            matrix,
            rng,
            topology_build_s,
            generate_s,
        }
    }

    /// A digest of the generated jobs (arrival, client, file).
    #[must_use]
    pub fn matrix_digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.matrix.jobs.len() * 20);
        for j in &self.matrix.jobs {
            bytes.extend_from_slice(&j.arrival.as_secs().to_bits().to_le_bytes());
            bytes.extend_from_slice(&j.client.0.to_le_bytes());
            bytes.extend_from_slice(&(j.file_rank as u64).to_le_bytes());
        }
        crate::gen::fnv64(&bytes)
    }

    fn outcome(&self, records: &[JobRecord], wall: Duration) -> ReplayOutcome {
        let remote_durations: Vec<f64> = records
            .iter()
            .filter(|r| !r.local)
            .map(JobRecord::duration_secs)
            .collect();
        let first = self
            .matrix
            .jobs
            .first()
            .map_or(0.0, |j| j.arrival.as_secs());
        let last = records
            .iter()
            .map(|r| r.finish.as_secs())
            .fold(first, f64::max);
        let busy: f64 = remote_durations.iter().sum();
        ReplayOutcome {
            jobs: records.len(),
            wall_s: wall.as_secs_f64(),
            digest: digest_records(records),
            mean_concurrency: if last > first {
                busy / (last - first)
            } else {
                0.0
            },
            remote_durations,
        }
    }

    /// One `engine::replay` under `Strategy::Mayflower`, 1 s polls.
    #[must_use]
    pub fn replay(&self) -> ReplayOutcome {
        self.replay_under(Strategy::Mayflower)
    }

    /// One `engine::replay` under Nearest + ECMP.
    #[must_use]
    pub fn replay_nearest_ecmp(&self) -> ReplayOutcome {
        self.replay_under(Strategy::NearestEcmp)
    }

    fn replay_under(&self, strategy: Strategy) -> ReplayOutcome {
        let mut rng = self.rng.clone();
        let started = Instant::now();
        let records = replay(&self.topo, &self.matrix, strategy, 1.0, &mut rng);
        let wall = started.elapsed();
        self.outcome(&records, wall)
    }

    /// The same replay through `replay_with_telemetry`, with the exact
    /// counts its registry holds.
    ///
    /// # Errors
    ///
    /// Names the counter the program no longer exports.
    pub fn replay_counted(&self) -> Result<(ReplayOutcome, SimCounts), String> {
        let mut rng = self.rng.clone();
        let started = Instant::now();
        let (records, _, registry) = replay_with_telemetry(
            &self.topo,
            &self.matrix,
            Strategy::Mayflower,
            &ReplayOptions::default(),
            &mut rng,
            &mut NoHooks,
        );
        let wall = started.elapsed();
        let snap = registry.snapshot();
        let mut selections = 0;
        for outcome in ["local", "single", "split", "unavailable"] {
            let id = format!("flowserver_selections_total{{outcome=\"{outcome}\"}}");
            selections += counter(&snap, &id)?;
        }
        let counts = SimCounts {
            selections,
            polls: counter(&snap, "flowserver_polls_total")?,
            update_freezes: counter(&snap, "flowserver_update_freezes_total")?,
        };
        Ok((self.outcome(&records, wall), counts))
    }

    /// `flows` routed flows drawn from the matrix's own jobs (first
    /// replica to client over the ECMP path), for the simnet drives.
    fn sample_paths(&self, flows: usize) -> Vec<mayflower_net::Path> {
        self.matrix
            .jobs
            .iter()
            .filter_map(|j| {
                let replica = self.matrix.replicas_of(j)[0];
                (replica != j.client)
                    .then(|| ecmp_path(&self.topo, FlowKey::new(replica, j.client, j.id as u64)))
                    .flatten()
            })
            .take(flows.max(1))
            .collect()
    }

    /// A drive computing the global max-min allocation of `flows`
    /// concurrent flows with `compute_rates_masked`.
    #[must_use]
    pub fn drive_maxmin(&self, flows: usize) -> Drive<'_> {
        let paths = self.sample_paths(flows);
        Box::new(move |iters| {
            let routed: Vec<RoutedFlow<'_>> = paths
                .iter()
                .map(|p| RoutedFlow { links: p.links() })
                .collect();
            for _ in 0..iters {
                std::hint::black_box(compute_rates_masked(
                    &self.topo,
                    std::hint::black_box(&routed),
                    None,
                ));
            }
        })
    }

    /// A drive doing one fluid-network event at `flows` concurrent
    /// flows: admit a flow, then advance to the next completion.
    #[must_use]
    pub fn drive_fluid_event(&self, flows: usize) -> Drive<'_> {
        let paths = self.sample_paths(flows);
        // Sizes that never repeat (golden-ratio fractions), so two
        // flows sharing a bottleneck do not finish in the same instant
        // and each event retires exactly the one flow it admitted.
        let size_bits = |i: usize| 256.0 * 8e6 * (1.0 + (i as f64 * 0.618_033_988_749_895).fract());
        let mut net = FluidNet::new(self.topo.clone());
        for (i, p) in paths.iter().enumerate() {
            let now = net.now();
            net.add_flow(p.clone(), size_bits(i), now);
        }
        let mut next = 0usize;
        Box::new(move |iters| {
            for _ in 0..iters {
                let now = net.now();
                net.add_flow(paths[next % paths.len()].clone(), size_bits(next), now);
                next += 1;
                let t = net.next_completion_time();
                std::hint::black_box(net.advance_to(t));
            }
            debug_assert!(net.flow_count().abs_diff(paths.len()) <= paths.len() / 4);
        })
    }
}

// ------------------------------------------------------------------
// Drives: one layer's public functions, called directly
// ------------------------------------------------------------------

/// A closure that performs the given number of iterations of one
/// layer call; `layers.rs` times it.
pub type Drive<'a> = Box<dyn FnMut(u64) + 'a>;

/// A plain nameserver holding `files` files named `f/<i>`.
///
/// # Errors
///
/// Describes the failure.
pub fn nameserver_with_files(dir: &Path, files: usize) -> Result<Arc<Nameserver>, String> {
    let ns = Nameserver::open(paper_topology(), dir, NameserverConfig::default()).map_err(text)?;
    for i in 0..files {
        ns.create(&format!("f/{i}")).map_err(text)?;
    }
    Ok(Arc::new(ns))
}

/// `Nameserver::lookup` over the pre-created names.
#[must_use]
pub fn drive_nameserver_lookup(ns: &Arc<Nameserver>, files: usize) -> Drive<'static> {
    let ns = ns.clone();
    let names: Vec<String> = (0..files).map(|i| format!("f/{i}")).collect();
    let mut next = 0usize;
    Box::new(move |iters| {
        for _ in 0..iters {
            // A stride coprime to the population walks all of it.
            next = (next + 61) % names.len();
            std::hint::black_box(ns.lookup(&names[next]).expect("pre-created file"));
        }
    })
}

/// `Nameserver::create` of fresh names.
#[must_use]
pub fn drive_nameserver_create(ns: &Arc<Nameserver>) -> Drive<'static> {
    let ns = ns.clone();
    let mut next = 0u64;
    Box::new(move |iters| {
        for _ in 0..iters {
            next += 1;
            std::hint::black_box(ns.create(&format!("new/{next}")).expect("fresh name"));
        }
    })
}

/// `Nameserver::record_size` over the pre-created names.
#[must_use]
pub fn drive_nameserver_record_size(ns: &Arc<Nameserver>, files: usize) -> Drive<'static> {
    let ns = ns.clone();
    let names: Vec<String> = (0..files).map(|i| format!("f/{i}")).collect();
    let mut next = 0usize;
    Box::new(move |iters| {
        for _ in 0..iters {
            next = (next + 61) % names.len();
            ns.record_size(&names[next], next as u64)
                .expect("pre-created file");
        }
    })
}

/// A key-value store under `dir` holding `keys` metadata-sized values.
pub struct KvRig {
    store: KvStore,
    dir: PathBuf,
    keys: usize,
    value: Vec<u8>,
}

impl KvRig {
    /// Opens the store and writes `keys` entries of 320 bytes — about
    /// one serialized `FileMeta`.
    ///
    /// # Errors
    ///
    /// Describes the failure.
    pub fn open(dir: &Path, keys: usize) -> Result<KvRig, String> {
        let mut store = KvStore::open(dir, KvOptions::default()).map_err(text)?;
        let value = vec![0x5au8; 320];
        for i in 0..keys {
            store
                .put(format!("n/f/{i}").as_bytes(), &value)
                .map_err(text)?;
        }
        Ok(KvRig {
            store,
            dir: dir.to_path_buf(),
            keys,
            value,
        })
    }

    /// `KvStore::put` overwriting existing keys.
    pub fn drive_put(&mut self) -> Drive<'_> {
        let mut next = 0usize;
        Box::new(move |iters| {
            for _ in 0..iters {
                next = (next + 61) % self.keys;
                self.store
                    .put(format!("n/f/{next}").as_bytes(), &self.value)
                    .expect("wal append");
            }
        })
    }

    /// `KvStore::get` of existing keys.
    pub fn drive_get(&mut self) -> Drive<'_> {
        let names: Vec<Vec<u8>> = (0..self.keys)
            .map(|i| format!("n/f/{i}").into_bytes())
            .collect();
        let mut next = 0usize;
        Box::new(move |iters| {
            for _ in 0..iters {
                next = (next + 61) % names.len();
                std::hint::black_box(self.store.get(&names[next]).expect("present key"));
            }
        })
    }

    /// WAL bytes written per `put`, over `puts` puts — few enough that
    /// no memtable flush truncates the log in between.
    ///
    /// # Errors
    ///
    /// Describes the failure.
    pub fn wal_bytes_per_put(&mut self, puts: usize) -> Result<f64, String> {
        let wal = self.dir.join("wal.log");
        let before = std::fs::metadata(&wal).map_err(text)?.len();
        for i in 0..puts {
            self.store
                .put(format!("n/f/{}", i % self.keys).as_bytes(), &self.value)
                .map_err(text)?;
        }
        let after = std::fs::metadata(&wal).map_err(text)?.len();
        if after <= before {
            return Err("the WAL was truncated during the measurement".into());
        }
        Ok((after - before) as f64 / puts as f64)
    }
}

/// `kvstore::crc::crc32` over `block`.
#[must_use]
pub fn drive_crc32(block: &[u8]) -> Drive<'_> {
    Box::new(move |iters| {
        for _ in 0..iters {
            std::hint::black_box(mayflower_kvstore::crc::crc32(std::hint::black_box(block)));
        }
    })
}

/// A Flowserver on the paper tree tracking `tracked` flows between
/// seeded host pairs.
pub struct FlowserverRig {
    fs: Flowserver,
    next: u32,
}

struct FixedCounters;

impl CounterSource for FixedCounters {
    fn port_bits(&self, link: LinkId) -> f64 {
        f64::from(link.0) * 1e6
    }
    fn flow_bits(&self, cookie: FlowCookie) -> Option<f64> {
        Some(cookie.0 as f64 * 1e6)
    }
}

impl FlowserverRig {
    /// Installs `tracked` 256 MB flows.
    #[must_use]
    pub fn new(tracked: usize) -> FlowserverRig {
        let mut rig = FlowserverRig {
            fs: Flowserver::new(paper_topology(), FlowserverConfig::default()),
            next: 0,
        };
        while rig.fs.tracked_flows() < tracked {
            let (client, replicas) = rig.next_request();
            rig.fs
                .select_replica_path(client, &replicas, 256.0 * 8e6, SimTime::ZERO);
        }
        rig
    }

    /// A deterministic request whose replicas are never on the
    /// client's host, so every selection installs a flow.
    fn next_request(&mut self) -> (HostId, [HostId; 3]) {
        self.next = self.next.wrapping_add(1);
        let c = self.next.wrapping_mul(2_654_435_761) % PAPER_HOSTS;
        let r =
            |k: u32| HostId((c + 1 + (self.next.wrapping_mul(40_503) + 17 * k) % 63) % PAPER_HOSTS);
        (HostId(c), [r(0), r(1), r(2)])
    }

    /// `select_replica_path` at a steady tracked-flow count: the flow
    /// each selection installs is retired before the next one.
    pub fn drive_select(&mut self) -> Drive<'_> {
        Box::new(move |iters| {
            for _ in 0..iters {
                let (client, replicas) = self.next_request();
                let sel = self
                    .fs
                    .select_replica_path(client, &replicas, 8.0 * 8e6, SimTime::ZERO);
                for a in sel.assignments() {
                    self.fs.flow_completed(a.cookie);
                }
            }
        })
    }

    /// `poll_stats` over the tracked flows, at advancing times.
    pub fn drive_poll(&mut self) -> Drive<'_> {
        let mut now = 0.0;
        Box::new(move |iters| {
            for _ in 0..iters {
                now += 1.0;
                std::hint::black_box(self.fs.poll_stats(&FixedCounters, SimTime::from_secs(now)));
            }
        })
    }
}

struct Echo;

impl Service for Echo {
    fn call(&self, _method: &str, body: &[u8]) -> Result<Vec<u8>, RpcError> {
        Ok(body.to_vec())
    }
}

fn sample_request() -> Request {
    Request {
        id: 7,
        method: "nameserver.lookup".into(),
        body: b"\"n/0123\"".to_vec(),
        trace: None,
    }
}

/// `Request::encode` of a lookup-sized envelope.
#[must_use]
pub fn drive_rpc_encode() -> Drive<'static> {
    let request = sample_request();
    Box::new(move |iters| {
        for _ in 0..iters {
            std::hint::black_box(std::hint::black_box(&request).encode());
        }
    })
}

/// `Request::decode` of the same envelope.
#[must_use]
pub fn drive_rpc_decode() -> Drive<'static> {
    let bytes = sample_request().encode();
    Box::new(move |iters| {
        for _ in 0..iters {
            std::hint::black_box(Request::decode(std::hint::black_box(&bytes)).expect("valid"));
        }
    })
}

/// `write_frame` into memory then `read_frame` back.
#[must_use]
pub fn drive_rpc_frame_io() -> Drive<'static> {
    let bytes = sample_request().encode();
    let mut buf = Vec::with_capacity(bytes.len() + 4);
    Box::new(move |iters| {
        for _ in 0..iters {
            buf.clear();
            write_frame(&mut buf, &bytes).expect("in-memory write");
            std::hint::black_box(read_frame(std::io::Cursor::new(&buf)).expect("in-memory read"));
        }
    })
}

/// A typed call to an echo service over `InProcTransport`.
#[must_use]
pub fn drive_rpc_inproc() -> Drive<'static> {
    let client = RpcClient::new(InProcTransport::new(Arc::new(Echo)));
    let arg = "n/0123".to_string();
    Box::new(move |iters| {
        for _ in 0..iters {
            let reply: String = client.call("echo", &arg).expect("echo");
            std::hint::black_box(reply);
        }
    })
}

/// An echo service on a loopback TCP server and one connection to it:
/// the floor under every `ctl_*` number.
pub struct EchoRig {
    client: RpcClient<TcpTransport>,
    server: TcpServer,
}

impl EchoRig {
    /// Binds `127.0.0.1:0` and connects.
    ///
    /// # Errors
    ///
    /// Describes the failure.
    pub fn start() -> Result<EchoRig, String> {
        let server = TcpServer::bind("127.0.0.1:0", Arc::new(Echo)).map_err(text)?;
        let client = RpcClient::new(TcpTransport::connect(server.local_addr()).map_err(text)?);
        Ok(EchoRig { client, server })
    }

    /// One typed echo call per iteration.
    pub fn drive(&self) -> Drive<'_> {
        let arg = "n/0123".to_string();
        Box::new(move |iters| {
            for _ in 0..iters {
                let reply: String = self.client.call("echo", &arg).expect("echo");
                std::hint::black_box(reply);
            }
        })
    }

    /// Closes the connection, then stops the server.
    pub fn shutdown(self) {
        let EchoRig { client, mut server } = self;
        drop(client);
        server.shutdown();
    }
}

/// One dataserver under `dir` holding one replicated file of
/// `chunk_size`-byte chunks, plus sealed-chunk fragments.
pub struct DataserverRig {
    ds: Dataserver,
    meta: FileMeta,
    next_id: u128,
}

impl DataserverRig {
    /// Opens the dataserver and writes `file_bytes` bytes of `fill`
    /// into a file of `chunk_size` chunks.
    ///
    /// # Errors
    ///
    /// Describes the failure.
    pub fn open(
        dir: &Path,
        chunk_size: u64,
        file_bytes: u64,
        fill: &[u8],
    ) -> Result<DataserverRig, String> {
        let ds = Dataserver::open(HostId(0), dir).map_err(text)?;
        let mut rig = DataserverRig {
            ds,
            meta: FileMeta {
                id: FileId(0),
                name: String::new(),
                chunk_size,
                size: 0,
                replicas: vec![HostId(0)],
                redundancy: Redundancy::Replicated { n: 1 },
                fragments: Vec::new(),
                sealed_chunks: 0,
            },
            next_id: 0,
        };
        rig.meta = rig.fresh_file("drive/read")?;
        let mut written = 0;
        while written < file_bytes {
            let take = (file_bytes - written).min(fill.len() as u64) as usize;
            rig.ds
                .append_local(rig.meta.id, &fill[..take])
                .map_err(text)?;
            written += take as u64;
        }
        rig.meta.size = file_bytes;
        Ok(rig)
    }

    fn fresh_file(&mut self, name: &str) -> Result<FileMeta, String> {
        self.next_id += 1;
        let meta = FileMeta {
            id: FileId(self.next_id),
            name: name.to_string(),
            ..self.meta.clone()
        };
        self.ds.create_file(&meta).map_err(text)?;
        Ok(meta)
    }

    /// `read_local_into` of `len` bytes at offsets walking the file.
    pub fn drive_read(&self, len: usize) -> Drive<'_> {
        let mut buf = vec![0u8; len];
        let slots = self.meta.size / len as u64;
        let mut next = 0u64;
        Box::new(move |iters| {
            for _ in 0..iters {
                next = (next + 5) % slots;
                let (filled, _) = self
                    .ds
                    .read_local_into(self.meta.id, next * len as u64, &mut buf)
                    .expect("read inside the file");
                assert_eq!(filled, len, "short direct read");
            }
        })
    }

    /// `append_local` of `data` to a scratch file recreated whenever
    /// it reaches `cap` bytes, so live data stays bounded.
    ///
    /// # Errors
    ///
    /// Describes the failure.
    pub fn drive_append<'a>(&'a mut self, data: &'a [u8], cap: u64) -> Result<Drive<'a>, String> {
        let mut target = self.fresh_file("drive/append")?;
        let mut size = 0u64;
        Ok(Box::new(move |iters| {
            for _ in 0..iters {
                if size + data.len() as u64 > cap {
                    self.ds.delete_file(target.id).expect("scratch file");
                    target = self.fresh_file("drive/append").expect("scratch file");
                    size = 0;
                }
                size = self.ds.append_local(target.id, data).expect("append");
            }
        }))
    }

    /// `read_fragment` over `count` fragments of `shard` stored first
    /// with `put_fragment` (framing and CRC32 on both sides).
    ///
    /// # Errors
    ///
    /// Describes the failure.
    pub fn drive_fragment_read(&self, shard: &[u8], count: u64) -> Result<Drive<'_>, String> {
        for chunk in 0..count {
            self.ds
                .put_fragment(self.meta.id, chunk, 0, shard.len() as u64 * 4, shard)
                .map_err(text)?;
        }
        let mut next = 0u64;
        Ok(Box::new(move |iters| {
            for _ in 0..iters {
                next = (next + 3) % count;
                std::hint::black_box(
                    self.ds
                        .read_fragment(self.meta.id, next, 0)
                        .expect("stored fragment"),
                );
            }
        }))
    }

    /// `read_meta`: the per-request metadata file parse.
    pub fn drive_read_meta(&self) -> Drive<'_> {
        Box::new(move |iters| {
            for _ in 0..iters {
                std::hint::black_box(self.ds.read_meta(self.meta.id).expect("meta file"));
            }
        })
    }
}

/// `Codec::encode_payload` of `chunk` under `k + m`.
#[must_use]
pub fn drive_ec_encode(k: usize, m: usize, chunk: &[u8]) -> Drive<'_> {
    let codec = Codec::new(k, m);
    Box::new(move |iters| {
        for _ in 0..iters {
            std::hint::black_box(codec.encode_payload(std::hint::black_box(chunk)));
        }
    })
}

/// `Codec::decode_payload` of `chunk` with data shard 0 missing.
#[must_use]
pub fn drive_ec_decode_degraded(k: usize, m: usize, chunk: &[u8]) -> Drive<'_> {
    let codec = Codec::new(k, m);
    let shards = codec.encode_payload(chunk);
    Box::new(move |iters| {
        for _ in 0..iters {
            let mut have: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            have[0] = None;
            let out = codec
                .decode_payload(&mut have, chunk.len())
                .expect("k shards present");
            assert_eq!(out.len(), chunk.len());
            std::hint::black_box(out);
        }
    })
}

/// One `schedule` + one `pop` on an `EventQueue` holding `depth`
/// events.
#[must_use]
pub fn drive_queue_op(depth: usize) -> Drive<'static> {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut t = 0.0f64;
    for i in 0..depth {
        t += 0.37;
        queue.schedule(SimTime::from_secs(t + (i % 7) as f64), i as u64);
    }
    Box::new(move |iters| {
        for i in 0..iters {
            t += 0.37;
            queue.schedule(SimTime::from_secs(t + (i % 7) as f64), i);
            std::hint::black_box(queue.pop());
        }
    })
}

#[cfg(test)]
mod tests {
    //! The decorators must be invisible: same value out, errors
    //! included, whether or not spans are being recorded.

    use super::*;

    struct FakeMeta;

    fn meta_named(name: &str) -> FileMeta {
        FileMeta {
            id: FileId(9),
            name: name.to_string(),
            chunk_size: 4,
            size: 3,
            replicas: vec![HostId(1), HostId(2)],
            redundancy: Redundancy::Replicated { n: 2 },
            fragments: Vec::new(),
            sealed_chunks: 0,
        }
    }

    impl MetadataService for FakeMeta {
        fn create_with(&self, name: &str, _r: Redundancy) -> Result<FileMeta, FsError> {
            if name == "dup" {
                Err(FsError::AlreadyExists(name.into()))
            } else {
                Ok(meta_named(name))
            }
        }
        fn lookup(&self, name: &str) -> Result<FileMeta, FsError> {
            if name == "missing" {
                Err(FsError::NotFound(name.into()))
            } else {
                Ok(meta_named(name))
            }
        }
        fn record_size(&self, name: &str, _size: u64) -> Result<(), FsError> {
            if name == "missing" {
                Err(FsError::NotFound(name.into()))
            } else {
                Ok(())
            }
        }
        fn record_seal(&self, _name: &str, sealed: u64) -> Result<(), FsError> {
            if sealed == 0 {
                Err(FsError::InvalidArgument("regressing".into()))
            } else {
                Ok(())
            }
        }
        fn rename(&self, old: &str, new: &str, _o: bool) -> Result<Option<FileMeta>, FsError> {
            match old {
                "missing" => Err(FsError::NotFound(old.into())),
                "over" => Ok(Some(meta_named(new))),
                _ => Ok(None),
            }
        }
        fn delete(&self, name: &str) -> Result<FileMeta, FsError> {
            if name == "missing" {
                Err(FsError::NotFound(name.into()))
            } else {
                Ok(meta_named(name))
            }
        }
    }

    fn same<T: std::fmt::Debug, E: std::fmt::Display>(a: Result<T, E>, b: Result<T, E>) {
        match (a, b) {
            (Ok(a), Ok(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!(
                "decorator changed the outcome: {:?} vs {:?}",
                a.map_err(|e| e.to_string()),
                b.map_err(|e| e.to_string())
            ),
        }
    }

    fn recorders() -> [Arc<Recorder>; 2] {
        let on = Arc::new(Recorder::new());
        on.set_enabled(true);
        [Arc::new(Recorder::new()), on]
    }

    #[test]
    fn traced_meta_is_transparent() {
        for rec in recorders() {
            let op = rec.begin_op("test");
            let t = TracedMeta {
                inner: Arc::new(FakeMeta),
                rec: rec.clone(),
            };
            let r = Redundancy::Replicated { n: 2 };
            for name in ["ok", "dup", "missing"] {
                same(t.create_with(name, r), FakeMeta.create_with(name, r));
                same(t.lookup(name), FakeMeta.lookup(name));
                same(t.record_size(name, 1), FakeMeta.record_size(name, 1));
                same(t.delete(name), FakeMeta.delete(name));
            }
            for sealed in [0, 1] {
                same(
                    t.record_seal("ok", sealed),
                    FakeMeta.record_seal("ok", sealed),
                );
            }
            for old in ["ok", "over", "missing"] {
                same(
                    t.rename(old, "new", true),
                    FakeMeta.rename(old, "new", true),
                );
            }
            rec.end(op);
            crate::spans::validate(&rec.spans()).unwrap();
        }
    }

    struct FakeSelector;

    impl ReplicaSelector for FakeSelector {
        fn select_read(
            &mut self,
            _c: HostId,
            replicas: &[HostId],
            size: u64,
        ) -> Vec<ReadAssignment> {
            replicas
                .iter()
                .map(|r| ReadAssignment {
                    replica: *r,
                    bytes: size / replicas.len() as u64,
                })
                .collect()
        }
    }

    #[test]
    fn traced_selector_is_transparent() {
        for rec in recorders() {
            let op = rec.begin_op("test");
            let mut t = TracedSelector {
                inner: Box::new(FakeSelector),
                rec: rec.clone(),
            };
            let replicas = [HostId(3), HostId(4)];
            assert_eq!(
                t.select_read(HostId(0), &replicas, 10),
                FakeSelector.select_read(HostId(0), &replicas, 10)
            );
            assert_eq!(t.select_read(HostId(0), &[], 10), Vec::new());
            let available = [(0, HostId(1)), (2, HostId(5)), (3, HostId(6))];
            assert_eq!(
                t.select_fragments(HostId(0), &available, 2),
                FakeSelector.select_fragments(HostId(0), &available, 2)
            );
            rec.end(op);
            crate::spans::validate(&rec.spans()).unwrap();
        }
    }

    struct FakeService;

    impl Service for FakeService {
        fn call(&self, method: &str, body: &[u8]) -> Result<Vec<u8>, RpcError> {
            match method {
                "echo" => Ok(body.to_vec()),
                "fail" => Err(RpcError::Remote("deliberate".into())),
                other => Err(RpcError::UnknownMethod(other.into())),
            }
        }
    }

    struct FakeTransport;

    impl Transport for FakeTransport {
        fn round_trip(&self, request: Request) -> Result<Response, RpcError> {
            match request.method.as_str() {
                "down" => Err(RpcError::Transport(std::io::Error::other("reset"))),
                "fail" => Ok(Response {
                    id: request.id,
                    result: Err("deliberate".into()),
                }),
                _ => Ok(Response {
                    id: request.id,
                    result: Ok(request.body),
                }),
            }
        }
    }

    #[test]
    fn traced_service_and_transport_are_transparent() {
        for rec in recorders() {
            let op = rec.begin_op("test");
            let svc = TracedService {
                inner: Arc::new(FakeService),
                rec: rec.clone(),
            };
            let wire = Arc::new(WireCount::default());
            let tr = TracedTransport {
                inner: FakeTransport,
                rec: rec.clone(),
                wire: wire.clone(),
            };
            for method in ["echo", "fail", "nope", "down"] {
                same(svc.call(method, b"xy"), FakeService.call(method, b"xy"));
                let request = || Request {
                    id: 5,
                    method: method.into(),
                    body: vec![1, 2, 3],
                    trace: None,
                };
                same(
                    tr.round_trip(request()),
                    FakeTransport.round_trip(request()),
                );
            }
            rec.end(op);
            let spans = rec.spans();
            crate::spans::validate(&spans).unwrap();
            // Bytes are counted only while recording, and only for
            // round trips that produced a response.
            let counted = wire.calls.load(Ordering::Relaxed);
            assert_eq!(counted, if spans.is_empty() { 0 } else { 3 });
        }
    }

    #[test]
    fn flowserver_rig_requests_never_put_a_replica_on_the_client() {
        let mut rig = FlowserverRig::new(64);
        assert_eq!(rig.fs.tracked_flows(), 64);
        for _ in 0..1000 {
            let (client, replicas) = rig.next_request();
            assert!(!replicas.contains(&client));
            assert!(replicas.iter().all(|r| r.0 < PAPER_HOSTS));
        }
        rig.drive_select()(50);
        assert_eq!(rig.fs.tracked_flows(), 64);
    }
}
