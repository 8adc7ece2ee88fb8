//! The Flowserver exposed over the RPC layer.
//!
//! §5 of the paper: "The Flowserver implementation is not tied to
//! Mayflower, and can be integrated with any distributed application
//! through its RPC framework. The RPC call to the Flowserver accepts a
//! list of source/destination [addresses] and the size of the data to
//! be transferred. The RPC call returns a list of replicas and the
//! corresponding data size to be downloaded from those replicas."
//!
//! Methods:
//!
//! | method | argument | result |
//! |---|---|---|
//! | `flowserver.select` | `(client, replicas, size_bits, now_secs)` | [`Selection`] |
//! | `flowserver.select_path` | `(client, replica, size_bits, now_secs)` | [`Selection`] |
//! | `flowserver.completed` | `cookie` | `()` |
//! | `flowserver.tracked` | `()` | `usize` |

use std::sync::Arc;

use mayflower_net::HostId;
use mayflower_rpc::{Client as RpcClient, RpcError, Service, Transport};
use mayflower_sdn::FlowCookie;
use mayflower_simcore::SimTime;
use parking_lot::Mutex;

use crate::server::{Flowserver, Selection};

/// Server-side adapter: dispatches RPC methods onto a shared
/// [`Flowserver`].
pub struct FlowserverService {
    inner: Arc<Mutex<Flowserver>>,
}

impl FlowserverService {
    /// Wraps a Flowserver for concurrent RPC access.
    #[must_use]
    pub fn new(inner: Arc<Mutex<Flowserver>>) -> FlowserverService {
        FlowserverService { inner }
    }

    /// Runs `select` on the locked Flowserver, unless one of `hosts`
    /// is an id its topology does not have: ids arrive off the wire
    /// and the topology indexes by them, so an unknown one must be
    /// refused here, not panic inside selection.
    fn select_among<R>(
        &self,
        hosts: impl IntoIterator<Item = HostId>,
        select: impl FnOnce(&mut Flowserver) -> R,
    ) -> Result<R, RpcError> {
        let mut fs = self.inner.lock();
        let n = fs.topology().host_count();
        match hosts.into_iter().find(|h| h.index() >= n) {
            Some(h) => Err(RpcError::Remote(format!(
                "unknown host {}: the topology has {n} hosts",
                h.0
            ))),
            None => Ok(select(&mut fs)),
        }
    }
}

impl Service for FlowserverService {
    fn call(&self, method: &str, body: &[u8]) -> Result<Vec<u8>, RpcError> {
        match method {
            "flowserver.select" => {
                let (client, replicas, size_bits, now_secs): (u32, Vec<u32>, f64, f64) =
                    serde_json::from_slice(body)?;
                let replicas: Vec<HostId> = replicas.into_iter().map(HostId).collect();
                if replicas.is_empty() || size_bits <= 0.0 {
                    return Err(RpcError::Remote(
                        "need a non-empty replica list and a positive size".into(),
                    ));
                }
                let (client, now) = (HostId(client), SimTime::from_secs(now_secs));
                let hosts = replicas.iter().copied().chain([client]);
                let sel = self.select_among(hosts, |fs| {
                    fs.select_replica_path(client, &replicas, size_bits, now)
                })?;
                Ok(serde_json::to_vec(&sel)?)
            }
            "flowserver.select_path" => {
                let (client, replica, size_bits, now_secs): (u32, u32, f64, f64) =
                    serde_json::from_slice(body)?;
                if size_bits <= 0.0 {
                    return Err(RpcError::Remote("size must be positive".into()));
                }
                let (client, replica) = (HostId(client), HostId(replica));
                let now = SimTime::from_secs(now_secs);
                let sel = self.select_among([client, replica], |fs| {
                    fs.select_path_for_replica(client, replica, size_bits, now)
                })?;
                Ok(serde_json::to_vec(&sel)?)
            }
            "flowserver.completed" => {
                let cookie: u64 = serde_json::from_slice(body)?;
                self.inner.lock().flow_completed(FlowCookie(cookie));
                Ok(serde_json::to_vec(&())?)
            }
            "flowserver.tracked" => Ok(serde_json::to_vec(&self.inner.lock().tracked_flows())?),
            other => Err(RpcError::UnknownMethod(other.to_string())),
        }
    }
}

/// Client-side typed stub for a remote Flowserver — what a non-Mayflower
/// application links against to use the selection service.
pub struct RemoteFlowserver<T> {
    rpc: RpcClient<T>,
}

impl<T: Transport> RemoteFlowserver<T> {
    /// Wraps a transport.
    #[must_use]
    pub fn new(transport: T) -> RemoteFlowserver<T> {
        RemoteFlowserver {
            rpc: RpcClient::new(transport),
        }
    }

    /// Joint replica + path selection for a read.
    ///
    /// # Errors
    ///
    /// Returns transport failures or remote validation errors.
    pub fn select(
        &self,
        client: HostId,
        replicas: &[HostId],
        size_bits: f64,
        now: SimTime,
    ) -> Result<Selection, RpcError> {
        let replicas: Vec<u32> = replicas.iter().map(|h| h.0).collect();
        self.rpc.call(
            "flowserver.select",
            &(client.0, replicas, size_bits, now.as_secs()),
        )
    }

    /// Path-only scheduling for a pre-selected replica.
    ///
    /// # Errors
    ///
    /// Returns transport failures or remote validation errors.
    pub fn select_path(
        &self,
        client: HostId,
        replica: HostId,
        size_bits: f64,
        now: SimTime,
    ) -> Result<Selection, RpcError> {
        self.rpc.call(
            "flowserver.select_path",
            &(client.0, replica.0, size_bits, now.as_secs()),
        )
    }

    /// Reports a flow's completion.
    ///
    /// # Errors
    ///
    /// Returns transport failures.
    pub fn completed(&self, cookie: FlowCookie) -> Result<(), RpcError> {
        self.rpc.call("flowserver.completed", &cookie.0)
    }

    /// Number of flows the remote Flowserver is tracking.
    ///
    /// # Errors
    ///
    /// Returns transport failures.
    pub fn tracked(&self) -> Result<usize, RpcError> {
        self.rpc.call("flowserver.tracked", &())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::FlowserverConfig;
    use mayflower_net::{Topology, TreeParams};
    use mayflower_rpc::{InProcTransport, TcpServer, TcpTransport};

    fn service() -> Arc<FlowserverService> {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let fs = Arc::new(Mutex::new(Flowserver::new(
            topo,
            FlowserverConfig::default(),
        )));
        Arc::new(FlowserverService::new(fs))
    }

    const MB256: f64 = 256.0 * 8e6;

    #[test]
    fn select_and_complete_over_inproc() {
        let svc = service();
        let remote = RemoteFlowserver::new(InProcTransport::new(svc));
        let sel = remote
            .select(HostId(0), &[HostId(1), HostId(20)], MB256, SimTime::ZERO)
            .unwrap();
        let assignments = sel.assignments();
        assert_eq!(assignments.len(), 1);
        assert_eq!(remote.tracked().unwrap(), 1);
        remote.completed(assignments[0].cookie).unwrap();
        assert_eq!(remote.tracked().unwrap(), 0);
    }

    #[test]
    fn selection_roundtrips_paths_faithfully() {
        let svc = service();
        let remote = RemoteFlowserver::new(InProcTransport::new(svc));
        let sel = remote
            .select(HostId(0), &[HostId(20)], MB256, SimTime::ZERO)
            .unwrap();
        let topo = Topology::three_tier(&TreeParams::paper_testbed());
        let a = &sel.assignments()[0];
        assert!(a.path.validate(&topo), "path survives serialization");
        assert_eq!(a.path.dst(), HostId(0));
    }

    #[test]
    fn validation_errors_are_remote_errors() {
        let svc = service();
        let remote = RemoteFlowserver::new(InProcTransport::new(svc));
        let err = remote
            .select(HostId(0), &[], MB256, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, RpcError::Remote(_)));
    }

    /// A host id the topology does not have is refused as an error
    /// value, and the same connection then serves a valid request.
    fn unknown_hosts_are_refused_and_the_connection_survives<T: Transport>(transport: T) {
        let remote = RemoteFlowserver::new(transport);
        let (now, ghost) = (SimTime::ZERO, HostId(9999));
        let refusals = [
            remote.select(ghost, &[HostId(1)], MB256, now),
            remote.select(HostId(0), &[HostId(1), ghost], MB256, now),
            remote.select_path(ghost, HostId(1), MB256, now),
            remote.select_path(HostId(0), ghost, MB256, now),
            // One past the last host of the 64-host paper tree.
            remote.select(HostId(64), &[HostId(1)], MB256, now),
        ];
        for r in refusals {
            match r {
                Err(RpcError::Remote(msg)) => assert!(msg.contains("unknown host"), "{msg}"),
                other => panic!("expected a remote refusal, got {other:?}"),
            }
        }
        assert_eq!(remote.tracked().unwrap(), 0, "nothing was installed");
        let sel = remote.select(HostId(0), &[HostId(63)], MB256, now).unwrap();
        assert_eq!(sel.assignments().len(), 1);
        let sel = remote
            .select_path(HostId(2), HostId(1), MB256, now)
            .unwrap();
        assert_eq!(sel.assignments().len(), 1);
    }

    #[test]
    fn unknown_hosts_are_refused_over_inproc() {
        unknown_hosts_are_refused_and_the_connection_survives(InProcTransport::new(service()));
    }

    #[test]
    fn unknown_hosts_are_refused_over_loopback_tcp() {
        let server = TcpServer::bind("127.0.0.1:0", service()).unwrap();
        let transport = TcpTransport::connect(server.local_addr()).unwrap();
        unknown_hosts_are_refused_and_the_connection_survives(transport);
    }

    #[test]
    fn over_real_tcp_with_concurrent_clients() {
        let svc = service();
        let server = TcpServer::bind("127.0.0.1:0", svc).unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4u32)
            .map(|i| {
                std::thread::spawn(move || {
                    let remote = RemoteFlowserver::new(TcpTransport::connect(addr).unwrap());
                    let sel = remote
                        .select(HostId(i), &[HostId(40 + i)], MB256, SimTime::ZERO)
                        .unwrap();
                    for a in sel.assignments() {
                        remote.completed(a.cookie).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
