//! The nameserver exposed over the RPC layer — the paper's Thrift
//! control interface (§5), usable over TCP for multi-process
//! deployments.
//!
//! Methods:
//!
//! | method              | argument        | result     |
//! |---------------------|-----------------|------------|
//! | `nameserver.create` | file name       | `FileMeta` |
//! | `nameserver.lookup` | file name       | `FileMeta` |
//! | `nameserver.delete` | file name       | `FileMeta` |
//! | `nameserver.size`   | `(name, size)`  | `()`       |
//! | `nameserver.list`   | `()`            | `Vec<FileMeta>` |
//!
//! Arguments and results are serde JSON in the rpc envelope's body
//! (DESIGN.md §18); the one exception is the `dataserver.repair_read`
//! reply below, whose payload is file bytes.

use std::sync::Arc;

use mayflower_rpc::{Client as RpcClient, RpcError, Service, Transport};

use crate::dataserver::{Dataserver, RepairSource};
use crate::error::FsError;
use crate::nameserver::Nameserver;
use crate::types::{FileId, FileMeta};

/// Server-side adapter: dispatches RPC methods onto a [`Nameserver`].
pub struct NameserverService {
    inner: Arc<Nameserver>,
}

impl NameserverService {
    /// Wraps a nameserver.
    #[must_use]
    pub fn new(inner: Arc<Nameserver>) -> NameserverService {
        NameserverService { inner }
    }
}

fn to_remote(e: &FsError) -> RpcError {
    RpcError::Remote(e.to_string())
}

impl Service for NameserverService {
    fn call(&self, method: &str, body: &[u8]) -> Result<Vec<u8>, RpcError> {
        match method {
            "nameserver.create" => {
                let name: String = serde_json::from_slice(body)?;
                let meta = self.inner.create(&name).map_err(|e| to_remote(&e))?;
                Ok(serde_json::to_vec(&meta)?)
            }
            "nameserver.lookup" => {
                let name: String = serde_json::from_slice(body)?;
                let meta = self.inner.lookup(&name).map_err(|e| to_remote(&e))?;
                Ok(serde_json::to_vec(&meta)?)
            }
            "nameserver.delete" => {
                let name: String = serde_json::from_slice(body)?;
                let meta = self.inner.delete(&name).map_err(|e| to_remote(&e))?;
                Ok(serde_json::to_vec(&meta)?)
            }
            "nameserver.size" => {
                let (name, size): (String, u64) = serde_json::from_slice(body)?;
                self.inner
                    .record_size(&name, size)
                    .map_err(|e| to_remote(&e))?;
                Ok(serde_json::to_vec(&())?)
            }
            "nameserver.list" => Ok(serde_json::to_vec(&self.inner.list())?),
            other => Err(RpcError::UnknownMethod(other.to_string())),
        }
    }
}

/// Client-side typed stub for a remote nameserver.
pub struct RemoteNameserver<T> {
    rpc: RpcClient<T>,
}

impl<T: Transport> RemoteNameserver<T> {
    /// Wraps a transport (in-process or TCP).
    #[must_use]
    pub fn new(transport: T) -> RemoteNameserver<T> {
        RemoteNameserver {
            rpc: RpcClient::new(transport),
        }
    }

    /// Creates a file remotely.
    ///
    /// # Errors
    ///
    /// Returns RPC failures or remote filesystem errors.
    pub fn create(&self, name: &str) -> Result<FileMeta, FsError> {
        Ok(self.rpc.call("nameserver.create", &name.to_string())?)
    }

    /// Looks a file up remotely.
    ///
    /// # Errors
    ///
    /// Returns RPC failures or remote filesystem errors.
    pub fn lookup(&self, name: &str) -> Result<FileMeta, FsError> {
        Ok(self.rpc.call("nameserver.lookup", &name.to_string())?)
    }

    /// Deletes a file remotely.
    ///
    /// # Errors
    ///
    /// Returns RPC failures or remote filesystem errors.
    pub fn delete(&self, name: &str) -> Result<FileMeta, FsError> {
        Ok(self.rpc.call("nameserver.delete", &name.to_string())?)
    }

    /// Records a file's new size remotely.
    ///
    /// # Errors
    ///
    /// Returns RPC failures or remote filesystem errors.
    pub fn record_size(&self, name: &str, size: u64) -> Result<(), FsError> {
        Ok(self
            .rpc
            .call("nameserver.size", &(name.to_string(), size))?)
    }

    /// Lists all files remotely.
    ///
    /// # Errors
    ///
    /// Returns RPC failures.
    pub fn list(&self) -> Result<Vec<FileMeta>, FsError> {
        Ok(self.rpc.call("nameserver.list", &())?)
    }
}

/// Server-side adapter for the dataserver-to-dataserver **repair**
/// RPC: exposes the chunk-read half of a repair pull
/// ([`crate::dataserver::RepairSource`]) so a remote dataserver can
/// re-replicate from this one.
///
/// Methods:
///
/// | method                   | argument                   | result                         |
/// |--------------------------|----------------------------|--------------------------------|
/// | `dataserver.repair_read` | `(id, offset, len)` (JSON) | `size` u64 LE ‖ the bytes, raw |
///
/// The reply is the one rpc body that is not JSON: chunk bytes go on
/// the wire as they are, behind the replica's total size in a fixed
/// 8-byte field, so a repair pull of `n` bytes is a reply of `n + 8`.
pub struct DataserverRepairService {
    inner: Arc<Dataserver>,
}

impl DataserverRepairService {
    /// Wraps a dataserver.
    #[must_use]
    pub fn new(inner: Arc<Dataserver>) -> DataserverRepairService {
        DataserverRepairService { inner }
    }
}

impl Service for DataserverRepairService {
    fn call(&self, method: &str, body: &[u8]) -> Result<Vec<u8>, RpcError> {
        match method {
            "dataserver.repair_read" => {
                let (id, offset, len): (FileId, u64, u64) = serde_json::from_slice(body)?;
                let (data, size) = RepairSource::repair_read(&*self.inner, id, offset, len)
                    .map_err(|e| to_remote(&e))?;
                let mut reply = Vec::with_capacity(8 + data.len());
                reply.extend_from_slice(&size.to_le_bytes());
                reply.extend_from_slice(&data);
                Ok(reply)
            }
            other => Err(RpcError::UnknownMethod(other.to_string())),
        }
    }
}

/// Client-side typed stub for a remote repair source: lets a
/// dataserver [`pull_repair`](Dataserver::pull_repair) from a peer in
/// another process over the RPC layer.
pub struct RemoteRepairSource<T> {
    rpc: RpcClient<T>,
}

impl<T: Transport> RemoteRepairSource<T> {
    /// Wraps a transport (in-process or TCP).
    #[must_use]
    pub fn new(transport: T) -> RemoteRepairSource<T> {
        RemoteRepairSource {
            rpc: RpcClient::new(transport),
        }
    }
}

impl<T: Transport> RepairSource for RemoteRepairSource<T> {
    fn repair_read(&self, id: FileId, offset: u64, len: u64) -> Result<(Vec<u8>, u64), FsError> {
        let arg = serde_json::to_vec(&(id, offset, len)).map_err(RpcError::Codec)?;
        let mut reply = self.rpc.call_raw("dataserver.repair_read", arg)?;
        let Some(size) = reply.first_chunk::<8>() else {
            return Err(RpcError::Transport(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "repair_read reply is shorter than its size field",
            ))
            .into());
        };
        let size = u64::from_le_bytes(*size);
        // The bytes move down in place; no second megabyte is allocated.
        reply.drain(..8);
        Ok((reply, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nameserver::NameserverConfig;
    use mayflower_net::{Topology, TreeParams};
    use mayflower_rpc::{InProcTransport, TcpServer, TcpTransport};
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "mayflower-remote-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn nameserver(dir: &TempDir) -> Arc<Nameserver> {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        Arc::new(Nameserver::open(topo, &dir.0, NameserverConfig::default()).unwrap())
    }

    #[test]
    fn inproc_full_lifecycle() {
        let dir = TempDir::new("inproc");
        let ns = nameserver(&dir);
        let service = Arc::new(NameserverService::new(ns));
        let remote = RemoteNameserver::new(InProcTransport::new(service));
        let meta = remote.create("remote/file").unwrap();
        assert_eq!(remote.lookup("remote/file").unwrap(), meta);
        remote.record_size("remote/file", 99).unwrap();
        assert_eq!(remote.lookup("remote/file").unwrap().size, 99);
        assert_eq!(remote.list().unwrap().len(), 1);
        remote.delete("remote/file").unwrap();
        assert!(remote.lookup("remote/file").is_err());
    }

    #[test]
    fn remote_errors_carry_messages() {
        let dir = TempDir::new("errors");
        let ns = nameserver(&dir);
        let service = Arc::new(NameserverService::new(ns));
        let remote = RemoteNameserver::new(InProcTransport::new(service));
        let err = remote.lookup("missing").unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn repair_pull_over_inproc_rpc() {
        use mayflower_net::HostId;

        let dir = TempDir::new("repair-rpc");
        let src = Arc::new(Dataserver::open(HostId(0), &dir.0.join("src")).unwrap());
        let dst = Dataserver::open(HostId(1), &dir.0.join("dst")).unwrap();
        let mut meta = FileMeta {
            id: FileId(0xA11CE),
            name: "repair/rpc".into(),
            chunk_size: 8,
            size: 0,
            replicas: vec![HostId(0)],
            redundancy: crate::types::Redundancy::default(),
            fragments: Vec::new(),
            sealed_chunks: 0,
        };
        src.create_file(&meta).unwrap();
        meta.size = src.append_local(meta.id, b"pulled over the wire").unwrap();

        let service = Arc::new(DataserverRepairService::new(src.clone()));
        let remote = RemoteRepairSource::new(InProcTransport::new(service));
        let copied = dst.pull_repair(&remote, &meta).unwrap();
        assert_eq!(copied, meta.size);
        let (data, _) = dst.read_local(meta.id, 0, meta.size).unwrap();
        assert_eq!(data, b"pulled over the wire");
    }

    #[test]
    fn repair_pull_over_real_tcp() {
        use mayflower_net::HostId;

        let dir = TempDir::new("repair-tcp");
        let src = Arc::new(Dataserver::open(HostId(0), &dir.0.join("src")).unwrap());
        let dst = Dataserver::open(HostId(1), &dir.0.join("dst")).unwrap();
        let mut meta = FileMeta {
            id: FileId(0xB0B),
            name: "repair/tcp".into(),
            chunk_size: 4,
            size: 0,
            replicas: vec![HostId(0)],
            redundancy: crate::types::Redundancy::default(),
            fragments: Vec::new(),
            sealed_chunks: 0,
        };
        src.create_file(&meta).unwrap();
        meta.size = src.append_local(meta.id, b"tcp repair body").unwrap();

        let service = Arc::new(DataserverRepairService::new(src.clone()));
        let mut server = TcpServer::bind("127.0.0.1:0", service).unwrap();
        let remote = RemoteRepairSource::new(TcpTransport::connect(server.local_addr()).unwrap());
        assert_eq!(dst.pull_repair(&remote, &meta).unwrap(), meta.size);
        // A crashed source surfaces as a retryable remote error.
        src.crash();
        let other = FileMeta {
            id: FileId(0xB0C),
            ..meta.clone()
        };
        assert!(dst.pull_repair(&remote, &other).is_err());
        server.shutdown();
    }

    /// Counts the framed bytes of every reply envelope.
    struct ReplyBytes<T> {
        inner: T,
        bytes: std::sync::atomic::AtomicUsize,
    }
    impl<T: Transport> Transport for &ReplyBytes<T> {
        fn round_trip(
            &self,
            request: mayflower_rpc::Request,
        ) -> Result<mayflower_rpc::Response, RpcError> {
            let response = self.inner.round_trip(request)?;
            self.bytes.fetch_add(
                4 + response.encode().len(),
                std::sync::atomic::Ordering::Relaxed,
            );
            Ok(response)
        }
    }

    #[test]
    fn repair_read_reply_costs_its_bytes_and_a_header() {
        use mayflower_net::HostId;
        const MIB: usize = 1 << 20;

        let dir = TempDir::new("repair-wire");
        let src = Arc::new(Dataserver::open(HostId(0), &dir.0).unwrap());
        let meta = FileMeta {
            id: FileId(0xC0DE),
            name: "repair/wire".into(),
            chunk_size: MIB as u64,
            size: 0,
            replicas: vec![HostId(0)],
            redundancy: crate::types::Redundancy::default(),
            fragments: Vec::new(),
            sealed_chunks: 0,
        };
        src.create_file(&meta).unwrap();
        // Every byte value, so an encoding that spends more than one
        // byte on some of them cannot hide.
        let payload: Vec<u8> = (0..MIB).map(|i| (i % 251) as u8).collect();
        src.append_local(meta.id, &payload).unwrap();

        let wire = ReplyBytes {
            inner: InProcTransport::new(Arc::new(DataserverRepairService::new(src))),
            bytes: std::sync::atomic::AtomicUsize::new(0),
        };
        let remote = RemoteRepairSource::new(&wire);
        let (data, size) = remote.repair_read(meta.id, 0, MIB as u64).unwrap();
        assert_eq!(size, MIB as u64);
        assert!(data == payload, "repair_read returned different bytes");
        let frame = wire.bytes.load(std::sync::atomic::Ordering::Relaxed);
        assert!(frame <= MIB + 64, "1 MiB reply took a {frame}-byte frame");
    }

    #[test]
    fn repair_read_short_reply_is_an_error() {
        struct Short;
        impl Service for Short {
            fn call(&self, _method: &str, _body: &[u8]) -> Result<Vec<u8>, RpcError> {
                Ok(vec![1, 2, 3])
            }
        }
        let remote = RemoteRepairSource::new(InProcTransport::new(Arc::new(Short)));
        assert!(matches!(
            remote.repair_read(FileId(1), 0, 8),
            Err(FsError::Rpc(RpcError::Transport(_)))
        ));
    }

    #[test]
    fn over_real_tcp() {
        let dir = TempDir::new("tcp");
        let ns = nameserver(&dir);
        let service = Arc::new(NameserverService::new(ns));
        let mut server = TcpServer::bind("127.0.0.1:0", service).unwrap();
        let remote = RemoteNameserver::new(TcpTransport::connect(server.local_addr()).unwrap());
        let meta = remote.create("tcp/file").unwrap();
        assert_eq!(meta.replicas.len(), 3);
        assert_eq!(remote.lookup("tcp/file").unwrap(), meta);
        server.shutdown();
    }
}
