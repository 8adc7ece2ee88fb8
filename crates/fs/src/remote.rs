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
//! (DESIGN.md §18).

use std::sync::Arc;

use mayflower_rpc::{Client as RpcClient, RpcError, Service, Transport};

use crate::error::FsError;
use crate::nameserver::Nameserver;
use crate::types::FileMeta;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nameserver::NameserverConfig;
    use mayflower_net::{Topology, TreeParams};
    use mayflower_rpc::{InProcTransport, TcpServer, TcpTransport};
    use mayflower_simcore::testutil::TempDir;

    fn nameserver(dir: &TempDir) -> Arc<Nameserver> {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        Arc::new(Nameserver::open(topo, dir.path(), NameserverConfig::default()).unwrap())
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
