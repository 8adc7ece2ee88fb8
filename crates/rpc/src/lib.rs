#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! A small typed request/response RPC layer — the reproduction's
//! substitute for the Apache Thrift framework the paper uses for
//! "control messages between the servers and the clients" (§5).
//!
//! Control messages in Mayflower are small (replica lookups, path
//! selections, append coordination); what matters for the evaluation
//! is the *message sequence*, not Thrift's exact binary protocol. This
//! crate keeps the same architecture:
//!
//! * [`codec`] — length-prefixed framing over any `Read`/`Write` pair.
//! * [`message`] — request/response envelopes: a fixed binary header
//!   (version, correlation id, method, trace context / result tag) in
//!   front of an opaque body that is copied, never parsed.
//! * [`transport`] — a [`Service`] trait for servers, a blocking
//!   [`Client`] whose typed `call` puts serde JSON in the body, an
//!   in-process transport (envelope encode and decode, no frame and no
//!   socket; used by the simulations), and a real TCP transport with a
//!   threaded server for deployments and integration tests.
//!
//! The wire format is specified byte by byte in DESIGN.md §18.
//!
//! # Example
//!
//! ```
//! use mayflower_rpc::{Client, InProcTransport, RpcError, Service};
//! use std::sync::Arc;
//!
//! struct Echo;
//! impl Service for Echo {
//!     fn call(&self, method: &str, body: &[u8]) -> Result<Vec<u8>, RpcError> {
//!         match method {
//!             "echo" => Ok(body.to_vec()),
//!             other => Err(RpcError::UnknownMethod(other.to_string())),
//!         }
//!     }
//! }
//!
//! let client = Client::new(InProcTransport::new(Arc::new(Echo)));
//! let reply: String = client.call("echo", &"hi".to_string())?;
//! assert_eq!(reply, "hi");
//! # Ok::<(), RpcError>(())
//! ```

pub mod codec;
pub mod message;
pub mod transport;

pub use message::{Request, Response};
pub use transport::{
    Client, InProcTransport, RpcError, Service, TcpServer, TcpTransport, Transport,
};
