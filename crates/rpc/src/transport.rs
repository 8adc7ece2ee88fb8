//! Transports: in-process dispatch and a threaded TCP server/client.

use std::fmt;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::codec::{read_frame, write_frame};
use crate::message::{Request, Response};

/// Errors surfaced to RPC callers.
#[derive(Debug)]
pub enum RpcError {
    /// The transport failed (connection reset, torn frame, ...).
    Transport(std::io::Error),
    /// A payload could not be (de)serialized.
    Codec(serde_json::Error),
    /// The server does not implement the requested method.
    UnknownMethod(String),
    /// The server handled the call and returned an application error.
    Remote(String),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Transport(e) => write!(f, "transport failure: {e}"),
            RpcError::Codec(e) => write!(f, "payload codec failure: {e}"),
            RpcError::UnknownMethod(m) => write!(f, "unknown method: {m}"),
            RpcError::Remote(msg) => write!(f, "remote error: {msg}"),
        }
    }
}

impl std::error::Error for RpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RpcError::Transport(e) => Some(e),
            RpcError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RpcError {
    fn from(e: std::io::Error) -> RpcError {
        RpcError::Transport(e)
    }
}

impl From<serde_json::Error> for RpcError {
    fn from(e: serde_json::Error) -> RpcError {
        RpcError::Codec(e)
    }
}

/// A server-side handler: dispatches a method name and raw payload to
/// application logic.
pub trait Service: Send + Sync {
    /// Handles one call, returning the serialized result.
    ///
    /// # Errors
    ///
    /// Implementations return [`RpcError::UnknownMethod`] for
    /// unrecognized methods and [`RpcError::Remote`] for application
    /// failures.
    fn call(&self, method: &str, body: &[u8]) -> Result<Vec<u8>, RpcError>;
}

/// A client-side byte transport: sends a request envelope, receives the
/// matching response envelope.
pub trait Transport {
    /// Performs one round trip.
    ///
    /// # Errors
    ///
    /// Returns a transport or codec error; application errors ride in
    /// the response envelope.
    fn round_trip(&self, request: Request) -> Result<Response, RpcError>;
}

/// In-process transport: the request envelope is encoded and decoded
/// exactly as a socket transport would (so envelope bugs surface in
/// tests), but no frame is written and no socket is involved. This is
/// what the simulation binds the Mayflower components together with.
pub struct InProcTransport {
    service: Arc<dyn Service>,
}

impl InProcTransport {
    /// Wraps a service.
    #[must_use]
    pub fn new(service: Arc<dyn Service>) -> InProcTransport {
        InProcTransport { service }
    }
}

impl Transport for InProcTransport {
    fn round_trip(&self, request: Request) -> Result<Response, RpcError> {
        // Encode/decode the envelope exactly as a socket transport
        // would, to keep the code path honest.
        let request = Request::decode(&request.encode())?;
        Ok(dispatch(&*self.service, &request))
    }
}

/// Runs one decoded request against `service`, under the caller's
/// trace context, and folds the outcome into the reply envelope.
fn dispatch(service: &dyn Service, request: &Request) -> Response {
    let result = match mayflower_telemetry::trace::with_context(request.trace, || {
        service.call(&request.method, &request.body)
    }) {
        Ok(body) => Ok(body),
        Err(RpcError::UnknownMethod(m)) => Err(format!("unknown method: {m}")),
        Err(RpcError::Remote(msg)) => Err(msg),
        Err(other) => Err(other.to_string()),
    };
    Response {
        id: request.id,
        result,
    }
}

/// A typed client over any [`Transport`].
pub struct Client<T> {
    transport: T,
    next_id: AtomicU64,
}

impl<T: Transport> Client<T> {
    /// Wraps a transport.
    #[must_use]
    pub fn new(transport: T) -> Client<T> {
        Client {
            transport,
            next_id: AtomicU64::new(1),
        }
    }

    /// Calls `method` with a serializable argument, deserializing the
    /// typed reply. Both bodies are serde JSON.
    ///
    /// # Errors
    ///
    /// Returns transport/codec failures or [`RpcError::Remote`] when
    /// the server reports an application error.
    pub fn call<A: Serialize, R: DeserializeOwned>(
        &self,
        method: &str,
        arg: &A,
    ) -> Result<R, RpcError> {
        let reply = self.exchange(method, serde_json::to_vec(arg)?)?;
        Ok(serde_json::from_slice(&reply)?)
    }

    /// Calls `method` with `body` as the request body, verbatim, and
    /// returns the reply body undecoded — for the payloads that are
    /// bytes already (`dataserver.repair_read`), which serde JSON would
    /// spell out as an array of numbers.
    ///
    /// # Errors
    ///
    /// Returns transport failures or [`RpcError::Remote`] when the
    /// server reports an application error.
    pub fn call_raw(&self, method: &str, body: Vec<u8>) -> Result<Vec<u8>, RpcError> {
        self.exchange(method, body)
    }

    /// One round trip: `body` out, the matching reply's body back.
    fn exchange(&self, method: &str, body: Vec<u8>) -> Result<Vec<u8>, RpcError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let request = Request {
            id,
            method: method.to_string(),
            body,
            trace: mayflower_telemetry::trace::current_context(),
        };
        let response = self.transport.round_trip(request)?;
        check_id(id, response.id)?;
        response.result.map_err(RpcError::Remote)
    }
}

/// A reply answers the request whose id it echoes; any other reply is
/// somebody else's answer and must not reach the caller as this one's.
fn check_id(sent: u64, received: u64) -> Result<(), RpcError> {
    if received == sent {
        return Ok(());
    }
    Err(RpcError::Transport(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("reply carries id {received}, request was {sent}"),
    )))
}

/// A blocking TCP transport: one connection, sequential round trips.
///
/// A connection that has seen any failure — I/O error, torn or
/// oversized frame, undecodable envelope, reply with the wrong id — is
/// out of step with its peer: whatever bytes come next are not known
/// to start a frame. It is poisoned, and every later round trip fails
/// with a transport error without touching the socket. Reconnect to
/// recover.
pub struct TcpTransport {
    connection: Mutex<Connection>,
}

struct Connection {
    stream: TcpStream,
    poisoned: bool,
}

impl TcpTransport {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Returns the connection error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<TcpTransport, RpcError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            connection: Mutex::new(Connection {
                stream,
                poisoned: false,
            }),
        })
    }
}

impl Connection {
    fn round_trip(&mut self, request: &Request) -> Result<Response, RpcError> {
        write_frame(&mut self.stream, &request.encode())?;
        let Some(frame) = read_frame(&mut self.stream)? else {
            return Err(RpcError::Transport(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        };
        let response = Response::decode(&frame)?;
        check_id(request.id, response.id)?;
        Ok(response)
    }
}

impl Transport for TcpTransport {
    fn round_trip(&self, request: Request) -> Result<Response, RpcError> {
        let mut connection = self.connection.lock();
        if connection.poisoned {
            return Err(RpcError::Transport(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "connection is out of step with its peer after an earlier failure",
            )));
        }
        let result = connection.round_trip(&request);
        connection.poisoned = result.is_err();
        result
    }
}

/// A threaded TCP server: one thread per connection, frames dispatched
/// to a shared [`Service`].
pub struct TcpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// accepting.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: Arc<dyn Service>,
    ) -> Result<TcpServer, RpcError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown_flag = shutdown.clone();
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown_flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let service = service.clone();
                std::thread::spawn(move || serve_connection(stream, &*service));
            }
        });
        Ok(TcpServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections. In-flight connections finish
    /// on their own threads.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection(stream: TcpStream, service: &dyn Service) {
    let Ok(peer_read) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(peer_read);
    let mut writer = BufWriter::new(stream);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => return,
        };
        let Ok(request) = Request::decode(&frame) else {
            return;
        };
        let response = dispatch(service, &request);
        if write_frame(&mut writer, &response.encode()).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Arith;
    impl Service for Arith {
        fn call(&self, method: &str, body: &[u8]) -> Result<Vec<u8>, RpcError> {
            match method {
                "add" => {
                    let (a, b): (i64, i64) = serde_json::from_slice(body)?;
                    Ok(serde_json::to_vec(&(a + b))?)
                }
                "fail" => Err(RpcError::Remote("deliberate".into())),
                other => Err(RpcError::UnknownMethod(other.to_string())),
            }
        }
    }

    #[test]
    fn inproc_typed_call() {
        let client = Client::new(InProcTransport::new(Arc::new(Arith)));
        let sum: i64 = client.call("add", &(2i64, 3i64)).unwrap();
        assert_eq!(sum, 5);
    }

    #[test]
    fn inproc_remote_error() {
        let client = Client::new(InProcTransport::new(Arc::new(Arith)));
        let r: Result<i64, _> = client.call("fail", &());
        assert!(matches!(r, Err(RpcError::Remote(msg)) if msg == "deliberate"));
    }

    #[test]
    fn inproc_unknown_method() {
        let client = Client::new(InProcTransport::new(Arc::new(Arith)));
        let r: Result<i64, _> = client.call("nope", &());
        assert!(matches!(r, Err(RpcError::Remote(msg)) if msg.contains("unknown method")));
    }

    #[test]
    fn tcp_end_to_end() {
        let mut server = TcpServer::bind("127.0.0.1:0", Arc::new(Arith)).unwrap();
        let client = Client::new(TcpTransport::connect(server.local_addr()).unwrap());
        for i in 0..50i64 {
            let sum: i64 = client.call("add", &(i, 1i64)).unwrap();
            assert_eq!(sum, i + 1);
        }
        server.shutdown();
    }

    #[test]
    fn tcp_concurrent_clients() {
        let server = TcpServer::bind("127.0.0.1:0", Arc::new(Arith)).unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let client = Client::new(TcpTransport::connect(addr).unwrap());
                    for i in 0..20i64 {
                        let sum: i64 = client.call("add", &(t, i)).unwrap();
                        assert_eq!(sum, t + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn tcp_remote_error_propagates() {
        let server = TcpServer::bind("127.0.0.1:0", Arc::new(Arith)).unwrap();
        let client = Client::new(TcpTransport::connect(server.local_addr()).unwrap());
        let r: Result<i64, _> = client.call("fail", &());
        assert!(matches!(r, Err(RpcError::Remote(_))));
        // The connection survives an application error.
        let sum: i64 = client.call("add", &(1i64, 1i64)).unwrap();
        assert_eq!(sum, 2);
    }

    /// A fake server that accepts one connection, reads the incoming
    /// request frame, writes `reply` verbatim (possibly garbage), and
    /// closes the socket.
    fn misbehaving_server(reply: Vec<u8>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let _ = read_frame(&mut reader);
            use std::io::Write as _;
            let mut stream = stream;
            let _ = stream.write_all(&reply);
            let _ = stream.flush();
        });
        addr
    }

    #[test]
    fn tcp_torn_response_frame_is_transport_error() {
        // Header claims 100 bytes; only 3 arrive before close.
        let mut reply = 100u32.to_le_bytes().to_vec();
        reply.extend_from_slice(b"abc");
        let addr = misbehaving_server(reply);
        let client = Client::new(TcpTransport::connect(addr).unwrap());
        let r: Result<i64, _> = client.call("add", &(1i64, 2i64));
        let err = r.unwrap_err();
        assert!(matches!(err, RpcError::Transport(_)), "got {err:?}");
    }

    #[test]
    fn tcp_oversized_response_frame_is_transport_error() {
        let reply = ((crate::codec::MAX_FRAME_LEN as u32) + 1)
            .to_le_bytes()
            .to_vec();
        let addr = misbehaving_server(reply);
        let client = Client::new(TcpTransport::connect(addr).unwrap());
        let r: Result<i64, _> = client.call("add", &(1i64, 2i64));
        let err = r.unwrap_err();
        let RpcError::Transport(io) = err else {
            panic!("expected transport error, got {err:?}");
        };
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    }

    /// A fake server that reads request frames until the client goes
    /// away, answers the first one with `reply` verbatim and no other,
    /// and reports how many requests reached it.
    fn scripted_server(reply: Vec<u8>) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            use std::io::Write as _;
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut requests = 0;
            while let Ok(Some(_)) = read_frame(&mut reader) {
                requests += 1;
                if requests == 1 {
                    stream.write_all(&reply).unwrap();
                }
            }
            requests
        });
        (addr, handle)
    }

    fn framed(envelope: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, envelope).unwrap();
        out
    }

    fn reply_envelope(id: u64) -> Vec<u8> {
        Response {
            id,
            result: Ok(b"3".to_vec()),
        }
        .encode()
    }

    /// The id check is a real check in every build (CI runs this
    /// under `--release`), and a connection that has failed once never
    /// parses another byte.
    #[test]
    fn tcp_failed_connection_is_poisoned() {
        let torn = {
            let mut bytes = 100u32.to_le_bytes().to_vec();
            bytes.extend_from_slice(b"abc");
            bytes
        };
        let wrong_id_error = Response {
            id: 7,
            result: Err("not yours".into()),
        };
        let scripts: [(&str, Vec<u8>); 4] = [
            (
                "wrong id, then a torn frame, then garbage",
                [framed(&reply_envelope(999)), torn, b"garbage".to_vec()].concat(),
            ),
            (
                "undecodable envelope",
                framed(br#"{"id":1,"result":{"Ok":[51]}}"#),
            ),
            (
                "oversized frame header",
                ((crate::codec::MAX_FRAME_LEN as u32) + 1)
                    .to_le_bytes()
                    .to_vec(),
            ),
            (
                "remote error with the wrong id",
                framed(&wrong_id_error.encode()),
            ),
        ];
        for (what, mut reply) in scripts {
            // A well-formed reply to the *second* call is already on
            // the wire behind the bad one: a transport that kept going
            // would find it.
            reply.extend_from_slice(&framed(&reply_envelope(2)));
            let (addr, server) = scripted_server(reply);
            let client = Client::new(TcpTransport::connect(addr).unwrap());
            let first: Result<i64, _> = client.call("add", &(1i64, 2i64));
            match first.unwrap_err() {
                RpcError::Transport(io) => {
                    assert_eq!(io.kind(), std::io::ErrorKind::InvalidData, "{what}");
                }
                other => panic!("{what}: expected transport error, got {other:?}"),
            }
            let second: Result<i64, _> = client.call("add", &(1i64, 2i64));
            match second.unwrap_err() {
                RpcError::Transport(io) => {
                    assert_eq!(io.kind(), std::io::ErrorKind::BrokenPipe, "{what}");
                }
                other => panic!("{what}: expected transport error, got {other:?}"),
            }
            drop(client);
            assert_eq!(
                server.join().unwrap(),
                1,
                "{what}: second call hit the wire"
            );
        }
    }

    /// The id check holds over any transport, not only the TCP one.
    #[test]
    fn mismatched_reply_id_is_a_transport_error() {
        struct OffByOne;
        impl Transport for OffByOne {
            fn round_trip(&self, request: Request) -> Result<Response, RpcError> {
                Ok(Response {
                    id: request.id + 1,
                    result: Ok(request.body),
                })
            }
        }
        let client = Client::new(OffByOne);
        let r: Result<i64, _> = client.call("echo", &5i64);
        let RpcError::Transport(io) = r.unwrap_err() else {
            panic!("expected transport error");
        };
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
        assert!(matches!(
            client.call_raw("echo", b"5".to_vec()),
            Err(RpcError::Transport(_))
        ));
    }

    #[test]
    fn call_raw_carries_bodies_verbatim() {
        struct Reverse;
        impl Service for Reverse {
            fn call(&self, _method: &str, body: &[u8]) -> Result<Vec<u8>, RpcError> {
                Ok(body.iter().rev().copied().collect())
            }
        }
        let server = TcpServer::bind("127.0.0.1:0", Arc::new(Reverse)).unwrap();
        let client = Client::new(TcpTransport::connect(server.local_addr()).unwrap());
        // Not JSON, not UTF-8: the rpc layer does not look.
        let body = vec![0xFF, 0x00, b'{', 0x80];
        assert_eq!(
            client.call_raw("reverse", body).unwrap(),
            [0x80, b'{', 0x00, 0xFF]
        );
        assert_eq!(client.call_raw("reverse", Vec::new()).unwrap(), []);
    }

    /// The server reassembles a frame from any segmentation: one frame
    /// a byte at a time, then two frames in one write.
    #[test]
    fn tcp_server_reframes_dribbles_and_coalesced_frames() {
        use std::io::Write as _;
        let server = TcpServer::bind("127.0.0.1:0", Arc::new(Arith)).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let add = |id: u64, a: i64, b: i64| {
            framed(
                &Request {
                    id,
                    method: "add".into(),
                    body: serde_json::to_vec(&(a, b)).unwrap(),
                    trace: None,
                }
                .encode(),
            )
        };
        for byte in add(1, 20, 22) {
            stream.write_all(&[byte]).unwrap();
        }
        stream
            .write_all(&[add(2, 1, 1), add(3, -5, 2)].concat())
            .unwrap();
        let mut reader = BufReader::new(stream);
        for (id, sum) in [(1, "42"), (2, "2"), (3, "-3")] {
            let frame = read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(
                Response::decode(&frame).unwrap(),
                Response {
                    id,
                    result: Ok(sum.as_bytes().to_vec()),
                }
            );
        }
    }

    #[test]
    fn tcp_unknown_method_maps_to_remote() {
        // The server folds UnknownMethod into the response envelope, so
        // across the wire the client sees a Remote error that names the
        // method.
        let server = TcpServer::bind("127.0.0.1:0", Arc::new(Arith)).unwrap();
        let client = Client::new(TcpTransport::connect(server.local_addr()).unwrap());
        let r: Result<i64, _> = client.call("no.such.method", &());
        let err = r.unwrap_err();
        assert!(
            matches!(&err, RpcError::Remote(msg) if msg.contains("unknown method: no.such.method")),
            "got {err:?}"
        );
    }

    #[test]
    fn tcp_server_shutdown_mid_call_is_transport_error() {
        // The peer accepts and closes without replying — the client's
        // read sees clean EOF mid-call, surfaced as UnexpectedEof.
        let addr = misbehaving_server(Vec::new());
        let client = Client::new(TcpTransport::connect(addr).unwrap());
        let r: Result<i64, _> = client.call("add", &(1i64, 2i64));
        let RpcError::Transport(io) = r.unwrap_err() else {
            panic!("expected transport error");
        };
        assert_eq!(io.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    /// A service that opens a trace span per call, parented on
    /// whatever context the envelope carried.
    struct TracedEcho(mayflower_telemetry::TraceHandle);
    impl Service for TracedEcho {
        fn call(&self, _method: &str, body: &[u8]) -> Result<Vec<u8>, RpcError> {
            let _span = self.0.child("serve");
            Ok(body.to_vec())
        }
    }

    #[test]
    fn trace_context_rides_the_envelope_across_tcp() {
        let tracer = mayflower_telemetry::Tracer::new_wall();
        tracer.begin_capture();
        let server =
            TcpServer::bind("127.0.0.1:0", Arc::new(TracedEcho(tracer.handle("server")))).unwrap();
        let client = Client::new(TcpTransport::connect(server.local_addr()).unwrap());

        let client_handle = tracer.handle("client");
        let root = client_handle.root("op").unwrap();
        let root_ctx = root.ctx();
        {
            let _g = root.enter();
            let echoed: Vec<u8> = client.call("echo", &vec![1u8, 2]).unwrap();
            assert_eq!(echoed, vec![1, 2]);
        }
        drop(root);
        // The server span finishes on the connection thread before the
        // response frame is written, so it is already in the capture.
        let events = tracer.take_capture();
        let serve = events
            .iter()
            .find(|e| e.name == "serve")
            .expect("server-side span captured");
        assert_eq!(serve.trace.0, root_ctx.0, "same trace across the wire");
        assert_eq!(serve.parent.map(|p| p.0), Some(root_ctx.1));
        assert_eq!(serve.component, "server");
    }

    #[test]
    fn untraced_calls_carry_no_context() {
        let tracer = mayflower_telemetry::Tracer::new_wall();
        tracer.begin_capture();
        let client = Client::new(InProcTransport::new(Arc::new(TracedEcho(
            tracer.handle("server"),
        ))));
        // No ambient span on the calling thread: the envelope carries
        // None and the service opens no orphan span.
        let echoed: Vec<u8> = client.call("echo", &vec![9u8]).unwrap();
        assert_eq!(echoed, vec![9]);
        assert!(tracer.take_capture().is_empty());
    }
}
