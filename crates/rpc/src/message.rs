//! Request/response envelopes: a fixed binary header in front of an
//! opaque body (DESIGN.md §18).
//!
//! One envelope is the payload of one [`crate::codec`] frame, so the
//! last field of each layout runs to the end of the frame and needs no
//! length of its own. All integers are little-endian.
//!
//! ```text
//! Request   version u8 (= 1) ‖ id u64 ‖ method_len u64 ‖ method (UTF-8)
//!           ‖ trace flag u8 (0 = none, 1 = (trace u64 ‖ span u64) follows)
//!           ‖ body … to the end of the frame
//! Response  version u8 (= 1) ‖ id u64 ‖ tag u8 (0 = ok, 1 = error)
//!           ‖ body or UTF-8 error message … to the end of the frame
//! ```
//!
//! The body is copied verbatim; what it holds is the caller's business
//! (`Client::call` and the `Service` impls put serde JSON there). There
//! is one format and no negotiation: a peer that speaks anything else
//! fails `decode` on the version byte.

use std::io;

/// The envelope layout's version, the first byte of every envelope.
/// Not `b'{'`, so a JSON envelope from a pre-binary peer is refused on
/// its first byte.
const VERSION: u8 = 1;

const TRACE_NONE: u8 = 0;
const TRACE_SOME: u8 = 1;

const TAG_OK: u8 = 0;
const TAG_ERR: u8 = 1;

/// A request envelope: correlation id, method name, serialized
/// argument payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Correlation id, echoed in the matching [`Response`].
    pub id: u64,
    /// Method name (e.g. `"nameserver.lookup"`).
    pub method: String,
    /// The argument, already encoded by the caller; carried verbatim.
    pub body: Vec<u8>,
    /// Caller's `(trace, span)` context, when the operation is traced
    /// (DESIGN.md §17). `None` leaves the server side untraced.
    pub trace: Option<(u64, u64)>,
}

/// A response envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request's correlation id.
    pub id: u64,
    /// The result, already encoded by the service and carried
    /// verbatim, on success; the error message on failure.
    pub result: Result<Vec<u8>, String>,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The undecoded rest of an envelope. Every read is bounds-checked
/// against what is left, so nothing is ever allocated or indexed on a
/// length field's say-so.
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    /// Starts after the version byte, which it checks.
    fn open(bytes: &'a [u8]) -> io::Result<Fields<'a>> {
        let mut fields = Fields(bytes);
        match fields.u8("version")? {
            VERSION => Ok(fields),
            other => Err(invalid(format!(
                "unknown envelope version {other} (this peer speaks {VERSION})"
            ))),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        let (head, rest) = self
            .0
            .split_at_checked(n)
            .ok_or_else(|| invalid(format!("envelope ends inside {what}")))?;
        self.0 = rest;
        Ok(head)
    }

    /// [`Fields::take`] of a length known at compile time.
    fn array<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        let (head, rest) = self
            .0
            .split_first_chunk()
            .ok_or_else(|| invalid(format!("envelope ends inside {what}")))?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> io::Result<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    fn rest(self) -> &'a [u8] {
        self.0
    }
}

fn utf8(bytes: &[u8], what: &str) -> io::Result<String> {
    match std::str::from_utf8(bytes) {
        Ok(s) => Ok(s.to_owned()),
        Err(e) => Err(invalid(format!("{what} is not UTF-8: {e}"))),
    }
}

impl Request {
    /// Serializes the envelope for the wire. Infallible: every length
    /// the types can hold fits its field.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let trace_len = if self.trace.is_some() { 16 } else { 0 };
        let mut out =
            Vec::with_capacity(1 + 8 + 8 + self.method.len() + 1 + trace_len + self.body.len());
        out.push(VERSION);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&(self.method.len() as u64).to_le_bytes());
        out.extend_from_slice(self.method.as_bytes());
        match self.trace {
            None => out.push(TRACE_NONE),
            Some((trace, span)) => {
                out.push(TRACE_SOME);
                out.extend_from_slice(&trace.to_le_bytes());
                out.extend_from_slice(&span.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.body);
        out
    }

    /// Deserializes an envelope from the wire.
    ///
    /// # Errors
    ///
    /// Returns an `InvalidData` error naming the field on an unknown
    /// version byte, an envelope that ends inside a field, a method
    /// length beyond the bytes present, a method that is not UTF-8 or
    /// an unknown trace flag. Never panics, and allocates no more than
    /// `bytes.len()`.
    pub fn decode(bytes: &[u8]) -> io::Result<Request> {
        let mut fields = Fields::open(bytes)?;
        let id = fields.u64("id")?;
        // A length that does not fit `usize` cannot fit the slice.
        let method_len = usize::try_from(fields.u64("method length")?).unwrap_or(usize::MAX);
        let method = utf8(fields.take(method_len, "method")?, "method")?;
        let trace = match fields.u8("trace flag")? {
            TRACE_NONE => None,
            TRACE_SOME => Some((fields.u64("trace id")?, fields.u64("span id")?)),
            other => return Err(invalid(format!("unknown trace flag {other}"))),
        };
        Ok(Request {
            id,
            method,
            body: fields.rest().to_vec(),
            trace,
        })
    }
}

impl Response {
    /// Serializes the envelope for the wire. Infallible.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let (tag, payload) = match &self.result {
            Ok(body) => (TAG_OK, body.as_slice()),
            Err(msg) => (TAG_ERR, msg.as_bytes()),
        };
        let mut out = Vec::with_capacity(1 + 8 + 1 + payload.len());
        out.push(VERSION);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.push(tag);
        out.extend_from_slice(payload);
        out
    }

    /// Deserializes an envelope from the wire.
    ///
    /// # Errors
    ///
    /// Returns an `InvalidData` error naming the field on an unknown
    /// version byte, an envelope that ends inside a field, an unknown
    /// result tag or an error message that is not UTF-8. Never panics,
    /// and allocates no more than `bytes.len()`.
    pub fn decode(bytes: &[u8]) -> io::Result<Response> {
        let mut fields = Fields::open(bytes)?;
        let id = fields.u64("id")?;
        let result = match fields.u8("result tag")? {
            TAG_OK => Ok(fields.rest().to_vec()),
            TAG_ERR => Err(utf8(fields.rest(), "error message")?),
            other => return Err(invalid(format!("unknown result tag {other}"))),
        };
        Ok(Response { id, result })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_request() -> Request {
        Request {
            id: 42,
            method: "nameserver.lookup".into(),
            body: vec![1, 2, 3],
            trace: Some((7, 9)),
        }
    }

    #[test]
    fn request_roundtrip() {
        let r = traced_request();
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn response_roundtrip_ok_and_err() {
        let ok = Response {
            id: 1,
            result: Ok(vec![9]),
        };
        assert_eq!(Response::decode(&ok.encode()).unwrap(), ok);
        let err = Response {
            id: 2,
            result: Err("no such file".into()),
        };
        assert_eq!(Response::decode(&err.encode()).unwrap(), err);
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert!(Request::decode(b"not json").is_err());
        assert!(Response::decode(&[0xFF, 0xFE]).is_err());
        assert!(Request::decode(&[]).is_err());
        assert!(Response::decode(&[]).is_err());
    }

    /// Client and server may be different processes (`mayfs`) built
    /// from different commits: the bytes themselves are the contract.
    #[test]
    fn golden_vectors() {
        let mut request = vec![1u8];
        request.extend_from_slice(&[42, 0, 0, 0, 0, 0, 0, 0]);
        request.extend_from_slice(&[17, 0, 0, 0, 0, 0, 0, 0]);
        request.extend_from_slice(b"nameserver.lookup");
        request.push(1);
        request.extend_from_slice(&[7, 0, 0, 0, 0, 0, 0, 0]);
        request.extend_from_slice(&[9, 0, 0, 0, 0, 0, 0, 0]);
        request.extend_from_slice(&[1, 2, 3]);
        assert_eq!(traced_request().encode(), request);
        assert_eq!(Request::decode(&request).unwrap(), traced_request());

        let ok = Response {
            id: 0x0102_0304_0506_0708,
            result: Ok(b"{}".to_vec()),
        };
        let ok_bytes = [1, 8, 7, 6, 5, 4, 3, 2, 1, 0, b'{', b'}'];
        assert_eq!(ok.encode(), ok_bytes);
        assert_eq!(Response::decode(&ok_bytes).unwrap(), ok);

        let err = Response {
            id: 2,
            result: Err("né".into()),
        };
        let err_bytes = [1, 2, 0, 0, 0, 0, 0, 0, 0, 1, b'n', 0xC3, 0xA9];
        assert_eq!(err.encode(), err_bytes);
        assert_eq!(Response::decode(&err_bytes).unwrap(), err);
    }

    #[test]
    fn unknown_version_is_an_error_that_says_so() {
        let mut request = traced_request().encode();
        request[0] = 2;
        let err = Request::decode(&request).unwrap_err();
        assert!(err.to_string().contains("version 2"), "{err}");
        // What a pre-binary peer would send.
        let err = Response::decode(br#"{"id":1,"result":{"Ok":[]}}"#).unwrap_err();
        assert!(err.to_string().contains("version 123"), "{err}");
    }

    #[test]
    fn field_level_rejections() {
        let good = traced_request().encode();
        // Method length one past the bytes present, and absurdly past.
        for len in [good.len() as u64, u64::MAX] {
            let mut bad = good.clone();
            bad[9..17].copy_from_slice(&len.to_le_bytes());
            assert!(Request::decode(&bad).is_err());
        }
        // Non-UTF-8 method.
        let mut bad = good.clone();
        bad[17] = 0xFF;
        assert!(Request::decode(&bad).is_err());
        // Unknown trace flag.
        let mut bad = good.clone();
        bad[17 + 17] = 2;
        assert!(Request::decode(&bad).is_err());
        // Unknown result tag, non-UTF-8 error message.
        assert!(Response::decode(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 2]).is_err());
        assert!(Response::decode(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF]).is_err());
    }

    /// A prefix that cuts the header is an error, never a shorter
    /// valid envelope.
    #[test]
    fn header_prefixes_are_errors() {
        let r = traced_request();
        let bytes = r.encode();
        for end in 0..bytes.len() - r.body.len() {
            assert!(Request::decode(&bytes[..end]).is_err(), "prefix {end}");
        }
        let bytes = Response {
            id: 3,
            result: Ok(vec![1]),
        }
        .encode();
        for end in 0..10 {
            assert!(Response::decode(&bytes[..end]).is_err(), "prefix {end}");
        }
    }

    #[test]
    fn empty_method_body_and_message_are_valid() {
        let r = Request {
            id: 0,
            method: String::new(),
            body: Vec::new(),
            trace: None,
        };
        assert_eq!(r.encode().len(), 18);
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        for result in [Ok(Vec::new()), Err(String::new())] {
            let r = Response { id: 0, result };
            assert_eq!(r.encode().len(), 10);
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Chars of every UTF-8 width, cut to at most 1 KiB of UTF-8; the
    /// empty string included.
    fn text() -> impl Strategy<Value = String> {
        let ch = prop_oneof![
            0u32..0x80,
            0x80u32..0x800,
            0x800u32..0x1_0000,
            0x1_0000u32..0x11_0000
        ]
        .prop_map(|c| char::from_u32(c).unwrap_or('\u{FFFD}'));
        proptest::collection::vec(ch, 0..512).prop_map(|chars| {
            let mut s = String::new();
            for c in chars {
                if s.len() + c.len_utf8() > 1024 {
                    break;
                }
                s.push(c);
            }
            s
        })
    }

    fn trace() -> impl Strategy<Value = Option<(u64, u64)>> {
        prop_oneof![Just(None), (any::<u64>(), any::<u64>()).prop_map(Some)]
    }

    fn body(max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..max)
    }

    /// A decoded value is well-formed when it owns no more bytes than
    /// it was decoded from (nothing allocated on a length field's
    /// say-so) and re-encodes to exactly the input (the layout has no
    /// slack).
    fn check_request(input: &[u8]) -> Result<(), String> {
        if let Ok(r) = Request::decode(input) {
            prop_assert!(r.method.capacity() + r.body.capacity() <= input.len());
            prop_assert_eq!(r.encode(), input);
        }
        Ok(())
    }

    fn check_response(input: &[u8]) -> Result<(), String> {
        if let Ok(r) = Response::decode(input) {
            let held = match &r.result {
                Ok(body) => body.capacity(),
                Err(msg) => msg.capacity(),
            };
            prop_assert!(held <= input.len());
            prop_assert_eq!(r.encode(), input);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn any_request_roundtrips(
            id in any::<u64>(),
            method in text(),
            body in body(64 << 10),
            trace in trace(),
        ) {
            let r = Request { id, method, body, trace };
            prop_assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }

        #[test]
        fn any_response_roundtrips(
            id in any::<u64>(),
            result in prop_oneof![body(64 << 10).prop_map(Ok), text().prop_map(Err)],
        ) {
            let r = Response { id, result };
            prop_assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in body(256),
            valid_version in any::<bool>(),
        ) {
            // Half the inputs get past the version byte, so the fields
            // behind it see arbitrary bytes too.
            let mut input = bytes;
            if let (true, Some(first)) = (valid_version, input.first_mut()) {
                *first = VERSION;
            }
            check_request(&input)?;
            check_response(&input)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn every_prefix_and_bit_flip_is_err_or_well_formed(
            id in any::<u64>(),
            method in text(),
            body in body(48),
            trace in trace(),
            failed in any::<bool>(),
        ) {
            let method: String = method.chars().take(12).collect();
            let response = Response {
                id,
                result: if failed { Err(method.clone()) } else { Ok(body.clone()) },
            };
            let request = Request { id, method, body, trace };
            type Check = fn(&[u8]) -> Result<(), String>;
            let sides = [
                (request.encode(), check_request as Check),
                (response.encode(), check_response as Check),
            ];
            for (valid, check) in sides {
                for end in 0..valid.len() {
                    check(&valid[..end])?;
                }
                for bit in 0..valid.len() * 8 {
                    let mut flipped = valid.clone();
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    check(&flipped)?;
                }
            }
        }
    }
}
