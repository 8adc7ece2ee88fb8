//! Append/read consistency oracle (§3.4).
//!
//! Mayflower files are append-only and primary-ordered: the primary
//! replica serializes appends, so the file's *content* is the
//! primary's final byte sequence and every read must return a byte
//! prefix of it (sequential consistency — a read may lag, but never
//! diverge). Under **strong** consistency the paper additionally
//! requires last-chunk reads to go through the primary, which buys
//! real-time freshness: a read invoked after an append was
//! acknowledged must include that append's bytes.
//!
//! The oracle exploits the scenarios' tagged payloads: every append
//! writes `len` copies of a unique `tag` byte, so "does this read
//! cover that append" is a position check against the primary's final
//! content rather than a subsequence search.

use crate::history::{Event, History};

/// A data-path operation, as driven by the model-checking scenarios.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataOp {
    /// A primary-ordered append of `len` copies of the byte `tag`.
    Append {
        /// File name.
        file: String,
        /// Unique payload byte for this append.
        tag: u8,
        /// Payload length in bytes.
        len: u32,
    },
    /// A whole-file read.
    Read {
        /// File name.
        file: String,
    },
    /// A dataserver fail-stop crash.
    Crash {
        /// Replica index into the file's replica list.
        replica: u32,
    },
    /// A crashed dataserver restarts with its disk intact.
    Restart {
        /// Replica index into the file's replica list.
        replica: u32,
    },
    /// Replica loss + re-replication from the primary (the pull
    /// `Cluster::repair_to` performs).
    Repair,
}

impl std::fmt::Display for DataOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataOp::Append { file, tag, len } => write!(f, "append({file},tag={tag},len={len})"),
            DataOp::Read { file } => write!(f, "read({file})"),
            DataOp::Crash { replica } => write!(f, "crash(r{replica})"),
            DataOp::Restart { replica } => write!(f, "restart(r{replica})"),
            DataOp::Repair => write!(f, "repair"),
        }
    }
}

/// The response of a [`DataOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataRet {
    /// Append acknowledged; the file's new size.
    Appended(u64),
    /// Read returned these bytes.
    Value(Vec<u8>),
    /// The operation failed (crashed replica, severed path); failed
    /// operations are exempt from the consistency checks.
    Failed(String),
    /// A scripted fault event completed.
    Done,
}

impl std::fmt::Display for DataRet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataRet::Appended(size) => write!(f, "appended(size={size})"),
            DataRet::Value(v) => write!(f, "value({})", render_bytes(v)),
            DataRet::Failed(why) => write!(f, "failed({why})"),
            DataRet::Done => write!(f, "done"),
        }
    }
}

/// Renders tagged payload bytes run-length encoded (`len=12: 1x6 2x6`)
/// — stable, compact, and enough to diff counterexample traces by eye.
#[must_use]
pub fn render_bytes(bytes: &[u8]) -> String {
    let mut out = format!("len={}:", bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let tag = bytes[i];
        let mut j = i;
        while j < bytes.len() && bytes[j] == tag {
            j += 1;
        }
        out.push_str(&format!(" {tag}x{}", j - i));
        i = j;
    }
    out
}

/// Checks an append/read history against the primary's final content.
///
/// Always checked (sequential consistency): every successful read
/// returned a byte prefix of `primary`. With `strong`, additionally:
/// every successful read invoked after an append's acknowledgement
/// covers that append's bytes (real-time freshness, §3.4), and every
/// acknowledged append's bytes are present in `primary`.
///
/// # Errors
///
/// Returns a violation message naming the offending calls.
pub fn check_append_read(
    history: &History<DataOp, DataRet>,
    primary: &[u8],
    strong: bool,
) -> Result<(), String> {
    let spans = history.spans();
    let completed: Vec<_> = history
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Invoke { .. } => None,
            Event::Response { call, ret } => Some((*call, ret)),
        })
        .collect();
    let op_of = |call: crate::history::CallId| {
        history.events().iter().find_map(|e| match e {
            Event::Invoke { call: c, op, .. } if *c == call => Some(op),
            _ => None,
        })
    };

    for (call, ret) in &completed {
        let Some(DataOp::Read { .. }) = op_of(*call) else {
            continue;
        };
        let DataRet::Value(v) = ret else { continue };
        if v.len() > primary.len() || primary[..v.len()] != v[..] {
            return Err(format!(
                "read[{}] is not a prefix of the primary's final content: \
                 got {}, primary {}",
                call.0,
                render_bytes(v),
                render_bytes(primary)
            ));
        }
    }

    if !strong {
        return Ok(());
    }
    for (rcall, rret) in &completed {
        let Some(DataOp::Read { .. }) = op_of(*rcall) else {
            continue;
        };
        let DataRet::Value(v) = rret else { continue };
        let read_invoke = spans[rcall].0;
        for (acall, aret) in &completed {
            let Some(DataOp::Append { tag, len, .. }) = op_of(*acall) else {
                continue;
            };
            let DataRet::Appended(_) = aret else { continue };
            let Some(ack) = spans[acall].1 else { continue };
            if ack >= read_invoke {
                continue; // not acknowledged before the read began
            }
            let Some(pos) = primary.iter().position(|b| b == tag) else {
                return Err(format!(
                    "append[{}] (tag {tag}) was acknowledged but its bytes \
                     never reached the primary",
                    acall.0
                ));
            };
            let need = pos + *len as usize;
            if v.len() < need {
                return Err(format!(
                    "strong read[{}] began after append[{}] (tag {tag}) was \
                     acknowledged, but returned {} — needs at least {need} \
                     bytes to cover it",
                    rcall.0,
                    acall.0,
                    render_bytes(v)
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_ret(h: &mut History<DataOp, DataRet>, v: &[u8]) {
        let c = h.invoke(1, DataOp::Read { file: "f".into() });
        h.respond(c, DataRet::Value(v.to_vec()));
    }

    fn append_ret(h: &mut History<DataOp, DataRet>, tag: u8, len: u32, size: u64) {
        let c = h.invoke(
            0,
            DataOp::Append {
                file: "f".into(),
                tag,
                len,
            },
        );
        h.respond(c, DataRet::Appended(size));
    }

    #[test]
    fn prefix_reads_pass() {
        let primary = [1, 1, 1, 2, 2, 2];
        let mut h = History::new();
        append_ret(&mut h, 1, 3, 3);
        read_ret(&mut h, &[1, 1, 1]);
        read_ret(&mut h, &primary);
        read_ret(&mut h, &[]);
        assert!(check_append_read(&h, &primary, false).is_ok());
    }

    #[test]
    fn non_prefix_read_fails() {
        let primary = [1, 1, 2, 2];
        let mut h = History::new();
        read_ret(&mut h, &[2, 2]);
        let err = check_append_read(&h, &primary, false).unwrap_err();
        assert!(err.contains("not a prefix"), "{err}");
    }

    #[test]
    fn strong_requires_acked_appends_visible() {
        let primary = [1, 1, 2, 2];
        let mut h = History::new();
        append_ret(&mut h, 2, 2, 4); // acked before the read begins
        read_ret(&mut h, &[1, 1]); // misses tag 2
        assert!(check_append_read(&h, &primary, false).is_ok());
        let err = check_append_read(&h, &primary, true).unwrap_err();
        assert!(err.contains("strong read"), "{err}");
    }

    #[test]
    fn strong_ignores_concurrent_appends() {
        let primary = [1, 1, 2, 2];
        let mut h = History::new();
        // Append overlaps the read: freshness not required.
        let a = h.invoke(
            0,
            DataOp::Append {
                file: "f".into(),
                tag: 2,
                len: 2,
            },
        );
        let r = h.invoke(1, DataOp::Read { file: "f".into() });
        h.respond(a, DataRet::Appended(4));
        h.respond(r, DataRet::Value(vec![1, 1]));
        assert!(check_append_read(&h, &primary, true).is_ok());
    }

    #[test]
    fn acked_append_missing_from_primary_fails_strong() {
        let primary = [1, 1];
        let mut h = History::new();
        append_ret(&mut h, 9, 2, 4);
        read_ret(&mut h, &[1, 1]);
        let err = check_append_read(&h, &primary, true).unwrap_err();
        assert!(err.contains("never reached the primary"), "{err}");
    }

    #[test]
    fn failed_ops_are_exempt() {
        let primary = [1, 1];
        let mut h = History::new();
        let r = h.invoke(1, DataOp::Read { file: "f".into() });
        h.respond(r, DataRet::Failed("replica down".into()));
        assert!(check_append_read(&h, &primary, true).is_ok());
    }

    #[test]
    fn byte_rendering_is_run_length() {
        assert_eq!(render_bytes(&[]), "len=0:");
        assert_eq!(render_bytes(&[7, 7, 7, 2]), "len=4: 7x3 2x1");
    }
}
