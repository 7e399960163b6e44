//! The wire protocol: length-prefixed JSON frames plus the frame types
//! exchanged between `eaao submit` clients and the `eaao serve` daemon.
//!
//! # Frame layout
//!
//! Every frame is a 4-byte big-endian unsigned length followed by
//! exactly that many bytes of UTF-8 JSON:
//!
//! ```text
//! +----------------+------------------------+
//! | len: u32 (BE)  | body: len bytes (JSON) |
//! +----------------+------------------------+
//! ```
//!
//! The JSON body is the externally tagged serialization of
//! [`ClientFrame`] or [`ServerFrame`] — a unit variant is a bare string
//! (`"Shutdown"`), a struct variant is a one-key object
//! (`{"Hello":{"version":1}}`). Bodies larger than [`MAX_FRAME_BYTES`]
//! are rejected without being read, bounding what a malicious or
//! confused peer can make the other side buffer.
//!
//! # Handshake and versioning
//!
//! A connection always opens with `Hello { version }` from the client
//! and `Welcome { version, server }` from the server. The server rejects
//! (with [`ServerFrame::Rejected`], reason `"version"`) any client whose
//! version differs from [`PROTOCOL_VERSION`] — the protocol has no
//! negotiation, only an exact match, so both sides can assume identical
//! frame schemas after a successful handshake.
//!
//! The codec itself is symmetric and serde-generic; both the daemon and
//! the client library in this crate use [`read_frame`]/[`write_frame`].

use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

/// The protocol revision spoken by this build. Bump on any frame-schema
/// change; there is no cross-version compatibility.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a frame body, applied by both reader and writer. Large
/// enough for any realistic campaign record, small enough that a
/// garbage length prefix cannot trigger a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// The most a frame's declared length reserves before its body bytes
/// arrive; larger bodies grow the buffer as they are read, so a bare
/// length prefix cannot make the reader allocate [`MAX_FRAME_BYTES`].
const BODY_PREALLOC_BYTES: usize = 64 * 1024;

/// Frames sent by a client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientFrame {
    /// Opens every connection; carries the client's protocol version.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Submits one campaign for execution.
    Submit {
        /// The campaign spec as a JSON document (the same text accepted
        /// by `eaao campaign --spec`).
        spec: String,
        /// Optional output-directory name under the server's output
        /// root, used verbatim; omit to let the server derive one from
        /// the campaign id and spec name. Refused while another live
        /// campaign is writing it (`dir-busy`) or when it already holds
        /// campaign output on disk (`dir-exists`).
        out: Option<String>,
    },
    /// Asks the daemon to drain and exit (finish queued and in-flight
    /// campaigns, accept no new submissions).
    Shutdown,
}

/// Frames sent by the server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerFrame {
    /// Handshake reply: versions matched.
    Welcome {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// Human-readable server identification.
        server: String,
    },
    /// The submission was admitted; records will stream next.
    Accepted {
        /// Server-assigned campaign id (unique per daemon lifetime).
        campaign: String,
        /// Total grid cells the campaign will produce.
        total: u64,
    },
    /// The submission (or handshake) was refused. The connection closes
    /// after this frame.
    Rejected {
        /// Machine-readable category: `"version"`, `"spec"`,
        /// `"dir-busy"`, `"dir-exists"`, or `"draining"`.
        reason: String,
        /// Human-readable explanation.
        detail: String,
    },
    /// The admission queue is full; retry later. The connection closes
    /// after this frame.
    Busy {
        /// Campaigns currently queued.
        queued: u64,
        /// The admission queue's capacity.
        capacity: u64,
    },
    /// One completed run. `json` is the record's exact batch-path
    /// serialization — the same bytes `eaao campaign` appends to
    /// `results.jsonl` (only `wall_ms` varies between runs of the same
    /// cell).
    Record {
        /// The campaign this record belongs to.
        campaign: String,
        /// Records delivered so far, this one included.
        done: u64,
        /// Total grid cells.
        total: u64,
        /// The serialized `RunRecord` line.
        json: String,
    },
    /// The campaign finished; this is the last frame of a submission.
    Done {
        /// The campaign id.
        campaign: String,
        /// Cells executed.
        executed: u64,
        /// Cells that ended `"failed"`.
        failed: u64,
        /// Whether every cell has a record.
        complete: bool,
    },
    /// Acknowledges a [`ClientFrame::Shutdown`]; the daemon is draining.
    ShuttingDown,
    /// The campaign aborted server-side (I/O failure, internal error).
    Error {
        /// Human-readable explanation.
        detail: String,
    },
}

/// Everything that can go wrong reading or writing a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection mid-frame (inside the length
    /// prefix or the body).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// The body was not valid JSON for the expected frame type.
    Garbage(String),
    /// The underlying transport failed.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::Oversized(len) => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            FrameError::Garbage(detail) => write!(f, "undecodable frame body: {detail}"),
            FrameError::Io(error) => write!(f, "transport error: {error}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(error: io::Error) -> Self {
        FrameError::Io(error)
    }
}

/// Serializes `frame` and writes it as one length-prefixed frame.
///
/// # Errors
///
/// Returns [`FrameError::Oversized`] if the serialized body exceeds
/// [`MAX_FRAME_BYTES`] and [`FrameError::Io`] on transport failure.
pub fn write_frame<T: Serialize>(writer: &mut impl Write, frame: &T) -> Result<(), FrameError> {
    let body =
        serde_json::to_string(frame).map_err(|error| FrameError::Garbage(error.to_string()))?;
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(bytes.len()));
    }
    let len = bytes.len() as u32;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(bytes)?;
    writer.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame, or `None` on a clean EOF exactly at
/// a frame boundary.
///
/// # Errors
///
/// Returns [`FrameError::Truncated`] if the stream ends inside a frame,
/// [`FrameError::Oversized`] for a length prefix over
/// [`MAX_FRAME_BYTES`], [`FrameError::Garbage`] for an undecodable body,
/// and [`FrameError::Io`] on transport failure.
pub fn read_frame<T: serde::de::DeserializeOwned>(
    reader: &mut impl Read,
) -> Result<Option<T>, FrameError> {
    let mut prefix = [0u8; 4];
    match read_exact_or_eof(reader, &mut prefix)? {
        Fill::Empty => return Ok(None),
        Fill::Partial => return Err(FrameError::Truncated),
        Fill::Full => {}
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(len));
    }
    let mut body = Vec::with_capacity(len.min(BODY_PREALLOC_BYTES));
    reader.by_ref().take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(FrameError::Truncated);
    }
    let text = String::from_utf8(body).map_err(|error| FrameError::Garbage(error.to_string()))?;
    let frame =
        serde_json::from_str(&text).map_err(|error| FrameError::Garbage(error.to_string()))?;
    Ok(Some(frame))
}

enum Fill {
    /// EOF before the first byte.
    Empty,
    /// EOF after some but not all bytes.
    Partial,
    /// The buffer was filled.
    Full,
}

/// `read_exact` that distinguishes "closed at a boundary" from "closed
/// mid-read". A zero-length buffer counts as `Full`.
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> Result<Fill, FrameError> {
    let mut filled = 0usize;
    loop {
        let tail = match buf.get_mut(filled..) {
            Some(tail) if !tail.is_empty() => tail,
            _ => return Ok(Fill::Full),
        };
        match reader.read(tail) {
            Ok(0) if filled == 0 => return Ok(Fill::Empty),
            Ok(0) => return Ok(Fill::Partial),
            Ok(n) => filled += n,
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            Err(error) => return Err(FrameError::Io(error)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(frame: &ServerFrame) -> ServerFrame {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, frame).expect("writes");
        read_frame(&mut Cursor::new(bytes))
            .expect("reads")
            .expect("one frame")
    }

    #[test]
    fn frames_roundtrip() {
        for frame in [
            ServerFrame::Welcome {
                version: PROTOCOL_VERSION,
                server: "eaao-serve".to_owned(),
            },
            ServerFrame::Record {
                campaign: "c0001".to_owned(),
                done: 1,
                total: 4,
                json: "{\"key\":\"fig6/us-east1/gen2/none/s0\"}".to_owned(),
            },
            ServerFrame::ShuttingDown,
            ServerFrame::Busy {
                queued: 8,
                capacity: 8,
            },
        ] {
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn clean_eof_is_none() {
        let empty: Vec<u8> = Vec::new();
        let got: Option<ClientFrame> = read_frame(&mut Cursor::new(empty)).expect("reads");
        assert!(got.is_none());
    }

    #[test]
    fn truncated_prefix_and_body_are_truncation_errors() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &ClientFrame::Shutdown).expect("writes");
        for cut in [1, 3, bytes.len() - 1] {
            let result: Result<Option<ClientFrame>, _> =
                read_frame(&mut Cursor::new(bytes[..cut].to_vec()));
            assert!(matches!(result, Err(FrameError::Truncated)), "cut={cut}");
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocation() {
        let bytes = (u32::MAX).to_be_bytes().to_vec();
        let result: Result<Option<ClientFrame>, _> = read_frame(&mut Cursor::new(bytes));
        assert!(matches!(result, Err(FrameError::Oversized(_))));
    }

    /// A reader that records the largest buffer it is handed.
    struct Recording {
        inner: Cursor<Vec<u8>>,
        largest: usize,
    }

    impl Read for Recording {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.inner.read(buf)
        }
    }

    #[test]
    fn a_length_prefix_alone_does_not_allocate_the_declared_body() {
        let mut bytes = (MAX_FRAME_BYTES as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(b"{\"H");
        let mut reader = Recording {
            inner: Cursor::new(bytes),
            largest: 0,
        };
        let result: Result<Option<ClientFrame>, _> = read_frame(&mut reader);
        assert!(matches!(result, Err(FrameError::Truncated)));
        assert!(
            reader.largest <= BODY_PREALLOC_BYTES,
            "reader was handed a {}-byte buffer",
            reader.largest
        );
    }

    #[test]
    fn garbage_body_is_a_garbage_error() {
        let body = b"not json at all";
        let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(body);
        let result: Result<Option<ClientFrame>, _> = read_frame(&mut Cursor::new(bytes));
        assert!(matches!(result, Err(FrameError::Garbage(_))));
    }

    /// The variant names of a wire enum, checked by a wildcard-free match:
    /// a new variant does not compile until it is listed here.
    macro_rules! frame_names {
        ($enum:ident: $($variant:ident),+) => {{
            fn _exhaustive(frame: &$enum) {
                match frame {
                    $($enum::$variant { .. } => {})+
                }
            }
            [$(stringify!($variant)),+]
        }};
    }

    /// Every way `enum_name`'s frames `names` drift from the peer source
    /// that must handle them (`ClientFrame::V` tokens outside its tests)
    /// and from the frame table after `<!-- wire frames: enum_name -->`
    /// in the docs.
    fn wire_drift(enum_name: &str, names: &[&str], peer: &str, doc: &str) -> Vec<String> {
        let peer = peer.split("#[cfg(test)]").next().unwrap_or(peer);
        let handled = |name: &str| {
            let token = format!("{enum_name}::{name}");
            peer.match_indices(&token).any(|(at, _)| {
                !peer[at + token.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
            })
        };
        let marker = format!("<!-- wire frames: {enum_name} -->");
        let documented: Vec<&str> = doc
            .split_once(&marker)
            .map(|(_, after)| {
                after
                    .trim_start()
                    .lines()
                    .take_while(|line| line.starts_with('|'))
                    .filter_map(|row| row.trim_start_matches('|').trim().strip_prefix('`'))
                    .map(|cell| {
                        cell.split(|c: char| !c.is_alphanumeric())
                            .next()
                            .unwrap_or("")
                    })
                    .collect()
            })
            .unwrap_or_default();
        let mut drift = Vec::new();
        if documented.is_empty() {
            drift.push(format!("no frame table after `{marker}`"));
        }
        for name in names {
            if !handled(name) {
                drift.push(format!("`{enum_name}::{name}` is unhandled by its peer"));
            }
            if !documented.contains(name) {
                drift.push(format!("`{enum_name}::{name}` is undocumented"));
            }
        }
        for name in &documented {
            if !names.contains(name) {
                drift.push(format!("documented `{enum_name}::{name}` is stale"));
            }
        }
        drift
    }

    #[test]
    fn wire_frames_match_their_peers_and_the_service_docs() {
        let doc = include_str!("../../../docs/SERVICE.md");
        let client = frame_names!(ClientFrame: Hello, Submit, Shutdown);
        let server = frame_names!(
            ServerFrame: Welcome,
            Accepted,
            Rejected,
            Busy,
            Record,
            Done,
            ShuttingDown,
            Error
        );
        let mut drift = wire_drift("ClientFrame", &client, include_str!("server.rs"), doc);
        drift.extend(wire_drift(
            "ServerFrame",
            &server,
            include_str!("client.rs"),
            doc,
        ));
        assert!(drift.is_empty(), "wire schema drift: {drift:#?}");
    }

    #[test]
    fn wire_drift_names_unhandled_stale_and_undocumented_frames() {
        let doc = "<!-- wire frames: ClientFrame -->\n\n\
                   | frame | meaning |\n|---|---|\n\
                   | `Hello { version }` | opens |\n| `Legacy` | gone |\n\n";
        let peer = "ClientFrame::Hello\nClientFrame::Cancel\n#[cfg(test)]\nClientFrame::Submit\n";
        let drift = wire_drift("ClientFrame", &["Hello", "Submit", "Cancel"], peer, doc);
        assert_eq!(
            drift,
            [
                "`ClientFrame::Submit` is unhandled by its peer",
                "`ClientFrame::Submit` is undocumented",
                "`ClientFrame::Cancel` is undocumented",
                "documented `ClientFrame::Legacy` is stale",
            ]
        );
        assert_eq!(
            wire_drift("ServerFrame", &["Done"], "ServerFrame::Done", doc),
            [
                "no frame table after `<!-- wire frames: ServerFrame -->`",
                "`ServerFrame::Done` is undocumented"
            ]
        );
    }
}
