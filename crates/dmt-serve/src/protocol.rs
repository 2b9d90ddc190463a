//! The serve wire protocol: length-prefixed, CRC-sealed frames carrying
//! typed requests and responses.
//!
//! # Framing
//!
//! Every frame — request and response alike — is one payload wrapped in the
//! sealed snapshot envelope of [`dmt_core::snapshot`] (`DMTSNAP\0` magic,
//! format version, CRC-32, little-endian length prefix). Reusing the
//! checkpoint envelope means the serving plane inherits its hardening for
//! free: forged lengths are capped before any allocation, bit flips are
//! caught by the checksum, and the corruption-fuzz battery of PR 6 applies
//! verbatim to network frames.
//!
//! ```text
//! magic   8 bytes  b"DMTSNAP\0"
//! version u32 LE   snapshot format version
//! crc32   u32 LE   CRC-32 (IEEE) of the payload
//! length  u64 LE   payload length (capped at MAX_FRAME_LEN)
//! payload          opcode u8 | tenant str | op body   (requests)
//!                  tag u8    | tag body               (responses)
//! ```
//!
//! A request is predict (opcode 1), learn (2) or stats (5). Opcodes 3 and 4
//! and response tags 3 and 4 are reserved: they once carried checkpoint and
//! hot swap, which named a server-side file, and are never reused.
//!
//! # Corruption semantics
//!
//! The two halves of a frame fail differently, and the connection contract
//! follows from which half broke:
//!
//! * **Payload corruption** (CRC mismatch, malformed body): the header's
//!   length prefix was intact, so the reader consumed exactly one frame and
//!   the byte stream is still framed. The server answers with a typed error
//!   response and the connection **stays usable**.
//! * **Header corruption** (bad magic/version, oversize or forged length):
//!   frame synchronisation is lost — there is no way to know where the next
//!   frame starts. The server still answers with a typed error response,
//!   then **closes the connection**; the client reconnects.
//!
//! Neither case may panic; the fuzz suite in `integration_serve` pins both
//! behaviours with fixed seeds.

use std::io::{self, Read, Write};

use dmt::registry::TenantStats;
use dmt_core::snapshot::{self, SNAPSHOT_HEADER_LEN, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use dmt_models::wire::{Reader, Writer};

use crate::error::ServeError;

/// Maximum payload length of a single frame (16 MiB): a forged length prefix
/// beyond this is rejected before any buffer is sized, exactly like the
/// snapshot loader refuses announced multi-gigabyte sections.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Maximum feature columns a request matrix may declare. Generous (the
/// paper's widest stream has 72 columns) while keeping `rows × cols`
/// arithmetic far from overflow.
pub const MAX_COLS: usize = 65_536;

/// Request opcodes, the first payload byte of every request frame. Opcodes
/// 3 and 4 are reserved (see the module docs) and decode as
/// [`ServeError::UnknownOpcode`].
pub mod opcode {
    /// Predict a feature batch from the tenant's current epoch.
    pub const PREDICT: u8 = 1;
    /// Learn a labelled batch and publish the next epoch.
    pub const LEARN: u8 = 2;
    /// Report the tenant's serving stats.
    pub const STATS: u8 = 5;
}

/// A row-major feature batch as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMatrix {
    /// Feature columns per row (the tenant schema's feature count).
    pub cols: usize,
    /// `rows × cols` values, row-major.
    pub data: Vec<f64>,
}

impl WireMatrix {
    /// Build from borrowed rows (the client side). Rows must be equal
    /// length; ragged input is the caller's bug and panics in debug builds
    /// only via the length bookkeeping below (the server never constructs
    /// matrices from untrusted rows — it decodes them, validated).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(cols * rows.len());
        for row in rows {
            data.extend_from_slice(row);
        }
        Self { cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.cols).unwrap_or(0)
    }

    /// Borrow the matrix as a vector of row slices (what the registry's
    /// `Rows` APIs take).
    pub fn as_rows(&self) -> Vec<&[f64]> {
        if self.cols == 0 {
            return Vec::new();
        }
        self.data.chunks_exact(self.cols).collect()
    }

    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.cols);
        w.put_f64_slice(&self.data);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        let cols = r.get_usize().map_err(bad_request)?;
        let data = r.get_f64_vec().map_err(bad_request)?;
        if cols > MAX_COLS {
            return Err(ServeError::BadRequest(format!(
                "matrix declares {cols} columns, limit is {MAX_COLS}"
            )));
        }
        if cols == 0 && !data.is_empty() {
            return Err(ServeError::BadRequest(
                "matrix declares 0 columns but carries data".to_string(),
            ));
        }
        if cols != 0 && data.len() % cols != 0 {
            return Err(ServeError::BadRequest(format!(
                "matrix data length {} is not a multiple of {cols} columns",
                data.len()
            )));
        }
        Ok(Self { cols, data })
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Predict `features` from the tenant's current epoch.
    Predict {
        /// Target tenant.
        tenant: String,
        /// Feature batch.
        features: WireMatrix,
    },
    /// Learn a labelled batch (and publish the next epoch).
    Learn {
        /// Target tenant.
        tenant: String,
        /// Feature batch.
        features: WireMatrix,
        /// One label per row.
        labels: Vec<u32>,
    },
    /// Report the tenant's serving stats.
    Stats {
        /// Target tenant.
        tenant: String,
    },
}

impl Request {
    /// Encode into a frame payload (not yet sealed).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Predict { tenant, features } => {
                w.put_u8(opcode::PREDICT);
                w.put_str(tenant);
                features.encode(&mut w);
            }
            Request::Learn {
                tenant,
                features,
                labels,
            } => {
                w.put_u8(opcode::LEARN);
                w.put_str(tenant);
                features.encode(&mut w);
                w.put_u32_slice(labels);
            }
            Request::Stats { tenant } => {
                w.put_u8(opcode::STATS);
                w.put_str(tenant);
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload. Every malformed input is a typed
    /// [`ServeError`] — never a panic, never an allocation sized by a forged
    /// count (the wire reader validates length prefixes against remaining
    /// bytes first).
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let mut r = Reader::new(payload);
        let op = r.get_u8().map_err(bad_request)?;
        let tenant = r.get_str().map_err(bad_request)?;
        let request = match op {
            opcode::PREDICT => Request::Predict {
                tenant,
                features: WireMatrix::decode(&mut r)?,
            },
            opcode::LEARN => {
                let features = WireMatrix::decode(&mut r)?;
                let labels = r.get_u32_vec().map_err(bad_request)?;
                if labels.len() != features.rows() {
                    return Err(ServeError::BadRequest(format!(
                        "{} labels for {} rows",
                        labels.len(),
                        features.rows()
                    )));
                }
                Request::Learn {
                    tenant,
                    features,
                    labels,
                }
            }
            opcode::STATS => Request::Stats { tenant },
            other => return Err(ServeError::UnknownOpcode(other)),
        };
        r.expect_end().map_err(bad_request)?;
        Ok(request)
    }
}

/// Response frame tags (the first payload byte; `0` marks an error frame).
/// Tags 3 and 4 are reserved (see the module docs).
mod tag {
    pub const ERROR: u8 = 0;
    pub const PREDICTIONS: u8 = 1;
    pub const LEARNED: u8 = 2;
    pub const STATS: u8 = 5;
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Predictions computed from `epoch`. The epoch is an option on the wire
    /// for compatibility; a server always sends `Some`.
    Predictions {
        /// Epoch the predictions are bit-identical to.
        epoch: Option<u64>,
        /// One class per input row.
        predictions: Vec<u32>,
    },
    /// The batch was learned; `epoch` is the newly published snapshot.
    Learned {
        /// Newly published epoch (always `Some` from a server).
        epoch: Option<u64>,
        /// Total rows consumed by the tenant.
        observations: u64,
    },
    /// Tenant stats.
    Stats(TenantStats),
    /// The request failed; the error is typed and the variant says whether
    /// the connection survives (see [`ServeError::closes_connection`]).
    Error(ServeError),
}

fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        Some(v) => {
            w.put_bool(true);
            w.put_u64(v);
        }
        None => w.put_bool(false),
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, ServeError> {
    if r.get_bool().map_err(bad_response)? {
        Ok(Some(r.get_u64().map_err(bad_response)?))
    } else {
        Ok(None)
    }
}

impl Response {
    /// Encode into a frame payload (not yet sealed).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Predictions { epoch, predictions } => {
                w.put_u8(tag::PREDICTIONS);
                put_opt_u64(&mut w, *epoch);
                w.put_u32_slice(predictions);
            }
            Response::Learned {
                epoch,
                observations,
            } => {
                w.put_u8(tag::LEARNED);
                put_opt_u64(&mut w, *epoch);
                w.put_u64(*observations);
            }
            Response::Stats(stats) => {
                w.put_u8(tag::STATS);
                w.put_str(&stats.name);
                w.put_str(&stats.kind);
                w.put_u64(stats.epoch);
                w.put_u64(stats.live_epochs);
                w.put_u64(stats.memory_bytes);
                w.put_u64(stats.observations);
                put_opt_u64(&mut w, stats.budget_bytes);
            }
            Response::Error(e) => {
                w.put_u8(tag::ERROR);
                w.put_u8(e.code());
                w.put_str(&e.message());
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload; used by the client.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let mut r = Reader::new(payload);
        let response = match r.get_u8().map_err(bad_response)? {
            tag::PREDICTIONS => Response::Predictions {
                epoch: get_opt_u64(&mut r)?,
                predictions: r.get_u32_vec().map_err(bad_response)?,
            },
            tag::LEARNED => Response::Learned {
                epoch: get_opt_u64(&mut r)?,
                observations: r.get_u64().map_err(bad_response)?,
            },
            tag::STATS => Response::Stats(TenantStats {
                name: r.get_str().map_err(bad_response)?,
                kind: r.get_str().map_err(bad_response)?,
                epoch: r.get_u64().map_err(bad_response)?,
                live_epochs: r.get_u64().map_err(bad_response)?,
                memory_bytes: r.get_u64().map_err(bad_response)?,
                observations: r.get_u64().map_err(bad_response)?,
                budget_bytes: get_opt_u64(&mut r)?,
            }),
            tag::ERROR => {
                let code = r.get_u8().map_err(bad_response)?;
                let message = r.get_str().map_err(bad_response)?;
                Response::Error(ServeError::from_code(code, message))
            }
            other => {
                return Err(ServeError::BadResponse(format!(
                    "unknown response tag {other}"
                )))
            }
        };
        r.expect_end().map_err(bad_response)?;
        Ok(response)
    }
}

fn bad_request(e: dmt_models::WireError) -> ServeError {
    ServeError::BadRequest(e.to_string())
}

fn bad_response(e: dmt_models::WireError) -> ServeError {
    ServeError::BadResponse(e.to_string())
}

/// What [`read_frame`] produced.
#[derive(Debug)]
pub enum FrameRead {
    /// One complete, CRC-valid frame payload.
    Payload(Vec<u8>),
    /// The peer closed the connection cleanly between frames.
    Eof,
}

/// How reading a frame failed, split by whether framing sync survives.
#[derive(Debug)]
pub enum FrameIssue {
    /// The underlying socket failed (including truncation mid-frame); the
    /// connection is gone.
    Io(io::Error),
    /// The fixed header is hostile (bad magic, version skew, oversize or
    /// forged length): the byte stream can no longer be framed. The server
    /// answers a typed error, then closes.
    Header(String),
    /// The header was intact but the payload fails its CRC (or trailing
    /// checks): exactly one frame was consumed, the stream is still framed,
    /// the connection stays usable.
    Payload(String),
}

/// Write one sealed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&snapshot::seal_payload(payload))?;
    w.flush()
}

/// Read one sealed frame: header first (validated before any payload buffer
/// is sized), then the payload, then the envelope checks of
/// [`snapshot::open_payload`] over the assembled bytes.
pub fn read_frame<R: Read>(r: &mut R) -> Result<FrameRead, FrameIssue> {
    let mut header = [0u8; SNAPSHOT_HEADER_LEN];
    // A clean EOF before any header byte is a closed connection, not an
    // error; EOF mid-header is truncation.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameRead::Eof),
            Ok(0) => {
                return Err(FrameIssue::Header(format!(
                    "connection closed {filled} bytes into a {SNAPSHOT_HEADER_LEN}-byte header"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameIssue::Io(e)),
        }
    }
    if header[..8] != SNAPSHOT_MAGIC {
        return Err(FrameIssue::Header("bad frame magic".to_string()));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 header bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(FrameIssue::Header(format!(
            "frame version {version}, this build speaks {SNAPSHOT_VERSION}"
        )));
    }
    let length = u64::from_le_bytes(header[16..24].try_into().expect("8 header bytes"));
    let length = match usize::try_from(length) {
        Ok(length) if length <= MAX_FRAME_LEN => length,
        _ => {
            return Err(FrameIssue::Header(format!(
                "frame announces {length} payload bytes, limit is {MAX_FRAME_LEN}"
            )))
        }
    };
    let mut frame = vec![0u8; SNAPSHOT_HEADER_LEN + length];
    frame[..SNAPSHOT_HEADER_LEN].copy_from_slice(&header);
    r.read_exact(&mut frame[SNAPSHOT_HEADER_LEN..])
        .map_err(FrameIssue::Io)?;
    match snapshot::open_payload(&frame) {
        Ok(payload) => Ok(FrameRead::Payload(payload.to_vec())),
        Err(e) => Err(FrameIssue::Payload(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let payload = request.encode();
        let decoded = Request::decode(&payload).expect("decode");
        assert_eq!(decoded, request);
    }

    #[test]
    fn requests_round_trip() {
        let features = WireMatrix::from_rows(&[&[0.1, 0.2], &[0.3, 0.4], &[0.5, 0.6]]);
        round_trip_request(Request::Predict {
            tenant: "m".to_string(),
            features: features.clone(),
        });
        round_trip_request(Request::Learn {
            tenant: "m".to_string(),
            features,
            labels: vec![0, 1, 1],
        });
        round_trip_request(Request::Stats {
            tenant: "m".to_string(),
        });
    }

    #[test]
    fn responses_round_trip() {
        for response in [
            Response::Predictions {
                epoch: Some(7),
                predictions: vec![0, 1, 1, 0],
            },
            Response::Predictions {
                epoch: None,
                predictions: Vec::new(),
            },
            Response::Learned {
                epoch: Some(8),
                observations: 12_345,
            },
            Response::Stats(TenantStats {
                name: "m".to_string(),
                kind: "DMT (ours)".to_string(),
                epoch: 9,
                live_epochs: 2,
                memory_bytes: 65_536,
                observations: 10_000,
                budget_bytes: Some(1 << 20),
            }),
            Response::Error(ServeError::UnknownTenant("ghost".to_string())),
        ] {
            let payload = response.encode();
            assert_eq!(Response::decode(&payload).expect("decode"), response);
        }
        // The reserved tags of the deleted file responses are unknown tags.
        for reserved in [3u8, 4] {
            match Response::decode(&[reserved, 0]) {
                Err(ServeError::BadResponse(_)) => {}
                other => panic!("tag {reserved}: expected BadResponse, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_request_bodies_are_typed_errors() {
        // Unknown opcode.
        let mut w = Writer::new();
        w.put_u8(99);
        w.put_str("m");
        match Request::decode(w.as_bytes()) {
            Err(ServeError::UnknownOpcode(99)) => {}
            other => panic!("expected UnknownOpcode, got {other:?}"),
        }
        // The reserved file opcodes, in their old layout (tenant, path).
        for op in [3, 4] {
            let mut w = Writer::new();
            w.put_u8(op);
            w.put_str("m");
            w.put_str("/tmp/m.dmt");
            match Request::decode(w.as_bytes()) {
                Err(ServeError::UnknownOpcode(got)) => assert_eq!(got, op),
                other => panic!("opcode {op}: expected UnknownOpcode, got {other:?}"),
            }
        }
        // Label count disagrees with the matrix rows.
        let mut w = Writer::new();
        w.put_u8(opcode::LEARN);
        w.put_str("m");
        WireMatrix::from_rows(&[&[0.0, 1.0]]).encode(&mut w);
        w.put_u32_slice(&[0, 1, 1]);
        match Request::decode(w.as_bytes()) {
            Err(ServeError::BadRequest(_)) => {}
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // Truncated payload.
        let payload = Request::Stats {
            tenant: "tenant-with-a-name".to_string(),
        }
        .encode();
        match Request::decode(&payload[..payload.len() - 3]) {
            Err(ServeError::BadRequest(_)) => {}
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // Trailing garbage.
        let mut payload = Request::Stats {
            tenant: "m".to_string(),
        }
        .encode();
        payload.push(0xFF);
        match Request::decode(&payload) {
            Err(ServeError::BadRequest(_)) => {}
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // A matrix with a forged column count.
        let mut w = Writer::new();
        w.put_u8(opcode::PREDICT);
        w.put_str("m");
        w.put_usize(MAX_COLS + 1);
        w.put_f64_slice(&[0.0]);
        match Request::decode(w.as_bytes()) {
            Err(ServeError::BadRequest(_)) => {}
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn frame_round_trip_and_header_hostility() {
        let payload = Request::Stats {
            tenant: "m".to_string(),
        }
        .encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        let mut cursor = io::Cursor::new(buf.clone());
        match read_frame(&mut cursor).expect("read") {
            FrameRead::Payload(read) => assert_eq!(read, payload),
            FrameRead::Eof => panic!("unexpected EOF"),
        }
        // Clean EOF between frames.
        match read_frame(&mut cursor).expect("read") {
            FrameRead::Eof => {}
            other => panic!("expected EOF, got {other:?}"),
        }
        // Bad magic: header-level, sync lost.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        match read_frame(&mut io::Cursor::new(bad)) {
            Err(FrameIssue::Header(_)) => {}
            other => panic!("expected Header issue, got {other:?}"),
        }
        // Forged length: header-level.
        let mut bad = buf.clone();
        bad[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        match read_frame(&mut io::Cursor::new(bad)) {
            Err(FrameIssue::Header(_)) => {}
            other => panic!("expected Header issue, got {other:?}"),
        }
        // Payload bit flip: CRC catches it, sync kept.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        match read_frame(&mut io::Cursor::new(bad)) {
            Err(FrameIssue::Payload(_)) => {}
            other => panic!("expected Payload issue, got {other:?}"),
        }
        // Truncation mid-payload: the connection is gone.
        let mut bad = buf;
        bad.truncate(bad.len() - 2);
        match read_frame(&mut io::Cursor::new(bad)) {
            Err(FrameIssue::Io(_)) => {}
            other => panic!("expected Io issue, got {other:?}"),
        }
    }
}
