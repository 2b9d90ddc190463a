//! Crash-safe snapshots of a [`DynamicModelTree`].
//!
//! A snapshot captures the *complete* learning state — configuration, stream
//! schema, the arena's SoA columns (split keys, child links, free list),
//! every node's GLM parameters, loss/gradient window and candidate pool, and
//! the structural decision log — so that a restored tree predicts
//! bit-identically to the saved one *and keeps learning identically*: the
//! save/load boundary is invisible to the stream.
//!
//! # Wire format
//!
//! A snapshot file is a fixed 24-byte header followed by one length-prefixed
//! payload:
//!
//! ```text
//! magic   8 bytes  b"DMTSNAP\0"
//! version u32 LE   SNAPSHOT_VERSION (readers reject other versions)
//! crc32   u32 LE   CRC-32 (IEEE) of the payload bytes
//! length  u64 LE   payload length in bytes
//! payload          config | schema | observations | root | arena | decisions
//! ```
//!
//! The payload uses the little-endian primitives of [`dmt_models::wire`]:
//! floats travel as raw IEEE-754 bits (`f64::to_bits`), so parameters
//! round-trip bit-exactly, and every variable-length section carries a length
//! prefix that is validated against the remaining bytes *before* any
//! allocation — a forged multi-gigabyte length fails with
//! [`SnapshotError::Truncated`] instead of an allocation attempt.
//!
//! # Recovery semantics
//!
//! * Writes are atomic: [`DynamicModelTree::save_snapshot`] writes to a
//!   staging sibling `<path>.<pid>.<seq>.tmp` that no other save shares,
//!   syncs, then renames over the target. A crash mid-save leaves the
//!   previous snapshot intact, and concurrent saves to one path never touch
//!   each other's staging file.
//! * Loads are total: every malformed input — truncation at any byte,
//!   bit flips (caught by the checksum), version skew, or a structurally
//!   forged payload — returns a typed [`SnapshotError`]; no input panics,
//!   loops or constructs an inconsistent tree. Decoded structure passes
//!   [`NodeArena::validate`] plus shape checks (model dimensions against the
//!   schema, split features in range) before a tree is handed back.
//! * The config record keeps two retired slots from builds whose tree could
//!   learn and predict on worker threads: a parallelism tag (0 = serial,
//!   1 = threaded plus a worker count) and a predict fan-out threshold. They
//!   are written as the constants a serial build always wrote, so snapshot
//!   bytes stay those of format version 2; decode checks the tag and drops
//!   both, so files saved by a threaded build still load.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dmt_models::wire::{Reader, Writer};
use dmt_models::{BatchMode, Glm, SimpleModel as _, WireError};
use dmt_stream::schema::{FeatureSpec, FeatureType, StreamSchema};

use crate::arena::{NodeArena, NodeId};
use crate::candidate::{CandidateKey, CandidatePool, SplitCandidate};
use crate::node::{GainDecision, NodeStats};
use crate::tree::{DmtConfig, DynamicModelTree};

/// File magic identifying a Dynamic Model Tree snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DMTSNAP\0";

/// Current snapshot format version; readers reject anything else with
/// [`SnapshotError::VersionSkew`]. Version 2 appended the optional
/// [`DmtConfig::memory_budget_bytes`] field to the config record.
pub const SNAPSHOT_VERSION: u32 = 2;

// The byte-level primitives crate sits below this one in the dependency
// stack and cannot import SNAPSHOT_VERSION, so it carries its own copy; the
// two must move in lockstep (dmt_lint's `version-skew` pass checks the
// literals, this guard checks the build).
const _: () = assert!(SNAPSHOT_VERSION == dmt_models::wire::WIRE_FORMAT_VERSION);

/// Byte length of the fixed snapshot header (magic, version, checksum,
/// payload length).
pub const SNAPSHOT_HEADER_LEN: usize = 24;

/// Why a snapshot could not be saved or restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The input does not start with [`SNAPSHOT_MAGIC`] — it is not a
    /// snapshot at all (or the header itself was destroyed).
    NotASnapshot,
    /// The snapshot was written by an incompatible format version.
    VersionSkew {
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The input ends before the announced data does (including forged
    /// length prefixes that exceed the actual payload).
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload bytes do not match the checksum in the header.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// The payload decodes but violates a structural or shape invariant
    /// (inconsistent arena links, model dimensions that contradict the
    /// schema, out-of-range split features, unknown tags, trailing bytes).
    Invalid(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::NotASnapshot => write!(f, "not a DMT snapshot (bad magic)"),
            SnapshotError::VersionSkew { found, supported } => {
                write!(f, "snapshot version {found}, this build supports {supported}")
            }
            SnapshotError::Truncated { needed, available } => {
                write!(f, "snapshot truncated: needed {needed} bytes, had {available}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: header says {stored:#010x}, payload is {computed:#010x}"
            ),
            SnapshotError::Invalid(msg) => write!(f, "invalid snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { needed, available } => {
                SnapshotError::Truncated { needed, available }
            }
            WireError::Invalid(msg) => SnapshotError::Invalid(msg),
        }
    }
}

fn invalid(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Invalid(msg.into())
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), hand-rolled: the build has no
// registry access, and 20 lines of table-driven CRC beat vendoring a crate.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data` — the checksum stored in every snapshot header.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Framing: header + checksum around an opaque payload. Public because the
// `dmt-serve` wire frames reuse the envelope.
// ---------------------------------------------------------------------------

/// Wrap `payload` in the snapshot envelope (magic, version, CRC-32, length).
pub fn seal_payload(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SNAPSHOT_HEADER_LEN + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate the snapshot envelope of `bytes` and return the payload slice.
///
/// Checks, in order: header completeness, magic, version, announced length
/// against the actual byte count (both directions — trailing garbage is
/// rejected too), and the CRC-32 checksum.
pub fn open_payload(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < SNAPSHOT_HEADER_LEN {
        return Err(SnapshotError::Truncated {
            needed: SNAPSHOT_HEADER_LEN,
            available: bytes.len(),
        });
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::NotASnapshot);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::VersionSkew {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let stored = u32::from_le_bytes(bytes[12..16].try_into().expect("4 header bytes"));
    let length = u64::from_le_bytes(bytes[16..24].try_into().expect("8 header bytes"));
    let available = bytes.len() - SNAPSHOT_HEADER_LEN;
    let length = usize::try_from(length).map_err(|_| SnapshotError::Truncated {
        needed: usize::MAX,
        available,
    })?;
    if length > available {
        return Err(SnapshotError::Truncated {
            // Saturating: a forged length near `u64::MAX` must not overflow
            // the addition while being reported.
            needed: SNAPSHOT_HEADER_LEN.saturating_add(length),
            available: bytes.len(),
        });
    }
    if length < available {
        return Err(invalid(format!(
            "{} trailing bytes after the announced payload",
            available - length
        )));
    }
    let payload = &bytes[SNAPSHOT_HEADER_LEN..];
    let computed = crc32(payload);
    if computed != stored {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Payload codec: config, schema, arena, node payloads, decision log.
// ---------------------------------------------------------------------------

/// Value written into the config record's retired predict fan-out threshold
/// slot (the default every serial build wrote; see the module docs).
const RETIRED_PREDICT_THRESHOLD: usize = 512;

fn encode_config(c: &DmtConfig, w: &mut Writer) {
    w.put_f64(c.learning_rate);
    w.put_f64(c.epsilon);
    w.put_bool(c.use_aic_threshold);
    w.put_usize(c.candidate_factor);
    w.put_f64(c.replacement_rate);
    w.put_u64(c.min_observations_split);
    w.put_u64(c.seed);
    match c.batch_mode {
        BatchMode::Deterministic => w.put_u8(0),
        BatchMode::Batched { window } => {
            w.put_u8(1);
            w.put_usize(window);
        }
    }
    // Retired slots: serial parallelism tag, then the fan-out threshold.
    w.put_u8(0);
    w.put_usize(RETIRED_PREDICT_THRESHOLD);
    match c.memory_budget_bytes {
        None => w.put_u8(0),
        Some(budget) => {
            w.put_u8(1);
            w.put_usize(budget);
        }
    }
}

/// Generous sanity cap on `candidate_factor`: the per-node candidate pool is
/// `factor × m`, so anything beyond this is a forged config that would only
/// serve to make the first batch allocate absurdly.
const MAX_CANDIDATE_FACTOR: usize = 1 << 20;

fn decode_config(r: &mut Reader<'_>) -> Result<DmtConfig, SnapshotError> {
    let learning_rate = r.get_f64()?;
    let epsilon = r.get_f64()?;
    let use_aic_threshold = r.get_bool()?;
    let candidate_factor = r.get_usize()?;
    let replacement_rate = r.get_f64()?;
    let min_observations_split = r.get_u64()?;
    let seed = r.get_u64()?;
    let batch_mode = match r.get_u8()? {
        0 => BatchMode::Deterministic,
        1 => BatchMode::Batched {
            window: r.get_usize()?,
        },
        tag => return Err(invalid(format!("unknown batch mode tag {tag}"))),
    };
    // Retired slots (module docs): a threaded build wrote tag 1 and its
    // worker count; both tags load as the same serial tree.
    match r.get_u8()? {
        0 => {}
        1 => {
            r.get_usize()?;
        }
        tag => return Err(invalid(format!("unknown parallelism tag {tag}"))),
    }
    r.get_usize()?;
    let memory_budget_bytes = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_usize()?),
        tag => return Err(invalid(format!("unknown memory budget tag {tag}"))),
    };
    if !learning_rate.is_finite() || !epsilon.is_finite() || !replacement_rate.is_finite() {
        return Err(invalid("config contains non-finite hyperparameters"));
    }
    // The AIC threshold of eq. (11) asserts ε ∈ (0, 1] on the first
    // structural check, so a forged ε must fail here, not panic there.
    if epsilon <= 0.0 || epsilon > 1.0 {
        return Err(invalid(format!("epsilon {epsilon} lies outside (0, 1]")));
    }
    if candidate_factor > MAX_CANDIDATE_FACTOR {
        return Err(invalid(format!(
            "candidate factor {candidate_factor} is implausibly large"
        )));
    }
    Ok(DmtConfig {
        learning_rate,
        epsilon,
        use_aic_threshold,
        candidate_factor,
        replacement_rate,
        min_observations_split,
        seed,
        batch_mode,
        memory_budget_bytes,
    })
}

/// Serialise a [`StreamSchema`] through `w`; the inverse of
/// [`decode_schema`].
fn encode_schema(s: &StreamSchema, w: &mut Writer) {
    w.put_str(&s.name);
    w.put_usize(s.num_classes);
    w.put_usize(s.features.len());
    for feature in &s.features {
        w.put_str(&feature.name);
        match feature.feature_type {
            FeatureType::Numeric => w.put_u8(0),
            FeatureType::Nominal { cardinality } => {
                w.put_u8(1);
                w.put_usize(cardinality);
            }
        }
    }
}

/// Reconstruct a [`StreamSchema`] from [`encode_schema`] output, validating
/// the class count and every feature type tag.
fn decode_schema(r: &mut Reader<'_>) -> Result<StreamSchema, SnapshotError> {
    let name = r.get_str()?;
    let num_classes = r.get_usize()?;
    if num_classes < 2 {
        return Err(invalid(format!(
            "schema announces {num_classes} classes, a classifier needs at least 2"
        )));
    }
    let count = r.get_usize()?;
    let mut features = Vec::new();
    for _ in 0..count {
        let name = r.get_str()?;
        let feature_type = match r.get_u8()? {
            0 => FeatureType::Numeric,
            1 => FeatureType::Nominal {
                cardinality: r.get_usize()?,
            },
            tag => return Err(invalid(format!("unknown feature type tag {tag}"))),
        };
        features.push(FeatureSpec { name, feature_type });
    }
    Ok(StreamSchema::new(name, features, num_classes))
}

fn encode_candidate(c: &SplitCandidate, grad: &[f64], w: &mut Writer) {
    w.put_usize(c.key.feature);
    w.put_f64(c.key.value);
    w.put_bool(c.key.is_nominal);
    w.put_f64(c.loss_sum);
    w.put_f64_slice(grad);
    w.put_u64(c.count);
    w.put_f64(c.last_gain);
}

/// Smallest encoding of a candidate besides its gradient entries: feature,
/// value, nominal flag, loss sum, gradient length, count and last gain.
const CANDIDATE_FIXED_BYTES: usize = 8 + 8 + 1 + 8 + 8 + 8 + 8;

/// Decode one candidate, its gradient read into `grad`.
fn decode_candidate(
    r: &mut Reader<'_>,
    num_features: usize,
    num_params: usize,
    grad: &mut Vec<f64>,
) -> Result<SplitCandidate, SnapshotError> {
    let feature = r.get_usize()?;
    let value = r.get_f64()?;
    let is_nominal = r.get_bool()?;
    let loss_sum = r.get_f64()?;
    grad.clear();
    for _ in 0..r.get_len(8)? {
        grad.push(r.get_f64()?);
    }
    let count = r.get_u64()?;
    let last_gain = r.get_f64()?;
    if feature >= num_features {
        return Err(invalid(format!(
            "split candidate tests feature {feature}, schema has {num_features}"
        )));
    }
    if grad.len() != num_params {
        return Err(invalid(format!(
            "candidate gradient has {} entries, model has {num_params} parameters",
            grad.len()
        )));
    }
    Ok(SplitCandidate {
        key: CandidateKey {
            feature,
            value,
            is_nominal,
        },
        loss_sum,
        count,
        last_gain,
    })
}

fn encode_stats(stats: &NodeStats, w: &mut Writer) {
    stats.model.encode(w);
    w.put_f64(stats.loss_sum);
    w.put_f64_slice(&stats.grad_sum);
    w.put_u64(stats.count);
    w.put_usize(stats.candidates.len());
    for (row, candidate) in stats.candidates.iter().enumerate() {
        encode_candidate(candidate, stats.candidates.grad(row), w);
    }
}

/// Decode one node payload, reading candidate gradients through `grad`.
fn decode_stats(
    r: &mut Reader<'_>,
    num_features: usize,
    num_classes: usize,
    grad: &mut Vec<f64>,
) -> Result<NodeStats, SnapshotError> {
    let model = Glm::decode(r)?;
    if model.num_features() != num_features || model.num_classes() != num_classes {
        return Err(invalid(format!(
            "node model has shape {}×{}, schema requires {num_features}×{num_classes}",
            model.num_features(),
            model.num_classes(),
        )));
    }
    let num_params = model.num_params();
    let loss_sum = r.get_f64()?;
    let grad_sum = r.get_f64_vec()?;
    if grad_sum.len() != num_params {
        return Err(invalid(format!(
            "node gradient has {} entries, model has {num_params} parameters",
            grad_sum.len()
        )));
    }
    let count = r.get_u64()?;
    // The announced count is checked against the bytes left before the pool
    // reserves it, so a forged count fails without reserving memory.
    let candidate_count = r.get_len(CANDIDATE_FIXED_BYTES + 8 * num_params)?;
    let mut candidates = CandidatePool::new(num_params);
    candidates.reserve_rows(candidate_count);
    for _ in 0..candidate_count {
        let candidate = decode_candidate(r, num_features, num_params, grad)?;
        candidates.push_row(candidate, grad);
    }
    Ok(NodeStats {
        model,
        loss_sum,
        grad_sum,
        count,
        candidates,
    })
}

/// Sentinel matching the arena's internal leaf marker.
const NONE: u32 = u32::MAX;

fn encode_arena(arena: &NodeArena, w: &mut Writer) {
    let (split_feature, split_value, split_nominal, left, right, free) = arena.snapshot_columns();
    let stats = arena.stats_column();
    w.put_usize(stats.len());
    w.put_u32_slice(split_feature);
    w.put_f64_slice(split_value);
    let nominal_bytes: Vec<u8> = split_nominal.iter().map(|&b| u8::from(b)).collect();
    w.put_bytes(&nominal_bytes);
    w.put_u32_slice(left);
    w.put_u32_slice(right);
    w.put_u32_slice(free);
    // Free-listed slots hold placeholder payloads that are never read (the
    // allocator overwrites a slot before reuse), so each is written as an
    // explicit "absent" marker and restored as a placeholder.
    let mut is_free = vec![false; stats.len()];
    for &slot in free {
        is_free[slot as usize] = true;
    }
    for (slot, stats) in stats.iter().enumerate() {
        if is_free[slot] {
            w.put_u8(0);
        } else {
            w.put_u8(1);
            encode_stats(stats, w);
        }
    }
}

fn decode_arena(
    r: &mut Reader<'_>,
    num_features: usize,
    num_classes: usize,
) -> Result<NodeArena, SnapshotError> {
    let slots = r.get_usize()?;
    let split_feature = r.get_u32_vec()?;
    let split_value = r.get_f64_vec()?;
    let nominal_bytes = r.get_bytes()?;
    let mut split_nominal = Vec::with_capacity(nominal_bytes.len());
    for &b in nominal_bytes {
        match b {
            0 => split_nominal.push(false),
            1 => split_nominal.push(true),
            _ => return Err(invalid(format!("invalid split kind byte {b}"))),
        }
    }
    let left = r.get_u32_vec()?;
    let right = r.get_u32_vec()?;
    let free = r.get_u32_vec()?;
    if split_feature.len() != slots
        || split_value.len() != slots
        || split_nominal.len() != slots
        || left.len() != slots
        || right.len() != slots
    {
        return Err(invalid(format!(
            "arena announces {slots} slots but its columns disagree"
        )));
    }
    let mut is_free = vec![false; slots];
    for &slot in &free {
        let i = slot as usize;
        if i >= slots {
            return Err(invalid(format!("free slot {slot} out of bounds")));
        }
        is_free[i] = true;
    }
    let mut stats = Vec::with_capacity(slots.min(r.remaining()));
    let mut grad = Vec::new();
    for (slot, &freed) in is_free.iter().enumerate() {
        let present = match r.get_u8()? {
            0 => false,
            1 => true,
            tag => return Err(invalid(format!("invalid payload marker {tag}"))),
        };
        if present == freed {
            return Err(invalid(format!(
                "slot {slot} is {} but its payload is {}",
                if freed { "free" } else { "live" },
                if present { "present" } else { "absent" },
            )));
        }
        if present {
            stats.push(decode_stats(r, num_features, num_classes, &mut grad)?);
        } else {
            stats.push(NodeStats::placeholder());
        }
    }
    NodeArena::from_columns(
        split_feature,
        split_value,
        split_nominal,
        left,
        right,
        stats,
        free,
    )
    .map_err(SnapshotError::Invalid)
}

fn encode_decision(d: &GainDecision, w: &mut Writer) {
    match d {
        GainDecision::Keep => w.put_u8(0),
        GainDecision::Split { key, gain } => {
            w.put_u8(1);
            encode_key(key, w);
            w.put_f64(*gain);
        }
        GainDecision::Replace { key, gain } => {
            w.put_u8(2);
            encode_key(key, w);
            w.put_f64(*gain);
        }
        GainDecision::Prune { gain } => {
            w.put_u8(3);
            w.put_f64(*gain);
        }
    }
}

fn encode_key(key: &CandidateKey, w: &mut Writer) {
    w.put_usize(key.feature);
    w.put_f64(key.value);
    w.put_bool(key.is_nominal);
}

fn decode_key(r: &mut Reader<'_>) -> Result<CandidateKey, SnapshotError> {
    Ok(CandidateKey {
        feature: r.get_usize()?,
        value: r.get_f64()?,
        is_nominal: r.get_bool()?,
    })
}

fn decode_decision(r: &mut Reader<'_>) -> Result<GainDecision, SnapshotError> {
    match r.get_u8()? {
        0 => Ok(GainDecision::Keep),
        1 => Ok(GainDecision::Split {
            key: decode_key(r)?,
            gain: r.get_f64()?,
        }),
        2 => Ok(GainDecision::Replace {
            key: decode_key(r)?,
            gain: r.get_f64()?,
        }),
        3 => Ok(GainDecision::Prune { gain: r.get_f64()? }),
        tag => Err(invalid(format!("unknown decision tag {tag}"))),
    }
}

/// Numbers the staging files of this process's saves; with the process id it
/// makes each staging name unique. The counter publishes no other data, so
/// `Relaxed` suffices: `fetch_add` alone hands every save its own value.
static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Create and open a new staging file `<path>.<pid>.<seq>.tmp` beside `path`.
///
/// `create_new` refuses a name that already exists, so no two writers, in
/// this process or another, ever share a staging file; a name taken by a file
/// a crashed process left behind is skipped for the next sequence number.
fn create_staging_file(path: &Path) -> std::io::Result<(PathBuf, File)> {
    loop {
        let mut name = path.as_os_str().to_owned();
        let seq = SAVE_SEQ.fetch_add(1, Ordering::Relaxed);
        name.push(format!(".{}.{seq}.tmp", std::process::id()));
        let tmp = PathBuf::from(name);
        match File::options().write(true).create_new(true).open(&tmp) {
            Ok(file) => return Ok((tmp, file)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

impl DynamicModelTree {
    /// Serialise the complete model state into the snapshot wire format
    /// (header, checksum and payload — see the [module docs](self)).
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        encode_config(self.config(), &mut w);
        encode_schema(self.schema(), &mut w);
        w.put_u64(self.observations());
        w.put_u32(self.root_id().index() as u32);
        encode_arena(self.arena(), &mut w);
        let decisions = self.decision_log();
        w.put_usize(decisions.len());
        for (obs, decision) in decisions {
            w.put_u64(*obs);
            encode_decision(decision, &mut w);
        }
        seal_payload(w.as_bytes())
    }

    /// Reconstruct a tree from [`DynamicModelTree::to_snapshot_bytes`]
    /// output.
    ///
    /// Every way the input can be malformed — truncation, bit flips, version
    /// skew, forged lengths or structure — returns a typed
    /// [`SnapshotError`]; this function never panics on untrusted bytes. The
    /// decoded arena must pass [`NodeArena::validate`] and every node model
    /// must match the decoded schema, so a hostile file can never produce a
    /// structurally inconsistent tree.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = open_payload(bytes)?;
        let mut r = Reader::new(payload);
        let config = decode_config(&mut r)?;
        let schema = decode_schema(&mut r)?;
        let observations = r.get_u64()?;
        let root_raw = r.get_u32()?;
        let arena = decode_arena(&mut r, schema.num_features(), schema.num_classes)?;
        if root_raw == NONE || root_raw as usize >= arena.num_slots() {
            return Err(invalid(format!(
                "root id {root_raw} out of bounds ({} slots)",
                arena.num_slots()
            )));
        }
        let root = NodeId::from_raw(root_raw);
        let decision_count = r.get_usize()?;
        let mut decisions = Vec::new();
        for _ in 0..decision_count {
            let obs = r.get_u64()?;
            decisions.push((obs, decode_decision(&mut r)?));
        }
        r.expect_end()?;
        arena.validate(root).map_err(SnapshotError::Invalid)?;
        // `validate` pins the link structure; what remains is the routing
        // shape: every reachable inner node must test a feature the schema
        // actually has, or the first descent would index out of bounds.
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if let Some((l, r)) = arena.children(id) {
                let key = arena.split_key(id);
                if key.feature >= schema.num_features() {
                    return Err(invalid(format!(
                        "inner node {} splits on feature {}, schema has {}",
                        id.index(),
                        key.feature,
                        schema.num_features()
                    )));
                }
                stack.push(l);
                stack.push(r);
            }
        }
        Ok(DynamicModelTree::from_snapshot_parts(
            config,
            schema,
            arena,
            root,
            observations,
            decisions,
        ))
    }

    /// Atomically save the model to `path`: the snapshot is written to a
    /// staging file `<path>.<pid>.<seq>.tmp` that no other save shares,
    /// synced, and renamed over the target. A crash mid-save leaves any
    /// previous snapshot at `path` intact, and concurrent saves to one path
    /// each rename a complete file, so the last rename wins whole.
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        let bytes = self.to_snapshot_bytes();
        let path = path.as_ref();
        let (tmp, mut file) = create_staging_file(path)?;
        let result = (|| -> std::io::Result<()> {
            file.write_all(&bytes)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result.map_err(SnapshotError::Io)
    }

    /// Load a model previously saved with
    /// [`DynamicModelTree::save_snapshot`]. See
    /// [`DynamicModelTree::from_snapshot_bytes`] for the validation
    /// semantics.
    pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::from_snapshot_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_models::OnlineClassifier;

    fn trained_tree() -> DynamicModelTree {
        let schema = StreamSchema::numeric("snap", 2, 2);
        let mut tree = DynamicModelTree::new(schema, DmtConfig::default());
        for round in 0..60 {
            let xs: Vec<Vec<f64>> = (0..32)
                .map(|i| {
                    let v = ((round * 32 + i) % 64) as f64 / 64.0;
                    vec![v, 1.0 - v]
                })
                .collect();
            let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.6)).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            tree.learn_batch(&rows, &ys);
        }
        tree
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Re-seal the snapshot `bytes` of a tree configured by `config` with
    /// the retired parallelism tag byte replaced by `slot`.
    fn with_parallelism_slot(bytes: &[u8], config: &DmtConfig, slot: &[u8]) -> Vec<u8> {
        let payload = open_payload(bytes).unwrap();
        let mut w = Writer::new();
        encode_config(config, &mut w);
        // The config record ends with the tag, the 8-byte threshold and the
        // 1-byte tag of an absent memory budget.
        let tag = w.as_bytes().len() - 10;
        assert_eq!(payload[tag], 0);
        assert_eq!(payload[tag + 1..tag + 9], 512u64.to_le_bytes());
        let mut forged = payload[..tag].to_vec();
        forged.extend_from_slice(slot);
        forged.extend_from_slice(&payload[tag + 1..]);
        seal_payload(&forged)
    }

    #[test]
    fn round_trip_preserves_structure_and_predictions() {
        let tree = trained_tree();
        let bytes = tree.to_snapshot_bytes();
        // An older build whose tree learned on worker threads wrote tag 1
        // and its worker count into the retired slot: it loads as the same
        // tree and re-saves with tag 0.
        let mut threaded_slot = vec![1u8];
        threaded_slot.extend_from_slice(&4u64.to_le_bytes());
        let threaded = with_parallelism_slot(&bytes, tree.config(), &threaded_slot);
        for input in [&bytes, &threaded] {
            let restored = DynamicModelTree::from_snapshot_bytes(input).unwrap();
            assert_eq!(restored.to_snapshot_bytes(), bytes);
            assert_eq!(restored.observations(), tree.observations());
            assert_eq!(restored.num_inner_nodes(), tree.num_inner_nodes());
            assert_eq!(restored.num_leaves(), tree.num_leaves());
            assert_eq!(restored.arena().num_slots(), tree.arena().num_slots());
            assert_eq!(restored.arena().num_free(), tree.arena().num_free());
            assert_eq!(restored.decision_log(), tree.decision_log());
            restored.arena().validate(restored.root_id()).unwrap();
            for i in 0..50 {
                let x = [i as f64 / 50.0, 1.0 - i as f64 / 50.0];
                assert_eq!(restored.predict(&x), tree.predict(&x));
                for (a, b) in restored
                    .predict_proba(&x)
                    .iter()
                    .zip(tree.predict_proba(&x).iter())
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "probabilities must be bit-identical"
                    );
                }
            }
        }
        let unknown = with_parallelism_slot(&bytes, tree.config(), &[2]);
        assert!(matches!(
            DynamicModelTree::from_snapshot_bytes(&unknown),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn restored_tree_keeps_learning_identically() {
        let mut original = trained_tree();
        let mut restored =
            DynamicModelTree::from_snapshot_bytes(&original.to_snapshot_bytes()).unwrap();
        for round in 0..20 {
            let xs: Vec<Vec<f64>> = (0..16)
                .map(|i| {
                    let v = ((round * 16 + i) % 48) as f64 / 48.0;
                    vec![v, v * v]
                })
                .collect();
            let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[1] > 0.25)).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            original.learn_batch(&rows, &ys);
            restored.learn_batch(&rows, &ys);
        }
        assert_eq!(original.to_snapshot_bytes(), restored.to_snapshot_bytes());
    }

    #[test]
    fn truncation_at_every_prefix_is_a_typed_error() {
        let bytes = trained_tree().to_snapshot_bytes();
        // Every strict prefix must fail loudly; step 7 keeps the test fast.
        for len in (0..bytes.len()).step_by(7) {
            let err = DynamicModelTree::from_snapshot_bytes(&bytes[..len])
                .err()
                .unwrap_or_else(|| panic!("prefix of {len} bytes decoded successfully"));
            assert!(
                !matches!(err, SnapshotError::Io(_)),
                "truncation must not be an io error"
            );
        }
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let bytes = trained_tree().to_snapshot_bytes();
        for &pos in &[SNAPSHOT_HEADER_LEN, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x40;
            assert!(
                matches!(
                    DynamicModelTree::from_snapshot_bytes(&corrupted),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "payload flip at byte {pos} must fail the checksum"
            );
        }
    }

    #[test]
    fn header_corruption_yields_the_matching_error() {
        let bytes = trained_tree().to_snapshot_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            DynamicModelTree::from_snapshot_bytes(&bad_magic),
            Err(SnapshotError::NotASnapshot)
        ));

        let mut skewed = bytes.clone();
        skewed[8] = 99;
        assert!(matches!(
            DynamicModelTree::from_snapshot_bytes(&skewed),
            Err(SnapshotError::VersionSkew { found: 99, .. })
        ));

        let mut forged_length = bytes.clone();
        forged_length[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            DynamicModelTree::from_snapshot_bytes(&forged_length),
            Err(SnapshotError::Truncated { .. })
        ));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            DynamicModelTree::from_snapshot_bytes(&trailing),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let tree = trained_tree();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("dmt-snapshot-test-{}.dmt", std::process::id()));
        tree.save_snapshot(&path).unwrap();
        let restored = DynamicModelTree::load_snapshot(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(restored.to_snapshot_bytes(), tree.to_snapshot_bytes());
    }

    #[test]
    fn loading_a_missing_file_is_an_io_error() {
        let err = match DynamicModelTree::load_snapshot("/nonexistent/dmt.snapshot") {
            Ok(_) => panic!("loading a missing file must fail"),
            Err(e) => e,
        };
        assert!(matches!(err, SnapshotError::Io(_)));
    }
}
