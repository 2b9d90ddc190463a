//! `dmt-serve` — the epoch-snapshot serving plane for concurrently-learning
//! Dynamic Model Trees.
//!
//! This crate turns the multi-tenant [`ModelRegistry`](dmt::registry) into a
//! network service: a hand-rolled, thread-per-core TCP request plane (no
//! async runtime) multiplexing many concurrent predict clients against
//! models that are learning at the same time.
//!
//! The three pieces:
//!
//! * [`protocol`] — a compact length-prefixed wire protocol of three
//!   requests (predict, learn, stats) whose frames reuse the sealed snapshot
//!   envelope of [`dmt_core::snapshot`] (magic, version, CRC-32), so hostile
//!   bytes on the wire hit the same hardened decoding path as hostile bytes
//!   on disk. No request names a server-side file: checkpoint and hot swap
//!   are [`ModelRegistry`](dmt::registry::ModelRegistry) methods for the
//!   process that owns the registry.
//! * [`server`] — [`DmtServer`]: worker threads each accepting on a clone of
//!   one listening socket, serving connections with blocking I/O. Predict
//!   requests answer from pinned epoch snapshots
//!   ([`dmt_core::epoch::EpochCell`]) and never contend with the writer.
//! * [`client`] — [`ServeClient`]: a blocking typed client, plus raw-byte
//!   hooks for the corruption-fuzz battery.
//!
//! Every failure mode is a typed [`ServeError`] with a stable wire code;
//! hostile frames yield error responses, never panics (pinned by the fuzz
//! suite in `tests/integration_serve.rs`).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod protocol;
pub mod server;

pub use client::{ClientError, ServeClient};
pub use error::ServeError;
pub use protocol::{Request, Response, WireMatrix};
pub use server::{DmtServer, ServeConfig};
