//! The typed error surface of the serving plane.
//!
//! Every failure a request can hit — hostile frames, malformed bodies,
//! unknown opcodes, unknown tenants, rejected batches — maps onto one
//! [`ServeError`] variant with a stable wire code, so a client can match on
//! the *kind* of failure without parsing messages, and the fuzz battery can
//! assert that no hostile input ever produces anything but one of these.
//!
//! Codes are never reused. Codes 6 (duplicate tenant), 8 (checkpoint
//! unsupported), 9 (checkpoint failed) and 10 (schema mismatch) are
//! reserved, because no opcode registers, checkpoints or swaps a tenant; a
//! client decodes each as a typed [`ServeError::BadResponse`].

use dmt::registry::RegistryError;

/// Why a serve request failed. Transported on the wire as a stable one-byte
/// code plus a human-readable message; see [`ServeError::code`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The frame envelope was corrupt but framing sync survived (CRC
    /// mismatch, trailing bytes): the server answered and the connection
    /// stays usable.
    BadFrame(String),
    /// The frame *header* was corrupt (bad magic, version skew, forged
    /// length): framing sync is lost, the server answers this error and then
    /// closes the connection.
    BadHeader(String),
    /// The request payload decoded to garbage (truncated body, label/row
    /// mismatch, forged matrix geometry).
    BadRequest(String),
    /// The request carried an opcode this server does not speak.
    UnknownOpcode(u8),
    /// No tenant with the requested name.
    UnknownTenant(String),
    /// The model rejected the batch (shape, non-finite values, label range);
    /// the tenant is untouched and keeps serving.
    RejectedBatch(String),
    /// A response payload decoded to garbage (client side only — a server
    /// never emits this code).
    BadResponse(String),
}

impl ServeError {
    /// The stable one-byte wire code of this variant.
    pub fn code(&self) -> u8 {
        match self {
            ServeError::BadFrame(_) => 1,
            ServeError::BadHeader(_) => 2,
            ServeError::BadRequest(_) => 3,
            ServeError::UnknownOpcode(_) => 4,
            ServeError::UnknownTenant(_) => 5,
            // 6 is reserved (see the module docs).
            ServeError::RejectedBatch(_) => 7,
            // 8, 9 and 10 are reserved (see the module docs).
            ServeError::BadResponse(_) => 11,
        }
    }

    /// The raw message that travels beside the wire code (no variant prefix
    /// — [`std::fmt::Display`] adds that). For [`ServeError::UnknownOpcode`]
    /// it is the opcode in decimal.
    pub fn message(&self) -> String {
        match self {
            ServeError::UnknownOpcode(op) => op.to_string(),
            ServeError::BadFrame(m)
            | ServeError::BadHeader(m)
            | ServeError::BadRequest(m)
            | ServeError::UnknownTenant(m)
            | ServeError::RejectedBatch(m)
            | ServeError::BadResponse(m) => m.clone(),
        }
    }

    /// Rebuild a variant from its wire code and message (the client side of
    /// [`ServeError::code`]). Unknown codes, the reserved codes 6, 8, 9 and
    /// 10 among them, collapse to [`ServeError::BadResponse`] — a server
    /// speaking a newer or an older error vocabulary still yields a typed
    /// error, not a panic.
    pub fn from_code(code: u8, message: String) -> Self {
        match code {
            1 => ServeError::BadFrame(message),
            2 => ServeError::BadHeader(message),
            3 => ServeError::BadRequest(message),
            4 => ServeError::UnknownOpcode(message.parse().unwrap_or(u8::MAX)),
            5 => ServeError::UnknownTenant(message),
            7 => ServeError::RejectedBatch(message),
            11 => ServeError::BadResponse(message),
            other => ServeError::BadResponse(format!("unknown error code {other}: {message}")),
        }
    }

    /// Whether the server closes the connection after answering this error
    /// (only header-level corruption does — framing sync is lost and the
    /// next frame boundary cannot be found; see the
    /// [protocol docs](crate::protocol)).
    pub fn closes_connection(&self) -> bool {
        matches!(self, ServeError::BadHeader(_))
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadFrame(m) => write!(f, "bad frame: {m}"),
            ServeError::BadHeader(m) => write!(f, "bad frame header: {m}"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::UnknownOpcode(op) => write!(f, "unknown opcode {op}"),
            ServeError::UnknownTenant(m) => write!(f, "unknown tenant: {m}"),
            ServeError::RejectedBatch(m) => write!(f, "rejected batch: {m}"),
            ServeError::BadResponse(m) => write!(f, "bad response: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RegistryError> for ServeError {
    fn from(e: RegistryError) -> Self {
        match e {
            RegistryError::UnknownTenant(name) => ServeError::UnknownTenant(name),
            RegistryError::Model(err) => ServeError::RejectedBatch(err.to_string()),
            // No opcode registers, checkpoints or swaps a tenant, so these
            // arms are reachable only from in-process callers.
            RegistryError::DuplicateTenant(_)
            | RegistryError::UnsupportedKind(_)
            | RegistryError::Checkpoint(_)
            | RegistryError::SchemaMismatch { .. } => ServeError::BadRequest(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt::zoo::ModelKind;
    use dmt_core::SnapshotError;

    #[test]
    fn codes_round_trip_for_every_variant() {
        let variants = [
            ServeError::BadFrame("m".into()),
            ServeError::BadHeader("m".into()),
            ServeError::BadRequest("m".into()),
            ServeError::UnknownTenant("m".into()),
            ServeError::RejectedBatch("m".into()),
            ServeError::BadResponse("m".into()),
        ];
        for variant in variants {
            let rebuilt = ServeError::from_code(variant.code(), "m".into());
            assert_eq!(rebuilt.code(), variant.code());
            assert_eq!(rebuilt, variant);
        }
        // Opcode round-trips through its decimal message.
        let original = ServeError::UnknownOpcode(9);
        let rebuilt = ServeError::from_code(original.code(), original.message());
        assert_eq!(rebuilt, original);
        // Unknown future codes, and the reserved codes 6, 8, 9 and 10,
        // degrade to a typed BadResponse.
        for code in [6, 8, 9, 10, 200] {
            assert!(matches!(
                ServeError::from_code(code, "???".into()),
                ServeError::BadResponse(_)
            ));
        }
    }

    #[test]
    fn registry_errors_map_onto_typed_wire_errors() {
        // Errors only in-process callers can hit are BadRequest.
        for in_process in [
            RegistryError::DuplicateTenant("m".to_string()),
            RegistryError::UnsupportedKind(ModelKind::HtAda),
            RegistryError::Checkpoint(SnapshotError::Invalid("forged".to_string())),
            RegistryError::SchemaMismatch {
                expected: "2 features / 2 classes".to_string(),
                found: "5 features / 3 classes".to_string(),
            },
        ] {
            let mapped: ServeError = in_process.into();
            assert!(matches!(mapped, ServeError::BadRequest(_)), "{mapped:?}");
        }
        let unknown: ServeError = RegistryError::UnknownTenant("ghost".to_string()).into();
        assert!(matches!(unknown, ServeError::UnknownTenant(_)));
    }

    #[test]
    fn only_header_errors_close_the_connection() {
        assert!(ServeError::BadHeader("m".into()).closes_connection());
        for survivable in [
            ServeError::BadFrame("m".into()),
            ServeError::BadRequest("m".into()),
            ServeError::UnknownTenant("m".into()),
            ServeError::RejectedBatch("m".into()),
        ] {
            assert!(!survivable.closes_connection(), "{survivable:?}");
        }
    }
}
