//! The typed error surface of the serving plane.
//!
//! Every failure a request can hit — hostile frames, malformed bodies,
//! unknown tenants, rejected batches, broken snapshot files — maps onto one
//! [`ServeError`] variant with a stable wire code, so a client can match on
//! the *kind* of failure without parsing messages, and the fuzz battery can
//! assert that no hostile input ever produces anything but one of these.
//!
//! Codes are never reused. Code 8 once meant "checkpoint unsupported", for
//! registry tenants that were not Dynamic Model Trees; the registry serves
//! DMTs only, so the code is reserved and a client decodes it as a typed
//! [`ServeError::BadResponse`].

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
    /// A tenant with that name already exists.
    DuplicateTenant(String),
    /// The model rejected the batch (shape, non-finite values, label range);
    /// the tenant is untouched and keeps serving.
    RejectedBatch(String),
    /// Checkpoint or swap failed in the snapshot machinery (I/O, corruption,
    /// version skew, forged state).
    Checkpoint(String),
    /// A swapped-in snapshot disagrees with the tenant's registered schema.
    SchemaMismatch(String),
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
            ServeError::DuplicateTenant(_) => 6,
            ServeError::RejectedBatch(_) => 7,
            // 8 is reserved (see the module docs).
            ServeError::Checkpoint(_) => 9,
            ServeError::SchemaMismatch(_) => 10,
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
            | ServeError::DuplicateTenant(m)
            | ServeError::RejectedBatch(m)
            | ServeError::Checkpoint(m)
            | ServeError::SchemaMismatch(m)
            | ServeError::BadResponse(m) => m.clone(),
        }
    }

    /// Rebuild a variant from its wire code and message (the client side of
    /// [`ServeError::code`]). Unknown codes, the reserved code 8 among them,
    /// collapse to [`ServeError::BadResponse`] — a server speaking a newer
    /// or an older error vocabulary still yields a typed error, not a panic.
    pub fn from_code(code: u8, message: String) -> Self {
        match code {
            1 => ServeError::BadFrame(message),
            2 => ServeError::BadHeader(message),
            3 => ServeError::BadRequest(message),
            4 => ServeError::UnknownOpcode(message.parse().unwrap_or(u8::MAX)),
            5 => ServeError::UnknownTenant(message),
            6 => ServeError::DuplicateTenant(message),
            7 => ServeError::RejectedBatch(message),
            9 => ServeError::Checkpoint(message),
            10 => ServeError::SchemaMismatch(message),
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
            ServeError::DuplicateTenant(m) => write!(f, "duplicate tenant: {m}"),
            ServeError::RejectedBatch(m) => write!(f, "rejected batch: {m}"),
            ServeError::Checkpoint(m) => write!(f, "checkpoint failed: {m}"),
            ServeError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            ServeError::BadResponse(m) => write!(f, "bad response: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RegistryError> for ServeError {
    fn from(e: RegistryError) -> Self {
        match e {
            RegistryError::UnknownTenant(name) => ServeError::UnknownTenant(name),
            RegistryError::DuplicateTenant(name) => ServeError::DuplicateTenant(name),
            // No opcode registers a tenant, so this arm is reachable only
            // from in-process callers.
            RegistryError::UnsupportedKind(_) => ServeError::BadRequest(e.to_string()),
            RegistryError::Model(err) => ServeError::RejectedBatch(err.to_string()),
            RegistryError::Checkpoint(err) => ServeError::Checkpoint(err.to_string()),
            RegistryError::SchemaMismatch { expected, found } => {
                ServeError::SchemaMismatch(format!("tenant has {expected}, snapshot has {found}"))
            }
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
            ServeError::DuplicateTenant("m".into()),
            ServeError::RejectedBatch("m".into()),
            ServeError::Checkpoint("m".into()),
            ServeError::SchemaMismatch("m".into()),
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
        // Unknown future codes, and the reserved code 8, degrade to a typed
        // BadResponse.
        for code in [8, 200] {
            assert!(matches!(
                ServeError::from_code(code, "???".into()),
                ServeError::BadResponse(_)
            ));
        }
    }

    #[test]
    fn registry_errors_map_onto_typed_wire_errors() {
        let broken: ServeError =
            RegistryError::Checkpoint(SnapshotError::Invalid("forged".to_string())).into();
        assert!(matches!(broken, ServeError::Checkpoint(_)), "{broken:?}");
        let refused: ServeError = RegistryError::UnsupportedKind(ModelKind::HtAda).into();
        assert!(matches!(refused, ServeError::BadRequest(_)), "{refused:?}");
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
            ServeError::Checkpoint("m".into()),
        ] {
            assert!(!survivable.closes_connection(), "{survivable:?}");
        }
    }
}
