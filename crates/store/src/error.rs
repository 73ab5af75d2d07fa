//! Store error type.

use std::fmt;

/// Errors surfaced by the durable store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A persisted graph payload failed to decode or revalidate.
    Graph(cx_graph::GraphError),
    /// A frame, record, snapshot or manifest failed structural decoding
    /// (bad magic, bad checksum, impossible length, truncated section).
    Corrupt(String),
    /// A snapshot or manifest was written in a format version this build
    /// does not read. Refusing loudly beats decoding garbage.
    UnsupportedVersion {
        /// The version found in the file header.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// Replaying a WAL record against the recovered state failed (e.g. an
    /// edit for a graph that does not exist at that point in the log).
    Replay(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Graph(e) => write!(f, "store graph payload error: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corruption: {m}"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "store format version {found} is not supported (this build reads version {supported})"
            ),
            StoreError::Replay(m) => write!(f, "WAL replay error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<cx_graph::codec::DecodeError> for StoreError {
    fn from(e: cx_graph::codec::DecodeError) -> Self {
        StoreError::Corrupt(e.to_string())
    }
}

impl From<cx_graph::GraphError> for StoreError {
    fn from(e: cx_graph::GraphError) -> Self {
        StoreError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let e = StoreError::UnsupportedVersion { found: 9, supported: 1 };
        assert!(e.to_string().contains('9'));
        assert!(StoreError::Corrupt("bad crc".into()).to_string().contains("bad crc"));
        let io: StoreError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
    }
}
