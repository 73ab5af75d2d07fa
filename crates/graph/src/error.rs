//! Error type shared by the graph substrate.

use std::fmt;

/// Errors produced while constructing, loading or persisting graphs.
#[derive(Debug)]
pub enum GraphError {
    /// A vertex id referenced an index outside the graph.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// The number of vertices the graph actually has.
        vertex_count: usize,
    },
    /// A vertex label was looked up but does not exist in the graph.
    UnknownLabel(String),
    /// A text file could not be parsed; carries line number and message.
    Parse {
        /// 1-based line number of the failure.
        line: usize,
        /// What went wrong on that line.
        message: String,
    },
    /// The binary snapshot was malformed or from an unknown version.
    Snapshot(String),
    /// The graph exceeds a substrate capacity bound (e.g. the u32 CSR
    /// offset space).
    Capacity(String),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, vertex_count } => {
                write!(f, "vertex id {vertex} out of range (graph has {vertex_count} vertices)")
            }
            GraphError::UnknownLabel(l) => write!(f, "no vertex labelled {l:?}"),
            GraphError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            GraphError::Snapshot(m) => write!(f, "invalid graph snapshot: {m}"),
            GraphError::Capacity(m) => write!(f, "graph capacity exceeded: {m}"),
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::codec::DecodeError> for GraphError {
    fn from(e: crate::codec::DecodeError) -> Self {
        GraphError::Snapshot(e.to_string())
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        let e = GraphError::VertexOutOfRange { vertex: 9, vertex_count: 3 };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("3 vertices"));
        assert!(GraphError::UnknownLabel("jim gray".into()).to_string().contains("jim gray"));
        assert!(GraphError::Parse { line: 7, message: "bad edge".into() }
            .to_string()
            .contains("line 7"));
    }

    #[test]
    fn io_errors_are_wrapped_with_source() {
        use std::error::Error;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = GraphError::from(io);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }
}
