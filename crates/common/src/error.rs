//! Workspace-wide error type.

use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors surfaced by the Spec-QP engine and its substrates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A SPARQL-subset query failed to parse. Carries a human-readable
    /// message with position information.
    Parse(String),
    /// A query referenced a term that is not in the dictionary.
    UnknownTerm(String),
    /// A query is structurally invalid (e.g. empty, disconnected join graph,
    /// or no projected variable).
    InvalidQuery(String),
    /// A dataset/workload generator was configured inconsistently.
    InvalidConfig(String),
    /// A binary snapshot failed to load or validate. The payload says
    /// exactly how (truncation, bad magic, version skew, checksum, …).
    Snapshot(SnapshotError),
    /// Catch-all for internal invariant violations that should be reported
    /// as bugs rather than panicking in release builds.
    Internal(String),
}

/// Why a binary KG snapshot was rejected.
///
/// Every corruption mode a reader can detect maps to one variant, so tests
/// and callers can match on the exact failure instead of parsing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the structure it promised. `context`
    /// names the structure being read when the bytes ran out.
    Truncated {
        /// What was being read when the stream ended.
        context: String,
    },
    /// The first bytes are not the snapshot magic — not a snapshot file.
    BadMagic,
    /// The format version is not one this build can read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Highest version this reader supports.
        supported: u32,
    },
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum recomputed over the payload.
        actual: u64,
    },
    /// The structure decoded but violates an invariant (id out of range,
    /// inconsistent section lengths, duplicate dictionary term, …).
    Corrupt(String),
    /// An underlying I/O error while reading or writing the snapshot.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { context } => {
                write!(f, "truncated while reading {context}")
            }
            SnapshotError::BadMagic => write!(f, "bad magic (not a Spec-QP snapshot)"),
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported version {found} (this build reads <= {supported})"
                )
            }
            SnapshotError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch (file says {expected:#018x}, payload hashes to {actual:#018x})")
            }
            SnapshotError::Corrupt(m) => write!(f, "corrupt payload: {m}"),
            SnapshotError::Io(m) => write!(f, "i/o: {m}"),
        }
    }
}

impl From<SnapshotError> for Error {
    fn from(e: SnapshotError) -> Self {
        Error::Snapshot(e)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::UnknownTerm(t) => write!(f, "unknown term: {t}"),
            Error::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            Error::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            Error::Snapshot(e) => write!(f, "snapshot error: {e}"),
            Error::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(
            Error::Parse("bad token".into()).to_string(),
            "parse error: bad token"
        );
        assert_eq!(
            Error::UnknownTerm("<x>".into()).to_string(),
            "unknown term: <x>"
        );
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::Internal("x".into()));
    }

    #[test]
    fn snapshot_error_display_and_conversion() {
        let e: Error = SnapshotError::BadMagic.into();
        assert_eq!(
            e.to_string(),
            "snapshot error: bad magic (not a Spec-QP snapshot)"
        );
        let e: Error = SnapshotError::UnsupportedVersion {
            found: 9,
            supported: 1,
        }
        .into();
        assert!(e.to_string().contains("unsupported version 9"));
        let e: Error = SnapshotError::Truncated {
            context: "dictionary".into(),
        }
        .into();
        assert!(e.to_string().contains("truncated while reading dictionary"));
        let e: Error = SnapshotError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        }
        .into();
        assert!(e.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn snapshot_error_is_matchable() {
        let e: Error = SnapshotError::Corrupt("oops".into()).into();
        match e {
            Error::Snapshot(SnapshotError::Corrupt(m)) => assert_eq!(m, "oops"),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
