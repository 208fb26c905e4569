//! The error type shared across the workspace.

use std::fmt;

/// Errors surfaced by any `lsm-lab` crate.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure (file backend, WAL, manifest).
    Io(std::io::Error),
    /// On-disk or in-log data failed validation (bad checksum, truncated
    /// record, invalid discriminant).
    Corruption(String),
    /// A referenced file, key, or component does not exist.
    NotFound(String),
    /// The caller violated an API contract (e.g. unsorted bulk input,
    /// zero-sized buffer, invalid option combination).
    InvalidArgument(String),
    /// The database is shutting down and cannot accept the operation.
    ShuttingDown,
    /// A storage operation failed in a way that may succeed on retry
    /// (flaky device, injected fault). Background maintenance retries
    /// these with bounded backoff before surfacing them.
    Transient(String),
}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Corruption(msg) => write!(f, "corruption: {msg}"),
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::ShuttingDown => write!(f, "database is shutting down"),
            Error::Transient(msg) => write!(f, "transient storage error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// The same variant and message, so `is_transient()`/`is_corruption()`
/// answer alike for every holder, e.g. each member of a failed commit group
/// (`io::Error` is not `Clone`; its kind and text are kept).
impl Clone for Error {
    fn clone(&self) -> Self {
        match self {
            Error::Io(io) => Error::Io(std::io::Error::new(io.kind(), io.to_string())),
            Error::Corruption(msg) => Error::Corruption(msg.clone()),
            Error::NotFound(msg) => Error::NotFound(msg.clone()),
            Error::InvalidArgument(msg) => Error::InvalidArgument(msg.clone()),
            Error::ShuttingDown => Error::ShuttingDown,
            Error::Transient(msg) => Error::Transient(msg.clone()),
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl Error {
    /// Whether the error indicates data corruption (as opposed to an
    /// environmental or usage error).
    pub fn is_corruption(&self) -> bool {
        matches!(self, Error::Corruption(_))
    }

    /// Whether the error is worth retrying (a transient device hiccup as
    /// opposed to corruption, a missing file, or misuse).
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::Transient(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::Corruption("bad block".into());
        assert_eq!(e.to_string(), "corruption: bad block");
        assert!(e.is_corruption());
        let e = Error::NotFound("file 7".into());
        assert_eq!(e.to_string(), "not found: file 7");
    }

    #[test]
    fn io_error_conversion_preserves_source() {
        let io = std::io::Error::other("disk on fire");
        let e: Error = io.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("disk on fire"));
    }

    #[test]
    fn clone_keeps_the_variant_the_message_and_the_class() {
        let io = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow disk");
        for e in [
            Error::Io(io),
            Error::Transient("a".into()),
            Error::Corruption("b".into()),
        ] {
            let c = e.clone();
            assert_eq!(std::mem::discriminant(&c), std::mem::discriminant(&e));
            assert_eq!(
                (c.to_string(), c.is_transient()),
                (e.to_string(), e.is_transient())
            );
            assert_eq!(c.is_corruption(), e.is_corruption());
            if let (Error::Io(c), Error::Io(e)) = (&c, &e) {
                assert_eq!(c.kind(), e.kind());
            }
        }
    }
}
