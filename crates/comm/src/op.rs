//! The error type of every collective.
//!
//! A completion that finds no matching message (or a handle invalidated
//! by a transport reset) surfaces as a [`CommError`], which the executors
//! convert to their own error types — nothing panics deep in the
//! collective library.

use f90d_machine::TransportError;

/// Structured failure of a collective operation.
#[derive(Debug, Clone, PartialEq)]
pub struct CommError(pub String);

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for CommError {}

impl From<TransportError> for CommError {
    fn from(e: TransportError) -> Self {
        CommError(e.to_string())
    }
}

/// Result of a collective operation.
pub type CommResult<T> = Result<T, CommError>;
