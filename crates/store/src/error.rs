//! Error type for the document store.

use crate::json::JsonError;
use std::fmt;

/// Errors raised by the document store.
#[derive(Debug)]
pub enum StoreError {
    /// A document failed JSON (de)serialization.
    Json(JsonError),
    /// Persistence I/O failed.
    Io(std::io::Error),
    /// A persisted file had an unexpected structure.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Json(e) => write!(f, "JSON error: {e}"),
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store file: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<JsonError> for StoreError {
    fn from(e: JsonError) -> Self {
        StoreError::Json(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(StoreError::Corrupt("bad line".into())
            .to_string()
            .contains("bad line"));
    }
}
