//! Error type for checkpoint operations.

use cnr_quant::codec::CodecError;
use cnr_storage::StorageError;

/// Anything that can go wrong while creating, storing, or restoring a
/// checkpoint.
#[derive(Debug)]
pub enum CnrError {
    /// Storage backend failure.
    Storage(StorageError),
    /// A chunk or manifest failed its checksum — the checkpoint is corrupt.
    Corrupt(String),
    /// Malformed row/chunk encoding.
    Codec(CodecError),
    /// A manifest references state incompatible with the running model.
    ShapeMismatch(String),
    /// No valid checkpoint exists to restore from.
    NothingToRestore,
    /// The background writer pipeline failed (worker panic or channel loss).
    Pipeline(String),
    /// Invalid configuration.
    Config(String),
    /// The engine's live training state was destroyed by a failure and no
    /// restore has succeeded since: the model is partly written, so
    /// training on it or checkpointing it is refused until
    /// [`Engine::simulate_failure_and_restore`](crate::engine::Engine::simulate_failure_and_restore)
    /// returns `Ok`.
    TrainingStateLost,
}

impl std::fmt::Display for CnrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CnrError::Storage(e) => write!(f, "storage: {e}"),
            CnrError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CnrError::Codec(e) => write!(f, "codec: {e}"),
            CnrError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            CnrError::NothingToRestore => write!(f, "no valid checkpoint to restore"),
            CnrError::Pipeline(m) => write!(f, "writer pipeline: {m}"),
            CnrError::Config(m) => write!(f, "invalid configuration: {m}"),
            CnrError::TrainingStateLost => write!(
                f,
                "training state lost: the last restore failed partway; restore again first"
            ),
        }
    }
}

impl std::error::Error for CnrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CnrError::Storage(e) => Some(e),
            CnrError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for CnrError {
    fn from(e: StorageError) -> Self {
        match e {
            // A failed envelope check is checkpoint corruption, not a
            // backend fault — callers match on `Corrupt` either way.
            StorageError::Corrupt(m) => CnrError::Corrupt(m),
            other => CnrError::Storage(other),
        }
    }
}

impl From<CodecError> for CnrError {
    fn from(e: CodecError) -> Self {
        CnrError::Codec(e)
    }
}

/// Result alias for checkpoint operations.
pub type Result<T> = std::result::Result<T, CnrError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = CnrError::Corrupt("chunk 3".into());
        assert!(e.to_string().contains("chunk 3"));
        let e: CnrError = StorageError::NotFound("k".into()).into();
        assert!(matches!(e, CnrError::Storage(_)));
        assert!(e.to_string().contains("k"));
    }
}
