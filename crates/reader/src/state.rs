//! The reader tier's position in the sample stream.

/// Where the reader tier stands in the (logically infinite) sample stream.
///
/// Captured at checkpoint time *after* the batch budget has drained, so it is
/// exactly consistent with the trainer's iteration counter (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReaderState {
    /// Index of the next batch the reader will produce.
    pub next_batch: u64,
}

impl ReaderState {
    /// State at the start of a fresh run.
    pub fn fresh() -> Self {
        Self::default()
    }

    /// State positioned at `next_batch`.
    pub fn at(next_batch: u64) -> Self {
        Self { next_batch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_is_zero() {
        assert_eq!(ReaderState::fresh().next_batch, 0);
    }
}
