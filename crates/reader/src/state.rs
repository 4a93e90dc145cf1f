//! Serializable reader position.


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

    /// Serializes to a fixed 8-byte little-endian encoding (stored inside
    /// checkpoint manifests).
    pub fn to_bytes(self) -> [u8; 8] {
        self.next_batch.to_le_bytes()
    }

    /// Parses the 8-byte encoding.
    pub fn from_bytes(bytes: [u8; 8]) -> Self {
        Self {
            next_batch: u64::from_le_bytes(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bytes() {
        let s = ReaderState::at(0xDEAD_BEEF_0123);
        assert_eq!(ReaderState::from_bytes(s.to_bytes()), s);
    }

    #[test]
    fn fresh_is_zero() {
        assert_eq!(ReaderState::fresh().next_batch, 0);
    }
}
