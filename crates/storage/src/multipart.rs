//! Multipart uploads: the S3-style `begin` / `put_part` / `complete` /
//! `abort` protocol.
//!
//! Check-N-Run's production deployment writes each checkpoint from many
//! trainer hosts in parallel (§4.4); a single synchronous `put` per object
//! cannot express that. The multipart protocol splits one logical object
//! into independently transferable parts, so:
//!
//! * large chunks stream in bounded pieces, each of which may be told not
//!   to start before a simulated instant (the upload scheduler's §4.3
//!   floor);
//! * a failed or killed writer host can [`abort`](crate::ObjectStore::abort_multipart)
//!   its in-progress object and leave no half-written data visible;
//! * the simulated remote store accounts bandwidth *per part*, which is what
//!   lets parallel writer hosts overlap their transfers on separate uplinks.
//!
//! Backends that don't implement the protocol natively get a stateless
//! default built on `put`/`get`/`list`/`delete`: every part is buffered as a
//! hidden staging object under `<key>.mp-<id>/`, and `complete` assembles
//! them into the final object. [`crate::SimulatedRemoteStore`] overrides the
//! protocol natively (parts buffered in memory, bandwidth charged per part,
//! nothing visible until `complete`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Process-wide upload-id counter: ids only need to be unique per process
/// (they namespace staging keys and index pending-upload tables).
static NEXT_UPLOAD_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh multipart upload id.
pub(crate) fn next_upload_id() -> u64 {
    NEXT_UPLOAD_ID.fetch_add(1, Ordering::Relaxed)
}

/// Handle for one in-progress multipart upload.
///
/// Returned by [`crate::ObjectStore::begin_multipart`] and passed to every
/// subsequent part/complete/abort call. Plain data: cloning it does not
/// duplicate the upload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultipartUpload {
    /// Key the assembled object will be stored under on `complete`.
    pub key: String,
    /// Store-issued unique id of this upload.
    pub id: u64,
    /// Transfer channel (uplink) hint: which of the store's parallel
    /// channels carries this upload's parts. Sharded writers set this to
    /// their host index so each simulated host saturates its own uplink;
    /// backends with a single channel (or no bandwidth simulation at all)
    /// ignore it.
    pub channel: u32,
}

impl MultipartUpload {
    /// Routes this upload's parts over transfer channel `channel`.
    pub fn on_channel(mut self, channel: u32) -> Self {
        self.channel = channel;
        self
    }

    /// Staging-object key for `part` under the default (buffering)
    /// implementation. Parts sort lexicographically in part order.
    pub fn part_key(&self, part: u32) -> String {
        format!("{}.mp-{:016x}/{:06}", self.key, self.id, part)
    }

    /// Prefix of all staging objects of this upload.
    pub fn part_prefix(&self) -> String {
        format!("{}.mp-{:016x}/", self.key, self.id)
    }
}

/// Receipt for one uploaded part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartReceipt {
    /// Part number within the upload (0-based, contiguous).
    pub part: u32,
    /// Logical bytes in the part.
    pub bytes: u64,
    /// Time the part's transfer occupied its channel (zero for local
    /// backends).
    pub transfer_time: Duration,
    /// Absolute simulated time at which the part finished transferring
    /// (zero for local backends, which are instantaneous).
    pub completed_at: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_ids_are_unique() {
        let a = next_upload_id();
        let b = next_upload_id();
        assert_ne!(a, b);
    }

    #[test]
    fn part_keys_sort_in_part_order() {
        let up = MultipartUpload {
            key: "job/ckpt/chunk".into(),
            id: 7,
            channel: 0,
        };
        let keys: Vec<String> = (0..1000).map(|p| up.part_key(p)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert!(keys[0].starts_with(&up.part_prefix()));
    }

    #[test]
    fn on_channel_sets_hint() {
        let up = MultipartUpload {
            key: "k".into(),
            id: 1,
            channel: 0,
        }
        .on_channel(3);
        assert_eq!(up.channel, 3);
    }
}
