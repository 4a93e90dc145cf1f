//! A fault-injecting store wrapper.
//!
//! Remote storage fails: requests time out, replicas reject writes, racks
//! lose power. The controller's validity rule (§4.4: a checkpoint is
//! declared valid only when *every* node finishes storing successfully)
//! only matters if failures actually reach the writer pipeline, so tests
//! wrap their store in [`FlakyStore`] to inject deterministic failures.
//!
//! Beyond hard errors, real stores also *lie*: they return bytes that are
//! not the bytes that were written — bit rot on a replica, a truncated
//! transfer that the client library papers over, or a stale replica that
//! missed the latest overwrite. [`CorruptionSpec`] injects exactly those
//! silent failures into the read path (whole-object and ranged reads
//! alike), deterministically by operation count and seed, so the
//! envelope-verification machinery (see [`crate::envelope`]) can be
//! tested end to end. Because injection is keyed on the read *count*, a
//! retry of the same key models fetching a different — healthy — replica.

use crate::multipart::{MultipartUpload, PartReceipt};
use crate::{ObjectMeta, ObjectStore, PutReceipt, Result, StorageError};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// When the wrapper injects put failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// Fail every `n`-th put (1-based). `n = 0` disables injection.
    Every(u64),
    /// Fail the first `n` puts, then heal (transient outage).
    FirstN(u64),
    /// Fail exactly the `n`-th put (1-based), once — a single blip, e.g. a
    /// writer dying partway through one checkpoint while its retry runs
    /// against healthy storage.
    Once(u64),
}

/// How injected corruption damages the returned bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Flip one deterministically chosen bit of the returned bytes (bit
    /// rot on the replica served by this read).
    BitFlip,
    /// Return a deterministically chosen strict prefix of the bytes (a
    /// truncated transfer presented as complete).
    Truncate,
    /// Return the *previous* version of the object at this key — a
    /// replica that missed the latest overwrite. Falls back to a bit flip
    /// when the key was never overwritten.
    StaleReplica,
}

/// Deterministic silent-corruption injection for the read path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionSpec {
    /// What kind of damage to inject.
    pub kind: CorruptionKind,
    /// Which reads get damaged, by corruption-eligible read count (the
    /// counter is independent of the error-injection counters).
    pub mode: FailureMode,
    /// Seed for the damage positions (bit index, truncation point), so a
    /// given test run is exactly reproducible.
    pub seed: u64,
}

impl CorruptionSpec {
    /// Damages every `n`-th eligible read with `kind`, seed 0.
    pub fn every(kind: CorruptionKind, n: u64) -> Self {
        Self {
            kind,
            mode: FailureMode::Every(n),
            seed: 0,
        }
    }

    /// Damages exactly the `n`-th eligible read (1-based), once.
    pub fn once(kind: CorruptionKind, n: u64) -> Self {
        Self {
            kind,
            mode: FailureMode::Once(n),
            seed: 0,
        }
    }

    /// Same spec with an explicit seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Deterministic torn-write injection for the write path.
///
/// A torn write models a process (or medium) dying mid-write: the store
/// durably receives only a *prefix* of the object, and the writer never
/// gets an acknowledgement — the `put` still returns an error. This is
/// exactly the failure the WAL's crash-consistency contract
/// ([`crate::wal`]) must survive: replay has to stop at the torn frame
/// with a typed diagnosis, never decode garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornWriteSpec {
    /// Which puts get torn, by torn-eligible put count (independent of the
    /// hard-error injection counters).
    pub mode: FailureMode,
    /// Cut the object at this byte offset (clamped to a strict prefix).
    /// `None` derives a deterministic offset from `seed` and the count.
    pub cut_bytes: Option<usize>,
    /// Seed for derived cut offsets.
    pub seed: u64,
}

impl TornWriteSpec {
    /// Tears exactly the `n`-th eligible put (1-based), once.
    pub fn once(n: u64) -> Self {
        Self { mode: FailureMode::Once(n), cut_bytes: None, seed: 0 }
    }

    /// Tears the first `n` eligible puts.
    pub fn first_n(n: u64) -> Self {
        Self { mode: FailureMode::FirstN(n), cut_bytes: None, seed: 0 }
    }

    /// Same spec with an explicit cut offset (clamped to a strict prefix
    /// of each torn object).
    pub fn at_byte(mut self, cut: usize) -> Self {
        self.cut_bytes = Some(cut);
        self
    }

    /// Same spec with an explicit seed for derived cut offsets.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Wraps a store, injecting deterministic put (and optionally read)
/// failures: failures depend only on the operation count, so tests are
/// reproducible. Writes and reads have independent modes and counters —
/// a restore test can inject read timeouts without perturbing writes.
/// A [`CorruptionSpec`] additionally damages read *results* silently.
pub struct FlakyStore<S> {
    inner: S,
    mode: FailureMode,
    /// Read-side injection; `None` leaves reads healthy (the default).
    read_mode: Option<FailureMode>,
    /// Metadata (`head`) injection; `None` leaves metadata healthy. Kept
    /// independent of the read counter so a test can fail exactly the size
    /// probes while the data path stays up (or vice versa).
    head_mode: Option<FailureMode>,
    /// Silent read corruption; `None` returns bytes faithfully.
    corruption: Option<CorruptionSpec>,
    /// Torn-write injection on whole-object puts; `None` writes faithfully.
    torn: Option<TornWriteSpec>,
    /// When set, only keys containing this substring are eligible for torn
    /// writes (tear WAL segments while checkpoint writes stay healthy).
    torn_key_filter: Option<String>,
    /// When set, only keys containing this substring are eligible for
    /// corruption (target chunks or manifests selectively).
    corrupt_key_filter: Option<String>,
    /// Previous object version per key, recorded on overwrite — the
    /// "stale replica" a `CorruptionKind::StaleReplica` read serves.
    /// Only maintained while stale-replica injection is configured.
    stale: Mutex<HashMap<String, Bytes>>,
    puts: AtomicU64,
    reads: AtomicU64,
    heads: AtomicU64,
    corruptible_reads: AtomicU64,
    torn_eligible_puts: AtomicU64,
    failures_injected: AtomicU64,
    read_failures_injected: AtomicU64,
    head_failures_injected: AtomicU64,
    corruptions_injected: AtomicU64,
    torn_writes_injected: AtomicU64,
}

impl<S: ObjectStore> FlakyStore<S> {
    /// Wraps `inner`, failing every `fail_every`-th put.
    pub fn new(inner: S, fail_every: u64) -> Self {
        Self::with_mode(inner, FailureMode::Every(fail_every))
    }

    /// Wraps `inner`, failing the first `n` puts (transient outage).
    pub fn failing_first(inner: S, n: u64) -> Self {
        Self::with_mode(inner, FailureMode::FirstN(n))
    }

    /// Wraps `inner` with an explicit failure mode.
    pub fn with_mode(inner: S, mode: FailureMode) -> Self {
        Self {
            inner,
            mode,
            read_mode: None,
            head_mode: None,
            corruption: None,
            torn: None,
            torn_key_filter: None,
            corrupt_key_filter: None,
            stale: Mutex::new(HashMap::new()),
            puts: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            heads: AtomicU64::new(0),
            corruptible_reads: AtomicU64::new(0),
            torn_eligible_puts: AtomicU64::new(0),
            failures_injected: AtomicU64::new(0),
            read_failures_injected: AtomicU64::new(0),
            head_failures_injected: AtomicU64::new(0),
            corruptions_injected: AtomicU64::new(0),
            torn_writes_injected: AtomicU64::new(0),
        }
    }

    /// Wraps `inner` with healthy writes and the given *read* failure mode
    /// (`get`, `get_range`, and `get_part` share one read counter).
    pub fn failing_reads(inner: S, mode: FailureMode) -> Self {
        Self::with_mode(inner, FailureMode::Every(0)).with_read_mode(mode)
    }

    /// Wraps `inner` with healthy writes and hard-error-free reads that
    /// silently corrupt according to `spec`.
    pub fn corrupting_reads(inner: S, spec: CorruptionSpec) -> Self {
        Self::with_mode(inner, FailureMode::Every(0)).with_corruption(spec)
    }

    /// Wraps `inner` with healthy writes and reads but the given `head`
    /// (metadata) failure mode — models a metadata service hiccup while
    /// the data path stays up.
    pub fn failing_heads(inner: S, mode: FailureMode) -> Self {
        Self::with_mode(inner, FailureMode::Every(0)).with_head_mode(mode)
    }

    /// Adds a read failure mode on top of the existing write mode.
    pub fn with_read_mode(mut self, mode: FailureMode) -> Self {
        self.read_mode = Some(mode);
        self
    }

    /// Adds a `head` (metadata) failure mode on top of the existing modes.
    /// `head` calls have their own counter, independent of reads.
    pub fn with_head_mode(mut self, mode: FailureMode) -> Self {
        self.head_mode = Some(mode);
        self
    }

    /// Adds silent read corruption on top of the existing modes.
    pub fn with_corruption(mut self, spec: CorruptionSpec) -> Self {
        self.corruption = Some(spec);
        self
    }

    /// Wraps `inner` with otherwise-healthy writes that tear according to
    /// `spec` (the store keeps a prefix, the caller gets an error).
    pub fn tearing_writes(inner: S, spec: TornWriteSpec) -> Self {
        Self::with_mode(inner, FailureMode::Every(0)).with_torn_writes(spec)
    }

    /// Adds torn-write injection on top of the existing modes. Torn writes
    /// apply to whole-object puts only (multipart parts are already
    /// individually abortable); they have their own eligible-put counter.
    pub fn with_torn_writes(mut self, spec: TornWriteSpec) -> Self {
        self.torn = Some(spec);
        self
    }

    /// Restricts torn writes to keys containing `substring` (e.g. `"wal-"`
    /// to tear log appends while checkpoint uploads stay healthy). Puts of
    /// other keys neither advance the torn counter nor get torn.
    pub fn with_torn_key_filter(mut self, substring: impl Into<String>) -> Self {
        self.torn_key_filter = Some(substring.into());
        self
    }

    /// Restricts corruption to keys containing `substring` (e.g.
    /// `"manifest"` or `"chunk"`). Reads of other keys neither advance the
    /// corruption counter nor get damaged.
    pub fn with_corrupt_key_filter(mut self, substring: impl Into<String>) -> Self {
        self.corrupt_key_filter = Some(substring.into());
        self
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Number of write failures injected so far.
    pub fn failures_injected(&self) -> u64 {
        self.failures_injected.load(Ordering::Relaxed)
    }

    /// Number of read failures injected so far.
    pub fn read_failures_injected(&self) -> u64 {
        self.read_failures_injected.load(Ordering::Relaxed)
    }

    /// Number of `head` (metadata) failures injected so far.
    pub fn head_failures_injected(&self) -> u64 {
        self.head_failures_injected.load(Ordering::Relaxed)
    }

    /// Number of silently corrupted reads served so far.
    pub fn corruptions_injected(&self) -> u64 {
        self.corruptions_injected.load(Ordering::Relaxed)
    }

    /// Number of torn writes injected so far.
    pub fn torn_writes_injected(&self) -> u64 {
        self.torn_writes_injected.load(Ordering::Relaxed)
    }

    fn decide(mode: FailureMode, n: u64) -> bool {
        match mode {
            FailureMode::Every(every) => every > 0 && n.is_multiple_of(every),
            FailureMode::FirstN(first) => n <= first,
            FailureMode::Once(nth) => n == nth,
        }
    }

    /// Counts one write attempt (whole-object put or multipart part) and
    /// decides whether to inject a failure for it.
    fn should_fail(&self, key: &str) -> Result<()> {
        let n = self.puts.fetch_add(1, Ordering::Relaxed) + 1;
        if Self::decide(self.mode, n) {
            self.failures_injected.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("injected failure on put #{n} ({key})"),
            )));
        }
        Ok(())
    }

    /// Counts one read attempt (`get` / `get_range` / `get_part`) and
    /// decides whether to inject a failure for it.
    fn should_fail_read(&self, key: &str) -> Result<()> {
        let Some(mode) = self.read_mode else {
            return Ok(());
        };
        let n = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        if Self::decide(mode, n) {
            self.read_failures_injected.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("injected failure on read #{n} ({key})"),
            )));
        }
        Ok(())
    }

    /// Counts one `head` attempt and decides whether to inject a failure.
    fn should_fail_head(&self, key: &str) -> Result<()> {
        let Some(mode) = self.head_mode else {
            return Ok(());
        };
        let n = self.heads.fetch_add(1, Ordering::Relaxed) + 1;
        if Self::decide(mode, n) {
            self.head_failures_injected.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("injected failure on head #{n} ({key})"),
            )));
        }
        Ok(())
    }

    /// Counts one torn-eligible put of `key` and, when the spec fires,
    /// performs the tear itself: the inner store receives a strict prefix
    /// of `data` and the caller gets the unacknowledged-write error.
    /// Returns `None` when this put is not torn.
    fn maybe_tear(&self, key: &str, data: &Bytes) -> Option<Result<PutReceipt>> {
        let spec = self.torn?;
        if let Some(filter) = &self.torn_key_filter {
            if !key.contains(filter.as_str()) {
                return None;
            }
        }
        let n = self.torn_eligible_puts.fetch_add(1, Ordering::Relaxed) + 1;
        if !Self::decide(spec.mode, n) {
            return None;
        }
        self.torn_writes_injected.fetch_add(1, Ordering::Relaxed);
        if !data.is_empty() {
            // A strict prefix in [0, len): the medium kept *some* of the
            // write but never the whole object.
            let cut = match spec.cut_bytes {
                Some(c) => c.min(data.len() - 1),
                None => (Self::mix(spec.seed, n) % data.len() as u64) as usize,
            };
            self.remember_stale(key);
            if let Err(e) = self.inner.put(key, data.slice(0..cut)) {
                return Some(Err(e));
            }
        }
        Some(Err(StorageError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            format!("injected torn write on put #{n} ({key})"),
        ))))
    }

    /// Deterministic position mixer (splitmix-style): maps (seed, read
    /// count) to the damage position for this injection.
    fn mix(seed: u64, n: u64) -> u64 {
        let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True while stale-replica history needs to be maintained on writes.
    fn tracks_stale(&self) -> bool {
        matches!(
            self.corruption,
            Some(CorruptionSpec {
                kind: CorruptionKind::StaleReplica,
                ..
            })
        )
    }

    /// Records the current object at `key` as the stale version a lagging
    /// replica would still serve after the next overwrite.
    fn remember_stale(&self, key: &str) {
        if self.tracks_stale() {
            if let Ok(old) = self.inner.get(key) {
                self.stale.lock().insert(key.to_string(), old);
            }
        }
    }

    /// Counts one corruption-eligible read of `key` and, when the spec
    /// fires, returns deterministically damaged bytes instead of `data`.
    /// `offset` is the range start for ranged reads (0 for whole-object
    /// gets) so stale-replica substitution can serve the matching slice.
    fn maybe_corrupt(&self, key: &str, data: Bytes, offset: u64) -> Bytes {
        let Some(spec) = self.corruption else {
            return data;
        };
        if let Some(filter) = &self.corrupt_key_filter {
            if !key.contains(filter.as_str()) {
                return data;
            }
        }
        let n = self.corruptible_reads.fetch_add(1, Ordering::Relaxed) + 1;
        if !Self::decide(spec.mode, n) {
            return data;
        }
        let pos = Self::mix(spec.seed, n);
        let damaged = match spec.kind {
            CorruptionKind::BitFlip => Self::bit_flipped(&data, pos),
            CorruptionKind::Truncate => {
                if data.is_empty() {
                    None
                } else {
                    // A strict prefix: keep in [0, len).
                    Some(data.slice(0..(pos % data.len() as u64) as usize))
                }
            }
            CorruptionKind::StaleReplica => {
                self.stale.lock().get(key).map(|old| {
                    // Serve the requested window of the stale object,
                    // clamped to its (possibly shorter) length.
                    let start = (offset as usize).min(old.len());
                    let end = (start + data.len()).min(old.len());
                    old.slice(start..end)
                })
            }
        }
        // No way to damage this particular read (empty object, no prior
        // version): fall back to a bit flip so the spec still injects.
        .or_else(|| Self::bit_flipped(&data, pos));
        match damaged {
            Some(bytes) => {
                self.corruptions_injected.fetch_add(1, Ordering::Relaxed);
                bytes
            }
            None => data, // zero-length object: nothing to damage
        }
    }

    /// `data` with bit `pos % (len * 8)` flipped; `None` when empty.
    fn bit_flipped(data: &Bytes, pos: u64) -> Option<Bytes> {
        if data.is_empty() {
            return None;
        }
        let mut v = data.to_vec();
        let bit = (pos % (v.len() as u64 * 8)) as usize;
        v[bit / 8] ^= 1 << (bit % 8);
        Some(Bytes::from(v))
    }
}

impl<S: ObjectStore> ObjectStore for FlakyStore<S> {
    fn put(&self, key: &str, data: Bytes) -> Result<PutReceipt> {
        self.should_fail(key)?;
        if let Some(torn) = self.maybe_tear(key, &data) {
            return torn;
        }
        self.remember_stale(key);
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        self.should_fail_read(key)?;
        let data = self.inner.get(key)?;
        Ok(self.maybe_corrupt(key, data, 0))
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.should_fail_read(key)?;
        let data = self.inner.get_range(key, offset, len)?;
        Ok(self.maybe_corrupt(key, data, offset))
    }

    fn get_part(
        &self,
        key: &str,
        offset: u64,
        len: u64,
        channel: u32,
        not_before: Duration,
    ) -> Result<(Bytes, crate::GetReceipt)> {
        self.should_fail_read(key)?;
        let (data, receipt) = self.inner.get_part(key, offset, len, channel, not_before)?;
        Ok((self.maybe_corrupt(key, data, offset), receipt))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.should_fail_head(key)?;
        self.inner.head(key)
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    // Multipart forwards to the inner store (so native implementations keep
    // their timing semantics) with failure injection on each part — parts
    // and whole-object puts share one operation counter.

    fn begin_multipart(&self, key: &str) -> Result<MultipartUpload> {
        self.inner.begin_multipart(key)
    }

    fn put_part(
        &self,
        up: &MultipartUpload,
        part: u32,
        data: Bytes,
        not_before: Duration,
    ) -> Result<PartReceipt> {
        self.should_fail(&up.key)?;
        self.inner.put_part(up, part, data, not_before)
    }

    fn complete_multipart(&self, up: &MultipartUpload) -> Result<PutReceipt> {
        self.remember_stale(&up.key);
        self.inner.complete_multipart(up)
    }

    fn abort_multipart(&self, up: &MultipartUpload) -> Result<()> {
        self.inner.abort_multipart(up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryStore;

    #[test]
    fn fails_exactly_every_nth_put() {
        let store = FlakyStore::new(InMemoryStore::new(), 3);
        let mut outcomes = Vec::new();
        for i in 0..9 {
            outcomes.push(store.put(&format!("k{i}"), Bytes::from_static(b"x")).is_ok());
        }
        assert_eq!(
            outcomes,
            vec![true, true, false, true, true, false, true, true, false]
        );
        assert_eq!(store.failures_injected(), 3);
    }

    #[test]
    fn zero_disables_injection() {
        let store = FlakyStore::new(InMemoryStore::new(), 0);
        for i in 0..10 {
            store.put(&format!("k{i}"), Bytes::from_static(b"x")).unwrap();
        }
        assert_eq!(store.failures_injected(), 0);
    }

    #[test]
    fn once_mode_fails_exactly_one_put() {
        let store = FlakyStore::with_mode(InMemoryStore::new(), FailureMode::Once(2));
        assert!(store.put("a", Bytes::from_static(b"x")).is_ok());
        assert!(store.put("b", Bytes::from_static(b"x")).is_err());
        for i in 0..10 {
            assert!(store.put(&format!("c{i}"), Bytes::from_static(b"x")).is_ok());
        }
        assert_eq!(store.failures_injected(), 1);
    }

    #[test]
    fn first_n_mode_heals() {
        let store = FlakyStore::failing_first(InMemoryStore::new(), 2);
        assert!(store.put("a", Bytes::from_static(b"x")).is_err());
        assert!(store.put("b", Bytes::from_static(b"x")).is_err());
        assert!(store.put("c", Bytes::from_static(b"x")).is_ok());
        assert!(store.put("d", Bytes::from_static(b"x")).is_ok());
        assert_eq!(store.failures_injected(), 2);
    }

    #[test]
    fn parts_share_the_injection_counter() {
        let store = FlakyStore::new(InMemoryStore::new(), 2);
        let up = store.begin_multipart("obj").unwrap();
        let z = Duration::ZERO;
        assert!(store.put_part(&up, 0, Bytes::from_static(b"a"), z).is_ok());
        // Part #2 is the second write: injected.
        assert!(store.put_part(&up, 1, Bytes::from_static(b"b"), z).is_err());
        // Retrying the same part succeeds and the object assembles cleanly.
        assert!(store.put_part(&up, 1, Bytes::from_static(b"b"), z).is_ok());
        store.complete_multipart(&up).unwrap();
        assert_eq!(store.get("obj").unwrap(), Bytes::from_static(b"ab"));
        assert_eq!(store.failures_injected(), 1);
    }

    #[test]
    fn reads_pass_through() {
        let store = FlakyStore::new(InMemoryStore::new(), 2);
        store.put("a", Bytes::from_static(b"1")).unwrap();
        assert_eq!(store.get("a").unwrap(), Bytes::from_static(b"1"));
        assert_eq!(store.total_bytes(), 1);
        assert_eq!(store.list("").unwrap(), vec!["a".to_string()]);
        assert_eq!(store.read_failures_injected(), 0);
    }

    #[test]
    fn read_injection_fails_every_nth_read() {
        let store = FlakyStore::failing_reads(InMemoryStore::new(), FailureMode::Every(2));
        store.put("a", Bytes::from_static(b"0123")).unwrap();
        assert!(store.get("a").is_ok()); // read #1
        assert!(store.get("a").is_err()); // read #2 injected
        assert!(store.get_range("a", 0, 2).is_ok()); // read #3
        assert!(
            store.get_part("a", 0, 2, 0, Duration::ZERO).is_err(),
            "ranged reads share the counter"
        );
        assert_eq!(store.read_failures_injected(), 2);
        assert_eq!(store.failures_injected(), 0, "writes untouched");
    }

    #[test]
    fn transient_read_outage_heals() {
        let store = FlakyStore::failing_reads(InMemoryStore::new(), FailureMode::FirstN(2));
        store.put("a", Bytes::from_static(b"x")).unwrap();
        assert!(store.get("a").is_err());
        assert!(store.get("a").is_err());
        assert!(store.get("a").is_ok(), "outage over");
    }

    #[test]
    fn bit_flip_corruption_damages_exactly_the_chosen_reads() {
        let store = FlakyStore::corrupting_reads(
            InMemoryStore::new(),
            CorruptionSpec::every(CorruptionKind::BitFlip, 2).with_seed(7),
        );
        let original = Bytes::from_static(b"checkpoint chunk bytes");
        store.put("k", original.clone()).unwrap();
        assert_eq!(store.get("k").unwrap(), original, "read #1 clean");
        let damaged = store.get("k").unwrap();
        assert_ne!(damaged, original, "read #2 corrupted");
        assert_eq!(damaged.len(), original.len(), "bit flip preserves length");
        assert_eq!(
            damaged
                .iter()
                .zip(original.iter())
                .filter(|(a, b)| a != b)
                .count(),
            1,
            "exactly one byte differs"
        );
        assert_eq!(store.get("k").unwrap(), original, "read #3 clean again");
        assert_eq!(store.corruptions_injected(), 1);

        // Determinism: an identical store serves the identical damage.
        let twin = FlakyStore::corrupting_reads(
            InMemoryStore::new(),
            CorruptionSpec::every(CorruptionKind::BitFlip, 2).with_seed(7),
        );
        twin.put("k", original.clone()).unwrap();
        twin.get("k").unwrap();
        assert_eq!(twin.get("k").unwrap(), damaged);
    }

    #[test]
    fn truncate_corruption_returns_a_strict_prefix() {
        let store = FlakyStore::corrupting_reads(
            InMemoryStore::new(),
            CorruptionSpec::once(CorruptionKind::Truncate, 1).with_seed(3),
        );
        let original = Bytes::from_static(b"0123456789");
        store.put("k", original.clone()).unwrap();
        let damaged = store.get("k").unwrap();
        assert!(damaged.len() < original.len());
        assert_eq!(&original[..damaged.len()], &damaged[..]);
        assert_eq!(store.get("k").unwrap(), original, "only read #1 damaged");
    }

    #[test]
    fn stale_replica_serves_the_previous_version() {
        let store = FlakyStore::corrupting_reads(
            InMemoryStore::new(),
            CorruptionSpec::once(CorruptionKind::StaleReplica, 2),
        );
        store.put("k", Bytes::from_static(b"version-1")).unwrap();
        store.put("k", Bytes::from_static(b"version-2!")).unwrap();
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"version-2!"));
        assert_eq!(
            store.get("k").unwrap(),
            Bytes::from_static(b"version-1"),
            "read #2 served by the lagging replica"
        );
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"version-2!"));
        assert_eq!(store.corruptions_injected(), 1);
    }

    #[test]
    fn stale_replica_slices_ranged_reads_from_the_old_version() {
        let store = FlakyStore::corrupting_reads(
            InMemoryStore::new(),
            CorruptionSpec::every(CorruptionKind::StaleReplica, 1),
        );
        store.put("k", Bytes::from_static(b"AAAABBBB")).unwrap();
        store.put("k", Bytes::from_static(b"CCCCDDDDEEEE")).unwrap();
        // Every read is stale: the [4, 8) window of the old version.
        assert_eq!(store.get_range("k", 4, 4).unwrap(), Bytes::from_static(b"BBBB"));
        // A window past the stale object's end comes back short — exactly
        // the kind of lie envelope verification exists to catch.
        assert!(store.get_range("k", 8, 4).unwrap().len() < 4);
    }

    #[test]
    fn stale_replica_without_history_falls_back_to_bit_flip() {
        let store = FlakyStore::corrupting_reads(
            InMemoryStore::new(),
            CorruptionSpec::every(CorruptionKind::StaleReplica, 1),
        );
        store.put("k", Bytes::from_static(b"only-version")).unwrap();
        let damaged = store.get("k").unwrap();
        assert_ne!(damaged, Bytes::from_static(b"only-version"));
        assert_eq!(damaged.len(), b"only-version".len());
        assert_eq!(store.corruptions_injected(), 1);
    }

    #[test]
    fn key_filter_scopes_corruption() {
        let store = FlakyStore::corrupting_reads(
            InMemoryStore::new(),
            CorruptionSpec::every(CorruptionKind::BitFlip, 1),
        )
        .with_corrupt_key_filter("manifest");
        store.put("job/0/manifest", Bytes::from_static(b"mmmm")).unwrap();
        store.put("job/0/chunk-1", Bytes::from_static(b"cccc")).unwrap();
        assert_eq!(store.get("job/0/chunk-1").unwrap(), Bytes::from_static(b"cccc"));
        assert_ne!(store.get("job/0/manifest").unwrap(), Bytes::from_static(b"mmmm"));
        assert_eq!(store.corruptions_injected(), 1);
    }

    #[test]
    fn ranged_reads_share_the_corruption_counter() {
        let store = FlakyStore::corrupting_reads(
            InMemoryStore::new(),
            CorruptionSpec::every(CorruptionKind::BitFlip, 2),
        );
        store.put("k", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(store.get_range("k", 0, 4).unwrap(), Bytes::from_static(b"0123"));
        let (damaged, _) = store.get_part("k", 4, 4, 0, Duration::ZERO).unwrap();
        assert_ne!(damaged, Bytes::from_static(b"4567"), "read #2 corrupted");
        assert_eq!(damaged.len(), 4, "per-range flip stays inside the range");
    }

    #[test]
    fn head_injection_is_independent_of_reads() {
        let store = FlakyStore::failing_heads(InMemoryStore::new(), FailureMode::Every(2));
        store.put("a", Bytes::from_static(b"abcd")).unwrap();
        assert!(store.head("a").is_ok()); // head #1
        assert!(store.get("a").is_ok(), "data path healthy");
        assert!(store.head("a").is_err()); // head #2 injected
        assert!(store.get("a").is_ok(), "reads have their own counter");
        assert_eq!(store.head_failures_injected(), 1);
        assert_eq!(store.read_failures_injected(), 0);
    }

    #[test]
    fn torn_write_keeps_a_prefix_and_errs() {
        let store = FlakyStore::tearing_writes(
            InMemoryStore::new(),
            TornWriteSpec::once(2).at_byte(4),
        );
        store.put("k", Bytes::from_static(b"first-version")).unwrap();
        let err = store.put("k", Bytes::from_static(b"second-version")).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        // The store durably holds exactly the prefix of the torn object.
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"seco"));
        assert_eq!(store.torn_writes_injected(), 1);
        // Later puts are healthy again.
        store.put("k", Bytes::from_static(b"third-version")).unwrap();
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"third-version"));
    }

    #[test]
    fn torn_write_first_n_and_derived_cut_are_deterministic() {
        let make = || {
            FlakyStore::tearing_writes(
                InMemoryStore::new(),
                TornWriteSpec::first_n(2).with_seed(11),
            )
        };
        let a = make();
        let b = make();
        for s in [&a, &b] {
            assert!(s.put("k1", Bytes::from_static(b"0123456789")).is_err());
            assert!(s.put("k2", Bytes::from_static(b"abcdefghij")).is_err());
            assert!(s.put("k3", Bytes::from_static(b"full")).is_ok());
            assert_eq!(s.torn_writes_injected(), 2);
        }
        // Derived cuts are seed-deterministic and strict prefixes (a cut of
        // zero stores an empty object — still a strict prefix).
        for key in ["k1", "k2"] {
            let (x, y) = (a.get(key).unwrap(), b.get(key).unwrap());
            assert_eq!(x, y, "twins must agree on the torn prefix");
            assert!(x.len() < 10);
        }
    }

    #[test]
    fn torn_key_filter_scopes_tearing() {
        let store = FlakyStore::tearing_writes(
            InMemoryStore::new(),
            TornWriteSpec::once(1).at_byte(2),
        )
        .with_torn_key_filter("wal-");
        // Checkpoint-ish keys don't advance the torn counter.
        store.put("job/ckpt-1/manifest", Bytes::from_static(b"manifest")).unwrap();
        assert!(store.put("job/wal-00000000", Bytes::from_static(b"framebytes")).is_err());
        assert_eq!(store.get("job/wal-00000000").unwrap(), Bytes::from_static(b"fr"));
        assert_eq!(store.torn_writes_injected(), 1);
    }

    #[test]
    fn read_and_write_injection_compose() {
        let store = FlakyStore::with_mode(InMemoryStore::new(), FailureMode::Once(1))
            .with_read_mode(FailureMode::Once(1));
        assert!(store.put("a", Bytes::from_static(b"x")).is_err());
        assert!(store.put("a", Bytes::from_static(b"x")).is_ok());
        assert!(store.get("a").is_err());
        assert!(store.get("a").is_ok());
    }
}
