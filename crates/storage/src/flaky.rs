//! A fault-injecting store wrapper.
//!
//! Remote storage fails: requests time out, replicas reject writes, racks
//! lose power. The controller's validity rule (§4.4: a checkpoint is
//! declared valid only when *every* node finishes storing successfully)
//! only matters if failures actually reach the writer pipeline, so tests
//! wrap their store in [`FlakyStore`] to inject deterministic failures.
//! Real stores also *lie*, returning bytes that are not the bytes that
//! were written (bit rot on a replica, a truncated transfer the client
//! library papers over, a stale replica that missed the latest overwrite),
//! die mid-write, keeping a prefix of an object the writer never saw
//! acknowledged, stall, and lose objects behind the caller's back.
//! Injecting those tests the envelope verification ([`crate::envelope`]),
//! the WAL's crash-consistency contract ([`crate::wal`]) and the
//! pipelines' independence of thread timing end to end.
//!
//! # Faults
//!
//! A [`Fault`] is one of five effects:
//!
//! - [`Fault::delay`]: a call of one [`Op`] (put, read, head, list,
//!   delete) sleeps a seeded stretch of *wall* time before it goes on —
//!   the simulated clock never sees it, so a stalled thread must not move
//!   a simulated number;
//! - [`Fault::fail`]: a call of one [`Op`] returns a timeout error and
//!   never reaches the inner store;
//! - [`Fault::gone`]: a call of one [`Op`] returns
//!   [`StorageError::NotFound`] and never reaches the inner store — the
//!   object was deleted after the caller listed it;
//! - [`Fault::corrupt`]: a read returns damaged bytes ([`CorruptionKind`]);
//! - [`Fault::tear`]: a whole-object put stores a strict prefix of the
//!   object and returns an error.
//!
//! Each fault has its own counter of the calls it is eligible for — those
//! of its kind whose key contains its [`Fault::on_keys`] substring, if it
//! has one (for a `list`, the prefix) — and its [`FailureMode`] picks the
//! hits by that count, so a test is exactly reproducible. Because a
//! corruption is keyed on the read *count*, a retry of the same key models
//! fetching a different, healthy replica. [`FlakyStore::injected`] is what
//! fault `i` injected so far.
//!
//! # Check order
//!
//! A call is checked first against the delays of its [`Op`]. A delay
//! never decides the outcome: after the sleep the call is checked against
//! the faults that fail its [`Op`] (timeouts and vanished objects alike);
//! a whole-object put that none failed is then checked against the tears,
//! and a read that returned bytes against the corruptions. Within each of
//! these groups the faults are checked in list order: the first one that
//! hits decides, and the faults after it do not count the call.
//!
//! # Journal
//!
//! A [`FlakyStore`] journals every call it forwards to its inner store
//! ([`FlakyStore::take_journal`]), `total_bytes` and the multipart calls
//! included: the method, the key, the channel and the receipt. A call a
//! fault failed is not forwarded; a torn put forwards its prefix. A test
//! that needs to see what reached a store wraps it with no faults.

use crate::multipart::{MultipartUpload, PartReceipt};
use crate::{ObjectMeta, ObjectStore, PutReceipt, Result, StorageError};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which of a fault's eligible calls it hits, by their 1-based count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// Hit every `n`-th call. `n = 0` never hits.
    Every(u64),
    /// Hit the first `n` calls, then heal (transient outage).
    FirstN(u64),
    /// Hit exactly the `n`-th call, once — a single blip, e.g. a writer
    /// dying partway through one checkpoint while its retry runs against
    /// healthy storage.
    Once(u64),
}

impl FailureMode {
    fn hits(self, n: u64) -> bool {
        match self {
            FailureMode::Every(every) => every > 0 && n.is_multiple_of(every),
            FailureMode::FirstN(first) => n <= first,
            FailureMode::Once(nth) => n == nth,
        }
    }
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

/// A store call a [`Fault::delay`], [`Fault::fail`] or [`Fault::gone`]
/// can hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A whole-object `put` or a multipart `put_part` (one counter).
    Put,
    /// A `get`, `get_range` or `get_part` (one counter).
    Read,
    /// A `head` (metadata) call.
    Head,
    /// A `list`; its prefix is the key [`Fault::on_keys`] matches.
    List,
    /// A `delete`.
    Delete,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Effect {
    Delay(Op, Duration),
    Fail(Op),
    Gone(Op),
    Corrupt(CorruptionKind),
    Tear,
}

/// One deterministic fault of a [`FlakyStore`]: what it does, which calls
/// it counts, and which of those it hits (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Fault {
    effect: Effect,
    mode: FailureMode,
    keys: Option<String>,
    seed: u64,
    cut: Option<usize>,
}

impl Fault {
    fn new(effect: Effect, mode: FailureMode) -> Self {
        Self { effect, mode, keys: None, seed: 0, cut: None }
    }

    /// Holds the `mode`-chosen calls of `op` for a seeded stretch of wall
    /// time in `[max / 2, max]`, then lets them go on to the other checks.
    pub fn delay(op: Op, max: Duration, mode: FailureMode) -> Self {
        Self::new(Effect::Delay(op, max), mode)
    }

    /// Fails the `mode`-chosen calls of `op` with a timeout error.
    pub fn fail(op: Op, mode: FailureMode) -> Self {
        Self::new(Effect::Fail(op), mode)
    }

    /// Fails the `mode`-chosen calls of `op` with
    /// [`StorageError::NotFound`], as if the object had been deleted.
    pub fn gone(op: Op, mode: FailureMode) -> Self {
        Self::new(Effect::Gone(op), mode)
    }

    /// Damages the `mode`-chosen reads (whole-object and ranged) with
    /// `kind`.
    pub fn corrupt(kind: CorruptionKind, mode: FailureMode) -> Self {
        Self::new(Effect::Corrupt(kind), mode)
    }

    /// Tears the `mode`-chosen whole-object puts: the inner store keeps a
    /// strict prefix and the caller gets an error. Multipart parts are
    /// individually abortable already, so a tear never counts them.
    pub fn tear(mode: FailureMode) -> Self {
        Self::new(Effect::Tear, mode)
    }

    /// Counts (and hits) only calls whose key contains `substring` — e.g.
    /// `"/wal-"` for log segments, `"-chunk-"` or `"manifest"` for
    /// checkpoint objects.
    pub fn on_keys(mut self, substring: impl Into<String>) -> Self {
        self.keys = Some(substring.into());
        self
    }

    /// Seeds the damage positions (bit index, truncation point, derived
    /// tear offset) and the delays' lengths; the default seed is 0.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cuts a torn object at byte `cut`, clamped to a strict prefix,
    /// instead of an offset derived from the seed and the count.
    pub fn at_byte(mut self, cut: usize) -> Self {
        self.cut = Some(cut);
        self
    }
}

/// A [`Fault`] and its counters.
struct Armed {
    fault: Fault,
    calls: AtomicU64,
    injected: AtomicU64,
}

/// One call a [`FlakyStore`] forwarded to its inner store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// The [`ObjectStore`] method's name: `"put"`, `"get_part"`, ...
    pub method: &'static str,
    /// The key: a `list`'s prefix, a multipart call's object key, empty
    /// for `total_bytes`.
    pub key: String,
    /// The channel a `get_part` or a multipart upload's call named.
    pub channel: Option<u32>,
    /// The receipt of a `put`, `get_part`, `put_part` or
    /// `complete_multipart` that succeeded.
    pub receipt: Option<Receipt>,
}

/// A journaled call's receipt: bytes moved, the time they occupied their
/// channel, and the simulated time they completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receipt {
    pub bytes: u64,
    pub transfer_time: Duration,
    pub completed_at: Duration,
}

fn receipt(bytes: u64, transfer_time: Duration, completed_at: Duration) -> Option<Receipt> {
    Some(Receipt { bytes, transfer_time, completed_at })
}

/// Wraps a store, injecting a list of deterministic [`Fault`]s.
pub struct FlakyStore<S> {
    inner: S,
    faults: Vec<Armed>,
    /// Previous object version per key, recorded on overwrite — the
    /// "stale replica" a `CorruptionKind::StaleReplica` read serves.
    /// Only maintained while such a corruption is in the list.
    stale: Mutex<HashMap<String, Bytes>>,
    /// Every call forwarded to `inner` since the last
    /// [`FlakyStore::take_journal`].
    journal: Mutex<Vec<Call>>,
}

impl<S: ObjectStore> FlakyStore<S> {
    /// Wraps `inner`, injecting `faults`; no faults forwards every call.
    pub fn new(inner: S, faults: impl IntoIterator<Item = Fault>) -> Self {
        let faults = faults
            .into_iter()
            .map(|fault| Armed { fault, calls: AtomicU64::new(0), injected: AtomicU64::new(0) })
            .collect();
        Self { inner, faults, stale: Mutex::new(HashMap::new()), journal: Mutex::new(Vec::new()) }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Number of calls fault `i` (its index in the list given to
    /// [`FlakyStore::new`]) has delayed, failed, torn or damaged so far.
    pub fn injected(&self, i: usize) -> u64 {
        self.faults[i].injected.load(Ordering::Relaxed)
    }

    /// The calls forwarded to the inner store since the last call of this,
    /// in the order they returned.
    pub fn take_journal(&self) -> Vec<Call> {
        std::mem::take(&mut *self.journal.lock())
    }

    /// Journals one call forwarded to the inner store, with the receipt
    /// `timing` reads off its outcome, and passes the outcome on.
    fn forward<T>(
        &self,
        method: &'static str,
        key: &str,
        channel: Option<u32>,
        outcome: Result<T>,
        timing: impl FnOnce(&T) -> Option<Receipt>,
    ) -> Result<T> {
        let receipt = outcome.as_ref().ok().and_then(timing);
        self.journal.lock().push(Call { method, key: key.to_string(), channel, receipt });
        outcome
    }

    /// Counts one call of `key` against each fault `group` selects, in
    /// list order, and returns the first that hits with its call count.
    /// The caller records the injection.
    fn hit(&self, key: &str, group: impl Fn(Effect) -> bool) -> Option<(&Armed, u64)> {
        self.faults
            .iter()
            .filter(|a| group(a.fault.effect))
            .filter(|a| a.fault.keys.as_ref().is_none_or(|s| key.contains(s.as_str())))
            .find_map(|a| {
                let n = a.calls.fetch_add(1, Ordering::Relaxed) + 1;
                a.fault.mode.hits(n).then_some((a, n))
            })
    }

    /// Delays this call of `op` on `key` if one of its delays hits, then
    /// fails it if one of its failures hits.
    fn check(&self, op: Op, key: &str) -> Result<()> {
        if let Some((a, n)) = self.hit(key, |e| matches!(e, Effect::Delay(o, _) if o == op)) {
            if let Effect::Delay(_, max) = a.fault.effect {
                a.injected.fetch_add(1, Ordering::Relaxed);
                let max = max.as_nanos() as u64;
                let stretch = max / 2 + mix(a.fault.seed, n) % (max - max / 2 + 1);
                std::thread::sleep(Duration::from_nanos(stretch));
            }
        }
        let (a, n) = match self.hit(key, |e| e == Effect::Fail(op) || e == Effect::Gone(op)) {
            None => return Ok(()),
            Some(hit) => hit,
        };
        a.injected.fetch_add(1, Ordering::Relaxed);
        Err(match a.fault.effect {
            Effect::Gone(_) => StorageError::NotFound(key.to_string()),
            _ => StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("injected failure on {op:?} #{n} ({key})"),
            )),
        })
    }

    /// Tears this put of `key` if a tear hits: the inner store receives a
    /// strict prefix of `data` and the caller gets the
    /// unacknowledged-write error. `None` when no tear hits.
    fn maybe_tear(&self, key: &str, data: &Bytes) -> Option<Result<PutReceipt>> {
        let (a, n) = self.hit(key, |e| e == Effect::Tear)?;
        a.injected.fetch_add(1, Ordering::Relaxed);
        if !data.is_empty() {
            // A strict prefix in [0, len): the medium kept *some* of the
            // write but never the whole object.
            let cut = match a.fault.cut {
                Some(c) => c.min(data.len() - 1),
                None => (mix(a.fault.seed, n) % data.len() as u64) as usize,
            };
            self.remember_stale(key);
            if let Err(e) = self.put_inner(key, data.slice(0..cut)) {
                return Some(Err(e));
            }
        }
        Some(Err(StorageError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            format!("injected torn write on put #{n} ({key})"),
        ))))
    }

    /// Forwards a whole-object put.
    fn put_inner(&self, key: &str, data: Bytes) -> Result<PutReceipt> {
        let put = self.inner.put(key, data);
        self.forward("put", key, None, put, |r| receipt(r.bytes, r.transfer_time, r.completed_at))
    }

    /// Records the current object at `key` as the stale version a lagging
    /// replica would still serve after the next overwrite.
    fn remember_stale(&self, key: &str) {
        let tracks = self
            .faults
            .iter()
            .any(|a| a.fault.effect == Effect::Corrupt(CorruptionKind::StaleReplica));
        if tracks {
            if let Ok(old) = self.inner.get(key) {
                self.stale.lock().insert(key.to_string(), old);
            }
        }
    }

    /// Damages this read of `key` if a corruption hits. `offset` is the
    /// range start for ranged reads (0 for whole-object gets) so
    /// stale-replica substitution can serve the matching slice.
    fn maybe_corrupt(&self, key: &str, data: Bytes, offset: u64) -> Bytes {
        let Some((a, n)) = self.hit(key, |e| matches!(e, Effect::Corrupt(_))) else {
            return data;
        };
        let pos = mix(a.fault.seed, n);
        let damaged = match a.fault.effect {
            Effect::Corrupt(CorruptionKind::Truncate) if !data.is_empty() => {
                // A strict prefix: keep in [0, len).
                Some(data.slice(0..(pos % data.len() as u64) as usize))
            }
            Effect::Corrupt(CorruptionKind::StaleReplica) => {
                self.stale.lock().get(key).map(|old| {
                    // Serve the requested window of the stale object,
                    // clamped to its (possibly shorter) length.
                    let start = (offset as usize).min(old.len());
                    let end = (start + data.len()).min(old.len());
                    old.slice(start..end)
                })
            }
            _ => None,
        }
        // A bit flip, or no other way to damage this read (empty object,
        // no prior version): flip a bit so the fault still injects.
        .or_else(|| bit_flipped(&data, pos));
        match damaged {
            Some(bytes) => {
                a.injected.fetch_add(1, Ordering::Relaxed);
                bytes
            }
            None => data, // zero-length object: nothing to damage
        }
    }
}

/// Deterministic position mixer (splitmix-style): maps (seed, call count)
/// to the damage position for this injection.
fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

impl<S: ObjectStore> ObjectStore for FlakyStore<S> {
    fn put(&self, key: &str, data: Bytes) -> Result<PutReceipt> {
        self.check(Op::Put, key)?;
        if let Some(torn) = self.maybe_tear(key, &data) {
            return torn;
        }
        self.remember_stale(key);
        self.put_inner(key, data)
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        self.check(Op::Read, key)?;
        let data = self.forward("get", key, None, self.inner.get(key), |_| None)?;
        Ok(self.maybe_corrupt(key, data, 0))
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.check(Op::Read, key)?;
        let read = self.inner.get_range(key, offset, len);
        let data = self.forward("get_range", key, None, read, |_| None)?;
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
        self.check(Op::Read, key)?;
        let read = self.inner.get_part(key, offset, len, channel, not_before);
        let (data, r) = self.forward("get_part", key, Some(channel), read, |(_, r)| {
            receipt(r.bytes, r.transfer_time, r.completed_at)
        })?;
        Ok((self.maybe_corrupt(key, data, offset), r))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.check(Op::Delete, key)?;
        self.forward("delete", key, None, self.inner.delete(key), |_| None)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.check(Op::List, prefix)?;
        self.forward("list", prefix, None, self.inner.list(prefix), |_| None)
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.check(Op::Head, key)?;
        self.forward("head", key, None, self.inner.head(key), |_| None)
    }

    fn total_bytes(&self) -> u64 {
        let total = self.inner.total_bytes();
        let call = Call { method: "total_bytes", key: String::new(), channel: None, receipt: None };
        self.journal.lock().push(call);
        total
    }

    // Multipart forwards to the inner store (so native implementations keep
    // their timing semantics) with `Op::Put` faults on each part — parts
    // and whole-object puts share one count per fault.

    fn begin_multipart(&self, key: &str) -> Result<MultipartUpload> {
        self.forward("begin_multipart", key, None, self.inner.begin_multipart(key), |_| None)
    }

    fn put_part(
        &self,
        up: &MultipartUpload,
        part: u32,
        data: Bytes,
        not_before: Duration,
    ) -> Result<PartReceipt> {
        self.check(Op::Put, &up.key)?;
        let put = self.inner.put_part(up, part, data, not_before);
        self.forward("put_part", &up.key, Some(up.channel), put, |r| {
            receipt(r.bytes, r.transfer_time, r.completed_at)
        })
    }

    fn complete_multipart(&self, up: &MultipartUpload) -> Result<PutReceipt> {
        self.remember_stale(&up.key);
        let put = self.inner.complete_multipart(up);
        self.forward("complete_multipart", &up.key, Some(up.channel), put, |r| {
            receipt(r.bytes, r.transfer_time, r.completed_at)
        })
    }

    fn abort_multipart(&self, up: &MultipartUpload) -> Result<()> {
        let abort = self.inner.abort_multipart(up);
        self.forward("abort_multipart", &up.key, Some(up.channel), abort, |_| None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryStore;
    use CorruptionKind::{BitFlip, StaleReplica, Truncate};
    use FailureMode::{Every, FirstN, Once};

    fn flaky(faults: impl IntoIterator<Item = Fault>) -> FlakyStore<InMemoryStore> {
        FlakyStore::new(InMemoryStore::new(), faults)
    }

    #[test]
    fn fails_exactly_every_nth_put() {
        let store = flaky([Fault::fail(Op::Put, Every(3))]);
        let mut outcomes = Vec::new();
        for i in 0..9 {
            outcomes.push(store.put(&format!("k{i}"), Bytes::from_static(b"x")).is_ok());
        }
        assert_eq!(
            outcomes,
            vec![true, true, false, true, true, false, true, true, false]
        );
        assert_eq!(store.injected(0), 3);
    }

    #[test]
    fn zero_disables_injection() {
        let store = flaky([Fault::fail(Op::Put, Every(0))]);
        for i in 0..10 {
            store.put(&format!("k{i}"), Bytes::from_static(b"x")).unwrap();
        }
        assert_eq!(store.injected(0), 0);
    }

    #[test]
    fn once_mode_fails_exactly_one_put() {
        let store = flaky([Fault::fail(Op::Put, Once(2))]);
        assert!(store.put("a", Bytes::from_static(b"x")).is_ok());
        assert!(store.put("b", Bytes::from_static(b"x")).is_err());
        for i in 0..10 {
            assert!(store.put(&format!("c{i}"), Bytes::from_static(b"x")).is_ok());
        }
        assert_eq!(store.injected(0), 1);
    }

    #[test]
    fn first_n_mode_heals() {
        let store = flaky([Fault::fail(Op::Put, FirstN(2))]);
        assert!(store.put("a", Bytes::from_static(b"x")).is_err());
        assert!(store.put("b", Bytes::from_static(b"x")).is_err());
        assert!(store.put("c", Bytes::from_static(b"x")).is_ok());
        assert!(store.put("d", Bytes::from_static(b"x")).is_ok());
        assert_eq!(store.injected(0), 2);
    }

    #[test]
    fn parts_share_the_injection_counter() {
        let store = flaky([Fault::fail(Op::Put, Every(2))]);
        let up = store.begin_multipart("obj").unwrap();
        let z = Duration::ZERO;
        assert!(store.put_part(&up, 0, Bytes::from_static(b"a"), z).is_ok());
        // Part #2 is the second write: injected.
        assert!(store.put_part(&up, 1, Bytes::from_static(b"b"), z).is_err());
        // Retrying the same part succeeds and the object assembles cleanly.
        assert!(store.put_part(&up, 1, Bytes::from_static(b"b"), z).is_ok());
        store.complete_multipart(&up).unwrap();
        assert_eq!(store.get("obj").unwrap(), Bytes::from_static(b"ab"));
        assert_eq!(store.injected(0), 1);
    }

    #[test]
    fn reads_pass_through() {
        let store = flaky([
            Fault::fail(Op::Put, Every(2)),
            Fault::fail(Op::Read, Every(0)),
        ]);
        store.put("a", Bytes::from_static(b"1")).unwrap();
        assert_eq!(store.get("a").unwrap(), Bytes::from_static(b"1"));
        assert_eq!(store.total_bytes(), 1);
        assert_eq!(store.list("").unwrap(), vec!["a".to_string()]);
        assert_eq!(store.injected(1), 0, "no read failure injected");
    }

    #[test]
    fn read_injection_fails_every_nth_read() {
        let store = flaky([Fault::fail(Op::Read, Every(2))]);
        store.put("a", Bytes::from_static(b"0123")).unwrap();
        assert!(store.get("a").is_ok()); // read #1
        assert!(store.get("a").is_err()); // read #2 injected
        assert!(store.get_range("a", 0, 2).is_ok()); // read #3
        assert!(
            store.get_part("a", 0, 2, 0, Duration::ZERO).is_err(),
            "ranged reads share the counter"
        );
        assert!(store.put("b", Bytes::from_static(b"x")).is_ok(), "writes untouched");
        assert_eq!(store.injected(0), 2);
    }

    #[test]
    fn transient_read_outage_heals() {
        let store = flaky([Fault::fail(Op::Read, FirstN(2))]);
        store.put("a", Bytes::from_static(b"x")).unwrap();
        assert!(store.get("a").is_err());
        assert!(store.get("a").is_err());
        assert!(store.get("a").is_ok(), "outage over");
    }

    #[test]
    fn bit_flip_corruption_damages_exactly_the_chosen_reads() {
        let make = || flaky([Fault::corrupt(BitFlip, Every(2)).seeded(7)]);
        let store = make();
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
        assert_eq!(store.injected(0), 1);

        // Determinism: an identical store serves the identical damage.
        let twin = make();
        twin.put("k", original.clone()).unwrap();
        twin.get("k").unwrap();
        assert_eq!(twin.get("k").unwrap(), damaged);
    }

    #[test]
    fn truncate_corruption_returns_a_strict_prefix() {
        let store = flaky([Fault::corrupt(Truncate, Once(1)).seeded(3)]);
        let original = Bytes::from_static(b"0123456789");
        store.put("k", original.clone()).unwrap();
        let damaged = store.get("k").unwrap();
        assert!(damaged.len() < original.len());
        assert_eq!(&original[..damaged.len()], &damaged[..]);
        assert_eq!(store.get("k").unwrap(), original, "only read #1 damaged");
    }

    #[test]
    fn stale_replica_serves_the_previous_version() {
        let store = flaky([Fault::corrupt(StaleReplica, Once(2))]);
        store.put("k", Bytes::from_static(b"version-1")).unwrap();
        store.put("k", Bytes::from_static(b"version-2!")).unwrap();
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"version-2!"));
        assert_eq!(
            store.get("k").unwrap(),
            Bytes::from_static(b"version-1"),
            "read #2 served by the lagging replica"
        );
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"version-2!"));
        assert_eq!(store.injected(0), 1);
    }

    #[test]
    fn stale_replica_slices_ranged_reads_from_the_old_version() {
        let store = flaky([Fault::corrupt(StaleReplica, Every(1))]);
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
        let store = flaky([Fault::corrupt(StaleReplica, Every(1))]);
        store.put("k", Bytes::from_static(b"only-version")).unwrap();
        let damaged = store.get("k").unwrap();
        assert_ne!(damaged, Bytes::from_static(b"only-version"));
        assert_eq!(damaged.len(), b"only-version".len());
        assert_eq!(store.injected(0), 1);
    }

    #[test]
    fn key_filter_scopes_corruption() {
        let store = flaky([Fault::corrupt(BitFlip, Every(1)).on_keys("manifest")]);
        store.put("job/0/manifest", Bytes::from_static(b"mmmm")).unwrap();
        store.put("job/0/chunk-1", Bytes::from_static(b"cccc")).unwrap();
        assert_eq!(store.get("job/0/chunk-1").unwrap(), Bytes::from_static(b"cccc"));
        assert_ne!(store.get("job/0/manifest").unwrap(), Bytes::from_static(b"mmmm"));
        assert_eq!(store.injected(0), 1);
    }

    #[test]
    fn ranged_reads_share_the_corruption_counter() {
        let store = flaky([Fault::corrupt(BitFlip, Every(2))]);
        store.put("k", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(store.get_range("k", 0, 4).unwrap(), Bytes::from_static(b"0123"));
        let (damaged, _) = store.get_part("k", 4, 4, 0, Duration::ZERO).unwrap();
        assert_ne!(damaged, Bytes::from_static(b"4567"), "read #2 corrupted");
        assert_eq!(damaged.len(), 4, "per-range flip stays inside the range");
    }

    #[test]
    fn head_injection_is_independent_of_reads() {
        let store = flaky([Fault::fail(Op::Head, Every(2))]);
        store.put("a", Bytes::from_static(b"abcd")).unwrap();
        assert!(store.head("a").is_ok()); // head #1
        assert!(store.get("a").is_ok(), "data path healthy");
        assert!(store.head("a").is_err()); // head #2 injected
        assert!(store.get("a").is_ok(), "reads have their own counter");
        assert_eq!(store.injected(0), 1);
    }

    #[test]
    fn torn_write_keeps_a_prefix_and_errs() {
        let store = flaky([Fault::tear(Once(2)).at_byte(4)]);
        store.put("k", Bytes::from_static(b"first-version")).unwrap();
        let err = store.put("k", Bytes::from_static(b"second-version")).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        // The store durably holds exactly the prefix of the torn object.
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"seco"));
        assert_eq!(store.injected(0), 1);
        // Later puts are healthy again.
        store.put("k", Bytes::from_static(b"third-version")).unwrap();
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"third-version"));
    }

    #[test]
    fn torn_write_first_n_and_derived_cut_are_deterministic() {
        let make = || flaky([Fault::tear(FirstN(2)).seeded(11)]);
        let a = make();
        let b = make();
        for s in [&a, &b] {
            assert!(s.put("k1", Bytes::from_static(b"0123456789")).is_err());
            assert!(s.put("k2", Bytes::from_static(b"abcdefghij")).is_err());
            assert!(s.put("k3", Bytes::from_static(b"full")).is_ok());
            assert_eq!(s.injected(0), 2);
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
        let store = flaky([Fault::tear(Once(1)).at_byte(2).on_keys("wal-")]);
        // Checkpoint-ish keys don't advance the torn counter.
        store.put("job/ckpt-1/manifest", Bytes::from_static(b"manifest")).unwrap();
        assert!(store.put("job/wal-00000000", Bytes::from_static(b"framebytes")).is_err());
        assert_eq!(store.get("job/wal-00000000").unwrap(), Bytes::from_static(b"fr"));
        assert_eq!(store.injected(0), 1);
    }

    #[test]
    fn read_and_write_injection_compose() {
        let store = flaky([Fault::fail(Op::Put, Once(1)), Fault::fail(Op::Read, Once(1))]);
        assert!(store.put("a", Bytes::from_static(b"x")).is_err());
        assert!(store.put("a", Bytes::from_static(b"x")).is_ok());
        assert!(store.get("a").is_err());
        assert!(store.get("a").is_ok());
        assert_eq!((store.injected(0), store.injected(1)), (1, 1));
    }

    #[test]
    fn list_and_delete_faults_count_their_own_calls_in_list_order() {
        let store = flaky([
            Fault::fail(Op::Delete, Once(1)).on_keys("manifest"),
            Fault::fail(Op::Delete, Every(1)),
            Fault::fail(Op::List, Once(2)),
        ]);
        for key in ["job/c/manifest", "job/c/chunk-0"] {
            store.put(key, Bytes::from_static(b"x")).unwrap();
        }
        assert!(store.list("job/").is_ok(), "list #1");
        assert!(store.list("job/").is_err(), "list #2 injected");
        assert_eq!(store.list("job/").unwrap().len(), 2, "nothing was deleted");
        // The manifest's first delete is fault 0's hit; fault 1 never
        // counts it. The chunk's delete is not fault 0's key: fault 1 hits.
        assert!(store.delete("job/c/manifest").is_err());
        assert!(store.delete("job/c/chunk-0").is_err());
        assert_eq!([store.injected(0), store.injected(1)], [1, 1]);
        // The manifest's retry passes fault 0 (healed) and hits fault 1.
        assert!(store.delete("job/c/manifest").is_err());
        assert_eq!([store.injected(0), store.injected(1), store.injected(2)], [1, 2, 1]);
    }

    #[test]
    fn a_delay_sleeps_at_least_half_its_max_and_decides_nothing() {
        let max = Duration::from_millis(40);
        let store = flaky([Fault::delay(Op::Read, max, Once(1)), Fault::fail(Op::Read, Once(1))]);
        store.put("k", Bytes::from_static(b"abc")).unwrap();
        let t0 = std::time::Instant::now();
        assert!(store.get("k").is_err(), "delayed, then failed");
        assert!(t0.elapsed() >= max / 2);
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"abc"));
        assert_eq!([store.injected(0), store.injected(1)], [1, 1]);
    }

    #[test]
    fn a_gone_object_is_not_found_and_the_journal_holds_what_was_forwarded() {
        let store = flaky([Fault::gone(Op::Read, Every(1)).on_keys("b"), Fault::tear(Once(2)).at_byte(1)]);
        store.put("a", Bytes::from_static(b"xyz")).unwrap();
        assert!(store.put("b", Bytes::from_static(b"xyz")).is_err(), "torn: the prefix is put");
        assert!(matches!(store.get("b"), Err(StorageError::NotFound(k)) if k == "b"));
        let (_, got) = store.get_part("a", 1, 2, 3, Duration::from_secs(4)).unwrap();
        let mut up = store.begin_multipart("m").unwrap();
        up.channel = 2;
        store.put_part(&up, 0, Bytes::from_static(b"pq"), Duration::from_secs(1)).unwrap();
        store.complete_multipart(&up).unwrap();
        store.total_bytes();
        assert!(store.head("c").is_err(), "an error of the inner store is journaled");
        let journal = store.take_journal();
        let calls: Vec<_> =
            journal.iter().map(|c| format!("{} {} {:?}", c.method, c.key, c.channel)).collect();
        let expected = [
            "put a None", "put b None", "get_part a Some(3)", "begin_multipart m None",
            "put_part m Some(2)", "complete_multipart m Some(2)", "total_bytes  None", "head c None",
        ];
        assert_eq!(calls, expected);
        let bytes: Vec<_> = journal.iter().map(|c| c.receipt.map(|r| r.bytes)).collect();
        assert_eq!(bytes, [Some(3), Some(1), Some(2), None, Some(2), Some(2), None, None]);
        assert_eq!(journal[2].receipt.unwrap().completed_at, got.completed_at);
        assert!(store.take_journal().is_empty());
    }

    #[test]
    fn a_failed_put_is_not_counted_by_a_tear() {
        let store = flaky([Fault::fail(Op::Put, Once(1)), Fault::tear(Once(1)).at_byte(1)]);
        assert!(store.put("k", Bytes::from_static(b"abc")).is_err(), "failed, not torn");
        assert!(store.get("k").is_err(), "a failed put stores nothing");
        assert!(store.put("k", Bytes::from_static(b"abc")).is_err(), "torn");
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"a"));
        assert_eq!([store.injected(0), store.injected(1)], [1, 1]);
    }
}
