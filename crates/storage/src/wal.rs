//! Segmented, checksummed write-ahead delta log.
//!
//! Check-N-Run's frequency model (§4.1) trades lost work against checkpoint
//! write cost; a failure still loses everything since the last interval
//! checkpoint. The WAL closes that gap Checkmate-style: after every training
//! iteration the engine appends a small delta record here, and restore
//! replays the log tail on top of the last full checkpoint.
//!
//! # Wire layout
//!
//! A WAL **segment** is a bare concatenation of **frames**. Each frame is a
//! standard v5 envelope ([`crate::envelope`]) carrying
//! [`crate::envelope::FLAG_WAL_FRAME`], whose payload is:
//!
//! ```text
//! [record_seq: u64 LE][application payload ...]
//! ```
//!
//! `record_seq` is monotonic across the whole log (it never resets at
//! segment boundaries), so replay can detect gaps and out-of-order frames.
//! Segments live under flat keys `{job}/wal-{index:08}` — deliberately flat
//! (no `/` after the job prefix) so the checkpoint controller's orphan sweep,
//! which reclaims manifestless checkpoint *directories*, never touches them.
//!
//! # Crash-consistency contract
//!
//! Every append syncs: a record is durable before training continues, so a
//! crash loses at most the iteration that was mid-append. The writer has
//! no append primitive (object stores don't), so every sync re-puts the
//! whole current segment buffer; the store's [`PutReceipt`] marks the
//! simulated durability point (the "fsync"). A frame whose put failed
//! stays in the buffer and rides the next append's put. A crash therefore
//! leaves the newest segment as some *prefix* of what the writer buffered —
//! possibly cut mid-frame. Replay walks frames front to back, verifies each
//! frame's checksum once, and stops cleanly at the first torn, corrupt, or out-of-sequence
//! frame: everything before the stop point is applied, everything after is
//! reported as a [`WalTail::Torn`] diagnosis, and nothing is ever silently
//! decoded from garbage. A frame of another wire version is unusable in
//! exactly this sense: replay stops in front of it and the diagnosis names
//! the version.
//!
//! # Copies
//!
//! An append writes its frame once, in place at the tail of the segment
//! buffer (header reserved, sequence and payload appended, envelope sealed
//! over that slice), and its sync's put copies the whole segment — the one
//! copy left; replay hands out zero-copy views of the fetched
//! segment; validation walks the borrowed bytes.

use crate::envelope::{self, FLAG_WAL_FRAME, HEADER_LEN};
use crate::{ObjectStore, PutReceipt, Result, StorageError};
use bytes::Bytes;
use std::ops::Range;

/// Bytes of the `record_seq` prefix inside every frame payload.
const SEQ_LEN: usize = 8;

/// Configuration of the delta log writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Rotate to a new segment once the current one reaches this many bytes
    /// (checked after a sync; a segment may exceed it by one frame).
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self { segment_bytes: 1 << 20 }
    }
}

/// The flat object key of WAL segment `index` for `job`.
pub fn segment_key(job: &str, index: u64) -> String {
    format!("{job}/wal-{index:08}")
}

/// Whether `key` names a WAL segment (final path component `wal-...`).
pub fn is_wal_segment_key(key: &str) -> bool {
    key.rsplit('/').next().is_some_and(|name| name.starts_with("wal-"))
}

/// Appends framed records to a segmented log on an object store.
///
/// Payload-agnostic: callers hand in opaque bytes (the engine's quantized
/// delta records) and get back, per append, the sync's receipt and the
/// bytes it made durable. Counts go to the metrics registry attached with
/// [`WalWriter::set_obs`] (`cnr_obs::names::WAL_*`), the only place they
/// are kept.
pub struct WalWriter {
    store: std::sync::Arc<dyn ObjectStore>,
    job: String,
    config: WalConfig,
    /// Index of the segment currently being written. Monotonic for the
    /// writer's lifetime — never reused after rotation or truncation.
    seg_index: u64,
    /// Full contents of the current segment (durable prefix + frames whose
    /// put failed).
    buf: Vec<u8>,
    /// Length of `buf`'s prefix the last successful put made durable.
    durable_len: usize,
    /// Frames in `buf` past `durable_len`: appended, but their put failed.
    pending: u64,
    /// Next record sequence number (monotonic across segments).
    next_seq: u64,
    /// Indices of segments with at least one synced byte, oldest first.
    live: Vec<u64>,
    obs: Option<cnr_obs::Obs>,
}

impl WalWriter {
    /// Creates a writer for `job` starting at segment 0, sequence 0.
    pub fn new(store: std::sync::Arc<dyn ObjectStore>, job: &str, config: WalConfig) -> Self {
        Self {
            store,
            job: job.to_string(),
            config,
            seg_index: 0,
            buf: Vec::new(),
            durable_len: 0,
            pending: 0,
            next_seq: 0,
            live: Vec::new(),
            obs: None,
        }
    }

    /// Attaches an observability handle; counters recorded from now on.
    pub fn set_obs(&mut self, obs: cnr_obs::Obs) {
        self.obs = Some(obs);
    }

    /// Appends one record and makes it durable: the frame is sealed in
    /// place at the tail of the segment buffer, and the whole segment is
    /// re-put (the store's [`PutReceipt`] is the "fsync"), then rotated
    /// if full. Returns that receipt and the frame bytes this put made
    /// durable for the first time — this record's frame plus any whose
    /// put failed before.
    ///
    /// A failed put keeps its frame in the segment buffer: the next
    /// append's put carries it, and a [`WalWriter::truncate`] in between
    /// drops it and gives its sequence number back.
    pub fn append(&mut self, payload: &[u8]) -> Result<(PutReceipt, u64)> {
        let frame_at = self.buf.len();
        let frame_len = HEADER_LEN + SEQ_LEN + payload.len();
        self.buf.reserve(frame_len);
        self.buf.resize(frame_at + HEADER_LEN, 0);
        self.buf.extend_from_slice(&self.next_seq.to_le_bytes());
        self.buf.extend_from_slice(payload);
        envelope::seal_in_place(&mut self.buf[frame_at..], FLAG_WAL_FRAME);
        self.next_seq += 1;
        self.pending += 1;
        self.count(cnr_obs::names::WAL_APPENDS, 1);
        self.count(cnr_obs::names::WAL_BYTES_APPENDED, frame_len as u64);

        let key = segment_key(&self.job, self.seg_index);
        let receipt = self.store.put(&key, Bytes::copy_from_slice(&self.buf))?;
        if self.live.last() != Some(&self.seg_index) {
            self.live.push(self.seg_index);
        }
        let made_durable = (self.buf.len() - self.durable_len) as u64;
        self.durable_len = self.buf.len();
        self.pending = 0;
        self.count(cnr_obs::names::WAL_SYNCS, 1);
        self.count(cnr_obs::names::WAL_BYTES_SYNCED, self.buf.len() as u64);
        if self.buf.len() as u64 >= self.config.segment_bytes {
            self.roll();
            self.count(cnr_obs::names::WAL_SEGMENTS_ROTATED, 1);
        }
        Ok((receipt, made_durable))
    }

    /// Adds `n` to counter `name` of the attached registry, if any.
    fn count(&self, name: &str, n: u64) {
        if let Some(obs) = &self.obs {
            obs.registry().counter_add(name, n);
        }
    }

    /// Starts the next segment with an empty buffer.
    fn roll(&mut self) {
        self.seg_index += 1;
        self.buf.clear();
        self.durable_len = 0;
    }

    /// Drops the whole log: deletes every segment the store lists for the
    /// job (a registered checkpoint supersedes them all) and starts a fresh
    /// segment. Sequence numbers keep counting — replay uses contiguity,
    /// not absolute zero.
    ///
    /// The store's listing, not only the segments this writer remembers
    /// syncing: a segment that outlived an earlier truncate sits in front
    /// of the live log, its sequence numbers end where the next segment's
    /// do not begin, and replay would stop at that gap for good.
    ///
    /// Segments go oldest first and the first failed delete stops the
    /// walk, so what an `Err` leaves is a contiguous run of whole segments
    /// — still [`WalWriter::live_segments`], retried by the next truncate.
    /// The writer rolls to a fresh segment either way, and the frames whose
    /// put failed, which it drops, give their sequence numbers back, so the
    /// records appended next continue the leftover run without a gap.
    pub fn truncate(&mut self) -> Result<usize> {
        let mut deleted = 0;
        let outcome = list_segments(self.store.as_ref(), &self.job).and_then(|keys| {
            for key in keys {
                match self.store.delete(&key) {
                    Ok(()) => deleted += 1,
                    Err(StorageError::NotFound(_)) => {}
                    Err(e) => return Err(e),
                }
                self.live.retain(|&i| segment_key(&self.job, i) != key);
            }
            // Whatever is left was synced once and is no longer listed.
            self.live.clear();
            Ok(deleted)
        });
        if !self.buf.is_empty() {
            self.roll();
        }
        self.next_seq -= self.pending;
        self.pending = 0;
        self.count(cnr_obs::names::WAL_TRUNCATIONS, 1);
        self.count(cnr_obs::names::WAL_TRUNCATE_FAILURES, u64::from(outcome.is_err()));
        if let Some(obs) = &self.obs {
            let now = obs.now();
            obs.record(
                cnr_obs::Span::new(cnr_obs::names::SPAN_WAL_TRUNCATE, now, now)
                    .with_attr("segments_deleted", deleted.to_string()),
            );
        }
        outcome
    }

    /// Keys of every segment with synced data, oldest first, plus the
    /// in-progress segment if it has synced bytes. These are live objects
    /// the controller must protect from the orphan sweep and the scrubber
    /// must cover.
    pub fn live_segments(&self) -> Vec<String> {
        self.live.iter().map(|&i| segment_key(&self.job, i)).collect()
    }
}

/// One successfully replayed record.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The frame's monotonic sequence number.
    pub seq: u64,
    /// The application payload (zero-copy view into the segment buffer).
    pub payload: Bytes,
}

/// How the log ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// Every frame verified and the last segment ended exactly on a frame
    /// boundary.
    Clean,
    /// Replay stopped before the end of the stored bytes: the first
    /// unusable frame, with a typed diagnosis. Everything before
    /// `frame_offset` in `segment` was applied; nothing after it was.
    Torn {
        /// Segment object the stop happened in.
        segment: String,
        /// Byte offset of the first unusable frame within that segment.
        frame_offset: usize,
        /// Human-readable reason (truncated header, checksum mismatch,
        /// gap...).
        reason: String,
    },
}

/// The result of replaying a log: the clean prefix plus a tail diagnosis.
#[derive(Debug, Clone)]
pub struct WalReplay {
    /// Verified records in sequence order.
    pub records: Vec<WalRecord>,
    /// Why replay stopped.
    pub tail: WalTail,
    /// Segment objects read.
    pub segments_read: usize,
    /// Total segment bytes fetched.
    pub bytes_read: u64,
}

impl WalReplay {
    /// An empty, clean replay (no log present).
    pub fn empty() -> Self {
        Self { records: Vec::new(), tail: WalTail::Clean, segments_read: 0, bytes_read: 0 }
    }
}

/// Walks the frames of one segment buffer, calling `on_record(seq,
/// payload_range)` for each verified frame, sequence numbers continuing
/// from `expect_seq`. Returns `Ok(next_expected_seq)` when the segment ends
/// exactly on a frame boundary, `Err((offset, reason))` at the first
/// unusable frame.
fn walk_segment(
    bytes: &[u8],
    mut expect_seq: Option<u64>,
    mut on_record: impl FnMut(u64, Range<usize>),
) -> std::result::Result<Option<u64>, (usize, String)> {
    let mut off = 0;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < HEADER_LEN {
            return Err((off, format!("torn frame header: {} of {HEADER_LEN} bytes", rest.len())));
        }
        let frame_len = match envelope::object_len(rest) {
            Ok(len) => len,
            Err(e) => return Err((off, format!("bad frame header: {e}"))),
        };
        if rest.len() < frame_len {
            return Err((
                off,
                format!("torn frame body: {} of {frame_len} bytes", rest.len()),
            ));
        }
        let (flags, payload) = match envelope::unwrap(&rest[..frame_len]) {
            Ok(v) => v,
            Err(e) => return Err((off, format!("frame verify failed: {e}"))),
        };
        if flags & FLAG_WAL_FRAME == 0 {
            return Err((off, "frame missing WAL flag".into()));
        }
        if payload.len() < SEQ_LEN {
            return Err((off, "frame payload shorter than sequence prefix".into()));
        }
        let seq = u64::from_le_bytes(payload[..SEQ_LEN].try_into().unwrap());
        if let Some(expected) = expect_seq {
            if seq != expected {
                return Err((off, format!("sequence gap: expected {expected}, found {seq}")));
            }
        }
        on_record(seq, off + HEADER_LEN + SEQ_LEN..off + frame_len);
        expect_seq = Some(seq + 1);
        off += frame_len;
    }
    Ok(expect_seq)
}

/// Validates one segment buffer without collecting records: every frame
/// must verify and the frames must consume the buffer exactly. Returns the
/// frame count, or a description of the first problem. This is what the
/// scrubber uses — a WAL segment is multiple envelopes, so the plain
/// single-envelope `inspect` would reject a perfectly healthy one. The
/// walk borrows `buf`; nothing is copied.
pub fn validate_segment(buf: &[u8]) -> std::result::Result<usize, String> {
    if buf.is_empty() {
        return Err("empty wal segment".into());
    }
    let mut frames = 0;
    match walk_segment(buf, None, |_, _| frames += 1) {
        Ok(_) => Ok(frames),
        Err((off, reason)) => Err(format!("at offset {off}: {reason}")),
    }
}

/// Lists the live segment keys of `job`'s log, oldest first.
pub fn list_segments(store: &dyn ObjectStore, job: &str) -> Result<Vec<String>> {
    let mut keys: Vec<String> = store
        .list(&format!("{job}/wal-"))?
        .into_iter()
        .filter(|k| is_wal_segment_key(k))
        .collect();
    keys.sort(); // zero-padded indices: lexicographic == numeric
    Ok(keys)
}

/// Replays `job`'s whole log with clean-prefix semantics.
///
/// Segments are read oldest first; frames are verified and must carry
/// contiguous sequence numbers. The first torn, corrupt, or out-of-sequence
/// frame stops replay — records collected so far are returned along with a
/// [`WalTail::Torn`] diagnosis. Hard store errors (I/O) still propagate as
/// `Err`; a missing log is simply an empty clean replay.
pub fn replay(store: &dyn ObjectStore, job: &str) -> Result<WalReplay> {
    let keys = list_segments(store, job)?;
    let mut replay = WalReplay::empty();
    let mut expect_seq: Option<u64> = None;
    for key in keys {
        let buf = match store.get(&key) {
            Ok(b) => b,
            // Raced with truncation: a vanished segment ends the log.
            Err(StorageError::NotFound(_)) => break,
            Err(e) => return Err(e),
        };
        replay.segments_read += 1;
        replay.bytes_read += buf.len() as u64;
        let records = &mut replay.records;
        let walked = walk_segment(&buf, expect_seq, |seq, payload| {
            records.push(WalRecord { seq, payload: buf.slice(payload) })
        });
        match walked {
            Ok(next) => expect_seq = next,
            Err((off, reason)) => {
                replay.tail = WalTail::Torn { segment: key, frame_offset: off, reason };
                return Ok(replay);
            }
        }
    }
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flaky::{FailureMode, FlakyStore};
    use crate::memory::InMemoryStore;
    use std::sync::Arc;

    fn store() -> Arc<InMemoryStore> {
        Arc::new(InMemoryStore::new())
    }

    fn writer<S: ObjectStore + 'static>(store: &Arc<S>, config: WalConfig) -> WalWriter {
        WalWriter::new(Arc::clone(store) as Arc<dyn ObjectStore>, "job", config)
    }

    #[test]
    fn roundtrip_records_in_order() {
        let s = store();
        let mut w = writer(&s, WalConfig::default());
        for i in 0u32..5 {
            w.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        assert_eq!(r.records.len(), 5);
        for (i, rec) in r.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(&rec.payload[..], format!("rec-{i}").as_bytes());
        }
        assert_eq!(r.segments_read, 1);
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let s = store();
        // Tiny segments: every frame (~30 bytes) exceeds the threshold.
        let mut w = writer(&s, WalConfig { segment_bytes: 1 });
        for i in 0u32..4 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(w.live_segments().len(), 4);
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        assert_eq!(r.segments_read, 4);
        assert_eq!(r.records.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    #[test]
    fn truncate_deletes_segments_and_keeps_seq_monotonic() {
        let s = store();
        let mut w = writer(&s, WalConfig { segment_bytes: 1 });
        w.append(b"a").unwrap();
        w.append(b"b").unwrap();
        assert_eq!(w.truncate().unwrap(), 2);
        assert!(w.live_segments().is_empty());
        assert!(replay(s.as_ref(), "job").unwrap().records.is_empty());
        // New appends continue the sequence — no reuse of 0.
        w.append(b"c").unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].seq, 2);
    }

    /// Delegates to a store whose puts fail as `puts` says, failing the
    /// delete of `key` once.
    struct FailsOneDelete {
        inner: FlakyStore<InMemoryStore>,
        key: String,
        armed: std::sync::atomic::AtomicBool,
    }

    fn fails_one_delete(key: String, puts: FailureMode) -> Arc<FailsOneDelete> {
        Arc::new(FailsOneDelete {
            inner: FlakyStore::with_mode(InMemoryStore::new(), puts),
            key,
            armed: true.into(),
        })
    }

    impl ObjectStore for FailsOneDelete {
        fn put(&self, key: &str, data: Bytes) -> Result<PutReceipt> {
            self.inner.put(key, data)
        }
        fn get(&self, key: &str) -> Result<Bytes> {
            self.inner.get(key)
        }
        fn delete(&self, key: &str) -> Result<()> {
            if key == self.key && self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                return Err(StorageError::Io(std::io::Error::other("injected delete failure")));
            }
            self.inner.delete(key)
        }
        fn list(&self, prefix: &str) -> Result<Vec<String>> {
            self.inner.list(prefix)
        }
        fn head(&self, key: &str) -> Result<crate::ObjectMeta> {
            self.inner.head(key)
        }
        fn total_bytes(&self) -> u64 {
            self.inner.total_bytes()
        }
    }

    #[test]
    fn failed_truncate_keeps_reporting_the_segments_it_left_behind() {
        let s = fails_one_delete(segment_key("job", 1), FailureMode::Every(0));
        let obs = cnr_obs::Obs::wall();
        let mut w = WalWriter::new(s.clone(), "job", WalConfig { segment_bytes: 1 });
        w.set_obs(obs.clone());
        for payload in [b"a", b"b", b"c"] {
            w.append(payload).unwrap();
        }
        assert!(matches!(w.truncate(), Err(StorageError::Io(_))));
        let failures = || obs.registry().counter(cnr_obs::names::WAL_TRUNCATE_FAILURES);
        assert_eq!(failures(), 1);
        // Segment 0 went; 1 (the failed delete) and 2 (never reached) are
        // still in the store, so the scrubber and the controller must keep
        // hearing about them.
        let left = vec![segment_key("job", 1), segment_key("job", 2)];
        assert_eq!(list_segments(s.as_ref(), "job").unwrap(), left);
        assert_eq!(w.live_segments(), left);
        // The writer rolled on: the next record lands in a fresh segment
        // and continues the leftover run, so replay reads through it.
        w.append(b"d").unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        assert_eq!(r.records.iter().map(|r| r.seq).collect::<Vec<_>>(), [1, 2, 3]);
        // The retry finishes the job.
        assert_eq!(w.truncate().unwrap(), 3);
        assert!(w.live_segments().is_empty());
        assert!(list_segments(s.as_ref(), "job").unwrap().is_empty());
        assert_eq!(failures(), 1);
    }

    /// A frame whose put failed stays in the segment buffer, and the next
    /// append's put makes it durable: replay returns both records, in
    /// sequence order.
    #[test]
    fn a_failed_sync_is_made_durable_by_the_next_append() {
        let s = Arc::new(FlakyStore::with_mode(InMemoryStore::new(), FailureMode::Once(2)));
        let mut w = writer(&s, WalConfig::default());
        w.append(b"a").unwrap();
        assert!(w.append(b"b").is_err(), "the second put fails");
        w.append(b"c").unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        let got: Vec<_> = r.records.iter().map(|r| (r.seq, &r.payload[..])).collect();
        assert_eq!(got, [(0, &b"a"[..]), (1, b"b"), (2, b"c")]);
    }

    /// Frames whose put failed were never durable: a truncate drops them
    /// and their sequence numbers go to the next records, so a run of
    /// segments a failed truncate left behind is still continued without
    /// a gap.
    #[test]
    fn a_failed_truncate_with_unsynced_appends_leaves_no_sequence_gap() {
        let s = fails_one_delete(segment_key("job", 0), FailureMode::Once(3));
        let mut w = WalWriter::new(s.clone(), "job", WalConfig::default());
        w.append(b"a").unwrap();
        w.append(b"b").unwrap();
        assert!(w.append(b"c").is_err(), "`c` was never synced");
        assert!(w.truncate().is_err());
        w.append(b"d").unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        let got: Vec<_> = r.records.iter().map(|r| (r.seq, &r.payload[..])).collect();
        assert_eq!(got, [(0, &b"a"[..]), (1, b"b"), (2, b"d")]);
    }

    #[test]
    fn torn_tail_stops_cleanly_at_every_cut_point() {
        let s = store();
        let mut w = writer(&s, WalConfig::default());
        for i in 0u32..3 {
            w.append(format!("payload-{i}").as_bytes()).unwrap();
        }
        let key = segment_key("job", 0);
        let full = s.get(&key).unwrap().to_vec();
        // Cut the segment at every possible byte length; replay must always
        // return a clean prefix of whole records and a torn tail, never err.
        for cut in 0..full.len() {
            s.put(&key, Bytes::copy_from_slice(&full[..cut])).unwrap();
            let r = replay(s.as_ref(), "job").unwrap();
            assert!(r.records.len() <= 3);
            for (i, rec) in r.records.iter().enumerate() {
                assert_eq!(rec.seq, i as u64);
                assert_eq!(&rec.payload[..], format!("payload-{i}").as_bytes());
            }
            // Frames are equal-length here; a cut exactly on a frame
            // boundary *is* a clean prefix — anything else is torn.
            let frame_len = full.len() / 3;
            if cut % frame_len == 0 {
                assert_eq!(r.tail, WalTail::Clean, "cut={cut}");
                assert_eq!(r.records.len(), cut / frame_len);
            } else {
                assert!(matches!(r.tail, WalTail::Torn { .. }), "cut={cut}");
                assert_eq!(r.records.len(), cut / frame_len);
            }
        }
    }

    #[test]
    fn corrupt_mid_frame_stops_before_later_clean_frames() {
        let s = store();
        let mut w = writer(&s, WalConfig::default());
        for i in 0u32..3 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        let key = segment_key("job", 0);
        let mut buf = s.get(&key).unwrap().to_vec();
        // Flip a payload byte inside the second frame.
        let frame_len = buf.len() / 3;
        buf[frame_len + HEADER_LEN + 2] ^= 0x40;
        s.put(&key, Bytes::copy_from_slice(&buf)).unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), 1, "only the prefix before the corrupt frame");
        match r.tail {
            WalTail::Torn { frame_offset, ref reason, .. } => {
                assert_eq!(frame_offset, frame_len);
                assert!(reason.contains("verify failed"), "{reason}");
            }
            WalTail::Clean => panic!("corruption must not read clean"),
        }
    }

    /// The frame an append seals in place at the segment's tail is, byte
    /// for byte, the envelope of `[seq ++ payload]`.
    #[test]
    fn append_in_place_equals_the_wrapped_frame() {
        let s = store();
        let mut w = writer(&s, WalConfig::default());
        let payloads: [&[u8]; 3] = [b"first record", b"", b"a third, longer record payload"];
        let mut want = Vec::new();
        for (seq, payload) in payloads.iter().enumerate() {
            let (_, made_durable) = w.append(payload).unwrap();
            let mut framed = (seq as u64).to_le_bytes().to_vec();
            framed.extend_from_slice(payload);
            let frame = envelope::wrap_with_flags(&framed, FLAG_WAL_FRAME);
            assert_eq!(made_durable, frame.len() as u64, "one new frame per put");
            want.extend_from_slice(&frame);
        }
        assert_eq!(s.get(&segment_key("job", 0)).unwrap().to_vec(), want);
    }

    /// A frame written under wire v3 is unusable, not undefined: replay
    /// keeps the clean prefix in front of it and the diagnosis names the
    /// version; validation (the scrubber's view) rejects the segment.
    #[test]
    fn a_v3_frame_is_a_torn_tail_naming_its_version() {
        let s = store();
        let mut w = writer(&s, WalConfig::default());
        w.append(b"written under v5").unwrap();
        let key = segment_key("job", 0);
        let clean = s.get(&key).unwrap().to_vec();
        for magic in [*b"CNR3", envelope::MAGIC] {
            // A v3 frame (its own magic and version, checked before the
            // checksum), and the v3 version behind today's magic.
            let mut old = envelope::wrap_with_flags(b"\x01\0\0\0\0\0\0\0older", FLAG_WAL_FRAME);
            old[..4].copy_from_slice(&magic);
            old[4..6].copy_from_slice(&3u16.to_le_bytes());
            let mut segment = clean.clone();
            segment.extend_from_slice(&old);
            s.put(&key, Bytes::from(segment.clone())).unwrap();
            let r = replay(s.as_ref(), "job").unwrap();
            assert_eq!(r.records.len(), 1, "the v5 prefix replays");
            assert_eq!(&r.records[0].payload[..], b"written under v5");
            match r.tail {
                WalTail::Torn { frame_offset, ref reason, .. } => {
                    assert_eq!(frame_offset, clean.len());
                    assert!(reason.contains("version 3"), "{reason}");
                }
                WalTail::Clean => panic!("a v3 frame must not read clean"),
            }
            let why = validate_segment(&segment).unwrap_err();
            assert!(why.contains("version 3"), "{why}");
        }
    }

    /// A frame exactly as the v4 writer sealed it — valid for v4 — is a
    /// torn tail behind the clean prefix, and the reason names version 4;
    /// validation rejects the segment by number too.
    #[test]
    fn a_v4_frame_is_a_torn_tail_naming_its_version() {
        let s = store();
        let mut w = writer(&s, WalConfig::default());
        w.append(b"written under v5").unwrap();
        let key = segment_key("job", 0);
        let mut segment = s.get(&key).unwrap().to_vec();
        let clean_len = segment.len();
        segment.extend_from_slice(envelope::V4_WAL_FRAME);
        s.put(&key, Bytes::from(segment.clone())).unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), 1, "the v5 prefix replays");
        match r.tail {
            WalTail::Torn { frame_offset, ref reason, .. } => {
                assert_eq!(frame_offset, clean_len);
                assert!(reason.contains("unsupported envelope version 4 "), "{reason}");
            }
            WalTail::Clean => panic!("a v4 frame must not read clean"),
        }
        let why = validate_segment(&segment).unwrap_err();
        assert!(why.contains("version 4"), "{why}");
        let why = validate_segment(envelope::V4_WAL_FRAME).unwrap_err();
        assert!(why.contains("version 4"), "{why}");
    }

    #[test]
    fn sequence_gap_is_torn() {
        let s = store();
        let mut w = writer(&s, WalConfig { segment_bytes: 1 });
        for i in 0u32..3 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        // Delete the middle segment: seq 0 then seq 2 is a gap.
        s.delete(&segment_key("job", 1)).unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), 1);
        assert!(
            matches!(r.tail, WalTail::Torn { ref reason, .. } if reason.contains("sequence gap"))
        );
    }

    #[test]
    fn validate_segment_accepts_healthy_and_rejects_tampered() {
        let s = store();
        let mut w = writer(&s, WalConfig::default());
        for i in 0u32..4 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        let buf = s.get(&segment_key("job", 0)).unwrap().to_vec();
        assert_eq!(validate_segment(&buf).unwrap(), 4);
        // Any single bit flip anywhere must fail validation.
        let mut bad = buf.clone();
        bad[buf.len() / 2] ^= 0x01;
        assert!(validate_segment(&bad).is_err());
        // A truncated tail fails validation (scrub sees a torn segment).
        assert!(validate_segment(&buf[..buf.len() - 1]).is_err());
        assert!(validate_segment(&[]).is_err());
    }

    #[test]
    fn key_helpers() {
        assert_eq!(segment_key("exp/j1", 7), "exp/j1/wal-00000007");
        assert!(is_wal_segment_key("exp/j1/wal-00000007"));
        assert!(!is_wal_segment_key("exp/j1/ckpt-00000001/manifest"));
    }

    #[test]
    fn flaky_torn_write_yields_a_typed_clean_prefix_on_replay() {
        use crate::flaky::{FlakyStore, TornWriteSpec};
        // The third sync's put tears: the device keeps a strict prefix and
        // the writer sees the write fail. The unacknowledged record — and
        // only it — is lost; replay stops at the torn frame with a typed
        // diagnosis instead of erroring or decoding garbage.
        let flaky = Arc::new(FlakyStore::tearing_writes(
            InMemoryStore::new(),
            // Cut inside the second frame (each frame is ~34 bytes).
            TornWriteSpec::once(3).at_byte(40),
        ));
        let mut w = WalWriter::new(
            Arc::clone(&flaky) as Arc<dyn ObjectStore>,
            "job",
            WalConfig::default(),
        );
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        let torn = w.append(b"third");
        assert!(torn.is_err(), "the torn put is unacknowledged");
        assert_eq!(flaky.torn_writes_injected(), 1);
        let r = replay(flaky.as_ref(), "job").unwrap();
        // Each sync re-puts the whole segment; the cut at byte 40 lands
        // inside the second of the three frames, so exactly the first
        // record survives and the tail is diagnosed.
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].seq, 0);
        assert_eq!(&r.records[0].payload[..], b"first");
        assert!(
            matches!(r.tail, WalTail::Torn { .. }),
            "a mid-frame cut must be diagnosed, got {:?}",
            r.tail
        );
    }

    #[test]
    fn missing_log_is_empty_clean_replay() {
        let s = store();
        let r = replay(s.as_ref(), "job").unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.tail, WalTail::Clean);
    }

    /// The registry attached with `set_obs` holds the writer's counts:
    /// four appends into one-frame segments sync and rotate four times,
    /// a put that fails counts its append only, and its frame's bytes are
    /// synced (and reported) by the next append.
    #[test]
    fn writer_with_obs_mirrors_every_stat_into_the_registry() {
        use cnr_obs::names as n;
        let obs = cnr_obs::Obs::wall();
        let s = Arc::new(FlakyStore::with_mode(InMemoryStore::new(), FailureMode::Once(5)));
        let mut w = writer(&s, WalConfig { segment_bytes: 1 });
        w.set_obs(obs.clone());
        let mut frames = Vec::new();
        for i in 0..4u8 {
            let (_, made_durable) = w.append(&[i; 8]).unwrap();
            frames.push(made_durable);
        }
        let frame = frames[0];
        assert!(frames.iter().all(|&f| f == frame), "{frames:?}");
        assert!(w.append(&[4; 8]).is_err());
        let (_, made_durable) = w.append(&[5; 8]).unwrap();
        assert_eq!(made_durable, 2 * frame, "the failed frame rides this put");
        w.truncate().unwrap();

        let r = obs.registry();
        assert_eq!(r.counter(n::WAL_APPENDS), 6);
        assert_eq!(r.counter(n::WAL_SYNCS), 5);
        assert_eq!(r.counter(n::WAL_BYTES_APPENDED), 6 * frame);
        assert_eq!(r.counter(n::WAL_BYTES_SYNCED), 6 * frame);
        assert_eq!(r.counter(n::WAL_SEGMENTS_ROTATED), 5);
        assert_eq!(r.counter(n::WAL_TRUNCATIONS), 1);
        assert_eq!(r.counter(n::WAL_TRUNCATE_FAILURES), 0);
        assert!(obs.spans().iter().any(|s| s.name == n::SPAN_WAL_TRUNCATE));
    }
}
