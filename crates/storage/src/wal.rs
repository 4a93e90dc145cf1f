//! Checksummed write-ahead delta log, one object per sync.
//!
//! Check-N-Run's frequency model (§4.1) trades lost work against checkpoint
//! write cost; a failure still loses everything since the last interval
//! checkpoint. The WAL closes that gap Checkmate-style: after every training
//! iteration the engine appends a small delta record here, and restore
//! replays the log tail on top of the last full checkpoint.
//!
//! # Wire layout
//!
//! The log is a run of **segment** objects, each a bare concatenation of
//! **frames**. Each frame is a standard v9 envelope ([`crate::envelope`])
//! carrying [`crate::envelope::FLAG_WAL_FRAME`]. A record is one **body**
//! frame, optionally followed by one **trailer** frame, which also carries
//! [`crate::envelope::FLAG_WAL_TRAILER`]:
//!
//! ```text
//! body:    [record_seq: u64 LE][application payload ...]
//! trailer: [application trailer ...]
//! ```
//!
//! A trailer has no sequence number: it belongs to the body frame directly
//! in front of it in the same segment, and one anywhere else — at a
//! segment's start, or behind another trailer — is where the walk is torn.
//! The engine's delta records keep their dense layers in the trailer, so
//! a reader that needs only the newest record's can fetch an older segment
//! as the prefix in front of its last trailer: such a prefix ends at a body
//! and walks clean.
//!
//! Every append syncs, and every sync puts one new segment holding the
//! records it makes durable: normally just its own, plus any record whose
//! put failed before. `record_seq` is monotonic across the whole log, so
//! replay can detect gaps and out-of-order records across segments.
//! Segments live under flat keys `{job}/wal-{index:020}` — flat (no `/`
//! after the job prefix) so the checkpoint controller's orphan sweep,
//! which reclaims manifestless checkpoint *directories*, never touches
//! them, and padded to the width of `u64::MAX` so that listing order is
//! numeric order for every index.
//!
//! # Crash-consistency contract
//!
//! A record is durable before training continues: the store's
//! [`PutReceipt`] marks the simulated durability point (the "fsync"), so a
//! crash loses at most the iteration that was mid-append. A put that
//! fails does not consume its key: the writer keeps the frames and puts
//! them again, with the next record behind them, under the *same* key —
//! overwriting whatever prefix a torn write left there. A crash therefore
//! leaves the newest segment as some *prefix* of what the writer put —
//! possibly cut mid-frame, or between a body and its trailer — behind
//! whole older segments. Replay reads the segments in key order, walks
//! each one's frames front to back, verifies each frame's checksum once,
//! and stops cleanly at the first torn, corrupt, out-of-sequence or
//! unpaired frame: everything before the stop point is applied,
//! everything after it — later segments included — is reported as a
//! [`WalTail::Torn`] diagnosis, and nothing is ever silently decoded from
//! garbage. A record whose body verified comes back even when the walk
//! stopped at its trailer, or its segment ended in front of one, without
//! it ([`WalRecord::trailer`] is `None`): the walker cannot tell a segment
//! fetched short of its last trailer on purpose from one torn there, so
//! whether such a record is whole is its reader's call. The engine's
//! restore, which knows which segments it fetched whole, counts a record
//! of one of those that lacks its trailer as torn. A frame of another wire
//! version is unusable in exactly this sense: replay stops in front of it
//! and the diagnosis names the version. The walk is one function, [`walk_segments`], over segments
//! however they were fetched: [`replay`] lists them and reads each with
//! `get`; a restore fetches them over its reader hosts' downlinks and
//! hands them over in list order.
//!
//! # Copies
//!
//! An append writes its frames once, into a buffer sized exactly for the
//! segment it becomes: header and sequence reserved, the record's body
//! written behind them by the caller ([`WalWriter::append_with`]), the
//! envelope sealed over that slice, and the same again for a trailer. The
//! sync moves the buffer into the store without copying it. Only a failed
//! put copies: its frames are kept for the retry. Replay hands out
//! zero-copy views of the fetched segments; validation walks the borrowed
//! bytes.

use crate::envelope::{self, FLAG_WAL_FRAME, FLAG_WAL_TRAILER, HEADER_LEN};
use crate::{ObjectStore, PutReceipt, Result, StorageError};
use bytes::Bytes;
use std::ops::Range;

/// Bytes of the `record_seq` prefix inside every frame payload.
const SEQ_LEN: usize = 8;

/// A writer of a frame's payload into the segment buffer it is handed.
type WritePayload = fn(&mut Vec<u8>);

/// The `trailer` argument of [`WalWriter::append_with`] for a record
/// without one.
const NO_TRAILER: Option<(usize, WritePayload)> = None;

/// Configuration of the delta log writer. It has no settings: every
/// append syncs, and every sync puts one segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalConfig;

/// The flat object key of WAL segment `index` for `job`.
pub fn segment_key(job: &str, index: u64) -> String {
    format!("{job}/wal-{index:020}")
}

/// Whether `key` names a WAL segment (final path component `wal-...`).
pub fn is_wal_segment_key(key: &str) -> bool {
    key.rsplit('/').next().is_some_and(|name| name.starts_with("wal-"))
}

/// Appends framed records to a log on an object store, one segment per
/// sync.
///
/// Payload-agnostic: callers hand in opaque bytes (the engine's quantized
/// delta records), or write them in place, and get back, per append, the
/// sync's receipt and the bytes it made durable. Counts go to the metrics
/// registry attached with [`WalWriter::set_obs`] (`cnr_obs::names::WAL_*`),
/// the only place they are kept.
pub struct WalWriter {
    store: std::sync::Arc<dyn ObjectStore>,
    job: String,
    /// Index of the segment the next sync puts. It advances only when a
    /// put succeeds, so the retry of a failed put overwrites whatever the
    /// failure left under its key; it is never reused after that.
    next_index: u64,
    /// Records whose put failed, oldest first: the next sync carries them.
    unsynced: Vec<u8>,
    /// How many records `unsynced` holds.
    unsynced_records: u64,
    /// Next record sequence number (monotonic across segments).
    next_seq: u64,
    /// Keys of the segments this writer put or a truncate left behind,
    /// oldest first.
    live: Vec<String>,
    obs: Option<cnr_obs::Obs>,
}

impl WalWriter {
    /// Creates a writer for `job` starting at segment 0, sequence 0.
    pub fn new(store: std::sync::Arc<dyn ObjectStore>, job: &str, _config: WalConfig) -> Self {
        Self {
            store,
            job: job.to_string(),
            next_index: 0,
            unsynced: Vec::new(),
            unsynced_records: 0,
            next_seq: 0,
            live: Vec::new(),
            obs: None,
        }
    }

    /// Attaches an observability handle; counters recorded from now on.
    pub fn set_obs(&mut self, obs: cnr_obs::Obs) {
        self.obs = Some(obs);
    }

    /// Appends `payload` as one record, a body frame without a trailer,
    /// and makes it durable: [`WalWriter::append_with`] over the slice.
    pub fn append(&mut self, payload: &[u8]) -> Result<(PutReceipt, u64)> {
        self.append_with(payload.len(), |out| out.extend_from_slice(payload), NO_TRAILER)
    }

    /// Appends one record and makes it durable: a body frame of `len`
    /// bytes, which `write` appends to the buffer it is handed, and, when
    /// `trailer` is `Some((trailer_len, write_trailer))`, a trailer frame
    /// of `trailer_len` bytes right behind it, written the same way. The
    /// buffer is sized exactly for the segment: envelope header and
    /// sequence number are reserved in front of the body, the envelope is
    /// sealed over the frame once `write` returns, a trailer's header is
    /// reserved and sealed likewise, and the buffer goes to the store as
    /// one new segment without a copy (the store's [`PutReceipt`] is the
    /// "fsync"). Returns that receipt and the frame bytes this put made
    /// durable — this record's frames plus those of any whose put failed
    /// before.
    ///
    /// A failed put keeps its frames: the next append's put carries them,
    /// under the same key, and a [`WalWriter::truncate`] in between drops
    /// them and gives their sequence numbers back.
    ///
    /// Panics when `write` or `write_trailer` appends other than the bytes
    /// announced.
    pub fn append_with<W, T>(
        &mut self,
        len: usize,
        write: W,
        trailer: Option<(usize, T)>,
    ) -> Result<(PutReceipt, u64)>
    where
        W: FnOnce(&mut Vec<u8>),
        T: FnOnce(&mut Vec<u8>),
    {
        let frame_len = HEADER_LEN + SEQ_LEN + len;
        let trailer_frame_len = trailer.as_ref().map_or(0, |(len, _)| HEADER_LEN + len);
        let mut segment = std::mem::take(&mut self.unsynced);
        segment.reserve_exact(frame_len + trailer_frame_len);
        let frame_at = segment.len();
        segment.resize(frame_at + HEADER_LEN, 0);
        segment.extend_from_slice(&self.next_seq.to_le_bytes());
        write(&mut segment);
        assert_eq!(
            segment.len() - frame_at,
            frame_len,
            "the record written was not the {len} bytes announced"
        );
        envelope::seal_in_place(&mut segment[frame_at..], FLAG_WAL_FRAME);
        if let Some((len, write_trailer)) = trailer {
            let trailer_at = segment.len();
            segment.resize(trailer_at + HEADER_LEN, 0);
            write_trailer(&mut segment);
            assert_eq!(
                segment.len() - trailer_at,
                trailer_frame_len,
                "the trailer written was not the {len} bytes announced"
            );
            envelope::seal_in_place(&mut segment[trailer_at..], FLAG_WAL_FRAME | FLAG_WAL_TRAILER);
        }
        self.next_seq += 1;
        self.unsynced_records += 1;
        self.count(cnr_obs::names::WAL_APPENDS, 1);
        self.count(cnr_obs::names::WAL_BYTES_APPENDED, (frame_len + trailer_frame_len) as u64);

        let key = segment_key(&self.job, self.next_index);
        let made_durable = segment.len() as u64;
        let segment = Bytes::from(segment);
        match self.store.put(&key, segment.clone()) {
            Ok(receipt) => {
                self.live.push(key);
                self.next_index += 1;
                self.unsynced_records = 0;
                self.count(cnr_obs::names::WAL_SYNCS, 1);
                self.count(cnr_obs::names::WAL_BYTES_SYNCED, made_durable);
                Ok((receipt, made_durable))
            }
            Err(e) => {
                self.unsynced = segment.to_vec();
                Err(e)
            }
        }
    }

    /// Adds `n` to counter `name` of the attached registry, if any.
    fn count(&self, name: &str, n: u64) {
        if let Some(obs) = &self.obs {
            obs.registry().counter_add(name, n);
        }
    }

    /// Drops the whole log: deletes every segment the store lists for the
    /// job (a registered checkpoint supersedes them all). Sequence numbers
    /// keep counting — replay uses contiguity, not absolute zero.
    ///
    /// The store's listing, not only the segments this writer remembers
    /// putting: a segment that outlived an earlier truncate sits in front
    /// of the live log, its sequence numbers end where the next segment's
    /// do not begin, and replay would stop at that gap for good.
    ///
    /// Segments go oldest first and the first failed delete stops the
    /// walk, so what an `Err` leaves is a contiguous run of whole segments
    /// — from then on [`WalWriter::live_segments`], retried by the next
    /// truncate. The records whose put failed, which the writer drops
    /// either way, give their sequence numbers back, so the records appended next
    /// continue the leftover run without a gap.
    pub fn truncate(&mut self) -> Result<usize> {
        let mut deleted = 0;
        let outcome = list_segments(self.store.as_ref(), &self.job).and_then(|mut keys| {
            for (k, key) in keys.iter().enumerate() {
                match self.store.delete(key) {
                    Ok(()) => deleted += 1,
                    Err(StorageError::NotFound(_)) => {}
                    Err(e) => {
                        // This segment and every later one are still there.
                        keys.drain(..k);
                        self.live = keys;
                        return Err(e);
                    }
                }
            }
            self.live.clear();
            Ok(deleted)
        });
        self.unsynced = Vec::new();
        self.next_seq -= self.unsynced_records;
        self.unsynced_records = 0;
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

    /// Keys of every segment this writer put since the last truncate, plus
    /// those a failed truncate left behind, oldest first. These are live
    /// objects the controller must protect from the orphan sweep and the
    /// scrubber must cover.
    pub fn live_segments(&self) -> Vec<String> {
        self.live.clone()
    }
}

/// One successfully replayed record.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The body frame's monotonic sequence number.
    pub seq: u64,
    /// The place, oldest first, of the segment holding the record among
    /// those walked.
    pub segment: usize,
    /// The body's application payload (zero-copy view into the segment
    /// buffer).
    pub payload: Bytes,
    /// The trailer's application payload, when a verified trailer frame
    /// follows the body; `None` for a record appended without one, and for
    /// one whose segment ends at its body or whose trailer is where the
    /// walk stopped ([`WalTail::Torn`]).
    pub trailer: Option<Bytes>,
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
    /// Segment objects walked: up to and including the one replay stopped
    /// in.
    pub segments_read: usize,
    /// Total bytes of the segments walked.
    pub bytes_read: u64,
}

impl WalReplay {
    /// An empty, clean replay (no log present).
    pub fn empty() -> Self {
        Self { records: Vec::new(), tail: WalTail::Clean, segments_read: 0, bytes_read: 0 }
    }
}

/// Verifies the frame at the front of `rest` and returns its flags, its
/// payload and its length, or why it is unusable.
fn open_frame(rest: &[u8]) -> std::result::Result<(u16, &[u8], usize), String> {
    if rest.len() < HEADER_LEN {
        return Err(format!("torn frame header: {} of {HEADER_LEN} bytes", rest.len()));
    }
    let frame_len = envelope::object_len(rest).map_err(|e| format!("bad frame header: {e}"))?;
    if rest.len() < frame_len {
        return Err(format!("torn frame body: {} of {frame_len} bytes", rest.len()));
    }
    let (flags, payload) = envelope::unwrap(&rest[..frame_len])
        .map_err(|e| format!("frame verify failed: {e}"))?;
    if flags & FLAG_WAL_FRAME == 0 {
        return Err("frame missing WAL flag".into());
    }
    Ok((flags, payload, frame_len))
}

/// Walks the frames of one segment buffer, calling `on_record(seq,
/// body_range, trailer_range)` for each record whose body frame verified,
/// sequence numbers continuing from `expect_seq`; the trailer's range is
/// there when a verified trailer frame follows the body. Returns
/// `Ok(next_expected_seq)` when the segment ends exactly on a frame
/// boundary, `Err((offset, reason))` at the first unusable frame — after
/// the record in front of it, whose trailer it may have been.
fn walk_frames(
    bytes: &[u8],
    mut expect_seq: Option<u64>,
    mut on_record: impl FnMut(u64, Range<usize>, Option<Range<usize>>),
) -> std::result::Result<Option<u64>, (usize, String)> {
    // A verified body whose trailer, if any, has not been seen yet.
    let mut body: Option<(u64, Range<usize>)> = None;
    let mut off = 0;
    let stopped = loop {
        if off == bytes.len() {
            break None;
        }
        let (flags, payload, frame_len) = match open_frame(&bytes[off..]) {
            Ok(frame) => frame,
            Err(reason) => break Some((off, reason)),
        };
        let payload_at = off + HEADER_LEN;
        if flags & FLAG_WAL_TRAILER != 0 {
            let Some((seq, range)) = body.take() else {
                break Some((off, "trailer with no record body in front of it".into()));
            };
            on_record(seq, range, Some(payload_at..off + frame_len));
        } else {
            if let Some((seq, range)) = body.take() {
                on_record(seq, range, None);
            }
            if payload.len() < SEQ_LEN {
                break Some((off, "frame payload shorter than sequence prefix".into()));
            }
            let seq = u64::from_le_bytes(payload[..SEQ_LEN].try_into().unwrap());
            if let Some(expected) = expect_seq {
                if seq != expected {
                    break Some((off, format!("sequence gap: expected {expected}, found {seq}")));
                }
            }
            body = Some((seq, payload_at + SEQ_LEN..off + frame_len));
            expect_seq = Some(seq + 1);
        }
        off += frame_len;
    };
    if let Some((seq, range)) = body {
        on_record(seq, range, None);
    }
    stopped.map_or(Ok(expect_seq), Err)
}

/// Validates one segment buffer without collecting records: every frame
/// must verify, every trailer must follow a body, and the frames must
/// consume the buffer exactly. Returns the record count, or a description
/// of the first problem. This is what the scrubber uses — a segment that
/// carries the records of a failed put is several envelopes back to back,
/// which a single-envelope check would reject. The walk borrows `buf`;
/// nothing is copied.
pub fn validate_segment(buf: &[u8]) -> std::result::Result<usize, String> {
    if buf.is_empty() {
        return Err("empty wal segment".into());
    }
    let mut records = 0;
    match walk_frames(buf, None, |_, _, _| records += 1) {
        Ok(_) => Ok(records),
        Err((off, reason)) => Err(format!("at offset {off}: {reason}")),
    }
}

/// The payload of a trailer frame read on its own — `frame` must be
/// exactly one verified frame carrying [`FLAG_WAL_TRAILER`] — as a view of
/// `frame`, or why it is not one. A reader that fetched a segment without
/// its last trailer reads that trailer with this.
pub fn open_trailer(frame: &Bytes) -> std::result::Result<Bytes, String> {
    match open_frame(frame)? {
        (_, _, len) if len != frame.len() => {
            Err(format!("{} bytes behind the trailer frame", frame.len() - len))
        }
        (flags, _, _) if flags & FLAG_WAL_TRAILER != 0 => Ok(frame.slice(HEADER_LEN..)),
        _ => Err("frame is no record trailer".into()),
    }
}

/// Lists the live segment keys of `job`'s log, oldest first.
pub fn list_segments(store: &dyn ObjectStore, job: &str) -> Result<Vec<String>> {
    let mut keys: Vec<String> = store
        .list(&format!("{job}/wal-"))?
        .into_iter()
        .filter(|k| is_wal_segment_key(k))
        .collect();
    keys.sort(); // indices padded to u64's width: lexicographic == numeric
    Ok(keys)
}

/// Replays `job`'s whole log with clean-prefix semantics: the segments
/// [`list_segments`] names, read with `get` oldest first, through
/// [`walk_segments`].
///
/// Hard store errors (I/O) propagate as `Err`; a segment that vanished
/// since the list (raced with truncation) ends the log in front of it, and
/// a missing log is simply an empty clean replay.
pub fn replay(store: &dyn ObjectStore, job: &str) -> Result<WalReplay> {
    let mut failed = None;
    let fetched = list_segments(store, job)?.into_iter().map_while(|key| match store.get(&key) {
        Ok(buf) => Some((key, buf)),
        Err(StorageError::NotFound(_)) => None,
        Err(e) => {
            failed = Some(e);
            None
        }
    });
    let replay = walk_segments(fetched);
    failed.map_or(Ok(replay), Err)
}

/// The log's one parser: walks fetched segments — `(key, bytes)`, oldest
/// first, ending where the log ends — with clean-prefix semantics.
///
/// Frames are verified, body frames must carry contiguous sequence
/// numbers, and a trailer must directly follow a body in its segment. The
/// first torn, corrupt, out-of-sequence or unpaired frame stops the walk:
/// the records collected so far come back with a [`WalTail::Torn`]
/// diagnosis, and no later segment is pulled from `segments`. The records
/// are zero-copy views of the segment buffers.
pub fn walk_segments(segments: impl IntoIterator<Item = (String, Bytes)>) -> WalReplay {
    let mut replay = WalReplay::empty();
    let mut expect_seq: Option<u64> = None;
    for (segment, (key, buf)) in segments.into_iter().enumerate() {
        replay.segments_read += 1;
        replay.bytes_read += buf.len() as u64;
        let records = &mut replay.records;
        let walked = walk_frames(&buf, expect_seq, |seq, payload, trailer| {
            records.push(WalRecord {
                seq,
                segment,
                payload: buf.slice(payload),
                trailer: trailer.map(|range| buf.slice(range)),
            })
        });
        match walked {
            Ok(next) => expect_seq = next,
            Err((off, reason)) => {
                replay.tail = WalTail::Torn { segment: key, frame_offset: off, reason };
                break;
            }
        }
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flaky::{FailureMode::*, Fault, FlakyStore, Op};
    use crate::memory::InMemoryStore;
    use std::sync::Arc;

    fn store() -> Arc<InMemoryStore> {
        Arc::new(InMemoryStore::new())
    }

    fn writer<S: ObjectStore + 'static>(store: &Arc<S>) -> WalWriter {
        WalWriter::new(Arc::clone(store) as Arc<dyn ObjectStore>, "job", WalConfig)
    }

    /// Appends `payloads` to a fresh log on `s` and returns the segment
    /// each one's sync put, in order.
    fn logged<S: ObjectStore + 'static>(s: &Arc<S>, payloads: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut w = writer(s);
        for payload in payloads {
            w.append(payload).unwrap();
        }
        let keys = list_segments(s.as_ref(), "job").unwrap();
        assert_eq!(keys.len(), payloads.len(), "one segment per sync");
        keys.iter().map(|k| s.get(k).unwrap().to_vec()).collect()
    }

    #[test]
    fn roundtrip_records_in_order() {
        let s = store();
        let mut w = writer(&s);
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
        assert_eq!(r.segments_read, 5, "one segment per sync");
    }

    #[test]
    fn each_sync_puts_one_segment_under_the_next_key() {
        let s = store();
        let mut w = writer(&s);
        let mut put = 0;
        for i in 0u32..4 {
            let (receipt, made_durable) = w.append(&i.to_le_bytes()).unwrap();
            assert_eq!(receipt.key, segment_key("job", i.into()));
            assert_eq!(made_durable, receipt.bytes, "the put is the new frame, no more");
            put += receipt.bytes;
        }
        let keys: Vec<_> = (0..4).map(|i| segment_key("job", i)).collect();
        assert_eq!(w.live_segments(), keys);
        assert_eq!(list_segments(s.as_ref(), "job").unwrap(), keys);
        assert_eq!(s.total_bytes(), put, "nothing is put twice");
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        assert_eq!((r.segments_read, r.bytes_read), (4, put));
        assert_eq!(r.records.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    /// Listing order is numeric order past every power of ten an index
    /// reaches: replay must not see a gap where the log has none.
    #[test]
    fn segments_list_in_numeric_order_past_ten_to_the_eighth() {
        let s = store();
        let indices = [100_000_000, 99_999_999, 7, u64::MAX, 1_000_000_000];
        for i in indices {
            s.put(&segment_key("job", i), Bytes::from_static(b"x")).unwrap();
        }
        let mut sorted = indices;
        sorted.sort();
        let want: Vec<_> = sorted.iter().map(|&i| segment_key("job", i)).collect();
        assert_eq!(list_segments(s.as_ref(), "job").unwrap(), want);
    }

    #[test]
    fn truncate_deletes_segments_and_keeps_seq_monotonic() {
        let s = store();
        let mut w = writer(&s);
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

    fn flaky(faults: impl IntoIterator<Item = Fault>) -> Arc<FlakyStore<InMemoryStore>> {
        Arc::new(FlakyStore::new(InMemoryStore::new(), faults))
    }

    /// Fails the delete of `key` once.
    fn fails_one_delete(key: String) -> Fault {
        Fault::fail(Op::Delete, Once(1)).on_keys(key)
    }

    #[test]
    fn failed_truncate_keeps_reporting_the_segments_it_left_behind() {
        let s = flaky([fails_one_delete(segment_key("job", 1))]);
        let obs = cnr_obs::Obs::wall();
        let mut w = WalWriter::new(s.clone(), "job", WalConfig);
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
        // The next record lands in a segment of its own and continues the
        // leftover run, so replay reads through it.
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

    /// A log of three one-record segments, `a`, `b` and `c`, on a store
    /// injecting `fault`.
    fn three_segments(fault: Fault) -> (Arc<FlakyStore<InMemoryStore>>, WalWriter) {
        let s = flaky([fault]);
        let mut w = writer(&s);
        for payload in [b"a", b"b", b"c"] {
            w.append(payload).unwrap();
        }
        (s, w)
    }

    /// A segment already gone when the truncate deletes it (another
    /// truncate, or the controller's sweep, got there first) is skipped,
    /// not an error: the rest go, and no live segment is left.
    #[test]
    fn truncate_skips_a_segment_that_is_already_gone() {
        let gone = Fault::gone(Op::Delete, Once(1)).on_keys(segment_key("job", 1));
        let (s, mut w) = three_segments(gone);
        assert_eq!(w.truncate().unwrap(), 2, "segments 0 and 2 deleted");
        assert_eq!(s.injected(0), 1);
        assert!(w.live_segments().is_empty());
    }

    /// A segment that is gone after the list (a truncate racing the
    /// replay) ends the log in front of it: the records before it come
    /// back, cleanly, and no segment behind it is read.
    #[test]
    fn replay_ends_the_log_in_front_of_a_segment_gone_after_the_list() {
        let (s, _) = three_segments(Fault::gone(Op::Read, Every(1)).on_keys(segment_key("job", 1)));
        s.take_journal();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        assert_eq!(r.records.iter().map(|r| &r.payload[..]).collect::<Vec<_>>(), [b"a"]);
        let reads = s.take_journal().into_iter().filter(|call| call.method == "get").count();
        assert_eq!((s.injected(0), reads), (1, 1), "segment 2 is never read");
    }

    /// A frame whose put failed is kept, and the next append's put makes
    /// it durable in the segment the failed put was meant to be: replay
    /// returns every record, in sequence order.
    #[test]
    fn a_failed_sync_is_made_durable_by_the_next_append() {
        let s = flaky([Fault::fail(Op::Put, Once(2))]);
        let mut w = writer(&s);
        w.append(b"a").unwrap();
        assert!(w.append(b"b").is_err(), "the second put fails");
        w.append(b"c").unwrap();
        assert_eq!(w.live_segments(), [segment_key("job", 0), segment_key("job", 1)]);
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        assert_eq!(r.segments_read, 2);
        let got: Vec<_> = r.records.iter().map(|r| (r.seq, &r.payload[..])).collect();
        assert_eq!(got, [(0, &b"a"[..]), (1, b"b"), (2, b"c")]);
        assert_eq!(validate_segment(&s.get(&segment_key("job", 1)).unwrap()), Ok(2));
    }

    /// Frames whose put failed were never durable: a truncate drops them
    /// and their sequence numbers go to the next records, so a run of
    /// segments a failed truncate left behind is still continued without
    /// a gap.
    #[test]
    fn a_failed_truncate_with_unsynced_appends_leaves_no_sequence_gap() {
        let s = flaky([
            Fault::fail(Op::Put, Once(3)),
            fails_one_delete(segment_key("job", 0)),
        ]);
        let mut w = WalWriter::new(s.clone(), "job", WalConfig);
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

    /// Cutting the newest segment at any byte, as a crash mid-put leaves
    /// it, or an older one anywhere inside it, replays exactly the records
    /// in front of that segment: the cut one and every later, clean one
    /// stop replay, typed, never an error.
    #[test]
    fn torn_tail_stops_cleanly_at_every_cut_point() {
        let payloads: Vec<String> = (0..3).map(|i| format!("payload-{i}")).collect();
        let payloads: Vec<&[u8]> = payloads.iter().map(|p| p.as_bytes()).collect();
        let s = store();
        let full = logged(&s, &payloads);
        for (k, segment) in full.iter().enumerate() {
            let key = segment_key("job", k as u64);
            let newest = k == full.len() - 1;
            for cut in usize::from(!newest)..segment.len() {
                s.put(&key, Bytes::copy_from_slice(&segment[..cut])).unwrap();
                let r = replay(s.as_ref(), "job").unwrap();
                assert_eq!(r.records.len(), k, "segment {k} cut at {cut}");
                for (i, rec) in r.records.iter().enumerate() {
                    assert_eq!(rec.seq, i as u64);
                    assert_eq!(&rec.payload[..], payloads[i]);
                }
                // An empty newest segment holds no torn frame: the log
                // ends cleanly in front of it.
                if cut == 0 {
                    assert_eq!(r.tail, WalTail::Clean, "segment {k} cut at {cut}");
                } else {
                    match &r.tail {
                        WalTail::Torn { segment, frame_offset, .. } => {
                            assert_eq!((segment, *frame_offset), (&key, 0));
                        }
                        WalTail::Clean => panic!("segment {k} cut at {cut} read clean"),
                    }
                }
            }
            s.put(&key, Bytes::copy_from_slice(segment)).unwrap();
        }
    }

    #[test]
    fn corrupt_mid_frame_stops_before_later_clean_frames() {
        let s = store();
        let payloads: Vec<[u8; 4]> = (0u32..3).map(u32::to_le_bytes).collect();
        let payloads: Vec<&[u8]> = payloads.iter().map(|p| &p[..]).collect();
        let mut segments = logged(&s, &payloads);
        // Flip a payload byte inside the second segment's frame; the third
        // segment stays clean.
        let key = segment_key("job", 1);
        segments[1][HEADER_LEN + 2] ^= 0x40;
        s.put(&key, Bytes::from(segments[1].clone())).unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), 1, "only the prefix before the corrupt frame");
        assert_eq!(r.segments_read, 2, "the clean segment behind it is not read");
        match r.tail {
            WalTail::Torn { ref segment, frame_offset, ref reason } => {
                assert_eq!((segment, frame_offset), (&key, 0));
                assert!(reason.contains("verify failed"), "{reason}");
            }
            WalTail::Clean => panic!("corruption must not read clean"),
        }
    }

    /// The segment an append writes in place is, byte for byte, the
    /// envelope of `[seq ++ payload]` — written through `append_with` or
    /// handed over as a slice alike, and after a failed put, the failed
    /// frame followed by the next one.
    #[test]
    fn append_in_place_equals_the_wrapped_frame() {
        let s = flaky([Fault::fail(Op::Put, Once(4))]);
        let mut w = writer(&s);
        let frame = |seq: u64, payload: &[u8]| {
            let mut framed = seq.to_le_bytes().to_vec();
            framed.extend_from_slice(payload);
            envelope::wrap_with_flags(&framed, FLAG_WAL_FRAME)
        };
        let payloads: [&[u8]; 3] = [b"first record", b"", b"a third, longer record payload"];
        for (seq, payload) in payloads.iter().enumerate() {
            let (_, made_durable) = if seq % 2 == 0 {
                w.append(payload).unwrap()
            } else {
                w.append_with(payload.len(), |out| out.extend_from_slice(payload), NO_TRAILER)
                    .unwrap()
            };
            let want = frame(seq as u64, payload);
            assert_eq!(made_durable, want.len() as u64, "one new frame per put");
            assert_eq!(s.get(&segment_key("job", seq as u64)).unwrap().to_vec(), want);
        }
        assert!(w.append(b"fails").is_err());
        let (_, made_durable) = w.append(b"carries it").unwrap();
        let mut want = frame(3, b"fails");
        want.extend_from_slice(&frame(4, b"carries it"));
        assert_eq!(made_durable, want.len() as u64);
        assert_eq!(s.get(&segment_key("job", 3)).unwrap().to_vec(), want);
    }

    #[test]
    #[should_panic(expected = "not the 4 bytes announced")]
    fn append_with_rejects_a_record_of_another_length() {
        let s = store();
        writer(&s).append_with(4, |out| out.extend_from_slice(b"five!"), trailer(b"")).ok();
    }

    #[test]
    #[should_panic(expected = "the trailer written was not the 2 bytes announced")]
    fn append_with_rejects_a_trailer_of_another_length() {
        let s = store();
        let long = Some((2, |out: &mut Vec<u8>| out.extend_from_slice(b"three")));
        writer(&s).append_with(4, |out| out.extend_from_slice(b"four"), long).ok();
    }

    /// The trailer argument of [`WalWriter::append_with`] that writes
    /// `bytes`.
    fn trailer(bytes: &[u8]) -> Option<(usize, impl FnOnce(&mut Vec<u8>) + '_)> {
        Some((bytes.len(), move |out: &mut Vec<u8>| out.extend_from_slice(bytes)))
    }

    /// Appends one record of `body` and `tail` frames through `w`.
    fn append_pair(w: &mut WalWriter, body: &[u8], tail: &[u8]) -> (PutReceipt, u64) {
        w.append_with(body.len(), |out| out.extend_from_slice(body), trailer(tail)).unwrap()
    }

    /// A trailer frame as the writer seals it.
    fn trailer_frame(payload: &[u8]) -> Vec<u8> {
        envelope::wrap_with_flags(payload, FLAG_WAL_FRAME | FLAG_WAL_TRAILER)
    }

    /// A record's trailer frame lands right behind its body frame in the
    /// one segment its sync puts, and replay pairs the two: the record's
    /// payload is the body, its trailer the trailer — beside records
    /// appended without one, and after a failed put, whose record the next
    /// segment carries with its trailer.
    #[test]
    fn a_trailer_rides_behind_its_body_and_replays_with_it() {
        let s = flaky([Fault::fail(Op::Put, Once(3))]);
        let mut w = writer(&s);
        let (_, made_durable) = append_pair(&mut w, b"body 0", b"trailer 0");
        let mut want = envelope::wrap_with_flags(b"\0\0\0\0\0\0\0\0body 0", FLAG_WAL_FRAME);
        want.extend_from_slice(&trailer_frame(b"trailer 0"));
        assert_eq!(made_durable, want.len() as u64, "both frames, one put");
        assert_eq!(s.get(&segment_key("job", 0)).unwrap().to_vec(), want);
        w.append(b"no trailer").unwrap();
        assert!(w.append_with(6, |out| out.extend_from_slice(b"body 2"), trailer(b"t2")).is_err());
        append_pair(&mut w, b"body 3", b"");
        assert_eq!(validate_segment(&s.get(&segment_key("job", 2)).unwrap()), Ok(2));
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        let got: Vec<_> = r
            .records
            .iter()
            .map(|r| (r.seq, r.segment, &r.payload[..], r.trailer.as_deref()))
            .collect();
        assert_eq!(
            got,
            [
                (0, 0, &b"body 0"[..], Some(&b"trailer 0"[..])),
                (1, 1, b"no trailer", None),
                (2, 2, b"body 2", Some(b"t2")),
                (3, 2, b"body 3", Some(b"")),
            ]
        );
    }

    /// A segment read as the prefix in front of its last trailer ends at a
    /// body: it walks clean, and its last record comes back without a
    /// trailer; the trailer read on its own opens.
    #[test]
    fn a_prefix_that_ends_at_a_body_walks_clean() {
        let s = store();
        let mut w = writer(&s);
        append_pair(&mut w, b"first", b"mlps 1");
        append_pair(&mut w, b"second", b"mlps 2");
        let keys = list_segments(s.as_ref(), "job").unwrap();
        let whole: Vec<Bytes> = keys.iter().map(|k| s.get(k).unwrap()).collect();
        let cut = whole[0].len() - trailer_frame(b"mlps 1").len();
        let r = walk_segments([
            (keys[0].clone(), whole[0].slice(..cut)),
            (keys[1].clone(), whole[1].clone()),
        ]);
        assert_eq!(r.tail, WalTail::Clean);
        assert_eq!((r.segments_read, r.bytes_read), (2, (cut + whole[1].len()) as u64));
        assert_eq!(r.records[0].trailer, None, "cut off in front of its trailer");
        assert_eq!(r.records[1].trailer.as_deref(), Some(&b"mlps 2"[..]));
        assert_eq!(open_trailer(&whole[0].slice(cut..)).as_deref(), Ok(&b"mlps 1"[..]));
        // A body frame is no trailer, nor are two frames.
        assert!(open_trailer(&whole[0].slice(..cut)).unwrap_err().contains("no record trailer"));
        assert!(open_trailer(&whole[1]).is_err());
    }

    /// Puts `segment` under segment 0's key and replays the log: the
    /// records in front of `torn_at` come back, and the tail is torn
    /// there, for a reason naming `why`.
    fn assert_torn_at(segment: Vec<u8>, torn_at: usize, records: usize, why: &str) {
        let s = store();
        s.put(&segment_key("job", 0), Bytes::from(segment.clone())).unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), records);
        match r.tail {
            WalTail::Torn { frame_offset, ref reason, .. } => {
                assert_eq!(frame_offset, torn_at);
                assert!(reason.contains(why), "{reason}");
            }
            WalTail::Clean => panic!("an unpaired trailer must not read clean"),
        }
        assert!(validate_segment(&segment).unwrap_err().contains(why));
    }

    #[test]
    fn a_trailer_with_no_body_before_it_is_torn() {
        let s = store();
        append_pair(&mut writer(&s), b"body", b"trailer");
        let mut segment = s.get(&segment_key("job", 0)).unwrap().to_vec();
        let whole = segment.len();
        segment.extend_from_slice(&trailer_frame(b"a second trailer"));
        assert_torn_at(segment, whole, 1, "trailer with no record body");
    }

    /// A trailer belongs to the body in front of it in its own segment:
    /// one at a segment's start is torn, even behind a segment that ends
    /// at a body.
    #[test]
    fn a_trailer_at_a_segments_start_is_torn() {
        assert_torn_at(trailer_frame(b"orphan"), 0, 0, "trailer with no record body");
        let s = store();
        let mut w = writer(&s);
        w.append(b"a body").unwrap();
        w.append(b"next").unwrap();
        s.put(&segment_key("job", 1), Bytes::from(trailer_frame(b"orphan"))).unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].trailer, None);
        assert!(matches!(
            r.tail,
            WalTail::Torn { ref segment, frame_offset: 0, ref reason }
                if *segment == segment_key("job", 1)
                    && reason.contains("trailer with no record body")
        ));
    }

    /// Validation counts records, not frames: two records whose puts
    /// failed ride a third's segment, each with its trailer.
    #[test]
    fn validate_segment_counts_records_not_frames() {
        let s = flaky([Fault::fail(Op::Put, FirstN(2))]);
        let mut w = writer(&s);
        for i in 0u8..3 {
            assert_eq!(w.append_with(1, |out| out.push(i), trailer(&[i, i])).is_ok(), i == 2);
        }
        let segment = s.get(&segment_key("job", 0)).unwrap();
        assert_eq!(validate_segment(&segment), Ok(3));
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        assert!(r.records.iter().all(|r| r.trailer.as_deref() == Some(&[r.payload[0]; 2][..])));
    }

    /// A record whose trailer is torn or corrupt comes back without it, in
    /// front of the torn tail, which is diagnosed at the trailer.
    #[test]
    fn a_damaged_trailer_stops_the_walk_behind_its_body() {
        let s = store();
        append_pair(&mut writer(&s), b"body", b"the dense layers");
        let key = segment_key("job", 0);
        let whole = s.get(&key).unwrap().to_vec();
        let body_len = whole.len() - trailer_frame(b"the dense layers").len();
        let mut flipped = whole.clone();
        *flipped.last_mut().unwrap() ^= 1;
        let torn = whole[..whole.len() - 1].to_vec();
        for (damaged, why) in [(torn, "torn frame body"), (flipped, "verify failed")] {
            s.put(&key, Bytes::from(damaged)).unwrap();
            let r = replay(s.as_ref(), "job").unwrap();
            assert_eq!(r.records.len(), 1);
            assert_eq!(&r.records[0].payload[..], b"body");
            assert_eq!(r.records[0].trailer, None);
            assert!(matches!(
                r.tail,
                WalTail::Torn { frame_offset, ref reason, .. }
                    if frame_offset == body_len && reason.contains(why)
            ));
        }
    }

    /// A frame written under wire v3 is unusable, not undefined: replay
    /// keeps the clean prefix in front of it and the diagnosis names the
    /// version; validation (the scrubber's view) rejects the segment.
    #[test]
    fn a_v3_frame_is_a_torn_tail_naming_its_version() {
        let s = store();
        let mut w = writer(&s);
        w.append(b"written under v9").unwrap();
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
            assert_eq!(r.records.len(), 1, "the v9 prefix replays");
            assert_eq!(&r.records[0].payload[..], b"written under v9");
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

    /// A frame exactly as an older writer sealed it — valid for its
    /// version — is a torn tail behind the clean prefix, and the reason
    /// names the version; validation rejects the segment by number too.
    fn assert_torn_tail_naming_version(sealed: &[u8], version: u16) {
        let s = store();
        let mut w = writer(&s);
        w.append(b"written under v9").unwrap();
        let key = segment_key("job", 0);
        let mut segment = s.get(&key).unwrap().to_vec();
        let clean_len = segment.len();
        segment.extend_from_slice(sealed);
        s.put(&key, Bytes::from(segment.clone())).unwrap();
        let r = replay(s.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), 1, "the v9 prefix replays");
        let named = format!("unsupported envelope version {version} ");
        match r.tail {
            WalTail::Torn { frame_offset, ref reason, .. } => {
                assert_eq!(frame_offset, clean_len);
                assert!(reason.contains(&named), "{reason}");
            }
            WalTail::Clean => panic!("a v{version} frame must not read clean"),
        }
        for bytes in [&segment[..], sealed] {
            let why = validate_segment(bytes).unwrap_err();
            assert!(why.contains(&format!("version {version}")), "{why}");
        }
    }

    #[test]
    fn a_v4_frame_is_a_torn_tail_naming_its_version() {
        assert_torn_tail_naming_version(envelope::V4_WAL_FRAME, 4);
    }

    #[test]
    fn a_v5_frame_is_a_torn_tail_naming_its_version() {
        assert_torn_tail_naming_version(envelope::V5_WAL_FRAME, 5);
    }

    #[test]
    fn a_v6_frame_is_a_torn_tail_naming_its_version() {
        assert_torn_tail_naming_version(envelope::V6_WAL_FRAME, 6);
    }

    #[test]
    fn a_v7_frame_is_a_torn_tail_naming_its_version() {
        assert_torn_tail_naming_version(envelope::V7_WAL_FRAME, 7);
    }

    #[test]
    fn a_v8_frame_is_a_torn_tail_naming_its_version() {
        assert_torn_tail_naming_version(envelope::V8_WAL_FRAME, 8);
    }

    #[test]
    fn sequence_gap_is_torn() {
        let s = store();
        let mut w = writer(&s);
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
        // Three failed puts, so the fourth sync's segment carries all four
        // frames.
        let s = flaky([Fault::fail(Op::Put, FirstN(3))]);
        let mut w = writer(&s);
        for i in 0u32..4 {
            assert_eq!(w.append(&i.to_le_bytes()).is_ok(), i == 3);
        }
        assert_eq!(list_segments(s.as_ref(), "job").unwrap(), [segment_key("job", 0)]);
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
        assert_eq!(segment_key("exp/j1", 7), "exp/j1/wal-00000000000000000007");
        assert_eq!(segment_key("j", u64::MAX), "j/wal-18446744073709551615");
        assert!(is_wal_segment_key("exp/j1/wal-00000000000000000007"));
        assert!(!is_wal_segment_key("exp/j1/ckpt-00000001/manifest"));
    }

    #[test]
    fn flaky_torn_write_yields_a_typed_clean_prefix_on_replay() {
        // The third sync's put tears: the device keeps a strict prefix and
        // the writer sees the write fail. The unacknowledged record — and
        // only it — is lost; replay stops at the torn frame with a typed
        // diagnosis instead of erroring or decoding garbage.
        // Cut inside the third segment's frame (each is ~33 bytes).
        let flaky = flaky([Fault::tear(Once(3)).at_byte(HEADER_LEN + 3)]);
        let mut w = writer(&flaky);
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        let torn = w.append(b"third");
        assert!(torn.is_err(), "the torn put is unacknowledged");
        assert_eq!(flaky.injected(0), 1);
        let r = replay(flaky.as_ref(), "job").unwrap();
        // The cut lands inside the third segment's only frame, so the
        // records of the first two survive and the tail is diagnosed.
        let got: Vec<_> = r.records.iter().map(|r| (r.seq, &r.payload[..])).collect();
        assert_eq!(got, [(0, &b"first"[..]), (1, b"second")]);
        match r.tail {
            WalTail::Torn { ref segment, frame_offset, ref reason } => {
                assert_eq!((segment, frame_offset), (&segment_key("job", 2), 0));
                assert!(reason.contains("torn frame body"), "{reason}");
            }
            WalTail::Clean => panic!("a mid-frame cut must be diagnosed"),
        }
        // The retry overwrites the torn prefix under the same key.
        w.append(b"fourth").unwrap();
        let r = replay(flaky.as_ref(), "job").unwrap();
        assert_eq!(r.tail, WalTail::Clean);
        assert_eq!(r.records.len(), 4);
    }

    #[test]
    fn missing_log_is_empty_clean_replay() {
        let s = store();
        let r = replay(s.as_ref(), "job").unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.tail, WalTail::Clean);
    }

    /// The registry attached with `set_obs` holds the writer's counts:
    /// four appends sync four times, each into a segment of its own, a
    /// put that fails counts its append only, and its frame's bytes are
    /// synced (and reported) by the next append.
    #[test]
    fn writer_with_obs_mirrors_every_stat_into_the_registry() {
        use cnr_obs::names as n;
        let obs = cnr_obs::Obs::wall();
        let s = flaky([Fault::fail(Op::Put, Once(5))]);
        let mut w = writer(&s);
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
        let segments = w.live_segments().len() as u64;
        w.truncate().unwrap();

        let r = obs.registry();
        assert_eq!(r.counter(n::WAL_APPENDS), 6);
        assert_eq!(r.counter(n::WAL_SYNCS), 5);
        assert_eq!(r.counter(n::WAL_SYNCS), segments, "one segment per sync");
        assert_eq!(r.counter(n::WAL_BYTES_APPENDED), 6 * frame);
        assert_eq!(r.counter(n::WAL_BYTES_SYNCED), 6 * frame);
        assert_eq!(r.counter(n::WAL_TRUNCATIONS), 1);
        assert_eq!(r.counter(n::WAL_TRUNCATE_FAILURES), 0);
        assert!(obs.spans().iter().any(|s| s.name == n::SPAN_WAL_TRUNCATE));
    }
}
