//! Background integrity scrubber.
//!
//! Checkpoints outlive the writes that created them: a chunk written today
//! may not be read until a failure weeks later, long past any write-time
//! verification. Production stores rot in the meantime — media decay,
//! truncated repairs, replicas that diverge. The scrubber is the defense:
//! it walks live objects *before* a restore needs them, validates each
//! one's v9 envelope (see [`crate::envelope`]), and repairs what it finds:
//!
//! * **Transit damage** — a read served by a sick replica — heals by
//!   re-reading: the next read lands on a healthy replica (in simulation,
//!   [`crate::FlakyStore`] corruption is keyed by read count, so a retry
//!   models exactly that).
//! * **At-rest damage** — the stored bytes themselves are bad — heals from
//!   a replica store when one is configured: the clean replica bytes are
//!   verified and written back over the damaged object.
//!
//! A sweep only ever writes bytes it has just verified: an object that is
//! not a valid envelope (or, for a WAL segment, a clean run of frames) and
//! has no clean copy anywhere is reported unrepairable and left untouched.
//! Every key handed to a sweep is scanned: no reader depends on a stored
//! object staying as it was (a lazy restore holds its cold tail as
//! verified bytes in memory), so none is off limits.
//!
//! Each sweep returns a [`ScrubReport`]; the cluster layer
//! (`cnr_cluster::scrub`) schedules sweeps and aggregates findings into
//! run statistics.

use crate::envelope;
use crate::{wal, ObjectStore, Result};
use bytes::Bytes;

/// Findings of one scrub sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Objects examined.
    pub scanned: u64,
    /// Objects whose v9 envelope verified on first read.
    pub clean: u64,
    /// Objects whose first read failed envelope verification.
    pub corrupt_detected: u64,
    /// Corrupt objects healed — from a re-read (healthy replica) or from
    /// the replica store — and written back clean.
    pub repaired: u64,
    /// Keys that could not be read clean from any source.
    pub unrepairable: Vec<String>,
}

impl ScrubReport {
    /// The report as plain counts ([`cnr_cluster::ScrubFindings`]): what a
    /// run's statistics keep of a sweep.
    pub fn findings(&self) -> cnr_cluster::ScrubFindings {
        cnr_cluster::ScrubFindings {
            scanned: self.scanned,
            clean: self.clean,
            corrupt_detected: self.corrupt_detected,
            repaired: self.repaired,
            unrepairable: self.unrepairable.len() as u64,
        }
    }
}

/// Walks stored objects, validating envelopes and repairing damage.
pub struct Scrubber<'a> {
    primary: &'a dyn ObjectStore,
    replica: Option<&'a dyn ObjectStore>,
    /// When attached, each sweep records a `scrub.sweep` span and mirrors
    /// its findings into the `cnr_obs::names::SCRUB_*` counters.
    obs: Option<cnr_obs::Obs>,
}

impl<'a> Scrubber<'a> {
    /// A scrubber over `primary` with no replica fallback.
    pub fn new(primary: &'a dyn ObjectStore) -> Self {
        Self {
            primary,
            replica: None,
            obs: None,
        }
    }

    /// Attaches an observability handle: sweeps record spans + counters.
    pub fn with_obs(mut self, obs: cnr_obs::Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Adds a replica store to heal at-rest damage from.
    pub fn with_replica(mut self, replica: &'a dyn ObjectStore) -> Self {
        self.replica = Some(replica);
        self
    }

    /// Scrubs every key under `prefix`.
    pub fn sweep_prefix(&self, prefix: &str) -> Result<ScrubReport> {
        let keys = self.primary.list(prefix)?;
        Ok(self.sweep(keys.iter().map(String::as_str)))
    }

    /// Scrubs the given keys, returning the sweep's findings. Individual
    /// object failures never abort the sweep — they are reported.
    pub fn sweep<'k>(&self, keys: impl IntoIterator<Item = &'k str>) -> ScrubReport {
        let mut report = ScrubReport::default();
        for key in keys {
            report.scanned += 1;
            self.scrub_one(key, &mut report);
        }
        if let Some(obs) = &self.obs {
            record_sweep(obs, &report);
        }
        report
    }

    /// Whether `bytes` at `key` verify clean. WAL segments are bare
    /// concatenations of enveloped frames, so the single-envelope
    /// `unwrap` would reject a perfectly healthy one — they get the
    /// frame-walking validator instead, routed by key name: every frame
    /// must verify and the frames must consume the object exactly.
    fn verifies_clean(key: &str, bytes: &Bytes) -> bool {
        if wal::is_wal_segment_key(key) {
            wal::validate_segment(bytes).is_ok()
        } else {
            envelope::unwrap(bytes).is_ok()
        }
    }

    fn scrub_one(&self, key: &str, report: &mut ScrubReport) {
        // An object that cannot be read at all takes the same healing
        // path as one that reads damaged (re-read, then replica).
        if matches!(self.primary.get(key), Ok(first) if Self::verifies_clean(key, &first)) {
            report.clean += 1;
            return;
        }
        report.corrupt_detected += 1;
        match self.heal(key, 1) {
            Some(_) => report.repaired += 1,
            None => report.unrepairable.push(key.to_string()),
        }
    }

    /// Tries to obtain verified-clean bytes for `key` — re-reads of the
    /// primary first (`attempts_used` already spent), then the replica
    /// store — and writes them back over the damaged object.
    fn heal(&self, key: &str, attempts_used: u32) -> Option<Bytes> {
        // Reads of the primary per object before the replica store is
        // tried; each re-read models a different replica serving it.
        const READ_ATTEMPTS: u32 = 3;
        for _ in attempts_used..READ_ATTEMPTS {
            if let Ok(bytes) = self.primary.get(key) {
                if Self::verifies_clean(key, &bytes) {
                    return self.write_back(key, bytes);
                }
            }
        }
        let replica = self.replica?;
        let bytes = replica.get(key).ok()?;
        if Self::verifies_clean(key, &bytes) {
            return self.write_back(key, bytes);
        }
        None
    }

    fn write_back(&self, key: &str, bytes: Bytes) -> Option<Bytes> {
        self.primary.put(key, bytes.clone()).ok()?;
        Some(bytes)
    }
}

/// Records one finished sweep into the registry and emits a `scrub.sweep`
/// span. Sweeps are zero-length in simulated time — scrubbing is background
/// work on spare cycles (like the decoupled upload path, §4.2) — so the span
/// is an instant marker carrying the findings as attrs.
fn record_sweep(obs: &cnr_obs::Obs, report: &ScrubReport) {
    use cnr_obs::names as n;
    let r = obs.registry();
    r.counter_add(n::SCRUB_SWEEPS, 1);
    r.counter_add(n::SCRUB_SCANNED, report.scanned);
    r.counter_add(n::SCRUB_CLEAN, report.clean);
    r.counter_add(n::SCRUB_CORRUPT_DETECTED, report.corrupt_detected);
    r.counter_add(n::SCRUB_REPAIRED, report.repaired);
    r.counter_add(n::SCRUB_UNREPAIRABLE, report.unrepairable.len() as u64);
    let now = obs.now();
    obs.record(
        cnr_obs::Span::new(n::SPAN_SCRUB_SWEEP, now, now)
            .with_attr("scanned", report.scanned.to_string())
            .with_attr("clean", report.clean.to_string())
            .with_attr("corrupt_detected", report.corrupt_detected.to_string())
            .with_attr("repaired", report.repaired.to_string()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flaky::{CorruptionKind, FailureMode, Fault};
    use crate::{envelope, FlakyStore, InMemoryStore};

    fn put_enveloped(store: &dyn ObjectStore, key: &str, payload: &[u8]) {
        store
            .put(key, Bytes::from(envelope::wrap(payload)))
            .unwrap();
    }

    /// Overwrites `key` with envelope bytes whose payload was damaged
    /// after checksumming — at-rest corruption.
    fn poison(store: &dyn ObjectStore, key: &str) {
        let mut bytes = store.get(key).unwrap().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        store.put(key, Bytes::from(bytes)).unwrap();
    }

    #[test]
    fn clean_sweep_reports_all_clean() {
        let store = InMemoryStore::new();
        for i in 0..5 {
            put_enveloped(&store, &format!("job/0/chunk-{i}"), b"payload");
        }
        let report = Scrubber::new(&store).sweep_prefix("job/").unwrap();
        assert_eq!(report.scanned, 5);
        assert_eq!(report.clean, 5);
        assert_eq!(report.corrupt_detected, 0);
        assert!(report.unrepairable.is_empty());
    }

    #[test]
    fn at_rest_damage_heals_from_the_replica_store() {
        let primary = InMemoryStore::new();
        let replica = InMemoryStore::new();
        let n = 7;
        for i in 0..n {
            let key = format!("job/0/chunk-{i}");
            put_enveloped(&primary, &key, b"the real bytes");
            put_enveloped(&replica, &key, b"the real bytes");
        }
        // Poison every object in the primary.
        for i in 0..n {
            poison(&primary, &format!("job/0/chunk-{i}"));
        }
        let report = Scrubber::new(&primary)
            .with_replica(&replica)
            .sweep_prefix("job/")
            .unwrap();
        assert_eq!(report.scanned, n);
        assert_eq!(report.corrupt_detected, n);
        assert_eq!(report.repaired, n, "all N poisoned objects repaired");
        assert!(report.unrepairable.is_empty());
        // The primary now verifies clean end to end.
        let again = Scrubber::new(&primary).sweep_prefix("job/").unwrap();
        assert_eq!(again.clean, n);
        for i in 0..n {
            let bytes = primary.get(&format!("job/0/chunk-{i}")).unwrap();
            assert_eq!(envelope::open(&bytes).unwrap(), b"the real bytes");
        }
    }

    #[test]
    fn transit_damage_heals_by_rereading_without_a_replica() {
        let inner = InMemoryStore::new();
        put_enveloped(&inner, "job/0/chunk-0", b"payload");
        // The first read of the object is served damaged; retries are clean.
        let primary = FlakyStore::new(
            inner,
            [Fault::corrupt(CorruptionKind::BitFlip, FailureMode::Once(1)).seeded(11)],
        );
        let report = Scrubber::new(&primary).sweep_prefix("job/").unwrap();
        assert_eq!(report.corrupt_detected, 1);
        assert_eq!(report.repaired, 1, "healthy replica found on retry");
        assert!(report.unrepairable.is_empty());
    }

    #[test]
    fn unrepairable_damage_is_reported_not_hidden() {
        let primary = InMemoryStore::new();
        put_enveloped(&primary, "job/0/chunk-0", b"payload");
        poison(&primary, "job/0/chunk-0");
        let report = Scrubber::new(&primary).sweep_prefix("job/").unwrap();
        assert_eq!(report.corrupt_detected, 1);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.unrepairable, vec!["job/0/chunk-0".to_string()]);
    }

    /// Damage that lands on the envelope magic is damage like any other:
    /// detected, healed from the replica, never re-wrapped.
    #[test]
    fn magic_damage_heals_from_the_replica_store() {
        let primary = InMemoryStore::new();
        let replica = InMemoryStore::new();
        let key = "job/0/chunk-0";
        put_enveloped(&replica, key, b"the real bytes");
        let clean = replica.get(key).unwrap();
        let mut damaged = clean.to_vec();
        damaged[0] ^= 0x01;
        primary.put(key, Bytes::from(damaged)).unwrap();

        let report = Scrubber::new(&primary).with_replica(&replica).sweep([key]);
        assert_eq!(report.corrupt_detected, 1);
        assert_eq!(report.repaired, 1);
        assert!(report.unrepairable.is_empty());
        assert_eq!(primary.get(key).unwrap(), clean, "primary holds the replica's bytes");
        let again = Scrubber::new(&primary).sweep([key]);
        assert_eq!(again.clean, 1);
        assert_eq!(again.corrupt_detected, 0);
    }

    #[test]
    fn magic_damage_without_a_replica_is_unrepairable_and_untouched() {
        let primary = InMemoryStore::new();
        let key = "job/0/chunk-0";
        let mut damaged = envelope::wrap(b"the real bytes");
        damaged[0] ^= 0x01;
        let damaged = Bytes::from(damaged);
        primary.put(key, damaged.clone()).unwrap();

        let report = Scrubber::new(&primary).sweep([key]);
        assert_eq!(report.corrupt_detected, 1);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.unrepairable, vec![key.to_string()]);
        assert_eq!(primary.get(key).unwrap(), damaged, "a sweep writes only verified bytes");
    }

    /// An object left over from wire v3 is not a stored form any more: the
    /// scrubber reports it, never counts it clean, and — having no v9 copy
    /// to write — leaves it as it found it.
    #[test]
    fn a_v3_object_is_reported_never_passed_or_resealed() {
        let primary = InMemoryStore::new();
        let key = "job/0/chunk-0";
        let mut v3 = envelope::wrap(b"written before the frame checksum changed");
        v3[..4].copy_from_slice(b"CNR3");
        v3[4..6].copy_from_slice(&3u16.to_le_bytes());
        let why = envelope::unwrap(&v3).unwrap_err().to_string();
        assert!(why.contains("version 3"), "{why}");
        let v3 = Bytes::from(v3);
        primary.put(key, v3.clone()).unwrap();

        let report = Scrubber::new(&primary).sweep([key]);
        assert_eq!((report.clean, report.corrupt_detected, report.repaired), (0, 1, 0));
        assert_eq!(report.unrepairable, vec![key.to_string()]);
        assert_eq!(primary.get(key).unwrap(), v3);
    }

    /// A chunk and a WAL segment of each older wire version, each exactly
    /// as its writer sealed it: unrepairable without a v9 replica and left
    /// untouched; with one, healed from it like any damage.
    #[test]
    fn an_older_object_is_unrepairable_without_a_current_replica() {
        let primary = InMemoryStore::new();
        let segments = [0, 1, 2, 3, 4].map(|index| wal::segment_key("job", index));
        let stored = [
            ("job/0/chunk-0", envelope::V4_OBJECT),
            ("job/1/chunk-0", envelope::V5_OBJECT),
            ("job/2/chunk-0", envelope::V6_OBJECT),
            ("job/3/chunk-0", envelope::V7_OBJECT),
            ("job/4/chunk-0", envelope::V8_OBJECT),
            (segments[0].as_str(), envelope::V4_WAL_FRAME),
            (segments[1].as_str(), envelope::V5_WAL_FRAME),
            (segments[2].as_str(), envelope::V6_WAL_FRAME),
            (segments[3].as_str(), envelope::V7_WAL_FRAME),
            (segments[4].as_str(), envelope::V8_WAL_FRAME),
        ];
        for (key, old) in stored {
            primary.put(key, Bytes::from_static(old)).unwrap();
        }
        let keys = stored.map(|(key, _)| key);
        let report = Scrubber::new(&primary).sweep(keys);
        assert_eq!((report.clean, report.corrupt_detected, report.repaired), (0, 10, 0));
        assert_eq!(report.unrepairable, keys.map(String::from));
        for (key, old) in stored {
            assert_eq!(primary.get(key).unwrap()[..], *old);
        }

        let chunk = keys[1];
        let replica = InMemoryStore::new();
        put_enveloped(&replica, chunk, b"written under v9");
        let report = Scrubber::new(&primary).with_replica(&replica).sweep([chunk]);
        assert_eq!((report.corrupt_detected, report.repaired), (1, 1));
        assert_eq!(envelope::open(&primary.get(chunk).unwrap()).unwrap(), b"written under v9");
    }

    #[test]
    fn wal_segment_with_mid_log_frame_corruption_heals_from_replica() {
        use crate::flaky::Op;
        use crate::wal::{self, WalConfig, WalWriter};
        use std::sync::Arc;

        // Build a multi-frame WAL segment on the primary — four failed puts,
        // so the fifth sync carries all five frames — and copy it to a
        // replica.
        let outage = Fault::fail(Op::Put, FailureMode::FirstN(4));
        let primary = Arc::new(FlakyStore::new(InMemoryStore::new(), [outage]));
        let replica = InMemoryStore::new();
        let mut w = WalWriter::new(
            Arc::clone(&primary) as Arc<dyn ObjectStore>,
            "job",
            WalConfig,
        );
        for i in 0u32..5 {
            assert_eq!(w.append(&i.to_le_bytes()).is_ok(), i == 4);
        }
        let key = wal::segment_key("job", 0);
        let clean = primary.get(&key).unwrap();
        replica.put(&key, clean.clone()).unwrap();

        // A healthy multi-frame segment reads clean (the single-envelope
        // path would reject it with a length mismatch).
        let report = Scrubber::new(primary.as_ref()).sweep([key.as_str()]);
        assert_eq!(report.clean, 1);
        assert_eq!(report.corrupt_detected, 0);

        // Smash a payload byte in the middle frame — at-rest damage the
        // primary re-reads can't fix.
        let mut bytes = clean.to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        primary.put(&key, Bytes::from(bytes)).unwrap();

        let report = Scrubber::new(primary.as_ref())
            .with_replica(&replica)
            .sweep([key.as_str()]);
        assert_eq!(report.corrupt_detected, 1);
        assert_eq!(report.repaired, 1, "healed from the replica copy");
        assert!(report.unrepairable.is_empty());

        // The healed segment is bit-identical to the original and replays
        // every frame.
        assert_eq!(primary.get(&key).unwrap(), clean);
        let r = wal::replay(primary.as_ref(), "job").unwrap();
        assert_eq!(r.records.len(), 5);
        assert_eq!(r.tail, wal::WalTail::Clean);
    }

    /// A restore reads an older segment only up to its last trailer, so a
    /// flipped byte there is the scrubber's to find: it validates the whole
    /// segment, pairing included, and heals it from the replica.
    #[test]
    fn a_flipped_byte_in_an_older_segments_trailer_heals_from_the_replica() {
        use crate::wal::{self, WalConfig, WalWriter};
        use std::sync::Arc;

        let primary = Arc::new(InMemoryStore::new());
        let replica = InMemoryStore::new();
        let mut w = WalWriter::new(
            Arc::clone(&primary) as Arc<dyn ObjectStore>,
            "job",
            WalConfig,
        );
        for i in 0u8..2 {
            let mlps = [i; 48];
            let trailer = Some((mlps.len(), |out: &mut Vec<u8>| out.extend_from_slice(&mlps)));
            w.append_with(5, |out| out.extend_from_slice(b"delta"), trailer).unwrap();
        }
        let older = wal::segment_key("job", 0);
        let clean = primary.get(&older).unwrap();
        replica.put(&older, clean.clone()).unwrap();
        let mut bytes = clean.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10; // the last byte of the trailer's payload
        primary.put(&older, Bytes::from(bytes)).unwrap();

        let keys = w.live_segments();
        let report = Scrubber::new(primary.as_ref())
            .with_replica(&replica)
            .sweep(keys.iter().map(String::as_str));
        assert_eq!((report.scanned, report.clean), (2, 1));
        assert_eq!((report.corrupt_detected, report.repaired), (1, 1));
        assert!(report.unrepairable.is_empty());
        assert_eq!(primary.get(&older).unwrap(), clean);
        let r = wal::replay(primary.as_ref(), "job").unwrap();
        assert_eq!(r.tail, wal::WalTail::Clean);
        assert_eq!(r.records[0].trailer.as_deref(), Some(&[0; 48][..]));
    }

    #[test]
    fn wal_segment_without_replica_is_unrepairable_not_hidden() {
        use crate::wal::{self, WalConfig, WalWriter};
        use std::sync::Arc;

        let primary = Arc::new(InMemoryStore::new());
        let mut w = WalWriter::new(
            Arc::clone(&primary) as Arc<dyn ObjectStore>,
            "job",
            WalConfig,
        );
        w.append(b"delta").unwrap();
        let key = wal::segment_key("job", 0);
        poison(primary.as_ref(), &key);
        let report = Scrubber::new(primary.as_ref()).sweep([key.as_str()]);
        assert_eq!(report.corrupt_detected, 1);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.unrepairable, vec![key]);
    }

    #[test]
    fn sweep_with_obs_mirrors_findings_into_registry_and_emits_span() {
        use cnr_obs::names as n;
        let store = InMemoryStore::new();
        put_enveloped(&store, "a", b"ok");
        put_enveloped(&store, "b", b"ok");
        poison(&store, "b");

        let obs = cnr_obs::Obs::wall();
        let report = Scrubber::new(&store).with_obs(obs.clone()).sweep_prefix("").unwrap();
        let r = obs.registry();
        assert_eq!(r.counter(n::SCRUB_SWEEPS), 1);
        assert_eq!(r.counter(n::SCRUB_SCANNED), report.scanned);
        assert_eq!(r.counter(n::SCRUB_CLEAN), report.clean);
        assert_eq!(r.counter(n::SCRUB_CORRUPT_DETECTED), report.corrupt_detected);
        assert_eq!(r.counter(n::SCRUB_UNREPAIRABLE), report.unrepairable.len() as u64);

        let spans = obs.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, n::SPAN_SCRUB_SWEEP);
        assert!(spans[0]
            .attrs
            .iter()
            .any(|(k, v)| *k == "scanned" && *v == report.scanned.to_string()));
    }
}
