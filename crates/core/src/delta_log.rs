//! Per-iteration delta records for the write-ahead log.
//!
//! Between full checkpoints the engine appends one [`DeltaRecord`] per
//! training iteration to the WAL (`cnr_storage::wal`). A record carries
//! exactly the state one batch changed: the touched embedding rows (the
//! same set `cnr_tracking`'s bitvec marks, quantized with the checkpoint's
//! scheme, optimizer scalars included) plus the dense MLP parameters —
//! which every batch updates (§2.1). Restore replays records on top of the
//! base checkpoint to reach the WAL tip.
//!
//! The codec is deliberately self-contained per record: a record decodes
//! without any segment- or log-level context, so the WAL reader can hand
//! over opaque frame payloads and crash-consistency stays entirely the
//! frame layer's concern. The engine logs a record as two frames of one
//! segment: the **body** ([`DeltaBody`]: base, iteration, reader cursor
//! and the embedded chunk frames) and a **trailer** holding the two MLPs
//! ([`DenseTrailer`]). The body names no quantization scheme: each
//! embedded chunk frame names its own rows' encoding, as a stored chunk
//! does. Body payload ‖ trailer payload is exactly
//! [`DeltaRecord::encode`]. Every record's MLPs are whole, but a restore
//! needs only the last live record's, which on the lifecycle benchmark's
//! model are some 40% of a record's bytes: it fetches each older segment
//! as the prefix in front of its last trailer.
//!
//! This runs once per training iteration, so the write side is one pass
//! from model to stored object: [`DeltaRecord::capture_into`] sizes the
//! record first, then writes body and trailer straight into the frames of
//! the log's next append ([`WalWriter::append_with`]) — the touched rows
//! quantized in place through the chunk kernels, the MLPs copied slice by
//! slice from their layers. [`DeltaRecord::capture`] and
//! [`DeltaRecord::encode`] build and serialize the same record as a value:
//! the decode-side type, and the reference `capture_into` must match byte
//! for byte; [`DeltaRecord::append_to`] logs such a value as the engine
//! does.
//!
//! On the read side the log's tail is the restore chain's newest level.
//! [`WalTail`] keeps the bodies of the records that build on the restored
//! checkpoint; each embedded chunk is a stored chunk's frame, opened the
//! way a fetched chunk is ([`DeltaChunk`]), so the restore places it like
//! one ([`crate::read::restore_sharded_into`]): record `i` ranks above
//! every chunk of the chain, and each replayed row is de-quantized once,
//! from the newest record naming it, and is final from then on. The dense
//! layers and iteration come from the last record alone
//! ([`WalTail::set_dense`]), as does the reader cursor: a record whose
//! trailer cannot be had is not live, and the tail ends in front of it.

use crate::error::{CnrError, Result};
use crate::manifest::{chunk_of_rows, open_frame, CheckpointId, ChunkHeader, OpenedChunk};
use crate::wire;
use bytes::{BufMut, Bytes};
use cnr_model::DlrmModel;
use cnr_quant::QuantScheme;
use cnr_storage::{PutReceipt, WalRecord, WalWriter};
use cnr_workload::Batch;

/// The rows one iteration touched in one table, quantized: the bare chunk
/// frame a record embeds, opened as a fetched chunk is. The row bodies stay
/// encoded in the frame — no object and no allocation per row — and are
/// de-quantized only as they land.
#[derive(Debug, Clone)]
pub struct DeltaChunk {
    /// `frame`'s parsed header: table, row indices, accumulators and the
    /// row encoding, resolved.
    header: ChunkHeader,
    /// The frame as stored in the record, length prefix included.
    frame: Vec<u8>,
}

impl PartialEq for DeltaChunk {
    /// The header is parsed from the frame: equal frames are equal chunks.
    fn eq(&self, other: &Self) -> bool {
        self.frame == other.frame
    }
}

impl DeltaChunk {
    /// Which table the rows belong to.
    pub fn table(&self) -> u16 {
        self.header.table
    }

    /// The row indices within the table, strictly ascending.
    pub fn row_indices(&self) -> &[u32] {
        &self.header.row_indices
    }

    /// The chunk as a restore places it.
    pub(crate) fn opened(&self) -> OpenedChunk<'_> {
        self.header.over(&self.frame)
    }
}

/// The state one training iteration changed, as the engine logs it in one
/// WAL record: body frame and MLP trailer frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRecord {
    /// The full checkpoint this delta chain builds on. Replay ignores
    /// records whose base doesn't match the restored checkpoint (stale
    /// segments that survived a truncation race).
    pub base: CheckpointId,
    /// Model iteration *after* this batch was applied.
    pub iteration: u64,
    /// Reader position after this batch (next batch index to produce).
    pub reader_next: u64,
    /// Touched rows, one chunk per touched table (ascending table ids).
    pub chunks: Vec<DeltaChunk>,
    /// Bottom MLP parameters, flattened.
    pub bottom_mlp: Vec<f32>,
    /// Top MLP parameters, flattened.
    pub top_mlp: Vec<f32>,
}

impl DeltaRecord {
    /// Captures the delta of the batch just applied to `model`: the
    /// distinct rows `batch` touched in each table (quantized with
    /// `scheme` straight into the chunk's frame, AdaGrad scalars included)
    /// and the full — tiny — MLPs.
    pub fn capture(
        model: &DlrmModel,
        batch: &Batch,
        scheme: &QuantScheme,
        base: CheckpointId,
        reader_next: u64,
    ) -> Self {
        let mut chunks = Vec::new();
        for (t, touched) in batch.sparse.iter().enumerate() {
            let mut row_indices: Vec<u32> = touched.clone();
            row_indices.sort_unstable();
            row_indices.dedup();
            if row_indices.is_empty() {
                continue;
            }
            let table = &model.tables()[t];
            let (chunk, put_rows) =
                chunk_of_rows(t as u16, &row_indices, table.view(), table.dim(), scheme);
            let mut frame = Vec::with_capacity(chunk.encoded_len());
            chunk.encode_into(&mut frame, put_rows);
            let header = open_frame(&frame).expect("a captured frame opens");
            chunks.push(DeltaChunk { header, frame });
        }
        Self {
            base,
            iteration: model.iteration(),
            reader_next,
            chunks,
            bottom_mlp: model.bottom().flatten(),
            top_mlp: model.top().flatten(),
        }
    }

    /// Captures the record [`Self::capture`] would build for the batch
    /// just applied to `model` straight into the frames of `wal`'s next
    /// append — body and MLP trailer, byte for byte as [`Self::encode`]
    /// writes them one behind the other — and makes it durable
    /// ([`WalWriter::append_with`]). Nothing is built on the way: the
    /// record is sized from the touched row counts, the rows are quantized
    /// into the body frame and the MLPs copied into the trailer from their
    /// layers. What this allocates besides the segment is one buffer of
    /// the batch's row ids, one of table offsets and one of the touched
    /// tables' chunk frames, however many rows it touched. Returns the
    /// sync's receipt and the bytes it made durable.
    pub fn capture_into(
        model: &DlrmModel,
        batch: &Batch,
        scheme: &QuantScheme,
        base: CheckpointId,
        reader_next: u64,
        wal: &mut WalWriter,
    ) -> Result<(PutReceipt, u64)> {
        let touched = TouchedRows::of(batch);
        // Each table's frame, and the scheme its rows store under, is
        // resolved once: it sizes the record and then writes it.
        let chunks: Vec<_> = touched
            .tables()
            .map(|(t, rows)| {
                let table = &model.tables()[t];
                chunk_of_rows(t as u16, rows, table.view(), table.dim(), scheme)
            })
            .collect();
        let chunks_len: usize = chunks.iter().map(|(chunk, _)| chunk.encoded_len()).sum();
        let len = 3 * 8 + 2 + chunks_len;
        let (bottom, top) = (model.bottom(), model.top());
        let trailer = |out: &mut Vec<u8>| {
            wire::put_f32_slices(out, bottom.param_count(), bottom.params());
            wire::put_f32_slices(out, top.param_count(), top.params());
        };
        let trailer_len = trailer_len(bottom.param_count(), top.param_count());
        let body = |out: &mut Vec<u8>| {
            out.put_u64_le(base.0);
            out.put_u64_le(model.iteration());
            out.put_u64_le(reader_next);
            out.put_u16_le(chunks.len() as u16);
            for (chunk, put_rows) in chunks {
                chunk.encode_into(out, put_rows);
            }
        };
        Ok(wal.append_with(len, body, Some((trailer_len, trailer)))?)
    }

    /// Logs this record as the engine does ([`Self::capture_into`]): one
    /// append to `wal` of a body frame and an MLP trailer frame, whose
    /// payloads are [`Self::encode`] cut in front of the MLPs.
    pub fn append_to(&self, wal: &mut WalWriter) -> Result<(PutReceipt, u64)> {
        let encoded = self.encode();
        let mlps = trailer_len(self.bottom_mlp.len(), self.top_mlp.len());
        let (body, trailer) = encoded.split_at(encoded.len() - mlps);
        let write_trailer = |out: &mut Vec<u8>| out.extend_from_slice(trailer);
        Ok(wal.append_with(
            body.len(),
            |out| out.extend_from_slice(body),
            Some((trailer.len(), write_trailer)),
        )?)
    }

    /// Applies this record on top of `model` (which must hold the state of
    /// `iteration - 1`, or any earlier state this record's rows overwrite).
    /// Returns the number of embedding rows written.
    pub fn apply(&self, model: &mut DlrmModel) -> Result<u64> {
        self.apply_partial(model, |_, _| false).map(|(rows_applied, _)| rows_applied)
    }

    /// [`Self::apply`] for a lazily-restored model, kept only for the
    /// lifecycle benchmark's WAL probe (`benchmark/src/probes.rs`,
    /// `replay_wal`): the engine's restore places the WAL tail like a chain
    /// level ([`crate::read::restore_sharded_into`]) and diverts nothing. MLPs, iteration, and
    /// reader cursor semantics are unchanged, but embedding rows for which
    /// `divert` returns true (rows not yet materialized) are *returned* as
    /// `(table, row, values, adagrad)` tuples instead of written — the
    /// caller buffers them and applies them when the row materializes.
    /// Row deltas are whole-row overwrites, so deferral composes: applying
    /// chunk levels then buffered deltas in replay order reproduces the
    /// eager result bit-exactly.
    #[allow(clippy::type_complexity)]
    pub fn apply_partial(
        &self,
        model: &mut DlrmModel,
        mut divert: impl FnMut(u16, u32) -> bool,
    ) -> Result<(u64, Vec<(u16, u32, Vec<f32>, Option<f32>)>)> {
        let mut rows_applied = 0u64;
        let mut deferred: Vec<(u16, u32, Vec<f32>, Option<f32>)> = Vec::new();
        for chunk in &self.chunks {
            let header = &chunk.header;
            let t = header.table as usize;
            let table = model
                .tables_mut()
                .get_mut(t)
                .ok_or_else(|| CnrError::Corrupt(format!("delta chunk for unknown table {t}")))?;
            let (dim, nrows) = (table.dim(), table.rows());
            if header.rows.dim as usize != dim {
                return Err(CnrError::Corrupt(format!(
                    "delta row dim {} != table dim {dim}",
                    header.rows.dim
                )));
            }
            let opened = chunk.opened();
            for (k, &idx) in header.row_indices.iter().enumerate() {
                let i = idx as usize;
                if i >= nrows {
                    return Err(CnrError::Corrupt(format!(
                        "delta row {i} out of range for table {t} ({nrows} rows)"
                    )));
                }
                let body = opened.bodies_of(k..k + 1);
                let acc = header.optimizer_state.as_ref().map(|a| a[k]);
                if divert(header.table, idx) {
                    let mut values = vec![0.0; dim];
                    header.decoder.decode(body, &mut values);
                    deferred.push((header.table, idx, values, acc));
                    continue;
                }
                header.decoder.decode(body, table.row_mut(i));
                if let (Some(a), Some(adagrad)) = (acc, table.adagrad_mut()) {
                    adagrad[i] = a;
                }
                rows_applied += 1;
            }
        }
        let (bottom, top) = model.mlps_mut();
        bottom.unflatten(&self.bottom_mlp);
        top.unflatten(&self.top_mlp);
        model.set_iteration(self.iteration);
        Ok((rows_applied, deferred))
    }

    /// Serializes the record into one buffer: the body frame's payload, then
    /// the MLP trailer's.
    pub fn encode(&self) -> Vec<u8> {
        // Fixed fields, the chunk count and the MLPs' length prefixes.
        const FIXED: usize = 3 * 8 + 2 + 2 * 4;
        let frames: usize = self.chunks.iter().map(|c| c.frame.len()).sum();
        let mlps = 4 * (self.bottom_mlp.len() + self.top_mlp.len());
        let mut buf = Vec::with_capacity(FIXED + frames + mlps);
        buf.put_u64_le(self.base.0);
        buf.put_u64_le(self.iteration);
        buf.put_u64_le(self.reader_next);
        buf.put_u16_le(self.chunks.len() as u16);
        for chunk in &self.chunks {
            // Embedded chunks are bare frames, back to back: each starts
            // with its own length, and the WAL frame around the record
            // carries the envelope.
            buf.extend_from_slice(&chunk.frame);
        }
        wire::put_f32s(&mut buf, &self.bottom_mlp);
        wire::put_f32s(&mut buf, &self.top_mlp);
        buf
    }

    /// Parses a serialized record — the payload of a WAL frame whose
    /// envelope checksum verified — rejecting malformed input with a typed
    /// error: the envelope already screens corruption, so a failure here
    /// means a logic bug or a hand-built frame, but it must still never
    /// panic. Each embedded chunk is opened as a stored chunk is (every row
    /// body whole) and its frame kept, encoded, as one copy. A record must
    /// carry its MLPs: a body alone does not decode.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut b = data;
        let body = DeltaBody::parse(&mut b)?;
        let dense = DenseTrailer::parse(&mut b)?;
        ensure_consumed(b, "delta record")?;
        Ok(Self::join(body, dense))
    }

    /// The record a log walk returned ([`cnr_storage::wal::walk_segments`]):
    /// its body and trailer as [`Self::append_to`] logs it, or, when it has
    /// no trailer, a whole record appended as one frame.
    pub fn decode_logged(record: &WalRecord) -> Result<Self> {
        match &record.trailer {
            Some(trailer) => Ok(Self::join(
                DeltaBody::decode(&record.payload)?,
                DenseTrailer::decode(trailer)?,
            )),
            None => Self::decode(&record.payload),
        }
    }

    /// The record of `body` and `dense`.
    fn join(body: DeltaBody, dense: DenseTrailer) -> Self {
        let DeltaBody { base, iteration, reader_next, chunks } = body;
        let DenseTrailer { bottom_mlp, top_mlp } = dense;
        Self { base, iteration, reader_next, chunks, bottom_mlp, top_mlp }
    }

    /// Distinct embedding rows this record carries.
    pub fn touched_rows(&self) -> u64 {
        self.chunks.iter().map(|c| c.row_indices().len() as u64).sum()
    }
}

/// A delta record without its MLPs: the payload of the record's body
/// frame, and all a restore reads of every live record but the last.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBody {
    /// The full checkpoint the record builds on ([`DeltaRecord::base`]).
    pub base: CheckpointId,
    /// Model iteration after the record's batch was applied.
    pub iteration: u64,
    /// Reader position after the record's batch.
    pub reader_next: u64,
    /// Touched rows, one chunk per touched table (ascending table ids).
    pub chunks: Vec<DeltaChunk>,
}

impl DeltaBody {
    /// Parses a body frame's payload, which must hold nothing else.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut b = data;
        let body = Self::parse(&mut b)?;
        ensure_consumed(b, "delta record body")?;
        Ok(body)
    }

    /// Parses the body at the front of `b`, advancing past it.
    fn parse(b: &mut &[u8]) -> Result<Self> {
        let base = CheckpointId(wire::get_u64(b)?);
        let iteration = wire::get_u64(b)?;
        let reader_next = wire::get_u64(b)?;
        let chunk_count = wire::get_u16(b)? as usize;
        let mut chunks = Vec::with_capacity(chunk_count);
        for _ in 0..chunk_count {
            let header = open_frame(b)?;
            let (frame, rest) = b.split_at(header.frame_len());
            let opened = header.over(frame);
            if opened.trailing_bytes() != 0 {
                return Err(CnrError::Corrupt(format!(
                    "{} trailing bytes after delta chunk rows",
                    opened.trailing_bytes()
                )));
            }
            *b = rest;
            chunks.push(DeltaChunk {
                header,
                frame: frame.to_vec(),
            });
        }
        Ok(Self { base, iteration, reader_next, chunks })
    }
}

/// A delta record's MLPs: the payload of the record's trailer frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTrailer {
    /// Bottom MLP parameters, flattened.
    pub bottom_mlp: Vec<f32>,
    /// Top MLP parameters, flattened.
    pub top_mlp: Vec<f32>,
}

impl DenseTrailer {
    /// Parses a trailer frame's payload, which must hold nothing else.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut b = data;
        let dense = Self::parse(&mut b)?;
        ensure_consumed(b, "delta record trailer")?;
        Ok(dense)
    }

    /// Parses the MLPs at the front of `b`, advancing past them.
    fn parse(b: &mut &[u8]) -> Result<Self> {
        let bottom_mlp = wire::get_f32s(b)?;
        let top_mlp = wire::get_f32s(b)?;
        Ok(Self { bottom_mlp, top_mlp })
    }
}

/// Bytes of the trailer payload — the MLP section of an encoded record —
/// for MLPs of `bottom_params` and `top_params` parameters: a length
/// prefix and the `f32`s of each.
pub fn trailer_len(bottom_params: usize, top_params: usize) -> usize {
    2 * 4 + 4 * (bottom_params + top_params)
}

/// Fails `Corrupt` when bytes are left behind `what`.
fn ensure_consumed(rest: &[u8], what: &str) -> Result<()> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(CnrError::Corrupt(format!("{} trailing bytes after {what}", rest.len())))
    }
}

/// The records of a WAL log that replay on top of a restored checkpoint,
/// oldest first: the chain's newest level.
#[derive(Debug, Clone)]
pub struct WalTail {
    records: Vec<DeltaBody>,
    /// The last record's MLPs; `None` iff `records` is empty.
    dense: Option<DenseTrailer>,
}

impl WalTail {
    /// Picks the live records out of a log's record bodies, in log order.
    /// A record is live iff it builds on `base` (the restored checkpoint),
    /// its iteration is above the last live one's — `restored_iteration`
    /// to begin with — and, for the last of them, its MLPs can be had. A
    /// record of a stale base (a segment that survived a truncation race
    /// or a failed truncate) and a duplicate or out-of-order iteration are
    /// skipped; a checksum-clean but undecodable body ends the tail, the
    /// clean-prefix contract a torn frame has.
    ///
    /// `trailer_of(i)` returns the trailer payload of the record of body
    /// `i`, or `None` when it has none to give. It is asked for the last
    /// live record's, then, while the answer is `None` or does not decode,
    /// the tail ends in front of that record and the next older live
    /// record's is asked for — so no record's trailer is asked for twice,
    /// nor any but the newest live ones'.
    pub fn live<'a>(
        bodies: impl IntoIterator<Item = &'a [u8]>,
        base: CheckpointId,
        restored_iteration: u64,
        mut trailer_of: impl FnMut(usize) -> Option<Bytes>,
    ) -> Self {
        let mut last = restored_iteration;
        let mut live = Vec::new();
        for (i, payload) in bodies.into_iter().enumerate() {
            let Ok(body) = DeltaBody::decode(payload) else {
                break;
            };
            if body.base == base && body.iteration > last {
                last = body.iteration;
                live.push((i, body));
            }
        }
        while let Some(&(i, _)) = live.last() {
            if let Some(dense) = trailer_of(i).and_then(|t| DenseTrailer::decode(&t).ok()) {
                let records = live.into_iter().map(|(_, body)| body).collect();
                return Self { records, dense: Some(dense) };
            }
            live.pop();
        }
        Self { records: Vec::new(), dense: None }
    }

    /// The live records' bodies, oldest first.
    pub fn records(&self) -> &[DeltaBody] {
        &self.records
    }

    /// Sets `model`'s dense layers and iteration from the last record —
    /// the tail's part that is no chain level: the restore placed the
    /// records' rows ([`crate::read::restore_sharded_into`]). MLPs that
    /// are not `model`'s shape fail typed, and `model` is then untouched.
    /// A no-op for an empty tail.
    pub fn set_dense(&self, model: &mut DlrmModel) -> Result<()> {
        let (Some(last), Some(dense)) = (self.records.last(), &self.dense) else {
            return Ok(());
        };
        let (bottom, top) = model.mlps_mut();
        let shapes = (bottom.param_count(), top.param_count());
        if (dense.bottom_mlp.len(), dense.top_mlp.len()) != shapes {
            return Err(CnrError::Corrupt(format!(
                "delta record {} carries MLPs of {} + {} parameters, the model has {} + {}",
                last.iteration,
                dense.bottom_mlp.len(),
                dense.top_mlp.len(),
                shapes.0,
                shapes.1
            )));
        }
        bottom.unflatten(&dense.bottom_mlp);
        top.unflatten(&dense.top_mlp);
        model.set_iteration(last.iteration);
        Ok(())
    }
}

/// The distinct rows a batch touched, ascending within each table, every
/// table's run in one buffer: the row sets [`DeltaRecord::capture`] keeps
/// in a `Vec` per chunk.
struct TouchedRows {
    rows: Vec<u32>,
    /// Where table `t`'s run ends in `rows` (it starts where `t - 1`'s
    /// ends).
    ends: Vec<usize>,
}

impl TouchedRows {
    fn of(batch: &Batch) -> Self {
        let mut rows = Vec::with_capacity(batch.sparse.iter().map(Vec::len).sum());
        let mut ends = Vec::with_capacity(batch.sparse.len());
        for touched in &batch.sparse {
            let start = rows.len();
            rows.extend_from_slice(touched);
            rows[start..].sort_unstable();
            let mut end = start;
            for k in start..rows.len() {
                if end == start || rows[k] != rows[end - 1] {
                    rows[end] = rows[k];
                    end += 1;
                }
            }
            rows.truncate(end);
            ends.push(end);
        }
        Self { rows, ends }
    }

    /// Every table the batch touched, ascending, with its rows.
    fn tables(&self) -> impl Iterator<Item = (usize, &[u32])> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .enumerate()
            .filter(|(_, (start, &end))| end > *start)
            .map(|(t, (start, &end))| (t, &self.rows[start..end]))
    }
}

#[cfg(test)]
impl DeltaChunk {
    /// The frame of this chunk with `edit` applied to its row indices,
    /// accumulators and row bodies: bytes no capture writes.
    fn reframed(
        &self,
        edit: impl FnOnce(&mut Vec<u32>, &mut Option<Vec<f32>>, &mut Vec<u8>),
    ) -> Vec<u8> {
        let header = &self.header;
        let mut rows = header.row_indices.clone();
        let mut acc = header.optimizer_state.clone();
        let mut bodies = self.opened().bodies.to_vec();
        edit(&mut rows, &mut acc, &mut bodies);
        let frame = crate::manifest::ChunkFrame {
            table: header.table,
            row_indices: &rows,
            optimizer_state: acc.as_ref().map(|acc| acc.iter().copied()),
            rows: header.rows,
            rows_len: bodies.len(),
        };
        let mut out = Vec::new();
        frame.encode_into(&mut out, |out| out.extend_from_slice(&bodies));
        out
    }

    /// This chunk with `edit` applied ([`Self::reframed`]), opened again.
    pub(crate) fn edited(
        &self,
        edit: impl FnOnce(&mut Vec<u32>, &mut Option<Vec<f32>>, &mut Vec<u8>),
    ) -> Self {
        let frame = self.reframed(edit);
        Self {
            header: open_frame(&frame).unwrap(),
            frame,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnr_model::ModelConfig;
    use cnr_workload::DatasetSpec;

    fn model_and_batch() -> (DlrmModel, Batch) {
        let spec = DatasetSpec::tiny(17);
        let cfg = ModelConfig::for_dataset(&spec, 4);
        let mut model = DlrmModel::new(cfg);
        let batch = cnr_workload::SyntheticDataset::new(spec).batch(0);
        model.train_batch(&batch, |_, _| {});
        (model, batch)
    }

    #[test]
    fn roundtrips_bit_identically() {
        let (model, batch) = model_and_batch();
        let rec = DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(3), 1);
        assert!(rec.touched_rows() > 0);
        assert_eq!(rec.iteration, 1);
        let decoded = DeltaRecord::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
    }

    #[test]
    fn capture_rows_match_batch_sparse_set() {
        let (model, batch) = model_and_batch();
        let rec = DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(0), 1);
        for chunk in &rec.chunks {
            let mut expected: Vec<u32> = batch.sparse[chunk.table() as usize].clone();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(chunk.row_indices(), expected);
            // Payload rows are the table's current values, exactly (Fp32).
            let table = &model.tables()[chunk.table() as usize];
            let opened = chunk.opened();
            for (k, &i) in chunk.row_indices().iter().enumerate() {
                let mut values = vec![0.0; table.dim()];
                chunk.header.decoder.decode(opened.bodies_of(k..k + 1), &mut values);
                assert_eq!(values, table.row(i as usize));
            }
        }
    }

    /// The flat record is, byte for byte, the record the row-object codec
    /// wrote: header, then one bare `ChunkPayload` frame per touched
    /// table, back to back, then the MLPs — for lossy schemes too.
    #[test]
    fn encoded_record_equals_the_row_object_encoding() {
        use crate::manifest::ChunkPayload;
        let (model, batch) = model_and_batch();
        for scheme in [
            QuantScheme::Fp32,
            QuantScheme::Fp16,
            QuantScheme::Asymmetric { bits: 8 },
            QuantScheme::recommended_for_bits(4),
        ] {
            let rec = DeltaRecord::capture(&model, &batch, &scheme, CheckpointId(9), 1);
            let mut want = Vec::new();
            want.put_u64_le(9);
            want.put_u64_le(model.iteration());
            want.put_u64_le(1);
            want.put_u16_le(rec.chunks.len() as u16);
            for chunk in &rec.chunks {
                let table = &model.tables()[chunk.table() as usize];
                let frame = ChunkPayload {
                    table: chunk.table(),
                    row_indices: chunk.row_indices().to_vec(),
                    optimizer_state: chunk.header.optimizer_state.clone(),
                    rows: chunk
                        .row_indices()
                        .iter()
                        .map(|&i| scheme.quantize_row(table.row(i as usize)))
                        .collect(),
                }
                .encode();
                assert!(ChunkPayload::decode_frame(&frame).is_ok());
                want.extend_from_slice(&frame);
            }
            wire::put_f32s(&mut want, &model.bottom().flatten());
            wire::put_f32s(&mut want, &model.top().flatten());
            let got = rec.encode();
            assert_eq!(got, want, "{scheme}");
            assert_eq!(DeltaRecord::decode(&got).unwrap(), rec, "{scheme}");
        }
    }

    /// What `capture_into` writes into its segment is, byte for byte,
    /// `capture().encode()` — body payload ‖ trailer payload, the trailer
    /// exactly the MLPs — for every scheme at every width, with and
    /// without AdaGrad, over a batch that leaves a table untouched and
    /// names a row twice — and it is durable: replay returns it, as
    /// `append_to` logs the captured value.
    #[test]
    fn capture_into_writes_the_encoded_record() {
        use cnr_model::OptimizerConfig;
        use cnr_storage::{wal, InMemoryStore, ObjectStore, WalConfig};
        use std::sync::Arc;
        let mut schemes = vec![QuantScheme::Fp32, QuantScheme::Fp16];
        for bits in 1..=8 {
            schemes.push(QuantScheme::Symmetric { bits });
            schemes.push(QuantScheme::Asymmetric { bits });
            schemes.push(QuantScheme::recommended_for_bits(bits));
        }
        let spec = DatasetSpec::tiny(17);
        let dataset = cnr_workload::SyntheticDataset::new(spec.clone());
        let mut one_table = dataset.batch(1);
        one_table.sparse[0].clear();
        let again = one_table.sparse[1][0];
        one_table.sparse[1].push(again);
        for optimizer in [
            OptimizerConfig::Sgd { lr: 0.05 },
            OptimizerConfig::RowWiseAdagrad { lr: 0.05, eps: 1e-8 },
        ] {
            let mut model = DlrmModel::new(ModelConfig {
                optimizer,
                ..ModelConfig::for_dataset(&spec, 4)
            });
            let batch = dataset.batch(0);
            model.train_batch(&batch, |_, _| {});
            assert_eq!(model.tables()[0].adagrad().is_some(), matches!(optimizer, OptimizerConfig::RowWiseAdagrad { .. }));
            for scheme in &schemes {
                for (k, batch) in [&batch, &one_table].into_iter().enumerate() {
                    let store = Arc::new(InMemoryStore::new());
                    let mut log = WalWriter::new(store.clone(), "job", WalConfig);
                    let want = DeltaRecord::capture(&model, batch, scheme, CheckpointId(3), 9);
                    assert_eq!(want.chunks.len(), 2 - k, "{scheme}");
                    let want = want.encode();
                    let (_, made_durable) =
                        DeltaRecord::capture_into(&model, batch, scheme, CheckpointId(3), 9, &mut log)
                            .unwrap();
                    let stored = store.get(&wal::segment_key("job", 0)).unwrap();
                    assert_eq!(made_durable, stored.len() as u64);
                    let replayed = wal::replay(store.as_ref(), "job").unwrap();
                    assert_eq!(replayed.records.len(), 1);
                    let record = &replayed.records[0];
                    let trailer = record.trailer.as_ref().expect("the MLPs ride in a trailer");
                    let mlps = trailer_len(model.bottom().param_count(), model.top().param_count());
                    assert_eq!(trailer.len(), mlps, "{scheme} {optimizer:?}");
                    let joined = [&record.payload[..], &trailer[..]].concat();
                    assert!(joined == want, "{scheme} {optimizer:?}");
                    let by_value = Arc::new(InMemoryStore::new());
                    let mut log = WalWriter::new(by_value.clone(), "job", WalConfig);
                    DeltaRecord::decode(&want).unwrap().append_to(&mut log).unwrap();
                    assert_eq!(by_value.get(&wal::segment_key("job", 0)).unwrap(), stored);
                }
            }
        }
    }

    /// A frame whose row bodies do not fit its header is rejected at
    /// decode, typed — not at apply.
    #[test]
    fn decode_rejects_row_bodies_that_do_not_fit_the_header() {
        let (model, batch) = model_and_batch();
        let mut rec = DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(0), 1);
        let good = rec.chunks[0].clone();
        rec.chunks[0] = good.edited(|_, _, bodies| bodies.extend_from_slice(&[0; 4]));
        assert!(matches!(DeltaRecord::decode(&rec.encode()), Err(CnrError::Corrupt(_))));
        // A frame short of a body does not open, so it keeps the good
        // header: encoding writes only the frame.
        rec.chunks[0] = DeltaChunk {
            header: good.header.clone(),
            frame: good.reframed(|_, _, bodies| bodies.truncate(bodies.len() - 4)),
        };
        assert!(DeltaRecord::decode(&rec.encode()).is_err());
    }

    #[test]
    fn apply_partial_diverts_rows_and_composes_back() {
        let (model, batch) = model_and_batch();
        let rec = DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(0), 1);
        let cfg = model.config().clone();
        // Full application as reference.
        let mut eager = DlrmModel::new(cfg.clone());
        rec.apply(&mut eager).unwrap();
        // Divert every row of table 0; apply the rest.
        let mut partial = DlrmModel::new(cfg);
        let (applied, deferred) = rec.apply_partial(&mut partial, |t, _| t == 0).unwrap();
        let diverted = deferred.len() as u64;
        assert!(diverted > 0, "table 0 rows must be diverted");
        assert_eq!(
            applied + diverted,
            rec.touched_rows(),
            "every row is either applied or returned, never dropped"
        );
        // MLPs and iteration always apply.
        assert_eq!(partial.iteration(), 1);
        assert_eq!(partial.bottom().flatten(), eager.bottom().flatten());
        // Replaying the deferred tuples reproduces the eager result.
        for (t, row, values, acc) in deferred {
            let table = &mut partial.tables_mut()[t as usize];
            table.row_mut(row as usize).copy_from_slice(&values);
            if let (Some(a), Some(adagrad)) = (acc, table.adagrad_mut()) {
                adagrad[row as usize] = a;
            }
        }
        assert_eq!(partial.state_hash(), eager.state_hash());
    }

    /// `record` as the engine logs it: body payload and trailer payload.
    fn split(record: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let record = DeltaRecord::decode(record).unwrap();
        let encoded = record.encode();
        let at = encoded.len() - trailer_len(record.bottom_mlp.len(), record.top_mlp.len());
        (encoded[..at].to_vec(), encoded[at..].to_vec())
    }

    /// The live tail of `log`, whose records' trailers are all at hand.
    fn live_tail(log: &[(Vec<u8>, Vec<u8>)], base: CheckpointId, restored: u64) -> WalTail {
        let bodies = log.iter().map(|(body, _)| body.as_slice());
        WalTail::live(bodies, base, restored, |i| Some(Bytes::from(log[i].1.clone())))
    }

    /// The replay loop before the tail was a chain level: decode each
    /// record in log order, stop at the first undecodable one, skip a
    /// stale base or an iteration at or below the model's, apply the rest
    /// in order. Returns the records applied.
    fn replay_in_order(
        log: &[(Vec<u8>, Vec<u8>)],
        base: CheckpointId,
        model: &mut DlrmModel,
    ) -> u64 {
        let mut applied = 0;
        for (body, trailer) in log {
            let Ok(record) = DeltaRecord::decode(&[&body[..], trailer].concat()) else {
                break;
            };
            if record.base != base || record.iteration <= model.iteration() {
                continue;
            }
            record.apply(model).unwrap();
            applied += 1;
        }
        applied
    }

    /// A log holding a stale-base record, a duplicate and two out-of-order
    /// iterations, and an undecodable record in mid-log: the live tail is
    /// what the in-order loop applied. (That the restore lands it as that
    /// loop does is `read::tests::the_log_lands_as_applying_it_in_order`.)
    #[test]
    fn live_keeps_what_the_in_order_loop_applied() {
        let spec = DatasetSpec::tiny(29);
        let dataset = cnr_workload::SyntheticDataset::new(spec.clone());
        let base = CheckpointId(3);
        let restored = {
            let mut m = DlrmModel::new(ModelConfig::for_dataset(&spec, 4));
            m.train_batch(&dataset.batch(0), |_, _| {});
            m
        };
        let mut trained = restored.clone();
        let mut logged = Vec::new();
        for i in 1..8u64 {
            let batch = dataset.batch(i);
            trained.train_batch(&batch, |_, _| {});
            let record = DeltaRecord::capture(&trained, &batch, &QuantScheme::Fp32, base, i + 1);
            logged.push(record.encode());
        }
        let stale = {
            let mut record = DeltaRecord::decode(&logged[2]).unwrap();
            record.base = CheckpointId(2);
            record.encode()
        };
        // Iterations 2..=8 were logged; the model was restored at 1.
        let log: Vec<(Vec<u8>, Vec<u8>)> = vec![
            split(&logged[0]),     // 2
            split(&stale),         // a stale base at 4
            split(&logged[1]),     // 3
            split(&logged[1]),     // 3 again
            split(&logged[0]),     // 2: out of order
            split(&logged[3]),     // 5
            split(&logged[5]),     // 7
            split(&logged[4]),     // 6: out of order, below 7
            (vec![1, 2, 3], vec![]), // undecodable: the tail ends here
            split(&logged[6]),     // 8: never replayed
        ];

        let mut in_order = restored.clone();
        let applied = replay_in_order(&log, base, &mut in_order);
        let tail = live_tail(&log, base, restored.iteration());
        let iterations: Vec<u64> = tail.records().iter().map(|r| r.iteration).collect();
        assert_eq!(iterations, vec![2, 3, 5, 7]);
        assert_eq!(applied, iterations.len() as u64);

        // The dense step leaves the MLPs and iteration the loop left.
        let mut dense = restored.clone();
        tail.set_dense(&mut dense).unwrap();
        assert_eq!(dense.iteration(), 7);
        assert_eq!(dense.bottom().flatten(), in_order.bottom().flatten());
        assert_eq!(dense.top().flatten(), in_order.top().flatten());
    }

    /// The last live record's MLPs are the dense layers: a record whose
    /// trailer cannot be had, or does not decode, is not live, and the
    /// tail ends in front of it. Only the newest live records' trailers
    /// are asked for, newest first, each once.
    #[test]
    fn a_tail_ends_in_front_of_a_record_without_its_trailer() {
        let spec = DatasetSpec::tiny(29);
        let dataset = cnr_workload::SyntheticDataset::new(spec.clone());
        let base = CheckpointId(3);
        let mut model = DlrmModel::new(ModelConfig::for_dataset(&spec, 4));
        let mut log = Vec::new();
        let mut states = Vec::new();
        for i in 0..4u64 {
            let batch = dataset.batch(i);
            model.train_batch(&batch, |_, _| {});
            let record = DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, base, i + 1);
            log.push(split(&record.encode()));
            states.push(model.clone());
        }
        let mut asked = Vec::new();
        let bodies = log.iter().map(|(body, _)| body.as_slice());
        let tail = WalTail::live(bodies, base, 0, |i| {
            asked.push(i);
            match i {
                3 => None,                           // not to be had
                2 => Some(Bytes::from(vec![0; 3])), // does not decode
                _ => Some(Bytes::from(log[i].1.clone())),
            }
        });
        assert_eq!(asked, [3, 2, 1]);
        let iterations: Vec<u64> = tail.records().iter().map(|r| r.iteration).collect();
        assert_eq!(iterations, [1, 2]);
        let mut dense = DlrmModel::new(model.config().clone());
        tail.set_dense(&mut dense).unwrap();
        assert_eq!(dense.iteration(), 2);
        assert_eq!(dense.bottom().flatten(), states[1].bottom().flatten());
        assert_eq!(dense.top().flatten(), states[1].top().flatten());

        let none = WalTail::live(log.iter().map(|(body, _)| body.as_slice()), base, 0, |_| None);
        assert!(none.records().is_empty());
        let untouched = dense.state_hash();
        none.set_dense(&mut dense).unwrap();
        assert_eq!(dense.state_hash(), untouched, "an empty tail sets nothing");
    }

    /// A body decodes alone and holds nothing but the body; a trailer
    /// holds nothing but the MLPs; `decode_logged` joins the two, or
    /// decodes a record appended whole.
    #[test]
    fn body_and_trailer_decode_apart_and_join() {
        let (model, batch) = model_and_batch();
        let rec = DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(3), 1);
        let (body, trailer) = split(&rec.encode());
        let decoded = DeltaBody::decode(&body).unwrap();
        assert_eq!((decoded.iteration, &decoded.chunks), (rec.iteration, &rec.chunks));
        assert!(DeltaBody::decode(&rec.encode()).is_err(), "the MLPs are no part of a body");
        let dense = DenseTrailer::decode(&trailer).unwrap();
        assert_eq!((&dense.bottom_mlp, &dense.top_mlp), (&rec.bottom_mlp, &rec.top_mlp));
        assert!(DenseTrailer::decode(&[&trailer[..], &[0]].concat()).is_err());
        let logged = |payload: Vec<u8>, trailer: Option<Vec<u8>>| WalRecord {
            seq: 0,
            segment: 0,
            payload: Bytes::from(payload),
            trailer: trailer.map(Bytes::from),
        };
        let split_record = logged(body.clone(), Some(trailer));
        assert_eq!(DeltaRecord::decode_logged(&split_record).unwrap(), rec);
        assert_eq!(DeltaRecord::decode_logged(&logged(rec.encode(), None)).unwrap(), rec);
        assert!(DeltaRecord::decode_logged(&logged(body, None)).is_err());
    }

    /// `chunk`'s frame as the retired row tag 1 stored it: each body's
    /// binary16 scale and zero point widened to `f32`s ahead of the same
    /// codes.
    fn with_f32_params(chunk: &DeltaChunk) -> Vec<u8> {
        use crate::manifest::RowContext;
        use cnr_quant::half::f16_bits_to_f32;
        let header = &chunk.header;
        let widen = |p: &[u8]| f16_bits_to_f32(u16::from_le_bytes([p[0], p[1]])).to_le_bytes();
        let bodies: Vec<u8> = chunk
            .opened()
            .bodies
            .chunks_exact(header.decoder.body_len())
            .flat_map(|body| {
                let params = [widen(&body[..2]), widen(&body[2..4])].concat();
                params.into_iter().chain(body[4..].iter().copied())
            })
            .collect();
        let frame = crate::manifest::ChunkFrame {
            table: header.table,
            row_indices: &header.row_indices,
            optimizer_state: header.optimizer_state.as_ref().map(|acc| acc.iter().copied()),
            rows: RowContext { tag: 1, ..header.rows },
            rows_len: bodies.len(),
        };
        let mut out = Vec::new();
        frame.encode_into(&mut out, |out| out.extend_from_slice(&bodies));
        out
    }

    /// A record embedding a chunk of the retired row tag 1 does not
    /// decode — typed, naming the tag — so the live tail ends at it and
    /// keeps the clean prefix before it.
    #[test]
    fn a_record_embedding_retired_row_tag_1_ends_the_live_tail() {
        let spec = DatasetSpec::tiny(29);
        let dataset = cnr_workload::SyntheticDataset::new(spec.clone());
        let base = CheckpointId(3);
        let scheme = QuantScheme::Asymmetric { bits: 4 };
        let mut model = DlrmModel::new(ModelConfig::for_dataset(&spec, 4));
        let mut logged = Vec::new();
        for i in 1..5u64 {
            let batch = dataset.batch(i);
            model.train_batch(&batch, |_, _| {});
            logged.push(DeltaRecord::capture(&model, &batch, &scheme, base, i + 1));
        }
        let mut retired = logged[2].clone();
        let good = retired.chunks[0].clone();
        assert_eq!(good.header.rows.tag, 4);
        retired.chunks[0] = DeltaChunk {
            header: good.header.clone(),
            frame: with_f32_params(&good),
        };
        let retired = retired.encode();
        let err = DeltaRecord::decode(&retired).unwrap_err();
        assert!(
            matches!(&err, CnrError::Corrupt(why) if why.contains("unknown row tag 1")),
            "{err:?}"
        );
        let at = retired.len() - trailer_len(logged[2].bottom_mlp.len(), logged[2].top_mlp.len());
        let log = [
            split(&logged[0].encode()),
            split(&logged[1].encode()),
            (retired[..at].to_vec(), retired[at..].to_vec()),
            split(&logged[3].encode()),
        ];
        let tail = live_tail(&log, base, 0);
        let iterations: Vec<u64> = tail.records().iter().map(|r| r.iteration).collect();
        assert_eq!(iterations, [1, 2]);
        let chunks: Vec<_> = tail.records().iter().map(|r| &r.chunks).collect();
        assert_eq!(chunks, [&logged[0].chunks, &logged[1].chunks]);
    }

    /// A record whose MLPs are not the model's shape fails the dense step
    /// typed, and leaves the model as it was.
    #[test]
    fn the_dense_step_refuses_mlps_of_another_shape() {
        let (model, batch) = model_and_batch();
        let mut bad = DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(0), 1);
        bad.top_mlp.pop();
        let tail = live_tail(&[split(&bad.encode())], CheckpointId(0), 0);
        assert_eq!(tail.records().len(), 1);
        let mut target = DlrmModel::new(model.config().clone());
        let before = target.state_hash();
        assert!(matches!(tail.set_dense(&mut target), Err(CnrError::Corrupt(_))));
        assert_eq!(target.state_hash(), before);
    }

    #[test]
    fn apply_reproduces_the_trained_state_exactly() {
        let spec = DatasetSpec::tiny(23);
        let cfg = ModelConfig::for_dataset(&spec, 4);
        let mut trained = DlrmModel::new(cfg.clone());
        let mut replayed = DlrmModel::new(cfg);
        let dataset = cnr_workload::SyntheticDataset::new(spec);
        for i in 0..5u64 {
            let batch = dataset.batch(i);
            trained.train_batch(&batch, |_, _| {});
            let rec = DeltaRecord::capture(
                &trained,
                &batch,
                &QuantScheme::Fp32,
                CheckpointId(0),
                i + 1,
            );
            let rt = DeltaRecord::decode(&rec.encode()).unwrap();
            rt.apply(&mut replayed).unwrap();
        }
        assert_eq!(trained.state_hash(), replayed.state_hash(), "bit-identical replay");
        assert_eq!(replayed.iteration(), 5);
    }

    #[test]
    fn decode_rejects_malformed_input_with_typed_errors() {
        let (model, batch) = model_and_batch();
        let rec = DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(0), 1);
        let good = rec.encode();
        // Truncations at every prefix length: typed error, never a panic.
        for cut in 0..good.len() {
            assert!(DeltaRecord::decode(&good[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage is rejected too.
        let mut long = good.clone();
        long.push(0);
        assert!(DeltaRecord::decode(&long).is_err());
    }

    #[test]
    fn apply_rejects_out_of_range_rows() {
        let (model, batch) = model_and_batch();
        let mut rec =
            DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(0), 1);
        rec.chunks[0] = rec.chunks[0].edited(|rows, _, _| *rows.last_mut().unwrap() = u32::MAX);
        let mut target = model.clone();
        assert!(matches!(rec.apply(&mut target), Err(CnrError::Corrupt(_))));
    }
}
