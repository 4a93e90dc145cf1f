//! Per-iteration delta records for the write-ahead log.
//!
//! Between full checkpoints the engine appends one [`DeltaRecord`] per
//! training iteration to the WAL (`cnr_storage::wal`). A record carries
//! exactly the state one batch changed: the touched embedding rows (the
//! same set `cnr_tracking`'s bitvec marks, quantized with the checkpoint's
//! scheme, optimizer scalars included) plus the dense MLP parameters —
//! which every batch updates and which are a rounding error next to the
//! embeddings (§2.1). Restore replays records on top of the base
//! checkpoint to reach the WAL tip.
//!
//! The codec is deliberately self-contained per record: a record decodes
//! without any segment- or log-level context, so the WAL reader can hand
//! over opaque frame payloads and crash-consistency stays entirely the
//! frame layer's concern.
//!
//! This runs once per training iteration, so the write side is one pass
//! from model to stored object: [`DeltaRecord::capture_into`] sizes the
//! record first, then writes it straight into the frame of the log's next
//! append ([`WalWriter::append_with`]) — the touched rows quantized in
//! place through the chunk kernels, the MLPs copied slice by slice from
//! their layers. [`DeltaRecord::capture`] and [`DeltaRecord::encode`]
//! build and serialize the same record as a value: the decode-side type,
//! and the reference `capture_into` must match byte for byte.
//!
//! On the read side the log's tail is the restore chain's newest level.
//! [`WalTail`] keeps the records that build on the restored checkpoint;
//! each embedded chunk is a stored chunk's frame, opened the way a fetched
//! chunk is ([`DeltaChunk`]), so the restore places it like one
//! ([`crate::read::restore_sharded_into`]): record `i` ranks above every
//! chunk of the chain, and each replayed row is de-quantized once, from
//! the newest record naming it, and is final from then on. The dense
//! layers and iteration come from the last record alone
//! ([`WalTail::set_dense`]), as does the reader cursor.

use crate::error::{CnrError, Result};
use crate::manifest::{
    decode_scheme, encode_scheme, open_frame, scheme_len, CheckpointId, ChunkFrame, ChunkHeader,
    OpenedChunk, RowContext,
};
use crate::wire;
use bytes::BufMut;
use cnr_model::{DlrmModel, Mlp};
use cnr_quant::QuantScheme;
use cnr_storage::{PutReceipt, WalWriter};
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

    /// The row indices within the table, ascending for a captured chunk.
    pub fn row_indices(&self) -> &[u32] {
        &self.header.row_indices
    }

    /// The chunk as a restore places it.
    pub(crate) fn opened(&self) -> OpenedChunk<'_> {
        self.header.over(&self.frame)
    }
}

/// The state one training iteration changed, as stored in one WAL frame.
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
    /// Quantization scheme the row payloads use.
    pub scheme: QuantScheme,
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
            let chunk = touched_frame(model, scheme, t, &row_indices);
            let mut frame = Vec::with_capacity(chunk.encoded_len());
            chunk.encode_into(&mut frame, |out| {
                for &i in &row_indices {
                    scheme.quantize_row_into(table.row(i as usize), out);
                }
            });
            let header = open_frame(&frame).expect("a captured frame opens");
            chunks.push(DeltaChunk { header, frame });
        }
        Self {
            base,
            iteration: model.iteration(),
            reader_next,
            scheme: *scheme,
            chunks,
            bottom_mlp: model.bottom().flatten(),
            top_mlp: model.top().flatten(),
        }
    }

    /// Captures the record [`Self::capture`] would build for the batch
    /// just applied to `model` straight into the frame of `wal`'s next
    /// append, byte for byte as [`Self::encode`] writes it, and makes it
    /// durable ([`WalWriter::append_with`]). Nothing is built on the way:
    /// the record is sized from the touched row counts, the rows are
    /// quantized into the frame and the MLPs copied there from their
    /// layers. What this allocates besides the segment is one buffer of
    /// the batch's row ids and one of table offsets, however many rows it
    /// touched. Returns the sync's receipt and the bytes it made durable.
    pub fn capture_into(
        model: &DlrmModel,
        batch: &Batch,
        scheme: &QuantScheme,
        base: CheckpointId,
        reader_next: u64,
        wal: &mut WalWriter,
    ) -> Result<(PutReceipt, u64)> {
        let touched = TouchedRows::of(batch);
        let chunks_len: usize = touched
            .tables()
            .map(|(t, rows)| touched_frame(model, scheme, t, rows).encoded_len())
            .sum();
        let len = 3 * 8
            + scheme_len(scheme)
            + 2
            + chunks_len
            + mlp_len(model.bottom())
            + mlp_len(model.top());
        Ok(wal.append_with(len, |out| {
            out.put_u64_le(base.0);
            out.put_u64_le(model.iteration());
            out.put_u64_le(reader_next);
            encode_scheme(out, scheme);
            out.put_u16_le(touched.tables().count() as u16);
            for (t, rows) in touched.tables() {
                let table = &model.tables()[t];
                touched_frame(model, scheme, t, rows).encode_into(out, |out| {
                    for &i in rows {
                        scheme.quantize_row_into(table.row(i as usize), out);
                    }
                });
            }
            put_mlp(out, model.bottom());
            put_mlp(out, model.top());
        })?)
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

    /// Serializes the record (the WAL frame payload) into one buffer.
    pub fn encode(&self) -> Vec<u8> {
        // Fixed fields, the widest scheme encoding, counts and prefixes.
        const FIXED_MAX: usize = 3 * 8 + 14 + 2 + 2 * 4;
        let frames: usize = self.chunks.iter().map(|c| c.frame.len()).sum();
        let mlps = 4 * (self.bottom_mlp.len() + self.top_mlp.len());
        let mut buf = Vec::with_capacity(FIXED_MAX + frames + mlps);
        buf.put_u64_le(self.base.0);
        buf.put_u64_le(self.iteration);
        buf.put_u64_le(self.reader_next);
        encode_scheme(&mut buf, &self.scheme);
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
    /// body whole) and its frame kept, encoded, as one copy.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut slice = data;
        let b = &mut slice;
        let base = CheckpointId(wire::get_u64(b)?);
        let iteration = wire::get_u64(b)?;
        let reader_next = wire::get_u64(b)?;
        let scheme = decode_scheme(b)?;
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
        let bottom_mlp = wire::get_f32s(b)?;
        let top_mlp = wire::get_f32s(b)?;
        if !b.is_empty() {
            return Err(CnrError::Corrupt(format!(
                "{} trailing bytes after delta record",
                b.len()
            )));
        }
        Ok(Self { base, iteration, reader_next, scheme, chunks, bottom_mlp, top_mlp })
    }

    /// Distinct embedding rows this record carries.
    pub fn touched_rows(&self) -> u64 {
        self.chunks.iter().map(|c| c.row_indices().len() as u64).sum()
    }
}

/// The records of a WAL log that replay on top of a restored checkpoint,
/// oldest first: the chain's newest level.
#[derive(Debug, Clone)]
pub struct WalTail {
    records: Vec<DeltaRecord>,
}

impl WalTail {
    /// Picks the live records out of a log's frame payloads, in log order.
    /// A record is live iff it builds on `base` (the restored checkpoint)
    /// and its iteration is above the last live one's — `restored_iteration`
    /// to begin with. A record of a stale base (a segment that survived a
    /// truncation race or a failed truncate) and a duplicate or
    /// out-of-order iteration are skipped; a checksum-clean but undecodable
    /// record ends the tail, the clean-prefix contract a torn frame has.
    pub fn live<'a>(
        payloads: impl IntoIterator<Item = &'a [u8]>,
        base: CheckpointId,
        restored_iteration: u64,
    ) -> Self {
        let mut last = restored_iteration;
        let mut records = Vec::new();
        for payload in payloads {
            let Ok(record) = DeltaRecord::decode(payload) else {
                break;
            };
            if record.base == base && record.iteration > last {
                last = record.iteration;
                records.push(record);
            }
        }
        Self { records }
    }

    /// The live records, oldest first.
    pub fn records(&self) -> &[DeltaRecord] {
        &self.records
    }

    /// Sets `model`'s dense layers and iteration from the last record —
    /// the tail's part that is no chain level: the restore placed the
    /// records' rows ([`crate::read::restore_sharded_into`]). A record
    /// whose MLPs are not `model`'s shape fails typed, and `model` is then
    /// untouched. A no-op for an empty tail.
    pub fn set_dense(&self, model: &mut DlrmModel) -> Result<()> {
        let Some(last) = self.records.last() else {
            return Ok(());
        };
        let (bottom, top) = model.mlps_mut();
        let shapes = (bottom.param_count(), top.param_count());
        if let Some(record) = self
            .records
            .iter()
            .find(|r| (r.bottom_mlp.len(), r.top_mlp.len()) != shapes)
        {
            return Err(CnrError::Corrupt(format!(
                "delta record {} carries MLPs of {} + {} parameters, the model has {} + {}",
                record.iteration,
                record.bottom_mlp.len(),
                record.top_mlp.len(),
                shapes.0,
                shapes.1
            )));
        }
        bottom.unflatten(&last.bottom_mlp);
        top.unflatten(&last.top_mlp);
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

/// The chunk of table `t`'s touched `rows`, as the chunk layout's single
/// writer takes it: accumulators gathered from the table as they are
/// written.
fn touched_frame<'a>(
    model: &'a DlrmModel,
    scheme: &QuantScheme,
    t: usize,
    rows: &'a [u32],
) -> ChunkFrame<'a, impl ExactSizeIterator<Item = f32> + 'a> {
    let table = &model.tables()[t];
    let dim = table.dim();
    ChunkFrame {
        table: t as u16,
        row_indices: rows,
        optimizer_state: table
            .adagrad()
            .map(|acc| rows.iter().map(move |&i| acc[i as usize])),
        rows: RowContext {
            tag: scheme.kind_tag(),
            bits: scheme.bits(),
            dim: dim as u16,
        },
        rows_len: rows.len() * scheme.body_bytes_per_row(dim),
    }
}

/// Bytes [`put_mlp`] appends for `mlp`.
fn mlp_len(mlp: &Mlp) -> usize {
    4 + 4 * mlp.param_count()
}

/// Appends `mlp`'s parameters as [`wire::put_f32s`] writes its
/// [`Mlp::flatten`], straight from the layers.
fn put_mlp(out: &mut Vec<u8>, mlp: &Mlp) {
    wire::put_f32_slices(out, mlp.param_count(), mlp.params());
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
        let frame = ChunkFrame {
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
            encode_scheme(&mut want, &scheme);
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
    /// `capture().encode()` — for every scheme at every width, with and
    /// without AdaGrad, over a batch that leaves a table untouched and
    /// names a row twice — and it is durable: replay returns it.
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
                    assert!(replayed.records[0].payload[..] == want[..], "{scheme} {optimizer:?}");
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

    /// The replay loop before the tail was a chain level: decode each
    /// payload in log order, stop at the first undecodable one, skip a
    /// stale base or an iteration at or below the model's, apply the rest
    /// in order. Returns the records applied.
    fn replay_in_order(payloads: &[Vec<u8>], base: CheckpointId, model: &mut DlrmModel) -> u64 {
        let mut applied = 0;
        for payload in payloads {
            let Ok(record) = DeltaRecord::decode(payload) else {
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
        let log: Vec<Vec<u8>> = vec![
            logged[0].clone(), // 2
            stale,             // a stale base at 4
            logged[1].clone(), // 3
            logged[1].clone(), // 3 again
            logged[0].clone(), // 2: out of order
            logged[3].clone(), // 5
            logged[5].clone(), // 7
            logged[4].clone(), // 6: out of order, below 7
            vec![1, 2, 3],     // undecodable: the tail ends here
            logged[6].clone(), // 8: never replayed
        ];

        let mut in_order = restored.clone();
        let applied = replay_in_order(&log, base, &mut in_order);
        let tail = WalTail::live(log.iter().map(Vec::as_slice), base, restored.iteration());
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

    /// A record whose MLPs are not the model's shape fails the dense step
    /// typed, and leaves the model as it was.
    #[test]
    fn the_dense_step_refuses_mlps_of_another_shape() {
        let (model, batch) = model_and_batch();
        let mut bad = DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(0), 1);
        bad.top_mlp.pop();
        let tail = WalTail::live([bad.encode().as_slice()], CheckpointId(0), 0);
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
        rec.chunks[0] = rec.chunks[0].edited(|rows, _, _| rows[0] = u32::MAX);
        let mut target = model.clone();
        assert!(matches!(rec.apply(&mut target), Err(CnrError::Corrupt(_))));
    }
}
