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
//! and the reference `capture_into` must match byte for byte. Apply
//! resolves each chunk's row encoding once and de-quantizes every applied
//! row straight into its table row — only a row diverted to a lazy
//! restore's tail gets a buffer of its own.

use crate::error::{CnrError, Result};
use crate::manifest::{
    decode_scheme, encode_scheme, open_frame, scheme_len, CheckpointId, ChunkFrame, RowContext,
};
use crate::wire;
use bytes::BufMut;
use cnr_model::{DlrmModel, Mlp};
use cnr_quant::codec::RowDecoder;
use cnr_quant::QuantScheme;
use cnr_storage::{PutReceipt, WalWriter};
use cnr_workload::Batch;

/// The rows one iteration touched in one table, quantized: the parsed
/// form of the bare chunk frame a record embeds. The row bodies stay
/// encoded, back to back in one buffer — no object and no allocation per
/// row — and are de-quantized only as they are applied.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaChunk {
    /// Which table the rows belong to.
    pub table: u16,
    /// Distinct row indices within the table, ascending.
    pub row_indices: Vec<u32>,
    /// Row-wise optimizer accumulators (present iff the table has them).
    pub optimizer_state: Option<Vec<f32>>,
    /// Encoding shared by every row body.
    rows: RowContext,
    /// The quantized row bodies, concatenated in `row_indices` order.
    bodies: Vec<u8>,
}

impl DeltaChunk {
    /// The chunk as the chunk layout's single writer takes it.
    fn frame(&self) -> ChunkFrame<'_, impl ExactSizeIterator<Item = f32> + '_> {
        ChunkFrame {
            table: self.table,
            row_indices: &self.row_indices,
            optimizer_state: self.optimizer_state.as_ref().map(|acc| acc.iter().copied()),
            rows: self.rows,
            rows_len: self.bodies.len(),
        }
    }

    /// The rows' encoding, resolved once for the chunk, and the encoded
    /// body of each row, in `row_indices` order.
    fn row_bodies(&self) -> Result<(RowDecoder, impl Iterator<Item = &[u8]>)> {
        let RowContext { tag, bits, dim } = self.rows;
        let decoder = RowDecoder::new(tag, bits, dim as usize)?;
        let len = decoder.body_len();
        let bodies = (0..self.row_indices.len()).map(move |k| &self.bodies[k * len..(k + 1) * len]);
        Ok((decoder, bodies))
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
    /// `scheme` straight into the chunk's one body buffer, AdaGrad scalars
    /// included) and the full — tiny — MLPs.
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
            let dim = table.dim();
            let mut bodies =
                Vec::with_capacity(row_indices.len() * scheme.body_bytes_per_row(dim));
            for &i in &row_indices {
                scheme.quantize_row_into(table.row(i as usize), &mut bodies);
            }
            let optimizer_state = table
                .adagrad()
                .map(|acc| row_indices.iter().map(|&i| acc[i as usize]).collect());
            chunks.push(DeltaChunk {
                table: t as u16,
                row_indices,
                optimizer_state,
                rows: RowContext {
                    tag: scheme.kind_tag(),
                    bits: scheme.bits(),
                    dim: dim as u16,
                },
                bodies,
            });
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

    /// [`Self::apply`] for a lazily-restored model: MLPs, iteration, and
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
            let t = chunk.table as usize;
            let table = model
                .tables_mut()
                .get_mut(t)
                .ok_or_else(|| CnrError::Corrupt(format!("delta chunk for unknown table {t}")))?;
            let (dim, nrows) = (table.dim(), table.rows());
            if chunk.rows.dim as usize != dim {
                return Err(CnrError::Corrupt(format!(
                    "delta row dim {} != table dim {dim}",
                    chunk.rows.dim
                )));
            }
            let (decoder, bodies) = chunk.row_bodies()?;
            for (k, (&idx, body)) in chunk.row_indices.iter().zip(bodies).enumerate() {
                let i = idx as usize;
                if i >= nrows {
                    return Err(CnrError::Corrupt(format!(
                        "delta row {i} out of range for table {t} ({nrows} rows)"
                    )));
                }
                let acc = chunk.optimizer_state.as_ref().map(|a| a[k]);
                if divert(chunk.table, idx) {
                    let mut values = vec![0.0; dim];
                    decoder.decode(body, &mut values);
                    deferred.push((chunk.table, idx, values, acc));
                    continue;
                }
                decoder.decode(body, table.row_mut(i));
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
        let frames: usize = self.chunks.iter().map(|c| c.frame().encoded_len()).sum();
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
            chunk
                .frame()
                .encode_into(&mut buf, |out| out.extend_from_slice(&chunk.bodies));
        }
        wire::put_f32s(&mut buf, &self.bottom_mlp);
        wire::put_f32s(&mut buf, &self.top_mlp);
        buf
    }

    /// Parses a serialized record — the payload of a WAL frame whose
    /// envelope checksum verified — rejecting malformed input with a typed
    /// error: the envelope already screens corruption, so a failure here
    /// means a logic bug or a hand-built frame, but it must still never
    /// panic. Row bodies are checked for shape and kept encoded.
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
            let bodies = opened.bodies.to_vec();
            *b = rest;
            chunks.push(DeltaChunk {
                table: header.table,
                row_indices: header.row_indices,
                optimizer_state: header.optimizer_state,
                rows: header.rows,
                bodies,
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
        self.chunks.iter().map(|c| c.row_indices.len() as u64).sum()
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
            let mut expected: Vec<u32> = batch.sparse[chunk.table as usize].clone();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(chunk.row_indices, expected);
            // Payload rows are the table's current values, exactly (Fp32).
            let table = &model.tables()[chunk.table as usize];
            let (decoder, bodies) = chunk.row_bodies().unwrap();
            for (&i, body) in chunk.row_indices.iter().zip(bodies) {
                let mut values = vec![0.0; table.dim()];
                decoder.decode(body, &mut values);
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
                let table = &model.tables()[chunk.table as usize];
                let frame = ChunkPayload {
                    table: chunk.table,
                    row_indices: chunk.row_indices.clone(),
                    optimizer_state: chunk.optimizer_state.clone(),
                    rows: chunk
                        .row_indices
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
        rec.chunks[0].bodies.extend_from_slice(&[0; 4]);
        assert!(matches!(DeltaRecord::decode(&rec.encode()), Err(CnrError::Corrupt(_))));
        let short = rec.chunks[0].bodies.len() - 8;
        rec.chunks[0].bodies.truncate(short);
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
        rec.chunks[0].row_indices[0] = u32::MAX;
        let mut target = model.clone();
        assert!(matches!(rec.apply(&mut target), Err(CnrError::Corrupt(_))));
    }
}
