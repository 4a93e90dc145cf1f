//! Per-host shard writers (§4.4 step 3).
//!
//! A `ShardWriter` is one simulated writer host's side of a checkpoint:
//! it quantizes a chunk of the host's row-range — read straight from the
//! snapshot's borrowed tables by row index, one slice per run of
//! consecutive rows — and streams it to the store through the
//! [`UploadScheduler`], over the host's own uplink. A host can also be *killed* mid-upload
//! (failure injection): it aborts the chunk it was transferring, and the
//! coordinator (`crate::hosts`) re-shards every chunk it never finished
//! onto the surviving hosts. Chunks the dead host had already completed
//! become orphaned objects — the controller's orphan sweep reclaims them
//! when the next checkpoint registers.

use super::chunker::WorkItem;
use super::scheduler::UploadScheduler;
use crate::error::Result;
use crate::manifest::{chunk_of_rows, CheckpointId, ChunkMeta, Manifest};
use bytes::Bytes;
use cnr_model::TableView;
use cnr_quant::QuantScheme;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Executes chunk uploads for one checkpoint on behalf of any host.
pub(crate) struct ShardWriter<'a> {
    pub(crate) job: &'a str,
    pub(crate) id: CheckpointId,
    pub(crate) scheme: QuantScheme,
    /// The snapshot's tables: every chunk is quantized straight from here.
    pub(crate) tables: &'a [TableView<'a>],
    pub(crate) scheduler: &'a UploadScheduler<'a>,
    /// Wall-clock nanoseconds spent quantizing, shared across shards.
    pub(crate) quantize_nanos: &'a AtomicU64,
}

impl ShardWriter<'_> {
    /// Quantizes and encodes one chunk, then uploads it in its `turn` of
    /// `host`'s list, under the key that turn names.
    pub(crate) fn upload_one(&self, host: u16, turn: u32, item: &WorkItem) -> Result<ChunkMeta> {
        let t0 = Instant::now();
        let payload = encode_chunk(item, &self.tables[item.table as usize], &self.scheme);
        self.quantize_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let key = Manifest::chunk_key(self.job, self.id, host, turn);
        let bytes = payload.len() as u64;
        let (_receipt, parts) = self.scheduler.upload(host, Some(turn), &key, Bytes::from(payload))?;
        Ok(ChunkMeta {
            key,
            rows: item.indices.len() as u32,
            bytes,
            parts,
            table: item.table,
            first_row: item.indices.first().copied().unwrap_or(u32::MAX),
            last_row: item.indices.last().copied().unwrap_or(u32::MAX),
        })
    }

    /// Simulates the host dying partway through transferring `item`: the
    /// chunk's multipart upload starts, ships one part, and is aborted.
    /// Nothing becomes visible at the chunk's key.
    pub(crate) fn die_mid_upload(&self, host: u16, turn: u32, item: &WorkItem) -> Result<()> {
        let payload = encode_chunk(item, &self.tables[item.table as usize], &self.scheme);
        let key = Manifest::chunk_key(self.job, self.id, host, turn);
        let store = self.scheduler.store();
        let up = store.begin_multipart(&key)?.on_channel(host as u32);
        let first = payload.len().min(self.scheduler.part_bytes());
        // Best-effort: a dying host cannot guarantee its last part landed.
        let _ = store.put_part(&up, 0, Bytes::from(payload).slice(..first), Duration::ZERO);
        store.abort_multipart(&up)?;
        Ok(())
    }
}

/// Quantizes and encodes one work item into the chunk bytes as stored —
/// the chunk frame inside the storage envelope, so every byte that leaves
/// a writer host is covered by an end-to-end checksum — in one buffer:
/// each row's parameters and packed codes are appended straight from
/// `table` (the item's table, whole: the item's `indices` are row numbers
/// in it, read one slice per run of consecutive rows) into the exactly
/// sized chunk buffer, which is then checksummed in place. The scheme the rows are stored
/// under — `scheme`, or fp32 when it cannot describe one of their values —
/// is decided once from the values. Byte for byte what
/// `ChunkPayload { rows: scheme.quantize_row(..) for every row, .. }.encode_enveloped()`
/// produces for a chunk `scheme` describes, without the row objects or any
/// intermediate copy.
///
/// Panics when the item names a row outside `table` — the chunker only
/// plans rows of the snapshot it was given, and the writer checks every
/// table and mask against the geometry before planning.
pub fn encode_chunk(item: &WorkItem, table: &TableView, scheme: &QuantScheme) -> Vec<u8> {
    let (frame, put_rows) = chunk_of_rows(item.table, &item.indices, *table, item.dim, scheme);
    frame.encode_enveloped(put_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CnrError;
    use crate::manifest::{open_frame, ChunkHeader, ChunkPayload};
    use cnr_model::TableState;
    use cnr_quant::codec::decode_body_to;
    use cnr_storage::envelope::Verified;

    fn schemes() -> Vec<QuantScheme> {
        vec![
            QuantScheme::Fp32,
            QuantScheme::Fp16,
            QuantScheme::Symmetric { bits: 8 },
            QuantScheme::Asymmetric { bits: 4 },
            QuantScheme::Asymmetric { bits: 3 },
            QuantScheme::recommended_for_bits(2),
            QuantScheme::recommended_for_bits(4),
        ]
    }

    /// A work item naming `rows` rows of a whole table, `stride` apart from
    /// row 1 — every third row is scattered, as an incremental's rows are;
    /// stride 1 is one run, as a full checkpoint's — and the table. The
    /// rows the item does not name hold NaN, which no chunk of ordinary
    /// values may read.
    fn item(rows: usize, dim: usize, with_acc: bool, stride: usize) -> (WorkItem, TableState) {
        let item = WorkItem {
            table: 3,
            indices: (0..rows).map(|i| (i * stride + 1) as u32).collect(),
            dim,
        };
        let table_rows = stride * rows + 2;
        let mut table = TableState {
            data: vec![f32::NAN; table_rows * dim],
            adagrad: with_acc.then(|| (0..table_rows).map(|i| i as f32 * 0.5).collect()),
        };
        for &row in &item.indices {
            let at = row as usize * dim;
            for (i, v) in table.data[at..at + dim].iter_mut().enumerate() {
                *v = (((at + i) * 37 % 101) as f32 / 101.0 - 0.4) * 0.3;
            }
        }
        (item, table)
    }

    /// The row-object encoding the fused path must reproduce: each row
    /// quantized on its own, under the scheme the chunk's values decide.
    fn via_row_objects(item: &WorkItem, table: &TableState, scheme: &QuantScheme) -> ChunkPayload {
        let row = |&r: &u32| &table.data[r as usize * item.dim..(r as usize + 1) * item.dim];
        let stored = scheme.stored_for(item.indices.iter().map(row));
        ChunkPayload {
            table: item.table,
            row_indices: item.indices.clone(),
            optimizer_state: table
                .adagrad
                .as_ref()
                .map(|acc| item.indices.iter().map(|&r| acc[r as usize]).collect()),
            rows: item.indices.iter().map(|r| stored.quantize_row(row(r))).collect(),
        }
    }

    /// Rows that end the adaptive search each way, in turn: by the clip
    /// bound (an ordinary row, `None`; and one far value the search sheds
    /// a bin at a time, for several steps at ratio 1), by its budget (that
    /// row at ratio 0.05, two steps), by a step too small to move an end
    /// point (four `f32` ulps at 1000, at 1 bit), and at once (a constant
    /// row). A NaN row, which runs its whole budget, and a value that
    /// forces fp32 are the poisons below.
    fn edge_row(k: usize, dim: usize) -> Option<Vec<f32>> {
        let ulps = |i: usize| f32::from_bits(1000f32.to_bits() + (i % 4) as u32);
        let far = |i: usize| match i {
            0 => 1.0,
            _ => (i * 53 % dim) as f32 / dim as f32 * 0.6,
        };
        match k % 5 {
            1 => Some((0..dim).map(far).collect()),
            2 => Some((0..dim).map(ulps).collect()),
            3 => Some(vec![0.25; dim]),
            _ => None,
        }
    }

    /// Both ways a chunk is stored: under its scheme for ordinary values,
    /// and as fp32 rows (tag 0) once a value of the chunk — in any of its
    /// rows — is one the scheme cannot describe: NaN or `-1e6` for a
    /// uniform scheme, `-1e6` (binary16 overflow) for fp16. Every chunk
    /// length from 0 to 13 rows, as every third row of a whole table with
    /// or without accumulators and as one run of it, adaptive rows at
    /// 1–4 bits and at a budget
    /// that ends the search, and rows that end the search each way
    /// ([`edge_row`]). The row objects are the frozen reference codec's
    /// rows (`cnr_quant`'s `reference::` tests hold them to it, a chunk
    /// through `quantize_rows_into` included).
    #[test]
    fn encode_chunk_equals_the_row_object_encoding_byte_for_byte() {
        let mut schemes = schemes();
        schemes.extend([1, 3].map(QuantScheme::recommended_for_bits));
        schemes.push(QuantScheme::AdaptiveAsymmetric {
            bits: 4,
            num_bins: 45,
            ratio: 0.05,
        });
        let lengths = (0..=13).map(|rows| (rows, [8, 13, 32][rows % 3]));
        let shapes = lengths.chain([(64, 32), (3, 130)]);
        for scheme in schemes {
            for with_acc in [false, true] {
                for (rows, dim) in shapes.clone() {
                    for (poison, stride) in [None, Some(f32::NAN), Some(-1e6)]
                        .into_iter()
                        .flat_map(|poison| [(poison, 3), (poison, 1)])
                    {
                        let (item, mut table) = item(rows, dim, with_acc, stride);
                        for (k, &row) in item.indices.iter().enumerate() {
                            if let Some(edge) = edge_row(k, dim) {
                                let at = row as usize * dim;
                                table.data[at..at + dim].copy_from_slice(&edge);
                            }
                        }
                        if let (Some(v), Some(&last)) = (poison, item.indices.last()) {
                            // The last value of the chunk's last row.
                            table.data[(last as usize + 1) * dim - 1] = v;
                        }
                        let want = via_row_objects(&item, &table, &scheme);
                        let got = encode_chunk(&item, &table.view(), &scheme);
                        let case = format!("{scheme}, acc {with_acc}, {rows}x{dim}, {poison:?}, stride {stride}");
                        assert_eq!(got, want.encode_enveloped(), "{case}");
                        let decoded = ChunkPayload::decode(&got).unwrap();
                        assert_eq!(decoded.encode_enveloped(), got, "{case}");
                        let tag = match (scheme, poison) {
                            (QuantScheme::Fp32, _) => 0,
                            (QuantScheme::Fp16, Some(v)) if v.is_finite() => 0,
                            (QuantScheme::Fp16, _) => 3,
                            (_, Some(_)) => 0,
                            _ => 4,
                        };
                        assert!(decoded.rows.iter().all(|r| r.kind_tag() == tag), "{case}");
                    }
                }
            }
        }
    }

    /// A 4-bit asymmetric chunk of three rows, as the writer stored it
    /// before rows kept binary16 parameters: tag 1, `f32` scale and zero
    /// point.
    const F32_PARAMS_CHUNK: [u8; 68] = [
        0x43, 0x4E, 0x52, 0x36, 0x06, 0x00, 0x00, 0x00, 0x30, 0x00, 0x00, 0x00, 0x28, 0xD3, 0x7E,
        0x0A, 0xCD, 0x8E, 0x2E, 0x61, 0x2C, 0x00, 0x00, 0x00, 0x01, 0x00, 0x03, 0x00, 0x00, 0x00,
        0x00, 0x01, 0x04, 0x04, 0x00, 0x00, 0x04, 0x04, 0x89, 0x88, 0x08, 0x3D, 0xCD, 0xCC, 0x4C,
        0xBE, 0x09, 0x7F, 0xCD, 0xCC, 0x4C, 0x3D, 0x00, 0x00, 0x00, 0xBF, 0xF0, 0xDA, 0xCD, 0xCC,
        0x4C, 0x3D, 0x00, 0x00, 0x40, 0x3F, 0xAF, 0x05,
    ];

    /// `rows` as a chunk of table 1, row indices 0, 2, 4, ..., of a table
    /// whose other rows hold NaN.
    fn fixture_item(rows: &[[f32; 4]]) -> (WorkItem, TableState) {
        let item = WorkItem {
            table: 1,
            indices: (0..rows.len() as u32).map(|i| i * 2).collect(),
            dim: 4,
        };
        let table = TableState {
            data: rows.iter().flat_map(|row| [*row, [f32::NAN; 4]]).flatten().collect(),
            adagrad: None,
        };
        (item, table)
    }

    /// The rows of [`F32_PARAMS_CHUNK`].
    const F32_PARAMS_ROWS: [[f32; 4]; 3] = [
        [0.1, -0.2, 0.3, 0.05],
        [-0.5, 0.25, 0.0, 0.125],
        [1.5, 1.25, 1.0, 0.75],
    ];

    /// Row tag 1 is retired, and so is the v6 envelope every tag-1 chunk
    /// was stored in: the stored chunk — its envelope sound — fails typed
    /// by version wherever it is opened, and its frame, opened on its own,
    /// fails naming the tag.
    #[test]
    fn a_chunk_stored_with_f32_parameters_is_corrupt() {
        let names = |what: &str, err: &CnrError| matches!(err, CnrError::Corrupt(why) if why.contains(what));
        let version_6 = "unsupported envelope version 6 ";
        let err = decode_in_place(&F32_PARAMS_CHUNK).map(|_| ()).unwrap_err();
        assert!(names(version_6, &err), "{err:?}");
        let err = ChunkPayload::decode(&F32_PARAMS_CHUNK).map(|_| ()).unwrap_err();
        assert!(names(version_6, &err), "{err:?}");
        let frame = &F32_PARAMS_CHUNK[cnr_storage::envelope::HEADER_LEN..];
        let err = open_frame(frame).map(|_| ()).unwrap_err();
        assert!(names("unknown row tag 1", &err), "{err:?}");
        let err = ChunkPayload::decode_frame(frame).map(|_| ()).unwrap_err();
        assert!(names("unknown row tag 1", &err), "{err:?}");
        // The same rows written now take binary16 parameters, 4 B a row
        // fewer.
        let (item, table) = fixture_item(&F32_PARAMS_ROWS);
        let now = encode_chunk(&item, &table.view(), &QuantScheme::Asymmetric { bits: 4 });
        assert_eq!(decode_in_place(&now).unwrap().0.rows.tag, 4);
        assert_eq!(now.len(), F32_PARAMS_CHUNK.len() - 3 * 4);
    }

    /// A 4-bit adaptive chunk whose rows hold `1e6`, `±inf` and `NaN`
    /// beside an ordinary row is stored as exact fp32 rows, and restores
    /// to the bits it was given.
    #[test]
    fn a_chunk_its_scheme_cannot_describe_is_stored_as_fp32() {
        let rows = [
            [1e6, 0.5, -0.25, 0.125],
            [f32::INFINITY, 0.1, f32::NEG_INFINITY, 0.2],
            [f32::NAN, 0.3, -0.3, 0.0],
            [0.1, -0.2, 0.3, 0.05],
        ];
        let (item, table) = fixture_item(&rows);
        let stored = encode_chunk(&item, &table.view(), &QuantScheme::recommended_for_bits(4));
        let fp32 = encode_chunk(&item, &table.view(), &QuantScheme::Fp32);
        assert_eq!(stored, fp32, "byte for byte an fp32 chunk");
        let (header, values) = decode_in_place(&stored).unwrap();
        assert_eq!((header.rows.tag, header.rows.bits), (0, 32));
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values), bits(rows.as_flattened()));
    }

    /// What a restore does with a stored chunk: verify the envelope, open
    /// the frame, de-quantize every row out of the stored bytes into the
    /// memory it is given.
    fn decode_in_place(bytes: &[u8]) -> Result<(ChunkHeader, Vec<f32>)> {
        let object = Verified::check(Bytes::copy_from_slice(bytes))?;
        let header = open_frame(object.payload())?;
        let opened = header.over(object.payload());
        let ctx = header.rows;
        let mut values = vec![0.0; header.row_indices.len() * ctx.dim as usize];
        for (k, row) in values.chunks_mut(ctx.dim.max(1) as usize).enumerate() {
            decode_body_to(&mut opened.bodies_of(k..k + 1), ctx.tag, ctx.bits, row)?;
        }
        Ok((header, values))
    }

    #[test]
    fn flat_decode_equals_row_object_decode_and_dequantize() {
        for scheme in schemes() {
            for with_acc in [false, true] {
                for (rows, dim) in [(0, 8), (1, 8), (5, 13), (64, 32)] {
                    let (item, table) = item(rows, dim, with_acc, 3);
                    let bytes = encode_chunk(&item, &table.view(), &scheme);
                    let rows_decoded = ChunkPayload::decode(&bytes).unwrap();
                    let (flat, values) = decode_in_place(&bytes).unwrap();
                    assert_eq!(flat.table, rows_decoded.table);
                    assert_eq!(flat.row_indices, rows_decoded.row_indices);
                    assert_eq!(flat.optimizer_state, rows_decoded.optimizer_state);
                    let want: Vec<u32> = rows_decoded
                        .rows
                        .iter()
                        .flat_map(|r| r.dequantize())
                        .map(f32::to_bits)
                        .collect();
                    let got: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{scheme}, acc {with_acc}, {rows}x{dim}");
                }
            }
        }
    }

    /// Every truncation and every single-bit flip the row-object decoder
    /// rejects, the in-place verifier rejects too, with the same typed
    /// error — and never hands back different values.
    #[test]
    fn in_place_verifier_rejects_what_the_row_object_decoder_rejects() {
        for scheme in [QuantScheme::Fp32, QuantScheme::recommended_for_bits(4)] {
            let (item, table) = item(6, 8, true, 3);
            let bytes = encode_chunk(&item, &table.view(), &scheme);
            let (_, clean) = decode_in_place(&bytes).unwrap();
            for cut in 0..bytes.len() {
                assert!(
                    matches!(
                        ChunkPayload::decode(&bytes[..cut]),
                        Err(CnrError::Corrupt(_))
                    ),
                    "oracle accepted a truncation to {cut}"
                );
                assert!(
                    matches!(decode_in_place(&bytes[..cut]), Err(CnrError::Corrupt(_))),
                    "{scheme}: truncation to {cut} bytes not rejected as corrupt"
                );
            }
            for byte in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[byte] ^= 1 << bit;
                    match (ChunkPayload::decode(&bad), decode_in_place(&bad)) {
                        (Err(CnrError::Corrupt(_)), Err(CnrError::Corrupt(_))) => {}
                        (Ok(_), Ok((_, values))) => assert_eq!(values, clean),
                        (a, b) => panic!(
                            "{scheme}: flip at byte {byte} bit {bit}: oracle {:?}, in-place {:?}",
                            a.map(|_| ()),
                            b.map(|_| ())
                        ),
                    }
                }
            }
        }
    }
}
