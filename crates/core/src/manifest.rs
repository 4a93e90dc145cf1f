//! Checkpoint manifests and chunk payloads.
//!
//! A checkpoint is a **manifest** object, one **dense** object and N
//! **chunk** objects in the store. The manifest records what a restore
//! reads: identity, kind (full or incremental), the base pointer for chain
//! restoration, model geometry, where the dense object is and what it
//! holds, the reader state, and the list of chunk keys. It records no
//! quantization scheme: each chunk frame names its own rows' encoding
//! (tag, bits, dim), and the decoder is resolved from that. The dense
//! object ([`DenseLayers`]) carries the two flattened MLPs
//! at fp32 — a restore reads only the newest level's, so the chain's
//! older levels cost a restore their small manifests alone. Chunks carry
//! batches of embedding rows: indices, optional optimizer state, and
//! quantized payloads.
//!
//! **One stored form.** Every *stored* object — manifest, dense object and
//! chunk alike — is wrapped in the self-describing checksummed envelope of
//! [`cnr_storage::envelope`] (magic `CNR9`, XXH64 over the payload): the
//! write path emits [`Manifest::encode_enveloped`] /
//! [`DenseLayers::encode_enveloped`] / [`ChunkPayload::encode_enveloped`],
//! and the stored-object decoders ([`Manifest::decode`],
//! [`DenseLayers::decode`], [`ChunkPayload::decode`]) require the envelope.
//! The bare chunk frame ([`ChunkPayload::encode`])
//! is stored nowhere on its own: it is the inner format of a WAL delta
//! record ([`crate::delta_log`]), whose WAL frame carries the envelope.
//!
//! **Verified once.** Every stored byte carries one checksum — the
//! envelope's XXH64 — and a read checks it exactly once; the frames inside
//! are bare `[len][data]` ([`crate::wire`]) and parsing them hashes
//! nothing. The `decode(&[u8])` entries verify the envelope and then
//! decode; a caller that already holds an [`envelope::Verified`] (the fetch
//! scheduler returns one) goes straight to the frame
//! ([`Manifest::decode_verified`]; a restore opens a chunk's frame once and
//! de-quantizes its rows out of the verified bytes, now or — a lazy
//! restore's cold chunk — later). The payload-level decoders are private,
//! so bytes whose envelope nobody checked cannot reach them.

use crate::error::{CnrError, Result};
use crate::wire;
use bytes::BufMut;
use cnr_model::{ModelConfig, TableView};
use cnr_storage::envelope;
use cnr_quant::codec::RowDecoder;
use cnr_quant::{QuantScheme, QuantizedRow};
use cnr_reader::ReaderState;

/// Monotonically increasing checkpoint identity within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CheckpointId(pub u64);

impl std::fmt::Display for CheckpointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ckpt-{:08}", self.0)
    }
}

/// Full baseline or incremental delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// Contains every embedding row.
    Full,
    /// Contains only rows modified relative to `base`.
    Incremental,
}

/// Geometry of one embedding table as stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableMeta {
    /// Row count.
    pub rows: u64,
    /// Embedding dimension.
    pub dim: u16,
    /// Whether rows carry a row-wise optimizer accumulator.
    pub has_optimizer_state: bool,
}

impl TableMeta {
    /// The geometry of every table of a model built from `config`.
    pub fn for_model(config: &ModelConfig) -> Vec<Self> {
        let has_optimizer_state = config.optimizer.has_state();
        config
            .tables
            .iter()
            .map(|spec| Self {
                rows: spec.rows,
                dim: spec.dim as u16,
                has_optimizer_state,
            })
            .collect()
    }
}

/// One stored chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Object key in the store.
    pub key: String,
    /// Embedding rows in the chunk.
    pub rows: u32,
    /// Serialized size in bytes.
    pub bytes: u64,
    /// Multipart parts the chunk was uploaded in (1 = single part).
    pub parts: u32,
    /// Table the chunk's rows belong to. With `first_row..=last_row` this
    /// is what priority planning ranks chunks by access heat with.
    pub table: u16,
    /// Lowest row index in the chunk (`u32::MAX` for an empty chunk).
    pub first_row: u32,
    /// Highest row index in the chunk (`u32::MAX` for an empty chunk).
    pub last_row: u32,
}

/// The checkpoint manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Checkpoint identity.
    pub id: CheckpointId,
    /// Full or incremental.
    pub kind: CheckpointKind,
    /// Checkpoint this delta applies on top of (`None` for full).
    pub base: Option<CheckpointId>,
    /// Trainer iteration at snapshot time.
    pub iteration: u64,
    /// Reader position at snapshot time (§4.1: gap-free by construction).
    pub reader_state: ReaderState,
    /// Table geometry, index-aligned with the model.
    pub tables: Vec<TableMeta>,
    /// The checkpoint's dense object: where it is, its size and the
    /// parameter counts it holds.
    pub dense: DenseMeta,
    /// Stored chunks, ordered by key: (writer host, per-host turn). Chunks
    /// of one checkpoint cover disjoint rows, so application order across
    /// chunks is immaterial; the ordering is for determinism.
    pub chunks: Vec<ChunkMeta>,
    /// Total chunk payload bytes.
    pub payload_bytes: u64,
}

/// The dense object of one checkpoint, as its manifest records it: enough
/// to plan its fetch without a `head`, and to check the model's geometry
/// before anything is fetched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseMeta {
    /// Object key in the store ([`Manifest::dense_key`]).
    pub key: String,
    /// Stored size in bytes, envelope included.
    pub bytes: u64,
    /// Parameters of the flattened bottom MLP.
    pub bottom_params: u32,
    /// Parameters of the flattened top MLP.
    pub top_params: u32,
}

/// A checkpoint's dense layers: the payload of its dense object, stored
/// once per checkpoint beside the manifest, which records its size and
/// parameter counts ([`DenseMeta`]). The MLPs are small next to a full
/// checkpoint's tables but would be most of an incremental manifest's
/// bytes; kept apart, they cost a restore one read — the newest level's
/// copy — however long the chain.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayers {
    /// Checkpoint the layers belong to; the decoder checks it against the
    /// manifest, so an object of another checkpoint under the key is
    /// corrupt.
    pub id: CheckpointId,
    /// Trainer iteration at snapshot time, checked like `id`.
    pub iteration: u64,
    /// Flattened bottom-MLP parameters (fp32).
    pub bottom: Vec<f32>,
    /// Flattened top-MLP parameters (fp32).
    pub top: Vec<f32>,
}

const MAGIC: u32 = 0x434E_524D; // "CNRM"
/// Manifest body version: 8 is the body that records only what a restore
/// reads — no quantization scheme (each chunk frame names its own rows'
/// encoding), no writer host per chunk and no per-host summaries. Any
/// other number is rejected as corrupt, by number.
const VERSION: u16 = 8;
/// Magic of the dense object's payload.
const DENSE_MAGIC: u32 = 0x434E_5244; // "CNRD"

/// Verifies and strips the storage envelope. Every `decode(&[u8])` entry
/// funnels through this, so a missing or corrupt envelope surfaces as
/// [`CnrError::Corrupt`] at every read site.
fn open_envelope(data: &[u8]) -> Result<&[u8]> {
    envelope::open(data).map_err(|e| CnrError::Corrupt(e.to_string()))
}

impl Manifest {
    /// Storage key for a manifest of checkpoint `id` under `job`.
    pub fn key(job: &str, id: CheckpointId) -> String {
        format!("{job}/{id}/manifest")
    }

    /// Storage key for the dense object of checkpoint `id` under `job`.
    pub fn dense_key(job: &str, id: CheckpointId) -> String {
        format!("{job}/{id}/dense")
    }

    /// Storage key for chunk `seq` uploaded by writer host `shard` of
    /// checkpoint `id` under `job`. The shard is padded to the full `u16`
    /// width so keys sort lexicographically in (shard, seq) order for any
    /// permitted host count.
    pub fn chunk_key(job: &str, id: CheckpointId, shard: u16, seq: u32) -> String {
        format!("{job}/{id}/shard-{shard:05}-chunk-{seq:06}")
    }

    /// Serializes the manifest body (magic, version, framed fields) — the
    /// payload [`Manifest::encode_enveloped`] wraps.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_enveloped().split_off(envelope::HEADER_LEN)
    }

    /// Bytes [`Manifest::encode`] returns, counted without encoding: 77
    /// fixed, 11 a table, 30 a chunk, and the keys.
    pub fn encoded_len(&self) -> usize {
        let chunks: usize = self.chunks.iter().map(|c| 30 + c.key.len()).sum();
        77 + 11 * self.tables.len() + self.dense.key.len() + chunks
    }

    /// Serializes the manifest wrapped in the v9 storage envelope — the
    /// bytes the write path actually stores — in one exactly sized buffer:
    /// the body is written behind the reserved envelope header and sealed
    /// in place.
    pub fn encode_enveloped(&self) -> Vec<u8> {
        let len = envelope::HEADER_LEN + self.encoded_len();
        let mut out = Vec::with_capacity(len);
        out.resize(envelope::HEADER_LEN, 0);
        out.put_u32_le(MAGIC);
        out.put_u16_le(VERSION);
        let frame = wire::begin_frame(&mut out);
        out.put_u64_le(self.id.0);
        out.put_u8(match self.kind {
            CheckpointKind::Full => 0,
            CheckpointKind::Incremental => 1,
        });
        out.put_u64_le(self.base.map(|b| b.0).unwrap_or(u64::MAX));
        out.put_u64_le(self.iteration);
        out.put_u64_le(self.reader_state.next_batch);
        out.put_u16_le(self.tables.len() as u16);
        for t in &self.tables {
            out.put_u64_le(t.rows);
            out.put_u16_le(t.dim);
            out.put_u8(t.has_optimizer_state as u8);
        }
        wire::put_string(&mut out, &self.dense.key);
        out.put_u64_le(self.dense.bytes);
        out.put_u32_le(self.dense.bottom_params);
        out.put_u32_le(self.dense.top_params);
        out.put_u32_le(self.chunks.len() as u32);
        for c in &self.chunks {
            wire::put_string(&mut out, &c.key);
            out.put_u32_le(c.rows);
            out.put_u64_le(c.bytes);
            out.put_u32_le(c.parts);
            out.put_u16_le(c.table);
            out.put_u32_le(c.first_row);
            out.put_u32_le(c.last_row);
        }
        out.put_u64_le(self.payload_bytes);
        wire::end_frame(&mut out, frame);
        debug_assert_eq!(out.len(), len, "manifest was not sized exactly");
        envelope::seal_in_place(&mut out, envelope::FLAG_MANIFEST);
        out
    }

    /// Parses and verifies a stored manifest
    /// ([`Manifest::encode_enveloped`] bytes): envelope, then body.
    pub fn decode(data: &[u8]) -> Result<Self> {
        Self::decode_body(open_envelope(data)?)
    }

    /// [`Manifest::decode`] for an object whose envelope a fetch already
    /// verified: only the body's own magic, version and structure are
    /// left to check — nothing is hashed again.
    pub fn decode_verified(object: &envelope::Verified) -> Result<Self> {
        Self::decode_body(object.payload())
    }

    fn decode_body(mut data: &[u8]) -> Result<Self> {
        let buf = &mut data;
        let magic = wire::get_u32(buf)?;
        if magic != MAGIC {
            return Err(CnrError::Corrupt(format!("bad manifest magic {magic:#x}")));
        }
        let version = wire::get_u16(buf)?;
        if version != VERSION {
            return Err(CnrError::Corrupt(format!(
                "unsupported manifest version {version} (expected {VERSION})"
            )));
        }
        let mut body = wire::get_framed(buf)?;
        let b = &mut body;

        let id = CheckpointId(wire::get_u64(b)?);
        let kind = match wire::get_u8(b)? {
            0 => CheckpointKind::Full,
            1 => CheckpointKind::Incremental,
            k => return Err(CnrError::Corrupt(format!("bad checkpoint kind {k}"))),
        };
        let base_raw = wire::get_u64(b)?;
        let base = (base_raw != u64::MAX).then_some(CheckpointId(base_raw));
        let iteration = wire::get_u64(b)?;
        let reader_state = ReaderState::at(wire::get_u64(b)?);
        let table_count = wire::get_u16(b)? as usize;
        let mut tables = Vec::with_capacity(table_count);
        for _ in 0..table_count {
            tables.push(TableMeta {
                rows: wire::get_u64(b)?,
                dim: wire::get_u16(b)?,
                has_optimizer_state: wire::get_u8(b)? != 0,
            });
        }
        let dense = DenseMeta {
            key: wire::get_string(b)?,
            bytes: wire::get_u64(b)?,
            bottom_params: wire::get_u32(b)?,
            top_params: wire::get_u32(b)?,
        };
        let chunk_count = wire::get_u32(b)? as usize;
        let mut chunks = Vec::with_capacity(chunk_count);
        for _ in 0..chunk_count {
            chunks.push(ChunkMeta {
                key: wire::get_string(b)?,
                rows: wire::get_u32(b)?,
                bytes: wire::get_u64(b)?,
                parts: wire::get_u32(b)?,
                table: wire::get_u16(b)?,
                first_row: wire::get_u32(b)?,
                last_row: wire::get_u32(b)?,
            });
        }
        let payload_bytes = wire::get_u64(b)?;

        Ok(Self {
            id,
            kind,
            base,
            iteration,
            reader_state,
            tables,
            dense,
            chunks,
            payload_bytes,
        })
    }

    /// Total bytes of this checkpoint as stored (manifest, dense object
    /// and chunks). The manifest is stored enveloped, so the envelope
    /// header is included; nothing is encoded to count it.
    pub fn total_bytes(&self) -> u64 {
        self.payload_bytes + self.dense.bytes + (envelope::HEADER_LEN + self.encoded_len()) as u64
    }
}

impl DenseLayers {
    /// Serializes the layers as stored, in one exactly sized buffer: the
    /// payload — magic, checkpoint id, iteration, then the bottom and the
    /// top MLP as length-prefixed `f32` runs — behind the storage
    /// envelope's header, sealed over it.
    pub fn encode_enveloped(&self) -> Vec<u8> {
        let params = self.bottom.len() + self.top.len();
        let len = envelope::HEADER_LEN + 4 + 8 + 8 + 2 * 4 + 4 * params;
        let mut out = Vec::with_capacity(len);
        out.resize(envelope::HEADER_LEN, 0);
        out.put_u32_le(DENSE_MAGIC);
        out.put_u64_le(self.id.0);
        out.put_u64_le(self.iteration);
        wire::put_f32s(&mut out, &self.bottom);
        wire::put_f32s(&mut out, &self.top);
        debug_assert_eq!(out.len(), len, "dense object was not sized exactly");
        envelope::seal_in_place(&mut out, 0);
        out
    }

    /// Parses and verifies a stored dense object
    /// ([`DenseLayers::encode_enveloped`] bytes) that `manifest` names.
    pub fn decode(data: &[u8], manifest: &Manifest) -> Result<Self> {
        Self::decode_payload(open_envelope(data)?, manifest)
    }

    /// [`DenseLayers::decode`] for an object whose envelope a fetch already
    /// verified.
    pub fn decode_verified(object: &envelope::Verified, manifest: &Manifest) -> Result<Self> {
        Self::decode_payload(object.payload(), manifest)
    }

    /// The one decoder: the payload's magic, then its id and iteration
    /// against `manifest`'s, then the two MLPs, whose lengths must be the
    /// parameter counts `manifest` records — all of it [`CnrError::Corrupt`]
    /// on a mismatch, as are bytes left over.
    fn decode_payload(mut data: &[u8], manifest: &Manifest) -> Result<Self> {
        let b = &mut data;
        let magic = wire::get_u32(b)?;
        if magic != DENSE_MAGIC {
            return Err(CnrError::Corrupt(format!("bad dense object magic {magic:#x}")));
        }
        let id = CheckpointId(wire::get_u64(b)?);
        let iteration = wire::get_u64(b)?;
        if (id, iteration) != (manifest.id, manifest.iteration) {
            return Err(CnrError::Corrupt(format!(
                "dense object of {id} at iteration {iteration} under {} at iteration {}",
                manifest.id, manifest.iteration
            )));
        }
        let bottom = wire::get_f32s(b)?;
        let top = wire::get_f32s(b)?;
        let expected = (manifest.dense.bottom_params, manifest.dense.top_params);
        if (bottom.len(), top.len()) != (expected.0 as usize, expected.1 as usize) {
            return Err(CnrError::Corrupt(format!(
                "dense object of {id} holds {} + {} parameters, its manifest records {} + {}",
                bottom.len(),
                top.len(),
                expected.0,
                expected.1
            )));
        }
        if !b.is_empty() {
            return Err(CnrError::Corrupt(format!(
                "{} bytes past the dense layers of {id}",
                b.len()
            )));
        }
        Ok(Self {
            id,
            iteration,
            bottom,
            top,
        })
    }
}

/// One chunk of embedding rows as stored.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkPayload {
    /// Which table the rows belong to.
    pub table: u16,
    /// Row indices within the table, strictly ascending: the only lists
    /// the wire stores ([`wire::put_indices`] panics on any other).
    pub row_indices: Vec<u32>,
    /// Row-wise optimizer accumulators (present iff the table has them).
    pub optimizer_state: Option<Vec<f32>>,
    /// Quantized row payloads, index-aligned with `row_indices`.
    pub rows: Vec<QuantizedRow>,
}

/// Row encoding shared by every row of a chunk, stored once in the chunk
/// header instead of once per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowContext {
    /// [`cnr_quant::QuantParams::kind_tag`] of the rows.
    pub tag: u8,
    /// Code width in bits.
    pub bits: u8,
    /// Elements per row.
    pub dim: u16,
}

impl RowContext {
    /// What an empty chunk records (it has no row to take a context from).
    pub(crate) const EMPTY: Self = Self {
        tag: 0,
        bits: 32,
        dim: 0,
    };
}

/// Bytes of the chunk header inside the frame: table, row count,
/// optimizer flag, and the [`RowContext`].
const CHUNK_HEADER_LEN: usize = 2 + 4 + 1 + 1 + 1 + 2;

/// Everything of a stored chunk except its row bodies — the single writer
/// of the chunk layout. [`ChunkPayload::encode`], the write path's fused
/// quantize-and-encode ([`crate::write::shard_writer::encode_chunk`]) and
/// the WAL delta record ([`crate::delta_log`]) all go through
/// [`ChunkFrame::encode_into`], so they produce the same bytes by
/// construction; the last two build it over a table's rows with
/// [`chunk_of_rows`].
pub(crate) struct ChunkFrame<'a, A> {
    pub table: u16,
    pub row_indices: &'a [u32],
    /// Row-wise accumulators, one per row in index order — an iterator, so
    /// a writer can gather them from a table as they are written.
    pub optimizer_state: Option<A>,
    pub rows: RowContext,
    /// Total bytes `put_rows` will append: sizes the buffer exactly.
    pub rows_len: usize,
}

impl<'a, A: ExactSizeIterator<Item = f32>> ChunkFrame<'a, A> {
    /// Bytes [`ChunkFrame::encode_into`] appends.
    pub(crate) fn encoded_len(&self) -> usize {
        let accumulators = 4 * self.row_indices.len() * self.optimizer_state.is_some() as usize;
        wire::FRAME_OVERHEAD
            + CHUNK_HEADER_LEN
            + wire::indices_len(self.row_indices)
            + accumulators
            + self.rows_len
    }

    /// Appends the bare chunk frame to `out`: opens the frame, writes the
    /// chunk header, the run-coded indices ([`wire::put_indices`]) and
    /// the accumulators, lets `put_rows` append the row bodies in place,
    /// then patches the frame length.
    pub(crate) fn encode_into(self, out: &mut Vec<u8>, put_rows: impl FnOnce(&mut Vec<u8>)) {
        let count = self.row_indices.len();
        // Sizing walks the indices, so only a debug build checks it.
        let total = cfg!(debug_assertions).then(|| self.encoded_len());
        let start = out.len();
        let frame = wire::begin_frame(out);
        out.put_u16_le(self.table);
        out.put_u32_le(count as u32);
        out.put_u8(self.optimizer_state.is_some() as u8);
        out.put_u8(self.rows.tag);
        out.put_u8(self.rows.bits);
        out.put_u16_le(self.rows.dim);
        wire::put_indices(out, self.row_indices);
        if let Some(acc) = self.optimizer_state {
            debug_assert_eq!(acc.len(), count);
            wire::put_words(out, acc.map(f32::to_le_bytes));
        }
        put_rows(out);
        wire::end_frame(out, frame);
        debug_assert_eq!(Some(out.len() - start), total, "chunk frame was not sized exactly");
    }

    /// Builds the chunk as stored, in one exactly sized buffer: the
    /// envelope header is reserved, the frame is encoded behind it
    /// ([`ChunkFrame::encode_into`]) and the envelope checksum is sealed
    /// over the finished bytes — the one pass that hashes them.
    pub(crate) fn encode_enveloped(self, put_rows: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::with_capacity(envelope::HEADER_LEN + self.encoded_len());
        out.resize(envelope::HEADER_LEN, 0);
        self.encode_into(&mut out, put_rows);
        envelope::seal_in_place(&mut out, 0);
        out
    }
}

/// The chunk of the rows `rows` names of `table` (table number `t`, `dim`
/// values a row), read straight from the table by row index: its frame —
/// accumulators gathered as they are written, the row context of the
/// scheme the rows' values store them under, resolved once
/// ([`QuantScheme::stored_for`]; an empty chunk records
/// [`RowContext::EMPTY`]) — and the writer of its row bodies, one slice per
/// run of consecutive rows ([`wire::row_runs`]): a full checkpoint's chunk
/// is one run, and an fp32 run one copy. Byte for byte what
/// `QuantScheme::quantize_row` of each row stores, as rows are quantized
/// one at a time.
pub(crate) fn chunk_of_rows<'a>(
    t: u16,
    rows: &'a [u32],
    table: TableView<'a>,
    dim: usize,
    scheme: &QuantScheme,
) -> (ChunkFrame<'a, impl ExactSizeIterator<Item = f32> + 'a>, impl FnOnce(&mut Vec<u8>) + 'a) {
    let runs = move || wire::row_runs(rows).map(move |run| &table.data[run.start * dim..run.end * dim]);
    let stored = scheme.stored_for(runs());
    let context = RowContext { tag: stored.kind_tag(), bits: stored.bits(), dim: dim as u16 };
    let frame = ChunkFrame {
        table: t,
        row_indices: rows,
        optimizer_state: table.adagrad.map(|acc| rows.iter().map(move |&row| acc[row as usize])),
        rows: if rows.is_empty() { RowContext::EMPTY } else { context },
        rows_len: rows.len() * stored.body_len(dim),
    };
    (frame, move |out: &mut Vec<u8>| runs().for_each(|values| stored.quantize_rows_into(values, dim, out)))
}

/// The header of an opened chunk frame: everything of the chunk except its
/// row bodies, which stay encoded in the frame. Only [`open_frame`] builds
/// one, so holding one means the frame it came from holds
/// `row_indices.len()` whole row bodies of one known length — which is
/// what lets a reader keep the frame's bytes and de-quantize row `k`
/// whenever it likes.
#[derive(Debug, Clone)]
pub(crate) struct ChunkHeader {
    pub table: u16,
    pub row_indices: Vec<u32>,
    pub optimizer_state: Option<Vec<f32>>,
    pub rows: RowContext,
    /// `rows`, resolved: the length of each body and the loop that
    /// de-quantizes them.
    pub decoder: RowDecoder,
    /// Where the row bodies sit in the frame; they run to its end.
    bodies: std::ops::Range<usize>,
}

impl ChunkHeader {
    /// Bytes of the frame it was opened from, length field included: where
    /// whatever follows the frame starts.
    pub(crate) fn frame_len(&self) -> usize {
        self.bodies.end
    }

    /// The opened chunk: this header over `frame`, which must be the bytes
    /// it was opened from.
    pub(crate) fn over<'a>(&'a self, frame: &'a [u8]) -> OpenedChunk<'a> {
        OpenedChunk {
            header: self,
            bodies: &frame[self.bodies.clone()],
        }
    }
}

/// A chunk frame, opened: its parsed header and its row bodies, still
/// encoded, back to back in `row_indices` order.
#[derive(Clone, Copy)]
pub(crate) struct OpenedChunk<'a> {
    pub header: &'a ChunkHeader,
    pub bodies: &'a [u8],
}

impl<'a> OpenedChunk<'a> {
    /// The encoded bodies of the chunk's rows `ks`, back to back. Bodies
    /// have one length, so this is arithmetic, not a scan.
    pub(crate) fn bodies_of(&self, ks: std::ops::Range<usize>) -> &'a [u8] {
        let len = self.header.decoder.body_len();
        &self.bodies[ks.start * len..ks.end * len]
    }

    /// Bytes past the last row body (a stored chunk has none).
    pub(crate) fn trailing_bytes(&self) -> usize {
        self.bodies.len() - self.header.row_indices.len() * self.header.decoder.body_len()
    }
}

/// Opens the chunk frame at the front of `frame` — the payload of a
/// verified envelope, or an embedded frame of a WAL record that one
/// verified; nothing is hashed here. The row context must name an
/// encoding whose bodies — one fixed, non-zero length each — all fit, and
/// that is checked first: a run of indices ([`wire::put_indices`]) names
/// any number of rows in a few bytes, so it is the bodies that bound the
/// row count before anything is allocated for it. The indices (strictly
/// ascending, as the coding can only express) and accumulators are then
/// materialized. Bytes after the frame are the caller's:
/// [`ChunkHeader::frame_len`] says where they start. A retired or unknown
/// row tag is [`CnrError::Corrupt`] naming the tag.
pub(crate) fn open_frame(frame: &[u8]) -> Result<ChunkHeader> {
    let mut rest = frame;
    let mut body = wire::get_framed(&mut rest)?;
    let framed_len = body.len();
    let b = &mut body;
    let table = wire::get_u16(b)?;
    let count = wire::get_u32(b)? as usize;
    let has_acc = wire::get_u8(b)? != 0;
    let rows = RowContext {
        tag: wire::get_u8(b)?,
        bits: wire::get_u8(b)?,
        dim: wire::get_u16(b)?,
    };
    let decoder = RowDecoder::new(rows.tag, rows.bits, rows.dim as usize)
        .map_err(|e| CnrError::Corrupt(format!("chunk rows: {e}")))?;
    let body_len = decoder.body_len();
    let bodies_fit = |left: usize| count.checked_mul(body_len).is_some_and(|need| need <= left);
    // A run of indices can name any number of rows in a few bytes, so the
    // bodies bound the count before the indices are decoded: nothing is
    // allocated beyond `count × body_len` bytes of input.
    if count > 0 && body_len == 0 {
        return Err(CnrError::Corrupt(format!("chunk of {count} rows with empty bodies")));
    }
    if !bodies_fit(b.len()) {
        return Err(CnrError::Corrupt(format!(
            "chunk claims {count} rows of {body_len} bytes in {} bytes",
            b.len()
        )));
    }
    let row_indices = wire::get_indices(b, count)?;
    let optimizer_state = if has_acc {
        let words = wire::get_words(b, count, "chunk optimizer state")?;
        Some(words.map(f32::from_le_bytes).collect())
    } else {
        None
    };
    if !bodies_fit(body.len()) {
        return Err(CnrError::Corrupt(format!(
            "chunk row bodies truncated: {count} rows of {body_len} bytes in {}",
            body.len()
        )));
    }
    let bodies_at = wire::FRAME_OVERHEAD + framed_len - body.len();
    Ok(ChunkHeader {
        table,
        row_indices,
        optimizer_state,
        rows,
        decoder,
        bodies: bodies_at..bodies_at + body.len(),
    })
}

impl ChunkPayload {
    /// Serializes the bare chunk frame (`[len][data]`, no envelope): the
    /// payload [`ChunkPayload::encode_enveloped`] wraps, and the form a WAL
    /// delta record embeds.
    ///
    /// The per-row metadata is what §6.3.2 flags for optimization. The
    /// fixed row header (kind/bits/dim) is hoisted to chunk level — every
    /// row of a chunk shares one scheme and one table geometry, and at
    /// 2-bit/dim-64 a redundant 4-byte per-row header would cost ~14% of
    /// the chunk. The row indices are run-coded ([`wire::put_indices`]): a
    /// run of consecutive rows costs a head varint and a length varint —
    /// 4 B for a full checkpoint's 4096-row chunk — and an isolated row
    /// 1 B with a gap under 64, where a `u32` cost 4 per row. The scale
    /// and zero point are binary16 values (row tag 4,
    /// [`cnr_quant::params`]), 4 B where `f32`s cost 8. At 4-bit/dim-32 a
    /// row of a contiguous chunk is 4 B of parameters and 16 B of codes,
    /// 20 B, and an isolated row 21 B, where a `u32` index and `f32`
    /// parameters made it 28. A chunk of
    /// rows holding a value their scheme cannot describe stores them as
    /// fp32 (tag 0); the retired tags 1 (`f32` parameters) and 2 (k-means
    /// codebooks) fail to decode as [`CnrError::Corrupt`], naming the tag.
    pub fn encode(&self) -> Vec<u8> {
        let frame = self.frame();
        let mut out = Vec::with_capacity(frame.encoded_len());
        frame.encode_into(&mut out, |out| self.put_rows(out));
        out
    }

    /// Serializes the chunk wrapped in the v9 storage envelope — the
    /// bytes the write path actually stores.
    pub fn encode_enveloped(&self) -> Vec<u8> {
        self.frame().encode_enveloped(|out| self.put_rows(out))
    }

    /// The chunk as the layout's single writer takes it: everything but
    /// the row bodies ([`Self::put_rows`] appends those).
    fn frame(&self) -> ChunkFrame<'_, impl ExactSizeIterator<Item = f32> + '_> {
        debug_assert_eq!(self.rows.len(), self.row_indices.len());
        // Chunk-level row context: all rows share kind/bits/dim.
        let rows = match self.rows.first() {
            Some(r) => RowContext {
                tag: r.kind_tag(),
                bits: r.bits,
                dim: r.dim as u16,
            },
            None => RowContext::EMPTY,
        };
        debug_assert!(
            self.rows.iter().all(|r| r.kind_tag() == rows.tag
                && r.bits == rows.bits
                && r.dim as u16 == rows.dim),
            "chunk mixes row encodings"
        );
        ChunkFrame {
            table: self.table,
            row_indices: &self.row_indices,
            optimizer_state: self.optimizer_state.as_ref().map(|acc| acc.iter().copied()),
            rows,
            rows_len: self.rows.iter().map(QuantizedRow::body_byte_size).sum(),
        }
    }

    fn put_rows(&self, out: &mut Vec<u8>) {
        for row in &self.rows {
            row.encode_body_into(out);
        }
    }

    /// Parses and verifies a stored chunk
    /// ([`ChunkPayload::encode_enveloped`] bytes).
    pub fn decode(data: &[u8]) -> Result<Self> {
        Self::decode_frame(open_envelope(data)?)
    }

    /// Parses a bare chunk frame ([`ChunkPayload::encode`] bytes): the
    /// row-object oracle for what a stored chunk's payload and a WAL delta
    /// record hold.
    pub(crate) fn decode_frame(frame: &[u8]) -> Result<Self> {
        let header = open_frame(frame)?;
        let mut bodies = header.over(frame).bodies;
        let ctx = header.rows;
        // The row count is already bounded by the input: every row's body
        // is in it.
        let dim = ctx.dim as usize;
        let rows = (0..header.row_indices.len())
            .map(|_| QuantizedRow::decode_body_from(&mut bodies, ctx.tag, ctx.bits, dim))
            .collect::<std::result::Result<_, _>>()?;
        Ok(Self {
            table: header.table,
            row_indices: header.row_indices,
            optimizer_state: header.optimizer_state,
            rows,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// What a v7 writer stored for `manifest`: its body in the v7 layout,
    /// which also held the quantization scheme (here fp32, tag 0), each
    /// chunk's writer host (here 0) and the per-host summaries (here one,
    /// host 0's).
    pub(crate) fn v7_body(manifest: &Manifest) -> Vec<u8> {
        let mut body = Vec::new();
        body.put_u64_le(manifest.id.0);
        body.put_u8((manifest.kind == CheckpointKind::Incremental) as u8);
        body.put_u64_le(manifest.base.map(|b| b.0).unwrap_or(u64::MAX));
        body.put_u64_le(manifest.iteration);
        body.put_u64_le(manifest.reader_state.next_batch);
        body.put_u8(0);
        body.put_u16_le(manifest.tables.len() as u16);
        for t in &manifest.tables {
            body.put_u64_le(t.rows);
            body.put_u16_le(t.dim);
            body.put_u8(t.has_optimizer_state as u8);
        }
        wire::put_string(&mut body, &manifest.dense.key);
        body.put_u64_le(manifest.dense.bytes);
        body.put_u32_le(manifest.dense.bottom_params);
        body.put_u32_le(manifest.dense.top_params);
        body.put_u32_le(manifest.chunks.len() as u32);
        for c in &manifest.chunks {
            wire::put_string(&mut body, &c.key);
            body.put_u16_le(0);
            body.put_u32_le(c.rows);
            body.put_u64_le(c.bytes);
            body.put_u32_le(c.parts);
            body.put_u16_le(c.table);
            body.put_u32_le(c.first_row);
            body.put_u32_le(c.last_row);
        }
        body.put_u16_le(1);
        body.put_u16_le(0);
        body.put_u64_le(manifest.chunks.iter().map(|c| c.rows as u64).sum());
        body.put_u32_le(manifest.chunks.len() as u32);
        body.put_u64_le(manifest.payload_bytes);
        body.put_u32_le(manifest.chunks.iter().map(|c| c.parts).sum());
        body.put_u64_le(manifest.payload_bytes);
        let mut out = Vec::new();
        out.put_u32_le(MAGIC);
        out.put_u16_le(7);
        wire::put_framed(&mut out, &body);
        out
    }

    fn sample_manifest() -> Manifest {
        Manifest {
            id: CheckpointId(42),
            kind: CheckpointKind::Incremental,
            base: Some(CheckpointId(40)),
            iteration: 123_456,
            reader_state: ReaderState::at(123_456),
            tables: vec![
                TableMeta {
                    rows: 1000,
                    dim: 16,
                    has_optimizer_state: false,
                },
                TableMeta {
                    rows: 500,
                    dim: 16,
                    has_optimizer_state: false,
                },
            ],
            dense: DenseMeta {
                key: Manifest::dense_key("job", CheckpointId(42)),
                bytes: 96,
                bottom_params: 3,
                top_params: 2,
            },
            chunks: vec![
                ChunkMeta {
                    key: "job/ckpt-00000042/shard-000-chunk-000000".into(),
                    rows: 4096,
                    bytes: 65536,
                    parts: 2,
                    table: 0,
                    first_row: 0,
                    last_row: 4095,
                },
                ChunkMeta {
                    key: "job/ckpt-00000042/shard-001-chunk-000000".into(),
                    rows: 100,
                    bytes: 1600,
                    parts: 1,
                    table: 1,
                    first_row: 400,
                    last_row: 499,
                },
            ],
            payload_bytes: 67136,
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = sample_manifest();
        let bytes = m.encode_enveloped();
        let back = Manifest::decode(&bytes).unwrap();
        assert_eq!(m, back);
    }

    /// Row tag 2 (k-means codebook rows) is retired: a stored one is
    /// corrupt, and the error names the number.
    #[test]
    fn retired_kmeans_tags_are_corrupt_by_number() {
        // A chunk of two 2-bit codebook rows as the retired encoder framed
        // them: the envelope verifies, the row context does not.
        let bodies = [[0u8; 2 + 4 * 4 + 2]; 2].concat();
        let frame = ChunkFrame {
            table: 0,
            row_indices: &[1, 2],
            optimizer_state: None::<std::iter::Empty<f32>>,
            rows: RowContext {
                tag: 2,
                bits: 2,
                dim: 8,
            },
            rows_len: bodies.len(),
        };
        let stored = frame.encode_enveloped(|out| out.extend_from_slice(&bodies));
        for err in [
            open_frame(open_envelope(&stored).unwrap()).map(|_| ()).unwrap_err(),
            ChunkPayload::decode(&stored).map(|_| ()).unwrap_err(),
        ] {
            assert!(
                matches!(&err, CnrError::Corrupt(why) if why.contains("unknown row tag 2")),
                "{err:?}"
            );
        }
    }

    /// A frame that holds fewer row bytes than its header promises is
    /// rejected when it is opened — not when the short row is finally
    /// read.
    #[test]
    fn a_short_row_body_fails_the_open() {
        let mut chunk = sample_chunk(true);
        chunk.rows[2].payload.pop();
        let err = open_frame(&chunk.encode()).map(|_| ()).unwrap_err();
        assert!(
            matches!(&err, CnrError::Corrupt(why) if why.contains("row bodies truncated")),
            "{err:?}"
        );
        // Whole rows open, and row `k` is where arithmetic says it is.
        let chunk = sample_chunk(true);
        let frame = chunk.encode();
        let header = open_frame(&frame).unwrap();
        let opened = header.over(&frame);
        assert_eq!(opened.trailing_bytes(), 0);
        assert_eq!(header.frame_len(), frame.len(), "the open reports what it consumed");
        for (k, row) in chunk.rows.iter().enumerate() {
            let mut want = Vec::new();
            row.encode_body_into(&mut want);
            assert_eq!(opened.bodies_of(k..k + 1), want, "row {k}");
        }
    }

    /// A row count no frame could hold is refused before anything is
    /// allocated for it: every row's body must fit in the bytes left,
    /// before a single index is decoded.
    #[test]
    fn a_frame_claiming_more_rows_than_bytes_fails_before_allocating() {
        let mut frame = Vec::new();
        let at = wire::begin_frame(&mut frame);
        frame.put_u16_le(0);
        frame.put_u32_le(u32::MAX);
        frame.extend_from_slice(&[0, RowContext::EMPTY.tag, RowContext::EMPTY.bits, 8, 0]);
        frame.extend_from_slice(&[0; 8]);
        wire::end_frame(&mut frame, at);
        let err = open_frame(&frame).map(|_| ()).unwrap_err();
        assert!(
            matches!(&err, CnrError::Corrupt(why)
                if why == "chunk claims 4294967295 rows of 32 bytes in 8 bytes"),
            "{err:?}"
        );
    }

    #[test]
    fn manifest_full_has_no_base() {
        let mut m = sample_manifest();
        m.kind = CheckpointKind::Full;
        m.base = None;
        let back = Manifest::decode(&m.encode_enveloped()).unwrap();
        assert_eq!(back.base, None);
        assert_eq!(back.kind, CheckpointKind::Full);
    }

    /// Behind a valid envelope the body still checks its own structure:
    /// every flip of its magic, version or frame length is rejected. (The
    /// body carries no checksum: damage to its fields is the envelope's to
    /// catch — `every_single_bit_flip_of_a_stored_object_is_corrupt`.)
    #[test]
    fn manifest_body_detects_corruption() {
        let body = sample_manifest().encode();
        for i in 0..4 + 2 + wire::FRAME_OVERHEAD {
            for bit in 0..8 {
                let mut corrupted = body.clone();
                corrupted[i] ^= 1 << bit;
                assert!(
                    matches!(
                        Manifest::decode(&envelope::wrap(&corrupted)),
                        Err(CnrError::Corrupt(_))
                    ),
                    "flip at byte {i} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn manifest_rejects_wrong_magic_and_version() {
        let body = sample_manifest().encode();
        let mut bad_magic = body.clone();
        bad_magic[0] ^= 0xFF;
        assert!(Manifest::decode(&envelope::wrap(&bad_magic)).is_err());
        // Versions 2 to 7 existed once and 9 may one day; only 8 decodes,
        // and the error names the number it found.
        for version in [2u8, 3, 4, 5, 6, 7, 9, 99] {
            let mut skewed = body.clone();
            skewed[4] = version;
            let err = Manifest::decode(&envelope::wrap(&skewed)).unwrap_err();
            assert!(
                matches!(&err, CnrError::Corrupt(why)
                    if why.contains(&format!("unsupported manifest version {version} "))),
                "version {version}: {err:?}"
            );
            let verified = envelope::Verified::check(envelope::wrap(&skewed).into()).unwrap();
            assert_eq!(
                Manifest::decode_verified(&verified).unwrap_err().to_string(),
                err.to_string()
            );
        }
        // A whole v7 body, scheme and shard summaries included, fails by
        // number before any of its fields is read.
        let err = Manifest::decode(&envelope::wrap(&v7_body(&sample_manifest()))).unwrap_err();
        assert!(
            matches!(&err, CnrError::Corrupt(why)
                if why == &format!("unsupported manifest version 7 (expected {VERSION})")),
            "{err:?}"
        );
        // A v5 to v8 object (the envelope reads its version before its
        // checksum) fails both stored-object decoders by number.
        for version in [5u8, 6, 7, 8] {
            let older = |mut object: Vec<u8>| {
                object[..4].copy_from_slice(&[b'C', b'N', b'R', b'0' + version]);
                object[4..6].copy_from_slice(&u16::from(version).to_le_bytes());
                object
            };
            for err in [
                Manifest::decode(&older(sample_manifest().encode_enveloped())).map(|_| ()),
                ChunkPayload::decode(&older(sample_chunk(true).encode_enveloped())).map(|_| ()),
            ] {
                let err = err.unwrap_err();
                assert!(
                    matches!(&err, CnrError::Corrupt(why)
                        if why.contains(&format!("unsupported envelope version {version} "))),
                    "{err:?}"
                );
            }
        }
    }

    #[test]
    fn bare_bodies_and_frames_are_not_stored_objects() {
        assert!(matches!(
            Manifest::decode(&sample_manifest().encode()),
            Err(CnrError::Corrupt(_))
        ));
        let frame = sample_chunk(true).encode();
        assert!(matches!(ChunkPayload::decode(&frame), Err(CnrError::Corrupt(_))));
        // The frame decoder is the mirror image: it takes the bare frame
        // and rejects the enveloped object.
        assert_eq!(ChunkPayload::decode_frame(&frame).unwrap(), sample_chunk(true));
        assert!(ChunkPayload::decode_frame(&sample_chunk(true).encode_enveloped()).is_err());
    }

    #[test]
    fn enveloped_manifest_roundtrips_and_detects_corruption() {
        let m = sample_manifest();
        let bytes = m.encode_enveloped();
        let (flags, _) = envelope::unwrap(&bytes).unwrap();
        assert_eq!(flags, envelope::FLAG_MANIFEST);
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        // Any flip is caught by the envelope itself.
        for i in (0..bytes.len()).step_by(7) {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            assert!(
                matches!(Manifest::decode(&corrupted), Err(CnrError::Corrupt(_))),
                "flip at {i} accepted"
            );
        }
        // Truncations are always an error, never a short decode.
        for keep in [0, 3, 8, 15, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(Manifest::decode(&bytes[..keep]).is_err());
        }
    }

    #[test]
    fn enveloped_chunk_roundtrips_and_detects_corruption() {
        let c = sample_chunk(true);
        let bytes = c.encode_enveloped();
        assert_eq!(ChunkPayload::decode(&bytes).unwrap(), c);
        for i in (0..bytes.len()).step_by(5) {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x10;
            assert!(
                matches!(ChunkPayload::decode(&corrupted), Err(CnrError::Corrupt(_))),
                "flip at {i} accepted"
            );
        }
    }

    /// One checksum per stored byte, and it misses nothing single: every
    /// flip of every bit of an enveloped chunk, manifest, dense object and
    /// WAL frame —
    /// all 20 header bytes under each flag value the writers set, and every
    /// payload byte — is `Corrupt` at the read site that opens it.
    #[test]
    fn every_single_bit_flip_of_a_stored_object_is_corrupt() {
        use cnr_storage::{wal, InMemoryStore, ObjectStore};
        fn each_flip(object: &[u8], rejects: impl Fn(&[u8]) -> bool) {
            for byte in 0..object.len() {
                for bit in 0..8 {
                    let mut bad = object.to_vec();
                    bad[byte] ^= 1 << bit;
                    assert!(rejects(&bad), "flip at byte {byte} bit {bit} accepted");
                }
            }
        }
        let corrupt = |outcome: Result<()>| matches!(outcome, Err(CnrError::Corrupt(_)));
        let verified = |bad: &[u8]| envelope::Verified::check(bad.to_vec().into()).is_err();

        let chunk = sample_chunk(true).encode_enveloped();
        assert_eq!(envelope::unwrap(&chunk).unwrap().0, 0);
        each_flip(&chunk, |bad| verified(bad) && corrupt(ChunkPayload::decode(bad).map(|_| ())));

        let manifest = sample_manifest().encode_enveloped();
        assert_eq!(envelope::unwrap(&manifest).unwrap().0, envelope::FLAG_MANIFEST);
        each_flip(&manifest, |bad| verified(bad) && corrupt(Manifest::decode(bad).map(|_| ())));

        let (layers, named) = sample_dense();
        let dense = layers.encode_enveloped();
        assert_eq!(envelope::unwrap(&dense).unwrap().0, 0);
        each_flip(&dense, |bad| {
            verified(bad) && corrupt(DenseLayers::decode(bad, &named).map(|_| ()))
        });

        let store = std::sync::Arc::new(InMemoryStore::new());
        let mut writer = wal::WalWriter::new(store.clone(), "job", wal::WalConfig);
        writer.append(&sample_chunk(false).encode()).unwrap();
        let key = wal::segment_key("job", 0);
        let frame = store.get(&key).unwrap();
        assert_eq!(envelope::unwrap(&frame).unwrap().0, envelope::FLAG_WAL_FRAME);
        each_flip(&frame, |bad| {
            store.put(&key, bad.to_vec().into()).unwrap();
            let replay = wal::replay(store.as_ref(), "job").unwrap();
            wal::validate_segment(bad).is_err()
                && replay.records.is_empty()
                && replay.tail != wal::WalTail::Clean
        });
    }

    #[test]
    fn keys_are_hierarchical() {
        let id = CheckpointId(7);
        assert_eq!(Manifest::key("jobA", id), "jobA/ckpt-00000007/manifest");
        assert_eq!(Manifest::dense_key("jobA", id), "jobA/ckpt-00000007/dense");
        assert_eq!(
            Manifest::chunk_key("jobA", id, 2, 3),
            "jobA/ckpt-00000007/shard-00002-chunk-000003"
        );
        // Lexicographic key order == (shard, seq) order across the whole
        // u16 shard space (the regression was 3-digit padding: "1000" <
        // "999").
        assert!(
            Manifest::chunk_key("j", id, 999, 0) < Manifest::chunk_key("j", id, 1000, 0)
        );
    }

    fn sample_chunk(with_acc: bool) -> ChunkPayload {
        let scheme = QuantScheme::Asymmetric { bits: 4 };
        let rows: Vec<QuantizedRow> = (0..3)
            .map(|i| {
                let row: Vec<f32> = (0..8).map(|j| (i * 8 + j) as f32 * 0.01).collect();
                scheme.quantize_row(&row)
            })
            .collect();
        ChunkPayload {
            table: 1,
            row_indices: vec![10, 20, 30],
            optimizer_state: with_acc.then(|| vec![0.1, 0.2, 0.3]),
            rows,
        }
    }

    #[test]
    fn chunk_roundtrip() {
        for with_acc in [false, true] {
            let c = sample_chunk(with_acc);
            let back = ChunkPayload::decode(&c.encode_enveloped()).unwrap();
            assert_eq!(c, back);
        }
    }

    /// The frame's own length is checked against its bytes behind a valid
    /// envelope, and by the bare-frame decoder the WAL path uses: every
    /// flip of it is rejected. (The frame carries no checksum: damage to
    /// its data is the envelope's to catch.)
    #[test]
    fn chunk_frame_detects_corruption() {
        let frame = sample_chunk(true).encode();
        for i in 0..wire::FRAME_OVERHEAD {
            for bit in 0..8 {
                let mut corrupted = frame.clone();
                corrupted[i] ^= 1 << bit;
                assert!(
                    ChunkPayload::decode(&envelope::wrap(&corrupted)).is_err(),
                    "flip at byte {i} bit {bit} accepted behind an envelope"
                );
                assert!(
                    ChunkPayload::decode_frame(&corrupted).is_err(),
                    "flip at byte {i} bit {bit} accepted by the frame decoder"
                );
            }
        }
    }

    #[test]
    fn empty_chunk_roundtrips() {
        let c = ChunkPayload {
            table: 0,
            row_indices: vec![],
            optimizer_state: None,
            rows: vec![],
        };
        assert_eq!(ChunkPayload::decode(&c.encode_enveloped()).unwrap(), c);
    }

    #[test]
    fn total_bytes_includes_manifest() {
        let mut bare = sample_manifest();
        (bare.tables, bare.chunks, bare.dense.key) = (Vec::new(), Vec::new(), String::new());
        for m in [sample_manifest(), bare] {
            let stored = m.encode_enveloped();
            assert_eq!(m.total_bytes(), m.payload_bytes + m.dense.bytes + stored.len() as u64);
            assert_eq!(m.encoded_len(), m.encode().len());
            // Sealed in place: the bytes the body wrapped after the fact makes.
            assert_eq!(stored, envelope::wrap_with_flags(&m.encode(), envelope::FLAG_MANIFEST));
        }
    }

    /// Layers of `sample_manifest`'s checkpoint, and that manifest
    /// recording them as stored.
    fn sample_dense() -> (DenseLayers, Manifest) {
        let m = sample_manifest();
        dense_object::named(DenseLayers {
            id: m.id,
            iteration: m.iteration,
            bottom: vec![0.5, -0.25, 0.125],
            top: vec![1.0, 2.0],
        })
    }

    /// The dense object's codec: one encoder, one decoder, checked against
    /// the manifest that names the object.
    mod dense_object {
        use super::*;
        use proptest::prelude::*;

        /// `layers` and `sample_manifest` recording them, stored, as its
        /// checkpoint's dense object.
        pub(super) fn named(layers: DenseLayers) -> (DenseLayers, Manifest) {
            let mut m = sample_manifest();
            m.id = layers.id;
            m.iteration = layers.iteration;
            m.dense = DenseMeta {
                key: Manifest::dense_key("job", layers.id),
                bytes: layers.encode_enveloped().len() as u64,
                bottom_params: layers.bottom.len() as u32,
                top_params: layers.top.len() as u32,
            };
            (layers, m)
        }

        fn corrupt<T>(decoded: Result<T>) -> bool {
            matches!(decoded, Err(CnrError::Corrupt(_)))
        }

        #[test]
        fn roundtrips_in_the_size_the_manifest_records() {
            let (layers, m) = sample_dense();
            let stored = layers.encode_enveloped();
            assert_eq!(stored.len() as u64, m.dense.bytes);
            assert_eq!(DenseLayers::decode(&stored, &m).unwrap(), layers);
            let verified = envelope::Verified::check(stored.into()).unwrap();
            assert_eq!(DenseLayers::decode_verified(&verified, &m).unwrap(), layers);
        }

        /// Layers of another checkpoint, or of this checkpoint at another
        /// iteration, are corrupt under this manifest, naming both.
        #[test]
        fn another_checkpoints_layers_are_corrupt() {
            let (layers, m) = sample_dense();
            for (id, iteration) in [(CheckpointId(41), m.iteration), (m.id, m.iteration + 1)] {
                let other = DenseLayers { id, iteration, ..layers.clone() };
                let err = DenseLayers::decode(&other.encode_enveloped(), &m).unwrap_err();
                assert!(
                    matches!(&err, CnrError::Corrupt(why)
                        if why.contains(&format!("of {id} at iteration {iteration} under {}", m.id))),
                    "{err:?}"
                );
            }
        }

        /// MLPs of other lengths than the manifest records, bytes past
        /// them, another magic and a bare payload are all corrupt.
        #[test]
        fn lengths_magic_and_envelope_are_checked() {
            let (layers, m) = sample_dense();
            let mut short = layers.clone();
            short.top.pop();
            let err = DenseLayers::decode(&short.encode_enveloped(), &m).unwrap_err();
            assert!(
                matches!(&err, CnrError::Corrupt(why)
                    if why.contains("holds 3 + 1 parameters, its manifest records 3 + 2")),
                "{err:?}"
            );
            let payload = envelope::open(&layers.encode_enveloped()).unwrap().to_vec();
            let mut trailing = payload.clone();
            trailing.push(0);
            let mut magic = payload.clone();
            magic[0] ^= 1;
            for bad in [envelope::wrap(&trailing), envelope::wrap(&magic), payload] {
                assert!(corrupt(DenseLayers::decode(&bad, &m)));
            }
        }

        /// Parameter bit patterns: any `f32`, NaN and infinities included.
        fn params() -> impl Strategy<Value = Vec<u32>> {
            prop::collection::vec(any::<u32>(), 0..200)
        }

        /// The layers drawn, named by the manifest recording them.
        fn drawn(id: u64, iteration: u64, bottom: &[u32], top: &[u32]) -> (DenseLayers, Manifest) {
            let floats = |bits: &[u32]| bits.iter().map(|&b| f32::from_bits(b)).collect();
            named(DenseLayers {
                id: CheckpointId(id),
                iteration,
                bottom: floats(bottom),
                top: floats(top),
            })
        }

        fn bits(values: &[f32]) -> Vec<u32> {
            values.iter().map(|v| v.to_bits()).collect()
        }

        proptest! {
            /// Any layers — NaN, infinities and -0.0 included — come back
            /// bit for bit, stored in the size the manifest records.
            #[test]
            fn dense_object_roundtrips(
                id in any::<u64>(),
                iteration in any::<u64>(),
                bottom in params(),
                top in params(),
            ) {
                let (layers, m) = drawn(id, iteration, &bottom, &top);
                let stored = layers.encode_enveloped();
                prop_assert_eq!(stored.len() as u64, m.dense.bytes);
                let back = DenseLayers::decode(&stored, &m).unwrap();
                prop_assert_eq!((back.id, back.iteration), (layers.id, layers.iteration));
                prop_assert_eq!(bits(&back.bottom), bits(&layers.bottom));
                prop_assert_eq!(bits(&back.top), bits(&layers.top));
            }

            /// Arbitrary bytes — as a stored object, behind a valid
            /// envelope, and behind the payload's valid head — decode or
            /// fail typed, never panic.
            #[test]
            fn dense_object_arbitrary_bytes_decode_or_fail_typed(
                id in any::<u64>(),
                iteration in any::<u64>(),
                bottom in params(),
                junk in prop::collection::vec(any::<u8>(), 0..256),
            ) {
                let (layers, m) = drawn(id, iteration, &bottom, &[]);
                let stored = layers.encode_enveloped();
                // Magic, id and iteration: the head the manifest accepts.
                let head = &envelope::open(&stored).unwrap()[..20];
                let behind_head = envelope::wrap(&[head, &junk[..]].concat());
                for bytes in [junk.clone(), envelope::wrap(&junk), behind_head] {
                    match DenseLayers::decode(&bytes, &m) {
                        Ok(back) => prop_assert_eq!((back.id, back.iteration), (m.id, m.iteration)),
                        Err(err) => prop_assert!(matches!(err, CnrError::Corrupt(_)), "{:?}", err),
                    }
                }
            }

            /// Every cut of a stored object, and of its payload resealed
            /// in a valid envelope, is corrupt.
            #[test]
            fn dense_object_every_truncation_is_corrupt(
                id in any::<u64>(),
                iteration in any::<u64>(),
                bottom in params(),
                top in params(),
            ) {
                let (layers, m) = drawn(id, iteration, &bottom, &top);
                let stored = layers.encode_enveloped();
                let payload = envelope::open(&stored).unwrap();
                for cut in 0..stored.len() {
                    prop_assert!(corrupt(DenseLayers::decode(&stored[..cut], &m)), "cut {}", cut);
                }
                for cut in 0..payload.len() {
                    let resealed = envelope::wrap(&payload[..cut]);
                    prop_assert!(corrupt(DenseLayers::decode(&resealed, &m)), "payload cut {}", cut);
                }
            }
        }
    }

    /// The chunk frame's open, on arbitrary input.
    mod chunk_frame {
        use super::*;
        use proptest::prelude::*;

        /// A chunk frame of `count` rows in context `rows`, whose data after
        /// the header is `rest`.
        fn framed(count: u32, has_acc: bool, rows: RowContext, rest: &[u8]) -> Vec<u8> {
            let mut frame = Vec::new();
            let at = wire::begin_frame(&mut frame);
            frame.put_u16_le(0);
            frame.put_u32_le(count);
            frame.extend_from_slice(&[has_acc as u8, rows.tag, rows.bits]);
            frame.put_u16_le(rows.dim);
            frame.extend_from_slice(rest);
            wire::end_frame(&mut frame, at);
            frame
        }

        proptest! {
            /// Arbitrary bytes behind a header of any row count and row
            /// context open — `count` strictly ascending indices, every
            /// row's body whole — or fail `Corrupt`. A count whose bodies
            /// cannot fit in the bytes left fails at that check, before an
            /// index is decoded: nothing is allocated past
            /// `count × body_len` bytes of input.
            #[test]
            fn arbitrary_frames_open_or_fail_before_allocating(
                small in any::<bool>(),
                count in any::<u32>(),
                has_acc in any::<bool>(),
                tag in 0usize..4,
                bits in 0usize..8,
                dim in 0u16..12,
                rest in prop::collection::vec(any::<u8>(), 0..200),
            ) {
                let count = if small { count % 24 } else { count };
                let bits = [1, 2, 4, 8, 16, 32, 0, 200][bits];
                let rows = RowContext { tag: [0, 1, 3, 4][tag], bits, dim };
                let frame = framed(count, has_acc, rows, &rest);
                let body_len = RowDecoder::new(rows.tag, bits, dim as usize).map(|d| d.body_len());
                match open_frame(&frame) {
                    Ok(header) => {
                        let body_len = body_len.unwrap();
                        prop_assert_eq!(header.row_indices.len(), count as usize);
                        prop_assert!(header.row_indices.windows(2).all(|w| w[0] < w[1]));
                        prop_assert!(count as usize * body_len <= rest.len());
                        prop_assert_eq!(header.frame_len(), frame.len());
                    }
                    Err(CnrError::Corrupt(why)) => {
                        if let Ok(body_len) = body_len {
                            let need = count as u64 * body_len as u64;
                            if count > 0 && (body_len == 0 || need > rest.len() as u64) {
                                prop_assert!(
                                    why.starts_with("chunk claims") || why.starts_with("chunk of"),
                                    "{} rows of {} bytes in {}: {}", count, body_len, rest.len(), why
                                );
                            }
                        }
                    }
                    Err(other) => prop_assert!(false, "{:?}", other),
                }
            }
        }
    }
}
