//! Versioned binary KG snapshots.
//!
//! A snapshot serializes everything [`KnowledgeGraphBuilder::build`](crate::KnowledgeGraphBuilder::build) spends
//! its time computing — the interned dictionary, the four triple columns and
//! all eight prebuilt pattern indexes with their score-sorted posting lists —
//! into one checksummed file.
//!
//! # Layout (format version 2)
//!
//! All integers are little-endian. Every section starts on an 8-byte
//! boundary and is zero-padded to an 8-byte multiple, and inside the COLS
//! and IDX sections each fixed-stride column is padded so 8-byte-wide
//! columns stay naturally aligned — the file layout is exactly the
//! in-memory layout of the sorted-array index (`PostingMap`
//! columns), so loading is a sequence of bulk column copies with **no
//! per-entry hashing, insertion or re-sorting**: a page-in-style load
//! rather than a rebuild.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic      8 B   b"SPECQPKG"                                 │
//! │ version    u32   format version (currently 2)                │
//! │ sections   u32   section count                               │
//! │ table      n × (id: u32, reserved: u32, len: u64)            │
//! │                  — len is the unpadded body length; bodies   │
//! │                  are stored back to back, each zero-padded   │
//! │                  to the next 8-byte boundary                 │
//! ├──────────────────────────────────────────────────────────────┤
//! │ section 1  DICT  term count, then (len: u32, utf-8 bytes)    │
//! │ section 2  COLS  row count n, then s[n] p[n] o[n] (u32,      │
//! │                  padded to 8) and score[n] (f64 bits)        │
//! │ section 3  IDX   spo key/val columns, sp/so/po and s/p/o     │
//! │                  key/start/len columns, postings arena,      │
//! │                  global score-sorted list — all fixed-stride │
//! ├──────────────────────────────────────────────────────────────┤
//! │ checksum   u64   8-lane word-wise FNV-1a (fnv1a_64_lanes)    │
//! │                  over every preceding byte                   │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! # Version policy
//!
//! [`FORMAT_VERSION`] is the only version written and the only version
//! read: any other version field is rejected with
//! [`SnapshotError::UnsupportedVersion`] before the checksum is touched.
//! Unknown trailing sections are skipped on read, so additive extensions
//! do not need a version bump; any change to an existing section's
//! encoding does.
//!
//! The checksum function is part of the format version, not a negotiable
//! field: the trailer is the 8-lane [`fnv1a_64_lanes`] (on multi-megabyte
//! images a single FNV chain is bound by multiply latency and would
//! dominate the page-in-style load). A future version that wants a
//! different checksum bumps the version rather than adding a "checksum
//! kind" byte, so a reader rejects a file it cannot verify with a version
//! error instead of a misleading checksum mismatch, and no
//! attacker-controllable algorithm choice lives in the file itself.
//!
//! # Live graphs
//!
//! Snapshots always describe a **flat** graph. Writing a graph that carries
//! a delta overlay (see [`crate::live`]) first folds the overlay into a
//! fresh base via [`KnowledgeGraph::flattened`] — the file format has no
//! notion of masks or delta segments, which keeps every reader version
//! oblivious to the write path.
//!
//! Every corruption mode maps to a typed [`SnapshotError`] — truncation,
//! foreign files, version skew, checksum mismatch and structural
//! inconsistencies all return errors, never panic.

use crate::columns::TripleColumns;
use crate::index::{PatternIndexes, PostingMap, TripleMap};
use crate::store::KnowledgeGraph;
use crate::triple::TripleScore;
use specqp_common::{fnv1a_64_lanes, Dictionary, Result, SnapshotError, TermId};
use std::path::Path;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"SPECQPKG";
/// The snapshot format version this build writes and the only one it reads.
pub const FORMAT_VERSION: u32 = 2;

const SECTION_DICT: u32 = 1;
const SECTION_COLS: u32 = 2;
const SECTION_IDX: u32 = 3;

/// Rounds `n` up to the next multiple of 8.
#[inline]
fn pad8_len(n: usize) -> usize {
    n.div_ceil(8) * 8
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Zero-pads `buf` to the next 8-byte boundary (section bodies start
/// 8-aligned in the file, so buffer-local alignment is file alignment).
fn pad8(buf: &mut Vec<u8>) {
    buf.resize(pad8_len(buf.len()), 0);
}

fn encode_dict(dict: &Dictionary) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, dict.len() as u64);
    for (_, name) in dict.iter() {
        put_u32(&mut buf, name.len() as u32);
        buf.extend_from_slice(name.as_bytes());
    }
    buf
}

fn encode_cols(cols: &TripleColumns) -> Vec<u8> {
    let n = cols.len();
    let mut buf = Vec::with_capacity(8 + n * 20 + 8);
    put_u64(&mut buf, n as u64);
    for &t in cols.subjects() {
        put_u32(&mut buf, t.0);
    }
    for &t in cols.predicates() {
        put_u32(&mut buf, t.0);
    }
    for &t in cols.objects() {
        put_u32(&mut buf, t.0);
    }
    // Keep the f64-bits column 8-aligned behind the three u32 columns.
    pad8(&mut buf);
    for &s in cols.scores() {
        put_u64(&mut buf, s.value().to_bits());
    }
    buf
}

/// Index section: every map is written as its flat key / start /
/// len columns (keys strictly ascending by construction), then the shared
/// postings arena and the global list. Fixed strides throughout; 8-byte
/// columns are kept aligned with explicit padding.
fn encode_idx(idx: &PatternIndexes) -> Vec<u8> {
    let mut buf = Vec::new();

    put_u64(&mut buf, idx.spo.len() as u64);
    for &k in &idx.spo.keys {
        put_u128(&mut buf, k);
    }
    for &v in &idx.spo.vals {
        put_u32(&mut buf, v);
    }
    pad8(&mut buf);

    let mut pair = |map: &PostingMap<u64>| {
        put_u64(&mut buf, map.len() as u64);
        for &k in &map.keys {
            put_u64(&mut buf, k);
        }
        for &s in &map.starts {
            put_u64(&mut buf, s);
        }
        for &l in &map.lens {
            put_u32(&mut buf, l);
        }
        pad8(&mut buf);
    };
    pair(&idx.sp);
    pair(&idx.so);
    pair(&idx.po);

    let mut single = |map: &PostingMap<TermId>| {
        put_u64(&mut buf, map.len() as u64);
        for &k in &map.keys {
            put_u32(&mut buf, k.0);
        }
        pad8(&mut buf);
        for &s in &map.starts {
            put_u64(&mut buf, s);
        }
        for &l in &map.lens {
            put_u32(&mut buf, l);
        }
        pad8(&mut buf);
    };
    single(&idx.s);
    single(&idx.p);
    single(&idx.o);

    put_u64(&mut buf, idx.postings.len() as u64);
    for &i in &idx.postings {
        put_u32(&mut buf, i);
    }
    pad8(&mut buf);

    put_u64(&mut buf, idx.all.len() as u64);
    for &i in &idx.all {
        put_u32(&mut buf, i);
    }
    buf
}

/// Serializes `graph` into an in-memory snapshot image (format version 2).
///
/// A graph carrying a live-write overlay is flattened first (snapshots are
/// always flat; see the module docs), so the image round-trips to the same
/// visible triples under a compacted id space.
pub fn write_snapshot(graph: &KnowledgeGraph) -> Vec<u8> {
    if graph.has_overlay() {
        return write_snapshot(&graph.flattened());
    }
    let sections = [
        (SECTION_DICT, encode_dict(&graph.dict)),
        (SECTION_COLS, encode_cols(&graph.cols)),
        (SECTION_IDX, encode_idx(&graph.indexes)),
    ];
    let payload_len: usize = sections.iter().map(|(_, b)| pad8_len(b.len())).sum();
    let mut out = Vec::with_capacity(16 + sections.len() * 16 + payload_len + 8);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, sections.len() as u32);
    for (id, body) in &sections {
        put_u32(&mut out, *id);
        put_u32(&mut out, 0); // reserved — keeps table entries 16 B / 8-aligned
        put_u64(&mut out, body.len() as u64);
    }
    for (_, body) in &sections {
        out.extend_from_slice(body);
        pad8(&mut out);
    }
    // The trailer uses the 8-lane word FNV: on the multi-megabyte images
    // this section layout targets, a single chain is bound by multiply
    // latency and would dominate the whole page-in-style load.
    let checksum = fnv1a_64_lanes(&out);
    put_u64(&mut out, checksum);
    out
}

/// Serializes `graph` to a snapshot file at `path`.
pub fn save_snapshot(graph: &KnowledgeGraph, path: impl AsRef<Path>) -> Result<()> {
    let bytes = write_snapshot(graph);
    std::fs::write(path.as_ref(), bytes)
        .map_err(|e| SnapshotError::Io(format!("writing {}: {e}", path.as_ref().display())).into())
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over one snapshot section.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], context: &'static str) -> Self {
        Cursor {
            buf,
            pos: 0,
            context,
        }
    }

    fn truncated(&self) -> SnapshotError {
        SnapshotError::Truncated {
            context: self.context.to_string(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated())?;
        if end > self.buf.len() {
            return Err(self.truncated());
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Skips to the next 8-byte boundary (sections keep 8-byte-wide columns
    /// aligned with zero padding).
    fn align8(&mut self) -> Result<(), SnapshotError> {
        let target = pad8_len(self.pos);
        self.take(target - self.pos)?;
        Ok(())
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Bulk-decodes `n` little-endian u32s in one bounds check — the hot
    /// path for columns and posting lists (per-element reads would dominate
    /// the whole load).
    fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, SnapshotError> {
        let raw = self.take(n.checked_mul(4).ok_or_else(|| self.truncated())?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Bulk-decodes `n` little-endian u64s in one bounds check.
    fn u64_vec(&mut self, n: usize) -> Result<Vec<u64>, SnapshotError> {
        let raw = self.take(n.checked_mul(8).ok_or_else(|| self.truncated())?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Bulk-decodes `n` little-endian u128s in one bounds check.
    fn u128_vec(&mut self, n: usize) -> Result<Vec<u128>, SnapshotError> {
        let raw = self.take(n.checked_mul(16).ok_or_else(|| self.truncated())?)?;
        Ok(raw
            .chunks_exact(16)
            .map(|c| u128::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// A count field, validated against what the remaining bytes could
    /// possibly hold (each counted element occupies >= `min_elem_bytes`),
    /// so corrupt counts fail fast instead of attempting huge allocations.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.saturating_mul(min_elem_bytes as u64) > remaining {
            return Err(SnapshotError::Corrupt(format!(
                "{}: count {n} exceeds section capacity",
                self.context
            )));
        }
        Ok(n as usize)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode_dict(bytes: &[u8]) -> Result<Dictionary, SnapshotError> {
    let mut c = Cursor::new(bytes, "dictionary");
    let n = c.count(4)?;
    // Borrowed &str slices straight off the snapshot buffer — the only
    // per-term allocations are the ones interning itself performs.
    let mut names: Vec<&str> = Vec::with_capacity(n);
    for _ in 0..n {
        let len = c.u32()? as usize;
        let raw = c.take(len)?;
        let name = std::str::from_utf8(raw)
            .map_err(|e| SnapshotError::Corrupt(format!("dictionary term not utf-8: {e}")))?;
        names.push(name);
    }
    if !c.done() {
        return Err(SnapshotError::Corrupt(
            "dictionary: trailing bytes after last term".into(),
        ));
    }
    Dictionary::from_names(names).map_err(|e| SnapshotError::Corrupt(e.to_string()))
}

fn decode_cols(bytes: &[u8], dict_len: usize) -> Result<TripleColumns, SnapshotError> {
    let mut c = Cursor::new(bytes, "triple columns");
    let n = c.count(20)?;
    let term_col = |c: &mut Cursor<'_>, what: &str| -> Result<Vec<TermId>, SnapshotError> {
        let raw = c.u32_vec(n)?;
        if let Some(&id) = raw.iter().find(|&&id| id as usize >= dict_len) {
            return Err(SnapshotError::Corrupt(format!(
                "{what} column references term {id} outside dictionary (len {dict_len})"
            )));
        }
        // Same-width map lets the collect reuse the u32 allocation in place.
        Ok(raw.into_iter().map(TermId).collect())
    };
    let s = term_col(&mut c, "subject")?;
    let p = term_col(&mut c, "predicate")?;
    let o = term_col(&mut c, "object")?;
    c.align8()?;
    let mut score = Vec::with_capacity(n);
    for bits in c.u64_vec(n)? {
        let v = f64::from_bits(bits);
        let Some(s) = TripleScore::try_new(v) else {
            return Err(SnapshotError::Corrupt(format!(
                "invalid score {v} in score column (must be finite and non-negative)"
            )));
        };
        score.push(s);
    }
    if !c.done() {
        return Err(SnapshotError::Corrupt(
            "triple columns: trailing bytes after score column".into(),
        ));
    }
    TripleColumns::from_parts(s, p, o, score)
        .ok_or_else(|| SnapshotError::Corrupt("triple columns have unequal lengths".into()))
}

/// Every posting entry must reference a triple inside the table.
fn check_list(list: &[u32], n_triples: usize) -> Result<(), SnapshotError> {
    if let Some(&i) = list.iter().find(|&&i| i as usize >= n_triples) {
        return Err(SnapshotError::Corrupt(format!(
            "posting references triple {i} outside table (len {n_triples})"
        )));
    }
    Ok(())
}

/// Every (start, len) range must lie inside the postings arena.
fn check_ranges(starts: &[u64], lens: &[u32], arena_len: usize) -> Result<(), SnapshotError> {
    for (&start, &len) in starts.iter().zip(lens) {
        let end = start.checked_add(u64::from(len));
        if end.is_none_or(|e| e > arena_len as u64) {
            return Err(SnapshotError::Corrupt(format!(
                "posting range {start}+{len} exceeds arena (len {arena_len})"
            )));
        }
    }
    Ok(())
}

fn unsorted(what: &str) -> SnapshotError {
    SnapshotError::Corrupt(format!("{what} keys not strictly ascending"))
}

/// Index decode: bulk column copies straight into the
/// sorted-array maps. The only per-entry work left is validation
/// (key order, range bounds, posting bounds) — no hashing, no inserts.
fn decode_idx(bytes: &[u8], n_triples: usize) -> Result<PatternIndexes, SnapshotError> {
    let mut c = Cursor::new(bytes, "pattern indexes");

    let spo_count = c.count(20)?;
    let spo_keys = c.u128_vec(spo_count)?;
    let spo_vals = c.u32_vec(spo_count)?;
    c.align8()?;
    check_list(&spo_vals, n_triples)?;
    let spo = TripleMap::from_columns(spo_keys, spo_vals).ok_or_else(|| unsorted("spo"))?;

    let pair = |c: &mut Cursor<'_>| -> Result<PostingMap<u64>, SnapshotError> {
        let count = c.count(20)?;
        let keys = c.u64_vec(count)?;
        let starts = c.u64_vec(count)?;
        let lens = c.u32_vec(count)?;
        c.align8()?;
        PostingMap::from_columns(keys, starts, lens).ok_or_else(|| unsorted("pair-map"))
    };
    let sp = pair(&mut c)?;
    let so = pair(&mut c)?;
    let po = pair(&mut c)?;

    let single = |c: &mut Cursor<'_>| -> Result<PostingMap<TermId>, SnapshotError> {
        let count = c.count(16)?;
        let keys: Vec<TermId> = c.u32_vec(count)?.into_iter().map(TermId).collect();
        c.align8()?;
        let starts = c.u64_vec(count)?;
        let lens = c.u32_vec(count)?;
        c.align8()?;
        PostingMap::from_columns(keys, starts, lens).ok_or_else(|| unsorted("single-map"))
    };
    let s = single(&mut c)?;
    let p = single(&mut c)?;
    let o = single(&mut c)?;

    let arena_len = c.count(4)?;
    let postings = c.u32_vec(arena_len)?;
    c.align8()?;
    check_list(&postings, n_triples)?;
    for m in [&sp, &so, &po] {
        check_ranges(&m.starts, &m.lens, postings.len())?;
    }
    for m in [&s, &p, &o] {
        check_ranges(&m.starts, &m.lens, postings.len())?;
    }

    let all_count = c.count(4)?;
    let all = c.u32_vec(all_count)?;
    check_list(&all, n_triples)?;
    if all.len() != n_triples {
        return Err(SnapshotError::Corrupt(format!(
            "global list has {} entries for {} triples",
            all.len(),
            n_triples
        )));
    }
    if !c.done() {
        return Err(SnapshotError::Corrupt(
            "pattern indexes: trailing bytes after global list".into(),
        ));
    }
    Ok(PatternIndexes {
        spo,
        sp,
        so,
        po,
        s,
        p,
        o,
        postings,
        all,
    })
}

/// Deserializes a snapshot image produced by [`write_snapshot`].
///
/// Validates the magic, version, overall framing and FNV-1a trailer before
/// touching any section, then checks every cross-reference (term ids against
/// the dictionary, posting entries against the triple count, ranges against
/// the arena) while decoding.
pub fn read_snapshot(bytes: &[u8]) -> Result<KnowledgeGraph> {
    let header_err = |context: &str| SnapshotError::Truncated {
        context: context.to_string(),
    };
    if bytes.len() < 8 {
        return Err(header_err("magic").into());
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic.into());
    }
    if bytes.len() < 16 {
        return Err(header_err("header").into());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        }
        .into());
    }
    let section_count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    // 16-byte table entries; bodies zero-padded to 8-byte boundaries.
    let table_end = 16 + section_count * 16;
    if bytes.len() < table_end {
        return Err(header_err("section table").into());
    }
    let mut sections = Vec::with_capacity(section_count);
    let mut payload_len = 0usize;
    for i in 0..section_count {
        let at = 16 + i * 16;
        let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
        let len = usize::try_from(len)
            .map_err(|_| SnapshotError::Corrupt(format!("section {id} length overflows")))?;
        let stored = pad8_len(len);
        payload_len = payload_len
            .checked_add(stored)
            .ok_or_else(|| SnapshotError::Corrupt("section lengths overflow".into()))?;
        sections.push((id, len, stored));
    }
    let expected_total = table_end
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(8))
        .ok_or_else(|| SnapshotError::Corrupt("section lengths overflow".into()))?;
    if bytes.len() < expected_total {
        return Err(header_err("payload").into());
    }
    if bytes.len() > expected_total {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after checksum",
            bytes.len() - expected_total
        ))
        .into());
    }
    let body_end = expected_total - 8;
    let expected = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
    let actual = fnv1a_64_lanes(&bytes[..body_end]);
    if expected != actual {
        return Err(SnapshotError::ChecksumMismatch { expected, actual }.into());
    }

    let mut dict_bytes = None;
    let mut cols_bytes = None;
    let mut idx_bytes = None;
    let mut offset = table_end;
    for (id, len, stored) in sections {
        let body = &bytes[offset..offset + len];
        offset += stored;
        match id {
            SECTION_DICT => dict_bytes = Some(body),
            SECTION_COLS => cols_bytes = Some(body),
            SECTION_IDX => idx_bytes = Some(body),
            // Unknown sections are additive extensions — skip them.
            _ => {}
        }
    }
    let missing = |name: &str| SnapshotError::Corrupt(format!("required section {name} missing"));
    let dict = decode_dict(dict_bytes.ok_or_else(|| missing("DICT"))?)?;
    let cols = decode_cols(cols_bytes.ok_or_else(|| missing("COLS"))?, dict.len())?;
    let indexes = decode_idx(idx_bytes.ok_or_else(|| missing("IDX"))?, cols.len())?;
    Ok(KnowledgeGraph::from_parts(dict, cols, indexes))
}

/// Loads a knowledge graph from a snapshot file at `path`.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<KnowledgeGraph> {
    let bytes = std::fs::read(path.as_ref()).map_err(|e| {
        specqp_common::Error::from(SnapshotError::Io(format!(
            "reading {}: {e}",
            path.as_ref().display()
        )))
    })?;
    read_snapshot(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KnowledgeGraphBuilder, PatternKey};
    use specqp_common::Error;

    fn sample() -> KnowledgeGraph {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("a", "type", "singer", 10.0);
        b.add("b", "type", "singer", 4.0);
        b.add("c", "type", "singer", 2.0);
        b.add("a", "type", "lyricist", 7.0);
        b.add("a", "plays", "guitar", 3.0);
        b.intern("ghost"); // interned term with no triples must survive
        b.build()
    }

    fn snapshot_err(r: Result<KnowledgeGraph>) -> SnapshotError {
        match r {
            Err(Error::Snapshot(e)) => e,
            Err(other) => panic!("expected snapshot error, got {other:?}"),
            Ok(_) => panic!("expected error, got a graph"),
        }
    }

    fn assert_graphs_answer_identically(g: &KnowledgeGraph, g2: &KnowledgeGraph) {
        assert_eq!(g2.len(), g.len());
        assert_eq!(g2.dictionary().len(), g.dictionary().len());
        // Ids are identical, not merely isomorphic.
        for (id, name) in g.dictionary().iter() {
            assert_eq!(g2.dictionary().lookup(name), Some(id));
        }
        // Every signature answers identically.
        let d = g.dictionary();
        let (a, ty, singer) = (
            d.lookup("a").unwrap(),
            d.lookup("type").unwrap(),
            d.lookup("singer").unwrap(),
        );
        for key in [
            PatternKey::spo(a, ty, singer),
            PatternKey::sp(a, ty),
            PatternKey::so(a, singer),
            PatternKey::po(ty, singer),
            PatternKey::s_only(a),
            PatternKey::p_only(ty),
            PatternKey::o_only(singer),
            PatternKey::any(),
        ] {
            let m1 = g.matches(key);
            let m2 = g2.matches(key);
            assert_eq!(m1.len(), m2.len(), "{key:?}");
            for r in 0..m1.len() {
                assert_eq!(m1.id_at(r), m2.id_at(r), "{key:?} rank {r}");
                assert_eq!(m1.score_at(r), m2.score_at(r), "{key:?} rank {r}");
            }
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample();
        let bytes = write_snapshot(&g);
        let g2 = read_snapshot(&bytes).unwrap();
        assert_graphs_answer_identically(&g, &g2);
        assert_eq!(
            g2.dictionary().lookup("ghost"),
            g.dictionary().lookup("ghost")
        );
    }

    #[test]
    fn v2_sections_are_8_byte_aligned() {
        let bytes = write_snapshot(&sample());
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let table_end = 16 + count * 16;
        assert_eq!(table_end % 8, 0);
        let mut offset = table_end;
        for i in 0..count {
            assert_eq!(offset % 8, 0, "section {i} starts unaligned");
            let len_at = 16 + i * 16 + 8;
            let len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap()) as usize;
            offset += pad8_len(len);
        }
        assert_eq!(offset + 8, bytes.len());
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let g = sample();
        assert_eq!(write_snapshot(&g), write_snapshot(&g));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = KnowledgeGraphBuilder::new().build();
        let g2 = read_snapshot(&write_snapshot(&g)).unwrap();
        assert!(g2.is_empty());
        assert!(g2.matches(PatternKey::any()).is_empty());
    }

    #[test]
    fn truncated_file_is_typed_error() {
        let bytes = write_snapshot(&sample());
        // Every proper prefix must fail with Truncated (or a checksum/corrupt
        // error is impossible here because framing is checked first).
        for cut in [0, 4, 8, 12, 15, 20, bytes.len() / 2, bytes.len() - 1] {
            let e = snapshot_err(read_snapshot(&bytes[..cut]));
            if cut >= 8 {
                assert!(
                    matches!(e, SnapshotError::Truncated { .. }),
                    "cut at {cut}: {e:?}"
                );
            } else {
                // Shorter than the magic: either truncated-magic or, for a
                // cut inside the magic, bad magic is also acceptable.
                assert!(
                    matches!(e, SnapshotError::Truncated { .. } | SnapshotError::BadMagic),
                    "cut at {cut}: {e:?}"
                );
            }
        }
    }

    #[test]
    fn bad_magic_is_typed_error() {
        let mut bytes = write_snapshot(&sample());
        bytes[0] = b'X';
        assert_eq!(snapshot_err(read_snapshot(&bytes)), SnapshotError::BadMagic);
        // A TSV file is not a snapshot.
        let e = snapshot_err(read_snapshot(b"alice\trdf:type\tsinger\t12.5\n"));
        assert_eq!(e, SnapshotError::BadMagic);
    }

    #[test]
    fn wrong_version_is_typed_error() {
        let mut bytes = write_snapshot(&sample());
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let e = snapshot_err(read_snapshot(&bytes));
        assert_eq!(
            e,
            SnapshotError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn checksum_mismatch_is_typed_error() {
        let mut bytes = write_snapshot(&sample());
        // Flip one payload byte (past header + table, before the trailer).
        let mid = bytes.len() - 16;
        bytes[mid] ^= 0xff;
        let e = snapshot_err(read_snapshot(&bytes));
        assert!(matches!(e, SnapshotError::ChecksumMismatch { .. }), "{e:?}");
    }

    #[test]
    fn trailing_garbage_is_typed_error() {
        let mut bytes = write_snapshot(&sample());
        bytes.extend_from_slice(b"extraextra");
        let e = snapshot_err(read_snapshot(&bytes));
        assert!(matches!(e, SnapshotError::Corrupt(_)), "{e:?}");
    }

    #[test]
    fn corrupt_count_fails_without_huge_allocation() {
        let g = sample();
        let bytes = write_snapshot(&g);
        // The DICT section starts right after the header+table; overwrite its
        // term count with an absurd value and refresh the checksum so the
        // framing passes and the structural check is what fires.
        let table_end = 16 + 3 * 16;
        let mut bytes = bytes;
        bytes[table_end..table_end + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_end = bytes.len() - 8;
        let sum = fnv1a_64_lanes(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        let e = snapshot_err(read_snapshot(&bytes));
        assert!(matches!(e, SnapshotError::Corrupt(_)), "{e:?}");
    }

    #[test]
    fn negative_or_infinite_score_in_snapshot_is_corrupt() {
        let g = sample();
        for bad in [-1.0f64, f64::INFINITY, f64::NAN] {
            let mut bytes = write_snapshot(&g);
            // Locate the score column from the section table: COLS follows
            // the padded DICT body; inside COLS the scores follow the count
            // and the three (jointly padded) term columns. Patch the first
            // score and refresh the checksum so the structural check (not
            // the checksum) is what fires.
            let table_end = 16 + 3 * 16;
            let dict_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
            let score_off = table_end + pad8_len(dict_len) + 8 + pad8_len(3 * 4 * g.len());
            bytes[score_off..score_off + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
            let body_end = bytes.len() - 8;
            let sum = fnv1a_64_lanes(&bytes[..body_end]);
            bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
            let e = snapshot_err(read_snapshot(&bytes));
            assert!(matches!(e, SnapshotError::Corrupt(_)), "{bad}: {e:?}");
        }
    }

    #[test]
    fn unsorted_v2_keys_are_corrupt() {
        let g = sample();
        let mut bytes = write_snapshot(&g);
        // The IDX section is third: swap the first two spo keys (two u128s
        // right after the count) and refresh the checksum.
        let table_end = 16 + 3 * 16;
        let dict_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        let cols_len = u64::from_le_bytes(bytes[40..48].try_into().unwrap()) as usize;
        let idx_off = table_end + pad8_len(dict_len) + pad8_len(cols_len);
        let key_off = idx_off + 8;
        let (a, b) = (key_off, key_off + 16);
        let first: [u8; 16] = bytes[a..a + 16].try_into().unwrap();
        let second: [u8; 16] = bytes[b..b + 16].try_into().unwrap();
        bytes[a..a + 16].copy_from_slice(&second);
        bytes[b..b + 16].copy_from_slice(&first);
        let body_end = bytes.len() - 8;
        let sum = fnv1a_64_lanes(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        let e = snapshot_err(read_snapshot(&bytes));
        assert!(matches!(e, SnapshotError::Corrupt(_)), "{e:?}");
    }

    #[test]
    fn save_and_load_via_file() {
        let g = sample();
        let path =
            std::env::temp_dir().join(format!("specqp_snapshot_test_{}.snap", std::process::id()));
        save_snapshot(&g, &path).unwrap();
        let g2 = load_snapshot(&path).unwrap();
        assert_eq!(g2.len(), g.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let e = snapshot_err(load_snapshot("/nonexistent/specqp.snap"));
        assert!(matches!(e, SnapshotError::Io(_)), "{e:?}");
    }
}
