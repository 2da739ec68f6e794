//! Delta + varint compressed positional postings with block skip pointers.
//!
//! A posting list stores `(doc, positions)` entries ascending by doc id.
//! The compressed layout encodes each entry as
//!
//! ```text
//! [doc_delta varint][blob_len varint][blob]
//! blob = [npos varint][pos_0 varint][pos_delta varint]...
//! ```
//!
//! where `doc_delta` is against the previous entry's doc id (the first
//! entry's base is 0) and `blob_len` lets a scan skip an entry's positions
//! without decoding them. Every [`BLOCK`] entries a skip pointer records
//! the byte offset, entry ordinal and delta base of the next block, so a
//! [`Cursor`] probing for a target doc id can jump whole blocks; only
//! entries actually *decoded* count as scanned, which is what the
//! `index.postings_scanned` histogram observes.

use wf_types::DocId;

/// Entries per skip block. Small enough that a probe decodes at most a
/// handful of entries after the jump, large enough that the skip table
/// stays a negligible fraction of the postings bytes.
pub const BLOCK: usize = 32;

/// Appends `v` to `out` as an LEB128 varint.
pub fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`write_varint`] takes for `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Reads an LEB128 varint at `*pos`, advancing it. Returns `None` on
/// truncated input or a value overflowing u64.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        let chunk = (byte & 0x7f) as u64;
        if shift >= 64 || (shift == 63 && chunk > 1) {
            return None;
        }
        v |= chunk << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// A skip pointer: the start of one block of [`BLOCK`] entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Skip {
    /// Doc id of the last entry *before* this block (the delta base).
    base_doc: u64,
    /// Byte offset of the block's first entry.
    offset: usize,
    /// Ordinal of the block's first entry.
    index: usize,
}

/// A compressed positional posting list (ascending by doc id).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompressedPostings {
    bytes: Vec<u8>,
    skips: Vec<Skip>,
    count: usize,
    last_doc: u64,
}

impl CompressedPostings {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a list from entries already ascending by doc id.
    pub fn from_entries<P: AsRef<[u32]>>(entries: &[(DocId, P)]) -> Self {
        let mut out = Self::new();
        for (doc, positions) in entries {
            out.push(*doc, positions.as_ref());
        }
        out
    }

    /// Appends one entry; `doc` must exceed every doc already present.
    pub fn push(&mut self, doc: DocId, positions: &[u32]) {
        let deltas = || {
            let mut prev = 0u32;
            positions.iter().map(move |&p| {
                let delta = p - prev;
                prev = p;
                delta as u64
            })
        };
        let blob_len = varint_len(positions.len() as u64) + deltas().map(varint_len).sum::<usize>();
        self.push_header(doc, blob_len);
        write_varint(positions.len() as u64, &mut self.bytes);
        for delta in deltas() {
            write_varint(delta, &mut self.bytes);
        }
    }

    /// Appends one entry whose positions are already encoded: `blob` is a
    /// [`Cursor::blob`] of another list, copied verbatim. `doc` must
    /// exceed every doc already present.
    pub(crate) fn push_blob(&mut self, doc: DocId, blob: &[u8]) {
        self.push_header(doc, blob.len());
        self.bytes.extend_from_slice(blob);
    }

    /// Writes an entry's doc delta and blob length, opening a skip block
    /// every [`BLOCK`] entries.
    fn push_header(&mut self, doc: DocId, blob_len: usize) {
        assert!(
            self.count == 0 || doc.0 > self.last_doc,
            "postings must be pushed in ascending doc order"
        );
        if self.count > 0 && self.count.is_multiple_of(BLOCK) {
            self.skips.push(Skip {
                base_doc: self.last_doc,
                offset: self.bytes.len(),
                index: self.count,
            });
        }
        write_varint(
            doc.0 - if self.count == 0 { 0 } else { self.last_doc },
            &mut self.bytes,
        );
        write_varint(blob_len as u64, &mut self.bytes);
        self.last_doc = doc.0;
        self.count += 1;
    }

    /// Number of documents in the list.
    pub fn doc_count(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Encoded size in bytes (postings only, excluding the skip table).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Highest doc id in the list.
    pub fn last_doc(&self) -> Option<DocId> {
        (self.count > 0).then_some(DocId(self.last_doc))
    }

    /// Lowest doc id in the list.
    pub(crate) fn first_doc(&self) -> Option<DocId> {
        // the first entry's delta base is 0
        (self.count > 0).then(|| DocId(read_varint(&self.bytes, &mut 0).expect("valid postings")))
    }

    /// Appends the k-way merge of `lists`, each ascending; every doc they
    /// hold must exceed this list's last. On a doc that several lists
    /// hold, the last of them wins. Positions are copied as encoded, so
    /// only doc deltas are re-encoded.
    pub(crate) fn append_merged(&mut self, lists: &[&CompressedPostings]) {
        let mut heads: Vec<Cursor<'_>> = lists
            .iter()
            .map(|list| {
                let mut cursor = list.cursor();
                cursor.next();
                cursor
            })
            .collect();
        loop {
            let mut winner: Option<(DocId, usize)> = None;
            for (i, cursor) in heads.iter().enumerate() {
                if let Some(doc) = cursor.current() {
                    if winner.is_none_or(|(min, _)| doc <= min) {
                        winner = Some((doc, i));
                    }
                }
            }
            let Some((doc, i)) = winner else {
                return;
            };
            self.push_blob(doc, heads[i].blob());
            for cursor in &mut heads {
                if cursor.current() == Some(doc) {
                    cursor.next();
                }
            }
        }
    }

    /// Decodes the full list back to `(doc, positions)` entries.
    pub fn decode(&self) -> Vec<(DocId, Vec<u32>)> {
        let mut out = Vec::with_capacity(self.count);
        let mut cursor = self.cursor();
        while let Some(doc) = cursor.next() {
            out.push((doc, cursor.positions()));
        }
        out
    }

    /// Decodes doc ids only, skipping every position blob.
    pub fn docs(&self) -> Vec<DocId> {
        let mut out = Vec::with_capacity(self.count);
        let mut cursor = self.cursor();
        while let Some(doc) = cursor.next() {
            out.push(doc);
        }
        out
    }

    /// A scanning cursor positioned before the first entry.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor {
            postings: self,
            pos: 0,
            index: 0,
            prev_doc: 0,
            current: None,
            scanned: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CurrentEntry {
    doc: u64,
    blob_start: usize,
    blob_end: usize,
}

/// Forward scanner over a [`CompressedPostings`] list. Decoded entries are
/// tallied in [`Cursor::scanned`]; block jumps via the skip table are free,
/// which is exactly the pruning the postings-scanned histogram should see.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    postings: &'a CompressedPostings,
    /// Byte offset of the next undecoded entry.
    pos: usize,
    /// Ordinal of the next undecoded entry.
    index: usize,
    /// Delta base for the next entry.
    prev_doc: u64,
    current: Option<CurrentEntry>,
    scanned: u64,
}

impl<'a> Cursor<'a> {
    /// Posting entries decoded by this cursor so far.
    pub fn scanned(&self) -> u64 {
        self.scanned
    }

    /// Doc id the cursor is parked on, if any.
    pub fn current(&self) -> Option<DocId> {
        self.current.map(|c| DocId(c.doc))
    }

    /// Decodes the next entry sequentially.
    #[allow(clippy::should_implement_trait)] // cursor advance, not an Iterator
    pub fn next(&mut self) -> Option<DocId> {
        if self.index >= self.postings.count {
            self.current = None;
            return None;
        }
        let bytes = &self.postings.bytes;
        let delta = read_varint(bytes, &mut self.pos).expect("valid postings");
        let blob_len = read_varint(bytes, &mut self.pos).expect("valid postings") as usize;
        let doc = self.prev_doc + delta;
        let entry = CurrentEntry {
            doc,
            blob_start: self.pos,
            blob_end: self.pos + blob_len,
        };
        self.pos = entry.blob_end;
        self.prev_doc = doc;
        self.index += 1;
        self.scanned += 1;
        self.current = Some(entry);
        Some(DocId(doc))
    }

    /// Advances to the first entry with doc id `>= target`, jumping whole
    /// blocks via the skip table where possible. Returns that doc id, or
    /// `None` when the list is exhausted (the cursor stays exhausted).
    pub fn advance_to(&mut self, target: DocId) -> Option<DocId> {
        if let Some(c) = self.current {
            if c.doc >= target.0 {
                return Some(DocId(c.doc));
            }
        }
        // Jump to the furthest block whose delta base is still below the
        // target; everything skipped over is never decoded.
        let skips = &self.postings.skips;
        let cut = skips.partition_point(|s| s.base_doc < target.0);
        if cut > 0 {
            let s = skips[cut - 1];
            if s.index > self.index {
                self.pos = s.offset;
                self.index = s.index;
                self.prev_doc = s.base_doc;
                self.current = None;
            }
        }
        while let Some(doc) = self.next() {
            if doc.0 >= target.0 {
                return Some(doc);
            }
        }
        None
    }

    /// The current entry's encoded positions, for [`CompressedPostings::push_blob`].
    pub(crate) fn blob(&self) -> &'a [u8] {
        self.current
            .map_or(&[], |c| &self.postings.bytes[c.blob_start..c.blob_end])
    }

    /// Decodes the positions of the current entry.
    pub fn positions(&self) -> Vec<u32> {
        if self.current.is_none() {
            return Vec::new();
        }
        let blob = self.blob();
        let mut pos = 0usize;
        let npos = read_varint(blob, &mut pos).expect("valid blob") as usize;
        let mut out = Vec::with_capacity(npos);
        let mut prev = 0u32;
        for i in 0..npos {
            let delta = read_varint(blob, &mut pos).expect("valid blob") as u32;
            prev = if i == 0 { delta } else { prev + delta };
            out.push(prev);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(specs: &[(u64, &[u32])]) -> Vec<(DocId, Vec<u32>)> {
        specs
            .iter()
            .map(|&(d, ps)| (DocId(d), ps.to_vec()))
            .collect()
    }

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            assert_eq!(varint_len(v), buf.len());
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert_eq!(read_varint(&[], &mut 0), None);
        assert_eq!(read_varint(&[0x80], &mut 0), None);
        // 11 continuation bytes overflow 64 bits
        let over = [0xff; 10];
        let mut with_term = over.to_vec();
        with_term.push(0x7f);
        assert_eq!(read_varint(&with_term, &mut 0), None);
    }

    #[test]
    fn encode_decode_round_trip() {
        let es = entries(&[
            (0, &[0, 1, 7]),
            (1, &[3]),
            (5, &[]),
            (1000, &[100, 200, 4096]),
            (u64::MAX, &[u32::MAX]),
        ]);
        let cp = CompressedPostings::from_entries(&es);
        assert_eq!(cp.doc_count(), es.len());
        assert_eq!(cp.decode(), es);
        assert_eq!(cp.docs(), es.iter().map(|(d, _)| *d).collect::<Vec<_>>());
    }

    #[test]
    fn blobs_copy_verbatim_between_lists() {
        let es = entries(&[(3, &[0, 2]), (9, &[]), (700, &[5, 300, 301])]);
        let src = CompressedPostings::from_entries(&es);
        let mut copy = CompressedPostings::new();
        let mut c = src.cursor();
        while let Some(doc) = c.next() {
            // shifted docs: only the doc delta is re-encoded
            copy.push_blob(DocId(doc.0 + 1000), c.blob());
        }
        let shifted: Vec<(DocId, Vec<u32>)> = es
            .iter()
            .map(|(d, ps)| (DocId(d.0 + 1000), ps.clone()))
            .collect();
        assert_eq!(copy, CompressedPostings::from_entries(&shifted));
        assert!(src.cursor().blob().is_empty(), "no current entry");
    }

    #[test]
    fn append_merged_interleaves_and_last_list_wins() {
        let even = CompressedPostings::from_entries(&entries(&[(0, &[1]), (2, &[2]), (4, &[3])]));
        let odd = CompressedPostings::from_entries(&entries(&[(1, &[4]), (2, &[5, 6]), (5, &[])]));
        let mut out = CompressedPostings::new();
        out.append_merged(&[&even, &odd]);
        assert_eq!(
            out.decode(),
            entries(&[(0, &[1]), (1, &[4]), (2, &[5, 6]), (4, &[3]), (5, &[])])
        );
        assert_eq!(out.first_doc(), Some(DocId(0)));
        let mut tail = CompressedPostings::from_entries(&entries(&[(7, &[0])]));
        tail.append_merged(&[&CompressedPostings::from_entries(&entries(&[(130, &[9])]))]);
        assert_eq!(tail.decode(), entries(&[(7, &[0]), (130, &[9])]));
        assert_eq!(CompressedPostings::new().first_doc(), None);
    }

    #[test]
    fn empty_and_single_entry_lists() {
        let empty = CompressedPostings::new();
        assert!(empty.is_empty());
        assert!(empty.decode().is_empty());
        assert_eq!(empty.cursor().scanned(), 0);
        assert_eq!(empty.last_doc(), None);

        let single = CompressedPostings::from_entries(&entries(&[(42, &[7])]));
        assert_eq!(single.doc_count(), 1);
        assert_eq!(single.last_doc(), Some(DocId(42)));
        let mut c = single.cursor();
        assert_eq!(c.advance_to(DocId(42)), Some(DocId(42)));
        assert_eq!(c.positions(), vec![7]);
        assert_eq!(c.advance_to(DocId(43)), None);
    }

    #[test]
    fn cursor_skips_blocks_without_scanning() {
        // 10 blocks of postings; probing the tail must not decode the head.
        let es: Vec<(DocId, Vec<u32>)> = (0..(BLOCK as u64 * 10))
            .map(|d| (DocId(d * 3), vec![0]))
            .collect();
        let cp = CompressedPostings::from_entries(&es);
        let mut c = cp.cursor();
        let target = es[es.len() - 2].0;
        assert_eq!(c.advance_to(target), Some(target));
        assert!(
            c.scanned() <= BLOCK as u64,
            "skip table should bound decodes to one block, scanned {}",
            c.scanned()
        );
        let mut full = cp.cursor();
        while full.next().is_some() {}
        assert_eq!(full.scanned(), es.len() as u64);
    }

    #[test]
    fn advance_to_between_docs_lands_on_next() {
        let cp = CompressedPostings::from_entries(&entries(&[(2, &[1]), (8, &[2]), (9, &[3])]));
        let mut c = cp.cursor();
        assert_eq!(c.advance_to(DocId(3)), Some(DocId(8)));
        assert_eq!(c.positions(), vec![2]);
        // non-advancing repeat is free
        let scanned = c.scanned();
        assert_eq!(c.advance_to(DocId(8)), Some(DocId(8)));
        assert_eq!(c.scanned(), scanned);
        assert_eq!(c.advance_to(DocId(9)), Some(DocId(9)));
    }
}
