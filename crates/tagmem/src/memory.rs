//! The sparse tagged memory.

use crate::fxhash::FxHashMap;
use crate::page::{Page, PAGE_BYTES, PAGE_WORDS};
use crate::snapcodec::{SnapCodecError, SnapDecoder, SnapEncoder};
use crate::word::{check_access, Addr, WORD_BYTES};
use std::cell::Cell;

/// Occupancy statistics for a [`TaggedMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Number of 4 KiB pages materialized so far.
    pub pages: u64,
    /// Number of forwarding bits currently set across all pages.
    pub fbits_set: u64,
}

impl MemStats {
    /// Bytes of simulated data storage materialized.
    pub fn data_bytes(&self) -> u64 {
        self.pages * PAGE_BYTES as u64
    }

    /// Bytes of tag storage implied by the forwarding bits (1 bit per word),
    /// i.e. the paper's fixed 1.5 % overhead on a 64-bit architecture.
    pub fn tag_bytes(&self) -> u64 {
        self.data_bytes() / (WORD_BYTES * 8)
    }
}

/// Sentinel page number marking the micro-TLB as empty. No reachable page
/// can have this number: page `u64::MAX` would require a byte address above
/// `u64::MAX * PAGE_BYTES`, which does not exist.
const TLB_EMPTY: u64 = u64::MAX;

/// A sparse, paged, byte-addressable 64-bit memory where every word carries
/// a forwarding bit.
///
/// All accesses must be naturally aligned (so they are contained within a
/// single word), mirroring the MIPS alignment rules assumed by the paper.
/// Multi-byte values are little-endian.
///
/// Pages are materialized on first touch, zero-filled with forwarding bits
/// clear — the initialization guarantee of paper §3.3.
///
/// Pages live in a dense `Vec` indexed through a page-number map, with a
/// single-entry micro-TLB caching the last translation: consecutive accesses
/// to the same 4 KiB page (the overwhelmingly common case) skip the hash
/// probe entirely. Pages are never deallocated, so a cached index can never
/// go stale; the TLB only resets when a whole image is rebuilt.
///
/// # Example
///
/// ```
/// use memfwd_tagmem::{Addr, TaggedMemory};
/// let mut mem = TaggedMemory::new();
/// mem.write_data(Addr(0x100), 4, 0xDEAD);
/// assert_eq!(mem.read_data(Addr(0x100), 4), 0xDEAD);
/// assert!(!mem.fbit(Addr(0x100)));
/// ```
pub struct TaggedMemory {
    pages: Vec<Page>,
    index: FxHashMap<u64, u32>,
    /// Micro-TLB: the last `(page number, index into pages)` translation.
    tlb: Cell<(u64, u32)>,
}

impl Default for TaggedMemory {
    fn default() -> TaggedMemory {
        TaggedMemory {
            pages: Vec::new(),
            index: FxHashMap::default(),
            tlb: Cell::new((TLB_EMPTY, 0)),
        }
    }
}

impl TaggedMemory {
    /// Creates an empty memory.
    pub fn new() -> TaggedMemory {
        TaggedMemory::default()
    }

    /// Translates a page number to its index in `pages`, consulting the
    /// micro-TLB first and refilling it on a map hit.
    #[inline]
    fn translate(&self, pno: u64) -> Option<u32> {
        let (cached_pno, cached_idx) = self.tlb.get();
        if cached_pno == pno {
            return Some(cached_idx);
        }
        let idx = *self.index.get(&pno)?;
        self.tlb.set((pno, idx));
        Some(idx)
    }

    #[inline]
    fn page(&mut self, addr: Addr) -> (&mut Page, usize) {
        let pno = addr.0 / PAGE_BYTES as u64;
        let off = (addr.0 % PAGE_BYTES as u64) as usize;
        let idx = match self.translate(pno) {
            Some(idx) => idx,
            None => {
                let idx = u32::try_from(self.pages.len()).expect("page count fits u32");
                self.pages.push(Page::new());
                self.index.insert(pno, idx);
                self.tlb.set((pno, idx));
                idx
            }
        };
        (&mut self.pages[idx as usize], off)
    }

    #[inline]
    fn page_ref(&self, addr: Addr) -> Option<(&Page, usize)> {
        let pno = addr.0 / PAGE_BYTES as u64;
        let off = (addr.0 % PAGE_BYTES as u64) as usize;
        self.translate(pno)
            .map(|idx| (&self.pages[idx as usize], off))
    }

    /// Reads `size` bytes (1, 2, 4, or 8) at `addr` as a little-endian
    /// value, ignoring forwarding bits.
    ///
    /// Untouched memory reads as zero.
    ///
    /// # Panics
    ///
    /// Panics if the access is misaligned or `size` is unsupported.
    #[track_caller]
    pub fn read_data(&self, addr: Addr, size: u64) -> u64 {
        check_access(addr, size);
        match self.page_ref(addr) {
            None => 0,
            Some((p, off)) => {
                if size == WORD_BYTES {
                    return p.word(off);
                }
                let mut buf = [0u8; 8];
                buf[..size as usize].copy_from_slice(p.bytes(off, size as usize));
                u64::from_le_bytes(buf)
            }
        }
    }

    /// Writes the low `size` bytes of `value` at `addr`, ignoring (and not
    /// touching) forwarding bits.
    ///
    /// # Panics
    ///
    /// Panics if the access is misaligned or `size` is unsupported.
    #[track_caller]
    pub fn write_data(&mut self, addr: Addr, size: u64, value: u64) {
        check_access(addr, size);
        let (p, off) = self.page(addr);
        if size == WORD_BYTES {
            p.set_word(off, value);
            return;
        }
        p.bytes_mut(off, size as usize)
            .copy_from_slice(&value.to_le_bytes()[..size as usize]);
    }

    /// Forwarding bit of the word containing `addr`.
    #[inline]
    pub fn fbit(&self, addr: Addr) -> bool {
        let base = addr.word_base();
        self.page_ref(base)
            .map(|(p, off)| p.fbit(off))
            .unwrap_or(false)
    }

    /// Sets or clears the forwarding bit of the word containing `addr`.
    pub fn set_fbit(&mut self, addr: Addr, set: bool) {
        let base = addr.word_base();
        let (p, off) = self.page(base);
        p.set_fbit(off, set);
    }

    /// Reads the whole word containing `addr` together with its forwarding
    /// bit in a **single** page lookup — the combined accessor the access
    /// pipeline's chain walk is built on. Functionally identical to
    /// [`TaggedMemory::unforwarded_read`].
    #[inline]
    pub fn read_word_tagged(&self, addr: Addr) -> (u64, bool) {
        match self.page_ref(addr.word_base()) {
            None => (0, false),
            Some((p, off)) => (p.word(off), p.fbit(off)),
        }
    }

    /// The `Unforwarded_Read` ISA extension (paper Fig. 3): reads the whole
    /// word containing `addr` and its forwarding bit, with the forwarding
    /// mechanism disabled.
    #[inline]
    pub fn unforwarded_read(&self, addr: Addr) -> (u64, bool) {
        self.read_word_tagged(addr)
    }

    /// The `Unforwarded_Write` ISA extension (paper Fig. 3): atomically
    /// writes a whole word and its forwarding bit, with the forwarding
    /// mechanism disabled.
    pub fn unforwarded_write(&mut self, addr: Addr, value: u64, fbit: bool) {
        let base = addr.word_base();
        let (p, off) = self.page(base);
        p.set_word(off, value);
        p.set_fbit(off, fbit);
    }

    /// Serializes the full memory image — every materialized page's data and
    /// forwarding bits — into `enc`, pages in ascending page-number order so
    /// the encoding is byte-stable across save/restore cycles.
    pub fn snapshot_encode(&self, enc: &mut SnapEncoder) {
        let mut pnos: Vec<u64> = self.index.keys().copied().collect();
        pnos.sort_unstable();
        enc.usize(pnos.len());
        for pno in pnos {
            let (data, fbits) = self.pages[self.index[&pno] as usize].raw();
            enc.u64(pno);
            enc.raw(&data[..]);
            for limb in fbits {
                enc.u64(*limb);
            }
        }
    }

    /// Rebuilds a memory image written by [`TaggedMemory::snapshot_encode`].
    ///
    /// Rejects duplicate or unsorted page numbers so a bit-flipped snapshot
    /// cannot silently drop or reorder pages.
    pub fn snapshot_decode(dec: &mut SnapDecoder<'_>) -> Result<TaggedMemory, SnapCodecError> {
        const PAGE_RECORD_BYTES: usize = 8 + PAGE_BYTES + PAGE_WORDS / 8;
        let n = dec.seq_len(PAGE_RECORD_BYTES)?;
        let mut pages = Vec::with_capacity(n);
        let mut index = FxHashMap::default();
        index.reserve(n);
        let mut last_pno = None;
        for i in 0..n {
            let pno = dec.u64()?;
            if last_pno.is_some_and(|prev| pno <= prev) {
                return Err(SnapCodecError::BadValue);
            }
            last_pno = Some(pno);
            let data = dec.raw(PAGE_BYTES)?;
            let mut fbits = [0u64; PAGE_WORDS / 64];
            for limb in &mut fbits {
                *limb = dec.u64()?;
            }
            let page = Page::from_raw(data, &fbits).ok_or(SnapCodecError::BadValue)?;
            pages.push(page);
            index.insert(pno, i as u32);
        }
        Ok(TaggedMemory {
            pages,
            index,
            tlb: Cell::new((TLB_EMPTY, 0)),
        })
    }

    /// Current occupancy statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            pages: self.pages.len() as u64,
            fbits_set: self.pages.iter().map(|p| u64::from(p.fbits_set())).sum(),
        }
    }
}

impl std::fmt::Debug for TaggedMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("TaggedMemory")
            .field("pages", &s.pages)
            .field("fbits_set", &s.fbits_set)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_on_first_touch() {
        let mem = TaggedMemory::new();
        assert_eq!(mem.read_data(Addr(0xDEAD_BEE8), 8), 0);
        assert!(!mem.fbit(Addr(0xDEAD_BEE8)));
    }

    #[test]
    fn little_endian_subword() {
        let mut mem = TaggedMemory::new();
        mem.write_data(Addr(0x100), 8, 0x0807_0605_0403_0201);
        assert_eq!(mem.read_data(Addr(0x100), 1), 0x01);
        assert_eq!(mem.read_data(Addr(0x104), 4), 0x0807_0605);
        assert_eq!(mem.read_data(Addr(0x106), 2), 0x0807);
        mem.write_data(Addr(0x102), 2, 0xFFFF);
        assert_eq!(mem.read_data(Addr(0x100), 8), 0x0807_0605_FFFF_0201);
    }

    #[test]
    fn data_write_preserves_fbit() {
        let mut mem = TaggedMemory::new();
        mem.set_fbit(Addr(0x200), true);
        mem.write_data(Addr(0x204), 4, 7);
        assert!(mem.fbit(Addr(0x200)));
        assert!(mem.fbit(Addr(0x207))); // any byte of the word
        assert!(!mem.fbit(Addr(0x208)));
    }

    #[test]
    fn unforwarded_ops_are_word_granular() {
        let mut mem = TaggedMemory::new();
        mem.unforwarded_write(Addr(0x304), 0x5800, true); // mid-word address
        assert_eq!(mem.unforwarded_read(Addr(0x300)), (0x5800, true));
        assert_eq!(mem.unforwarded_read(Addr(0x307)), (0x5800, true));
        mem.unforwarded_write(Addr(0x300), 0, false);
        assert_eq!(mem.unforwarded_read(Addr(0x300)), (0, false));
    }

    #[test]
    fn read_word_tagged_is_one_probe_combined_view() {
        let mut mem = TaggedMemory::new();
        assert_eq!(mem.read_word_tagged(Addr(0x400)), (0, false), "cold page");
        mem.write_data(Addr(0x400), 8, 77);
        assert_eq!(mem.read_word_tagged(Addr(0x404)), (77, false));
        mem.set_fbit(Addr(0x400), true);
        assert_eq!(mem.read_word_tagged(Addr(0x400)), (77, true));
    }

    #[test]
    fn micro_tlb_survives_cross_page_interleave() {
        let mut mem = TaggedMemory::new();
        // Alternate between two pages so the TLB refills constantly; every
        // read must still see its own page's data.
        for i in 0..64u64 {
            mem.write_data(Addr(0x1000 + i * 8), 8, i);
            mem.write_data(Addr(0x9000 + i * 8), 8, i + 1000);
        }
        for i in 0..64u64 {
            assert_eq!(mem.read_data(Addr(0x1000 + i * 8), 8), i);
            assert_eq!(mem.read_data(Addr(0x9000 + i * 8), 8), i + 1000);
        }
        assert_eq!(mem.stats().pages, 2);
    }

    #[test]
    fn stats_track_pages_and_fbits() {
        let mut mem = TaggedMemory::new();
        assert_eq!(mem.stats(), MemStats::default());
        mem.write_data(Addr(0), 8, 1);
        mem.write_data(Addr(8192), 8, 1);
        mem.set_fbit(Addr(8192), true);
        let s = mem.stats();
        assert_eq!(s.pages, 2);
        assert_eq!(s.fbits_set, 1);
        assert_eq!(s.data_bytes(), 8192);
        assert_eq!(s.tag_bytes(), 128); // 1.5625 % of data
    }

    #[test]
    fn paper_figure_1_scenario() {
        // Relocate five 32-bit elements (values 3, 47, 0, 12, 5 as in the
        // paper's Fig. 1) from their old home to a new one. After the
        // relocation, a 32-bit load of the subword at old+4 must be
        // forwarded to new+4 and return 47.
        let mut mem = TaggedMemory::new();
        let vals = [3u64, 47, 0, 12, 5];
        let old = Addr(0x800);
        let new = Addr(0x5800);
        for (i, v) in vals.iter().enumerate() {
            mem.write_data(old + 4 * i as u64, 4, *v);
        }
        // Relocating the subword at old+16 also drags old+20 along: 3 words.
        for w in 0..3u64 {
            let (val, _) = mem.unforwarded_read(old.add_words(w));
            mem.write_data(new.add_words(w), 8, val);
            mem.unforwarded_write(old.add_words(w), (new.add_words(w)).0, true);
        }
        // A 32-bit load of old+4 forwards to new+4 and returns 47.
        let probe = old + 4;
        assert!(mem.fbit(probe));
        let (fwd, _) = mem.unforwarded_read(probe);
        let final_addr = Addr(fwd) + probe.word_offset();
        assert_eq!(final_addr, new + 4);
        assert_eq!(mem.read_data(final_addr, 4), 47);
    }

    #[test]
    fn debug_nonempty() {
        let mem = TaggedMemory::new();
        assert!(!format!("{mem:?}").is_empty());
    }
}
