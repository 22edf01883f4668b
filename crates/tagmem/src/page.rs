//! Fixed-size pages backing the sparse simulated address space.

/// Bytes per simulated page.
pub const PAGE_BYTES: usize = 4096;

/// Words per simulated page.
pub const PAGE_WORDS: usize = PAGE_BYTES / 8;

/// Number of `u64` limbs needed for one forwarding bit per word.
pub(crate) const FBIT_LIMBS: usize = PAGE_WORDS / 64;

/// One 4 KiB page: raw data plus the forwarding-bit bitmap.
///
/// A freshly created page is zero-filled with all forwarding bits clear,
/// which models the paper's requirement (§3.3) that the operating system
/// perform `Unforwarded_Write(0, 0)` on every word of a region before
/// handing it to an application.
///
/// The data array lives inline (not behind a `Box`) so the memory's page
/// vector is one contiguous slab: materializing a page is a bump of the
/// vector, not a 4 KiB calloc — page-fault-heavy phases (fresh heap growth,
/// pool slabs) showed the per-page allocation as a top-3 host cost.
pub(crate) struct Page {
    data: [u8; PAGE_BYTES],
    fbits: [u64; FBIT_LIMBS],
}

impl Page {
    pub(crate) fn new() -> Page {
        Page {
            data: [0u8; PAGE_BYTES],
            fbits: [0u64; FBIT_LIMBS],
        }
    }

    #[inline]
    pub(crate) fn bytes(&self, off: usize, len: usize) -> &[u8] {
        &self.data[off..off + len]
    }

    #[inline]
    pub(crate) fn bytes_mut(&mut self, off: usize, len: usize) -> &mut [u8] {
        &mut self.data[off..off + len]
    }

    /// The 64-bit little-endian word at byte offset `off` (must be 8-aligned).
    #[inline]
    pub(crate) fn word(&self, off: usize) -> u64 {
        let base = off & !7;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.data[base..base + 8]);
        u64::from_le_bytes(buf)
    }

    /// Stores a full 64-bit little-endian word at byte offset `off`.
    #[inline]
    pub(crate) fn set_word(&mut self, off: usize, value: u64) {
        let base = off & !7;
        self.data[base..base + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Forwarding bit of the word at byte offset `off` (must be 8-aligned).
    #[inline]
    pub(crate) fn fbit(&self, off: usize) -> bool {
        let w = off / 8;
        self.fbits[w / 64] >> (w % 64) & 1 == 1
    }

    #[inline]
    pub(crate) fn set_fbit(&mut self, off: usize, set: bool) {
        let w = off / 8;
        let limb = &mut self.fbits[w / 64];
        if set {
            *limb |= 1 << (w % 64);
        } else {
            *limb &= !(1 << (w % 64));
        }
    }

    /// Number of forwarding bits currently set in this page.
    pub(crate) fn fbits_set(&self) -> u32 {
        self.fbits.iter().map(|l| l.count_ones()).sum()
    }

    /// Raw views of the page contents for snapshot encoding.
    pub(crate) fn raw(&self) -> (&[u8; PAGE_BYTES], &[u64; FBIT_LIMBS]) {
        (&self.data, &self.fbits)
    }

    /// Rebuilds a page from snapshot bytes. `data` must be exactly
    /// [`PAGE_BYTES`] long and `fbits` exactly [`FBIT_LIMBS`] limbs.
    pub(crate) fn from_raw(data: &[u8], fbits: &[u64]) -> Option<Page> {
        let mut p = Page::new();
        if data.len() != PAGE_BYTES || fbits.len() != FBIT_LIMBS {
            return None;
        }
        p.data.copy_from_slice(data);
        p.fbits.copy_from_slice(fbits);
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_page_is_clear() {
        let p = Page::new();
        assert_eq!(p.fbits_set(), 0);
        assert!(p.bytes(0, PAGE_BYTES).iter().all(|&b| b == 0));
        for off in (0..PAGE_BYTES).step_by(8) {
            assert!(!p.fbit(off));
        }
    }

    #[test]
    fn fbit_roundtrip() {
        let mut p = Page::new();
        p.set_fbit(0, true);
        p.set_fbit(4088, true);
        assert!(p.fbit(0));
        assert!(p.fbit(4088));
        assert!(!p.fbit(8));
        assert_eq!(p.fbits_set(), 2);
        p.set_fbit(0, false);
        assert!(!p.fbit(0));
        assert_eq!(p.fbits_set(), 1);
    }

    #[test]
    fn data_roundtrip() {
        let mut p = Page::new();
        p.bytes_mut(100, 4).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(p.bytes(100, 4), &[1, 2, 3, 4]);
        assert_eq!(p.bytes(99, 1), &[0]);
    }
}
