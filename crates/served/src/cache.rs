//! The persistent, corruption-quarantining result cache.
//!
//! Completed cells are stored as sealed `MFWDCELL` containers (the same
//! magic + version + length + FNV-1a-64 checksum discipline workers use
//! to hand results to the supervisor), one file per cell content hash:
//! `cache/cell-<key>.mfwdcell`. Because the key is a content hash of the
//! full cell configuration — app, variant, line size, latency, seed,
//! scale — a hit is definitionally the result the cell would compute, so
//! a warm resubmission of a grid is served without simulation and still
//! bit-identical.
//!
//! The failure model is storage rot between server lives: truncation,
//! bit flips, torn writes, or a foreign file dropped into the directory.
//! Every lookup revalidates the container; anything unsound is *moved*
//! to the `quarantine/` sidecar (preserved for forensics, impossible to
//! serve) and reported as [`CacheLookup::Quarantined`] so the caller
//! recomputes and the `stats` endpoint counts it. A corrupt entry is
//! never returned as a hit — the cache degrades to slow, never to wrong.

use memfwd_farm::worker::{read_result_file, write_result_file, CellResultFile};
use memfwd_farm::JournalError;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity of the in-memory hot tier: enough to hold a whole default
/// grid's worth of sealed results, small enough that the resident cost
/// is bounded (entries are a few hundred bytes each).
pub const HOT_CAPACITY: usize = 128;

/// A bounded LRU front for sealed results: hits skip the disk read and
/// container revalidation entirely. Recency order is the deque order —
/// most recently used at the back, evictions from the front.
#[derive(Debug, Default)]
struct HotTier {
    entries: VecDeque<(u64, Box<CellResultFile>)>,
}

impl HotTier {
    fn get(&mut self, key: u64) -> Option<Box<CellResultFile>> {
        let i = self.entries.iter().position(|(k, _)| *k == key)?;
        let e = self.entries.remove(i).expect("position was valid");
        let r = e.1.clone();
        self.entries.push_back(e);
        Some(r)
    }

    fn put(&mut self, key: u64, r: Box<CellResultFile>) {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(i);
        }
        self.entries.push_back((key, r));
        while self.entries.len() > HOT_CAPACITY {
            self.entries.pop_front();
        }
    }

    fn evict(&mut self, key: u64) {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(i);
        }
    }
}

/// A content-hash-keyed store of sealed cell results under a state
/// directory, with a quarantine sidecar for entries that fail
/// revalidation and a bounded in-memory LRU hot tier in front of the
/// disk entries.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    quarantine: PathBuf,
    hot: Mutex<HotTier>,
    hot_hits: AtomicU64,
    hot_misses: AtomicU64,
}

/// What a cache lookup found.
#[derive(Debug)]
pub enum CacheLookup {
    /// A sealed, key-matching entry (boxed: it carries the full
    /// `RunStats` block).
    Hit(Box<CellResultFile>),
    /// No entry for this key.
    Miss,
    /// An entry existed but failed revalidation (the typed reason); it
    /// was moved to quarantine and the cell must be recomputed.
    Quarantined(JournalError),
}

impl ResultCache {
    /// Opens (creating if needed) the cache under `state_dir`: entries in
    /// `state_dir/cache/`, quarantined files in `state_dir/quarantine/`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if either directory cannot be created.
    pub fn open(state_dir: &Path) -> Result<ResultCache, JournalError> {
        let dir = state_dir.join("cache");
        let quarantine = state_dir.join("quarantine");
        std::fs::create_dir_all(&dir).map_err(|e| JournalError::Io(e.kind()))?;
        std::fs::create_dir_all(&quarantine).map_err(|e| JournalError::Io(e.kind()))?;
        Ok(ResultCache {
            dir,
            quarantine,
            hot: Mutex::new(HotTier::default()),
            hot_hits: AtomicU64::new(0),
            hot_misses: AtomicU64::new(0),
        })
    }

    /// The on-disk path of the entry for `key`.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("cell-{key:016x}.mfwdcell"))
    }

    /// Looks up `key`: first in the hot tier (no I/O), then on disk with
    /// full container revalidation. A corrupt or foreign-keyed disk entry
    /// is quarantined as a side effect; a disk hit is promoted into the
    /// hot tier.
    pub fn lookup(&self, key: u64) -> CacheLookup {
        if let Some(r) = self.hot.lock().expect("hot tier lock").get(key) {
            self.hot_hits.fetch_add(1, Ordering::Relaxed);
            return CacheLookup::Hit(r);
        }
        self.hot_misses.fetch_add(1, Ordering::Relaxed);
        let path = self.entry_path(key);
        match read_result_file(&path) {
            Ok(r) if r.key == key => {
                let r = Box::new(r);
                self.hot.lock().expect("hot tier lock").put(key, r.clone());
                CacheLookup::Hit(r)
            }
            // The container is intact but seals a different cell's
            // result under this file name — misfiled, never servable.
            Ok(_) => {
                self.quarantine_entry(&path, key);
                CacheLookup::Quarantined(JournalError::BadValue)
            }
            Err(JournalError::Io(std::io::ErrorKind::NotFound)) => CacheLookup::Miss,
            Err(e) => {
                self.quarantine_entry(&path, key);
                CacheLookup::Quarantined(e)
            }
        }
    }

    /// Stores a completed cell's sealed result (atomic tmp + rename, so
    /// a kill mid-store leaves no torn entry under the final name).
    ///
    /// The hot tier is deliberately *not* populated here: promotion
    /// happens only on a revalidated disk read, so every entry served
    /// from memory has passed the container checks at least once this
    /// server life, and a freshly stored entry that rots immediately is
    /// still caught on its first lookup.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the write fails; the caller treats the
    /// store as best-effort (the result is still journaled).
    pub fn store(&self, r: &CellResultFile) -> Result<(), JournalError> {
        // A rewrite under an existing key must invalidate any older hot
        // copy so the next lookup revalidates the new container.
        self.hot.lock().expect("hot tier lock").evict(r.key);
        write_result_file(&self.entry_path(r.key), r)
    }

    /// Hot-tier hits served without touching disk.
    pub fn hot_hits(&self) -> u64 {
        self.hot_hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through the hot tier to the disk path.
    pub fn hot_misses(&self) -> u64 {
        self.hot_misses.load(Ordering::Relaxed)
    }

    /// Moves a bad entry into the quarantine sidecar under a unique
    /// name. Falls back to deletion if the move fails — a poisoned entry
    /// must never stay where a lookup could read it again.
    fn quarantine_entry(&self, path: &Path, key: u64) {
        for n in 0u32.. {
            let dst = self
                .quarantine
                .join(format!("cell-{key:016x}.{n}.mfwdcell"));
            if dst.exists() {
                continue;
            }
            if std::fs::rename(path, &dst).is_ok() {
                return;
            }
            break;
        }
        std::fs::remove_file(path).ok();
    }

    /// Number of valid-named entries currently in the cache directory.
    pub fn entries(&self) -> usize {
        count_files(&self.dir)
    }

    /// Number of files in the quarantine sidecar.
    pub fn quarantined(&self) -> usize {
        count_files(&self.quarantine)
    }
}

fn count_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_type().is_ok_and(|t| t.is_file()))
                .count()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memfwd::RunStats;

    fn tmp_state(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("memfwd-cache-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    fn sample(key: u64) -> CellResultFile {
        let mut stats = RunStats::default();
        stats.pipeline.cycles = 4242;
        CellResultFile {
            key,
            checksum: 0xDEAD_BEEF,
            refs: 77,
            host_nanos: 9,
            stats,
        }
    }

    #[test]
    fn store_hit_roundtrip() {
        let state = tmp_state("roundtrip");
        let cache = ResultCache::open(&state).expect("open");
        assert!(matches!(cache.lookup(1), CacheLookup::Miss));
        cache.store(&sample(1)).expect("store");
        match cache.lookup(1) {
            CacheLookup::Hit(r) => assert_eq!(*r, sample(1)),
            other => panic!("expected hit: {other:?}"),
        }
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.quarantined(), 0);
        std::fs::remove_dir_all(&state).ok();
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_served() {
        let state = tmp_state("corrupt");
        let cache = ResultCache::open(&state).expect("open");
        cache.store(&sample(2)).expect("store");
        let path = cache.entry_path(2);
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert!(matches!(cache.lookup(2), CacheLookup::Quarantined(_)));
        // The entry left the cache dir entirely; next lookup is a miss.
        assert!(!path.exists());
        assert!(matches!(cache.lookup(2), CacheLookup::Miss));
        assert_eq!(cache.quarantined(), 1);
        // Recompute-and-store restores service.
        cache.store(&sample(2)).expect("restore");
        assert!(matches!(cache.lookup(2), CacheLookup::Hit(_)));
        std::fs::remove_dir_all(&state).ok();
    }

    #[test]
    fn previous_version_entry_is_quarantined_not_served() {
        use memfwd_farm::worker::RESULT_VERSION;
        let state = tmp_state("oldversion");
        let cache = ResultCache::open(&state).expect("open");
        cache.store(&sample(4)).expect("store");
        // Re-stamp the entry as sealed by the previous format version.
        let path = cache.entry_path(4);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[8..12].copy_from_slice(&(RESULT_VERSION - 1).to_le_bytes());
        std::fs::write(&path, &bytes).expect("restamp");
        match cache.lookup(4) {
            CacheLookup::Quarantined(JournalError::BadVersion { found }) => {
                assert_eq!(found, RESULT_VERSION - 1)
            }
            other => panic!("expected a version-skew quarantine: {other:?}"),
        }
        assert!(!path.exists(), "the old cell left the cache");
        assert_eq!(cache.quarantined(), 1);
        assert!(matches!(cache.lookup(4), CacheLookup::Miss));
        std::fs::remove_dir_all(&state).ok();
    }

    #[test]
    fn hot_tier_serves_repeat_lookups_from_memory() {
        let state = tmp_state("hot");
        let cache = ResultCache::open(&state).expect("open");
        cache.store(&sample(3)).expect("store");
        // First lookup revalidates on disk and promotes.
        assert!(matches!(cache.lookup(3), CacheLookup::Hit(_)));
        assert_eq!(cache.hot_hits(), 0);
        assert_eq!(cache.hot_misses(), 1);
        // Remove the disk entry: the hot tier alone must serve it now.
        std::fs::remove_file(cache.entry_path(3)).expect("rm");
        match cache.lookup(3) {
            CacheLookup::Hit(r) => assert_eq!(*r, sample(3)),
            other => panic!("expected hot hit: {other:?}"),
        }
        assert_eq!(cache.hot_hits(), 1);
        assert_eq!(cache.hot_misses(), 1);
        std::fs::remove_dir_all(&state).ok();
    }

    #[test]
    fn hot_tier_is_bounded_and_lru_ordered() {
        let state = tmp_state("lru");
        let cache = ResultCache::open(&state).expect("open");
        // Promote HOT_CAPACITY entries, then touch key 0 to refresh it.
        for k in 0..HOT_CAPACITY as u64 {
            cache.store(&sample(k)).expect("store");
            assert!(matches!(cache.lookup(k), CacheLookup::Hit(_)));
        }
        assert!(matches!(cache.lookup(0), CacheLookup::Hit(_)));
        // One more promotion evicts the least recently used entry —
        // key 1, not the refreshed key 0.
        let extra = HOT_CAPACITY as u64;
        cache.store(&sample(extra)).expect("store");
        assert!(matches!(cache.lookup(extra), CacheLookup::Hit(_)));
        // Strip the disk so only the hot tier can answer.
        for k in 0..=extra {
            std::fs::remove_file(cache.entry_path(k)).ok();
        }
        assert!(matches!(cache.lookup(0), CacheLookup::Hit(_)));
        assert!(matches!(cache.lookup(extra), CacheLookup::Hit(_)));
        assert!(matches!(cache.lookup(1), CacheLookup::Miss), "evicted");
        std::fs::remove_dir_all(&state).ok();
    }

    #[test]
    fn store_evicts_stale_hot_copy() {
        let state = tmp_state("evict");
        let cache = ResultCache::open(&state).expect("open");
        cache.store(&sample(5)).expect("store");
        assert!(matches!(cache.lookup(5), CacheLookup::Hit(_)));
        // Overwrite with different content under the same key: the next
        // lookup must revalidate the new container, not serve the old
        // hot copy.
        let mut newer = sample(5);
        newer.checksum = 0xFEED_F00D;
        cache.store(&newer).expect("restore");
        match cache.lookup(5) {
            CacheLookup::Hit(r) => assert_eq!(r.checksum, 0xFEED_F00D),
            other => panic!("expected hit: {other:?}"),
        }
        std::fs::remove_dir_all(&state).ok();
    }

    #[test]
    fn foreign_key_entry_is_quarantined() {
        let state = tmp_state("foreign");
        let cache = ResultCache::open(&state).expect("open");
        // A valid container sealed for key 7, misfiled under key 8's name.
        write_result_file(&cache.entry_path(8), &sample(7)).expect("misfile");
        assert!(matches!(
            cache.lookup(8),
            CacheLookup::Quarantined(JournalError::BadValue)
        ));
        assert_eq!(cache.quarantined(), 1);
        std::fs::remove_dir_all(&state).ok();
    }
}
