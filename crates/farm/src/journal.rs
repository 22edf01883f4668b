//! The durable campaign journal: a checksummed base image plus
//! individually sealed append frames, compacted geometrically.
//!
//! # Why sealed frames, not whole-file rewrite
//!
//! Version 1 of this format rewrote the *entire* file through a sibling
//! `.tmp` and an atomic rename on every append. That makes every on-disk
//! state a sealed image, but an n-cell campaign pays O(n²) journal I/O —
//! noticeable once campaigns reach thousands of cells and appends arrive
//! from many workers. Version 2 keeps the same guarantee at O(n) amortized
//! I/O by splitting the file in two regions:
//!
//! - A **base image**: the v1 sealed container (magic, version, declared
//!   payload length, checksum, payload). A kill can never tear it because
//!   it is only ever replaced via tmp + atomic rename.
//! - A **tail of frames**: each append writes one self-sealing frame
//!   (`magic, length, checksum, one record`) after the base. A kill
//!   mid-append tears at most the last frame; the reader detects the torn
//!   tail by its declared length and drops exactly the in-flight append —
//!   the *sealed-prefix guarantee*: at any kill point the file decodes to
//!   precisely the appends that had returned.
//! - **Compaction**: once the tail holds as many records as the base
//!   (never fewer than a small floor), the whole file is rewritten as a
//!   fresh base via tmp + rename. Geometric growth of the compaction
//!   threshold keeps total rewrite I/O linear in the number of appends.
//!
//! # Container format (version 2)
//!
//! ```text
//! [ 0..  8)  magic  b"MFWDJRNL"
//! [ 8.. 12)  format version, u32 little-endian
//! [12.. 20)  base payload length, u64 little-endian
//! [20.. 28)  FNV-1a-64 checksum of the base payload
//! [28.. 28+len)  base payload: campaign fingerprint u64, record count,
//!                records
//! then zero or more frames:
//! [ 0..  4)  frame magic b"MFJF"
//! [ 4..  8)  frame payload length, u32 little-endian
//! [ 8.. 16)  FNV-1a-64 checksum of the frame payload
//! [16..   )  frame payload: exactly one record
//! ```
//!
//! The base payload opens with the campaign fingerprint — a content hash
//! of the full sweep spec — so a journal can never be silently resumed
//! against a different grid. Records are keyed by [`cell_key`], a content
//! hash of the individual cell's configuration, so resume matches cells by
//! what they *compute*, not by their position in the grid.
//!
//! Every decoding path is total. A corrupt base, a complete-but-corrupt
//! frame, version skew, or a fingerprint mismatch is rejected with a typed
//! [`JournalError`] — never a panic and never a fabricated or altered
//! record. Only an *incomplete trailing frame* (the signature a kill
//! leaves) is dropped silently, because it is indistinguishable from — and
//! semantically identical to — an append that never returned.

use crate::sweep::{CellOutcome, CellReport, CellSpec, SweepSpec};
use memfwd::{fnv1a64, RunStats};
use memfwd_apps::Scale;
use memfwd_tagmem::{SnapCodecError, SnapDecoder, SnapEncoder};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

/// Leading magic of every campaign journal.
pub const JOURNAL_MAGIC: [u8; 8] = *b"MFWDJRNL";

/// Current journal format version. Bumped on any layout change; old
/// versions are rejected with [`JournalError::BadVersion`], never
/// misinterpreted. Version 2 added the incremental frame tail; version 3
/// extended the embedded `RunStats` codec with the epoch-execution block
/// and version 4 removed it again.
pub const JOURNAL_VERSION: u32 = 4;

/// Leading magic of every append frame in the tail.
pub const FRAME_MAGIC: [u8; 4] = *b"MFJF";

const HEADER_BYTES: usize = 28;
const FRAME_HEADER_BYTES: usize = 16;

/// Compaction floor: the tail is never compacted before it holds this
/// many records, so small journals don't churn and the threshold test
/// `tail >= max(floor, base)` grows geometrically for large ones.
pub const COMPACT_MIN_TAIL: usize = 64;

/// Why a journal was rejected or an operation on it failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JournalError {
    /// The file ends before the header or the declared payload does.
    Truncated,
    /// The file does not start with [`JOURNAL_MAGIC`].
    BadMagic,
    /// The file was written by a different format version.
    BadVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The payload checksum does not match the header (bit rot or a torn
    /// write that somehow survived the atomic rename).
    BadChecksum,
    /// The payload is internally inconsistent (an invalid tag, length,
    /// duplicate key, or value).
    BadValue,
    /// The journal was written for a different campaign (sweep spec).
    CampaignMismatch,
    /// A filesystem operation failed while reading or writing the file.
    Io(std::io::ErrorKind),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            JournalError::Truncated => write!(f, "journal truncated"),
            JournalError::BadMagic => write!(f, "not a memfwd campaign journal (bad magic)"),
            JournalError::BadVersion { found } => write!(
                f,
                "journal format version {found} (this build reads {JOURNAL_VERSION})"
            ),
            JournalError::BadChecksum => write!(f, "journal checksum mismatch"),
            JournalError::BadValue => write!(f, "journal payload is inconsistent"),
            JournalError::CampaignMismatch => {
                write!(f, "journal belongs to a different campaign (sweep spec)")
            }
            JournalError::Io(kind) => write!(f, "journal I/O error: {kind}"),
        }
    }
}

impl Error for JournalError {}

impl From<SnapCodecError> for JournalError {
    fn from(e: SnapCodecError) -> Self {
        match e {
            SnapCodecError::Truncated => JournalError::Truncated,
            SnapCodecError::BadValue => JournalError::BadValue,
        }
    }
}

/// Content hash of one cell's configuration: the journal key. Covers the
/// full cell spec *and* the scale — any knob that changes what the cell
/// computes changes the key and voids the journaled result.
pub fn cell_key(scale: Scale, spec: &CellSpec) -> u64 {
    fnv1a64(format!("{scale:?}|{spec:?}").as_bytes())
}

/// Content hash of the whole campaign: the sweep spec's full `Debug`
/// rendering (axes, order, scale). A journal opens only under the exact
/// campaign it was created for.
pub fn campaign_fingerprint(spec: &SweepSpec) -> u64 {
    fnv1a64(format!("{spec:?}").as_bytes())
}

/// One terminal cell outcome, as stored in the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// The cell's [`cell_key`].
    pub key: u64,
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// Total attempts made.
    pub attempts: u32,
    /// The last failure's description, if any attempt failed.
    pub error: Option<String>,
    /// The simulated result, present iff `outcome.is_completed()`:
    /// `(checksum, refs, host_nanos, stats)`.
    pub sim: Option<(u64, u64, u64, RunStats)>,
}

impl JournalRecord {
    /// Builds the journal record for a terminal [`CellReport`].
    pub fn from_report(scale: Scale, report: &CellReport) -> JournalRecord {
        JournalRecord {
            key: cell_key(scale, &report.spec),
            outcome: report.outcome,
            attempts: report.attempts,
            error: report.error.clone(),
            sim: report
                .sim
                .as_ref()
                .map(|r| (r.checksum, r.refs, r.host_nanos, r.stats)),
        }
    }

    /// Reconstitutes the [`CellReport`] for `spec` from this record.
    pub fn to_report(&self, spec: CellSpec) -> CellReport {
        CellReport {
            spec,
            outcome: self.outcome,
            attempts: self.attempts,
            error: self.error.clone(),
            sim: self.sim.map(
                |(checksum, refs, host_nanos, stats)| crate::sweep::CellResult {
                    spec,
                    checksum,
                    refs,
                    host_nanos,
                    stats,
                },
            ),
        }
    }

    fn encode(&self, enc: &mut SnapEncoder) {
        enc.u64(self.key);
        let (tag, n) = match self.outcome {
            CellOutcome::Ok => (0u8, 0u32),
            CellOutcome::Retried(n) => (1, n),
            CellOutcome::Poisoned => (2, 0),
            CellOutcome::TimedOut => (3, 0),
        };
        enc.u8(tag);
        enc.u32(n);
        enc.u32(self.attempts);
        match &self.error {
            Some(e) => {
                enc.bool(true);
                enc.usize(e.len());
                enc.raw(e.as_bytes());
            }
            None => enc.bool(false),
        }
        match &self.sim {
            Some((checksum, refs, host_nanos, stats)) => {
                enc.bool(true);
                enc.u64(*checksum);
                enc.u64(*refs);
                enc.u64(*host_nanos);
                stats.snapshot_encode(enc);
            }
            None => enc.bool(false),
        }
    }

    fn decode(dec: &mut SnapDecoder<'_>) -> Result<JournalRecord, JournalError> {
        let key = dec.u64()?;
        let tag = dec.u8()?;
        let n = dec.u32()?;
        let outcome = match tag {
            0 => CellOutcome::Ok,
            1 => CellOutcome::Retried(n),
            2 => CellOutcome::Poisoned,
            3 => CellOutcome::TimedOut,
            _ => return Err(JournalError::BadValue),
        };
        if tag != 1 && n != 0 {
            return Err(JournalError::BadValue);
        }
        let attempts = dec.u32()?;
        if attempts == 0 {
            return Err(JournalError::BadValue);
        }
        let error = if dec.bool()? {
            let len = dec.usize()?;
            let bytes = dec.raw(len)?;
            Some(String::from_utf8(bytes.to_vec()).map_err(|_| JournalError::BadValue)?)
        } else {
            None
        };
        let sim = if dec.bool()? {
            let checksum = dec.u64()?;
            let refs = dec.u64()?;
            let host_nanos = dec.u64()?;
            let stats = RunStats::snapshot_decode(dec)?;
            Some((checksum, refs, host_nanos, stats))
        } else {
            None
        };
        if outcome.is_completed() != sim.is_some() {
            return Err(JournalError::BadValue);
        }
        Ok(JournalRecord {
            key,
            outcome,
            attempts,
            error,
            sim,
        })
    }
}

/// The in-memory view of a campaign journal, bound to its on-disk file.
/// Every [`Journal::append`] durably seals the record on disk before
/// returning — as one incremental frame, or as part of a compacted base.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    fingerprint: u64,
    records: Vec<JournalRecord>,
    index: HashMap<u64, usize>,
    /// How many leading `records` live in the sealed base image (the rest
    /// are tail frames).
    base_records: usize,
    /// Length of the valid (base + intact frames) region of the file. A
    /// torn tail found at load time sits beyond this and is truncated away
    /// by the next append.
    file_len: u64,
    /// Tail-size floor below which compaction never runs.
    compact_min_tail: usize,
}

impl Journal {
    /// Creates a new, empty journal for the campaign identified by
    /// `fingerprint` and durably writes the empty image to `path`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the write fails.
    pub fn create(path: &Path, fingerprint: u64) -> Result<Journal, JournalError> {
        let mut j = Journal {
            path: path.to_path_buf(),
            fingerprint,
            records: Vec::new(),
            index: HashMap::new(),
            base_records: 0,
            file_len: 0,
            compact_min_tail: COMPACT_MIN_TAIL,
        };
        j.compact()?;
        Ok(j)
    }

    /// Loads an existing journal, verifying the container and that it
    /// belongs to the campaign identified by `fingerprint`.
    ///
    /// # Errors
    ///
    /// Any [`JournalError`]: a corrupt base, a complete-but-corrupt frame,
    /// or a foreign journal is rejected — partial records are never
    /// surfaced. An incomplete trailing frame (a torn append) is dropped,
    /// exactly as if the kill had landed a moment earlier.
    pub fn load(path: &Path, fingerprint: u64) -> Result<Journal, JournalError> {
        let bytes = std::fs::read(path).map_err(|e| JournalError::Io(e.kind()))?;
        let decoded = decode_journal_ex(&bytes, fingerprint)?;
        let mut index = HashMap::with_capacity(decoded.records.len());
        for (i, r) in decoded.records.iter().enumerate() {
            if index.insert(r.key, i).is_some() {
                return Err(JournalError::BadValue);
            }
        }
        Ok(Journal {
            path: path.to_path_buf(),
            fingerprint,
            records: decoded.records,
            index,
            base_records: decoded.base_records,
            file_len: decoded.valid_len,
            compact_min_tail: COMPACT_MIN_TAIL,
        })
    }

    /// Overrides the compaction floor (default [`COMPACT_MIN_TAIL`]).
    /// `usize::MAX` disables compaction entirely; small values force it —
    /// both are test knobs, the default is right for campaigns.
    pub fn with_compact_min_tail(mut self, floor: usize) -> Journal {
        self.compact_min_tail = floor;
        self
    }

    /// The journaled record for `key`, if that cell already reached a
    /// terminal outcome in a previous (or the current) supervisor run.
    pub fn get(&self, key: u64) -> Option<&JournalRecord> {
        self.index.get(&key).map(|&i| &self.records[i])
    }

    /// Number of journaled cells.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records in append order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Appends a terminal cell outcome and durably seals it on disk
    /// before returning: once `append` returns, the record survives any
    /// crash. The common path writes one [`FRAME_MAGIC`] frame after the
    /// base; once the tail reaches `max(compact_min_tail, base_records)`
    /// the file is compacted into a fresh base via tmp + atomic rename.
    ///
    /// # Errors
    ///
    /// [`JournalError::BadValue`] if `record.key` is already journaled
    /// (a supervisor bug — cells reach exactly one terminal outcome), or
    /// [`JournalError::Io`] if the frame write fails. On error the
    /// in-memory and on-disk state both still hold the pre-append
    /// records. A failed *compaction* is not an error: the record is
    /// already sealed as a frame, and compaction simply retries on a
    /// later append.
    pub fn append(&mut self, record: JournalRecord) -> Result<(), JournalError> {
        if self.index.contains_key(&record.key) {
            return Err(JournalError::BadValue);
        }
        self.append_frame(&record)?;
        self.records.push(record);
        let i = self.records.len() - 1;
        self.index.insert(self.records[i].key, i);
        let tail = self.records.len() - self.base_records;
        if tail >= self.compact_min_tail.max(self.base_records) {
            // Best-effort: the frame already made the record durable.
            let _ = self.compact();
        }
        Ok(())
    }

    /// Serializes the current records into a fully compacted sealed
    /// journal image (a base with an empty frame tail).
    pub fn encode(&self) -> Vec<u8> {
        encode_base(self.fingerprint, &self.records)
    }

    /// Writes one sealed frame at `file_len`, truncating any torn tail a
    /// previous kill left beyond it, and extends `file_len` on success.
    fn append_frame(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        let mut enc = SnapEncoder::new();
        record.encode(&mut enc);
        let payload = enc.into_bytes();
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        frame.extend_from_slice(&FRAME_MAGIC);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        use std::io::{Seek, SeekFrom, Write};
        let io = |e: std::io::Error| JournalError::Io(e.kind());
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(io)?;
        f.set_len(self.file_len).map_err(io)?;
        f.seek(SeekFrom::Start(self.file_len)).map_err(io)?;
        f.write_all(&frame).map_err(io)?;
        self.file_len += frame.len() as u64;
        Ok(())
    }

    /// Rewrites the whole file as a sealed base image via tmp + atomic
    /// rename (the PR-2 snapshot discipline): a kill during compaction
    /// leaves either the old file or the new one, both valid.
    fn compact(&mut self) -> Result<(), JournalError> {
        let bytes = self.encode();
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, &bytes).map_err(|e| JournalError::Io(e.kind()))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| JournalError::Io(e.kind()))?;
        self.base_records = self.records.len();
        self.file_len = bytes.len() as u64;
        Ok(())
    }
}

fn encode_base(fingerprint: u64, records: &[JournalRecord]) -> Vec<u8> {
    let mut enc = SnapEncoder::new();
    enc.u64(fingerprint);
    enc.usize(records.len());
    for r in records {
        r.encode(&mut enc);
    }
    let payload = enc.into_bytes();
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&JOURNAL_MAGIC);
    out.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

pub(crate) struct DecodedJournal {
    pub records: Vec<JournalRecord>,
    /// How many of `records` came from the base image.
    pub base_records: usize,
    /// Byte length of the valid region (base + intact frames); anything
    /// beyond is a dropped torn tail.
    pub valid_len: u64,
}

/// Validates a journal image and decodes its records. See
/// [`decode_journal`] for the contract.
pub(crate) fn decode_journal_ex(
    bytes: &[u8],
    fingerprint: u64,
) -> Result<DecodedJournal, JournalError> {
    // Base image. Check order mirrors the snapshot container: length,
    // magic, version (before the checksum, so skew is reported as such),
    // declared payload length, checksum, fingerprint, records.
    if bytes.len() < HEADER_BYTES {
        return Err(JournalError::Truncated);
    }
    if bytes[0..8] != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != JOURNAL_VERSION {
        return Err(JournalError::BadVersion { found: version });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    if ((bytes.len() - HEADER_BYTES) as u64) < len {
        return Err(JournalError::Truncated);
    }
    let base_end = HEADER_BYTES + len as usize;
    let payload = &bytes[HEADER_BYTES..base_end];
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    if fnv1a64(payload) != checksum {
        return Err(JournalError::BadChecksum);
    }
    let mut dec = SnapDecoder::new(payload);
    if dec.u64()? != fingerprint {
        return Err(JournalError::CampaignMismatch);
    }
    let n = dec.usize()?;
    // Each record is at least key + tag + retries + attempts + 2 bools.
    if n > payload.len() / 19 {
        return Err(JournalError::BadValue);
    }
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        records.push(JournalRecord::decode(&mut dec)?);
    }
    if !dec.is_exhausted() {
        return Err(JournalError::BadValue);
    }
    let base_records = records.len();

    // Frame tail. A frame that is *present in full but corrupt* (bad
    // magic over ≥4 bytes, bad checksum, bad record) is a typed error; a
    // frame that simply *ends early* is the torn in-flight append a kill
    // leaves and is dropped at the last sealed boundary.
    let mut off = base_end;
    loop {
        let rem = &bytes[off..];
        if rem.is_empty() {
            break;
        }
        if rem.len() >= 4 && rem[0..4] != FRAME_MAGIC {
            return Err(JournalError::BadValue);
        }
        if rem.len() < FRAME_HEADER_BYTES {
            break; // torn frame header
        }
        let flen = u32::from_le_bytes(rem[4..8].try_into().expect("4 bytes")) as usize;
        if rem.len() < FRAME_HEADER_BYTES + flen {
            break; // torn frame payload
        }
        let fpayload = &rem[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + flen];
        let fsum = u64::from_le_bytes(rem[8..16].try_into().expect("8 bytes"));
        if fnv1a64(fpayload) != fsum {
            return Err(JournalError::BadChecksum);
        }
        let mut fdec = SnapDecoder::new(fpayload);
        let record = JournalRecord::decode(&mut fdec)?;
        if !fdec.is_exhausted() {
            return Err(JournalError::BadValue);
        }
        records.push(record);
        off += FRAME_HEADER_BYTES + flen;
    }

    Ok(DecodedJournal {
        records,
        base_records,
        valid_len: off as u64,
    })
}

/// Validates a journal image and decodes its records: the sealed base,
/// then every intact tail frame.
///
/// # Errors
///
/// Any [`JournalError`]. A corrupt base rejects the image wholesale; a
/// complete-but-corrupt frame rejects it from that frame on with a typed
/// error. Only an incomplete trailing frame — the torn in-flight append a
/// kill leaves — is dropped silently, yielding exactly the records whose
/// appends had returned.
pub fn decode_journal(bytes: &[u8], fingerprint: u64) -> Result<Vec<JournalRecord>, JournalError> {
    decode_journal_ex(bytes, fingerprint).map(|d| d.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{CellResult, SweepSpec};
    use memfwd_apps::{App, Variant};

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("memfwd-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    fn sample_cell() -> CellSpec {
        CellSpec {
            app: App::Mst,
            variant: Variant::Optimized,
            line_bytes: 32,
            mem_latency: 75,
            seed: 12345,
        }
    }

    fn sample_records(scale: Scale) -> Vec<JournalRecord> {
        let spec = sample_cell();
        let mut stats = RunStats::default();
        stats.pipeline.cycles = 777;
        stats.fwd.loads = 41;
        stats.fwd.stores = 1;
        let ok = CellReport::completed(CellResult {
            spec,
            checksum: 0xABCD,
            stats,
            refs: 42,
            host_nanos: 5,
        });
        let poisoned = CellReport {
            spec: CellSpec {
                app: App::Vis,
                ..spec
            },
            outcome: CellOutcome::Poisoned,
            attempts: 3,
            sim: None,
            error: Some("panic: injected".to_string()),
        };
        vec![
            JournalRecord::from_report(scale, &ok),
            JournalRecord::from_report(scale, &poisoned),
        ]
    }

    #[test]
    fn create_append_load_roundtrip() {
        let path = tmp_path("roundtrip.mfj");
        let fp = campaign_fingerprint(&SweepSpec::default());
        let mut j = Journal::create(&path, fp).expect("create");
        for r in sample_records(Scale::Smoke) {
            j.append(r).expect("append");
        }
        let loaded = Journal::load(&path, fp).expect("load");
        assert_eq!(loaded.records(), j.records());
        let key = cell_key(Scale::Smoke, &sample_cell());
        let rec = loaded.get(key).expect("journaled cell found");
        assert_eq!(rec.outcome, CellOutcome::Ok);
        let report = rec.to_report(sample_cell());
        assert_eq!(report.sim.expect("completed").checksum, 0xABCD);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_key_append_is_rejected() {
        let path = tmp_path("dup.mfj");
        let mut j = Journal::create(&path, 1).expect("create");
        let recs = sample_records(Scale::Smoke);
        j.append(recs[0].clone()).expect("first append");
        assert_eq!(j.append(recs[0].clone()), Err(JournalError::BadValue));
        assert_eq!(j.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn campaign_mismatch_is_typed() {
        let path = tmp_path("mismatch.mfj");
        Journal::create(&path, 1).expect("create");
        assert!(matches!(
            Journal::load(&path, 2),
            Err(JournalError::CampaignMismatch)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cell_key_covers_scale_and_every_axis() {
        let spec = sample_cell();
        let base = cell_key(Scale::Smoke, &spec);
        assert_ne!(base, cell_key(Scale::Bench, &spec));
        assert_ne!(
            base,
            cell_key(
                Scale::Smoke,
                &CellSpec {
                    seed: spec.seed + 1,
                    ..spec
                }
            )
        );
        assert_ne!(
            base,
            cell_key(
                Scale::Smoke,
                &CellSpec {
                    line_bytes: 64,
                    ..spec
                }
            )
        );
    }

    #[test]
    fn base_truncation_is_typed_at_every_length() {
        let img = encode_base(7, &sample_records(Scale::Smoke));
        for len in [0, 7, 11, 19, 27, HEADER_BYTES, img.len() / 2, img.len() - 1] {
            let r = decode_journal(&img[..len], 7);
            assert!(
                matches!(r, Err(JournalError::Truncated)),
                "len {len}: {r:?}"
            );
        }
    }

    #[test]
    fn version_skew_and_bad_magic_are_typed() {
        // Includes the previous version: a journal from an older build is
        // rejected as typed skew, never decoded under the new layout.
        for found in [JOURNAL_VERSION - 1, 99] {
            let mut img = encode_base(7, &[]);
            img[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                decode_journal(&img, 7),
                Err(JournalError::BadVersion { found })
            );
        }
        let mut img = encode_base(7, &[]);
        img[0] = b'X';
        assert_eq!(decode_journal(&img, 7), Err(JournalError::BadMagic));
    }

    /// The incremental path: appends past the base are frames, a torn
    /// trailing frame decodes to exactly the sealed prefix, and a
    /// complete-but-corrupt frame is a typed rejection.
    #[test]
    fn frame_tail_torn_and_corrupt_semantics() {
        let path = tmp_path("frames.mfj");
        let mut j = Journal::create(&path, 7)
            .expect("create")
            .with_compact_min_tail(usize::MAX);
        let recs = sample_records(Scale::Smoke);
        let base_len = std::fs::metadata(&path).expect("meta").len() as usize;
        j.append(recs[0].clone()).expect("append 0");
        let after_one = std::fs::read(&path).expect("read");
        j.append(recs[1].clone()).expect("append 1");
        let img = std::fs::read(&path).expect("read");
        assert!(img.len() > after_one.len() && after_one.len() > base_len);
        assert_eq!(&img[..after_one.len()], &after_one[..], "append-only tail");

        // Full image: both records.
        assert_eq!(decode_journal(&img, 7).expect("full"), recs);
        // Any cut inside the second frame: exactly the first record.
        for cut in after_one.len()..img.len() {
            let got = decode_journal(&img[..cut], 7).expect("torn tail is sealed prefix");
            assert_eq!(got, recs[..1], "cut {cut}");
        }
        // A bit flip inside a *complete* frame payload is typed, not a
        // silent drop.
        let mut flipped = img.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(decode_journal(&flipped, 7), Err(JournalError::BadChecksum));
        // Garbage that cannot be a frame prefix is typed.
        let mut garbage = img.clone();
        garbage.extend_from_slice(b"XXXXXXXX");
        assert_eq!(decode_journal(&garbage, 7), Err(JournalError::BadValue));
        std::fs::remove_file(&path).ok();
    }

    /// Compaction folds the tail back into the base without changing the
    /// decoded records, and keeps the file near one base image in size.
    #[test]
    fn compaction_preserves_records_and_bounds_file() {
        let path = tmp_path("compact.mfj");
        let mut j = Journal::create(&path, 7)
            .expect("create")
            .with_compact_min_tail(2);
        let mut expect = Vec::new();
        for i in 0..32u64 {
            let mut r = sample_records(Scale::Smoke)[0].clone();
            r.key = i;
            expect.push(r.clone());
            j.append(r).expect("append");
        }
        // tail >= max(2, base) compacts: after 32 appends at floor 2 the
        // file must have been rewritten at least once (pure frames would
        // be much longer than a compacted base + small tail).
        let on_disk = std::fs::read(&path).expect("read");
        let pure_base = encode_base(7, &expect);
        assert!(
            on_disk.len() < pure_base.len() + pure_base.len() / 2,
            "file {} not compacted vs base {}",
            on_disk.len(),
            pure_base.len()
        );
        assert_eq!(decode_journal(&on_disk, 7).expect("decode"), expect);
        let loaded = Journal::load(&path, 7).expect("load");
        assert_eq!(loaded.records(), &expect[..]);
        std::fs::remove_file(&path).ok();
    }

    /// A torn tail found at load time is truncated by the next append,
    /// never resurrected.
    #[test]
    fn append_over_torn_tail_truncates_it() {
        let path = tmp_path("torn-append.mfj");
        let recs = sample_records(Scale::Smoke);
        {
            let mut j = Journal::create(&path, 7)
                .expect("create")
                .with_compact_min_tail(usize::MAX);
            j.append(recs[0].clone()).expect("append");
        }
        // Simulate a kill mid-append: half a frame of the second record.
        let sealed = std::fs::read(&path).expect("read");
        let mut torn = sealed.clone();
        torn.extend_from_slice(&FRAME_MAGIC);
        torn.extend_from_slice(&(u32::MAX).to_le_bytes());
        std::fs::write(&path, &torn).expect("write torn");

        let mut j = Journal::load(&path, 7)
            .expect("load over torn tail")
            .with_compact_min_tail(usize::MAX);
        assert_eq!(j.records(), &recs[..1]);
        j.append(recs[1].clone()).expect("append over torn tail");
        let img = std::fs::read(&path).expect("read");
        assert_eq!(&img[..sealed.len()], &sealed[..]);
        assert_eq!(decode_journal(&img, 7).expect("decode"), recs);
        std::fs::remove_file(&path).ok();
    }
}
