//! Crash-safe machine snapshots: a versioned, checksummed binary image of
//! the complete simulator state.
//!
//! A snapshot captures *everything* that determines the rest of a run —
//! tagged memory including per-word forwarding bits, the heap allocator,
//! the cache hierarchy with MSHR and bus state, the pipeline and
//! graduation accountant, the speculation queue, all statistics counters,
//! the trace buffer, the paging layer, the fault-injection RNG stream, and
//! the watchdog's sliding hop window — plus an application *cursor*
//! (opaque `u64` words owned by the checkpointing harness in
//! `memfwd_apps`). Restoring a snapshot and running to completion is
//! bit-identical to never having stopped: same outputs, same `RunStats`.
//!
//! The only machine state deliberately **not** captured is the registered
//! supervisor [`crate::trap::FaultHandler`] (an arbitrary closure cannot be
//! serialized); a restored machine has no handler until the application
//! re-registers one.
//!
//! # Container format
//!
//! ```text
//! [ 0..  8)  magic  b"MFWDSNAP"
//! [ 8.. 12)  format version, u32 little-endian
//! [12.. 20)  payload length, u64 little-endian
//! [20.. 28)  FNV-1a-64 checksum of the payload
//! [28..   )  payload
//! ```
//!
//! The payload begins with a fingerprint of the full `Debug` rendering of
//! the simulation configuration, so a snapshot can never be silently
//! restored under different machine parameters. Every decoding path is
//! *total*: truncated, bit-flipped, version-skewed, or fingerprint-mismatched
//! images are rejected with a typed [`SnapshotError`] — never a panic and
//! never a silently divergent machine.

use crate::config::SimConfig;
use crate::inject::Injector;
use crate::machine::Machine;
use crate::paging::PageCache;
use crate::smp::{Core, SmpConfig, SmpMachine};
use crate::stats::FwdStats;
use crate::trace::Trace;
use crate::trap::TrapInfo;
use memfwd_cache::{CacheLevel, Hierarchy};
use memfwd_cpu::{Pipeline, SpecQueue};
use memfwd_tagmem::{Addr, Heap, SnapCodecError, SnapDecoder, SnapEncoder, TaggedMemory};
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MFWDSNAP";

/// Current snapshot format version. Bumped on any layout change; old
/// versions are rejected with [`SnapshotError::BadVersion`], never
/// misinterpreted. Version 2 added the epoch-engine counters to the
/// machine payload; version 3 removed them again with the engine; version
/// 4 marks the removal of the scalar-path override from `SimConfig`,
/// whose `Debug` rendering the configuration fingerprint hashes.
pub const SNAPSHOT_VERSION: u32 = 4;

const HEADER_BYTES: usize = 28;

/// Why a snapshot was rejected. Carried inside
/// [`crate::MachineFault::CorruptSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnapshotError {
    /// The image ends before the header or the declared payload does.
    Truncated,
    /// The image does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The image was written by a different format version.
    BadVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The payload checksum does not match the header (bit rot or a torn
    /// write).
    BadChecksum,
    /// The payload is internally inconsistent (an invalid tag, length, or
    /// value).
    BadValue,
    /// The snapshot was written under a different simulation configuration.
    ConfigMismatch,
    /// A filesystem operation failed while reading or writing the image.
    Io(std::io::ErrorKind),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a memfwd snapshot (bad magic)"),
            SnapshotError::BadVersion { found } => {
                write!(
                    f,
                    "snapshot format version {found} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::BadValue => write!(f, "snapshot payload is inconsistent"),
            SnapshotError::ConfigMismatch => {
                write!(f, "snapshot was written under a different configuration")
            }
            SnapshotError::Io(kind) => write!(f, "snapshot I/O error: {kind}"),
        }
    }
}

impl Error for SnapshotError {}

impl From<SnapCodecError> for SnapshotError {
    fn from(e: SnapCodecError) -> Self {
        match e {
            SnapCodecError::Truncated => SnapshotError::Truncated,
            SnapCodecError::BadValue => SnapshotError::BadValue,
        }
    }
}

/// FNV-1a 64-bit: small, dependency-free, and plenty for detecting torn
/// writes and bit rot (crash safety, not adversarial integrity). Shared by
/// snapshots, the farm's journal and result cells, and the golden tests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a configuration: FNV-1a over its full `Debug` rendering.
/// Any field change — cache geometry, penalties, injection campaign,
/// watchdog bounds — changes the fingerprint and voids old snapshots.
fn fingerprint(rendered: &str) -> u64 {
    fnv1a64(rendered.as_bytes())
}

/// Wraps a payload in the versioned, checksummed container.
fn seal(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates the container and returns the payload. Check order: length,
/// magic, version (before the checksum, so a version skew is reported as
/// such), declared payload length, checksum.
fn open(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < HEADER_BYTES {
        return Err(SnapshotError::Truncated);
    }
    if bytes[0..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion { found: version });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_BYTES..];
    if (payload.len() as u64) < len {
        return Err(SnapshotError::Truncated);
    }
    if (payload.len() as u64) > len {
        // Trailing garbage is as suspect as missing bytes.
        return Err(SnapshotError::BadValue);
    }
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    if fnv1a64(payload) != checksum {
        return Err(SnapshotError::BadChecksum);
    }
    Ok(payload)
}

// ---------------------------------------------------------------------
// Component codecs living in this crate. The statistics codecs live on
// the stats types themselves ([`FwdStats::snapshot_encode`]) so the farm
// crate can reuse them for its worker protocol and campaign journal.
// ---------------------------------------------------------------------

fn encode_machine(enc: &mut SnapEncoder, m: &Machine) {
    m.mem.snapshot_encode(enc);
    m.heap.snapshot_encode(enc);
    m.hier.snapshot_encode(enc);
    m.pipe.snapshot_encode(enc);
    m.spec.snapshot_encode(enc);
    m.stats.snapshot_encode(enc);
    enc.bool(m.traps_enabled);
    enc.seq(m.trap_log.iter(), |e, t| {
        e.addr(t.initial);
        e.addr(t.final_addr);
        e.u32(t.hops);
        e.bool(t.is_store);
    });
    enc.u64(m.last_store_resolve);
    enc.bool(m.pages.is_some());
    if let Some(p) = m.pages.as_ref() {
        p.snapshot_encode(enc);
    }
    enc.seq(m.store_buf.iter(), |e, &d| e.u64(d));
    enc.bool(m.trace.is_some());
    if let Some(t) = m.trace.as_ref() {
        t.snapshot_encode(enc);
    }
    enc.bool(m.injector.is_some());
    if let Some(inj) = m.injector.as_ref() {
        inj.snapshot_encode(enc);
    }
    enc.seq(m.walk_hops_window.iter(), |e, &h| e.u64(h));
}

fn decode_machine(dec: &mut SnapDecoder<'_>, cfg: SimConfig) -> Result<Machine, SnapshotError> {
    let mem = TaggedMemory::snapshot_decode(dec)?;
    let heap = Heap::snapshot_decode(dec)?;
    let hier = Hierarchy::snapshot_decode(dec, cfg.hierarchy)?;
    let pipe = Pipeline::snapshot_decode(dec, cfg.pipeline)?;
    let spec = SpecQueue::snapshot_decode(dec)?;
    let stats = FwdStats::snapshot_decode(dec)?;
    let traps_enabled = dec.bool()?;
    let n_traps = dec.seq_len(21)?;
    let mut trap_log = Vec::with_capacity(n_traps);
    for _ in 0..n_traps {
        trap_log.push(TrapInfo {
            initial: dec.addr()?,
            final_addr: dec.addr()?,
            hops: dec.u32()?,
            is_store: dec.bool()?,
        });
    }
    let last_store_resolve = dec.u64()?;
    let has_pages = dec.bool()?;
    if has_pages != cfg.paging.is_some() {
        return Err(SnapshotError::ConfigMismatch);
    }
    let pages = match cfg.paging.filter(|_| has_pages) {
        Some(pcfg) => Some(PageCache::snapshot_decode(dec, pcfg)?),
        None => None,
    };
    let n_buf = dec.seq_len(8)?;
    let mut store_buf = VecDeque::with_capacity(n_buf);
    for _ in 0..n_buf {
        store_buf.push_back(dec.u64()?);
    }
    let trace = if dec.bool()? {
        Some(Trace::snapshot_decode(dec)?)
    } else {
        None
    };
    let has_injector = dec.bool()?;
    if has_injector != cfg.fault_injection.is_some() {
        return Err(SnapshotError::ConfigMismatch);
    }
    let injector = match cfg.fault_injection.filter(|_| has_injector) {
        Some(icfg) => Some(Injector::snapshot_decode(dec, icfg)?),
        None => None,
    };
    let n_window = dec.seq_len(8)?;
    let mut walk_hops_window = VecDeque::with_capacity(n_window);
    let mut walk_hops_sum = 0u64;
    for _ in 0..n_window {
        let h = dec.u64()?;
        walk_hops_sum = walk_hops_sum
            .checked_add(h)
            .ok_or(SnapCodecError::BadValue)?;
        walk_hops_window.push_back(h);
    }
    Ok(Machine {
        cfg,
        mem,
        heap,
        hier,
        pipe,
        spec,
        stats,
        traps_enabled,
        trap_log,
        last_store_resolve,
        pages,
        store_buf,
        trace,
        fault_handler: None,
        injector,
        walk_hops_window,
        walk_hops_sum,
        walk_scratch: Vec::new(),
    })
}

// ---------------------------------------------------------------------
// Public API: uniprocessor machine.
// ---------------------------------------------------------------------

/// Serializes `m` and an opaque application `cursor` into a sealed
/// snapshot image. The registered fault handler, if any, is not captured
/// (see the module documentation).
pub fn save_machine(m: &Machine, cursor: &[u64]) -> Vec<u8> {
    let mut enc = SnapEncoder::new();
    enc.u64(fingerprint(&format!("{:?}", m.cfg)));
    enc.u8(0); // flavor: uniprocessor
    encode_machine(&mut enc, m);
    enc.seq(cursor.iter(), |e, &w| e.u64(w));
    seal(enc.into_bytes())
}

/// Restores a machine and its application cursor from a snapshot image.
///
/// The caller supplies the configuration the run is being resumed under;
/// it must fingerprint-match the one the snapshot was written with.
///
/// # Errors
///
/// Any [`SnapshotError`]: the image is rejected wholesale — a partially
/// restored machine is never returned.
pub fn restore_machine(bytes: &[u8], cfg: SimConfig) -> Result<(Machine, Vec<u64>), SnapshotError> {
    let payload = open(bytes)?;
    let mut dec = SnapDecoder::new(payload);
    if dec.u64()? != fingerprint(&format!("{cfg:?}")) {
        return Err(SnapshotError::ConfigMismatch);
    }
    if dec.u8()? != 0 {
        return Err(SnapshotError::BadValue);
    }
    let m = decode_machine(&mut dec, cfg)?;
    let n = dec.seq_len(8)?;
    let mut cursor = Vec::with_capacity(n);
    for _ in 0..n {
        cursor.push(dec.u64()?);
    }
    if !dec.is_exhausted() {
        return Err(SnapshotError::BadValue);
    }
    Ok((m, cursor))
}

/// Validates a uniprocessor snapshot's container and configuration
/// fingerprint *without* decoding the machine payload.
///
/// This is the cheap up-front check a resuming driver runs before
/// committing to a restore: a config-skewed or corrupt image is rejected
/// in microseconds instead of being discovered deep inside the run.
/// Passing this check does not guarantee the payload decodes — it
/// guarantees the image is a well-formed, checksummed snapshot written
/// under exactly this configuration.
///
/// # Errors
///
/// Any container-level [`SnapshotError`], [`SnapshotError::ConfigMismatch`]
/// if the fingerprint differs, or [`SnapshotError::BadValue`] if the image
/// is not a uniprocessor snapshot.
pub fn check_snapshot_config(bytes: &[u8], cfg: &SimConfig) -> Result<(), SnapshotError> {
    let payload = open(bytes)?;
    let mut dec = SnapDecoder::new(payload);
    if dec.u64()? != fingerprint(&format!("{cfg:?}")) {
        return Err(SnapshotError::ConfigMismatch);
    }
    if dec.u8()? != 0 {
        return Err(SnapshotError::BadValue);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Public API: SMP machine.
// ---------------------------------------------------------------------

fn smp_fingerprint(cfg: &SmpConfig, sim: &SimConfig) -> u64 {
    fingerprint(&format!("{cfg:?}|{sim:?}"))
}

/// Serializes an [`SmpMachine`] and an opaque application `cursor` into a
/// sealed snapshot image.
pub fn save_smp(m: &SmpMachine, cursor: &[u64]) -> Vec<u8> {
    let mut enc = SnapEncoder::new();
    enc.u64(smp_fingerprint(&m.cfg, &m.sim));
    enc.u8(1); // flavor: SMP
    m.mem.snapshot_encode(&mut enc);
    m.heap.snapshot_encode(&mut enc);
    enc.seq(m.cores.iter(), |e, c| {
        c.l1.snapshot_encode(e);
        e.u64(c.now);
        e.u64(c.stats.loads);
        e.u64(c.stats.stores);
        e.u64(c.stats.hits);
        e.u64(c.stats.misses);
        e.u64(c.stats.coherence_misses);
        e.u64(c.stats.false_sharing_misses);
        e.u64(c.stats.forwarded);
        e.u64(c.stats.sb_forwards);
        e.u64(c.stats.sb_drains);
        e.u64(c.stats.fences);
        e.seq(c.sb.iter(), |e, w| match *w {
            crate::smp::SbWrite::Store { addr, size, value } => {
                e.u8(0);
                e.u64(addr.0);
                e.u64(size);
                e.u64(value);
            }
            crate::smp::SbWrite::Copy { addr, value } => {
                e.u8(1);
                e.u64(addr.0);
                e.u64(value);
            }
            crate::smp::SbWrite::Install { word, fwd_to } => {
                e.u8(2);
                e.u64(word.0);
                e.u64(fwd_to.0);
            }
        });
    });
    let mut locks: Vec<(u64, usize)> = m.lock_holders.iter().map(|(&w, &c)| (w, c)).collect();
    locks.sort_unstable();
    enc.seq(locks.into_iter(), |e, (word, holder)| {
        e.u64(word);
        e.usize(holder);
    });
    let mut line_nos: Vec<u64> = m.lines.keys().copied().collect();
    line_nos.sort_unstable();
    enc.usize(line_nos.len());
    for line in line_nos {
        let info = &m.lines[&line];
        enc.u64(line);
        enc.u32(info.sharers);
        enc.bool(info.owner.is_some());
        enc.usize(info.owner.unwrap_or(0));
        let mut touched: Vec<(usize, u64)> = info.touched.iter().map(|(&c, &w)| (c, w)).collect();
        touched.sort_unstable();
        enc.seq(touched.into_iter(), |e, (core, mask)| {
            e.usize(core);
            e.u64(mask);
        });
        enc.u64(info.written);
    }
    enc.bool(m.injector.is_some());
    if let Some(inj) = m.injector.as_ref() {
        inj.snapshot_encode(&mut enc);
    }
    enc.u64(m.injected_faults);
    enc.u64(m.fault_repairs);
    enc.seq(cursor.iter(), |e, &w| e.u64(w));
    seal(enc.into_bytes())
}

/// Restores an [`SmpMachine`] and its application cursor from a snapshot
/// image written by [`save_smp`].
///
/// # Errors
///
/// Any [`SnapshotError`]; the image is rejected wholesale.
pub fn restore_smp(
    bytes: &[u8],
    cfg: SmpConfig,
    sim: SimConfig,
) -> Result<(SmpMachine, Vec<u64>), SnapshotError> {
    let payload = open(bytes)?;
    let mut dec = SnapDecoder::new(payload);
    if dec.u64()? != smp_fingerprint(&cfg, &sim) {
        return Err(SnapshotError::ConfigMismatch);
    }
    if dec.u8()? != 1 {
        return Err(SnapshotError::BadValue);
    }
    let mem = TaggedMemory::snapshot_decode(&mut dec)?;
    let heap = Heap::snapshot_decode(&mut dec)?;
    let n_cores = dec.seq_len(64)?;
    if n_cores != cfg.cores {
        return Err(SnapshotError::ConfigMismatch);
    }
    let mut cores = Vec::with_capacity(n_cores);
    for _ in 0..n_cores {
        let l1 = CacheLevel::snapshot_decode(&mut dec)?;
        let now = dec.u64()?;
        let stats = crate::smp::CoreStats {
            loads: dec.u64()?,
            stores: dec.u64()?,
            hits: dec.u64()?,
            misses: dec.u64()?,
            coherence_misses: dec.u64()?,
            false_sharing_misses: dec.u64()?,
            forwarded: dec.u64()?,
            sb_forwards: dec.u64()?,
            sb_drains: dec.u64()?,
            fences: dec.u64()?,
        };
        let n_sb = dec.seq_len(16)?;
        let mut sb = std::collections::VecDeque::with_capacity(n_sb);
        for _ in 0..n_sb {
            sb.push_back(match dec.u8()? {
                0 => crate::smp::SbWrite::Store {
                    addr: Addr(dec.u64()?),
                    size: dec.u64()?,
                    value: dec.u64()?,
                },
                1 => crate::smp::SbWrite::Copy {
                    addr: Addr(dec.u64()?),
                    value: dec.u64()?,
                },
                2 => crate::smp::SbWrite::Install {
                    word: Addr(dec.u64()?),
                    fwd_to: Addr(dec.u64()?),
                },
                _ => return Err(SnapshotError::BadValue),
            });
        }
        cores.push(Core { l1, now, stats, sb });
    }
    let n_locks = dec.seq_len(20)?;
    let mut lock_holders = HashMap::with_capacity(n_locks);
    let mut last_lock = None;
    for _ in 0..n_locks {
        let word = dec.u64()?;
        if last_lock.is_some_and(|prev| word <= prev) {
            return Err(SnapshotError::BadValue);
        }
        last_lock = Some(word);
        let holder = dec.usize()?;
        if holder >= n_cores {
            return Err(SnapshotError::BadValue);
        }
        lock_holders.insert(word, holder);
    }
    let n_lines = dec.seq_len(30)?;
    let mut lines = HashMap::with_capacity(n_lines);
    let mut last_line = None;
    for _ in 0..n_lines {
        let line = dec.u64()?;
        if last_line.is_some_and(|prev| line <= prev) {
            return Err(SnapshotError::BadValue);
        }
        last_line = Some(line);
        let sharers = dec.u32()?;
        let has_owner = dec.bool()?;
        let owner_raw = dec.usize()?;
        let owner = if has_owner {
            if owner_raw >= n_cores {
                return Err(SnapshotError::BadValue);
            }
            Some(owner_raw)
        } else {
            None
        };
        let n_touched = dec.seq_len(16)?;
        let mut touched = HashMap::with_capacity(n_touched);
        for _ in 0..n_touched {
            let core = dec.usize()?;
            if core >= n_cores {
                return Err(SnapshotError::BadValue);
            }
            let mask = dec.u64()?;
            if touched.insert(core, mask).is_some() {
                return Err(SnapshotError::BadValue);
            }
        }
        let written = dec.u64()?;
        lines.insert(
            line,
            crate::smp::LineInfo {
                sharers,
                owner,
                touched,
                written,
            },
        );
    }
    let has_injector = dec.bool()?;
    if has_injector != sim.fault_injection.is_some() {
        return Err(SnapshotError::ConfigMismatch);
    }
    let injector = match sim.fault_injection.filter(|_| has_injector) {
        Some(icfg) => Some(Injector::snapshot_decode(&mut dec, icfg)?),
        None => None,
    };
    let injected_faults = dec.u64()?;
    let fault_repairs = dec.u64()?;
    let n = dec.seq_len(8)?;
    let mut cursor = Vec::with_capacity(n);
    for _ in 0..n {
        cursor.push(dec.u64()?);
    }
    if !dec.is_exhausted() {
        return Err(SnapshotError::BadValue);
    }
    Ok((
        SmpMachine {
            cfg,
            sim,
            mem,
            heap,
            cores,
            lines,
            lock_holders,
            injector,
            injected_faults,
            fault_repairs,
            // Like the uniprocessor fault handler, the observational event
            // trace is transient: a restored machine starts untraced.
            events: None,
        },
        cursor,
    ))
}

// ---------------------------------------------------------------------
// Atomic file I/O.
// ---------------------------------------------------------------------

/// Writes a snapshot image to `path` atomically: the bytes land in a
/// sibling `.tmp` file first and are renamed into place, so a crash
/// mid-write can never leave a half-written image under the final name.
///
/// # Errors
///
/// [`SnapshotError::Io`] with the underlying error kind.
pub fn write_snapshot_file(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| SnapshotError::Io(e.kind()))?;
    std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(e.kind()))
}

/// Reads a snapshot image from `path`.
///
/// # Errors
///
/// [`SnapshotError::Io`] with the underlying error kind.
pub fn read_snapshot_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    std::fs::read(path).map_err(|e| SnapshotError::Io(e.kind()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memfwd_cpu::Token;
    use memfwd_tagmem::Addr;

    /// A machine with non-trivial state in every subsystem.
    fn busy_machine() -> Machine {
        let mut m = Machine::new(SimConfig::default());
        let a = m.malloc(256);
        let b = m.malloc(256);
        m.store(a, 8, 0xDEAD);
        m.store(b + 8, 4, 7);
        m.unforwarded_write(a + 16, (b + 16).0, true);
        m.set_traps_enabled(true);
        m.load(a + 16, 8); // forwarded: records a trap
        m.enable_trace(64);
        let (_, t) = m.load_word_dep(a, Token::ready());
        m.store_dep(b, 8, 3, t);
        m
    }

    #[test]
    fn machine_roundtrip_is_byte_stable() {
        let m = busy_machine();
        let cursor = vec![1, 2, 3, 0xFFFF_FFFF_FFFF_FFFF];
        let img = save_machine(&m, &cursor);
        let (m2, cursor2) = restore_machine(&img, *m.config()).expect("restore");
        assert_eq!(cursor2, cursor);
        // Byte-stability: re-saving the restored machine reproduces the
        // identical image, so every field round-tripped exactly.
        assert_eq!(save_machine(&m2, &cursor2), img);
    }

    #[test]
    fn restored_machine_continues_identically() {
        let make = || {
            let mut m = Machine::new(SimConfig::default());
            let a = m.malloc(128);
            for i in 0..8 {
                m.store(a + i * 8, 8, i);
            }
            (m, a)
        };
        let (m_cont, a) = make();
        let (m_stop, _) = make();
        let img = save_machine(&m_stop, &[a.0]);
        drop(m_stop);
        let (mut m_res, cursor) = restore_machine(&img, SimConfig::default()).expect("restore");
        let mut m_cont = m_cont;
        let a2 = Addr(cursor[0]);
        assert_eq!(a2, a);
        for i in 0..8 {
            assert_eq!(m_cont.load(a + i * 8, 8), m_res.load(a2 + i * 8, 8));
        }
        assert_eq!(m_cont.finish(), m_res.finish(), "identical RunStats");
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let img = save_machine(&busy_machine(), &[42]);
        for len in [0, 7, 11, 19, 27, HEADER_BYTES, img.len() / 2, img.len() - 1] {
            let r = restore_machine(&img[..len], SimConfig::default());
            assert!(
                matches!(r, Err(SnapshotError::Truncated)),
                "len {len}: {r:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected_or_roundtrips() {
        // Flip one bit at a selection of offsets across the image; the
        // restore must fail with a typed error (header and checksum cover
        // everything) — never panic, never silently succeed.
        let m = busy_machine();
        let img = save_machine(&m, &[7]);
        for byte in (0..img.len()).step_by(97).chain([8, 20, img.len() - 1]) {
            let mut bad = img.clone();
            bad[byte] ^= 0x10;
            let r = restore_machine(&bad, SimConfig::default());
            assert!(r.is_err(), "flip at byte {byte} must be rejected");
        }
    }

    #[test]
    fn version_skew_is_reported_before_checksum() {
        // Includes the previous version: an image from an older build is
        // rejected as typed skew, never decoded under the new layout.
        for found in [SNAPSHOT_VERSION - 1, 99] {
            let mut img = save_machine(&busy_machine(), &[]);
            img[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                restore_machine(&img, SimConfig::default()).err(),
                Some(SnapshotError::BadVersion { found })
            );
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut img = save_machine(&busy_machine(), &[]);
        img[0] = b'X';
        assert_eq!(
            restore_machine(&img, SimConfig::default()).err(),
            Some(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn config_mismatch_is_typed() {
        let img = save_machine(&busy_machine(), &[]);
        let other = SimConfig::default().with_line_bytes(128);
        assert_eq!(
            restore_machine(&img, other).err(),
            Some(SnapshotError::ConfigMismatch)
        );
    }

    #[test]
    fn check_snapshot_config_agrees_with_restore() {
        let img = save_machine(&busy_machine(), &[]);
        check_snapshot_config(&img, &SimConfig::default()).expect("matching config passes");
        let other = SimConfig::default().with_line_bytes(128);
        assert_eq!(
            check_snapshot_config(&img, &other),
            Err(SnapshotError::ConfigMismatch)
        );
        assert_eq!(
            check_snapshot_config(&img[..10], &SimConfig::default()),
            Err(SnapshotError::Truncated)
        );
        // An SMP image is well-formed but not a uniprocessor snapshot.
        let smp = save_smp(
            &SmpMachine::new(SmpConfig::default(), SimConfig::default()),
            &[],
        );
        assert_eq!(
            check_snapshot_config(&smp, &SimConfig::default()),
            Err(SnapshotError::ConfigMismatch),
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut img = save_machine(&busy_machine(), &[]);
        img.push(0);
        assert_eq!(
            restore_machine(&img, SimConfig::default()).err(),
            Some(SnapshotError::BadValue)
        );
    }

    #[test]
    fn injector_stream_survives_roundtrip() {
        let cfg = SimConfig::default().with_fault_injection(crate::inject::InjectConfig {
            fbit_flip_ppm: 300_000,
            recover: true,
            ..Default::default()
        });
        let mut m = Machine::new(cfg);
        let a = m.malloc(256);
        for i in 0..16 {
            m.store(a + (i % 8) * 8, 8, i);
        }
        let img = save_machine(&m, &[]);
        let (mut m2, _) = restore_machine(&img, cfg).expect("restore");
        // Continue both machines: the injection stream must stay in step.
        for i in 0..16 {
            m.store(a + (i % 8) * 8, 8, i);
            m2.store(a + (i % 8) * 8, 8, i);
        }
        assert_eq!(m.finish(), m2.finish());
    }

    #[test]
    fn smp_roundtrip_is_byte_stable() {
        let cfg = SmpConfig::default();
        let sim = SimConfig::default();
        let mut m = SmpMachine::new(cfg, sim);
        let a = m.malloc(256);
        m.store(0, a, 8, 1);
        m.store(1, a + 8, 8, 2);
        let b = m.malloc(8);
        m.relocate(0, a, b, 1);
        m.barrier();
        let img = save_smp(&m, &[9, 9]);
        let (m2, cursor) = restore_smp(&img, cfg, sim).expect("restore");
        assert_eq!(cursor, vec![9, 9]);
        assert_eq!(save_smp(&m2, &cursor), img);
    }

    #[test]
    fn smp_tso_roundtrip_preserves_pending_buffers_and_locks() {
        let cfg = SmpConfig::default();
        let sim = SimConfig::default().with_memory_model(crate::config::MemoryModel::Tso);
        let mut m = SmpMachine::new(cfg, sim);
        let a = m.malloc(256);
        m.lock(0, a + 128); // held lock survives the image (drains on entry)
        m.store(0, a, 8, 1); // pending demand store
        let b = m.malloc(8);
        m.relocate(1, a + 64, b, 1); // pending copy + fbit install
        let img = save_smp(&m, &[3]);
        let (mut m2, cursor) = restore_smp(&img, cfg, sim).expect("restore");
        assert_eq!(cursor, vec![3]);
        assert_eq!(save_smp(&m2, &cursor), img, "byte-stable round trip");
        assert_eq!(m2.store_buffer_depth(0), 1);
        assert_eq!(m2.store_buffer_depth(1), 2);
        // Draining the restored machine publishes exactly the pending work.
        m2.barrier();
        assert_eq!(m2.load(1, a, 8), 1);
        assert_eq!(m2.load(0, a + 64, 8), m2.load(0, b, 8));
        m2.unlock(0, a + 128);
    }

    #[test]
    fn smp_restore_rejects_sb_image_under_other_model() {
        // The fingerprint covers `memory_model`, so a TSO image (with
        // pending buffer entries) cannot be restored into an SC machine.
        let cfg = SmpConfig::default();
        let tso = SimConfig::default().with_memory_model(crate::config::MemoryModel::Tso);
        let mut m = SmpMachine::new(cfg, tso);
        let a = m.malloc(8);
        m.store(0, a, 8, 1);
        let img = save_smp(&m, &[]);
        assert_eq!(
            restore_smp(&img, cfg, SimConfig::default()).err(),
            Some(SnapshotError::ConfigMismatch)
        );
    }

    #[test]
    fn smp_restore_rejects_wrong_core_count() {
        let sim = SimConfig::default();
        let m = SmpMachine::new(SmpConfig::default(), sim);
        let img = save_smp(&m, &[]);
        let other = SmpConfig {
            cores: 2,
            ..SmpConfig::default()
        };
        assert_eq!(
            restore_smp(&img, other, sim).err(),
            Some(SnapshotError::ConfigMismatch)
        );
    }

    #[test]
    fn atomic_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("memfwd-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("ck.snap");
        let img = save_machine(&busy_machine(), &[1]);
        write_snapshot_file(&path, &img).expect("write");
        assert_eq!(read_snapshot_file(&path).expect("read"), img);
        assert!(restore_machine(&read_snapshot_file(&path).unwrap(), SimConfig::default()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_typed_io_error() {
        let r = read_snapshot_file(Path::new("/nonexistent/memfwd.snap"));
        assert!(matches!(r, Err(SnapshotError::Io(_))));
    }
}
