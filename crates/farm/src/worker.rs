//! The out-of-process worker: one cell per process.
//!
//! The supervisor re-executes the `memfwd_sweep` binary in its hidden
//! `--worker-cell` mode, which lands in [`run_worker_cell`]. The worker
//! runs exactly one grid cell and hands its result back through a sealed,
//! checksummed *result file* (same container discipline as snapshots and
//! the journal, magic `MFWDCELL`), written atomically next to the cell's
//! checkpoint. The process boundary is the isolation mechanism: a panic,
//! abort, OOM kill, or SIGKILL takes down this process only, and the
//! supervisor sees a missing/invalid result file plus a nonzero (or
//! signal) exit status — never a poisoned campaign.
//!
//! Long cells are crash-resumable: when the supervisor passes a
//! checkpoint path, the worker periodically writes PR-2 machine snapshots
//! there, and a *re-spawned* worker for the same cell first validates the
//! leftover image up front with [`memfwd::check_snapshot_config`] and
//! resumes from it. A corrupt or config-skewed leftover is deleted and
//! the cell restarts from zero — degraded to slow, never to wrong.
//!
//! Liveness is separate from durability: the worker writes one heartbeat
//! byte to its stdout every [`memfwd_apps::DEFAULT_CHECKPOINT_EVERY`]
//! demand references, whether or not an image is due, and the
//! supervisor's no-progress deadline re-arms on those bytes.
//!
//! Chaos injection for the test suite and the CI chaos job is driven by
//! the `MEMFWD_FARM_CHAOS` environment variable, set per-attempt by the
//! supervisor: `panic` unwinds, `abort` dies by SIGABRT, `hang` spins
//! forever (exercising the no-progress deadline).

use crate::journal::JournalError;
use crate::sweep::{CellResult, CellSpec};
use memfwd::{fnv1a64, RunStats};
use memfwd_apps::{run_ck, Checkpointer, CkOutcome, RunConfig, Scale};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Environment variable carrying a chaos directive for this worker
/// process: `panic`, `abort`, or `hang`.
pub const CHAOS_ENV: &str = "MEMFWD_FARM_CHAOS";

/// Leading magic of a worker result file.
pub const RESULT_MAGIC: [u8; 8] = *b"MFWDCELL";

/// Result-file format version. Version 2 extended the embedded `RunStats`
/// codec with the epoch-execution block; version 3 removed it again.
pub const RESULT_VERSION: u32 = 3;

const HEADER_BYTES: usize = 28;

/// Everything a worker process needs to run its one cell.
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// The cell to run.
    pub spec: CellSpec,
    /// Workload scale.
    pub scale: Scale,
    /// The cell's journal key, echoed into the result file so the
    /// supervisor can detect a result file from a stale or foreign cell.
    pub key: u64,
    /// Where to write the sealed result on success.
    pub result_file: PathBuf,
    /// Checkpoint image path; enables periodic snapshots and resume.
    pub ckpt_file: Option<PathBuf>,
    /// Checkpoint cadence in demand references.
    pub ckpt_every: Option<u64>,
}

/// Parses a worker process's single-cell arguments (everything after the
/// hidden `--worker-cell` flag). Shared by every binary that re-execs
/// itself as a farm worker (`memfwd_sweep`, `memfwd_served`); flags reuse
/// the sweep-mode names but take exactly one value each.
///
/// # Errors
///
/// A description of the first malformed or missing argument.
pub fn parse_worker_args(mut args: impl Iterator<Item = String>) -> Result<WorkerArgs, String> {
    use memfwd_apps::{App, Variant};
    let mut app = None;
    let mut variant = None;
    let mut line_bytes = 32u64;
    let mut mem_latency = 75u64;
    let mut seed = 12345u64;
    let mut scale = Scale::Smoke;
    let mut key = None;
    let mut result_file = None;
    let mut ckpt_file = None;
    let mut ckpt_every = None;
    let next_val = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--app" => {
                let v = next_val(&mut args, "--app")?;
                app = Some(App::from_name(&v).ok_or_else(|| format!("unknown app '{v}'"))?);
            }
            "--variant" => {
                let v = next_val(&mut args, "--variant")?;
                variant =
                    Some(Variant::from_name(&v).ok_or_else(|| format!("unknown variant '{v}'"))?);
            }
            "--line-bytes" => {
                line_bytes = next_val(&mut args, "--line-bytes")?
                    .parse()
                    .map_err(|e| format!("--line-bytes: {e}"))?;
            }
            "--mem-latency" => {
                mem_latency = next_val(&mut args, "--mem-latency")?
                    .parse()
                    .map_err(|e| format!("--mem-latency: {e}"))?;
            }
            "--seeds" => {
                seed = next_val(&mut args, "--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
            }
            "--scale" => {
                let v = next_val(&mut args, "--scale")?;
                scale = Scale::from_name(&v).ok_or_else(|| format!("unknown scale '{v}'"))?;
            }
            "--cell-key" => {
                key = Some(
                    next_val(&mut args, "--cell-key")?
                        .parse()
                        .map_err(|e| format!("--cell-key: {e}"))?,
                );
            }
            "--result-file" => {
                result_file = Some(PathBuf::from(next_val(&mut args, "--result-file")?));
            }
            "--ckpt-file" => {
                ckpt_file = Some(PathBuf::from(next_val(&mut args, "--ckpt-file")?));
            }
            "--ckpt-every" => {
                ckpt_every = Some(
                    next_val(&mut args, "--ckpt-every")?
                        .parse()
                        .map_err(|e| format!("--ckpt-every: {e}"))?,
                );
            }
            other => return Err(format!("worker mode: unknown option '{other}'")),
        }
    }
    let spec = CellSpec {
        app: app.ok_or("worker mode: --app is required")?,
        variant: variant.ok_or("worker mode: --variant is required")?,
        line_bytes,
        mem_latency,
        seed,
    };
    let key = key.unwrap_or_else(|| crate::journal::cell_key(scale, &spec));
    Ok(WorkerArgs {
        spec,
        scale,
        key,
        result_file: result_file.ok_or("worker mode: --result-file is required")?,
        ckpt_file,
        ckpt_every,
    })
}

/// The payload of a sealed result file.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResultFile {
    /// The cell's journal key.
    pub key: u64,
    /// Output digest.
    pub checksum: u64,
    /// Loads plus stores issued.
    pub refs: u64,
    /// Host nanoseconds this worker spent simulating.
    pub host_nanos: u64,
    /// Full statistics block.
    pub stats: RunStats,
}

/// Seals and atomically writes a result file.
///
/// # Errors
///
/// [`JournalError::Io`] if the write or rename fails.
pub fn write_result_file(path: &Path, r: &CellResultFile) -> Result<(), JournalError> {
    let mut enc = memfwd_tagmem::SnapEncoder::new();
    enc.u64(r.key);
    enc.u64(r.checksum);
    enc.u64(r.refs);
    enc.u64(r.host_nanos);
    r.stats.snapshot_encode(&mut enc);
    let payload = enc.into_bytes();
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&RESULT_MAGIC);
    out.extend_from_slice(&RESULT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &out).map_err(|e| JournalError::Io(e.kind()))?;
    std::fs::rename(&tmp, path).map_err(|e| JournalError::Io(e.kind()))
}

/// Reads and validates a sealed result file.
///
/// # Errors
///
/// Any [`JournalError`]: a missing, truncated, bit-flipped, or
/// version-skewed result file is rejected wholesale, and the supervisor
/// treats the attempt as failed.
pub fn read_result_file(path: &Path) -> Result<CellResultFile, JournalError> {
    let bytes = std::fs::read(path).map_err(|e| JournalError::Io(e.kind()))?;
    if bytes.len() < HEADER_BYTES {
        return Err(JournalError::Truncated);
    }
    if bytes[0..8] != RESULT_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != RESULT_VERSION {
        return Err(JournalError::BadVersion { found: version });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_BYTES..];
    if (payload.len() as u64) < len {
        return Err(JournalError::Truncated);
    }
    if (payload.len() as u64) > len {
        return Err(JournalError::BadValue);
    }
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    if fnv1a64(payload) != checksum {
        return Err(JournalError::BadChecksum);
    }
    let mut dec = memfwd_tagmem::SnapDecoder::new(payload);
    let r = CellResultFile {
        key: dec.u64()?,
        checksum: dec.u64()?,
        refs: dec.u64()?,
        host_nanos: dec.u64()?,
        stats: RunStats::snapshot_decode(&mut dec)?,
    };
    if !dec.is_exhausted() {
        return Err(JournalError::BadValue);
    }
    Ok(r)
}

impl CellResultFile {
    /// Reconstitutes the supervisor-side [`CellResult`] for `spec`.
    pub fn to_cell_result(&self, spec: CellSpec) -> CellResult {
        CellResult {
            spec,
            checksum: self.checksum,
            stats: self.stats,
            refs: self.refs,
            host_nanos: self.host_nanos,
        }
    }
}

/// Obeys a chaos directive, if one is set for this process. `panic` and
/// `abort` never return; `hang` spins in 50 ms sleeps until the
/// supervisor's deadline monitor kills the process.
fn obey_chaos() {
    match std::env::var(CHAOS_ENV).as_deref() {
        Ok("panic") => panic!("chaos: injected worker panic"),
        Ok("abort") => std::process::abort(),
        Ok("hang") => loop {
            std::thread::sleep(std::time::Duration::from_millis(50));
        },
        _ => {}
    }
}

/// Runs one cell to completion in this process and writes the sealed
/// result file. Returns the process exit code: 0 on success, the typed
/// [`memfwd::MachineFault::exit_code`] on a simulated fault, 1 on a
/// result-file write failure.
///
/// A leftover checkpoint image (from a previous attempt of the same cell
/// that was killed mid-flight) is validated up front and resumed from;
/// corrupt or config-skewed leftovers are deleted and the cell restarts
/// fresh.
pub fn run_worker_cell(args: &WorkerArgs) -> i32 {
    run_cell_beating(args, heartbeat)
}

/// One heartbeat byte on stdout for the supervisor's deadline monitor.
/// Write errors are ignored: the heartbeat is advisory, and a worker
/// must not fail its cell because nobody is listening.
fn heartbeat() {
    let mut out = std::io::stdout().lock();
    let _ = out.write_all(b".").and_then(|()| out.flush());
}

/// [`run_worker_cell`] with the heartbeat sink as a parameter.
fn run_cell_beating(args: &WorkerArgs, beat: impl FnMut() + Send + 'static) -> i32 {
    obey_chaos();
    let c = args.spec;
    let mut cfg = RunConfig::new(c.variant);
    cfg.scale = args.scale;
    cfg.seed = c.seed;
    cfg.sim = cfg.sim.with_line_bytes(c.line_bytes);
    cfg.sim.hierarchy.mem_latency = c.mem_latency;

    let mut ck = match &args.ckpt_file {
        Some(path) => {
            let mut ck = Checkpointer::to_file(path.clone());
            if let Some(every) = args.ckpt_every {
                ck = ck.with_every(every);
            }
            if path.exists() {
                match memfwd::read_snapshot_file(path)
                    .and_then(|img| memfwd::check_snapshot_config(&img, &cfg.sim).map(|()| img))
                {
                    Ok(img) => {
                        eprintln!("worker: resuming cell from checkpoint {}", path.display());
                        ck = ck.resume_from(img);
                    }
                    Err(e) => {
                        eprintln!(
                            "worker: discarding unusable checkpoint {}: {e}",
                            path.display()
                        );
                        std::fs::remove_file(path).ok();
                    }
                }
            }
            ck
        }
        None => Checkpointer::disabled(),
    }
    .with_heartbeat(beat);

    let t = Instant::now();
    let out = match run_ck(c.app, &cfg, &mut ck) {
        Ok(CkOutcome::Done(out)) => out,
        Ok(CkOutcome::Stopped) => {
            // Unreachable with a to-file checkpointer, but keep it total.
            eprintln!("worker: checkpointer stopped a to-file run");
            return 1;
        }
        Err(fault) => {
            eprintln!("worker: cell faulted: {fault}");
            return fault.exit_code();
        }
    };
    let host_nanos = t.elapsed().as_nanos() as u64;
    let result = CellResultFile {
        key: args.key,
        checksum: out.checksum,
        refs: out.stats.fwd.loads + out.stats.fwd.stores,
        host_nanos,
        stats: out.stats,
    };
    if let Err(e) = write_result_file(&args.result_file, &result) {
        eprintln!(
            "worker: writing result file {}: {e}",
            args.result_file.display()
        );
        return 1;
    }
    // The checkpoint image has served its purpose; remove it so a future
    // attempt of a *different* campaign reusing the farm dir cannot trip
    // over it (it would be rejected by the fingerprint check anyway).
    if let Some(path) = &args.ckpt_file {
        std::fs::remove_file(path).ok();
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::cell_key;
    use memfwd_apps::{App, Variant};

    fn tmp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("memfwd-worker-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    fn sample() -> CellResultFile {
        let mut stats = RunStats::default();
        stats.pipeline.cycles = 123;
        CellResultFile {
            key: 0xFEED,
            checksum: 0xABCD,
            refs: 99,
            host_nanos: 1,
            stats,
        }
    }

    #[test]
    fn result_file_roundtrip_and_corruption_rejection() {
        let path = tmp_dir().join("cell.result");
        let r = sample();
        write_result_file(&path, &r).expect("write");
        assert_eq!(read_result_file(&path).expect("read"), r);
        // Bit-flip anywhere is rejected with a typed error.
        let mut bytes = std::fs::read(&path).expect("read bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(read_result_file(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn previous_version_result_file_is_typed_skew() {
        let path = tmp_dir().join("old.result");
        write_result_file(&path, &sample()).expect("write");
        let mut bytes = std::fs::read(&path).expect("read bytes");
        bytes[8..12].copy_from_slice(&(RESULT_VERSION - 1).to_le_bytes());
        std::fs::write(&path, &bytes).expect("restamp");
        assert_eq!(
            read_result_file(&path),
            Err(JournalError::BadVersion {
                found: RESULT_VERSION - 1
            })
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_result_file_is_typed_io() {
        let r = read_result_file(Path::new("/nonexistent/cell.result"));
        assert!(matches!(r, Err(JournalError::Io(_))));
    }

    #[test]
    fn worker_cell_runs_in_process_and_matches_direct_run() {
        // run_worker_cell is normally exercised across a process boundary
        // (crates/bench integration tests); this pins the in-process
        // contract: result file content equals a direct run.
        let dir = tmp_dir();
        let spec = CellSpec {
            app: App::Mst,
            variant: Variant::Optimized,
            line_bytes: 32,
            mem_latency: 75,
            seed: 12345,
        };
        let key = cell_key(Scale::Smoke, &spec);
        let result_file = dir.join("mst.result");
        let ckpt_file = dir.join("mst.ckpt");
        let beats = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let counter = beats.clone();
        let code = run_cell_beating(
            &WorkerArgs {
                spec,
                scale: Scale::Smoke,
                key,
                result_file: result_file.clone(),
                ckpt_file: Some(ckpt_file.clone()),
                ckpt_every: Some(64),
            },
            move || {
                counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            },
        );
        assert_eq!(code, 0);
        let r = read_result_file(&result_file).expect("result file");
        assert_eq!(r.key, key);
        let direct = crate::sweep::run_cell(Scale::Smoke, spec).expect("direct run");
        assert_eq!(r.checksum, direct.checksum);
        assert_eq!(r.stats, direct.stats);
        assert_eq!(r.refs, direct.refs);
        // One heartbeat per DEFAULT_CHECKPOINT_EVERY refs, independent of
        // the image cadence; boundaries fall a little past each multiple.
        let beats = beats.load(std::sync::atomic::Ordering::Relaxed);
        let most = r.refs / memfwd_apps::DEFAULT_CHECKPOINT_EVERY;
        assert!(
            beats > 0 && beats <= most,
            "{beats} heartbeats over {} refs",
            r.refs
        );
        assert!(!ckpt_file.exists(), "checkpoint cleaned up on success");
        std::fs::remove_file(&result_file).ok();
    }
}
