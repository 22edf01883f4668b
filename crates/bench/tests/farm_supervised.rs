//! End-to-end tests of the supervised campaign runner across real process
//! boundaries: worker crash isolation (panic/abort), no-progress timeout
//! kills, deterministic supervisor crash + `--resume`, and the
//! `memfwd_sim` fast config-skew rejection. These live in `memfwd-bench`
//! because `CARGO_BIN_EXE_*` paths resolve only in the binary-defining
//! crate's own tests.

use memfwd_apps::{App, Scale, Variant};
use memfwd_bench::sweep::{run_sweep, strip_volatile_lines, validate_report};
use memfwd_farm::SweepSpec;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

const SWEEP_EXE: &str = env!("CARGO_BIN_EXE_memfwd_sweep");
const SIM_EXE: &str = env!("CARGO_BIN_EXE_memfwd_sim");

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memfwd-farmtest-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// The spec the CLI args below describe, for computing the golden report
/// in-process.
fn cli_spec(apps: &[App]) -> SweepSpec {
    SweepSpec {
        apps: apps.to_vec(),
        variants: vec![Variant::Original, Variant::Optimized],
        line_bytes: vec![32],
        mem_latency: vec![75],
        seeds: vec![12345],
        scale: Scale::Smoke,
    }
}

fn apps_arg(apps: &[App]) -> String {
    apps.iter().map(|a| a.name()).collect::<Vec<_>>().join(",")
}

fn sweep_cmd(apps: &[App], farm_dir: &Path, out: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(SWEEP_EXE);
    cmd.arg("--apps")
        .arg(apps_arg(apps))
        .arg("--variants")
        .arg("original,optimized")
        .arg("--scale")
        .arg("smoke")
        .arg("--jobs")
        .arg("2")
        .arg("--supervised")
        .arg("--backoff-ms")
        .arg("0")
        .arg("--farm-dir")
        .arg(farm_dir)
        .arg("--out")
        .arg(out)
        .args(extra);
    cmd
}

fn golden_volatile_stripped(apps: &[App]) -> String {
    strip_volatile_lines(&run_sweep(&cli_spec(apps), 1).to_json())
}

#[test]
fn chaos_panic_and_abort_recover_bit_identical() {
    let apps = [App::Health, App::Mst];
    let dir = tmp_dir("chaos");
    let out = dir.join("report.json");
    let status = sweep_cmd(&apps, &dir, &out, &["--chaos", "panic@0,abort@3"])
        .output()
        .expect("spawn supervisor");
    assert!(
        status.status.success(),
        "chaos campaign should recover: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    let report = std::fs::read_to_string(&out).expect("report written");
    validate_report(&report).expect("report validates");
    // The sabotaged cells recovered on retry and are typed as such...
    assert!(report.contains("\"outcome\": \"retried\""));
    assert!(report.contains("\"error\":"), "last failure is preserved");
    // ...and every simulated value is bit-identical to a clean in-process
    // run: out-of-process supervision adds robustness, not noise.
    assert_eq!(
        strip_volatile_lines(&report),
        golden_volatile_stripped(&apps)
    );
}

#[test]
fn hang_is_killed_typed_and_degrades_the_campaign() {
    let apps = [App::Mst];
    let dir = tmp_dir("hang");
    let out = dir.join("report.json");
    let output = sweep_cmd(
        &apps,
        &dir,
        &out,
        &[
            "--chaos",
            "hang@0",
            "--cell-timeout-ms",
            "400",
            "--retries",
            "1",
        ],
    )
    .output()
    .expect("spawn supervisor");
    assert_eq!(
        output.status.code(),
        Some(21),
        "a campaign with quarantined cells exits 21 (degraded): {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report = std::fs::read_to_string(&out).expect("degraded report still written");
    validate_report(&report).expect("degraded report validates");
    assert!(report.contains("\"outcome\": \"timed_out\""));
    assert!(report.contains("no progress for"));
    // The healthy sibling cell completed normally.
    assert!(report.contains("\"outcome\": \"ok\""));
}

#[test]
fn heartbeats_keep_a_long_cell_alive_with_no_checkpoint_image() {
    // Liveness rides the worker's stdout heartbeat, not its checkpoint
    // file: with images pushed out of reach, a cell that runs several
    // times its no-progress deadline still completes on its first
    // attempt. The deadline is a third of the cell's in-process run time,
    // so the cell outlives it in any build profile; vis at bench scale
    // heartbeats at least every fifteenth of its run.
    let spec = SweepSpec {
        apps: vec![App::Vis],
        variants: vec![Variant::Original],
        scale: Scale::Bench,
        ..cli_spec(&[App::Vis])
    };
    let t = Instant::now();
    let golden = strip_volatile_lines(&run_sweep(&spec, 1).to_json());
    let timeout_ms = (t.elapsed().as_millis() / 3).max(1).to_string();
    let dir = tmp_dir("heartbeat");
    let out = dir.join("report.json");
    let output = sweep_cmd(
        &spec.apps,
        &dir,
        &out,
        &[
            "--variants",
            "original",
            "--scale",
            "bench",
            "--jobs",
            "1",
            "--retries",
            "0",
            "--cell-timeout-ms",
            &timeout_ms,
            "--ckpt-every",
            "4611686018427387904",
        ],
    )
    .output()
    .expect("spawn supervisor");
    assert!(
        output.status.success(),
        "a live cell must not be killed (deadline {timeout_ms} ms): {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report = std::fs::read_to_string(&out).expect("report written");
    assert!(report.contains("\"outcome\": \"ok\""), "{report}");
    assert!(report.contains("\"attempts\": 1,"), "{report}");
    assert_eq!(strip_volatile_lines(&report), golden);
}

#[test]
fn supervisor_crash_then_resume_is_bit_identical_with_zero_recompute() {
    let apps = [App::Health, App::Mst, App::Vis];
    let n_cells = 6;
    let dir = tmp_dir("crash-resume");
    let out = dir.join("report.json");

    // Crash the supervisor cold after 2 journal appends — the
    // deterministic stand-in for `kill -9` (the CI chaos job does the
    // real one).
    let crashed = sweep_cmd(&apps, &dir, &out, &["--crash-after-appends", "2"])
        .output()
        .expect("spawn supervisor");
    assert_eq!(
        crashed.status.code(),
        Some(137),
        "crashed run mirrors SIGKILL: {}",
        String::from_utf8_lossy(&crashed.stderr)
    );
    assert!(!out.exists(), "a crashed campaign writes no report");
    assert!(dir.join("journal.mfj").exists(), "journal survives");

    // Without --resume, the leftover journal is refused, loudly.
    let refused = sweep_cmd(&apps, &dir, &out, &[])
        .output()
        .expect("spawn supervisor");
    assert_eq!(refused.status.code(), Some(22));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("--resume"));

    // With --resume, only the unfinished cells run.
    let resumed = sweep_cmd(&apps, &dir, &out, &["--resume"])
        .output()
        .expect("spawn supervisor");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("2 cells from journal (zero recompute)"),
        "journaled cells must not be recomputed: {stderr}"
    );
    assert!(stderr.contains(&format!("{} executed", n_cells - 2)));
    let report = std::fs::read_to_string(&out).expect("resumed report");
    assert_eq!(
        strip_volatile_lines(&report),
        golden_volatile_stripped(&apps),
        "resumed campaign diverged from the clean golden run"
    );
}

#[test]
fn completed_cells_are_bit_identical_at_any_jobs() {
    let apps = [App::Health, App::Mst];
    let dir1 = tmp_dir("jobs1");
    let dir4 = tmp_dir("jobs4");
    let (out1, out4) = (dir1.join("r.json"), dir4.join("r.json"));
    let mut one = sweep_cmd(&apps, &dir1, &out1, &[]);
    one.arg("--jobs").arg("1"); // later flag wins in the parser loop
    assert!(one.output().expect("jobs=1").status.success());
    let mut four = sweep_cmd(&apps, &dir4, &out4, &[]);
    four.arg("--jobs").arg("4");
    assert!(four.output().expect("jobs=4").status.success());
    assert_eq!(
        strip_volatile_lines(&std::fs::read_to_string(&out1).expect("r1")),
        strip_volatile_lines(&std::fs::read_to_string(&out4).expect("r4")),
    );
}

#[test]
fn sim_resume_rejects_config_skew_up_front_with_exit_17() {
    let dir = tmp_dir("skew");
    // Write a checkpoint under one configuration...
    let write = Command::new(SIM_EXE)
        .args(["--app", "mst", "--variant", "original", "--scale", "smoke"])
        .arg("--checkpoint-dir")
        .arg(&dir)
        .args(["--checkpoint-every", "1000"])
        .output()
        .expect("checkpointing run");
    assert!(write.status.success());
    let ckpt = dir.join("mst.ckpt");
    assert!(ckpt.exists());

    // ...then try to resume it under a different one: the mismatch must
    // be detected up front, with a clear message and exit 17. (Omitting
    // the cadence changes the fingerprinted SimConfig.)
    let skew = Command::new(SIM_EXE)
        .args(["--app", "mst", "--variant", "optimized", "--scale", "smoke"])
        .arg("--resume")
        .arg(&ckpt)
        .output()
        .expect("skewed resume");
    assert_eq!(skew.status.code(), Some(17));
    let stderr = String::from_utf8_lossy(&skew.stderr);
    assert!(
        stderr.contains("does not match this configuration"),
        "clear up-front message expected, got: {stderr}"
    );

    // A variant skew with an otherwise identical SimConfig is caught by
    // the cursor's run-parameter stamp — same typed exit.
    let variant_skew = Command::new(SIM_EXE)
        .args(["--app", "mst", "--variant", "optimized", "--scale", "smoke"])
        .args(["--checkpoint-every", "1000"])
        .arg("--resume")
        .arg(&ckpt)
        .output()
        .expect("variant-skewed resume");
    assert_eq!(
        variant_skew.status.code(),
        Some(17),
        "stderr: {}",
        String::from_utf8_lossy(&variant_skew.stderr)
    );

    // The matching configuration — including the checkpoint cadence,
    // which is part of the fingerprinted SimConfig — still resumes fine.
    let ok = Command::new(SIM_EXE)
        .args(["--app", "mst", "--variant", "original", "--scale", "smoke"])
        .args(["--checkpoint-every", "1000"])
        .arg("--resume")
        .arg(&ckpt)
        .output()
        .expect("matching resume");
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
}
