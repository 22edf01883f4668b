//! Experiment harness for regenerating every table and figure of the
//! Memory Forwarding paper.
//!
//! Each `cargo bench` target is a standalone binary (`harness = false`)
//! that runs the relevant simulations and prints the same rows or series
//! the paper reports. The helpers here are shared by those targets; the
//! Fig. 5/6/7/10 targets render from [`paper::Grid`], the grid the paper's
//! claims are gated on.
//!
//! Set `MEMFWD_SCALE=smoke` to run every experiment on tiny inputs (for CI
//! smoke-testing the harness itself); the default is the bench scale whose
//! working sets exceed the simulated L2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Same discipline as the core crates: bare `unwrap()` is test-only.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use memfwd_apps::{AppOutput, Scale};

// The sweep engine moved to `memfwd-farm` when it grew campaign
// supervision; this re-export keeps `memfwd_bench::sweep::*` paths (CI
// scripts, tests, EXPERIMENTS.md) working unchanged.
pub use memfwd_farm::sweep;

pub mod paper;

/// The line sizes swept by Fig. 5/6 of the paper.
pub const LINE_SIZES: [u64; 3] = [32, 64, 128];

/// The host's available parallelism, used as the default `--jobs` worker
/// count (1 when the host cannot report it).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a worker-count CLI value: a number, or `auto` for
/// [`host_parallelism`].
///
/// # Errors
///
/// A usage message when the value is neither `auto` nor a number.
pub fn parse_thread_count(v: &str) -> Result<usize, String> {
    if v == "auto" {
        return Ok(host_parallelism());
    }
    v.parse::<usize>().map_err(|e| e.to_string())
}

/// Reads the workload scale from `MEMFWD_SCALE` (`smoke` or `bench`).
pub fn scale_from_env() -> Scale {
    match std::env::var("MEMFWD_SCALE").as_deref() {
        Ok("smoke") => Scale::Smoke,
        _ => Scale::Bench,
    }
}

/// One bar of Fig. 5: `[total, busy, load stall, store stall, inst
/// stall]`, normalized so that `ref_cycles` is 100; the sections sum to
/// the total.
pub fn breakdown(out: &AppOutput, ref_cycles: u64) -> [f64; 5] {
    let s = out.stats.slots();
    let total = 100.0 * out.stats.cycles() as f64 / ref_cycles as f64;
    let scale = 100.0 / ref_cycles as f64 / out.stats.pipeline.slots.total().max(1) as f64
        * out.stats.cycles() as f64;
    let sections = [s.busy, s.load_stall, s.store_stall, s.inst_stall];
    let [busy, load, store, inst] = sections.map(|n| n as f64 * scale);
    [total, busy, load, store, inst]
}

/// Formats a ratio as a signed percentage speedup annotation, as under the
/// bars of Fig. 5.
pub fn speedup_pct(unopt_cycles: u64, opt_cycles: u64) -> String {
    let s = unopt_cycles as f64 / opt_cycles.max(1) as f64;
    format!("{:+.0}%", (s - 1.0) * 100.0)
}

/// Prints a table header and a horizontal rule sized to it.
pub fn print_header(header: &str) {
    println!("{header}\n{}", "-".repeat(header.len()));
}

/// Writes an experiment's comma-separated `header` and `rows` as CSV under
/// `target/experiments/`, so the figures can be re-plotted outside the
/// terminal. Failures are reported but never abort the experiment.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    // Benches run with the package directory as CWD; anchor the output at
    // the workspace target directory instead.
    let dir = std::env::var("CARGO_MANIFEST_DIR")
        .map(|p| std::path::PathBuf::from(p).join("../../target/experiments"))
        .unwrap_or_else(|_| std::path::PathBuf::from("target/experiments"));
    let lines = std::iter::once(header).chain(rows.iter().map(String::as_str));
    let text: String = lines.map(|line| format!("{line}\n")).collect();
    let path = dir.join(format!("{name}.csv"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("(csv written to {})", path.display()),
        Err(e) => eprintln!("(csv export failed: {e})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memfwd_apps::{App, Variant};

    #[test]
    fn breakdown_sections_sum_to_total() {
        let out = paper::Cell::new(App::Vis, Variant::Original, 32).run(Scale::Smoke);
        let [total, sections @ ..] = breakdown(&out, out.stats.cycles());
        assert!((total - 100.0).abs() < 1e-9);
        let sum: f64 = sections.iter().sum();
        assert!((sum - total).abs() < 1e-6, "sum {sum} != total {total}");
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(speedup_pct(200, 100), "+100%");
        assert_eq!(speedup_pct(100, 100), "+0%");
        assert_eq!(speedup_pct(80, 100), "-20%");
    }

    #[test]
    fn scale_env_default_is_bench() {
        // (Cannot mutate the environment safely in tests; just check the
        // default path when the variable is absent or unrecognized.)
        assert_eq!(scale_from_env(), Scale::Bench);
    }
}
