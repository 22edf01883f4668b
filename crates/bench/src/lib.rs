//! Experiment harness for regenerating every table and figure of the
//! Memory Forwarding paper.
//!
//! Each `cargo bench` target is a standalone binary (`harness = false`)
//! that runs the relevant simulations and prints the same rows or series
//! the paper reports. The helpers here are shared by those targets.
//!
//! Set `MEMFWD_SCALE=smoke` to run every experiment on tiny inputs (for CI
//! smoke-testing the harness itself); the default is the bench scale whose
//! working sets exceed the simulated L2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Same discipline as the core crates: bare `unwrap()` is test-only.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use memfwd_apps::{run_ok as run, App, AppOutput, RunConfig, Scale, Variant};

// The sweep engine moved to `memfwd-farm` when it grew campaign
// supervision; this re-export keeps `memfwd_bench::sweep::*` paths (CI
// scripts, tests, EXPERIMENTS.md) working unchanged.
pub use memfwd_farm::sweep;

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

/// Runs one experiment cell.
pub fn run_cell(
    app: App,
    variant: Variant,
    line_bytes: u64,
    prefetch_lines: Option<u64>,
    scale: Scale,
) -> AppOutput {
    let mut cfg = RunConfig::new(variant);
    cfg.scale = scale;
    cfg.sim = cfg.sim.with_line_bytes(line_bytes);
    if let Some(b) = prefetch_lines {
        cfg.prefetch = true;
        cfg.prefetch_lines = b;
    }
    run(app, &cfg)
}

/// Runs a prefetching cell for every block size in `blocks` and returns
/// the best-performing output with its block size — the paper reports "the
/// block size that performed the best for each case".
pub fn best_prefetch(
    app: App,
    variant: Variant,
    line_bytes: u64,
    blocks: &[u64],
    scale: Scale,
) -> (u64, AppOutput) {
    blocks
        .iter()
        .map(|&b| (b, run_cell(app, variant, line_bytes, Some(b), scale)))
        .min_by_key(|(_, out)| out.stats.cycles())
        .expect("non-empty block list")
}

/// One row of a Fig. 5-style breakdown: graduation slots by category,
/// normalized so that a reference runtime is 100.
#[derive(Debug, Clone, Copy)]
pub struct Breakdown {
    /// Total normalized height of the bar.
    pub total: f64,
    /// Normalized busy section.
    pub busy: f64,
    /// Normalized load-stall section.
    pub load_stall: f64,
    /// Normalized store-stall section.
    pub store_stall: f64,
    /// Normalized inst-stall section.
    pub inst_stall: f64,
}

impl Breakdown {
    /// Computes the breakdown of `out` normalized against `ref_cycles`.
    pub fn of(out: &AppOutput, ref_cycles: u64) -> Breakdown {
        let s = out.stats.slots();
        let scale = 100.0 / ref_cycles as f64 / out.stats.pipeline.slots.total().max(1) as f64
            * out.stats.cycles() as f64;
        Breakdown {
            total: 100.0 * out.stats.cycles() as f64 / ref_cycles as f64,
            busy: s.busy as f64 * scale,
            load_stall: s.load_stall as f64 * scale,
            store_stall: s.store_stall as f64 * scale,
            inst_stall: s.inst_stall as f64 * scale,
        }
    }
}

/// Formats a ratio as a signed percentage speedup annotation, as under the
/// bars of Fig. 5.
pub fn speedup_pct(unopt_cycles: u64, opt_cycles: u64) -> String {
    let s = unopt_cycles as f64 / opt_cycles.max(1) as f64;
    format!("{:+.0}%", (s - 1.0) * 100.0)
}

/// Prints a horizontal rule sized to a header string.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

/// Writes an experiment's rows as CSV under `target/experiments/`, so the
/// figures can be re-plotted outside the terminal. Failures are reported
/// but never abort the experiment.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    // Benches run with the package directory as CWD; anchor the output at
    // the workspace target directory instead.
    let dir = std::env::var("CARGO_MANIFEST_DIR")
        .map(|p| std::path::PathBuf::from(p).join("../../target/experiments"))
        .unwrap_or_else(|_| std::path::PathBuf::from("target/experiments"));
    let dir = dir.as_path();
    let write = || -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut out = String::new();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        std::fs::write(&path, out)?;
        Ok(path)
    };
    match write() {
        Ok(path) => println!("(csv written to {})", path.display()),
        Err(e) => eprintln!("(csv export failed: {e})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sections_sum_to_total() {
        let out = run_cell(App::Vis, Variant::Original, 32, None, Scale::Smoke);
        let b = Breakdown::of(&out, out.stats.cycles());
        assert!((b.total - 100.0).abs() < 1e-9);
        let sum = b.busy + b.load_stall + b.store_stall + b.inst_stall;
        assert!(
            (sum - b.total).abs() < 1e-6,
            "sum {sum} != total {}",
            b.total
        );
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(speedup_pct(200, 100), "+100%");
        assert_eq!(speedup_pct(100, 100), "+0%");
        assert_eq!(speedup_pct(80, 100), "-20%");
    }

    #[test]
    fn best_prefetch_picks_minimum() {
        let (b, out) = best_prefetch(App::Vis, Variant::Optimized, 32, &[1, 2], Scale::Smoke);
        assert!(b == 1 || b == 2);
        assert!(out.stats.cycles() > 0);
    }

    #[test]
    fn scale_env_default_is_bench() {
        // (Cannot mutate the environment safely in tests; just check the
        // default path when the variable is absent or unrecognized.)
        assert_eq!(scale_from_env(), Scale::Bench);
    }
}
