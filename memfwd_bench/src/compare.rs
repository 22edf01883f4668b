//! `memfwd_bench compare`: the base and head binaries of two commits,
//! measured in interleaved pairs with the same seed per pair, alternating
//! which side runs first.

use crate::json::{parse, Json};
use crate::metrics::{MetricDef, END_TO_END};
use crate::stats::{summarize, Summary};
use crate::workloads::Workload;
use std::path::PathBuf;
use std::process::{Command, Stdio};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Head is better in at least 9 of 10 pairs, and the medians differ by
    /// more than the base's own interquartile range.
    Improved,
    /// Head's median is worse than base's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the bound cannot
    /// be judged; unless every head run beats every base run.
    Unresolved,
    Unchanged,
}

/// Judges one metric from its paired values `(base, head)`.
pub fn verdict(def: &MetricDef, pairs: &[(f64, f64)]) -> Verdict {
    let base: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let head: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (Some(b), Some(h)) = (summarize(&base), summarize(&head)) else {
        return Verdict::Unresolved;
    };
    // Positive when head is worse, as a share of the base median.
    let sign = if def.lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (h.median - b.median) / b.median.abs().max(f64::MIN_POSITIVE);
    let better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all_better = head.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    if b.rel_iqr().max(h.rel_iqr()) > def.bound && !all_better {
        return Verdict::Unresolved;
    }
    if worse > def.bound {
        return Verdict::Regressed;
    }
    let wins = pairs.iter().filter(|(x, y)| better(*y, *x)).count();
    if wins * 10 >= pairs.len() * 9 && (h.median - b.median).abs() > b.q3 - b.q1 && worse < 0.0 {
        return Verdict::Improved;
    }
    Verdict::Unchanged
}

/// Pairs per workload: the fewest from which a nine-in-ten win rate means
/// anything.
const PAIRS: u64 = 10;

struct Opts {
    base: PathBuf,
    head: PathBuf,
    /// Seed of the first pair; pair `i` uses `seed + i` on both sides.
    seed: u64,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let (mut base, mut head, mut seed) = (None, None, 12345);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--base-bin-dir" => base = Some(PathBuf::from(v)),
            "--head-bin-dir" => head = Some(PathBuf::from(v)),
            "--seed" => seed = v.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Opts {
        base: base.ok_or("--base-bin-dir is required")?,
        head: head.ok_or("--head-bin-dir is required")?,
        seed,
    })
}

/// One untraced run of this harness on `bin_dir`, at the benchmark's own
/// run length; the metric values of its result line, or `None` if the run
/// failed or its outputs were wrong.
fn one_run(w: Workload, seed: u64, bin_dir: &PathBuf) -> Result<Option<Vec<f64>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating memfwd_bench: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--trace", "0", "--bin-dir"])
        .arg(bin_dir)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawning memfwd_bench: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let Some(last) = text.lines().last() else {
        return Ok(None);
    };
    let Ok(v) = parse(last) else { return Ok(None) };
    if v.get("correct").and_then(Json::as_bool) != Some(true) {
        return Ok(None);
    }
    let metrics = v.get("metrics");
    Ok(END_TO_END
        .iter()
        .map(|d| {
            metrics
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        })
        .collect())
}

fn fmt(s: &Summary) -> String {
    format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3)
}

pub fn main(args: &[String]) -> i32 {
    let o = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let mut bad = false;
    for w in Workload::ALL {
        let mut pairs: Vec<Vec<(f64, f64)>> = vec![Vec::new(); END_TO_END.len()];
        let mut failed = 0;
        for i in 0..PAIRS {
            let seed = o.seed.wrapping_add(i);
            let head_first = i % 2 == 1;
            let order = if head_first {
                [&o.head, &o.base]
            } else {
                [&o.base, &o.head]
            };
            let mut got = Vec::new();
            for dir in order {
                match one_run(w, seed, dir) {
                    Ok(v) => got.push(v),
                    Err(e) => {
                        eprintln!("compare: {e}");
                        return 2;
                    }
                }
            }
            if head_first {
                got.reverse();
            }
            match (&got[0], &got[1]) {
                (Some(b), Some(h)) => {
                    for (k, (x, y)) in b.iter().zip(h).enumerate() {
                        pairs[k].push((*x, *y));
                    }
                }
                _ => failed += 1,
            }
            eprintln!("compare: {} pair {}/{PAIRS} done", w.name(), i + 1);
        }
        println!("{} ({PAIRS} pairs, {failed} failed)", w.name());
        if failed > 0 {
            bad = true;
        }
        for (def, p) in END_TO_END.iter().zip(&pairs) {
            let base: Vec<f64> = p.iter().map(|x| x.0).collect();
            let head: Vec<f64> = p.iter().map(|x| x.1).collect();
            let (Some(b), Some(h)) = (summarize(&base), summarize(&head)) else {
                continue;
            };
            let v = verdict(def, p);
            bad |= v == Verdict::Regressed;
            let wins = p
                .iter()
                .filter(|(x, y)| if def.lower_is_better { y < x } else { y > x })
                .count();
            println!(
                "  {:<16} {:<7} base {}  head {}  head wins {}/{}  {:?}",
                def.name,
                def.unit,
                fmt(&b),
                fmt(&h),
                wins,
                p.len(),
                v
            );
        }
    }
    i32::from(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: MetricDef = END_TO_END[0];

    fn pairs(base: &[f64], head: &[f64]) -> Vec<(f64, f64)> {
        base.iter().copied().zip(head.iter().copied()).collect()
    }

    #[test]
    fn same_build_is_unchanged() {
        let b = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
        ];
        let h = [
            100.1, 100.9, 99.2, 100.4, 99.6, 100.0, 99.7, 100.2, 100.0, 100.2,
        ];
        assert_eq!(verdict(&MS, &pairs(&b, &h)), Verdict::Unchanged);
    }

    #[test]
    fn clear_gain_needs_nine_of_ten_wins_and_more_than_the_iqr() {
        let b = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
        ];
        let h: Vec<f64> = b.iter().map(|x| x * 0.95).collect();
        assert_eq!(verdict(&MS, &pairs(&b, &h)), Verdict::Improved);
        // Two losing pairs out of ten: no claim.
        let mut h2 = h.clone();
        h2[0] = 120.0;
        h2[1] = 120.0;
        assert_eq!(verdict(&MS, &pairs(&b, &h2)), Verdict::Unchanged);
    }

    #[test]
    fn past_the_bound_is_a_regression_and_wide_spread_is_unresolved() {
        let b = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
        ];
        let h: Vec<f64> = b.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&MS, &pairs(&b, &h)), Verdict::Regressed);
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0,
        ];
        assert_eq!(verdict(&MS, &pairs(&noisy, &b)), Verdict::Unresolved);
        // Higher-is-better metrics flip the direction.
        let rate = END_TO_END[1];
        assert_eq!(verdict(&rate, &pairs(&b, &h)), Verdict::Improved);
    }
}
