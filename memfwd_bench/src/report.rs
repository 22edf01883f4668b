//! Reading sweep reports (`BENCH_sweep.json`): cells, layer counters read
//! by field name, and the correctness checks run on every report.
//!
//! Counters are looked up by name in the report's text so that a counter a
//! later change removes reads as absent instead of breaking the harness.

use crate::json::{parse, Json};
use std::collections::HashMap;

/// One cell of a report. Fields the report does not carry are `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub app: String,
    pub variant: String,
    pub line_bytes: u64,
    pub seed: u64,
    pub outcome: String,
    pub attempts: Option<u64>,
    pub checksum: Option<String>,
    pub refs: Option<u64>,
    pub cycles: Option<u64>,
    pub stats: Option<String>,
    pub host_epoch: Option<String>,
}

/// Where a cell sits in a grid; reports from different runs are matched on
/// this.
pub type Coords = (String, String, u64, u64);

impl Cell {
    pub fn coords(&self) -> Coords {
        (
            self.app.clone(),
            self.variant.clone(),
            self.line_bytes,
            self.seed,
        )
    }

    fn completed(&self) -> bool {
        self.outcome == "ok" || self.outcome == "retried"
    }
}

/// Parses the cells of a report.
pub fn parse_cells(text: &str) -> Result<Vec<Cell>, String> {
    let root = parse(text)?;
    let cells = root
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("report has no \"cells\" array")?;
    cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let s = |k: &str| c.get(k).and_then(Json::as_str).map(str::to_string);
            let n = |k: &str| c.get(k).and_then(Json::as_u64);
            Ok(Cell {
                app: s("app").ok_or(format!("cell {i}: no app"))?,
                variant: s("variant").ok_or(format!("cell {i}: no variant"))?,
                line_bytes: n("line_bytes").ok_or(format!("cell {i}: no line_bytes"))?,
                seed: n("seed").ok_or(format!("cell {i}: no seed"))?,
                outcome: s("outcome").unwrap_or_else(|| "ok".into()),
                attempts: n("attempts"),
                checksum: s("checksum"),
                refs: n("refs"),
                cycles: n("cycles"),
                stats: s("stats"),
                host_epoch: s("host_epoch"),
            })
        })
        .collect()
}

/// Occurrences of `name: <value>` in a `Debug` rendering, where `name` is
/// a whole field name.
fn field_values<'a>(text: &'a str, name: &str) -> Vec<&'a str> {
    let key = format!("{name}: ");
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(&key) {
        let at = from + pos;
        let whole = text[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
        if whole {
            out.push(&text[at + key.len()..]);
        }
        from = at + key.len();
    }
    out
}

/// Sum of every integer field called `name`, or `None` if there is none.
pub fn field_sum(text: &str, name: &str) -> Option<u64> {
    let vals: Vec<u64> = field_values(text, name)
        .into_iter()
        .filter_map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .collect();
    (!vals.is_empty()).then(|| vals.iter().sum())
}

/// The first integer array field called `name`, e.g. `load_hops: [5, 0]`.
pub fn field_array(text: &str, name: &str) -> Option<Vec<u64>> {
    let rest = field_values(text, name).into_iter().next()?;
    let body = rest.strip_prefix('[')?;
    let body = &body[..body.find(']')?];
    body.split(',')
        .map(|t| t.trim().parse().ok())
        .collect::<Option<Vec<u64>>>()
}

/// Sum over cells of a per-cell reading; `None` if no cell has it.
fn sum_cells(cells: &[&Cell], f: impl Fn(&Cell) -> Option<u64>) -> Option<f64> {
    let vals: Vec<u64> = cells.iter().filter_map(|c| f(c)).collect();
    (!vals.is_empty()).then(|| vals.iter().sum::<u64>() as f64)
}

fn stat(c: &Cell, name: &str) -> Option<u64> {
    field_sum(c.stats.as_deref()?, name)
}

/// Forwarding hops: `sum(i * hist[i])` over the load and store hop
/// histograms, whose bucket `i` counts references that took `i` hops.
fn hops(c: &Cell) -> Option<u64> {
    let s = c.stats.as_deref()?;
    let weigh = |h: Vec<u64>| h.iter().enumerate().map(|(i, n)| i as u64 * n).sum();
    match (field_array(s, "load_hops"), field_array(s, "store_hops")) {
        (None, None) => None,
        (l, st) => Some(l.map_or(0, weigh) + st.map_or(0, weigh)),
    }
}

/// The work counters of the simulated layers, summed over `cells`. These
/// are identity witnesses: a host-only change leaves each exactly equal.
pub fn layer_counters(cells: &[&Cell]) -> Vec<(&'static str, Option<f64>)> {
    let pair = |a: &'static str, b: &'static str| {
        move |c: &Cell| match (stat(c, a), stat(c, b)) {
            (None, None) => None,
            (x, y) => Some(x.unwrap_or(0) + y.unwrap_or(0)),
        }
    };
    let epoch = |name: &str| sum_cells(cells, |c| field_sum(c.host_epoch.as_deref()?, name));
    let replayed_frac = match (epoch("committed"), epoch("replayed")) {
        (Some(c), Some(r)) if c + r > 0.0 => Some(r / (c + r)),
        (Some(_), Some(_)) => Some(0.0),
        _ => None,
    };
    vec![
        ("sim.demand_refs", sum_cells(cells, |c| c.refs)),
        (
            "tagmem.forwarded_refs",
            sum_cells(cells, pair("forwarded_loads", "forwarded_stores")),
        ),
        ("tagmem.hops", sum_cells(cells, hops)),
        (
            "cache.l1_misses",
            sum_cells(cells, pair("partial_misses", "full_misses")),
        ),
        (
            "cache.l2_misses",
            sum_cells(cells, |c| stat(c, "l2_misses")),
        ),
        (
            "cache.bytes_l2_mem",
            sum_cells(cells, |c| stat(c, "bytes_l2_mem")),
        ),
        ("cpu.cycles", sum_cells(cells, |c| c.cycles)),
        (
            "cpu.dispatched",
            sum_cells(cells, |c| stat(c, "dispatched")),
        ),
        (
            "cpu.misspeculations",
            sum_cells(cells, |c| stat(c, "misspeculations")),
        ),
        (
            "core.relocated_words",
            sum_cells(cells, |c| stat(c, "relocated_words")),
        ),
        ("core.epoch.replayed_frac", replayed_frac),
    ]
}

/// Cells that did not complete.
pub fn check_completed(cells: &[Cell], what: &str) -> Vec<String> {
    cells
        .iter()
        .filter(|c| !c.completed())
        .map(|c| format!("{what}: {:?} ended {}", c.coords(), c.outcome))
        .collect()
}

/// The paper's safety property: relocation never changes what a program
/// computes, so the original and optimized layouts of every app, line
/// size and seed must produce the same checksum.
pub fn check_variants_agree(cells: &[Cell], what: &str) -> Vec<String> {
    let sums: HashMap<Coords, &str> = cells
        .iter()
        .filter_map(|c| Some((c.coords(), c.checksum.as_deref()?)))
        .collect();
    let mut bad = Vec::new();
    for c in cells.iter().filter(|c| c.variant == "original") {
        let mut twin = c.coords();
        twin.1 = "optimized".into();
        if let (Some(a), Some(b)) = (sums.get(&c.coords()), sums.get(&twin)) {
            if a != b {
                bad.push(format!("{what}: {twin:?} checksum {b} != original {a}"));
            }
        }
    }
    bad
}

/// Every cell must equal the reference cell with the same coordinates in
/// checksum, refs, cycles and statistics.
pub fn check_against(cells: &[Cell], reference: &HashMap<Coords, Cell>, what: &str) -> Vec<String> {
    let mut bad = Vec::new();
    for c in cells {
        match reference.get(&c.coords()) {
            None => bad.push(format!("{what}: no reference cell for {:?}", c.coords())),
            Some(r) => {
                if (&c.checksum, c.refs, c.cycles, &c.stats)
                    != (&r.checksum, r.refs, r.cycles, &r.stats)
                {
                    bad.push(format!(
                        "{what}: {:?} differs from the local run",
                        c.coords()
                    ));
                }
            }
        }
    }
    bad
}

/// FNV-1a 64 digest, printed for humans comparing strip-host reports.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const STATS: &str =
        "RunStats { pipeline: PipelineStats { cycles: 100, dispatched: 40, replays: 0 }, \
        cache: CacheStats { loads: ClassCounts { l1_hits: 9, partial_misses: 2, full_misses: 3 }, \
        stores: ClassCounts { l1_hits: 1, partial_misses: 4, full_misses: 5 }, l2_misses: 6 }, \
        bytes_l2_mem: 640, fwd: FwdStats { forwarded_loads: 7, forwarded_stores: 1, \
        load_hops: [10, 3, 1], store_hops: [2, 1], misspeculations: 0, relocated_words: 12 } }";

    fn cell(variant: &str, checksum: &str, stats: Option<&str>) -> Cell {
        Cell {
            app: "smv".into(),
            variant: variant.into(),
            line_bytes: 32,
            seed: 1,
            outcome: "ok".into(),
            attempts: Some(1),
            checksum: Some(checksum.into()),
            refs: Some(50),
            cycles: Some(100),
            stats: stats.map(str::to_string),
            host_epoch: None,
        }
    }

    #[test]
    fn fields_are_read_by_whole_name() {
        assert_eq!(
            field_sum(STATS, "cycles"),
            Some(100),
            "load_cycles-style names excluded"
        );
        assert_eq!(field_sum(STATS, "full_misses"), Some(8));
        assert_eq!(field_sum(STATS, "replays"), Some(0));
        assert_eq!(field_sum(STATS, "replayed"), None);
        assert_eq!(field_array(STATS, "load_hops"), Some(vec![10, 3, 1]));
        assert_eq!(field_array(STATS, "nope"), None);
    }

    #[test]
    fn counters_tolerate_absent_fields() {
        let full = cell("optimized", "0x1", Some(STATS));
        let got: BTreeMap<_, _> = layer_counters(&[&full]).into_iter().collect();
        assert_eq!(got["sim.demand_refs"], Some(50.0));
        assert_eq!(got["tagmem.forwarded_refs"], Some(8.0));
        assert_eq!(got["tagmem.hops"], Some((3 + 2) as f64 + 1.0));
        assert_eq!(got["cache.l1_misses"], Some(14.0));
        assert_eq!(got["cache.l2_misses"], Some(6.0));
        assert_eq!(got["core.relocated_words"], Some(12.0));
        assert_eq!(got["core.epoch.replayed_frac"], None, "no host_epoch field");

        // A report whose stats lost most fields still yields what is there.
        let thin = cell("optimized", "0x1", Some("RunStats { dispatched: 5 }"));
        let got: BTreeMap<_, _> = layer_counters(&[&thin]).into_iter().collect();
        assert_eq!(got["cpu.dispatched"], Some(5.0));
        assert_eq!(got["tagmem.hops"], None);
        assert_eq!(got["cache.l2_misses"], None);
        let none = cell("optimized", "0x1", None);
        let got: BTreeMap<_, _> = layer_counters(&[&none]).into_iter().collect();
        assert_eq!(got["cpu.cycles"], Some(100.0));
        assert_eq!(got["cpu.misspeculations"], None);

        let mut epoch = cell("optimized", "0x1", None);
        epoch.host_epoch = Some("EpochStats { epochs: 2, committed: 30, replayed: 10 }".into());
        let got: BTreeMap<_, _> = layer_counters(&[&epoch]).into_iter().collect();
        assert_eq!(got["core.epoch.replayed_frac"], Some(0.25));
    }

    #[test]
    fn parses_cells_and_checks_variants() {
        let text = r#"{"schema_version": 2, "cells": [
            {"app": "smv", "variant": "original", "line_bytes": 32, "seed": 1,
             "outcome": "ok", "attempts": 1, "checksum": "0xab", "refs": 5, "cycles": 9,
             "stats": "RunStats { dispatched: 3 }"},
            {"app": "smv", "variant": "optimized", "line_bytes": 32, "seed": 1,
             "outcome": "poisoned", "attempts": 3, "error": "boom"}]}"#;
        let cells = parse_cells(text).expect("parses");
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].refs, Some(5));
        assert_eq!(cells[1].checksum, None);
        assert_eq!(check_completed(&cells, "r").len(), 1);
        assert!(check_variants_agree(&cells, "r").is_empty());
        let split = [
            cell("original", "0x1", None),
            cell("optimized", "0x2", None),
        ];
        assert_eq!(check_variants_agree(&split, "r").len(), 1);
        let reference: HashMap<_, _> = [(split[0].coords(), split[0].clone())].into();
        assert_eq!(
            check_against(&split, &reference, "r").len(),
            1,
            "optimized missing"
        );
        assert!(parse_cells("{}").is_err());
    }
}
