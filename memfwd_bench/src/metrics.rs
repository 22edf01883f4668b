//! The metric catalogue and the end-to-end numbers of a run.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics with the
//! same units, directions and bounds; a unit test keeps the two equal.

use crate::stats::{summarize, tail_percentile, Summary};
use crate::workloads::Measured;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: true,
        bound,
    }
}

/// Bounds come from ten-seed sets on a shared 2-core host (README.md):
/// compute-bound timings there drift 5–13% between runs minutes apart.
pub const END_TO_END: [MetricDef; 4] = [
    lower("report_ms_p50", "ms", 0.20),
    MetricDef {
        name: "sim_refs_per_s",
        unit: "refs/s",
        lower_is_better: false,
        bound: 0.20,
    },
    lower("peak_rss_mb", "MiB", 0.20),
    lower("setup_s", "s", 0.25),
];

/// Per-layer metrics: name, unit, and the end-to-end metric and workload
/// each is expected to move.
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    (
        "trace.overhead_frac",
        "fraction",
        "informational: traced against untraced ops of this run",
    ),
    (
        "harness.self_ms_per_op",
        "ms",
        "report_ms_p50, every workload: time the harness adds",
    ),
    (
        "sim.demand_refs",
        "count",
        "identity witness: sim_refs_per_s numerator",
    ),
    (
        "tagmem.forwarded_refs",
        "count",
        "identity witness: forwarding work, solo-perop (smv)",
    ),
    (
        "tagmem.hops",
        "count",
        "identity witness: chain-walk work, solo-perop (smv)",
    ),
    (
        "cache.l1_misses",
        "count",
        "identity witness: explains per-app rates",
    ),
    (
        "cache.l2_misses",
        "count",
        "identity witness: explains per-app rates",
    ),
    (
        "cache.bytes_l2_mem",
        "bytes",
        "identity witness: explains per-app rates",
    ),
    ("cpu.cycles", "count", "identity witness: simulated time"),
    ("cpu.dispatched", "count", "identity witness: pipeline work"),
    (
        "cpu.misspeculations",
        "count",
        "identity witness: speculation-queue work",
    ),
    (
        "core.relocated_words",
        "count",
        "identity witness: relocation work",
    ),
    (
        "core.epoch.replayed_frac",
        "fraction",
        "sim_refs_per_s on solo-batched",
    ),
    (
        "apps.health.refs_per_s",
        "refs/s",
        "sim_refs_per_s on solo-batched",
    ),
    (
        "apps.mst.refs_per_s",
        "refs/s",
        "sim_refs_per_s on solo-batched",
    ),
    (
        "apps.vis.refs_per_s",
        "refs/s",
        "sim_refs_per_s on solo-batched",
    ),
    (
        "apps.radiosity.refs_per_s",
        "refs/s",
        "sim_refs_per_s on solo-perop",
    ),
    (
        "apps.eqntott.refs_per_s",
        "refs/s",
        "sim_refs_per_s on solo-perop",
    ),
    (
        "apps.bh.refs_per_s",
        "refs/s",
        "sim_refs_per_s on solo-perop",
    ),
    (
        "apps.compress.refs_per_s",
        "refs/s",
        "sim_refs_per_s on solo-perop",
    ),
    (
        "apps.smv.refs_per_s",
        "refs/s",
        "sim_refs_per_s on solo-perop",
    ),
    (
        "apps.ckpt.overhead_frac",
        "fraction",
        "report_ms_p50 on service-cold",
    ),
    (
        "apps.ckpt.overhead_frac_max",
        "fraction",
        "report_ms_p50 on service-cold",
    ),
    ("apps.ckpt.writes", "count", "report_ms_p50 on service-cold"),
    (
        "core.snapshot.bytes",
        "bytes",
        "report_ms_p50 on service-cold",
    ),
    (
        "core.snapshot.save_ms",
        "ms",
        "report_ms_p50 on service-cold",
    ),
    (
        "core.snapshot.load_ms",
        "ms",
        "report_ms_p50 on service-cold",
    ),
    (
        "farm.supervised_overhead_frac",
        "fraction",
        "report_ms_p50 on service-cold",
    ),
    (
        "farm.ckpt_share",
        "fraction",
        "report_ms_p50 on service-cold",
    ),
    (
        "farm.journal.append_ms_p50",
        "ms",
        "report_ms_p50 on service-cold",
    ),
    (
        "farm.attempts_per_cell",
        "count",
        "report_ms_p50 on service-cold",
    ),
    (
        "farm.report.bytes",
        "bytes",
        "report_ms_p50 on service-warm",
    ),
    (
        "served.connect_ms_p50",
        "ms",
        "report_ms_p50 on service-warm and service-cold",
    ),
    (
        "served.status_rtt_ms_p50",
        "ms",
        "report_ms_p50 on service-warm",
    ),
    (
        "served.submit_rtt_ms_p50",
        "ms",
        "report_ms_p50 on service-warm",
    ),
    (
        "served.report_rtt_ms_p50",
        "ms",
        "report_ms_p50 on service-warm",
    ),
    (
        "served.report_bytes",
        "bytes",
        "report_ms_p50 on service-warm",
    ),
    (
        "served.queue_wait_ms_p50",
        "ms",
        "report_ms_p50 on service-warm",
    ),
    ("served.job_ms_p50", "ms", "report_ms_p50 on service-warm"),
    (
        "served.cache.hit_frac",
        "fraction",
        "report_ms_p50 on service-warm",
    ),
    (
        "served.cache.hot_hit_frac",
        "fraction",
        "report_ms_p50 on service-warm",
    ),
    (
        "served.cache.lookup_us_p50",
        "us",
        "report_ms_p50 on service-warm",
    ),
    (
        "served.cache.disk_lookup_us_p50",
        "us",
        "report_ms_p50 on service-warm",
    ),
    (
        "served.cache.store_us_p50",
        "us",
        "report_ms_p50 on service-warm and service-cold",
    ),
    (
        "served.shed_frac",
        "fraction",
        "report_ms_p50 on service-warm",
    ),
    (
        "bench.client_overhead_ms_p50",
        "ms",
        "report_ms_p50 on service-warm",
    ),
    ("bench.client_ms_p50", "ms", "report_ms_p50 on service-warm"),
];

/// One end-to-end metric of a run: the reported value and the spread of
/// its per-operation samples.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    pub def: MetricDef,
    pub value: f64,
    pub samples: Summary,
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
///
/// - `report_ms_p50`: median time from spawning a pass or a submitting
///   client until it exits with its report written.
/// - `sim_refs_per_s`: demand references per operation over
///   `report_ms_p50`.
/// - `peak_rss_mb`: the largest peak resident set of the processes the
///   operations used, reaped workers included.
/// - `setup_s`: median set-up time (warm-up pass, or server start).
///
/// The CPU time per operation goes to `results.json` only: on a shared
/// host it drifts as much as wall time and says little more.
pub fn end_to_end(m: &Measured) -> Option<Vec<E2e>> {
    let n = m.ops.len();
    if n == 0 {
        return None;
    }
    let ms: Vec<f64> = m.ops.iter().map(|o| o.ms).collect();
    let rates: Vec<f64> = m
        .ops
        .iter()
        .zip(&m.op_refs)
        .map(|(o, &r)| r as f64 / (o.ms / 1e3))
        .collect();
    let rss: Vec<f64> = m
        .ops
        .iter()
        .map(|o| o.rss_kib.max(m.shared_rss_kib) as f64 / 1024.0)
        .collect();
    let refs_per_op = m.op_refs.iter().sum::<u64>() as f64 / n as f64;
    let rss_max = rss.iter().copied().fold(0.0, f64::max);
    let (ms, setup) = (summarize(&ms)?, summarize(&m.setup_s)?);
    let values = [
        (ms, ms.median),
        (summarize(&rates)?, refs_per_op / (ms.median / 1e3)),
        (summarize(&rss)?, rss_max),
        (setup, setup.median),
    ];
    Some(
        END_TO_END
            .iter()
            .zip(values)
            .map(|(def, (samples, value))| E2e {
                def: *def,
                value,
                samples,
            })
            .collect(),
    )
}

/// CPU time per operation of every process it used, reaped workers
/// included; a long-lived server's CPU is shared evenly over the ops.
pub fn cpu_ms_per_op(m: &Measured) -> Option<Summary> {
    let shared_ms = m.shared_cpu.as_secs_f64() * 1e3 / m.ops.len().max(1) as f64;
    let cpu: Vec<f64> = m
        .ops
        .iter()
        .map(|o| o.cpu.as_secs_f64() * 1e3 + shared_ms)
        .collect();
    summarize(&cpu)
}

/// The highest percentile of the op latencies that keeps ten samples
/// beyond it, with its value.
pub fn latency_tail(m: &Measured) -> Option<(f64, f64)> {
    let ms: Vec<f64> = m.ops.iter().map(|o| o.ms).collect();
    let p = tail_percentile(ms.len())?;
    Some((p, crate::stats::percentile(&ms, p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    /// The catalogue here and `BENCHMARK.json` must not drift apart.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = parse(&text).expect("BENCHMARK.json parses");
        let e2e = root
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, def) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(def.unit));
            let better = if def.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        let layers = root
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, _)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(unit));
        }
        assert_eq!(
            root.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        let workloads: Vec<&str> = root
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
