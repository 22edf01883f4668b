//! The service wire protocol: newline-delimited JSON over a local socket.
//!
//! Every request is one JSON object on one line carrying an `"op"` key;
//! every response is one JSON object on one line carrying `"ok"` (bool)
//! and `"type"` (the response shape). Operations:
//!
//! | op       | request fields            | success response type        |
//! |----------|---------------------------|------------------------------|
//! | `submit` | `spec`, optional `options`| `accepted` (or `shed` /      |
//! |          |                           | `draining`, both `ok: false`)|
//! | `status` | `job`                     | `status`                     |
//! | `report` | `job`                     | `report` (full JSON report,  |
//! |          |                           | escaped into one string)     |
//! | `health` | —                         | `health` (always answered)   |
//! | `stats`  | —                         | `stats`                      |
//! | `drain`  | —                         | `draining` (starts graceful  |
//! |          |                           | drain, like SIGTERM)         |
//!
//! The typed shed response is the backpressure contract: an overloaded
//! server answers `{"ok": false, "type": "shed", "reason": ...,
//! "queue_depth": N, "limit": M}` instead of queueing without bound, and
//! `health`/`stats` keep answering while it sheds.
//!
//! Sweep specs travel as the natural JSON shape of the PR-3 grid:
//! `{"apps": [...], "variants": [...], "line_bytes": [...],
//! "mem_latency": [...], "seeds": [...], "scale": "smoke"}` — the same
//! axes the `memfwd_sweep` CLI takes, so the client mode can forward its
//! flags verbatim.

use memfwd::json_escape;
use memfwd_apps::{App, Scale, Variant};
use memfwd_farm::minijson::{parse_json, Json};
use memfwd_farm::SweepSpec;

/// Per-job supervision options a client may attach to `submit`. Missing
/// fields take these defaults; unknown fields are rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOptions {
    /// Maximum retries after a cell's first attempt.
    pub retries: u32,
    /// Base backoff between attempts, in milliseconds.
    pub backoff_ms: u64,
    /// Per-cell no-progress deadline in milliseconds; `None` uses the
    /// server default.
    pub cell_timeout_ms: Option<u64>,
    /// Whole-job deadline in milliseconds; a job that exceeds it is
    /// marked failed (its journal is kept, so a resubmission is cheap).
    pub job_timeout_ms: Option<u64>,
}

impl Default for JobOptions {
    fn default() -> JobOptions {
        JobOptions {
            retries: 2,
            backoff_ms: 50,
            cell_timeout_ms: None,
            job_timeout_ms: None,
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Submit a grid for execution.
    Submit {
        /// The sweep grid to run.
        spec: SweepSpec,
        /// Supervision options.
        options: JobOptions,
    },
    /// Query one job's progress.
    Status {
        /// The job id from `accepted`.
        job: String,
    },
    /// Fetch one finished job's full report.
    Report {
        /// The job id from `accepted`.
        job: String,
    },
    /// Liveness/degradation probe; answered even while shedding or
    /// draining.
    Health,
    /// Counter snapshot (cache hit rate, quarantine counts, queue depth).
    Stats,
    /// Begin a graceful drain, exactly like SIGTERM.
    Drain,
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Bench => "bench",
    }
}

fn scale_from_name(name: &str) -> Result<Scale, String> {
    match name {
        "smoke" => Ok(Scale::Smoke),
        "bench" => Ok(Scale::Bench),
        other => Err(format!("unknown scale '{other}'")),
    }
}

/// Serializes a sweep spec as a compact one-line JSON object.
pub fn spec_to_json(spec: &SweepSpec) -> String {
    let strs = |names: Vec<&str>| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    let nums = |ns: &[u64]| ns.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    format!(
        "{{\"apps\":[{}],\"variants\":[{}],\"line_bytes\":[{}],\"mem_latency\":[{}],\"seeds\":[{}],\"scale\":\"{}\"}}",
        strs(spec.apps.iter().map(|a| a.name()).collect()),
        strs(spec.variants.iter().map(|v| v.name()).collect()),
        nums(&spec.line_bytes),
        nums(&spec.mem_latency),
        nums(&spec.seeds),
        scale_name(spec.scale),
    )
}

fn str_list(v: &Json, key: &str) -> Result<Vec<String>, String> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("spec: \"{key}\" must be an array"))?;
    arr.iter()
        .map(|e| {
            e.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("spec: \"{key}\" entries must be strings"))
        })
        .collect()
}

fn num_list(v: &Json, key: &str) -> Result<Vec<u64>, String> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("spec: \"{key}\" must be an array"))?;
    arr.iter()
        .map(|e| {
            e.as_u64()
                .ok_or_else(|| format!("spec: \"{key}\" entries must be non-negative integers"))
        })
        .collect()
}

/// Parses a sweep spec from its JSON object form.
///
/// # Errors
///
/// A description of the first malformed or missing field.
pub fn spec_from_json(v: &Json) -> Result<SweepSpec, String> {
    let apps = str_list(v, "apps")?
        .iter()
        .map(|n| App::from_name(n).ok_or_else(|| format!("unknown app '{n}'")))
        .collect::<Result<Vec<_>, _>>()?;
    let variants = str_list(v, "variants")?
        .iter()
        .map(|n| Variant::from_name(n).ok_or_else(|| format!("unknown variant '{n}'")))
        .collect::<Result<Vec<_>, _>>()?;
    let scale = scale_from_name(
        v.get("scale")
            .and_then(Json::as_str)
            .ok_or("spec: \"scale\" must be a string")?,
    )?;
    Ok(SweepSpec {
        apps,
        variants,
        line_bytes: num_list(v, "line_bytes")?,
        mem_latency: num_list(v, "mem_latency")?,
        seeds: num_list(v, "seeds")?,
        scale,
    })
}

/// Serializes job options as a compact one-line JSON object.
pub fn options_to_json(o: &JobOptions) -> String {
    let mut fields = vec![
        format!("\"retries\":{}", o.retries),
        format!("\"backoff_ms\":{}", o.backoff_ms),
    ];
    if let Some(ms) = o.cell_timeout_ms {
        fields.push(format!("\"cell_timeout_ms\":{ms}"));
    }
    if let Some(ms) = o.job_timeout_ms {
        fields.push(format!("\"job_timeout_ms\":{ms}"));
    }
    format!("{{{}}}", fields.join(","))
}

/// Parses job options; missing fields take the [`JobOptions::default`]
/// values, unknown fields are rejected (a typo must not silently drop a
/// deadline).
///
/// # Errors
///
/// A description of the first malformed or unknown field.
pub fn options_from_json(v: &Json) -> Result<JobOptions, String> {
    let mut o = JobOptions::default();
    let Json::Obj(fields) = v else {
        return Err("options must be an object".into());
    };
    for (key, val) in fields {
        let num = || -> Result<u64, String> {
            val.as_u64()
                .ok_or_else(|| format!("options: \"{key}\" must be a non-negative integer"))
        };
        match key.as_str() {
            "retries" => o.retries = num()? as u32,
            "backoff_ms" => o.backoff_ms = num()?,
            "cell_timeout_ms" => o.cell_timeout_ms = Some(num()?),
            "job_timeout_ms" => o.job_timeout_ms = Some(num()?),
            other => return Err(format!("options: unknown field \"{other}\"")),
        }
    }
    Ok(o)
}

/// Parses one request line.
///
/// # Errors
///
/// A description of the first problem; the server ships it back as a
/// typed `error` response rather than dropping the connection.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line)?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request needs a string \"op\" field")?;
    let job_field = |v: &Json| -> Result<String, String> {
        v.get("job")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("op \"{op}\" needs a string \"job\" field"))
    };
    match op {
        "submit" => {
            let spec = spec_from_json(v.get("spec").ok_or("submit needs a \"spec\" object")?)?;
            let options = match v.get("options") {
                Some(o) => options_from_json(o)?,
                None => JobOptions::default(),
            };
            Ok(Request::Submit { spec, options })
        }
        "status" => Ok(Request::Status {
            job: job_field(&v)?,
        }),
        "report" => Ok(Request::Report {
            job: job_field(&v)?,
        }),
        "health" => Ok(Request::Health),
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        other => Err(format!("unknown op \"{other}\"")),
    }
}

// ---------------------------------------------------------------------
// Response builders. Each returns one line (no trailing newline).
// ---------------------------------------------------------------------

/// `submit` succeeded; the job is queued.
pub fn resp_accepted(job: &str) -> String {
    format!(
        "{{\"ok\":true,\"type\":\"accepted\",\"job\":\"{}\"}}",
        json_escape(job)
    )
}

/// The typed backpressure response: the job was refused because a bound
/// would be exceeded. Nothing was queued; the client may retry later.
pub fn resp_shed(reason: &str, queue_depth: usize, limit: usize) -> String {
    format!(
        "{{\"ok\":false,\"type\":\"shed\",\"reason\":\"{}\",\"queue_depth\":{queue_depth},\"limit\":{limit}}}",
        json_escape(reason)
    )
}

/// The server is draining and admits no new work.
pub fn resp_draining() -> String {
    "{\"ok\":false,\"type\":\"draining\"}".to_string()
}

/// A malformed request or unknown job.
pub fn resp_error(msg: &str) -> String {
    format!(
        "{{\"ok\":false,\"type\":\"error\",\"error\":\"{}\"}}",
        json_escape(msg)
    )
}

/// One job's progress.
pub fn resp_status(
    job: &str,
    state: &str,
    cells_total: usize,
    cells_done: usize,
    degraded: bool,
) -> String {
    format!(
        "{{\"ok\":true,\"type\":\"status\",\"job\":\"{}\",\"state\":\"{}\",\"cells_total\":{cells_total},\"cells_done\":{cells_done},\"degraded\":{degraded}}}",
        json_escape(job),
        json_escape(state),
    )
}

/// A finished job's full `BENCH_sweep.json` text, escaped into one JSON
/// string so the response stays one line. The client unescapes and writes
/// it verbatim — byte-identical to a local run's report file.
pub fn resp_report(job: &str, degraded: bool, report_json: &str) -> String {
    format!(
        "{{\"ok\":true,\"type\":\"report\",\"job\":\"{}\",\"degraded\":{degraded},\"report\":\"{}\"}}",
        json_escape(job),
        json_escape(report_json)
    )
}

/// The liveness probe: overall state plus the two numbers an operator
/// watches first.
pub fn resp_health(state: &str, queue_depth: usize, jobs_pending: usize) -> String {
    format!(
        "{{\"ok\":true,\"type\":\"health\",\"state\":\"{}\",\"queue_depth\":{queue_depth},\"jobs_pending\":{jobs_pending}}}",
        json_escape(state)
    )
}

/// A point-in-time snapshot of the service counters, for `stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs accepted since start.
    pub jobs_accepted: u64,
    /// Jobs that reached a final report.
    pub jobs_completed: u64,
    /// Submissions refused with a typed shed response.
    pub jobs_shed: u64,
    /// Cells computed by a worker this life.
    pub cells_executed: u64,
    /// Cells served from the persistent result cache.
    pub cells_from_cache: u64,
    /// Cells replayed from a campaign journal (crash resume).
    pub cells_from_journal: u64,
    /// Cache entries found corrupt, quarantined, and recomputed.
    pub cache_entries_quarantined: u64,
    /// Cache lookups served by the in-memory hot tier (no disk I/O).
    pub cache_hot_hits: u64,
    /// Cache lookups that fell through the hot tier to disk.
    pub cache_hot_misses: u64,
    /// Cells that ended poisoned or timed out across all jobs.
    pub cells_quarantined: u64,
    /// Unfinished cells across queued and running jobs, right now.
    pub queue_depth: u64,
    /// Jobs queued or running, right now.
    pub jobs_pending: u64,
}

impl StatsSnapshot {
    /// Fraction of resolved cells served from the cache (0.0 when no
    /// cell has resolved yet).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cells_executed + self.cells_from_cache;
        if total == 0 {
            0.0
        } else {
            self.cells_from_cache as f64 / total as f64
        }
    }
}

/// The `stats` response.
pub fn resp_stats(s: &StatsSnapshot) -> String {
    format!(
        "{{\"ok\":true,\"type\":\"stats\",\"jobs_accepted\":{},\"jobs_completed\":{},\"jobs_shed\":{},\"cells_executed\":{},\"cells_from_cache\":{},\"cells_from_journal\":{},\"cache_entries_quarantined\":{},\"cache_hot_hits\":{},\"cache_hot_misses\":{},\"cells_quarantined\":{},\"queue_depth\":{},\"jobs_pending\":{},\"cache_hit_rate\":{:.4}}}",
        s.jobs_accepted,
        s.jobs_completed,
        s.jobs_shed,
        s.cells_executed,
        s.cells_from_cache,
        s.cells_from_journal,
        s.cache_entries_quarantined,
        s.cache_hot_hits,
        s.cache_hot_misses,
        s.cells_quarantined,
        s.queue_depth,
        s.jobs_pending,
        s.cache_hit_rate(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = SweepSpec::default();
        let v = parse_json(&spec_to_json(&spec)).expect("parses");
        let back = spec_from_json(&v).expect("spec");
        assert_eq!(back.apps, spec.apps);
        assert_eq!(back.variants, spec.variants);
        assert_eq!(back.line_bytes, spec.line_bytes);
        assert_eq!(back.mem_latency, spec.mem_latency);
        assert_eq!(back.seeds, spec.seeds);
        assert_eq!(back.scale, spec.scale);
    }

    #[test]
    fn options_default_roundtrip_and_unknown_field_rejected() {
        let o = JobOptions {
            retries: 1,
            backoff_ms: 0,
            cell_timeout_ms: Some(2500),
            job_timeout_ms: None,
        };
        let v = parse_json(&options_to_json(&o)).expect("parses");
        assert_eq!(options_from_json(&v).expect("options"), o);
        let v = parse_json("{}").expect("parses");
        assert_eq!(options_from_json(&v).expect("empty"), JobOptions::default());
        let v = parse_json("{\"retires\":3}").expect("parses");
        assert!(options_from_json(&v).is_err(), "typo must be rejected");
    }

    #[test]
    fn requests_parse_and_malformed_are_typed() {
        let line = format!(
            "{{\"op\":\"submit\",\"spec\":{}}}",
            spec_to_json(&SweepSpec::default())
        );
        assert!(matches!(parse_request(&line), Ok(Request::Submit { .. })));
        assert!(matches!(
            parse_request("{\"op\":\"status\",\"job\":\"job-000001\"}"),
            Ok(Request::Status { .. })
        ));
        assert!(matches!(
            parse_request("{\"op\":\"health\"}"),
            Ok(Request::Health)
        ));
        assert!(matches!(
            parse_request("{\"op\":\"drain\"}"),
            Ok(Request::Drain)
        ));
        assert!(parse_request("{\"op\":\"explode\"}").is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"report\"}").is_err(), "missing job");
    }

    #[test]
    fn responses_are_single_parseable_lines() {
        let report_text = "{\n  \"schema_version\": 2\n}\n";
        for line in [
            resp_accepted("job-000001"),
            resp_shed("queue_full", 4096, 4096),
            resp_draining(),
            resp_error("broken \"quote\""),
            resp_status("job-000001", "running", 8, 3, false),
            resp_report("job-000001", false, report_text),
            resp_health("ok", 0, 0),
            resp_stats(&StatsSnapshot::default()),
        ] {
            assert!(!line.contains('\n'), "{line}");
            parse_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // The escaped report unescapes back to the exact original text.
        let v = parse_json(&resp_report("j", true, report_text)).expect("parses");
        assert_eq!(v.get("report").and_then(Json::as_str), Some(report_text));
        assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn stats_hit_rate_is_guarded() {
        let mut s = StatsSnapshot::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.cells_from_cache = 9;
        s.cells_executed = 1;
        assert!((s.cache_hit_rate() - 0.9).abs() < 1e-9);
    }
}
