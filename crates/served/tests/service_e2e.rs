//! End-to-end tests of the `memfwd_served` binary over its Unix socket:
//! the four-way determinism gate (local run, service submission, warm
//! cache resubmission, SIGKILL + `--resume`), typed load shedding with a
//! live `health` endpoint, graceful drain, and quarantine surfacing in
//! `stats`.

#![cfg(unix)]

use memfwd_apps::{App, Scale, Variant};
use memfwd_farm::minijson::{parse_json, Json};
use memfwd_farm::sweep::{run_sweep, strip_volatile_lines};
use memfwd_farm::SweepSpec;
use memfwd_served::{proto, JobOptions};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_memfwd_served");

fn small_grid() -> SweepSpec {
    SweepSpec {
        apps: vec![App::Health, App::Mst],
        variants: vec![Variant::Original, Variant::Optimized],
        line_bytes: vec![32],
        mem_latency: vec![75],
        seeds: vec![12345],
        scale: Scale::Smoke,
    }
}

fn wide_grid() -> SweepSpec {
    SweepSpec {
        apps: vec![App::Health, App::Mst],
        variants: vec![Variant::Original, Variant::Optimized],
        line_bytes: vec![32, 64],
        mem_latency: vec![75],
        seeds: vec![1, 2, 3],
        scale: Scale::Smoke,
    }
}

struct Server {
    child: Child,
    socket: PathBuf,
    state: PathBuf,
}

impl Server {
    /// Starts a fresh server on its own socket + state dir (named per
    /// test so tests are independent) and waits until it accepts. Runs
    /// cells in-process (fast); see [`Server::start_subprocess`] for the
    /// production worker-process mode.
    fn start(name: &str, resume: bool, extra: &[&str]) -> Server {
        Server::spawn(name, resume, true, extra)
    }

    /// Starts a server in the default subprocess-worker mode: each cell
    /// is a re-exec of `memfwd_served --worker-cell`.
    fn start_subprocess(name: &str) -> Server {
        Server::spawn(name, false, false, &[])
    }

    fn spawn(name: &str, resume: bool, in_process: bool, extra: &[&str]) -> Server {
        let base = std::env::temp_dir().join(format!("memfwd-e2e-{}-{name}", std::process::id()));
        if !resume {
            std::fs::remove_dir_all(&base).ok();
        }
        std::fs::create_dir_all(&base).expect("test dir");
        let socket = base.join("s.sock");
        let state = base.join("state");
        let mut cmd = Command::new(EXE);
        cmd.arg("--socket")
            .arg(&socket)
            .arg("--state-dir")
            .arg(&state)
            .args(["--jobs", "2"])
            .args(extra)
            .stdout(Stdio::null());
        if in_process {
            cmd.arg("--in-process");
        }
        if resume {
            cmd.arg("--resume");
        }
        let child = cmd.spawn().expect("spawn memfwd_served");
        let server = Server {
            child,
            socket,
            state,
        };
        server.wait_connectable();
        server
    }

    fn wait_connectable(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if UnixStream::connect(&self.socket).is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!(
            "server never became connectable at {}",
            self.socket.display()
        );
    }

    fn client(&self) -> Client {
        let stream = UnixStream::connect(&self.socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn kill9(&mut self) {
        self.child.kill().expect("SIGKILL");
        self.child.wait().expect("reap");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn rpc(&mut self, line: &str) -> Json {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .expect("send");
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp).expect("recv");
        assert!(n > 0, "server closed the connection after: {line}");
        parse_json(&resp).unwrap_or_else(|e| panic!("bad response {resp:?}: {e}"))
    }

    fn submit(&mut self, spec: &SweepSpec) -> Json {
        self.rpc(&format!(
            "{{\"op\":\"submit\",\"spec\":{}}}",
            proto::spec_to_json(spec)
        ))
    }

    /// Submits and expects acceptance, returning the job id.
    fn submit_ok(&mut self, spec: &SweepSpec) -> String {
        let v = self.submit(spec);
        assert_eq!(
            v.get("type").and_then(Json::as_str),
            Some("accepted"),
            "{v:?}"
        );
        v.get("job")
            .and_then(Json::as_str)
            .expect("job id")
            .to_string()
    }

    /// Polls `status` until the job is done, then returns the report text.
    fn wait_report(&mut self, job: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let v = self.rpc(&format!("{{\"op\":\"status\",\"job\":\"{job}\"}}"));
            match v.get("state").and_then(Json::as_str) {
                Some("done") => break,
                Some("queued") | Some("running") => {}
                other => panic!("job {job} ended {other:?}: {v:?}"),
            }
            assert!(Instant::now() < deadline, "timed out waiting for {job}");
            std::thread::sleep(Duration::from_millis(25));
        }
        let v = self.rpc(&format!("{{\"op\":\"report\",\"job\":\"{job}\"}}"));
        assert_eq!(
            v.get("type").and_then(Json::as_str),
            Some("report"),
            "{v:?}"
        );
        assert_eq!(
            v.get("degraded").and_then(Json::as_bool),
            Some(false),
            "{v:?}"
        );
        v.get("report")
            .and_then(Json::as_str)
            .expect("report body")
            .to_string()
    }

    fn stats(&mut self) -> Json {
        self.rpc("{\"op\":\"stats\"}")
    }

    fn stat(&mut self, key: &str) -> u64 {
        self.stats().get(key).and_then(Json::as_u64).expect(key)
    }
}

/// The tentpole's acceptance gate, legs (a)–(c): the same grid produces a
/// byte-identical `--strip-volatile` report computed locally, via service
/// submission, and via a cache-warm resubmission — which must also be
/// served ≥90% from the cache.
#[test]
fn service_and_cache_warm_reports_match_local_run() {
    let spec = small_grid();
    let cells = spec.expand().len() as u64;
    let golden = strip_volatile_lines(&run_sweep(&spec, 1).to_json());

    let server = Server::start("determinism", false, &[]);
    let mut c = server.client();

    let job = c.submit_ok(&spec);
    let report = c.wait_report(&job);
    assert_eq!(
        strip_volatile_lines(&report),
        golden,
        "service report diverged from the local run"
    );

    // Warm resubmission: same grid, new job — every cell should come
    // from the persistent cache, and the stripped report must not change
    // a byte (the raw one differs only in host wall time).
    let cached_before = c.stat("cells_from_cache");
    let job2 = c.submit_ok(&spec);
    let report2 = c.wait_report(&job2);
    assert_ne!(job, job2);
    assert_eq!(
        strip_volatile_lines(&report2),
        golden,
        "cache-warm report diverged"
    );
    let cached = c.stat("cells_from_cache") - cached_before;
    assert!(
        cached * 10 >= cells * 9,
        "warm resubmission served {cached}/{cells} cells from cache (<90%)"
    );

    // Drain via the protocol: the server must exit 0.
    let v = c.rpc("{\"op\":\"drain\"}");
    assert_eq!(v.get("type").and_then(Json::as_str), Some("draining"));
    let mut server = server;
    let status = server.child.wait().expect("wait");
    assert_eq!(status.code(), Some(0), "drain must exit 0");
}

/// Leg (d): SIGKILL the server mid-campaign, restart with `--resume`, and
/// the job completes with a report byte-identical to the clean local run.
#[test]
fn sigkill_resume_report_is_bit_identical() {
    let spec = wide_grid();
    let golden = strip_volatile_lines(&run_sweep(&spec, 1).to_json());

    let mut server = Server::start("kill", false, &[]);
    let mut c = server.client();
    let job = c.submit_ok(&spec);
    // Let the job get in flight, then kill without ceremony.
    std::thread::sleep(Duration::from_millis(120));
    server.kill9();
    drop(c);

    // Same socket + state dir, --resume: the job re-enqueues from its
    // durable job.spec, journaled cells replay, the rest recompute.
    let server2 = Server::start("kill", true, &[]);
    let mut c = server2.client();
    let report = c.wait_report(&job);
    assert_eq!(
        strip_volatile_lines(&report),
        golden,
        "post-kill resumed report diverged from the clean local run"
    );
}

/// An overloaded server sheds with a typed response — naming the reason,
/// depth, and limit — while `health` keeps answering, and a drained
/// server refuses admission with `draining`.
#[test]
fn overload_sheds_typed_and_health_answers() {
    // Bounds low enough that the second submission must be refused.
    let server = Server::start(
        "shed",
        false,
        &["--max-pending-jobs", "1", "--max-queued-cells", "64"],
    );
    let mut c = server.client();
    let _job = c.submit_ok(&wide_grid());

    // Hammer until a shed arrives (the first job may drain the queue
    // fast; admission is checked against live queue depth).
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut shed = None;
    while Instant::now() < deadline {
        let v = c.submit(&wide_grid());
        match v.get("type").and_then(Json::as_str) {
            Some("shed") => {
                shed = Some(v);
                break;
            }
            Some("accepted") => continue,
            other => panic!("unexpected submit response {other:?}: {v:?}"),
        }
    }
    let shed = shed.expect("bounded server never shed");
    assert!(
        shed.get("reason").and_then(Json::as_str).is_some(),
        "{shed:?}"
    );
    assert!(
        shed.get("queue_depth").and_then(Json::as_u64).is_some(),
        "{shed:?}"
    );
    assert!(
        shed.get("limit").and_then(Json::as_u64).is_some(),
        "{shed:?}"
    );

    // Health answers while shedding — on a second connection, like a
    // monitoring agent would.
    let mut health_conn = server.client();
    let v = health_conn.rpc("{\"op\":\"health\"}");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    assert!(v.get("state").and_then(Json::as_str).is_some(), "{v:?}");

    // Shed submissions are counted.
    assert!(c.stat("jobs_shed") >= 1);

    // After drain begins, admission answers `draining`, and health still
    // answers while the server winds down.
    c.rpc("{\"op\":\"drain\"}");
    let v = health_conn.submit(&small_grid());
    assert_eq!(
        v.get("type").and_then(Json::as_str),
        Some("draining"),
        "{v:?}"
    );
    let v = health_conn.rpc("{\"op\":\"health\"}");
    assert_eq!(
        v.get("state").and_then(Json::as_str),
        Some("draining"),
        "{v:?}"
    );
}

/// A grid whose axis product passes 2^40 cells is shed as `job_too_large`
/// from its axis lengths alone; expanding it would need terabytes.
#[test]
fn huge_grid_is_shed_before_expansion() {
    let server = Server::start("huge", false, &[]);
    let mut c = server.client();
    let spec = SweepSpec {
        apps: App::ALL.to_vec(),
        variants: vec![Variant::Original, Variant::Optimized, Variant::Static],
        line_bytes: vec![32; 4096],
        mem_latency: vec![75; 4096],
        seeds: vec![1; 4096],
        scale: Scale::Smoke,
    };
    let cells = spec.cell_count().expect("fits in usize");
    assert!(cells > 1 << 40, "{cells}");
    let v = c.submit(&spec);
    assert_eq!(v.get("type").and_then(Json::as_str), Some("shed"), "{v:?}");
    assert_eq!(
        v.get("reason").and_then(Json::as_str),
        Some("job_too_large"),
        "{v:?}"
    );
    assert_eq!(
        v.get("queue_depth").and_then(Json::as_u64),
        Some(cells as u64)
    );
    assert_eq!(c.stat("jobs_shed"), 1);
}

/// A durable `job.spec` whose grid passes the per-job cell limit — one
/// tampered on disk, since admission would have shed it — is skipped by
/// `--resume` from its axis lengths alone: the server comes up, `health`
/// answers, and the job does not exist.
#[test]
fn oversized_durable_job_spec_is_skipped_on_resume() {
    let name = "tampered";
    let base = std::env::temp_dir().join(format!("memfwd-e2e-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let job_dir = base.join("state").join("jobs").join("job-000000");
    std::fs::create_dir_all(&job_dir).expect("job dir");
    let spec = SweepSpec {
        apps: App::ALL.to_vec(),
        variants: vec![Variant::Original, Variant::Optimized, Variant::Static],
        line_bytes: vec![32; 4096],
        mem_latency: vec![75; 4096],
        seeds: vec![1; 4096],
        scale: Scale::Smoke,
    };
    assert!(spec.cell_count().expect("fits in usize") > 1 << 40);
    std::fs::write(
        job_dir.join("job.spec"),
        format!(
            "{{\"id\":\"job-000000\",\"seq\":0,\"spec\":{}}}\n",
            proto::spec_to_json(&spec)
        ),
    )
    .expect("write job.spec");

    let server = Server::start(name, true, &[]);
    let mut c = server.client();
    let v = c.rpc("{\"op\":\"health\"}");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    assert_eq!(
        v.get("jobs_pending").and_then(Json::as_u64),
        Some(0),
        "{v:?}"
    );
    let v = c.rpc("{\"op\":\"status\",\"job\":\"job-000000\"}");
    assert_eq!(v.get("type").and_then(Json::as_str), Some("error"), "{v:?}");
}

/// A job whose deadline passes stops claiming cells and ends `failed`
/// with "job deadline exceeded". Resubmitting the grid with no deadline
/// completes with the local run's report, and the cells the first job
/// finished are served from the cache rather than run again.
#[test]
fn job_deadline_fails_the_job_and_resubmission_reruns_nothing() {
    // Twenty seeds on one worker: 160 cells, which outlast a 1 ms deadline
    // by far even in a release build.
    let spec = SweepSpec {
        seeds: (1..=20).collect(),
        ..wide_grid()
    };
    let cells = spec.expand().len() as u64;
    let golden = strip_volatile_lines(&run_sweep(&spec, 1).to_json());

    let server = Server::start("deadline", false, &["--jobs", "1"]);
    let mut c = server.client();
    let options = JobOptions {
        job_timeout_ms: Some(1),
        ..JobOptions::default()
    };
    let v = c.rpc(&format!(
        "{{\"op\":\"submit\",\"spec\":{},\"options\":{}}}",
        proto::spec_to_json(&spec),
        proto::options_to_json(&options)
    ));
    let job = v
        .get("job")
        .and_then(Json::as_str)
        .expect("accepted")
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let v = c.rpc(&format!("{{\"op\":\"status\",\"job\":\"{job}\"}}"));
        match v.get("state").and_then(Json::as_str) {
            Some("failed") => break,
            Some("queued") | Some("running") => {}
            other => panic!("job {job} ended {other:?}, not failed: {v:?}"),
        }
        assert!(Instant::now() < deadline, "timed out waiting for {job}");
        std::thread::sleep(Duration::from_millis(25));
    }
    let v = c.rpc(&format!("{{\"op\":\"report\",\"job\":\"{job}\"}}"));
    assert!(
        v.get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("job deadline exceeded")),
        "{v:?}"
    );
    let finished = c.stat("cells_executed");
    assert!(finished < cells, "{finished} of {cells} cells ran");

    let job2 = c.submit_ok(&spec);
    let report = c.wait_report(&job2);
    assert_eq!(
        strip_volatile_lines(&report),
        golden,
        "resubmitted report diverged from the local run"
    );
    assert_eq!(c.stat("cells_executed"), cells, "a finished cell ran again");
    assert_eq!(c.stat("cells_from_cache"), finished);
}

/// A request line one byte over the cap, with no newline, gets a typed
/// error and a closed connection; the server keeps serving others.
#[test]
fn over_long_request_line_is_refused_typed() {
    let server = Server::start("longline", false, &[]);
    let mut c = server.client();
    c.writer
        .write_all(&vec![b' '; proto::MAX_REQUEST_BYTES + 1])
        .expect("send");
    let mut resp = String::new();
    c.reader.read_line(&mut resp).expect("recv");
    let v = parse_json(&resp).unwrap_or_else(|e| panic!("bad response {resp:?}: {e}"));
    assert_eq!(v.get("type").and_then(Json::as_str), Some("error"), "{v:?}");
    assert!(
        v.get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("exceeds")),
        "{v:?}"
    );
    resp.clear();
    assert_eq!(c.reader.read_line(&mut resp).expect("eof"), 0, "{resp:?}");
    let v = server.client().rpc("{\"op\":\"health\"}");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
}

/// The production worker mode: cells run as `--worker-cell` re-execs of
/// the server binary (not in-process), results flow back through sealed
/// result files, and the report still matches the local run byte for
/// byte after stripping — with zero poisoned cells. Pins the worker
/// argv contract between the supervisor and the served binary.
#[test]
fn subprocess_worker_mode_report_matches_local_run() {
    let spec = small_grid();
    let golden = strip_volatile_lines(&run_sweep(&spec, 1).to_json());
    let server = Server::start_subprocess("subprocess");
    let mut c = server.client();
    let job = c.submit_ok(&spec);
    // wait_report asserts degraded == false, so a worker that fails to
    // parse its argv (poisoning every cell) fails here, not silently.
    let report = c.wait_report(&job);
    assert_eq!(
        strip_volatile_lines(&report),
        golden,
        "subprocess-worker report diverged from the local run"
    );
    assert_eq!(c.stat("cells_executed"), spec.expand().len() as u64);
}

/// SIGTERM (not just the protocol op) triggers the same graceful drain
/// with exit 0.
#[test]
fn sigterm_drains_gracefully() {
    let mut server = Server::start("sigterm", false, &[]);
    let mut c = server.client();
    let job = c.submit_ok(&small_grid());
    let _ = c.wait_report(&job);
    let pid = server.child.id().to_string();
    let ok = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("spawn kill")
        .success();
    assert!(ok, "kill -TERM failed");
    let status = server.child.wait().expect("wait");
    assert_eq!(status.code(), Some(0), "SIGTERM drain must exit 0");
}

/// A cache entry corrupted between jobs is quarantined — surfacing in
/// `stats` — and the resubmission still completes with a byte-identical
/// report (recompute, never a wrong hit).
#[test]
fn corrupted_cache_entry_surfaces_in_stats_and_never_serves() {
    let spec = small_grid();
    let server = Server::start("quarantine", false, &[]);
    let mut c = server.client();
    let job = c.submit_ok(&spec);
    let report = c.wait_report(&job);

    // Rot every cached entry the way a bad disk would: flip one payload
    // bit in place.
    let cache_dir = server.state.join("cache");
    let mut rotted = 0;
    for entry in std::fs::read_dir(&cache_dir).expect("cache dir") {
        let path = entry.expect("entry").path();
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rot");
        rotted += 1;
    }
    assert!(rotted > 0, "first job cached nothing");

    let q_before = c.stat("cache_entries_quarantined");
    let job2 = c.submit_ok(&spec);
    let report2 = c.wait_report(&job2);
    assert_eq!(
        strip_volatile_lines(&report2),
        strip_volatile_lines(&report),
        "recomputed report diverged"
    );
    let q = c.stat("cache_entries_quarantined") - q_before;
    assert_eq!(q, rotted as u64, "every rotted entry must surface in stats");
    // And the quarantine sidecar holds the evidence.
    let sidecar = std::fs::read_dir(server.state.join("quarantine"))
        .expect("quarantine dir")
        .count();
    assert_eq!(sidecar, rotted);
}
