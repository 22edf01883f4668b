//! The service side: starting and stopping `memfwd_served`, and a protocol
//! client that speaks the newline-delimited JSON of its socket.

use crate::json::{parse, Json};
use crate::proc::{self, Exit, Running};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Worker threads per job: the load is sized for a 2-core host.
const SERVER_JOBS: &str = "2";

/// Wait between the socket appearing and the first health probe.
const SETTLE: Duration = Duration::from_millis(5);

/// One open protocol connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    pub fn connect(socket: &Path) -> std::io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends one request line and reads one response line.
    pub fn rpc(&mut self, request: &str) -> Result<(Json, usize), String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("sending request: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("service closed the connection".into()),
            Ok(n) => Ok((parse(&line)?, n)),
            Err(e) => Err(format!("reading response: {e}")),
        }
    }
}

/// The JSON `spec` of a bench-scale grid at the default memory latency.
pub fn spec_json(apps: &[&str], variants: &[&str], lines: &[u64], seeds: &[u64]) -> String {
    let strs = |v: &[&str]| {
        v.iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    let nums = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    format!(
        "{{\"apps\":[{}],\"variants\":[{}],\"line_bytes\":[{}],\"mem_latency\":[75],\"seeds\":[{}],\"scale\":\"bench\"}}",
        strs(apps),
        strs(variants),
        nums(lines),
        nums(seeds)
    )
}

/// `p` relative to the working directory when it lies below it. A Unix
/// socket path must fit in 108 bytes, which a deep checkout can exceed;
/// the server and its clients all share the harness's directory.
fn short_path(p: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| p.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| p.to_path_buf())
}

/// A running `memfwd_served`.
pub struct Server {
    proc: Option<Running>,
    pub socket: PathBuf,
}

impl Server {
    /// Starts a server on `state_dir` and waits until `health` answers.
    /// Returns the server and the time from spawn to that answer.
    pub fn start(
        bin: &Path,
        state_dir: &Path,
        log: &std::fs::File,
    ) -> Result<(Server, Duration), String> {
        let socket = short_path(&state_dir.with_extension("sock"));
        std::fs::remove_file(&socket).ok();
        let running = proc::spawn(
            Command::new(bin)
                .arg("--socket")
                .arg(&socket)
                .arg("--state-dir")
                .arg(state_dir)
                .args(["--jobs", SERVER_JOBS]),
            log,
        )
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let t0 = Instant::now();
        let server = Server {
            proc: Some(running),
            socket,
        };
        let give_up = Duration::from_secs(20);
        while !server.socket.exists() {
            if t0.elapsed() > give_up {
                return Err("memfwd_served did not bind its socket within 20 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        // Connect once the listener is surely past its first accept call.
        // A connect that races that call is served at once or after a full
        // accept-loop sleep, which would make start-up time bimodal.
        std::thread::sleep(SETTLE);
        loop {
            if let Ok(mut c) = Conn::connect(&server.socket) {
                if let Ok((v, _)) = c.rpc("{\"op\":\"health\"}") {
                    if v.get("type").and_then(Json::as_str) == Some("health") {
                        return Ok((server, t0.elapsed()));
                    }
                }
            }
            if t0.elapsed() > give_up {
                return Err("memfwd_served did not answer health within 20 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Drains the server with SIGTERM (it finishes in-flight cells and
    /// exits 0) and reaps it.
    pub fn stop(mut self) -> Result<Exit, String> {
        let running = self.proc.take().ok_or("server already stopped")?;
        running.signal(proc::SIGTERM);
        let exit = running.wait().map_err(|e| format!("reaping server: {e}"))?;
        if !exit.ok() {
            return Err(format!("memfwd_served exited with {:?}", exit.code));
        }
        Ok(exit)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // An error path left the server running: drain it anyway so no
        // process outlives the harness.
        if let Some(running) = self.proc.take() {
            running.signal(proc::SIGTERM);
            let _ = running.wait();
        }
    }
}
