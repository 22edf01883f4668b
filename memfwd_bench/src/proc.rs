//! Child processes timed from spawn to exit, with the CPU time and peak
//! resident set size the kernel reports when it reaps them.
//!
//! `std` waits for children without returning their resource usage, so
//! this module reaps them itself through `wait4(2)`. The usage a reaped
//! child reports includes every descendant it waited for, so a server's
//! figure covers the worker processes it ran.

use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("memfwd_bench reads child resource usage through Linux wait4(2)");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

pub const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// Children spawned and not yet reaped, so the watchdog can stop them.
static LIVE: Mutex<Vec<i32>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<i32>> {
    // The list stays valid after a panic elsewhere: every update is a
    // single push or retain.
    LIVE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How a reaped child ended and what it used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Spawn to reap.
    pub wall: Duration,
    /// User plus system CPU time, descendants it reaped included.
    pub cpu: Duration,
    /// Peak resident set size in KiB, descendants it reaped included.
    pub maxrss_kib: u64,
}

impl Exit {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }

    pub fn wall_ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3
    }
}

/// A spawned child that has not been reaped yet.
pub struct Running {
    child: Child,
    spawned: Instant,
}

impl Running {
    pub fn pid(&self) -> i32 {
        self.child.id() as i32
    }

    /// Sends `sig` to the child.
    pub fn signal(&self, sig: i32) {
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // this process; the pid is our own unreaped child, so it cannot
        // name another process.
        unsafe {
            kill(self.pid(), sig);
        }
    }

    /// Blocks until the child exits and reaps it.
    pub fn wait(self) -> std::io::Result<Exit> {
        let pid = self.pid();
        let mut status = 0i32;
        let mut ru = Rusage::default();
        loop {
            // SAFETY: `status` and `ru` are live, writable and laid out as
            // wait4(2) expects (`Rusage` mirrors the 64-bit Linux struct),
            // and `pid` is a child of this process that no one else reaps:
            // `self.child` is consumed here and never waited on by std.
            let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
            if r == pid {
                break;
            }
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        let wall = self.spawned.elapsed();
        live().retain(|&p| p != pid);
        let signalled = status & 0x7f != 0;
        let cpu_us = |t: &Timeval| t.sec.max(0) as u64 * 1_000_000 + t.usec.max(0) as u64;
        Ok(Exit {
            code: (!signalled).then_some((status >> 8) & 0xff),
            wall,
            cpu: Duration::from_micros(cpu_us(&ru.utime) + cpu_us(&ru.stime)),
            maxrss_kib: ru.maxrss.max(0) as u64,
        })
    }
}

/// Spawns `cmd` with stdin and stdout on the null device and stderr sent
/// to `log`. The harness's own stdout carries only its result.
pub fn spawn(cmd: &mut Command, log: &std::fs::File) -> std::io::Result<Running> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log.try_clone()?);
    let spawned = Instant::now();
    let child = cmd.spawn()?;
    live().push(child.id() as i32);
    Ok(Running { child, spawned })
}

/// Runs `cmd` to completion.
pub fn run(cmd: &mut Command, log: &std::fs::File) -> std::io::Result<Exit> {
    spawn(cmd, log)?.wait()
}

/// Bounds the whole run: after `limit`, every live child is killed and
/// reaped and the process exits with code 3, printing no result.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        let pids: Vec<i32> = live().clone();
        eprintln!(
            "memfwd_bench: run exceeded {} s; killing {} child process(es)",
            limit.as_secs(),
            pids.len()
        );
        for &pid in &pids {
            let mut status = 0i32;
            let mut ru = Rusage::default();
            // SAFETY: plain-integer kill(2), then wait4(2) into live local
            // buffers; the pids are children of this process that the main
            // thread has not reaped (it is blocked or will not return).
            unsafe {
                kill(pid, SIGKILL);
                wait4(pid, &mut status, 0, &mut ru);
            }
        }
        std::process::exit(3);
    });
}
