//! Child processes of the benchmark: building the program, running a
//! `lab` invocation with its stderr event lines timestamped as they
//! arrive, and a `serve` daemon that is stopped with SIGTERM. Every child
//! is reaped with `wait4`, which also yields its peak resident memory.

use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

mod sys {
    /// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss_kb: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
    }

    pub const SIGKILL: i32 = 9;
    pub const SIGTERM: i32 = 15;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

/// Waits for `child` with `wait4`; `Child::wait` must not be used on it
/// afterwards.
fn reap(child: &Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = sys::Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // types `wait4(2)` expects (`int`, 64-bit Linux `struct rusage`),
        // and `pid` is our own unreaped child.
        let r = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit { code, peak_rss_mb: usage.maxrss_kb as f64 / 1024.0 })
}

fn signal(child: &Child, sig: i32) {
    if let Ok(pid) = i32::try_from(child.id()) {
        // SAFETY: `kill(2)` takes plain integers; `pid` is our own child,
        // not yet reaped, so it cannot name another process.
        unsafe { sys::kill(pid, sig) };
    }
}

/// Builds the program's binaries from the checkout at `root` (the SoMa
/// workspace) and returns their paths. Build output goes to stderr.
pub fn build_program(root: &Path) -> io::Result<(PathBuf, PathBuf)> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "-q", "-p", "soma-bench"])
        .args(["--bin", "lab", "--bin", "serve"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("building the program failed: {status}")));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let bin = |name: &str| target.join("release").join(name);
    let (lab, serve) = (bin("lab"), bin("serve"));
    for b in [&lab, &serve] {
        if !b.is_file() {
            return Err(io::Error::other(format!("built binary missing: {}", b.display())));
        }
    }
    Ok((lab, serve))
}

/// A finished invocation: wall-clock bounds, exit, stdout bytes and the
/// stderr lines with the instant each was read.
pub struct Invocation {
    pub start: Instant,
    pub end: Instant,
    pub exit: Exit,
    pub stdout: Vec<u8>,
    pub lines: Vec<(Instant, String)>,
}

impl Invocation {
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn ok(&self) -> bool {
        self.exit.code == Some(0)
    }
}

/// Runs `cmd` to completion. `on_line` sees each stderr line the moment
/// it is read, with its timestamp.
pub fn run(cmd: &mut Command, on_line: &mut dyn FnMut(Instant, &str)) -> io::Result<Invocation> {
    cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let stderr = child.stderr.take().expect("stderr is piped");
    let (out, lines) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut buf = Vec::new();
            stdout.read_to_end(&mut buf).map(|_| buf)
        });
        let mut lines = Vec::new();
        let mut stderr = BufReader::new(stderr);
        let mut line = String::new();
        while matches!(stderr.read_line(&mut line), Ok(n) if n > 0) {
            let at = Instant::now();
            let text = line.trim_end().to_string();
            on_line(at, &text);
            lines.push((at, text));
            line.clear();
        }
        (reader.join().expect("stdout reader panicked"), lines)
    });
    let exit = reap(&child);
    let end = Instant::now();
    Ok(Invocation { start, end, exit: exit?, stdout: out?, lines })
}

/// A daemon child; its stderr goes to the benchmark's stderr. Dropping
/// it kills and reaps the process, so no error path leaves one running.
pub struct Daemon {
    child: Child,
    pub start: Instant,
    reaped: bool,
}

impl Daemon {
    pub fn spawn(cmd: &mut Command) -> io::Result<Self> {
        cmd.stdin(Stdio::null()).stdout(Stdio::null());
        let start = Instant::now();
        Ok(Self { child: cmd.spawn()?, start, reaped: false })
    }

    /// Sends SIGTERM and waits for the exit.
    pub fn terminate(mut self) -> io::Result<Exit> {
        signal(&self.child, sys::SIGTERM);
        let exit = reap(&self.child)?;
        self.reaped = true;
        Ok(exit)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            signal(&self.child, sys::SIGKILL);
            let _ = reap(&self.child);
        }
    }
}
