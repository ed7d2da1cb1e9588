//! The SoMa repository benchmark: two workloads that drive the `lab`
//! and `serve` binaries the way users do, check their outputs, and
//! report end-to-end metrics (`--trace 0`) or per-layer metrics from a
//! traced run (`--trace 1`).
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload campaign-replay --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run it from the root of a SoMa checkout: it builds the program there,
//! works in a fresh directory under `.e2ebench/` and removes it again.
//! The last stdout line is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`); the lines before it give every metric with its
//! statistic and sample count, the output checks, and the host
//! fingerprint. A failed output check makes the exit code 1.
//! Workloads, metrics and the layer mapping are described in METRICS.md.

mod campaign;
mod hostspeed;
mod layers;
mod proc;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use stats::Metric;
use trace::Tracer;

/// Everything a workload needs to run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// The span recorder of a traced run; `None` for `--trace 0`.
    pub tracer: Option<Tracer>,
    /// Fresh working directory of this run, relative to the checkout
    /// root (short, so unix socket paths stay within their limit).
    pub dir: PathBuf,
    pub lab: PathBuf,
    pub serve: PathBuf,
}

/// What a workload reports: operation counts, output checks, metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks by name: (name, passed, total).
    pub checks: Vec<(String, u64, u64)>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (e.g. the `sched_*` values of a traced
    /// run, which must equal the untraced run's).
    pub notes: Vec<String>,
}

impl Report {
    /// Records one outcome of the output check `name`; repeated checks
    /// of one name are counted together.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("e2ebench: check failed: {name}");
        }
        match self.checks.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, passed, total)) => {
                *passed += u64::from(ok);
                *total += 1;
            }
            None => self.checks.push((name, u64::from(ok), 1)),
        }
    }

    fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, passed, total)| passed == total)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !campaign::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", campaign::WORKLOADS));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// nproc, CPU model, compiler, source revision and the program's engine
/// and protocol versions, as one JSON object.
fn host_fingerprint(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into());
    let rev = if root.join(".git").exists() {
        command_line(Command::new("git").arg("-C").arg(root).args(["rev-parse", "HEAD"]))
    } else {
        None
    }
    .unwrap_or_else(|| "none".into());
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\",\
         \"engine_version\":\"{}\",\"protocol_version\":{}}}",
        esc(&cpu),
        esc(&rustc),
        esc(&rev),
        soma_search::record::ENGINE_VERSION,
        soma_serve::PROTOCOL_VERSION
    )
}

fn result_json(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.correct(),
        report.attempted,
        report.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                campaign::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let (lab, serve) = match proc::build_program(&root) {
        Ok(bins) => bins,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
    let dir = PathBuf::from(".e2ebench").join(format!("run-{}-{stamp}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("e2ebench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: args.trace.then(|| Tracer::new(Instant::now())),
        dir,
        lab,
        serve,
    };

    println!(
        "e2ebench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host_fingerprint(&root));
    let outcome = match args.workload.as_str() {
        "campaign-replay" => campaign::replay(&ctx),
        _ => serve::mixed(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(tr) = &ctx.tracer {
        let path = PathBuf::from(".e2ebench")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tr.write(&path) {
            Ok(()) => println!("trace {} spans written to {}", tr.spans().len(), path.display()),
            Err(e) => report.check(format!("write trace {}: {e}", path.display()), false),
        }
        println!("layer self time (count, total s, self s):");
        for (name, t) in tr.layer_times() {
            println!("  {name:<22} {:>7} {:>12.6} {:>12.6}", t.count, t.total_s, t.self_s);
        }
    }
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            report.checks.push((format!("{} is a finite number", m.name), 0, 1));
            m.value = 0.0;
        }
    }
    for (name, passed, total) in &report.checks {
        let verdict = if passed == total { "ok  " } else { "FAIL" };
        println!("check {verdict} {name} ({passed}/{total})");
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "failed_ratio = {:?} (failed {} of {} attempted)",
        stats::failed_ratio(report.failed, report.attempted),
        report.failed,
        report.attempted
    );
    for m in &report.metrics {
        println!("metric {} = {:?} {} ({}, n={})", m.name, m.value, m.unit, m.stat, m.n);
    }
    println!("{}", result_json(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
