//! Ledger toolbox: inspect, dump, import and compact run ledgers
//! without running a campaign.
//!
//! ```sh
//! # Inspect: row count, health, per-shard breakdown. Always a
//! # read-only load — `stat` on a live campaign is safe.
//! cargo run --release -p soma-bench --bin ledger -- stat target/lab/fig2.ledger
//!
//! # Print the JSONL view: one v2 line per row, in append order. Also
//! # read-only. A row whose frame rotted on disk is an error naming its
//! # hash (exit 2), never a panic.
//! cargo run --release -p soma-bench --bin ledger -- dump target/lab/fig2.ledger
//!
//! # Import a v1/v2 JSONL ledger file from before v3 into a fresh
//! # ledger directory. One way only (`dump` is the way back); the
//! # target must not exist, the source is only read, and lines that do
//! # not parse are skipped and counted.
//! cargo run --release -p soma-bench --bin ledger -- \
//!     migrate target/lab/fig2.jsonl target/lab/fig2.ledger
//!
//! # Compact in place: drop shadowed duplicate-hash rows and rows from
//! # stale engine versions, rewrite shards, rebuild the index.
//! cargo run --release -p soma-bench --bin ledger -- compact target/lab/fig2.ledger
//! ```
//!
//! Exit codes: `0` ok, `2` usage or I/O error, or a damaged row in
//! `dump`.

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use soma_bench::lab::Ledger;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger stat <dir> | ledger dump <dir> | ledger migrate <file.jsonl> <dir> \
         | ledger compact <dir> | ledger --version"
    );
    ExitCode::from(2)
}

/// Read-only load, or the exit code of a failed one.
fn load_readonly(path: &Path) -> Result<Ledger, ExitCode> {
    Ledger::load_readonly(path).map_err(|e| {
        eprintln!("ledger: {}: {e}", path.display());
        ExitCode::from(2)
    })
}

fn stat(path: &Path) -> ExitCode {
    let ledger = match load_readonly(path) {
        Ok(ledger) => ledger,
        Err(code) => return code,
    };
    println!("ledger:     {}", path.display());
    println!("rows:       {}", ledger.len());
    println!("health:     {}", ledger.health());
    for (shard, sh) in ledger.shard_healths().iter().enumerate() {
        if sh.kept > 0 || !sh.is_clean() {
            println!("shard-{shard:x}:    {sh}");
        }
    }
    ExitCode::SUCCESS
}

fn dump(path: &Path) -> ExitCode {
    let ledger = match load_readonly(path) {
        Ok(ledger) => ledger,
        Err(code) => return code,
    };
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    match ledger.dump(&mut out).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger: dump {}: {e}", path.display());
            ExitCode::from(2)
        }
    }
}

fn migrate(src: &Path, dst: &Path) -> ExitCode {
    match Ledger::migrate(src, dst) {
        Ok(stats) => {
            eprintln!(
                "[ledger] imported {} row(s) from {} into {} ({} unparseable line(s) skipped)",
                stats.rows,
                src.display(),
                dst.display(),
                stats.skipped
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ledger: migrate {} -> {}: {e}", src.display(), dst.display());
            ExitCode::from(2)
        }
    }
}

fn compact(path: &Path) -> ExitCode {
    let mut ledger = match Ledger::load(path) {
        Ok(ledger) => ledger,
        Err(e) => {
            eprintln!("ledger: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    match ledger.compact() {
        Ok(stats) => {
            eprintln!(
                "[ledger] compacted {}: {} kept, {} duplicate(s) dropped, \
                 {} stale-engine row(s) dropped",
                path.display(),
                stats.kept,
                stats.dropped_duplicates,
                stats.dropped_stale_engine
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ledger: compact {}: {e}", path.display());
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--version") {
        println!("{}", soma_bench::version_line("ledger"));
        return ExitCode::SUCCESS;
    }
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["stat", path] => stat(Path::new(path)),
        ["dump", path] => dump(Path::new(path)),
        ["migrate", src, dst] => migrate(Path::new(src), Path::new(dst)),
        ["compact", path] => compact(Path::new(path)),
        _ => usage(),
    }
}
