//! Golden-file tests for the `lab` and `ledger` binaries on committed
//! `specs/*.soma`: stdout CSV and the JSONL view of the lab run ledger
//! (`ledger dump`) are compared **byte-for-byte** against snapshots
//! under `tests/golden/`.
//!
//! Regenerate the snapshots after an intentional behaviour change with:
//!
//! ```sh
//! SOMA_BLESS=1 cargo test -p soma-bench --test golden_cli
//! ```
//!
//! Caching and parallelism never change the numbers: a warm `lab`
//! rerun (100 % ledger hits, enforced via `--require-hits`) must
//! reproduce the cold CSV byte-for-byte from the ledger alone, and a
//! cold 4-thread run must match the same goldens.
//!
//! The JSONL side of the ledger tooling is pinned here too: `ledger
//! migrate` imports the committed goldens (v2, and the same rows as v1)
//! back to the identical dump, `ledger dump` fails with a typed error
//! on a rotted frame, and `lab`/`serve` refuse a JSONL ledger path.
//!
//! `specs/fig6_ci.soma` (the paper's Fig. 6 at CI scale, SoMa and Cocco
//! cells) pins its CSV, checks the paper's SoMa-vs-Cocco claim on it,
//! and feeds the `stats` binary, whose input failures are pinned too.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use soma_search::SchedulerKind;

fn repo_spec(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs").join(name)
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// A fresh (removed) ledger directory path.
fn fresh(name: &str) -> PathBuf {
    let path = tmp(name);
    let _ = fs::remove_dir_all(&path);
    path
}

fn bless() -> bool {
    std::env::var_os("SOMA_BLESS").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Runs a harness binary with a scrubbed `SOMA_*` environment.
fn run_bin(exe: &str, args: &[&str]) -> (String, String, bool) {
    let mut cmd = Command::new(exe);
    cmd.args(args);
    for knob in ["SOMA_EFFORT", "SOMA_SEED", "SOMA_WORKLOAD"] {
        cmd.env_remove(knob);
    }
    let out = cmd.output().unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"));
    (
        String::from_utf8(out.stdout).expect("binary stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("binary stderr is UTF-8"),
        out.status.success(),
    )
}

/// `ledger dump <dir>`: the ledger's JSONL view.
fn dump(ledger: &Path) -> String {
    let (out, err, ok) =
        run_bin(env!("CARGO_BIN_EXE_ledger"), &["dump", ledger.to_str().expect("utf-8 path")]);
    assert!(ok, "ledger dump {} failed:\n{err}", ledger.display());
    out
}

/// `ledger migrate <src> <dst>` into a fresh directory.
fn migrate(src: &Path, dst: &Path) -> PathBuf {
    let _ = fs::remove_dir_all(dst);
    let (_, err, ok) = run_bin(
        env!("CARGO_BIN_EXE_ledger"),
        &["migrate", src.to_str().expect("utf-8 path"), dst.to_str().expect("utf-8 path")],
    );
    assert!(ok, "ledger migrate {} failed:\n{err}", src.display());
    dst.to_path_buf()
}

/// Compares `got` against the committed snapshot (or regenerates it
/// under `SOMA_BLESS=1`).
fn assert_golden(got: &[u8], golden: &str) {
    let path = golden_path(golden);
    if bless() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        fs::write(&path, got).expect("bless golden");
        eprintln!("[golden] blessed {}", path.display());
        return;
    }
    let want = fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with SOMA_BLESS=1 cargo test -p soma-bench \
             --test golden_cli",
            path.display()
        )
    });
    assert!(
        got == want.as_slice(),
        "{golden} drifted from its committed snapshot.\n--- committed ---\n{}\n--- got ---\n{}\n\
         If the change is intentional, rebless with SOMA_BLESS=1.",
        String::from_utf8_lossy(&want),
        String::from_utf8_lossy(got),
    );
}

/// One spec through `lab`: the cold CSV matches the golden, the
/// ledger's dump matches its golden, a warm pass is 100 % hits with
/// identical output, and a cold 4-thread pass hits the same goldens.
/// Without a committed ledger golden (its dump would be megabytes), the
/// three dumps must still be identical. Returns the cold ledger.
fn check_spec(spec_file: &str, csv_golden: &str, ledger_golden: Option<&str>) -> PathBuf {
    let spec = repo_spec(spec_file);
    let spec = spec.to_str().expect("utf-8 path");

    let ledger = fresh(&format!("golden-{spec_file}.ledger"));
    let ledger_arg = ledger.to_str().expect("utf-8 path");
    let (cold_csv, _, ok) = run_bin(env!("CARGO_BIN_EXE_lab"), &[spec, "--ledger", ledger_arg]);
    assert!(ok, "lab (cold) failed on {spec_file}");
    assert_golden(cold_csv.as_bytes(), csv_golden);
    let cold_dump = dump(&ledger);
    if let Some(golden) = ledger_golden {
        assert_golden(cold_dump.as_bytes(), golden);
    }

    let (warm_csv, warm_err, ok) =
        run_bin(env!("CARGO_BIN_EXE_lab"), &[spec, "--ledger", ledger_arg, "--require-hits"]);
    assert!(ok, "lab (warm) was not 100% hits on {spec_file}:\n{warm_err}");
    assert_eq!(warm_csv, cold_csv, "{spec_file}: warm lab CSV != cold CSV");
    assert!(dump(&ledger) == cold_dump, "{spec_file}: a warm run changed the ledger");

    // A cold 4-thread pass must hit the *same* goldens: thread policy is
    // wall-clock only, down to the ledger bytes.
    let t4 = fresh(&format!("golden-{spec_file}.t4.ledger"));
    let t4_arg = t4.to_str().expect("utf-8 path");
    let (t4_csv, _, ok) =
        run_bin(env!("CARGO_BIN_EXE_lab"), &[spec, "--ledger", t4_arg, "--threads", "4"]);
    assert!(ok, "lab (cold, --threads 4) failed on {spec_file}");
    assert_eq!(t4_csv, cold_csv, "{spec_file}: 4-thread lab CSV != cold CSV");
    assert!(dump(&t4) == cold_dump, "{spec_file}: 4-thread ledger != sequential ledger");
    ledger
}

#[test]
fn golden_fig2_edge() {
    check_spec("fig2_edge.soma", "fig2_edge.csv", Some("fig2_edge.ledger.jsonl"));
}

#[test]
fn golden_fig_pair_edge() {
    check_spec("fig_pair_edge.soma", "fig_pair_edge.csv", Some("fig_pair_edge.ledger.jsonl"));
}

/// The CI-scale Fig. 6 campaign: the CSV is pinned, and `stats` reads
/// the campaign's ledger and pairs all twelve scenarios.
#[test]
fn golden_fig6_ci() {
    let ledger = check_spec("fig6_ci.soma", "fig6_ci.csv", None);
    let (out, err, ok) =
        run_bin(env!("CARGO_BIN_EXE_stats"), &[ledger.to_str().expect("utf-8 path")]);
    assert!(ok, "stats failed on the fig6_ci ledger:\n{err}");
    assert!(out.contains("SoMa vs Cocco over 12 configurations"), "{out}");
}

/// The paper's qualitative claim (Sec. VI-B), as the paper states it —
/// an average: over the cells of `specs/fig6_ci.soma`, the geomean of
/// Cocco latency / SoMa `ours_2` latency is at least 1. It reads the
/// committed golden CSV, which `golden_fig6_ci` pins byte-for-byte to
/// what `lab` produces. The message lists every scenario where SoMa
/// loses.
#[test]
fn fig6_ci_soma_wins_on_geomean_latency() {
    let csv = fs::read_to_string(golden_path("fig6_ci.csv")).expect("committed golden");
    let mut ours = std::collections::BTreeMap::new();
    let mut cocco = std::collections::BTreeMap::new();
    for line in csv.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        let latency: f64 = f[5].parse().expect("latency column");
        let (scenario, kind) = soma_spec::split_cell_id(f[0]);
        match (kind, f[4]) {
            (SchedulerKind::Soma, "ours_2") => ours.insert(scenario.to_string(), latency),
            (SchedulerKind::Cocco, _) => cocco.insert(scenario.to_string(), latency),
            _ => None,
        };
    }
    assert_eq!(ours.len(), 12, "one ours_2 row per scenario");
    assert_eq!(ours.keys().collect::<Vec<_>>(), cocco.keys().collect::<Vec<_>>());
    let losses: Vec<String> = ours
        .iter()
        .filter(|(s, o)| **o > cocco[*s])
        .map(|(s, o)| format!("{s}: ours_2 {o} vs cocco {} cycles", cocco[s]))
        .collect();
    let log_sum: f64 = ours.iter().map(|(s, o)| (cocco[s] / o).ln()).sum();
    let geomean = (log_sum / ours.len() as f64).exp();
    assert!(
        geomean >= 1.0,
        "geomean Cocco/ours_2 latency {geomean:.4} < 1; SoMa loses on:\n{}",
        losses.join("\n")
    );
}

/// `stats` fails loudly on bad input, exit 2: a path that is not a
/// ledger directory is named, and so is every scenario that lacks its
/// `cocco` or `soma` cell.
#[test]
fn stats_rejects_non_ledgers_and_unpaired_scenarios() {
    let stats = env!("CARGO_BIN_EXE_stats");
    let missing = tmp("stats-no-such.ledger");
    let _ = fs::remove_dir_all(&missing);
    let file = golden_path("fig2_edge.csv");
    for path in [&missing, &file] {
        let (_, err, ok) = run_bin(stats, &[path.to_str().unwrap()]);
        assert!(!ok, "stats accepted {}", path.display());
        assert!(err.contains(&format!("{} is not a ledger directory", path.display())), "{err}");
    }
    let out = Command::new(stats).arg(&missing).output().expect("spawn stats");
    assert_eq!(out.status.code(), Some(2));

    // A SoMa-only campaign (two scenarios) and one Cocco cell for a third.
    let ledger = fresh("stats-unpaired.ledger");
    let ledger_arg = ledger.to_str().unwrap();
    let pair = repo_spec("fig_pair_edge.soma");
    let (_, err, ok) =
        run_bin(env!("CARGO_BIN_EXE_lab"), &[pair.to_str().unwrap(), "--ledger", ledger_arg]);
    assert!(ok, "{err}");
    let cocco_only = tmp("stats-cocco-only.soma");
    fs::write(
        &cocco_only,
        "soma-experiment v1\nname c\nscenario fig2@edge/b4\nscheduler cocco\nseeds 1\n\
         effort 0.01\nend\n",
    )
    .unwrap();
    let (_, err, ok) =
        run_bin(env!("CARGO_BIN_EXE_lab"), &[cocco_only.to_str().unwrap(), "--ledger", ledger_arg]);
    assert!(ok, "{err}");

    let out = Command::new(stats).arg(&ledger).output().expect("spawn stats");
    assert_eq!(out.status.code(), Some(2), "unpaired scenarios are exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    for want in [
        "fig2@edge/b1 lacks its cocco cell",
        "fig4@edge/b1 lacks its cocco cell",
        "fig2@edge/b4 lacks its soma cell",
    ] {
        assert!(err.contains(want), "missing `{want}` in:\n{err}");
    }
    assert!(out.stdout.is_empty(), "no numbers over a partial pairing");
}

/// `--require-hits` on a cold ledger must fail with exit status 3 — the
/// contract CI's lab-smoke replay gate leans on.
#[test]
fn require_hits_fails_cold() {
    let spec = repo_spec("fig2_edge.soma");
    let ledger = fresh("golden-require-hits-cold.ledger");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lab"));
    cmd.args([spec.to_str().unwrap(), "--ledger", ledger.to_str().unwrap(), "--require-hits"]);
    let out = cmd.output().expect("spawn lab");
    assert_eq!(out.status.code(), Some(3), "cold --require-hits must exit 3");
}

/// `ledger migrate` of the committed v2 goldens, and of the same rows
/// rewritten as v1 (no `crc`, `"v":1`), round-trips through `ledger
/// dump` to the golden bytes.
#[test]
fn migrate_of_v1_and_v2_goldens_round_trips_through_dump() {
    for golden in ["fig2_edge.ledger.jsonl", "fig_pair_edge.ledger.jsonl"] {
        let v2 = fs::read_to_string(golden_path(golden)).expect("committed golden");
        let dir = migrate(&golden_path(golden), &tmp(&format!("migrate-{golden}.ledger")));
        assert_eq!(dump(&dir), v2, "{golden}: v2 import -> dump");

        let v1: String = v2
            .lines()
            .map(|line| {
                let rest = line.split_once(",\"v\":2,").expect("a v2 row").1;
                format!("{{\"v\":1,{rest}\n")
            })
            .collect();
        let v1_path = tmp(&format!("migrate-{golden}.v1.jsonl"));
        fs::write(&v1_path, v1).expect("write v1");
        let dir = migrate(&v1_path, &tmp(&format!("migrate-{golden}.v1.ledger")));
        assert_eq!(dump(&dir), v2, "{golden}: v1 import -> dump");
    }
}

/// A payload byte that rots under an index trusting its shard is not a
/// panic: `ledger dump` exits 2 and names the damaged row's hash.
#[test]
fn dump_of_a_rotted_frame_exits_2_naming_the_row() {
    let dir = migrate(&golden_path("fig2_edge.ledger.jsonl"), &tmp("rotted-fig2_edge.ledger"));
    let golden = fs::read_to_string(golden_path("fig2_edge.ledger.jsonl")).expect("golden");
    let hash = golden.split("\"hash\":\"").nth(1).and_then(|r| r.get(..16)).expect("row hash");
    // The golden's one row is the only frame in its shard, and the
    // outcome payload is a frame's last field: flip the shard's last
    // byte (same size, so the index still trusts the shard).
    let shard = dir.join(format!("shard-{}.bin", &hash[..1]));
    let mut bytes = fs::read(&shard).expect("shard");
    *bytes.last_mut().expect("non-empty shard") ^= 0x01;
    fs::write(&shard, bytes).expect("rot");

    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["dump", dir.to_str().unwrap()])
        .output()
        .expect("spawn ledger");
    assert_eq!(out.status.code(), Some(2), "a damaged row is exit 2, never a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(hash), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// `lab` and `serve` refuse a JSONL ledger (an existing file, or a
/// `.jsonl` path they would otherwise create as a directory) with exit
/// 2 and a message naming `ledger migrate`.
#[test]
fn lab_and_serve_refuse_jsonl_ledgers() {
    let spec = repo_spec("fig2_edge.soma");
    let fresh_jsonl = tmp("refused-fresh.jsonl");
    let _ = fs::remove_dir_all(&fresh_jsonl);
    let old_file = tmp("refused-old-ledger");
    let _ = fs::remove_dir_all(&old_file);
    fs::copy(golden_path("fig2_edge.ledger.jsonl"), &old_file).expect("copy golden");
    let sock = tmp("refused.sock");
    let listen = format!("unix:{}", sock.display());
    for path in [&fresh_jsonl, &old_file] {
        let path = path.to_str().unwrap();
        for (exe, args) in [
            (env!("CARGO_BIN_EXE_lab"), vec![spec.to_str().unwrap(), "--ledger", path]),
            (env!("CARGO_BIN_EXE_serve"), vec!["--listen", &listen, "--ledger", path]),
        ] {
            let out = Command::new(exe).args(&args).output().expect("spawn");
            assert_eq!(out.status.code(), Some(2), "{exe} {args:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("ledger migrate"), "{exe} {args:?}: {err}");
        }
    }
    assert!(!fresh_jsonl.exists(), "a refused .jsonl path is never created");
}
