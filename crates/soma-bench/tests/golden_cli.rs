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

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

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
    for knob in ["SOMA_EFFORT", "SOMA_SEED", "SOMA_FULL", "SOMA_THREADS", "SOMA_WORKLOAD"] {
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
fn check_spec(spec_file: &str, csv_golden: &str, ledger_golden: &str) {
    let spec = repo_spec(spec_file);
    let spec = spec.to_str().expect("utf-8 path");

    let ledger = fresh(&format!("golden-{spec_file}.ledger"));
    let ledger_arg = ledger.to_str().expect("utf-8 path");
    let (cold_csv, _, ok) = run_bin(env!("CARGO_BIN_EXE_lab"), &[spec, "--ledger", ledger_arg]);
    assert!(ok, "lab (cold) failed on {spec_file}");
    assert_golden(cold_csv.as_bytes(), csv_golden);
    assert_golden(dump(&ledger).as_bytes(), ledger_golden);

    let (warm_csv, warm_err, ok) =
        run_bin(env!("CARGO_BIN_EXE_lab"), &[spec, "--ledger", ledger_arg, "--require-hits"]);
    assert!(ok, "lab (warm) was not 100% hits on {spec_file}:\n{warm_err}");
    assert_eq!(warm_csv, cold_csv, "{spec_file}: warm lab CSV != cold CSV");
    assert_golden(dump(&ledger).as_bytes(), ledger_golden);

    // A cold 4-thread pass must hit the *same* goldens: thread policy is
    // wall-clock only, down to the ledger bytes.
    let t4 = fresh(&format!("golden-{spec_file}.t4.ledger"));
    let t4_arg = t4.to_str().expect("utf-8 path");
    let (t4_csv, _, ok) =
        run_bin(env!("CARGO_BIN_EXE_lab"), &[spec, "--ledger", t4_arg, "--threads", "4"]);
    assert!(ok, "lab (cold, --threads 4) failed on {spec_file}");
    assert_eq!(t4_csv, cold_csv, "{spec_file}: 4-thread lab CSV != cold CSV");
    assert_golden(dump(&t4).as_bytes(), ledger_golden);
}

#[test]
fn golden_fig2_edge() {
    check_spec("fig2_edge.soma", "fig2_edge.csv", "fig2_edge.ledger.jsonl");
}

#[test]
fn golden_fig_pair_edge() {
    check_spec("fig_pair_edge.soma", "fig_pair_edge.csv", "fig_pair_edge.ledger.jsonl");
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
