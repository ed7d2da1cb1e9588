//! Differential and resume tests for the `lab` orchestrator.
//!
//! * **Differential** — `run_lab` (parallel work-queue + ledger) must
//!   equal a plain per-cell `Scheduler` loop written out in the test
//!   (no orchestration code shared with the lab) **bit-for-bit**: same
//!   rows, same envelope bests, same ledger content — for every
//!   registry scenario of the differential workload set at tiny effort.
//!   The property is workload-agnostic, so the set uses the registry's
//!   small figure workloads across *all* presets and batches, plus one
//!   real CNN as a depth probe, keeping the suite fast.
//! * **Resume** — an interrupted run (stopped after its first cell, or
//!   killed mid-append of its second) that is rerun must produce a
//!   ledger directory byte-identical to an uninterrupted run, serving
//!   the surviving prefix from the ledger (`LabEvent::Cached`, never
//!   `Started`) without re-searching it — whether or not the index
//!   sidecar survived the interruption.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use soma_bench::{run_lab, run_lab_until, ExperimentRow, LabEvent, Ledger};
use soma_search::{Evaluated, Parallelism, Scheduler, SchedulerKind, SearchConfig};
use soma_spec::registry::scenarios;
use soma_spec::{read_experiment, ExperimentSpec};

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn fresh(name: &str) -> PathBuf {
    let path = tmp(name);
    let _ = fs::remove_dir_all(&path);
    path
}

/// Every file of a ledger directory, by name — `diff -r` as a value.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .expect("ledger dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (e.file_name().to_string_lossy().into_owned(), fs::read(e.path()).expect("file"))
        })
        .collect()
}

fn assert_evaluated_eq(cell: &str, which: &str, a: &Evaluated, b: &Evaluated) {
    assert_eq!(a.encoding, b.encoding, "{cell}: {which} encoding");
    assert_eq!(a.report, b.report, "{cell}: {which} report");
    assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{cell}: {which} cost");
}

fn assert_rows_eq(a: &[ExperimentRow], b: &[ExperimentRow]) {
    assert_eq!(a.len(), b.len(), "row counts");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.cell.id, y.cell.id, "cell order");
        assert_evaluated_eq(&x.cell.id, "stage1", &x.outcome.stage1, &y.outcome.stage1);
        assert_evaluated_eq(&x.cell.id, "best", &x.outcome.best, &y.outcome.best);
        assert_eq!(x.outcome.allocator_iters, y.outcome.allocator_iters, "{}", x.cell.id);
        assert_eq!(x.outcome.evals, y.outcome.evals, "{}", x.cell.id);
        assert_eq!(x.outcome.rejected, y.outcome.rejected, "{}", x.cell.id);
    }
}

/// The differential workload set: every registry point of the two small
/// figure networks over the quick batch grid {1, 4} (2 workloads x 2
/// presets x 2 batches = 8 cells; the b16/b64 points cost debug-build
/// minutes for no extra path coverage — tile counts change, code paths
/// do not), plus ResNet-50 on edge at batch 1 as the non-toy probe.
fn differential_spec() -> ExperimentSpec {
    let mut cells: Vec<_> = scenarios()
        .into_iter()
        .filter(|s| (s.workload == "fig2" || s.workload == "fig4") && s.batch <= 4)
        .collect();
    assert_eq!(cells.len(), 8, "two figure workloads x both presets x the quick batch grid");
    cells.push(soma_spec::registry::lookup("resnet50@edge/b1").expect("registry id"));
    ExperimentSpec {
        name: "differential".into(),
        scenarios: cells,
        workloads: vec![],
        hardware: vec![],
        batches: vec![],
        schedulers: vec![SchedulerKind::Soma],
        seeds: vec![2025],
        config: SearchConfig { effort: 0.005, seed: 2025, ..SearchConfig::default() },
        parallelism: Parallelism::Sequential,
    }
}

/// The oracle: each cell searched by a direct `Scheduler` call, one
/// after another — no ledger, no work queue, no merge.
fn direct_rows(spec: &ExperimentSpec) -> Vec<ExperimentRow> {
    spec.cells()
        .into_iter()
        .map(|c| {
            let outcome = Scheduler::new(&c.net, &c.hw)
                .config(spec.config.clone())
                .seeds(spec.seeds.iter().copied())
                .run();
            ExperimentRow { cell: c, scheduler: SchedulerKind::Soma, outcome }
        })
        .collect()
}

#[test]
fn lab_matches_direct_scheduler_bit_for_bit() {
    let spec = differential_spec();
    let direct = direct_rows(&spec);

    let ledger_path = fresh("differential.ledger");
    let cold = run_lab(&spec, &ledger_path, |_| {}).expect("cold lab run");
    assert_eq!((cold.hits, cold.misses), (0, spec.cells().len()));
    assert_rows_eq(&direct, &cold.rows);

    // The persisted ledger holds the same outcomes, row per cell in cell
    // order — "same ledger rows" down to the serialised bits.
    let ledger = Ledger::load(&ledger_path).expect("ledger loads");
    assert_eq!(ledger.len(), direct.len());
    for (row, led) in direct.iter().zip(ledger.rows()) {
        assert_eq!(row.cell.id, led.cell);
        assert_eq!(row.cell.workload, led.workload);
        assert_eq!(row.cell.platform, led.platform);
        assert_eq!(row.cell.batch, led.batch);
        let led_out = led.outcome().expect("ledger outcome decodes");
        assert_evaluated_eq(&led.cell, "ledger best", &row.outcome.best, &led_out.best);
        assert_evaluated_eq(&led.cell, "ledger stage1", &row.outcome.stage1, &led_out.stage1);
    }

    // And the warm (all-cached) pass replays the identical rows.
    let warm = run_lab(&spec, &ledger_path, |_| {}).expect("warm lab run");
    assert_eq!((warm.hits, warm.misses), (spec.cells().len(), 0));
    assert_rows_eq(&direct, &warm.rows);
}

#[test]
fn multithreaded_lab_ledger_is_byte_identical_to_sequential() {
    // The determinism contract of the `Parallelism` API, end to end:
    // an N-thread lab run must produce the *same ledger bytes* as the
    // single-thread golden — not just equal outcomes. Cells finish out
    // of order under Fixed(4); the in-order flusher must still append
    // rows in cell order, and every outcome must be bit-identical. The
    // two-seed spec runs each cell's portfolio as a nested parallel
    // region inside the fan-out.
    for seeds in [vec![2025], vec![2025, 7]] {
        let golden_spec = ExperimentSpec { seeds: seeds.clone(), ..differential_spec() };
        let golden_path = fresh(&format!("threads-golden-{}seed.ledger", seeds.len()));
        let golden = run_lab(&golden_spec, &golden_path, |_| {}).expect("sequential golden run");
        let golden_bytes = dir_bytes(&golden_path);

        for par in [Parallelism::Fixed(2), Parallelism::Fixed(4), Parallelism::Auto] {
            let spec = ExperimentSpec { parallelism: par, ..golden_spec.clone() };
            let path = fresh(&format!("threads-{par}-{}seed.ledger", seeds.len()));
            let got = run_lab(&spec, &path, |_| {}).expect("parallel lab run");
            assert_eq!((got.hits, got.misses), (0, spec.cells().len()), "{par}: all cold");
            assert_rows_eq(&golden.rows, &got.rows);
            assert_eq!(
                dir_bytes(&path),
                golden_bytes,
                "{par} x {seeds:?}: ledger bytes diverged from the sequential golden"
            );
        }
    }
}

/// The committed two-scenario campaign spec, as the resume tests use it.
fn fig_pair() -> ExperimentSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/fig_pair_edge.soma");
    let text = fs::read_to_string(path).expect("committed spec exists");
    read_experiment(&text).expect("committed spec parses")
}

/// Runs `spec` sequentially into a fresh ledger and stops it the moment
/// its first cell lands — the state a kill between cells leaves, with
/// or without the index sidecar the stopped run wrote.
fn interrupted_after_first_cell(spec: &ExperimentSpec, name: &str, keep_index: bool) -> PathBuf {
    let path = fresh(name);
    let spec = ExperimentSpec { parallelism: Parallelism::Sequential, ..spec.clone() };
    let stop = AtomicBool::new(false);
    let summary = run_lab_until(&spec, &path, &stop, |ev| {
        if matches!(ev, LabEvent::Finished { .. }) {
            stop.store(true, Ordering::SeqCst);
        }
    })
    .expect("run to interrupt");
    assert_eq!((summary.stopped, summary.misses), (true, 1));
    if !keep_index {
        fs::remove_file(path.join("index.bin")).expect("index written by the stopped run");
    }
    path
}

#[test]
fn interrupted_run_resumes_to_a_byte_identical_ledger() {
    let spec = fig_pair();

    // Reference: one uninterrupted run.
    let intact_path = fresh("resume-intact.ledger");
    let intact = run_lab(&spec, &intact_path, |_| {}).expect("uninterrupted run");
    assert_eq!((intact.hits, intact.misses), (0, 2));
    let intact_bytes = dir_bytes(&intact_path);

    for keep_index in [false, true] {
        let resumed_path = interrupted_after_first_cell(
            &spec,
            &format!("resume-cut-{keep_index}.ledger"),
            keep_index,
        );

        // Resume. The surviving cell must be served from the ledger
        // (Cached, never Started => not re-searched), the lost cell re-run.
        let mut events = Vec::new();
        let resumed = run_lab(&spec, &resumed_path, |ev| events.push(ev.clone())).expect("resume");
        assert_eq!((resumed.hits, resumed.misses), (1, 1));
        let first = &spec.cells()[0].id;
        let second = &spec.cells()[1].id;
        assert!(
            events.iter().any(|e| matches!(e, LabEvent::Cached { cell, .. } if cell == first)),
            "surviving cell served from the ledger: {events:?}"
        );
        assert!(
            !events.iter().any(|e| matches!(e, LabEvent::Started { cell } if cell == first)),
            "surviving cell must not be re-searched: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(e, LabEvent::Started { cell } if cell == second)),
            "lost cell re-runs: {events:?}"
        );

        // The resumed ledger is byte-identical to the uninterrupted one.
        assert_eq!(dir_bytes(&resumed_path), intact_bytes, "index kept: {keep_index}");
        assert_rows_eq(&intact.rows, &resumed.rows);
    }
}

#[test]
fn kill_mid_append_resumes_cleanly() {
    // Harsher interruption: the second cell's frame is cut mid-write
    // (a torn append) after the first cell landed.
    let spec = fig_pair();
    let intact_path = fresh("torn-intact.ledger");
    run_lab(&spec, &intact_path, |_| {}).expect("reference run");
    let intact_bytes = dir_bytes(&intact_path);

    for keep_index in [false, true] {
        let torn_path = interrupted_after_first_cell(
            &spec,
            &format!("torn-cut-{keep_index}.ledger"),
            keep_index,
        );
        // The shard the second cell's frame goes to gets half of it
        // (after the shard header, if the shard is new).
        let partial = dir_bytes(&torn_path);
        let (name, full) = intact_bytes
            .iter()
            .find(|(name, bytes)| name.starts_with("shard-") && partial.get(*name) != Some(bytes))
            .expect("the second cell's shard");
        let base = partial.get(name).map_or(8, Vec::len);
        let cut = base + (full.len() - base) / 2;
        fs::write(torn_path.join(name), &full[..cut]).expect("tear");

        let resumed = run_lab(&spec, &torn_path, |_| {}).expect("resume after tear");
        assert_eq!((resumed.hits, resumed.misses), (1, 1), "torn row dropped, complete row kept");
        assert!(resumed.health.truncated, "the torn frame was seen and dropped");
        assert_eq!(dir_bytes(&torn_path), intact_bytes, "index kept: {keep_index}");
    }
}

#[test]
fn rerunning_a_finished_spec_does_zero_search_work() {
    let spec = fig_pair();
    let path = fresh("replay.ledger");
    run_lab(&spec, &path, |_| {}).expect("cold run");
    let bytes = dir_bytes(&path);

    let mut events = Vec::new();
    let warm = run_lab(&spec, &path, |ev| events.push(ev.clone())).expect("warm run");
    assert_eq!((warm.hits, warm.misses), (2, 0), "all cells are ledger hits");
    assert!(!events.iter().any(|e| matches!(e, LabEvent::Started { .. })), "{events:?}");
    assert!(!events.iter().any(|e| matches!(e, LabEvent::Finished { .. })), "{events:?}");
    assert_eq!(
        events.iter().filter(|e| matches!(e, LabEvent::Cached { .. })).count(),
        2,
        "{events:?}"
    );
    assert_eq!(dir_bytes(&path), bytes, "a replay never writes");
}
