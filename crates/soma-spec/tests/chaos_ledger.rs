//! Chaos wall for ledger recovery: **no corruption — torn tails, bit
//! rot, garbage between frames, broken shard headers — may panic a load
//! or lose a valid row whose frame is still physically present in its
//! shard.**
//!
//! Three walls, each run with and without the `index.bin` sidecar (a
//! load that trusts the index and one that must scan every shard):
//!
//! * a **fuzzed damage storm**: real rows written to disk, then a seeded
//!   mix of garbage insertion, bit flips and truncation in every shard.
//!   Loading must succeed, keep every row whose frame survived intact,
//!   and leave the ledger clean for the next load;
//! * a **seeded append-fault storm** through [`FaultPlan`]: torn writes,
//!   silent bit-flips and fsync errors during `append`, with the
//!   caller retrying through reloads until every row is durable —
//!   the convergence loop the serve daemon and lab orchestrator rely on;
//! * the **duplicate-hash pin**: appending the same hash twice is
//!   allowed, lookups are last-write-wins, and
//!   [`LedgerHealth::duplicates`] counts the shadowed copies.
//!
//! Everything is seed-driven (vendored proptest + `StdRng`), so every
//! failure replays.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soma_search::{Scheduler, SearchConfig};
use soma_spec::fault::{FaultConfig, FaultPlan};
use soma_spec::ledger::{cell_key, Ledger, LedgerRow, SHARDS};
use soma_spec::read_experiment;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("soma-chaos-ledger");
    fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

fn wipe(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}

fn shard_file(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s:x}.bin"))
}

/// Real rows (distinct cells/seeds of the smallest scenario), searched
/// once and shared by every fuzz case.
fn base_rows() -> &'static [LedgerRow] {
    static ROWS: OnceLock<Vec<LedgerRow>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let spec = read_experiment(
            "soma-experiment v1\nname chaos\nscenario fig4@edge/b1\n\
             seeds 2025\neffort 0.01\nend\n",
        )
        .expect("chaos spec parses");
        let cell = &spec.cells()[0];
        (0..4u64)
            .map(|i| {
                let seeds = vec![2025 + i];
                let cfg = SearchConfig { seed: seeds[0], ..spec.config.clone() };
                let hash = cell_key(cell, &cfg, &seeds);
                let outcome = Scheduler::new(&cell.net, &cell.hw).config(cfg).seeds(seeds).run();
                LedgerRow::new(cell, &hash, outcome)
            })
            .collect()
    })
}

fn line(row: &LedgerRow) -> String {
    row.to_line().expect("row renders")
}

/// Whether `needle` occurs contiguously in `haystack`.
fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// One seeded garbage region to splice between frames.
fn garbage(rng: &mut StdRng) -> Vec<u8> {
    match rng.gen_range(0..4u32) {
        // A frame header claiming a body far past EOF.
        0 => b"FRM3\xff\xff\xff\x7fjunk".to_vec(),
        1 => b"not a frame at all".to_vec(),
        2 => (0..rng.gen_range(1..40usize)).map(|_| rng.gen_range(0u8..=0xff)).collect(),
        // A frame too short to hold its own checksum.
        _ => b"FRM3\x03\x00\x00\x00abc".to_vec(),
    }
}

/// Seeded damage storm over one ledger directory, with or without its
/// index sidecar.
fn damage_storm(seed: u64, keep_index: bool) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = base_rows();
    let dir = tmp(&format!("fuzz-{seed}-{keep_index}.ledger"));
    wipe(&dir);

    // Write every base row, remembering where each frame landed.
    let mut ledger = Ledger::load(&dir).unwrap();
    let mut placed: Vec<(usize, usize, usize)> = Vec::new();
    for row in rows {
        let s = (0..SHARDS).find(|&s| row.hash.starts_with(&format!("{s:x}"))).unwrap();
        let before = fs::metadata(shard_file(&dir, s)).map_or(8, |m| m.len() as usize);
        ledger.append(row.clone()).unwrap();
        placed.push((s, before, fs::metadata(shard_file(&dir, s)).unwrap().len() as usize));
    }
    ledger.sync_index().unwrap();
    drop(ledger);
    if !keep_index {
        fs::remove_file(dir.join("index.bin")).unwrap();
    }

    // Damage every shard: garbage spliced at random frame boundaries,
    // bit flips anywhere (headers and lengths included), then maybe a
    // torn tail.
    let mut clean: Vec<Vec<u8>> = vec![Vec::new(); SHARDS];
    let mut damaged: Vec<Vec<u8>> = vec![Vec::new(); SHARDS];
    for s in 0..SHARDS {
        let path = shard_file(&dir, s);
        let Ok(bytes) = fs::read(&path) else { continue };
        let mut pieces: Vec<Vec<u8>> = vec![bytes[..8].to_vec()];
        pieces.extend(placed.iter().filter(|p| p.0 == s).map(|&(_, a, b)| bytes[a..b].to_vec()));
        for _ in 0..rng.gen_range(0..3usize) {
            let at = rng.gen_range(1..=pieces.len());
            pieces.insert(at, garbage(&mut rng));
        }
        let mut out = pieces.concat();
        for _ in 0..rng.gen_range(0..3usize) {
            let pos = rng.gen_range(0..out.len());
            out[pos] ^= 1 << rng.gen_range(0..8u32);
        }
        if rng.gen_range(0..3u32) == 0 {
            out.truncate(rng.gen_range(0..=out.len()));
        }
        fs::write(&path, &out).unwrap();
        clean[s] = bytes;
        damaged[s] = out;
    }
    // Which base rows are still physically intact in their shard?
    let intact: Vec<&LedgerRow> = rows
        .iter()
        .zip(&placed)
        .filter(|(_, &(s, a, b))| contains(&damaged[s], &clean[s][a..b]))
        .map(|(row, _)| row)
        .collect();

    let ledger = Ledger::load(&dir).expect("recovery must not error");
    for row in &intact {
        let kept = ledger.lookup(&row.hash);
        prop_assert!(kept.is_some(), "intact row {} lost (seed {seed})", row.hash);
        prop_assert!(
            kept.unwrap().to_line().ok() == Some(line(row)),
            "intact row {} must survive byte-identically (seed {seed}, index {keep_index})",
            &row.hash
        );
    }
    prop_assert!(ledger.len() >= intact.len());

    // The repair is complete: reloading finds a clean ledger with the
    // same rows.
    let again = Ledger::load(&dir).expect("second load");
    prop_assert!(again.health().is_clean(), "repair left damage: {:?}", again.health());
    prop_assert_eq!(again.len(), ledger.len());

    wipe(&dir);
    Ok(())
}

/// Seeded append-fault storm, with or without the index sidecar
/// surviving between reloads.
fn append_storm(seed: u64, keep_index: bool) -> Result<(), TestCaseError> {
    let rows = base_rows();
    let dir = tmp(&format!("storm-{seed}-{keep_index}.ledger"));
    wipe(&dir);

    let plan = Arc::new(FaultPlan::seeded(seed, FaultConfig::CHAOS));
    let reload = || {
        if !keep_index {
            let _ = fs::remove_file(dir.join("index.bin"));
        }
        let mut ledger = Ledger::load(&dir).expect("reload after append");
        ledger.inject_faults(Arc::clone(&plan));
        ledger
    };
    let mut ledger = reload();

    for row in rows {
        let mut attempts = 0;
        // Durable means: a reload (which re-verifies checksums) still
        // finds the row. An append that "succeeded" through a silent
        // bit-flip fails that bar and is retried like any torn write.
        loop {
            attempts += 1;
            prop_assert!(attempts < 64, "row {} never became durable", row.hash);
            let _ = ledger.append(row.clone());
            ledger = reload();
            if ledger.lookup(&row.hash).is_some() {
                break;
            }
        }
    }

    let fin = Ledger::load(&dir).expect("final load");
    prop_assert!(fin.health().is_clean(), "{:?}", fin.health());
    for row in rows {
        let got = fin.lookup(&row.hash);
        prop_assert!(got.is_some(), "row {} lost", row.hash);
        prop_assert!(got.unwrap().to_line().ok() == Some(line(row)), "row {} drifted", row.hash);
    }

    wipe(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seeded damage storm: load never errors, never panics, and keeps
    /// every row whose frame is still intact in the damaged shards. A
    /// second load of the repaired ledger is fully clean.
    #[test]
    fn damaged_ledgers_recover_without_losing_intact_rows(seed in any::<u64>()) {
        damage_storm(seed, false)?;
        damage_storm(seed, true)?;
    }

    /// Seeded append-fault storm: with CHAOS-rate torn writes, silent
    /// bit-flips and fsync errors injected into `append`, a caller that
    /// retries through reloads always converges to a fully durable,
    /// clean ledger — and never sees a panic.
    #[test]
    fn append_fault_storms_converge_through_reload_and_retry(seed in any::<u64>()) {
        append_storm(seed, false)?;
        append_storm(seed, true)?;
    }
}

/// Duplicate-hash pin: appending the same hash twice is legal
/// append-only history. Lookups resolve to the **newest** row
/// (last-write-wins), both copies stay on disk, and a reload — from
/// the index or from a shard scan — counts the shadowed copy in
/// `health().duplicates`.
#[test]
fn duplicate_hash_rows_are_last_write_wins_and_counted() {
    let rows = base_rows();
    let dir = tmp("dup.ledger");
    wipe(&dir);

    let mut second = rows[1].clone();
    second.hash = rows[0].hash.clone(); // same key, different content

    let mut ledger = Ledger::load(&dir).unwrap();
    ledger.append(rows[0].clone()).unwrap();
    ledger.append(second.clone()).unwrap();
    ledger.sync_index().unwrap();
    assert_eq!(ledger.len(), 2, "both copies stay on disk");
    assert_eq!(ledger.health().duplicates, 1);
    assert_eq!(
        line(ledger.lookup(&rows[0].hash).unwrap()),
        line(&second),
        "in-memory lookup is last-write-wins"
    );

    for keep_index in [true, false] {
        if !keep_index {
            fs::remove_file(dir.join("index.bin")).unwrap();
        }
        let reloaded = Ledger::load_readonly(&dir).unwrap();
        assert!(reloaded.health().is_clean(), "duplicates are not damage");
        assert_eq!(reloaded.health().duplicates, 1);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(
            line(reloaded.lookup(&rows[0].hash).unwrap()),
            line(&second),
            "on-disk lookup is last-write-wins (index {keep_index})"
        );
    }

    wipe(&dir);
}
