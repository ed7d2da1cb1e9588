//! The engine reads no clock: a search outcome is a pure function of its
//! cell key (network, hardware, `SearchConfig`, seeds, engine version),
//! so a ledger row cached under that key is valid on any host, under any
//! load and at any thread count.
//!
//! This gate scans the non-test sources of the three engine crates
//! (`soma-core`, `soma-sim`, `soma-search`) and fails on any use of
//! `Instant` or `SystemTime`. Timing belongs to the binaries and the
//! daemon, which measure *around* a search, never inside it.

use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out
}

/// Whether `line` names `word` as a whole identifier.
fn names(line: &str, word: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    line.match_indices(word).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + word.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

#[test]
fn engine_crates_read_no_clock_outside_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut hits = Vec::new();
    let mut scanned = 0;
    for krate in ["soma-core", "soma-sim", "soma-search"] {
        for file in rust_files(&root.join(krate).join("src")) {
            scanned += 1;
            let text = fs::read_to_string(&file).expect("readable source");
            for (n, line) in text.lines().enumerate() {
                // Unit-test modules sit at the end of each file.
                if line.trim_start().starts_with("#[cfg(test)]") {
                    break;
                }
                let code = line.split("//").next().unwrap_or("");
                for word in ["Instant", "SystemTime"] {
                    if names(code, word) {
                        hits.push(format!("{}:{}: {}", file.display(), n + 1, line.trim()));
                    }
                }
            }
        }
    }
    assert!(scanned > 20, "the scan found only {scanned} files; is the crate layout unchanged?");
    assert!(hits.is_empty(), "engine code reads a clock:\n{}", hits.join("\n"));
}

#[test]
fn the_identifier_match_is_whole_word() {
    assert!(names("let t = std::time::Instant::now();", "Instant"));
    assert!(names("use std::time::SystemTime;", "SystemTime"));
    assert!(!names("/// Instantiates the stage", "Instant"));
    assert!(!names("let instant_ok = 1;", "Instant"));
}
