//! The experiment harness: the `lab` orchestrator behind every paper
//! campaign, the `serve` load generator, and the shared helpers of the
//! remaining figure binaries.
//!
//! The paper's campaigns (Fig. 2, Fig. 6, Fig. 7 and the ablation) are
//! committed `specs/*.soma` files that run through [`run_lab`] (see the
//! README's *Reproducing the paper's figures* section). The three
//! binaries that are not campaigns — `fig3` and `fig8` (per-scheme
//! analyses of one search) and `perfbench` — print CSV or JSON to stdout
//! plus commentary to stderr, and share one knob surface, parsed once
//! by [`RunConfig::from_env`]:
//!
//! * `SOMA_EFFORT` — multiplier on the per-workload search effort
//!   (default 1.0; the built-in per-workload efforts are already scaled
//!   down from paper budgets so the harness runs on a laptop).
//! * `SOMA_SEED` — base RNG seed (default 2025).
//! * `SOMA_WORKLOAD` — case-insensitive substring filter over scenario
//!   ids (`<workload>@<platform>/b<batch>`), so `resnet` filters
//!   workloads, `@edge` platforms and `/b4` batch sizes.
//!
//! Unparseable values are a **hard error** — a typo'd knob aborts the run
//! instead of silently falling back to a default and producing a
//! mislabelled CSV. This crate is the only workspace member allowed to
//! read `std::env` (CI lints the rest), so a `RunConfig` value *is* the
//! complete run configuration and can be logged next to the results.

pub mod lab;
pub mod loadgen;

pub use lab::{
    csv_rows, run_lab, run_lab_chaos, run_lab_until, ExperimentRow, LabEvent, LabSummary, Ledger,
    LedgerRow, CSV_HEADER,
};
pub use loadgen::{storm, StormConfig, StormReport};

/// One `--version` line shared by every binary in this crate: binary
/// name, crate version, the engine fingerprint baked into ledger keys,
/// and the serve wire-protocol version.
#[must_use]
pub fn version_line(binary: &str) -> String {
    format!(
        "{binary} {} (engine {}, protocol v{})",
        env!("CARGO_PKG_VERSION"),
        soma_search::record::ENGINE_VERSION,
        soma_serve::PROTOCOL_VERSION,
    )
}

use std::fmt;

use serde::{Deserialize, Serialize};
use soma_arch::HardwareConfig;
use soma_model::Network;
use soma_search::SearchConfig;
use soma_spec::Preset;

/// A `SOMA_*` environment variable that failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvParseError {
    /// The offending variable name.
    pub key: &'static str,
    /// The value found in the environment.
    pub value: String,
    /// What the variable expects.
    pub expected: &'static str,
}

impl fmt::Display for EnvParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}={:?}: expected {}", self.key, self.value, self.expected)
    }
}

impl std::error::Error for EnvParseError {}

/// Reads and parses one environment variable; absence is `Ok(None)`,
/// presence with an unparseable value is a hard [`EnvParseError`].
fn parse_var<T: std::str::FromStr>(
    key: &'static str,
    expected: &'static str,
) -> Result<Option<T>, EnvParseError> {
    match std::env::var(key) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(EnvParseError { key, value: "<non-unicode>".into(), expected })
        }
        Ok(raw) => {
            raw.trim().parse().map(Some).map_err(|_| EnvParseError { key, value: raw, expected })
        }
    }
}

/// The serialisable run configuration shared by every harness binary —
/// the explicit replacement for per-binary ad-hoc `SOMA_*` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[must_use]
pub struct RunConfig {
    /// Multiplier on the per-workload search effort (`SOMA_EFFORT`).
    pub effort_scale: f64,
    /// Base RNG seed (`SOMA_SEED`).
    pub seed: u64,
    /// Scenario-id substring filter (`SOMA_WORKLOAD`, empty = all;
    /// case-insensitive, matched against `<workload>@<platform>/b<batch>`
    /// registry ids and against bare workload names).
    pub workload: String,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self { effort_scale: 1.0, seed: 2025, workload: String::new() }
    }
}

impl RunConfig {
    /// Parses the documented `SOMA_*` knobs. Missing variables keep
    /// their defaults; present-but-unparseable values are a hard error.
    pub fn from_env() -> Result<Self, EnvParseError> {
        let mut rc = Self::default();
        if let Some(v) = parse_var::<f64>("SOMA_EFFORT", "a floating-point effort multiplier")? {
            rc.effort_scale = v;
        }
        if let Some(v) = parse_var::<u64>("SOMA_SEED", "an unsigned integer seed")? {
            rc.seed = v;
        }
        if let Some(v) = parse_var::<String>("SOMA_WORKLOAD", "a scenario-id substring")? {
            rc.workload = v;
        }
        Ok(rc)
    }

    /// [`from_env`](Self::from_env), aborting the process with a usage
    /// message on a bad knob (the harness-binary entry-point idiom).
    pub fn from_env_or_exit() -> Self {
        Self::from_env().unwrap_or_else(|e| {
            eprintln!("soma-bench: {e}");
            std::process::exit(2);
        })
    }

    /// Per-workload search effort, scaled so deep transformers stay
    /// tractable: the cost of one SA iteration grows with layer and
    /// tensor count, so the effort shrinks correspondingly.
    /// `effort_scale` multiplies the result. A spec reproduces this
    /// stage-1 budget with `effort s` plus `stage1_cap 12000·s`
    /// (`specs/fig6.soma`).
    pub fn effort_for(&self, net: &Network) -> f64 {
        let layers = net.len() as f64;
        // Budget roughly constant total work: ~8000 stage-1 iterations.
        // SoMa's space is far larger than Cocco's, so starving both
        // equally (the paper runs beta = 100, i.e. effort 1.0, for 2 days
        // on 192 cores) flatters the baseline; this is the smallest
        // budget where SoMa's advantage is stable across the suite.
        let base = (120.0 / layers).clamp(0.004, 1.0);
        base * self.effort_scale
    }

    /// Search configuration for one (workload, platform, batch) cell.
    pub fn config_for(&self, net: &Network, seed_salt: u64) -> SearchConfig {
        SearchConfig {
            effort: self.effort_for(net),
            seed: self.seed ^ seed_salt,
            stage2_cap: 50_000,
            max_allocator_iters: 4,
            ..SearchConfig::default()
        }
    }

    /// Whether a network passes the `workload` substring filter
    /// (matched against the bare network name; see
    /// [`selects_id`](Self::selects_id) for full scenario-id matching).
    pub fn selects(&self, net: &Network) -> bool {
        self.selects_id(net.name())
    }

    /// Whether a scenario id (or any name fragment) passes the
    /// `workload` filter: a **case-insensitive substring** match, so
    /// `resnet` selects both ResNet variants, `@edge` selects every
    /// edge-platform scenario and `/b4` one batch size.
    pub fn selects_id(&self, id: &str) -> bool {
        self.workload.is_empty()
            || id.to_ascii_lowercase().contains(&self.workload.to_ascii_lowercase())
    }
}

/// The registry key for one harness output row: the stable scenario id
/// when `platform` *is* a registry preset, otherwise the same shape with
/// the resolved platform name (e.g. `resnet50@edge-8MB-32GBps/b4`).
pub fn scenario_key(platform: &HardwareConfig, workload: &str, batch: u32) -> String {
    match Preset::of(platform) {
        Some(p) if p.config() == *platform => soma_spec::scenario_id(workload, p, batch),
        _ => format!("{workload}@{}/b{batch}", platform.name),
    }
}

/// A simple deterministic hash for seed salting.
pub fn salt(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for p in parts {
        for b in p.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use soma_model::zoo;

    #[test]
    fn effort_shrinks_with_depth() {
        let rc = RunConfig::default();
        let small = zoo::fig2(1);
        let big = zoo::gpt2_xl_prefill(1, 64);
        assert!(rc.effort_for(&small) > rc.effort_for(&big));
    }

    #[test]
    fn effort_scale_multiplies() {
        let net = zoo::fig2(1);
        let base = RunConfig::default();
        let scaled = RunConfig { effort_scale: 0.5, ..RunConfig::default() };
        assert!((scaled.effort_for(&net) - 0.5 * base.effort_for(&net)).abs() < 1e-12);
    }

    #[test]
    fn salt_is_deterministic_and_distinguishes() {
        assert_eq!(salt(&["a", "b"]), salt(&["a", "b"]));
        assert_ne!(salt(&["a"]), salt(&["b"]));
    }

    #[test]
    fn workload_filter_matches_substrings() {
        let rc = RunConfig { workload: "fig2".into(), ..RunConfig::default() };
        assert!(rc.selects(&zoo::fig2(1)));
        assert!(!rc.selects(&zoo::fig4(1)));
        assert!(RunConfig::default().selects(&zoo::fig4(1)));
    }

    #[test]
    fn workload_filter_is_case_insensitive() {
        let rc = RunConfig { workload: "ResNet".into(), ..RunConfig::default() };
        assert!(rc.selects(&zoo::resnet50(1)));
        assert!(rc.selects_id("resnet101@cloud/b4"));
        assert!(!rc.selects(&zoo::fig2(1)));
    }

    #[test]
    fn workload_filter_matches_scenario_id_parts() {
        let edge = RunConfig { workload: "@edge".into(), ..RunConfig::default() };
        assert!(edge.selects_id("fig2@edge/b1"));
        assert!(!edge.selects_id("fig2@cloud/b1"));
        let b4 = RunConfig { workload: "/b4".into(), ..RunConfig::default() };
        assert!(b4.selects_id("fig2@edge/b4"));
        assert!(!b4.selects_id("fig2@edge/b1"));
    }

    #[test]
    fn scenario_keys_use_registry_ids_for_presets() {
        let edge = HardwareConfig::edge();
        assert_eq!(scenario_key(&edge, "resnet50", 4), "resnet50@edge/b4");
        let swept = HardwareConfig::builder()
            .like(&edge)
            .name("edge-8MB-32GBps")
            .buffer_mib(8)
            .dram_gbps(32.0)
            .build();
        // A derived sweep point is not the registry preset: keyed by its
        // resolved name instead.
        assert_eq!(scenario_key(&swept, "resnet50", 4), "resnet50@edge-8MB-32GBps/b4");
    }

    #[test]
    fn config_for_salts_the_seed() {
        let rc = RunConfig::default();
        let net = zoo::fig2(1);
        let a = rc.config_for(&net, salt(&["a"]));
        let b = rc.config_for(&net, salt(&["b"]));
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.effort, b.effort);
    }

    #[test]
    fn env_parse_error_is_descriptive() {
        let e = EnvParseError { key: "SOMA_EFFORT", value: "fast".into(), expected: "a float" };
        let msg = e.to_string();
        assert!(msg.contains("SOMA_EFFORT"));
        assert!(msg.contains("fast"));
    }
}
