//! Per-layer metrics of the traced run, and the in-process probes that
//! produce them. Each probe calls one crate's public functions the way
//! the program does and records a span around every call; nothing inside
//! the program is instrumented.

use std::io;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soma_core::{parse_lfa, Dlsa};
use soma_obs::CampaignSummary;
use soma_search::lfa_stage::{initial_lfa, mutate_lfa};
use soma_search::{
    CostWeights, DlsaEditor, Objective, Scheduler, SearchConfig, SearchEvent, SearchOutcome,
    SizeWeightedPicker,
};
use soma_sim::SimScratch;
use soma_spec::ledger::{Ledger, LedgerRow};
use soma_spec::{registry, ExperimentCell};

use crate::stats::Metric;
use crate::trace::Tracer;

/// Span-derived layers reported as `<layer>_count` and `<layer>_s`.
const COUNTED: [(&str, &str, &str); 8] = [
    ("core.parse_lfa", "core.parse_lfa_count", "core.parse_lfa_s"),
    ("sim.compile", "sim.compile_count", "sim.compile_s"),
    ("sim.simulate_cost", "sim.simulate_cost_count", "sim.simulate_cost_s"),
    ("sim.report", "sim.report_count", "sim.report_s"),
    ("ledger.lookup", "ledger.lookup_count", "ledger.lookup_s"),
    ("ledger.append", "ledger.append_count", "ledger.append_s"),
    ("spec.cells", "spec.cells_count", "spec.cells_s"),
    ("spec.cell_hash", "spec.cell_hash_count", "spec.cell_hash_s"),
];

/// Span-derived layers reported as total seconds only.
const TIMED: [(&str, &str); 4] = [
    ("search.lfa_stage", "search.lfa_stage_s"),
    ("search.dlsa_stage", "search.dlsa_stage_s"),
    ("ledger.load", "ledger.load_s"),
    ("obs.summary", "obs.summary_s"),
];

/// The per-layer values that do not come from span totals. Layers a
/// workload does not exercise stay 0.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub evals: u64,
    pub rejected: u64,
    pub outcome_decodes: u64,
    /// Share of the program's ledger lookups that hit.
    pub hit_ratio: f64,
    /// Median per-cell `started` → `finished` of the sweep build.
    pub lab_cell_s: f64,
    /// Median per-cell `queued` → `started` of the sweep build.
    pub lab_queue_wait_s: f64,
    pub lab_hits: u64,
    pub lab_misses: u64,
    pub bytes_per_row: f64,
    pub first_frame_ms: f64,
    pub result_ms: f64,
    pub result_frame_bytes: f64,
    pub connections: u64,
    pub stats_served: u64,
    pub stats_cache_hits: u64,
    pub stats_rejected: u64,
    pub stats_ledger_rows: u64,
    pub overhead_ratio: f64,
    pub uncovered_share: f64,
}

impl Layers {
    /// Every per-layer metric, in a fixed order.
    pub fn metrics(&self, tr: &Tracer) -> Vec<Metric> {
        let mut out = Vec::new();
        for (span, count, secs) in COUNTED {
            let (n, total) = tr.total(span);
            out.push(Metric::one(count, n as f64, "count"));
            out.push(Metric::new(secs, total, "s", n, "sum"));
        }
        for (span, secs) in TIMED {
            let (n, total) = tr.total(span);
            out.push(Metric::new(secs, total, "s", n, "sum"));
        }
        let stage_s = tr.total("search.lfa_stage").1 + tr.total("search.dlsa_stage").1;
        let attempts = self.evals + self.rejected;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        out.extend([
            Metric::one("search.evals", self.evals as f64, "count"),
            Metric::one("search.rejected", self.rejected as f64, "count"),
            Metric::one("search.useful_ratio", ratio(self.evals as f64, attempts as f64), "ratio"),
            Metric::one("search.evals_per_s", ratio(self.evals as f64, stage_s), "1/s"),
            Metric::one("ledger.outcome_decodes", self.outcome_decodes as f64, "count"),
            Metric::one("ledger.hit_ratio", self.hit_ratio, "ratio"),
            Metric::one("ledger.bytes_per_row", self.bytes_per_row, "bytes"),
            Metric::one("lab.cell_s", self.lab_cell_s, "s"),
            Metric::one("lab.queue_wait_s", self.lab_queue_wait_s, "s"),
            Metric::one("lab.hits", self.lab_hits as f64, "count"),
            Metric::one("lab.misses", self.lab_misses as f64, "count"),
            Metric::one("serve.first_frame_ms", self.first_frame_ms, "ms"),
            Metric::one("serve.result_ms", self.result_ms, "ms"),
            Metric::one("serve.result_frame_bytes", self.result_frame_bytes, "bytes"),
            Metric::one("serve.connections", self.connections as f64, "count"),
            Metric::one("serve.stats_served", self.stats_served as f64, "count"),
            Metric::one("serve.stats_cache_hits", self.stats_cache_hits as f64, "count"),
            Metric::one("serve.stats_rejected", self.stats_rejected as f64, "count"),
            Metric::one("serve.stats_ledger_rows", self.stats_ledger_rows as f64, "count"),
            Metric::one("trace.overhead_ratio", self.overhead_ratio, "ratio"),
            Metric::one("trace.uncovered_share", self.uncovered_share, "ratio"),
        ]);
        out
    }
}

/// Walks the engine layers of one SA step by step on `cell`: a random
/// walk of `lfa_steps` stage-1 proposals (`mutate_lfa` → `parse_lfa` →
/// `Objective::compile` → `simulate_cost` of the double-buffer DLSA),
/// then `dlsa_steps` stage-2 proposals on the last valid plan
/// (`DlsaEditor::propose` → `eval_compiled_with_peak`), then one full
/// `CompiledPlan::report`.
pub fn engine_probe(tr: &Tracer, cell: &ExperimentCell, seed: u64, steps: (usize, usize)) {
    let id = cell.id.as_str();
    let root = tr.open("probe.engine", None, id);
    let parent = Some(root);
    let (net, hw) = (&cell.net, &cell.hw);
    let mut obj = Objective::new(net, hw, CostWeights::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = SimScratch::new();
    let mut lfa = initial_lfa(net, hw);
    let mut plan =
        tr.time("core.parse_lfa", parent, id, || parse_lfa(net, &lfa)).expect("initial LFA parses");
    let mut compiled = tr.time("sim.compile", parent, id, || obj.compile(&plan));
    for _ in 0..steps.0 {
        let Some(cand) =
            tr.time("search.mutate_lfa", parent, id, || mutate_lfa(net, &lfa, &mut rng, false))
        else {
            continue;
        };
        let Ok(p) = tr.time("core.parse_lfa", parent, id, || parse_lfa(net, &cand)) else {
            continue;
        };
        let c = tr.time("sim.compile", parent, id, || obj.compile(&p));
        let dlsa = Dlsa::double_buffer(&p);
        if tr.time("sim.simulate_cost", parent, id, || c.simulate_cost(&dlsa, &mut scratch)).is_ok()
        {
            (lfa, plan, compiled) = (cand, p, c);
        }
    }
    let picker = SizeWeightedPicker::new(&plan);
    let mut editor = DlsaEditor::new(&plan, Dlsa::double_buffer(&plan));
    for _ in 0..steps.1 {
        let Some(mv) =
            tr.time("search.dlsa_edit", parent, id, || editor.propose(&picker, &mut rng))
        else {
            continue;
        };
        let cost = tr.time("sim.simulate_cost", parent, id, || {
            obj.eval_compiled_with_peak(&compiled, editor.dlsa(), editor.peak(), hw.buffer_bytes)
        });
        if cost.is_none() || rng.gen_bool(0.5) {
            editor.undo(mv);
        }
    }
    let report =
        tr.time("sim.report", parent, id, || compiled.report(&plan, editor.dlsa(), &mut scratch));
    assert!(report.is_ok(), "{id}: the walk only keeps deadlock-free schemes");
    tr.set_end(root, Instant::now());
}

fn stage_span(stage: &str) -> &'static str {
    match stage {
        "lfa" => "search.lfa_stage",
        "dlsa" => "search.dlsa_stage",
        _ => "search.other_stage",
    }
}

/// A sequential single-seed `Scheduler::run` on `cell`, with stage spans
/// taken from its `SearchEvent` timestamps.
pub fn stage_replica(
    tr: &Tracer,
    cell: &ExperimentCell,
    cfg: &SearchConfig,
    seed: u64,
) -> SearchOutcome {
    let id = format!("{}#{seed}", cell.id);
    let root = tr.open("search.run", None, &id);
    let mut events: Vec<(Instant, SearchEvent)> = Vec::new();
    let out = Scheduler::new(&cell.net, &cell.hw)
        .config(cfg.clone())
        .seeds([seed])
        .observer(|ev| events.push((Instant::now(), ev.clone())))
        .run();
    tr.set_end(root, Instant::now());
    let mut mark: Option<Instant> = None;
    for (at, ev) in &events {
        match ev {
            SearchEvent::RoundStarted { .. } => mark = Some(*at),
            SearchEvent::StageFinished { stage, .. } => {
                if let Some(from) = mark {
                    tr.span(stage_span(stage), Some(root), &id, from, *at);
                }
                mark = Some(*at);
            }
            _ => {}
        }
    }
    out
}

/// Total bytes of the files of a ledger (a binary ledger is a directory).
pub fn ledger_bytes(path: &Path) -> u64 {
    if path.is_file() {
        return path.metadata().map_or(0, |m| m.len());
    }
    std::fs::read_dir(path)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// Loads a ledger read-only, looks every key up (decoding the outcome),
/// and summarises it with `CampaignSummary::from_ledger`, one span per
/// call. Returns the looked-up outcomes in key order.
pub fn ledger_probe(
    tr: &Tracer,
    name: &str,
    path: &Path,
    keys: &[(String, String)],
    layers: &mut Layers,
) -> io::Result<Vec<Option<SearchOutcome>>> {
    let ledger = tr.time("ledger.load", None, name, || Ledger::load_readonly(path))?;
    let outcomes: Vec<Option<SearchOutcome>> = keys
        .iter()
        .map(|(id, key)| {
            tr.time("ledger.lookup", None, id, || {
                ledger.lookup(key).and_then(|r| r.outcome().cloned())
            })
        })
        .collect();
    tr.time("obs.summary", None, name, || CampaignSummary::from_ledger(name, &ledger));
    layers.outcome_decodes += ledger.outcome_decodes();
    if !ledger.is_empty() {
        layers.bytes_per_row = ledger_bytes(path) as f64 / ledger.len() as f64;
    }
    Ok(outcomes)
}

/// Appends `rows` one by one to a fresh ledger at `path` (each append
/// is written and fsynced before it returns), one span per append.
pub fn append_probe(tr: &Tracer, path: &Path, rows: Vec<LedgerRow>) -> io::Result<()> {
    let mut ledger = Ledger::load(path)?;
    for row in rows {
        let id = row.cell.clone();
        tr.time("ledger.append", None, &id, || ledger.append(row))?;
    }
    ledger.sync_index()
}

/// Resolves a registry scenario id into its cell, the way the serve
/// daemon does for each submit.
pub fn scenario_cell(id: &str) -> ExperimentCell {
    let sc = registry::lookup(id).expect("benchmark scenarios are registry ids");
    let hw = sc.hardware();
    ExperimentCell {
        id: sc.id(),
        workload: sc.workload.clone(),
        platform: hw.name.clone(),
        batch: sc.batch,
        net: sc.network(),
        hw,
    }
}
