//! `campaign-replay`: a 384-cell DSE sweep searched cold into a fresh
//! ledger at set-up, then replayed from it with `lab --require-hits`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use soma_obs::CampaignSummary;
use soma_search::SearchOutcome;
use soma_spec::ledger::{cell_key, Ledger, LedgerRow};
use soma_spec::{read_experiment, ExperimentSpec};

use crate::hostspeed::{HostSpeed, CALIBRATION_REF_S};
use crate::layers::{self, Layers};
use crate::proc::{self, Invocation};
use crate::stats::{self, Metric};
use crate::trace::Tracer;
use crate::{Ctx, Report};

pub const WORKLOADS: [&str; 2] = ["campaign-replay", "serve-mixed"];

const REPLAY_NETS: [&str; 6] = [
    "resnet50",
    "resnet101",
    "inception-resnet-v1",
    "randwire",
    "gpt2-small-prefill512",
    "gpt2-small-decode513",
];
const BUFFER_MIB: [u32; 8] = [1, 2, 3, 4, 6, 8, 12, 16];
const DRAM_GBPS: [u32; 4] = [8, 16, 32, 64];

/// Engine probe size per network: stage-1 proposals, stage-2 proposals.
const PROBE_STEPS: (usize, usize) = (150, 3000);

/// The search seed of every cell. It is fixed: a cell's search time
/// depends on it, and its spread across seeds exceeded the timing bound.
const SWEEP_SEED: u64 = 2025;

/// The sweep hardware point of the cold requests.
const COLD_HW: &str = "hardware edge buffer_mib=4 dram_gbps=16";

/// A Fisher-Yates shuffle of `v` by `rng`.
fn shuffled(rng: &mut StdRng, mut v: Vec<String>) -> Vec<String> {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

fn spec_text(name: &str, lines: &[String], batch: &str, threads: &str) -> String {
    let mut s = format!("soma-experiment v1\nname {name}\n");
    for line in lines {
        let _ = writeln!(s, "{line}");
    }
    let _ = writeln!(s, "batch {batch}\nseeds {SWEEP_SEED}\neffort 0.002\nthreads {threads}\nend");
    s
}

fn net_lines() -> Vec<String> {
    REPLAY_NETS.iter().map(|w| format!("workload {w}")).collect()
}

/// The sweep, with its workload and hardware lines in an order `seed`
/// picks (so the cell, ledger and CSV order differ by seed; the work does
/// not). Two workers build it; the replays only read it.
fn replay_spec(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = shuffled(&mut rng, net_lines());
    lines.extend(shuffled(
        &mut rng,
        BUFFER_MIB
            .iter()
            .flat_map(|b| DRAM_GBPS.map(|d| format!("hardware edge buffer_mib={b} dram_gbps={d}")))
            .collect(),
    ));
    spec_text("campaign-replay", &lines, "1 2", "2")
}

/// A cold request: the six networks at one sweep hardware point and
/// batch 1, in a seeded order, searched one after another. Its cells are
/// sweep cells, so their outcomes must equal the sweep's rows.
fn cold_spec(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D);
    let mut lines = shuffled(&mut rng, net_lines());
    lines.push(COLD_HW.to_string());
    spec_text("campaign-cold", &lines, "1", "seq")
}

/// A `LabEvent` as the `lab` binary prints it on stderr.
#[derive(Debug, PartialEq)]
enum Ev<'a> {
    Queued(&'a str),
    Cached(&'a str),
    Started(&'a str),
    Finished(&'a str),
    Failed(&'a str),
}

fn parse_event(line: &str) -> Option<Ev<'_>> {
    let rest = line.strip_prefix("[lab] ")?;
    let (kind, cell) = rest.split_once(' ')?;
    let cell = cell.trim_start();
    let before = |sep: &str| cell.split(sep).next().unwrap_or(cell);
    Some(match kind {
        "queued" => Ev::Queued(before(" (")),
        "cached" => Ev::Cached(cell),
        "started" => Ev::Started(cell),
        "finished" => Ev::Finished(before(":")),
        "FAILED" => Ev::Failed(before(":")),
        _ => return None,
    })
}

/// What one `lab` invocation's event stream shows.
#[derive(Debug, Default)]
struct PassStats {
    /// Process start to the first event (spec parsed, cells built and
    /// hashed, ledger loaded).
    setup_s: f64,
    hits: u64,
    finished: u64,
    failed: u64,
    /// `started` → `finished` time of each searched cell.
    cell_s: Vec<f64>,
    /// `queued` → `started` time of each searched cell.
    queue_wait_s: Vec<f64>,
}

fn pass_stats(inv: &Invocation) -> PassStats {
    let mut st = PassStats::default();
    let mut queued: HashMap<&str, Vec<Instant>> = HashMap::new();
    let mut started: HashMap<&str, Vec<Instant>> = HashMap::new();
    for (at, line) in &inv.lines {
        let Some(ev) = parse_event(line) else { continue };
        if st.setup_s == 0.0 {
            st.setup_s = (*at - inv.start).as_secs_f64();
        }
        match ev {
            Ev::Queued(c) => queued.entry(c).or_default().push(*at),
            Ev::Cached(_) => st.hits += 1,
            Ev::Started(c) => {
                if let Some(q) =
                    queued.get_mut(c).and_then(|v| (!v.is_empty()).then(|| v.remove(0)))
                {
                    st.queue_wait_s.push((*at - q).as_secs_f64());
                }
                started.entry(c).or_default().push(*at);
            }
            Ev::Finished(c) | Ev::Failed(c) => {
                if matches!(ev, Ev::Failed(_)) {
                    st.failed += 1;
                } else {
                    st.finished += 1;
                }
                if let Some(s) =
                    started.get_mut(c).and_then(|v| (!v.is_empty()).then(|| v.remove(0)))
                {
                    st.cell_s.push((*at - s).as_secs_f64());
                }
            }
        }
    }
    st
}

/// Records one traced replay pass's spans as its events arrive:
/// `lab.pass` (process wall) over `lab.startup` (start → first event),
/// `lab.lookup` (last `queued` → last `cached`) and `lab.output` (last
/// event → exit).
struct LiveSpans<'t> {
    tr: &'t Tracer,
    id: String,
    root: usize,
    start: Instant,
    first: bool,
    last_queued: Option<Instant>,
    lookup: Option<(Instant, Instant)>,
    last_event: Option<Instant>,
}

impl<'t> LiveSpans<'t> {
    fn new(tr: &'t Tracer, id: &str) -> Self {
        let root = tr.open("lab.pass", None, id);
        Self {
            tr,
            id: id.to_string(),
            root,
            start: Instant::now(),
            first: true,
            last_queued: None,
            lookup: None,
            last_event: None,
        }
    }

    fn on_line(&mut self, at: Instant, line: &str) {
        let Some(ev) = parse_event(line) else { return };
        if self.first {
            self.first = false;
            self.tr.span("lab.startup", Some(self.root), &self.id, self.start, at);
        }
        match ev {
            Ev::Queued(_) => self.last_queued = Some(at),
            Ev::Cached(_) => {
                let from = self.lookup.map_or(self.last_queued.unwrap_or(at), |(s, _)| s);
                self.lookup = Some((from, at));
            }
            Ev::Started(_) | Ev::Finished(_) | Ev::Failed(_) => {}
        }
        self.last_event = Some(at);
    }

    fn finish(self, inv: &Invocation) {
        let root = Some(self.root);
        if let Some((s, e)) = self.lookup {
            self.tr.span("lab.lookup", root, &self.id, s, e);
        }
        if let Some(last) = self.last_event {
            self.tr.span("lab.output", root, &self.id, last, inv.end);
        }
        self.tr.set_start(self.root, inv.start);
        self.tr.set_end(self.root, inv.end);
    }
}

/// Runs `lab <spec> --ledger <ledger> <extra>`; with a tracer, records
/// the pass's spans live.
fn lab(
    ctx: &Ctx,
    spec: &Path,
    ledger: &Path,
    extra: &[&str],
    trace: Option<(&Tracer, &str)>,
) -> io::Result<(Invocation, PassStats)> {
    let mut cmd = Command::new(&ctx.lab);
    cmd.arg(spec).arg("--ledger").arg(ledger).args(extra);
    let inv = match trace {
        Some((tr, id)) => {
            let mut live = LiveSpans::new(tr, id);
            let inv = proc::run(&mut cmd, &mut |at, line| live.on_line(at, line))?;
            live.finish(&inv);
            inv
        }
        None => proc::run(&mut cmd, &mut |_, _| {})?,
    };
    let stats = pass_stats(&inv);
    Ok((inv, stats))
}

/// The outcome stored for each cell of `spec` (cell order).
fn ledger_outcomes(spec: &ExperimentSpec, ledger: &Path) -> io::Result<Vec<Option<SearchOutcome>>> {
    let ledger = Ledger::load_readonly(ledger)?;
    Ok(spec
        .cells()
        .iter()
        .map(|c| {
            ledger
                .lookup(&cell_key(c, &spec.config, &spec.seeds))
                .and_then(|r| r.outcome().cloned())
        })
        .collect())
}

fn parse_spec(text: &str) -> io::Result<ExperimentSpec> {
    read_experiment(text).map_err(|e| io::Error::other(format!("benchmark spec: {e}")))
}

/// `sched_*` metrics over the given outcomes.
fn sched_metrics(outs: &[&SearchOutcome]) -> [Metric; 2] {
    let costs: Vec<f64> = outs.iter().map(|o| o.best.cost).collect();
    let lats: Vec<f64> = outs.iter().map(|o| o.best.report.latency_cycles as f64).collect();
    stats::sched_metrics(&costs, &lats)
}

/// `campaign-replay`: set-up searches a 384-cell edge sweep into a fresh
/// ledger; the timed loop alternates a replay pass (`lab --require-hits
/// --summary` over the sweep) with a cold request (the 6-cell cold spec
/// searched into a fresh ledger).
pub fn replay(ctx: &Ctx) -> io::Result<Report> {
    let mut rep = Report::default();
    let text = replay_spec(ctx.seed);
    let spec = parse_spec(&text)?;
    let n_cells = (REPLAY_NETS.len() * BUFFER_MIB.len() * DRAM_GBPS.len() * 2) as u64;
    let spec_path = ctx.dir.join("replay.soma");
    std::fs::write(&spec_path, &text)?;
    let ledger = ctx.dir.join("replay.ledger");
    let cold_text = cold_spec(ctx.seed);
    let cold = parse_spec(&cold_text)?;
    let n_cold = REPLAY_NETS.len() as u64;
    let cold_path = ctx.dir.join("cold.soma");
    std::fs::write(&cold_path, &cold_text)?;

    let (build, bst) = lab(ctx, &spec_path, &ledger, &[], None)?;
    rep.attempted += n_cells;
    rep.failed += n_cells - bst.finished.min(n_cells);
    rep.check(
        "set-up: the sweep build searches every cell",
        build.ok() && bst.finished == n_cells && bst.failed == 0 && !build.stdout.is_empty(),
    );
    let outs = ledger_outcomes(&spec, &ledger)?;
    rep.check("set-up: every cell has a ledger row", outs.iter().all(Option::is_some));
    let cold_want = ledger_outcomes(&cold, &ledger)?;
    rep.check(
        "set-up: every cold-request cell is a sweep cell",
        cold_want.iter().all(Option::is_some),
    );

    // Timings are scaled to the reference host (see hostspeed.rs); the
    // raw ones are printed beside them.
    let mut host = HostSpeed::pin_fastest()?;
    let t0 = Instant::now();
    let min_passes = if ctx.tracer.is_some() { 6 } else { 3 };
    let (mut setups, mut walls, mut cold_walls, mut rss) = (vec![], vec![], vec![], vec![]);
    let (mut raw_walls, mut raw_cold_walls) = (vec![], vec![]);
    let (mut traced_walls, mut untraced_walls) = (vec![], vec![]);
    let (mut hits, mut misses) = (bst.hits, bst.finished);
    let mut pass = 0u64;
    while pass < min_passes || t0.elapsed().as_secs_f64() < ctx.seconds {
        let summary = ctx.dir.join(format!("summary-{pass}.json"));
        let summary_arg = summary.to_string_lossy().into_owned();
        let id = format!("replay-{pass}");
        let tracer = ctx.tracer.as_ref().filter(|_| pass % 2 == 1);
        let (inv, st) = lab(
            ctx,
            &spec_path,
            &ledger,
            &["--require-hits", "--summary", &summary_arg],
            tracer.map(|t| (t, id.as_str())),
        )?;
        let k = host.rescale();
        rep.attempted += n_cells;
        rep.failed += n_cells - st.hits.min(n_cells);
        let summary_cells = std::fs::read_to_string(&summary)
            .ok()
            .and_then(|t| serde::json::parse(&t).ok())
            .and_then(|v| CampaignSummary::from_json(&v).ok())
            .map(|s| s.cells);
        rep.check(
            "replay pass: every cell hits, the CSV is byte-identical to the sweep build's, \
             the summary covers every cell",
            inv.ok()
                && st.hits == n_cells
                && inv.stdout == build.stdout
                && summary_cells == Some(n_cells as usize),
        );
        hits += st.hits;
        let wall = inv.wall_s() * k;
        setups.push(st.setup_s * k);
        walls.push(wall);
        raw_walls.push(inv.wall_s());
        rss.push(inv.exit.peak_rss_mb);
        if tracer.is_some() { &mut traced_walls } else { &mut untraced_walls }.push(wall);

        let cold_ledger = ctx.dir.join(format!("cold-{pass}.ledger"));
        let (inv, st) = lab(ctx, &cold_path, &cold_ledger, &[], None)?;
        cold_walls.push(inv.wall_s() * host.rescale());
        raw_cold_walls.push(inv.wall_s());
        rep.attempted += n_cold;
        rep.failed += n_cold - st.finished.min(n_cold);
        let got = ledger_outcomes(&cold, &cold_ledger).ok();
        rep.check(
            "cold request: every cell is searched and equals its sweep row",
            inv.ok() && st.finished == n_cold && st.hits == 0 && got.as_ref() == Some(&cold_want),
        );
        (hits, misses) = (hits + st.hits, misses + st.finished);
        let _ = std::fs::remove_dir_all(&cold_ledger);
        pass += 1;
    }
    rep.notes.push(format!(
        "host speed: timed loop on cpu {}; calibration kernel median {:?} s (reference \
         {CALIBRATION_REF_S} s, n={}); raw median replay pass {:?} s, cold request {:?} s",
        host.cpu,
        stats::median(&host.kernel_s),
        host.kernel_s.len(),
        stats::median(&raw_walls),
        stats::median(&raw_cold_walls)
    ));
    drop(host);

    let sched = sched_metrics(&outs.iter().flatten().collect::<Vec<_>>());
    let Some(tr) = &ctx.tracer else {
        let [cost, lat] = sched;
        let total: f64 = walls.iter().sum();
        let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<f64>>();
        let (cold_ms, replay_ms) = (ms(&cold_walls), ms(&walls));
        let served = n_cells as usize * walls.len();
        rep.metrics.extend([
            stats::median_metric("setup_s", &setups, "s"),
            stats::median_metric("campaign_wall_s", &walls, "s"),
            cost,
            lat,
            Metric::new("req_per_s", served as f64 / total, "1/s", served, "cells/wall"),
            stats::median_metric("req_cold_p50_ms", &cold_ms, "ms"),
            stats::tail_metric("req_cold_p99_ms", &cold_ms, 99.0, "ms"),
            stats::median_metric("req_cached_p50_ms", &replay_ms, "ms"),
            stats::tail_metric("req_cached_p99_ms", &replay_ms, 99.0, "ms"),
            stats::median_metric("peak_rss_mb", &rss, "MiB"),
        ]);
        return Ok(rep);
    };

    let mut layers = Layers {
        lab_cell_s: stats::median(&bst.cell_s),
        lab_queue_wait_s: stats::median(&bst.queue_wait_s),
        lab_hits: hits,
        lab_misses: misses,
        hit_ratio: hits as f64 / (n_cells * walls.len() as u64) as f64,
        overhead_ratio: stats::overhead_ratio(&traced_walls, &untraced_walls),
        uncovered_share: tr.uncovered_share("lab.pass"),
        ..Layers::default()
    };
    let cells = tr.time("spec.cells", None, &spec.name, || spec.cells());
    let keys: Vec<(String, String)> = cells
        .iter()
        .map(|c| {
            let key =
                tr.time("spec.cell_hash", None, &c.id, || cell_key(c, &spec.config, &spec.seeds));
            (c.id.clone(), key)
        })
        .collect();
    let found = layers::ledger_probe(tr, &spec.name, &ledger, &keys, &mut layers)?;
    // The CSV renders both schemes of every row by re-parsing their LFAs.
    for (cell, out) in cells.iter().zip(found.iter().flatten()) {
        for e in [&out.stage1, &out.best] {
            let _ = tr.time("core.parse_lfa", None, &cell.id, || {
                soma_core::parse_lfa(&cell.net, &e.encoding.lfa)
            });
        }
    }
    // The sweep build and the cold requests are the engine work: walk its
    // layers on each network, and re-search the first cell of each
    // network in-process.
    for (i, w) in REPLAY_NETS.iter().enumerate() {
        let cell = layers::scenario_cell(&format!("{w}@edge/b1"));
        layers::engine_probe(tr, &cell, ctx.seed.wrapping_add(i as u64), PROBE_STEPS);
    }
    let per_net = cells.len() / REPLAY_NETS.len();
    let mut rows = Vec::new();
    for ((cell, (_, key)), row) in cells.iter().zip(&keys).zip(&outs).step_by(per_net) {
        let seq = layers::stage_replica(tr, cell, &spec.config, SWEEP_SEED);
        layers.evals += seq.evals;
        layers.rejected += seq.rejected;
        rep.check(
            format!("{}: the ledger row equals an in-process Scheduler::run", cell.workload),
            row.as_ref() == Some(&seq),
        );
        rows.push(LedgerRow::new(cell, key, seq));
    }
    layers::append_probe(tr, &ctx.dir.join("append-probe.ledger"), rows)?;
    rep.metrics = layers.metrics(tr);
    for m in &sched {
        rep.notes.push(format!("sched {} = {:?} (n={})", m.name, m.value, m.n));
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_event_lines_parse() {
        assert_eq!(parse_event("[lab] queued   a@edge/b1 (00ff)"), Some(Ev::Queued("a@edge/b1")));
        assert_eq!(parse_event("[lab] cached   a@edge/b1"), Some(Ev::Cached("a@edge/b1")));
        assert_eq!(parse_event("[lab] started  a@edge/b1"), Some(Ev::Started("a@edge/b1")));
        assert_eq!(
            parse_event("[lab] finished a@edge/b1: best cost 1e-6, latency 3 cycles, 9 evals"),
            Some(Ev::Finished("a@edge/b1"))
        );
        assert_eq!(parse_event("[lab] FAILED   a@edge/b1: boom"), Some(Ev::Failed("a@edge/b1")));
        assert_eq!(parse_event("[lab] campaign: 4 cell(s)"), None);
    }

    #[test]
    fn the_sweep_has_384_cells_64_per_network_in_a_seeded_order() {
        let replay = parse_spec(&replay_spec(7)).unwrap();
        let cells = replay.cells();
        assert_eq!(cells.len(), 384);
        assert_eq!(replay.seeds, vec![SWEEP_SEED]);
        let mut nets: Vec<&str> = cells.chunks(64).map(|c| c[0].workload.as_str()).collect();
        assert!(cells.chunks(64).all(|c| c.iter().all(|x| x.workload == c[0].workload)));
        assert_eq!(replay_spec(7), replay_spec(7));
        assert_ne!(replay_spec(7), replay_spec(8));
        nets.sort_unstable();
        let mut want = REPLAY_NETS.to_vec();
        want.sort_unstable();
        assert_eq!(nets, want);
    }
}
