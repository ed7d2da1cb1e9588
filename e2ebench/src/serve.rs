//! `serve-mixed`: the `serve` daemon in its own process on a unix
//! socket, driven by two closed-loop clients that open a connection,
//! send 8 submits on it one after another and close it, the way a
//! compiler calls a scheduling service. 80% of submits repeat a warm
//! set of cells (cache hits); 20% are searches with fresh seeds.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soma_search::record::ENGINE_VERSION;
use soma_search::SearchConfig;
use soma_serve::protocol::{to_line, Request, Response, SubmitRequest, Target};
use soma_serve::{Client, Listen};
use soma_spec::ledger::LedgerRow;
use soma_spec::{cell_hash_hex, ExperimentCell};

use crate::layers::{self, Layers};
use crate::proc::Daemon;
use crate::stats::{self, median, Metric};
use crate::trace::Tracer;
use crate::{Ctx, Report};

const SCENARIOS: [&str; 2] = ["fig2@edge/b1", "fig4@edge/b1"];
const WARM_SEEDS: u64 = 8;
const EFFORT: f64 = 0.02;
const CACHED_SHARE: f64 = 0.8;
const CLIENTS: u64 = 2;
const SUBMITS_PER_CONNECTION: usize = 8;
/// Connections each client opens per block; a block (64 submits) is the
/// unit `campaign_wall_s` times.
const CONNECTIONS_PER_BLOCK: usize = 4;
/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fresh-seed cells re-searched in-process by the traced run.
const REPLICA_CELLS: usize = 6;
const PROBE_STEPS: (usize, usize) = (150, 3000);

/// One submit of the traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Draw {
    pub scenario: &'static str,
    pub seed: u64,
    pub warm: bool,
}

/// The cells seeded at set-up: every scenario at `WARM_SEEDS` seeds.
pub fn warm_set(seed: u64) -> Vec<Draw> {
    let base = seed.wrapping_mul(1000);
    (0..WARM_SEEDS)
        .flat_map(|i| {
            SCENARIOS.map(|scenario| Draw { scenario, seed: base.wrapping_add(i), warm: true })
        })
        .collect()
}

/// The seeded submit sequence of one client. Fresh seeds never repeat
/// within a run and never collide with the warm set or the other client.
pub struct Mix {
    rng: StdRng,
    warm: Vec<Draw>,
    base: u64,
    client: u64,
    fresh: u64,
}

impl Mix {
    pub fn new(seed: u64, client: u64) -> Self {
        let stream = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ client;
        Self {
            rng: StdRng::seed_from_u64(stream),
            warm: warm_set(seed),
            base: seed.wrapping_mul(1000).wrapping_add(WARM_SEEDS),
            client,
            fresh: 0,
        }
    }

    pub fn next_draw(&mut self) -> Draw {
        if self.rng.gen_bool(CACHED_SHARE) {
            self.warm[self.rng.gen_range(0..self.warm.len())]
        } else {
            let scenario = SCENARIOS[self.rng.gen_range(0..SCENARIOS.len())];
            let seed = self.base.wrapping_add(self.fresh * CLIENTS + self.client);
            self.fresh += 1;
            Draw { scenario, seed, warm: false }
        }
    }
}

/// One answered submit, timed by the client.
#[derive(Debug, Clone)]
struct Answer {
    draw: Draw,
    cached: bool,
    hash: String,
    cost_bits: u64,
    latency_cycles: u64,
    /// Submit written → `accepted` frame read.
    first_frame_ms: f64,
    /// `accepted` → `result` frame read.
    result_ms: f64,
    /// Submit written → `result` frame read.
    total_ms: f64,
    result_bytes: usize,
}

/// Sends one submit on `conn` and reads frames up to its `result`,
/// timestamping each frame as it arrives. Returns the answer and the
/// instants the submit was written and its result read.
fn submit(conn: &mut Client, id: String, draw: Draw) -> Result<(Answer, Instant, Instant), String> {
    let req = SubmitRequest {
        id: id.clone(),
        target: Target::Scenario(draw.scenario.into()),
        seeds: vec![draw.seed],
        effort: Some(EFFORT),
        progress: false,
        deadline_ms: None,
    };
    let start = Instant::now();
    conn.send(&Request::Submit(req)).map_err(|e| format!("send: {e}"))?;
    let mut accepted: Option<Instant> = None;
    loop {
        let resp = conn.recv().map_err(|e| format!("recv: {e}"))?;
        let at = Instant::now();
        match &resp {
            Response::Accepted { id: got, .. } if *got == id => accepted = Some(at),
            Response::Progress { id: got, .. } if *got == id => {}
            Response::Result { id: got, hash, cached, outcome } if *got == id => {
                let acc = accepted.ok_or("result before accepted")?;
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                let answer = Answer {
                    draw,
                    cached: *cached,
                    hash: hash.clone(),
                    cost_bits: outcome.best.cost.to_bits(),
                    latency_cycles: outcome.best.report.latency_cycles,
                    first_frame_ms: ms(acc - start),
                    result_ms: ms(at - acc),
                    total_ms: ms(at - start),
                    result_bytes: to_line(&resp.to_json()).len(),
                };
                return Ok((answer, start, at));
            }
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
}

/// What one client saw in one block.
#[derive(Default)]
struct ClientLog {
    answers: Vec<Answer>,
    errors: Vec<String>,
    connections: u64,
}

/// One client's share of a block: `connections` connections of
/// `SUBMITS_PER_CONNECTION` submits each, drawn from `next`. With a
/// tracer, records `serve.connect`, `serve.request`, `serve.first_frame`
/// and `serve.result` spans as the frames arrive.
fn client(
    sock: &Path,
    next: &mut dyn FnMut() -> Draw,
    connections: usize,
    tag: &str,
    trace: Option<(&Tracer, usize)>,
) -> ClientLog {
    let mut log = ClientLog::default();
    for c in 0..connections {
        let t = Instant::now();
        let conn = Client::connect(&Listen::Unix(sock.to_path_buf()));
        if let Some((tr, block)) = trace {
            tr.span("serve.connect", Some(block), &format!("{tag}.{c}"), t, Instant::now());
        }
        let mut conn = match conn {
            Ok(conn) => conn,
            Err(e) => {
                log.errors.push(format!("connect: {e}"));
                continue;
            }
        };
        log.connections += 1;
        for s in 0..SUBMITS_PER_CONNECTION {
            let id = format!("{tag}.{c}.{s}");
            match submit(&mut conn, id.clone(), next()) {
                Ok((a, start, end)) => {
                    if let Some((tr, block)) = trace {
                        let req = tr.span("serve.request", Some(block), &id, start, end);
                        let acc = start + Duration::from_secs_f64(a.first_frame_ms / 1e3);
                        tr.span("serve.first_frame", Some(req), &id, start, acc);
                        tr.span("serve.result", Some(req), &id, acc, end);
                    }
                    log.answers.push(a);
                }
                Err(e) => {
                    log.errors.push(format!("{id}: {e}"));
                    break;
                }
            }
        }
    }
    log
}

/// Runs one client thread per draw source, each over `connections`
/// connections; returns the merged log and the block's wall time.
fn block<F: FnMut() -> Draw + Send>(
    sock: &Path,
    sources: &mut [F],
    connections: usize,
    tag: &str,
    tracer: Option<&Tracer>,
) -> (ClientLog, f64) {
    let start = Instant::now();
    let root = tracer.map(|tr| tr.open("serve.block", None, tag));
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = sources
            .iter_mut()
            .enumerate()
            .map(|(i, next)| {
                let tag = format!("{tag}.c{i}");
                let trace = tracer.zip(root);
                s.spawn(move || client(sock, next, connections, &tag, trace))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    if let (Some(tr), Some(root)) = (tracer, root) {
        tr.set_end(root, Instant::now());
    }
    let mut merged = ClientLog::default();
    for log in logs {
        merged.answers.extend(log.answers);
        merged.errors.extend(log.errors);
        merged.connections += log.connections;
    }
    (merged, wall)
}

/// Waits until the daemon answers `ping`.
fn wait_ready(sock: &Path, daemon: &Daemon) -> io::Result<()> {
    let listen = Listen::Unix(sock.to_path_buf());
    while daemon.start.elapsed() < Duration::from_secs(30) {
        if let Ok(mut c) = Client::connect(&listen) {
            if c.ping().is_ok() {
                return Ok(());
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(io::Error::other("serve did not come up within 30 s"))
}

fn stats_of(sock: &Path) -> io::Result<soma_serve::protocol::StatsSnapshot> {
    Client::connect(&Listen::Unix(sock.to_path_buf()))
        .and_then(|mut c| c.stats())
        .map_err(|e| io::Error::other(format!("stats: {e}")))
}

/// Starts a daemon with a fresh ledger in `dir` and seeds the warm set;
/// returns the daemon, its socket, the warm answers and the set-up time.
fn set_up(ctx: &Ctx, dir: &Path) -> io::Result<(Daemon, PathBuf, ClientLog, f64)> {
    std::fs::create_dir_all(dir)?;
    let mut cmd = Command::new(std::fs::canonicalize(&ctx.serve)?);
    cmd.current_dir(dir).args(["--listen", "unix:serve.sock", "--ledger", "serve.ledger"]);
    cmd.args(["--max-inflight", "2"]);
    let daemon = Daemon::spawn(&mut cmd)?;
    let sock = dir.join("serve.sock");
    wait_ready(&sock, &daemon)?;
    // Each client sends its half of the warm set on one connection.
    let warm = warm_set(ctx.seed);
    let mut sources: Vec<_> = (0..CLIENTS as usize)
        .map(|c| {
            let mut mine = warm.clone().into_iter().skip(c).step_by(CLIENTS as usize);
            move || mine.next().expect("SUBMITS_PER_CONNECTION warm cells per client")
        })
        .collect();
    let (log, _) = block(&sock, &mut sources, 1, "warm", None);
    let setup_s = daemon.start.elapsed().as_secs_f64();
    Ok((daemon, sock, log, setup_s))
}

type Firsts = HashMap<(&'static str, u64), (u64, u64)>;

/// Checks every answer against the first answer for its (scenario,
/// seed) and its expected cache state; records new firsts.
fn check_answers(rep: &mut Report, what: &str, answers: &[Answer], firsts: &mut Firsts) {
    let mut mismatched = 0;
    let mut wrong_cache_state = 0;
    for a in answers {
        let key = (a.draw.scenario, a.draw.seed);
        let got = (a.cost_bits, a.latency_cycles);
        match firsts.get(&key) {
            Some(first) if *first != got => mismatched += 1,
            Some(_) => {}
            None => {
                firsts.insert(key, got);
            }
        }
        if a.cached != a.draw.warm {
            wrong_cache_state += 1;
        }
    }
    rep.check(
        format!("{what}: every answer equals the first answer for its (scenario, seed)"),
        mismatched == 0,
    );
    rep.check(
        format!("{what}: warm repeats are cache hits, fresh seeds are searched"),
        wrong_cache_state == 0,
    );
}

pub fn mixed(ctx: &Ctx) -> io::Result<Report> {
    let mut rep = Report::default();
    let mut firsts: Firsts = HashMap::new();
    let mut setups = Vec::new();
    let mut warm_answers = Vec::new();
    let mut live: Option<(Daemon, PathBuf)> = None;
    for i in 0..SETUPS {
        let (daemon, sock, log, setup_s) = set_up(ctx, &ctx.dir.join(format!("serve-{i}")))?;
        setups.push(setup_s);
        let n = warm_set(ctx.seed).len() as u64;
        rep.attempted += n;
        rep.failed += n - (log.answers.len() as u64).min(n);
        rep.check(
            "set-up: every warm cell is answered",
            log.errors.is_empty() && log.answers.len() as u64 == n,
        );
        // On a fresh ledger the warm cells are searched: mark them so.
        let searched: Vec<Answer> = log
            .answers
            .iter()
            .map(|a| Answer { draw: Draw { warm: false, ..a.draw }, ..a.clone() })
            .collect();
        check_answers(&mut rep, "set-up", &searched, &mut firsts);
        if i == 0 {
            warm_answers = log.answers;
        }
        if i + 1 < SETUPS {
            let exit = daemon.terminate()?;
            rep.check("set-up: the daemon exits 0 on SIGTERM", exit.code == Some(0));
        } else {
            live = Some((daemon, sock));
        }
    }
    let (daemon, sock) = live.expect("SETUPS > 0");

    let before = stats_of(&sock)?;
    let mut mixes: Vec<Mix> = (0..CLIENTS).map(|c| Mix::new(ctx.seed, c)).collect();
    let t0 = Instant::now();
    let min_blocks = if ctx.tracer.is_some() { 4 } else { 2 };
    let (mut walls, mut traced_walls, mut untraced_walls) = (vec![], vec![], vec![]);
    let mut answers: Vec<Answer> = Vec::new();
    let mut connections = 0;
    let mut b = 0;
    while b < min_blocks || t0.elapsed().as_secs_f64() < ctx.seconds {
        let tracer = ctx.tracer.as_ref().filter(|_| b % 2 == 1);
        let mut sources: Vec<_> = mixes.iter_mut().map(|m| || m.next_draw()).collect();
        let (log, wall) =
            block(&sock, &mut sources, CONNECTIONS_PER_BLOCK, &format!("b{b}"), tracer);
        let n = (CLIENTS as usize * CONNECTIONS_PER_BLOCK * SUBMITS_PER_CONNECTION) as u64;
        rep.attempted += n;
        rep.failed += n - (log.answers.len() as u64).min(n);
        for e in log.errors.iter().take(3) {
            eprintln!("e2ebench: block {b}: {e}");
        }
        rep.check(
            "block: every submit is answered",
            log.errors.is_empty() && log.answers.len() as u64 == n,
        );
        answers.extend(log.answers);
        connections += log.connections;
        walls.push(wall);
        if tracer.is_some() { &mut traced_walls } else { &mut untraced_walls }.push(wall);
        b += 1;
    }
    check_answers(&mut rep, "traffic", &answers, &mut firsts);
    let after = stats_of(&sock)?;
    let served = after.served - before.served;
    let hits = after.cache_hits - before.cache_hits;
    let cached = answers.iter().filter(|a| a.cached).count() as u64;
    rep.check(
        "daemon stats agree with the clients (served, cache hits, rejected)",
        served == answers.len() as u64 && hits == cached && after.rejected == before.rejected,
    );
    let exit = daemon.terminate()?;
    rep.check("traffic daemon exits 0 on SIGTERM", exit.code == Some(0));

    let costs: Vec<f64> = warm_answers.iter().map(|a| f64::from_bits(a.cost_bits)).collect();
    let lats: Vec<f64> = warm_answers.iter().map(|a| a.latency_cycles as f64).collect();
    let sched = stats::sched_metrics(&costs, &lats);
    let Some(tr) = &ctx.tracer else {
        let cold: Vec<f64> = answers.iter().filter(|a| !a.cached).map(|a| a.total_ms).collect();
        let hit: Vec<f64> = answers.iter().filter(|a| a.cached).map(|a| a.total_ms).collect();
        let [cost, lat] = sched;
        rep.metrics.extend([
            stats::median_metric("setup_s", &setups, "s"),
            stats::median_metric("campaign_wall_s", &walls, "s"),
            cost,
            lat,
            Metric::new(
                "req_per_s",
                answers.len() as f64 / walls.iter().sum::<f64>(),
                "1/s",
                answers.len(),
                "submits/wall",
            ),
            stats::median_metric("req_cold_p50_ms", &cold, "ms"),
            stats::tail_metric("req_cold_p99_ms", &cold, 99.0, "ms"),
            stats::median_metric("req_cached_p50_ms", &hit, "ms"),
            stats::tail_metric("req_cached_p99_ms", &hit, 99.0, "ms"),
            Metric::one("peak_rss_mb", exit.peak_rss_mb, "MiB"),
        ]);
        return Ok(rep);
    };

    let mut layers = Layers {
        first_frame_ms: median(&answers.iter().map(|a| a.first_frame_ms).collect::<Vec<_>>()),
        result_ms: median(&answers.iter().map(|a| a.result_ms).collect::<Vec<_>>()),
        result_frame_bytes: median(
            &answers.iter().map(|a| a.result_bytes as f64).collect::<Vec<_>>(),
        ),
        connections,
        stats_served: served,
        stats_cache_hits: hits,
        stats_rejected: after.rejected - before.rejected,
        stats_ledger_rows: after.ledger_rows,
        hit_ratio: if served > 0 { hits as f64 / served as f64 } else { 0.0 },
        overhead_ratio: stats::overhead_ratio(&traced_walls, &untraced_walls),
        uncovered_share: tr.uncovered_share("serve.block"),
        ..Layers::default()
    };

    // The daemon's per-submit resolve and hash, replayed in-process for
    // every distinct cell it answered.
    let cfg = SearchConfig { effort: EFFORT, ..SearchConfig::default() };
    let mut distinct: Vec<&Answer> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for a in warm_answers.iter().chain(&answers) {
        if seen.insert((a.draw.scenario, a.draw.seed)) {
            distinct.push(a);
        }
    }
    let mut cells: Vec<(ExperimentCell, String, &Answer)> = Vec::new();
    let mut hash_mismatch = 0;
    for a in &distinct {
        let cell =
            tr.time("spec.cells", None, a.draw.scenario, || layers::scenario_cell(a.draw.scenario));
        let hash = tr.time("spec.cell_hash", None, &a.hash, || {
            cell_hash_hex(&cell.id, &cell.hw, &cfg, &[a.draw.seed], ENGINE_VERSION)
        });
        hash_mismatch += usize::from(hash != a.hash);
        cells.push((cell, hash, a));
    }
    rep.check("cell hashes recomputed in-process match the daemon's", hash_mismatch == 0);

    let ledger = sock.with_file_name("serve.ledger");
    let keys: Vec<(String, String)> =
        cells.iter().map(|(c, h, _)| (c.id.clone(), h.clone())).collect();
    let stored = layers::ledger_probe(tr, "serve-mixed", &ledger, &keys, &mut layers)?;
    rep.check("every answered cell is in the daemon's ledger", stored.iter().all(Option::is_some));
    let rows: Vec<LedgerRow> = cells
        .iter()
        .zip(&stored)
        .filter_map(|((cell, hash, _), out)| out.clone().map(|o| LedgerRow::new(cell, hash, o)))
        .collect();
    layers::append_probe(tr, &ctx.dir.join("append-probe.ledger"), rows)?;

    for (i, sc) in SCENARIOS.iter().enumerate() {
        layers::engine_probe(
            tr,
            &layers::scenario_cell(sc),
            ctx.seed.wrapping_add(i as u64),
            PROBE_STEPS,
        );
    }
    let fresh = cells.iter().filter(|(_, _, a)| !a.draw.warm).take(REPLICA_CELLS);
    for (cell, _, a) in fresh {
        let out = layers::stage_replica(tr, cell, &cfg, a.draw.seed);
        layers.evals += out.evals;
        layers.rejected += out.rejected;
        rep.check(
            "fresh cell: the daemon's answer equals an in-process Scheduler::run",
            out.best.cost.to_bits() == a.cost_bits
                && out.best.report.latency_cycles == a.latency_cycles,
        );
    }
    rep.metrics = layers.metrics(tr);
    for m in &sched {
        rep.notes.push(format!("sched {} = {:?} (n={})", m.name, m.value, m.n));
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, client: u64, n: usize) -> Vec<Draw> {
        let mut mix = Mix::new(seed, client);
        (0..n).map(|_| mix.next_draw()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_mix() {
        assert_eq!(draws(5, 0, 500), draws(5, 0, 500));
        assert_ne!(draws(5, 0, 500), draws(6, 0, 500));
        assert_ne!(draws(5, 0, 500), draws(5, 1, 500));
    }

    #[test]
    fn mix_is_mostly_warm_and_fresh_seeds_never_collide() {
        let warm = warm_set(5);
        assert_eq!(warm.len(), 16);
        let a = draws(5, 0, 2000);
        let b = draws(5, 1, 2000);
        let share = a.iter().filter(|d| d.warm).count() as f64 / a.len() as f64;
        assert!((share - CACHED_SHARE).abs() < 0.05, "warm share {share}");
        assert!(a.iter().filter(|d| d.warm).all(|d| warm.contains(d)));
        let mut fresh: Vec<u64> = a.iter().chain(&b).filter(|d| !d.warm).map(|d| d.seed).collect();
        let n = fresh.len();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), n, "fresh seeds repeat");
        assert!(fresh.iter().all(|s| !warm.iter().any(|w| w.seed == *s)));
    }
}
