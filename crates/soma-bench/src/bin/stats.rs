//! Sec. VI-B aggregate statistics ("stats.log" of the paper's artifact)
//! over the ledger of a `scheduler soma cocco` campaign:
//!
//! ```sh
//! lab specs/fig6_ci.soma --ledger out/fig6.ledger > out/fig6.csv
//! stats out/fig6.ledger
//! ```
//!
//! It reports SoMa's speedup, energy and utilisation against Cocco, the
//! scenarios where SoMa loses, scheme shapes (LGs/FLGs/tiles), and GPT-2
//! decode utilisation vs batch. It reads the ledger because the `lab`
//! CSV lacks the core/DRAM energy split and the utilisation figures.
//!
//! Each scenario must hold exactly one `soma` and one `cocco`
//! (`<scenario>+cocco`) cell. Anything else — a path that is not a
//! ledger directory, a row that does not decode, a scenario missing a
//! cell or holding cells of several campaigns — exits with status 2 and
//! names every cause, instead of reporting over a different cell set.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use soma_model::zoo;
use soma_search::{Evaluated, SchedulerKind, SearchOutcome};
use soma_spec::ledger::{Ledger, LedgerRow};
use soma_spec::split_cell_id;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stats: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = &args[..] else {
        return Err("usage: stats <ledger-dir> (of a `scheduler soma cocco` campaign)".into());
    };
    let path = Path::new(path);
    let not_a_ledger = |why: &str| format!("{} is not a ledger directory{why}", path.display());
    if !path.is_dir() {
        return Err(not_a_ledger(""));
    }
    let ledger = Ledger::load_readonly(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if ledger.is_empty() {
        return Err(not_a_ledger(": it holds no rows"));
    }
    report(&pairs(&ledger)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// Each scenario's `[soma, cocco]` rows, or every scenario that has not
/// exactly one of each.
fn pairs(ledger: &Ledger) -> Result<BTreeMap<&str, [&LedgerRow; 2]>, String> {
    // Shadowed rows (same hash, re-searched) resolve last-write-wins,
    // like every ledger lookup.
    let rows = ledger.rows();
    let newest: HashMap<&str, usize> =
        rows.iter().enumerate().map(|(i, row)| (row.hash.as_str(), i)).collect();
    let mut by_scenario: BTreeMap<&str, [Vec<&LedgerRow>; 2]> = BTreeMap::new();
    for (_, row) in rows.iter().enumerate().filter(|(i, row)| newest[row.hash.as_str()] == *i) {
        let (scenario, kind) = split_cell_id(&row.cell);
        by_scenario.entry(scenario).or_default()[kind as usize].push(row);
    }
    let mut problems = Vec::new();
    for (scenario, cells) in &by_scenario {
        for (kind, rows) in [SchedulerKind::Soma, SchedulerKind::Cocco].iter().zip(cells) {
            match rows.len() {
                1 => {}
                0 => problems.push(format!("{scenario} lacks its {kind} cell")),
                n => problems.push(format!("{scenario} has {n} {kind} cells of different configs")),
            }
        }
    }
    if !problems.is_empty() {
        return Err(format!(
            "{} scenario problem(s); run a `scheduler soma cocco` spec into a ledger of its \
             own:\n  {}",
            problems.len(),
            problems.join("\n  ")
        ));
    }
    Ok(by_scenario.into_iter().map(|(s, [soma, cocco])| (s, [soma[0], cocco[0]])).collect())
}

/// A row's outcome, or which row does not decode.
fn outcome(row: &LedgerRow) -> Result<&SearchOutcome, String> {
    row.outcome().ok_or_else(|| format!("row {} ({}) does not decode", row.hash, row.cell))
}

/// LGs, FLGs and tiles of a row's scheme, parsed on the row's network.
fn shape(row: &LedgerRow, e: &Evaluated) -> Result<[f64; 3], String> {
    let net = zoo::by_name_at(&row.workload, row.batch)
        .ok_or_else(|| format!("{}: `{}` is not a zoo workload", row.cell, row.workload))?;
    let plan = soma_core::parse_lfa(&net, &e.encoding.lfa).map_err(|err| {
        format!("row {} ({}): its scheme does not parse: {err}", row.hash, row.cell)
    })?;
    Ok([plan.n_lgs() as f64, plan.flgs.len() as f64, plan.tiles.len() as f64])
}

/// Prints the report. Every row is decoded and parsed before the first
/// line, so a failure prints no numbers.
fn report(pairs: &BTreeMap<&str, [&LedgerRow; 2]>) -> Result<(), String> {
    let (mut speedup1, mut speedup2, mut energy_red) = (vec![], vec![], vec![]);
    let (mut core_red, mut dram_red, mut theo_gap) = (vec![], vec![], vec![]);
    let (mut soma_shape, mut cocco_shape) = (vec![], vec![]);
    let (mut losses, mut decode_util) = (String::new(), vec![]);
    for (scenario, [soma_row, cocco_row]) in pairs {
        let (soma, cocco) = (outcome(soma_row)?, &outcome(cocco_row)?.best);
        let (c, s1, s2) = (&cocco.report, &soma.stage1.report, &soma.best.report);
        speedup1.push(c.latency_cycles as f64 / s1.latency_cycles as f64);
        speedup2.push(c.latency_cycles as f64 / s2.latency_cycles as f64);
        if s2.latency_cycles > c.latency_cycles {
            let (s, c) = (s2.latency_cycles, c.latency_cycles);
            let _ = writeln!(losses, "  {scenario}: ours_2 {s} vs cocco {c} cycles");
        }
        energy_red.push(1.0 - s2.energy.total_pj() / c.energy.total_pj());
        if c.energy.core_pj > 0.0 {
            core_red.push(1.0 - s1.energy.core_pj / c.energy.core_pj);
        }
        if c.energy.dram_pj > 0.0 {
            dram_red.push(1.0 - s1.energy.dram_pj / c.energy.dram_pj);
        }
        if s2.theoretical_max_util > 0.0 {
            theo_gap.push(1.0 - s2.compute_util / s2.theoretical_max_util);
        }
        soma_shape.push(shape(soma_row, &soma.best)?);
        cocco_shape.push(shape(cocco_row, cocco)?);
        if soma_row.workload.contains("decode") {
            decode_util.push((soma_row.workload.as_str(), soma_row.batch, s2.compute_util));
        }
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let pct = |v: &[f64]| 100.0 * avg(v);
    let geomean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    let col = |v: &[[f64; 3]], i: usize| avg(&v.iter().map(|s| s[i]).collect::<Vec<_>>());
    println!("== SoMa vs Cocco over {} configurations (paper Sec. VI-B) ==", pairs.len());
    println!("avg stage-1 speedup over Cocco:    {:.2}x  (paper: 1.82x)", avg(&speedup1));
    println!("avg stage-2 speedup over Cocco:    {:.2}x  (paper: 2.11x)", avg(&speedup2));
    println!("geomean stage-2 speedup:           {:.2}x", geomean(&speedup2));
    println!(
        "avg stage2/stage1 improvement:     {:.2}x  (paper: 1.16x)",
        avg(&speedup2) / avg(&speedup1).max(1e-12)
    );
    println!("avg energy reduction vs Cocco:     {:.1}%  (paper: 37.3%)", pct(&energy_red));
    println!("avg stage-1 core-energy reduction: {:.1}%  (paper: 34.8%)", pct(&core_red));
    println!("avg stage-1 DRAM-energy reduction: {:.1}%  (paper: 44.3%)", pct(&dram_red));
    println!("avg gap to theoretical max util:   {:.1}%  (paper: 3.1%)", pct(&theo_gap));
    println!("scenarios where SoMa loses on latency: {}", losses.lines().count());
    print!("{losses}");
    println!(
        "\navg LGs per network   SoMa {:.1} vs Cocco {:.1}  (paper: 2.5 vs 13.0)",
        col(&soma_shape, 0),
        col(&cocco_shape, 0)
    );
    println!("avg FLGs per network  SoMa {:.1}  (paper: 3.9)", col(&soma_shape, 1));
    println!(
        "avg tiles per network SoMa {:.0} vs Cocco {:.0}  (paper: 751 vs 7962)",
        col(&soma_shape, 2),
        col(&cocco_shape, 2)
    );
    println!("\n== GPT-2 decode utilisation vs batch (paper: 0.66/2.03/4.26/5.84% small; 0.60/1.90/4.13/5.83% XL) ==");
    decode_util.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    for (name, batch, util) in decode_util {
        println!("{name} batch {batch}: {:.2}%", 100.0 * util);
    }
    Ok(())
}
