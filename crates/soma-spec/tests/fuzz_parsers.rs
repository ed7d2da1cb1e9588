//! Fuzz-style property tests over the three spec parsers: **no input —
//! byte soup, line soup, or mutated valid specs — may panic**, and every
//! rejection must carry a plausible 1-based line/column location.
//!
//! The generators are deterministic (seed-driven through the vendored
//! proptest), so failures reproduce. Three input distributions:
//!
//! * **byte soup** — arbitrary characters including control bytes,
//!   newlines, `#`, multi-byte UTF-8;
//! * **line soup** — lines assembled from the grammars' own token pools
//!   (directives, numbers, `key=value`s, names), which reaches deep
//!   parser states (builder calls, shape math) that raw bytes never hit;
//! * **mutated valid specs** — a correct spec with one line dropped,
//!   duplicated, or spliced from the token pool.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soma_spec::{read_experiment, read_hardware, read_network, SpecError};

/// Asserts the error location is plausible for `text`.
fn check_located(text: &str, e: &SpecError) -> Result<(), proptest::test_runner::TestCaseError> {
    let n_lines = text.lines().count();
    prop_assert!(e.line >= 1, "line {} not 1-based: {e} (input {text:?})", e.line);
    prop_assert!(e.col >= 1, "col {} not 1-based: {e} (input {text:?})", e.col);
    // `missing end` errors point one past the last body line.
    prop_assert!(
        e.line <= n_lines.max(1) + 1,
        "line {} past input ({n_lines} lines): {e} (input {text:?})",
        e.line
    );
    prop_assert!(!e.msg.is_empty(), "empty message");
    Ok(())
}

/// Runs all three parsers over one input; success or a located error are
/// both fine, anything else (panic, unwind) fails the test.
fn check_all(text: &str) -> Result<(), proptest::test_runner::TestCaseError> {
    if let Err(e) = read_network(text) {
        check_located(text, &e)?;
    }
    if let Err(e) = read_hardware(text) {
        check_located(text, &e)?;
    }
    if let Err(e) = read_experiment(text) {
        check_located(text, &e)?;
    }
    Ok(())
}

fn byte_soup(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(0..400usize);
    let mut s = String::with_capacity(len);
    for _ in 0..len {
        match rng.gen_range(0..10u32) {
            0 => s.push('\n'),
            1 => s.push(' '),
            2 => s.push('#'),
            3 => s.push(rng.gen_range(0u8..32) as char),
            4 => s.push('✓'),
            _ => s.push(char::from(rng.gen_range(0x21u8..0x7f))),
        }
    }
    s
}

/// Token pool spanning all three grammars plus junk.
const TOKENS: &[&str] = &[
    "soma-network",
    "soma-hardware",
    "soma-experiment",
    "v1",
    "v2",
    "name",
    "precision",
    "input",
    "conv",
    "dwconv",
    "pool",
    "gpool",
    "linear",
    "matmul",
    "eltwise",
    "vector",
    "output",
    "from",
    "add",
    "mul",
    "relu",
    "softmax",
    "end",
    "preset",
    "edge",
    "cloud",
    "custom",
    "tops",
    "cores",
    "buffer_mib",
    "buffer_bytes",
    "dram_gbps",
    "freq_hz",
    "scenario",
    "workload",
    "hardware",
    "batch",
    "seeds",
    "effort",
    "weights",
    "t0",
    "alpha",
    "allocator_step",
    "max_allocator_iters",
    "stage1_cap",
    "stage2_cap",
    "link_cuts",
    "time_budget",
    "scheduler",
    "soma",
    "cocco",
    "fig2",
    "fig4",
    "resnet50",
    "fig2@edge/b1",
    "resnet50@cloud/b4",
    "nonsense@warp/b0",
    "x",
    "a",
    "b",
    "1x3x32x32",
    "0x0x0x0",
    "4294967295x1x1x1",
    "cout=8",
    "cout=0",
    "cout=4294967295",
    "k=3x3",
    "k=0",
    "k=99999",
    "stride=1",
    "stride=0",
    "dram=18446744073709551615",
    "buffer_mib=0",
    "tops=NaN",
    "tops=inf",
    "tops=-1",
    "0",
    "1",
    "64",
    "-3",
    "1e308",
    "NaN",
    "inf",
    "18446744073709551616",
    "0.0",
    "#",
    "# comment",
    "=",
    "==",
    "from=",
];

fn line_soup(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = String::new();
    // Bias towards a valid header so the body parsers actually run.
    match rng.gen_range(0..4u32) {
        0 => s.push_str("soma-network v1\n"),
        1 => s.push_str("soma-hardware v1\n"),
        2 => s.push_str("soma-experiment v1\n"),
        _ => {}
    }
    for _ in 0..rng.gen_range(0..14usize) {
        let toks = rng.gen_range(0..6usize);
        for t in 0..toks {
            if t > 0 {
                s.push(' ');
            }
            s.push_str(TOKENS[rng.gen_range(0..TOKENS.len())]);
        }
        s.push('\n');
    }
    if rng.gen_bool(0.7) {
        s.push_str("end\n");
    }
    s
}

/// A correct spec for each grammar, to mutate from.
const VALID: &[&str] = &[
    "soma-network v1\nname demo\nprecision 1\ninput x 1x3x32x32\n\
     conv stem from x cout=8 k=3x3 stride=2\nvector act relu from stem\n\
     eltwise mix add from stem act\noutput mix\nend\n",
    "soma-hardware v1\npreset edge\nbuffer_mib 32\ndram_gbps 32\nname fat-edge\nend\n",
    "soma-experiment v1\nname grid\nscenario fig2@edge/b1\nworkload fig2 fig4\n\
     hardware cloud buffer_mib=16\nbatch 1 4\nseeds 7 8\neffort 0.01\nweights 1 1\nend\n",
];

fn mutated_valid(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = VALID[rng.gen_range(0..VALID.len())];
    let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
    for _ in 0..rng.gen_range(1..4usize) {
        match rng.gen_range(0..4u32) {
            0 if lines.len() > 1 => {
                let i = rng.gen_range(0..lines.len());
                lines.remove(i);
            }
            1 => {
                let i = rng.gen_range(0..lines.len());
                let line = lines[i].clone();
                lines.insert(i, line);
            }
            2 => {
                let i = rng.gen_range(0..lines.len());
                lines[i] = TOKENS[rng.gen_range(0..TOKENS.len())].to_string();
            }
            _ => {
                let i = rng.gen_range(0..lines.len());
                let extra = TOKENS[rng.gen_range(0..TOKENS.len())];
                let line = format!("{} {extra}", lines[i]);
                lines[i] = line;
            }
        }
    }
    let mut s = lines.join("\n");
    s.push('\n');
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Arbitrary byte soup: parse, never panic; errors are located.
    #[test]
    fn parsers_survive_byte_soup(seed in any::<u64>()) {
        check_all(&byte_soup(seed))?;
    }

    /// Grammar-token line soup: reaches deep parser states (builder
    /// calls, shape/weight math) without panicking.
    #[test]
    fn parsers_survive_line_soup(seed in any::<u64>()) {
        check_all(&line_soup(seed))?;
    }

    /// Valid specs with lines dropped/duplicated/spliced.
    #[test]
    fn parsers_survive_mutated_valid_specs(seed in any::<u64>()) {
        check_all(&mutated_valid(seed))?;
    }
}

/// Directed regression cases for panics the bounds checks now reject:
/// each used to reach a builder assert or debug-overflow.
#[test]
fn hostile_specs_error_instead_of_panicking() {
    let cases: &[&str] = &[
        // Batch mismatch across *layer* sources (used to panic
        // `Network::validate` in the builder's `finish`). Externals are
        // exempt, as in `validate` — see
        // `external_batch_mismatch_is_valid_and_round_trips`.
        "soma-network v1\nname x\ninput a 1x3x8x8\ninput b 2x3x8x8\n\
         conv la from a cout=4 k=1x1 stride=1\nconv lb from b cout=4 k=1x1 stride=1\n\
         conv c from la lb cout=4 k=3x3 stride=1\nend\n",
        "soma-network v1\nname x\ninput a 1x3x8x8\ninput b 2x3x8x8\n\
         conv la from a cout=4 k=1x1 stride=1\nconv lb from b cout=4 k=1x1 stride=1\n\
         eltwise c add from la lb\nend\n",
        "soma-network v1\nname x\ninput a 1x3x8x8\ninput b 2x3x8x8\n\
         conv la from a cout=4 k=1x1 stride=1\nconv lb from b cout=4 k=1x1 stride=1\n\
         matmul c from la lb cout=4\nend\n",
        // First source an external: the layer inherits its batch, so a
        // conflicting *layer* source must still be rejected.
        "soma-network v1\nname x\ninput a 1x3x8x8\ninput b 2x3x8x8\n\
         conv lb from b cout=3 k=1x1 stride=1\neltwise c add from a lb\nend\n",
        // Debug-overflow in weight-byte math (u32::MAX everywhere).
        "soma-network v1\nname x\ninput a 1x3x8x8\n\
         conv c from a cout=4294967295 k=4294967295x4294967295 stride=1\nend\n",
        "soma-network v1\nname x\nprecision 4294967295\ninput a 1x3x8x8\n\
         linear c from a cout=4294967295\nend\n",
        // Oversized shapes.
        "soma-network v1\nname x\ninput a 16385x16385x16385x16385\nend\n",
        // Non-finite / zero hardware rates (used to poison the builder).
        "soma-hardware v1\npreset edge\ntops NaN\nend\n",
        "soma-hardware v1\npreset edge\ntops inf\nend\n",
        "soma-hardware v1\npreset edge\ntops 0\nend\n",
        "soma-hardware v1\npreset edge\ndram_gbps -16\nend\n",
        "soma-hardware v1\npreset edge\nbuffer_mib 0\nend\n",
        "soma-hardware v1\npreset edge\nbuffer_mib 18446744073709551615\nend\n",
        "soma-hardware v1\npreset edge\ncores 0\nend\n",
        // Non-finite search knobs.
        "soma-experiment v1\nname x\nscenario fig2@edge/b1\neffort NaN\nend\n",
        "soma-experiment v1\nname x\nscenario fig2@edge/b1\nt0 inf\nend\n",
        "soma-experiment v1\nname x\nscenario fig2@edge/b1\nallocator_step NaN\nend\n",
        "soma-experiment v1\nname x\nscenario fig2@edge/b1\nweights NaN 1\nend\n",
        // The removed wall-clock budget, at any value.
        "soma-experiment v1\nname x\nscenario fig2@edge/b1\ntime_budget -inf\nend\n",
        "soma-experiment v1\nname x\nscenario fig2@edge/b1\ntime_budget 0\nend\n",
        // Unknown and repeated searches.
        "soma-experiment v1\nname x\nscenario fig2@edge/b1\nscheduler rayon\nend\n",
        "soma-experiment v1\nname x\nscenario fig2@edge/b1\nscheduler cocco cocco\nend\n",
    ];
    for text in cases {
        let net = read_network(text).err();
        let hwe = read_hardware(text).err();
        let exp = read_experiment(text).err();
        assert!(
            net.is_some() && hwe.is_some() && exp.is_some(),
            "hostile spec was accepted by some parser:\n{text}"
        );
        for e in [net.unwrap(), hwe.unwrap(), exp.unwrap()] {
            assert!(e.line >= 1 && e.col >= 1, "unlocated error {e} for:\n{text}");
        }
    }
}

/// The batch guard must not overreach: a batch-1 *external* operand
/// against a batch-N stream is a valid builder network
/// (`Network::validate` exempts externals from its batch check) and has
/// to keep round-tripping through the text format.
#[test]
fn external_batch_mismatch_is_valid_and_round_trips() {
    use soma_model::{FmapShape, NetworkBuilder};

    let mut b = NetworkBuilder::new("bmix", 1);
    let stream = b.external(FmapShape::new(4, 8, 16, 1));
    let full = b.external(FmapShape::new(1, 16, 8, 1));
    let m = b.matmul("m", stream, full, 16, 0);
    b.mark_output(m);
    let net = b.finish();

    let text = soma_spec::write_network(&net);
    let back = read_network(&text).expect("external batch mismatch is a valid network");
    assert_eq!(back.layers(), net.layers());
    assert_eq!(back.externals(), net.externals());
}

/// The hardened grammar still resolves every accepted hardware spec
/// without panicking — acceptance implies the builder math is safe.
#[test]
fn accepted_hardware_specs_resolve_safely() {
    for seed in 0..500u64 {
        let text = line_soup(seed ^ 0x9e3779b97f4a7c15);
        if let Ok(spec) = read_hardware(&text) {
            let hw = spec.resolve();
            assert!(hw.buffer_bytes > 0);
            assert!(hw.dram_bytes_per_cycle > 0);
        }
    }
}

/// Ditto for experiments: every accepted spec enumerates its cells (the
/// step that resolves hardware overrides and builds networks).
#[test]
fn accepted_experiments_enumerate_cells_safely() {
    for seed in 0..500u64 {
        let text = line_soup(seed ^ 0x6a09e667f3bcc909);
        if let Ok(spec) = read_experiment(&text) {
            assert!(!spec.cells().is_empty(), "an experiment always selects at least one cell");
        }
    }
}
