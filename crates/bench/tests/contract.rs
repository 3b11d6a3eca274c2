//! The byte contract as one committed ledger. `CONTRACT.json` maps each
//! entry name to the byte count and 64-bit FNV-1a digest of the bytes the
//! workspace produces for it, and this test recomputes every entry at one
//! and two worker threads:
//!
//! * `repro/*`: the four contract artifacts that `repro -- conformance
//!   robustness edca detect profile --quick` writes, and its
//!   `TELEMETRY.json` up to the wall-clock `"timings"` section, at
//!   `MACGAME_THREADS=1` and `=2`;
//! * `serve/*`: the reply bytes of seeded churn-like query streams, 2 100
//!   frames at seeds 1 and 7 and 200 frames at seed 29, served by one
//!   `Engine` with 1 and 2 worker threads;
//! * `dcf/solver-batch`: the raw output bits of a seeded batch of solves.
//!
//! An entry that moved fails the test with its name, its ledger value and
//! its new value. After an intended change, `scripts/bless.sh` (or
//! `UPDATE_GOLDEN=1`) rewrites the ledger and prints each entry that moved.
//! The digests cover `f64` text formatted through the platform's libm, as
//! the golden fixtures do, so a toolchain change can move them too.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use macgame_conformance::golden::bless_requested;
use macgame_core::queries::Query;
use macgame_core::DEFAULT_NE_EPSILON;
use macgame_dcf::edca::{solve_edca, EdcaEquilibrium, EdcaTuple};
use macgame_dcf::fixedpoint::{
    solve_classes, solve_classes_with_guess, solve_robust, solve_symmetric, solve_with_guess,
    SolveOptions,
};
use macgame_dcf::{AccessMode, ClassEquilibrium, Classes, DcfError, DcfParams};
use macgame_serve::{serve_stream, Engine, EngineConfig, ServeHarness};

/// The ledger value of a byte string, as `CONTRACT.json` stores it.
fn entry(bytes: &[u8]) -> String {
    let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    format!("{{\"bytes\": {}, \"fnv1a\": \"{fnv1a:#018x}\"}}", bytes.len())
}

fn ledger_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../CONTRACT.json")
}

/// The ledger is one `"name": value` line per entry, sorted by name, so a
/// diff of it names the entries that moved.
fn read_ledger() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(ledger_path()).unwrap_or_default();
    let line = |l: &str| {
        let (name, value) = l.trim().trim_end_matches(',').strip_prefix('"')?.split_once("\": ")?;
        Some((name.to_string(), value.to_string()))
    };
    text.lines().filter_map(line).collect()
}

fn write_ledger(entries: &BTreeMap<String, String>) {
    let lines: Vec<String> = entries.iter().map(|(name, e)| format!("  \"{name}\": {e}")).collect();
    std::fs::write(ledger_path(), format!("{{\n{}\n}}\n", lines.join(",\n"))).unwrap();
}

/// The `repro/*` entries at `MACGAME_THREADS=threads`, written in a
/// temporary directory of their own.
fn repro_entries(threads: usize) -> Vec<(String, String)> {
    let dir =
        std::env::temp_dir().join(format!("macgame-contract-{}-{threads}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["conformance", "robustness", "edca", "detect", "profile", "--quick"])
        .env("MACGAME_THREADS", threads.to_string())
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "repro failed: {}", String::from_utf8_lossy(&out.stderr));
    let read = |name: &str| std::fs::read(dir.join("artifacts").join(name)).unwrap();
    let mut entries: Vec<(String, String)> = ["CONFORMANCE", "ROBUSTNESS", "EDCA", "DETECT"]
        .iter()
        .map(|name| (format!("repro/{name}.json"), entry(&read(&format!("{name}.json")))))
        .collect();
    let telemetry = read("TELEMETRY.json");
    let timings = telemetry.windows(9).position(|w| w == b"\"timings\"").expect("timings section");
    entries.push(("repro/TELEMETRY.json before timings".into(), entry(&telemetry[..timings])));
    std::fs::remove_dir_all(&dir).unwrap();
    entries
}

/// splitmix64, shared by the query stream and the solver batch.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        rand::splitmix64(&mut self.0)
    }

    fn below(&mut self, k: u64) -> u64 {
        self.next() % k
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(u64::from(hi - lo + 1)) as u32
    }

    fn mode(&mut self) -> AccessMode {
        if self.next() % 2 == 0 {
            AccessMode::Basic
        } else {
            AccessMode::RtsCts
        }
    }

    /// A window, mostly small, sometimes very large.
    fn window(&mut self) -> u32 {
        match self.below(4) {
            0 => 1 + self.below(8) as u32,
            1 | 2 => 1 + self.below(1024) as u32,
            _ => 1 + self.below(1 << 16) as u32,
        }
    }

    /// A class size, mostly small, sometimes a large population.
    fn count(&mut self) -> usize {
        match self.below(6) {
            0 => 1_000 + self.below(1_000_000) as usize,
            _ => 1 + self.below(40) as usize,
        }
    }
}

/// Queries per frame of a served stream.
const FRAME: usize = 64;

/// A fresh query in the ranges of the `serve-churn` benchmark: 60 %
/// prices (one in eight at `w_dev == w_star`), 12 % `W*`, 10 % NE
/// intervals, 10 % robustness cells, 8 % EDCA optima.
fn fresh(rng: &mut Rng) -> Query {
    let players = |rng: &mut Rng, hi: u32| rng.range(2, hi) as usize;
    match rng.range(0, 99) {
        0..=59 => {
            let w_star = rng.range(16, 1024);
            let w_dev = if rng.range(0, 7) == 0 { w_star } else { rng.range(1, w_star - 1) };
            Query::DeviationPayoff {
                players: players(rng, 128),
                mode: rng.mode(),
                w_star,
                w_dev,
                reaction_stages: rng.range(1, 4),
                delta_s: f64::from(rng.range(0, 18)) / 20.0,
            }
        }
        60..=71 => Query::WcStar {
            players: players(rng, 128),
            mode: rng.mode(),
            w_max: [1024, 2048, 4096][rng.range(0, 2) as usize],
        },
        72..=81 => Query::NeInterval {
            players: players(rng, 128),
            mode: rng.mode(),
            w_max: [1024, 2048, 4096][rng.range(0, 2) as usize],
        },
        82..=91 => Query::RobustnessCell {
            players: players(rng, 16),
            mode: rng.mode(),
            window: rng.range(2, 128),
            reaction_stages: rng.range(1, 3),
            epsilon: DEFAULT_NE_EPSILON,
        },
        _ => Query::EdcaWcStar {
            players: players(rng, 40),
            mode: rng.mode(),
            txop: rng.range(1, 16),
            w_max: 1024,
        },
    }
}

/// The framed request bytes of a seeded stream: each query fresh, or
/// with probability 1/4 a re-ask of one of the last 512.
fn request_stream(seed: u64, frames: usize) -> Vec<u8> {
    let mut rng = Rng(seed);
    let mut queries: Vec<Query> = Vec::with_capacity(frames * FRAME);
    for _ in 0..frames * FRAME {
        let query = if !queries.is_empty() && rng.range(0, 3) == 0 {
            let recent = queries.len().min(512) as u32;
            queries[queries.len() - 1 - rng.range(0, recent - 1) as usize].clone()
        } else {
            fresh(&mut rng)
        };
        queries.push(query);
    }
    queries.chunks(FRAME).flat_map(|frame| ServeHarness::encode_batch(frame).unwrap()).collect()
}

/// The `serve/*` entries, served by a fresh engine with `threads` workers.
fn serve_entries(threads: usize) -> Vec<(String, String)> {
    [(1, 2_100), (7, 2_100), (29, 200)]
        .into_iter()
        .map(|(seed, frames)| {
            let wire = request_stream(seed, frames);
            let engine = Engine::new(EngineConfig { threads, ..EngineConfig::default() }).unwrap();
            let mut replies = Vec::new();
            serve_stream(&engine, &mut wire.as_slice(), &mut replies).unwrap();
            let decoded = ServeHarness::decode_replies(&replies).unwrap();
            let ok = decoded.iter().filter(|r| r.is_ok()).count();
            assert_eq!(
                ok,
                frames * FRAME,
                "seed {seed}: every query in the churn ranges is answered"
            );
            (format!("serve/churn-seed{seed}-{frames}x{FRAME}"), entry(&replies))
        })
        .collect()
}

/// The solver batch's output, as little-endian words.
struct Bits(Vec<u8>);

impl Bits {
    fn word(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn error(&mut self, err: &DcfError) {
        match err {
            DcfError::SolveDidNotConverge { iterations, residual, .. } => {
                self.word(1);
                self.word(*iterations as u64);
                self.word(residual.to_bits());
            }
            other => {
                self.word(2);
                for byte in other.to_string().bytes() {
                    self.word(u64::from(byte));
                }
            }
        }
    }

    fn class(&mut self, solved: &Result<ClassEquilibrium, DcfError>) {
        match solved {
            Ok(eq) => {
                self.word(eq.iterations as u64);
                self.floats(&eq.taus);
                self.floats(&eq.collision_probs);
            }
            Err(err) => self.error(err),
        }
    }

    fn edca(&mut self, solved: &Result<EdcaEquilibrium, DcfError>) {
        match solved {
            Ok(eq) => {
                self.word(eq.iterations as u64);
                self.floats(&eq.taus);
                self.floats(&eq.thinned_taus);
                self.floats(&eq.collision_probs);
                self.word(eq.idle_root.to_bits());
            }
            Err(err) => self.error(err),
        }
    }
}

fn params(m: u32) -> DcfParams {
    DcfParams::builder().max_backoff_stage(m).build().unwrap()
}

/// Default options most of the time; otherwise an undamped map (where the
/// accelerated phase tends to overshoot and fall back), plain damping, or
/// a budget too small to converge.
fn options(rng: &mut Rng) -> SolveOptions {
    let default = SolveOptions::default();
    match rng.below(8) {
        0 => SolveOptions { damping: 1.0, ..default },
        1 => SolveOptions { damping: 0.9, max_iterations: 400, ..default },
        2 => SolveOptions { accelerate: false, damping: 0.3, ..default },
        3 => SolveOptions { max_iterations: 1 + rng.below(12) as usize, ..default },
        _ => default,
    }
}

fn class_profile(rng: &mut Rng) -> Classes<u32> {
    let k = 1 + rng.below(6) as usize;
    let windows: Vec<u32> = (0..k).map(|_| rng.window()).collect();
    let counts: Vec<usize> = (0..k).map(|_| rng.count()).collect();
    Classes::new(windows, counts).unwrap()
}

fn edca_profile(rng: &mut Rng, m: u32) -> Classes<EdcaTuple> {
    let k = 1 + rng.below(5) as usize;
    let tuples: Vec<EdcaTuple> = (0..k)
        .map(|_| {
            let stage_cap = if rng.below(3) == 0 { m } else { rng.below(8) as u32 };
            let aifs = if rng.below(3) == 0 { 0 } else { rng.below(6) as u32 };
            let txop = if rng.below(3) == 0 { 1 } else { 1 + rng.below(4) as u32 };
            EdcaTuple::new(rng.window().min(4096), stage_cap, aifs, txop).unwrap()
        })
        .collect();
    let counts: Vec<usize> = (0..k).map(|_| 1 + rng.below(30) as usize).collect();
    Classes::new(tuples, counts).unwrap()
}

/// The raw output bits, with every iteration count, of a seeded batch:
/// cold and warm-chained class solves (some with options under which
/// Anderson extrapolation falls back to damping, some starved into
/// `SolveDidNotConverge` or through the fallback ladder), EDCA solves with
/// AIFS and TXOP classes, and homogeneous roots. Any change to the
/// floating-point operations of `solve_symmetric`, the class sweep or the
/// EDCA sweep moves them; a pure restructuring of those kernels must not.
fn solver_batch() -> Vec<u8> {
    let mut rng = Rng(0x50_1BE5);
    let mut h = Bits(Vec::new());

    // Cold class solves.
    for _ in 0..300 {
        let p = params(rng.below(8) as u32);
        let opts = options(&mut rng);
        let profile = class_profile(&mut rng);
        h.class(&solve_classes(&profile, &p, opts));
    }

    // Warm chains: the class structure stays, one window moves per step,
    // and each solve starts from the previous one's τ.
    for _ in 0..40 {
        let p = params(rng.below(8) as u32);
        let opts = options(&mut rng);
        let mut windows: Vec<u32> = (0..2 + rng.below(4)).map(|_| rng.window()).collect();
        let counts: Vec<usize> = windows.iter().map(|_| rng.count()).collect();
        let mut guess: Option<Vec<f64>> = None;
        for _ in 0..12 {
            let at = rng.below(windows.len() as u64) as usize;
            windows[at] = (windows[at] + 1 + rng.below(16) as u32).min(1 << 16);
            let Ok(profile) = Classes::new(windows.clone(), counts.clone()) else {
                continue;
            };
            let seed = guess.as_deref().filter(|g| g.len() == profile.num_classes());
            let solved = solve_classes_with_guess(&profile, &p, opts, seed);
            h.class(&solved);
            if let Ok(eq) = solved {
                guess = Some(eq.taus);
            }
        }
    }

    // Node-level warm starts, including guesses outside [0, 1].
    for _ in 0..60 {
        let p = params(rng.below(8) as u32);
        let opts = options(&mut rng);
        let n = 1 + rng.below(12) as usize;
        let windows: Vec<u32> = (0..n).map(|_| rng.window()).collect();
        let guess: Vec<f64> = (0..n).map(|_| (rng.below(1_400) as f64 - 200.0) / 1_000.0).collect();
        match solve_with_guess(&windows, &p, opts, Some(&guess)) {
            Ok(eq) => {
                h.word(eq.iterations as u64);
                h.floats(&eq.taus);
                h.floats(&eq.collision_probs);
            }
            Err(err) => h.error(&err),
        }
    }

    // The fallback ladder, starved so that it reaches the enclosure safe
    // mode.
    for _ in 0..40 {
        let p = params(rng.below(8) as u32);
        let n = 2 + rng.below(8) as usize;
        let windows: Vec<u32> = (0..n).map(|_| rng.window()).collect();
        let starved = SolveOptions { max_iterations: 1, ..SolveOptions::default() };
        match solve_robust(&windows, &p, starved) {
            Ok(robust) => {
                h.word(robust.rung as u64);
                h.word(robust.equilibrium.iterations as u64);
                h.floats(&robust.equilibrium.taus);
                h.floats(&robust.equilibrium.collision_probs);
                for attempt in &robust.attempts {
                    h.word(attempt.iterations as u64);
                    h.word(attempt.residual.to_bits());
                }
            }
            Err(err) => h.error(&err),
        }
    }

    // EDCA solves with AIFS and TXOP classes (and some degenerate ones).
    for _ in 0..200 {
        let m = rng.below(8) as u32;
        let p = params(m);
        let opts = options(&mut rng);
        let profile = edca_profile(&mut rng, m);
        h.edca(&solve_edca(&profile, &p, opts));
    }

    // Homogeneous roots.
    for _ in 0..2_000 {
        let p = params(rng.below(11) as u32);
        let n = match rng.below(4) {
            0 => 1 + rng.below(4) as usize,
            1 => 1 + rng.below(3_000_000) as usize,
            _ => 1 + rng.below(200) as usize,
        };
        let sym = solve_symmetric(n, rng.window(), &p).unwrap();
        h.word(sym.tau.to_bits());
        h.word(sym.collision_prob.to_bits());
    }
    h.0
}

#[test]
fn workspace_bytes_match_the_ledger() {
    let ledger = read_ledger();
    let mut fresh: BTreeMap<String, String> = BTreeMap::new();
    let mut moved: Vec<String> = Vec::new();
    let mut observe = |name: String, value: String, at: &str| {
        if let Some(first) = fresh.get(&name).filter(|first| **first != value) {
            panic!("{name} differs across thread counts: {first}, then {value} at {at}");
        }
        if ledger.get(&name) != Some(&value) && !fresh.contains_key(&name) {
            let old = ledger.get(&name).map_or("none", String::as_str);
            moved.push(format!("{name}: ledger {old}, now {value} ({at})"));
        }
        fresh.insert(name, value);
    };
    observe("dcf/solver-batch".into(), entry(&solver_batch()), "single-threaded");
    for threads in [1, 2] {
        for (name, value) in repro_entries(threads) {
            observe(name, value, &format!("MACGAME_THREADS={threads}"));
        }
        for (name, value) in serve_entries(threads) {
            observe(name, value, &format!("engine threads {threads}"));
        }
    }
    for (name, old) in ledger.iter().filter(|(name, _)| !fresh.contains_key(*name)) {
        moved.push(format!("{name}: ledger {old}, now none"));
    }

    if bless_requested() {
        write_ledger(&fresh);
        for line in &moved {
            println!("CONTRACT.json moved: {line}");
        }
    } else {
        assert!(
            moved.is_empty(),
            "ledger entries moved (re-bless an intended change with scripts/bless.sh):\n{}",
            moved.join("\n")
        );
    }
}
