//! One digest over the raw output bits of the solver kernels.
//!
//! A seeded batch of cold and warm-chained class solves (some with options
//! under which Anderson extrapolation falls back to damping, some starved
//! into `SolveDidNotConverge` or through the fallback ladder), EDCA solves with AIFS and TXOP classes, and
//! homogeneous roots is folded, bit by bit and with every iteration count,
//! into one FNV-1a hash. Any change to the floating-point operations of
//! `solve_symmetric`, the class sweep or the EDCA sweep moves the digest;
//! a pure restructuring of those kernels must leave it alone.

use macgame_dcf::edca::{solve_edca, EdcaEquilibrium, EdcaTuple};
use macgame_dcf::fixedpoint::{
    solve_classes, solve_classes_with_guess, solve_robust, solve_symmetric, solve_with_guess,
    SolveOptions,
};
use macgame_dcf::{ClassEquilibrium, Classes, DcfError, DcfParams};

/// The digest of the batch below.
const DIGEST: u64 = 0xd317_c7d8_f5cd_8ea8;

/// splitmix64, as in `exact_kernels.rs`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, k: u64) -> u64 {
        self.next() % k
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

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
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

fn batch_digest() -> u64 {
    let mut rng = Rng(0x50_1BE5);
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);

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
fn solver_outputs_match_the_pinned_digest() {
    let digest = batch_digest();
    assert_eq!(digest, DIGEST, "solver output bits moved: digest {digest:#018x}");
}
