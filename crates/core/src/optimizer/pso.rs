//! Particle swarm optimization (minimization).
//!
//! The paper's weak-scaling strategy (§VI-D): PSO "requires launching a set
//! of independent executions for the log-likelihood function that allows
//! parallel execution of the MLE operation" — particles evaluate their
//! positions concurrently (fanned across the in-tree work-stealing pool
//! here; independent node groups on Fugaku), synchronize loosely each
//! iteration, and iterate to convergence. Evaluation order never affects
//! results: positions are updated from a sequential RNG after a full
//! synchronization, so 1-thread and N-thread runs are bitwise identical.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;

/// PSO options (standard global-best topology).
#[derive(Clone, Copy, Debug)]
pub struct PsoOptions {
    pub particles: usize,
    pub iterations: usize,
    /// Inertia weight.
    pub inertia: f64,
    /// Cognitive (personal-best) acceleration.
    pub c1: f64,
    /// Social (global-best) acceleration.
    pub c2: f64,
    /// RNG seed (deterministic runs).
    pub seed: u64,
}

impl Default for PsoOptions {
    fn default() -> Self {
        PsoOptions {
            particles: 16,
            iterations: 40,
            inertia: 0.72,
            c1: 1.49,
            c2: 1.49,
            seed: 0xC0FFEE,
        }
    }
}

/// Search outcome.
#[derive(Clone, Debug)]
pub struct PsoResult {
    pub x: Vec<f64>,
    pub f: f64,
    pub evals: usize,
    /// Global-best objective value per iteration (monotone non-increasing).
    pub history: Vec<f64>,
}

/// Minimize `f` over the box `bounds` (per-dimension `(lo, hi)` in the
/// *unconstrained/transformed* space). Each iteration's particles are
/// evaluated in parallel on the current pool (each evaluation may itself
/// be a full tile Cholesky, so this is the paper's "embarrassingly
/// parallel" outer level).
pub fn particle_swarm(
    f: impl Fn(&[f64]) -> f64 + Sync,
    bounds: &[(f64, f64)],
    opts: &PsoOptions,
) -> PsoResult {
    let dim = bounds.len();
    assert!(dim >= 1 && opts.particles >= 2);
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let eval = |x: &[f64]| -> f64 {
        let v = f(x);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };

    // Initialize positions/velocities uniformly in the box.
    let mut pos: Vec<Vec<f64>> = (0..opts.particles)
        .map(|_| {
            bounds
                .iter()
                .map(|&(lo, hi)| rng.random_range(lo..hi))
                .collect()
        })
        .collect();
    let mut vel: Vec<Vec<f64>> = (0..opts.particles)
        .map(|_| {
            bounds
                .iter()
                .map(|&(lo, hi)| rng.random_range(-(hi - lo)..(hi - lo)) * 0.25)
                .collect()
        })
        .collect();

    let mut evals = 0usize;
    let mut fvals: Vec<f64> = pos.par_iter().map(|x| eval(x)).collect();
    evals += opts.particles;

    let mut pbest = pos.clone();
    let mut pbest_f = fvals.clone();
    let (mut gbest_idx, _) = pbest_f
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .unwrap();
    let mut gbest = pbest[gbest_idx].clone();
    let mut gbest_f = pbest_f[gbest_idx];
    let mut history = vec![gbest_f];

    for _iter in 0..opts.iterations {
        // Update velocities and positions (sequential RNG for determinism).
        for p in 0..opts.particles {
            for d in 0..dim {
                let r1: f64 = rng.random_range(0.0..1.0);
                let r2: f64 = rng.random_range(0.0..1.0);
                vel[p][d] = opts.inertia * vel[p][d]
                    + opts.c1 * r1 * (pbest[p][d] - pos[p][d])
                    + opts.c2 * r2 * (gbest[d] - pos[p][d]);
                pos[p][d] = (pos[p][d] + vel[p][d]).clamp(bounds[d].0, bounds[d].1);
            }
        }
        // The "single tightly-connected MLEs ... synchronized in a loose
        // manner at each iteration": all particle evaluations run
        // independently, then the global best is reduced.
        fvals = pos.par_iter().map(|x| eval(x)).collect();
        evals += opts.particles;
        for p in 0..opts.particles {
            if fvals[p] < pbest_f[p] {
                pbest_f[p] = fvals[p];
                pbest[p] = pos[p].clone();
            }
        }
        let (idx, &best) = pbest_f
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        if best < gbest_f {
            gbest_f = best;
            gbest_idx = idx;
            gbest = pbest[gbest_idx].clone();
        }
        history.push(gbest_f);
    }

    PsoResult {
        x: gbest,
        f: gbest_f,
        evals,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_sphere() {
        let bounds = vec![(-5.0, 5.0); 3];
        let r = particle_swarm(
            |x| x.iter().map(|v| v * v).sum(),
            &bounds,
            &PsoOptions {
                iterations: 120,
                ..Default::default()
            },
        );
        assert!(r.f < 1e-3, "f = {}", r.f);
        for xi in &r.x {
            assert!(xi.abs() < 0.1);
        }
    }

    #[test]
    fn history_is_monotone_non_increasing() {
        let bounds = vec![(-2.0, 2.0); 2];
        let r = particle_swarm(
            |x| (x[0] - 1.0).powi(2) + 10.0 * (x[1] + 0.5).powi(2),
            &bounds,
            &PsoOptions::default(),
        );
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let bounds = vec![(-1.0, 1.0); 2];
        let obj = |x: &[f64]| (x[0] * x[0] + x[1] * x[1] - 0.3f64).abs();
        let a = particle_swarm(obj, &bounds, &PsoOptions::default());
        let b = particle_swarm(obj, &bounds, &PsoOptions::default());
        assert_eq!(a.x, b.x);
        assert_eq!(a.f, b.f);
    }

    #[test]
    fn parallel_matches_sequential_given_same_seed() {
        // Objective is pure, so parallel evaluation must not change the
        // trajectory (RNG draws happen sequentially either way): a 1-thread
        // pool is the sequential reference.
        let bounds = vec![(-3.0, 3.0); 2];
        let obj = |x: &[f64]| (x[0] - 0.7).powi(2) + (x[1] - 0.2).powi(2);
        let seq = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| particle_swarm(obj, &bounds, &PsoOptions::default()));
        let par = particle_swarm(obj, &bounds, &PsoOptions::default());
        assert_eq!(seq.x, par.x);
    }

    #[test]
    fn stays_within_bounds() {
        let bounds = vec![(0.5, 1.5), (-0.1, 0.1)];
        let r = particle_swarm(|x| -x[0] - x[1], &bounds, &PsoOptions::default());
        assert!(r.x[0] <= 1.5 + 1e-12 && r.x[0] >= 0.5 - 1e-12);
        assert!(r.x[1] <= 0.1 + 1e-12 && r.x[1] >= -0.1 - 1e-12);
        // Optimum is the upper corner.
        assert!((r.x[0] - 1.5).abs() < 1e-6 && (r.x[1] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn infinite_regions_are_escaped() {
        let bounds = vec![(-4.0, 4.0); 2];
        let r = particle_swarm(
            |x| {
                if x[0] < -1.0 {
                    f64::INFINITY
                } else {
                    (x[0] - 2.0).powi(2) + x[1] * x[1]
                }
            },
            &bounds,
            &PsoOptions {
                iterations: 80,
                ..Default::default()
            },
        );
        assert!(r.f < 1e-2, "f = {}", r.f);
    }
}
