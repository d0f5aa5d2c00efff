//! Every input of a run, made from `--seed` and nothing else.
//!
//! The program under test only ever sees what this module returns: sites,
//! observations, prediction targets, the θ-trajectory and the request
//! pool. Two runs with the same seed get identical inputs.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use xgs_core::simulate_field;
use xgs_covariance::{jittered_grid, morton_order, Location, Matern, MaternParams};

/// Matérn (σ², β, ν) the `field` and `reload` data are drawn from: the
/// paper's Table I soil-moisture estimate. ν = 0.44 keeps the Bessel-K
/// evaluation on its general path (ν = 0.5 would take the closed form).
pub const TRUTH: [f64; 3] = [0.67, 0.17, 0.44];
/// Side of the square the `field`/`reload` sites and the targets live on.
pub const DOMAIN: f64 = 14.0;
/// `field`: n = 1600 at tile 100 keeps the paper-shaped 16 x 16 tile grid
/// (136 stored tiles, 816 tasks) while one dense evaluation costs ~0.3 s,
/// so a 14 s run still holds enough evaluations for a stable median.
pub const FIELD_N: usize = 1600;
pub const FIELD_TILE: usize = 100;
pub const SMALL_N: usize = 400;
pub const SMALL_TILE: usize = 100;
pub const SMALL_THETA: [f64; 3] = [1.0, 0.1, 0.5];
pub const RELOAD_N: usize = 800;
pub const RELOAD_TILE: usize = 100;
/// Bulk prediction targets and the chunk one `krige` call takes.
pub const TARGETS: usize = 6000;
pub const CHUNK: usize = 500;
/// A *heavy* request asks for this many points with uncertainty on
/// `field`; a *light* one for a single mean — on `small` when it goes
/// through the server, so that the frontend and not the kernel is most of
/// its cost, and on `field` when it is a direct call, where a 7 µs query
/// of `small` would measure nothing but timer and cache noise.
pub const HEAVY_POINTS: usize = 8;
/// The request pool is this many blocks of 14 light : 1 heavy.
pub const POOL_BLOCKS: usize = 32;
pub const BLOCK: usize = 15;

pub fn matern(theta: [f64; 3]) -> Matern {
    Matern::new(MaternParams::new(theta[0], theta[1], theta[2]))
}

/// Training data of one model.
pub struct Dataset {
    pub locs: Vec<Location>,
    pub z: Vec<f64>,
    pub tile: usize,
}

impl Dataset {
    /// Sites on `[0, domain]²` in Morton order and one field drawn at `theta`.
    fn generate(n: usize, domain: f64, theta: [f64; 3], tile: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut locs = jittered_grid(n, &mut rng);
        for l in &mut locs {
            l.x *= domain;
            l.y *= domain;
        }
        morton_order(&mut locs);
        let z = simulate_field(&matern(theta), &locs, rng.next_u64());
        Dataset { locs, z, tile }
    }
}

/// One prediction request of the interactive stream.
pub struct Request {
    pub heavy: bool,
    /// Name of the registry model the request is for.
    pub model: &'static str,
    pub points: Vec<Location>,
}

pub struct Inputs {
    pub field: Dataset,
    pub small: Dataset,
    pub reload: Dataset,
    pub targets: Vec<Location>,
    /// Stand-in for optimizer steps: θ near the truth. Ranks and precision
    /// decisions depend on θ, so the list is part of the workload.
    pub thetas: Vec<[f64; 3]>,
    /// 14 light : 1 heavy, the heavy one at a seeded place in each block.
    pub pool: Vec<Request>,
}

/// Relative steps of the θ-trajectory, within ±10 %. Every seed uses the
/// same four factors per parameter and only permutes which step gets
/// which, so runs on different seeds do comparable work.
const STEPS: [f64; 4] = [0.92, 0.97, 1.03, 1.08];

fn uniform_points(rng: &mut StdRng, n: usize, domain: f64) -> Vec<Location> {
    (0..n)
        .map(|_| Location::new(rng.random_range(0.0..domain), rng.random_range(0.0..domain)))
        .collect()
}

fn shuffled_steps(rng: &mut StdRng) -> [f64; 4] {
    let mut s = STEPS;
    for i in (1..s.len()).rev() {
        s.swap(i, rng.random_range(0..i + 1));
    }
    s
}

impl Inputs {
    pub fn generate(seed: u64, light_on_small: bool) -> Inputs {
        let mut master = StdRng::seed_from_u64(seed);
        let field = Dataset::generate(FIELD_N, DOMAIN, TRUTH, FIELD_TILE, master.next_u64());
        let small = Dataset::generate(SMALL_N, 1.0, SMALL_THETA, SMALL_TILE, master.next_u64());
        let reload = Dataset::generate(RELOAD_N, DOMAIN, TRUTH, RELOAD_TILE, master.next_u64());
        let mut rng = StdRng::seed_from_u64(master.next_u64());
        let targets = uniform_points(&mut rng, TARGETS, DOMAIN);
        let (s, b, v) = (
            shuffled_steps(&mut rng),
            shuffled_steps(&mut rng),
            shuffled_steps(&mut rng),
        );
        let thetas = (0..STEPS.len())
            .map(|k| [TRUTH[0] * s[k], TRUTH[1] * b[k], TRUTH[2] * v[k]])
            .collect();
        let mut pool = Vec::with_capacity(POOL_BLOCKS * BLOCK);
        for _ in 0..POOL_BLOCKS {
            let heavy_at = rng.random_range(0..BLOCK);
            for slot in 0..BLOCK {
                let heavy = slot == heavy_at;
                let (model, count, domain) = match (heavy, light_on_small) {
                    (true, _) => ("field", HEAVY_POINTS, DOMAIN),
                    (false, true) => ("small", 1, 1.0),
                    (false, false) => ("field", 1, DOMAIN),
                };
                let points = uniform_points(&mut rng, count, domain);
                pool.push(Request {
                    heavy,
                    model,
                    points,
                });
            }
        }
        Inputs {
            field,
            small,
            reload,
            targets,
            thetas,
            pool,
        }
    }
}
