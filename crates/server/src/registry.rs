//! Registry of fitted models with cached Cholesky factors.
//!
//! The expensive part of kriging is the O(n³) factorization of Σ(θ); the
//! per-query work is only triangular solves and cross-covariance dot
//! products against the cached factor. The registry holds one
//! [`PredictionPlan`] per model name — factor, solved weights, kernel and
//! training locations — and bounds its residency two ways:
//!
//! * **capacity** — at most `capacity` plans stay cached; inserting past
//!   it evicts the least-recently-used entry (every `get` is a "use");
//! * **TTL** — entries idle longer than `ttl` are purged on the next
//!   registry operation.
//!
//! Eviction only drops the registry's own `Arc`: plans held by in-flight
//! requests (the batch queue clones the `Arc` at accept time) stay alive
//! and keep answering until the last reference drops — eviction can never
//! yank a factor out from under a running solve.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use xgs_core::{log_likelihood_engine, FactorEngine, ModelFamily, PredictionPlan};
use xgs_covariance::Location;
use xgs_tile::{FlopKernelModel, TlrConfig, Variant};

use crate::protocol::LoadRequest;

struct Entry {
    plan: Arc<PredictionPlan>,
    /// Last time a lookup touched this entry (LRU + TTL clock).
    last_used: Instant,
}

/// Shared, concurrently usable model store with LRU + TTL eviction.
pub struct ModelRegistry {
    models: Mutex<HashMap<String, Entry>>,
    /// Maximum resident plans (≥ 1).
    capacity: usize,
    /// Idle time after which an entry is purged (None = never).
    ttl: Option<Duration>,
    evictions: AtomicU64,
}

impl Default for ModelRegistry {
    fn default() -> ModelRegistry {
        ModelRegistry::new()
    }
}

impl ModelRegistry {
    /// Unbounded registry (no capacity limit, no TTL).
    pub fn new() -> ModelRegistry {
        ModelRegistry::with_limits(usize::MAX, None)
    }

    /// Registry that keeps at most `capacity` plans, purging entries idle
    /// longer than `ttl`.
    pub fn with_limits(capacity: usize, ttl: Option<Duration>) -> ModelRegistry {
        ModelRegistry {
            models: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            ttl,
            evictions: AtomicU64::new(0),
        }
    }

    /// Drop entries idle past the TTL. Caller holds the lock.
    fn sweep(&self, models: &mut HashMap<String, Entry>) {
        let Some(ttl) = self.ttl else { return };
        let now = Instant::now();
        let before = models.len();
        models.retain(|_, e| now.duration_since(e.last_used) < ttl);
        self.evictions
            .fetch_add((before - models.len()) as u64, Ordering::Relaxed);
    }

    /// Insert (or replace) a model under `name`, evicting the
    /// least-recently-used entry if the registry is at capacity.
    pub fn insert(&self, name: &str, plan: Arc<PredictionPlan>) {
        let mut models = self.models.lock();
        self.sweep(&mut models);
        if models.len() >= self.capacity && !models.contains_key(name) {
            // Linear LRU scan: the registry holds a handful of plans (each
            // is an O(n²) factor), never enough to warrant an ordered map.
            if let Some(lru) = models
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                models.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        models.insert(
            name.to_string(),
            Entry {
                plan,
                last_used: Instant::now(),
            },
        );
    }

    /// Shared handle to a cached plan; refreshes its LRU/TTL clock.
    pub fn get(&self, name: &str) -> Option<Arc<PredictionPlan>> {
        let mut models = self.models.lock();
        self.sweep(&mut models);
        let e = models.get_mut(name)?;
        e.last_used = Instant::now();
        Some(e.plan.clone())
    }

    /// `(name, n_train)` pairs, sorted by name.
    pub fn list(&self) -> Vec<(String, usize)> {
        let mut models = self.models.lock();
        self.sweep(&mut models);
        let mut out: Vec<(String, usize)> = models
            .iter()
            .map(|(k, e)| (k.clone(), e.plan.n_train()))
            .collect();
        drop(models);
        out.sort();
        out
    }

    /// Total entries evicted so far (LRU + TTL).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.models.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.models.lock().is_empty()
    }
}

/// Factorize Σ(θ) for a dataset and wrap everything a query needs into a
/// cached [`PredictionPlan`]. Returns the plan and the log-likelihood at θ
/// (a cheap by-product of the factorization, reported to the client as a
/// sanity check on the loaded model). `workers = 0` lets the runtime pick.
pub fn build_plan(
    family: ModelFamily,
    theta: &[f64],
    variant: Variant,
    tile: usize,
    locs: Vec<Location>,
    z: &[f64],
    workers: usize,
) -> Result<(Arc<PredictionPlan>, f64), String> {
    build_plan_engine(
        family,
        theta,
        variant,
        tile,
        locs,
        z,
        &FactorEngine::from_workers(workers),
    )
}

/// [`build_plan`] on an explicit [`FactorEngine`] — the sharded engine fans
/// the factorization out to worker processes. Any engine failure
/// (indefinite Σ, lost worker, deadline) maps to an `Err(String)` so the
/// caller answers `ok:false` and never caches a half-built plan.
pub fn build_plan_engine(
    family: ModelFamily,
    theta: &[f64],
    variant: Variant,
    tile: usize,
    locs: Vec<Location>,
    z: &[f64],
    engine: &FactorEngine,
) -> Result<(Arc<PredictionPlan>, f64), String> {
    family
        .check_domain(theta)
        .map_err(|e| format!("theta {e}"))?;
    let n = locs.len();
    let nb = if tile == 0 {
        (n / 10).clamp(32, 512)
    } else {
        tile
    };
    let cfg = TlrConfig::new(variant, nb);
    let model = FlopKernelModel::default();
    let kernel: Arc<dyn xgs_covariance::CovarianceKernel> = Arc::from(family.kernel(theta));
    let rep = log_likelihood_engine(kernel.as_ref(), &locs, z, &cfg, &model, engine)
        .map_err(|e| format!("factorization failed: {e}"))?;
    let plan = PredictionPlan::new(kernel, Arc::from(locs), z, rep.factor);
    Ok((Arc::new(plan), rep.llh))
}

/// [`build_plan_engine`] from a wire-level [`LoadRequest`].
pub fn build_plan_from_request(
    req: &LoadRequest,
    engine: &FactorEngine,
) -> Result<(Arc<PredictionPlan>, f64), String> {
    build_plan_engine(
        req.family,
        &req.theta,
        req.variant,
        req.tile,
        req.locs.clone(),
        &req.z,
        engine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_core::simulate_field;
    use xgs_covariance::jittered_grid;

    fn small_plan(seed: u64) -> Arc<PredictionPlan> {
        let mut rng = StdRng::seed_from_u64(seed);
        let locs = jittered_grid(60, &mut rng);
        let kernel = ModelFamily::MaternSpace.kernel(&[1.0, 0.1, 0.5]);
        let z = simulate_field(kernel.as_ref(), &locs, seed + 1);
        build_plan(
            ModelFamily::MaternSpace,
            &[1.0, 0.1, 0.5],
            Variant::DenseF64,
            30,
            locs,
            &z,
            1,
        )
        .unwrap()
        .0
    }

    #[test]
    fn registry_builds_caches_and_lists_models() {
        let mut rng = StdRng::seed_from_u64(11);
        let locs = jittered_grid(120, &mut rng);
        let kernel = ModelFamily::MaternSpace.kernel(&[1.0, 0.1, 0.5]);
        let z = simulate_field(kernel.as_ref(), &locs, 12);

        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let (plan, llh) = build_plan(
            ModelFamily::MaternSpace,
            &[1.0, 0.1, 0.5],
            Variant::MpDense,
            40,
            locs.clone(),
            &z,
            1,
        )
        .unwrap();
        assert!(llh.is_finite());
        reg.insert("soil", plan.clone());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get("soil").unwrap().n_train(), 120);
        assert!(reg.get("missing").is_none());
        assert_eq!(reg.list(), vec![("soil".to_string(), 120)]);
        assert_eq!(reg.evictions(), 0);

        // Self-prediction through the cached plan interpolates exactly.
        let pred = plan.query(&locs[..10], false);
        for (p, t) in pred.mean.iter().zip(&z[..10]) {
            assert!((p - t).abs() < 1e-6, "{p} vs {t}");
        }

        // Bad theta arity is a clean error.
        assert!(build_plan(
            ModelFamily::MaternSpace,
            &[1.0],
            Variant::MpDense,
            40,
            locs,
            &z,
            1
        )
        .is_err());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let reg = ModelRegistry::with_limits(2, None);
        reg.insert("a", small_plan(1));
        std::thread::sleep(Duration::from_millis(2));
        reg.insert("b", small_plan(2));
        std::thread::sleep(Duration::from_millis(2));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(reg.get("a").is_some());
        std::thread::sleep(Duration::from_millis(2));
        reg.insert("c", small_plan(3));
        assert_eq!(reg.len(), 2);
        assert!(reg.get("b").is_none(), "LRU entry evicted");
        assert!(reg.get("a").is_some() && reg.get("c").is_some());
        assert_eq!(reg.evictions(), 1);

        // Replacing an existing key at capacity evicts nothing.
        reg.insert("c", small_plan(4));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.evictions(), 1);
    }

    #[test]
    fn ttl_purges_idle_entries_but_pins_live_arcs() {
        let reg = ModelRegistry::with_limits(usize::MAX, Some(Duration::from_millis(30)));
        let plan = small_plan(7);
        reg.insert("m", plan.clone());
        // A handle cloned before expiry (an "in-flight request")…
        let pinned = reg.get("m").unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert!(reg.get("m").is_none(), "idle entry expired");
        assert_eq!(reg.len(), 0);
        assert!(reg.evictions() >= 1);
        // …still answers queries after eviction: the registry only dropped
        // its own Arc.
        let q = pinned.query(&[Location::new(0.4, 0.6)], false);
        assert!(q.mean[0].is_finite());
        drop(plan);
    }
}
