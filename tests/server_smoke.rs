//! End-to-end smoke test of the prediction service: an in-process server
//! on a loopback port, hammered by the load generator. Mirrors the CI
//! smoke step (which drives `exageostat serve` and `exageostat loadgen`
//! over a real process boundary) so the same guarantees are checked in
//! `cargo test` without process management:
//!
//! - a few hundred concurrent requests complete with zero errors;
//! - two identical-seed runs produce identical checksums even though the
//!   server batches them differently (batching never changes results);
//! - shutdown drains cleanly and the exported metrics census accounts for
//!   every request.

use std::sync::Arc;
use std::time::Duration;

use exageostat_rs::prelude::*;
use exageostat_rs::server::{build_plan, loadgen};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn serve_loadgen_drain() {
    // One fitted model: 200 sites, mixed-precision factor.
    let mut rng = StdRng::seed_from_u64(99);
    let mut locs = jittered_grid(200, &mut rng);
    morton_order(&mut locs);
    let kernel = ModelFamily::MaternSpace.kernel(&[1.0, 0.1, 0.5]);
    let z = simulate_field(kernel.as_ref(), &locs, 99);
    let (plan, llh) = build_plan(
        ModelFamily::MaternSpace,
        &[1.0, 0.1, 0.5],
        Variant::MpDense,
        50,
        locs,
        &z,
        2,
    )
    .unwrap();
    assert!(llh.is_finite());

    let registry = Arc::new(ModelRegistry::new());
    registry.insert("default", plan);
    let handle = serve(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            solvers: 3,
            max_batch_points: 64,
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("bind loopback");
    let addr = handle.addr().to_string();

    let cfg = LoadgenConfig {
        addr: addr.clone(),
        requests: 150,
        conns: 6,
        points: 5,
        uncertainty: true,
        seed: 42,
        connect_timeout: Duration::from_secs(5),
        ..LoadgenConfig::default()
    };
    let first = loadgen::run(&cfg).expect("first run");
    assert_eq!(first.errors, 0, "{}", first.summary());
    assert_eq!(first.sent, 150);
    assert!(first.throughput > 0.0);
    assert!(first.server_metrics.is_some(), "metrics fetch failed");

    // Same seed, same split — the request set is identical, but thread
    // scheduling coalesces it into different batches each run, and this
    // run additionally pipelines 5 requests per connection so the server
    // answers out of order; every answer must still be bit-equal for the
    // XOR-folded checksums to match. (The per-connection RNG streams
    // depend on `conns`, so that knob must stay fixed across the runs.)
    let second = loadgen::run(&LoadgenConfig {
        shutdown: true,
        concurrency_per_conn: 5,
        ..cfg
    })
    .expect("second run");
    assert_eq!(second.errors, 0, "{}", second.summary());
    assert_eq!(
        first.checksum, second.checksum,
        "batching changed results: {:016x} vs {:016x}",
        first.checksum, second.checksum
    );

    // The shutdown op drains in-flight batches; join returns the final
    // census. Every accepted request must be accounted for: 300 predicts
    // plus the control traffic (metrics fetches and the shutdown op).
    let report = handle.join();
    assert!(
        (300..=310).contains(&report.tasks),
        "request census: {}",
        report.tasks
    );
    let kinds: Vec<&str> = report.kernels.iter().map(|k| k.kind).collect();
    for kind in ["request", "solve", "batch_size"] {
        assert!(kinds.contains(&kind), "missing kernel {kind} in {kinds:?}");
    }
    let solves = report
        .kernels
        .iter()
        .find(|k| k.kind == "solve")
        .unwrap()
        .count;
    assert!(
        solves <= 300,
        "batching ran more solves ({solves}) than requests"
    );
    // batch_size records points·1e-6 "seconds" once per batch, so the
    // kernel's total recovers the exact point census: 300 predicts × 5.
    let batch = report
        .kernels
        .iter()
        .find(|k| k.kind == "batch_size")
        .unwrap();
    assert_eq!((batch.total_seconds * 1e6).round() as usize, 1500);
    assert_eq!(batch.count, solves, "one size sample per batch");

    // Clean shutdown: the port is no longer accepting.
    assert!(loadgen::connect_with_retry(&addr, Duration::from_millis(200)).is_err());
}
