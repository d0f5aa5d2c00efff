//! Property test: the server's frontend is observationally equivalent to
//! calling the model directly. For random batches of id-tagged predict
//! requests, pipelined in a random interleaving over one connection, the
//! server must answer every id exactly once, and per-id payloads (mean
//! and uncertainty vectors) must be **bitwise** what a direct
//! [`PredictionPlan::query`] on the same plan returns — the wire, the
//! batching and out-of-order completion never change results.
//!
//! A second server runs with a one-point queue budget, so shedding is
//! exercised: which ids get shed is timing-dependent, but every id is
//! still answered exactly once, shed responses always carry a
//! `retry_after_ms` hint, and ids that succeed still equal the direct
//! answer bit for bit.
//!
//! A last case pins the coalesced flush: a burst of `ping`s written in
//! one `write_all` comes back as that many distinct ids.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};

use exageostat_rs::prelude::*;
use exageostat_rs::server::build_plan;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xgs_runtime::parse_json;

/// Two servers over ONE plan, which is also the oracle: any payload
/// difference is the server's fault, not the model's.
struct Servers {
    plan: Arc<PredictionPlan>,
    plain: SocketAddr,
    shedding: SocketAddr,
}

static SERVERS: OnceLock<Servers> = OnceLock::new();

fn servers() -> &'static Servers {
    SERVERS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(505);
        let locs = jittered_grid(60, &mut rng);
        let kernel = ModelFamily::MaternSpace.kernel(&[1.0, 0.1, 0.5]);
        let z = simulate_field(kernel.as_ref(), &locs, 506);
        let (plan, _) = build_plan(
            ModelFamily::MaternSpace,
            &[1.0, 0.1, 0.5],
            Variant::MpDense,
            24,
            locs,
            &z,
            1,
        )
        .unwrap();
        let registry = Arc::new(ModelRegistry::new());
        registry.insert("default", plan.clone());

        let start = |max_queued_points: usize| -> SocketAddr {
            let cfg = ServerConfig {
                max_queued_points,
                ..ServerConfig::default()
            };
            let handle = serve(&cfg, registry.clone()).expect("bind loopback");
            let addr = handle.addr();
            // The servers live for the whole test process; the process
            // exit reaps their threads.
            std::mem::forget(handle);
            addr
        };
        Servers {
            plan,
            plain: start(ServerConfig::default().max_queued_points),
            shedding: start(1),
        }
    })
}

/// What a direct query of the plan answers for one request.
fn direct(plan: &PredictionPlan, points: &[(f64, f64)]) -> Outcome {
    let locs: Vec<Location> = points.iter().map(|&(x, y)| Location::new(x, y)).collect();
    let result = plan.query(&locs, true);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    Outcome::Ok {
        mean: bits(&result.mean),
        uncertainty: bits(result.uncertainty.as_deref().expect("asked for")),
    }
}

/// One answered request: `Ok` carries the IEEE bit patterns of the mean
/// and uncertainty vectors; `Shed` is a refusal with a retry hint.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Ok {
        mean: Vec<u64>,
        uncertainty: Vec<u64>,
    },
    Shed,
}

/// Pipeline `requests` (shuffled by `order_seed`) over one connection and
/// collect every id's outcome. Panics on transport errors, duplicate or
/// missing ids, or an unclassifiable response — all property violations.
fn run_interleaving(
    addr: SocketAddr,
    requests: &[Vec<(f64, f64)>],
    order_seed: u64,
) -> Vec<Outcome> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    let mut rng = StdRng::seed_from_u64(order_seed);
    // Fisher–Yates: a uniformly random interleaving of the pipeline.
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..(i + 1)));
    }

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for &id in &order {
        let pts: Vec<String> = requests[id]
            .iter()
            .map(|(x, y)| format!("[{x},{y}]"))
            .collect();
        let req = format!(
            "{{\"op\":\"predict\",\"id\":{id},\"points\":[{}],\"uncertainty\":true}}\n",
            pts.join(",")
        );
        stream.write_all(req.as_bytes()).unwrap();
    }

    let mut outcomes: Vec<Option<Outcome>> = (0..requests.len()).map(|_| None).collect();
    for _ in 0..requests.len() {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
        let v = parse_json(&line).unwrap();
        let id = v.get("id").unwrap().as_usize().unwrap();
        let outcome = if v.get("ok").unwrap().as_bool() == Some(true) {
            let bits = |field: &str| -> Vec<u64> {
                v.get(field)
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|x| x.as_f64().unwrap().to_bits())
                    .collect()
            };
            Outcome::Ok {
                mean: bits("mean"),
                uncertainty: bits("uncertainty"),
            }
        } else {
            assert!(
                v.get("retry_after_ms").and_then(|h| h.as_usize()).is_some(),
                "refusal without retry hint: {line}"
            );
            Outcome::Shed
        };
        assert!(
            outcomes[id].replace(outcome).is_none(),
            "duplicate response for id {id}"
        );
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every id answered exactly once"))
        .collect()
}

/// Longest request batch a case can draw.
const MAX_REQUESTS: usize = 12;
/// Most points one predict can carry.
const MAX_POINTS: usize = 3;

/// Slice a flat coordinate pool into `n` requests of `sizes[i]` points
/// each (the vendored proptest shim has fixed-count `vec` only, so
/// variable shapes are carved out of fixed-size draws).
fn carve_requests(n: usize, sizes: &[usize], coords: &[f64]) -> Vec<Vec<(f64, f64)>> {
    let mut pool = coords.iter().copied();
    (0..n)
        .map(|i| {
            (0..sizes[i])
                .map(|_| {
                    let x = pool.next().expect("coordinate pool sized for the maximum");
                    let y = pool.next().expect("coordinate pool sized for the maximum");
                    (x, y)
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn frontends_agree_bitwise_for_any_interleaving(
        n in 1usize..MAX_REQUESTS + 1,
        sizes in proptest::collection::vec(1usize..MAX_POINTS + 1, MAX_REQUESTS),
        coords in proptest::collection::vec(0.0f64..1.0, 2 * MAX_REQUESTS * MAX_POINTS),
        seed_a in 0u64..u64::MAX,
        seed_b in 0u64..u64::MAX,
    ) {
        let requests = carve_requests(n, &sizes, &coords);
        let s = servers();
        // Two interleavings of the same requests: no shedding under the
        // default budget, so every id succeeds either way, and the
        // payloads equal the direct answer to the last bit.
        for seed in [seed_a, seed_b] {
            let served = run_interleaving(s.plain, &requests, seed);
            for (id, got) in served.iter().enumerate() {
                prop_assert!(*got == direct(&s.plan, &requests[id]), "id {} differs", id);
            }
        }
    }

    #[test]
    fn frontends_agree_under_shedding(
        n in 1usize..MAX_REQUESTS + 1,
        sizes in proptest::collection::vec(1usize..MAX_POINTS + 1, MAX_REQUESTS),
        coords in proptest::collection::vec(0.0f64..1.0, 2 * MAX_REQUESTS * MAX_POINTS),
        seed_a in 0u64..u64::MAX,
        seed_b in 0u64..u64::MAX,
    ) {
        let requests = carve_requests(n, &sizes, &coords);
        let s = servers();
        for seed in [seed_a, seed_b] {
            // run_interleaving already asserts the core liveness
            // property: every id answered exactly once, shed (with a
            // retry hint) or not.
            let served = run_interleaving(s.shedding, &requests, seed);
            for (id, got) in served.iter().enumerate() {
                // WHICH ids are shed is timing-dependent, but an id that
                // succeeds must equal the direct answer bitwise.
                if matches!(got, Outcome::Ok { .. }) {
                    prop_assert!(*got == direct(&s.plan, &requests[id]), "id {} differs", id);
                }
            }
        }
    }
}

/// The event loop flushes a connection once per drain, however many
/// replies the drain holds for it: 512 `ping`s that arrive in one
/// `write_all` come back as 512 lines with 512 distinct ids.
#[test]
fn a_burst_of_pings_in_one_write_is_answered_id_for_id() {
    const BURST: usize = 512;
    let mut stream = TcpStream::connect(servers().plain).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let burst: String = (0..BURST)
        .map(|id| format!("{{\"op\":\"ping\",\"id\":{id}}}\n"))
        .collect();
    stream.write_all(burst.as_bytes()).unwrap();
    let mut seen = vec![false; BURST];
    for _ in 0..BURST {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{line}");
        let id = v.get("id").unwrap().as_usize().unwrap();
        assert!(!seen[id], "duplicate response for id {id}");
        seen[id] = true;
    }
    assert!(seen.iter().all(|&s| s), "every ping answered");
}
