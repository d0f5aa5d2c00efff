//! Wire protocol of the prediction service.
//!
//! Newline-delimited JSON over TCP: each request is one JSON object on one
//! line, each response is one JSON object on one line. The grammar is
//! documented in the repository README ("Prediction service protocol").
//! Requests are read and every [`Response`] is written with
//! [`xgs_runtime::json`], so the server stays dependency-free.
//!
//! Requests may carry an optional client-assigned `"id"` (string or finite
//! number) that is echoed as the first member of the matching response. Because the
//! server answers a connection's requests out of order (`predict` runs on
//! the solver pool while `ping`/`metrics` are answered inline), a client
//! that pipelines more than one request at a time must tag them with ids
//! to correlate the responses. `predict` additionally accepts
//! `"deadline_ms"`: a per-request time budget after which the server
//! answers with a timeout error instead of running the solve.

use crate::server::MAX_TILES_PER_SIDE;
use std::collections::BTreeMap;
use xgs_core::ModelFamily;
use xgs_covariance::Location;
use xgs_runtime::json::Writer;
use xgs_runtime::{parse_json, JsonValue, MetricsReport};
use xgs_tile::Variant;

/// Hard cap on the serialized length of a client-assigned `id` (the server
/// echoes ids verbatim, so unbounded ids would let a client inflate every
/// response).
pub const MAX_ID_LEN: usize = 256;

/// One parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// List loaded models.
    Models,
    /// Export the server's metrics report.
    Metrics,
    /// Drain in-flight work and stop the server.
    Shutdown,
    /// Fit-free model ingestion: factorize and cache a new model.
    Load(LoadRequest),
    /// Kriging query against a cached model.
    Predict(PredictRequest),
}

/// A parsed request plus its correlation id, echoed as is.
#[derive(Debug)]
pub struct Envelope {
    pub id: Option<JsonValue>,
    pub req: Request,
}

/// A request that failed to parse; carries the id (when one was readable)
/// so even error responses stay correlatable on a multiplexed connection.
#[derive(Debug)]
pub struct ParseFailure {
    pub id: Option<JsonValue>,
    pub error: String,
}

/// `{"op":"load", ...}` payload.
#[derive(Debug)]
pub struct LoadRequest {
    pub name: String,
    pub family: ModelFamily,
    pub theta: Vec<f64>,
    pub variant: Variant,
    /// Tile size; 0 picks [`xgs_tile::TlrConfig::default_tile_size`], as
    /// the CLI does.
    pub tile: usize,
    pub locs: Vec<Location>,
    pub z: Vec<f64>,
}

/// `{"op":"predict", ...}` payload.
#[derive(Debug)]
pub struct PredictRequest {
    pub model: String,
    pub points: Vec<Location>,
    pub uncertainty: bool,
    /// Per-request time budget, milliseconds (None = no deadline).
    pub deadline_ms: Option<u64>,
}

/// A finite `f64` or a client-facing error naming the offending field —
/// non-finite coordinates/values must never reach a solve (a single NaN
/// poisons the whole batched multi-RHS solve it rides in).
fn finite(x: f64, what: &str) -> Result<f64, String> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(format!("'{what}' contains a non-finite number"))
    }
}

fn parse_points(v: &JsonValue, what: &str) -> Result<Vec<Location>, String> {
    let arr = v.as_array().ok_or(format!("'{what}' must be an array"))?;
    let mut out = Vec::with_capacity(arr.len());
    for p in arr {
        let coords = p.as_array().ok_or("each point must be [x,y] or [x,y,t]")?;
        let c: Vec<f64> = coords
            .iter()
            .map(|x| {
                x.as_f64()
                    .ok_or("point coordinates must be numbers".to_string())
                    .and_then(|x| finite(x, what))
            })
            .collect::<Result<_, _>>()?;
        match c.len() {
            2 => out.push(Location::new(c[0], c[1])),
            3 => out.push(Location::new_st(c[0], c[1], c[2])),
            n => return Err(format!("point has {n} coordinates (want 2 or 3)")),
        }
    }
    Ok(out)
}

fn parse_f64_list(v: &JsonValue, what: &str) -> Result<Vec<f64>, String> {
    v.as_array()
        .ok_or(format!("'{what}' must be an array of numbers"))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or(format!("'{what}' must contain only numbers"))
                .and_then(|x| finite(x, what))
        })
        .collect()
}

/// A request's `"id"` member, to echo. Only strings and finite numbers
/// are accepted as ids, at most [`MAX_ID_LEN`] bytes as written.
fn parse_id(obj: &BTreeMap<String, JsonValue>) -> Result<Option<JsonValue>, String> {
    let Some(id) = obj.get("id") else {
        return Ok(None);
    };
    match id {
        JsonValue::String(_) => {}
        JsonValue::Number(n) if n.is_finite() => {}
        _ => return Err("'id' must be a string or a finite number".to_string()),
    }
    if id.to_json_string().len() > MAX_ID_LEN {
        return Err(format!("'id' longer than {MAX_ID_LEN} bytes"));
    }
    Ok(Some(id.clone()))
}

/// Parse one request line. Failures are client-facing ([`ParseFailure`]
/// goes back over the wire in an `{"ok":false}` envelope, id attached when
/// one could be read).
pub fn parse_request(line: &str) -> Result<Envelope, ParseFailure> {
    let no_id = |error: String| ParseFailure { id: None, error };
    let v = parse_json(line).map_err(|e| no_id(format!("bad JSON: {e}")))?;
    let obj = v
        .as_object()
        .ok_or_else(|| no_id("request must be a JSON object".to_string()))?;
    let id = parse_id(obj).map_err(no_id)?;
    let fail = |error: String| ParseFailure {
        id: id.clone(),
        error,
    };
    let op = obj
        .get("op")
        .and_then(|o| o.as_str())
        .ok_or_else(|| fail("missing string field 'op'".to_string()))?;
    let req = match op {
        "ping" => Request::Ping,
        "models" => Request::Models,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        "predict" => parse_predict(obj).map_err(fail)?,
        "load" => parse_load(obj).map_err(fail)?,
        other => return Err(fail(format!("unknown op '{other}'"))),
    };
    Ok(Envelope { id, req })
}

fn parse_predict(obj: &BTreeMap<String, JsonValue>) -> Result<Request, String> {
    let model = obj
        .get("model")
        .and_then(|m| m.as_str())
        .unwrap_or("default")
        .to_string();
    let points = parse_points(obj.get("points").ok_or("predict needs 'points'")?, "points")?;
    if points.is_empty() {
        return Err("'points' must not be empty".into());
    }
    let uncertainty = obj
        .get("uncertainty")
        .map(|u| u.as_bool().ok_or("'uncertainty' must be a boolean"))
        .transpose()?
        .unwrap_or(false);
    let deadline_ms = obj
        .get("deadline_ms")
        .map(|d| {
            d.as_u64()
                .ok_or("'deadline_ms' must be a non-negative integer")
        })
        .transpose()?;
    Ok(Request::Predict(PredictRequest {
        model,
        points,
        uncertainty,
        deadline_ms,
    }))
}

fn parse_load(obj: &BTreeMap<String, JsonValue>) -> Result<Request, String> {
    let name = obj
        .get("name")
        .and_then(|m| m.as_str())
        .unwrap_or("default")
        .to_string();
    let name_of = |key| obj.get(key).and_then(|v| v.as_str());
    let family = name_of("kernel").map_or(Ok(ModelFamily::default()), ModelFamily::parse)?;
    let variant = name_of("variant").map_or(Ok(Variant::default()), Variant::parse)?;
    let theta = parse_f64_list(obj.get("theta").ok_or("load needs 'theta'")?, "theta")?;
    if theta.len() != family.n_params() {
        return Err(format!(
            "'theta' needs {} values for this kernel, got {}",
            family.n_params(),
            theta.len()
        ));
    }
    let locs = parse_points(obj.get("locs").ok_or("load needs 'locs'")?, "locs")?;
    let z = parse_f64_list(obj.get("z").ok_or("load needs 'z'")?, "z")?;
    if locs.is_empty() || locs.len() != z.len() {
        return Err(format!(
            "'locs' ({}) and 'z' ({}) must be equal-length and non-empty",
            locs.len(),
            z.len()
        ));
    }
    let tile = obj
        .get("tile")
        .map(|t| t.as_usize().ok_or("'tile' must be a non-negative integer"))
        .transpose()?
        .unwrap_or(0);
    let per_side = if tile > 0 {
        locs.len().div_ceil(tile)
    } else {
        0
    };
    if per_side > MAX_TILES_PER_SIDE {
        return Err(format!(
            "'tile' {tile} cuts {} points into {per_side} tiles per side, the limit is \
             {MAX_TILES_PER_SIDE}",
            locs.len()
        ));
    }
    Ok(Request::Load(LoadRequest {
        name,
        family,
        theta,
        variant,
        tile,
        locs,
        z,
    }))
}

/// Every reply the server writes. [`Response::line`] renders one.
#[derive(Debug)]
pub enum Response<'a> {
    /// A solved `predict`: this request's slice of its batch, and the
    /// batch's size.
    Predict {
        mean: &'a [f64],
        uncertainty: Option<&'a [f64]>,
        batch_points: usize,
        batch_requests: usize,
    },
    /// The request failed; the message says why.
    Error(&'a str),
    /// Overload shedding: refused *before* queueing, with a hint for when
    /// capacity should be back.
    Shed {
        retry_after_ms: u64,
    },
    /// A model was factorized and cached.
    Load {
        name: &'a str,
        n_train: usize,
        llh: f64,
    },
    /// The loaded models, `(name, training points)`.
    Models(&'a [(String, usize)]),
    Ping {
        uptime_seconds: f64,
    },
    Metrics(&'a MetricsReport),
    /// The answer to `shutdown`: the server drains.
    Draining,
}

impl Response<'_> {
    /// Whether this is an `{"ok":false,…}` reply (the error census).
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error(_) | Response::Shed { .. })
    }

    /// The reply line, without its newline: the echoed id first, then
    /// `ok`, then the members of the variant.
    pub fn line(&self, id: Option<&JsonValue>) -> String {
        let mut w = Writer::new();
        w.begin_object();
        if let Some(id) = id {
            w.key("id").value(id);
        }
        w.key("ok").bool(!self.is_error());
        match *self {
            Response::Predict {
                mean,
                uncertainty,
                batch_points,
                batch_requests,
            } => {
                numbers(w.key("mean"), mean);
                if let Some(u) = uncertainty {
                    numbers(w.key("uncertainty"), u);
                }
                w.key("batch").begin_object();
                w.key("points").u64(batch_points as u64);
                w.key("requests").u64(batch_requests as u64).end_object()
            }
            Response::Error(message) => w.key("error").string(message),
            Response::Shed { retry_after_ms } => {
                w.key("error").string("server overloaded, retry later");
                w.key("retry_after_ms").u64(retry_after_ms)
            }
            Response::Load { name, n_train, llh } => {
                w.key("name").string(name);
                w.key("n_train").u64(n_train as u64);
                w.key("llh").f64(llh)
            }
            Response::Models(models) => {
                w.key("models").begin_array();
                for (name, n_train) in models {
                    w.begin_object().key("name").string(name);
                    w.key("n_train").u64(*n_train as u64).end_object();
                }
                w.end_array()
            }
            Response::Ping { uptime_seconds } => w.key("uptime_seconds").f64(uptime_seconds),
            Response::Metrics(report) => w.key("metrics").value(&report.to_json_value()),
            Response::Draining => w.key("draining").bool(true),
        };
        w.end_object();
        w.finish()
    }
}

/// An array of numbers. Shortest round-trip formatting keeps the wire
/// value bit-exact when the client parses it back — the smoke tests
/// checksum on this.
fn numbers(w: &mut Writer, xs: &[f64]) {
    w.begin_array();
    for &x in xs {
        w.f64(x);
    }
    w.end_array();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xgs_runtime::json::MAX_JSON_DEPTH;

    fn req(line: &str) -> Result<Request, String> {
        parse_request(line).map(|e| e.req).map_err(|f| f.error)
    }

    #[test]
    fn parses_the_documented_requests() {
        assert!(matches!(req("{\"op\":\"ping\"}"), Ok(Request::Ping)));
        assert!(matches!(req("{\"op\":\"models\"}"), Ok(Request::Models)));
        let p = req(
            "{\"op\":\"predict\",\"model\":\"m\",\"points\":[[0.1,0.2],[0.3,0.4,0.5]],\
             \"uncertainty\":true,\"deadline_ms\":250}",
        )
        .unwrap();
        match p {
            Request::Predict(p) => {
                assert_eq!(p.model, "m");
                assert_eq!(p.points.len(), 2);
                assert_eq!(p.points[1].t, 0.5);
                assert!(p.uncertainty);
                assert_eq!(p.deadline_ms, Some(250));
            }
            other => panic!("{other:?}"),
        }
        let l = req(
            "{\"op\":\"load\",\"name\":\"a\",\"theta\":[1.0,0.1,0.5],\"variant\":\"mp\",\
             \"tile\":32,\"locs\":[[0.0,0.0],[1.0,1.0]],\"z\":[0.5,-0.5]}",
        )
        .unwrap();
        match l {
            Request::Load(l) => {
                assert_eq!(l.name, "a");
                assert_eq!(l.variant, Variant::MpDense);
                assert_eq!(l.locs.len(), 2);
                assert_eq!(l.tile, 32);
            }
            other => panic!("{other:?}"),
        }
    }

    /// The id a request carried, as it is echoed.
    fn echoed(id: Option<JsonValue>) -> Option<String> {
        id.map(|id| id.to_json_string())
    }

    #[test]
    fn ids_are_parsed_and_echoed_even_on_errors() {
        let e = parse_request("{\"op\":\"ping\",\"id\":\"req-7\"}").unwrap();
        assert_eq!(echoed(e.id).as_deref(), Some("\"req-7\""));
        let e = parse_request("{\"op\":\"ping\",\"id\":42}").unwrap();
        assert_eq!(echoed(e.id).as_deref(), Some("42"));
        // An id of extreme magnitude is echoed as it was written, not
        // refused for the length of its plain-decimal expansion.
        let e = parse_request("{\"op\":\"ping\",\"id\":1e300}").unwrap();
        assert_eq!(echoed(e.id).as_deref(), Some("1e300"));
        assert!(parse_request("{\"op\":\"ping\"}").unwrap().id.is_none());

        // A bad op still yields the id so the error can be correlated.
        let f = parse_request("{\"op\":\"nope\",\"id\":9}").unwrap_err();
        assert_eq!(echoed(f.id).as_deref(), Some("9"));
        // Structurally bad ids are themselves an error (without an echo).
        let f = parse_request("{\"op\":\"ping\",\"id\":[1]}").unwrap_err();
        assert!(f.id.is_none());
        assert!(f.error.contains("'id'"), "{}", f.error);
        let long = format!("{{\"op\":\"ping\",\"id\":\"{}\"}}", "x".repeat(4096));
        assert!(parse_request(&long).unwrap_err().error.contains("longer"));

        // The echo leads every response shape.
        let id = JsonValue::from("req-7");
        let tagged = Response::Error("nope").line(Some(&id));
        let v = parse_json(&tagged).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("req-7"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            Response::Draining.line(None),
            "{\"ok\":true,\"draining\":true}"
        );
    }

    #[test]
    fn rejects_malformed_requests_with_readable_errors() {
        for (line, needle) in [
            ("not json", "bad JSON"),
            ("[1,2]", "object"),
            ("{\"op\":\"frobnicate\"}", "unknown op"),
            ("{\"op\":\"predict\"}", "points"),
            ("{\"op\":\"predict\",\"points\":[]}", "empty"),
            ("{\"op\":\"predict\",\"points\":[[1.0]]}", "coordinates"),
            (
                "{\"op\":\"predict\",\"points\":[[0.1,0.2]],\"deadline_ms\":-5}",
                "deadline_ms",
            ),
            (
                "{\"op\":\"load\",\"theta\":[1.0],\"locs\":[[0.0,0.0]],\"z\":[1.0]}",
                "theta",
            ),
        ] {
            let err = req(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn non_finite_payloads_never_reach_a_solve() {
        // `1e999` overflows to +inf during parsing — grammar-valid JSON
        // that must still be refused before it poisons a batched solve.
        for (line, field) in [
            ("{\"op\":\"predict\",\"points\":[[1e999,0.2]]}", "points"),
            ("{\"op\":\"predict\",\"points\":[[0.1,-1e999]]}", "points"),
            (
                "{\"op\":\"load\",\"theta\":[1e999,0.1,0.5],\"locs\":[[0.0,0.0]],\"z\":[1.0]}",
                "theta",
            ),
            (
                "{\"op\":\"load\",\"theta\":[1.0,0.1,0.5],\"locs\":[[0.0,0.0]],\"z\":[1e999]}",
                "z",
            ),
            (
                "{\"op\":\"load\",\"theta\":[1.0,0.1,0.5],\"locs\":[[0.0,1e999]],\"z\":[1.0]}",
                "locs",
            ),
        ] {
            let err = req(line).unwrap_err();
            assert!(
                err.contains("non-finite") && err.contains(field),
                "{line}: {err}"
            );
        }
    }

    fn predict<'a>(mean: &'a [f64], uncertainty: Option<&'a [f64]>) -> Response<'a> {
        Response::Predict {
            mean,
            uncertainty,
            batch_points: 1,
            batch_requests: 1,
        }
    }

    #[test]
    fn responses_are_valid_json() {
        let models = [("a".to_string(), 10), ("b".to_string(), 20)];
        let x = JsonValue::from("x");
        for s in [
            Response::Predict {
                mean: &[1.5, -0.25],
                uncertainty: Some(&[0.1, 0.2]),
                batch_points: 7,
                batch_requests: 2,
            }
            .line(None),
            predict(&[1.0], None).line(None),
            Response::Error("bad \"thing\"").line(None),
            Response::Shed {
                retry_after_ms: 120,
            }
            .line(None),
            Response::Load {
                name: "m",
                n_train: 100,
                llh: -42.5,
            }
            .line(None),
            Response::Models(&models).line(None),
            predict(&[1.0], None).line(Some(&x)),
        ] {
            parse_json(&s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
        let shed = Response::Shed {
            retry_after_ms: 120,
        };
        let shed = parse_json(&shed.line(None)).unwrap();
        assert_eq!(shed.get("retry_after_ms").unwrap().as_u64(), Some(120));
    }

    #[test]
    fn float_wire_format_round_trips_bitwise() {
        let xs = [1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0, 123456.789012345];
        let s = predict(&xs, None).line(None);
        let v = parse_json(&s).unwrap();
        let mean = v.get("mean").unwrap().as_array().unwrap();
        for (a, b) in xs.iter().zip(mean) {
            assert_eq!(a.to_bits(), b.as_f64().unwrap().to_bits());
        }
    }

    #[test]
    fn every_reply_keeps_its_bytes() {
        // The bytes each reply had when it was assembled by hand.
        let (s, n) = (JsonValue::from("x"), JsonValue::from(42.0));
        let models = [("a".to_string(), 10), ("b".to_string(), 20)];
        let mut report = MetricsReport {
            wall_seconds: 1.5,
            tasks: 3,
            workers: 1,
            worker_stats: vec![Default::default(); 1],
            ..Default::default()
        };
        let mut request = xgs_runtime::KernelStats::new("request");
        request.record(2.5e-4);
        report.kernels.push(request);
        let cases = [
            (
                Response::Predict {
                    mean: &[1.5, -0.25],
                    uncertainty: Some(&[0.1, 0.2]),
                    batch_points: 7,
                    batch_requests: 2,
                }
                .line(Some(&s)),
                "{\"id\":\"x\",\"ok\":true,\"mean\":[1.5,-0.25],\"uncertainty\":[0.1,0.2],\
                 \"batch\":{\"points\":7,\"requests\":2}}",
            ),
            (
                predict(&[1.0], None).line(None),
                "{\"ok\":true,\"mean\":[1],\"batch\":{\"points\":1,\"requests\":1}}",
            ),
            (
                Response::Predict {
                    mean: &[f64::NAN, 2.0, f64::INFINITY],
                    uncertainty: None,
                    batch_points: 3,
                    batch_requests: 1,
                }
                .line(Some(&n)),
                "{\"id\":42,\"ok\":true,\"mean\":[null,2,null],\
                 \"batch\":{\"points\":3,\"requests\":1}}",
            ),
            (
                Response::Error("bad \"thing\"").line(None),
                "{\"ok\":false,\"error\":\"bad \\\"thing\\\"\"}",
            ),
            (
                Response::Error("tab\there\\ nl\n ctl\u{1}").line(Some(&JsonValue::from(-1.5))),
                "{\"id\":-1.5,\"ok\":false,\"error\":\"tab\\there\\\\ nl\\n ctl\\u0001\"}",
            ),
            (
                Response::Shed {
                    retry_after_ms: 120,
                }
                .line(None),
                "{\"ok\":false,\"error\":\"server overloaded, retry later\",\"retry_after_ms\":120}",
            ),
            (
                Response::Load {
                    name: "m",
                    n_train: 100,
                    llh: -42.5,
                }
                .line(None),
                "{\"ok\":true,\"name\":\"m\",\"n_train\":100,\"llh\":-42.5}",
            ),
            (
                Response::Models(&models).line(None),
                "{\"ok\":true,\"models\":[{\"name\":\"a\",\"n_train\":10},\
                 {\"name\":\"b\",\"n_train\":20}]}",
            ),
            (
                Response::Models(&[]).line(None),
                "{\"ok\":true,\"models\":[]}",
            ),
            (
                Response::Ping {
                    uptime_seconds: 12.375,
                }
                .line(Some(&JsonValue::from("p"))),
                "{\"id\":\"p\",\"ok\":true,\"uptime_seconds\":12.375}",
            ),
            (
                Response::Draining.line(Some(&JsonValue::from(3.0))),
                "{\"id\":3,\"ok\":true,\"draining\":true}",
            ),
            (
                Response::Metrics(&report).line(Some(&JsonValue::from("m"))),
                "{\"id\":\"m\",\"ok\":true,\"metrics\":{\"conversions\":{\"bytes\":\
                 {\"f16_to_f32\":0,\"f16_to_f64\":0,\"f32_to_f16\":0,\"f32_to_f64\":0,\
                 \"f64_to_f16\":0,\"f64_to_f32\":0,\"total\":0},\"demotions\":0,\"f16_to_f32\":0,\
                 \"f16_to_f64\":0,\"f32_to_f16\":0,\"f32_to_f64\":0,\"f64_to_f16\":0,\
                 \"f64_to_f32\":0,\"promotions\":0,\"total\":0},\"kernels\":[{\"count\":1,\
                 \"histogram_log2us\":[0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\
                 \"kind\":\"request\",\"max_seconds\":0.00025,\"mean_seconds\":0.00025,\
                 \"min_seconds\":0.00025,\"total_seconds\":0.00025}],\"pool\":null,\
                 \"queue_depth\":{\"max\":0,\"mean\":0,\"samples\":0},\"tasks\":3,\
                 \"validation\":null,\"wall_seconds\":1.5,\"wire\":[],\"worker_stats\":\
                 [{\"busy_seconds\":0,\"parks\":0,\"tasks\":0,\"worker\":0}],\"workers\":1}}",
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
        }
    }

    /// One valid line per op, the shapes the event loop sees all day.
    const VALID_LINES: [&str; 5] = [
        "{\"op\":\"ping\",\"id\":\"p-1\"}",
        "{\"id\":2,\"op\":\"models\"}",
        "{\"op\":\"metrics\",\"id\":3}",
        "{\"id\":4,\"op\":\"load\",\"name\":\"a\",\"theta\":[1.0,0.1,0.5],\"variant\":\"mp\",\
         \"tile\":32,\"locs\":[[0.0,0.0],[1.0,1.0]],\"z\":[0.5,-0.5]}",
        "{\"id\":5,\"op\":\"predict\",\"model\":\"m\",\"points\":[[0.1,0.2],[0.3,0.4,0.5]],\
         \"uncertainty\":true,\"deadline_ms\":250}",
    ];

    /// Numbers a hostile client spells where a count or a coordinate
    /// belongs: huge, negative, fractional, non-finite after parsing, and
    /// the non-JSON spellings of NaN and infinity.
    const HOSTILE_NUMBERS: [&str; 12] = [
        "1e999",
        "-1e999",
        "18446744073709551616",
        "-1",
        "-0",
        "0.5",
        "1e-400",
        "NaN",
        "nan",
        "Infinity",
        "-inf",
        "99999999999999999999999999999999999999999",
    ];

    #[test]
    fn every_prefix_of_a_valid_line_parses_or_fails_cleanly() {
        for line in VALID_LINES {
            assert!(parse_request(line).is_ok(), "{line}");
            for cut in 0..line.len() {
                // A torn line is an error, never a panic — and never a
                // request: nothing shorter than the whole object closes it.
                assert!(parse_request(&line[..cut]).is_err(), "{}", &line[..cut]);
            }
        }
    }

    #[test]
    fn nesting_past_the_depth_cap_is_an_error_wherever_it_sits() {
        let deep = "[".repeat(MAX_JSON_DEPTH + 1);
        for line in [
            deep.clone(),
            format!("{{\"op\":\"ping\",\"id\":{deep}"),
            format!("{{\"op\":\"predict\",\"points\":{deep}"),
            format!("{{\"op\":\"load\",\"theta\":{deep}"),
            "{\"a\":".repeat(MAX_JSON_DEPTH + 1),
        ] {
            let f = parse_request(&line).unwrap_err();
            assert!(f.error.contains("nesting"), "{}", f.error);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Totality over hostile bytes: whatever arrives between two
        // newlines, `parse_request` returns — the event loop has no
        // thread to lose to a panic.
        #[test]
        fn parse_request_is_total_over_byte_soup(
            bytes in proptest::collection::vec(0u32..256, 96),
            len in 0usize..97,
            splice in 0usize..VALID_LINES.len(),
            at in 0usize..64,
        ) {
            let soup: Vec<u8> = bytes[..len].iter().map(|&b| b as u8).collect();
            let _ = parse_request(&String::from_utf8_lossy(&soup));
            // The same soup dropped into the middle of a valid line.
            let line = VALID_LINES[splice].as_bytes();
            let at = at.min(line.len());
            let spliced = [&line[..at], &soup[..], &line[at..]].concat();
            let _ = parse_request(&String::from_utf8_lossy(&spliced));
        }

        // A hostile number in any numeric field is an answer, not a
        // panic, and the id that parsed rides on it either way.
        #[test]
        fn hostile_numbers_keep_the_id(
            id in 0u64..1_000_000,
            number in 0usize..HOSTILE_NUMBERS.len(),
            field in 0usize..6,
        ) {
            let x = HOSTILE_NUMBERS[number];
            let line = match field {
                0 => format!("{{\"id\":{id},\"op\":\"predict\",\"points\":[[{x},0.5]]}}"),
                1 => format!("{{\"id\":{id},\"op\":\"predict\",\"points\":[[0.5,0.5]],\"deadline_ms\":{x}}}"),
                2 => format!("{{\"id\":{id},\"op\":\"load\",\"theta\":[1.0,0.1,0.5],\"tile\":{x},\
                              \"locs\":[[0.0,0.0],[1.0,1.0]],\"z\":[0.5,-0.5]}}"),
                3 => format!("{{\"id\":{id},\"op\":\"load\",\"theta\":[{x},0.1,0.5],\
                              \"locs\":[[0.0,0.0]],\"z\":[0.5]}}"),
                4 => format!("{{\"id\":{id},\"op\":\"load\",\"theta\":[1.0,0.1,0.5],\
                              \"locs\":[[0.0,{x}]],\"z\":[{x}]}}"),
                _ => format!("{{\"id\":{id},\"op\":\"predict\",\"points\":{x}}}"),
            };
            let echo = match parse_request(&line) {
                Ok(e) => echoed(e.id),
                // Not JSON at all (`NaN`, `Infinity`): no id could be read.
                Err(f) if f.error.starts_with("bad JSON") => Some(id.to_string()),
                Err(f) => echoed(f.id),
            };
            prop_assert!(echo == Some(id.to_string()), "{} lost its id", line);
        }
    }
}
