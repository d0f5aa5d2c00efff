//! Wire protocol of the prediction service.
//!
//! Newline-delimited JSON over TCP: each request is one JSON object on one
//! line, each response is one JSON object on one line. The grammar is
//! documented in the repository README ("Prediction service protocol");
//! parsing reuses the hand-rolled [`xgs_runtime::json`] reader so the
//! server stays dependency-free.
//!
//! Requests may carry an optional client-assigned `"id"` (string or finite
//! number) that is echoed verbatim in the matching response. Because the
//! server answers a connection's requests out of order (`predict` runs on
//! the solver pool while `ping`/`metrics` are answered inline), a client
//! that pipelines more than one request at a time must tag them with ids
//! to correlate the responses. `predict` additionally accepts
//! `"deadline_ms"`: a per-request time budget after which the server
//! answers with a timeout error instead of running the solve.

use crate::server::MAX_TILES_PER_SIDE;
use xgs_core::ModelFamily;
use xgs_covariance::Location;
use xgs_runtime::{escape_json, parse_json, JsonValue};
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

/// A parsed request plus its correlation id (already serialized back to
/// JSON text, ready to echo).
#[derive(Debug)]
pub struct Envelope {
    pub id: Option<String>,
    pub req: Request,
}

/// A request that failed to parse; carries the id (when one was readable)
/// so even error responses stay correlatable on a multiplexed connection.
#[derive(Debug)]
pub struct ParseFailure {
    pub id: Option<String>,
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

/// Serialize a request's `"id"` member back to JSON text for echoing.
/// Only strings and finite numbers are accepted as ids.
fn parse_id(obj: &std::collections::BTreeMap<String, JsonValue>) -> Result<Option<String>, String> {
    let Some(id) = obj.get("id") else {
        return Ok(None);
    };
    let text = match id {
        JsonValue::String(s) => format!("\"{}\"", escape_json(s)),
        JsonValue::Number(n) if n.is_finite() => n.to_string(),
        _ => return Err("'id' must be a string or a finite number".to_string()),
    };
    if text.len() > MAX_ID_LEN {
        return Err(format!("'id' longer than {MAX_ID_LEN} bytes"));
    }
    Ok(Some(text))
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

fn parse_predict(obj: &std::collections::BTreeMap<String, JsonValue>) -> Result<Request, String> {
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

fn parse_load(obj: &std::collections::BTreeMap<String, JsonValue>) -> Result<Request, String> {
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

/// Prepend the echoed `"id"` member to a response body (`body` must be a
/// JSON object literal, which every response in this module is).
pub fn with_id(id: Option<&str>, body: String) -> String {
    match id {
        None => body,
        Some(id) => format!("{{\"id\":{id},{}", &body[1..]),
    }
}

/// `{"ok":false,"error":...}` envelope.
pub fn error_response(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", escape_json(msg))
}

/// Overload-shedding response: the request was refused *before* queueing,
/// with a hint for when capacity should be back.
pub fn shed_response(retry_after_ms: u64) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"server overloaded, retry later\",\
         \"retry_after_ms\":{retry_after_ms}}}"
    )
}

fn join_f64(xs: &[f64]) -> String {
    // `{}` (shortest round-trip formatting) keeps the wire value bit-exact
    // when the client parses it back — the smoke tests checksum on this.
    // JSON has no NaN or infinity: those go out as `null`.
    xs.iter()
        .map(|x| {
            if x.is_finite() {
                x.to_string()
            } else {
                "null".to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Successful predict response.
pub fn predict_response(
    mean: &[f64],
    uncertainty: Option<&[f64]>,
    batch_points: usize,
    batched_requests: usize,
) -> String {
    let mut s = format!("{{\"ok\":true,\"mean\":[{}]", join_f64(mean));
    if let Some(u) = uncertainty {
        s.push_str(&format!(",\"uncertainty\":[{}]", join_f64(u)));
    }
    s.push_str(&format!(
        ",\"batch\":{{\"points\":{batch_points},\"requests\":{batched_requests}}}}}"
    ));
    s
}

/// Successful load response.
pub fn load_response(name: &str, n_train: usize, llh: f64) -> String {
    format!(
        "{{\"ok\":true,\"name\":\"{}\",\"n_train\":{n_train},\"llh\":{llh}}}",
        escape_json(name)
    )
}

/// Successful models listing.
pub fn models_response(models: &[(String, usize)]) -> String {
    let items = models
        .iter()
        .map(|(name, n)| format!("{{\"name\":\"{}\",\"n_train\":{n}}}", escape_json(name)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"ok\":true,\"models\":[{items}]}}")
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

    #[test]
    fn ids_are_parsed_and_echoed_even_on_errors() {
        let e = parse_request("{\"op\":\"ping\",\"id\":\"req-7\"}").unwrap();
        assert_eq!(e.id.as_deref(), Some("\"req-7\""));
        let e = parse_request("{\"op\":\"ping\",\"id\":42}").unwrap();
        assert_eq!(e.id.as_deref(), Some("42"));
        assert!(parse_request("{\"op\":\"ping\"}").unwrap().id.is_none());

        // A bad op still yields the id so the error can be correlated.
        let f = parse_request("{\"op\":\"nope\",\"id\":9}").unwrap_err();
        assert_eq!(f.id.as_deref(), Some("9"));
        // Structurally bad ids are themselves an error (without an echo).
        let f = parse_request("{\"op\":\"ping\",\"id\":[1]}").unwrap_err();
        assert!(f.id.is_none());
        assert!(f.error.contains("'id'"), "{}", f.error);
        let long = format!("{{\"op\":\"ping\",\"id\":\"{}\"}}", "x".repeat(4096));
        assert!(parse_request(&long).unwrap_err().error.contains("longer"));

        // with_id splices the echo into every response shape.
        let tagged = with_id(Some("\"req-7\""), error_response("nope"));
        let v = parse_json(&tagged).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("req-7"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(with_id(None, "{\"ok\":true}".into()), "{\"ok\":true}");
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

    #[test]
    fn responses_are_valid_json() {
        for s in [
            predict_response(&[1.5, -0.25], Some(&[0.1, 0.2]), 7, 2),
            predict_response(&[1.0], None, 1, 1),
            error_response("bad \"thing\""),
            shed_response(120),
            load_response("m", 100, -42.5),
            models_response(&[("a".into(), 10), ("b".into(), 20)]),
            with_id(Some("\"x\""), predict_response(&[1.0], None, 1, 1)),
        ] {
            parse_json(&s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
        let shed = parse_json(&shed_response(120)).unwrap();
        assert_eq!(shed.get("retry_after_ms").unwrap().as_u64(), Some(120));
    }

    #[test]
    fn float_wire_format_round_trips_bitwise() {
        let xs = [1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0, 123456.789012345];
        let s = predict_response(&xs, None, 1, 1);
        let v = parse_json(&s).unwrap();
        let mean = v.get("mean").unwrap().as_array().unwrap();
        for (a, b) in xs.iter().zip(mean) {
            assert_eq!(a.to_bits(), b.as_f64().unwrap().to_bits());
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
            let echoed = match parse_request(&line) {
                Ok(e) => e.id,
                // Not JSON at all (`NaN`, `Infinity`): no id could be read.
                Err(f) if f.error.starts_with("bad JSON") => Some(id.to_string()),
                Err(f) => f.id,
            };
            prop_assert!(echoed == Some(id.to_string()), "{} lost its id", line);
        }
    }
}
