//! `report_json` and `report_sarif`: both documents parse, hostile paths
//! and messages round-trip, and the bytes are pinned.

use xgs_analysis::rules::{report_json, report_sarif, Finding, RULES};
use xgs_json::parse_json;

const HOSTILE_PATH: &str = "a\"b\\c\nd\u{1}.rs";
const HOSTILE_MESSAGE: &str = "say \"hi\"\\ then\nnewline \u{1} and \t tab é";

fn findings() -> Vec<Finding> {
    vec![
        Finding {
            rule: RULES[0].0,
            path: HOSTILE_PATH.into(),
            line: 3,
            col: 7,
            message: HOSTILE_MESSAGE.into(),
        },
        Finding {
            rule: RULES[2].0,
            path: "src/x.rs".into(),
            line: 10,
            col: 1,
            message: "plain".into(),
        },
    ]
}

const RULE_NAMES: &str = concat!(
    r#"["no-partial-cmp-sort","no-panic-in-network-path","bounded-read-only","#,
    r#""no-unjustified-unsafe","frame-kind-exhaustive","lock-order","lock-cycle","#,
    r#""safety-comment-required","no-unsafe-outside-audited-modules","syscall-ret-checked","#,
    r#""no-unbounded-channel-send","no-heartbeat-in-hot-loop","no-raw-parallelism-probe","#,
    r#""unjustified-allow"]"#,
);

#[test]
fn json_report_parses_round_trips_and_keeps_its_bytes() {
    let text = report_json(12, 4, &findings());
    let v = parse_json(&text).unwrap();
    let first = &v.get("findings").unwrap().as_array().unwrap()[0];
    assert_eq!(first.get("path").unwrap().as_str(), Some(HOSTILE_PATH));
    assert_eq!(
        first.get("message").unwrap().as_str(),
        Some(HOSTILE_MESSAGE)
    );
    assert_eq!(
        text,
        [
            r#"{"files":12,"allows":4,"rules":"#,
            RULE_NAMES,
            r#","histogram":{"no-partial-cmp-sort":1,"bounded-read-only":1},"findings":["#,
            r#"{"rule":"no-partial-cmp-sort","path":"a\"b\\c\nd\u0001.rs","line":3,"col":7,"#,
            r#""message":"say \"hi\"\\ then\nnewline \u0001 and \t tab é"},"#,
            r#"{"rule":"bounded-read-only","path":"src/x.rs","line":10,"col":1,"#,
            r#""message":"plain"}]}"#,
        ]
        .concat()
    );
    assert_eq!(
        report_json(0, 0, &[]),
        [
            r#"{"files":0,"allows":0,"rules":"#,
            RULE_NAMES,
            r#","histogram":{},"findings":[]}"#
        ]
        .concat()
    );
}

#[test]
fn sarif_report_parses_round_trips_and_keeps_its_bytes() {
    let text = report_sarif(&findings());
    let v = parse_json(&text).unwrap();
    let run = &v.get("runs").unwrap().as_array().unwrap()[0];
    let rules = run.get("tool").unwrap().get("driver").unwrap().get("rules");
    assert_eq!(rules.unwrap().as_array().unwrap().len(), RULES.len());
    let first = &run.get("results").unwrap().as_array().unwrap()[0];
    let text_of = |v: &xgs_json::JsonValue| v.get("text").unwrap().as_str().map(String::from);
    assert_eq!(
        text_of(first.get("message").unwrap()).as_deref(),
        Some(HOSTILE_MESSAGE)
    );
    let location = &first.get("locations").unwrap().as_array().unwrap()[0];
    let uri = location
        .get("physicalLocation")
        .and_then(|p| p.get("artifactLocation"))
        .and_then(|a| a.get("uri"))
        .and_then(|u| u.as_str());
    assert_eq!(uri, Some(HOSTILE_PATH));

    let rule_table: String = RULES
        .iter()
        .map(|(id, summary)| {
            format!(r#"{{"id":"{id}","shortDescription":{{"text":"{summary}"}}}}"#)
        })
        .collect::<Vec<_>>()
        .join(",");
    // No summary needs escaping, so the table above is its JSON as is.
    assert!(RULES
        .iter()
        .all(|(_, s)| !s.contains(['"', '\\']) && s.chars().all(|c| c >= ' ')));
    assert_eq!(
        text,
        [
            r#"{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","version":"2.1.0","#,
            r#""runs":[{"tool":{"driver":{"name":"xgs-lint","rules":["#,
            &rule_table,
            r#"]}},"results":[{"ruleId":"no-partial-cmp-sort","level":"error","#,
            r#""message":{"text":"say \"hi\"\\ then\nnewline \u0001 and \t tab é"},"#,
            r#""locations":[{"physicalLocation":{"artifactLocation":"#,
            r#"{"uri":"a\"b\\c\nd\u0001.rs"},"region":{"startLine":3,"startColumn":7}}}]},"#,
            r#"{"ruleId":"bounded-read-only","level":"error","message":{"text":"plain"},"#,
            r#""locations":[{"physicalLocation":{"artifactLocation":{"uri":"src/x.rs"},"#,
            r#""region":{"startLine":10,"startColumn":1}}}]}]}]}"#,
        ]
        .concat()
    );
}
