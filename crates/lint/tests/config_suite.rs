//! `lint.toml` parser and allow-application suite: the suppression list
//! is schema-versioned, every field is mandatory, duplicates and unknown
//! rules are hard errors, and — the load-bearing property — an allow
//! that suppresses nothing is *stale* and fails the run.

use ss_lint::apply_allows;
use ss_lint::config::{parse, Allow};
use ss_lint::rules::Finding;

fn finding(rule: &'static str, path: &str, line: u32) -> Finding {
    Finding {
        rule,
        path: path.to_string(),
        line,
        message: "synthetic".to_string(),
    }
}

fn allow(rule: &str, path: &str) -> Allow {
    Allow {
        rule: rule.to_string(),
        path: path.to_string(),
        reason: "reviewed".to_string(),
        line: 1,
    }
}

// ------------------------------------------------------------- parsing

#[test]
fn parse_minimal_manifest() {
    let allows = parse(
        "schema = 1\n\n[[allow]]\nrule = \"L001\"\npath = \"crates/x/src/y.rs\"\nreason = \"get/insert only\"\n",
    )
    .expect("valid manifest");
    assert_eq!(allows.len(), 1);
    assert_eq!(allows[0].rule, "L001");
    assert_eq!(allows[0].path, "crates/x/src/y.rs");
    assert_eq!(allows[0].reason, "get/insert only");
    assert_eq!(allows[0].line, 3, "line of the [[allow]] header");
}

#[test]
fn comments_and_escapes_are_handled() {
    let allows = parse(
        "schema = 1 # the only schema\n[[allow]]\nrule = \"L005\" # trailing comment\npath = \"a.rs\"\nreason = \"prints \\\"id\\\" only # not a comment\"\n",
    )
    .expect("valid manifest");
    assert_eq!(allows[0].reason, "prints \"id\" only # not a comment");
}

#[test]
fn missing_reason_is_a_hard_error() {
    let err = parse("schema = 1\n[[allow]]\nrule = \"L001\"\npath = \"a.rs\"\n").unwrap_err();
    assert!(err.contains("missing `reason`"), "{err}");
}

#[test]
fn unknown_rule_is_a_hard_error() {
    let err = parse("schema = 1\n[[allow]]\nrule = \"L999\"\npath = \"a.rs\"\nreason = \"x\"\n")
        .unwrap_err();
    assert!(err.contains("unknown rule"), "{err}");
}

#[test]
fn duplicate_allow_is_a_hard_error() {
    let err = parse(
        "schema = 1\n[[allow]]\nrule = \"L001\"\npath = \"a.rs\"\nreason = \"x\"\n[[allow]]\nrule = \"L001\"\npath = \"a.rs\"\nreason = \"y\"\n",
    )
    .unwrap_err();
    assert!(err.contains("duplicate allow"), "{err}");
}

#[test]
fn missing_schema_is_a_hard_error() {
    let err = parse("[[allow]]\nrule = \"L001\"\npath = \"a.rs\"\nreason = \"x\"\n").unwrap_err();
    assert!(err.contains("schema"), "{err}");
}

#[test]
fn future_schema_is_a_hard_error() {
    let err = parse("schema = 2\n").unwrap_err();
    assert!(err.contains("unsupported"), "{err}");
}

#[test]
fn unknown_keys_are_hard_errors() {
    let err = parse("schema = 1\n[[allow]]\nrule = \"L001\"\nfile = \"a.rs\"\n").unwrap_err();
    assert!(err.contains("unknown [[allow]] key"), "{err}");
    let err = parse("schema = 1\nmode = \"strict\"\n").unwrap_err();
    assert!(err.contains("unknown top-level key"), "{err}");
}

#[test]
fn repeated_key_within_an_allow_is_a_hard_error() {
    let err = parse(
        "schema = 1\n[[allow]]\nrule = \"L001\"\npath = \"a.rs\"\nreason = \"x\"\nreason = \"y\"\n",
    )
    .unwrap_err();
    assert!(
        err.contains("lint.toml:6: duplicate key \"reason\""),
        "{err}"
    );
}

// ------------------------------------------------------- applying allows

#[test]
fn allows_suppress_matching_findings() {
    let report = apply_allows(
        vec![finding("L001", "a.rs", 10), finding("L001", "a.rs", 20)],
        vec![allow("L001", "a.rs")],
        None,
    );
    assert!(report.findings.is_empty());
    assert_eq!(report.suppressed, 2);
    assert_eq!(report.allow_uses[0].1, Some(2));
    assert!(report.is_clean());
    assert!(report.render().contains("0 finding(s), 2 suppressed"));
}

#[test]
fn allows_do_not_cross_rules_or_paths() {
    let report = apply_allows(
        vec![finding("L002", "a.rs", 10), finding("L001", "b.rs", 5)],
        vec![allow("L001", "a.rs")],
        None,
    );
    assert_eq!(report.findings.len(), 2, "nothing matched the allow");
    // …which in turn makes the allow stale: a double failure.
    assert_eq!(report.stale_allows().len(), 1);
    assert!(!report.is_clean());
}

#[test]
fn stale_allows_are_hard_errors() {
    let report = apply_allows(Vec::new(), vec![allow("L006", "gone.rs")], None);
    assert!(report.findings.is_empty());
    assert!(!report.is_clean(), "a stale allow alone must fail the run");
    let rendered = report.render();
    assert!(rendered.contains("stale allow"), "{rendered}");
    assert!(rendered.contains("gone.rs"), "{rendered}");
    assert!(rendered.contains("1 stale allow(s)"), "{rendered}");
}

#[test]
fn rule_selection_exempts_other_rules_allows_from_staleness() {
    // Under `--rule L001`, an L002 allow had no chance to match — it must
    // not be reported stale; an unmatched L001 allow still must be.
    let report = apply_allows(
        Vec::new(),
        vec![allow("L001", "a.rs"), allow("L002", "b.rs")],
        Some("L001"),
    );
    assert_eq!(report.allow_uses[0].1, Some(0), "selected rule: stale");
    assert_eq!(report.allow_uses[1].1, None, "unselected rule: exempt");
    let stale = report.stale_allows();
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].rule, "L001");
}
