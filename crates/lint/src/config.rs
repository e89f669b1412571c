//! `lint.toml` — the audited suppression list.
//!
//! Mirrors `conform.toml` conventions: a schema-versioned TOML subset,
//! read strictly by [`crate::toml_subset`] (the reader `conform.toml` uses
//! too), so unknown keys, unknown rule IDs, duplicate keys or entries and
//! missing fields are hard errors, not warnings.  Each `[[allow]]` names
//! one rule at one file with a **mandatory reason** — an allow is a
//! reviewed claim that the flagged pattern cannot reach an artifact byte,
//! and the reason is where that claim lives.  Allows that suppress nothing
//! are *stale* and fail the run: a fixed site must shrink the list, so the
//! list can only describe the present tree.

use crate::{rules, toml_subset};
use std::collections::BTreeSet;

/// The schema this parser understands.
pub const SCHEMA: u32 = 1;

/// One suppression: `rule` findings in `path` are intentional.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule ID (`L001`…).
    pub rule: String,
    /// Workspace-relative file path the allow applies to.
    pub path: String,
    /// Why the pattern is legitimate at this site (mandatory).
    pub reason: String,
    /// 1-based `lint.toml` line of the `[[allow]]` header (for messages).
    pub line: u32,
}

/// Parse `lint.toml` content.
pub fn parse(content: &str) -> Result<Vec<Allow>, String> {
    let tables = toml_subset::read_tables(content, "allow", i64::from(SCHEMA))
        .map_err(|e| e.in_file("lint.toml"))?;
    let mut allows: Vec<Allow> = Vec::new();
    for table in tables {
        let mut a = Allow {
            rule: String::new(),
            path: String::new(),
            reason: String::new(),
            line: table.line as u32,
        };
        for entry in table.entries {
            let field = match entry.key.as_str() {
                "rule" => &mut a.rule,
                "path" => &mut a.path,
                "reason" => &mut a.reason,
                other => {
                    return Err(format!(
                        "lint.toml:{}: unknown [[allow]] key {other:?}",
                        entry.line
                    ))
                }
            };
            *field = entry.value.as_str().map(str::to_string).ok_or_else(|| {
                format!("lint.toml:{}: {} must be a string", entry.line, entry.key)
            })?;
        }
        validate(&a)?;
        allows.push(a);
    }
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for a in &allows {
        if !seen.insert((a.rule.clone(), a.path.clone())) {
            return Err(format!(
                "lint.toml:{}: duplicate allow for {} at {}",
                a.line, a.rule, a.path
            ));
        }
    }
    Ok(allows)
}

/// Check that a complete `[[allow]]` names a known rule, a path and a reason.
fn validate(a: &Allow) -> Result<(), String> {
    if a.rule.is_empty() {
        return Err(format!("lint.toml:{}: [[allow]] missing `rule`", a.line));
    }
    if rules::meta(&a.rule).is_none() {
        return Err(format!(
            "lint.toml:{}: unknown rule {:?} (see `lint --list`)",
            a.line, a.rule
        ));
    }
    if a.path.is_empty() {
        return Err(format!("lint.toml:{}: [[allow]] missing `path`", a.line));
    }
    if a.reason.trim().is_empty() {
        return Err(format!(
            "lint.toml:{}: [[allow]] missing `reason` — every suppression must say why \
             the pattern cannot reach an artifact byte",
            a.line
        ));
    }
    Ok(())
}
