//! The checked-in conformance manifest (`conform.toml`).
//!
//! Targets are **declared**, not hard-coded in CI YAML: each `[[target]]`
//! names a builtin artifact producer ([`TargetKind`]), the replica matrix it
//! must be byte-identical across, the committed golden fixture, and
//! structural expectations (e.g. the oracle-pair keys `verify --check` must
//! report, so corpus shrinkage fails as a manifest violation instead of
//! relying on a hand-maintained grep loop).
//!
//! The text is read by [`ss_lint::toml_subset`], the strict TOML-subset
//! reader `lint.toml` uses too; this module only pulls the typed fields out
//! of its `[[target]]` tables.  Unknown keys and kinds are hard errors — the
//! manifest is self-describing and typos must not silently weaken the gate.

use ss_lint::toml_subset::{self, Table, Value};
use std::fmt;

/// Supported manifest schema version (bump on incompatible changes).
pub const SCHEMA_VERSION: i64 = 1;

/// The builtin artifact producers a target can reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// `verify --check`: the oracle cross-validation corpus report.
    Verify,
    /// `fabric --check`: the service-fabric scenario-suite report.
    Fabric,
    /// The `parallel_replications` workload's per-replication values.
    Replications,
    /// The turnpike / heavy-traffic / asymptotic sweep values.
    Sweeps,
    /// An `experiments` harness subset (wall-clock lines stripped).
    Experiments,
}

impl TargetKind {
    /// Parse a manifest `kind` string.
    pub fn from_key(key: &str) -> Option<TargetKind> {
        match key {
            "verify" => Some(TargetKind::Verify),
            "fabric" => Some(TargetKind::Fabric),
            "replications" => Some(TargetKind::Replications),
            "sweeps" => Some(TargetKind::Sweeps),
            "experiments" => Some(TargetKind::Experiments),
            _ => None,
        }
    }

    /// The manifest `kind` string.
    pub fn key(&self) -> &'static str {
        match self {
            TargetKind::Verify => "verify",
            TargetKind::Fabric => "fabric",
            TargetKind::Replications => "replications",
            TargetKind::Sweeps => "sweeps",
            TargetKind::Experiments => "experiments",
        }
    }
}

impl fmt::Display for TargetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One declared conformance target.
#[derive(Debug, Clone)]
pub struct TargetSpec {
    /// Unique target key (`--target` selector, report label).
    pub key: String,
    /// Which builtin artifact producer to run.
    pub kind: TargetKind,
    /// Human description for `--list`.
    pub description: String,
    /// Pool sizes of the replicas (the `SS_THREADS` matrix).
    pub threads: Vec<usize>,
    /// Optional per-replica `--jobs` values (defaults to `threads`);
    /// meaningful for [`TargetKind::Experiments`].
    pub jobs: Option<Vec<usize>>,
    /// Repo-relative path of the committed golden fixture.
    pub fixture: String,
    /// Experiment ids for [`TargetKind::Experiments`].
    pub experiments: Vec<String>,
    /// Replication count for [`TargetKind::Replications`].
    pub replications: Option<usize>,
    /// Oracle-pair keys that must each appear as a `PASS <key>` line
    /// ([`TargetKind::Verify`] only).
    pub expect_pairs: Vec<String>,
    /// Expected corpus scenario count from the machine-readable trailer.
    pub expect_scenarios: Option<usize>,
    /// Expected corpus master seed from the machine-readable trailer.
    pub expect_seed: Option<u64>,
    /// Substrings the canonical artifact must contain (any kind).
    pub expect_contains: Vec<String>,
}

/// The parsed manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Declared targets in manifest order.
    pub targets: Vec<TargetSpec>,
}

impl Manifest {
    /// Parse and validate manifest text.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let tables =
            toml_subset::read_tables(text, "target", SCHEMA_VERSION).map_err(|e| e.to_string())?;
        let targets: Vec<TargetSpec> = tables
            .iter()
            .map(TargetSpec::from_table)
            .collect::<Result<_, _>>()?;
        if targets.is_empty() {
            return Err("manifest declares no [[target]] tables".to_string());
        }
        let mut seen = std::collections::HashSet::new();
        for t in &targets {
            if !seen.insert(t.key.clone()) {
                return Err(format!("duplicate target key {:?}", t.key));
            }
        }
        Ok(Manifest { targets })
    }
}

impl TargetSpec {
    fn from_table(table: &Table) -> Result<TargetSpec, String> {
        let mut key = None;
        let mut kind = None;
        let mut description = None;
        let mut threads = None;
        let mut jobs = None;
        let mut fixture = None;
        let mut experiments = Vec::new();
        let mut replications = None;
        let mut expect_pairs = Vec::new();
        let mut expect_scenarios = None;
        let mut expect_seed = None;
        let mut expect_contains = Vec::new();
        for entry in &table.entries {
            let (k, v, lineno) = (&entry.key, &entry.value, entry.line);
            let fail = |what: &str| format!("line {lineno}: {k} must be {what}");
            match k.as_str() {
                "key" => key = Some(as_string(v).ok_or_else(|| fail("a string"))?),
                "kind" => {
                    let s = as_string(v).ok_or_else(|| fail("a string"))?;
                    kind = Some(TargetKind::from_key(&s).ok_or_else(|| {
                        format!(
                            "line {lineno}: unknown kind {s:?} (known: verify fabric \
                             replications sweeps experiments)"
                        )
                    })?);
                }
                "description" => description = Some(as_string(v).ok_or_else(|| fail("a string"))?),
                "threads" => {
                    threads = Some(
                        as_usize_list(v)
                            .ok_or_else(|| fail("a non-empty array of integers >= 1"))?,
                    )
                }
                "jobs" => {
                    jobs = Some(
                        as_usize_list(v)
                            .ok_or_else(|| fail("a non-empty array of integers >= 1"))?,
                    )
                }
                "fixture" => fixture = Some(as_string(v).ok_or_else(|| fail("a string"))?),
                "experiments" => {
                    experiments = as_string_list(v).ok_or_else(|| fail("an array of strings"))?
                }
                "replications" => {
                    replications = Some(as_usize(v).ok_or_else(|| fail("an integer >= 1"))?)
                }
                "expect-pairs" => {
                    expect_pairs = as_string_list(v).ok_or_else(|| fail("an array of strings"))?
                }
                "expect-scenarios" => {
                    expect_scenarios = Some(as_usize(v).ok_or_else(|| fail("an integer >= 1"))?)
                }
                "expect-seed" => match v {
                    Value::Int(i) if *i >= 0 => expect_seed = Some(*i as u64),
                    Value::Str(s) => {
                        // Seeds are often written in hex for legibility.
                        let trimmed = s.trim_start_matches("0x");
                        expect_seed = Some(u64::from_str_radix(trimmed, 16).map_err(|_| {
                            format!("line {lineno}: expect-seed string must be hex, got {s:?}")
                        })?);
                    }
                    _ => return Err(fail("a non-negative integer or a hex string")),
                },
                "expect-contains" => {
                    expect_contains =
                        as_string_list(v).ok_or_else(|| fail("an array of strings"))?
                }
                other => {
                    return Err(format!(
                        "line {lineno}: unknown target key {other:?} — the manifest is \
                         self-describing; add support in ss-conform before using new keys"
                    ))
                }
            }
        }
        let key = key.ok_or(format!("target at line {}: missing `key`", table.line))?;
        let require = |name: &str, ok: bool| {
            if ok {
                Ok(())
            } else {
                Err(format!("target {key:?}: missing `{name}`"))
            }
        };
        require("kind", kind.is_some())?;
        require("description", description.is_some())?;
        require("threads", threads.is_some())?;
        require("fixture", fixture.is_some())?;
        let kind = kind.expect("checked above");
        let threads: Vec<usize> = threads.expect("checked above");
        if threads.len() < 2 {
            return Err(format!(
                "target {key:?}: needs at least 2 replicas to compare (got {})",
                threads.len()
            ));
        }
        if let Some(jobs) = &jobs {
            if jobs.len() != threads.len() {
                return Err(format!(
                    "target {key:?}: `jobs` ({}) and `threads` ({}) must have equal length",
                    jobs.len(),
                    threads.len()
                ));
            }
        }
        if kind == TargetKind::Experiments && experiments.is_empty() {
            return Err(format!(
                "target {key:?}: kind = \"experiments\" requires a non-empty `experiments` list"
            ));
        }
        if kind == TargetKind::Replications && replications.is_none() {
            return Err(format!(
                "target {key:?}: kind = \"replications\" requires `replications`"
            ));
        }
        if !expect_pairs.is_empty() && kind != TargetKind::Verify {
            return Err(format!(
                "target {key:?}: `expect-pairs` only applies to kind = \"verify\""
            ));
        }
        Ok(TargetSpec {
            key,
            kind,
            description: description.expect("checked above"),
            threads,
            jobs,
            fixture: fixture.expect("checked above"),
            experiments,
            replications,
            expect_pairs,
            expect_scenarios,
            expect_seed,
            expect_contains,
        })
    }
}

fn as_string(v: &Value) -> Option<String> {
    v.as_str().map(str::to_string)
}

fn as_usize(v: &Value) -> Option<usize> {
    match v {
        Value::Int(i) if *i >= 1 => Some(*i as usize),
        _ => None,
    }
}

fn as_usize_list(v: &Value) -> Option<Vec<usize>> {
    match v {
        Value::List(items) if !items.is_empty() => items.iter().map(as_usize).collect(),
        _ => None,
    }
}

fn as_string_list(v: &Value) -> Option<Vec<String>> {
    match v {
        Value::List(items) => items.iter().map(as_string).collect(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
        schema = 1

        [[target]] # the one target
        key = "demo"
        kind = "sweeps"
        description = "demo target" # trailing comment
        threads = [1, 2, 4]
        fixture = "fixtures/conform/demo.txt"
        expect-contains = ["sweep turnpike"]
    "#;

    #[test]
    fn parses_a_minimal_manifest() {
        let m = Manifest::parse(MINIMAL).unwrap();
        assert_eq!(m.targets.len(), 1);
        let t = &m.targets[0];
        assert_eq!(t.key, "demo");
        assert_eq!(t.kind, TargetKind::Sweeps);
        assert_eq!(t.threads, vec![1, 2, 4]);
        assert_eq!(t.jobs, None);
        assert_eq!(t.expect_contains, vec!["sweep turnpike".to_string()]);
    }

    #[test]
    fn multi_line_arrays_join_into_one_logical_line() {
        let text = MINIMAL.replace(
            "expect-contains = [\"sweep turnpike\"]",
            "expect-contains = [\n  \"sweep turnpike\", # per-line comment\n  \"sweep [x]\",\n]",
        );
        let m = Manifest::parse(&text).unwrap();
        assert_eq!(
            m.targets[0].expect_contains,
            vec!["sweep turnpike".to_string(), "sweep [x]".to_string()]
        );
        let unclosed = MINIMAL.replace(
            "expect-contains = [\"sweep turnpike\"]",
            "expect-contains = [\n  \"sweep turnpike\",",
        );
        assert!(Manifest::parse(&unclosed)
            .unwrap_err()
            .contains("unclosed `[`"));
    }

    #[test]
    fn hex_seed_strings_parse() {
        let text = MINIMAL.replace("kind = \"sweeps\"", "kind = \"verify\"")
            + "\nexpect-seed = \"0xC0DE5EED\"\n";
        let m = Manifest::parse(&text).unwrap();
        assert_eq!(m.targets[0].expect_seed, Some(0xC0DE_5EED));
    }

    #[test]
    fn rejects_unknown_keys_kinds_and_schema() {
        assert!(
            Manifest::parse(&MINIMAL.replace("schema = 1", "schema = 2"))
                .unwrap_err()
                .contains("unsupported manifest schema")
        );
        assert!(
            Manifest::parse(&MINIMAL.replace("kind = \"sweeps\"", "kind = \"nope\""))
                .unwrap_err()
                .contains("unknown kind")
        );
        assert!(Manifest::parse(&format!("{MINIMAL}\ntypo-key = 3\n"))
            .unwrap_err()
            .contains("unknown target key"));
        assert!(Manifest::parse("")
            .unwrap_err()
            .contains("missing the top-level `schema`"));
    }

    #[test]
    fn rejects_structural_mistakes() {
        // Single replica: nothing to compare.
        assert!(
            Manifest::parse(&MINIMAL.replace("threads = [1, 2, 4]", "threads = [1]"))
                .unwrap_err()
                .contains("at least 2 replicas")
        );
        // jobs/threads length mismatch.
        assert!(Manifest::parse(&format!("{MINIMAL}\njobs = [1]\n"))
            .unwrap_err()
            .contains("equal length"));
        // Duplicate keys within a table.
        assert!(Manifest::parse(&format!("{MINIMAL}\nkey = \"again\"\n"))
            .unwrap_err()
            .contains("duplicate key"));
        // expect-pairs on a non-verify target.
        assert!(
            Manifest::parse(&format!("{MINIMAL}\nexpect-pairs = [\"x\"]\n"))
                .unwrap_err()
                .contains("only applies to kind = \"verify\"")
        );
    }

    #[test]
    fn comments_inside_strings_survive() {
        let text = MINIMAL.replace("demo target", "has a # inside");
        let m = Manifest::parse(&text).unwrap();
        assert_eq!(m.targets[0].description, "has a # inside");
    }
}
