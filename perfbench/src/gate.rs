//! The correctness gate: committed fixtures reproduced byte for byte, and
//! experiment reports compared with their sections of `EXPERIMENTS.md`.
//! The gate only reads these files; it never writes or blesses them.

use std::collections::BTreeMap;

pub const FABRIC_FIXTURE: &str = "fixtures/conform/fabric-check.txt";
pub const VERIFY_FIXTURE: &str = "fixtures/conform/verify-check.txt";
pub const EXPERIMENTS_DOC: &str = "EXPERIMENTS.md";

/// Outcomes of the checks made so far, by name.
#[derive(Default)]
pub struct Gate {
    pub checks: Vec<(String, Result<(), String>)>,
}

impl Gate {
    pub fn record(&mut self, name: &str, outcome: Result<(), String>) {
        self.checks.push((name.to_string(), outcome));
    }

    pub fn passed(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
    }

    pub fn lines(&self) -> Vec<String> {
        self.checks
            .iter()
            .map(|(name, r)| match r {
                Ok(()) => format!("gate {name}: ok"),
                Err(e) => format!("gate {name}: FAILED: {e}"),
            })
            .collect()
    }
}

pub fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// `Ok` when `actual` equals `expected` byte for byte; otherwise the offset
/// and line of the first differing byte.
pub fn compare(expected: &str, actual: &str) -> Result<(), String> {
    let (e, a) = (expected.as_bytes(), actual.as_bytes());
    match e.iter().zip(a).position(|(x, y)| x != y) {
        None if e.len() == a.len() => Ok(()),
        at => {
            let at = at.unwrap_or(e.len().min(a.len()));
            let line = e[..at].iter().filter(|&&b| b == b'\n').count() + 1;
            Err(format!(
                "first difference at byte {at} (line {line}); expected {} bytes, got {}",
                e.len(),
                a.len()
            ))
        }
    }
}

/// Compare `actual` with the committed fixture at `path`.
pub fn check_fixture(path: &str, actual: &str) -> Result<(), String> {
    compare(&read(path)?, actual)
}

/// The body of every `## E<n> — ...` section of `EXPERIMENTS.md`: the
/// text between the heading's blank line and the `*(E<n> wall-clock: ...)*`
/// footer, which is what the harness's report is trimmed to.
pub fn experiment_sections(doc: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for block in doc.split("\n## ").skip(1) {
        let Some((id, _)) = block.split_once(" — ") else {
            continue;
        };
        let Some((_, body)) = block.split_once("\n\n") else {
            continue;
        };
        let footer = format!("\n\n*({id} wall-clock:");
        if let Some(end) = body.find(&footer) {
            out.insert(id.to_string(), body[..end].to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(path: &str) -> String {
        read(&format!("{}/../{path}", env!("CARGO_MANIFEST_DIR"))).expect("committed file")
    }

    #[test]
    fn a_fixture_with_one_byte_changed_fails_the_gate() {
        let fixture = repo_file(FABRIC_FIXTURE);
        assert_eq!(compare(&fixture, &fixture), Ok(()));
        let mut bytes = fixture.clone().into_bytes();
        let at = bytes.len() / 2;
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        let changed = String::from_utf8(bytes).expect("ascii fixture");
        let err = compare(&fixture, &changed).expect_err("one changed byte must fail");
        assert!(err.contains(&format!("byte {at}")), "{err}");
        let truncated = &fixture[..fixture.len() - 1];
        assert!(compare(&fixture, truncated).is_err());
    }

    #[test]
    fn every_experiment_but_e21_has_a_section() {
        let sections = experiment_sections(&repo_file(EXPERIMENTS_DOC));
        for n in (1..=22).filter(|&n| n != 21) {
            let body = &sections[&format!("E{n}")];
            assert!(!body.is_empty() && !body.contains("wall-clock:"), "E{n}");
        }
    }
}
