//! Minimal JSON helpers for the `index_service` binary in ss-bench, which
//! records `BENCH_index_service.json`.
//!
//! The workspace builds offline with no serde (see `vendor/README.md`), and
//! the JSON it emits is flat enough that hand-assembled bodies plus
//! this escaper and the shared preamble fields are all that is needed.  The
//! helpers live here — rather than in ss-bench, where they started — because
//! the `host_env_fields` preamble reports the `SS_THREADS` contract this
//! crate owns.

/// Escape `s` for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Seconds since the unix epoch (0 if the clock is set before it).
pub fn unix_time() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The `host_logical_cpus` / `ss_threads_env` preamble fields every
/// hand-assembled writer records, two-space indented and comma-terminated.
///
/// On hosts with fewer than 4 logical CPUs an explicit `scaling_caveat`
/// field is added, so committed artifacts recorded on small containers
/// cannot be misread: a `speedup_vs_serial` of ≈1× there measures the
/// host's parallelism, not the engine's scaling curve.
pub fn host_env_fields() -> String {
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut out = format!("  \"host_logical_cpus\": {host},\n");
    match std::env::var("SS_THREADS") {
        Ok(v) => out.push_str(&format!("  \"ss_threads_env\": \"{}\",\n", escape(&v))),
        Err(_) => out.push_str("  \"ss_threads_env\": null,\n"),
    }
    if host < 4 {
        out.push_str(&format!(
            "  \"scaling_caveat\": \"recorded on a {host}-CPU host: speedup_vs_serial \\u2248 1x reflects host parallelism, not the engine's scaling headroom; regenerate on >= 4 cores for the real curve\",\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_env_fields_are_valid_json_lines() {
        let fields = host_env_fields();
        assert!(fields.contains("\"host_logical_cpus\": "));
        assert!(fields.contains("\"ss_threads_env\": "));
        assert!(fields.ends_with(",\n"));
        // The scaling caveat appears exactly when the host is too small to
        // measure a real speedup curve.
        let host = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert_eq!(fields.contains("\"scaling_caveat\""), host < 4);
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(escape("a\rb"), "a\\rb");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
