//! The strict TOML-subset reader behind `lint.toml` and `conform.toml`.
//!
//! The workspace builds offline with no TOML crate (see `vendor/README.md`),
//! so this module reads the small subset both manifests need: a top-level
//! `schema = N` line, `[[name]]` array-of-tables headers for one table
//! name, `key = value` pairs whose values are strings, integers, booleans
//! or flat arrays (an array may span lines), and `#` comments.
//!
//! Structural mistakes are hard errors: a duplicate key within a table, a
//! missing or unsupported schema, any other top-level key and any other
//! table header.  Callers pull typed fields out of the returned tables and
//! reject the keys they do not know, so a typo cannot silently weaken a
//! gate.

use std::fmt;

/// A parsed scalar-or-array value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A double-quoted string (escapes `\n \t \" \\` resolved).
    Str(String),
    /// A decimal integer (`_` separators allowed).
    Int(i64),
    /// `true` or `false`.
    Bool(bool),
    /// A flat array of values.
    List(Vec<Value>),
}

impl Value {
    /// The TOML type name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::List(_) => "array",
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One `key = value` line of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The key.
    pub key: String,
    /// The value.
    pub value: Value,
    /// 1-based line where the entry starts.
    pub line: usize,
}

/// One `[[name]]` table: its header line and its entries in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// 1-based line of the `[[name]]` header.
    pub line: usize,
    /// The table's entries, keys unique.
    pub entries: Vec<Entry>,
}

/// A read error, located at a 1-based line when one applies.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    /// The offending line, if the error has one.
    pub line: Option<usize>,
    /// What is wrong.
    pub message: String,
}

impl Error {
    fn at(line: usize, message: String) -> Error {
        Error {
            line: Some(line),
            message,
        }
    }

    /// Render as `file:line: message` (or `file: message`).
    pub fn in_file(&self, file: &str) -> String {
        match self.line {
            Some(line) => format!("{file}:{line}: {}", self.message),
            None => format!("{file}: {}", self.message),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

/// Read a manifest whose top level holds only `schema = <schema>` and
/// whose tables are all `[[name]]` tables; returns the tables in order.
pub fn read_tables(text: &str, name: &str, schema: i64) -> Result<Vec<Table>, Error> {
    let header = format!("[[{name}]]");
    let mut top = Table {
        line: 0,
        entries: Vec::new(),
    };
    let mut tables: Vec<Table> = Vec::new();
    for (line, content) in logical_lines(text)? {
        if content == header {
            tables.push(Table {
                line,
                entries: Vec::new(),
            });
            continue;
        }
        if content.starts_with('[') {
            return Err(Error::at(
                line,
                format!("unsupported table header {content:?} (only {header})"),
            ));
        }
        let (key, value) = parse_assignment(&content)
            .map_err(|e| Error::at(line, format!("{e} in {content:?}")))?;
        let table = match tables.last_mut() {
            Some(table) => table,
            None => &mut top,
        };
        if table.entries.iter().any(|e| e.key == key) {
            return Err(Error::at(line, format!("duplicate key {key:?}")));
        }
        table.entries.push(Entry { key, value, line });
    }
    let Some(at) = top.entries.iter().position(|e| e.key == "schema") else {
        return Err(Error {
            line: None,
            message: "manifest is missing the top-level `schema` key".to_string(),
        });
    };
    let entry = top.entries.remove(at);
    match entry.value {
        Value::Int(v) if v == schema => {}
        Value::Int(v) => {
            return Err(Error::at(
                entry.line,
                format!("unsupported manifest schema {v} (this build understands {schema})"),
            ))
        }
        other => {
            return Err(Error::at(
                entry.line,
                format!("schema must be an integer, got {}", other.type_name()),
            ))
        }
    }
    if let Some(e) = top.entries.first() {
        return Err(Error::at(
            e.line,
            format!(
                "unknown top-level key {:?} (only `schema` and {header} tables)",
                e.key
            ),
        ));
    }
    Ok(tables)
}

/// Net `[`/`]` nesting change of a line, ignoring brackets inside strings.
fn bracket_delta(line: &str) -> i64 {
    let mut delta = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in line.chars() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '[' if !in_string => delta += 1,
            ']' if !in_string => delta -= 1,
            _ => escaped = false,
        }
    }
    delta
}

/// Comment-stripped, trimmed logical lines with their starting line number.
/// Physical lines are joined while an array `[` remains open, so manifests
/// can format long arrays one element per line.
fn logical_lines(text: &str) -> Result<Vec<(usize, String)>, Error> {
    let mut out = Vec::new();
    let mut pending: Option<(usize, String, i64)> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let delta = bracket_delta(line);
        match pending.take() {
            None if delta > 0 => pending = Some((lineno, line.to_string(), delta)),
            None => out.push((lineno, line.to_string())),
            Some((start, mut acc, depth)) => {
                acc.push(' ');
                acc.push_str(line);
                let depth = depth + delta;
                if depth > 0 {
                    pending = Some((start, acc, depth));
                } else {
                    out.push((start, acc));
                }
            }
        }
    }
    if let Some((start, _, _)) = pending {
        return Err(Error::at(start, "unclosed `[` in array value".to_string()));
    }
    Ok(out)
}

/// Strip a `#` comment not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

/// Parse `key = value`.
fn parse_assignment(line: &str) -> Result<(String, Value), String> {
    let (key, rest) = line
        .split_once('=')
        .ok_or("expected `key = value`".to_string())?;
    let key = key.trim();
    if key.is_empty()
        || !key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(format!("invalid key {key:?}"));
    }
    let (value, rest) = parse_value(rest.trim())?;
    if !rest.trim().is_empty() {
        return Err(format!("trailing content {:?} after value", rest.trim()));
    }
    Ok((key.to_string(), value))
}

/// Parse one value; returns it and the unconsumed remainder.
fn parse_value(text: &str) -> Result<(Value, &str), String> {
    let text = text.trim_start();
    if let Some(rest) = text.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((Value::Str(out), &rest[i + 1..])),
                '\\' => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    other => {
                        return Err(format!(
                            "unsupported string escape {:?}",
                            other.map(|o| o.1)
                        ))
                    }
                },
                c => out.push(c),
            }
        }
        return Err("unterminated string".to_string());
    }
    if let Some(mut rest) = text.strip_prefix('[') {
        let mut items = Vec::new();
        loop {
            rest = rest.trim_start();
            if let Some(after) = rest.strip_prefix(']') {
                return Ok((Value::List(items), after));
            }
            let (item, after) = parse_value(rest)?;
            items.push(item);
            rest = after.trim_start();
            if let Some(after) = rest.strip_prefix(',') {
                rest = after;
            } else if !rest.starts_with(']') {
                return Err("expected `,` or `]` in array".to_string());
            }
        }
    }
    if let Some(rest) = text.strip_prefix("true") {
        return Ok((Value::Bool(true), rest));
    }
    if let Some(rest) = text.strip_prefix("false") {
        return Ok((Value::Bool(false), rest));
    }
    let end = text
        .find(|c: char| !(c.is_ascii_digit() || c == '-' || c == '_'))
        .unwrap_or(text.len());
    let token = &text[..end];
    let cleaned: String = token.chars().filter(|&c| c != '_').collect();
    match cleaned.parse::<i64>() {
        Ok(i) => Ok((Value::Int(i), &text[end..])),
        Err(_) => Err(format!("cannot parse value starting at {text:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_keep_order_lines_and_values() {
        let text = "schema = 1 # version\n\n[[t]]\nname = \"a # b\"\nn = 1_000\n\
                    on = true\nxs = [\n  1, # first\n  2,\n]\n[[t]]\n";
        let tables = read_tables(text, "t", 1).unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!((tables[0].line, tables[1].line), (3, 11));
        let values: Vec<&Value> = tables[0].entries.iter().map(|e| &e.value).collect();
        assert_eq!(
            values,
            [
                &Value::Str("a # b".to_string()),
                &Value::Int(1000),
                &Value::Bool(true),
                &Value::List(vec![Value::Int(1), Value::Int(2)]),
            ]
        );
        assert_eq!(
            tables[0].entries[3].line, 7,
            "an array starts where it opens"
        );
        assert!(tables[1].entries.is_empty());
    }

    #[test]
    fn structural_mistakes_are_located_errors() {
        let err = |text: &str| read_tables(text, "t", 1).unwrap_err();
        assert_eq!(err("schema = 1\nschema = 1\n").line, Some(2));
        assert!(err("schema = 1\nschema = 1\n")
            .message
            .contains("duplicate key"));
        assert!(err("schema = 1\n[t]\n")
            .message
            .contains("unsupported table header"));
        assert!(err("schema = 1\n[[u]]\n").message.contains("(only [[t]])"));
        assert!(err("schema = \"1\"\n")
            .message
            .contains("must be an integer"));
        assert!(err("schema = 1\nx = \"open\n")
            .message
            .contains("unterminated string"));
        assert!(err("schema = 1\nx = 1 2\n")
            .message
            .contains("trailing content"));
        assert!(err("schema = 1\nx = \"\\q\"\n")
            .message
            .contains("unsupported string escape"));
        assert_eq!(err("").line, None);
        assert_eq!(
            err("schema = 1\ny = 2\n").in_file("m.toml"),
            "m.toml:2: unknown top-level key \"y\" (only `schema` and [[t]] tables)"
        );
        assert_eq!(
            err("schema = 3\n").to_string(),
            "line 1: unsupported manifest schema 3 (this build understands 1)"
        );
    }
}
