//! A tiny self-contained config value tree with hand-rolled TOML-subset
//! and JSON parsers — campaign specs must not pull a parsing dependency
//! into the simulator build (zero-dependency discipline, like
//! `sim_core::json` on the emit side).
//!
//! The TOML subset is exactly what a campaign grid needs: top-level
//! `key = value` pairs, one level of `[section]` tables, strings,
//! numbers, booleans, homogeneous-or-not arrays, and `#` comments. The
//! JSON parser accepts the same value tree spelled as one object. Both
//! produce the same [`Value`], so the rest of the crate never knows which
//! syntax the spec arrived in.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed config value. Numbers are uniformly `f64`: grid axes are
/// physical quantities and counts small enough that the 2⁵³ integer range
/// is not a constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
    Arr(Vec<Value>),
    Table(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Table lookup; `None` on non-tables and missing keys alike.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_table().and_then(|t| t.get(key))
    }

    /// Parse a spec in either syntax: a first non-space `{` means JSON,
    /// anything else is treated as the TOML subset.
    pub fn parse_auto(text: &str) -> Result<Value, ParseError> {
        match text.trim_start().chars().next() {
            Some('{') => parse_json(text),
            _ => parse_toml(text),
        }
    }
}

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// The deepest array/object nesting either parser accepts. A spec nests
/// three levels at most; the recursive descents would overflow a 2 MiB
/// thread stack near 10,000 levels, so deeper input is an error instead.
const MAX_DEPTH: usize = 128;

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// Parse the TOML subset: `key = value` lines, `[section]` headers, `#`
/// comments. Sections nest exactly one level deep (that is all a campaign
/// spec uses), and re-opening a section or re-assigning a key is an
/// error — silent last-writer-wins in a config file hides typos.
pub fn parse_toml(text: &str) -> Result<Value, ParseError> {
    let mut root: BTreeMap<String, Value> = BTreeMap::new();
    let mut section: Option<String> = None;
    for (i, raw) in text.lines().enumerate() {
        let ln = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return err(ln, "unterminated [section] header");
            };
            let name = name.trim();
            if name.is_empty() || !name.chars().all(is_key_char) {
                return err(ln, format!("bad section name {name:?}"));
            }
            if root.contains_key(name) {
                return err(ln, format!("section {name:?} opened twice"));
            }
            root.insert(name.to_string(), Value::Table(BTreeMap::new()));
            section = Some(name.to_string());
            continue;
        }
        let Some((key, val)) = line.split_once('=') else {
            return err(ln, "expected `key = value` or `[section]`");
        };
        let key = key.trim();
        if key.is_empty() || !key.chars().all(is_key_char) {
            return err(ln, format!("bad key {key:?}"));
        }
        let (value, rest) = parse_scalar_or_array(val.trim(), ln, 0)?;
        if !rest.trim().is_empty() {
            return err(ln, format!("trailing input after value: {rest:?}"));
        }
        let table = match &section {
            None => &mut root,
            Some(s) => match root.get_mut(s) {
                Some(Value::Table(t)) => t,
                _ => unreachable!("section inserted above"),
            },
        };
        if table.insert(key.to_string(), value).is_some() {
            return err(ln, format!("key {key:?} assigned twice"));
        }
    }
    Ok(Value::Table(root))
}

fn is_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Drop a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Parse one TOML value (scalar or `[...]` array, arrays nest) from the
/// front of `s`, `depth` arrays deep; returns the value and the
/// unconsumed tail.
fn parse_scalar_or_array(s: &str, ln: usize, depth: usize) -> Result<(Value, &str), ParseError> {
    let s = s.trim_start();
    if let Some(mut rest) = s.strip_prefix('[') {
        if depth == MAX_DEPTH {
            return err(ln, format!("arrays nested deeper than {MAX_DEPTH} levels"));
        }
        let mut items = Vec::new();
        loop {
            rest = rest.trim_start();
            if let Some(tail) = rest.strip_prefix(']') {
                return Ok((Value::Arr(items), tail));
            }
            let (v, tail) = parse_scalar_or_array(rest, ln, depth + 1)?;
            items.push(v);
            rest = tail.trim_start();
            if let Some(tail) = rest.strip_prefix(',') {
                rest = tail;
            } else if !rest.starts_with(']') {
                return err(ln, "expected `,` or `]` in array");
            }
        }
    }
    if let Some(rest) = s.strip_prefix('"') {
        let (string, tail) = parse_string_body(rest, ln)?;
        return Ok((Value::Str(string), tail));
    }
    // Bare scalar: read to the next delimiter.
    let end = s
        .find(|c: char| c == ',' || c == ']' || c.is_whitespace())
        .unwrap_or(s.len());
    let (tok, tail) = s.split_at(end);
    match tok {
        "true" => Ok((Value::Bool(true), tail)),
        "false" => Ok((Value::Bool(false), tail)),
        _ => match tok.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok((Value::Num(n), tail)),
            _ => err(ln, format!("unrecognized value {tok:?}")),
        },
    }
}

/// Consume a double-quoted string body (opening quote already eaten).
/// Escapes: `\" \\ \n \t \r`.
fn parse_string_body(s: &str, ln: usize) -> Result<(String, &str), ParseError> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &s[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                other => return err(ln, format!("bad escape {other:?}")),
            },
            _ => out.push(c),
        }
    }
    err(ln, "unterminated string")
}

/// Parse a JSON document into the same [`Value`] tree.
pub fn parse_json(text: &str) -> Result<Value, ParseError> {
    let mut p = Json {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err(p.line(), "trailing input after JSON document");
    }
    Ok(v)
}

struct Json<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Objects and arrays open around `pos`.
    depth: usize,
}

impl Json<'_> {
    fn line(&self) -> usize {
        1 + self.bytes[..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            err(self.line(), format!("expected {:?}", b as char))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.bytes.get(self.pos) {
            Some(&open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return err(
                        self.line(),
                        format!("nested deeper than {MAX_DEPTH} levels"),
                    );
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => err(self.line(), "unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            err(self.line(), format!("expected {word:?}"))
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut t = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Table(t));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            if t.insert(key.clone(), v).is_some() {
                return err(self.line(), format!("key {key:?} assigned twice"));
            }
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Table(t));
                }
                _ => return err(self.line(), "expected `,` or `}`"),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return err(self.line(), "expected `,` or `]`"),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        other => {
                            return err(self.line(), format!("bad escape {other:?}"));
                        }
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let s = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(s).map_err(|_| ParseError {
                        line: self.line(),
                        msg: "invalid UTF-8 in string".into(),
                    })?;
                    let c = text.chars().next().unwrap_or('\u{fffd}');
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return err(self.line(), "unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match tok.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => err(self.line(), format!("bad number {tok:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_subset_round_trip() {
        let v = parse_toml(
            r#"
            # campaign
            name = "demo"   # inline comment
            seeds = [1, 2, 3]
            nested = [[1, 2], [3]]
            flag = true
            [machine]
            groups = [8, 16]
            rate = 200.5
            "#,
        )
        .unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(v.get("seeds").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("flag"), Some(&Value::Bool(true)));
        let m = v.get("machine").unwrap();
        assert_eq!(m.get("rate").unwrap().as_num(), Some(200.5));
        assert_eq!(m.get("groups").unwrap().as_arr().unwrap().len(), 2);
        let nested = v.get("nested").unwrap().as_arr().unwrap();
        assert_eq!(nested[0].as_arr().unwrap().len(), 2);
    }

    #[test]
    fn toml_rejects_typos_loudly() {
        assert!(parse_toml("x = 1\nx = 2").is_err(), "double assignment");
        assert!(parse_toml("[a]\nk = 1\n[a]").is_err(), "double section");
        assert!(parse_toml("x 1").is_err(), "missing =");
        assert!(parse_toml("x = nope").is_err(), "bad scalar");
        assert!(parse_toml("x = [1, 2").is_err(), "unterminated array");
        let e = parse_toml("ok = 1\nbad = ?").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn toml_hash_inside_string_is_not_a_comment() {
        let v = parse_toml(r##"name = "a#b""##).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a#b"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let (open, close) = ("[".repeat(100_000), "]".repeat(100_000));
        let e = parse_toml(&format!("ok = 1\nseeds = {open}1{close}")).unwrap_err();
        assert_eq!((e.line, e.msg.contains("deeper than")), (2, true), "{e}");
        let e = parse_json(&format!("{{\n\"seeds\": {open}1{close}}}")).unwrap_err();
        assert_eq!((e.line, e.msg.contains("deeper than")), (2, true), "{e}");
        let at_cap = format!("x = {}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_toml(&at_cap).is_ok());
    }

    #[test]
    fn json_parses_the_same_tree() {
        let v = parse_json(
            r#"{"name": "demo", "seeds": [1, 2], "machine": {"rate": 200.5, "on": true, "x": null}}"#,
        )
        .unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(
            v.get("machine").unwrap().get("rate").unwrap().as_num(),
            Some(200.5)
        );
        assert_eq!(v.get("machine").unwrap().get("x"), Some(&Value::Null));
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json(r#"{"a": 1} trailing"#).is_err());
        assert!(parse_json(r#"{"a": 1, "a": 2}"#).is_err());
        assert!(parse_json(r#"{"a": inf}"#).is_err());
    }

    #[test]
    fn auto_detects_syntax() {
        assert!(matches!(
            Value::parse_auto(r#"  {"a": 1}"#),
            Ok(Value::Table(_))
        ));
        assert!(matches!(Value::parse_auto("a = 1"), Ok(Value::Table(_))));
    }
}
