//! A strict JSON parser for the tests that pin documents this workspace
//! renders by hand — `TelemetrySnapshot::to_json` above all.
//!
//! The workspace vendors a no-op `serde`, so the snapshot is rendered with
//! `format!` and the only way to hold it to the grammar is to parse it
//! with something that forgives nothing: objects, arrays, strings without
//! escapes beyond `\"`, `\\`, `\n` and `\t`, exactly the JSON number
//! grammar, booleans, and null; trailing data is an error.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {}, found {:?}",
            byte as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|&b| b as char),
            *pos
        )),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected '{word}' at byte {}", *pos))
    }
}

/// Parses exactly the JSON number grammar,
/// `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`, consuming no
/// byte past the match. Anything looser (the previous version slurped
/// every sign/dot/exponent byte in sight and let `f64::parse` arbitrate)
/// quietly accepts non-JSON forms `f64::parse` happens to like — `1.`,
/// `01` — and turns digit soup like `1.2.3` into confusing
/// whole-token errors instead of a clean stop at the first bad byte.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let first = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > first
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: a lone 0, or a nonzero digit then any digits —
    // leading zeros are not JSON.
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(format!("bad number at byte {start}: no integer digits")),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(format!("bad number at byte {start}: no fraction digits"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(format!("bad number at byte {start}: no exponent digits"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("number bytes are ASCII");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number '{text}' at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    other => {
                        return Err(format!(
                            "unsupported escape {:?} at byte {}",
                            other.map(|&b| b as char),
                            *pos
                        ))
                    }
                }
                *pos += 1;
            }
            Some(&b) => {
                // The snapshot renderer writes plain ASCII; pass through
                // whatever UTF-8 continuation bytes arrive regardless.
                out.push(b as char);
                *pos += 1;
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {}, found {:?}",
                    *pos,
                    other.map(|&b| b as char)
                ))
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {}, found {:?}",
                    *pos,
                    other.map(|&b| b as char)
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAPSHOT: &str = r#"{
      "version": 1,
      "snapshot": "powerdial-telemetry",
      "apps": [ { "app": 0, "beat_latency_ns": { "count": 2280, "mean": 33324561.4 } } ]
    }"#;

    #[test]
    fn parser_round_trips_benchmark_shapes() {
        let doc = Json::parse(SNAPSHOT).unwrap();
        assert_eq!(
            doc.get("snapshot").and_then(Json::as_str),
            Some("powerdial-telemetry")
        );
        assert_eq!(
            doc.get("apps").and_then(Json::as_array).unwrap()[0]
                .get("beat_latency_ns")
                .and_then(|h| h.get("mean"))
                .and_then(Json::as_f64),
            Some(33324561.4)
        );
        let arr = Json::parse("[1, -2.5, 3e2, true, false, null, \"a\\\"b\"]").unwrap();
        let items = arr.as_array().unwrap();
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[2].as_f64(), Some(300.0));
        assert_eq!(items[3], Json::Bool(true));
        assert_eq!(items[5], Json::Null);
        assert_eq!(items[6].as_str(), Some("a\"b"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{} junk").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    /// Regression: `parse_number` used to slurp every sign/dot/exponent
    /// byte and let `f64::parse` arbitrate, accepting non-JSON forms and
    /// mangling digit soup. Only the JSON number grammar passes now.
    #[test]
    fn malformed_number_rejection() {
        for soup in [
            "--1", "1.2.3", "1e", "1.", "01", "-01", "1e+", "1e-", "1..2", "1e5e5", "-.5", "-",
            "0x10", "1 2",
        ] {
            assert!(
                Json::parse(soup).is_err(),
                "digit soup {soup:?} must be rejected"
            );
            assert!(
                Json::parse(&format!("[{soup}]")).is_err(),
                "digit soup {soup:?} must be rejected inside a document"
            );
        }
        // The grammar still admits everything the snapshot renderer (and
        // JSON) produces.
        for (text, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("42", 42.0),
            ("-17", -17.0),
            ("41.45", 41.45),
            ("0.001", 0.001),
            ("1e5", 1e5),
            ("1E5", 1e5),
            ("1.5e-3", 1.5e-3),
            ("-2.25E+2", -225.0),
        ] {
            assert_eq!(
                Json::parse(text).unwrap().as_f64(),
                Some(value),
                "valid JSON number {text:?} must parse"
            );
        }
    }
}
