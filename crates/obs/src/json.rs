//! A minimal JSON parser and JSON-Schema-subset validator.
//!
//! The build environment is offline, so the schema gate cannot pull in serde
//! or a full JSON Schema implementation. This module implements exactly what
//! the gate needs: a strict recursive-descent parser into [`JsonValue`] and a
//! validator for the schema subset used by `schemas/profile.schema.json` —
//! `type` (single or list), `properties`, `required`, `items`, `enum` (of
//! strings) and `minimum`. Unknown schema keywords are ignored, matching
//! JSON Schema's open-world semantics.

/// A parsed JSON document. Objects preserve key order (emission order is
/// deterministic across the repo, and golden tests compare bytes).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// All JSON numbers parse as `f64`; the profile's counters stay well
    /// below 2^53 so the round-trip is exact.
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The subset validator's name for this value's type.
    fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser recurses
/// once per level; the limit turns a pathological document (say 200 000
/// `[`) into an error instead of a stack overflow. Every artifact the repo
/// writes nests fewer than ten levels deep.
pub const MAX_DEPTH: usize = 256;

/// Parse a JSON document (RFC 8259). Returns the value or a message with the
/// byte offset of the first error. Beyond the grammar — which already rules
/// out leading zeros such as `01`, a bare `1.` or `.5`, and trailing
/// non-whitespace — the parser rejects what a schema gate must not let
/// through: duplicate object keys, numbers that overflow to infinity
/// (`1e999`; the repo writes non-finite values as `null`), and nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else {
        return Err("unexpected end of input".to_string());
    };
    if matches!(c, b'{' | b'[') && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match c {
        b'{' => parse_object(bytes, pos, depth + 1),
        b'[' => parse_array(bytes, pos, depth + 1),
        b'"' => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        b't' => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        b'f' => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        b'n' => parse_literal(bytes, pos, "null", JsonValue::Null),
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        _ => Err(format!("unexpected byte '{}' at {}", c as char, *pos)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

/// `number = [ "-" ] ( "0" / [1-9] *DIGIT ) [ "." 1*DIGIT ] [ ("e" / "E") [ "+" / "-" ] 1*DIGIT ]`,
/// and its value must be finite.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    let bad = || format!("invalid number at byte {start}");
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(bad()),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(bad());
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(bad());
        }
    }
    if bytes.get(*pos).is_some_and(|b| b.is_ascii_digit()) {
        return Err(format!("leading zero in number at byte {start}"));
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| bad())?;
    let value: f64 = text.parse().map_err(|_| bad())?;
    if !value.is_finite() {
        return Err(format!("number out of range at byte {start}"));
    }
    Ok(JsonValue::Num(value))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                        *pos += 4;
                        // Surrogate pairs are not needed by any profile field;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos - 1)),
                }
            }
            _ => {
                // Re-decode the UTF-8 sequence starting at c.
                let len = utf8_len(c);
                let seq = bytes
                    .get(*pos - 1..*pos - 1 + len)
                    .ok_or("truncated UTF-8 sequence")?;
                let s = std::str::from_utf8(seq).map_err(|_| "invalid UTF-8 in string")?;
                out.push_str(s);
                *pos += len - 1;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key_at = *pos;
        let key = parse_string(bytes, pos)?;
        if members.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key {key:?} at byte {key_at}"));
        }
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Validate `value` against `schema` (the subset described in the module
/// docs). Returns every violation found, each prefixed with a JSON-pointer
/// style location; an empty `Ok(())` means the document conforms.
pub fn validate_schema(value: &JsonValue, schema: &JsonValue) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    validate_at(value, schema, "$", &mut errors);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn validate_at(value: &JsonValue, schema: &JsonValue, path: &str, errors: &mut Vec<String>) {
    if let Some(ty) = schema.get("type") {
        let allowed: Vec<&str> = match ty {
            JsonValue::Str(s) => vec![s.as_str()],
            JsonValue::Arr(list) => list
                .iter()
                .filter_map(|v| match v {
                    JsonValue::Str(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect(),
            _ => vec![],
        };
        if !type_matches(value, &allowed) {
            errors.push(format!(
                "{path}: expected type {allowed:?}, got {}",
                value.type_name()
            ));
            return; // Deeper checks would only cascade.
        }
    }
    if let (Some(JsonValue::Num(min)), JsonValue::Num(x)) = (schema.get("minimum"), value) {
        if x < min {
            errors.push(format!("{path}: {x} below minimum {min}"));
        }
    }
    if let (Some(JsonValue::Arr(options)), JsonValue::Str(s)) = (schema.get("enum"), value) {
        let ok = options
            .iter()
            .any(|o| matches!(o, JsonValue::Str(v) if v == s));
        if !ok {
            errors.push(format!("{path}: {s:?} not in enum"));
        }
    }
    if let Some(JsonValue::Arr(required)) = schema.get("required") {
        for r in required {
            if let JsonValue::Str(key) = r {
                if value.get(key).is_none() {
                    errors.push(format!("{path}: missing required member {key:?}"));
                }
            }
        }
    }
    if let (Some(JsonValue::Obj(props)), JsonValue::Obj(_)) = (schema.get("properties"), value) {
        for (key, sub) in props {
            if let Some(member) = value.get(key) {
                validate_at(member, sub, &format!("{path}.{key}"), errors);
            }
        }
    }
    if let (Some(item_schema), JsonValue::Arr(items)) = (schema.get("items"), value) {
        for (i, item) in items.iter().enumerate() {
            validate_at(item, item_schema, &format!("{path}[{i}]"), errors);
        }
    }
}

fn type_matches(value: &JsonValue, allowed: &[&str]) -> bool {
    allowed.iter().any(|&t| match t {
        "integer" => matches!(value, JsonValue::Num(x) if x.fract() == 0.0),
        "number" => matches!(value, JsonValue::Num(_)),
        other => other == value.type_name(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_round_trip_basics() {
        let v = parse_json(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": null, "d": true}"#).unwrap();
        assert_eq!(v.get("b"), Some(&JsonValue::Str("x\ny".to_string())));
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.5),
                JsonValue::Num(-300.0)
            ]))
        );
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn rejects_leading_zeros_and_malformed_numbers() {
        for bad in [
            "01", "-01", "00", "[007]", "1.", ".5", "-", "1e", "1e+", "+1", "1.e3", "0x10", "--1",
            "1.5.2",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} must be rejected");
        }
        for (good, want) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("0.5", 0.5),
            ("-0.25e1", -2.5),
            ("10", 10.0),
            ("1E+2", 100.0),
            ("3e-2", 0.03),
        ] {
            assert_eq!(parse_json(good), Ok(JsonValue::Num(want)), "{good:?}");
        }
    }

    #[test]
    fn rejects_non_finite_numbers() {
        for bad in ["1e999", "-1e999", "[1, 2e400]", "{\"x\": 1.8e308}"] {
            let err = parse_json(bad).unwrap_err();
            assert!(err.contains("out of range"), "{bad:?}: {err}");
        }
        // Underflow to zero is finite and stays accepted.
        assert_eq!(parse_json("1e-999"), Ok(JsonValue::Num(0.0)));
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse_json(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert!(err.contains("duplicate key \"a\""), "{err}");
        assert!(
            parse_json(r#"{"x": {"a": 1, "a": 1}}"#).is_err(),
            "nested too"
        );
        // The same key in sibling objects is fine.
        assert!(parse_json(r#"[{"a": 1}, {"a": 2}]"#).is_ok());
    }

    #[test]
    fn rejects_nesting_past_the_limit_without_overflowing() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_json(&deep(MAX_DEPTH)).is_ok());
        let err = parse_json(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // 200 000 unclosed brackets used to overflow the stack.
        assert!(parse_json(&"[".repeat(200_000)).is_err());
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse_json(&objects).is_err());
    }

    #[test]
    fn parses_unicode_strings() {
        let v = parse_json("\"caf\u{e9} \\u0041\"").unwrap();
        assert_eq!(v, JsonValue::Str("caf\u{e9} A".to_string()));
    }

    #[test]
    fn validator_checks_types_required_and_items() {
        let schema = parse_json(
            r#"{
                "type": "object",
                "required": ["n", "tags"],
                "properties": {
                    "n": {"type": "integer", "minimum": 0},
                    "tags": {"type": "array", "items": {"type": "string"}},
                    "mode": {"type": "string", "enum": ["a", "b"]}
                }
            }"#,
        )
        .unwrap();
        let good = parse_json(r#"{"n": 3, "tags": ["x"], "mode": "a"}"#).unwrap();
        assert!(validate_schema(&good, &schema).is_ok());

        let bad = parse_json(r#"{"n": -1.5, "tags": ["x", 7], "mode": "z"}"#).unwrap();
        let errors = validate_schema(&bad, &schema).unwrap_err();
        let text = errors.join("; ");
        assert!(text.contains("$.n"), "{text}");
        assert!(text.contains("$.tags[1]"), "{text}");
        assert!(text.contains("enum"), "{text}");
    }

    #[test]
    fn validator_reports_missing_required() {
        let schema = parse_json(r#"{"type": "object", "required": ["x"]}"#).unwrap();
        let errors = validate_schema(&parse_json("{}").unwrap(), &schema).unwrap_err();
        assert!(errors[0].contains("missing required member \"x\""));
    }
}
