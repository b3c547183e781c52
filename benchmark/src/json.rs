//! Full-precision JSON output.
//!
//! `gist_obs::json::Json` renders floats with three decimals, which is
//! right for byte-stable reports but would round measured times; the
//! benchmark reports every value with all its digits. Parsing reuses
//! [`Json::parse`].

use gist_obs::json::Json;

/// Renders `value` compactly, floats in Rust's shortest round-trip form.
/// Non-finite floats render as `null`.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write(value, &mut out);
    out
}

fn write(value: &Json, out: &mut String) {
    match value {
        Json::F64(x) if x.is_finite() => out.push_str(&x.to_string()),
        Json::F64(_) => out.push_str("null"),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&Json::Str(key.clone()).render());
                out.push(':');
                write(item, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.render()),
    }
}

/// A member of an object, by key.
pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A number of any JSON numeric form as `f64`.
pub fn number(value: &Json) -> Option<f64> {
    match *value {
        Json::F64(x) => Some(x),
        Json::U64(n) => Some(n as f64),
        Json::I64(n) => Some(n as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_keep_every_digit_and_round_trip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::F64(0.123456789)),
            (
                "b".into(),
                Json::Arr(vec![Json::U64(3), Json::Str("x\"y".into())]),
            ),
        ]);
        let text = render(&v);
        assert_eq!(text, r#"{"a":0.123456789,"b":[3,"x\"y"]}"#);
        let back = Json::parse(&text).unwrap();
        assert_eq!(get(&back, "a").and_then(number), Some(0.123456789));
    }
}
