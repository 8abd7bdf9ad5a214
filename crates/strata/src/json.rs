//! A streaming JSON writer: the one place in the workspace that knows
//! JSON's string escaping, separators and `null` (the workspace carries
//! no serde). Every document the workspace emits is written through it.
//! Members are written in call order, so a renderer that iterates
//! ordered maps renders equal values as equal bytes.

use std::fmt::{Display, Write as _};

/// An in-progress JSON document, built through [`Json::object`]. Keyed
/// methods write object members; `item_*` methods write array elements.
pub struct Json {
    out: String,
    /// The next member or element needs a leading comma.
    comma: bool,
}

impl Json {
    /// Build one JSON object: `f` writes its members.
    pub fn object(f: impl FnOnce(&mut Json)) -> String {
        let mut j = Json {
            out: String::with_capacity(1024),
            comma: false,
        };
        j.nest('{', '}', f);
        j.out
    }

    /// A number, boolean or preformatted numeric value (such as
    /// `format_args!("{x:.1}")`), written as-is.
    pub fn num(&mut self, key: &str, value: impl Display) -> &mut Json {
        self.key(key);
        self.raw(value);
        self
    }

    /// Like [`Json::num`], with `None` written as `null`.
    pub fn num_or_null(&mut self, key: &str, value: Option<impl Display>) -> &mut Json {
        match value {
            Some(v) => self.num(key, v),
            None => self.num(key, "null"),
        }
    }

    /// A string, escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Json {
        self.key(key);
        self.quote(value);
        self
    }

    /// Like [`Json::str`], with `None` written as `null`.
    pub fn str_or_null(&mut self, key: &str, value: Option<&str>) -> &mut Json {
        match value {
            Some(v) => self.str(key, v),
            None => self.num(key, "null"),
        }
    }

    /// A nested object: `f` writes its members.
    pub fn obj(&mut self, key: &str, f: impl FnOnce(&mut Json)) -> &mut Json {
        self.key(key);
        self.nest('{', '}', f);
        self
    }

    /// An array: `f` writes its elements with the `item_*` methods.
    pub fn arr(&mut self, key: &str, f: impl FnOnce(&mut Json)) -> &mut Json {
        self.key(key);
        self.nest('[', ']', f);
        self
    }

    /// An object array element: `f` writes its members.
    pub fn item_obj(&mut self, f: impl FnOnce(&mut Json)) -> &mut Json {
        self.separate();
        self.nest('{', '}', f);
        self
    }

    /// A string array element, escaped.
    pub fn item_str(&mut self, value: &str) -> &mut Json {
        self.separate();
        self.quote(value);
        self
    }

    /// A numeric array element, written as-is.
    pub fn item_num(&mut self, value: impl Display) -> &mut Json {
        self.separate();
        self.raw(value);
        self
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn key(&mut self, key: &str) {
        self.separate();
        self.quote(key);
        self.out.push(':');
    }

    fn raw(&mut self, value: impl Display) {
        // Writing into a `String` cannot fail.
        let _ = write!(self.out, "{value}");
    }

    fn nest(&mut self, open: char, close: char, f: impl FnOnce(&mut Json)) {
        self.out.push(open);
        self.comma = false;
        f(self);
        self.out.push(close);
        self.comma = true;
    }

    /// Write `s` as a JSON string literal. Every byte that needs an
    /// escape is ASCII, so the unescaped runs between them are pushed
    /// whole.
    fn quote(&mut self, s: &str) {
        self.out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            self.out.push_str(&s[run..i]);
            match b {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                _ => self.raw(format_args!("\\u{b:04x}")),
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quoted(s: &str) -> String {
        Json::object(|j| {
            j.str("s", s);
        })
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_chars() {
        assert_eq!(quoted("a\\/b \"q\""), r#"{"s":"a\\/b \"q\""}"#);
        assert_eq!(quoted("x\ny\tz\r"), r#"{"s":"x\ny\tz\r"}"#);
        assert_eq!(quoted("\u{1}\u{1f}"), r#"{"s":"\u0001\u001f"}"#);
        assert_eq!(quoted("é → ü"), "{\"s\":\"é → ü\"}");
        assert_eq!(quoted(""), r#"{"s":""}"#);
    }

    #[test]
    fn keys_are_escaped_too() {
        let doc = Json::object(|j| {
            j.num("a\"b", 1);
        });
        assert_eq!(doc, r#"{"a\"b":1}"#);
    }

    #[test]
    fn empty_containers_and_separators() {
        assert_eq!(Json::object(|_| {}), "{}");
        let doc = Json::object(|j| {
            j.arr("a", |_| {}).obj("b", |_| {});
        });
        assert_eq!(doc, r#"{"a":[],"b":{}}"#);
        let doc = Json::object(|j| {
            j.arr("xs", |j| {
                j.item_obj(|_| {}).item_str("s").item_num(2);
                j.item_obj(|j| {
                    j.num("k", true);
                });
            })
            .num("after", false);
        });
        assert_eq!(doc, r#"{"xs":[{},"s",2,{"k":true}],"after":false}"#);
    }

    #[test]
    fn absent_values_render_null() {
        let doc = Json::object(|j| {
            j.str_or_null("s", None)
                .str_or_null("t", Some("x"))
                .num_or_null("n", None::<u64>)
                .num_or_null("m", Some(7));
        });
        assert_eq!(doc, r#"{"s":null,"t":"x","n":null,"m":7}"#);
    }

    #[test]
    fn fixed_decimals_render_through_format_args() {
        let doc = Json::object(|j| {
            j.num("ms", format_args!("{:.1}", 1234.56))
                .num("pps", format_args!("{}.{:03}", 2500 / 1000, 2500 % 1000))
                .num("r", format_args!("{:.0}", 99.7));
        });
        assert_eq!(doc, r#"{"ms":1234.6,"pps":2.500,"r":100}"#);
    }
}
