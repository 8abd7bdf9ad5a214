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

/// Nesting deeper than this is refused, so hostile input cannot
/// exhaust the stack.
const MAX_DEPTH: usize = 64;

/// Every scalar leaf of the JSON document `doc`, in document order:
/// its path (decoded object keys and array indices joined by `.`) and
/// its raw text (a number, `true`, `false`, `null`, or a string
/// literal with its quotes). `None` unless `doc` is exactly one
/// well-formed JSON value, give or take surrounding whitespace.
pub fn leaves(doc: &str) -> Option<Vec<(String, &str)>> {
    let mut out = Vec::new();
    walk_leaves(doc, &mut String::new(), |path, raw| {
        out.push((path.to_string(), raw));
    })?;
    Some(out)
}

/// [`leaves`] without collecting them: `visit` sees each leaf's path
/// and raw text as it is walked. `path` is the caller's buffer,
/// cleared first and reused for every path, so a walk allocates
/// nothing once the buffer has grown to the longest key path. `None`
/// when `doc` is not well-formed; the leaves before the fault have
/// been visited by then.
pub fn walk_leaves<'a>(
    doc: &'a str,
    path: &mut String,
    visit: impl FnMut(&str, &'a str),
) -> Option<()> {
    path.clear();
    let mut walk = Walk { doc, at: 0, visit };
    walk.value(path, 0)?;
    walk.ws();
    (walk.at == doc.len()).then_some(())
}

/// The cursor of [`walk_leaves`].
struct Walk<'a, F> {
    doc: &'a str,
    at: usize,
    visit: F,
}

impl<'a, F: FnMut(&str, &'a str)> Walk<'a, F> {
    fn peek(&self) -> Option<u8> {
        self.doc.as_bytes().get(self.at).copied()
    }

    /// Step over `b` if it is next.
    fn skip(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.at += usize::from(hit);
        hit
    }

    /// Step over a run of bytes matching `f`; false if it is empty.
    fn run(&mut self, f: impl Fn(u8) -> bool) -> bool {
        let from = self.at;
        while self.peek().is_some_and(&f) {
            self.at += 1;
        }
        self.at > from
    }

    fn ws(&mut self) {
        self.run(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn value(&mut self, path: &mut String, depth: usize) -> Option<()> {
        self.ws();
        let (start, base) = (self.at, path.len());
        match self.peek()? {
            b'{' | b'[' if depth < MAX_DEPTH => return self.container(path, depth),
            b'"' => self.string(None)?,
            b't' | b'f' | b'n' => {
                let word = ["true", "false", "null"]
                    .into_iter()
                    .find(|w| self.doc[start..].starts_with(w))?;
                self.at += word.len();
            }
            _ => self.number()?,
        }
        path.truncate(base);
        (self.visit)(path, &self.doc[start..self.at]);
        Some(())
    }

    /// An object or array: each member's key or index extends `path`
    /// while its value is walked.
    fn container(&mut self, path: &mut String, depth: usize) -> Option<()> {
        let close = if self.peek() == Some(b'{') {
            b'}'
        } else {
            b']'
        };
        self.at += 1;
        self.ws();
        let base = path.len();
        let mut index = 0;
        while !self.skip(close) {
            if index > 0 && !self.skip(b',') {
                return None;
            }
            if base > 0 {
                path.push('.');
            }
            if close == b'}' {
                self.ws();
                self.string(Some(path))?;
                self.ws();
                self.skip(b':').then_some(())?;
            } else {
                let _ = write!(path, "{index}");
            }
            self.value(path, depth + 1)?;
            path.truncate(base);
            self.ws();
            index += 1;
        }
        Some(())
    }

    /// A string literal, decoded onto the end of `into` when given
    /// (an object key) and only checked otherwise (a leaf value).
    fn string(&mut self, mut into: Option<&mut String>) -> Option<()> {
        self.skip(b'"').then_some(())?;
        loop {
            let from = self.at;
            self.run(|b| !matches!(b, b'"' | b'\\' | 0..=0x1f));
            if let Some(into) = into.as_mut() {
                into.push_str(&self.doc[from..self.at]);
            }
            if self.skip(b'"') {
                return Some(());
            }
            self.at += 2;
            let c = match self.doc.as_bytes().get(self.at - 2..self.at)? {
                [b'\\', b'u'] => self.unicode()?,
                [b'\\', b'b'] => '\u{8}',
                [b'\\', b'f'] => '\u{c}',
                [b'\\', b'n'] => '\n',
                [b'\\', b'r'] => '\r',
                [b'\\', b't'] => '\t',
                [b'\\', b @ (b'"' | b'\\' | b'/')] => char::from(*b),
                _ => return None,
            };
            if let Some(into) = into.as_mut() {
                into.push(c);
            }
        }
    }

    /// The hex digits after `\u`, joining a surrogate pair.
    fn unicode(&mut self) -> Option<char> {
        let high = self.hex4()?;
        if !(0xD800..0xDC00).contains(&high) {
            return char::from_u32(high);
        }
        self.doc[self.at..].starts_with("\\u").then_some(())?;
        self.at += 2;
        let low = self
            .hex4()?
            .checked_sub(0xDC00)
            .filter(|low| *low < 0x400)?;
        char::from_u32(0x10000 + ((high - 0xD800) << 10) + low)
    }

    fn hex4(&mut self) -> Option<u32> {
        let digits = self.doc.get(self.at..self.at + 4)?;
        self.at += 4;
        digits
            .bytes()
            .all(|b| b.is_ascii_hexdigit())
            .then_some(())?;
        u32::from_str_radix(digits, 16).ok()
    }

    /// `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Option<()> {
        let digits = |w: &mut Self| w.run(|b| b.is_ascii_digit());
        self.skip(b'-');
        let int = self.skip(b'0') || digits(self);
        let frac = !self.skip(b'.') || digits(self);
        let exp = !(self.skip(b'e') || self.skip(b'E')) || {
            let _ = self.skip(b'+') || self.skip(b'-');
            digits(self)
        };
        (int && frac && exp).then_some(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code
    use super::*;
    use proptest::prelude::*;

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

    fn owned<'a>(pairs: &[(&str, &'a str)]) -> Vec<(String, &'a str)> {
        pairs.iter().map(|&(p, v)| (p.to_string(), v)).collect()
    }

    #[test]
    fn leaves_walk_writer_output_in_document_order() {
        let doc = Json::object(|j| {
            j.str("a\"b", "x\\y")
                .num("n", 7)
                .obj("empty", |_| {})
                .arr("none", |_| {})
                .arr("rows", |j| {
                    j.item_obj(|j| {
                        j.num("ok", true);
                    })
                    .item_obj(|j| {
                        j.num("ok", false).str_or_null("s", None);
                    })
                    .item_str("é")
                    .item_num(-3);
                })
                .str("\u{1}\\é", "\u{1}")
                .num("pps", format_args!("{}.{:03}", 2500 / 1000, 2500 % 1000));
        }) + "\n";
        assert_eq!(
            leaves(&doc).unwrap(),
            owned(&[
                ("a\"b", r#""x\\y""#),
                ("n", "7"),
                ("rows.0.ok", "true"),
                ("rows.1.ok", "false"),
                ("rows.1.s", "null"),
                ("rows.2", "\"é\""),
                ("rows.3", "-3"),
                ("\u{1}\\é", r#""\u0001""#),
                ("pps", "2.500"),
            ])
        );
    }

    #[test]
    fn leaves_accept_any_well_formed_json() {
        let doc =
            " [ [1 , 2.5e+3] , [] , {\"k\\/\\ud83d\\ude00\" : -0.5E2} ,\"\\b\\f\\n\\r\\t\"]\r\n";
        assert_eq!(
            leaves(doc).unwrap(),
            owned(&[
                ("0.0", "1"),
                ("0.1", "2.5e+3"),
                ("2.k/😀", "-0.5E2"),
                ("3", r#""\b\f\n\r\t""#),
            ])
        );
        assert_eq!(leaves("0").unwrap(), owned(&[("", "0")]));
        assert_eq!(leaves("\"x\"").unwrap(), owned(&[("", "\"x\"")]));
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert_eq!(leaves(&deep(MAX_DEPTH)).unwrap(), owned(&[]));
        assert_eq!(leaves(&deep(MAX_DEPTH + 1)), None);
    }

    #[test]
    fn leaves_refuse_malformed_documents() {
        for doc in [
            "",
            " ",
            "{",
            "{}}",
            "{}{}",
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            r#"{a:1}"#,
            "[1 2]",
            "[,]",
            "01",
            "1.",
            "-",
            ".5",
            "1e",
            "tru",
            "nul",
            r#""\x""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\ud800""#,
            r#""\ud800A""#,
            r#""\ud800\xdc00""#,
            r#""\udc00""#,
            "\"\u{1}\"",
            "\"open",
        ] {
            assert_eq!(leaves(doc), None, "{doc:?}");
        }
    }

    /// Characters that exercise every escape the writer emits, plus
    /// multi-byte UTF-8 and the path separator.
    fn arb_text() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop::sample::select(vec!['a', '.', '"', '\\', '\n', '\u{1}', 'é', '→', '😀']),
            0..8,
        )
        .prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        /// Keys come back decoded and values as the writer wrote them.
        #[test]
        fn leaves_round_trip_writer_output(
            members in prop::collection::vec((arb_text(), any::<u64>()), 0..6),
            items in prop::collection::vec(arb_text(), 0..4),
        ) {
            let doc = Json::object(|j| {
                for (k, v) in &members {
                    j.num(k, v);
                }
                j.arr("items", |j| {
                    for s in &items {
                        j.item_str(s);
                    }
                });
            });
            let got = leaves(&doc).unwrap();
            let (got_members, got_items) = got.split_at(members.len());
            for ((path, raw), (k, v)) in got_members.iter().zip(&members) {
                prop_assert_eq!(path, k);
                prop_assert_eq!(*raw, v.to_string());
            }
            prop_assert_eq!(got_items.len(), items.len());
            for (i, ((path, raw), s)) in got_items.iter().zip(&items).enumerate() {
                let quoted = quoted(s);
                prop_assert_eq!(path, &format!("items.{i}"));
                prop_assert_eq!(*raw, &quoted[5..quoted.len() - 1]);
            }
        }

        /// Arbitrary bytes never panic the walker.
        #[test]
        fn leaves_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let _ = leaves(&String::from_utf8_lossy(&bytes));
        }

        /// Nor do strings over JSON's own alphabet, which reach far
        /// deeper into the grammar than random bytes.
        #[test]
        fn leaves_never_panic_on_json_shaped_text(
            cs in prop::collection::vec(
                prop::sample::select(vec![
                    '{', '}', '[', ']', '"', ':', ',', ' ', '\\', 'u', 'd', '8', '0', '1',
                    '-', '.', 'e', '+', 't', 'r', 'n', 'l', 'f', 'a', 's', 'é',
                ]),
                0..48,
            ),
        ) {
            let _ = leaves(&cs.into_iter().collect::<String>());
        }
    }
}
