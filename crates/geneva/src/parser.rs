//! Recursive-descent parser for the Geneva DSL.
//!
//! Grammar (paper appendix):
//!
//! ```text
//! strategy   := outbound* ("\/" inbound*)?
//! pair       := "[" trigger "]" "-" action "-|"
//! trigger    := PROTO ":" field ":" value
//! action     := "send" | "drop"
//!             | "duplicate" args?
//!             | "tamper" "{" PROTO ":" field ":" mode (":" value)? "}" args?
//!             | "fragment" "{" PROTO ":" offset ":" bool "}" args?
//! args       := "(" action? ("," action?)* ")"
//! ```
//!
//! An omitted action (empty argument slot, or no `args` at all) means
//! `send` — Geneva's strategies lean on this heavily
//! (`duplicate(,tamper{...})`, trailing `(X,)`, bare `duplicate`).

// Wire formats truncate by definition: length, checksum, and offset
// fields are specified modulo their width.
#![allow(clippy::cast_possible_truncation)]
use crate::ast::{Action, Span, Strategy, StrategyPart, TamperMode, Trigger};
use crate::ParseError;
use packet::field::{FieldRef, FieldValue};
use packet::Proto;

/// Source spans for one `trigger ⇒ action` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartSpans {
    /// The whole pair, `[` through `-|`.
    pub part: Span,
    /// The `[trigger]` segment, brackets included.
    pub trigger: Span,
    /// One span per action-tree node, **preorder** (node before
    /// children, children left to right) — the order `Action::walk`
    /// visits, so the n-th visited node pairs with `actions[n]`.
    /// Implicit `send` slots get zero-width spans at their position.
    pub actions: Vec<Span>,
}

/// Source spans for every part of a parsed strategy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrategySpans {
    /// Spans of the outbound parts, in order.
    pub outbound: Vec<PartSpans>,
    /// Spans of the inbound parts, in order.
    pub inbound: Vec<PartSpans>,
}

/// Parse a full strategy string.
pub fn parse_strategy(input: &str) -> Result<Strategy, ParseError> {
    parse_strategy_spanned(input).map(|(strategy, _)| strategy)
}

/// Parse a full strategy string, also returning a byte-offset span for
/// every part and every action node (what `strata` diagnostics point
/// at).
pub fn parse_strategy_spanned(input: &str) -> Result<(Strategy, StrategySpans), ParseError> {
    let mut p = Parser {
        input: input.as_bytes(),
        at: 0,
    };
    let mut strategy = Strategy::default();
    let mut spans = StrategySpans::default();
    p.skip_ws();
    while p.peek() == Some(b'[') {
        let (part, part_spans) = p.pair()?;
        strategy.outbound.push(part);
        spans.outbound.push(part_spans);
        p.skip_ws();
    }
    if p.peek() == Some(b'\\') {
        p.expect_str("\\/")?;
        p.skip_ws();
        while p.peek() == Some(b'[') {
            let (part, part_spans) = p.pair()?;
            strategy.inbound.push(part);
            spans.inbound.push(part_spans);
            p.skip_ws();
        }
    }
    p.skip_ws();
    if p.at != p.input.len() {
        return Err(p.err("trailing input"));
    }
    Ok((strategy, spans))
}

struct Parser<'a> {
    input: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            span: Span::point(self.at),
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.at).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.at += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\n') | Some(b'\t')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn expect_str(&mut self, s: &str) -> Result<(), ParseError> {
        if self.input[self.at..].starts_with(s.as_bytes()) {
            self.at += s.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected \"{s}\"")))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.input[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            true
        } else {
            false
        }
    }

    /// Characters up to (not including) any byte in `stop`.
    fn until(&mut self, stop: &[u8]) -> &'a str {
        let start = self.at;
        while let Some(b) = self.peek() {
            if stop.contains(&b) {
                break;
            }
            self.at += 1;
        }
        std::str::from_utf8(&self.input[start..self.at]).unwrap_or("")
    }

    fn pair(&mut self) -> Result<(StrategyPart, PartSpans), ParseError> {
        let part_start = self.at;
        self.expect(b'[')?;
        let proto_str = self.until(b":").to_string();
        self.expect(b':')?;
        let field_str = self.until(b":").to_string();
        self.expect(b':')?;
        let value = self.until(b"]").to_string();
        self.expect(b']')?;
        let trigger_span = Span::new(part_start, self.at);
        let proto = Proto::parse(&proto_str).ok_or_else(|| self.err("unknown trigger protocol"))?;
        let field = FieldRef::new(proto, &field_str);
        field
            .kind()
            .map_err(|e| self.err(&format!("bad trigger field: {e}")))?;
        self.expect(b'-')?;
        let mut actions = Vec::new();
        let action = self.action(&mut actions)?;
        self.expect_str("-|")?;
        debug_assert_eq!(actions.len(), action.size(), "span/node count mismatch");
        Ok((
            StrategyPart {
                trigger: Trigger { field, value },
                action,
            },
            PartSpans {
                part: Span::new(part_start, self.at),
                trigger: trigger_span,
                actions,
            },
        ))
    }

    /// Parse one action subtree, appending one span per node to
    /// `spans` in preorder.
    fn action(&mut self, spans: &mut Vec<Span>) -> Result<Action, ParseError> {
        self.skip_ws();
        let start = self.at;
        let index = spans.len();
        spans.push(Span::point(start)); // placeholder until the node ends
        let action = self.action_inner(spans)?;
        spans[index] = Span::new(start, self.at);
        Ok(action)
    }

    fn action_inner(&mut self, spans: &mut Vec<Span>) -> Result<Action, ParseError> {
        if self.eat_keyword("duplicate") {
            let (a, b) = self.two_args(spans)?;
            return Ok(Action::Duplicate(Box::new(a), Box::new(b)));
        }
        if self.eat_keyword("fragment") {
            self.expect(b'{')?;
            let proto_str = self.until(b":").to_string();
            self.expect(b':')?;
            let offset_str = self.until(b":").to_string();
            self.expect(b':')?;
            let order_str = self.until(b"}").to_string();
            self.expect(b'}')?;
            let proto =
                Proto::parse(&proto_str).ok_or_else(|| self.err("unknown fragment protocol"))?;
            let offset: i64 = offset_str
                .parse()
                .map_err(|_| self.err("bad fragment offset"))?;
            let in_order = matches!(order_str.as_str(), "True" | "true" | "1");
            let (first, second) = self.two_args(spans)?;
            return Ok(Action::Fragment {
                proto,
                // Geneva uses -1 for "middle"; we clamp at apply time.
                offset: offset.max(0) as usize,
                in_order,
                first: Box::new(first),
                second: Box::new(second),
            });
        }
        if self.eat_keyword("tamper") {
            self.expect(b'{')?;
            let proto_str = self.until(b":").to_string();
            self.expect(b':')?;
            let field_str = self.until(b":").to_string();
            self.expect(b':')?;
            let mode_str = self.until(b":}").to_string();
            let mode = match mode_str.as_str() {
                "corrupt" => {
                    self.expect(b'}')?;
                    TamperMode::Corrupt
                }
                "replace" => {
                    self.expect(b':')?;
                    let value_str = self.until(b"}").to_string();
                    self.expect(b'}')?;
                    TamperMode::Replace(parse_value(&value_str))
                }
                other => return Err(self.err(&format!("unknown tamper mode {other:?}"))),
            };
            let proto =
                Proto::parse(&proto_str).ok_or_else(|| self.err("unknown tamper protocol"))?;
            let field = FieldRef::new(proto, &field_str);
            field
                .kind()
                .map_err(|e| self.err(&format!("bad tamper field: {e}")))?;
            let next = if self.peek() == Some(b'(') {
                let before = spans.len();
                let (only, extra) = self.two_args(spans)?;
                if !matches!(extra, Action::Send) {
                    return Err(self.err("tamper takes one subtree"));
                }
                // `extra` is a bare send: drop its span so the span
                // stream stays aligned with the one-child AST.
                debug_assert_eq!(spans.len(), before + only.size() + 1);
                spans.pop();
                only
            } else {
                spans.push(Span::point(self.at)); // implicit send child
                Action::Send
            };
            return Ok(Action::Tamper {
                field,
                mode,
                next: Box::new(next),
            });
        }
        if self.eat_keyword("drop") {
            return Ok(Action::Drop);
        }
        if self.eat_keyword("send") {
            return Ok(Action::Send);
        }
        // Empty slot = send.
        Ok(Action::Send)
    }

    /// Parse `( a? , b? )` — both optional — or nothing at all. Every
    /// slot contributes its subtree's spans (implicit sends a
    /// zero-width span), first subtree before second.
    fn two_args(&mut self, spans: &mut Vec<Span>) -> Result<(Action, Action), ParseError> {
        if self.peek() != Some(b'(') {
            spans.push(Span::point(self.at));
            spans.push(Span::point(self.at));
            return Ok((Action::Send, Action::Send));
        }
        self.expect(b'(')?;
        let first = if matches!(self.peek(), Some(b',') | Some(b')')) {
            spans.push(Span::point(self.at));
            Action::Send
        } else {
            self.action(spans)?
        };
        let second = if self.peek() == Some(b',') {
            self.bump();
            if self.peek() == Some(b')') {
                spans.push(Span::point(self.at));
                Action::Send
            } else {
                self.action(spans)?
            }
        } else {
            spans.push(Span::point(self.at));
            Action::Send
        };
        self.expect(b')')?;
        Ok((first, second))
    }
}

/// Interpret a replace-value string: numbers become numeric, `%xx`
/// escapes become bytes, empty is `Empty`, everything else is a string.
fn parse_value(s: &str) -> FieldValue {
    if s.is_empty() {
        return FieldValue::Empty;
    }
    if let Ok(n) = s.parse::<u64>() {
        return FieldValue::Num(n);
    }
    if s.starts_with('%') && s.len().is_multiple_of(3) {
        let mut bytes = Vec::with_capacity(s.len() / 3);
        let mut ok = true;
        for chunk in s.as_bytes().chunks(3) {
            if chunk[0] != b'%' {
                ok = false;
                break;
            }
            match u8::from_str_radix(std::str::from_utf8(&chunk[1..]).unwrap_or("zz"), 16) {
                Ok(b) => bytes.push(b),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            return FieldValue::Bytes(bytes);
        }
    }
    FieldValue::Str(s.to_string())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;

    fn round_trip(text: &str) -> Strategy {
        let parsed = parse_strategy(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let rendered = parsed.to_string();
        let reparsed =
            parse_strategy(&rendered).unwrap_or_else(|e| panic!("re-parse of {rendered:?}: {e}"));
        assert_eq!(parsed, reparsed, "round trip changed meaning for {text}");
        parsed
    }

    #[test]
    fn parses_paper_strategy_1() {
        let s = round_trip(
            "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})-| \\/ ",
        );
        assert_eq!(s.outbound.len(), 1);
        assert!(s.inbound.is_empty());
        match &s.outbound[0].action {
            Action::Duplicate(a, b) => {
                assert!(matches!(**a, Action::Tamper { .. }));
                assert!(matches!(**b, Action::Tamper { .. }));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn parses_empty_argument_slots() {
        let s = round_trip("[TCP:flags:SA]-duplicate(,tamper{TCP:load:corrupt})-| \\/ ");
        match &s.outbound[0].action {
            Action::Duplicate(a, b) => {
                assert_eq!(**a, Action::Send);
                assert!(matches!(**b, Action::Tamper { .. }));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn parses_trailing_comma_and_bare_duplicate() {
        round_trip("[TCP:flags:SA]-duplicate(tamper{TCP:ack:corrupt},)-| \\/ ");
        round_trip("[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate(duplicate,),)-| \\/ ");
    }

    #[test]
    fn parses_replace_with_empty_value() {
        let s = round_trip(
            "[TCP:flags:SA]-tamper{TCP:window:replace:10}(tamper{TCP:options-wscale:replace:},)-| \\/ ",
        );
        match &s.outbound[0].action {
            Action::Tamper { mode, next, .. } => {
                assert_eq!(*mode, TamperMode::Replace(FieldValue::Num(10)));
                match &**next {
                    Action::Tamper { mode, .. } => {
                        assert_eq!(*mode, TamperMode::Replace(FieldValue::Empty))
                    }
                    other => panic!("wrong inner: {other:?}"),
                }
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn parses_string_replace_value_with_spaces() {
        let s =
            round_trip("[TCP:flags:SA]-tamper{TCP:load:replace:GET / HTTP1.}(duplicate,)-| \\/ ");
        match &s.outbound[0].action {
            Action::Tamper { mode, .. } => {
                assert_eq!(
                    *mode,
                    TamperMode::Replace(FieldValue::Str("GET / HTTP1.".into()))
                );
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn parses_fragment_and_drop() {
        let s = round_trip("[TCP:flags:PA]-fragment{TCP:8:False}(,drop)-| \\/ ");
        match &s.outbound[0].action {
            Action::Fragment {
                offset,
                in_order,
                second,
                ..
            } => {
                assert_eq!(*offset, 8);
                assert!(!in_order);
                assert_eq!(**second, Action::Drop);
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn parses_inbound_section() {
        let s = round_trip("[TCP:flags:SA]-drop-| \\/ [TCP:flags:R]-drop-|");
        assert_eq!(s.outbound.len(), 1);
        assert_eq!(s.inbound.len(), 1);
    }

    #[test]
    fn parses_hex_escape_values() {
        let s = parse_strategy("[TCP:flags:SA]-tamper{TCP:load:replace:%de%ad}-| \\/ ").unwrap();
        match &s.outbound[0].action {
            Action::Tamper { mode, .. } => {
                assert_eq!(
                    *mode,
                    TamperMode::Replace(FieldValue::Bytes(vec![0xDE, 0xAD]))
                );
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_strategy("[TCP:flags:SA]-explode-|").is_err());
        assert!(parse_strategy("[GRE:flags:SA]-drop-|").is_err());
        assert!(parse_strategy("[TCP:bogusfield:SA]-drop-|").is_err());
        assert!(parse_strategy("[TCP:flags:SA]-tamper{TCP:ack:explode}-|").is_err());
        assert!(parse_strategy("[TCP:flags:SA]-drop-| trailing").is_err());
    }

    #[test]
    fn identity_strategy_parses() {
        let s = parse_strategy(" \\/ ").unwrap();
        assert!(s.outbound.is_empty() && s.inbound.is_empty());
        let s = parse_strategy("").unwrap();
        assert!(s.outbound.is_empty() && s.inbound.is_empty());
    }
}
