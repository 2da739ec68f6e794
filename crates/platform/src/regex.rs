//! Minimal from-scratch regular-expression engine for index term queries.
//!
//! The WebFountain indexer "supports multiple indices for various query
//! types including boolean, range, regular expression". This engine covers
//! the term-matching subset those queries need: literals, `.`, character
//! classes `[a-z0-9]` (with negation `[^...]`), the quantifiers `*`, `+`,
//! `?`, grouping `(...)` and alternation `|`. Matching is whole-string
//! (anchored), ASCII-oriented, case-sensitive (the index lowercases terms).
//!
//! Implementation: recursive-descent parse into an AST, then backtracking
//! evaluation. Backtracking is exponential in the worst case: on a 2-vCPU
//! host, `a*a*a*a*a*a*a*a*b` against one 32-character term of `a`s took
//! 1.4 s (19 ms at 16 characters, 203 ms at 24), with the term-map read
//! lock held throughout. A Pike VM, linear in term length, is the planned
//! replacement (see ROADMAP.md).

use wf_types::{Error, Result};

#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Sequence of factors.
    Concat(Vec<Node>),
    /// Alternation.
    Alt(Vec<Node>),
    /// One literal byte.
    Literal(u8),
    /// Any single byte.
    Dot,
    /// Character class; `negated` flips membership.
    Class {
        negated: bool,
        ranges: Vec<(u8, u8)>,
    },
    /// Zero or more.
    Star(Box<Node>),
    /// One or more.
    Plus(Box<Node>),
    /// Zero or one.
    Opt(Box<Node>),
}

/// A compiled regular expression.
///
/// ```
/// use wf_platform::Regex;
///
/// let re = Regex::new("nr[0-9]+").unwrap();
/// assert!(re.is_match("nr70"));
/// assert!(!re.is_match("nr"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Regex {
    root: Node,
    source: String,
}

impl Regex {
    /// Compiles a pattern.
    pub fn new(pattern: &str) -> Result<Self> {
        let mut parser = Parser {
            bytes: pattern.as_bytes(),
            pos: 0,
            pattern,
        };
        let root = parser.parse_alt()?;
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("unexpected trailing characters"));
        }
        Ok(Regex {
            root,
            source: pattern.to_string(),
        })
    }

    /// The original pattern.
    pub fn as_str(&self) -> &str {
        &self.source
    }

    /// True when the whole of `text` matches.
    pub fn is_match(&self, text: &str) -> bool {
        let bytes = text.as_bytes();
        match_node(&self.root, bytes, 0, &|pos| pos == bytes.len())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    pattern: &'a str,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> Error {
        Error::Query(format!(
            "regex {:?} at byte {}: {msg}",
            self.pattern, self.pos
        ))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    /// alt := concat ('|' concat)*
    fn parse_alt(&mut self) -> Result<Node> {
        let mut branches = vec![self.parse_concat()?];
        while self.peek() == Some(b'|') {
            self.bump();
            branches.push(self.parse_concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Node::Alt(branches)
        })
    }

    /// concat := repeated*
    fn parse_concat(&mut self) -> Result<Node> {
        let mut parts = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            parts.push(self.parse_repeat()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Node::Concat(parts)
        })
    }

    /// repeated := atom ('*' | '+' | '?')?
    fn parse_repeat(&mut self) -> Result<Node> {
        let atom = self.parse_atom()?;
        Ok(match self.peek() {
            Some(b'*') => {
                self.bump();
                Node::Star(Box::new(atom))
            }
            Some(b'+') => {
                self.bump();
                Node::Plus(Box::new(atom))
            }
            Some(b'?') => {
                self.bump();
                Node::Opt(Box::new(atom))
            }
            _ => atom,
        })
    }

    fn parse_atom(&mut self) -> Result<Node> {
        match self.bump() {
            None => Err(self.error("expected an atom")),
            Some(b'(') => {
                let inner = self.parse_alt()?;
                if self.bump() != Some(b')') {
                    return Err(self.error("unclosed group"));
                }
                Ok(inner)
            }
            Some(b'[') => self.parse_class(),
            Some(b'.') => Ok(Node::Dot),
            Some(b'\\') => match self.bump() {
                Some(c) => Ok(Node::Literal(c)),
                None => Err(self.error("dangling escape")),
            },
            Some(b @ (b'*' | b'+' | b'?')) => Err(self.error(&format!(
                "quantifier {:?} with nothing to repeat",
                b as char
            ))),
            Some(b')') => Err(self.error("unmatched ')'")),
            Some(b) => Ok(Node::Literal(b)),
        }
    }

    fn parse_class(&mut self) -> Result<Node> {
        let negated = if self.peek() == Some(b'^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges = Vec::new();
        loop {
            let lo = match self.bump() {
                None => return Err(self.error("unclosed character class")),
                Some(b']') if !ranges.is_empty() || negated => break,
                Some(b']') => break, // empty class: matches nothing
                Some(b'\\') => self
                    .bump()
                    .ok_or_else(|| self.error("dangling escape in class"))?,
                Some(b) => b,
            };
            if self.peek() == Some(b'-') && self.bytes.get(self.pos + 1).is_some_and(|&b| b != b']')
            {
                self.bump(); // '-'
                let hi = match self.bump() {
                    Some(b'\\') => self
                        .bump()
                        .ok_or_else(|| self.error("dangling escape in class"))?,
                    Some(b) => b,
                    None => return Err(self.error("unclosed range")),
                };
                if lo > hi {
                    return Err(self.error("reversed range"));
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        Ok(Node::Class { negated, ranges })
    }
}

/// Backtracking matcher: does `node` match some prefix of `text[pos..]`
/// such that the continuation `k` accepts the end position?
fn match_node(node: &Node, text: &[u8], pos: usize, k: &dyn Fn(usize) -> bool) -> bool {
    match node {
        Node::Literal(b) => text.get(pos) == Some(b) && k(pos + 1),
        Node::Dot => pos < text.len() && k(pos + 1),
        Node::Class { negated, ranges } => match text.get(pos) {
            None => false,
            Some(&b) => {
                let inside = ranges.iter().any(|&(lo, hi)| lo <= b && b <= hi);
                inside != *negated && k(pos + 1)
            }
        },
        Node::Concat(parts) => match_seq(parts, text, pos, k),
        Node::Alt(branches) => branches.iter().any(|b| match_node(b, text, pos, k)),
        Node::Opt(inner) => match_node(inner, text, pos, k) || k(pos),
        Node::Star(inner) => match_star(inner, text, pos, k),
        Node::Plus(inner) => match_node(inner, text, pos, &|next| {
            next > pos && match_star(inner, text, next, k)
        }),
    }
}

fn match_seq(parts: &[Node], text: &[u8], pos: usize, k: &dyn Fn(usize) -> bool) -> bool {
    match parts.split_first() {
        None => k(pos),
        Some((head, rest)) => match_node(head, text, pos, &|next| match_seq(rest, text, next, k)),
    }
}

fn match_star(inner: &Node, text: &[u8], pos: usize, k: &dyn Fn(usize) -> bool) -> bool {
    if k(pos) {
        return true;
    }
    match_node(inner, text, pos, &|next| {
        next > pos && match_star(inner, text, next, k)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pattern: &str, text: &str) -> bool {
        Regex::new(pattern).unwrap().is_match(text)
    }

    #[test]
    fn literals() {
        assert!(m("camera", "camera"));
        assert!(!m("camera", "cameras"));
        assert!(!m("camera", "camer"));
    }

    #[test]
    fn dot_and_quantifiers() {
        assert!(m("c.mera", "camera"));
        assert!(m("ca*mera", "cmera"));
        assert!(m("ca*mera", "caaamera"));
        assert!(m("ca+mera", "camera"));
        assert!(!m("ca+mera", "cmera"));
        assert!(m("colou?r", "color"));
        assert!(m("colou?r", "colour"));
    }

    #[test]
    fn star_matches_anything() {
        assert!(m(".*", ""));
        assert!(m(".*", "anything at all"));
        assert!(m("nr.*", "nr70"));
        assert!(!m("nr.*", "xnr70"));
    }

    #[test]
    fn classes() {
        assert!(m("nr[0-9]+", "nr70"));
        assert!(!m("nr[0-9]+", "nr"));
        assert!(m("[a-c]+", "abcba"));
        assert!(!m("[a-c]+", "abd"));
        assert!(m("[^0-9]+", "abc"));
        assert!(!m("[^0-9]+", "ab3"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("cat|dog", "cat"));
        assert!(m("cat|dog", "dog"));
        assert!(!m("cat|dog", "cow"));
        assert!(m("(ab)+c", "ababc"));
        assert!(!m("(ab)+c", "abac"));
        assert!(m("gr(a|e)y", "gray"));
        assert!(m("gr(a|e)y", "grey"));
    }

    #[test]
    fn escapes() {
        assert!(m(r"a\.b", "a.b"));
        assert!(!m(r"a\.b", "axb"));
        assert!(m(r"\[x\]", "[x]"));
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::new("(ab").is_err());
        assert!(Regex::new("ab)").is_err());
        assert!(Regex::new("[ab").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("[z-a]").is_err());
        assert!(Regex::new("a\\").is_err());
    }

    #[test]
    fn empty_pattern_matches_empty() {
        assert!(m("", ""));
        assert!(!m("", "x"));
    }

    #[test]
    fn nested_star_terminates() {
        // (a*)* must not loop on empty inner matches
        assert!(m("(a*)*", "aaaa"));
        assert!(m("(a*)*", ""));
        assert!(!m("(a*)*b", "c"));
    }

    #[test]
    fn dash_literal_at_class_end() {
        assert!(m("[a-]", "-"));
        assert!(m("[a-]", "a"));
        assert!(!m("[a-]", "b"));
    }
}
