//! A query language for the indexer.
//!
//! WebFountain applications pose "boolean, range, regular expression,
//! spherical, and other complex query types" against the indexer. This
//! module gives those queries a textual form:
//!
//! ```text
//! camera AND (battery OR "picture quality") AND NOT music
//! meta:domain=digital-camera AND concept:sentiment:polarity=+
//! meta:date=[2004-02..2004-03] AND regex:nr[0-9]+
//! ```
//!
//! Grammar (case-insensitive keywords, AND binds tighter than OR):
//!
//! ```text
//! or-expr   := and-expr (OR and-expr)*
//! and-expr  := unary (AND? unary)*        adjacent terms imply AND
//! unary     := NOT unary | atom
//! atom      := '(' or-expr ')' | '"' word+ '"' | meta:field=value
//!            | meta:field=[lo..hi] | concept:token | regex:pattern | word
//! ```
//!
//! A regex pattern runs to whitespace or to a `)` that closes none of its
//! own groups, so `regex:(a|b)` keeps its alternation. Patterns are
//! validated at parse time, so a malformed pattern is a parse error
//! rather than a deferred execution error. Parentheses and `NOT` nest at
//! most [`MAX_NESTING`] levels deep, so hostile input fails with an error
//! instead of exhausting the parser's stack.

use crate::index::Query;
use crate::regex::Regex;
use wf_types::{Error, Result};

/// Levels of parentheses and `NOT` a query may nest.
pub const MAX_NESTING: usize = 128;

/// Parses a query string into the indexer's [`Query`] AST.
pub fn parse_query(input: &str) -> Result<Query> {
    let tokens = lex(input)?;
    let mut parser = QueryParser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let query = parser.or_expr()?;
    if parser.pos != parser.tokens.len() {
        return Err(Error::Query(format!(
            "unexpected trailing input near {:?}",
            parser.tokens[parser.pos]
        )));
    }
    Ok(query)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    And,
    Or,
    Not,
    LParen,
    RParen,
    Phrase(Vec<String>),
    Meta(String, String),
    MetaRange(String, String, String),
    Concept(String),
    Regex(String),
    Word(String),
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        match c {
            '(' => {
                out.push(Tok::LParen);
                chars.next();
            }
            ')' => {
                out.push(Tok::RParen);
                chars.next();
            }
            '"' => {
                chars.next();
                let start = i + 1;
                let mut end = start;
                for (j, d) in chars.by_ref() {
                    if d == '"' {
                        end = j;
                        break;
                    }
                    end = j + d.len_utf8();
                }
                if end >= input.len() || !input[end..].starts_with('"') {
                    // `end` points at the closing quote found above; if we
                    // ran off the end, the phrase was unterminated
                    if end == input.len() {
                        return Err(Error::Query("unterminated phrase".into()));
                    }
                }
                let words: Vec<String> = input[start..end]
                    .split_whitespace()
                    .map(|w| w.to_lowercase())
                    .collect();
                if words.is_empty() {
                    return Err(Error::Query("empty phrase".into()));
                }
                out.push(Tok::Phrase(words));
            }
            _ => {
                // bare token up to whitespace or paren; a regex atom keeps
                // its own groups
                let end = match input[i..].strip_prefix("regex:") {
                    Some(pattern) => input.len() - pattern.len() + regex_len(pattern),
                    None => input[i..]
                        .find(|d: char| d.is_whitespace() || d == '(' || d == ')')
                        .map_or(input.len(), |n| i + n),
                };
                while chars.next_if(|&(j, _)| j < end).is_some() {}
                out.push(classify(&input[i..end])?);
            }
        }
    }
    Ok(out)
}

/// Byte length of the pattern that starts `s`: up to whitespace or a `)`
/// that closes no group of its own, so `regex:(a|b)` reaches the engine
/// whole while `(regex:a OR b)` still closes the outer group. Escaped
/// characters and class members open and close nothing, as in
/// [`Regex`]. An unclosed `(` runs to the end of the token, and the
/// engine rejects it.
fn regex_len(s: &str) -> usize {
    let (mut depth, mut in_class, mut escaped) = (0usize, false, false);
    for (i, c) in s.char_indices() {
        match c {
            c if c.is_whitespace() => return i,
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '[' => in_class = true,
            ']' => in_class = false,
            _ if in_class => {}
            '(' => depth += 1,
            ')' if depth == 0 => return i,
            ')' => depth -= 1,
            _ => {}
        }
    }
    s.len()
}

fn classify(raw: &str) -> Result<Tok> {
    match raw.to_ascii_uppercase().as_str() {
        "AND" => return Ok(Tok::And),
        "OR" => return Ok(Tok::Or),
        "NOT" => return Ok(Tok::Not),
        _ => {}
    }
    if let Some(rest) = raw.strip_prefix("meta:") {
        let (field, value) = rest
            .split_once('=')
            .ok_or_else(|| Error::Query(format!("meta: needs field=value, got {raw:?}")))?;
        if field.is_empty() || value.is_empty() {
            return Err(Error::Query(format!("empty meta field/value in {raw:?}")));
        }
        // range form: meta:field=[lo..hi] (inclusive, lexicographic)
        if let Some(body) = value.strip_prefix('[') {
            let Some(body) = body.strip_suffix(']') else {
                return Err(Error::Query(format!("unclosed range bracket in {raw:?}")));
            };
            let Some((lo, hi)) = body.split_once("..") else {
                return Err(Error::Query(format!("range needs lo..hi in {raw:?}")));
            };
            if lo.is_empty() || hi.is_empty() {
                return Err(Error::Query(format!("empty range bound in {raw:?}")));
            }
            return Ok(Tok::MetaRange(
                field.to_string(),
                lo.to_string(),
                hi.to_string(),
            ));
        }
        return Ok(Tok::Meta(field.to_string(), value.to_string()));
    }
    if let Some(rest) = raw.strip_prefix("concept:") {
        if rest.is_empty() {
            return Err(Error::Query("empty concept token".into()));
        }
        return Ok(Tok::Concept(rest.to_string()));
    }
    if let Some(rest) = raw.strip_prefix("regex:") {
        if rest.is_empty() {
            return Err(Error::Query("empty regex pattern".into()));
        }
        // fail fast: a malformed pattern is a parse error, not an
        // execution-time surprise
        if let Err(e) = Regex::new(rest) {
            return Err(Error::Query(format!("invalid regex {rest:?}: {e}")));
        }
        return Ok(Tok::Regex(rest.to_string()));
    }
    Ok(Tok::Word(raw.to_lowercase()))
}

struct QueryParser {
    tokens: Vec<Tok>,
    pos: usize,
    /// Parentheses and `NOT`s open around the current position.
    depth: usize,
}

impl QueryParser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    /// Parses with `parse` one nesting level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Query>) -> Result<Query> {
        if self.depth == MAX_NESTING {
            return Err(Error::Query(format!(
                "query nests deeper than {MAX_NESTING} levels of parentheses and NOT"
            )));
        }
        self.depth += 1;
        let query = parse(self);
        self.depth -= 1;
        query
    }

    fn or_expr(&mut self) -> Result<Query> {
        let mut branches = vec![self.and_expr()?];
        while self.peek() == Some(&Tok::Or) {
            self.pos += 1;
            branches.push(self.and_expr()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Query::Or(branches)
        })
    }

    fn and_expr(&mut self) -> Result<Query> {
        let mut parts = vec![self.unary()?];
        loop {
            match self.peek() {
                Some(Tok::And) => {
                    self.pos += 1;
                    parts.push(self.unary()?);
                }
                // adjacency implies AND: `camera battery`
                Some(Tok::Or) | Some(Tok::RParen) | None => break,
                Some(_) => parts.push(self.unary()?),
            }
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Query::And(parts)
        })
    }

    fn unary(&mut self) -> Result<Query> {
        match self.peek() {
            Some(Tok::Not) => {
                self.pos += 1;
                Ok(Query::Not(Box::new(self.nested(Self::unary)?)))
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> Result<Query> {
        let tok = self
            .peek()
            .cloned()
            .ok_or_else(|| Error::Query("unexpected end of query".into()))?;
        self.pos += 1;
        Ok(match tok {
            Tok::LParen => {
                let inner = self.nested(Self::or_expr)?;
                if self.peek() != Some(&Tok::RParen) {
                    return Err(Error::Query("unclosed parenthesis".into()));
                }
                self.pos += 1;
                inner
            }
            Tok::Phrase(words) => Query::Phrase(words),
            Tok::Meta(field, value) => Query::MetaEquals(field, value),
            Tok::MetaRange(field, lo, hi) => Query::MetaRange { field, lo, hi },
            Tok::Concept(token) => Query::Concept(token),
            Tok::Regex(pattern) => Query::Regex(pattern),
            Tok::Word(word) => Query::Term(word),
            other => {
                return Err(Error::Query(format!("unexpected token {other:?}")));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_term() {
        assert_eq!(parse_query("camera").unwrap(), Query::Term("camera".into()));
    }

    #[test]
    fn implicit_and() {
        assert_eq!(
            parse_query("camera battery").unwrap(),
            Query::And(vec![
                Query::Term("camera".into()),
                Query::Term("battery".into())
            ])
        );
    }

    #[test]
    fn precedence_and_over_or() {
        let q = parse_query("a AND b OR c").unwrap();
        assert_eq!(
            q,
            Query::Or(vec![
                Query::And(vec![Query::Term("a".into()), Query::Term("b".into())]),
                Query::Term("c".into()),
            ])
        );
    }

    #[test]
    fn parentheses_override() {
        let q = parse_query("a AND (b OR c)").unwrap();
        assert_eq!(
            q,
            Query::And(vec![
                Query::Term("a".into()),
                Query::Or(vec![Query::Term("b".into()), Query::Term("c".into())]),
            ])
        );
    }

    #[test]
    fn not_and_nested_not() {
        assert_eq!(
            parse_query("NOT music").unwrap(),
            Query::Not(Box::new(Query::Term("music".into())))
        );
        assert_eq!(
            parse_query("NOT NOT music").unwrap(),
            Query::Not(Box::new(Query::Not(Box::new(Query::Term("music".into())))))
        );
    }

    #[test]
    fn phrases() {
        assert_eq!(
            parse_query("\"picture quality\"").unwrap(),
            Query::Phrase(vec!["picture".into(), "quality".into()])
        );
    }

    #[test]
    fn meta_concept_regex_atoms() {
        assert_eq!(
            parse_query("meta:domain=camera").unwrap(),
            Query::MetaEquals("domain".into(), "camera".into())
        );
        assert_eq!(
            parse_query("concept:sentiment:polarity=+").unwrap(),
            Query::Concept("sentiment:polarity=+".into())
        );
        assert_eq!(
            parse_query("regex:nr[0-9]+").unwrap(),
            Query::Regex("nr[0-9]+".into())
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse_query("a and b or not c").unwrap();
        assert_eq!(
            q,
            Query::Or(vec![
                Query::And(vec![Query::Term("a".into()), Query::Term("b".into())]),
                Query::Not(Box::new(Query::Term("c".into()))),
            ])
        );
    }

    #[test]
    fn error_cases() {
        assert!(parse_query("").is_err());
        assert!(parse_query("(a OR b").is_err());
        assert!(parse_query("a )").is_err());
        assert!(parse_query("\"unterminated").is_err());
        assert!(parse_query("meta:nofield").is_err());
        assert!(parse_query("concept:").is_err());
        assert!(parse_query("AND").is_err());
    }

    #[test]
    fn range_atoms() {
        assert_eq!(
            parse_query("meta:date=[2004-02..2004-03]").unwrap(),
            Query::MetaRange {
                field: "date".into(),
                lo: "2004-02".into(),
                hi: "2004-03".into(),
            }
        );
        assert_eq!(
            parse_query("camera meta:line=[0001..0010]").unwrap(),
            Query::And(vec![
                Query::Term("camera".into()),
                Query::MetaRange {
                    field: "line".into(),
                    lo: "0001".into(),
                    hi: "0010".into(),
                },
            ])
        );
    }

    fn err_of(input: &str) -> String {
        parse_query(input).unwrap_err().to_string()
    }

    #[test]
    fn unbalanced_paren_errors_name_the_problem() {
        assert!(err_of("(a OR b").contains("unclosed parenthesis"));
        assert!(err_of("((a)").contains("unclosed parenthesis"));
        assert!(err_of("a )").contains("trailing input"));
        assert!(err_of(")").contains("unexpected token"));
    }

    #[test]
    fn empty_phrase_is_rejected() {
        assert!(err_of("\"\"").contains("empty phrase"));
        assert!(err_of("\"   \"").contains("empty phrase"));
        assert!(err_of("camera \"\"").contains("empty phrase"));
    }

    #[test]
    fn malformed_ranges_are_rejected() {
        assert!(err_of("meta:date=[2004-02..2004-03").contains("unclosed range bracket"));
        assert!(err_of("meta:date=[2004-022004-03]").contains("range needs lo..hi"));
        assert!(err_of("meta:date=[..2004-03]").contains("empty range bound"));
        assert!(err_of("meta:date=[2004-02..]").contains("empty range bound"));
        assert!(err_of("meta:=[a..b]").contains("empty meta field"));
    }

    #[test]
    fn malformed_regex_fails_at_parse_time() {
        assert!(err_of("regex:[a-").contains("invalid regex"));
        assert!(err_of("regex:[abc").contains("invalid regex"));
        assert!(err_of("regex:(a").contains("invalid regex"));
        assert!(err_of("regex:((a)").contains("invalid regex"));
        assert!(matches!(parse_query("regex:(a"), Err(Error::Query(_))));
        assert!(parse_query("regex:nr[0-9]+").is_ok());
    }

    #[test]
    fn regex_atoms_keep_their_groups() {
        let regex = |p: &str| Query::Regex(p.into());
        assert_eq!(parse_query("regex:(a|b)").unwrap(), regex("(a|b)"));
        assert_eq!(parse_query("regex:x(ab)+y").unwrap(), regex("x(ab)+y"));
        assert_eq!(parse_query("regex:((a|b)c)*").unwrap(), regex("((a|b)c)*"));
        // escaped and class-member parens open no group
        assert_eq!(parse_query("regex:a\\(").unwrap(), regex("a\\("));
        assert_eq!(parse_query("regex:[(]x").unwrap(), regex("[(]x"));
        // the atom ends at an unmatched `)`, so outer groups still close
        assert_eq!(
            parse_query("(regex:foo OR bar)").unwrap(),
            Query::Or(vec![regex("foo"), Query::Term("bar".into())])
        );
        assert_eq!(parse_query("(regex:(a|b))").unwrap(), regex("(a|b)"));
        assert_eq!(
            parse_query("camera (regex:nr[0-9]+ OR regex:(x|y)z)").unwrap(),
            Query::And(vec![
                Query::Term("camera".into()),
                Query::Or(vec![regex("nr[0-9]+"), regex("(x|y)z")]),
            ])
        );
        assert!(parse_query("(regex:[)]x)").is_ok());
    }

    #[test]
    fn end_to_end_against_index() {
        use crate::entity::{Annotation, Entity, SourceKind};
        use crate::index::Indexer;
        use wf_types::{DocId, Span};
        let indexer = Indexer::new();
        let docs = [
            ("the camera has a great battery", "camera", true),
            ("the camera overheats", "camera", false),
            ("a song with a great chorus", "music", false),
        ];
        for (i, (text, domain, positive)) in docs.iter().enumerate() {
            let mut e = Entity::new(format!("u{i}"), SourceKind::Web, *text)
                .with_metadata("domain", *domain);
            e.id = DocId(i as u64);
            if *positive {
                e.annotations
                    .push(Annotation::new("sentiment", Span::new(0, 5)).with_attr("polarity", "+"));
            }
            indexer.index_entity(&e);
        }
        let q = parse_query("camera AND meta:domain=camera AND NOT overheats").unwrap();
        assert_eq!(indexer.query(&q).unwrap(), vec![DocId(0)]);
        let q = parse_query("\"great battery\" OR \"great chorus\"").unwrap();
        assert_eq!(indexer.query(&q).unwrap(), vec![DocId(0), DocId(2)]);
        let q = parse_query("concept:sentiment:polarity=+").unwrap();
        assert_eq!(indexer.query(&q).unwrap(), vec![DocId(0)]);
        let q = parse_query("regex:(overheat|chorus)s?").unwrap();
        assert_eq!(indexer.query(&q).unwrap(), vec![DocId(1), DocId(2)]);
    }

    #[test]
    fn nesting_is_limited() {
        let nest = |levels: usize| format!("{}camera{}", "(".repeat(levels), ")".repeat(levels));
        assert_eq!(
            parse_query(&nest(MAX_NESTING)).unwrap(),
            Query::Term("camera".into())
        );
        for levels in [MAX_NESTING + 1, 10_000] {
            let err = parse_query(&nest(levels)).unwrap_err().to_string();
            assert!(err.contains("deeper than 128 levels"), "{err}");
        }
        let nots = format!("{}camera", "NOT ".repeat(1_000));
        let err = parse_query(&nots).unwrap_err().to_string();
        assert!(err.contains("deeper than 128 levels"), "{err}");
        // parentheses and NOT share one budget
        let mixed = format!("{}camera{}", "NOT (".repeat(65), ")".repeat(65));
        assert!(parse_query(&mixed).is_err());
        let mixed = format!("{}camera{}", "NOT (".repeat(64), ")".repeat(64));
        assert!(parse_query(&mixed).is_ok());
    }
}
