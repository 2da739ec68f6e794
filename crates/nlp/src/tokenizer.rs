//! Offset-preserving English tokenizer.
//!
//! WebFountain's tokenizer miner "produces a stream of tokens from the input
//! text". Ours keeps exact byte spans into the source so downstream
//! annotations (spots, sentiments) can always be mapped back to the original
//! entity text, which the platform's annotation model requires.

use wf_types::Span;

/// Lexical class of a token, decided purely from its surface form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Alphabetic word (possibly with internal hyphen or apostrophe:
    /// "add-on", "don't" is split, but "o'clock" stays).
    Word,
    /// Number: digits, possibly with decimal point, comma groups, or a
    /// trailing percent handled as a separate token.
    Number,
    /// Punctuation character(s).
    Punct,
}

/// A single token with its surface text and source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Surface form, exactly as it appears in the source.
    pub text: String,
    /// Byte span in the source text.
    pub span: Span,
    /// Surface-form class.
    pub kind: TokenKind,
}

impl Token {
    /// Lower-cased surface form, allocated per call. Hot paths read the
    /// lowercase from a token view instead ([`crate::TokenAccess::lower`]).
    pub fn lower(&self) -> String {
        self.text.to_lowercase()
    }

    /// True when the first character is uppercase.
    pub fn is_capitalized(&self) -> bool {
        self.text.chars().next().is_some_and(|c| c.is_uppercase())
    }

    /// True when every alphabetic character is uppercase (acronyms: "IBM").
    pub fn is_all_caps(&self) -> bool {
        let mut saw_alpha = false;
        for c in self.text.chars() {
            if c.is_alphabetic() {
                saw_alpha = true;
                if !c.is_uppercase() {
                    return false;
                }
            }
        }
        saw_alpha
    }
}

/// Tokenizes `text` into words, numbers and punctuation, preserving spans.
///
/// Rules:
/// - maximal runs of alphanumeric characters form words/numbers;
/// - internal hyphens and apostrophes are kept inside a word when flanked by
///   alphanumerics ("add-on", "entry-level"), except the clitics `'s`,
///   `n't`, `'re`, `'ve`, `'ll`, `'d`, `'m`, which split off as their own
///   tokens (Penn Treebank convention);
/// - a `.` between digits stays inside a number ("2.4");
/// - every other non-whitespace character is a single punctuation token.
///
/// This is the owned-`Token` convenience wrapper over the zero-copy span
/// scanner ([`crate::view::scan`]); hot paths should scan into a reused
/// [`crate::view::DocScratch`] instead and materialize only what they keep.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut scratch = crate::view::DocScratch::new();
    crate::view::scan(text, &mut scratch);
    let view = scratch.view(text);
    view.to_tokens(0, crate::view::TokenAccess::len(&view))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(tokens: &[Token]) -> Vec<&str> {
        tokens.iter().map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn simple_sentence() {
        let toks = tokenize("This camera takes excellent pictures.");
        assert_eq!(
            texts(&toks),
            vec!["This", "camera", "takes", "excellent", "pictures", "."]
        );
    }

    #[test]
    fn spans_reconstruct_source() {
        let text = "The colors are vibrant!";
        for t in tokenize(text) {
            assert_eq!(t.span.slice(text), t.text);
        }
    }

    #[test]
    fn hyphenated_words_stay_joined() {
        let toks = tokenize("an add-on adapter for entry-level users");
        assert!(texts(&toks).contains(&"add-on"));
        assert!(texts(&toks).contains(&"entry-level"));
    }

    #[test]
    fn clitics_split_off() {
        let toks = tokenize("It doesn't work; the camera's lens broke.");
        let t = texts(&toks);
        assert!(t.contains(&"does"));
        assert!(t.contains(&"n't"));
        assert!(t.contains(&"camera"));
        assert!(t.contains(&"'s"));
    }

    #[test]
    fn numbers_with_decimals() {
        let toks = tokenize("2.4 GHz and 72 GB");
        assert_eq!(toks[0].text, "2.4");
        assert_eq!(toks[0].kind, TokenKind::Number);
        assert_eq!(toks[3].text, "72");
    }

    #[test]
    fn trailing_hyphen_is_not_kept() {
        let toks = tokenize("well- made");
        assert_eq!(texts(&toks), vec!["well", "-", "made"]);
    }

    #[test]
    fn punctuation_is_individual_tokens() {
        let toks = tokenize("Wow!!  (Really?)");
        assert_eq!(texts(&toks), vec!["Wow", "!", "!", "(", "Really", "?", ")"]);
    }

    #[test]
    fn capitalization_predicates() {
        let toks = tokenize("IBM and Sony make Cameras");
        assert!(toks[0].is_all_caps());
        assert!(toks[0].is_capitalized());
        assert!(!toks[1].is_capitalized());
        assert!(toks[2].is_capitalized());
        assert!(!toks[2].is_all_caps());
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \n\t ").is_empty());
    }

    #[test]
    fn unicode_text_does_not_panic() {
        let text = "café “quoted” — naïve";
        let toks = tokenize(text);
        for t in &toks {
            assert_eq!(t.span.slice(text), t.text);
        }
        assert!(toks.iter().any(|t| t.text == "café"));
    }

    #[test]
    fn alphanumeric_model_names() {
        let toks = tokenize("the NR70 series and the T series CLIEs");
        assert!(texts(&toks).contains(&"NR70"));
        assert!(texts(&toks).contains(&"CLIEs"));
    }
}
