//! Tokenizer for the SegBus DSL.
//!
//! Produces identifier, integer, float and punctuation tokens with
//! line/column spans; skips `//` line comments and `/* … */` block
//! comments. Lexical failures surface as [`SegbusError`]s with code
//! `P001` (malformed input) or `P003` (integer literal out of range).

use std::fmt;

use segbus_model::diag::SegbusError;

/// Position of a token in the source (re-exported model type: 1-based
/// line/column).
pub use segbus_model::diag::SourceSpan as Span;

/// Token payload.
#[derive(Clone, PartialEq, Debug)]
pub enum TokenKind {
    /// Identifier or keyword (`application`, `P0`, `freq_mhz`, …).
    Ident(String),
    /// Unsigned integer literal.
    Int(u64),
    /// Floating-point literal (used for frequencies).
    Float(f64),
    /// `->`
    Arrow,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier {s:?}"),
            TokenKind::Int(v) => write!(f, "integer {v}"),
            TokenKind::Float(v) => write!(f, "number {v}"),
            TokenKind::Arrow => f.write_str("'->'"),
            TokenKind::LBrace => f.write_str("'{'"),
            TokenKind::RBrace => f.write_str("'}'"),
            TokenKind::Semi => f.write_str("';'"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its position.
#[derive(Clone, PartialEq, Debug)]
pub struct Token {
    /// Payload.
    pub kind: TokenKind,
    /// Where it starts.
    pub span: Span,
}

/// The tokenizer.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

fn lex_err(span: Span, message: impl Into<String>) -> SegbusError {
    SegbusError::new("P001", message).with_span(span.line, span.col)
}

impl<'a> Lexer<'a> {
    /// Tokenize from the start of `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Tokenize everything, ending with an [`TokenKind::Eof`] token.
    pub fn tokenize(mut self) -> Result<Vec<Token>, SegbusError> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            let eof = t.kind == TokenKind::Eof;
            out.push(t);
            if eof {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Step over `n` bytes that contain no newline.
    fn advance(&mut self, n: usize) {
        self.pos += n;
        self.col += n;
    }

    /// Length of the run of bytes at the cursor accepted by `keep`, which
    /// sees each byte together with the one after it.
    fn run_len(&self, mut keep: impl FnMut(u8, Option<u8>) -> bool) -> usize {
        let rest = &self.src[self.pos..];
        let mut n = 0;
        while n < rest.len() && keep(rest[n], rest.get(n + 1).copied()) {
            n += 1;
        }
        n
    }

    fn span(&self) -> Span {
        Span {
            line: u32::try_from(self.line).unwrap_or(u32::MAX),
            col: u32::try_from(self.col).unwrap_or(u32::MAX),
        }
    }

    fn skip_trivia(&mut self) -> Result<(), SegbusError> {
        loop {
            match (self.peek(), self.peek2()) {
                (Some(b' ' | b'\t' | b'\r'), _) => self.advance(1),
                (Some(b'\n'), _) => {
                    self.bump();
                }
                (Some(b'/'), Some(b'/')) => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.bump();
                    }
                }
                (Some(b'/'), Some(b'*')) => {
                    let start = self.span();
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (None, _) => return Err(lex_err(start, "unterminated block comment")),
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, SegbusError> {
        self.skip_trivia()?;
        let span = self.span();
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                span,
            });
        };
        let kind = match c {
            b'{' => {
                self.bump();
                TokenKind::LBrace
            }
            b'}' => {
                self.bump();
                TokenKind::RBrace
            }
            b';' => {
                self.bump();
                TokenKind::Semi
            }
            b'-' => {
                self.bump();
                if self.peek() == Some(b'>') {
                    self.bump();
                    TokenKind::Arrow
                } else {
                    return Err(lex_err(span, "expected '->' after '-'"));
                }
            }
            b'0'..=b'9' => {
                let start = self.pos;
                let mut is_float = false;
                let n = self.run_len(|d, next| {
                    if d == b'.' && !is_float && next.is_some_and(|n| n.is_ascii_digit()) {
                        is_float = true;
                        return true;
                    }
                    d.is_ascii_digit()
                });
                self.advance(n);
                // The scanned slice is ASCII digits and dots by construction;
                // the lossy conversion can never actually lose anything.
                let text = String::from_utf8_lossy(&self.src[start..self.pos]);
                if is_float {
                    TokenKind::Float(
                        text.parse()
                            .map_err(|_| lex_err(span, format!("malformed number {text:?}")))?,
                    )
                } else {
                    TokenKind::Int(text.parse().map_err(|_| {
                        SegbusError::new("P003", format!("integer {text:?} out of range"))
                            .with_span(span.line, span.col)
                    })?)
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
                // Interior hyphens are part of the name ("mp3-decoder");
                // "P0->P1" still lexes as an arrow because '>' follows.
                let n = self.run_len(|d, next| word(d) || (d == b'-' && next.is_some_and(word)));
                self.advance(n);
                TokenKind::Ident(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
            }
            other => {
                return Err(lex_err(
                    span,
                    format!("unexpected character {:?}", other as char),
                ))
            }
        };
        Ok(Token { kind, span })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn tokenizes_the_basic_vocabulary() {
        assert_eq!(
            kinds("flow P0 -> P1 { items 576; }"),
            vec![
                TokenKind::Ident("flow".into()),
                TokenKind::Ident("P0".into()),
                TokenKind::Arrow,
                TokenKind::Ident("P1".into()),
                TokenKind::LBrace,
                TokenKind::Ident("items".into()),
                TokenKind::Int(576),
                TokenKind::Semi,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn floats_and_ints() {
        assert_eq!(
            kinds("91 91.5"),
            vec![TokenKind::Int(91), TokenKind::Float(91.5), TokenKind::Eof]
        );
    }

    #[test]
    fn comments_are_trivia() {
        assert_eq!(
            kinds("a // line\n b /* block\n still */ c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn spans_track_lines() {
        let toks = Lexer::new("a\n  b").tokenize().unwrap();
        assert_eq!(toks[0].span, Span { line: 1, col: 1 });
        assert_eq!(toks[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn lex_errors() {
        assert_eq!(Lexer::new("@").tokenize().unwrap_err().code, "P001");
        assert_eq!(Lexer::new("- x").tokenize().unwrap_err().code, "P001");
        let e = Lexer::new("/* unterminated").tokenize().unwrap_err();
        assert_eq!(e.code, "P001");
        assert_eq!(e.span, Some(Span { line: 1, col: 1 }));
        let e = Lexer::new("99999999999999999999999")
            .tokenize()
            .unwrap_err();
        assert_eq!(e.code, "P003");
    }
}
