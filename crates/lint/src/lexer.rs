//! A minimal hand-rolled Rust lexer — just enough syntax awareness for the
//! lint rules, with zero dependencies (the build environment is offline, so
//! `syn` is not an option).
//!
//! The lexer's one job is to never misread where code ends and text begins:
//! it tracks cooked strings with escapes, raw strings with arbitrary `#`
//! fences, byte strings, char literals (distinguished from lifetimes),
//! nested block comments, and raw identifiers. Everything else degrades to
//! single-character punctuation tokens, which is all the rules need.

/// One code token. Comments are reported separately (see [`Comment`]) so
/// rules can scan code and conventions independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword; raw identifiers (`r#type`) are normalized to
    /// their bare name.
    Ident(String),
    /// A lifetime such as `'a` (without the quote).
    Lifetime(String),
    /// String or byte-string literal; the *raw inner text*, escapes left
    /// unprocessed (the rules only match plain ASCII names and headers).
    Str(String),
    /// Char or byte literal; content is irrelevant to every rule.
    Char,
    /// Numeric literal (digits plus any alphanumeric suffix run).
    Num(String),
    /// Any other single character: braces, dots, operators, `#`, …
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// A comment with its text (delimiters stripped) and line span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (differs only for block comments).
    pub end_line: u32,
    /// Comment text without `//` / `/* */` delimiters, untrimmed.
    pub text: String,
    /// Whether this was a `/* … */` block comment.
    pub block: bool,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// A lexing failure — unterminated string or block comment. The engine
/// surfaces it as a diagnostic rather than panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub line: u32,
    pub message: String,
}

pub fn lex(src: &str) -> Result<Lexed, LexError> {
    Lexer {
        s: src.as_bytes(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    s: &'a [u8],
    i: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Result<Lexed, LexError> {
        while self.i < self.s.len() {
            let line = self.line;
            let c = self.s[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ if c.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment()?,
                b'"' => self.cooked_string(line)?,
                b'\'' => self.quote(line)?,
                b'r' | b'b' if self.starts_string_prefix() => self.prefixed_string(line)?,
                _ if is_ident_start(c) => self.ident(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ => {
                    self.push(Tok::Punct(c as char), line);
                    self.i += 1;
                }
            }
        }
        Ok(self.out)
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.s.get(self.i + ahead).copied()
    }

    fn push(&mut self, tok: Tok, line: u32) {
        self.out.tokens.push(Token { tok, line });
    }

    fn line_comment(&mut self) {
        let line = self.line;
        self.i += 2;
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i] != b'\n' {
            self.i += 1;
        }
        self.out.comments.push(Comment {
            line,
            end_line: line,
            text: String::from_utf8_lossy(&self.s[start..self.i]).into_owned(),
            block: false,
        });
    }

    /// Block comments nest, per the Rust reference: `/* /* */ */` is one
    /// comment.
    fn block_comment(&mut self) -> Result<(), LexError> {
        let line = self.line;
        self.i += 2;
        let start = self.i;
        let mut depth = 1usize;
        while self.i < self.s.len() {
            match self.s[self.i] {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.i += 2;
                }
                b'*' if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.i += 2;
                    if depth == 0 {
                        self.out.comments.push(Comment {
                            line,
                            end_line: self.line,
                            text: String::from_utf8_lossy(&self.s[start..self.i - 2]).into_owned(),
                            block: true,
                        });
                        return Ok(());
                    }
                }
                _ => self.i += 1,
            }
        }
        Err(LexError {
            line,
            message: "unterminated block comment".into(),
        })
    }

    fn cooked_string(&mut self, line: u32) -> Result<(), LexError> {
        self.i += 1; // opening quote
        let start = self.i;
        while self.i < self.s.len() {
            match self.s[self.i] {
                b'\\' => self.i += 2, // skip the escaped character
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'"' => {
                    let text = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
                    self.i += 1;
                    self.push(Tok::Str(text), line);
                    return Ok(());
                }
                _ => self.i += 1,
            }
        }
        Err(LexError {
            line,
            message: "unterminated string literal".into(),
        })
    }

    /// `'` — either a char literal or a lifetime. A char literal has a
    /// closing quote after exactly one (possibly escaped) character; a
    /// lifetime is `'` followed by an identifier with no closing quote.
    fn quote(&mut self, line: u32) -> Result<(), LexError> {
        match self.peek(1) {
            Some(b'\\') => {
                // Escaped char literal: skip the quote, the backslash, and
                // the escaped character (which may itself be a quote), then
                // scan to the closing quote.
                self.i += 3;
                while self.i < self.s.len() && self.s[self.i] != b'\'' {
                    if self.s[self.i] == b'\n' {
                        self.line += 1;
                    }
                    self.i += 1;
                }
                if self.i >= self.s.len() {
                    return Err(LexError {
                        line,
                        message: "unterminated char literal".into(),
                    });
                }
                self.i += 1; // closing quote
                self.push(Tok::Char, line);
                Ok(())
            }
            Some(c) if is_ident_start(c) => {
                // Could be 'a' (char) or 'a / 'abc (lifetime): scan the
                // identifier run and look for a closing quote.
                let mut j = self.i + 1;
                while j < self.s.len() && is_ident_continue(self.s[j]) {
                    j += 1;
                }
                if self.s.get(j) == Some(&b'\'') && j == self.i + 2 {
                    // exactly one character, closed: 'x'
                    self.i = j + 1;
                    self.push(Tok::Char, line);
                } else {
                    let name = String::from_utf8_lossy(&self.s[self.i + 1..j]).into_owned();
                    self.i = j;
                    self.push(Tok::Lifetime(name), line);
                }
                Ok(())
            }
            Some(c) => {
                // Non-identifier char literal like '(' or '\n' handled
                // above; here: '(' or a multi-byte 'é' — find the closing
                // quote one UTF-8 character ahead.
                let width = match c {
                    0xF0.. => 4,
                    0xE0.. => 3,
                    0xC0.. => 2,
                    _ => 1,
                };
                if self.peek(width + 1) == Some(b'\'') {
                    self.i += width + 2;
                    self.push(Tok::Char, line);
                    Ok(())
                } else {
                    Err(LexError {
                        line,
                        message: "unterminated char literal".into(),
                    })
                }
            }
            None => Err(LexError {
                line,
                message: "dangling quote at end of input".into(),
            }),
        }
    }

    /// Whether the cursor starts a raw/byte string (`r"`, `r#"`, `b"`,
    /// `br#"`, …) or a byte char (`b'`) rather than a plain identifier.
    fn starts_string_prefix(&self) -> bool {
        let mut j = self.i;
        if self.s[j] == b'b' {
            j += 1;
            if self.s.get(j) == Some(&b'\'') {
                return true;
            }
        }
        if self.s.get(j) == Some(&b'r') {
            j += 1;
            // r#ident is a raw identifier, r#" is a raw string: only a
            // `#`-run ending in `"` makes this a string prefix.
            let mut k = j;
            while self.s.get(k) == Some(&b'#') {
                k += 1;
            }
            return self.s.get(k) == Some(&b'"');
        }
        self.s.get(j) == Some(&b'"')
    }

    fn prefixed_string(&mut self, line: u32) -> Result<(), LexError> {
        if self.s[self.i] == b'b' {
            self.i += 1;
            if self.s.get(self.i) == Some(&b'\'') {
                return self.quote(line); // byte char literal b'x'
            }
        }
        if self.s.get(self.i) == Some(&b'r') {
            self.i += 1;
            let mut fence = 0usize;
            while self.s.get(self.i) == Some(&b'#') {
                fence += 1;
                self.i += 1;
            }
            self.i += 1; // opening quote (guaranteed by starts_string_prefix)
            let start = self.i;
            while self.i < self.s.len() {
                if self.s[self.i] == b'\n' {
                    self.line += 1;
                    self.i += 1;
                    continue;
                }
                if self.s[self.i] == b'"' {
                    let mut k = self.i + 1;
                    let mut seen = 0usize;
                    while seen < fence && self.s.get(k) == Some(&b'#') {
                        seen += 1;
                        k += 1;
                    }
                    if seen == fence {
                        let text = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
                        self.i = k;
                        self.push(Tok::Str(text), line);
                        return Ok(());
                    }
                }
                self.i += 1;
            }
            return Err(LexError {
                line,
                message: "unterminated raw string literal".into(),
            });
        }
        // b"..." — a cooked byte string.
        self.cooked_string(line)
    }

    fn ident(&mut self, line: u32) {
        let start = self.i;
        while self.i < self.s.len() && is_ident_continue(self.s[self.i]) {
            self.i += 1;
        }
        let mut name = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        // Raw identifier r#type: the `r` lexes into the ident run only when
        // starts_string_prefix said this is not a raw string, so peel the
        // `r#` marker off here.
        if name == "r" && self.s.get(self.i) == Some(&b'#') {
            let rstart = self.i + 1;
            self.i = rstart;
            while self.i < self.s.len() && is_ident_continue(self.s[self.i]) {
                self.i += 1;
            }
            name = String::from_utf8_lossy(&self.s[rstart..self.i]).into_owned();
        }
        self.push(Tok::Ident(name), line);
    }

    fn number(&mut self, line: u32) {
        let start = self.i;
        while self.i < self.s.len() && is_ident_continue(self.s[self.i]) {
            self.i += 1;
        }
        self.push(
            Tok::Num(String::from_utf8_lossy(&self.s[start..self.i]).into_owned()),
            line,
        );
    }
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

fn is_ident_continue(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .unwrap()
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    fn strs(src: &str) -> Vec<String> {
        lex(src)
            .unwrap()
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Str(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn multi_byte_char_literals() {
        assert_eq!(
            idents("let a = ['é', '日', '🙂', '('];\nlet b = c;"),
            vec!["let", "a", "let", "b", "c"]
        );
    }

    #[test]
    fn cooked_string_with_escapes() {
        assert_eq!(strs(r#"let s = "a\"b\\c";"#), vec![r#"a\"b\\c"#]);
    }

    #[test]
    fn raw_strings_any_fence() {
        assert_eq!(
            strs(r###"let s = r"no escapes \ here";"###),
            vec![r"no escapes \ here"]
        );
        assert_eq!(
            strs(r###"let s = r#"quote " inside"#;"###),
            vec![r#"quote " inside"#]
        );
        assert_eq!(
            strs("let s = r##\"has \"# inside\"##;"),
            vec!["has \"# inside"]
        );
    }

    #[test]
    fn raw_string_does_not_hide_following_code() {
        // If the fence matching were wrong, the unwrap after the raw
        // string would be swallowed into the literal.
        let src = r##"let s = r#"x"#; y.unwrap();"##;
        assert!(idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        assert_eq!(strs(r#"let s = b"bytes"; let c = b'x';"#), vec!["bytes"]);
        let toks = lex("b'x'").unwrap().tokens;
        assert_eq!(toks[0].tok, Tok::Char);
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let toks = lex("'a' 'static 'x fn<'b>(c: &'b str)").unwrap().tokens;
        assert_eq!(toks[0].tok, Tok::Char);
        assert_eq!(toks[1].tok, Tok::Lifetime("static".into()));
        assert_eq!(toks[2].tok, Tok::Lifetime("x".into()));
        // an unwrap-looking name inside a char literal is not an ident
        assert!(!idents("let c = '\"'; let d = '\\'';").contains(&"unwrap".into()));
    }

    #[test]
    fn escaped_char_literals() {
        let toks = lex(r"'\n' '\'' '\\' '\u{1F600}'").unwrap().tokens;
        assert!(toks.iter().all(|t| t.tok == Tok::Char));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("a /* outer /* inner */ still comment */ b").unwrap();
        assert_eq!(
            idents("a /* outer /* inner */ still comment */ b"),
            vec!["a", "b"]
        );
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner"));
        assert!(l.comments[0].block);
    }

    #[test]
    fn line_comment_text_and_lines() {
        let l = lex("x // first\ny // invariant: second\n").unwrap();
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].line, 2);
        assert_eq!(l.comments[1].text, " invariant: second");
    }

    #[test]
    fn block_comment_line_span() {
        let l = lex("/* a\nb\nc */ x").unwrap();
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[0].end_line, 3);
        assert_eq!(l.tokens[0].line, 3);
    }

    #[test]
    fn raw_identifier_normalized() {
        assert_eq!(idents("let r#type = r#fn;"), vec!["let", "type", "fn"]);
    }

    #[test]
    fn multiline_string_advances_lines() {
        let l = lex("let s = \"a\nb\";\nx").unwrap();
        let x = l.tokens.last().unwrap();
        assert_eq!(x.tok, Tok::Ident("x".into()));
        assert_eq!(x.line, 3);
    }

    #[test]
    fn unterminated_inputs_error() {
        assert!(lex("\"abc").is_err());
        assert!(lex("/* abc").is_err());
        assert!(lex("r#\"abc\"").is_err());
    }

    #[test]
    fn line_numbers_on_tokens() {
        let l = lex("a\nb\n  c").unwrap();
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }
}
