//! A minimal, dependency-free lexical pass over Rust source.
//!
//! The linter does not need a full AST: every invariant it enforces (L1–L4)
//! is recognizable from the token stream once comments and string literals
//! are stripped. This module produces, for each source line, a *code view*
//! (the line with comment and string-literal interiors blanked to spaces,
//! byte-for-byte the same length) and a *comment view* (the concatenated
//! comment text of the line, where `LINT-ALLOW` and `SAFETY:` directives
//! live).
//!
//! Handled syntax: `//` line comments, nested `/* */` block comments,
//! `"…"` strings with escapes, raw strings `r"…"` / `r#"…"#` (any number of
//! hashes, plus `b`/`c` prefixes), char literals (disambiguated from
//! lifetimes), and byte strings. This covers everything in the workspace;
//! exotic token sequences would at worst blank slightly too much, which
//! fails safe (a masked token can only *hide* a violation inside a string,
//! never invent one).

/// One source line split into its code and comment parts.
#[derive(Debug, Clone)]
pub struct LineView {
    /// Code with comments and string interiors replaced by spaces.
    /// Same byte length as the original line.
    pub code: String,
    /// Concatenated comment text appearing on this line (both `//` and
    /// `/* */` bodies), without the comment markers.
    pub comment: String,
}

impl LineView {
    /// True when the line contains no code tokens at all (blank or
    /// comment-only) — used when scanning upward for `LINT-ALLOW`.
    pub fn is_code_blank(&self) -> bool {
        self.code.chars().all(|c| c.is_whitespace())
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u8),
    Char,
}

/// Split `source` into per-line code/comment views.
pub fn line_views(source: &str) -> Vec<LineView> {
    let mut views = Vec::new();
    let mut state = State::Code;
    for line in source.split('\n') {
        let bytes: Vec<char> = line.chars().collect();
        let mut code = String::with_capacity(line.len());
        let mut comment = String::new();
        let mut i = 0usize;
        // A line comment never continues across lines.
        if state == State::LineComment {
            state = State::Code;
        }
        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        comment.push_str(&bytes[i + 2..].iter().collect::<String>());
                        // Blank the rest of the line in the code view.
                        for _ in i..bytes.len() {
                            code.push(' ');
                        }
                        i = bytes.len();
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        code.push(' ');
                        code.push(' ');
                        i += 2;
                    }
                    '"' => {
                        state = State::Str;
                        code.push('"');
                        i += 1;
                    }
                    'b' | 'c' if next == Some('"') && !prev_is_ident(&bytes, i) => {
                        // Plain byte/C string `b"…"`: escapes apply, so treat
                        // as an ordinary string after the prefix.
                        code.push(c);
                        code.push('"');
                        i += 2;
                        state = State::Str;
                    }
                    'r' | 'b' | 'c'
                        if is_raw_string_start(&bytes, i) && !prev_is_ident(&bytes, i) =>
                    {
                        // Consume prefix up to and including the opening quote,
                        // counting hashes.
                        let mut j = i;
                        while bytes.get(j).is_some_and(|&c| matches!(c, 'r' | 'b' | 'c')) {
                            code.push(bytes[j]);
                            j += 1;
                        }
                        let mut hashes = 0u8;
                        while bytes.get(j) == Some(&'#') {
                            code.push('#');
                            hashes += 1;
                            j += 1;
                        }
                        // bytes[j] is the opening quote.
                        code.push('"');
                        i = j + 1;
                        state = State::RawStr(hashes);
                    }
                    '\'' => {
                        // Lifetime vs char literal: a lifetime is `'ident` not
                        // followed by a closing quote.
                        let is_lifetime = next.is_some_and(|n| n.is_alphabetic() || n == '_')
                            && bytes.get(i + 2) != Some(&'\'');
                        code.push('\'');
                        i += 1;
                        if !is_lifetime {
                            state = State::Char;
                        }
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                },
                // LINT-ALLOW(L2-panic-free): state-machine invariant — LineComment
                // is cleared at line start and never re-entered mid-arm; reaching
                // this arm is a lexer bug worth aborting loudly in tests.
                State::LineComment => unreachable!("handled at line start / takeover above"),
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        code.push(' ');
                        code.push(' ');
                        i += 2;
                        if depth == 1 {
                            state = State::Code;
                        } else {
                            state = State::BlockComment(depth - 1);
                        }
                    } else if c == '/' && next == Some('*') {
                        code.push(' ');
                        code.push(' ');
                        i += 2;
                        state = State::BlockComment(depth + 1);
                    } else {
                        comment.push(c);
                        code.push(' ');
                        i += 1;
                    }
                }
                State::Str => match c {
                    '\\' => {
                        code.push(' ');
                        if next.is_some() {
                            code.push(' ');
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    '"' => {
                        code.push('"');
                        state = State::Code;
                        i += 1;
                    }
                    _ => {
                        code.push(' ');
                        i += 1;
                    }
                },
                State::RawStr(hashes) => {
                    if c == '"' && closes_raw(&bytes, i, hashes) {
                        code.push('"');
                        for _ in 0..hashes {
                            code.push('#');
                        }
                        i += 1 + hashes as usize;
                        state = State::Code;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                State::Char => match c {
                    '\\' => {
                        code.push(' ');
                        if next.is_some() {
                            code.push(' ');
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    '\'' => {
                        code.push('\'');
                        state = State::Code;
                        i += 1;
                    }
                    _ => {
                        code.push(' ');
                        i += 1;
                    }
                },
            }
        }
        // Char literals never span lines; a Char state at EOL is a
        // mis-disambiguated lifetime — reset to Code (the safe direction).
        // Plain strings *can* span lines and keep their state.
        if state == State::Char {
            state = State::Code;
        }
        views.push(LineView { code, comment });
    }
    views
}

/// Is the char before `i` part of an identifier (so `bytes[i]` cannot start
/// a literal prefix)?
fn prev_is_ident(bytes: &[char], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_')
}

/// Does a *raw* string literal start at `i`? (`r"`, `r#"`, `br"`, `cr#"` …)
fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    let mut j = i;
    let mut saw_r = false;
    while let Some(&c) = bytes.get(j) {
        match c {
            'r' if !saw_r => {
                saw_r = true;
                j += 1;
            }
            'b' | 'c' if !saw_r => j += 1,
            _ => break,
        }
        if j - i > 2 {
            return false;
        }
    }
    if !saw_r {
        return false;
    }
    let mut k = j;
    while bytes.get(k) == Some(&'#') {
        k += 1;
    }
    bytes.get(k) == Some(&'"')
}

/// Does the quote at `i` close a raw string with `hashes` trailing hashes?
fn closes_raw(bytes: &[char], i: usize, hashes: u8) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Byte offsets (per line) of regions gated behind `#[cfg(test)]` (or any
/// `cfg` predicate mentioning `test`): returns a per-line mask where `true`
/// marks a column belonging to a test-only item body.
///
/// Detection: each `#[cfg(…test…)]` attribute arms a pending skip; the next
/// top-level-relative `{` opens the gated body, which is masked through its
/// matching `}`. A `;` before any `{` (e.g. `#[cfg(test)] mod proptests;`)
/// disarms without masking.
pub fn test_gated_mask(views: &[LineView]) -> Vec<Vec<bool>> {
    let mut mask: Vec<Vec<bool>> = views
        .iter()
        .map(|v| vec![false; v.code.chars().count()])
        .collect();

    // Flatten to (line, col, char) stream of the code view.
    let stream: Vec<(usize, usize, char)> = views
        .iter()
        .enumerate()
        .flat_map(|(ln, v)| {
            v.code
                .chars()
                .enumerate()
                .map(move |(col, c)| (ln, col, c))
                .chain(std::iter::once((ln, usize::MAX, '\n')))
        })
        .collect();

    let mut i = 0usize;
    while i < stream.len() {
        let (_, _, c) = stream[i];
        if c == '#' && matches!(stream.get(i + 1), Some((_, _, '['))) {
            // Collect the attribute text up to the matching ']'.
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut attr = String::new();
            while j < stream.len() && depth > 0 {
                let ch = stream[j].2;
                match ch {
                    '[' => depth += 1,
                    ']' => depth -= 1,
                    _ => {}
                }
                if depth > 0 {
                    attr.push(ch);
                }
                j += 1;
            }
            let is_test_cfg = attr.trim_start().starts_with("cfg") && contains_word(&attr, "test");
            if is_test_cfg {
                // Find next `{` or `;` (skipping further attributes).
                let mut k = j;
                let mut in_attr = 0i32;
                while k < stream.len() {
                    let ch = stream[k].2;
                    match ch {
                        '[' => in_attr += 1,
                        ']' => in_attr -= 1,
                        '{' if in_attr == 0 => break,
                        ';' if in_attr == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                if k < stream.len() && stream[k].2 == '{' {
                    // Mask from the attribute start through the matching '}'.
                    let mut depth = 0i32;
                    let mut m = k;
                    while m < stream.len() {
                        let ch = stream[m].2;
                        match ch {
                            '{' => depth += 1,
                            '}' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    for item in &stream[i..=m.min(stream.len() - 1)] {
                        let (ln, col, _) = *item;
                        if col != usize::MAX {
                            mask[ln][col] = true;
                        }
                    }
                    i = m + 1;
                    continue;
                }
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

/// Whole-word containment (`test` matches in `any(test, loom)` but not in
/// `integration_tests`).
pub fn contains_word(haystack: &str, word: &str) -> bool {
    let mut start = 0usize;
    while let Some(pos) = haystack[start..].find(word) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !haystack[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = abs + word.len();
        let after_ok = after >= haystack.len()
            || !haystack[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = abs + word.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Code views joined back into one string (newline-separated).
    fn code_of(src: &str) -> String {
        line_views(src)
            .iter()
            .map(|v| v.code.clone())
            .collect::<Vec<_>>()
            .join("\n")
    }

    // ---- raw strings -------------------------------------------------

    #[test]
    fn raw_string_interior_is_blanked() {
        // Item-looking tokens inside a raw string must never reach the
        // parser; code after the literal must survive.
        let src = r##"let s = r#"fn fake() { // not a comment "q" }"#; let real = 1;"##;
        let code = code_of(src);
        assert!(!code.contains("fake"), "{code}");
        assert!(!code.contains("not a comment"), "{code}");
        assert!(code.contains("let real = 1;"), "{code}");
        // Same byte length as the original line (blanking, not deletion).
        assert_eq!(code.chars().count(), src.chars().count());
    }

    #[test]
    fn raw_string_hash_depth_is_respected() {
        // `"#` inside an `r##"…"##` literal does not close it.
        let src = r###"let s = r##"a"#b"##; let t = 2;"###;
        let code = code_of(src);
        assert!(!code.contains('a') && !code.contains('b'), "{code}");
        assert!(code.contains("let t = 2;"), "{code}");
    }

    #[test]
    fn raw_string_spans_lines() {
        let src = "let s = r#\"line one\nfn bogus() {\n\"#; let after = 3;";
        let code = code_of(src);
        assert!(!code.contains("bogus"), "{code}");
        assert!(code.contains("let after = 3;"), "{code}");
    }

    #[test]
    fn raw_byte_and_c_strings_are_blanked() {
        for src in [
            r##"let s = br#"fn f() {"#; let k = 1;"##,
            r##"let s = cr#"fn f() {"#; let k = 1;"##,
            r#"let s = b"fn f() {"; let k = 1;"#,
        ] {
            let code = code_of(src);
            assert!(!code.contains("f() {"), "{src} -> {code}");
            assert!(code.contains("let k = 1;"), "{src} -> {code}");
        }
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        // `r#type` is a raw identifier; nothing may be blanked.
        let src = "let r#type = 1; let x = r#type;";
        assert_eq!(code_of(src), src);
    }

    #[test]
    fn backslash_in_raw_string_is_not_an_escape() {
        // In `r"\"` the backslash is literal and the quote closes.
        let src = r#"let s = r"\"; let done = 1;"#;
        let code = code_of(src);
        assert!(code.contains("let done = 1;"), "{code}");
    }

    // ---- lifetimes vs char literals ---------------------------------

    #[test]
    fn lifetimes_survive_char_literals_dont() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let code = code_of(src);
        // The lifetime is code (kept); the char literal interior is blanked.
        assert!(code.contains("fn f<'a>(x: &'a str)"), "{code}");
        assert!(!code.contains('x') || !code.contains("'x'"), "{code}");
        // Braces must balance for the item parser.
        assert_eq!(code.matches('{').count(), code.matches('}').count());
    }

    #[test]
    fn static_lifetime_is_not_a_char() {
        let src = "let l: &'static str = x; let after = 1;";
        let code = code_of(src);
        assert!(code.contains("'static"), "{code}");
        assert!(code.contains("let after = 1;"), "{code}");
    }

    #[test]
    fn escaped_quote_char_literal() {
        let src = r"let c = '\''; let after = 1;";
        let code = code_of(src);
        assert!(code.contains("let after = 1;"), "{code}");
    }

    #[test]
    fn byte_char_literal() {
        let src = r"let c = b'\''; let d = b'a'; let after = 1;";
        let code = code_of(src);
        assert!(code.contains("let after = 1;"), "{code}");
    }

    #[test]
    fn adjacent_lifetimes_in_generics() {
        let src = "struct S<'a, 'b>(&'a str, &'b str);";
        assert_eq!(code_of(src), src);
    }

    #[test]
    fn underscore_char_and_lifetime() {
        let l = "let r: &'_ str = s; let after = 1;";
        assert_eq!(code_of(l), l);
        let c = "let c = '_'; let after = 1;";
        let code = code_of(c);
        assert!(code.contains("let after = 1;"), "{code}");
        assert!(!code.contains("'_'"), "{code}");
    }

    #[test]
    fn char_literal_containing_quote_does_not_open_string() {
        let src = r#"let q = '"'; let s = "fn bad() {"; let after = 1;"#;
        let code = code_of(src);
        assert!(!code.contains("bad"), "{code}");
        assert!(code.contains("let after = 1;"), "{code}");
    }

    #[test]
    fn digit_char_literals_blank() {
        let src = "let one = '1'; let after = 1;";
        let code = code_of(src);
        assert!(code.contains("let after = 1;"), "{code}");
    }

    // ---- nested block comments --------------------------------------

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let src = "/* one /* two */ still comment */ run();";
        let code = code_of(src);
        assert!(!code.contains("still comment"), "{code}");
        assert!(code.contains("run();"), "{code}");
    }

    #[test]
    fn nested_block_comment_spans_lines() {
        let src = "/* a\n/* b */\nstill */ let x = 1;\nlet y = 2;";
        let code = code_of(src);
        assert!(!code.contains("still"), "{code}");
        assert!(code.contains("let x = 1;"), "{code}");
        assert!(code.contains("let y = 2;"), "{code}");
    }

    #[test]
    fn block_comment_text_lands_in_comment_view() {
        let views = line_views("/* LINT-ALLOW(L2-panic-free): reason */ x();");
        assert!(views[0].comment.contains("LINT-ALLOW"));
        assert!(views[0].code.contains("x();"));
    }

    #[test]
    fn comment_markers_inside_strings_are_inert() {
        let src = r#"let url = "http://e.com/*x*/"; let after = 1;"#;
        let code = code_of(src);
        assert!(code.contains("let after = 1;"), "{code}");
        let views = line_views(src);
        assert_eq!(views[0].comment, "", "no comment text should be captured");
    }

    #[test]
    fn line_comment_inside_block_comment_does_not_escape() {
        let src = "/* // line marker\nstill comment */ let x = 1;";
        let code = code_of(src);
        assert!(!code.contains("still"), "{code}");
        assert!(code.contains("let x = 1;"), "{code}");
    }

    // ---- misc invariants the item parser relies on -------------------

    #[test]
    fn string_escape_at_eol_continues_string() {
        // A trailing backslash continues the string onto the next line.
        let src = "let s = \"abc\\\nfn fake() {\";\nlet after = 1;";
        let code = code_of(src);
        assert!(!code.contains("fake"), "{code}");
        assert!(code.contains("let after = 1;"), "{code}");
    }

    #[test]
    fn code_view_lengths_match_input_lines() {
        let src = "fn f() { /* c */ let s = \"x\"; } // tail\nlet c = 'y';";
        for (view, line) in line_views(src).iter().zip(src.split('\n')) {
            assert_eq!(view.code.chars().count(), line.chars().count());
        }
    }
}
