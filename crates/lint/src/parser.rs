//! Item-level parsing of Rust source over the lexer's code views.
//!
//! The call-graph pass (A1 hot-loop allocation) and the units pass (T3)
//! need more structure than per-line tokens: which functions exist, which
//! module/impl they live in, what they call, and which allocation
//! primitives their bodies touch. This module provides exactly that — no
//! external dependency, no full AST.
//!
//! Pipeline: [`crate::lexer::line_views`] blanks comments and string
//! interiors, [`crate::lexer::test_gated_mask`] removes `#[cfg(test)]`
//! bodies, then a tokenizer produces a flat token stream and a single-pass
//! item walker recognizes `mod`/`impl`/`trait`/`fn`/`use` structure. Function
//! bodies are scanned for call sites (free calls, `Path::calls`, `.method()`
//! calls, macros) and allocation primitives.
//!
//! The walker is deliberately forgiving: token sequences it does not
//! understand are skipped, and only *structural* damage (unbalanced braces,
//! a `fn` without a body or `;`) is reported as a parse error, which the
//! engine surfaces as a `P0-parse` diagnostic (exit code 1 — distinct from
//! internal errors, which exit 2).

use crate::lexer::{line_views, test_gated_mask, LineView};

/// One token of the code view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based source line.
    pub line: usize,
    /// 0-based char column of the token start (used for cfg(test) masking).
    pub col: usize,
    pub kind: TokKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers keep their name, flagged raw).
    Ident(String),
    /// Numeric literal text.
    Num(String),
    /// Lifetime (`'a`), without the quote.
    Lifetime(String),
    /// Operator / punctuation, multi-char ops joined (`::`, `->`, `=>`,
    /// `==`, `!=`, `<=`, `>=`, `&&`, `||`, `+=`, `-=`, `*=`, `/=`, `..`).
    Punct(&'static str),
    /// Any other single char (string-literal quotes survive blanking).
    Other(char),
}

impl TokKind {
    fn punct(&self) -> Option<&'static str> {
        match self {
            TokKind::Punct(p) => Some(p),
            _ => None,
        }
    }

    fn ident(&self) -> Option<&str> {
        match self {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

const PUNCT2: [&str; 14] = [
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "..",
];

/// Tokenize masked code views into a flat stream.
pub fn tokenize(views: &[LineView], mask: &[Vec<bool>]) -> Vec<Tok> {
    let mut out = Vec::new();
    for (ln, view) in views.iter().enumerate() {
        let chars: Vec<char> = view.code.chars().collect();
        let masked = |i: usize| mask[ln].get(i).copied().unwrap_or(false);
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() || masked(i) {
                i += 1;
                continue;
            }
            let start = i;
            if c.is_alphabetic() || c == '_' {
                let mut s = String::new();
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    s.push(chars[i]);
                    i += 1;
                }
                // Raw identifier `r#name`: keep the name, it is never a
                // keyword in practice for our item grammar.
                if s == "r" && chars.get(i) == Some(&'#') {
                    let mut j = i + 1;
                    let mut raw = String::new();
                    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                        raw.push(chars[j]);
                        j += 1;
                    }
                    if !raw.is_empty() {
                        i = j;
                        s = raw;
                    }
                }
                out.push(Tok {
                    line: ln + 1,
                    col: start,
                    kind: TokKind::Ident(s),
                });
            } else if c.is_ascii_digit() {
                let mut s = String::new();
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    // `1..2` — don't absorb a range operator into the number.
                    if chars[i] == '.' && chars.get(i + 1) == Some(&'.') {
                        break;
                    }
                    s.push(chars[i]);
                    i += 1;
                    // Exponent sign: `1e-9`, `2.5E+3`.
                    if (s.ends_with('e') || s.ends_with('E'))
                        && s.chars().next().is_some_and(|c| c.is_ascii_digit())
                        && matches!(chars.get(i), Some('+') | Some('-'))
                        && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit())
                    {
                        s.push(chars[i]);
                        i += 1;
                    }
                }
                out.push(Tok {
                    line: ln + 1,
                    col: start,
                    kind: TokKind::Num(s),
                });
            } else if c == '\'' {
                // The lexer kept lifetimes intact and blanked char-literal
                // interiors (leaving `'  '`). Distinguish: a quote followed
                // by an identifier char is a lifetime.
                if chars
                    .get(i + 1)
                    .is_some_and(|n| n.is_alphabetic() || *n == '_')
                {
                    let mut s = String::new();
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        s.push(chars[i]);
                        i += 1;
                    }
                    out.push(Tok {
                        line: ln + 1,
                        col: start,
                        kind: TokKind::Lifetime(s),
                    });
                } else {
                    // Blanked char literal `'  '`: skip to the closing quote.
                    let mut j = i + 1;
                    while j < chars.len() && chars[j] != '\'' {
                        j += 1;
                    }
                    i = (j + 1).min(chars.len());
                    out.push(Tok {
                        line: ln + 1,
                        col: start,
                        kind: TokKind::Other('\''),
                    });
                }
            } else if c == '"' {
                // Blanked string literal: skip to the closing quote (which,
                // for raw strings, is followed by hashes the tokenizer can
                // simply emit as punctuation-free skips).
                let mut j = i + 1;
                while j < chars.len() && chars[j] != '"' {
                    j += 1;
                }
                // Trailing hashes of a raw string terminator.
                let mut k = (j + 1).min(chars.len());
                // Only skip a hash directly after the closing quote (the
                // raw-string terminator); later hashes tokenize normally.
                if k < chars.len() && chars[k] == '#' && chars.get(k.wrapping_sub(1)) == Some(&'"')
                {
                    k += 1;
                }
                i = k.max(j + 1).min(chars.len());
                out.push(Tok {
                    line: ln + 1,
                    col: start,
                    kind: TokKind::Other('"'),
                });
            } else {
                // Multi-char operators first.
                let two: String = chars[i..chars.len().min(i + 2)].iter().collect();
                if let Some(p) = PUNCT2.iter().find(|p| **p == two) {
                    // `..=` — absorb the `=` so it can't look like an assign.
                    if *p == ".." && chars.get(i + 2) == Some(&'=') {
                        i += 3;
                    } else {
                        i += 2;
                    }
                    out.push(Tok {
                        line: ln + 1,
                        col: start,
                        kind: TokKind::Punct(p),
                    });
                } else {
                    i += 1;
                    const SINGLES: &str = "(){}[]<>,;:#!&|+-*/=.?@$%^~";
                    if let Some(pos) = SINGLES.find(c) {
                        // Map to a 'static single-char str.
                        const TABLE: [&str; 28] = [
                            "(", ")", "{", "}", "[", "]", "<", ">", ",", ";", ":", "#", "!", "&",
                            "|", "+", "-", "*", "/", "=", ".", "?", "@", "$", "%", "^", "~",
                            "\u{0}",
                        ];
                        let idx = SINGLES
                            .char_indices()
                            .position(|(p, _)| p == pos)
                            .unwrap_or(27);
                        out.push(Tok {
                            line: ln + 1,
                            col: start,
                            kind: TokKind::Punct(TABLE[idx]),
                        });
                    } else {
                        out.push(Tok {
                            line: ln + 1,
                            col: start,
                            kind: TokKind::Other(c),
                        });
                    }
                }
            }
        }
    }
    out
}

/// A call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// 1-based line of the callee name token.
    pub line: usize,
    /// Path segments as written (`["Stopwatch", "start"]`, `["helper"]`).
    /// For method calls this is the single method name.
    pub path: Vec<String>,
    /// `.name(…)` method-call syntax.
    pub method: bool,
    /// Method call whose receiver token is `self`.
    pub recv_self: bool,
    /// Number of enclosing syntactic loops (`for`/`while`/`while let`/
    /// `loop`, labeled or not) around this call inside its function body.
    pub loop_depth: usize,
}

/// One occurrence of an allocation primitive inside a function body
/// (`Vec::new`, `vec![]`, `.collect()`, `.clone()`, `format!`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// 1-based line of the primitive.
    pub line: usize,
    /// The primitive as written, for diagnostics (`Vec::with_capacity`,
    /// `.to_vec()`, `vec!`).
    pub what: String,
    /// Number of enclosing syntactic loops around the site.
    pub loop_depth: usize,
}

/// A parsed function (free fn, inherent/trait method, or default method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name.
    pub name: String,
    /// Fully-qualified path `crate::module::[Type::]name`.
    pub qual: String,
    /// Enclosing impl/trait type name, if any.
    pub type_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Allocation primitives in the body.
    pub allocs: Vec<AllocSite>,
}

/// Parse result for one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    /// `use` aliases: last segment (or `as` alias) → full path segments.
    pub uses: Vec<(String, Vec<String>)>,
    /// Structural problems: (line, message).
    pub errors: Vec<(usize, String)>,
}

/// Module path of a workspace-relative file: `crates/model/src/latency.rs`
/// → (`socl_model`, `["latency"]`); `lib.rs` → crate root; `src/bin/x.rs`
/// and `main.rs` → crate root.
pub fn module_of(rel_path: &str) -> (String, Vec<String>) {
    let p = rel_path.replace('\\', "/");
    let krate = p
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    let crate_name = if krate == "socl" || krate.is_empty() {
        "socl".to_string()
    } else {
        format!("socl_{}", krate.replace('-', "_"))
    };
    let mut mods = Vec::new();
    if let Some(tail) = p.split("/src/").nth(1) {
        for seg in tail.split('/') {
            let stem = seg.strip_suffix(".rs").unwrap_or(seg);
            if stem == "lib" || stem == "main" || stem == "mod" || stem == "bin" {
                continue;
            }
            mods.push(stem.to_string());
        }
    }
    (crate_name, mods)
}

/// Keywords that can precede an identifier-looking call position but are
/// control flow, not callees.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "in"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "fn"
            | "pub"
            | "use"
            | "mod"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "union"
            | "type"
            | "const"
            | "static"
            | "where"
            | "as"
            | "dyn"
            | "unsafe"
            | "extern"
            | "crate"
            | "self"
            | "Self"
            | "super"
            | "async"
            | "await"
    )
}

/// Parse one file into functions, use-aliases and parse errors.
pub fn parse_file(rel_path: &str, source: &str) -> ParsedFile {
    let views = line_views(source);
    let mask = test_gated_mask(&views);
    let toks = tokenize(&views, &mask);
    let (crate_name, file_mods) = module_of(rel_path);

    let mut out = ParsedFile::default();
    let mut w = Walker {
        toks: &toks,
        i: 0,
        crate_name,
        out: &mut out,
    };
    let mut mods = file_mods;
    w.items(&mut mods, None, 0);
    if w.i < toks.len() {
        let line = toks[w.i].line;
        w.out
            .errors
            .push((line, "unbalanced braces: item walker stopped early".into()));
    }
    out
}

struct Walker<'a> {
    toks: &'a [Tok],
    i: usize,
    crate_name: String,
    out: &'a mut ParsedFile,
}

impl<'a> Walker<'a> {
    fn peek(&self, k: usize) -> Option<&TokKind> {
        self.toks.get(self.i + k).map(|t| &t.kind)
    }

    fn line(&self) -> usize {
        self.toks.get(self.i).map(|t| t.line).unwrap_or(0)
    }

    /// Skip a balanced `(..)`, `[..]`, `{..}` group starting at the current
    /// opening token. Returns false (and does not move) if not at an opener.
    fn skip_group(&mut self) -> bool {
        let (open, close) = match self.peek(0).and_then(|k| k.punct()) {
            Some("(") => ("(", ")"),
            Some("[") => ("[", "]"),
            Some("{") => ("{", "}"),
            _ => return false,
        };
        let mut depth = 0usize;
        while self.i < self.toks.len() {
            match self.peek(0).and_then(|k| k.punct()) {
                Some(p) if p == open => depth += 1,
                Some(p) if p == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        return true;
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
        false // ran off the end without the matching close
    }

    /// Skip a `<...>` generic group (angle depth, `->` safe: the tokenizer
    /// emits it as a single token).
    fn skip_angles(&mut self) {
        let mut depth = 0usize;
        while self.i < self.toks.len() {
            match self.peek(0).and_then(|k| k.punct()) {
                Some("<") => depth += 1,
                Some(">") => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        self.i += 1;
                        return;
                    }
                }
                Some("(") | Some("[") | Some("{") => {
                    self.skip_group();
                    continue;
                }
                Some(";") => return, // malformed; bail without consuming
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Walk items at module/impl level until the matching close brace (depth
    /// tracked by the caller passing `until_close = true` via `depth > 0`).
    fn items(&mut self, mods: &mut Vec<String>, type_name: Option<&str>, depth: usize) {
        while self.i < self.toks.len() {
            let kind = self.toks[self.i].kind.clone();
            match &kind {
                TokKind::Punct("}") => {
                    if depth > 0 {
                        return; // caller consumes
                    }
                    // Stray close at top level: structural error.
                    self.out
                        .errors
                        .push((self.line(), "unmatched `}` at item level".into()));
                    self.i += 1;
                }
                TokKind::Punct("#") => {
                    // Attribute: `#` `!`? `[ .. ]`.
                    self.i += 1;
                    if self.peek(0).and_then(|k| k.punct()) == Some("!") {
                        self.i += 1;
                    }
                    if !self.skip_group() {
                        // not a bracket group; ignore
                    }
                }
                TokKind::Ident(w) if w == "use" => {
                    self.parse_use();
                }
                TokKind::Ident(w) if w == "mod" => {
                    self.i += 1;
                    let name = match self.peek(0).and_then(|k| k.ident()) {
                        Some(n) => n.to_string(),
                        None => continue,
                    };
                    self.i += 1;
                    match self.peek(0).and_then(|k| k.punct()) {
                        Some("{") => {
                            self.i += 1;
                            mods.push(name);
                            self.items(mods, None, depth + 1);
                            mods.pop();
                            if self.peek(0).and_then(|k| k.punct()) == Some("}") {
                                self.i += 1;
                            } else {
                                self.out.errors.push((
                                    self.line(),
                                    "module body not closed before end of file".into(),
                                ));
                            }
                        }
                        Some(";") => self.i += 1,
                        _ => {}
                    }
                }
                TokKind::Ident(w) if w == "impl" || w == "trait" => {
                    let is_trait = w == "trait";
                    self.i += 1;
                    if self.peek(0).and_then(|k| k.punct()) == Some("<") {
                        self.skip_angles();
                    }
                    // Collect path tokens until `{`, `for`, `where` or `;`.
                    let mut last_path: Vec<String> = Vec::new();
                    let mut self_ty: Option<String> = None;
                    while self.i < self.toks.len() {
                        match &self.toks[self.i].kind {
                            TokKind::Punct("{") => break,
                            TokKind::Punct(";") => break,
                            TokKind::Ident(k) if k == "for" && !is_trait => {
                                self_ty = None;
                                last_path.clear();
                                self.i += 1;
                            }
                            TokKind::Ident(k) if k == "where" => {
                                // bounds; the `{` still terminates
                                self.i += 1;
                            }
                            TokKind::Ident(seg) => {
                                last_path.push(seg.clone());
                                self.i += 1;
                            }
                            TokKind::Punct("<") => self.skip_angles(),
                            TokKind::Punct("(") => {
                                self.skip_group();
                            }
                            _ => self.i += 1,
                        }
                    }
                    self_ty = self_ty.or_else(|| {
                        last_path
                            .iter()
                            .rev()
                            .find(|s| !is_keyword(s) && !s.is_empty())
                            .cloned()
                    });
                    if self.peek(0).and_then(|k| k.punct()) == Some("{") {
                        self.i += 1;
                        self.items(mods, self_ty.as_deref(), depth + 1);
                        if self.peek(0).and_then(|k| k.punct()) == Some("}") {
                            self.i += 1;
                        } else {
                            self.out.errors.push((
                                self.line(),
                                "impl/trait body not closed before end of file".into(),
                            ));
                        }
                    } else if self.peek(0).and_then(|k| k.punct()) == Some(";") {
                        self.i += 1;
                    }
                }
                TokKind::Ident(w) if w == "fn" => {
                    self.parse_fn(mods, type_name);
                }
                TokKind::Ident(w) if w == "macro_rules" => {
                    // `macro_rules ! name { … }` — skip entirely.
                    self.i += 1;
                    while self.i < self.toks.len()
                        && self.peek(0).and_then(|k| k.punct()) != Some("{")
                    {
                        self.i += 1;
                    }
                    self.skip_group();
                }
                TokKind::Ident(w)
                    if w == "struct"
                        || w == "enum"
                        || w == "union"
                        || w == "static"
                        || w == "const"
                        || w == "type"
                        || w == "extern" =>
                {
                    // Skip the item: to `;` or through its brace group.
                    self.i += 1;
                    while self.i < self.toks.len() {
                        match self.peek(0).and_then(|k| k.punct()) {
                            Some(";") => {
                                self.i += 1;
                                break;
                            }
                            Some("{") => {
                                self.skip_group();
                                break;
                            }
                            Some("<") => self.skip_angles(),
                            Some("(") | Some("[") => {
                                // tuple struct (`;` may follow) / array type
                                self.skip_group();
                            }
                            Some("=") => {
                                // const/static/type initializer: it may
                                // contain calls worth attributing? Items at
                                // module level are evaluated at compile time;
                                // skip to `;`.
                                self.i += 1;
                            }
                            _ => self.i += 1,
                        }
                        // `fn` appearing inside a const initializer is not an
                        // item; the `;`/`{` arms above terminate first.
                    }
                }
                _ => self.i += 1,
            }
        }
    }

    /// Parse `use a::b::{c, d as e, f::*};` into alias entries.
    fn parse_use(&mut self) {
        self.i += 1; // `use`
        let prefix: Vec<String> = Vec::new();
        self.use_tree(&prefix);
        // Consume trailing `;` if present.
        if self.peek(0).and_then(|k| k.punct()) == Some(";") {
            self.i += 1;
        }
    }

    fn use_tree(&mut self, prefix: &[String]) {
        let mut path: Vec<String> = Vec::new();
        loop {
            match self.peek(0) {
                Some(TokKind::Ident(s)) if s == "as" => {
                    self.i += 1;
                    if let Some(TokKind::Ident(alias)) = self.peek(0) {
                        let alias = alias.clone();
                        let mut full = prefix.to_vec();
                        full.extend(path.iter().cloned());
                        self.out.uses.push((alias, full));
                        self.i += 1;
                    }
                    return;
                }
                Some(TokKind::Ident(s)) => {
                    path.push(s.clone());
                    self.i += 1;
                }
                Some(TokKind::Punct("::")) => {
                    self.i += 1;
                    if self.peek(0).and_then(|k| k.punct()) == Some("{") {
                        self.i += 1; // `{`
                        let mut base = prefix.to_vec();
                        base.extend(path.iter().cloned());
                        while self.i < self.toks.len() {
                            match self.peek(0).and_then(|k| k.punct()) {
                                Some("}") => {
                                    self.i += 1;
                                    return;
                                }
                                Some(",") => {
                                    self.i += 1;
                                }
                                _ => {
                                    let before = self.i;
                                    let b = base.clone();
                                    self.use_tree(&b);
                                    if self.i == before {
                                        self.i += 1; // malformed entry; keep moving
                                    }
                                }
                            }
                        }
                        return;
                    }
                    if self.peek(0).and_then(|k| k.punct()) == Some("*") {
                        self.i += 1;
                        let mut full = prefix.to_vec();
                        full.extend(path.iter().cloned());
                        self.out.uses.push(("*".into(), full));
                        return;
                    }
                    continue;
                }
                _ => break,
            }
        }
        if let Some(last) = path.last().cloned() {
            let mut full = prefix.to_vec();
            full.extend(path.iter().cloned());
            self.out.uses.push((last, full));
        }
    }

    /// Parse `fn name …  { body }` (or `;` for a bodiless declaration).
    fn parse_fn(&mut self, mods: &[String], type_name: Option<&str>) {
        let fn_line = self.line();
        self.i += 1; // `fn`
        let name = match self.peek(0).and_then(|k| k.ident()) {
            Some(n) => n.to_string(),
            None => return,
        };
        self.i += 1;
        // Signature: skip generics/args/return/where until `{` or `;`.
        loop {
            match self.peek(0) {
                None => {
                    self.out
                        .errors
                        .push((fn_line, format!("fn `{name}`: signature never ends")));
                    return;
                }
                Some(TokKind::Punct("<")) => self.skip_angles(),
                Some(TokKind::Punct("(")) | Some(TokKind::Punct("[")) => {
                    self.skip_group();
                }
                Some(TokKind::Punct("{")) => break,
                Some(TokKind::Punct(";")) => {
                    self.i += 1;
                    return; // declaration only
                }
                _ => self.i += 1,
            }
        }
        // Body.
        let body_start = self.i + 1;
        if !self.skip_group() {
            self.out
                .errors
                .push((fn_line, format!("fn `{name}`: body not closed")));
        }
        let body_end = self.i.saturating_sub(1); // matching `}` index
        let mut qual = self.crate_name.clone();
        for m in mods {
            qual.push_str("::");
            qual.push_str(m);
        }
        if let Some(t) = type_name {
            qual.push_str("::");
            qual.push_str(t);
        }
        qual.push_str("::");
        qual.push_str(&name);
        let (calls, allocs, nested) = scan_body(self.toks, body_start, body_end, type_name);
        self.out.fns.push(FnItem {
            name,
            qual,
            type_name: type_name.map(str::to_string),
            line: fn_line,
            calls,
            allocs,
        });
        // Nested `fn` items found inside the body parse as their own items.
        for (start, t_name) in nested {
            let mut w = Walker {
                toks: self.toks,
                i: start,
                crate_name: self.crate_name.clone(),
                out: self.out,
            };
            w.parse_fn(mods, t_name.as_deref());
        }
    }
}

/// One open delimiter group during a body scan.
struct GroupCtx {
    /// True when this `{…}` is the body of a `for`/`while`/`loop`.
    is_loop: bool,
}

/// Scan a function body token range for call sites and allocation
/// primitives. Returns (calls, allocs, nested fn starts).
///
/// Loop depth is tracked syntactically: a `for`/`while`/`loop` keyword arms
/// a *pending loop* at the current group-nesting level, and the next `{`
/// opened at that same level becomes the loop body. Braces nested inside
/// the header's parentheses (`while let Some(HeapEntry { node, .. }) = …`)
/// sit at a deeper group level, so they never steal the pending marker;
/// labeled loops (`'outer: loop`) work unchanged because the label tokens
/// pass through before the keyword is seen. A `;` or group close at or
/// below the pending level disarms it (e.g. a bare `for` in an HRTB that
/// never grows a body).
#[allow(clippy::type_complexity)]
fn scan_body(
    toks: &[Tok],
    start: usize,
    end: usize,
    type_name: Option<&str>,
) -> (Vec<CallSite>, Vec<AllocSite>, Vec<(usize, Option<String>)>) {
    let mut calls = Vec::new();
    let mut allocs = Vec::new();
    let mut nested: Vec<(usize, Option<String>)> = Vec::new();
    let mut groups: Vec<GroupCtx> = Vec::new();
    let mut pending_loop: Option<usize> = None;
    let mut loop_depth = 0usize;
    let mut i = start;
    while i < end.min(toks.len()) {
        match &toks[i].kind {
            TokKind::Punct(p @ ("(" | "[" | "{")) => {
                let is_loop = *p == "{" && pending_loop == Some(groups.len());
                if is_loop {
                    pending_loop = None;
                    loop_depth += 1;
                }
                groups.push(GroupCtx { is_loop });
                i += 1;
            }
            TokKind::Punct(")" | "]" | "}") => {
                if let Some(g) = groups.pop() {
                    if g.is_loop {
                        loop_depth -= 1;
                    }
                }
                if pending_loop.is_some_and(|lvl| groups.len() < lvl) {
                    pending_loop = None;
                }
                i += 1;
            }
            TokKind::Punct(";") => {
                if pending_loop.is_some_and(|lvl| groups.len() <= lvl) {
                    pending_loop = None;
                }
                i += 1;
            }
            TokKind::Ident(w) if w == "for" || w == "while" || w == "loop" => {
                // `for<'a> …` is an HRTB, not a loop header.
                let hrtb = w == "for" && toks.get(i + 1).and_then(|t| t.kind.punct()) == Some("<");
                if !hrtb {
                    pending_loop = Some(groups.len());
                }
                i += 1;
            }
            TokKind::Ident(w) if w == "fn" => {
                // Nested item: record and skip its body so its calls are not
                // attributed to the enclosing fn.
                nested.push((i, type_name.map(str::to_string)));
                // advance past signature to `{` then matching `}`
                let mut j = i + 1;
                let mut paren = 0i32;
                while j < end.min(toks.len()) {
                    match toks[j].kind.punct() {
                        Some("(") | Some("[") => paren += 1,
                        Some(")") | Some("]") => paren -= 1,
                        Some("{") if paren == 0 => break,
                        Some(";") if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if toks.get(j).and_then(|t| t.kind.punct()) == Some("{") {
                    let mut depth = 0i32;
                    while j < end.min(toks.len()) {
                        match toks[j].kind.punct() {
                            Some("{") => depth += 1,
                            Some("}") => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                i = j + 1;
            }
            TokKind::Ident(name) if !is_keyword(name) => {
                // Collect the longest path chain `a::b::c` ending here.
                let mut path = vec![name.clone()];
                let line = toks[i].line;
                let mut j = i + 1;
                loop {
                    if toks.get(j).and_then(|t| t.kind.punct()) == Some("::") {
                        // Turbofish `::<T>` — skip the generic group.
                        if toks.get(j + 1).and_then(|t| t.kind.punct()) == Some("<") {
                            let mut depth = 0i32;
                            let mut k = j + 1;
                            while k < toks.len() {
                                match toks[k].kind.punct() {
                                    Some("<") => depth += 1,
                                    Some(">") => {
                                        depth -= 1;
                                        if depth == 0 {
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                                k += 1;
                            }
                            j = k + 1;
                            continue;
                        }
                        match toks.get(j + 1).map(|t| &t.kind) {
                            Some(TokKind::Ident(seg)) if !is_keyword(seg) => {
                                path.push(seg.clone());
                                j += 2;
                            }
                            _ => break,
                        }
                    } else {
                        break;
                    }
                }
                let call_line = toks
                    .get(j.saturating_sub(1))
                    .map(|t| t.line)
                    .unwrap_or(line);
                let next = toks.get(j).map(|t| &t.kind);
                let is_call = matches!(next, Some(TokKind::Punct("(")));
                let is_macro = matches!(next, Some(TokKind::Punct("!")))
                    && matches!(
                        toks.get(j + 1).and_then(|t| t.kind.punct()),
                        Some("(") | Some("[") | Some("{")
                    );
                // The token *before* the chain decides method-ness.
                let prev = i.checked_sub(1).and_then(|p| toks.get(p)).map(|t| &t.kind);
                let is_method = path.len() == 1 && matches!(prev, Some(TokKind::Punct(".")));
                let recv_self = is_method
                    && i >= 2
                    && matches!(&toks[i - 2].kind, TokKind::Ident(s) if s == "self");

                if is_macro {
                    if matches!(
                        path.last().map(String::as_str),
                        Some("vec") | Some("format")
                    ) {
                        allocs.push(AllocSite {
                            line: call_line,
                            what: format!("{}!", path.join("::")),
                            loop_depth,
                        });
                    }
                    i = j + 1;
                    continue;
                }
                if is_call {
                    if let Some(what) = alloc_call(&path, is_method) {
                        allocs.push(AllocSite {
                            line: call_line,
                            what,
                            loop_depth,
                        });
                    }
                    calls.push(CallSite {
                        line: call_line,
                        path: path.clone(),
                        method: is_method,
                        recv_self,
                        loop_depth,
                    });
                }
                i = j;
            }
            _ => i += 1,
        }
    }
    (calls, allocs, nested)
}

/// Classify a call path as an allocation primitive, if it is one. `.push`
/// and `.extend` are deliberately excluded — they are the amortized-reuse
/// idiom the A1 fixes hoist *into*. `Rc::clone`/`Arc::clone` (refcount
/// bumps) fall through because only `new`/`with_capacity`/`from` count on
/// the path form.
fn alloc_call(path: &[String], is_method: bool) -> Option<String> {
    let last = path.last()?.as_str();
    if is_method {
        return match last {
            "collect" | "to_vec" | "to_owned" | "to_string" | "clone" | "insert" => {
                Some(format!(".{last}()"))
            }
            _ => None,
        };
    }
    let prev = path.len().checked_sub(2).map(|k| path[k].as_str())?;
    let container = matches!(
        prev,
        "Vec" | "String" | "Box" | "BTreeMap" | "BTreeSet" | "VecDeque" | "Rc" | "Arc"
    );
    if container && matches!(last, "new" | "with_capacity" | "from") {
        Some(path.join("::"))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/model/src/demo.rs", src)
    }

    #[test]
    fn module_paths_resolve() {
        assert_eq!(
            module_of("crates/model/src/latency.rs"),
            ("socl_model".into(), vec!["latency".into()])
        );
        assert_eq!(
            module_of("crates/net/src/lib.rs"),
            ("socl_net".into(), vec![])
        );
        assert_eq!(
            module_of("crates/bench/src/bin/churn.rs"),
            ("socl_bench".into(), vec!["churn".into()])
        );
    }

    #[test]
    fn free_fn_and_calls() {
        let p = parse("pub fn alpha() { beta(); let x = gamma::delta(1, 2); }\nfn beta() {}");
        assert_eq!(p.fns.len(), 2);
        let a = &p.fns[0];
        assert_eq!(a.qual, "socl_model::demo::alpha");
        let callees: Vec<String> = a.calls.iter().map(|c| c.path.join("::")).collect();
        assert_eq!(callees, vec!["beta", "gamma::delta"]);
    }

    #[test]
    fn impl_methods_are_qualified() {
        let src = "struct S;\nimpl S {\n  pub fn new() -> Self { S }\n  fn helper(&self) { self.new_thing(); other(); }\n}";
        let p = parse(src);
        assert_eq!(p.fns[0].qual, "socl_model::demo::S::new");
        assert_eq!(p.fns[1].qual, "socl_model::demo::S::helper");
        let h = &p.fns[1];
        assert!(h
            .calls
            .iter()
            .any(|c| c.method && c.recv_self && c.path == ["new_thing"]));
        assert!(h.calls.iter().any(|c| !c.method && c.path == ["other"]));
    }

    #[test]
    fn trait_impl_uses_self_type_not_trait() {
        let src = "impl fmt::Display for Rule {\n  fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { x() }\n}";
        let p = parse(src);
        assert_eq!(p.fns[0].qual, "socl_model::demo::Rule::fmt");
    }

    #[test]
    fn inline_mod_extends_path() {
        let src = "mod inner {\n  pub fn f() {}\n}\nfn g() {}";
        let p = parse(src);
        assert_eq!(p.fns[0].qual, "socl_model::demo::inner::f");
        assert_eq!(p.fns[1].qual, "socl_model::demo::g");
    }

    #[test]
    fn cfg_test_bodies_are_invisible() {
        let src = "pub fn real() {}\n#[cfg(test)]\nmod tests {\n  fn fake() { x.unwrap(); }\n}";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn use_aliases_are_collected() {
        let src = "use socl_net::time::Stopwatch;\nuse crate::latency::{completion_time, CompletionBreakdown as CB};\nuse std::collections::*;";
        let p = parse(src);
        assert!(p
            .uses
            .iter()
            .any(|(a, f)| a == "Stopwatch" && f.join("::") == "socl_net::time::Stopwatch"));
        assert!(p
            .uses
            .iter()
            .any(|(a, f)| a == "completion_time"
                && f.join("::") == "crate::latency::completion_time"));
        assert!(p
            .uses
            .iter()
            .any(|(a, f)| a == "CB" && f.join("::") == "crate::latency::CompletionBreakdown"));
        assert!(p
            .uses
            .iter()
            .any(|(a, f)| a == "*" && f.join("::") == "std::collections"));
    }

    #[test]
    fn unbalanced_braces_are_a_parse_error() {
        let p = parse("fn broken() { if x { y(); }\n");
        assert!(!p.errors.is_empty());
    }

    #[test]
    fn turbofish_and_generics_do_not_derail() {
        let src = "fn f() { let v = Vec::<f64>::with_capacity(n); g::<A, B>(x); }";
        let p = parse(src);
        let callees: Vec<String> = p.fns[0].calls.iter().map(|c| c.path.join("::")).collect();
        assert!(
            callees.contains(&"Vec::with_capacity".to_string()),
            "{callees:?}"
        );
        assert!(callees.contains(&"g".to_string()), "{callees:?}");
    }

    #[test]
    fn loop_depth_tracks_for_while_loop_nesting() {
        let src = "fn f() {\n  setup();\n  for i in 0..n {\n    one(i);\n    while ready() {\n      two();\n    }\n  }\n  teardown();\n}";
        let p = parse(src);
        let depth_of = |name: &str| {
            p.fns[0]
                .calls
                .iter()
                .find(|c| c.path == [name])
                .unwrap()
                .loop_depth
        };
        assert_eq!(depth_of("setup"), 0);
        assert_eq!(depth_of("one"), 1);
        assert_eq!(depth_of("ready"), 1); // loop header belongs outside its own body
        assert_eq!(depth_of("two"), 2);
        assert_eq!(depth_of("teardown"), 0);
    }

    #[test]
    fn labeled_loop_and_while_let_have_loop_bodies() {
        let src = "fn f() {\n  'outer: loop {\n    inner_a();\n    while let Some(Wrap { x, .. }) = it.next() {\n      inner_b(x);\n      if x > 3 { break 'outer; }\n    }\n  }\n}";
        let p = parse(src);
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let depth_of = |name: &str| {
            p.fns[0]
                .calls
                .iter()
                .find(|c| c.path == [name])
                .unwrap()
                .loop_depth
        };
        assert_eq!(depth_of("inner_a"), 1);
        assert_eq!(depth_of("inner_b"), 2);
    }

    #[test]
    fn hrtb_for_is_not_a_loop() {
        let src = "fn f() {\n  let g: Box<dyn for<'a> Fn(&'a u8)> = mk();\n  { after(); }\n}";
        let p = parse(src);
        let after = p.fns[0].calls.iter().find(|c| c.path == ["after"]).unwrap();
        assert_eq!(after.loop_depth, 0);
    }

    #[test]
    fn alloc_sites_record_loop_depth() {
        let src = "fn f() {\n  let base = Vec::with_capacity(4);\n  for i in 0..n {\n    let row = vec![0.0; n];\n    let s = x.to_vec();\n    keep.push(i);\n  }\n}";
        let p = parse(src);
        let allocs: Vec<(&str, usize)> = p.fns[0]
            .allocs
            .iter()
            .map(|a| (a.what.as_str(), a.loop_depth))
            .collect();
        assert_eq!(
            allocs,
            vec![
                ("Vec::with_capacity", 0),
                ("vec!", 1),
                (".to_vec()", 1), // `.push` is the reuse idiom, never an alloc site
            ]
        );
    }

    #[test]
    fn closure_braces_do_not_change_loop_depth() {
        let src = "fn f() {\n  let out = par_map(&xs, |x| { inner(x) });\n  for i in 0..n { looped(); }\n}";
        let p = parse(src);
        let depth_of = |name: &str| {
            p.fns[0]
                .calls
                .iter()
                .find(|c| c.path == [name])
                .unwrap()
                .loop_depth
        };
        assert_eq!(depth_of("inner"), 0);
        assert_eq!(depth_of("looped"), 1);
    }

    #[test]
    fn struct_items_are_skipped_cleanly() {
        let src = "pub struct Snap {\n  pub seed: u64,\n  cb: fn(u8) -> u8,\n}\nstruct W<T> where T: Clone {\n  inner: T,\n}\nstruct Unit;\nstruct Tuple(u8, u8);\nfn after() {}";
        let p = parse(src);
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        assert_eq!(p.fns.len(), 1); // walker resumes cleanly after the structs
        assert_eq!(p.fns[0].name, "after");
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let src = "fn outer() {\n  fn inner() { hidden(); }\n  visible();\n}";
        let p = parse(src);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        let oc: Vec<String> = outer.calls.iter().map(|c| c.path.join("::")).collect();
        let ic: Vec<String> = inner.calls.iter().map(|c| c.path.join("::")).collect();
        assert_eq!(oc, vec!["visible"]);
        assert_eq!(ic, vec!["hidden"]);
    }
}
