//! Item-level parsing of Rust source over the lexer's code views.
//!
//! The call-graph passes (A1 hot-loop allocation, X1–X3 concurrency
//! discipline) and the units pass (T3) need more structure than per-line
//! tokens: which functions exist, which module/impl they live in, what they
//! call, and which allocation/sync primitives their bodies touch. This
//! module provides exactly that — no external dependency, no full AST.
//!
//! Pipeline: [`crate::lexer::line_views`] blanks comments and string
//! interiors, [`crate::lexer::test_gated_mask`] removes `#[cfg(test)]`
//! bodies, then a tokenizer produces a flat token stream and a single-pass
//! item walker recognizes `mod`/`impl`/`trait`/`fn`/`use` structure. Function
//! bodies are scanned for call sites (free calls, `Path::calls`, `.method()`
//! calls, macros), allocation primitives, closures and sync events.
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
    /// Token index of the first path token in the file's token stream —
    /// lets passes order call sites against guard scopes.
    pub tok: usize,
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

/// A closure literal inside a function body, with its capture set.
///
/// Captures are *identifiers referenced in the body but bound outside the
/// closure*, recovered at the token level. Locals are over-approximated
/// (closure params, `let`/`for`/match-arm pattern idents, nested-closure
/// params), which errs toward *fewer* reported captures — the safe
/// direction for the concurrency passes, which flag capture misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosureInfo {
    /// 1-based line of the opening `|`.
    pub line: usize,
    /// Token index of the opening `|` / `||` in the file's token stream.
    pub pipe_tok: usize,
    /// Token-index range `[start, end)` of the closure body (block bodies
    /// include their braces).
    pub body: (usize, usize),
    /// Identifiers appearing in the parameter patterns between the pipes
    /// (type-position idents included; harmless over-approximation).
    pub params: Vec<String>,
    /// Outer identifiers referenced in the body, with usage classification.
    pub captures: Vec<Capture>,
}

/// One captured identifier of a closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capture {
    pub name: String,
    /// 1-based line of the first use inside the closure body.
    pub line: usize,
    /// First mutating use *outside* the sanctioned lock pattern:
    /// `(line, how)` where `how` is `&mut`, `assignment`, or `.push()`-style
    /// mutator spelling. `None` when every use is a read or lock-mediated.
    pub raw_mut: Option<(usize, String)>,
    /// Some use goes through `.lock()` / `lock_recover(&…)` — the
    /// sanctioned shared-state spelling.
    pub locked: bool,
    /// Some use is in call position `name(…)`.
    pub called: bool,
    /// Lock-guarded aggregation mutations into this capture (`guard.push`
    /// where `guard` was bound from this capture's lock).
    pub aggregates: Vec<AggSite>,
}

/// One lock-guarded aggregation mutation into a captured collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggSite {
    pub line: usize,
    /// The mutator as written (`push`, `extend`, …).
    pub what: String,
    /// The pushed value is a tuple literal — the index-tagged
    /// `(index, value)` shape that makes order restorable. Mutators whose
    /// payload shape is invisible at the token level (`extend`, `append`)
    /// are treated as tagged; the re-sort requirement still applies.
    pub tagged: bool,
}

/// Kind of a sync-primitive event inside a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// `.lock()` method call.
    Lock,
    /// Call to the sanctioned never-panicking guard helper `lock_recover`.
    LockHelper,
    /// `Mutex::new(…)`.
    MutexNew,
    /// `.spawn(…)` (scoped thread spawn).
    Spawn,
    /// `par_map*` family dispatch to the deterministic pool.
    Dispatch,
    /// `.sort*()` — an order-restoring sort on a named collection.
    Sort,
    /// Atomic read-modify-write (`fetch_add`, `store`, `swap`, …).
    AtomicRmw,
}

/// One sync-primitive event inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncSite {
    pub line: usize,
    /// Token index of the event's name token — orders events against guard
    /// scopes and closure bodies.
    pub tok: usize,
    /// Syntactic loop depth at the event.
    pub loop_depth: usize,
    pub kind: SyncKind,
    /// Receiver / locked-collection / sorted-collection base name
    /// (`""` when the receiver is not a plain identifier).
    pub recv: String,
    /// Receiver was indexed (`buckets[s].lock()`), i.e. loop-variant.
    pub recv_indexed: bool,
    /// For `Spawn`/`Dispatch`: indices into [`FnItem::closures`] of the
    /// closure arguments (literal or `let`-bound in the same fn).
    pub closures: Vec<usize>,
    /// The primitive as written (`lock`, `spawn`, `par_map_indexed_with`).
    pub what: String,
}

/// A lock-guard binding (`let [mut] g = …lock()…;`) and its scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardBind {
    pub name: String,
    /// 1-based line of the binding.
    pub line: usize,
    /// Token index of the end of the binding statement — the guard is
    /// *live* in `(tok, end_tok)`, so lock events inside the binding's own
    /// RHS are excluded.
    pub tok: usize,
    /// Token index where the guard dies: the close of the enclosing block,
    /// an explicit `drop(name)`, or the body end.
    pub end_tok: usize,
    /// Base name of the locked collection (`parts` for
    /// `parts.lock()` / `lock_recover(&parts[s])`).
    pub recv: String,
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
    /// Closure literals in the body (in pipe-token order), with captures.
    pub closures: Vec<ClosureInfo>,
    /// Sync-primitive events in the body (in token order).
    pub sync: Vec<SyncSite>,
    /// Lock-guard bindings in the body with their live scopes.
    pub guards: Vec<GuardBind>,
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
        let (closures, sync, guards) = scan_sync(self.toks, body_start, body_end);
        self.out.fns.push(FnItem {
            name,
            qual,
            type_name: type_name.map(str::to_string),
            line: fn_line,
            calls,
            allocs,
            closures,
            sync,
            guards,
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
                        tok: i,
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

/// Method names that mutate their receiver in place. Atomic RMW methods
/// are deliberately absent — atomics are a sanctioned shared-state
/// spelling for the concurrency passes.
const MUTATOR_METHODS: [&str; 25] = [
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "extend",
    "extend_from_slice",
    "resize",
    "truncate",
    "append",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "drain",
    "retain",
    "push_str",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "fill",
    "dedup",
];

/// Mutators that *aggregate* values into a collection (the parallel
/// reduction surface X3 audits).
const AGG_METHODS: [&str; 4] = ["push", "extend", "append", "push_back"];

/// `.sort*()` spellings that restore a deterministic order.
const SORT_METHODS: [&str; 6] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Atomic read-modify-write / store methods.
const ATOMIC_RMW_METHODS: [&str; 9] = [
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
];

/// The `par_map*` dispatch family of `socl_net::par`.
const PAR_DISPATCH: [&str; 5] = [
    "par_map",
    "par_map_with",
    "par_map_indexed",
    "par_map_indexed_with",
    "par_map_scratch_with",
];

/// Poison-recovery / propagation methods allowed between a lock call and
/// the end of a guard-binding statement.
const GUARD_TAIL_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_or_else", "into_inner"];

/// Index just past the matching close of the group opening at `open`.
/// Returns `end` if unbalanced.
fn past_group(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < end.min(toks.len()) {
        match toks[j].kind.punct() {
            Some("(" | "[" | "{") => depth += 1,
            Some(")" | "]" | "}") => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    end
}

/// Base name (and indexed-ness) of the receiver expression ending just
/// before the `.` at `dot`: `parts.lock()` → (`parts`, false),
/// `buckets[s].lock()` → (`buckets`, true), `self.parts.lock()` →
/// (`parts`, false), anything else → (`""`, _).
fn recv_before(toks: &[Tok], dot: usize, start: usize) -> (String, bool) {
    if dot <= start {
        return (String::new(), false);
    }
    match &toks[dot - 1].kind {
        TokKind::Ident(s) if !is_keyword(s) => (s.clone(), false),
        TokKind::Punct("]") => {
            // Walk back to the matching `[`, then the ident before it.
            let mut depth = 0i32;
            let mut j = dot - 1;
            loop {
                match toks[j].kind.punct() {
                    Some("]") => depth += 1,
                    Some("[") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == start {
                    return (String::new(), true);
                }
                j -= 1;
            }
            if j > start {
                if let TokKind::Ident(s) = &toks[j - 1].kind {
                    if !is_keyword(s) {
                        return (s.clone(), true);
                    }
                }
            }
            (String::new(), true)
        }
        _ => (String::new(), false),
    }
}

/// First plain identifier inside the paren group opening at `open` —
/// the locked collection of `lock_recover(&buckets[s])`.
fn first_arg_ident(toks: &[Tok], open: usize, end: usize) -> (String, bool) {
    let close = past_group(toks, open, end).saturating_sub(1);
    let mut j = open + 1;
    while j < close {
        match &toks[j].kind {
            TokKind::Punct("&" | "(") => j += 1,
            TokKind::Ident(s) if s == "mut" => j += 1,
            TokKind::Ident(s) if !is_keyword(s) => {
                let indexed = toks.get(j + 1).and_then(|t| t.kind.punct()) == Some("[");
                return (s.clone(), indexed);
            }
            _ => break,
        }
    }
    (String::new(), false)
}

/// Find every closure literal in `[start, end)`. Closure starts are `|` /
/// `||` tokens in expression position (after `(` `,` `=` `=>` `{` `;` `:`
/// `&` `|` `||` or `move`/`return`/`else`) — `|` after an identifier or a
/// closing bracket is bitwise-or and is skipped.
fn find_closures(toks: &[Tok], start: usize, end: usize) -> Vec<ClosureInfo> {
    let mut out = Vec::new();
    let mut i = start;
    let end = end.min(toks.len());
    while i < end {
        if !matches!(toks[i].kind.punct(), Some("|") | Some("||")) {
            i += 1;
            continue;
        }
        let opens = match i.checked_sub(1).map(|p| &toks[p].kind) {
            None => true,
            Some(TokKind::Punct(p)) => matches!(
                *p,
                "(" | "," | "=" | "=>" | "{" | ";" | ":" | "&" | "|" | "||"
            ),
            Some(TokKind::Ident(s)) => matches!(s.as_str(), "move" | "return" | "else"),
            _ => false,
        };
        if !opens {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        let pipe_tok = i;
        let mut params = Vec::new();
        let mut j = i + 1;
        if toks[i].kind.punct() == Some("|") {
            // Collect all pattern idents up to the closing `|` (depth 0).
            let mut depth = 0usize;
            while j < end {
                match &toks[j].kind {
                    TokKind::Punct("|") if depth == 0 => break,
                    TokKind::Punct("(" | "[" | "<") => depth += 1,
                    TokKind::Punct(")" | "]" | ">") => depth = depth.saturating_sub(1),
                    TokKind::Ident(s) if !is_keyword(s) => params.push(s.clone()),
                    _ => {}
                }
                j += 1;
            }
            j += 1; // past the closing `|`
        }
        // Optional `-> Type` before a block body.
        if toks.get(j).and_then(|t| t.kind.punct()) == Some("->") {
            j += 1;
            let mut depth = 0usize;
            while j < end {
                match toks[j].kind.punct() {
                    Some("{") if depth == 0 => break,
                    Some("(" | "[" | "<") => depth += 1,
                    Some(")" | "]" | ">") => depth = depth.saturating_sub(1),
                    Some(";" | ",") if depth == 0 => break, // malformed; bail
                    _ => {}
                }
                j += 1;
            }
        }
        let body_start = j;
        let body_end = if toks.get(j).and_then(|t| t.kind.punct()) == Some("{") {
            past_group(toks, j, end)
        } else {
            // Expression body: runs to a `,`/`;` at depth 0 or the closer
            // of the group the closure sits in.
            let mut depth = 0i32;
            while j < end {
                match toks[j].kind.punct() {
                    Some("(" | "[" | "{") => depth += 1,
                    Some(")" | "]" | "}") => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    Some("," | ";") if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            j
        };
        out.push(ClosureInfo {
            line,
            pipe_tok,
            body: (body_start, body_end.max(body_start)),
            params,
            captures: Vec::new(),
        });
        // Continue scanning *inside* the body so nested closures are found.
        i = body_start.max(i + 1);
    }
    out
}

/// `let [mut] name = <closure literal>` bindings: name → closure index.
fn closure_bindings(toks: &[Tok], closures: &[ClosureInfo]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (k, c) in closures.iter().enumerate() {
        let mut j = c.pipe_tok;
        if j > 0 && toks[j - 1].kind.ident() == Some("move") {
            j -= 1;
        }
        if j == 0 || toks[j - 1].kind.punct() != Some("=") {
            continue;
        }
        j -= 1;
        let Some(TokKind::Ident(name)) = j.checked_sub(1).map(|p| &toks[p].kind) else {
            continue;
        };
        if is_keyword(name) {
            continue;
        }
        let mut b = j - 1;
        if b > 0 && toks[b - 1].kind.ident() == Some("mut") {
            b -= 1;
        }
        if b > 0 && toks[b - 1].kind.ident() == Some("let") {
            out.push((name.clone(), k));
        }
    }
    out
}

/// Closure arguments of a call whose paren group opens at `open`: literal
/// closures directly inside the group (outermost only) plus bare-ident
/// arguments naming a `let`-bound closure of the same fn.
fn arg_closures(
    toks: &[Tok],
    open: usize,
    end: usize,
    closures: &[ClosureInfo],
    bindings: &[(String, usize)],
) -> Vec<usize> {
    let close = past_group(toks, open, end).saturating_sub(1);
    let mut out: Vec<usize> = Vec::new();
    for (k, c) in closures.iter().enumerate() {
        if c.pipe_tok <= open || c.pipe_tok >= close {
            continue;
        }
        let nested = out.iter().any(|&p: &usize| {
            let prev = &closures[p];
            c.pipe_tok >= prev.body.0 && c.pipe_tok < prev.body.1
        });
        if !nested {
            out.push(k);
        }
    }
    for j in open + 1..close.min(toks.len()) {
        let TokKind::Ident(name) = &toks[j].kind else {
            continue;
        };
        let prev_ok = matches!(toks[j - 1].kind.punct(), Some("(" | ","));
        let next_ok = matches!(
            toks.get(j + 1).and_then(|t| t.kind.punct()),
            Some(",") | Some(")")
        );
        if prev_ok && next_ok {
            if let Some(&(_, k)) = bindings.iter().find(|(n, _)| n == name) {
                if !out.contains(&k) {
                    out.push(k);
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Scan a function body for closures, sync-primitive events and guard
/// bindings — the structure behind the X1/X2/X3 concurrency passes.
fn scan_sync(
    toks: &[Tok],
    start: usize,
    end: usize,
) -> (Vec<ClosureInfo>, Vec<SyncSite>, Vec<GuardBind>) {
    let end = end.min(toks.len());
    let mut closures = find_closures(toks, start, end);
    let bindings = closure_bindings(toks, &closures);

    let mut sync: Vec<SyncSite> = Vec::new();
    let mut guards: Vec<GuardBind> = Vec::new();
    let mut guard_depths: Vec<usize> = Vec::new();
    let mut open_guards: Vec<usize> = Vec::new();
    let mut groups: Vec<bool> = Vec::new(); // is_loop per open group
    let mut pending_loop: Option<usize> = None;
    let mut loop_depth = 0usize;
    let mut i = start;
    while i < end {
        match &toks[i].kind {
            TokKind::Punct(p @ ("(" | "[" | "{")) => {
                let is_loop = *p == "{" && pending_loop == Some(groups.len());
                if is_loop {
                    pending_loop = None;
                    loop_depth += 1;
                }
                groups.push(is_loop);
                i += 1;
            }
            TokKind::Punct(")" | "]" | "}") => {
                let depth_before = groups.len();
                if let Some(l) = groups.pop() {
                    if l {
                        loop_depth -= 1;
                    }
                }
                if pending_loop.is_some_and(|lvl| groups.len() < lvl) {
                    pending_loop = None;
                }
                // Guards bound at this nesting level die here.
                for &gi in &open_guards {
                    if guards[gi].end_tok == usize::MAX && guard_depths[gi] == depth_before {
                        guards[gi].end_tok = i;
                    }
                }
                open_guards.retain(|&gi| guards[gi].end_tok == usize::MAX);
                i += 1;
            }
            TokKind::Punct(";") => {
                if pending_loop.is_some_and(|lvl| groups.len() <= lvl) {
                    pending_loop = None;
                }
                i += 1;
            }
            TokKind::Ident(w) if w == "for" || w == "while" || w == "loop" => {
                let hrtb = w == "for" && toks.get(i + 1).and_then(|t| t.kind.punct()) == Some("<");
                if !hrtb {
                    pending_loop = Some(groups.len());
                }
                i += 1;
            }
            TokKind::Ident(w) if w == "fn" => {
                // Nested item: skip its body so its sync events and guards
                // are not attributed to the enclosing fn (they get their
                // own FnItem, like calls in `scan_body`).
                let mut j = i + 1;
                let mut paren = 0i32;
                while j < end {
                    match toks[j].kind.punct() {
                        Some("(") | Some("[") => paren += 1,
                        Some(")") | Some("]") => paren -= 1,
                        Some("{") if paren == 0 => break,
                        Some(";") if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                i = if toks.get(j).and_then(|t| t.kind.punct()) == Some("{") {
                    past_group(toks, j, end)
                } else {
                    j + 1
                }
                .max(i + 1);
            }
            TokKind::Ident(w)
                if w == "drop" && toks.get(i + 1).and_then(|t| t.kind.punct()) == Some("(") =>
            {
                if let Some(TokKind::Ident(name)) = toks.get(i + 2).map(|t| &t.kind) {
                    if toks.get(i + 3).and_then(|t| t.kind.punct()) == Some(")") {
                        for &gi in &open_guards {
                            if guards[gi].end_tok == usize::MAX && guards[gi].name == *name {
                                guards[gi].end_tok = i;
                            }
                        }
                        open_guards.retain(|&gi| guards[gi].end_tok == usize::MAX);
                    }
                }
                i += 1;
            }
            TokKind::Ident(w) if w == "let" => {
                if let Some((bind, depth)) = guard_binding(toks, i, end, groups.len()) {
                    guard_depths.push(depth);
                    open_guards.push(guards.len());
                    guards.push(bind);
                }
                i += 1;
            }
            TokKind::Punct(".") => {
                if let (Some(TokKind::Ident(m)), Some("(")) = (
                    toks.get(i + 1).map(|t| &t.kind),
                    toks.get(i + 2).and_then(|t| t.kind.punct()),
                ) {
                    let line = toks[i + 1].line;
                    let tok = i + 1;
                    let m = m.as_str();
                    if m == "lock" {
                        let (recv, recv_indexed) = recv_before(toks, i, start);
                        sync.push(SyncSite {
                            line,
                            tok,
                            loop_depth,
                            kind: SyncKind::Lock,
                            recv,
                            recv_indexed,
                            closures: Vec::new(),
                            what: "lock".into(),
                        });
                    } else if m == "spawn" {
                        let args = arg_closures(toks, i + 2, end, &closures, &bindings);
                        sync.push(SyncSite {
                            line,
                            tok,
                            loop_depth,
                            kind: SyncKind::Spawn,
                            recv: String::new(),
                            recv_indexed: false,
                            closures: args,
                            what: "spawn".into(),
                        });
                    } else if SORT_METHODS.contains(&m) {
                        let (recv, recv_indexed) = recv_before(toks, i, start);
                        sync.push(SyncSite {
                            line,
                            tok,
                            loop_depth,
                            kind: SyncKind::Sort,
                            recv,
                            recv_indexed,
                            closures: Vec::new(),
                            what: m.to_string(),
                        });
                    } else if ATOMIC_RMW_METHODS.contains(&m) {
                        let (recv, recv_indexed) = recv_before(toks, i, start);
                        sync.push(SyncSite {
                            line,
                            tok,
                            loop_depth,
                            kind: SyncKind::AtomicRmw,
                            recv,
                            recv_indexed,
                            closures: Vec::new(),
                            what: m.to_string(),
                        });
                    }
                }
                i += 1;
            }
            TokKind::Ident(name) if !is_keyword(name) => {
                let prev_p = i.checked_sub(1).and_then(|p| toks.get(p)).map(|t| &t.kind);
                let is_method = matches!(prev_p, Some(TokKind::Punct(".")));
                let next_p = toks.get(i + 1).and_then(|t| t.kind.punct());
                if !is_method && next_p == Some("(") {
                    if name == "lock_recover" {
                        let (recv, recv_indexed) = first_arg_ident(toks, i + 1, end);
                        sync.push(SyncSite {
                            line: toks[i].line,
                            tok: i,
                            loop_depth,
                            kind: SyncKind::LockHelper,
                            recv,
                            recv_indexed,
                            closures: Vec::new(),
                            what: "lock_recover".into(),
                        });
                    } else if PAR_DISPATCH.contains(&name.as_str()) {
                        let args = arg_closures(toks, i + 1, end, &closures, &bindings);
                        sync.push(SyncSite {
                            line: toks[i].line,
                            tok: i,
                            loop_depth,
                            kind: SyncKind::Dispatch,
                            recv: String::new(),
                            recv_indexed: false,
                            closures: args,
                            what: name.clone(),
                        });
                    } else if name == "new"
                        && i >= 2
                        && toks[i - 1].kind.punct() == Some("::")
                        && toks[i - 2].kind.ident() == Some("Mutex")
                    {
                        sync.push(SyncSite {
                            line: toks[i].line,
                            tok: i,
                            loop_depth,
                            kind: SyncKind::MutexNew,
                            recv: String::new(),
                            recv_indexed: false,
                            closures: Vec::new(),
                            what: "Mutex::new".into(),
                        });
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    for g in &mut guards {
        if g.end_tok == usize::MAX {
            g.end_tok = end;
        }
    }
    compute_captures(toks, &mut closures, &guards);
    (closures, sync, guards)
}

/// Parse `let [mut] name = <lock expr>;` at the `let` token `i`. The RHS
/// must *be* the lock acquisition — possibly wrapped in a poison-recovery
/// `match` or chained through `.unwrap()`-style tails — so that
/// `let n = m.lock().unwrap().len();` (guard dropped at statement end)
/// does not register a live guard. Returns the binding plus the
/// group-stack depth it was bound at.
fn guard_binding(toks: &[Tok], i: usize, end: usize, depth: usize) -> Option<(GuardBind, usize)> {
    let mut j = i + 1;
    if toks.get(j)?.kind.ident() == Some("mut") {
        j += 1;
    }
    let name = match &toks.get(j)?.kind {
        TokKind::Ident(s) if !is_keyword(s) => s.clone(),
        _ => return None,
    };
    j += 1;
    // Optional `: Type` annotation before the `=`.
    if toks.get(j)?.kind.punct() == Some(":") {
        let mut d = 0usize;
        j += 1;
        while j < end {
            match toks[j].kind.punct() {
                Some("=") if d == 0 => break,
                Some("(" | "[" | "<") => d += 1,
                Some(")" | "]" | ">") => d = d.saturating_sub(1),
                Some(";") if d == 0 => return None,
                _ => {}
            }
            j += 1;
        }
    }
    if toks.get(j)?.kind.punct() != Some("=") {
        return None;
    }
    let rhs = j + 1;
    if rhs >= end {
        return None;
    }
    // Statement end: `;` at group depth 0 relative to the `let`.
    let mut stmt_end = rhs;
    let mut d = 0i32;
    while stmt_end < end {
        match toks[stmt_end].kind.punct() {
            Some("(" | "[" | "{") => d += 1,
            Some(")" | "]" | "}") => {
                if d == 0 {
                    break;
                }
                d -= 1;
            }
            Some(";") if d == 0 => break,
            _ => {}
        }
        stmt_end += 1;
    }
    // Locate the lock call inside the RHS.
    let wrapped_in_match = toks[rhs].kind.ident() == Some("match");
    let mut recv = String::new();
    let mut lock_close = None;
    let mut k = rhs;
    while k < stmt_end {
        if toks[k].kind.punct() == Some(".")
            && toks.get(k + 1).and_then(|t| t.kind.ident()) == Some("lock")
            && toks.get(k + 2).and_then(|t| t.kind.punct()) == Some("(")
        {
            recv = recv_before(toks, k, rhs).0;
            lock_close = Some(past_group(toks, k + 2, stmt_end));
            break;
        }
        if toks[k].kind.ident() == Some("lock_recover")
            && toks.get(k + 1).and_then(|t| t.kind.punct()) == Some("(")
            && k.checked_sub(1)
                .is_none_or(|p| toks[p].kind.punct() != Some("."))
        {
            recv = first_arg_ident(toks, k + 1, stmt_end).0;
            lock_close = Some(past_group(toks, k + 1, stmt_end));
            break;
        }
        k += 1;
    }
    let mut t = lock_close?;
    // After the lock call only poison-recovery tails may follow (unless
    // the whole RHS is a `match` over the lock result).
    if !wrapped_in_match {
        while t < stmt_end {
            match toks[t].kind.punct() {
                Some("?") => t += 1,
                Some(".") => {
                    let m = toks.get(t + 1).and_then(|tk| tk.kind.ident())?;
                    if !GUARD_TAIL_METHODS.contains(&m) {
                        return None;
                    }
                    if toks.get(t + 2).and_then(|tk| tk.kind.punct()) == Some("(") {
                        t = past_group(toks, t + 2, stmt_end);
                    } else {
                        return None;
                    }
                }
                _ => return None,
            }
        }
    }
    Some((
        GuardBind {
            name,
            line: toks[i].line,
            tok: stmt_end,
            end_tok: usize::MAX,
            recv,
        },
        depth,
    ))
}

/// Add idents bound by `let`/`for`/match-arm patterns in `[start, end)`
/// to `locals`. Over-approximating the bound set is safe: it only shrinks
/// the capture set, and shrinking errs toward fewer diagnostics.
fn collect_locals(toks: &[Tok], start: usize, end: usize, locals: &mut Vec<String>) {
    let not_path = |toks: &[Tok], j: usize| {
        toks.get(j + 1).and_then(|t| t.kind.punct()) != Some("::")
            && j.checked_sub(1)
                .is_none_or(|p| toks[p].kind.punct() != Some("::"))
    };
    let mut i = start;
    while i < end {
        match toks[i].kind.ident() {
            Some("let") => {
                let mut d = 0usize;
                let mut j = i + 1;
                while j < end {
                    match &toks[j].kind {
                        TokKind::Punct("=" | ";") if d == 0 => break,
                        TokKind::Punct(":") if d == 0 => {
                            // Type annotation: skip ahead to `=` / `;`.
                            while j < end && !matches!(toks[j].kind.punct(), Some("=" | ";")) {
                                j += 1;
                            }
                            break;
                        }
                        TokKind::Punct("(" | "[" | "<") => d += 1,
                        TokKind::Punct(")" | "]" | ">") => d = d.saturating_sub(1),
                        TokKind::Ident(s) if !is_keyword(s) && not_path(toks, j) => {
                            locals.push(s.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
            }
            Some("for") => {
                // `for <pat> in ...`; skip HRTB `for<'a>`.
                if toks.get(i + 1).and_then(|t| t.kind.punct()) == Some("<") {
                    i += 1;
                    continue;
                }
                let mut j = i + 1;
                while j < end {
                    match &toks[j].kind {
                        TokKind::Ident(s) if s == "in" => break,
                        TokKind::Punct("{") => break,
                        TokKind::Ident(s) if !is_keyword(s) && not_path(toks, j) => {
                            locals.push(s.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
            }
            _ => {
                // Match-arm patterns: idents bound left of `=>`, back to the
                // arm's start (a `,` `{` `;` at backward depth 0).
                if toks[i].kind.punct() == Some("=>") {
                    let mut d = 0i32;
                    let mut j = i;
                    while j > start {
                        j -= 1;
                        match &toks[j].kind {
                            TokKind::Punct(")" | "]") => d += 1,
                            TokKind::Punct("(" | "[") => {
                                if d == 0 {
                                    break;
                                }
                                d -= 1;
                            }
                            TokKind::Punct("," | "{" | ";") if d == 0 => break,
                            TokKind::Ident(s)
                                if !is_keyword(s)
                                    && not_path(toks, j)
                                    && toks.get(j + 1).and_then(|t| t.kind.punct())
                                        != Some("(") =>
                            {
                                locals.push(s.clone());
                            }
                            _ => {}
                        }
                    }
                }
                i += 1;
            }
        }
    }
}

/// Aggregation calls reachable from just past a lock call's closing paren
/// through a poison-recovery chain: `.lock().unwrap().push((i, v))`.
fn chain_aggs(toks: &[Tok], mut i: usize, end: usize) -> Vec<AggSite> {
    let mut out = Vec::new();
    while i < end {
        match toks[i].kind.punct() {
            Some("?") => i += 1,
            Some(".") => {
                let Some(m) = toks.get(i + 1).and_then(|t| t.kind.ident()) else {
                    break;
                };
                let open = i + 2;
                if toks.get(open).and_then(|t| t.kind.punct()) != Some("(") {
                    break;
                }
                if AGG_METHODS.contains(&m) {
                    let tagged =
                        m != "push" || toks.get(open + 1).and_then(|t| t.kind.punct()) == Some("(");
                    out.push(AggSite {
                        line: toks[i + 1].line,
                        what: m.to_string(),
                        tagged,
                    });
                    break;
                } else if GUARD_TAIL_METHODS.contains(&m) {
                    i = past_group(toks, open, end);
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    out
}

/// Resolve each closure's capture set: identifiers referenced in the body
/// but not bound within it, with token-level usage classification
/// (`&mut` borrow / mutator method / assignment → `raw_mut`; `.lock()` or
/// `lock_recover(&..)` → `locked`; call position → `called`; aggregation
/// through a guard → `aggregates`).
fn compute_captures(toks: &[Tok], closures: &mut [ClosureInfo], guards: &[GuardBind]) {
    let mut all: Vec<Vec<Capture>> = Vec::with_capacity(closures.len());
    for c in closures.iter() {
        let (start, end) = c.body;
        let end = end.min(toks.len());
        let mut locals: Vec<String> = c.params.clone();
        for other in closures.iter() {
            if other.pipe_tok >= start && other.pipe_tok < end {
                locals.extend(other.params.iter().cloned());
            }
        }
        collect_locals(toks, start, end, &mut locals);
        let mut caps: Vec<Capture> = Vec::new();
        let mut i = start;
        while i < end {
            let TokKind::Ident(name) = &toks[i].kind else {
                i += 1;
                continue;
            };
            if is_keyword(name) || locals.iter().any(|l| l == name) {
                i += 1;
                continue;
            }
            let prev_punct = i
                .checked_sub(1)
                .and_then(|p| toks.get(p))
                .and_then(|t| t.kind.punct());
            let next_punct = toks.get(i + 1).and_then(|t| t.kind.punct());
            // Field/method names, path segments, macros and `name:` labels
            // are not value uses.
            if matches!(prev_punct, Some("." | "::"))
                || matches!(next_punct, Some("::" | "!" | ":"))
            {
                i += 1;
                continue;
            }
            let pos = match caps.iter().position(|cap| cap.name == *name) {
                Some(p) => p,
                None => {
                    caps.push(Capture {
                        name: name.clone(),
                        line: toks[i].line,
                        raw_mut: None,
                        locked: false,
                        called: false,
                        aggregates: Vec::new(),
                    });
                    caps.len() - 1
                }
            };
            let entry = &mut caps[pos];
            if next_punct == Some("(") {
                entry.called = true;
            }
            // `&mut name`
            if i >= 2
                && toks[i - 1].kind.ident() == Some("mut")
                && toks[i - 2].kind.punct() == Some("&")
            {
                entry
                    .raw_mut
                    .get_or_insert((toks[i].line, "&mut borrow".into()));
            }
            // `lock_recover(&name ...)` argument.
            if i >= 3
                && toks[i - 1].kind.punct() == Some("&")
                && toks[i - 2].kind.punct() == Some("(")
                && toks[i - 3].kind.ident() == Some("lock_recover")
            {
                entry.locked = true;
                let after = past_group(toks, i - 2, end);
                entry.aggregates.extend(chain_aggs(toks, after, end));
            }
            // Projection walk: `name([idx] | .field)*` followed by a
            // mutator method, a lock, or an assignment operator.
            let mut j = i + 1;
            loop {
                match toks.get(j).and_then(|t| t.kind.punct()) {
                    Some("[") => j = past_group(toks, j, end),
                    Some(".") => {
                        let Some(m) = toks.get(j + 1).and_then(|t| t.kind.ident()) else {
                            break;
                        };
                        if toks.get(j + 2).and_then(|t| t.kind.punct()) == Some("(") {
                            if m == "lock" {
                                entry.locked = true;
                                let after = past_group(toks, j + 2, end);
                                entry.aggregates.extend(chain_aggs(toks, after, end));
                            } else if MUTATOR_METHODS.contains(&m) {
                                entry
                                    .raw_mut
                                    .get_or_insert((toks[j + 1].line, format!(".{m}()")));
                            }
                            break;
                        }
                        j += 2;
                    }
                    Some("=" | "+=" | "-=" | "*=" | "/=") => {
                        entry
                            .raw_mut
                            .get_or_insert((toks[i].line, "assignment".into()));
                        break;
                    }
                    _ => break,
                }
            }
            i += 1;
        }
        // Guard-alias aggregation: a guard bound inside this body over a
        // captured mutex makes every `guard.push(..)` an aggregation on
        // the capture.
        for g in guards.iter().filter(|g| g.tok >= start && g.tok < end) {
            let Some(cap_idx) = caps.iter().position(|cap| cap.name == g.recv) else {
                continue;
            };
            caps[cap_idx].locked = true;
            let gend = g.end_tok.min(end);
            let mut j = g.tok;
            while j < gend {
                if toks[j].kind.ident() == Some(g.name.as_str())
                    && toks.get(j + 1).and_then(|t| t.kind.punct()) == Some(".")
                {
                    if let Some(m) = toks.get(j + 2).and_then(|t| t.kind.ident()) {
                        if AGG_METHODS.contains(&m)
                            && toks.get(j + 3).and_then(|t| t.kind.punct()) == Some("(")
                        {
                            let tagged = m != "push"
                                || toks.get(j + 4).and_then(|t| t.kind.punct()) == Some("(");
                            caps[cap_idx].aggregates.push(AggSite {
                                line: toks[j + 2].line,
                                what: m.to_string(),
                                tagged,
                            });
                        }
                    }
                }
                j += 1;
            }
        }
        all.push(caps);
    }
    for (c, caps) in closures.iter_mut().zip(all) {
        c.captures = caps;
    }
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

    #[test]
    fn captures_classify_mut_lock_and_call() {
        let src = "fn f() {\n  let mut acc = Vec::new();\n  let shared = Mutex::new(Vec::new());\n  par_map_with(&xs, threads, |x| {\n    acc.push(x);\n    let mut g = shared.lock().unwrap();\n    g.push((x, compute(x)));\n    helper(x)\n  });\n}";
        let p = parse(src);
        let f = &p.fns[0];
        assert_eq!(f.closures.len(), 1, "{:?}", f.closures);
        let cap = |n: &str| f.closures[0].captures.iter().find(|c| c.name == n);
        let acc = cap("acc").expect("acc captured");
        assert_eq!(acc.raw_mut.as_ref().unwrap().1, ".push()");
        assert!(!acc.locked);
        let shared = cap("shared").expect("shared captured");
        assert!(shared.locked && shared.raw_mut.is_none());
        assert_eq!(shared.aggregates.len(), 1);
        assert_eq!(shared.aggregates[0].what, "push");
        assert!(shared.aggregates[0].tagged, "tuple push is index-tagged");
        assert!(cap("compute").unwrap().called);
        assert!(cap("helper").unwrap().called);
        assert!(cap("x").is_none(), "params are not captures");
        assert!(cap("g").is_none(), "guard locals are not captures");
    }

    #[test]
    fn sync_sites_record_dispatch_spawn_lock_sort() {
        let src = "fn f() {\n  let parts = Mutex::new(Vec::new());\n  std::thread::scope(|s| {\n    s.spawn(|| {\n      let mut g = parts.lock().unwrap();\n      g.push((0, work()));\n    });\n  });\n  let mut parts = parts.into_inner().unwrap();\n  parts.sort_by_key(|p| p.0);\n}";
        let p = parse(src);
        let f = &p.fns[0];
        let kind = |k: SyncKind| f.sync.iter().filter(|s| s.kind == k).collect::<Vec<_>>();
        assert_eq!(kind(SyncKind::MutexNew).len(), 1);
        let spawns = kind(SyncKind::Spawn);
        assert_eq!(spawns.len(), 1);
        assert_eq!(spawns[0].closures.len(), 1, "spawn links its closure arg");
        let locks = kind(SyncKind::Lock);
        assert_eq!(locks.len(), 1);
        assert_eq!(locks[0].recv, "parts");
        let sorts = kind(SyncKind::Sort);
        assert_eq!(sorts.len(), 1);
        assert_eq!(sorts[0].recv, "parts");
        assert_eq!(f.guards.len(), 1);
        assert_eq!(f.guards[0].recv, "parts");
        // The spawned closure aggregates into `parts` through the guard.
        let spawned = &f.closures[spawns[0].closures[0]];
        let parts_cap = spawned
            .captures
            .iter()
            .find(|c| c.name == "parts")
            .expect("parts captured");
        assert!(parts_cap.locked);
        assert!(parts_cap.aggregates.iter().any(|a| a.tagged));
    }

    #[test]
    fn let_bound_closure_links_to_dispatch_by_name() {
        let src = "fn f() {\n  let run = |x| out.push(x);\n  par_map(&xs, run);\n}";
        let p = parse(src);
        let f = &p.fns[0];
        let d = f
            .sync
            .iter()
            .find(|s| s.kind == SyncKind::Dispatch)
            .expect("dispatch recorded");
        assert_eq!(d.what, "par_map");
        assert_eq!(d.closures.len(), 1, "named closure arg links back");
        let c = &f.closures[d.closures[0]];
        let out = c.captures.iter().find(|c| c.name == "out").unwrap();
        assert!(out.raw_mut.is_some());
    }

    #[test]
    fn guard_scopes_end_at_drop_and_value_lets_are_not_guards() {
        let src = "fn f() {\n  let g = m.lock().unwrap();\n  use_it(&g);\n  drop(g);\n  let h = m.lock().unwrap();\n  let n = m.lock().unwrap().len();\n}";
        let p = parse(src);
        let f = &p.fns[0];
        assert_eq!(f.guards.len(), 2, "{:?}", f.guards);
        assert_eq!(f.guards[0].name, "g");
        assert!(
            f.guards[0].end_tok < f.guards[1].tok,
            "drop(g) ends the first guard before h is bound"
        );
        assert!(
            !f.guards.iter().any(|g| g.name == "n"),
            "a value extracted through the guard is not a live guard"
        );
    }

    #[test]
    fn match_wrapped_guard_and_lock_recover_bind_guards() {
        let src = "fn f() {\n  let mut a = match buckets[s].lock() { Ok(g) => g, Err(p) => p.into_inner() };\n  let b = lock_recover(&buckets[s]);\n}";
        let p = parse(src);
        let f = &p.fns[0];
        assert_eq!(f.guards.len(), 2, "{:?}", f.guards);
        assert_eq!(f.guards[0].name, "a");
        assert_eq!(f.guards[0].recv, "buckets");
        assert_eq!(f.guards[1].name, "b");
        assert_eq!(f.guards[1].recv, "buckets");
        let helper = f
            .sync
            .iter()
            .find(|s| s.kind == SyncKind::LockHelper)
            .expect("lock_recover event");
        assert!(helper.recv_indexed, "indexed bucket receiver");
    }

    #[test]
    fn lock_events_record_loop_depth() {
        let src = "fn f() {\n  let a = m.lock().unwrap();\n  drop(a);\n  for i in 0..n {\n    let g = m.lock().unwrap();\n    g.push(i);\n  }\n}";
        let p = parse(src);
        let f = &p.fns[0];
        let locks: Vec<usize> = f
            .sync
            .iter()
            .filter(|s| s.kind == SyncKind::Lock)
            .map(|s| s.loop_depth)
            .collect();
        assert_eq!(locks, vec![0, 1]);
    }

    #[test]
    fn untagged_push_through_guard_is_untagged() {
        let src = "fn f() {\n  par_map(&xs, |x| {\n    let mut g = acc.lock().unwrap();\n    g.push(x);\n  });\n}";
        let p = parse(src);
        let f = &p.fns[0];
        let c = &f.closures[0];
        let acc = c.captures.iter().find(|c| c.name == "acc").unwrap();
        assert!(acc.locked);
        assert_eq!(acc.aggregates.len(), 1);
        assert!(!acc.aggregates[0].tagged, "plain push is not index-tagged");
    }
}
