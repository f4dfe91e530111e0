//! T3-units: units-of-measure checking for latency/objective arithmetic.
//!
//! The Eq. 2/7 completion-time model mixes five physical dimensions — data
//! (GB), channel speed (GB/s), work (GFLOP), compute speed (GFLOP/s) and
//! time (s) — and every historical latency-model bug in this codebase was a
//! unit or aggregation mistake. This pass enforces an *identifier-suffix
//! convention* over binary-op expressions in the covered latency/objective
//! files:
//!
//! | suffix        | dimension            |
//! |---------------|----------------------|
//! | `_s`          | seconds              |
//! | `_ms`         | milliseconds         |
//! | `_bytes`      | bytes                |
//! | `_gb`         | gigabytes            |
//! | `_bps`        | bytes per second     |
//! | `_gbps`       | gigabytes per second |
//! | `_cycles`     | CPU cycles           |
//! | `_gflop`      | GFLOP (work)         |
//! | `_hz`         | cycles per second    |
//! | `_gflops`     | GFLOP per second     |
//! | `_s_per_gb`   | seconds per gigabyte |
//!
//! Adding `_s` to `_bytes`, or dividing `_bytes` by anything that is not
//! `_bps` (or another byte quantity), is a diagnostic. Identifiers without a
//! suffix are *unknown*: combining an unknown identifier additively with a
//! known quantity is also a diagnostic — that is what surfaces unsuffixed
//! mixed-unit locals. Anything the checker cannot understand (struct
//! literals, closures-of-closures, exotic expressions) bails silently; this
//! pass is deliberately high-precision, not high-recall.
//!
//! Scope: only the files listed in [`COVERED_FILES`] are checked, so bare
//! identifiers in intentionally dimension-mixing code (the λ-weighted
//! objective) stay legal — the blend terms simply never carry suffixes.

use crate::engine::{allow_status, AllowStatus, Diagnostic, Rule};
use crate::lexer::{line_views, test_gated_mask, tokenize, Tok, TokKind};

/// Files the units pass covers (workspace-relative).
pub const COVERED_FILES: [&str; 4] = [
    "crates/model/src/latency.rs",
    "crates/model/src/objective.rs",
    "crates/model/src/routing.rs",
    "crates/net/src/paths.rs",
];

/// Function names whose call-result dimension is declared here rather than
/// by suffix (pre-existing public API whose names are part of the paper's
/// vocabulary). Suffixed function names (`compute_gflop`) do not need an
/// entry — the suffix table applies to call names too.
pub const FN_UNITS: [(&str, Dim); 8] = [
    ("transfer_time", Dim::S),
    ("return_time", Dim::S),
    ("total", Dim::S), // CompletionBreakdown::total
    ("latency_weight", Dim::SPerGb),
    ("hop_path_weight", Dim::SPerGb),
    ("best_speed", Dim::Gbps),
    ("virtual_speed", Dim::Gbps),
    ("channel_speed", Dim::Gbps),
];

/// Names that are *known-ambiguous* across the workspace (the same name
/// returns different dimensions on different types) and therefore banned in
/// covered arithmetic. `compute` returned GFLOP on `ServiceCatalog` and
/// GFLOP/s on `EdgeNetwork` — the exact confusion this pass exists to kill.
pub const AMBIGUOUS_FNS: [&str; 1] = ["compute"];

/// Method names that preserve their receiver's dimension.
const PRESERVING: [&str; 10] = [
    "min", "max", "abs", "clamp", "floor", "ceil", "round", "copysign", "clone", "to_owned",
];

/// Method names that always yield a dimensionless count.
const COUNT_FNS: [&str; 2] = ["len", "count"];

/// A physical dimension tracked by the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    S,
    Ms,
    Bytes,
    Gb,
    Bps,
    Gbps,
    Cycles,
    Gflop,
    Hz,
    Gflops,
    SPerGb,
}

impl Dim {
    pub fn label(self) -> &'static str {
        match self {
            Dim::S => "s",
            Dim::Ms => "ms",
            Dim::Bytes => "bytes",
            Dim::Gb => "GB",
            Dim::Bps => "bytes/s",
            Dim::Gbps => "GB/s",
            Dim::Cycles => "cycles",
            Dim::Gflop => "GFLOP",
            Dim::Hz => "Hz",
            Dim::Gflops => "GFLOP/s",
            Dim::SPerGb => "s/GB",
        }
    }
}

/// The suffix table, longest suffix first so `_s_per_gb` wins over `_gb`
/// and `_gbps` over `_bps`.
pub const SUFFIXES: [(&str, Dim); 11] = [
    ("_s_per_gb", Dim::SPerGb),
    ("_gflop", Dim::Gflop),
    ("_cycles", Dim::Cycles),
    ("_bytes", Dim::Bytes),
    ("_gbps", Dim::Gbps),
    ("_bps", Dim::Bps),
    ("_gflops", Dim::Gflops),
    ("_gb", Dim::Gb),
    ("_hz", Dim::Hz),
    ("_ms", Dim::Ms),
    ("_s", Dim::S),
];

/// Dimension of an identifier per the suffix convention.
pub fn suffix_dim(name: &str) -> Option<Dim> {
    SUFFIXES
        .iter()
        .find(|(suf, _)| name.ends_with(suf))
        .map(|&(_, d)| d)
}

/// Dimension of a call result, by suffix first and the fn table second.
fn call_dim(name: &str) -> Option<Dim> {
    suffix_dim(name).or_else(|| FN_UNITS.iter().find(|(n, _)| *n == name).map(|&(_, d)| d))
}

/// `a / b` result for known dimensions; `Err(())` when the pair has no
/// declared rule (a diagnostic).
fn div_dim(a: Dim, b: Dim) -> Result<Option<Dim>, ()> {
    use Dim::*;
    if a == b {
        return Ok(None); // dimensionless ratio
    }
    Ok(Some(match (a, b) {
        (Gb, Gbps) => S,
        (Bytes, Bps) => S,
        (Gflop, Gflops) => S,
        (Cycles, Hz) => S,
        (Gb, S) => Gbps,
        (Bytes, S) => Bps,
        (Gflop, S) => Gflops,
        (Cycles, S) => Hz,
        (S, Gb) => SPerGb,
        (S, SPerGb) => Gb,
        _ => return Err(()),
    }))
}

/// `a * b` result for known dimensions; unknown pairs bail silently
/// (products legitimately build new dimensions, e.g. variances).
fn mul_dim(a: Dim, b: Dim) -> Option<Dim> {
    use Dim::*;
    let table = |x: Dim, y: Dim| -> Option<Dim> {
        Some(match (x, y) {
            (Gb, SPerGb) => S,
            (Gbps, S) => Gb,
            (Bps, S) => Bytes,
            (Gflops, S) => Gflop,
            (Hz, S) => Cycles,
            _ => return None,
        })
    };
    table(a, b).or_else(|| table(b, a))
}

/// Checker value lattice.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    /// Known dimension.
    Known(Dim),
    /// Numeric literal / dimensionless count: compatible with anything.
    Wild,
    /// A bare identifier (name kept for the diagnostic).
    Unknown(String),
    /// Unparseable / out of scope: poisons its own subtree only.
    Bail,
}

struct Checker<'a> {
    toks: &'a [Tok],
    i: usize,
    /// (line, message) pairs, waiver-filtered by the caller.
    diags: Vec<(usize, String)>,
}

impl<'a> Checker<'a> {
    fn peek(&self, k: usize) -> Option<&TokKind> {
        self.toks.get(self.i + k).map(|t| &t.kind)
    }

    fn line(&self) -> usize {
        self.toks.get(self.i).map(|t| t.line).unwrap_or(0)
    }

    fn punct(&self, k: usize) -> Option<&'static str> {
        match self.peek(k) {
            Some(TokKind::Punct(p)) => Some(p),
            _ => None,
        }
    }

    /// additive := multiplicative (('+' | '-') multiplicative)*
    fn additive(&mut self) -> Val {
        let mut lhs = self.multiplicative();
        loop {
            let op = match self.punct(0) {
                Some("+") => "+",
                Some("-") => "-",
                _ => break,
            };
            let line = self.line();
            self.i += 1;
            let rhs = self.multiplicative();
            lhs = self.combine_add(lhs, rhs, op, line);
        }
        lhs
    }

    fn combine_add(&mut self, lhs: Val, rhs: Val, op: &str, line: usize) -> Val {
        match (&lhs, &rhs) {
            (Val::Bail, _) | (_, Val::Bail) => Val::Bail,
            (Val::Known(a), Val::Known(b)) => {
                if a == b {
                    lhs
                } else {
                    self.diags.push((
                        line,
                        format!(
                            "`{op}` combines {} with {}; convert one side explicitly",
                            a.label(),
                            b.label()
                        ),
                    ));
                    Val::Bail
                }
            }
            (Val::Known(a), Val::Unknown(n)) | (Val::Unknown(n), Val::Known(a)) => {
                self.diags.push((
                    line,
                    format!(
                        "unsuffixed `{n}` combined (`{op}`) with a {} quantity; \
                         give it a unit suffix (e.g. `{n}_{}`) or convert",
                        a.label(),
                        suffix_hint(*a)
                    ),
                ));
                Val::Bail
            }
            (Val::Known(_), Val::Wild) => lhs,
            (Val::Wild, Val::Known(_)) => rhs,
            (Val::Wild, Val::Wild) => Val::Wild,
            _ => Val::Bail, // Unknown with Unknown/Wild: nothing to check
        }
    }

    /// multiplicative := unary (('*' | '/') unary)*
    fn multiplicative(&mut self) -> Val {
        let mut lhs = self.unary();
        loop {
            let op = match self.punct(0) {
                Some("*") => "*",
                Some("/") => "/",
                _ => break,
            };
            let line = self.line();
            self.i += 1;
            let rhs = self.unary();
            lhs = match (&lhs, &rhs) {
                (Val::Bail, _) | (_, Val::Bail) => Val::Bail,
                (Val::Known(a), Val::Known(b)) => {
                    if op == "/" {
                        match div_dim(*a, *b) {
                            Ok(Some(d)) => Val::Known(d),
                            Ok(None) => Val::Wild,
                            Err(()) => {
                                self.diags.push((
                                    line,
                                    format!(
                                        "dividing {} by {} has no declared unit rule \
                                         (expected e.g. GB ÷ GB/s, GFLOP ÷ GFLOP/s)",
                                        a.label(),
                                        b.label()
                                    ),
                                ));
                                Val::Bail
                            }
                        }
                    } else {
                        match mul_dim(*a, *b) {
                            Some(d) => Val::Known(d),
                            None => Val::Bail,
                        }
                    }
                }
                (Val::Known(_), Val::Wild) => lhs,
                (Val::Wild, Val::Known(b)) if op == "*" => Val::Known(*b),
                _ => Val::Bail,
            };
        }
        lhs
    }

    /// unary := ('-' | '!' | '&' | '*')* postfix
    fn unary(&mut self) -> Val {
        match self.punct(0) {
            Some("-") | Some("!") | Some("&") | Some("*") | Some("&&") => {
                self.i += 1;
                self.unary()
            }
            _ => self.postfix(),
        }
    }

    /// postfix := primary ('.' member | '[' expr ']' | '?' | 'as' type)*
    fn postfix(&mut self) -> Val {
        let mut val = self.primary();
        loop {
            match self.peek(0) {
                Some(TokKind::Punct(".")) => {
                    self.i += 1;
                    match self.peek(0).cloned() {
                        Some(TokKind::Ident(name)) => {
                            self.i += 1;
                            // Turbofish on the member.
                            if self.punct(0) == Some("::") {
                                self.i += 1;
                                self.skip_angles();
                            }
                            if self.punct(0) == Some("(") {
                                self.check_args();
                                val = self.member_call_val(&name, val);
                            } else {
                                // Field access.
                                val = match suffix_dim(&name) {
                                    Some(d) => Val::Known(d),
                                    None => Val::Unknown(name),
                                };
                            }
                        }
                        Some(TokKind::Num(_)) => {
                            // Tuple field: dimension unknown.
                            self.i += 1;
                            val = Val::Bail;
                        }
                        _ => return Val::Bail,
                    }
                }
                Some(TokKind::Punct("[")) => {
                    self.skip_group();
                    // Indexing preserves the container's dimension.
                }
                Some(TokKind::Punct("?")) => self.i += 1,
                Some(TokKind::Ident(k)) if k == "as" => {
                    self.i += 1;
                    // Consume the target type path; casts preserve dimension.
                    while matches!(self.peek(0), Some(TokKind::Ident(_)))
                        || self.punct(0) == Some("::")
                    {
                        self.i += 1;
                    }
                }
                _ => break,
            }
        }
        val
    }

    /// Result dimension of a `.name(…)` call on `recv`.
    fn member_call_val(&mut self, name: &str, recv: Val) -> Val {
        if AMBIGUOUS_FNS.contains(&name) {
            let line = self
                .toks
                .get(self.i.saturating_sub(1))
                .map(|t| t.line)
                .unwrap_or(0);
            self.diags.push((
                line,
                format!(
                    "call to unit-ambiguous `{name}(…)` in covered latency code; \
                     rename the method with a unit suffix (it returns different \
                     dimensions on different types)"
                ),
            ));
            return Val::Bail;
        }
        if PRESERVING.contains(&name) {
            return recv;
        }
        if COUNT_FNS.contains(&name) {
            return Val::Wild;
        }
        match call_dim(name) {
            Some(d) => Val::Known(d),
            None => Val::Bail,
        }
    }

    fn primary(&mut self) -> Val {
        match self.peek(0).cloned() {
            Some(TokKind::Num(_)) => {
                self.i += 1;
                Val::Wild
            }
            Some(TokKind::Punct("(")) => {
                self.i += 1;
                let v = self.additive();
                if self.punct(0) == Some(")") {
                    self.i += 1;
                    v
                } else {
                    // Tuple or unparsed remainder: skip to the close.
                    self.skip_to_close(")");
                    Val::Bail
                }
            }
            Some(TokKind::Ident(first)) => {
                if is_expr_stopper(&first) {
                    return Val::Bail;
                }
                // Path chain a::b::c.
                let mut last = first;
                self.i += 1;
                while self.punct(0) == Some("::") {
                    if matches!(self.peek(1), Some(TokKind::Punct("<"))) {
                        self.i += 1;
                        self.skip_angles();
                        continue;
                    }
                    match self.peek(1).cloned() {
                        Some(TokKind::Ident(seg)) => {
                            last = seg;
                            self.i += 2;
                        }
                        _ => break,
                    }
                }
                if self.punct(0) == Some("(") {
                    if AMBIGUOUS_FNS.contains(&last.as_str()) {
                        let line = self.line();
                        self.diags.push((
                            line,
                            format!(
                                "call to unit-ambiguous `{last}(…)` in covered latency \
                                 code; rename the function with a unit suffix"
                            ),
                        ));
                        self.check_args();
                        return Val::Bail;
                    }
                    self.check_args();
                    match call_dim(&last) {
                        Some(d) => Val::Known(d),
                        None => Val::Bail,
                    }
                } else if self.punct(0) == Some("!") {
                    // Macro: check the arguments, ignore the result.
                    self.i += 1;
                    if matches!(self.punct(0), Some("(") | Some("[")) {
                        self.check_args();
                    } else if self.punct(0) == Some("{") {
                        self.skip_group();
                    }
                    Val::Bail
                } else {
                    match suffix_dim(&last) {
                        Some(d) => Val::Known(d),
                        None => Val::Unknown(last),
                    }
                }
            }
            _ => Val::Bail,
        }
    }

    /// Check each comma-separated argument of a call as its own expression,
    /// consuming the balanced group.
    fn check_args(&mut self) {
        let close = match self.punct(0) {
            Some("(") => ")",
            Some("[") => "]",
            _ => return,
        };
        self.i += 1; // opener
        while self.i < self.toks.len() {
            if self.punct(0) == Some(close) {
                self.i += 1;
                return;
            }
            if self.punct(0) == Some(",") {
                self.i += 1;
                continue;
            }
            let before = self.i;
            let _ = self.additive();
            if self.i == before {
                // Token the expression grammar can't start on (closure
                // pipes, etc.): skip the rest of the group.
                self.skip_to_close(close);
                return;
            }
        }
    }

    fn skip_to_close(&mut self, close: &str) {
        let open = match close {
            ")" => "(",
            "]" => "[",
            _ => "{",
        };
        let mut depth = 1usize;
        while self.i < self.toks.len() {
            match self.punct(0) {
                Some(p) if p == open => depth += 1,
                Some(p) if p == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    fn skip_group(&mut self) {
        let close = match self.punct(0) {
            Some("(") => ")",
            Some("[") => "]",
            Some("{") => "}",
            _ => return,
        };
        self.i += 1;
        self.skip_to_close(close);
    }

    fn skip_angles(&mut self) {
        if self.punct(0) != Some("<") {
            return;
        }
        let mut depth = 0usize;
        while self.i < self.toks.len() {
            match self.punct(0) {
                Some("<") => depth += 1,
                Some(">") => {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        return;
                    }
                }
                Some(";") => return,
                _ => {}
            }
            self.i += 1;
        }
    }
}

/// Keywords at which expression parsing must not start.
fn is_expr_stopper(word: &str) -> bool {
    matches!(
        word,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "break"
            | "continue"
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
            | "type"
            | "const"
            | "static"
            | "where"
            | "in"
            | "as"
            | "dyn"
            | "unsafe"
    )
}

fn suffix_hint(d: Dim) -> &'static str {
    match d {
        Dim::S => "s",
        Dim::Ms => "ms",
        Dim::Bytes => "bytes",
        Dim::Gb => "gb",
        Dim::Bps => "bps",
        Dim::Gbps => "gbps",
        Dim::Cycles => "cycles",
        Dim::Gflop => "gflop",
        Dim::Hz => "hz",
        Dim::Gflops => "gflops",
        Dim::SPerGb => "s_per_gb",
    }
}

/// Is `rel_path` in the covered set?
pub fn is_covered(rel_path: &str) -> bool {
    let p = rel_path.replace('\\', "/");
    COVERED_FILES.contains(&p.as_str())
}

/// Run the units pass over one covered file.
pub fn check_file(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let views = line_views(source);
    let mask = test_gated_mask(&views);
    let toks = tokenize(&views, &mask);
    let mut checker = Checker {
        toks: &toks,
        i: 0,
        diags: Vec::new(),
    };

    // Drive: walk the token stream; wherever an expression can start, parse
    // it with the unit grammar. Assignments and compound assignments check
    // the RHS against the LHS dimension.
    while checker.i < toks.len() {
        let before = checker.i;
        let lhs = checker.additive();
        if checker.i == before {
            checker.i += 1;
            continue;
        }
        match checker.punct(0) {
            Some("=") | Some("+=") | Some("-=") => {
                let op = checker.punct(0).unwrap_or("=");
                let line = checker.line();
                checker.i += 1;
                let rhs = checker.additive();
                if let (Val::Known(_), _) | (_, Val::Known(_)) = (&lhs, &rhs) {
                    // `x = y` with both known and unequal, or known/unknown
                    // mixes on compound assignment, reuse the additive rule.
                    if op == "=" {
                        if let (Val::Known(a), Val::Known(b)) = (&lhs, &rhs) {
                            if a != b {
                                checker.diags.push((
                                    line,
                                    format!(
                                        "assigning a {} value to a {} identifier",
                                        b.label(),
                                        a.label()
                                    ),
                                ));
                            }
                        }
                    } else {
                        checker.combine_add(lhs, rhs, op, line);
                    }
                }
            }
            _ => {}
        }
    }

    // Waiver-filter and wrap.
    let mut out = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for (line, message) in checker.diags {
        if line == 0 || line > views.len() {
            continue;
        }
        if !seen.insert((line, message.clone())) {
            continue;
        }
        match allow_status(&views, line - 1, Rule::T3Units) {
            AllowStatus::Allowed => {}
            _ => out.push(Diagnostic {
                file: rel_path.to_string(),
                line,
                rule: Rule::T3Units,
                message,
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<(usize, String)> {
        check_file("crates/model/src/latency.rs", src)
            .into_iter()
            .map(|d| (d.line, d.message))
            .collect()
    }

    #[test]
    fn adding_seconds_to_bytes_is_flagged() {
        let d = diags("pub fn f(d_s: f64, r_bytes: f64) -> f64 { d_s + r_bytes }");
        assert_eq!(d.len(), 1);
        assert!(d[0].1.contains("combines s with bytes"), "{d:?}");
    }

    #[test]
    fn dividing_bytes_by_bps_is_seconds() {
        // No diagnostic, and the quotient composes additively with seconds.
        let d = diags(
            "pub fn f(r_bytes: f64, rate_bps: f64, t_s: f64) -> f64 { t_s + r_bytes / rate_bps }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn dividing_bytes_by_non_rate_is_flagged() {
        let d = diags("pub fn f(r_bytes: f64, f_gflops: f64) -> f64 { r_bytes / f_gflops }");
        assert_eq!(d.len(), 1);
        assert!(d[0].1.contains("no declared unit rule"), "{d:?}");
    }

    #[test]
    fn unsuffixed_ident_with_known_quantity_is_flagged() {
        let d = diags("pub fn f(total: f64, t_s: f64) -> f64 { total + t_s }");
        assert_eq!(d.len(), 1);
        assert!(d[0].1.contains("unsuffixed `total`"), "{d:?}");
    }

    #[test]
    fn literals_are_wild() {
        let d = diags("pub fn f(t_s: f64) -> f64 { t_s + 1.0 - 0.5 }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn fn_table_gives_call_results_units() {
        let d = diags("pub fn f(ap: &A, n: u32, q: f64) -> f64 { ap.transfer_time(n, n, q) + q }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].1.contains("unsuffixed `q`"), "{d:?}");
    }

    #[test]
    fn ambiguous_fn_call_is_flagged() {
        let d = diags("pub fn f(cat: &C, m: u32) -> f64 { cat.compute(m) }");
        assert_eq!(d.len(), 1);
        assert!(d[0].1.contains("unit-ambiguous"), "{d:?}");
    }

    #[test]
    fn compound_assign_checks_lhs_dimension() {
        let d = diags("pub fn f(b: &mut B, r_gb: f64, v_gbps: f64) { b.total_s += r_gb / v_gbps; b.total_s += r_gb; }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].1.contains("GB"), "{d:?}");
    }

    #[test]
    fn gflop_over_gflops_is_seconds() {
        let d = diags(
            "pub fn f(q_gflop: f64, c_gflops: f64, t_s: f64) -> f64 { t_s + q_gflop / c_gflops }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn suffixed_method_names_carry_units() {
        let d = diags(
            "pub fn f(cat: &C, net: &N, m: u32, t_s: f64) -> f64 { t_s + cat.compute_gflop(m) / net.compute_gflops(m) }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn preserving_methods_keep_units() {
        let d = diags("pub fn f(a_s: f64, b_ms: f64) -> f64 { a_s.max(0.0) + b_ms }");
        assert_eq!(d.len(), 1);
        assert!(d[0].1.contains("combines s with ms"), "{d:?}");
    }

    #[test]
    fn waiver_suppresses() {
        let d = diags(
            "pub fn f(d_s: f64, r_bytes: f64) -> f64 {\n    // LINT-ALLOW(T3-units): schema field is a raw byte count by design\n    d_s + r_bytes\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let d = diags(
            "#[cfg(test)]\nmod tests {\n    fn f(a_s: f64, b_gb: f64) -> f64 { a_s + b_gb }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn uncovered_files_are_skipped_by_is_covered() {
        assert!(is_covered("crates/model/src/latency.rs"));
        assert!(is_covered("crates/net/src/paths.rs"));
        assert!(!is_covered("crates/core/src/combine.rs"));
    }
}
