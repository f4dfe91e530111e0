//! Rule engine: file classification, the L1–L4 checks, `LINT-ALLOW`
//! processing, and the workspace walk.

use crate::lexer::{contains_word, line_views, test_gated_mask, LineView};
use std::fmt;
use std::path::{Path, PathBuf};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No raw f64 comparisons (`partial_cmp` calls, NaN-collapsing
    /// `unwrap_or(Ordering::Equal)`, bare `f64` keys in `BinaryHeap`).
    L1FloatCmp,
    /// No `unwrap`/`expect`/`panic!`-family in library code.
    L2PanicFree,
    /// No wall-clock / ambient RNG in solver code.
    L3Time,
    /// No `HashMap`/`HashSet` (unordered iteration) in deterministic code.
    L3Hash,
    /// No ambient process state (environment, hardware parallelism,
    /// filesystem, thread identity) in library code.
    L3Env,
    /// Every `unsafe` must carry a `// SAFETY:` comment.
    L4Safety,
    /// Units-of-measure suffix convention over latency/objective arithmetic.
    T3Units,
    /// Interprocedural: no allocation reachable inside a loop of a hot
    /// entry point (APSP builds, routing DP, online per-slot step, scaler
    /// tick, incremental cache repair).
    A1HotAlloc,
    /// Lock discipline: no second lock while a guard is live, no guard
    /// held across a pool dispatch or loop-allocating call, no hoistable
    /// lock inside a sequential loop.
    X1LockDiscipline,
    /// Closures dispatched to the pool may share mutable state only
    /// through the index-tagged Mutex bucket or per-worker scratch.
    X2CaptureDisjoint,
    /// Parallel aggregation must be index-tagged and re-sorted before the
    /// collection's contents escape.
    X3OrderRestore,
    /// A `LINT-ALLOW`/`LINT-HOT` marker whose removal changes no
    /// diagnostic (reported by `--stale-waivers`).
    W0StaleWaiver,
    /// The item parser could not recover structure from a file.
    P0Parse,
}

impl Rule {
    pub const ALL: [Rule; 13] = [
        Rule::L1FloatCmp,
        Rule::L2PanicFree,
        Rule::L3Time,
        Rule::L3Hash,
        Rule::L3Env,
        Rule::L4Safety,
        Rule::T3Units,
        Rule::A1HotAlloc,
        Rule::X1LockDiscipline,
        Rule::X2CaptureDisjoint,
        Rule::X3OrderRestore,
        Rule::W0StaleWaiver,
        Rule::P0Parse,
    ];

    /// Stable rule id as written in diagnostics and `LINT-ALLOW(...)`.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::L1FloatCmp => "L1-float-cmp",
            Rule::L2PanicFree => "L2-panic-free",
            Rule::L3Time => "L3-nondet-time",
            Rule::L3Hash => "L3-nondet-hash",
            Rule::L3Env => "L3-nondet-env",
            Rule::L4Safety => "L4-unsafe-doc",
            Rule::T3Units => "T3-units",
            Rule::A1HotAlloc => "A1-hot-alloc",
            Rule::X1LockDiscipline => "X1-lock-discipline",
            Rule::X2CaptureDisjoint => "X2-capture-disjoint",
            Rule::X3OrderRestore => "X3-order-restore",
            Rule::W0StaleWaiver => "W0-stale-waiver",
            Rule::P0Parse => "P0-parse",
        }
    }

    /// Short rationale shown by `socl-lint rules`.
    pub fn rationale(&self) -> &'static str {
        match self {
            Rule::L1FloatCmp => {
                "raw f64 comparisons (`.partial_cmp()`, `unwrap_or(Equal)` on float \
                 orderings, bare f64 BinaryHeap keys) silently collapse on NaN and \
                 corrupt orderings; use `total_cmp`, `socl_net::fcmp`, or the \
                 NaN-safe heap wrappers"
            }
            Rule::L2PanicFree => {
                "library code must surface failures as `Result`, not \
                 `unwrap`/`expect`/`panic!`; panics in the solver abort whole \
                 experiment sweeps (bins, benches and tests are exempt)"
            }
            Rule::L3Time => {
                "`Instant::now`/`SystemTime::now`/`thread_rng` make runs \
                 irreproducible; route timing through `socl_net::time::Stopwatch` \
                 and randomness through seeded `ChaCha` RNGs (crates/bench exempt)"
            }
            Rule::L3Hash => {
                "`HashMap`/`HashSet` iteration order is randomized per process; \
                 anything that folds or emits in iteration order becomes \
                 nondeterministic — use `BTreeMap`/`BTreeSet` or sort before folding"
            }
            Rule::L3Env => {
                "process environment (`env::var*`, `available_parallelism`), \
                 filesystem and thread-identity reads make a decision depend on \
                 where and how the process runs, not on (seed, config); take the \
                 value as a parameter or read it at one waived site (every \
                 library occurrence counts, reachable from a pub fn or not)"
            }
            Rule::L4Safety => {
                "every `unsafe` block must justify its soundness with a \
                 `// SAFETY:` comment on or directly above the block"
            }
            Rule::T3Units => {
                "latency/objective arithmetic must respect the identifier \
                 unit-suffix convention (`_s`, `_gb`, `_gbps`, `_gflop`, \
                 `_gflops`, …); adding seconds to gigabytes, dividing data by a \
                 non-rate, or calling a unit-ambiguous function is an error"
            }
            Rule::A1HotAlloc => {
                "no allocation primitive (`Vec::new`, `vec![]`, `.collect()`, \
                 `.clone()`, `format!`, …) may execute inside a loop of a hot \
                 entry point (APSP builds, the routing DP, the online per-slot \
                 step, scaler tick, incremental cache repair) — per-iteration \
                 allocation is why the parallel hot path loses; hoist buffers \
                 into reusable scratch structs, or waive with a barrier"
            }
            Rule::X1LockDiscipline => {
                "lock hygiene: a second `.lock()` while a guard is live orders \
                 locks implicitly (deadlock hazard), a guard held across a call \
                 that dispatches to the pool or allocates in a loop serializes \
                 or deadlocks the workers, and a lock inside a sequential loop \
                 is reacquired every iteration — drop/scope guards tightly and \
                 hoist loop-invariant locks"
            }
            Rule::X2CaptureDisjoint => {
                "closures dispatched to the pool (`par_map*`, scoped `.spawn`) \
                 may share mutable state only through the index-tagged Mutex \
                 bucket pattern or per-worker scratch; any other mutable \
                 capture — or a captured fn with interior mutability — makes \
                 the write interleaving scheduler-dependent"
            }
            Rule::X3OrderRestore => {
                "parallel aggregation into a shared collection must push \
                 `(index, value)` tuples and re-sort by the tag before the \
                 contents escape (the `par.rs` idiom); anything else is a \
                 determinism hole the L3 rules cannot see, because the \
                 scheduler itself is the nondeterminism source"
            }
            Rule::W0StaleWaiver => {
                "a `LINT-ALLOW`/`LINT-HOT` marker that no longer suppresses \
                 any diagnostic is dead weight that hides future violations \
                 at the same site; `--stale-waivers` re-runs the passes with \
                 each marker masked and reports the ones that change nothing"
            }
            Rule::P0Parse => {
                "the item-level parser must be able to recover fn/impl/mod \
                 structure from every linted file; structural damage here \
                 would silently blind the call-graph passes"
            }
        }
    }

    fn from_id(s: &str) -> Option<Rule> {
        let s = s.trim();
        Rule::ALL.iter().copied().find(|r| {
            r.id() == s || r.id().split('-').next() == Some(s) // accept bare "L1"…
        })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: all rules apply.
    Lib,
    /// Binary / CLI / harness code: panic-freedom (L2) is waived.
    Bin,
    /// Test, bench, example or fixture code: skipped entirely.
    Test,
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Stable machine-parseable format: `file:line:rule: message`.
        write!(
            f,
            "{}:{}:{}: {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Classify a workspace-relative path.
pub fn classify(rel_path: &str) -> FileKind {
    let p = rel_path.replace('\\', "/");
    let file_name = p.rsplit('/').next().unwrap_or(&p);
    if p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.contains("/fixtures/")
        || p.starts_with("tests/")
        || p.starts_with("examples/")
        || file_name.starts_with("proptests")
    {
        return FileKind::Test;
    }
    if p.contains("/src/bin/")
        || file_name == "main.rs"
        || p.starts_with("crates/cli/")
        || p.starts_with("crates/bench/")
    {
        return FileKind::Bin;
    }
    FileKind::Lib
}

/// The crate a workspace-relative path belongs to (`""` outside `crates/`).
fn crate_of(rel_path: &str) -> &str {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// Lint a single file's source text.
///
/// `rel_path` is used for classification, crate-specific exemptions and
/// diagnostics; `kind_override` forces a classification (used by the fixture
/// tests, whose files live under a path that would otherwise classify as
/// `Test`).
pub fn lint_source(
    rel_path: &str,
    source: &str,
    kind_override: Option<FileKind>,
) -> Vec<Diagnostic> {
    let kind = kind_override.unwrap_or_else(|| classify(rel_path));
    if kind == FileKind::Test {
        return Vec::new();
    }
    let krate = crate_of(rel_path);
    let views = line_views(source);
    let gated = test_gated_mask(&views);

    let mut out = Vec::new();
    for (idx, view) in views.iter().enumerate() {
        // Active code: the code view with test-gated columns blanked.
        let active: String = view
            .code
            .chars()
            .enumerate()
            .map(|(col, c)| {
                if gated[idx].get(col).copied().unwrap_or(false) {
                    ' '
                } else {
                    c
                }
            })
            .collect();
        if active.trim().is_empty() {
            continue;
        }
        let line_no = idx + 1;
        let mut report = |rule: Rule, message: String| match allow_status(&views, idx, rule) {
            AllowStatus::Allowed => {}
            AllowStatus::MissingReason => out.push(Diagnostic {
                file: rel_path.to_string(),
                line: line_no,
                rule,
                message: format!(
                    "{message} (LINT-ALLOW present but missing a reason — write \
                         `LINT-ALLOW({}): <why this is sound>`)",
                    rule.id()
                ),
            }),
            AllowStatus::NotAllowed => out.push(Diagnostic {
                file: rel_path.to_string(),
                line: line_no,
                rule,
                message,
            }),
        };

        // ---- L1: raw float comparisons -------------------------------
        if active.contains(".partial_cmp(") || active.contains("::partial_cmp(") {
            report(
                Rule::L1FloatCmp,
                "raw `partial_cmp` call; use `f64::total_cmp` / `socl_net::fcmp` \
                 so NaN cannot collapse the ordering"
                    .to_string(),
            );
        }
        if (active.contains("unwrap_or(Ordering::Equal)")
            || active.contains("unwrap_or(cmp::Ordering::Equal)")
            || active.contains("unwrap_or(std::cmp::Ordering::Equal)"))
            && !active.contains("total_cmp")
        {
            report(
                Rule::L1FloatCmp,
                "`unwrap_or(Ordering::Equal)` silently equates NaN with everything; \
                 use a total order (`total_cmp`)"
                    .to_string(),
            );
        }
        if let Some(pos) = active.find("BinaryHeap<") {
            let tail: String = active[pos..].chars().take(80).collect();
            if contains_word(&tail, "f64")
                && !tail.contains("OrdF64")
                && !tail.contains("HeapEntry")
            {
                report(
                    Rule::L1FloatCmp,
                    "bare `f64` key in a `BinaryHeap` ordering; wrap it in \
                     `socl_net::fcmp::OrdF64` (or a struct with a `total_cmp` Ord impl)"
                        .to_string(),
                );
            }
        }

        // ---- L2: panic-freedom in library code -----------------------
        if kind == FileKind::Lib {
            for (needle, what) in [
                (".unwrap()", "`.unwrap()`"),
                (".expect(", "`.expect(…)`"),
                (".expect_err(", "`.expect_err(…)`"),
            ] {
                if active.contains(needle) {
                    report(
                        Rule::L2PanicFree,
                        format!(
                            "{what} in library code; propagate a `Result`/`Option`, \
                             or justify with `LINT-ALLOW(L2-panic-free): reason`"
                        ),
                    );
                }
            }
            for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
                if find_macro(&active, mac) {
                    report(
                        Rule::L2PanicFree,
                        format!(
                            "`{mac}(…)` in library code; return an error instead, or \
                             justify with `LINT-ALLOW(L2-panic-free): reason`"
                        ),
                    );
                }
            }
        }

        // ---- L3: nondeterminism sources ------------------------------
        if krate != "bench" {
            for needle in [
                "Instant::now",
                "SystemTime::now",
                "thread_rng",
                "from_entropy",
            ] {
                if active.contains(needle) {
                    report(
                        Rule::L3Time,
                        format!(
                            "`{needle}` outside crates/bench; use \
                             `socl_net::time::Stopwatch` for timing and seeded RNGs \
                             for randomness"
                        ),
                    );
                }
            }
        }
        for needle in ["HashMap", "HashSet"] {
            if contains_word(&active, needle) {
                report(
                    Rule::L3Hash,
                    format!(
                        "`{needle}` has randomized iteration order; use \
                         `BTreeMap`/`BTreeSet` or a sorted drain so output order is \
                         deterministic"
                    ),
                );
            }
        }

        // Ambient process state. The linter's own crate reads the
        // filesystem by design.
        if kind == FileKind::Lib && krate != "lint" {
            for (needle, what) in [
                ("env::var", "process environment"),
                ("available_parallelism", "process environment"),
                ("fs::read", "filesystem"),
                ("fs::write", "filesystem"),
                ("fs::metadata", "filesystem"),
                ("fs::canonicalize", "filesystem"),
                ("File::open", "filesystem"),
                ("File::create", "filesystem"),
                ("thread::current", "thread identity"),
                ("ThreadId", "thread identity"),
            ] {
                if active.contains(needle) {
                    report(
                        Rule::L3Env,
                        format!(
                            "`{needle}` ({what}) in library code; decisions must be a \
                             function of (seed, config) only — take the value as a \
                             parameter, or justify with `LINT-ALLOW(L3-nondet-env): reason`"
                        ),
                    );
                }
            }
        }

        // ---- L4: unsafe must be documented ---------------------------
        if contains_word(&active, "unsafe") {
            let documented = (idx.saturating_sub(3)..=idx)
                .any(|j| views[j].comment.trim_start().starts_with("SAFETY:"));
            if !documented {
                report(
                    Rule::L4Safety,
                    "`unsafe` without a `// SAFETY:` comment on or directly above \
                     the block"
                        .to_string(),
                );
            }
        }
    }
    out
}

/// Result of scanning for a `LINT-ALLOW` covering (line, rule).
pub(crate) enum AllowStatus {
    Allowed,
    MissingReason,
    NotAllowed,
}

/// First `Some` that `f` returns over the comments *attached* to line
/// `idx`: the line's own comment, then the contiguous run of comment-only
/// lines directly above it (a code line or a blank line ends the run).
pub(crate) fn attached<T>(
    views: &[LineView],
    idx: usize,
    f: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    if let Some(t) = f(&views.get(idx)?.comment) {
        return Some(t);
    }
    for v in views[..idx].iter().rev() {
        if !v.is_code_blank() {
            break;
        }
        if let Some(t) = f(&v.comment) {
            return Some(t);
        }
        if v.comment.trim().is_empty() {
            break;
        }
    }
    None
}

/// A violation on line `idx` is suppressed by `LINT-ALLOW(rule[,rule…]): reason`
/// in a comment [`attached`] to it.
pub(crate) fn allow_status(views: &[LineView], idx: usize, rule: Rule) -> AllowStatus {
    let check = |comment: &str| -> Option<AllowStatus> {
        let pos = comment.find("LINT-ALLOW(")?;
        let rest = &comment[pos + "LINT-ALLOW(".len()..];
        let close = rest.find(')')?;
        let rules = &rest[..close];
        let covered = rules
            .split(',')
            .filter_map(Rule::from_id)
            .any(|r| r == rule);
        if !covered {
            return None;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            Some(AllowStatus::MissingReason)
        } else {
            Some(AllowStatus::Allowed)
        }
    };
    attached(views, idx, check).unwrap_or(AllowStatus::NotAllowed)
}

/// `mac!` occurrence with a non-identifier char before it.
fn find_macro(code: &str, mac: &str) -> bool {
    let pat = format!("{mac}(");
    let bang = mac.to_string();
    let mut start = 0;
    while let Some(pos) = code[start..].find(&bang) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !code[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && code[abs..].starts_with(&pat) {
            return true;
        }
        start = abs + bang.len();
    }
    false
}

/// Which pass families to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Passes {
    /// The token-level L1–L4 rules.
    pub token: bool,
    /// The T3 units-of-measure pass.
    pub units: bool,
    /// The A1 hot-loop allocation pass (plus P0 parse diagnostics).
    pub alloc: bool,
    /// The X1 lock-discipline pass (plus P0 parse diagnostics).
    pub lock: bool,
    /// The X2 spawn-capture-disjointness pass (plus P0 parse diagnostics).
    pub capture: bool,
    /// The X3 order-restoring-reduction pass (plus P0 parse diagnostics).
    pub order: bool,
}

impl Default for Passes {
    fn default() -> Self {
        Passes {
            token: true,
            units: true,
            alloc: true,
            lock: true,
            capture: true,
            order: true,
        }
    }
}

const NO_PASSES: Passes = Passes {
    token: false,
    units: false,
    alloc: false,
    lock: false,
    capture: false,
    order: false,
};

impl Passes {
    /// Parse a comma-separated `--passes` value
    /// (`token,units,alloc,lock,capture,order`).
    pub fn from_list(list: &str) -> Result<Passes, String> {
        let mut p = NO_PASSES;
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match name {
                "token" => p.token = true,
                "units" => p.units = true,
                "alloc" => p.alloc = true,
                "lock" => p.lock = true,
                "capture" => p.capture = true,
                "order" => p.order = true,
                other => {
                    return Err(format!(
                        "unknown pass `{other}` (token, units, alloc, lock, capture, order)"
                    ))
                }
            }
        }
        if p == NO_PASSES {
            return Err("empty pass list".to_string());
        }
        Ok(p)
    }
}

/// Lint a set of in-memory `(workspace-relative path, source)` files.
///
/// This is the core the CLI, the workspace walk, the fixture tests and the
/// dogfood test all share. Token rules run per file; the units pass runs on
/// the covered latency/objective files; the A1/X passes share one call
/// graph and one [`crate::reach::Ctx`] over the library-kind files (the
/// linter's own crate is excluded).
pub fn lint_files(files: &[(String, String)], passes: &Passes) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if passes.token {
        for (rel, src) in files {
            out.extend(lint_source(rel, src, None));
        }
    }
    if passes.units {
        for (rel, src) in files {
            if classify(rel) == FileKind::Lib && crate::units::is_covered(rel) {
                out.extend(crate::units::check_file(rel, src));
            }
        }
    }
    if passes.alloc || passes.lock || passes.capture || passes.order {
        let lib_files: Vec<(String, String)> = files
            .iter()
            .filter(|(rel, _)| classify(rel) == FileKind::Lib && !rel.starts_with("crates/lint/"))
            .cloned()
            .collect();
        let graph = crate::callgraph::Graph::build(&lib_files);
        for (file, line, msg) in &graph.parse_errors {
            out.push(Diagnostic {
                file: file.clone(),
                line: *line,
                rule: Rule::P0Parse,
                message: format!("{msg}; the interprocedural passes cannot see through this file"),
            });
        }
        let cx = crate::reach::Ctx::new(&lib_files, &graph);
        if passes.alloc {
            out.extend(crate::alloc::check(&lib_files, &cx));
        }
        if passes.lock || passes.capture {
            let summ = crate::conc::Summaries::build(&cx);
            if passes.lock {
                out.extend(crate::lock::check(&cx, &summ));
            }
            if passes.capture {
                out.extend(crate::capture::check(&cx, &summ));
            }
        }
        if passes.order {
            out.extend(crate::reduction::check(&cx));
        }
    }
    out.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
    });
    out.dedup();
    out
}

/// Walk the workspace at `root`, linting every `.rs` file under `crates/*/src`.
///
/// Fixture files under `crates/lint/tests/` are skipped (they are deliberate
/// violations), as are `target/` and hidden directories.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    lint_workspace_passes(root, &Passes::default())
}

/// [`lint_workspace`] with an explicit pass selection.
pub fn lint_workspace_passes(root: &Path, passes: &Passes) -> Result<Vec<Diagnostic>, String> {
    Ok(lint_files(&workspace_files(root)?, passes))
}

/// The `(workspace-relative path, source)` pairs the workspace walk lints:
/// every `.rs` file under `crates/*/src`, skipping hidden dirs, `target/`
/// and `fixtures/`.
pub fn workspace_files(root: &Path) -> Result<Vec<(String, String)>, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "{} does not look like the workspace root (no crates/ directory)",
            root.display()
        ));
    }
    let mut files: Vec<PathBuf> = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut files)?;
    }
    files.sort();

    let mut pairs: Vec<(String, String)> = Vec::new();
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&f).map_err(|e| format!("read {}: {e}", f.display()))?;
        pairs.push((rel, src));
    }
    Ok(pairs)
}

/// Stale-waiver detection: re-run the selected passes with one
/// `LINT-ALLOW(...)`/`LINT-HOT(...)` marker masked at a time; a marker
/// whose masking leaves the diagnostic set bit-identical suppresses
/// nothing and is reported as `W0-stale-waiver` at its line.
///
/// The mask is length-preserving (`LINT-` → `SKIP-` inside the comment),
/// so every other diagnostic keeps its exact line/column and the
/// before/after sets compare cleanly. Markers are only looked for in
/// comments (via the lexer's line views), only in `Lib`/`Bin` files, and
/// never inside `crates/lint/` itself — the linter's sources and docs
/// mention markers by name without meaning them.
pub fn stale_waivers(files: &[(String, String)], passes: &Passes) -> Vec<Diagnostic> {
    let baseline = lint_files(files, passes);
    let mut out = Vec::new();
    for (fi, (rel, src)) in files.iter().enumerate() {
        if classify(rel) == FileKind::Test || rel.starts_with("crates/lint/") {
            continue;
        }
        let views = line_views(src);
        // Byte offset of each line start in `src`, to map (line, col) hits
        // back into the raw source.
        let mut line_starts = vec![0usize];
        for (pos, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(pos + 1);
            }
        }
        for (idx, view) in views.iter().enumerate() {
            let Some(&ls) = line_starts.get(idx) else {
                continue;
            };
            let line_end = line_starts.get(idx + 1).copied().unwrap_or(src.len());
            let raw = &src[ls..line_end];
            for marker in ["LINT-ALLOW(", "LINT-HOT("] {
                if !view.comment.contains(marker) {
                    continue;
                }
                let mut from = 0usize;
                while let Some(col) = raw[from..].find(marker) {
                    let col = from + col;
                    from = col + marker.len();
                    // `view.code` blanks comment bytes in place (same byte
                    // length as the raw line), so a comment-resident marker
                    // has whitespace at its column — a code- or
                    // string-resident lookalike does not survive both tests.
                    let in_code = view
                        .code
                        .as_bytes()
                        .get(col)
                        .is_some_and(|b| !b.is_ascii_whitespace());
                    if in_code {
                        continue;
                    }
                    let at = ls + col;
                    let mut masked = src.clone();
                    masked.replace_range(at..at + 5, "SKIP-");
                    let mut trial: Vec<(String, String)> = files.to_vec();
                    trial[fi].1 = masked;
                    if lint_files(&trial, passes) == baseline {
                        out.push(Diagnostic {
                            file: rel.clone(),
                            line: idx + 1,
                            rule: Rule::W0StaleWaiver,
                            message: format!(
                                "stale `{}...)` marker: masking it changes no \
                                 diagnostic under the selected passes — delete it \
                                 (dead waivers hide future violations at this site)",
                                &marker[..marker.len() - 1]
                            ),
                        });
                    }
                }
            }
        }
    }
    out.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    out
}

/// [`stale_waivers`] over the workspace at `root`.
pub fn stale_waivers_workspace(root: &Path, passes: &Passes) -> Result<Vec<Diagnostic>, String> {
    Ok(stale_waivers(&workspace_files(root)?, passes))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        let name = p.file_name().map(|n| n.to_string_lossy().to_string());
        if let Some(n) = &name {
            if n.starts_with('.') || n == "target" || n == "fixtures" {
                continue;
            }
        }
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Serialize diagnostics as a JSON array (no external deps; the four fields
/// are flat, so hand-rolled string escaping is all that is needed). This is
/// the exact payload `socl-lint --json` prints, so machine consumers and the
/// dogfood test share one renderer.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut s = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.rule.id(),
            json_escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        s.push('\n');
    }
    s.push(']');
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
