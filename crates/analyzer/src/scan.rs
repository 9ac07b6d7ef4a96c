//! Per-file analysis: token-stream matchers for every lint in the catalog.
//!
//! The matchers are deliberately *syntactic*. There is no type inference —
//! instead the scanner builds small symbol tables from declaration
//! patterns it can see (`ident: HashMap<…>`, `let mut x = HashMap::new()`,
//! `ident: f64`) and matches use sites against them. Locally declared
//! names always shadow the workspace-wide field table, so a local
//! `let rows: Vec<_>` is never confused with a `rows: HashMap<…>` field
//! declared in another file. The residual false-positive rate is handled
//! the same way real findings are: a reviewed `lips-allow` comment.

use std::collections::BTreeSet;

use crate::lexer::{lex, Tok, TokKind};
use crate::lints::{self, crate_kind};

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub lint: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Result of analyzing one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Unsuppressed findings (what the gate counts).
    pub findings: Vec<Finding>,
    /// Findings silenced by a valid `lips-allow` comment.
    pub suppressed: Vec<Finding>,
    /// `lips-allow` comments that are unparseable, name an unknown lint,
    /// or carry no reason. They suppress nothing.
    pub malformed_allows: Vec<(u32, String)>,
    /// Valid `lips-allow` comments that matched no finding (stale debt).
    pub unused_allows: Vec<(u32, String)>,
}

/// Workspace-wide declaration table, built by a first pass over every
/// file so cross-file field accesses (`report.metrics.ecu_sec_by_machine`)
/// resolve to their declared types.
#[derive(Debug, Default, Clone)]
pub struct FieldTable {
    /// Field names declared with a `HashMap`/`HashSet` type.
    pub hash: BTreeSet<String>,
    /// Field names declared `f64`/`f32`.
    pub float: BTreeSet<String>,
    /// Hash-typed fields whose *value* type is a float
    /// (`HashMap<K, f64>` — `*m.entry(k).or_default() += x` hazards).
    pub float_hash: BTreeSet<String>,
    /// Field names declared with some other type anywhere in the
    /// workspace. A name in both `hash` and `other` is ambiguous — two
    /// structs disagree — and must not be matched at use sites.
    pub other: BTreeSet<String>,
}

impl FieldTable {
    /// Drop every name whose declarations disagree across the workspace:
    /// matching an ambiguous name would produce false findings on the
    /// innocently-typed struct's accesses. (The cost is a false *negative*
    /// on the hash-typed one — the lint is a heuristic net, not a proof.)
    pub fn resolve_conflicts(&mut self) {
        let mut ambiguous = self.other.clone();
        for n in self.hash.intersection(&self.float) {
            ambiguous.insert(n.clone());
        }
        self.hash.retain(|n| !ambiguous.contains(n));
        self.float.retain(|n| !ambiguous.contains(n));
        let hash = self.hash.clone();
        self.float_hash.retain(|n| hash.contains(n));
    }
}

/// Methods whose call on a hash-ordered collection observes its order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Collect *struct/enum field* declarations from one file into the
/// workspace table. Only field declarations participate: they are what a
/// cross-file `x.name` access can resolve to. Call
/// [`FieldTable::resolve_conflicts`] once every file is collected.
pub fn collect_fields(src: &str, table: &mut FieldTable) {
    let code: Vec<Tok> = lex(src)
        .into_iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    for (name, decl, in_struct) in colon_decls(&code) {
        if !in_struct {
            continue;
        }
        match decl {
            ColonDecl::Hash { float_value } => {
                table.hash.insert(name.clone());
                if float_value {
                    table.float_hash.insert(name.clone());
                }
            }
            ColonDecl::Float => {
                table.float.insert(name.clone());
            }
            ColonDecl::Other => {
                table.other.insert(name.clone());
            }
        }
    }
}

/// What a `name: Type` declaration resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColonDecl {
    Hash { float_value: bool },
    Float,
    Other,
}

/// All `ident : Type` declarations in the token stream (struct fields, fn
/// params, typed lets), each tagged with whether it sits inside a
/// `struct`/`enum` body (a *field* declaration). Struct-literal fields
/// like `Foo { x: HashMap::new() }` don't match because the matcher
/// requires the *type head* followed by `<`.
fn colon_decls(code: &[Tok]) -> Vec<(String, ColonDecl, bool)> {
    let struct_spans = struct_bodies(code);
    let in_struct = |idx: usize| struct_spans.iter().any(|&(a, b)| idx > a && idx < b);
    let mut out = Vec::new();
    for i in 0..code.len() {
        if code[i].kind != TokKind::Ident || !code.get(i + 1).is_some_and(|t| t.is_punct(":")) {
            continue;
        }
        // Walk the type expression: path segments, references, lifetimes.
        let mut j = i + 2;
        let mut decl = ColonDecl::Other;
        let mut steps = 0;
        while let Some(t) = code.get(j) {
            steps += 1;
            if steps > 12 {
                break;
            }
            match t.kind {
                TokKind::Punct if t.text == "::" || t.text == "&" => j += 1,
                TokKind::Lifetime => j += 1,
                TokKind::Ident if t.text == "mut" || t.text == "dyn" => j += 1,
                TokKind::Ident if t.text == "f64" || t.text == "f32" => {
                    decl = ColonDecl::Float;
                    break;
                }
                TokKind::Ident if t.text == "HashMap" || t.text == "HashSet" => {
                    if code.get(j + 1).is_some_and(|n| n.is_punct("<")) {
                        decl = ColonDecl::Hash {
                            float_value: generic_args_have_float(code, j + 1),
                        };
                    }
                    break;
                }
                TokKind::Ident => {
                    // Some other type head (Vec, BTreeMap, u64, …): keep
                    // walking only through path separators; a bare ident
                    // followed by anything but `::` ends the type.
                    if code.get(j + 1).is_some_and(|n| n.is_punct("::")) {
                        j += 1;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        out.push((code[i].text.clone(), decl, in_struct(i)));
    }
    out
}

/// Body spans of `struct` / `enum` definitions (where colon declarations
/// are *fields*, not bindings).
fn struct_bodies(code: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..code.len() {
        if !(code[i].is_ident("struct") || code[i].is_ident("enum")) {
            continue;
        }
        // `struct Name { … }` / `struct Name<T: Bound> { … }`. Tuple and
        // unit structs hit `;`/`(` first and are skipped.
        if let Some(open) = find_body_open(code, i + 1) {
            if let Some(close) = matching_brace(code, open) {
                spans.push((open, close));
            }
        }
    }
    spans
}

/// Does the `<…>` starting at `open` (index of `<`) mention `f64`/`f32`
/// at any depth?
fn generic_args_have_float(code: &[Tok], open: usize) -> bool {
    let mut depth = 0usize;
    for t in code.iter().skip(open) {
        match t.kind {
            TokKind::Punct if t.text == "<" => depth += 1,
            TokKind::Punct if t.text == ">" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return false;
                }
            }
            TokKind::Ident if t.text == "f64" || t.text == "f32" => return true,
            // A `(` opening a fn type or a `;` means we ran off the rails.
            TokKind::Punct if t.text == ";" => return false,
            _ => {}
        }
    }
    false
}

/// Analyze one file. `rel_path` is workspace-relative (used in findings),
/// `crate_name` the directory under `crates/` (or `lips` for the root
/// crate), `global` the workspace-wide field table from
/// [`collect_fields`].
pub fn analyze_source(
    crate_name: &str,
    rel_path: &str,
    src: &str,
    global: &FieldTable,
) -> FileAnalysis {
    let kind = crate_kind(crate_name);
    let all = lex(src);
    let code: Vec<Tok> = all
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .cloned()
        .collect();

    let mut out = FileAnalysis::default();
    let suppressions = parse_suppressions(&all, &code, &mut out.malformed_allows);
    let test_spans = find_test_spans(&code);
    let in_test = |idx: usize| test_spans.iter().any(|&(a, b)| idx >= a && idx <= b);

    // --- symbol tables -------------------------------------------------
    // Two disjoint namespaces: a *field access* (`recv.name`, previous
    // token `.`) resolves against the workspace-wide struct-field table;
    // a *bare identifier* resolves against this file's local bindings.
    // Each table has already subtracted its ambiguous names, so a local
    // `let avail: HashMap<…>` never taints a `job.avail` Vec field and a
    // `vars: HashMap<…>` field in one struct never taints `model.vars`
    // on another.
    let local = local_decls(&code);
    let hash_here = |idx_of_ident: usize| -> bool {
        let name = &code[idx_of_ident].text;
        if idx_of_ident > 0 && code[idx_of_ident - 1].is_punct(".") {
            global.hash.contains(name)
        } else {
            local.hash.contains(name)
        }
    };
    let float_at = |idx_of_ident: usize| -> bool {
        let name = &code[idx_of_ident].text;
        if idx_of_ident > 0 && code[idx_of_ident - 1].is_punct(".") {
            global.float.contains(name)
        } else {
            local.float.contains(name)
        }
    };
    // Accumulator bases from `*x.entry(k).or_default() += …` chains lose
    // their receiver context, so consult both tables.
    let float_hash_name = |name: &str| -> bool {
        local.float_hash.contains(name) || global.float_hash.contains(name)
    };

    let loops = loop_bodies(&code);
    let in_loop = |idx: usize| loops.iter().any(|&(a, b)| idx > a && idx < b);

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |lint: &'static str, line: u32, message: String| {
        raw.push(Finding {
            lint,
            file: rel_path.to_string(),
            line,
            message,
        });
    };
    let scoped = |name: &str| lints::lint_by_name(name).is_some_and(|l| (l.in_scope)(kind));

    // --- unordered-iteration -------------------------------------------
    if scoped(lints::UNORDERED_ITERATION) {
        for i in 0..code.len() {
            // `recv.iter()` / `recv.values()` / …
            if code[i].is_punct(".")
                && code.get(i + 1).is_some_and(|t| {
                    t.kind == TokKind::Ident && ITER_METHODS.contains(&t.text.as_str())
                })
                && code.get(i + 2).is_some_and(|t| t.is_punct("("))
                && i > 0
                && code[i - 1].kind == TokKind::Ident
                && hash_here(i - 1)
                && !in_test(i)
            {
                push(
                    lints::UNORDERED_ITERATION,
                    code[i + 1].line,
                    format!(
                        "`{}.{}()` visits a hash-ordered collection in nondeterministic order",
                        code[i - 1].text,
                        code[i + 1].text
                    ),
                );
            }
        }
        // `for pat in &some.hash_field {` — iterating the collection
        // itself (no method call; IntoIterator does the work).
        for &(_, in_idx, open_idx) in &for_loops(&code) {
            if open_idx > in_idx + 1 {
                let last = open_idx - 1;
                if code[last].kind == TokKind::Ident && hash_here(last) && !in_test(in_idx) {
                    push(
                        lints::UNORDERED_ITERATION,
                        code[in_idx].line,
                        format!(
                            "`for … in {}` visits a hash-ordered collection in nondeterministic order",
                            code[last].text
                        ),
                    );
                }
            }
        }
    }

    // --- wall-clock-in-solver ------------------------------------------
    if scoped(lints::WALL_CLOCK_IN_SOLVER) {
        for i in 0..code.len() {
            if code[i].kind == TokKind::Ident
                && (code[i].text == "Instant" || code[i].text == "SystemTime")
                && code.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && code.get(i + 2).is_some_and(|t| t.is_ident("now"))
                && !in_test(i)
            {
                push(
                    lints::WALL_CLOCK_IN_SOLVER,
                    code[i].line,
                    format!(
                        "`{}::now()` on a solver path — route timing through lips_lp::clock",
                        code[i].text
                    ),
                );
            }
        }
    }

    // --- float-accum-in-loop -------------------------------------------
    if scoped(lints::FLOAT_ACCUM_IN_LOOP) {
        for i in 0..code.len() {
            if !code[i].is_punct("+=") || !in_loop(i) || in_test(i) {
                continue;
            }
            let lhs_is_float = i > 0 && code[i - 1].kind == TokKind::Ident && float_at(i - 1);
            let chain = accum_chain_names(&code, i);
            let entry_target = chain.iter().find(|n| float_hash_name(n));
            let rhs_is_float = rhs_has_float_evidence(&code, i, &float_at);
            if lhs_is_float || entry_target.is_some() || rhs_is_float {
                let what = if lhs_is_float {
                    code[i - 1].text.clone()
                } else {
                    entry_target
                        .cloned()
                        .or_else(|| chain.first().cloned())
                        .unwrap_or_else(|| "accumulator".to_string())
                };
                push(
                    lints::FLOAT_ACCUM_IN_LOOP,
                    code[i].line,
                    format!("float `+=` on `{what}` inside a loop — order-sensitive accumulation"),
                );
            }
        }
    }

    // --- thread-width-dependence ---------------------------------------
    if scoped(lints::THREAD_WIDTH_DEPENDENCE) {
        for (i, t) in code.iter().enumerate() {
            if t.is_ident("available_parallelism") && !in_test(i) {
                push(
                    lints::THREAD_WIDTH_DEPENDENCE,
                    t.line,
                    "`available_parallelism` outside lips-par makes results depend on host width"
                        .to_string(),
                );
            }
        }
    }

    // --- panic-surface --------------------------------------------------
    if scoped(lints::PANIC_SURFACE) {
        for i in 0..code.len() {
            if code[i].is_punct(".")
                && code
                    .get(i + 1)
                    .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
                && code.get(i + 2).is_some_and(|t| t.is_punct("("))
                && !in_test(i)
            {
                push(
                    lints::PANIC_SURFACE,
                    code[i + 1].line,
                    format!(
                        "`.{}()` in library code — return a typed error",
                        code[i + 1].text
                    ),
                );
            }
            if code[i].is_ident("panic")
                && code.get(i + 1).is_some_and(|t| t.is_punct("!"))
                && !in_test(i)
            {
                push(
                    lints::PANIC_SURFACE,
                    code[i].line,
                    "`panic!` in library code — return a typed error".to_string(),
                );
            }
        }
    }

    // --- apply suppressions --------------------------------------------
    let mut used = vec![false; suppressions.len()];
    for f in raw {
        let hit = suppressions
            .iter()
            .position(|s| s.lint == f.lint && s.lines.contains(&f.line));
        match hit {
            Some(s) => {
                used[s] = true;
                out.suppressed.push(f);
            }
            None => out.findings.push(f),
        }
    }
    for (s, u) in suppressions.iter().zip(&used) {
        if !u {
            out.unused_allows.push((s.comment_line, s.lint.to_string()));
        }
    }
    out
}

/// Local binding tables for one file: fn params, typed lets, and
/// initializer-classified untyped lets. Struct fields are *not* local
/// bindings — they live in the workspace [`FieldTable`] and are matched
/// only through `.field` accesses.
#[derive(Debug, Default)]
struct LocalDecls {
    hash: BTreeSet<String>,
    float: BTreeSet<String>,
    float_hash: BTreeSet<String>,
    /// Names with a non-hash, non-float local declaration.
    other: BTreeSet<String>,
}

impl LocalDecls {
    /// A name declared inconsistently within the file is ambiguous; treat
    /// it as unknown rather than risk a false finding.
    fn resolve_conflicts(&mut self) {
        let mut ambiguous: BTreeSet<String> = self.other.clone();
        for n in self.hash.intersection(&self.float) {
            ambiguous.insert(n.clone());
        }
        self.hash.retain(|n| !ambiguous.contains(n));
        self.float.retain(|n| !ambiguous.contains(n));
        let hash = self.hash.clone();
        self.float_hash.retain(|n| hash.contains(n));
    }
}

fn local_decls(code: &[Tok]) -> LocalDecls {
    let mut d = LocalDecls::default();
    for (name, decl, in_struct) in colon_decls(code) {
        if in_struct {
            continue;
        }
        match decl {
            ColonDecl::Hash { float_value } => {
                d.hash.insert(name.clone());
                if float_value {
                    d.float_hash.insert(name);
                }
            }
            ColonDecl::Float => {
                d.float.insert(name);
            }
            ColonDecl::Other => {
                d.other.insert(name);
            }
        }
    }
    // `let [mut] name = <init>;` — untyped lets classified by the shape
    // of the initializer only (a `HashMap` mention deep inside a closure
    // body must not classify the binding).
    let mut i = 0;
    while i < code.len() {
        if !code[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut k = i + 1;
        if code.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        let Some(name_tok) = code.get(k).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        let name = name_tok.text.clone();
        if code.get(k + 1).is_some_and(|t| t.is_punct("=")) {
            let mut v = k + 2;
            if code.get(v).is_some_and(|t| t.is_punct("-")) {
                v += 1;
            }
            // Float literal initializer: `= 0.0`, `= -1.5e3`, `= 0f64`.
            if code.get(v).is_some_and(|t| {
                t.kind == TokKind::Num
                    && (t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32"))
            }) {
                d.float.insert(name.clone());
            }
            // Constructor path initializer: `= HashMap::new()`,
            // `= std::collections::HashSet::with_capacity(n)`.
            let mut j = k + 2;
            while let Some(t) = code.get(j) {
                match t.kind {
                    TokKind::Ident if t.text == "HashMap" || t.text == "HashSet" => {
                        d.hash.insert(name.clone());
                        if code.get(j + 1).is_some_and(|n| n.is_punct("<"))
                            && generic_args_have_float(code, j + 1)
                        {
                            d.float_hash.insert(name.clone());
                        }
                        break;
                    }
                    TokKind::Ident => {
                        if code.get(j + 1).is_some_and(|n| n.is_punct("::")) {
                            j += 2;
                        } else {
                            break;
                        }
                    }
                    _ => break,
                }
            }
        }
        i = k + 1;
    }
    d.resolve_conflicts();
    d
}

/// For `*map.entry(k).or_default() += x` shapes: walk left from the `+=`
/// over `)…(`-balanced groups and `.`-joined segments, collecting every
/// identifier in the receiver chain (nearest first). Entry-API method
/// names and `self` are skipped — the caller wants candidate collection
/// names like `totals` in `*m.totals.entry(k).or_default() += x`.
fn accum_chain_names(code: &[Tok], plus_eq: usize) -> Vec<String> {
    const METHODS: &[&str] = &["entry", "or_default", "or_insert", "or_insert_with", "self"];
    let mut i = plus_eq;
    let mut names = Vec::new();
    while i > 0 {
        i -= 1;
        let t = &code[i];
        match t.kind {
            TokKind::Punct if t.text == ")" || t.text == "]" => {
                // Skip the balanced group.
                let close = t.text.clone();
                let open = if close == ")" { "(" } else { "[" };
                let mut depth = 1;
                while i > 0 && depth > 0 {
                    i -= 1;
                    if code[i].is_punct(&close) {
                        depth += 1;
                    } else if code[i].is_punct(open) {
                        depth -= 1;
                    }
                }
            }
            TokKind::Ident if !METHODS.contains(&t.text.as_str()) => {
                names.push(t.text.clone());
            }
            TokKind::Ident => {}
            TokKind::Punct if t.text == "." || t.text == "*" || t.text == "::" => {}
            _ => break,
        }
    }
    names
}

/// Does the right side of the `+=` (up to `;` at depth 0) contain a float
/// literal or a known-float identifier? `float_at` receives the token
/// index so field accesses and bare locals resolve against the right
/// table.
fn rhs_has_float_evidence(code: &[Tok], plus_eq: usize, float_at: &dyn Fn(usize) -> bool) -> bool {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(plus_eq + 1).take(80) {
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                ";" if depth == 0 => return false,
                _ => {}
            },
            TokKind::Num
                if t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32") =>
            {
                return true;
            }
            // An `as f64` cast (or any bare float-type mention) is float
            // arithmetic regardless of what the tables know.
            TokKind::Ident if t.text == "f64" || t.text == "f32" => return true,
            TokKind::Ident if float_at(j) => return true,
            _ => {}
        }
    }
    false
}

/// Body spans `(open_idx, close_idx)` of every `for`/`while`/`loop`.
fn loop_bodies(code: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "for" | "while" | "loop") {
            continue;
        }
        // `for<'a>` in higher-ranked bounds is not a loop.
        if code.get(i + 1).is_some_and(|n| n.is_punct("<")) {
            continue;
        }
        if let Some(open) = find_body_open(code, i + 1) {
            if let Some(close) = matching_brace(code, open) {
                spans.push((open, close));
            }
        }
    }
    spans
}

/// `(for_idx, in_idx, body_open_idx)` of every `for … in … {` loop.
fn for_loops(code: &[Tok]) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for i in 0..code.len() {
        if !code[i].is_ident("for") || code.get(i + 1).is_some_and(|n| n.is_punct("<")) {
            continue;
        }
        let Some(open) = find_body_open(code, i + 1) else {
            continue;
        };
        // Find `in` at paren/bracket depth 0 between the pattern and body.
        let mut depth = 0i32;
        for (j, t) in code.iter().enumerate().take(open).skip(i + 1) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    _ => {}
                }
            } else if t.is_ident("in") && depth == 0 {
                out.push((i, j, open));
                break;
            }
        }
    }
    out
}

/// First `{` at paren/bracket depth 0 scanning from `start`; a `;` first
/// means the construct had no body here.
fn find_body_open(code: &[Tok], start: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(start) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some(j),
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Matching `}` for the `{` at `open`.
fn matching_brace(code: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Token-index spans of test code: bodies under `#[cfg(test)]` /
/// `#[test]` attributes. `#[cfg(not(test))]` is production code and is
/// not marked.
fn find_test_spans(code: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pending = false;
    let mut i = 0;
    while i < code.len() {
        let t = &code[i];
        if t.is_punct("#") && code.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            // Outer attribute: classify and skip.
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut saw_test = false;
            let mut saw_not = false;
            while j < code.len() {
                let a = &code[j];
                if a.is_punct("[") {
                    depth += 1;
                } else if a.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if a.is_ident("test") {
                    saw_test = true;
                } else if a.is_ident("not") {
                    saw_not = true;
                }
                j += 1;
            }
            if saw_test && !saw_not {
                pending = true;
            }
            i = j + 1;
            continue;
        }
        if t.is_punct("#") && code.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            // Inner attribute `#![…]`: skip without classifying.
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < code.len() {
                if code[j].is_punct("[") {
                    depth += 1;
                } else if code[j].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if pending {
            if t.is_punct(";") || t.is_punct("}") {
                // `#[cfg(test)] use …;`, or a test-only struct field or
                // struct-literal field closed by its braces — no body to
                // mark (the next `{` is production code).
                pending = false;
            } else if t.is_punct("{") {
                if let Some(close) = matching_brace(code, i) {
                    spans.push((i, close));
                }
                pending = false;
            }
        }
        i += 1;
    }
    spans
}

/// A parsed `// lips-allow(<lint>): <reason>` comment.
#[derive(Debug)]
struct Suppression {
    lint: &'static str,
    /// Source lines this allow covers: its own line (trailing comments)
    /// and the next code line below it.
    lines: Vec<u32>,
    comment_line: u32,
}

fn parse_suppressions(
    all: &[Tok],
    code: &[Tok],
    malformed: &mut Vec<(u32, String)>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in all {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        // Strip exactly one comment marker. A suppression is a comment
        // whose payload *starts* with `lips-allow` — quoted examples in
        // docs (`//! // lips-allow(…)`, backticked mentions) don't count.
        let payload = t
            .text
            .strip_prefix("//!")
            .or_else(|| t.text.strip_prefix("///"))
            .or_else(|| t.text.strip_prefix("//"))
            .or_else(|| t.text.strip_prefix("/*"))
            .unwrap_or(&t.text)
            .trim_start();
        let Some(rest) = payload.strip_prefix("lips-allow") else {
            continue;
        };
        let parsed = (|| -> Result<&'static str, String> {
            let rest = rest
                .strip_prefix('(')
                .ok_or_else(|| "expected `lips-allow(<lint>): <reason>`".to_string())?;
            let close = rest
                .find(')')
                .ok_or_else(|| "unclosed `(` in lips-allow".to_string())?;
            let name = rest[..close].trim();
            let lint = crate::lints::lint_by_name(name)
                .ok_or_else(|| format!("unknown lint `{name}` in lips-allow"))?;
            let after = rest[close + 1..].trim_start();
            let reason = after.strip_prefix(':').map_or("", str::trim);
            if reason.is_empty() {
                return Err(format!(
                    "lips-allow({name}) needs a reason: `lips-allow({name}): <why>`"
                ));
            }
            Ok(lint.name)
        })();
        match parsed {
            Ok(lint) => {
                let next_code_line = code
                    .iter()
                    .map(|c| c.line)
                    .find(|&l| l > t.line)
                    .unwrap_or(t.line);
                out.push(Suppression {
                    lint,
                    lines: vec![t.line, next_code_line],
                    comment_line: t.line,
                });
            }
            Err(msg) => malformed.push((t.line, msg)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> FileAnalysis {
        analyze_source("core", "crates/core/src/x.rs", src, &FieldTable::default())
    }

    #[test]
    fn flags_hash_iteration_and_respects_btree() {
        let src = r"
            use std::collections::{BTreeMap, HashMap};
            fn f() {
                let mut m: HashMap<u32, f64> = HashMap::new();
                let b: BTreeMap<u32, f64> = BTreeMap::new();
                for (k, v) in &m { let _ = (k, v); }
                let s: f64 = m.values().sum();
                let t: f64 = b.values().sum();
                let _ = (s, t);
            }
        ";
        let a = run(src);
        let iter_hits: Vec<_> = a
            .findings
            .iter()
            .filter(|f| f.lint == lints::UNORDERED_ITERATION)
            .collect();
        assert_eq!(iter_hits.len(), 2, "{:?}", a.findings);
    }

    #[test]
    fn point_lookups_are_fine() {
        let a = run(r"
            use std::collections::HashMap;
            fn f(m: &HashMap<u32, u32>) -> Option<u32> {
                m.get(&3).copied()
            }
        ");
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn test_code_is_exempt() {
        let a = run(r"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let x: Option<u32> = None; x.unwrap(); }
            }
        ");
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn cfg_not_test_is_production() {
        let a = run(r"
            #[cfg(not(test))]
            mod prod {
                pub fn f(x: Option<u32>) -> u32 { x.unwrap() }
            }
        ");
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].lint, lints::PANIC_SURFACE);
    }

    #[test]
    fn test_only_fields_do_not_hide_the_next_item() {
        let a = run(r"
            struct W {
                #[cfg(test)]
                count: usize,
            }
            impl W {
                fn new() -> Self {
                    W {
                        #[cfg(test)]
                        count: 0,
                    }
                }
                fn f(x: Option<u32>) -> u32 { x.unwrap() }
            }
        ");
        assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
        assert_eq!(a.findings[0].lint, lints::PANIC_SURFACE);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let a = run("fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }");
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn suppression_needs_reason_and_matching_lint() {
        let src = r"
            fn f(x: Option<u32>) -> u32 {
                // lips-allow(panic-surface): caller guarantees Some by construction
                x.unwrap()
            }
        ";
        let a = run(src);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.suppressed.len(), 1);

        let bad = run(r"
            fn f(x: Option<u32>) -> u32 {
                // lips-allow(panic-surface)
                x.unwrap()
            }
        ");
        assert_eq!(bad.findings.len(), 1, "reason-less allow must not suppress");
        assert_eq!(bad.malformed_allows.len(), 1);
    }

    #[test]
    fn unused_allow_is_reported() {
        let a = run(r"
            // lips-allow(panic-surface): stale
            fn f() {}
        ");
        assert_eq!(a.unused_allows.len(), 1);
    }

    #[test]
    fn float_accum_in_loop_flags_hash_entry_accum() {
        let src = r"
            use std::collections::HashMap;
            fn f(xs: &[(u32, f64)]) -> HashMap<u32, f64> {
                let mut m: HashMap<u32, f64> = HashMap::new();
                for &(k, v) in xs {
                    *m.entry(k).or_default() += v;
                }
                m
            }
        ";
        let a = run(src);
        assert!(
            a.findings
                .iter()
                .any(|f| f.lint == lints::FLOAT_ACCUM_IN_LOOP),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn integer_accum_is_fine() {
        let src = r"
            fn f(xs: &[u32]) -> u32 {
                let mut n = 0;
                for &x in xs { n += x; }
                n
            }
        ";
        let a = run(src);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn wall_clock_and_width() {
        let src = r"
            fn f() -> f64 {
                let t = std::time::Instant::now();
                let _w = std::thread::available_parallelism();
                t.elapsed().as_secs_f64()
            }
        ";
        let a = run(src);
        assert!(a
            .findings
            .iter()
            .any(|f| f.lint == lints::WALL_CLOCK_IN_SOLVER));
        assert!(a
            .findings
            .iter()
            .any(|f| f.lint == lints::THREAD_WIDTH_DEPENDENCE));
    }

    #[test]
    fn bench_crate_may_time_but_not_query_width() {
        let src = r"
            fn f() {
                let t = std::time::Instant::now();
                let _w = std::thread::available_parallelism();
                let _ = t;
            }
        ";
        let a = analyze_source(
            "bench",
            "crates/bench/src/x.rs",
            src,
            &FieldTable::default(),
        );
        assert!(a
            .findings
            .iter()
            .all(|f| f.lint == lints::THREAD_WIDTH_DEPENDENCE));
        assert_eq!(a.findings.len(), 1);
    }

    #[test]
    fn par_crate_may_query_width_and_accumulate() {
        // lips-par owns the ordered-fold machinery: width queries and
        // float accumulation are its job, the other lints still apply.
        let src = r"
            fn f(xs: &[f64]) -> f64 {
                let _w = std::thread::available_parallelism();
                let mut acc = 0.0;
                for &x in xs { acc += x; }
                let o: Option<u32> = None;
                o.unwrap();
                acc
            }
        ";
        let a = analyze_source("par", "crates/par/src/x.rs", src, &FieldTable::default());
        assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
        assert_eq!(a.findings[0].lint, lints::PANIC_SURFACE);
    }

    #[test]
    fn cross_file_float_hash_field_accum_is_flagged() {
        // Field declared `HashMap<K, f64>` in another file; this file
        // accumulates into it inside a loop.
        let mut global = FieldTable::default();
        global.hash.insert("totals".to_string());
        global.float_hash.insert("totals".to_string());
        let src = r"
            fn f(m: &mut Ledger, xs: &[(u32, u32)]) {
                for &(k, v) in xs {
                    *m.totals.entry(k).or_default() += v as f64;
                }
            }
        ";
        let a = analyze_source("core", "x.rs", src, &global);
        assert!(
            a.findings
                .iter()
                .any(|f| f.lint == lints::FLOAT_ACCUM_IN_LOOP),
            "{:?}",
            a.findings
        );
        // `entry()` is a point operation, not an ordered visit.
        assert!(
            a.findings
                .iter()
                .all(|f| f.lint != lints::UNORDERED_ITERATION),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn local_vec_shadows_global_hash_field() {
        let mut global = FieldTable::default();
        global.hash.insert("rows".to_string());
        let src = r"
            fn f() {
                let rows: Vec<u32> = vec![1, 2];
                for r in rows.iter() { let _ = r; }
            }
        ";
        let a = analyze_source("core", "x.rs", src, &global);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn global_field_access_is_flagged() {
        let mut global = FieldTable::default();
        global.hash.insert("by_machine".to_string());
        let src = r"
            fn f(m: &Metrics) -> f64 {
                m.by_machine.values().sum()
            }
        ";
        let a = analyze_source("core", "x.rs", src, &global);
        assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
        assert_eq!(a.findings[0].lint, lints::UNORDERED_ITERATION);
    }
}
