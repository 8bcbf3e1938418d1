//! The `sprite-lint` rule engine: token-accurate ports of the legacy line
//! rules plus call-graph semantic rules over [`crate::syntax`] models.
//!
//! ## Rule catalog
//!
//! Token rules (per file, skipping the `#[cfg(test)]` tail and the exempt
//! `tests/`, `benches/`, `examples/` directories):
//!
//! * **no-unwrap** — `.unwrap()` is banned in library code.
//! * **expect-message** — `.expect(…)` must carry a non-empty string
//!   literal.
//! * **no-ambient-time** — no workspace crate may read wall-clock time or
//!   ambient randomness (`SystemTime`, `Instant::now`, `thread_rng`,
//!   `rand::`). That includes `crates/bench`, which gates simulated
//!   results only: clocks are read by the standalone `benchmark/` package,
//!   outside the linted tree.
//! * **forbid-unsafe** — crate roots must carry `#![forbid(unsafe_code)]`.
//! * **no-raw-spawn** — `thread::spawn` / `thread::scope` only inside
//!   `crates/util/src/pool.rs`.
//!
//! Semantic rules (over the workspace call graph; see DESIGN.md §11):
//!
//! * **postings-codec** — no struct field may store an inverted index
//!   raw by pairing `TermId` with `IndexEntry` (the pre-codec
//!   `HashMap<TermId, Vec<IndexEntry>>` layout): index storage goes
//!   through `PostingList`, whose private fields leave its own module
//!   (`crates/core/src/postings.rs`) the only place a block can be built.
//! * **oracle-taint** — no function transitively reachable from the
//!   retrieval roots (`QueryView::query*`, `SpriteSystem::issue_query*`)
//!   may call an `oracle_*` helper. This replaces
//!   the old four-file allowlist: reachability follows refactors.
//! * **charge-coverage** — reachable functions outside the billing layer
//!   (`stats.rs`, `trace.rs`, `ring.rs`) must not touch the raw `NetStats`
//!   mutators, and any reachable function constructing a `MsgKind` must
//!   also call a billing sink (`charge_route`, a `charge*_traced` helper,
//!   or the `trace::charge*` free functions). Additionally, every `MsgKind`
//!   variant needs at least one billing site somewhere in the workspace.
//! * **hashmap-order** — any function iterating a `HashMap` (locals,
//!   parameters, or same-file struct fields) is flagged unless the
//!   function contains an ordering construct (`sort*`, `top_k`, `TopK`,
//!   `BinaryHeap`, `BTreeMap`, `BTreeSet`) or the iterating statement
//!   reduces commutatively (`sum`, `count`, `max`, `min`, `all`, `any`).
//!   Previously only four ranked-output files were checked.
//! * **config-drift** — every `SpriteConfig` field must be read somewhere
//!   outside its defining file: a field nothing reads is a knob that
//!   silently stopped steering the system.
//!
//! ## Opt-out
//!
//! A diagnostic is suppressed when a comment on the same line contains
//! `sprite-lint: allow(<rule>): <justification>` — the rule name and a
//! trailing justification are both required (the old scanner's bare marker
//! suppressed every rule on the line; this one is per-rule and demands a
//! written why).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lex::TokenKind;
use crate::syntax::{is_hashmap_type, FileModel, Recv};

/// One finding, rendered as `file:line: [rule] message` (or JSON).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Diagnostic {
    /// One-line JSON object, matching the CI problem matcher.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&self.file),
            self.line,
            self.rule,
            json_escape(&self.message)
        )
    }
}

/// The one module allowed to touch raw threading primitives.
const POOL_MODULE: &str = "crates/util/src/pool.rs";

/// The codec-backed postings module: where `PostingList` lives, and the
/// one file exempt from the raw-posting-storage check.
const POSTINGS_MODULE: &str = "crates/core/src/postings.rs";

/// The message-accounting layer itself: the files that *implement* billing
/// and are therefore allowed to touch the raw `NetStats` mutators.
const BILLING_LAYER: &[&str] = &[
    "crates/chord/src/stats.rs",
    "crates/chord/src/trace.rs",
    "crates/chord/src/ring.rs",
];

/// Raw `NetStats` mutators banned (as method calls) on the reachable
/// retrieval path outside the billing layer.
const RAW_MUTATORS: &[&str] = &[
    "record",
    "record_n",
    "record_bytes",
    "charge",
    "charge_n",
    "charge_bytes",
];

/// Method names that iterate a map in storage order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Commutative reducers that make iteration order irrelevant.
const REDUCERS: &[&str] = &["sum", "count", "max", "min", "all", "any"];

/// Idents whose presence in a function marks its output as ordered.
const ORDER_MARKERS: &[&str] = &["top_k", "TopK", "BinaryHeap", "BTreeMap", "BTreeSet"];

fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

fn is_exempt_dir(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

/// Inner emptiness of a string-literal token's text (`""`, `r""`, `b""` …).
fn str_lit_is_empty(text: &str) -> bool {
    text.chars().all(|c| matches!(c, '"' | '#' | 'r' | 'b'))
}

/// The retrieval roots: taint starts here.
fn is_root(owner: Option<&str>, name: &str) -> bool {
    match owner {
        Some("QueryView") => name.starts_with("query"),
        Some("SpriteSystem") => name.starts_with("issue_query"),
        _ => false,
    }
}

/// A billing sink: the traced/routed charge spellings, plus the
/// `trace::charge*` free helpers.
fn is_sink_call(name: &str, recv: &Recv) -> bool {
    if name == "charge_route" {
        return true;
    }
    if name.starts_with("charge") && name.ends_with("_traced") {
        return true;
    }
    matches!(name, "charge" | "charge_n" | "charge_bytes")
        && matches!(recv, Recv::Path(_) | Recv::Free)
}

/// Any call that bills a message (used for workspace-wide variant
/// coverage, where the billing layer's raw mutators count too).
fn is_billing_call(name: &str) -> bool {
    name.starts_with("charge") || name.starts_with("record")
}

struct Workspace {
    files: Vec<FileModel>,
    /// Per file: line → concatenated comment text (for allow markers).
    comments: Vec<BTreeMap<u32, String>>,
}

type FnRef = (usize, usize);

impl Workspace {
    fn build(sources: &[(String, String)]) -> Workspace {
        let mut files = Vec::with_capacity(sources.len());
        let mut comments = Vec::with_capacity(sources.len());
        for (rel, content) in sources {
            let model = FileModel::parse(rel, content);
            let mut per_line: BTreeMap<u32, String> = BTreeMap::new();
            for t in &model.tokens {
                if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                    per_line
                        .entry(t.line)
                        .or_default()
                        .push_str(t.text(&model.src));
                }
            }
            files.push(model);
            comments.push(per_line);
        }
        Workspace { files, comments }
    }

    fn allowed(&self, fi: usize, line: u32, rule: &str) -> bool {
        self.comments[fi]
            .get(&line)
            .is_some_and(|c| c.contains(&format!("sprite-lint: allow({rule}):")))
    }

    /// Resolve one call site in `(file, fn)` to candidate workspace
    /// functions. Name-keyed and conservative: unresolvable receivers fan
    /// out to every method of that name.
    fn resolve(
        &self,
        caller: FnRef,
        name: &str,
        recv: &Recv,
        methods: &BTreeMap<(&str, &str), Vec<FnRef>>,
        by_name: &BTreeMap<&str, Vec<FnRef>>,
        free: &BTreeMap<&str, Vec<FnRef>>,
    ) -> Vec<FnRef> {
        let (fi, ki) = caller;
        let owner = self.files[fi].fns[ki].owner.as_deref();
        let of = |key: Option<Vec<FnRef>>| key.unwrap_or_default();
        match recv {
            Recv::SelfCall => of(owner.and_then(|o| methods.get(&(o, name)).cloned())),
            Recv::Named(x) => {
                // A field of the enclosing type (same file) resolves to the
                // field's type; anything else fans out by name.
                let field_type = owner.and_then(|o| {
                    self.files[fi]
                        .structs
                        .iter()
                        .find(|s| s.name == o)
                        .and_then(|s| s.fields.iter().find(|f| f.name == *x))
                        .and_then(|f| f.type_idents.first().cloned())
                });
                match field_type {
                    Some(t) => of(methods.get(&(t.as_str(), name)).cloned()),
                    None => of(by_name.get(name).cloned()),
                }
            }
            Recv::Method => of(by_name.get(name).cloned()),
            Recv::Path(q) => {
                let q = if q == "Self" { owner.unwrap_or(q) } else { q };
                match methods.get(&(q, name)) {
                    Some(v) => v.clone(),
                    None => of(free.get(name).cloned()),
                }
            }
            Recv::Free => of(free.get(name).cloned()),
        }
    }

    /// Non-test functions transitively reachable from the retrieval roots.
    fn reachable(&self) -> BTreeSet<FnRef> {
        let mut methods: BTreeMap<(&str, &str), Vec<FnRef>> = BTreeMap::new();
        let mut by_name: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
        let mut queue: Vec<FnRef> = Vec::new();
        for (fi, f) in self.files.iter().enumerate() {
            if is_exempt_dir(&f.rel) {
                continue;
            }
            for (ki, fun) in f.fns.iter().enumerate() {
                if fun.in_test {
                    continue;
                }
                match fun.owner.as_deref() {
                    Some(o) => {
                        methods.entry((o, &fun.name)).or_default().push((fi, ki));
                        by_name.entry(&fun.name).or_default().push((fi, ki));
                    }
                    None => free.entry(&fun.name).or_default().push((fi, ki)),
                }
                if is_root(fun.owner.as_deref(), &fun.name) {
                    queue.push((fi, ki));
                }
            }
        }
        let mut seen: BTreeSet<FnRef> = queue.iter().copied().collect();
        while let Some(cur) = queue.pop() {
            let (fi, ki) = cur;
            let calls = self.files[fi].fns[ki].calls.clone();
            for call in &calls {
                for tgt in self.resolve(cur, &call.name, &call.recv, &methods, &by_name, &free) {
                    if seen.insert(tgt) {
                        queue.push(tgt);
                    }
                }
            }
        }
        seen
    }
}

/// Run every rule over in-memory `(relative path, content)` sources.
/// This is the engine the fixture tests drive directly.
#[must_use]
pub fn analyze_sources(sources: &[(String, String)]) -> Vec<Diagnostic> {
    let ws = Workspace::build(sources);
    let mut out: Vec<Diagnostic> = Vec::new();
    for f in &ws.files {
        token_rules(f, &mut out);
    }
    semantic_rules(&ws, &mut out);
    out.retain(|d| match ws.files.iter().position(|f| f.rel == d.file) {
        Some(fi) => !ws.allowed(fi, d.line, d.rule),
        None => true,
    });
    out.sort();
    out.dedup();
    out
}

/// Token-accurate ports of the legacy line rules.
fn token_rules(f: &FileModel, out: &mut Vec<Diagnostic>) {
    let rel = f.rel.as_str();
    let diag = |line: u32, rule: &'static str, message: String| Diagnostic {
        file: rel.to_string(),
        line,
        rule,
        message,
    };
    let n = f.sig.len();
    let text = |i: usize| f.sig_text(i);

    if is_crate_root(rel) {
        let seq = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
        let found = (0..n.saturating_sub(seq.len() - 1))
            .any(|i| seq.iter().enumerate().all(|(k, s)| text(i + k) == *s));
        if !found {
            out.push(diag(
                1,
                "forbid-unsafe",
                "crate root lacks #![forbid(unsafe_code)]".to_string(),
            ));
        }
    }
    if is_exempt_dir(rel) {
        return;
    }

    for i in 0..f.test_from.min(n) {
        if f.sig_kind(i) != TokenKind::Ident {
            continue;
        }
        let t = text(i);
        let line = f.sig_line(i);
        let prev = if i > 0 { text(i - 1) } else { "" };
        let next = if i + 1 < n { text(i + 1) } else { "" };

        if t == "unwrap" && prev == "." && next == "(" {
            out.push(diag(
                line,
                "no-unwrap",
                "unwrap() in library code; handle the None/Err or expect with a message"
                    .to_string(),
            ));
        }
        if t == "expect" && prev == "." && next == "(" {
            let ok = i + 2 < n
                && f.sig_kind(i + 2) == TokenKind::StrLit
                && !str_lit_is_empty(text(i + 2));
            if !ok {
                out.push(diag(
                    line,
                    "expect-message",
                    "expect() without a non-empty string-literal message".to_string(),
                ));
            }
        }
        if t == "thread" && next == "::" && i + 2 < n && rel != POOL_MODULE {
            let what = text(i + 2);
            if what == "spawn" || what == "scope" {
                out.push(diag(
                    line,
                    "no-raw-spawn",
                    format!(
                        "thread::{what} outside {POOL_MODULE}; use sprite_util's \
                         order-preserving par_map"
                    ),
                ));
            }
        }
        let ambient = if t == "SystemTime" {
            Some(("wall-clock time", "SystemTime"))
        } else if t == "Instant" && next == "::" && i + 2 < n && text(i + 2) == "now" {
            Some(("wall-clock time", "Instant::now"))
        } else if t == "thread_rng" {
            Some(("ambient randomness", "thread_rng"))
        } else if t == "rand" && next == "::" {
            Some(("the rand crate", "rand::"))
        } else {
            None
        };
        if let Some((what, pat)) = ambient {
            out.push(diag(
                line,
                "no-ambient-time",
                format!("{what} ({pat}) in a simulation crate; use seeded DetRng"),
            ));
        }
    }
}

/// Call-graph rules: oracle-taint, charge-coverage, hashmap-order,
/// config-drift.
fn semantic_rules(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let reachable = ws.reachable();

    for &(fi, ki) in &reachable {
        let f = &ws.files[fi];
        let fun = &f.fns[ki];
        let rel = f.rel.as_str();
        let billing_layer = BILLING_LAYER.contains(&rel);

        for call in &fun.calls {
            if call.name.starts_with("oracle_") {
                out.push(Diagnostic {
                    file: rel.to_string(),
                    line: call.line,
                    rule: "oracle-taint",
                    message: format!(
                        "global-knowledge helper `{}` called in `{}`, which is reachable \
                         from the retrieval roots; resolve owners and replicas with \
                         routed lookups",
                        call.name, fun.name
                    ),
                });
            }
            // A raw-mutator *name* only counts when the receiver is (or
            // may be) the accounting state: an unresolvable receiver, a
            // `NetStats`, or a `ChordNet`. A resolved receiver of another
            // type (say a `Histogram`, whose `record` is innocent) passes.
            let stats_receiver = match &call.recv {
                Recv::SelfCall => fun.owner.as_deref(),
                Recv::Named(x) => fun
                    .owner
                    .as_deref()
                    .and_then(|o| f.structs.iter().find(|s| s.name == o))
                    .and_then(|s| s.fields.iter().find(|fd| fd.name == *x))
                    .and_then(|fd| fd.type_idents.first().map(String::as_str)),
                Recv::Method => None,
                Recv::Path(_) | Recv::Free => Some("-"),
            }
            .is_none_or(|t| t == "NetStats" || t == "ChordNet");
            if !billing_layer
                && stats_receiver
                && RAW_MUTATORS.contains(&call.name.as_str())
                && matches!(call.recv, Recv::SelfCall | Recv::Named(_) | Recv::Method)
            {
                out.push(Diagnostic {
                    file: rel.to_string(),
                    line: call.line,
                    rule: "charge-coverage",
                    message: format!(
                        "raw stats mutator `.{}(` in `{}` on the reachable retrieval \
                         path; bill through charge_route or the traced charge helpers",
                        call.name, fun.name
                    ),
                });
            }
        }
        if !billing_layer {
            let has_sink = fun.calls.iter().any(|c| is_sink_call(&c.name, &c.recv));
            for p in &fun.path_pairs {
                if p.qual == "MsgKind" && !has_sink {
                    out.push(Diagnostic {
                        file: rel.to_string(),
                        line: p.line,
                        rule: "charge-coverage",
                        message: format!(
                            "`MsgKind::{}` constructed in `{}` with no billing call in \
                             the function; bill through charge_route or the traced \
                             charge helpers",
                            p.name, fun.name
                        ),
                    });
                }
            }
        }
    }

    variant_coverage(ws, out);
    hashmap_order(ws, out);
    config_drift(ws, out);
    raw_posting_storage(ws, out);
}

/// No struct field outside the postings module may store an inverted
/// index raw: a field whose type pairs `TermId` with `IndexEntry` is the
/// pre-codec `HashMap<TermId, Vec<IndexEntry>>` layout resurfacing.
/// Transient snapshots (locals, return values) are fine — only durable
/// storage must go through `PostingList`.
fn raw_posting_storage(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for f in &ws.files {
        if is_exempt_dir(&f.rel) || f.rel == POSTINGS_MODULE {
            continue;
        }
        for s in &f.structs {
            if s.in_test {
                continue;
            }
            for field in &s.fields {
                let has = |ident: &str| field.type_idents.iter().any(|t| t == ident);
                if has("TermId") && has("IndexEntry") {
                    out.push(Diagnostic {
                        file: f.rel.clone(),
                        line: field.line,
                        rule: "postings-codec",
                        message: format!(
                            "field `{}` of `{}` stores postings as raw TermId → IndexEntry \
                             containers; store a PostingList from {POSTINGS_MODULE} so the \
                             index stays delta-gap compressed",
                            field.name, s.name
                        ),
                    });
                }
            }
        }
    }
}

/// Every `MsgKind` variant needs ≥ 1 billing site workspace-wide.
fn variant_coverage(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let mut billed: BTreeSet<String> = BTreeSet::new();
    for f in &ws.files {
        if is_exempt_dir(&f.rel) {
            continue;
        }
        for fun in &f.fns {
            if fun.in_test || !fun.calls.iter().any(|c| is_billing_call(&c.name)) {
                continue;
            }
            for p in &fun.path_pairs {
                if p.qual == "MsgKind" {
                    billed.insert(p.name.clone());
                }
            }
        }
    }
    for f in &ws.files {
        if is_exempt_dir(&f.rel) {
            continue;
        }
        for e in &f.enums {
            if e.name != "MsgKind" || e.in_test {
                continue;
            }
            for (v, line) in &e.variants {
                if !billed.contains(v) {
                    out.push(Diagnostic {
                        file: f.rel.clone(),
                        line: *line,
                        rule: "charge-coverage",
                        message: format!(
                            "MsgKind::{v} has no billing site anywhere in the workspace \
                             (no non-test function both names it and calls a charge/record \
                             helper)"
                        ),
                    });
                }
            }
        }
    }
}

/// Scope-aware `HashMap` iteration-order rule over the whole workspace.
fn hashmap_order(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for f in &ws.files {
        if is_exempt_dir(&f.rel) {
            continue;
        }
        // HashMap-typed fields of structs defined in this file.
        let hm_fields: BTreeSet<&str> = f
            .structs
            .iter()
            .flat_map(|s| s.fields.iter())
            .filter(|fd| is_hashmap_type(&fd.type_idents))
            .map(|fd| fd.name.as_str())
            .collect();
        for fun in &f.fns {
            if fun.in_test {
                continue;
            }
            let is_hm = |ident: &str| {
                fun.hashmap_locals.iter().any(|h| h == ident) || hm_fields.contains(ident)
            };
            let ordered_fn = fn_has_order_marker(f, fun.body);
            let mut flag = |ident: &str, line: u32, ordered_stmt: bool| {
                if !ordered_fn && !ordered_stmt {
                    out.push(Diagnostic {
                        file: f.rel.clone(),
                        line,
                        rule: "hashmap-order",
                        message: format!(
                            "HashMap `{ident}` iterated in `{}` with no sort/top-k in \
                             the function and no commutative reduction in the statement",
                            fun.name
                        ),
                    });
                }
            };
            // Method-call iterations: find `x . iter (`-shaped sites in the
            // body so the statement tail can be scanned for reducers.
            let (lo, hi) = fun.body;
            let mut i = lo;
            while i + 3 < hi {
                if f.sig_kind(i) == TokenKind::Ident
                    && f.sig_text(i + 1) == "."
                    && ITER_METHODS.contains(&f.sig_text(i + 2))
                    && f.sig_text(i + 3) == "("
                    && is_hm(f.sig_text(i))
                {
                    flag(
                        f.sig_text(i),
                        f.sig_line(i),
                        statement_reduces(f, i + 2, hi),
                    );
                }
                i += 1;
            }
            for (ident, line) in &fun.for_iterations {
                if is_hm(ident) {
                    flag(ident, *line, false);
                }
            }
        }
    }
}

/// Does the function body contain an ordering construct?
fn fn_has_order_marker(f: &FileModel, body: (usize, usize)) -> bool {
    (body.0..body.1).any(|i| {
        if f.sig_kind(i) != TokenKind::Ident {
            return false;
        }
        let t = f.sig_text(i);
        t.starts_with("sort") || ORDER_MARKERS.contains(&t)
    })
}

/// Scan the statement containing significant index `from` (to `;` at outer
/// nesting, or at most the body end) for a commutative reducer call.
fn statement_reduces(f: &FileModel, from: usize, body_end: usize) -> bool {
    let mut nest = 0i32;
    let mut i = from;
    while i < body_end {
        match f.sig_text(i) {
            "(" | "[" | "{" => nest += 1,
            ")" | "]" | "}" => {
                if nest == 0 {
                    return false;
                }
                nest -= 1;
            }
            ";" if nest <= 0 => return false,
            t if f.sig_kind(i) == TokenKind::Ident
                && REDUCERS.contains(&t)
                && i + 1 < body_end
                && f.sig_text(i + 1) == "(" =>
            {
                return true;
            }
            _ => {}
        }
        i += 1;
    }
    false
}

/// Every `SpriteConfig` field must be read outside its defining file.
fn config_drift(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for (fi, f) in ws.files.iter().enumerate() {
        if is_exempt_dir(&f.rel) {
            continue;
        }
        for s in &f.structs {
            if s.name != "SpriteConfig" || s.in_test {
                continue;
            }
            for field in &s.fields {
                let read_elsewhere = ws.files.iter().enumerate().any(|(oi, other)| {
                    oi != fi
                        && !is_exempt_dir(&other.rel)
                        && other.fns.iter().any(|fun| {
                            !fun.in_test && fun.field_reads.iter().any(|(r, _)| r == &field.name)
                        })
                });
                if !read_elsewhere {
                    out.push(Diagnostic {
                        file: f.rel.clone(),
                        line: field.line,
                        rule: "config-drift",
                        message: format!(
                            "SpriteConfig field `{}` is never read outside its \
                             definition; a knob nothing reads no longer steers the \
                             system",
                            field.name
                        ),
                    });
                }
            }
        }
    }
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Read every workspace source under `root` as `(relative path, content)`
/// pairs. Walks `src/`, `crates/`, and — unlike the old scanner — the
/// top-level `tests/` and `examples/` trees.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    for top in ["src", "crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files).map_err(|e| format!("walking {}: {e}", dir.display()))?;
        }
    }
    if files.is_empty() {
        return Err(format!(
            "no Rust sources under {} (expected src/ and crates/)",
            root.display()
        ));
    }
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let content =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        out.push((rel, content));
    }
    Ok(out)
}

/// Analyze the workspace rooted at `root`: collect sources, run every
/// rule, and return the sorted diagnostics. This is the entry point the
/// lint binary, the CI gate, and the tests share.
pub fn analyze(root: &Path) -> Result<Vec<Diagnostic>, String> {
    Ok(analyze_sources(&collect_sources(root)?))
}
