//! Fixture tests for the lint rule engine.
//!
//! Each test feeds `analyze_sources` an in-memory workspace with planted
//! violations next to structurally similar near-misses, and asserts the
//! engine flags exactly the planted lines — nothing more. Fixture paths
//! live under `crates/core/src/` (a simulation crate) so every rule is
//! armed unless a test deliberately picks an exempt path.

use sprite_audit::{analyze_sources, Diagnostic};

fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|&(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    analyze_sources(&owned)
}

/// The `(line, rule)` pairs of every diagnostic, for exact-match asserts.
fn lines(diags: &[Diagnostic]) -> Vec<(u32, &'static str)> {
    diags.iter().map(|d| (d.line, d.rule)).collect()
}

// ---------------------------------------------------------------------
// Ported token rules
// ---------------------------------------------------------------------

/// The regression that killed the line scanner: `//` inside a string is
/// not a comment, so the `.unwrap()` after the URL is still flagged —
/// while `unwrap` spelled inside strings and comments never is.
#[test]
fn no_unwrap_sees_through_string_literals() {
    let src = "\
pub fn fetch() -> u32 {
    let u = \"http://example.com\"; Some(1).unwrap()
}
pub fn doc() -> &'static str {
    // calling .unwrap() here would be bad
    \".unwrap()\"
}
";
    let diags = run(&[("crates/core/src/fx.rs", src)]);
    assert_eq!(lines(&diags), [(2, "no-unwrap")]);
}

#[test]
fn expect_requires_a_nonempty_message() {
    let src = "\
pub fn a() -> u32 { Some(1).expect(\"\") }
pub fn b() -> u32 { Some(1).expect(\"one is some\") }
";
    let diags = run(&[("crates/core/src/fx.rs", src)]);
    assert_eq!(lines(&diags), [(1, "expect-message")]);
}

/// Opt-out markers must name the rule and carry a justification; the old
/// bare marker and a marker for a different rule both keep the finding.
#[test]
fn allow_marker_requires_rule_name_and_justification() {
    let src = "\
pub fn a() -> u32 { Some(1).unwrap() } // sprite-lint: allow(no-unwrap): fixture demo
pub fn b() -> u32 { Some(2).unwrap() } // sprite-lint: allow
pub fn c() -> u32 { Some(3).unwrap() } // sprite-lint: allow(expect-message): wrong rule
";
    let diags = run(&[("crates/core/src/fx.rs", src)]);
    assert_eq!(lines(&diags), [(2, "no-unwrap"), (3, "no-unwrap")]);
}

#[test]
fn exempt_dirs_and_test_tails_are_skipped() {
    let lib = "\
pub fn a() -> u32 { Some(1).unwrap() }
#[cfg(test)]
mod tests {
    fn t() -> u32 { Some(2).unwrap() }
}
";
    let diags = run(&[
        ("crates/core/src/fx.rs", lib),
        (
            "crates/core/tests/it.rs",
            "fn x() -> u32 { Some(1).unwrap() }\n",
        ),
        ("tests/e2e.rs", "fn x() -> u32 { Some(1).unwrap() }\n"),
        ("examples/demo.rs", "fn x() -> u32 { Some(1).unwrap() }\n"),
        (
            "crates/core/benches/b.rs",
            "fn x() -> u32 { Some(1).unwrap() }\n",
        ),
    ]);
    // Only the non-test part of the library file is linted.
    assert_eq!(lines(&diags), [(1, "no-unwrap")]);
    assert_eq!(diags[0].file, "crates/core/src/fx.rs");
}

#[test]
fn crate_roots_must_forbid_unsafe() {
    let diags = run(&[
        ("crates/core/src/lib.rs", "pub fn a() {}\n"),
        (
            "crates/ir/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn a() {}\n",
        ),
        // Not a crate root: no requirement.
        ("crates/core/src/other.rs", "pub fn b() {}\n"),
    ]);
    assert_eq!(lines(&diags), [(1, "forbid-unsafe")]);
    assert_eq!(diags[0].file, "crates/core/src/lib.rs");
}

#[test]
fn raw_spawns_are_confined_to_the_pool_module() {
    let spawny = "pub fn go() { std::thread::spawn(|| {}); }\n";
    let diags = run(&[
        ("crates/core/src/fx.rs", spawny),
        ("crates/util/src/pool.rs", spawny),
    ]);
    assert_eq!(lines(&diags), [(1, "no-raw-spawn")]);
    assert_eq!(diags[0].file, "crates/core/src/fx.rs");
}

#[test]
fn ambient_time_is_banned_in_every_crate_bench_included() {
    let timey = "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n";
    // `crates/bench` is a simulation crate like the rest — it gates
    // simulated results and reads no clock; only the exempt test/example
    // directories may.
    let diags = run(&[
        ("crates/core/src/fx.rs", timey),
        ("crates/bench/src/fx.rs", timey),
        ("crates/bench/src/bin/fx.rs", timey),
        ("tests/fx.rs", timey),
    ]);
    assert_eq!(lines(&diags), [(1, "no-ambient-time"); 3]);
    let files: Vec<&str> = diags.iter().map(|d| d.file.as_str()).collect();
    assert_eq!(
        files,
        [
            "crates/bench/src/bin/fx.rs",
            "crates/bench/src/fx.rs",
            "crates/core/src/fx.rs"
        ]
    );
}

// ---------------------------------------------------------------------
// oracle-taint
// ---------------------------------------------------------------------

/// A function transitively reachable from a retrieval root may not call a
/// global-knowledge `oracle_*` helper — but an unreachable maintenance
/// path may.
#[test]
fn oracle_taint_follows_the_call_graph_from_the_roots() {
    let src = "\
pub struct QueryView { seed: u64 }
impl QueryView {
    pub fn query(&mut self) -> u64 { self.helper() }
    fn helper(&mut self) -> u64 { oracle_owner(self.seed) }
}
fn oracle_owner(x: u64) -> u64 { x }
fn cold_rebuild() -> u64 { oracle_owner(9) }
";
    let diags = run(&[("crates/core/src/fx.rs", src)]);
    assert_eq!(lines(&diags), [(4, "oracle-taint")]);
    assert!(diags[0].message.contains("oracle_owner"));
}

// ---------------------------------------------------------------------
// charge-coverage
// ---------------------------------------------------------------------

/// Raw stats mutators on the reachable path are flagged only when the
/// receiver is (or may be) the accounting state; a `Histogram::record_n`
/// on the same path is innocent, and an unreachable raw mutator is out of
/// scope.
#[test]
fn charge_coverage_refines_raw_mutators_by_receiver_type() {
    let src = "\
pub struct NetStats { pub n: u64 }
impl NetStats { pub fn record_n(&mut self, _v: u64, _n: u64) {} }
pub struct Histogram { pub n: u64 }
impl Histogram { pub fn record_n(&mut self, _v: u64, _n: u64) {} }
pub struct SpriteSystem { net: NetStats, hist: Histogram }
impl SpriteSystem {
    pub fn issue_query(&mut self) {
        self.net.record_n(1, 1);
        self.hist.record_n(1, 1);
    }
    fn cold(&mut self) { self.net.record_n(2, 2); }
}
";
    let diags = run(&[("crates/core/src/fx.rs", src)]);
    assert_eq!(lines(&diags), [(8, "charge-coverage")]);
    assert!(diags[0].message.contains("record_n"));
}

/// Constructing a `MsgKind` on the reachable path without any billing
/// call in the same function is drift; a sibling that bills through a
/// traced helper passes.
#[test]
fn charge_coverage_flags_unbilled_msgkind_mentions() {
    let src = "\
pub enum MsgKind { Billed, Mentioned }
pub struct NetStats { pub n: u64 }
impl NetStats { pub fn charge_traced(&mut self, _k: MsgKind) { self.n += 1; } }
pub struct SpriteSystem { net: NetStats }
impl SpriteSystem {
    pub fn issue_query(&mut self) { self.good(); self.bad(); }
    fn good(&mut self) { self.net.charge_traced(MsgKind::Billed); }
    fn bad(&mut self) { let _k = MsgKind::Mentioned; }
    fn cover(&mut self) { self.net.charge_traced(MsgKind::Mentioned); }
}
";
    let diags = run(&[("crates/core/src/fx.rs", src)]);
    assert_eq!(lines(&diags), [(8, "charge-coverage")]);
    assert!(diags[0].message.contains("MsgKind::Mentioned"));
}

/// Every `MsgKind` variant needs at least one billing site somewhere in
/// the workspace, whether or not the biller is reachable.
#[test]
fn variant_coverage_requires_a_billing_site_per_variant() {
    let src = "\
pub enum MsgKind {
    Covered,
    Orphan,
}
pub struct NetStats { pub n: u64 }
impl NetStats { pub fn charge_traced(&mut self, _k: MsgKind) { self.n += 1; } }
pub struct Gate { net: NetStats }
impl Gate {
    pub fn bill(&mut self) { self.net.charge_traced(MsgKind::Covered); }
}
";
    let diags = run(&[("crates/core/src/fx.rs", src)]);
    assert_eq!(lines(&diags), [(3, "charge-coverage")]);
    assert!(diags[0].message.contains("MsgKind::Orphan"));
}

// ---------------------------------------------------------------------
// hashmap-order
// ---------------------------------------------------------------------

/// Iterating a `HashMap` leaks storage order unless the function sorts
/// (or builds an ordered structure) or the statement reduces
/// commutatively. Scope-aware: locals, params, and same-file struct
/// fields are map-typed; a `Vec` iterated the same way is not.
#[test]
fn hashmap_order_is_scope_aware() {
    let src = "\
use std::collections::HashMap;
pub fn leak(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut v = Vec::new();
    for k in m.keys() { v.push(*k); }
    v
}
pub fn sorted(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut v: Vec<u32> = m.keys().copied().collect();
    v.sort_unstable();
    v
}
pub fn reduced(m: &HashMap<u32, u32>) -> usize { m.keys().count() }
pub fn vecs_are_fine(v: &[u32]) -> u32 { let mut s = 0; for x in v.iter() { s += x; } s }
pub struct Index { posting: HashMap<u32, u32> }
impl Index {
    pub fn drain_order(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for k in self.posting.keys() { out.push(*k); }
        out
    }
}
";
    let diags = run(&[("crates/core/src/fx.rs", src)]);
    assert_eq!(lines(&diags), [(4, "hashmap-order"), (18, "hashmap-order")]);
    assert!(diags[0].message.contains('m'));
    assert!(diags[1].message.contains("posting"));
}

// ---------------------------------------------------------------------
// config-drift
// ---------------------------------------------------------------------

/// Every `SpriteConfig` field must be read outside its defining file; a
/// knob nothing reads is dead configuration. Test-only reads don't count.
#[test]
fn config_drift_flags_fields_no_other_file_reads() {
    let config = "\
pub struct SpriteConfig {
    pub used: u32,
    pub orphan: u32,
    pub test_only: u32,
}
";
    let consumer = "\
pub fn apply(cfg: &super::SpriteConfig) -> u32 { cfg.used }
#[cfg(test)]
mod tests {
    fn t(cfg: &super::super::SpriteConfig) -> u32 { cfg.test_only }
}
";
    let diags = run(&[
        ("crates/core/src/config.rs", config),
        ("crates/core/src/consumer.rs", consumer),
    ]);
    assert_eq!(lines(&diags), [(3, "config-drift"), (4, "config-drift")]);
    assert!(diags[0].message.contains("orphan"));
    assert!(diags[1].message.contains("test_only"));
}

// ---------------------------------------------------------------------
// postings-codec
// ---------------------------------------------------------------------

/// Storing an inverted index as raw `TermId → IndexEntry` containers (the
/// pre-codec layout) is flagged at the field; `PostingList`-typed storage
/// and transient `Vec<IndexEntry>` snapshots (locals, returns) pass.
#[test]
fn postings_codec_bans_raw_index_storage_fields() {
    let src = "\
pub struct OldLayout {
    inverted: HashMap<TermId, Vec<IndexEntry>>,
}
pub struct NewLayout {
    inverted: HashMap<TermId, PostingList>,
}
pub fn snapshot(term: TermId) -> Vec<IndexEntry> { Vec::new() }
";
    let diags = run(&[("crates/core/src/storage.rs", src)]);
    assert_eq!(lines(&diags), [(2, "postings-codec")]);
    assert!(diags[0].message.contains("OldLayout"));
    // The same field inside the codec module itself is fine.
    let diags = run(&[("crates/core/src/postings.rs", src)]);
    assert_eq!(lines(&diags), []);
}

/// The per-rule allow marker works for postings-codec like any other rule.
#[test]
fn postings_codec_respects_allow_markers() {
    let src = "\
pub struct A {
    inverted: HashMap<TermId, Vec<IndexEntry>>, // sprite-lint: allow(postings-codec): fixture demo
}
pub struct B {
    inverted: HashMap<TermId, Vec<IndexEntry>>,
}
";
    let diags = run(&[("crates/core/src/fx.rs", src)]);
    assert_eq!(lines(&diags), [(5, "postings-codec")]);
}

// ---------------------------------------------------------------------
// Output shape
// ---------------------------------------------------------------------

/// Diagnostics render in the `file:line: [rule] message` text shape and
/// as the one-line JSON objects the CI problem matcher consumes.
#[test]
fn diagnostics_render_text_and_json() {
    let diags = run(&[(
        "crates/core/src/fx.rs",
        "pub fn a() -> u32 { Some(1).unwrap() }\n",
    )]);
    assert_eq!(diags.len(), 1);
    let text = diags[0].to_string();
    assert!(text.starts_with("crates/core/src/fx.rs:1: [no-unwrap] "));
    let json = diags[0].to_json();
    assert!(
        json.starts_with("{\"file\":\"crates/core/src/fx.rs\",\"line\":1,\"rule\":\"no-unwrap\",")
    );
    assert!(json.ends_with("\"}"));
}
