//! The rule catalogue: what each rule bans, where, and why.
//!
//! Two families (DESIGN.md §14):
//!
//! * **Determinism (D1–D5)** — hazards that can silently break the
//!   workspace's bit-identical-replay invariant: unordered collections
//!   whose iteration order feeds event order, wall-clock reads, entropy-
//!   seeded RNG, NaN-lossy comparators, environment-dependent behaviour.
//! * **Concurrency-readiness (C1–C2)** — ground rules for the threaded
//!   serving fleet: ad-hoc `std` threading primitives are banned in the
//!   simulation core (threading belongs to the driver's deterministic
//!   merge layer, through the vendored crossbeam), and the panic surface —
//!   `.unwrap()`/`.expect()`, `panic!`-family macros, slice indexing — is
//!   ratcheted downward per crate (typed `SimError` is the checkpoint/
//!   restore contract).
//! * **Structural (S1–S2)** — invariants computed from the token-tree/item
//!   layer plus workspace metadata: the crate-layering DAG
//!   (`crate-layering`, see [`crate::layering`]) and checkpoint-schema
//!   fingerprints (`schema-drift`, see [`crate::schema`]).
//!
//! Plus one meta-rule: a `lint:allow` pragma without a reason (or naming an
//! unknown rule) is itself a violation (`bare-allow`).

use crate::diag::Severity;

/// Where a rule applies, by crate and file section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The deterministic simulation path: `pmf`, `stats`, `model`, `sched`,
    /// `core`, `workload`, `sim`, `serve` and the umbrella crate.
    SimPath,
    /// Every crate except `bench` (the only place wall-clock is honest).
    NonBench,
    /// The whole workspace, `bench` and `lint` included.
    Everywhere,
    /// The crates the threaded driver will coordinate: `sim`, `model`,
    /// `core`, `pmf`.
    ConcurrencyCore,
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Kebab-case identifier, used in diagnostics and pragmas.
    pub id: &'static str,
    /// Gate class.
    pub severity: Severity,
    /// Crate/section scope.
    pub scope: Scope,
    /// Whether findings inside test code (`tests/`, `benches/`,
    /// `#[cfg(test)]` items) count.
    pub in_tests: bool,
    /// Collapse to one finding per line — for rules whose patterns overlap
    /// textually (`std::thread::spawn` also matches `thread::spawn`).
    pub dedup_per_line: bool,
    /// One-line summary for `--rules` and the docs.
    pub summary: &'static str,
}

/// The catalogue. Order is the reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "hash-collections",
        severity: Severity::Error,
        scope: Scope::SimPath,
        in_tests: false,
        dedup_per_line: false,
        summary: "D1: no std HashMap/HashSet in sim-path crates — iteration \
                  order feeds event order; use BTreeMap/BTreeSet or keyed vectors",
    },
    Rule {
        id: "wall-clock",
        severity: Severity::Error,
        scope: Scope::NonBench,
        in_tests: false,
        dedup_per_line: false,
        summary: "D2: no Instant::now/SystemTime::now outside crates/bench — \
                  virtual time only on the sim path",
    },
    Rule {
        id: "entropy-rng",
        severity: Severity::Error,
        scope: Scope::Everywhere,
        in_tests: true,
        dedup_per_line: false,
        summary: "D3: no entropy-seeded RNG (thread_rng, from_entropy, \
                  rand::random, OsRng) anywhere — all draws key off exec_seed-style seeds",
    },
    Rule {
        id: "partial-cmp-unwrap",
        severity: Severity::Error,
        scope: Scope::Everywhere,
        in_tests: true,
        dedup_per_line: false,
        summary: "D4: no partial_cmp(..).unwrap()/.expect(..) comparators — \
                  use f64::total_cmp, which is total and NaN-safe",
    },
    Rule {
        id: "env-read",
        severity: Severity::Error,
        scope: Scope::SimPath,
        in_tests: true,
        dedup_per_line: false,
        summary: "D5: no std::env::var / set_var in sim-path crates — \
                  environment must not influence simulated behaviour",
    },
    Rule {
        id: "thread-primitives",
        severity: Severity::Error,
        scope: Scope::ConcurrencyCore,
        in_tests: false,
        dedup_per_line: true,
        summary: "C1: no std::thread::spawn / std::sync::{Mutex,RwLock,..} in \
                  sim/model/core/pmf/dag/serve — threading is reserved for \
                  the fleet driver's deterministic merge layer via the \
                  vendored crossbeam",
    },
    Rule {
        id: "panic-unwrap",
        severity: Severity::Ratchet,
        scope: Scope::Everywhere,
        in_tests: false,
        dedup_per_line: false,
        summary: "C2: per-crate ratcheted .unwrap()/.expect() count in \
                  non-test code — typed SimError is the checkpoint/restore \
                  contract; committed baselines may only go down",
    },
    Rule {
        id: "panic-macro",
        severity: Severity::Ratchet,
        scope: Scope::Everywhere,
        in_tests: false,
        dedup_per_line: false,
        summary: "C2: per-crate ratcheted panic!/unreachable!/todo!/\
                  unimplemented! count in non-test code — a panic in the \
                  fleet kills determinism mid-epoch; prefer typed errors",
    },
    Rule {
        id: "slice-index",
        severity: Severity::Ratchet,
        scope: Scope::Everywhere,
        in_tests: false,
        dedup_per_line: true,
        summary: "C2: per-crate ratcheted slice/array indexing (`x[i]`) \
                  count in non-test code — an out-of-bounds index is an \
                  implicit panic; prefer .get()/.get_mut()",
    },
    Rule {
        id: "crate-layering",
        severity: Severity::Error,
        scope: Scope::Everywhere,
        in_tests: false,
        dedup_per_line: true,
        summary: "S1: every taskdrop_* dependency edge (Cargo.toml and \
                  source) must point strictly downward in the committed \
                  layering DAG (crates/lint/layering.json)",
    },
    Rule {
        id: "schema-drift",
        severity: Severity::Error,
        scope: Scope::Everywhere,
        in_tests: false,
        dedup_per_line: false,
        summary: "S2: serde types reachable from Checkpoint/ShardCheckpoint/\
                  DagCheckpoint must match the committed fingerprints \
                  (crates/lint/schema.json) or bump CHECKPOINT_VERSION",
    },
    Rule {
        id: "bare-allow",
        severity: Severity::Error,
        scope: Scope::Everywhere,
        in_tests: true,
        dedup_per_line: false,
        summary: "meta: every lint:allow pragma must name a known rule and \
                  carry a non-empty reason",
    },
];

/// Look a rule up by id.
#[must_use]
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of `word` in `masked` occurring as a whole identifier (no
/// identifier byte on either side; `::`-path context is fine).
fn find_word(masked: &str, word: &str) -> Vec<usize> {
    let bytes = masked.as_bytes();
    masked
        .match_indices(word)
        .filter(|&(i, _)| {
            let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
            let end = i + word.len();
            let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
            before_ok && after_ok
        })
        .map(|(i, _)| i)
        .collect()
}

/// A raw match: rule id, byte offset, message.
pub(crate) struct RawHit {
    pub rule: &'static str,
    pub offset: usize,
    pub message: String,
}

fn push_words(
    masked: &str,
    rule: &'static str,
    words: &[&str],
    msg: &dyn Fn(&str) -> String,
    out: &mut Vec<RawHit>,
) {
    for w in words {
        for offset in find_word(masked, w) {
            out.push(RawHit { rule, offset, message: msg(w) });
        }
    }
}

/// Run every pattern matcher over one masked source, unfiltered by scope or
/// pragmas (the engine filters).
pub(crate) fn match_all(masked: &str) -> Vec<RawHit> {
    let mut out = Vec::new();

    // D1 — unordered std collections.
    push_words(
        masked,
        "hash-collections",
        &["HashMap", "HashSet"],
        &|w| {
            format!(
                "`{w}` is banned on the sim path: its iteration order is \
                 seeded per-process and feeds event order; use `BTreeMap`/\
                 `BTreeSet` or a keyed vector"
            )
        },
        &mut out,
    );

    // D2 — wall-clock reads.
    push_words(
        masked,
        "wall-clock",
        &["Instant::now", "SystemTime::now"],
        &|w| {
            format!(
                "`{w}` reads the wall clock; outside `crates/bench` all time \
                 must be virtual (tick-driven) or results stop replaying"
            )
        },
        &mut out,
    );

    // D3 — entropy-seeded randomness.
    push_words(
        masked,
        "entropy-rng",
        &["thread_rng", "from_entropy", "rand::random", "OsRng", "getrandom"],
        &|w| {
            format!(
                "`{w}` draws from OS entropy; every random stream must be \
                 keyed off an explicit `exec_seed`-style seed (`derive_seed`)"
            )
        },
        &mut out,
    );

    // D4 — NaN-lossy comparators: `partial_cmp(…)` whose result is
    // immediately `.unwrap()`ed / `.expect()`ed.
    let bytes = masked.as_bytes();
    for start in find_word(masked, "partial_cmp") {
        let mut i = start + "partial_cmp".len();
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'(' {
            continue;
        }
        // Match the call's closing parenthesis (masked text: parens inside
        // strings/comments are already blanked).
        let mut depth = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        let mut j = i + 1;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j < bytes.len() && bytes[j] == b'.' {
            let rest = &masked[j + 1..];
            let rest_trim = rest.trim_start();
            let method: String =
                rest_trim.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
            if method == "unwrap" || method == "expect" {
                out.push(RawHit {
                    rule: "partial-cmp-unwrap",
                    offset: start,
                    message: "`partial_cmp(..).unwrap()` panics on NaN and \
                              makes the comparator partial; use \
                              `f64::total_cmp` (total, deterministic)"
                        .to_string(),
                });
            }
        }
    }

    // D5 — environment reads/writes on the sim path.
    push_words(
        masked,
        "env-read",
        &["env::var", "env::vars", "env::var_os", "env::set_var", "env::remove_var"],
        &|w| {
            format!(
                "`{w}` lets the process environment influence sim-path \
                 behaviour; configuration must flow through typed config \
                 structs so runs replay anywhere"
            )
        },
        &mut out,
    );

    // C1 — ad-hoc std threading primitives in the simulation core.
    push_words(
        masked,
        "thread-primitives",
        &[
            "std::thread",
            "thread::spawn",
            "std::sync::Mutex",
            "std::sync::RwLock",
            "std::sync::Condvar",
            "std::sync::Barrier",
        ],
        &|w| {
            format!(
                "`{w}` in the simulation core: threading belongs to the \
                 driver's deterministic epoch-merge layer (vendored \
                 crossbeam + parking_lot), not ad-hoc std primitives"
            )
        },
        &mut out,
    );
    // Grouped imports: `use std::sync::{Mutex, …};`
    for start in masked.match_indices("use std::sync::{").map(|(i, _)| i) {
        let stmt_end = masked[start..].find(';').map_or(masked.len(), |e| start + e);
        let stmt = &masked[start..stmt_end];
        for prim in ["Mutex", "RwLock", "Condvar", "Barrier"] {
            if find_word(stmt, prim).is_empty() {
                continue;
            }
            out.push(RawHit {
                rule: "thread-primitives",
                offset: start,
                message: format!(
                    "`std::sync::{prim}` (grouped import) in the simulation \
                     core: threading belongs to the driver's deterministic \
                     merge layer, not ad-hoc std primitives"
                ),
            });
        }
    }

    // C2a — `.unwrap()` / `.expect(` method calls (per-crate ratchet).
    for w in ["unwrap", "expect"] {
        for start in find_word(masked, w) {
            // Must be a method call: a `.` before (whitespace allowed, for
            // rustfmt's chain breaks) and a `(` directly after.
            let after = start + w.len();
            if after >= bytes.len() || bytes[after] != b'(' {
                continue;
            }
            let mut k = start;
            while k > 0 && bytes[k - 1].is_ascii_whitespace() {
                k -= 1;
            }
            if k == 0 || bytes[k - 1] != b'.' {
                continue;
            }
            out.push(RawHit {
                rule: "panic-unwrap",
                offset: start,
                message: format!(
                    "`.{w}()` in non-test code; prefer a typed error \
                     (ratcheted per crate: the committed count may only \
                     decrease)"
                ),
            });
        }
    }

    // C2b — panic-family macros (per-crate ratchet).
    for w in ["panic", "unreachable", "todo", "unimplemented"] {
        for start in find_word(masked, w) {
            let after = start + w.len();
            if after >= bytes.len() || bytes[after] != b'!' {
                continue;
            }
            out.push(RawHit {
                rule: "panic-macro",
                offset: start,
                message: format!(
                    "`{w}!` in non-test code; a panic mid-epoch breaks the \
                     fleet's deterministic merge — prefer a typed error \
                     (ratcheted per crate)"
                ),
            });
        }
    }

    // C2c — slice/array indexing (per-crate ratchet): a `[` whose previous
    // non-whitespace byte ends an expression (identifier, `)` or `]`) is an
    // index, unless that identifier is a keyword (`let [a, b] = ..`,
    // `match x { .. }` arms, `return [..]`, etc.).
    const NON_INDEX_KEYWORDS: &[&str] = &[
        "let", "mut", "ref", "in", "if", "else", "match", "return", "as", "box", "move", "dyn",
        "impl", "where", "break", "continue", "loop", "while", "for", "unsafe", "async", "const",
        "static", "struct", "enum", "union", "type", "fn", "use", "pub", "mod", "trait", "await",
        "yield",
    ];
    for (i, _) in masked.match_indices('[') {
        let mut k = i;
        while k > 0 && bytes[k - 1].is_ascii_whitespace() {
            k -= 1;
        }
        if k == 0 {
            continue;
        }
        let prev = bytes[k - 1];
        let expr_end = prev == b')' || prev == b']' || is_ident_byte(prev);
        if !expr_end {
            continue;
        }
        if is_ident_byte(prev) {
            let mut s = k - 1;
            while s > 0 && is_ident_byte(bytes[s - 1]) {
                s -= 1;
            }
            let word = &masked[s..k];
            if NON_INDEX_KEYWORDS.contains(&word) {
                continue;
            }
        }
        out.push(RawHit {
            rule: "slice-index",
            offset: i,
            message: "slice/array indexing panics out of bounds; prefer \
                      `.get()`/`.get_mut()` with a typed error (ratcheted \
                      per crate)"
                .to_string(),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(src: &str, rule: &str) -> usize {
        let scanned = crate::lexer::scan(src);
        match_all(&scanned.masked).iter().filter(|h| h.rule == rule).count()
    }

    #[test]
    fn word_boundaries_respected() {
        assert_eq!(hits("let m: HashMap<u8, u8>;", "hash-collections"), 1);
        assert_eq!(hits("let m: FxHashMap<u8, u8>;", "hash-collections"), 0);
        assert_eq!(hits("let m = HashMapLike::new();", "hash-collections"), 0);
        assert_eq!(hits("use std::collections::HashSet;", "hash-collections"), 1);
    }

    #[test]
    fn partial_cmp_needs_immediate_unwrap() {
        assert_eq!(hits("a.partial_cmp(&b).unwrap()", "partial-cmp-unwrap"), 1);
        assert_eq!(hits("a.partial_cmp(&b).expect(\"finite\")", "partial-cmp-unwrap"), 1);
        assert_eq!(hits("a.partial_cmp(&b).unwrap_or(Ordering::Equal)", "partial-cmp-unwrap"), 0);
        assert_eq!(hits("a.partial_cmp(&b)", "partial-cmp-unwrap"), 0);
        assert_eq!(hits("a.total_cmp(&b)", "partial-cmp-unwrap"), 0);
        // Nested parens inside the call, then a chain break.
        assert_eq!(hits("key(a).partial_cmp(&key(b))\n    .unwrap()", "partial-cmp-unwrap"), 1);
    }

    #[test]
    fn env_read_exact_idents() {
        assert_eq!(hits("std::env::var(\"X\")", "env-read"), 1);
        assert_eq!(hits("std::env::args()", "env-read"), 0);
        assert_eq!(hits("env::set_var(\"X\", \"1\")", "env-read"), 1);
        assert_eq!(hits("std::env::var_os(\"X\")", "env-read"), 1);
    }

    #[test]
    fn thread_primitives_spare_parking_lot_and_crossbeam() {
        assert_eq!(hits("use parking_lot::Mutex;", "thread-primitives"), 0);
        assert_eq!(hits("crossbeam::thread::scope(|s| s.spawn(|_| {}));", "thread-primitives"), 0);
        assert!(hits("use std::sync::Mutex;", "thread-primitives") >= 1);
        assert!(hits("use std::sync::{Arc, Mutex};", "thread-primitives") >= 1);
        assert_eq!(hits("use std::sync::{Arc, atomic::AtomicU64};", "thread-primitives"), 0);
        assert!(hits("std::thread::spawn(|| {});", "thread-primitives") >= 1);
    }

    #[test]
    fn unwrap_must_be_a_method_call() {
        assert_eq!(hits("x.unwrap()", "panic-unwrap"), 1);
        assert_eq!(hits("x.expect(\"msg\")", "panic-unwrap"), 1);
        assert_eq!(hits("x\n    .unwrap()", "panic-unwrap"), 1);
        assert_eq!(hits("x.unwrap_or(0)", "panic-unwrap"), 0);
        assert_eq!(hits("fn unwrap() {}", "panic-unwrap"), 0);
        assert_eq!(hits("Self::unwrap(x)", "panic-unwrap"), 0);
    }

    #[test]
    fn panic_macros_need_the_bang() {
        assert_eq!(hits("panic!(\"boom\")", "panic-macro"), 1);
        assert_eq!(hits("unreachable!()", "panic-macro"), 1);
        assert_eq!(hits("todo!()", "panic-macro"), 1);
        assert_eq!(hits("unimplemented!()", "panic-macro"), 1);
        assert_eq!(hits("core::panic!(\"boom\")", "panic-macro"), 1);
        assert_eq!(hits("fn panic() {}", "panic-macro"), 0);
        assert_eq!(hits("self.panic_count += 1;", "panic-macro"), 0);
        assert_eq!(hits("assert_eq!(a, b)", "panic-macro"), 0);
    }

    #[test]
    fn slice_index_heuristics() {
        assert_eq!(hits("let x = v[0];", "slice-index"), 1);
        assert_eq!(hits("let x = arr[i][j];", "slice-index"), 2);
        assert_eq!(hits("let x = f()[0];", "slice-index"), 1);
        assert_eq!(hits("let x = v[1..n];", "slice-index"), 1);
        // Patterns, types and literals are not indexing.
        assert_eq!(hits("let [a, b] = pair;", "slice-index"), 0);
        assert_eq!(hits("fn f(x: [u8; 2]) -> [u8; 2] { x }", "slice-index"), 0);
        assert_eq!(hits("let v = vec![1, 2];", "slice-index"), 0);
        assert_eq!(hits("let a = [0u8; 4];", "slice-index"), 0);
        assert_eq!(hits("fn g(s: &[u8]) {}", "slice-index"), 0);
        assert_eq!(hits("#[derive(Debug)]\nstruct S;", "slice-index"), 0);
        assert_eq!(hits("for [a, b] in pairs {}", "slice-index"), 0);
    }

    #[test]
    fn masked_regions_do_not_fire() {
        assert_eq!(hits("// HashMap in a comment\nlet x = 1;", "hash-collections"), 0);
        assert_eq!(hits("let s = \"thread_rng\";", "entropy-rng"), 0);
        assert_eq!(hits("/* Instant::now */ let x = 1;", "wall-clock"), 0);
    }

    #[test]
    fn entropy_rng_patterns() {
        assert_eq!(hits("let mut r = rand::thread_rng();", "entropy-rng"), 1);
        assert_eq!(hits("let r = SmallRng::from_entropy();", "entropy-rng"), 1);
        assert_eq!(hits("let x: f64 = rand::random();", "entropy-rng"), 1);
        assert_eq!(hits("let r = new_rng(derive_seed(seed, 3));", "entropy-rng"), 0);
    }
}
