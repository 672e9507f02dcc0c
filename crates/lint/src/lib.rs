//! `taskdrop_lint` — the workspace's determinism & concurrency-readiness
//! static-analysis pass.
//!
//! Every claim this reproduction makes — the paper's robustness numbers,
//! the fused-evaluator perf wins, checkpoint kill/restore — rests on
//! bit-identical determinism, and the threaded serving fleet
//! (`FleetDriver`) raises the stakes: one stray `HashMap` iteration or
//! entropy-seeded RNG silently breaks the "byte-identical at any thread
//! count" invariant that the differential suites can only catch after
//! the fact. This crate is the layer that *prevents* those hazards from
//! entering the tree.
//!
//! It is deliberately humble machinery, layered: a hand-rolled comment/
//! string/raw-string-aware scanner ([`lexer`]) masks every non-code byte;
//! a token-tree pass ([`ttree`]) recovers the balanced `{}/()/[]`
//! delimiter structure of the masked text; an item segmenter ([`items`])
//! turns that into `use`/`fn`/`struct`/`impl`/`mod` items with attribute,
//! `#[cfg(test)]`, `#[derive(...)]` and `macro_rules!`-body awareness.
//! On top, the rule engine ([`engine`]) runs the catalogued pattern rules
//! ([`rules`]) with per-crate scoping, plus two structural passes: the
//! crate-layering DAG ([`layering`]) and checkpoint-schema fingerprinting
//! ([`schema`]). A `// lint:allow(<rule>): <reason>` pragma grants
//! scoped, *explained* exemptions (a bare allow is itself a violation),
//! and count-gated rules compare per crate against a committed
//! [`ratchet`] baseline that may only go down.
//!
//! `cargo run -p taskdrop_lint` is the CI entry point; see DESIGN.md §14
//! and §17 for the rule catalogue and the policy behind it.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod diag;
pub mod engine;
pub mod items;
pub mod layering;
pub mod lexer;
pub mod ratchet;
pub mod rules;
pub mod schema;
pub mod ttree;

pub use diag::{Finding, FindingJson, Severity};
pub use engine::{
    check_source, check_source_in, classify, run_workspace, FileClass, FileReport, Report, Section,
};
pub use items::{segment, Item, ItemIndex, ItemKind};
pub use layering::{LayerEntry, LayeringSpec, ManifestEdge};
pub use lexer::{scan, LineComment, Scanned};
pub use ratchet::{Ratchet, RatchetEntry, RatchetStatus};
pub use rules::{rule, Rule, Scope, RULES};
pub use schema::{SchemaSnapshot, TypeFingerprint, SCHEMA_PATH, SCHEMA_ROOTS};
pub use ttree::{Delim, Pair, TokenTree};
