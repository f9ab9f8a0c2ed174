#![forbid(unsafe_code)]
//! # fe-audit — workspace determinism/bit-exactness linter
//!
//! Every headline claim this repo makes — byte-identical
//! serial-vs-batch statistics, thread-count-invariant `SweepReport`
//! JSON, content-addressed cache hits that are provably safe to serve,
//! warmed structures one batch cell installs into another — rests on
//! determinism invariants. This crate turns those invariants from
//! tribal knowledge into a CI gate: a std-only static scanner
//! (comment/string-aware line tokenizer, no dependencies) that walks
//! the workspace and enforces the rule catalog in [`rules::RULES`].
//!
//! Violations are waived per site with a comment of the form
//!
//! ```text
//! // audit-allow(<rule>[, <rule>...]): <reason naming the invariant>
//! ```
//!
//! where the reason is mandatory and unused waivers are themselves
//! findings. The `fe-audit` binary prints a deterministic table,
//! writes machine-readable JSON (`BENCH_audit.json`), and exits
//! nonzero on any unwaivered finding — see the README's "Static
//! guarantees" section for the workflow.

pub mod report;
pub mod rules;
pub mod scan;
pub mod tokenize;

pub use report::{analyze, render_json, render_table, render_waiver_census, Analysis};
pub use rules::{check_file, Finding, RuleInfo, ENGINE_CRATES, RULES};
pub use scan::{find_workspace_root, lex_rel_path, lex_source, walk_workspace, SourceFile};
