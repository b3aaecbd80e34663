//! remap-verify: static analysis of ReMAP programs and SPL configurations.
//!
//! The verifier builds a control-flow graph per program (branch targets are
//! instruction indices, so leaders fall out of one scan), runs classic
//! forward dataflow over it (reaching-definition/liveness-style may- and
//! must-initialization, plus abstract tracking of staged SPL entry bytes),
//! and checks cross-thread protocol structure over a whole [`Bundle`]:
//! queue pairing, barrier participant totals, destination routing, fabric
//! geometry, and wait cycles in the thread communication graph.
//!
//! On top of the per-program dataflow sits a whole-system message-flow
//! model ([`flow`]): a counting abstract interpreter summarizes how many
//! times each thread can send/receive on every hardware queue, arrive at
//! every barrier, and initiate/drain SPL work, and the inter-core lints
//! ([`interlock`], RV015–RV022) compare those interval summaries across
//! threads for guaranteed underflow/overflow, barrier divergence,
//! communication deadlock, and SPL write-write races.
//!
//! Findings come back as [`Diagnostic`]s with stable `RVnnn` codes
//! (documented in `DESIGN.md`) anchored to a program name and instruction
//! index where applicable.

pub mod bundle;
pub mod cfg;
pub mod diag;
pub mod flow;
pub mod interlock;
pub mod program;

pub use bundle::{verify_bundle, virtualization_ii, Bundle, ClusterSpec, ThreadSpec};
pub use cfg::{Block, Cfg};
pub use diag::{render, Code, Diagnostic, Severity};
pub use flow::{summarize, Bound, Count, EventKind, FlowSummary};
pub use program::{verify_program, ProgramContext};
