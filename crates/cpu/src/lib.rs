//! # remap-cpu
//!
//! Cycle-level out-of-order core model reproducing Table II of the ReMAP
//! paper (MICRO 2010): the single-issue OOO1 and dual-issue OOO2 cores with
//! a gshare+bimodal hybrid branch predictor, BTB, return-address stack,
//! ROB-based renaming, split integer/FP issue queues, a post-commit store
//! buffer, and a decoupled, back-pressured interface to the SPL fabric and
//! the baseline communication devices. Issue selects from a ready mask:
//! three age-ordered `u64` bitmasks over the (at most 64-entry) ROB mark
//! the issue candidates, the memory-ordering entries and the executing
//! ones, so the per-cycle stages never walk the whole ROB.
//!
//! The core interacts with its environment exclusively through the
//! [`CorePorts`] trait, so the same model is reused for every system
//! configuration evaluated in the paper (ReMAP SPL clusters, OOO2+Comm,
//! homogeneous clusters with ideal barrier networks).
//!
//! ```
//! use remap_cpu::{Core, CoreConfig, NullPorts};
//! use remap_isa::{Asm, Reg::*};
//!
//! let mut a = Asm::new("demo");
//! a.li(R1, 20);
//! a.li(R2, 22);
//! a.add(R3, R1, R2);
//! a.halt();
//! let mut core = Core::new(0, CoreConfig::ooo1(), a.assemble()?);
//! let mut env = NullPorts::default();
//! while core.step(&mut env) {}
//! assert_eq!(core.reg(R3), 42);
//! # Ok::<(), remap_isa::AsmError>(())
//! ```

mod bpred;
mod config;
mod core;
mod ports;
mod stats;

pub use crate::core::{BlockedOn, Core, CODE_BASE};
pub use bpred::{PredStats, Prediction, Predictor};
pub use config::{CoreConfig, Latencies};
pub use ports::{CorePorts, NullPorts, PortPush};
pub use stats::{class_index, CoreStats};
