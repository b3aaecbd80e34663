//! # remap-workloads
//!
//! The benchmark kernels of Table III, hand-parallelized for every mode the
//! paper evaluates (as the authors did — §IV-B):
//!
//! * **Computation-only** (`comp`): g721 encode/decode `fmult`, mpeg2dec
//!   chroma conversion, mpeg2enc `dist1`, gsmtoast weighting filter,
//!   gsmuntoast short-term synthesis filter, libquantum `toffoli`/`cnot` —
//!   each as a sequential OOO1/OOO2 kernel and a 1-thread+SPL kernel
//!   (Figure 1(a)).
//! * **Communication+computation** (`comm`): wc, unepic, cjpeg, adpcm,
//!   twolf `new_dbox_a`, hmmer `P7Viterbi` (exactly the Figure 5 loop),
//!   astar `makebound2` — each in sequential, 1Th+Comp, 2Th+Comm,
//!   2Th+CompComm, OOO2+Comm (idealized hardware queues) and
//!   software-queue modes (Figures 1(b), 5, 10, 11).
//! * **Barrier synchronization** (`barriers`): Livermore Loops 2, 3, 6 and
//!   Dijkstra's shortest-path algorithm, in sequential, software-barrier,
//!   ReMAP-barrier, ReMAP barrier+computation, and ideal-hardware-barrier
//!   modes, parameterized by problem size and thread count (Figures 7,
//!   12–14).
//!
//! Every kernel carries a host-Rust *oracle*: after a simulated run, the
//! workload checks the simulated memory/registers against the oracle, so
//! performance results are only reported for functionally correct runs.

pub mod barriers;
pub mod catalog;
pub mod comm;
mod comm_progs;
pub mod comp;
mod framework;
mod pipeline;

pub use catalog::Workload;
pub use framework::{
    measure_checked, run_checked, sw_barrier, CommMode, CompMode, Measurement, ADDR_IN, ADDR_OUT,
    ADDR_SHARED,
};
