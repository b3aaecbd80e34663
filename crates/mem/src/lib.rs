//! # remap-mem
//!
//! The memory hierarchy of the ReMAP reproduction: per-core L1 instruction
//! and data caches, private L2 caches, a snooping bus implementing MESI
//! coherence, and a flat DRAM backing store.
//!
//! Parameters follow Table II of the paper: 8 kB 2-way L1s with 2-cycle
//! access, 1 MB private L2 with 10-cycle access, MESI coherence, and 100 ns
//! main memory (200 cycles at the 2 GHz core clock).
//!
//! The hierarchy is *timing-directed, functionally flat*: caches track tags,
//! MESI states and LRU for timing and power accounting, while data always
//! lives in the shared [`FlatMem`]. This is a standard simulator structure
//! (SESC does the same for most of its models) and keeps functional
//! correctness independent of timing bugs.
//!
//! Misses are *non-blocking* by default: per-core MSHR files overlap and
//! merge outstanding fills, stride/next-line prefetchers run ahead of
//! regular miss streams, and a per-cluster memory controller bounds
//! in-flight DRAM requests (see DESIGN.md §15). All of that is timing-only
//! state; [`Hierarchy::set_mlp`]`(false)` restores the blocking latency
//! model exactly.
//!
//! Full misses route through a banked sharer [`Directory`] by default, so
//! only actual sharers are probed instead of every core, with inter-cluster
//! grid-hop charges beyond 16 cores (see DESIGN.md §17).
//! [`Hierarchy::set_dir`]`(false)` restores the broadcast snoop walk.
//!
//! ```
//! use remap_mem::{Hierarchy, HierarchyConfig, PC_NONE};
//!
//! let mut h = Hierarchy::new(2, HierarchyConfig::default());
//! let lat_miss = h.store(0, 0x100, 4, 42, 0);
//! let (v, lat_hit) = h.load(0, 0x100, 4, PC_NONE, lat_miss as u64);
//! assert_eq!(v, 42);
//! assert!(lat_hit < lat_miss, "second access hits in the L1");
//! // A load by the other core snoops the modified line out of core 0.
//! let (v1, _) = h.load(1, 0x100, 4, PC_NONE, (lat_miss + lat_hit) as u64);
//! assert_eq!(v1, 42);
//! ```

mod cache;
mod directory;
mod flat;
mod hierarchy;
mod memctl;
mod mshr;
mod prefetch;

pub use cache::{Cache, CacheConfig, CacheStats, Mesi};
pub use directory::{DirStats, Directory, DIR_BANKS, DIR_BANK_BUSY, DIR_PORTS, GRID_HOP_LATENCY};
pub use flat::FlatMem;
pub use hierarchy::{
    BusStats, CacheFault, Hierarchy, HierarchyConfig, MlpConfig, MlpStats, MC_CLUSTER_CORES,
    PC_NONE,
};
pub use memctl::MemCtl;
pub use mshr::MshrFile;
pub use prefetch::StrideRpt;
