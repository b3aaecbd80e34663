//! Criterion microbenchmarks of the simulator itself: core stepping
//! throughput, cache access, SPL scheduling, and assembler speed.

use criterion::{criterion_group, criterion_main, Criterion};
use remap::{CoreKind, SystemBuilder};
use remap_isa::{Asm, Reg::*};
use remap_mem::{Cache, CacheConfig, FlatMem, Hierarchy, HierarchyConfig, Mesi, PC_NONE};
use remap_spl::{Dest, Spl, SplConfig, SplFunction};
use std::hint::black_box;

fn loop_program(n: i32) -> remap_isa::Program {
    let mut a = Asm::new("bench");
    a.li(R1, 0);
    a.li(R2, n);
    a.label("loop");
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().unwrap()
}

fn bench_core_step(c: &mut Criterion) {
    c.bench_function("core_10k_cycles", |b| {
        b.iter(|| {
            let mut sys = SystemBuilder::new();
            sys.add_core(CoreKind::Ooo1, loop_program(2000));
            let mut sys = sys.build();
            black_box(sys.run(1_000_000).unwrap().cycles)
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("hierarchy_10k_loads", |b| {
        b.iter(|| {
            let mut h = Hierarchy::new(2, HierarchyConfig::default());
            let mut total = 0u64;
            for i in 0..10_000u64 {
                let (_, lat) = h.load(((i / 64) % 2) as usize, (i * 12) % 65536, 4, PC_NONE, total);
                total += lat as u64;
            }
            black_box(total)
        })
    });
}

/// The MSHR bookkeeping under the two extreme miss shapes: a pointer
/// chase (every miss untracked, no prefetch ever fires, file churns at
/// demand rate) versus a stream (stride prefetches run ahead and demands
/// merge into them). The gap is the cost/benefit of the file scans.
fn bench_mshr_churn(c: &mut Criterion) {
    c.bench_function("mshr_churn_chase_4k", |b| {
        b.iter(|| {
            let mut h = Hierarchy::new(1, HierarchyConfig::default());
            let mut t = 0u64;
            let mut seed = 7u64;
            for _ in 0..4096 {
                let addr = (splitmix64(&mut seed) % (8 << 20)) & !7;
                let (_, lat) = h.load(0, addr, 4, 3, t);
                t += lat as u64;
            }
            black_box(t)
        })
    });
    c.bench_function("mshr_churn_stream_4k", |b| {
        b.iter(|| {
            let mut h = Hierarchy::new(1, HierarchyConfig::default());
            let mut t = 0u64;
            for i in 0..4096u64 {
                let (_, lat) = h.load(0, i * 8, 4, 3, t);
                t += lat as u64;
            }
            black_box(t)
        })
    });
}

/// Stride-prefetcher hot path: a dense line-stride miss stream where every
/// full miss trains the RPT and issues a prefetch burst.
fn bench_prefetch_stride(c: &mut Criterion) {
    c.bench_function("prefetch_stride_4k_lines", |b| {
        b.iter(|| {
            let mut h = Hierarchy::new(1, HierarchyConfig::default());
            let mut t = 0u64;
            for i in 0..4096u64 {
                let (_, lat) = h.load(0, i * 32, 4, 5, t);
                t += lat as u64;
            }
            black_box((t, h.mlp_stats().prefetch_issued))
        })
    });
}

/// Deterministic 64-bit mixer for the random-access pattern (no rand
/// dependency; same generator the proptest stub uses).
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The word-granular FlatMem fast path under the three access shapes the
/// simulator produces: sequential (fetch/streaming), strided (struct
/// fields), and random (pointer chasing). All stay within a 1 MiB
/// working set so the 8-slot MRU page cache is the variable under test.
fn bench_flatmem(c: &mut Criterion) {
    const WORDS: u64 = 64 * 1024; // 256 KiB touched per pass
    let mut mem = FlatMem::new();
    for i in 0..WORDS {
        mem.write_u32(i * 4, i as u32);
    }
    c.bench_function("flatmem_seq_64k_words", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..WORDS {
                acc = acc.wrapping_add(mem.read_u32(black_box(i * 4)) as u64);
            }
            black_box(acc)
        })
    });
    c.bench_function("flatmem_strided_64k_words", |b| {
        b.iter(|| {
            // A 68-byte stride: co-prime with the 4 KiB page so successive
            // accesses walk pages slowly but misalign with word boundaries
            // never (68 = 17 words).
            let mut acc = 0u64;
            let mut addr = 0u64;
            for _ in 0..WORDS {
                acc = acc.wrapping_add(mem.read_u32(black_box(addr)) as u64);
                addr = (addr + 68) % (WORDS * 4);
            }
            black_box(acc)
        })
    });
    c.bench_function("flatmem_random_64k_words", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            let mut state = 0x1234_5678u64;
            for _ in 0..WORDS {
                let addr = (splitmix64(&mut state) % WORDS) * 4;
                acc = acc.wrapping_add(mem.read_u32(black_box(addr)) as u64);
            }
            black_box(acc)
        })
    });
}

/// The Cache tag array under two regimes: hit-heavy (every access after
/// warm-up finds its line in the set scan) and conflict-heavy (constant
/// misses and LRU evictions).
fn bench_cache_tag_array(c: &mut Criterion) {
    c.bench_function("cache_hit_heavy_64k", |b| {
        let mut cache = Cache::new(CacheConfig::l1());
        // Working set of half the cache: every access after warm-up hits.
        for line in 0..128u64 {
            cache.insert(line * 32, Mesi::Exclusive);
        }
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..64 * 1024u64 {
                if cache.access(black_box((i % 128) * 32)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    c.bench_function("cache_conflict_heavy_64k", |b| {
        let mut cache = Cache::new(CacheConfig::l1());
        let sets = CacheConfig::l1().sets() as u64;
        b.iter(|| {
            // Four distinct tags cycling through a 2-way set: every access
            // misses and inserts over the LRU victim.
            let mut evictions = 0u64;
            for i in 0..64 * 1024u64 {
                let addr = (i % 4) * sets * 32;
                if cache.access(black_box(addr)).is_none()
                    && cache.insert(addr, Mesi::Exclusive).is_some()
                {
                    evictions += 1;
                }
            }
            black_box(evictions)
        })
    });
}

fn bench_spl(c: &mut Criterion) {
    c.bench_function("spl_1k_ops", |b| {
        b.iter(|| {
            let mut spl = Spl::new(SplConfig::paper(4));
            spl.register(
                1,
                SplFunction::compute("f", 8, Dest::SelfCore, |e| e.u32(0) as u64),
            );
            let mut done = 0u64;
            let mut t = 0u64;
            let mut issued = 0u64;
            while done < 1000 {
                t += 1;
                let core = (t % 4) as usize;
                if issued < 1000 && spl.input_pending(core) < 4 {
                    spl.stage(core, 0, 4, t);
                    if spl.request(core, 1, core).is_ok() {
                        issued += 1;
                    }
                }
                spl.tick(t);
                for c0 in 0..4 {
                    if spl.pop_output(c0).is_some() {
                        done += 1;
                    }
                }
            }
            black_box(t)
        })
    });
}

fn bench_assembler(c: &mut Criterion) {
    c.bench_function("assemble_1k_insts", |b| {
        b.iter(|| {
            let mut a = Asm::new("big");
            for i in 0..250 {
                a.label(format!("l{i}"));
                a.addi(R1, R1, 1);
                a.lw(R2, R3, i);
                a.bne(R1, R2, format!("l{i}"));
                a.nop();
            }
            a.halt();
            black_box(a.assemble().unwrap().len())
        })
    });
}

/// A kernel that keeps the SPL fed: exercises the reused fetch-group
/// scratch in `Core::fetch` and the reused event buffer in
/// `SplFabric::tick_into` on every simulated cycle.
fn spl_feed_program(n: i32) -> remap_isa::Program {
    let mut a = Asm::new("feed");
    a.li(R1, 0);
    a.li(R2, n);
    a.li(R30, 0);
    a.li(R31, 6.min(n));
    a.label("pro");
    a.spl_load(R30, 0, 4);
    a.spl_init(1);
    a.addi(R30, R30, 1);
    a.blt(R30, R31, "pro");
    a.label("main");
    a.spl_store(R7);
    a.addi(R1, R1, 1);
    a.bge(R30, R2, "nofeed");
    a.spl_load(R30, 0, 4);
    a.spl_init(1);
    a.addi(R30, R30, 1);
    a.label("nofeed");
    a.blt(R1, R2, "main");
    a.halt();
    a.assemble().unwrap()
}

/// End-to-end simulator throughput on the allocation-free steady-state
/// path: reports via the Criterion timing how many host-ns one simulated
/// SPL-active run costs (`RunReport::sim_kcps` gives the same number as
/// kilocycles per second).
fn bench_sim_throughput(c: &mut Criterion) {
    c.bench_function("system_spl_steady_state_run", |b| {
        b.iter(|| {
            let mut sb = SystemBuilder::new();
            sb.add_core(CoreKind::Ooo1, spl_feed_program(512));
            sb.add_spl_cluster(SplConfig::paper(1), vec![0]);
            sb.register_spl(
                1,
                SplFunction::compute("f", 8, Dest::SelfCore, |e| e.u32(0) as u64),
            );
            let mut sys = sb.build();
            let r = sys.run(10_000_000).unwrap();
            black_box(r.sim_kcps());
            black_box(r.cycles)
        })
    });
    c.bench_function("system_core_only_run", |b| {
        b.iter(|| {
            let mut sb = SystemBuilder::new();
            sb.add_core(CoreKind::Ooo1, loop_program(4000));
            let mut sys = sb.build();
            black_box(sys.run(1_000_000).unwrap().cycles)
        })
    });
}

/// The drained-into-caller-buffer SPL tick path in isolation: 100k idle
/// and busy ticks against one reused event vector.
fn bench_spl_tick_into(c: &mut Criterion) {
    c.bench_function("spl_tick_into_100k", |b| {
        b.iter(|| {
            let mut spl = Spl::new(SplConfig::paper(4));
            spl.register(
                1,
                SplFunction::compute("f", 8, Dest::SelfCore, |e| e.u32(0) as u64),
            );
            let mut events = Vec::new();
            let mut popped = 0u64;
            for t in 0..100_000u64 {
                let core = (t % 4) as usize;
                if spl.input_pending(core) < 4 {
                    spl.stage(core, 0, 4, t);
                    let _ = spl.request(core, 1, core);
                }
                events.clear();
                spl.tick_into(t, &mut events);
                for c0 in 0..4 {
                    if spl.pop_output(c0).is_some() {
                        popped += 1;
                    }
                }
            }
            black_box(popped)
        })
    });
}

/// The sweep marshaller on a skewed workload: eight configs, one 16×
/// straggler, two best-of-N reps each. Sleep-based costs so the skew — and
/// therefore the marshalling comparison — is independent of host core
/// count (CI runners may expose a single CPU).
///
/// * `sweep_stream_e2e_skewed`: end-to-end wall time. The engine splits
///   `(config, rep)` granules across workers, so the straggler's reps
///   run in parallel.
/// * `sweep_stream_ttfr`: time to first result. The consumer gets item 0
///   the moment its reps finish (the 1-item window keeps workers off later
///   items so teardown is instant).
fn bench_sweep_marshaller(c: &mut Criterion) {
    use remap_bench::sweep::{stream, SweepOpts};
    use std::ops::ControlFlow;
    use std::time::Duration;

    const JOBS: usize = 2;
    const REPS: usize = 2;
    let items: Vec<usize> = (0..8).collect();
    let rep_cost = |i: usize| {
        if i == 3 {
            Duration::from_millis(8)
        } else {
            Duration::from_micros(500)
        }
    };

    c.bench_function("sweep_stream_e2e_skewed", |b| {
        b.iter(|| {
            let mut n = 0usize;
            stream(
                SweepOpts::new(JOBS).reps(REPS),
                &items,
                |i, _, _| {
                    std::thread::sleep(rep_cost(i));
                    i
                },
                |_, batch| {
                    n += batch.len();
                    ControlFlow::Continue(())
                },
            );
            black_box(n)
        })
    });
    c.bench_function("sweep_stream_ttfr", |b| {
        b.iter(|| {
            let mut first = None;
            stream(
                SweepOpts::new(JOBS).reps(REPS).window(1),
                &items,
                |i, _, _| {
                    std::thread::sleep(rep_cost(i));
                    i
                },
                |_, batch| {
                    first = Some(batch[0]);
                    ControlFlow::Break(())
                },
            );
            black_box(first)
        })
    });
}

/// Snapshot I/O in memory: `snapshot()` → `Snapshot::from_bytes` (frame
/// checks) → `restore` of a halted 16-core LL2 Barrier-p16 grid, whose
/// 1 MB private L2s hold few resident lines.
fn bench_snapshot_round_trip(c: &mut Criterion) {
    use remap::Snapshot;
    use remap_workloads::barriers::{BarrierBench, BarrierMode};

    let build = || BarrierBench::Ll2.build(BarrierMode::Remap(16), 512);
    let mut halted = build();
    halted.run(50_000_000).unwrap();
    let mut target = build();
    c.bench_function("snapshot_round_trip_grid16", |b| {
        b.iter(|| {
            let snap = halted.snapshot();
            let back = Snapshot::from_bytes(snap.as_bytes().to_vec()).unwrap();
            target.restore(&back).unwrap();
            black_box(target.cycle())
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(10);
    targets = bench_core_step, bench_cache, bench_mshr_churn, bench_prefetch_stride,
        bench_flatmem, bench_cache_tag_array, bench_spl, bench_assembler,
        bench_sim_throughput, bench_spl_tick_into, bench_sweep_marshaller,
        bench_snapshot_round_trip
);
criterion_main!(micro);
