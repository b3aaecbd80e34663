//! The streaming marshaller must be invisible in the results: any pool
//! shape (jobs × window × reps) yields exactly the serial loop's values in
//! exactly its order.

use remap_bench::sweep::{stream, SweepOpts};
use std::ops::ControlFlow;

/// A cheap but order-sensitive workload: index-dependent arithmetic with
/// an index-dependent spin so completion order scrambles under stealing.
fn work(i: usize, x: u64) -> u64 {
    let mut h = x.wrapping_mul(0x9E3779B97F4A7C15) ^ (i as u64);
    for _ in 0..((i * 37) % 300) {
        h = h.rotate_left(13).wrapping_mul(31).wrapping_add(7);
    }
    h
}

/// The serial reference: `work` over `items` in order on this thread.
fn serial(items: &[u64]) -> Vec<u64> {
    items.iter().enumerate().map(|(i, &x)| work(i, x)).collect()
}

#[test]
fn stream_matches_serial_reference_across_pool_shapes() {
    let items: Vec<u64> = (0..131).map(|i| i * 17 + 3).collect();
    let reference = serial(&items);
    for jobs in [1, 2, 3, 8] {
        for window in [1, 2, 7, 64, 1000] {
            let mut streamed = Vec::with_capacity(items.len());
            let n = stream(
                SweepOpts::new(jobs).window(window),
                &items,
                |i, &x, _| work(i, x),
                |_, mut b| {
                    streamed.push(b.pop().unwrap());
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(n, items.len(), "jobs={jobs} window={window}");
            assert_eq!(streamed, reference, "jobs={jobs} window={window}");
        }
    }
}

#[test]
fn rep_split_merges_to_the_single_rep_result() {
    let items: Vec<u64> = (0..53).collect();
    let reference = serial(&items);
    for reps in [2, 3, 5] {
        let mut merged = Vec::with_capacity(items.len());
        stream(
            SweepOpts::new(4).reps(reps).window(3),
            &items,
            |i, &x, _rep| work(i, x),
            |_, batch| {
                assert_eq!(batch.len(), reps);
                assert!(
                    batch.windows(2).all(|w| w[0] == w[1]),
                    "deterministic work must agree across reps"
                );
                merged.push(batch[0]);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(merged, reference, "reps={reps}");
    }
}
