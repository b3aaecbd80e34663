//! Tracing from outside the simulator: fixed log-bucketed histograms for
//! per-call host times, and in-memory spans around the coarse calls into
//! each layer, written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Linear sub-buckets per power of two.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Covers values up to 2^40 ns (about 18 minutes).
const BUCKETS: usize = ((40 - SUB_BITS + 1) as usize + 1) * SUB as usize;

/// A fixed log2 histogram of nanosecond values with 16 linear sub-buckets
/// per power of two (at most 6% bucket width). Recording never allocates.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

/// Bucket index of `v`, and the bucket's `[lo, hi)` value range.
fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let idx = ((shift + 1) as u64 * SUB + ((v >> shift) & (SUB - 1))) as usize;
    idx.min(BUCKETS - 1)
}

fn bucket_range(idx: usize) -> (f64, f64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx as f64, idx as f64 + 1.0);
    }
    let shift = idx / SUB - 1;
    let lo = (SUB + idx % SUB) << shift;
    (lo as f64, (lo + (1 << shift)) as f64)
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0..=1), interpolated linearly inside its bucket;
    /// 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, hi) = bucket_range(i);
                let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
            seen += c;
        }
        unreachable!("rank never exceeds the total count")
    }
}

/// Per-call histograms of the traced simulate loop, one per kind of
/// `System::step_or_skip` call.
#[derive(Clone, Default)]
pub struct StepHists {
    /// Single-cycle steps off an SPL clock edge.
    pub step: Histogram,
    /// Single-cycle steps landing on an SPL clock edge, where SPL ticks,
    /// barrier releases and the bus drain run.
    pub edge: Histogram,
    /// Calls that bulk-advanced over a quiescent stretch, then stepped.
    pub skip: Histogram,
}

/// One coarse call into a layer.
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span (the op a call belongs to).
    pub parent: Option<usize>,
    pub pass: usize,
    pub label: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span log of a traced run.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a finished span that started at `start`; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        pass: usize,
        label: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            pass,
            label: label.to_string(),
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
        self.spans.len() - 1
    }

    /// Writes one JSON object per line: a header line, then every span.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"pass\":{},\"config\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.pass, s.label, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in [0, 1, 15, 16, 17, 31, 32, 100, 1000, 123_456, 1 << 39] {
            let (lo, hi) = bucket_range(bucket(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v} not in [{lo}, {hi})");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let mut h = Histogram::default();
        for v in 1..=1000 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((480.0..=520.0).contains(&p50), "p50 {p50}");
        assert!(h.quantile(0.99) > h.quantile(0.5));
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }
}
