//! Table I: relative area and power of four single-issue OOO cores and the
//! four-way shared ReMAP fabric.

fn main() {
    remap_bench::figures::table1(remap_bench::runner::jobs());
}
