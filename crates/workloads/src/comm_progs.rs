//! Assembly emitters for the communication workloads: sequential,
//! 1Th+Comp, producer/consumer (over any transport), and CompComm roles.
//!
//! Register conventions: `r1` = loop/drain index, `r2` = bound, `r3` = input
//! base, `r4` = output base, `r5`–`r9` temps, `r10`–`r19` kernel state,
//! `r20`–`r26` reserved by the software queue, `r30`/`r31` feed indices.

use crate::comm::{
    swq_prologue, swq_recv, swq_send, CommBench, Transport, COST_BASE, DELTA_BASE, HMMER_ILV,
    IDXT_BASE, LUT2_BASE, LUT_BASE, STEP_BASE, WAVE_BASE, XMB,
};
use crate::comm::{CFG_MAIN, CFG_PASS};
use crate::framework::{ADDR_IN, ADDR_OUT};
use remap_isa::{Asm, Program, Reg, Reg::*};

/// hmmer's −∞ floor as an i32 immediate.
const NEG_INFTY_I: i32 = -30000;

// --- transport helpers ----------------------------------------------------------

fn send(a: &mut Asm, t: Transport, val: Reg) {
    match t {
        Transport::SplPass => {
            a.spl_load(val, 0, 4);
            a.spl_init(CFG_PASS);
        }
        Transport::Hwq => a.hwq_send(val, 0),
        Transport::Swq => swq_send(a, val),
    }
}

fn recv(a: &mut Asm, t: Transport, dst: Reg) {
    match t {
        Transport::SplPass => a.spl_store(dst),
        Transport::Hwq => a.hwq_recv(dst, 0),
        Transport::Swq => swq_recv(a, dst),
    }
}

/// Emits `dst = max(dst, ra + rb)` using a branch (the paper's `if (sc =
/// ..) > mc` idiom). Clobbers `r9`.
fn emit_max_sum(a: &mut Asm, dst: Reg, ra: Reg, rb: Reg) {
    let skip = a.fresh_label("maxskip");
    a.add(R9, ra, rb);
    a.bge(dst, R9, skip.clone());
    a.mv(dst, R9);
    a.label(skip);
}

/// Emits `if (r < floor) r = floor`. Clobbers `r9`.
fn emit_floor(a: &mut Asm, r: Reg, floor: i32) {
    let skip = a.fresh_label("floorskip");
    a.li(R9, floor);
    a.bge(r, R9, skip.clone());
    a.mv(r, R9);
    a.label(skip);
}

/// Emits `r = clamp(r, lo, hi)` with branches. Clobbers `r9`.
fn emit_clamp(a: &mut Asm, r: Reg, lo: i32, hi: i32) {
    let l1 = a.fresh_label("cl_hi");
    let l2 = a.fresh_label("cl_lo");
    a.li(R9, hi);
    a.bge(R9, r, l1.clone());
    a.mv(r, R9);
    a.label(l1);
    a.li(R9, lo);
    a.bge(r, R9, l2.clone());
    a.mv(r, R9);
    a.label(l2);
}

/// Emits `r = |r - 512|` with a branch. Clobbers nothing else.
fn emit_abs_dev(a: &mut Asm, r: Reg) {
    let skip = a.fresh_label("absskip");
    a.addi(r, r, -512);
    a.bge(r, R0, skip.clone());
    a.sub(r, R0, r);
    a.label(skip);
}

// ===========================================================================
// dispatchers
// ===========================================================================

/// Sequential single-thread kernel.
pub(crate) fn seq(b: CommBench, n: usize) -> Program {
    match b {
        CommBench::Wc => wc_seq(n),
        CommBench::Unepic => unepic_seq(n),
        CommBench::Cjpeg => cjpeg_seq(n),
        CommBench::Adpcm => adpcm_seq(n),
        CommBench::Twolf => twolf_seq(n),
        CommBench::Hmmer => hmmer_seq(n),
        CommBench::Astar => astar_seq(n),
    }
}

/// Single thread using the SPL for computation (1Th+Comp).
pub(crate) fn comp1t(b: CommBench, n: usize) -> Program {
    match b {
        CommBench::Wc => wc_comp1t(n),
        CommBench::Unepic => unepic_comp1t(n),
        CommBench::Cjpeg => cjpeg_comp1t(n),
        CommBench::Adpcm => adpcm_comp1t(n),
        CommBench::Twolf => twolf_comp1t(n),
        CommBench::Hmmer => hmmer_comp1t(n),
        CommBench::Astar => astar_comp1t(n),
    }
}

/// Producer half of the communication-only split over transport `t`.
pub(crate) fn producer(b: CommBench, n: usize, t: Transport) -> Program {
    match b {
        CommBench::Wc => wc_producer(n, t),
        CommBench::Unepic => unepic_producer(n, t),
        CommBench::Cjpeg => cjpeg_producer(n, t),
        CommBench::Adpcm => adpcm_producer(n, t),
        CommBench::Twolf => twolf_producer(n, t),
        CommBench::Hmmer => hmmer_producer(n, t),
        CommBench::Astar => astar_producer(n, t),
    }
}

/// Consumer half of the communication-only split over transport `t`.
pub(crate) fn consumer(b: CommBench, n: usize, t: Transport) -> Program {
    match b {
        CommBench::Wc => wc_consumer(n, t),
        CommBench::Unepic => unepic_consumer(n, t),
        CommBench::Cjpeg => cjpeg_consumer(n, t),
        CommBench::Adpcm => adpcm_consumer(n, t),
        CommBench::Twolf => twolf_consumer(n, t),
        CommBench::Hmmer => hmmer_consumer(n, t),
        CommBench::Astar => astar_consumer(n, t),
    }
}

/// Producer half of the computation+communication split (SPL computes and
/// routes to the consumer).
pub(crate) fn compcomm_producer(b: CommBench, n: usize) -> Program {
    match b {
        CommBench::Wc => wc_cc_producer(n),
        CommBench::Unepic => unepic_cc_producer(n),
        CommBench::Cjpeg => cjpeg_cc_producer(n),
        CommBench::Adpcm => adpcm_cc_producer(n),
        CommBench::Twolf => twolf_cc_producer(n),
        CommBench::Hmmer => hmmer_cc_producer(n),
        CommBench::Astar => astar_cc_producer(n),
    }
}

/// Consumer half of the computation+communication split.
pub(crate) fn compcomm_consumer(b: CommBench, n: usize) -> Program {
    match b {
        CommBench::Wc => wc_cc_consumer(n),
        CommBench::Unepic => unepic_cc_consumer(n),
        CommBench::Cjpeg => cjpeg_cc_consumer(n),
        CommBench::Adpcm => adpcm_cc_consumer(n),
        CommBench::Twolf => twolf_cc_consumer(n),
        CommBench::Hmmer => hmmer_cc_consumer(n),
        CommBench::Astar => astar_cc_consumer(n),
    }
}

// ===========================================================================
// wc
// ===========================================================================
// State: r10 = chars, r11 = words, r12 = lines, r13 = in_word.

fn wc_prologue(a: &mut Asm, n: usize) {
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R3, ADDR_IN as i32);
    a.li(R4, ADDR_OUT as i32);
    a.li(R10, 0);
    a.li(R11, 0);
    a.li(R12, 0);
    a.li(R13, 0);
}

fn wc_epilogue(a: &mut Asm) {
    a.sw(R10, R4, 0);
    a.sw(R11, R4, 4);
    a.sw(R12, R4, 8);
    a.fence();
    a.halt();
}

/// The classic branchy classify+count step on the byte in `c`.
fn wc_classify_branchy(a: &mut Asm, c: Reg) {
    let space = a.fresh_label("wc_space");
    let newline = a.fresh_label("wc_nl");
    let next = a.fresh_label("wc_next");
    a.addi(R10, R10, 1); // chars++
    a.li(R8, 32);
    a.beq(c, R8, space.clone());
    a.li(R8, 10);
    a.beq(c, R8, newline.clone());
    // letter
    a.bne(R13, R0, next.clone());
    a.addi(R11, R11, 1); // words++
    a.li(R13, 1);
    a.j(next.clone());
    a.label(newline);
    a.addi(R12, R12, 1);
    a.li(R13, 0);
    a.j(next.clone());
    a.label(space);
    a.li(R13, 0);
    a.label(next);
}

/// Unpacks the SPL's running totals (`words | lines<<16` in `r7`) into the
/// counter registers after the drain loop; `chars` = element count.
fn wc_unpack_totals(a: &mut Asm, n: usize) {
    a.li(R10, n as i32); // chars
    a.andi(R11, R7, 0xffff); // words
    a.srli(R12, R7, 16);
    a.andi(R12, R12, 0xffff); // lines
}

/// Emits the 8-byte chunk feed for the wc SPL function: two word loads from
/// the byte stream at chunk offset `r5`, staged into the entry.
fn wc_feed_chunk(a: &mut Asm) {
    a.add(R6, R3, R5);
    a.lw(R8, R6, 0);
    a.spl_load(R8, 0, 4);
    a.lw(R8, R6, 4);
    a.spl_load(R8, 4, 4);
    a.spl_init(CFG_MAIN);
}

fn wc_seq(n: usize) -> Program {
    let mut a = Asm::new("wc-seq");
    wc_prologue(&mut a, n);
    a.label("loop");
    a.add(R6, R3, R1);
    a.lbu(R7, R6, 0);
    wc_classify_branchy(&mut a, R7);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    wc_epilogue(&mut a);
    a.assemble().expect("wc seq")
}

/// `n` is a whole number of 8-byte chunks ([`CommBench::check_shape`]).
fn wc_comp1t(n: usize) -> Program {
    let chunks = n / 8;
    let mut a = Asm::new("wc-comp1t");
    wc_prologue(&mut a, chunks);
    a.li(R30, 0);
    a.li(R31, 4.min(chunks) as i32);
    if chunks > 0 {
        a.label("pro");
        a.slli(R5, R30, 3);
        wc_feed_chunk(&mut a);
        a.addi(R30, R30, 1);
        a.blt(R30, R31, "pro");
        a.label("main");
        a.spl_store(R7);
        a.addi(R1, R1, 1);
        a.bge(R30, R2, "nofeed");
        a.slli(R5, R30, 3);
        wc_feed_chunk(&mut a);
        a.addi(R30, R30, 1);
        a.label("nofeed");
        a.blt(R1, R2, "main");
        wc_unpack_totals(&mut a, n);
    }
    wc_epilogue(&mut a);
    a.assemble().expect("wc comp1t")
}

fn wc_producer(n: usize, t: Transport) -> Program {
    let mut a = Asm::new("wc-producer");
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R3, ADDR_IN as i32);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    a.add(R6, R3, R1);
    a.lbu(R7, R6, 0);
    send(&mut a, t, R7);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("wc producer")
}

fn wc_consumer(n: usize, t: Transport) -> Program {
    let mut a = Asm::new("wc-consumer");
    wc_prologue(&mut a, n);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    recv(&mut a, t, R7);
    wc_classify_branchy(&mut a, R7);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    wc_epilogue(&mut a);
    a.assemble().expect("wc consumer")
}

/// `n` is a whole number of 8-byte chunks ([`CommBench::check_shape`]).
fn wc_cc_producer(n: usize) -> Program {
    let chunks = n / 8;
    let mut a = Asm::new("wc-cc-producer");
    a.li(R1, 0);
    a.li(R2, chunks as i32);
    a.li(R3, ADDR_IN as i32);
    a.label("loop");
    a.slli(R5, R1, 3);
    wc_feed_chunk(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("wc cc producer")
}

fn wc_cc_consumer(n: usize) -> Program {
    let chunks = n / 8;
    let mut a = Asm::new("wc-cc-consumer");
    wc_prologue(&mut a, chunks);
    a.label("loop");
    a.spl_store(R7);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    wc_unpack_totals(&mut a, n);
    wc_epilogue(&mut a);
    a.assemble().expect("wc cc consumer")
}

// ===========================================================================
// unepic
// ===========================================================================
// State: r10 = acc; r15 = LUT base, r16 = LUT2 base.

fn unepic_prologue(a: &mut Asm, n: usize) {
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R3, ADDR_IN as i32);
    a.li(R4, ADDR_OUT as i32);
    a.li(R10, 0);
    a.li(R15, LUT_BASE as i32);
    a.li(R16, LUT2_BASE as i32);
}

/// Branchy resolve: `v` may be a negative second-level index.
fn unepic_resolve_branchy(a: &mut Asm, v: Reg) {
    let pos = a.fresh_label("un_pos");
    a.bge(v, R0, pos.clone());
    a.sub(R8, R0, v);
    a.addi(R8, R8, -1);
    a.slli(R8, R8, 2);
    a.add(R8, R16, R8);
    a.lw(v, R8, 0); // pointer-chased second-level load
    a.label(pos);
}

/// Branch-free resolve from the SPL's packed `(v, neg, off)` word in `pk`;
/// leaves the value in `r8`. Clobbers `r9`, `r14`.
fn unepic_resolve_branchfree(a: &mut Asm, pk: Reg) {
    a.slli(R8, pk, 48);
    a.srai(R8, R8, 48); // v (sign-extended 16-bit)
    a.srli(R9, pk, 16);
    a.andi(R9, R9, 1); // neg
    a.srli(R14, pk, 24); // byte offset into lut2
    a.add(R14, R16, R14);
    a.lw(R14, R14, 0); // w (harmless when neg = 0)
    a.sub(R14, R14, R8); // w - v
    a.mul(R14, R14, R9); // neg ? w - v : 0
    a.add(R8, R8, R14); // final value
}

fn unepic_seq(n: usize) -> Program {
    let mut a = Asm::new("unepic-seq");
    unepic_prologue(&mut a, n);
    a.label("loop");
    a.slli(R5, R1, 2);
    a.add(R6, R3, R5);
    a.lw(R7, R6, 0); // token
    a.slli(R7, R7, 2);
    a.add(R7, R15, R7);
    a.lw(R7, R7, 0); // v = lut[token]
    unepic_resolve_branchy(&mut a, R7);
    a.add(R10, R10, R7);
    a.add(R6, R4, R5);
    a.sw(R10, R6, 0);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("unepic seq")
}

fn unepic_comp1t(n: usize) -> Program {
    let mut a = Asm::new("unepic-comp1t");
    unepic_prologue(&mut a, n);
    // Pipelined: feed token classification into the SPL, drain branch-free.
    a.li(R30, 0);
    let k = 4.min(n) as i32;
    a.li(R31, k);
    if n > 0 {
        a.label("pro");
        a.slli(R5, R30, 2);
        unepic_feed(&mut a);
        a.addi(R30, R30, 1);
        a.blt(R30, R31, "pro");
        a.label("main");
        a.slli(R5, R1, 2);
        a.spl_store(R7);
        unepic_resolve_branchfree(&mut a, R7);
        a.add(R10, R10, R8);
        a.add(R6, R4, R5);
        a.sw(R10, R6, 0);
        a.addi(R1, R1, 1);
        a.bge(R30, R2, "nofeed");
        a.slli(R5, R30, 2);
        unepic_feed(&mut a);
        a.addi(R30, R30, 1);
        a.label("nofeed");
        a.blt(R1, R2, "main");
    }
    a.halt();
    a.assemble().expect("unepic comp1t")
}

fn unepic_feed(a: &mut Asm) {
    a.add(R6, R3, R5);
    a.lw(R7, R6, 0);
    a.slli(R7, R7, 2);
    a.add(R7, R15, R7);
    a.lw(R7, R7, 0);
    a.spl_load(R7, 0, 4);
    a.spl_init(CFG_MAIN);
}

fn unepic_producer(n: usize, t: Transport) -> Program {
    let mut a = Asm::new("unepic-producer");
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R3, ADDR_IN as i32);
    a.li(R15, LUT_BASE as i32);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    a.slli(R5, R1, 2);
    a.add(R6, R3, R5);
    a.lw(R7, R6, 0);
    a.slli(R7, R7, 2);
    a.add(R7, R15, R7);
    a.lw(R7, R7, 0);
    send(&mut a, t, R7);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("unepic producer")
}

fn unepic_consumer(n: usize, t: Transport) -> Program {
    let mut a = Asm::new("unepic-consumer");
    unepic_prologue(&mut a, n);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    a.slli(R5, R1, 2);
    recv(&mut a, t, R7);
    // Received as u32: sign-extend.
    a.slli(R7, R7, 32);
    a.srai(R7, R7, 32);
    unepic_resolve_branchy(&mut a, R7);
    a.add(R10, R10, R7);
    a.add(R6, R4, R5);
    a.sw(R10, R6, 0);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("unepic consumer")
}

fn unepic_cc_producer(n: usize) -> Program {
    let mut a = Asm::new("unepic-cc-producer");
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R3, ADDR_IN as i32);
    a.li(R15, LUT_BASE as i32);
    a.label("loop");
    a.slli(R5, R1, 2);
    unepic_feed(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("unepic cc producer")
}

fn unepic_cc_consumer(n: usize) -> Program {
    let mut a = Asm::new("unepic-cc-consumer");
    unepic_prologue(&mut a, n);
    a.label("loop");
    a.slli(R5, R1, 2);
    a.spl_store(R7);
    unepic_resolve_branchfree(&mut a, R7);
    a.add(R10, R10, R8);
    a.add(R6, R4, R5);
    a.sw(R10, R6, 0);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("unepic cc consumer")
}

// ===========================================================================
// cjpeg
// ===========================================================================
// State: r10 = block sum, r17 = block-sum output cursor.

fn cjpeg_prologue(a: &mut Asm, n: usize) {
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R3, ADDR_IN as i32);
    a.li(R4, ADDR_OUT as i32);
    a.li(R10, 0);
    a.li(R17, (ADDR_OUT + 4 * n as i64) as i32);
}

/// Software RGB→YCC on the packed pixel in `px`; result packed in `r14`.
/// Clobbers `r7`, `r8`, `r9`, `r14`, `r15`, `r16`.
fn cjpeg_ycc_sw(a: &mut Asm, px: Reg) {
    a.andi(R7, px, 0xff); // r
    a.srli(R8, px, 8);
    a.andi(R8, R8, 0xff); // g
    a.srli(R9, px, 16);
    a.andi(R9, R9, 0xff); // b
                          // y
    a.muli(R14, R7, 77);
    a.muli(R15, R8, 150);
    a.add(R14, R14, R15);
    a.muli(R15, R9, 29);
    a.add(R14, R14, R15);
    a.srai(R14, R14, 8);
    // cb
    a.muli(R15, R7, -43);
    a.muli(R16, R8, -85);
    a.add(R15, R15, R16);
    a.muli(R16, R9, 128);
    a.add(R15, R15, R16);
    a.srai(R15, R15, 8);
    a.addi(R15, R15, 128);
    // cr
    a.muli(R16, R7, 128);
    a.muli(R7, R8, -107);
    a.add(R16, R16, R7);
    a.muli(R7, R9, -21);
    a.add(R16, R16, R7);
    a.srai(R16, R16, 8);
    a.addi(R16, R16, 128);
    // pack
    a.slli(R15, R15, 8);
    a.slli(R16, R16, 16);
    a.or(R14, R14, R15);
    a.or(R14, R14, R16);
}

/// Store packed YCC + maintain the 8-pixel block checksum. Uses the packed
/// value in `pk`, loop index `r1`. Clobbers `r8`, `r9`.
fn cjpeg_consume(a: &mut Asm, pk: Reg) {
    let noblk = a.fresh_label("cj_noblk");
    a.slli(R8, R1, 2);
    a.add(R8, R4, R8);
    a.sw(pk, R8, 0);
    a.andi(R9, pk, 0xff); // y
    a.add(R10, R10, R9);
    a.andi(R9, R1, 7);
    a.li(R8, 7);
    a.bne(R9, R8, noblk.clone());
    a.sw(R10, R17, 0);
    a.addi(R17, R17, 4);
    a.li(R10, 0);
    a.label(noblk);
}

fn cjpeg_seq(n: usize) -> Program {
    let mut a = Asm::new("cjpeg-seq");
    cjpeg_prologue(&mut a, n);
    a.label("loop");
    a.slli(R5, R1, 2);
    a.add(R6, R3, R5);
    a.lw(R6, R6, 0);
    cjpeg_ycc_sw(&mut a, R6);
    cjpeg_consume(&mut a, R14);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("cjpeg seq")
}

fn cjpeg_comp1t(n: usize) -> Program {
    let mut a = Asm::new("cjpeg-comp1t");
    cjpeg_prologue(&mut a, n);
    a.li(R30, 0);
    a.li(R31, 4.min(n) as i32);
    if n > 0 {
        a.label("pro");
        a.slli(R5, R30, 2);
        a.add(R6, R3, R5);
        a.lw(R6, R6, 0);
        a.spl_load(R6, 0, 4);
        a.spl_init(CFG_MAIN);
        a.addi(R30, R30, 1);
        a.blt(R30, R31, "pro");
        a.label("main");
        a.spl_store(R14);
        cjpeg_consume(&mut a, R14);
        a.addi(R1, R1, 1);
        a.bge(R30, R2, "nofeed");
        a.slli(R5, R30, 2);
        a.add(R6, R3, R5);
        a.lw(R6, R6, 0);
        a.spl_load(R6, 0, 4);
        a.spl_init(CFG_MAIN);
        a.addi(R30, R30, 1);
        a.label("nofeed");
        a.blt(R1, R2, "main");
    }
    a.halt();
    a.assemble().expect("cjpeg comp1t")
}

fn cjpeg_producer(n: usize, t: Transport) -> Program {
    let mut a = Asm::new("cjpeg-producer");
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R3, ADDR_IN as i32);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    a.slli(R5, R1, 2);
    a.add(R6, R3, R5);
    a.lw(R6, R6, 0);
    cjpeg_ycc_sw(&mut a, R6);
    send(&mut a, t, R14);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("cjpeg producer")
}

fn cjpeg_consumer(n: usize, t: Transport) -> Program {
    let mut a = Asm::new("cjpeg-consumer");
    cjpeg_prologue(&mut a, n);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    recv(&mut a, t, R14);
    cjpeg_consume(&mut a, R14);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("cjpeg consumer")
}

fn cjpeg_cc_producer(n: usize) -> Program {
    let mut a = Asm::new("cjpeg-cc-producer");
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R3, ADDR_IN as i32);
    a.label("loop");
    a.slli(R5, R1, 2);
    a.add(R6, R3, R5);
    a.lw(R6, R6, 0);
    a.spl_load(R6, 0, 4);
    a.spl_init(CFG_MAIN);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("cjpeg cc producer")
}

fn cjpeg_cc_consumer(n: usize) -> Program {
    let mut a = Asm::new("cjpeg-cc-consumer");
    cjpeg_prologue(&mut a, n);
    a.label("loop");
    a.spl_store(R14);
    cjpeg_consume(&mut a, R14);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("cjpeg cc consumer")
}

// ===========================================================================
// adpcm
// ===========================================================================
// State: r10 = valpred, r11 = index; r15 = step table, r16 = index table.

fn adpcm_prologue(a: &mut Asm, n: usize) {
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R3, ADDR_IN as i32);
    a.li(R4, ADDR_OUT as i32);
    a.li(R10, 0);
    a.li(R11, 0);
    a.li(R15, STEP_BASE as i32);
    a.li(R16, IDXT_BASE as i32);
}

/// Software vpdiff of code `c` (r7) with step in `r14`; signed result in
/// `r17`. Branchy (four data-dependent conditions). Clobbers `r8`, `r9`.
fn adpcm_vpdiff_sw(a: &mut Asm) {
    let s1 = a.fresh_label("ad_s1");
    let s2 = a.fresh_label("ad_s2");
    let s3 = a.fresh_label("ad_s3");
    let s4 = a.fresh_label("ad_s4");
    a.srai(R17, R14, 3);
    a.andi(R8, R7, 4);
    a.beq(R8, R0, s1.clone());
    a.add(R17, R17, R14);
    a.label(s1);
    a.andi(R8, R7, 2);
    a.beq(R8, R0, s2.clone());
    a.srai(R9, R14, 1);
    a.add(R17, R17, R9);
    a.label(s2);
    a.andi(R8, R7, 1);
    a.beq(R8, R0, s3.clone());
    a.srai(R9, R14, 2);
    a.add(R17, R17, R9);
    a.label(s3);
    a.andi(R8, R7, 8);
    a.beq(R8, R0, s4.clone());
    a.sub(R17, R0, R17);
    a.label(s4);
}

/// Loads the code into `r7` and the current step into `r14`.
fn adpcm_load_code_step(a: &mut Asm) {
    a.slli(R5, R1, 2);
    a.add(R6, R3, R5);
    a.lw(R7, R6, 0); // code
    a.slli(R8, R11, 2);
    a.add(R8, R15, R8);
    a.lw(R14, R8, 0); // step = stepTable[index]
}

/// Index adaptation: `index = clamp(index + idxTable[c], 0, 88)`.
fn adpcm_index_update(a: &mut Asm) {
    a.slli(R8, R7, 2);
    a.add(R8, R16, R8);
    a.lw(R8, R8, 0);
    a.add(R11, R11, R8);
    emit_clamp(a, R11, 0, 88);
}

/// valpred update from the signed vpdiff in `r17` + output store.
fn adpcm_valpred_store(a: &mut Asm) {
    a.add(R10, R10, R17);
    emit_clamp(a, R10, -32768, 32767);
    a.slli(R5, R1, 2);
    a.add(R6, R4, R5);
    a.sw(R10, R6, 0);
}

fn adpcm_seq(n: usize) -> Program {
    let mut a = Asm::new("adpcm-seq");
    adpcm_prologue(&mut a, n);
    a.label("loop");
    adpcm_load_code_step(&mut a);
    adpcm_vpdiff_sw(&mut a);
    adpcm_index_update(&mut a);
    adpcm_valpred_store(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("adpcm seq")
}

fn adpcm_comp1t(n: usize) -> Program {
    // The index recurrence serializes iterations: no software pipelining.
    let mut a = Asm::new("adpcm-comp1t");
    adpcm_prologue(&mut a, n);
    a.label("loop");
    adpcm_load_code_step(&mut a);
    a.spl_load(R7, 0, 1);
    a.spl_load(R14, 4, 4);
    a.spl_init(CFG_MAIN);
    adpcm_index_update(&mut a);
    a.spl_store(R17);
    a.slli(R17, R17, 32);
    a.srai(R17, R17, 32); // sign-extend vpdiff
    adpcm_valpred_store(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("adpcm comp1t")
}

fn adpcm_producer(n: usize, t: Transport) -> Program {
    let mut a = Asm::new("adpcm-producer");
    adpcm_prologue(&mut a, n);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    adpcm_load_code_step(&mut a);
    adpcm_vpdiff_sw(&mut a);
    adpcm_index_update(&mut a);
    send(&mut a, t, R17);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("adpcm producer")
}

fn adpcm_consumer(n: usize, t: Transport) -> Program {
    let mut a = Asm::new("adpcm-consumer");
    adpcm_prologue(&mut a, n);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    recv(&mut a, t, R17);
    a.slli(R17, R17, 32);
    a.srai(R17, R17, 32);
    adpcm_valpred_store(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("adpcm consumer")
}

fn adpcm_cc_producer(n: usize) -> Program {
    let mut a = Asm::new("adpcm-cc-producer");
    adpcm_prologue(&mut a, n);
    a.label("loop");
    adpcm_load_code_step(&mut a);
    a.spl_load(R7, 0, 1);
    a.spl_load(R14, 4, 4);
    a.spl_init(CFG_MAIN);
    adpcm_index_update(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("adpcm cc producer")
}

fn adpcm_cc_consumer(n: usize) -> Program {
    let mut a = Asm::new("adpcm-cc-consumer");
    adpcm_prologue(&mut a, n);
    a.label("loop");
    a.spl_store(R17);
    a.slli(R17, R17, 32);
    a.srai(R17, R17, 32);
    adpcm_valpred_store(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("adpcm cc consumer")
}

// ===========================================================================
// twolf
// ===========================================================================
// State: r10 = net cost, r11 = minx, r12 = maxx, r17 = output cursor.

fn twolf_prologue(a: &mut Asm, n: usize) {
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R3, ADDR_IN as i32);
    a.li(R17, ADDR_OUT as i32);
    a.li(R10, 0);
    a.li(R11, 1 << 20);
    a.li(R12, -(1 << 20));
}

/// Per-term accumulate: cost in `r7`, x in `r8`; every 8th term stores the
/// net summary. Clobbers `r9`, `r14`.
fn twolf_consume(a: &mut Asm) {
    let nmin = a.fresh_label("tw_nmin");
    let nmax = a.fresh_label("tw_nmax");
    let nonet = a.fresh_label("tw_nonet");
    a.add(R10, R10, R7);
    a.bge(R8, R11, nmin.clone());
    a.mv(R11, R8);
    a.label(nmin);
    a.bge(R12, R8, nmax.clone());
    a.mv(R12, R8);
    a.label(nmax);
    a.andi(R9, R1, 7);
    a.li(R14, 7);
    a.bne(R9, R14, nonet.clone());
    a.sw(R10, R17, 0);
    a.sub(R9, R12, R11);
    a.sw(R9, R17, 4);
    a.addi(R17, R17, 8);
    a.li(R10, 0);
    a.li(R11, 1 << 20);
    a.li(R12, -(1 << 20));
    a.label(nonet);
}

/// Loads x into `r8` and y into `r14` for term `r1`.
fn twolf_load_xy(a: &mut Asm) {
    a.slli(R5, R1, 3);
    a.add(R6, R3, R5);
    a.lw(R8, R6, 0);
    a.lw(R14, R6, 4);
}

fn twolf_seq(n: usize) -> Program {
    let mut a = Asm::new("twolf-seq");
    twolf_prologue(&mut a, n);
    a.label("loop");
    twolf_load_xy(&mut a);
    a.mv(R7, R8);
    emit_abs_dev(&mut a, R7); // |x-512|
    emit_abs_dev(&mut a, R14); // |y-512|
    a.add(R7, R7, R14);
    twolf_consume(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("twolf seq")
}

fn twolf_feed(a: &mut Asm) {
    a.slli(R5, R30, 3);
    a.add(R6, R3, R5);
    a.lw(R8, R6, 0);
    a.lw(R14, R6, 4);
    a.spl_load(R8, 0, 4);
    a.spl_load(R14, 4, 4);
    a.spl_init(CFG_MAIN);
}

/// Unpacks the SPL result (cost | x<<16) into `r7`/`r8`.
fn twolf_unpack(a: &mut Asm, pk: Reg) {
    a.andi(R7, pk, 0xffff);
    a.srli(R8, pk, 16);
    a.andi(R8, R8, 0xffff);
}

fn twolf_comp1t(n: usize) -> Program {
    let mut a = Asm::new("twolf-comp1t");
    twolf_prologue(&mut a, n);
    a.li(R30, 0);
    a.li(R31, 4.min(n) as i32);
    if n > 0 {
        a.label("pro");
        twolf_feed(&mut a);
        a.addi(R30, R30, 1);
        a.blt(R30, R31, "pro");
        a.label("main");
        a.spl_store(R15);
        twolf_unpack(&mut a, R15);
        twolf_consume(&mut a);
        a.addi(R1, R1, 1);
        a.bge(R30, R2, "nofeed");
        twolf_feed(&mut a);
        a.addi(R30, R30, 1);
        a.label("nofeed");
        a.blt(R1, R2, "main");
    }
    a.halt();
    a.assemble().expect("twolf comp1t")
}

fn twolf_producer(n: usize, t: Transport) -> Program {
    let mut a = Asm::new("twolf-producer");
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R3, ADDR_IN as i32);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    twolf_load_xy(&mut a);
    a.mv(R7, R8);
    emit_abs_dev(&mut a, R7);
    emit_abs_dev(&mut a, R14);
    a.add(R7, R7, R14);
    // pack cost | x<<16
    a.slli(R9, R8, 16);
    a.or(R7, R7, R9);
    send(&mut a, t, R7);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("twolf producer")
}

fn twolf_consumer(n: usize, t: Transport) -> Program {
    let mut a = Asm::new("twolf-consumer");
    twolf_prologue(&mut a, n);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    recv(&mut a, t, R15);
    twolf_unpack(&mut a, R15);
    twolf_consume(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("twolf consumer")
}

fn twolf_cc_producer(n: usize) -> Program {
    let mut a = Asm::new("twolf-cc-producer");
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R3, ADDR_IN as i32);
    a.li(R30, 0);
    a.label("loop");
    a.mv(R30, R1); // twolf_feed indexes with r30
    twolf_feed(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("twolf cc producer")
}

fn twolf_cc_consumer(n: usize) -> Program {
    let mut a = Asm::new("twolf-cc-consumer");
    twolf_prologue(&mut a, n);
    a.label("loop");
    a.spl_store(R15);
    twolf_unpack(&mut a, R15);
    twolf_consume(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("twolf cc consumer")
}

// ===========================================================================
// hmmer (Figure 5)
// ===========================================================================
// Arrays (each M+1 words at IN + j*(M+1)*4):
//   0 mpp, 1 ip, 2 dpp, 3 tpmm, 4 tpim, 5 tpdm, 6 bp, 7 ms,
//   8 tpdd, 9 tpmd, 10 tpmi, 11 tpii, 12 is
// Outputs: mc at OUT, dc at OUT + (M+1)*4, ic at OUT + 2*(M+1)*4.
// State: r10 = mc[k-1], r11 = dc[k-1], r17 = M.

fn hm_off(j: i64, len: usize) -> i32 {
    (j * (len as i64) * 4) as i32
}

fn hmmer_prologue(a: &mut Asm, m: usize) {
    a.li(R1, 1); // k
    a.li(R2, m as i32 + 1); // bound
    a.li(R3, ADDR_IN as i32);
    a.li(R4, ADDR_OUT as i32);
    a.li(R10, 0); // mc[0]
    a.li(R11, 0); // dc[0]
    a.li(R17, m as i32);
}

/// Loads the eight mc inputs for row `k` whose `k*4` is in `r5`
/// (`r6 = r5 - 4` is computed here), leaving xb in `r16` and ms in `r15`,
/// and the six [k-1] operands in `r7,r8,r9,r14,r18,r19`.
fn hmmer_load_mc_inputs(a: &mut Asm, len: usize) {
    a.addi(R6, R5, -4);
    a.add(R6, R3, R6); // base + (k-1)*4
    a.lw(R7, R6, hm_off(0, len)); // mpp[k-1]
    a.lw(R8, R6, hm_off(3, len)); // tpmm[k-1]
    a.lw(R9, R6, hm_off(1, len)); // ip[k-1]
    a.lw(R14, R6, hm_off(4, len)); // tpim[k-1]
    a.lw(R18, R6, hm_off(2, len)); // dpp[k-1]
    a.lw(R19, R6, hm_off(5, len)); // tpdm[k-1]
    a.add(R6, R3, R5); // base + k*4
    a.lw(R16, R6, hm_off(6, len)); // bp[k]
    a.addi(R16, R16, XMB as i32); // xb = xmb + bp[k]
    a.lw(R15, R6, hm_off(7, len)); // ms[k]
}

/// Computes mc in `r7` from the loaded inputs (software version).
fn hmmer_mc_sw(a: &mut Asm) {
    a.add(R7, R7, R8); // mc = mpp + tpmm
    emit_max_sum(a, R7, R9, R14); // vs ip + tpim
    emit_max_sum(a, R7, R18, R19); // vs dpp + tpdm
    let skip = a.fresh_label("hm_xb");
    a.bge(R7, R16, skip.clone());
    a.mv(R7, R16);
    a.label(skip);
    a.add(R7, R7, R15); // += ms
    emit_floor(a, R7, NEG_INFTY_I);
}

/// dc computation for row `k` (`r5 = k*4`): needs mc[k-1] in `r10`,
/// dc[k-1] in `r11`; leaves dc in `r11` and stores it. Clobbers
/// `r6`, `r8`, `r9`.
fn hmmer_dc(a: &mut Asm, len: usize) {
    a.addi(R6, R5, -4);
    a.add(R6, R3, R6);
    a.lw(R8, R6, hm_off(8, len)); // tpdd[k-1]
    a.add(R11, R11, R8); // dc = dc[k-1] + tpdd
    a.lw(R8, R6, hm_off(9, len)); // tpmd[k-1]
    emit_max_sum(a, R11, R10, R8); // vs mc[k-1] + tpmd
    emit_floor(a, R11, NEG_INFTY_I);
    a.add(R6, R4, R5);
    a.sw(R11, R6, hm_off(1, len)); // dc[k]
}

/// ic computation for row `k` when `k < M`. Clobbers `r6`, `r8`, `r9`,
/// `r14`, `r15`.
fn hmmer_ic(a: &mut Asm, len: usize) {
    let skip = a.fresh_label("hm_noic");
    a.bge(R1, R17, skip.clone()); // only when k < M
    a.add(R6, R3, R5);
    a.lw(R14, R6, hm_off(0, len)); // mpp[k]
    a.lw(R8, R6, hm_off(10, len)); // tpmi[k]
    a.add(R14, R14, R8);
    a.lw(R15, R6, hm_off(1, len)); // ip[k]
    a.lw(R8, R6, hm_off(11, len)); // tpii[k]
    emit_max_sum(a, R14, R15, R8);
    a.lw(R8, R6, hm_off(12, len)); // is[k]
    a.add(R14, R14, R8);
    emit_floor(a, R14, NEG_INFTY_I);
    a.add(R6, R4, R5);
    a.sw(R14, R6, hm_off(2, len)); // ic[k]
    a.label(skip);
}

fn hmmer_seq(m: usize) -> Program {
    let len = m + 1;
    let mut a = Asm::new("hmmer-seq");
    hmmer_prologue(&mut a, m);
    a.label("loop");
    a.slli(R5, R1, 2);
    hmmer_load_mc_inputs(&mut a, len);
    hmmer_mc_sw(&mut a);
    // store mc[k]; dc uses mc[k-1] (r10) before we overwrite it.
    a.add(R6, R4, R5);
    a.sw(R7, R6, 0);
    hmmer_dc(&mut a, len);
    a.mv(R10, R7); // mc[k-1] ← mc[k]
    hmmer_ic(&mut a, len);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("hmmer seq")
}

/// Feeds the 8 packed 16-bit mc operands of row `r30` into the SPL from
/// the interleaved operand stream (`r16` = stream base): four word loads
/// fill one row-width entry. xmb is added inside the fabric.
fn hmmer_feed(a: &mut Asm, _len: usize) {
    a.slli(R5, R30, 4); // (k) * 16; stream record for k starts at (k-1)*16
    a.add(R6, R16, R5);
    a.lw(R7, R6, -16);
    a.spl_load(R7, 0, 4);
    a.lw(R7, R6, -12);
    a.spl_load(R7, 4, 4);
    a.lw(R7, R6, -8);
    a.spl_load(R7, 8, 4);
    a.lw(R7, R6, -4);
    a.spl_load(R7, 12, 4);
    a.spl_init(CFG_MAIN);
}

/// Drains one mc result into `r7` (sign-extended 16-bit).
fn hmmer_drain_mc(a: &mut Asm) {
    a.spl_store(R7);
    a.slli(R7, R7, 48);
    a.srai(R7, R7, 48);
}

fn hmmer_comp1t(m: usize) -> Program {
    let len = m + 1;
    let mut a = Asm::new("hmmer-comp1t");
    hmmer_prologue(&mut a, m);
    a.li(R16, HMMER_ILV as i32);
    a.li(R30, 1); // feed k
    a.li(R31, (1 + 4.min(m)) as i32);
    if m > 0 {
        a.label("pro");
        hmmer_feed(&mut a, len);
        a.addi(R30, R30, 1);
        a.blt(R30, R31, "pro");
        a.label("main");
        a.slli(R5, R1, 2);
        hmmer_drain_mc(&mut a);
        a.add(R6, R4, R5);
        a.sw(R7, R6, 0);
        hmmer_dc(&mut a, len);
        a.mv(R10, R7);
        hmmer_ic(&mut a, len);
        a.addi(R1, R1, 1);
        a.bge(R30, R2, "nofeed");
        hmmer_feed(&mut a, len);
        a.addi(R30, R30, 1);
        a.label("nofeed");
        a.blt(R1, R2, "main");
    }
    a.halt();
    a.assemble().expect("hmmer comp1t")
}

fn hmmer_producer(m: usize, t: Transport) -> Program {
    // Figure 5(c): producer computes mc and ic in software, sends mc.
    let len = m + 1;
    let mut a = Asm::new("hmmer-producer");
    hmmer_prologue(&mut a, m);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    a.slli(R5, R1, 2);
    hmmer_load_mc_inputs(&mut a, len);
    hmmer_mc_sw(&mut a);
    send(&mut a, t, R7);
    hmmer_ic(&mut a, len);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("hmmer producer")
}

fn hmmer_consumer(m: usize, t: Transport) -> Program {
    // Figure 5(c): consumer receives mc, stores it, computes dc.
    let len = m + 1;
    let mut a = Asm::new("hmmer-consumer");
    hmmer_prologue(&mut a, m);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    a.slli(R5, R1, 2);
    recv(&mut a, t, R7);
    a.slli(R7, R7, 48);
    a.srai(R7, R7, 48); // mc as signed 16-bit
    a.add(R6, R4, R5);
    a.sw(R7, R6, 0);
    hmmer_dc(&mut a, len);
    a.mv(R10, R7);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("hmmer consumer")
}

fn hmmer_cc_producer(m: usize) -> Program {
    // Figure 5(d): producer loads mc inputs into the SPL and computes ic.
    let len = m + 1;
    let mut a = Asm::new("hmmer-cc-producer");
    hmmer_prologue(&mut a, m);
    a.li(R16, HMMER_ILV as i32);
    a.li(R30, 1);
    a.label("loop");
    hmmer_feed(&mut a, len);
    a.mv(R1, R30); // ic indexes with r1/r5
    a.slli(R5, R1, 2);
    hmmer_ic(&mut a, len);
    a.addi(R30, R30, 1);
    a.bne(R30, R2, "loop");
    a.halt();
    a.assemble().expect("hmmer cc producer")
}

fn hmmer_cc_consumer(m: usize) -> Program {
    // Figure 5(d): consumer receives mc from the fabric, computes dc.
    let len = m + 1;
    let mut a = Asm::new("hmmer-cc-consumer");
    hmmer_prologue(&mut a, m);
    a.label("loop");
    a.slli(R5, R1, 2);
    hmmer_drain_mc(&mut a);
    a.add(R6, R4, R5);
    a.sw(R7, R6, 0);
    hmmer_dc(&mut a, len);
    a.mv(R10, R7);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("hmmer cc consumer")
}

// ===========================================================================
// astar (makebound2)
// ===========================================================================
// Unit u = (cell index i = u >> 2, direction d = u & 3); 4n units total.
// State: r10 = update count, r15 = wave base, r16 = cost base, r17 = delta
// base, r18 = dist base (OUT + 4), r19 = cells base.

fn astar_prologue(a: &mut Asm, n: usize) {
    a.li(R1, 0);
    a.li(R2, (4 * n) as i32);
    a.li(R3, ADDR_IN as i32);
    a.li(R4, ADDR_OUT as i32);
    a.li(R10, 0);
    a.li(R15, WAVE_BASE as i32);
    a.li(R16, COST_BASE as i32);
    a.li(R17, DELTA_BASE as i32);
    a.li(R18, (ADDR_OUT + 4) as i32);
    a.li(R19, ADDR_IN as i32);
}

fn astar_epilogue(a: &mut Asm) {
    a.sw(R10, R4, 0);
    a.fence();
    a.halt();
}

/// Computes nbr (r8) and newdist (r9) for unit index in `idx` (software
/// version). Clobbers `r5`–`r9`, `r14`.
fn astar_unit_sw(a: &mut Asm, idx: Reg) {
    a.andi(R5, idx, -4); // (u >> 2) * 4 — byte offset of cell/wave
    a.add(R6, R19, R5);
    a.lw(R8, R6, 0); // cell
    a.add(R6, R15, R5);
    a.lw(R9, R6, 0); // wave
    a.andi(R14, idx, 3);
    a.slli(R14, R14, 2);
    a.add(R14, R17, R14);
    a.lw(R14, R14, 0); // delta[d]
    a.add(R8, R8, R14); // nbr
    a.slli(R5, idx, 2);
    a.add(R6, R16, R5);
    a.lw(R14, R6, 0); // cost[u]
    a.add(R9, R9, R14); // newdist
}

/// The consumer-side compare-and-update with the unpredictable branch:
/// nbr in `r8`, newdist in `r9`. Clobbers `r5`, `r6`, `r14`.
fn astar_update(a: &mut Asm) {
    let skip = a.fresh_label("as_skip");
    a.slli(R5, R8, 2);
    a.add(R6, R18, R5);
    a.lw(R14, R6, 0); // dist[nbr]
    a.bge(R9, R14, skip.clone());
    a.sw(R9, R6, 0);
    a.addi(R10, R10, 1);
    a.label(skip);
}

fn astar_seq(n: usize) -> Program {
    let mut a = Asm::new("astar-seq");
    astar_prologue(&mut a, n);
    a.label("loop");
    astar_unit_sw(&mut a, R1);
    astar_update(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    astar_epilogue(&mut a);
    a.assemble().expect("astar seq")
}

/// Feeds unit `r30` into the SPL: cell(4B), dir(1B), wave|cost packed (4B).
fn astar_feed(a: &mut Asm) {
    a.andi(R5, R30, -4);
    a.add(R6, R19, R5);
    a.lw(R8, R6, 0); // cell
    a.add(R6, R15, R5);
    a.lw(R9, R6, 0); // wave
    a.slli(R5, R30, 2);
    a.add(R6, R16, R5);
    a.lw(R14, R6, 0); // cost[u]
    a.slli(R14, R14, 16);
    a.or(R9, R9, R14); // wave | cost<<16
    a.andi(R14, R30, 3);
    a.spl_load(R8, 0, 4);
    a.spl_load(R14, 4, 1);
    a.spl_load(R9, 8, 4);
    a.spl_init(CFG_MAIN);
}

/// Drains one packed (nbr | newdist<<16) result into `r8`/`r9`.
fn astar_drain(a: &mut Asm) {
    a.spl_store(R8);
    a.srli(R9, R8, 16);
    a.andi(R9, R9, 0xffff);
    a.andi(R8, R8, 0xffff);
}

fn astar_comp1t(n: usize) -> Program {
    let units = 4 * n;
    let mut a = Asm::new("astar-comp1t");
    astar_prologue(&mut a, n);
    a.li(R30, 0);
    a.li(R31, 4.min(units) as i32);
    if units > 0 {
        a.label("pro");
        astar_feed(&mut a);
        a.addi(R30, R30, 1);
        a.blt(R30, R31, "pro");
        a.label("main");
        astar_drain(&mut a);
        astar_update(&mut a);
        a.addi(R1, R1, 1);
        a.bge(R30, R2, "nofeed");
        astar_feed(&mut a);
        a.addi(R30, R30, 1);
        a.label("nofeed");
        a.blt(R1, R2, "main");
    }
    astar_epilogue(&mut a);
    a.assemble().expect("astar comp1t")
}

fn astar_producer(n: usize, t: Transport) -> Program {
    let mut a = Asm::new("astar-producer");
    astar_prologue(&mut a, n);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    astar_unit_sw(&mut a, R1);
    // pack nbr | newdist<<16
    a.slli(R9, R9, 16);
    a.or(R8, R8, R9);
    send(&mut a, t, R8);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("astar producer")
}

fn astar_consumer(n: usize, t: Transport) -> Program {
    let mut a = Asm::new("astar-consumer");
    astar_prologue(&mut a, n);
    if t == Transport::Swq {
        swq_prologue(&mut a);
    }
    a.label("loop");
    recv(&mut a, t, R8);
    a.srli(R9, R8, 16);
    a.andi(R9, R9, 0xffff);
    a.andi(R8, R8, 0xffff);
    astar_update(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    astar_epilogue(&mut a);
    a.assemble().expect("astar consumer")
}

fn astar_cc_producer(n: usize) -> Program {
    let mut a = Asm::new("astar-cc-producer");
    astar_prologue(&mut a, n);
    a.li(R30, 0);
    a.label("loop");
    astar_feed(&mut a);
    a.addi(R30, R30, 1);
    a.bne(R30, R2, "loop");
    a.halt();
    a.assemble().expect("astar cc producer")
}

fn astar_cc_consumer(n: usize) -> Program {
    let mut a = Asm::new("astar-cc-consumer");
    astar_prologue(&mut a, n);
    a.label("loop");
    astar_drain(&mut a);
    astar_update(&mut a);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    astar_epilogue(&mut a);
    a.assemble().expect("astar cc consumer")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every generated program for every benchmark, role, and transport
    /// assembles, is non-trivial, and ends with `halt`.
    #[test]
    fn all_programs_assemble_and_halt() {
        let n = 64;
        for b in CommBench::ALL {
            let mut progs = vec![
                seq(b, n),
                comp1t(b, n),
                compcomm_producer(b, n),
                compcomm_consumer(b, n),
            ];
            for t in [Transport::SplPass, Transport::Hwq, Transport::Swq] {
                progs.push(producer(b, n, t));
                progs.push(consumer(b, n, t));
            }
            for p in progs {
                assert!(
                    p.len() > 4,
                    "{}: suspiciously short program {}",
                    b.name(),
                    p.name()
                );
                assert_eq!(
                    p.insts().last().copied(),
                    Some(remap_isa::Inst::Halt),
                    "{}: {} must end with halt",
                    b.name(),
                    p.name()
                );
            }
        }
    }

    /// The branchy and branch-free wc step helpers keep the counter
    /// registers consistent (structural check: they never write r1-r4).
    #[test]
    fn wc_helpers_preserve_loop_registers() {
        let mut a = Asm::new("t");
        wc_classify_branchy(&mut a, R7);
        wc_unpack_totals(&mut a, 8);
        a.halt();
        let p = a.assemble().unwrap();
        for inst in p.insts() {
            if let Some(d) = inst.dest() {
                assert!(
                    ![R1, R2, R3, R4].contains(&d),
                    "helper clobbers loop register {d}"
                );
            }
        }
    }

    /// The software-queue emitters honor their documented register
    /// contract (clobbers limited to r24-r26 plus the destination).
    #[test]
    fn swq_register_contract() {
        let mut a = Asm::new("t");
        swq_prologue(&mut a);
        swq_send(&mut a, R7);
        swq_recv(&mut a, R8);
        a.halt();
        let p = a.assemble().unwrap();
        for inst in p.insts().iter().skip(4) {
            if let Some(d) = inst.dest() {
                assert!(
                    [R8, R23, R24, R25, R26].contains(&d),
                    "swq helper writes unexpected register {d}"
                );
            }
        }
    }
}
