//! Scratch-arena benchmark: what fresh per-op heap allocation costs on the
//! host hot path, and what the [`wd_polyring::scratch::ScratchArena`] lease
//! discipline buys back. Generates `results/arena_speedup.txt` (regenerate
//! with `cargo run --release -p wd-bench --bin alloc_bench >
//! results/arena_speedup.txt`; the drift checker maps the artifact to this
//! binary).
//!
//! Three sections, all deterministic (measured host numbers live in the
//! host benchmark, `benchmark/`):
//!
//! 1. **Modeled allocation overhead**: the fresh-allocation
//!    keyswitch re-mallocs its whole scratch working set — `3l + (dnum+2)·
//!    (l+k)` limb slabs — every op, paying malloc bookkeeping plus a soft
//!    page fault per fresh 4 KiB page. The arena path pays that bill once
//!    (warm-up) and additionally runs the fused slab kernels (mul-add
//!    accumulate, Shoup ModDown scaling) the planar layout enables. Priced
//!    per Table VI set in the same host INT32 units as `cost::host_*`, then
//!    swept over serving batch sizes at SET-C; the run *asserts* the ≥1.2×
//!    speedup gate at the saturating serving batch.
//! 2. **Steady-state lease drill**: after one warm-up
//!    keyswitch on a parameter-sized arena, every further op leases
//!    everything from the shelves — exact lease/reuse counts, **zero**
//!    fresh heap allocations per op, counter-asserted.
//! 3. **Exhaustion drill**: a 256-byte arena overflows on
//!    every slab lease, falls back to the heap, stays under its retention
//!    cap — and the output is still bit-identical to the same keyswitch
//!    under the context's own arena.
//!
//! Trace output (when `WD_TRACE` is on) goes to **stderr**: stdout is the
//! drift-checked artifact.

use warpdrive_core::cost;
use wd_bench::banner;
use wd_ckks::keyswitch::keyswitch;
use wd_ckks::{CkksContext, ParamSet};
use wd_polyring::scratch::{self, ScratchArena};

/// Host INT32 instructions for one malloc/free pair of a limb-sized slab.
/// Slabs at paper rings are ≥128 KiB, so glibc serves them straight from
/// `mmap`/`munmap` — two syscalls plus allocator bookkeeping.
const INSTR_PER_HEAP_ALLOC: f64 = 800.0;

/// Host INT32 instructions per fresh 4 KiB page on first touch: one soft
/// page fault (≈2 µs at a few GIPS), TLB fill, and kernel zeroing. Recycled
/// arena slabs pay none of this — their pages are already mapped and warm.
const INSTR_PER_FRESH_PAGE: f64 = 8000.0;

const PAGE_BYTES: f64 = 4096.0;

/// Host INT32 instructions per Shoup modular multiply (precomputed
/// quotient: mul-hi, mul-lo, one conditional subtract), vs
/// [`cost::INT32_PER_POINTWISE_MUL`] for the Barrett pointwise path. The
/// planar ModDown scaling kernel runs Shoup over contiguous slabs.
const INT32_PER_SHOUP_MUL: f64 = 8.0;

const BATCHES: [u64; 6] = [1, 2, 4, 8, 16, 32];
/// The saturating serving batch `serve_bench` gates its amortization at.
const SERVING_BATCH: u64 = 16;
const GATE_SPEEDUP: f64 = 1.2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "alloc_bench — scratch-arena allocation reuse on the host hot path",
        "memory-discipline datapoint (BENCH_arena.json; no paper table)",
    );

    let speedup = modeled_alloc_overhead();
    steady_state_drill()?;
    exhaustion_drill()?;

    // The claim the arena is built on, asserted every run.
    assert!(
        speedup >= GATE_SPEEDUP,
        "modeled arena speedup {speedup:.2}x breaches the {GATE_SPEEDUP:.2}x gate"
    );
    println!();
    println!(
        "PASS: modeled arena speedup {speedup:.2}x >= {GATE_SPEEDUP:.2}x at batch \
         {SERVING_BATCH}; steady-state heap allocs per op 0; exhaustion falls back bit-identically"
    );

    // Observability goes to stderr: stdout is the drift-checked artifact.
    if wd_trace::enabled() {
        eprintln!("{}", wd_trace::snapshot().summary_report());
    }
    Ok(())
}

/// Limb slabs the fresh-allocation keyswitch mallocs per op, under the same
/// α = 1, K = 1 shape as [`cost::host_keyswitch_instrs`]: the INTT'd input
/// (l), one full-basis ModUp extension per digit (dnum·(l+1)), both
/// InnerProduct accumulators (2·(l+1)), and ModDown's two base-conversion
/// temporaries (2·l). That is the allocate-per-step pipeline the model
/// prices; the pooled keyswitch holds `(l+1) + 2·(l+2) + 1` leased slabs
/// (input, accumulators, one scratch limb), which the drills below count.
fn scratch_slabs(l: usize) -> usize {
    let full = l + 1;
    let dnum = l;
    3 * l + (dnum + 2) * full
}

/// Modeled fresh-allocation overhead for one keyswitch working set: every
/// slab pays malloc bookkeeping plus a soft fault per fresh page.
fn alloc_instrs(n: usize, l: usize) -> f64 {
    let slab_pages = ((n * 8) as f64 / PAGE_BYTES).ceil();
    scratch_slabs(l) as f64 * (INSTR_PER_HEAP_ALLOC + slab_pages * INSTR_PER_FRESH_PAGE)
}

/// Instructions the planar slab kernels save per keyswitch: the fused
/// mul-add accumulate eliminates the InnerProduct's separate add pass
/// (2·dnum·(l+1) limb adds), and Shoup scaling replaces Barrett pointwise
/// multiplies in both ModDown rescales (2·l limbs).
fn fused_save_instrs(n: usize, l: usize) -> f64 {
    let full = l + 1;
    let dnum = l;
    let inner_adds = (2 * dnum * full) as f64 * cost::host_add_limb_instrs(n);
    let shoup = (2 * l * n) as f64 * (cost::INT32_PER_POINTWISE_MUL - INT32_PER_SHOUP_MUL);
    inner_adds + shoup
}

/// Modeled per-op cost of the fresh-allocation path (compute + the full
/// allocation bill, every op) and the arena path (fused compute, zero
/// steady-state allocations).
fn modeled_per_op(n: usize, l: usize) -> (f64, f64) {
    let compute = cost::host_heavy_op_instrs(n, l);
    (
        compute + alloc_instrs(n, l),
        compute - fused_save_instrs(n, l),
    )
}

/// Modeled allocation-overhead table per Table VI set, then the SET-C batch
/// sweep (the arena pays its warm-up allocation bill once per batch).
/// Returns the SET-C speedup at the saturating serving batch.
fn modeled_alloc_overhead() -> f64 {
    println!();
    println!("-- modeled fresh-alloc overhead vs arena reuse (host INT32 instrs) --");
    println!(
        "{:>7} {:>8} {:>4} {:>6} {:>9} {:>13} {:>13} {:>8}",
        "set", "N", "L", "slabs", "MiB/op", "alloc Minstr", "HMULT Minstr", "steady"
    );
    for set in ParamSet::table_vi() {
        let (fresh, arena) = modeled_per_op(set.n, set.level);
        let slabs = scratch_slabs(set.level);
        println!(
            "{:>7} {:>8} {:>4} {:>6} {:>9.1} {:>13.1} {:>13.1} {:>7.2}x",
            set.name,
            set.n,
            set.level,
            slabs,
            (slabs * set.n * 8) as f64 / (1 << 20) as f64,
            alloc_instrs(set.n, set.level) / 1e6,
            cost::host_heavy_op_instrs(set.n, set.level) / 1e6,
            fresh / arena
        );
    }

    // The arena's warm-up (filling the shelves) costs one allocation bill
    // per batch; every further op in the batch leases for free.
    let (n, l) = (1usize << 14, 14usize); // SET-C
    let (fresh, arena) = modeled_per_op(n, l);
    let warmup = alloc_instrs(n, l);
    println!();
    println!("-- SET-C HMULT+keyswitch serving batch sweep (one arena warm-up per batch) --");
    println!(
        "{:>6} {:>14} {:>14} {:>9}",
        "batch", "fresh Minstr", "arena Minstr", "speedup"
    );
    let mut at_serving = 0.0;
    for &b in &BATCHES {
        let fresh_total = b as f64 * fresh;
        let arena_total = b as f64 * arena + warmup;
        let s = fresh_total / arena_total;
        println!(
            "{b:>6} {:>14.1} {:>14.1} {:>8.2}x",
            fresh_total / 1e6,
            arena_total / 1e6,
            s
        );
        if b == SERVING_BATCH {
            at_serving = s;
        }
    }
    println!(
        "modeled arena speedup at serving batch {SERVING_BATCH}: {at_serving:.2}x  \
         (gate: >= {GATE_SPEEDUP:.2}x)"
    );
    at_serving
}

/// After one warm-up keyswitch on a parameter-sized arena, every further op
/// is pure shelf reuse: exact lease accounting, zero heap allocations.
fn steady_state_drill() -> Result<(), Box<dyn std::error::Error>> {
    let params = ParamSet::set_a().with_degree(1 << 6).build()?;
    let ctx = CkksContext::with_seed(params, 93)?;
    let kp = ctx.keygen();
    let d = ctx.encode(&[0.5, 1.0, -1.5])?.poly;
    let arena = warpdrive_core::arena::worker_arena(ctx.params(), u64::MAX)?;
    const OPS: u64 = 4;
    let (warm, after) = scratch::with_worker_arena(&arena, || {
        keyswitch(&ctx, &d, &kp.relin)?; // warm-up: every shape parked once
        let warm = arena.stats();
        for _ in 0..OPS {
            keyswitch(&ctx, &d, &kp.relin)?;
        }
        Ok::<_, wd_ckks::CkksError>((warm, arena.stats()))
    })?;
    let leases = after.leases - warm.leases;
    let reuses = after.reuses - warm.reuses;
    let heap = after.heap_allocs() - warm.heap_allocs();
    println!();
    println!("-- steady-state lease drill (deterministic, N=2^6 sized arena) --");
    println!(
        "  warm-up keyswitch: {} leases, {} fresh heap allocations parked",
        warm.leases, warm.fresh
    );
    println!(
        "  {OPS} warm keyswitches: {leases} leases = {} per op, {reuses} reuses, \
         {heap} heap allocations",
        leases / OPS
    );
    println!("  steady-state heap allocations per op: 0");
    assert_eq!(heap, 0, "steady-state ops must lease everything: {after:?}");
    assert_eq!(reuses, leases, "every steady-state lease is a shelf reuse");
    assert_eq!(leases % OPS, 0, "lease count per op must be exact");
    Ok(())
}

/// A 256-byte arena on the worker thread: slab leases overflow the cap and
/// fall back to plain heap, retention stays bounded, and the output is
/// bit-identical to the same keyswitch under the context's own arena.
fn exhaustion_drill() -> Result<(), Box<dyn std::error::Error>> {
    let params = ParamSet::set_a().with_degree(1 << 6).build()?;
    let ctx = CkksContext::with_seed(params, 94)?;
    let kp = ctx.keygen();
    let d = ctx.encode(&[2.0, -0.5])?.poly;
    let expect = keyswitch(&ctx, &d, &kp.relin)?;

    let tiny = ScratchArena::with_capacity(256);
    let got = scratch::with_worker_arena(&tiny, || keyswitch(&ctx, &d, &kp.relin))?;
    assert_eq!(got, expect, "exhausted arena must stay bit-identical");
    let st = tiny.stats();
    println!();
    println!("-- exhaustion drill (deterministic, 256-byte arena) --");
    println!(
        "  1 keyswitch: {} leases, {} heap fallbacks, {} bytes parked (cap 256)",
        st.leases,
        st.fallbacks,
        tiny.parked_bytes()
    );
    println!("  output bit-identical to keyswitch under the context's own arena");
    assert!(
        st.fallbacks > 0,
        "slab leases must overflow 256 bytes: {st:?}"
    );
    assert!(tiny.parked_bytes() <= 256, "retention stays under the cap");
    Ok(())
}
