//! `wd-graph` — the FHE program compiler: ciphertext computation DAGs with
//! automatic level management, common-subexpression elimination, and
//! graph-level (wave) scheduling.
//!
//! Every workload before this crate hand-sequenced
//! `hmult → rescale → hrotate` against the raw `wd-ckks` API, which makes
//! level/scale bookkeeping the caller's problem and hides cross-op
//! parallelism from the scheduler. GPU FHE libraries get their wins from
//! orchestrating whole op sequences, not single primitives, so the host
//! side needs a program-level IR:
//!
//! 1. **Build** ([`Graph`]): a value-numbered DAG of symbolic ciphertext
//!    ops — `input`/`const`/`hadd`/`hsub`/`hmult`/`pmult`/`hrotate`/
//!    `rescale`/`relin`. Structurally identical nodes get the same
//!    [`NodeId`] at insertion time (build-time CSE).
//! 2. **Compile** ([`Graph::compile`]): infers levels and scales along
//!    every path, auto-inserts `rescale`/`relin`/level-alignment nodes,
//!    validates modulus-chain depth against the `ParamSet`, folds and
//!    CSE's the normalized DAG, prunes dead nodes, and lowers to a **wave
//!    schedule** — topological layers of independent ops. Everything that
//!    can go wrong surfaces as a typed [`GraphError`] *before any
//!    ciphertext is touched*.
//! 3. **Execute** ([`CompiledProgram::execute`] / [`execute_many`]): each
//!    wave becomes one [`warpdrive_core::BatchOp`] batch handed to the
//!    [`warpdrive_core::BatchExecutor`], so independent DAG nodes become a
//!    **third parallelism axis** alongside op- and limb-level — and
//!    compose with the executor's `Placer` device sharding. [`execute_many`] merges the
//!    same-numbered waves of *heterogeneous* programs into combined
//!    batches, which is what lets `wd-serve` batch different tenants'
//!    compiled programs together.
//!
//! Execution is bit-identical to the hand-sequenced reference because each
//! step lowers to exactly the `wd_ckks::ops` call the reference would
//! make, in a deterministic order.
//!
//! ```
//! use wd_ckks::ParamSet;
//! use wd_graph::{CompileOptions, Graph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = ParamSet::set_a().with_degree(1 << 6).build()?;
//! let mut g = Graph::new();
//! let x = g.input();
//! let y = g.input();
//! let xy = g.mul(x, y); // compiler inserts relin + rescale
//! let rot = g.rotate(xy, 1);
//! let sum = g.add(xy, rot);
//! let half = g.mul_const(sum, 0.5); // pmult by a broadcast constant
//! g.output(half);
//! let prog = g.compile(&params, &CompileOptions::new().with_rotation_steps(&[1]))?;
//! assert!(prog.stats().inserted_rescales >= 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod compile;
mod exec;
mod ir;

pub use compile::{CompileOptions, CompileStats, CompiledProgram, GraphError};
pub use exec::execute_many;
pub use ir::{Graph, NodeId, NodeOp};
