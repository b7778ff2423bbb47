//! Recursive 4-step NTT parameterized by an inner kernel.
//!
//! This is the functional model of WarpDrive-NTT's "OneStageNTTKernel"
//! (Algorithm 2): the transform follows a [`DecompPlan`] factor tree; each
//! leaf is an inner NTT executed by an [`InnerKernel`] — the tensor-core
//! GEMM path (with bit split/merge), the CUDA INT32 GEMM path, high-radix
//! butterflies, or a *fused* pair where tensor-core warps and CUDA-core
//! warps each take a share of the parallel inner-NTT groups (§IV-B, Fig. 3).
//! Every kernel choice produces bit-identical output, which the tests assert
//! against the reference transform.
//!
//! This engine is a paper artifact, not a hot path: it works in **natural
//! order** with an explicit ψ pre-/post-scaling pass, and owns the ψ-power
//! table that takes. Its output equals [`NttTable::forward`] after
//! [`NttTable::bit_reverse`].

use crate::decomp::{DecompPlan, PlanNode};
use crate::ntt::NttTable;
use crate::scratch::ScratchArena;
use crate::tensoremu::{CudaMatrix, TensorMatrix};
use crate::PolyError;
use std::collections::HashMap;
use std::sync::Arc;

/// Which processing units execute the inner NTT leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InnerKernel {
    /// Emulated INT8 tensor-core GEMM with bit split/merge (WD-Tensor).
    TensorGemm,
    /// Native 32-bit GEMM on CUDA cores, no bit operations (WD-CUDA).
    CudaGemm,
    /// High-radix butterfly network on CUDA cores (WD-BO).
    Butterfly,
    /// Fused: tensor-core warps run `TensorGemm`, CUDA-core warps run
    /// `CudaGemm`, split per group by the warp ratio (WD-FTC).
    FusedTensorCuda {
        /// Of every `tensor + cuda` consecutive groups, this many go to
        /// tensor-core warps…
        tensor: u8,
        /// …and this many to CUDA-core warps.
        cuda: u8,
    },
    /// Fused: tensor-core warps run `TensorGemm`, CUDA-core warps run
    /// butterflies (WD-FUSE, the paper's default).
    FusedTensorButterfly {
        /// Tensor-core share of each group cycle.
        tensor: u8,
        /// Butterfly (CUDA-core) share of each group cycle.
        cuda: u8,
    },
}

impl InnerKernel {
    /// Routes a parallel group index to the concrete kernel that executes it.
    fn route(&self, group: usize) -> ConcreteKernel {
        match *self {
            InnerKernel::TensorGemm => ConcreteKernel::Tensor,
            InnerKernel::CudaGemm => ConcreteKernel::Cuda,
            InnerKernel::Butterfly => ConcreteKernel::Butterfly,
            InnerKernel::FusedTensorCuda { tensor, cuda } => {
                let cycle = usize::from(tensor) + usize::from(cuda);
                if group % cycle < usize::from(tensor) {
                    ConcreteKernel::Tensor
                } else {
                    ConcreteKernel::Cuda
                }
            }
            InnerKernel::FusedTensorButterfly { tensor, cuda } => {
                let cycle = usize::from(tensor) + usize::from(cuda);
                if group % cycle < usize::from(tensor) {
                    ConcreteKernel::Tensor
                } else {
                    ConcreteKernel::Butterfly
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum ConcreteKernel {
    Tensor,
    Cuda,
    Butterfly,
}

/// Precomputed per-leaf-size tables (twiddle matrices in every operand
/// format, plus butterfly stage twiddles), for one direction.
#[derive(Debug)]
struct LeafTables {
    tensor: TensorMatrix,
    cuda: CudaMatrix,
    /// Stage twiddles for an iterative cyclic NTT of this size, plain domain.
    stages: Vec<Vec<u64>>,
}

/// The 4-step NTT engine for a fixed (q, N, plan, kernel) choice.
#[derive(Debug)]
pub struct FourStepNtt {
    table: Arc<NttTable>,
    plan: DecompPlan,
    kernel: InnerKernel,
    fwd_leaves: HashMap<usize, LeafTables>,
    inv_leaves: HashMap<usize, LeafTables>,
    /// ψ^e for e in 0..2N, plain domain: ω^e = ψ^{2e}, and negative powers
    /// are read from the far end (ψ^{2N} = 1).
    psi_pows: Vec<u64>,
    /// N⁻¹, the inverse transform's scaling.
    n_inv: u64,
    /// Recursion scratch (column gathers, transposes, GEMV outputs) is
    /// leased instead of allocated per call: after the first transform the
    /// engine runs allocation-free. Live scratch per transform is under 3N
    /// words (one column + one transpose buffer per recursion level, sizes
    /// shrinking geometrically), so 4N words covers any plan; deeper
    /// concurrency falls back to the heap harmlessly.
    scratch: Arc<ScratchArena>,
}

impl FourStepNtt {
    /// Builds the engine. `table` supplies ψ/ω tables for (q, N); `plan`
    /// must cover the same N.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::BadPlan`] if the plan size differs from the
    /// table degree.
    pub fn new(
        table: Arc<NttTable>,
        plan: DecompPlan,
        kernel: InnerKernel,
    ) -> Result<Self, PolyError> {
        if plan.n() != table.degree() {
            return Err(PolyError::BadPlan(format!(
                "plan covers {} but ring degree is {}",
                plan.n(),
                table.degree()
            )));
        }
        let n = table.degree();
        let m = table.modulus();
        let psi_pows: Vec<u64> =
            std::iter::successors(Some(1u64), |&p| Some(m.mul(p, table.psi())))
                .take(2 * n)
                .collect();
        let n_inv = m.inv(n as u64).expect("n invertible");
        let mut engine = Self {
            table,
            plan,
            kernel,
            fwd_leaves: HashMap::new(),
            inv_leaves: HashMap::new(),
            psi_pows,
            n_inv,
            scratch: ScratchArena::with_capacity(4 * (n as u64) * 8),
        };
        for sz in engine.plan.root().leaves() {
            if !engine.fwd_leaves.contains_key(&sz) {
                let (fwd, inv) = (engine.build_leaf(sz, false), engine.build_leaf(sz, true));
                engine.fwd_leaves.insert(sz, fwd);
                engine.inv_leaves.insert(sz, inv);
            }
        }
        Ok(engine)
    }

    /// ω^{±e} for the N-point cyclic transform (ω = ψ²).
    fn omega_pow(&self, e: usize, inverse: bool) -> u64 {
        let two_n = self.psi_pows.len();
        let e = 2 * e % two_n;
        self.psi_pows[if inverse { (two_n - e) % two_n } else { e }]
    }

    fn build_leaf(&self, sz: usize, inverse: bool) -> LeafTables {
        let m = *self.table.modulus();
        let stride = self.table.degree() / sz; // ω_sz = ω_N^{N/sz}
        let wpow = |e: usize| self.omega_pow(e * stride, inverse);
        let mut w = Vec::with_capacity(sz * sz);
        for k in 0..sz {
            for j in 0..sz {
                w.push(wpow((j * k) % sz));
            }
        }
        // Butterfly stage twiddles for an iterative cyclic NTT of size sz.
        let log = sz.trailing_zeros();
        let mut stages = Vec::with_capacity(log as usize);
        for s in 1..=log {
            let len = 1usize << s;
            let stage_stride = sz / len;
            stages.push((0..len / 2).map(|j| wpow(j * stage_stride)).collect());
        }
        LeafTables {
            tensor: TensorMatrix::new(m, sz, &w),
            cuda: CudaMatrix::new(m, sz, w),
            stages,
        }
    }

    /// The decomposition plan.
    pub fn plan(&self) -> &DecompPlan {
        &self.plan
    }

    /// The inner-kernel choice.
    pub fn kernel(&self) -> InnerKernel {
        self.kernel
    }

    /// Negacyclic forward NTT, natural order ([`NttTable::forward`] followed
    /// by [`NttTable::bit_reverse`]).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N`.
    pub fn forward(&self, data: &mut [u64]) {
        let n = self.table.degree();
        assert_eq!(data.len(), n);
        // ψ pre-scale then the recursive cyclic transform.
        let m = self.table.modulus();
        for (a, &w) in data.iter_mut().zip(&self.psi_pows) {
            *a = m.mul(*a, w);
        }
        self.rec(data, self.plan.root(), false, 0);
    }

    /// Negacyclic inverse NTT, natural order ([`NttTable::bit_reverse`]
    /// followed by [`NttTable::inverse`]).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N`.
    pub fn inverse(&self, data: &mut [u64]) {
        let n = self.table.degree();
        assert_eq!(data.len(), n);
        self.rec(data, self.plan.root(), true, 0);
        // Post-scale by ψ^{-j}·N⁻¹.
        let m = self.table.modulus();
        let two_n = self.psi_pows.len();
        for (j, a) in data.iter_mut().enumerate() {
            *a = m.mul(m.mul(*a, self.psi_pows[(two_n - j) % two_n]), self.n_inv);
        }
    }

    fn rec(&self, data: &mut [u64], node: &PlanNode, inverse: bool, group: usize) {
        match node {
            PlanNode::Leaf(sz) => self.apply_leaf(*sz, data, inverse, group),
            PlanNode::Split(a, b) => {
                let n1 = a.size();
                let n2 = b.size();
                let n = n1 * n2;
                let m = self.table.modulus();
                let big_n = self.table.degree();
                let stride = big_n / n;
                // Step 1: column NTTs of size n1 (stride n2 gather/scatter).
                let mut col = self.scratch.lease(n1);
                for j2 in 0..n2 {
                    for j1 in 0..n1 {
                        col[j1] = data[j1 * n2 + j2];
                    }
                    self.rec(&mut col, a, inverse, group + j2);
                    for k1 in 0..n1 {
                        data[k1 * n2 + j2] = col[k1];
                    }
                }
                // Step 2: twiddle ω_n^{±j2·k1} (the Hadamard stage).
                for k1 in 1..n1 {
                    for j2 in 1..n2 {
                        let w = self.omega_pow((j2 * k1) % n * stride, inverse);
                        let idx = k1 * n2 + j2;
                        data[idx] = m.mul(data[idx], w);
                    }
                }
                // Step 3: row NTTs of size n2 (contiguous).
                for k1 in 0..n1 {
                    self.rec(&mut data[k1 * n2..(k1 + 1) * n2], b, inverse, group + k1);
                }
                // Step 4: transpose read-out — X[k1 + k2·n1] = C[k1][k2].
                let mut scratch = self.scratch.lease(n);
                for k1 in 0..n1 {
                    for k2 in 0..n2 {
                        scratch[k1 + k2 * n1] = data[k1 * n2 + k2];
                    }
                }
                data.copy_from_slice(&scratch);
            }
        }
    }

    fn apply_leaf(&self, sz: usize, data: &mut [u64], inverse: bool, group: usize) {
        let tables = if inverse {
            &self.inv_leaves[&sz]
        } else {
            &self.fwd_leaves[&sz]
        };
        match self.kernel.route(group) {
            ConcreteKernel::Tensor => {
                let mut out = self.scratch.lease(sz);
                tables.tensor.gemv(data, &mut out);
                data.copy_from_slice(&out);
            }
            ConcreteKernel::Cuda => {
                let mut out = self.scratch.lease(sz);
                tables.cuda.gemv(data, &mut out);
                data.copy_from_slice(&out);
            }
            ConcreteKernel::Butterfly => {
                small_cyclic_ntt(self.table.modulus(), &tables.stages, data);
            }
        }
    }
}

/// Iterative cyclic NTT on a small leaf, given per-stage plain-domain
/// twiddles (the butterfly path of WD-BO / WD-FUSE).
fn small_cyclic_ntt(m: &wd_modmath::Modulus, stages: &[Vec<u64>], data: &mut [u64]) {
    NttTable::bit_reverse(data);
    for (s, tw) in stages.iter().enumerate() {
        let len = 1usize << (s + 1);
        let half = len / 2;
        for block in data.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(half);
            for j in 0..half {
                let u = lo[j];
                let v = m.mul(hi[j], tw[j]);
                lo[j] = m.add(u, v);
                hi[j] = m.sub(u, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wd_modmath::prime::ntt_prime_above;

    fn setup(n: usize) -> Arc<NttTable> {
        let q = ntt_prime_above(1 << 25, 2 * n as u64).unwrap();
        Arc::new(NttTable::new(q, n).unwrap())
    }

    /// The reference transform mapped to this engine's natural order.
    fn reference_forward(table: &NttTable, data: &[u64]) -> Vec<u64> {
        let mut x = data.to_vec();
        table.forward(&mut x);
        NttTable::bit_reverse(&mut x);
        x
    }

    fn engines(table: &Arc<NttTable>, n: usize) -> Vec<FourStepNtt> {
        let kernels = [
            InnerKernel::TensorGemm,
            InnerKernel::CudaGemm,
            InnerKernel::Butterfly,
            InnerKernel::FusedTensorCuda { tensor: 4, cuda: 4 },
            InnerKernel::FusedTensorButterfly { tensor: 4, cuda: 4 },
        ];
        let mut v = Vec::new();
        for k in kernels {
            for plan in [
                DecompPlan::warpdrive(n).unwrap(),
                DecompPlan::balanced(n, 1).unwrap(),
            ] {
                v.push(FourStepNtt::new(Arc::clone(table), plan, k).unwrap());
            }
        }
        v
    }

    #[test]
    fn all_kernels_match_reference_forward() {
        let n = 256;
        let table = setup(n);
        let data: Vec<u64> = (0..n as u64)
            .map(|i| i * 31 % table.modulus().value())
            .collect();
        let expect = reference_forward(&table, &data);
        for eng in engines(&table, n) {
            let mut x = data.clone();
            eng.forward(&mut x);
            assert_eq!(x, expect, "kernel {:?}", eng.kernel());
        }
    }

    #[test]
    fn all_kernels_round_trip() {
        let n = 1024;
        let table = setup(n);
        let data: Vec<u64> = (0..n as u64)
            .map(|i| (i * i * 7 + 13) % table.modulus().value())
            .collect();
        for eng in engines(&table, n) {
            let mut x = data.clone();
            eng.forward(&mut x);
            eng.inverse(&mut x);
            assert_eq!(x, data, "kernel {:?}", eng.kernel());
        }
    }

    #[test]
    fn fourstep_inverse_matches_reference_inverse() {
        let n = 256;
        let table = setup(n);
        let expect: Vec<u64> = (0..n as u64).map(|i| i + 5).collect();
        let data = reference_forward(&table, &expect);
        let eng = FourStepNtt::new(
            Arc::clone(&table),
            DecompPlan::warpdrive(n).unwrap(),
            InnerKernel::TensorGemm,
        )
        .unwrap();
        let mut x = data;
        eng.inverse(&mut x);
        assert_eq!(x, expect);
    }

    #[test]
    fn deep_balanced_plan_with_small_leaves_bit_exact() {
        // §IV-A-2 rejects deeper decomposition for performance, not
        // correctness: a plan with radix-8 leaves is handled bit-exactly.
        let n = 4096;
        let table = setup(n);
        let plan = DecompPlan::balanced(n, 3).unwrap();
        assert!(plan.root().depth() >= 2);
        assert!(
            plan.root().leaves().contains(&8),
            "{:?}",
            plan.root().leaves()
        );
        let eng = FourStepNtt::new(Arc::clone(&table), plan, InnerKernel::CudaGemm).unwrap();
        let data: Vec<u64> = (0..n as u64)
            .map(|i| (i * 11 + 3) % table.modulus().value())
            .collect();
        let expect = reference_forward(&table, &data);
        let mut x = data;
        eng.forward(&mut x);
        assert_eq!(x, expect);
    }

    #[test]
    fn rejects_mismatched_plan() {
        let table = setup(64);
        let plan = DecompPlan::warpdrive(128).unwrap();
        assert!(FourStepNtt::new(table, plan, InnerKernel::CudaGemm).is_err());
    }

    #[test]
    fn undecomposed_plan_works_for_small_n() {
        // 0-level: the whole 16-point transform is one tensor GEMV.
        let n = 16;
        let table = setup(n);
        let plan = DecompPlan::undecomposed(n).unwrap();
        let eng = FourStepNtt::new(Arc::clone(&table), plan, InnerKernel::TensorGemm).unwrap();
        let data: Vec<u64> = (1..=n as u64).collect();
        let expect = reference_forward(&table, &data);
        let mut x = data;
        eng.forward(&mut x);
        assert_eq!(x, expect);
    }
}
