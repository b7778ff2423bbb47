//! Wave execution: each topological layer of a compiled program becomes
//! one [`BatchOp`] batch handed to [`BatchExecutor::execute`], so
//! independent DAG nodes fan out across the op-level axis.
//!
//! [`execute_many`] is the serving entry point: it merges the
//! same-numbered waves of *heterogeneous* programs into combined batches —
//! wave `w` of every live program runs as one batch — which is how
//! different tenants' compiled programs share executor fan-out.
//!
//! **Value lifetimes.** A program's memory follows its live set, not its
//! length. Inputs are borrowed from the caller, never copied. Compilation
//! records, per wave, the steps whose last reader runs in that wave
//! ([`CompiledProgram::schedule`]), and each such value is dropped right
//! after its wave; a job that fails drops everything at once. Outputs are
//! moved out at the end (an output that is also an input, or is declared
//! twice, comes back as a copy). `graph.exec.released` counts the computed
//! values dropped before the end, and the `graph.exec.live` gauge samples
//! how many are held after each wave.
//!
//! Execution is bit-identical to hand-sequencing the same `wd_ckks::ops`
//! calls: every step lowers to exactly one such call with deterministic
//! operands, and the executor's fault-recovery envelope already guarantees
//! per-op bit-identical recovery under injection.

use std::borrow::Cow;

use crate::compile::{CompiledProgram, Step};
use warpdrive_core::{BatchExecutor, BatchOp, EvalKeys};
use wd_ckks::cipher::{relative_eq, Ciphertext, Plaintext};
use wd_ckks::encoding::C64;
use wd_ckks::{CkksContext, CkksError, OperandMismatch};

/// One program's run state.
struct JobState<'a> {
    /// Value slot per step: inputs borrowed from the caller, computed
    /// values owned; emptied once the last reader has run.
    values: Vec<Option<Cow<'a, Ciphertext>>>,
    /// Pre-encoded broadcast plaintexts for `AddConst`/`PMultConst` steps.
    plaintexts: Vec<Option<Plaintext>>,
    /// The first error this program hit, if any; later waves skip it.
    failed: Option<CkksError>,
}

impl JobState<'_> {
    /// Empties the slots of `steps`, returning how many held a computed
    /// (owned) value.
    fn release(&mut self, steps: impl IntoIterator<Item = usize>) -> u64 {
        let mut owned = 0;
        for s in steps {
            if let Some(Cow::Owned(_)) = self.values[s].take() {
                owned += 1;
            }
        }
        owned
    }
}

impl CompiledProgram {
    /// Runs the program on `inputs`, wave by wave through `executor`.
    /// Returns one ciphertext per declared output.
    ///
    /// # Errors
    ///
    /// Input arity/level/scale mismatches (typed, before any compute), and
    /// any per-op execution error.
    pub fn execute(
        &self,
        ctx: &CkksContext,
        keys: EvalKeys<'_>,
        inputs: &[Ciphertext],
        executor: &BatchExecutor,
    ) -> Result<Vec<Ciphertext>, CkksError> {
        execute_many(ctx, keys, &[(self, inputs)], executor)
            .pop()
            .expect("one job in, one result out")
    }

    /// Validates an input set against the compiled expectations without
    /// executing anything.
    ///
    /// # Errors
    ///
    /// [`CkksError::DimensionMismatch`] on arity,
    /// [`CkksError::LevelMismatch`] (structured) on level/scale.
    pub fn check_inputs(&self, inputs: &[Ciphertext]) -> Result<(), CkksError> {
        if inputs.len() != self.input_count {
            return Err(CkksError::DimensionMismatch {
                got: inputs.len(),
                want: self.input_count,
            });
        }
        for ct in inputs {
            if ct.level != self.input_level || !relative_eq(ct.scale, self.input_scale) {
                return Err(CkksError::LevelMismatch(OperandMismatch::new(
                    "graph.input",
                    (self.input_level, self.input_scale),
                    (ct.level, ct.scale),
                )));
            }
        }
        Ok(())
    }
}

/// Executes many compiled programs with wave-level merging: round `w` runs
/// wave `w` of every still-live program as **one** executor batch. Returns
/// per-program results in input order; one program's failure never aborts
/// the others.
///
/// Each merged batch is one [`BatchExecutor::execute`] call, so whatever
/// the executor was built with — a scheduler, a fault plan — composes with
/// the graph level here without this function knowing.
pub fn execute_many(
    ctx: &CkksContext,
    keys: EvalKeys<'_>,
    jobs: &[(&CompiledProgram, &[Ciphertext])],
    executor: &BatchExecutor,
) -> Vec<Result<Vec<Ciphertext>, CkksError>> {
    let _span = wd_trace::span("graph", "execute");
    wd_trace::counter("graph.exec.programs", jobs.len() as u64);
    let slots = ctx.params().slots();

    // Per-job setup: input validation, input slots, plaintext encoding.
    let mut states: Vec<JobState> = jobs
        .iter()
        .map(|(prog, inputs)| {
            let mut st = JobState {
                values: vec![None; prog.steps.len()],
                plaintexts: vec![None; prog.steps.len()],
                failed: None,
            };
            if let Err(e) = prog.check_inputs(inputs) {
                st.failed = Some(e);
                return st;
            }
            for (s, info) in prog.steps.iter().enumerate() {
                match info.op {
                    Step::Input(i) => st.values[s] = Some(Cow::Borrowed(&inputs[i])),
                    // Broadcast constants encode exactly as the reference
                    // does: AddConst at the operand's level and scale,
                    // PMultConst at the operand's level and scale Δ.
                    Step::AddConst(a, c) => {
                        let at = &prog.steps[a];
                        match ctx.encode_complex_at(
                            &vec![C64::new(c, 0.0); slots],
                            at.level,
                            at.scale,
                        ) {
                            Ok(pt) => st.plaintexts[s] = Some(pt),
                            Err(e) => st.failed = Some(e),
                        }
                    }
                    Step::PMultConst(a, c) => {
                        let at = &prog.steps[a];
                        match ctx.encode_complex_at(
                            &vec![C64::new(c, 0.0); slots],
                            at.level,
                            ctx.params().scale(),
                        ) {
                            Ok(pt) => st.plaintexts[s] = Some(pt),
                            Err(e) => st.failed = Some(e),
                        }
                    }
                    _ => {}
                }
                if st.failed.is_some() {
                    break;
                }
            }
            st
        })
        .collect();

    // Wave rounds: merge wave `w` of every live program into one batch.
    let rounds = jobs.iter().map(|(p, _)| p.wave_count()).max().unwrap_or(0);
    // Computed values held across every job, and those dropped early.
    let (mut live, mut released) = (0u64, 0u64);
    for w in 0..rounds {
        // (job, step) backrefs aligned with the merged batch.
        let mut sites: Vec<(usize, usize)> = Vec::new();
        for (j, (prog, _)) in jobs.iter().enumerate() {
            if states[j].failed.is_some() || w >= prog.wave_count() {
                continue;
            }
            sites.extend(prog.waves[w].iter().map(|&s| (j, s)));
        }
        if sites.is_empty() {
            continue;
        }
        let batch: Vec<BatchOp<'_>> = sites
            .iter()
            .map(|&(j, s)| {
                let st = &states[j];
                let ct = |i: usize| st.values[i].as_deref().expect("operand in earlier wave");
                let pt = || st.plaintexts[s].as_ref().expect("encoded in setup");
                match jobs[j].0.steps[s].op {
                    Step::Input(_) => unreachable!("inputs are wave-less"),
                    Step::HAdd(a, b) => BatchOp::HAdd(ct(a), ct(b)),
                    Step::HSub(a, b) => BatchOp::HSub(ct(a), ct(b)),
                    Step::Neg(a) => BatchOp::HNeg(ct(a)),
                    Step::AddConst(a, _) => BatchOp::AddPlain(ct(a), pt()),
                    Step::MulRelin(a, b) => BatchOp::HMult(ct(a), ct(b)),
                    Step::PMultConst(a, _) => BatchOp::PMult(ct(a), pt()),
                    Step::HRotate(a, r) => BatchOp::HRotate(ct(a), r),
                    Step::Rescale(a) => BatchOp::Rescale(ct(a)),
                    Step::LevelDrop(a, to) => BatchOp::LevelDrop(ct(a), to),
                }
            })
            .collect();
        wd_trace::counter("graph.exec.waves", 1);
        wd_trace::counter("graph.exec.ops", batch.len() as u64);
        let results = executor.execute(ctx, keys, &batch);
        drop(batch);
        for ((j, s), res) in sites.into_iter().zip(results) {
            match res {
                Ok(ct) => {
                    states[j].values[s] = Some(Cow::Owned(ct));
                    live += 1;
                }
                // First error wins; the job's later waves are skipped.
                Err(e) => {
                    states[j].failed.get_or_insert(e);
                }
            }
        }
        // Drop what this wave read for the last time; a failed job holds
        // nothing from here on.
        for ((prog, _), st) in jobs.iter().zip(&mut states) {
            let dropped = if st.failed.is_some() {
                st.release(0..prog.steps.len())
            } else if let Some(steps) = prog.releases.get(w) {
                st.release(steps.iter().copied())
            } else {
                0
            };
            live -= dropped;
            released += dropped;
        }
        wd_trace::gauge("graph.exec.live", live);
    }
    wd_trace::counter("graph.exec.released", released);

    jobs.iter()
        .zip(states)
        .map(|((prog, _), mut st)| match st.failed {
            Some(e) => Err(e),
            None => Ok(prog
                .outputs
                .iter()
                .enumerate()
                .map(|(k, &s)| {
                    let slot = &mut st.values[s];
                    let v = if prog.outputs[k + 1..].contains(&s) {
                        slot.clone()
                    } else {
                        slot.take()
                    };
                    v.expect("output computed").into_owned()
                })
                .collect()),
        })
        .collect()
}
