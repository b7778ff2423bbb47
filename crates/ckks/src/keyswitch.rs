//! Hybrid key switching: ModUp → InnerProduct → ModDown (Han–Ki \[26\]).
//!
//! This is the kernel pipeline the paper's Fig. 4 and Table IX dissect. The
//! paper's third contribution is to treat the whole ciphertext as one pass
//! (59–109 kernels → 11) and to keep operands resident in registers and
//! shared memory between logical steps (Fig. 2); the *kernel grouping* of
//! the paper's sequence lives in `warpdrive-core::planner`. This module is
//! the same idea turned on the host: the composition is **limb-major**, each
//! step does only the arithmetic its shape needs, and what one target limb
//! needs stays in cache until that limb is finished.
//!
//! # What a keyswitch computes, limb by limb
//!
//! The operand d arrives in NTT form over q_0…q_ℓ and is split into `dnum`
//! digits of α primes each (α = K, the special-prime count; Table VI fixes
//! K = 1, so a digit is a *single limb*). For digit j and target limb t of
//! the full basis Q_ℓ ∪ P, the ModUp output in NTT form is
//!
//! - **copied** when t is one of the digit's own primes: base extension is
//!   the identity there, and the NTT of that limb is the operand limb
//!   `d.limb(t)` itself — no INTT → restore → NTT round trip;
//! - **lifted and transformed** otherwise: the digit's coefficient-domain
//!   limbs (one INTT of d, shared by every digit) are converted to prime t
//!   by [`wd_modmath::rns::BasisConverter::convert_limb_into`] — with one
//!   source limb the centred lift `(x − [x > q/2]·q) mod p_t`, one compare
//!   and one conditional add per word — and forward-transformed.
//!
//! `Decomposition::extend_into` is that one (digit, target limb) step, and
//! every composition below is built from it.
//!
//! # Three stages, each written once
//!
//! - `Decomposition`: **ModUp**. Each digit borrows its converter from the
//!   context's per-level cache, built with the context.
//! - `inner_product`: **one work list over the target limbs**. For each
//!   target limb, for each digit: produce that digit's limb in a one-limb
//!   scratch, then multiply-accumulate it into `acc0[t]` and `acc1[t]`
//!   against both key limbs in one pass
//!   ([`wd_modmath::slab::mul_add2_lazy`]). The key limbs are 32-bit words
//!   ([`crate::keys::KeyPoly`]) read once each from a key far larger than
//!   L2, so the pass streams half the bytes a `u64` key did, and the
//!   accumulators take each product as a plain integer: one fold to
//!   `[0, q)` ([`wd_modmath::Modulus::fold_slab_assign`]) ends the limb, with
//!   one more every [`wd_modmath::Modulus::lazy_terms`] digits (16 for a
//!   prime just below 2^30; thousands for Table VI's primes, so one fold
//!   per limb there). The two accumulator limbs (64 KiB each at SET-B,
//!   128 KiB at SET-C) stay cache-hot across all digits, the extension
//!   buffer is one limb per thread instead of a full-basis polynomial, and
//!   there is no barrier between digits.
//! - `mod_down`: CKKS **ModDown**. Only the K special limbs are
//!   inverse-transformed; `sub_lifted_and_scale` then, per kept limb, lifts
//!   the special residue to q_i, forward-transforms that correction and
//!   computes `(acc_i − u_i)·P⁻¹` in the NTT domain in one fused slab pass,
//!   straight into the output limb. Rescale is the same step with the
//!   level's last prime in place of P (`crate::ops`).
//!
//! Limb transforms per keyswitch at level ℓ:
//! `(ℓ+1) + dnum·(ℓ+1+K) − (ℓ+1) + 2·(K + ℓ+1)`, which at K = 1 is
//! `(ℓ+1) + dnum·(ℓ+1) + 2·(ℓ+2)` — 72 at SET-B, 272 at SET-C;
//! `crates/ckks/tests/transform_count.rs` pins it.
//!
//! One entry check (`operand_level`) stands in front of the stages: the
//! operand must be an NTT-domain polynomial of this context's degree over
//! exactly q_0…q_ℓ for some ℓ ≤ L, and the key must hold enough digits for
//! ℓ. Operands reach this module from the wire, so a wrong basis, domain or
//! limb count is a typed [`CkksError::LevelMismatch`], never a relabelled
//! result or an index panic.
//!
//! # Who composes them
//!
//! - [`keyswitch_with`] (and [`keyswitch`], its one-thread spelling): entry
//!   check, `inner_product` fed by `Decomposition::extend_into`, `mod_down`
//!   of both accumulators. No extended digit ever exists as a whole.
//! - [`HoistedDecomposition::new`]: entry check, then `extend_into` for
//!   every (digit, limb) into polynomials it *keeps* — the
//!   rotation-independent half. This is the one caller that holds whole
//!   digits.
//! - [`keyswitch_hoisted`]: the same `inner_product`, fed by a gather of
//!   each kept digit's limb through the Galois permutation the rotation key
//!   carries, then `mod_down`.
//! - [`crate::bgv::BgvContext::hmult`]: the same entry check, ModUp and
//!   inner product (`mod_up_inner_product`); only its ModDown differs (exact
//!   centred P-residue plus the plaintext correction), and that one stage
//!   lives in `bgv`.
//!
//! # Memory discipline
//!
//! The INTT'd input, both accumulators and one scratch limb per thread are
//! leased from the calling worker's
//! [`wd_polyring::scratch::ScratchArena`] — on the arena-owning thread,
//! before any fan-out — and returned on completion; base conversion needs
//! no scratch and ModDown writes into its output. The only heap allocations
//! in steady state are the two output polynomials (and, for hoisting, the
//! digits that outlive the call). The allocate-per-step implementation this
//! replaced survives as the test oracle of
//! `pooled_matches_unpooled_at_every_level`, which pins bit-identical
//! outputs at every level and width.

use crate::context::CkksContext;
use crate::keys::{KeyPoly, KeySwitchKey, KskDigit};
use crate::CkksError;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;
use wd_modmath::rns::BasisConverter;
use wd_modmath::slab::mul_add2_lazy;
use wd_polyring::ntt::NttTable;
use wd_polyring::rns::{count_limb_transforms, Domain, RnsPoly};
use wd_polyring::scratch::{self, ScratchArena};
use wd_polyring::Poly;

/// Leases zero-filled limb storage for an RNS polynomial over `primes` from
/// `arena`. The returned polynomial is indistinguishable from
/// `RnsPoly::zero` (leases are zeroed), but its storage came from the arena
/// and should go back via [`give_rns`] when the value dies in this frame.
fn take_rns(
    arena: &Arc<ScratchArena>,
    primes: &[u64],
    n: usize,
    domain: Domain,
) -> Result<RnsPoly, CkksError> {
    let limbs = primes
        .iter()
        .map(|&q| Poly::from_reduced_coeffs(q, arena.take_vec(n)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut p = RnsPoly::from_limbs(limbs, Domain::Coeff)?;
    p.set_domain(domain);
    Ok(p)
}

/// Returns a leased polynomial's limb storage to `arena`. Values lost to an
/// early `?` return skip this and fall back to a plain heap free — the arena
/// only ever caps *parked* bytes, so nothing leaks.
pub(crate) fn give_rns(arena: &Arc<ScratchArena>, p: RnsPoly) {
    for limb in p.into_limbs() {
        arena.give_vec(limb.into_coeffs());
    }
}

/// The entry check every composition (and Rescale) starts with: `d` must be
/// an NTT-domain polynomial of this context's degree whose limbs are exactly
/// q_0…q_ℓ for some ℓ ≤ L. Returns ℓ. O(limbs), no allocation on the
/// accepting path.
///
/// # Errors
///
/// Returns [`CkksError::LevelMismatch`] for a coefficient-domain operand, a
/// wrong degree, more limbs than the chain has, or a limb whose modulus is
/// not the chain's prime at that position.
pub(crate) fn operand_level(ctx: &CkksContext, d: &RnsPoly) -> Result<usize, CkksError> {
    let params = ctx.params();
    let limbs = d.limb_count();
    let ok = (1..=params.max_level() + 1).contains(&limbs)
        && d.domain() == Domain::Ntt
        && d.degree() == params.degree()
        && d.limbs()
            .zip(params.q_at(limbs - 1))
            .all(|(limb, &q)| limb.modulus().value() == q);
    if !ok {
        return Err(CkksError::LevelMismatch(
            format!(
                "operand ({limbs} limbs, {:?} domain) is not an NTT-domain \
                 polynomial of degree {} over q_0…q_l of this context (l <= {})",
                d.domain(),
                params.degree(),
                params.max_level()
            )
            .into(),
        ));
    }
    Ok(limbs - 1)
}

/// The first `need` digits of `ksk` — the other half of the entry check.
///
/// # Errors
///
/// Returns [`CkksError::LevelMismatch`] if the key holds fewer.
fn key_digits(ksk: &KeySwitchKey, need: usize) -> Result<&[KskDigit], CkksError> {
    ksk.digits.get(..need).ok_or_else(|| {
        CkksError::LevelMismatch(
            format!("key has {} digits, operand needs {need}", ksk.dnum()).into(),
        )
    })
}

/// The NTT-domain permutation of φ_g a keyswitch with `ksk` gathers
/// through: the one a rotation key carries, which must be for `g`. For a
/// key with no Galois element (the relin key) it is derived here, per call:
/// switching φ_g(d) from s² is well defined (the identity at `g = 1`), but
/// no rotation path asks for it.
///
/// # Errors
///
/// Returns [`CkksError::MissingKey`] if `ksk` is a rotation key for another
/// element.
pub(crate) fn key_permutation(
    ksk: &KeySwitchKey,
    g: usize,
    n: usize,
) -> Result<Cow<'_, [u32]>, CkksError> {
    match &ksk.galois {
        Some((kg, perm)) if *kg == g => Ok(Cow::Borrowed(perm)),
        Some((kg, _)) => Err(CkksError::MissingKey(format!(
            "key switches from φ_{kg}(s), not φ_{g}(s)"
        ))),
        None => Ok(Cow::Owned(wd_polyring::ntt::galois_permutation(n, g))),
    }
}

/// Maps each prime of `basis` to its limb position inside a key digit
/// (which lives over the max-level full basis). Computed once per call and
/// indexed in the inner-product loop, so no key limb is ever copied.
///
/// # Errors
///
/// Returns [`CkksError::LevelMismatch`] if a prime is absent from the key —
/// e.g. a key generated for different parameters.
fn key_limb_index(key: &KeyPoly, basis: &[u64]) -> Result<Vec<usize>, CkksError> {
    let primes = key.primes();
    basis
        .iter()
        .map(|q| {
            primes.iter().position(|x| x == q).ok_or_else(|| {
                CkksError::LevelMismatch(format!("prime {q} not in the key's basis").into())
            })
        })
        .collect()
}

/// Copies `d` (level ℓ, NTT domain) into leased storage and INTTs it: the
/// coefficient-domain input every digit's lift reads.
fn intt_input(
    ctx: &CkksContext,
    arena: &Arc<ScratchArena>,
    d: &RnsPoly,
    level: usize,
    th: usize,
) -> Result<RnsPoly, CkksError> {
    let mut d_coeff = take_rns(arena, ctx.params().q_at(level), d.degree(), Domain::Ntt)?;
    for (dst, src) in d_coeff.limbs_mut().zip(d.limbs()) {
        dst.coeffs_mut().copy_from_slice(src.coeffs());
    }
    d_coeff.ntt_inverse_with(ctx.q_tables(level), th);
    Ok(d_coeff)
}

/// One digit of a [`Decomposition`]: limbs `own` of the operand.
struct Digit<'a> {
    own: Range<usize>,
    /// The digit's primes → the full basis at the operand's level.
    conv: &'a BasisConverter,
    /// The digit's limbs of the INTT'd operand.
    coeff: Vec<&'a [u64]>,
}

/// Stage 1, **ModUp**, as a function of (digit, target limb): the operand in
/// both domains plus, per digit, its limb range and converter.
struct Decomposition<'a> {
    /// The operand as it arrived (NTT domain).
    d: &'a RnsPoly,
    digits: Vec<Digit<'a>>,
    /// Tables of the full basis at the operand's level, in limb order.
    tables: &'a [Arc<NttTable>],
}

impl<'a> Decomposition<'a> {
    /// Splits `d` (checked, at `level`) into digits of α limbs; `d_coeff` is
    /// its [`intt_input`].
    fn new(ctx: &'a CkksContext, d: &'a RnsPoly, d_coeff: &'a RnsPoly, level: usize) -> Self {
        let cache = ctx.level(level);
        let digits = cache
            .digit_to_full
            .iter()
            .enumerate()
            .map(|(j, conv)| {
                let own = ctx.params().digit_limbs(level, j);
                Digit {
                    conv,
                    coeff: own.clone().map(|i| d_coeff.limb(i).coeffs()).collect(),
                    own,
                }
            })
            .collect();
        Self {
            d,
            digits,
            tables: &cache.full_tables,
        }
    }

    /// Limb `t` of digit `j`'s extension to the full basis, in NTT form,
    /// written over `out`: the operand's own limb copied where the digit
    /// holds prime t, the digit lifted to prime t and transformed elsewhere.
    fn extend_into(&self, j: usize, t: usize, out: &mut [u64]) {
        let digit = &self.digits[j];
        if digit.own.contains(&t) {
            out.copy_from_slice(self.d.limb(t).coeffs());
        } else {
            digit.conv.convert_limb_into(&digit.coeff, t, out);
            self.tables[t].forward(out);
            count_limb_transforms(1);
        }
    }
}

/// Stage 2, **InnerProduct**, limb-major: for each limb t of `basis`, for
/// each key digit j, `fill(j, t, ext)` writes digit j's limb t (NTT form)
/// into a one-limb scratch and both accumulators take it in one pass —
/// `acc0[t] += ext ⊙ key_j.b[t]`, `acc1[t] += ext ⊙ key_j.a[t]`, unreduced —
/// before the next digit overwrites the scratch; a fold every
/// [`wd_modmath::Modulus::lazy_terms`] digits and one at the end of the limb
/// bring both into `[0, q)`. The target limbs are split into at most
/// `threads` contiguous runs, each with its own scratch limb, leased here on
/// the arena-owning thread. Returns the accumulators (NTT domain, leased
/// from `arena`; the caller's ModDown consumes them).
fn inner_product(
    arena: &Arc<ScratchArena>,
    basis: &[u64],
    n: usize,
    keys: &[KskDigit],
    threads: usize,
    fill: impl Fn(usize, usize, &mut [u64]) + Sync,
) -> Result<(RnsPoly, RnsPoly), CkksError> {
    // All key digits share one basis; resolve limb positions once.
    let kidx = key_limb_index(&keys[0].b, basis)?;
    let mut acc0 = take_rns(arena, basis, n, Domain::Ntt)?;
    let mut acc1 = take_rns(arena, basis, n, Domain::Ntt)?;
    {
        let run = basis.len().div_ceil(threads.clamp(1, basis.len()));
        let mut limbs = acc0.limbs_mut().zip(acc1.limbs_mut()).enumerate();
        let mut work: Vec<(scratch::ScratchVec, Vec<_>)> = (0..basis.len().div_ceil(run))
            .map(|_| (arena.lease(n), limbs.by_ref().take(run).collect()))
            .collect();
        wd_polyring::par::for_each_mut(threads, &mut work, |(ext, run)| {
            for (t, (a0, a1)) in run.iter_mut() {
                let m = *a0.modulus();
                let (k, cadence) = (kidx[*t], m.lazy_terms());
                let (a0, a1) = (a0.coeffs_mut(), a1.coeffs_mut());
                for (j, key) in keys.iter().enumerate() {
                    if j > 0 && j.is_multiple_of(cadence) {
                        m.fold_slab_assign(a0);
                        m.fold_slab_assign(a1);
                    }
                    fill(j, *t, ext);
                    mul_add2_lazy(a0, a1, ext, key.b.limb(k), key.a.limb(k));
                }
                m.fold_slab_assign(a0);
                m.fold_slab_assign(a1);
            }
        });
    }
    Ok((acc0, acc1))
}

/// The division step ModDown and Rescale share, in the NTT domain. `head`
/// are the kept limbs of x (NTT form), `tail` the limbs being divided out
/// (already in the coefficient domain), `conv` converts the tail's primes to
/// the head's and `inv[i]` is (Π tail primes)⁻¹ mod head prime i, reduced.
/// Per kept limb, in one pass over one fresh output limb: lift the tail to
/// prime i, forward-transform that correction u_i, and
/// `out_i = (x_i − u_i)·inv_i` — round(x / Π tail) over the head, NTT form.
pub(crate) fn sub_lifted_and_scale(
    head: &[&Poly],
    tail: &[&[u64]],
    conv: &BasisConverter,
    inv: &[u64],
    tables: &[Arc<NttTable>],
    threads: usize,
) -> Result<RnsPoly, CkksError> {
    debug_assert!(conv
        .to_basis()
        .moduli()
        .iter()
        .zip(head)
        .all(|(m, h)| m == h.modulus()));
    let limbs = head
        .iter()
        .map(|h| Poly::zero(h.modulus().value(), h.degree()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = RnsPoly::from_limbs(limbs, Domain::Ntt)?;
    let mut work: Vec<(usize, &mut Poly)> = out.limbs_mut().enumerate().collect();
    wd_polyring::par::for_each_mut(threads, &mut work, |(i, limb)| {
        let m = *limb.modulus();
        conv.convert_limb_into(tail, *i, limb.coeffs_mut());
        tables[*i].forward(limb.coeffs_mut());
        m.rsub_scale_slab_assign(limb.coeffs_mut(), head[*i].coeffs(), inv[*i]);
    });
    count_limb_transforms(head.len());
    Ok(out)
}

/// Stage 3, CKKS **ModDown**: divides the extended-basis accumulator by
/// P = Π p_k, returning out ≈ round(x / P) over Q_ℓ. Only the K special
/// limbs leave the NTT domain (in place, on the leased accumulator, which
/// then goes back to the arena); the only heap allocations are the output's
/// own limbs.
fn mod_down(
    ctx: &CkksContext,
    arena: &Arc<ScratchArena>,
    mut acc: RnsPoly,
    level: usize,
    th: usize,
) -> Result<RnsPoly, CkksError> {
    let cache = ctx.level(level);
    let lq = level + 1;
    for (limb, table) in acc.limbs_mut().zip(&cache.full_tables).skip(lq) {
        table.inverse(limb.coeffs_mut());
    }
    count_limb_transforms(ctx.params().special_count());
    let limbs: Vec<&Poly> = acc.limbs().collect();
    let (head, tail) = limbs.split_at(lq);
    let tail: Vec<&[u64]> = tail.iter().map(|p| p.coeffs()).collect();
    let out = sub_lifted_and_scale(
        head,
        &tail,
        &cache.p_to_q,
        &cache.p_inv,
        &cache.q_tables,
        th,
    )?;
    give_rns(arena, acc);
    Ok(out)
}

/// Stages 1–2 of a keyswitch of `d`: entry check, one INTT of the operand,
/// and the limb-major inner product fed by [`Decomposition::extend_into`].
/// Returns the operand's level and both accumulators (full basis, NTT
/// domain, leased from `arena`; the caller's ModDown consumes them). Shared
/// by [`keyswitch_with`] and the BGV layer, which differ only in that
/// ModDown.
///
/// # Errors
///
/// The entry check's [`CkksError::LevelMismatch`] (operand or key), before
/// any work.
pub(crate) fn mod_up_inner_product(
    ctx: &CkksContext,
    arena: &Arc<ScratchArena>,
    d: &RnsPoly,
    ksk: &KeySwitchKey,
    th: usize,
) -> Result<(usize, RnsPoly, RnsPoly), CkksError> {
    let level = operand_level(ctx, d)?;
    let keys = key_digits(ksk, ctx.params().dnum_at(level))?;
    let d_coeff = intt_input(ctx, arena, d, level, th)?;
    let digits = Decomposition::new(ctx, d, &d_coeff, level);
    let (acc0, acc1) = inner_product(
        arena,
        ctx.full_basis(level),
        d.degree(),
        keys,
        th,
        |j, t, ext| digits.extend_into(j, t, ext),
    )?;
    give_rns(arena, d_coeff);
    Ok((level, acc0, acc1))
}

/// Key-switches polynomial `d` (NTT domain, level ℓ) with `ksk`, returning
/// the pair (out0, out1) over Q_ℓ in NTT form such that
/// out0 + out1·s ≈ d·s′. One thread; [`keyswitch_with`] takes a width.
///
/// # Errors
///
/// Returns [`CkksError::LevelMismatch`] if `d` is not an NTT-domain
/// polynomial over q_0…q_ℓ of this context, or the key has too few digits
/// for its level.
pub fn keyswitch(
    ctx: &CkksContext,
    d: &RnsPoly,
    ksk: &KeySwitchKey,
) -> Result<(RnsPoly, RnsPoly), CkksError> {
    keyswitch_with(ctx, d, ksk, 1)
}

/// [`keyswitch`] with its limb work (the input's INTT, the per-target-limb
/// inner product, ModDown's kept limbs) fanned out over at most `threads`
/// host threads. The width comes from the caller on every call;
/// bit-identical at every width.
///
/// # Errors
///
/// As [`keyswitch`].
pub fn keyswitch_with(
    ctx: &CkksContext,
    d: &RnsPoly,
    ksk: &KeySwitchKey,
    threads: usize,
) -> Result<(RnsPoly, RnsPoly), CkksError> {
    let _span = wd_trace::span("ckks", "keyswitch");
    let arena = ctx.scratch();
    scratch::with_worker_arena(&arena, || {
        let (level, acc0, acc1) = mod_up_inner_product(ctx, &arena, d, ksk, threads)?;
        let out0 = mod_down(ctx, &arena, acc0, level, threads)?;
        let out1 = mod_down(ctx, &arena, acc1, level, threads)?;
        Ok((out0, out1))
    })
}

/// The reusable, rotation-independent half of a keyswitch: the input
/// polynomial base-extended to the full basis, digit by digit —
/// Halevi–Shoup *hoisting*. Computing this once and sharing it across many
/// rotations is what makes BSGS linear transforms (bootstrapping's
/// CoeffToSlot, HELR's batch gathers) affordable; the workload models in
/// `wd-workloads::perf` price hoisted rotations at a fraction of a full one
/// because of exactly this reuse.
#[derive(Debug, Clone)]
pub struct HoistedDecomposition {
    /// Extended digits in the **NTT** domain over the full basis: the
    /// automorphism of each rotation is a gather on these evaluations, so
    /// the digits' forward transforms are hoisted along with ModUp.
    digits: Vec<RnsPoly>,
    /// Level the decomposition was taken at.
    level: usize,
}

impl HoistedDecomposition {
    /// Decomposes `d` (NTT domain, level ℓ) once for later use by
    /// [`keyswitch_hoisted`]. The digits escape this frame (that is the
    /// point of hoisting), so they are heap-allocated; only the INTT'd
    /// input is arena-leased.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelMismatch`] if `d` is not an NTT-domain
    /// polynomial over q_0…q_ℓ of this context.
    pub fn new(ctx: &CkksContext, d: &RnsPoly) -> Result<Self, CkksError> {
        let level = operand_level(ctx, d)?;
        let arena = ctx.scratch();
        let d_coeff = intt_input(ctx, &arena, d, level, 1)?;
        let decomposition = Decomposition::new(ctx, d, &d_coeff, level);
        let digits = (0..decomposition.digits.len())
            .map(|j| {
                let mut ext = RnsPoly::zero(ctx.full_basis(level), d.degree())?;
                for (t, limb) in ext.limbs_mut().enumerate() {
                    decomposition.extend_into(j, t, limb.coeffs_mut());
                }
                ext.set_domain(Domain::Ntt);
                Ok(ext)
            })
            .collect::<Result<Vec<_>, CkksError>>()?;
        give_rns(&arena, d_coeff);
        Ok(Self { digits, level })
    }

    /// Number of digits held.
    pub fn dnum(&self) -> usize {
        self.digits.len()
    }

    /// The level this decomposition belongs to.
    pub fn level(&self) -> usize {
        self.level
    }
}

/// Keyswitch using a precomputed [`HoistedDecomposition`], applying the
/// Galois automorphism `g` to the *extended digits* (one gather per limb,
/// through the permutation `ksk` carries, into the inner product's scratch
/// limb) instead of re-running ModUp and the digit NTTs per rotation. With
/// `g = 1` and the relin key this equals [`keyswitch`] exactly.
/// Accumulators and the scratch limb are arena-leased like the main path.
///
/// # Errors
///
/// Returns [`CkksError::LevelMismatch`] if the key has too few digits, and
/// [`CkksError::MissingKey`] if `ksk` is a rotation key for an element other
/// than `g`.
pub fn keyswitch_hoisted(
    ctx: &CkksContext,
    hoisted: &HoistedDecomposition,
    g: usize,
    ksk: &KeySwitchKey,
) -> Result<(RnsPoly, RnsPoly), CkksError> {
    let _span = wd_trace::span("ckks", "keyswitch");
    let arena = ctx.scratch();
    scratch::with_worker_arena(&arena, || {
        let level = hoisted.level;
        let keys = key_digits(ksk, hoisted.dnum())?;
        let n = hoisted.digits[0].degree();
        let perm = key_permutation(ksk, g, n)?;
        // φ_g commutes with base extension and with the NTT (it permutes
        // coefficients, respectively evaluations, limb-wise), so applying
        // it to the hoisted digit is exact.
        let (acc0, acc1) =
            inner_product(&arena, ctx.full_basis(level), n, keys, 1, |j, t, ext| {
                wd_polyring::ntt::gather(&perm, hoisted.digits[j].limb(t).coeffs(), ext);
            })?;
        let out0 = mod_down(ctx, &arena, acc0, level, 1)?;
        let out1 = mod_down(ctx, &arena, acc1, level, 1)?;
        Ok((out0, out1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::restrict;
    use crate::params::ParamSet;
    use wd_modmath::Modulus;
    use wd_polyring::par::convert_poly;

    /// The original allocate-per-step keyswitch, kept as the oracle the
    /// staged pipeline is compared against: its own digit loop, a fresh
    /// polynomial per step, the key widened to `u64` limbs and reduced per
    /// product, P⁻¹ recomputed per call.
    fn keyswitch_unpooled(
        ctx: &CkksContext,
        d: &RnsPoly,
        ksk: &KeySwitchKey,
    ) -> Result<(RnsPoly, RnsPoly), CkksError> {
        let level = d.limb_count() - 1;
        let alpha = ctx.params().alpha();
        let dnum = ctx.params().dnum_at(level);
        let q_now = ctx.params().q_at(level).to_vec();
        let full = ctx.params().full_basis_at(level);
        let full_tabs = ctx.tables_for(&full);

        // Step 1: INTT the input.
        let mut d_coeff = d.clone();
        d_coeff.ntt_inverse(&ctx.tables_for(&q_now));

        // Steps 2–4 per digit: ModUp, NTT, multiply-accumulate with the key.
        let mut acc0 = RnsPoly::zero(&full, d.degree())?;
        acc0.set_domain(Domain::Ntt);
        let mut acc1 = acc0.clone();
        for j in 0..dnum {
            let lo = j * alpha;
            let hi = ((j + 1) * alpha).min(level + 1);
            let digit_primes = &q_now[lo..hi];
            let digit = RnsPoly::from_limbs(
                (lo..hi).map(|i| d_coeff.limb(i).clone()).collect(),
                Domain::Coeff,
            )?;
            // ModUp: extend to the full basis, then restore the digit's own
            // limbs exactly (conversion is identity there up to rounding).
            let conv = ctx.converter(digit_primes, &full);
            let mut ext = convert_poly(&conv, &digit, 1);
            for i in lo..hi {
                *ext.limb_mut(i) = d_coeff.limb(i).clone();
            }
            // NTT the extended digit.
            let mut ext_ntt = ext;
            ext_ntt.ntt_forward(&full_tabs);
            // InnerProduct accumulation. The key digit lives over the max-level
            // full basis: its limb order is q_0…q_L, p…; at level ℓ we need
            // q_0…q_ℓ, p… — select those limbs.
            let kb = select_basis(&ksk.digits[j].b.to_rns(), &full)?;
            let ka = select_basis(&ksk.digits[j].a.to_rns(), &full)?;
            acc0 = acc0.add(&ext_ntt.pointwise(&kb)?)?;
            acc1 = acc1.add(&ext_ntt.pointwise(&ka)?)?;
        }

        // Step 5: ModDown both accumulators.
        let out0 = mod_down_unpooled(ctx, acc0, &q_now, &full_tabs)?;
        let out1 = mod_down_unpooled(ctx, acc1, &q_now, &full_tabs)?;
        Ok((out0, out1))
    }

    /// Selects the limbs of `p` (over the max-level full basis) matching the
    /// prime list `basis`, preserving order.
    fn select_basis(p: &RnsPoly, basis: &[u64]) -> Result<RnsPoly, CkksError> {
        let primes = p.primes();
        let mut limbs: Vec<Poly> = Vec::with_capacity(basis.len());
        for q in basis {
            let idx = primes.iter().position(|x| x == q).ok_or_else(|| {
                CkksError::LevelMismatch(format!("prime {q} not in the key's basis").into())
            })?;
            limbs.push(p.limb(idx).clone());
        }
        Ok(RnsPoly::from_limbs(limbs, p.domain())?)
    }

    /// The oracle's ModDown: divides an extended-basis polynomial by
    /// P = Π p_k, returning it over the Q basis: out ≈ round(x / P).
    fn mod_down_unpooled(
        ctx: &CkksContext,
        mut acc: RnsPoly,
        q_now: &[u64],
        full_tabs: &[Arc<wd_polyring::ntt::NttTable>],
    ) -> Result<RnsPoly, CkksError> {
        let p_chain = ctx.params().p_chain().to_vec();
        let k = p_chain.len();
        let lq = q_now.len();
        // INTT over the full basis.
        acc.ntt_inverse(full_tabs);
        // Split off the P-part residues and convert them down to Q.
        let p_part = RnsPoly::from_limbs(
            (lq..lq + k).map(|i| acc.limb(i).clone()).collect(),
            Domain::Coeff,
        )?;
        let conv = ctx.converter(&p_chain, q_now);
        let u = convert_poly(&conv, &p_part, 1);
        // (x − u) · P^{-1} per limb.
        let q_acc = restrict(&acc, lq);
        let diff = q_acc.sub(&u)?;
        let mut p_inv: Vec<u64> = Vec::with_capacity(q_now.len());
        for &q in q_now {
            let m = Modulus::new(q);
            let mut p = 1u64;
            for &pk in &p_chain {
                p = m.mul(p, m.reduce(pk));
            }
            p_inv.push(m.inv(p)?);
        }
        let mut out = diff.scale_per_limb(&p_inv);
        out.ntt_forward(&ctx.tables_for(q_now));
        Ok(out)
    }

    fn ctx(k: usize) -> Result<CkksContext, CkksError> {
        let params = ParamSet::set_a()
            .with_degree(1 << 6)
            .with_level(3)
            .with_special(k)
            .build()?;
        CkksContext::with_seed(params, 7)
    }

    /// Core correctness: keyswitching c1·? with a key for s′ must satisfy
    /// out0 + out1·s ≈ d·s′ — verified through relinearization-style usage
    /// in ops tests; here we check it directly with small noise.
    #[test]
    fn keyswitch_identity_on_s2() -> Result<(), CkksError> {
        for k in [1usize, 2] {
            let ctx = ctx(k)?;
            let kp = ctx.keygen();
            let level = ctx.params().max_level();
            let primes = ctx.params().q_at(level).to_vec();
            // d = encode of a known small message (NTT domain).
            let pt = ctx.encode(&[1.0, 2.0, 3.0])?;
            let d = pt.poly.clone();
            let (o0, o1) = keyswitch(&ctx, &d, &kp.relin)?;
            // Verify o0 + o1·s ≈ d·s².
            let s = restrict(&kp.secret.s, primes.len());
            let lhs = o0.add(&o1.pointwise(&s)?)?;
            let s2 = s.pointwise(&s)?;
            let rhs = d.pointwise(&s2)?;
            let mut err = lhs.sub(&rhs)?;
            err.ntt_inverse(&ctx.tables_for(&primes));
            // Noise must be tiny relative to the scale (2^28).
            let max = err.limb(0).inf_norm();
            assert!(max < 1 << 22, "keyswitch noise too large: {max} (K = {k})");
        }
        Ok(())
    }

    #[test]
    fn keyswitch_at_reduced_level_works() -> Result<(), CkksError> {
        let ctx = ctx(2)?;
        let kp = ctx.keygen();
        // Take d at level 1 (2 limbs): last digit is partial when α = 2.
        let pt = ctx.encode_complex_at(
            &[crate::encoding::C64::new(4.0, 0.0)],
            1,
            ctx.params().scale(),
        )?;
        let (o0, o1) = keyswitch(&ctx, &pt.poly, &kp.relin)?;
        assert_eq!(o0.limb_count(), 2);
        let primes = ctx.params().q_at(1).to_vec();
        let s = restrict(&kp.secret.s, 2);
        let lhs = o0.add(&o1.pointwise(&s)?)?;
        let rhs = pt.poly.pointwise(&s.pointwise(&s)?)?;
        let mut err = lhs.sub(&rhs)?;
        err.ntt_inverse(&ctx.tables_for(&primes));
        assert!(err.limb(0).inf_norm() < 1 << 22);
        Ok(())
    }

    /// The staged, pooled pipeline must be **bit-identical** to the
    /// allocate-per-step oracle at every level of the chain, at every
    /// width, and through the hoisted composition at g = 1. This is what
    /// pins the arena leases, the fused slab kernels, the cached
    /// prime-slices and the precomputed P⁻¹ to "no behavior change".
    #[test]
    fn pooled_matches_unpooled_at_every_level() -> Result<(), CkksError> {
        for k in [1usize, 2] {
            let ctx = ctx(k)?;
            let kp = ctx.keygen();
            for level in 0..=ctx.params().max_level() {
                let pt = ctx.encode_complex_at(
                    &[
                        crate::encoding::C64::new(1.5, -0.5),
                        crate::encoding::C64::new(-3.0, 2.0),
                    ],
                    level,
                    ctx.params().scale(),
                )?;
                let (p0, p1) = keyswitch(&ctx, &pt.poly, &kp.relin)?;
                let (u0, u1) = keyswitch_unpooled(&ctx, &pt.poly, &kp.relin)?;
                assert_eq!(p0, u0, "out0 diverged at level {level} (K = {k})");
                assert_eq!(p1, u1, "out1 diverged at level {level} (K = {k})");
                // The width is an argument: every width gives the same bits.
                for threads in [2usize, 5] {
                    let (w0, w1) = keyswitch_with(&ctx, &pt.poly, &kp.relin, threads)?;
                    assert_eq!(w0, u0, "out0 diverged at {threads} threads, level {level}");
                    assert_eq!(w1, u1, "out1 diverged at {threads} threads, level {level}");
                }
                // Hoisted with g = 1 must also equal the plain keyswitch.
                let hd = HoistedDecomposition::new(&ctx, &pt.poly)?;
                let (h0, h1) = keyswitch_hoisted(&ctx, &hd, 1, &kp.relin)?;
                assert_eq!(h0, u0, "hoisted out0 diverged at level {level}");
                assert_eq!(h1, u1, "hoisted out1 diverged at level {level}");
            }
        }
        Ok(())
    }

    /// A chain of 19 primes just below 2^30 at K = 1, so up to 19 digits
    /// meet each target limb: more than the 16 products a lane takes
    /// between folds there, so the inner product folds mid-limb. Bit for bit
    /// against the oracle, at the top levels, at two widths and hoisted:
    /// with the generated key on a uniform operand, and with every key word
    /// and every extended digit word at q − 1 (the operand is the NTT of
    /// the constant −1, so each lift is −1 too), where each target word
    /// sums 19·(q − 1)² and one fold per limb would have wrapped.
    #[test]
    fn deep_chain_near_2_30_matches_unpooled() -> Result<(), CkksError> {
        use crate::params::CkksParams;
        use rand::SeedableRng;
        let n = 1 << 6;
        let mut primes = Vec::new();
        let mut below = 1u64 << 30;
        for _ in 0..20 {
            below = wd_modmath::prime::ntt_prime_below(below - 1, 2 * n as u64)?;
            primes.push(below);
        }
        let special = primes.split_off(19);
        let set = ParamSet {
            name: "deep".into(),
            n,
            level: 18,
            special: 1,
            prime_bits: 29,
            special_bits: 29,
        };
        let ctx = CkksContext::with_seed(CkksParams::from_primes(set, primes, special), 5)?;
        let kp = ctx.keygen();
        let top = ctx.params().max_level();
        for &q in ctx.params().q_chain() {
            let m = Modulus::new(q);
            assert!(ctx.params().dnum_at(top) > m.lazy_terms(), "q = {q}");
        }
        let mut extreme = kp.relin.clone();
        for part in extreme.digits.iter_mut().flat_map(|d| [&mut d.b, &mut d.a]) {
            for i in 0..part.limb_count() {
                let top_word = part.primes()[i] as u32 - 1;
                part.limb_mut(i).fill(top_word);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for level in [top - 2, top] {
            let primes = ctx.params().q_at(level);
            let mut minus_one = RnsPoly::from_signed(primes, &vec![-1; n])?;
            minus_one.set_domain(Domain::Ntt);
            for (d, key) in [
                (
                    crate::sampling::uniform_poly(&mut rng, primes, n),
                    &kp.relin,
                ),
                (minus_one, &extreme),
            ] {
                let (u0, u1) = keyswitch_unpooled(&ctx, &d, key)?;
                for threads in [1usize, 3] {
                    let (w0, w1) = keyswitch_with(&ctx, &d, key, threads)?;
                    assert_eq!((&w0, &w1), (&u0, &u1), "{threads} threads, level {level}");
                }
                let hd = HoistedDecomposition::new(&ctx, &d)?;
                let (h0, h1) = keyswitch_hoisted(&ctx, &hd, 1, key)?;
                assert_eq!((&h0, &h1), (&u0, &u1), "hoisted, level {level}");
            }
        }
        Ok(())
    }

    /// The pooled path must work identically with the arena disabled (every
    /// lease falls through to a fresh heap allocation): correctness never
    /// depends on the arena.
    #[test]
    fn pooled_path_with_disabled_arena_matches() -> Result<(), CkksError> {
        let ctx = ctx(2)?;
        let kp = ctx.keygen();
        let pt = ctx.encode(&[1.0, 2.0, 3.0])?;
        let (a0, a1) = keyswitch(&ctx, &pt.poly, &kp.relin)?;
        let (b0, b1) = scratch::with_worker_arena(&ScratchArena::disabled(), || {
            keyswitch(&ctx, &pt.poly, &kp.relin)
        })?;
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
        Ok(())
    }

    /// Operands reach the keyswitch from the wire, so every composition
    /// must refuse — typed, before any work — a polynomial over primes that
    /// are not the chain's (it used to be relabelled), one still in the
    /// coefficient domain (the marker used to be overwritten) and one with
    /// more limbs than the chain (at K = 2 it passed the `dnum` check and
    /// indexed out of range).
    #[test]
    fn bad_operands_are_typed_errors_from_every_entry() -> Result<(), CkksError> {
        fn refused<T>(r: Result<T, CkksError>) -> bool {
            matches!(r, Err(CkksError::LevelMismatch(_)))
        }
        for k in [1usize, 2] {
            let params = ParamSet::set_a()
                .with_degree(1 << 6)
                .with_level(2)
                .with_special(k)
                .build()?;
            let ctx = CkksContext::with_seed(params, 11)?;
            let kp = ctx.keygen();
            let n = ctx.params().degree();
            let level = ctx.params().max_level();
            let signed: Vec<i64> = (0..n as i64).map(|i| 3 * i - 40).collect();

            let foreign_primes =
                wd_modmath::prime::generate_ntt_primes(30, 2 * n as u64, level + 1)?;
            let full = ctx.params().full_basis_at(level);
            assert!(foreign_primes.iter().all(|q| !full.contains(q)));
            let mut foreign = RnsPoly::from_signed(&foreign_primes, &signed)?;
            foreign.set_domain(Domain::Ntt);
            let coeff = RnsPoly::from_signed(ctx.params().q_at(level), &signed)?;
            let mut too_long = RnsPoly::from_signed(&full[..level + 2], &signed)?;
            too_long.set_domain(Domain::Ntt);

            for (what, d) in [
                ("foreign primes", &foreign),
                ("coefficient domain", &coeff),
                ("too many limbs", &too_long),
            ] {
                assert!(
                    refused(keyswitch(&ctx, d, &kp.relin)),
                    "keyswitch: {what}, K = {k}"
                );
                assert!(
                    refused(HoistedDecomposition::new(&ctx, d)),
                    "hoisted: {what}, K = {k}"
                );
            }
            // A rotation key carries its element: asking the key for
            // g = 25 to switch φ_5 is refused, not computed with the wrong
            // permutation.
            let rot = ctx.gen_rotation_keys(&kp.secret, &[1, 2], false);
            let key25 = rot.get(25).expect("rotation by 2 is g = 25");
            let hoisted = HoistedDecomposition::new(&ctx, &ctx.encode(&[1.0])?.poly)?;
            assert!(
                matches!(
                    keyswitch_hoisted(&ctx, &hoisted, 5, key25),
                    Err(CkksError::MissingKey(_))
                ),
                "hoisted: key for g = 25 used for g = 5, K = {k}"
            );
            assert!(keyswitch_hoisted(&ctx, &hoisted, 25, key25).is_ok());
            if k == 1 {
                let bgv = crate::bgv::BgvContext::new(ctx, 16)?;
                let bkp = bgv.keygen();
                for (what, d) in [
                    ("foreign primes", &foreign),
                    ("coefficient domain", &coeff),
                    ("too many limbs", &too_long),
                ] {
                    let ct = crate::bgv::BgvCiphertext {
                        c0: d.clone(),
                        c1: d.clone(),
                        level: d.limb_count() - 1,
                    };
                    assert!(refused(bgv.hmult(&ct, &ct, &bkp)), "BGV hmult: {what}");
                }
            }
        }
        Ok(())
    }

    #[test]
    fn convert_poly_round_trips_small_values() -> Result<(), CkksError> {
        let ctx = ctx(1)?;
        let q = ctx.params().q_at(1).to_vec();
        let p = ctx.params().p_chain().to_vec();
        let conv = ctx.converter(&q, &p);
        let src = RnsPoly::from_signed(&q, &(0..64).map(|i| i - 32).collect::<Vec<_>>())?;
        let out = convert_poly(&conv, &src, 1);
        let expect = RnsPoly::from_signed(&p, &(0..64).map(|i| i - 32).collect::<Vec<_>>())?;
        assert_eq!(out, expect);
        Ok(())
    }
}
