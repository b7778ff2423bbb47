//! The CKKS context: parameter-bound state and the user-facing API.

use crate::cipher::{Ciphertext, Plaintext};
use crate::encoding::{Encoder, C64};
use crate::keys::{KeyPair, KeySwitchKey, PublicKey, RotationKeys, SecretKey};
use crate::keyswitch::operand_level;
use crate::params::CkksParams;
use crate::sampling::{self, Term};
use crate::CkksError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use wd_modmath::rns::{BasisConverter, CrtReconstructor, RnsBasis};
use wd_polyring::ntt::NttTable;
use wd_polyring::rns::{count_limb_transforms, Domain, RnsPoly};
use wd_polyring::scratch::ScratchArena;
use wd_polyring::Poly;

/// Immutable per-level derived state, computed once at context build so the
/// hot path borrows instead of re-deriving: prime bases, table lists, the
/// ModDown and Rescale constants, and every base converter a keyswitch or
/// rescale at this level asks for.
#[derive(Debug)]
pub(crate) struct LevelCache {
    /// Full basis q_0…q_ℓ ∪ P at this level.
    pub(crate) full: Vec<u64>,
    /// Tables for q_0…q_ℓ, in limb order.
    pub(crate) q_tables: Vec<Arc<NttTable>>,
    /// Tables for the full basis, in limb order.
    pub(crate) full_tables: Vec<Arc<NttTable>>,
    /// P^{-1} mod q_i for each q-limb at this level (ModDown constant).
    pub(crate) p_inv: Vec<u64>,
    /// q_ℓ^{-1} mod q_i for i < ℓ (Rescale's constant: the same division
    /// with the level's last prime in place of P). Empty at level 0.
    pub(crate) q_last_inv: Vec<u64>,
    /// Digit j's primes → the full basis, for j < `dnum_at(ℓ)` (ModUp).
    pub(crate) digit_to_full: Vec<BasisConverter>,
    /// P → q_0…q_ℓ (ModDown).
    pub(crate) p_to_q: BasisConverter,
    /// \[q_ℓ\] → q_0…q_{ℓ−1} (Rescale); `None` at level 0.
    pub(crate) last_to_rest: Option<BasisConverter>,
}

/// A converter `from → to`, with invalid bases (duplicated primes) as typed
/// errors.
fn basis_converter(from: &[u64], to: &[u64]) -> Result<BasisConverter, CkksError> {
    Ok(BasisConverter::new(
        RnsBasis::new(from.to_vec())?,
        RnsBasis::new(to.to_vec())?,
    )?)
}

/// How many leading limbs decoding reconstructs a coefficient from: 4 limbs
/// ≈ 112 bits ≫ Δ²·message + noise, and always below the 127 bits a
/// [`CrtReconstructor`] holds.
const DECODE_LIMBS: usize = 4;

/// Parameter-bound CKKS state: NTT tables per prime, per-level constants and
/// base converters, the encoder, and a seedable RNG.
///
/// This is the "Initialization Phase" of the WarpDrive framework (§IV-D-1):
/// moduli are selected, twiddle factors precomputed, and conversion tables
/// staged before any homomorphic operation runs. Nothing but the RNG changes
/// after [`CkksContext::with_seed`] returns; the Galois permutation of a
/// rotation travels with its key ([`KeySwitchKey`]).
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    encoder: Encoder,
    /// One NTT table per prime of the full basis.
    table_by_prime: HashMap<u64, Arc<NttTable>>,
    rng: Mutex<StdRng>,
    /// Per-level derived state, indexed by level.
    levels: Vec<LevelCache>,
    /// Centred CRT reconstructors over q_0…q_{k−1} for every prefix length
    /// k = 1…[`DECODE_LIMBS`] the chain has, indexed by k − 1.
    reconstructors: Vec<CrtReconstructor>,
    /// Default scratch arena for callers outside any scheduler scope. A
    /// per-worker arena installed via
    /// `wd_polyring::scratch::with_worker_arena` always takes precedence
    /// (see [`CkksContext::scratch`]).
    scratch: Arc<ScratchArena>,
}

impl CkksContext {
    /// Builds a context with OS entropy.
    ///
    /// # Errors
    ///
    /// Propagates table construction failures (e.g. non-NTT-friendly primes).
    pub fn new(params: CkksParams) -> Result<Self, CkksError> {
        Self::with_seed(params, rand::random())
    }

    /// Builds a deterministic context (tests, reproducible benchmarks).
    ///
    /// # Errors
    ///
    /// Propagates table and converter construction failures.
    pub fn with_seed(params: CkksParams, seed: u64) -> Result<Self, CkksError> {
        let n = params.degree();
        let encoder = Encoder::new(n)?;
        let full = params.full_basis_at(params.max_level());
        let mut table_by_prime = HashMap::new();
        for &q in &full {
            table_by_prime.insert(q, Arc::new(NttTable::new(q, n)?));
        }
        let p_chain = params.p_chain();
        let mut levels = Vec::with_capacity(params.max_level() + 1);
        for level in 0..=params.max_level() {
            let full = params.full_basis_at(level);
            let q_now = params.q_at(level);
            let q_tables = q_now
                .iter()
                .map(|q| Arc::clone(&table_by_prime[q]))
                .collect();
            let full_tables = full
                .iter()
                .map(|q| Arc::clone(&table_by_prime[q]))
                .collect();
            let mut p_inv = Vec::with_capacity(q_now.len());
            for &q in q_now {
                let m = wd_modmath::Modulus::new(q);
                let mut p = 1u64;
                for &pk in p_chain {
                    p = m.mul(p, m.reduce(pk));
                }
                // P shares no factor with a distinct chain prime q, so the
                // inverse exists for valid parameters; a degenerate chain
                // surfaces as Err at build time instead of per keyswitch.
                p_inv.push(m.inv(p)?);
            }
            let q_last_inv = q_now[..level]
                .iter()
                .map(|&q| {
                    let m = wd_modmath::Modulus::new(q);
                    m.inv(m.reduce(q_now[level]))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let digit_to_full = (0..params.dnum_at(level))
                .map(|j| basis_converter(&q_now[params.digit_limbs(level, j)], &full))
                .collect::<Result<Vec<_>, _>>()?;
            let p_to_q = basis_converter(p_chain, q_now)?;
            let last_to_rest = (level > 0)
                .then(|| basis_converter(&q_now[level..], &q_now[..level]))
                .transpose()?;
            levels.push(LevelCache {
                full,
                q_tables,
                full_tables,
                p_inv,
                q_last_inv,
                digit_to_full,
                p_to_q,
                last_to_rest,
            });
        }
        let reconstructors = (1..=DECODE_LIMBS.min(params.max_level() + 1))
            .map(|k| CrtReconstructor::new(&RnsBasis::new(params.q_at(k - 1).to_vec())?))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            params,
            encoder,
            table_by_prime,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            levels,
            reconstructors,
            scratch: ScratchArena::for_worker(),
        })
    }

    /// The parameters.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The canonical-embedding encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// NTT tables for an arbitrary prime list (must all belong to the basis).
    ///
    /// # Panics
    ///
    /// Panics if a prime is unknown to this context.
    pub fn tables_for(&self, primes: &[u64]) -> Vec<Arc<NttTable>> {
        primes
            .iter()
            .map(|q| Arc::clone(&self.table_by_prime[q]))
            .collect()
    }

    /// The full basis q_0…q_ℓ ∪ P at `level`, borrowed from the per-level
    /// cache (the hot-path replacement for `params().full_basis_at(level)`,
    /// which allocates).
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the chain.
    pub fn full_basis(&self, level: usize) -> &[u64] {
        &self.levels[level].full
    }

    /// NTT tables for q_0…q_ℓ in limb order, borrowed (the hot-path
    /// replacement for `tables_for(q_at(level))`).
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the chain.
    pub fn q_tables(&self, level: usize) -> &[Arc<NttTable>] {
        &self.levels[level].q_tables
    }

    /// Everything precomputed for `level`: bases, tables, ModDown and
    /// Rescale constants, converters.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the chain.
    pub(crate) fn level(&self, level: usize) -> &LevelCache {
        &self.levels[level]
    }

    /// The scratch arena hot-path ops lease temporaries from: the calling
    /// thread's worker arena when a scheduler installed one (see
    /// `wd_polyring::scratch::with_worker_arena` — per-worker ownership),
    /// otherwise this context's default arena.
    pub fn scratch(&self) -> Arc<ScratchArena> {
        wd_polyring::scratch::worker_arena().unwrap_or_else(|| Arc::clone(&self.scratch))
    }

    /// A freshly built basis converter `from → to` — for fixtures and
    /// tests, not for hot paths (every converter a keyswitch or rescale
    /// needs is built once, with the context).
    ///
    /// # Panics
    ///
    /// Panics if the bases are invalid (duplicated primes).
    pub fn converter(&self, from: &[u64], to: &[u64]) -> Arc<BasisConverter> {
        // invariant: panicking facade by contract — its callers pass bases
        // taken from validated `CkksParams` chains.
        Arc::new(basis_converter(from, to).expect("valid bases"))
    }

    /// Runs `f` with the context RNG. The lock recovers from poisoning (an
    /// isolated worker panic leaves the RNG state valid — every draw is
    /// completed atomically under the lock).
    pub(crate) fn with_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.rng.lock().unwrap_or_else(|p| p.into_inner()))
    }

    // ------------------------------------------------------------------
    // Encoding
    // ------------------------------------------------------------------

    /// Encodes real slots at the maximum level and default scale.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::DimensionMismatch`] for oversized messages.
    pub fn encode(&self, values: &[f64]) -> Result<Plaintext, CkksError> {
        let slots: Vec<C64> = values.iter().map(|&v| C64::new(v, 0.0)).collect();
        self.encode_complex_at(&slots, self.params.max_level(), self.params.scale())
    }

    /// Encodes complex slots at the maximum level and default scale.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::DimensionMismatch`] for oversized messages.
    pub fn encode_complex(&self, slots: &[C64]) -> Result<Plaintext, CkksError> {
        self.encode_complex_at(slots, self.params.max_level(), self.params.scale())
    }

    /// Encodes complex slots at a chosen level and scale.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::DimensionMismatch`], or [`CkksError::InvalidParams`]
    /// if the level exceeds the chain, a slot is not finite, or a scaled
    /// coefficient does not fit a signed 64-bit word.
    pub fn encode_complex_at(
        &self,
        slots: &[C64],
        level: usize,
        scale: f64,
    ) -> Result<Plaintext, CkksError> {
        if level > self.params.max_level() {
            return Err(CkksError::InvalidParams(format!(
                "level {level} beyond chain"
            )));
        }
        let finite = |c: &C64| c.re.is_finite() && c.im.is_finite();
        if let Some(i) = slots.iter().position(|c| !finite(c)) {
            let msg = format!("slot {i} is not finite: {:?}", slots[i]);
            return Err(CkksError::InvalidParams(msg));
        }
        let coeffs = self.encoder.encode(slots, scale)?;
        // Below 2^63 the cast is exact; past it, it saturates.
        if let Some(i) = coeffs
            .iter()
            .position(|c| c.is_nan() || c.round().abs() >= 2f64.powi(63))
        {
            let msg = format!("coefficient {i} is {:e}, beyond ±2^63", coeffs[i]);
            return Err(CkksError::InvalidParams(msg));
        }
        let signed: Vec<i64> = coeffs.iter().map(|&c| c.round() as i64).collect();
        let mut poly = RnsPoly::from_signed(self.params.q_at(level), &signed)?;
        poly.ntt_forward(self.q_tables(level));
        Ok(Plaintext { poly, scale, level })
    }

    /// Decodes to real slot values (imaginary parts dropped).
    ///
    /// # Errors
    ///
    /// Propagates CRT reconstruction failures.
    pub fn decode(&self, pt: &Plaintext) -> Result<Vec<f64>, CkksError> {
        Ok(self.decode_complex(pt)?.into_iter().map(|c| c.re).collect())
    }

    /// Decodes to complex slot values.
    ///
    /// # Errors
    ///
    /// Propagates CRT reconstruction failures.
    pub fn decode_complex(&self, pt: &Plaintext) -> Result<Vec<C64>, CkksError> {
        let coeffs: Vec<f64> = self
            .centered_coeffs(&pt.poly)?
            .into_iter()
            .map(|c| c as f64 / pt.scale)
            .collect();
        self.encoder.decode(&coeffs)
    }

    /// Every coefficient of `poly` (over a prefix q_0…q_ℓ of the chain, either
    /// domain) as its centred representative, reconstructed from the first
    /// ≤ [`DECODE_LIMBS`] limbs — wide enough for any decryptable value.
    /// Only the limbs that are read are inverse-transformed, and the
    /// reconstruction runs over whole limbs through the context's
    /// precomputed [`CrtReconstructor`] for that prefix length.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelMismatch`] if the limbs read are not over
    /// the chain's leading primes.
    pub(crate) fn centered_coeffs(&self, poly: &RnsPoly) -> Result<Vec<i128>, CkksError> {
        let take = poly.limb_count().min(DECODE_LIMBS);
        let crt = self
            .reconstructors
            .get(take - 1)
            .filter(|crt| {
                crt.values()
                    .zip(poly.limbs())
                    .all(|(q, limb)| limb.modulus().value() == q)
            })
            .ok_or_else(|| {
                CkksError::LevelMismatch(
                    "polynomial is not over the leading primes of this context's chain".into(),
                )
            })?;
        let tables = self.q_tables(take - 1);
        let limbs: Vec<Vec<u64>> = poly
            .limbs()
            .zip(tables)
            .map(|(limb, table)| {
                let mut coeffs = limb.coeffs().to_vec();
                if poly.domain() == Domain::Ntt {
                    table.inverse(&mut coeffs);
                }
                coeffs
            })
            .collect();
        let slabs: Vec<&[u64]> = limbs.iter().map(Vec::as_slice).collect();
        let mut out = vec![0i128; poly.degree()];
        crt.reconstruct_into(&slabs, &mut out);
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Keys
    // ------------------------------------------------------------------

    /// Generates secret, public and relinearization keys.
    pub fn keygen(&self) -> KeyPair {
        self.keygen_scaled(1)
    }

    /// Key generation with noise multiplier `t` (1 for CKKS, the plaintext
    /// modulus for BGV): s over the full basis, b = t·e − a·s over the q
    /// chain, and the relinearization key for s², drawn s; a, e; a_j, e_j.
    pub(crate) fn keygen_scaled(&self, t: u64) -> KeyPair {
        let top = self.level(self.params.max_level());
        let n = self.params.degree();
        let s_slab = self.with_rng(|r| sampling::ternary_slab(r, n));
        let s = sampling::noise_poly(&top.full_tables, &s_slab, |_, _, _| {});
        let (a, e) = self.with_rng(|r| {
            let a = sampling::uniform_poly(r, self.params.q_chain(), n);
            (a, sampling::gaussian_slab(r, n))
        });
        let b = sampling::noise_poly(&top.q_tables, &e, |i, m, limb| {
            let a_s = (a.limb(i).coeffs(), s.limb(i).coeffs());
            sampling::combine_limb(m, limb, t, a_s, Term::Key(None));
        });
        let secret = SecretKey { s };
        // invariant: a polynomial always matches its own shape.
        let s2 = secret.s.pointwise(&secret.s).expect("s^2");
        let relin = self.gen_ksk(&s2, &secret, t);
        KeyPair {
            secret,
            public: PublicKey { b, a },
            relin,
        }
    }

    /// Generates rotation keys for the given slot rotations (and, if
    /// `with_conjugation`, the conjugation key). Each key carries its Galois
    /// element and the element's NTT-domain permutation
    /// (`wd_polyring::ntt::galois_permutation`), which HROTATE, conjugation
    /// and hoisted rotation gather through.
    pub fn gen_rotation_keys(
        &self,
        sk: &SecretKey,
        rotations: &[isize],
        with_conjugation: bool,
    ) -> RotationKeys {
        let mut keys = RotationKeys::new();
        let mut gals: Vec<usize> = rotations
            .iter()
            .map(|&r| self.encoder.rotation_galois_element(r))
            .collect();
        if with_conjugation {
            gals.push(self.encoder.conjugation_galois_element());
        }
        for g in gals {
            if keys.get(g).is_some() {
                continue;
            }
            // s′ = φ_g(s), a permutation of s's evaluations.
            let perm: Arc<[u32]> =
                wd_polyring::ntt::galois_permutation(self.params.degree(), g).into();
            let mut key = self.gen_ksk(&sk.s.automorphism_ntt(&perm), sk, 1);
            key.galois = Some((g, perm));
            keys.insert(g, key);
        }
        keys
    }

    /// Generates a hybrid key-switching key encrypting s′ under s
    /// (Han–Ki \[26\]): digit j holds b_j = −a_j·s + m·e_j + P·F_j·s′ over
    /// the full basis, where F_j = Q̂_j·\[Q̂_j^{−1}\]_{Q_j} and m is
    /// `noise_scale`: 1 for CKKS, the plaintext modulus t for BGV (whose
    /// noise must vanish mod t). The RNG is drawn in the same order for
    /// every m: per digit, a_j then e_j.
    ///
    /// # Panics
    ///
    /// Panics unless `s_prime` and `sk.s` are NTT-domain polynomials over
    /// this context's full basis.
    pub fn gen_ksk(&self, s_prime: &RnsPoly, sk: &SecretKey, noise_scale: u64) -> KeySwitchKey {
        let top = self.level(self.params.max_level());
        let (full, n) = (&top.full, self.params.degree());
        assert!(
            self.spans(s_prime, full) && self.spans(&sk.s, full),
            "ksk shapes"
        );
        // One widened limb of a_j at a time: the combine step reads `u64`
        // words, and the key itself only ever exists in 32-bit words.
        let mut a_limb = vec![0u64; n];
        let digits = (0..top.digit_to_full.len())
            .map(|j| {
                let factors = self.ksk_factors(j);
                let (a, e) = self.with_rng(|r| {
                    let a = sampling::uniform_key(r, full, n);
                    (a, sampling::gaussian_slab(r, n))
                });
                let b = sampling::noise_key(&top.full_tables, &e, |i, m, limb| {
                    for (w, &x) in a_limb.iter_mut().zip(a.limb(i)) {
                        *w = u64::from(x);
                    }
                    let (f, f_shoup) = factors[i];
                    let p_f_s = Term::Key(Some((s_prime.limb(i).coeffs(), f, f_shoup)));
                    let a_s = (&a_limb[..], sk.s.limb(i).coeffs());
                    sampling::combine_limb(m, limb, noise_scale, a_s, p_f_s);
                });
                crate::keys::KskDigit { b, a }
            })
            .collect();
        KeySwitchKey {
            digits,
            galois: None,
        }
    }

    /// Whether `ct` is a ciphertext of this context: both components are
    /// NTT-domain polynomials of this degree over exactly q_0…q_level, for
    /// its own `level` — the operand check every keyswitch and rescale
    /// starts with, for callers (a server admitting wire operands) that
    /// want it before any op runs.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelMismatch`] for a wrong degree or domain,
    /// a limb outside this context's chain, or components whose limb count
    /// does not match the level.
    pub fn check_ciphertext(&self, ct: &Ciphertext) -> Result<(), CkksError> {
        if operand_level(self, &ct.c0)? != ct.level || operand_level(self, &ct.c1)? != ct.level {
            return Err(CkksError::LevelMismatch(
                format!("ciphertext limbs do not match its level {}", ct.level).into(),
            ));
        }
        Ok(())
    }

    /// The entry check of encryption and decryption: every operand is over
    /// exactly q_0…q_level ([`operand_level`]) and every key spans them.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelMismatch`] naming the operand or key.
    fn check_operands(
        &self,
        level: usize,
        keys: &[&RnsPoly],
        ops: &[&RnsPoly],
    ) -> Result<(), CkksError> {
        let fail = |what: &str| {
            Err(CkksError::LevelMismatch(
                format!("{what} level {level}").into(),
            ))
        };
        for op in ops {
            if operand_level(self, op)? != level {
                return fail("operand is not at");
            }
        }
        if keys.iter().all(|k| self.spans(k, self.params.q_at(level))) {
            Ok(())
        } else {
            fail("key does not span")
        }
    }

    /// Whether `p` is an NTT-domain polynomial of this degree whose leading
    /// limbs are over `primes`, in order.
    fn spans(&self, p: &RnsPoly, primes: &[u64]) -> bool {
        p.domain() == Domain::Ntt
            && p.degree() == self.params.degree()
            && p.limb_count() >= primes.len()
            && p.limbs()
                .zip(primes)
                .all(|(l, &q)| l.modulus().value() == q)
    }

    /// Per-limb factors (P·F_j mod r) of digit `j` over the top-level full
    /// basis, each with its Shoup constant.
    fn ksk_factors(&self, j: usize) -> Vec<(u64, u64)> {
        let lmax = self.params.max_level();
        let top = self.level(lmax);
        let (full, conv) = (&top.full, &top.digit_to_full[j]);
        let q_chain = self.params.q_chain();
        let digit_primes = &q_chain[self.params.digit_limbs(lmax, j)];
        let p_chain = self.params.p_chain();
        // t ≡ Q̂_j^{-1} mod each digit prime.
        let t_residues: Vec<u64> = digit_primes
            .iter()
            .map(|&qi| {
                let m = wd_modmath::Modulus::new(qi);
                let mut hat = 1u64;
                for &qk in q_chain {
                    if !digit_primes.contains(&qk) {
                        hat = m.mul(hat, m.reduce(qk));
                    }
                }
                // invariant: hat is a product of chain primes distinct from
                // qi; distinct NTT primes are coprime, so the inverse exists.
                m.inv(hat).expect("distinct primes")
            })
            .collect();
        // Reconstruct (a representative of) t modulo every full-basis prime:
        // a conversion of one-coefficient limbs.
        let t_limbs: Vec<&[u64]> = t_residues.iter().map(std::slice::from_ref).collect();
        let mut t_full = vec![0u64; full.len()];
        for (i, t) in t_full.iter_mut().enumerate() {
            conv.convert_limb_into(&t_limbs, i, std::slice::from_mut(t));
        }
        // F_j·P mod r = Q̂_j·t·P mod r.
        full.iter()
            .zip(&t_full)
            .map(|(&r, &t)| {
                let m = wd_modmath::Modulus::new(r);
                let mut f = m.reduce(t);
                for &qk in q_chain {
                    if !digit_primes.contains(&qk) {
                        f = m.mul(f, m.reduce(qk));
                    }
                }
                for &pk in p_chain {
                    f = m.mul(f, m.reduce(pk));
                }
                (f, m.shoup(f))
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Encryption
    // ------------------------------------------------------------------

    /// Encrypts a plaintext under the public key.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelMismatch`] if the plaintext level exceeds the key
    /// chain (cannot happen for plaintexts produced by this context).
    pub fn encrypt(&self, pt: &Plaintext, pk: &PublicKey) -> Result<Ciphertext, CkksError> {
        let (c0, c1) = self.encrypt_scaled(&pt.poly, pt.level, pk, 1)?;
        Ok(Ciphertext {
            c0,
            c1,
            level: pt.level,
            scale: pt.scale,
        })
    }

    /// c0 = v·b + t·e0 + m and c1 = v·a + t·e1 at `level`, drawn v, e0, e1,
    /// with noise multiplier `t` (1 for CKKS, the plaintext modulus for
    /// BGV). Per limb v's noise limb is scratch, and each component is one
    /// [`sampling::combine_limb`] pass reading the key limbs in place.
    pub(crate) fn encrypt_scaled(
        &self,
        m: &RnsPoly,
        level: usize,
        pk: &PublicKey,
        t: u64,
    ) -> Result<(RnsPoly, RnsPoly), CkksError> {
        self.check_operands(level, &[&pk.b, &pk.a], &[m])?;
        let n = self.params.degree();
        let (v, e0, e1) = self.with_rng(|r| {
            let (v, e0) = (sampling::ternary_slab(r, n), sampling::gaussian_slab(r, n));
            (v, e0, sampling::gaussian_slab(r, n))
        });
        let (mut c0, mut c1) = (Vec::with_capacity(level + 1), Vec::with_capacity(level + 1));
        for (i, table) in self.q_tables(level).iter().enumerate() {
            let (md, v_i) = (table.modulus(), sampling::noise_limb(table, &v));
            let [mut l0, mut l1] = [&e0, &e1].map(|e| sampling::noise_limb(table, e));
            let (b_i, a_i, m_i) = (pk.b.limb(i), pk.a.limb(i), m.limb(i).coeffs());
            sampling::combine_limb(md, &mut l0, t, (&v_i, b_i.coeffs()), Term::Sum(Some(m_i)));
            sampling::combine_limb(md, &mut l1, t, (&v_i, a_i.coeffs()), Term::Sum(None));
            c0.push(Poly::from_reduced_coeffs(md.value(), l0)?);
            c1.push(Poly::from_reduced_coeffs(md.value(), l1)?);
        }
        count_limb_transforms(3 * (level + 1));
        Ok((
            RnsPoly::from_limbs(c0, Domain::Ntt)?,
            RnsPoly::from_limbs(c1, Domain::Ntt)?,
        ))
    }

    /// Decrypts to a plaintext (m ≈ c0 + c1·s).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelMismatch`] if the secret key belongs to
    /// different parameters (too few limbs for the ciphertext level).
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey) -> Result<Plaintext, CkksError> {
        let poly = self.decrypt_raw((&ct.c0, &ct.c1), ct.level, &sk.s)?;
        Ok(Plaintext {
            poly,
            scale: ct.scale,
            level: ct.level,
        })
    }

    /// c0 + c1·s over the `level + 1` limbs of an NTT-domain ciphertext, one
    /// [`sampling::combine_limb`] pass per limb over a copy of c0, reading
    /// s in place (CKKS and BGV).
    pub(crate) fn decrypt_raw(
        &self,
        (c0, c1): (&RnsPoly, &RnsPoly),
        level: usize,
        s: &RnsPoly,
    ) -> Result<RnsPoly, CkksError> {
        self.check_operands(level, &[s], &[c0, c1])?;
        let limbs = (0..=level).map(|i| {
            let (m, mut out) = (c0.limb(i).modulus(), c0.limb(i).coeffs().to_vec());
            let c1_s = (c1.limb(i).coeffs(), s.limb(i).coeffs());
            sampling::combine_limb(m, &mut out, 1, c1_s, Term::Sum(None));
            Poly::from_reduced_coeffs(m.value(), out)
        });
        let limbs = limbs.collect::<Result<_, _>>()?;
        Ok(RnsPoly::from_limbs(limbs, Domain::Ntt)?)
    }

    /// Encrypts real values directly (encode + encrypt).
    ///
    /// # Errors
    ///
    /// Propagates encoding and encryption errors.
    pub fn encrypt_values(&self, values: &[f64], pk: &PublicKey) -> Result<Ciphertext, CkksError> {
        self.encrypt(&self.encode(values)?, pk)
    }

    /// Decrypts and decodes to real values.
    ///
    /// # Errors
    ///
    /// Propagates decoding errors.
    pub fn decrypt_values(&self, ct: &Ciphertext, sk: &SecretKey) -> Result<Vec<f64>, CkksError> {
        self.decode(&self.decrypt(ct, sk)?)
    }
}

/// First `count` limbs of an RNS polynomial, as a new polynomial.
///
/// # Panics
///
/// Panics if `count` is zero or exceeds the limb count.
pub(crate) fn restrict(p: &RnsPoly, count: usize) -> RnsPoly {
    assert!(count > 0 && count <= p.limb_count());
    let limbs: Vec<Poly> = (0..count).map(|i| p.limb(i).clone()).collect();
    // invariant: a non-empty limb prefix of a valid RnsPoly (asserted
    // above) is itself valid — same degree, same domain, distinct primes.
    RnsPoly::from_limbs(limbs, p.domain()).expect("subset of a valid poly")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPoly;
    use crate::params::ParamSet;

    fn ctx() -> Result<CkksContext, CkksError> {
        let params = ParamSet::set_a().with_degree(1 << 6).build()?;
        CkksContext::with_seed(params, 42)
    }

    #[test]
    fn encode_decode_round_trip() -> Result<(), CkksError> {
        let ctx = ctx()?;
        let vals = vec![1.0, -2.5, 3.25, 0.0, 100.0];
        let pt = ctx.encode(&vals)?;
        let out = ctx.decode(&pt)?;
        for (a, b) in vals.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        Ok(())
    }

    #[test]
    fn encrypt_decrypt_round_trip() -> Result<(), CkksError> {
        let ctx = ctx()?;
        let kp = ctx.keygen();
        let vals = vec![0.5, -1.5, 2.0, 7.0];
        let ct = ctx.encrypt_values(&vals, &kp.public)?;
        let out = ctx.decrypt_values(&ct, &kp.secret)?;
        for (a, b) in vals.iter().zip(&out) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        Ok(())
    }

    #[test]
    fn fresh_ciphertext_noise_is_small() -> Result<(), CkksError> {
        let ctx = ctx()?;
        let kp = ctx.keygen();
        let ct = ctx.encrypt_values(&[0.0; 8], &kp.public)?;
        let out = ctx.decrypt_values(&ct, &kp.secret)?;
        let max = out.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(max < 1e-3, "noise too large: {max}");
        Ok(())
    }

    #[test]
    fn different_seeds_give_different_ciphertexts() -> Result<(), CkksError> {
        let params = ParamSet::set_a().with_degree(1 << 6).build()?;
        let c1 = CkksContext::with_seed(params.clone(), 1)?;
        let c2 = CkksContext::with_seed(params, 2)?;
        let k1 = c1.keygen();
        let k2 = c2.keygen();
        assert_ne!(k1.public.a, k2.public.a);
        Ok(())
    }

    #[test]
    fn encode_at_lower_level_has_fewer_limbs() -> Result<(), CkksError> {
        let ctx = ctx()?;
        let pt = ctx.encode_complex_at(&[C64::new(1.0, 0.0)], 0, ctx.params().scale())?;
        assert_eq!(pt.poly.limb_count(), 1);
        let out = ctx.decode(&pt)?;
        assert!((out[0] - 1.0).abs() < 1e-4);
        Ok(())
    }

    #[test]
    fn level_beyond_chain_rejected() -> Result<(), CkksError> {
        let ctx = ctx()?;
        let r = ctx.encode_complex_at(&[C64::new(1.0, 0.0)], 99, ctx.params().scale());
        assert!(matches!(r, Err(CkksError::InvalidParams(_))));
        Ok(())
    }

    #[test]
    fn restrict_keeps_prefix() -> Result<(), CkksError> {
        let ctx = ctx()?;
        let kp = ctx.keygen();
        let r = restrict(&kp.secret.s, 2);
        assert_eq!(r.limb_count(), 2);
        assert_eq!(r.limb(0), kp.secret.s.limb(0));
        Ok(())
    }

    /// Every converter staged at build converts a random limb exactly like
    /// one freshly built for the same bases, at every level of SET-A and
    /// SET-C; invalid bases stay a typed error.
    #[test]
    fn staged_converters_match_fresh_ones() -> Result<(), CkksError> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(3);
        for set in [ParamSet::set_a(), ParamSet::set_c()] {
            let ctx = CkksContext::with_seed(set.with_degree(1 << 6).build()?, 1)?;
            let params = ctx.params();
            for level in 0..=params.max_level() {
                let cache = ctx.level(level);
                let q_now = params.q_at(level);
                assert_eq!(cache.digit_to_full.len(), params.dnum_at(level));
                assert_eq!(cache.last_to_rest.is_some(), level > 0);
                let mut staged: Vec<(&BasisConverter, Vec<u64>, Vec<u64>)> = cache
                    .digit_to_full
                    .iter()
                    .enumerate()
                    .map(|(j, c)| {
                        (
                            c,
                            q_now[params.digit_limbs(level, j)].to_vec(),
                            cache.full.clone(),
                        )
                    })
                    .collect();
                staged.push((&cache.p_to_q, params.p_chain().to_vec(), q_now.to_vec()));
                if let Some(c) = &cache.last_to_rest {
                    staged.push((c, vec![q_now[level]], q_now[..level].to_vec()));
                }
                for (conv, from, to) in staged {
                    let fresh = basis_converter(&from, &to)?;
                    let limbs: Vec<Vec<u64>> = from
                        .iter()
                        .map(|&q| (0..params.degree()).map(|_| rng.gen_range(0..q)).collect())
                        .collect();
                    let src: Vec<&[u64]> = limbs.iter().map(Vec::as_slice).collect();
                    for t in 0..to.len() {
                        let mut got = vec![0u64; params.degree()];
                        let mut want = got.clone();
                        conv.convert_limb_into(&src, t, &mut got);
                        fresh.convert_limb_into(&src, t, &mut want);
                        assert_eq!(got, want, "level {level}, {from:?} -> limb {t} of {to:?}");
                    }
                }
            }
        }
        let q = ParamSet::set_a().build()?.q_chain().to_vec();
        assert!(basis_converter(&[q[0], q[0]], &q).is_err());
        Ok(())
    }

    /// Non-finite slots and coefficients past ±2^63 are typed errors (a
    /// cast turned NaN into 0 and saturated the rest), not corrupt slots.
    #[test]
    fn encode_rejects_non_finite_and_oversized_inputs() -> Result<(), CkksError> {
        let ctx = ctx()?;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e30, -1e30] {
            match ctx.encode(&[1.0, bad]) {
                Err(CkksError::InvalidParams(msg)) => {
                    assert!(msg.contains(if bad.is_finite() {
                        "coefficient"
                    } else {
                        "slot 1"
                    }));
                }
                other => panic!("encode([1, {bad}]) = {other:?}"),
            }
        }
        let im = ctx.encode_complex(&[C64::new(0.0, f64::NAN)]);
        assert!(matches!(im, Err(CkksError::InvalidParams(_))));
        let scale = ctx.encode_complex_at(&[C64::new(1.0, 0.0)], 0, f64::NAN);
        assert!(matches!(scale, Err(CkksError::InvalidParams(_))));
        let vals = [1e6, -1e6, 0.5];
        for (a, b) in vals.iter().zip(ctx.decode(&ctx.encode(&vals)?)?) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        Ok(())
    }

    /// Key generation, encryption and decryption as they were composed from
    /// whole-polynomial ops — the oracle the one-pass RLWE kernel is held to.
    fn keygen_composed(ctx: &CkksContext, t: u64) -> KeyPair {
        let top = ctx.level(ctx.params.max_level());
        let n = ctx.params.degree();
        let signed = |primes: &[u64], slab: Vec<i64>| RnsPoly::from_signed(primes, &slab).unwrap();
        let mut s = signed(&top.full, ctx.with_rng(|r| sampling::ternary_slab(r, n)));
        s.ntt_forward(&top.full_tables);
        let q = ctx.params.q_chain();
        let a = ctx.with_rng(|r| sampling::uniform_poly(r, q, n));
        let mut e = signed(q, ctx.with_rng(|r| sampling::gaussian_slab(r, n)));
        e.ntt_forward(&top.q_tables);
        let s_q = restrict(&s, q.len());
        let b = a
            .pointwise(&s_q)
            .unwrap()
            .neg()
            .add(&e.scale_scalar(t))
            .unwrap();
        let s2 = s.pointwise(&s).unwrap();
        let digits = (0..top.digit_to_full.len())
            .map(|j| {
                let factors: Vec<u64> = ctx.ksk_factors(j).iter().map(|f| f.0).collect();
                let a = ctx.with_rng(|r| sampling::uniform_poly(r, &top.full, n));
                let mut e = signed(&top.full, ctx.with_rng(|r| sampling::gaussian_slab(r, n)));
                e.ntt_forward(&top.full_tables);
                let b = a
                    .pointwise(&s)
                    .unwrap()
                    .neg()
                    .add(&e.scale_scalar(t))
                    .unwrap();
                let b = b.add(&s2.scale_per_limb(&factors)).unwrap();
                crate::keys::KskDigit {
                    b: KeyPoly::from_rns(&b),
                    a: KeyPoly::from_rns(&a),
                }
            })
            .collect();
        KeyPair {
            secret: SecretKey { s },
            public: PublicKey { b, a },
            relin: KeySwitchKey {
                digits,
                galois: None,
            },
        }
    }

    fn encrypt_composed(ctx: &CkksContext, m: &RnsPoly, pk: &PublicKey, t: u64) -> Ciphertext {
        let (primes, n) = (m.primes(), ctx.params.degree());
        let tables = ctx.tables_for(&primes);
        let draw = |f: fn(&mut StdRng, usize) -> Vec<i64>| {
            let mut p = RnsPoly::from_signed(&primes, &ctx.with_rng(|r| f(r, n))).unwrap();
            p.ntt_forward(&tables);
            p
        };
        let v = draw(sampling::ternary_slab);
        let (e0, e1) = (draw(sampling::gaussian_slab), draw(sampling::gaussian_slab));
        let (pk_b, pk_a) = (restrict(&pk.b, primes.len()), restrict(&pk.a, primes.len()));
        let c0 = v
            .pointwise(&pk_b)
            .unwrap()
            .add(&e0.scale_scalar(t))
            .unwrap();
        let c1 = v
            .pointwise(&pk_a)
            .unwrap()
            .add(&e1.scale_scalar(t))
            .unwrap();
        Ciphertext {
            c0: c0.add(m).unwrap(),
            c1,
            level: primes.len() - 1,
            scale: 1.0,
        }
    }

    fn decrypt_composed(ct: &Ciphertext, sk: &SecretKey) -> RnsPoly {
        let s = restrict(&sk.s, ct.level + 1);
        ct.c1.pointwise(&s).unwrap().add(&ct.c0).unwrap()
    }

    /// The one-pass key generation, encryption and decryption equal the
    /// composed oracle bit for bit: CKKS (t = 1) and a BGV t, K = 1 and a
    /// partial last digit at K = 2, every level of encryption.
    #[test]
    fn rlwe_pass_matches_the_composed_oracle() -> Result<(), CkksError> {
        for (set, t) in [
            (ParamSet::set_a(), 1),
            (ParamSet::set_b(), 65_537),
            (ParamSet::set_b().with_special(2), 1),
        ] {
            let params = set.with_degree(1 << 6).build()?;
            let fused = CkksContext::with_seed(params.clone(), 31)?;
            let composed = CkksContext::with_seed(params, 31)?;
            let (kp, want) = (fused.keygen_scaled(t), keygen_composed(&composed, t));
            assert_eq!(kp.secret, want.secret);
            assert_eq!(kp.public, want.public);
            assert_eq!(kp.relin, want.relin);
            for level in 0..=fused.params.max_level() {
                let pt = fused.encode_complex_at(&[C64::new(0.5, -1.0)], level, 64.0)?;
                let (c0, c1) = fused.encrypt_scaled(&pt.poly, level, &kp.public, t)?;
                let ct = encrypt_composed(&composed, &pt.poly, &want.public, t);
                assert_eq!((&c0, &c1), (&ct.c0, &ct.c1), "t = {t}, level {level}");
                let dec = fused.decrypt_raw((&c0, &c1), level, &kp.secret.s)?;
                assert_eq!(dec, decrypt_composed(&ct, &want.secret));
            }
        }
        Ok(())
    }

    /// Operands from another ring, or at a level beyond the key, are typed
    /// errors, not panics or garbage.
    #[test]
    fn rlwe_pass_rejects_foreign_operands() -> Result<(), CkksError> {
        let ctx = ctx()?;
        let other = ParamSet::set_a().with_degree(1 << 7).build()?;
        let (kp, foreign) = (ctx.keygen(), CkksContext::with_seed(other, 1)?.keygen());
        let pt = ctx.encode(&[1.0])?;
        let ct = ctx.encrypt(&pt, &kp.public)?;
        let wrong_key = ctx.encrypt(&pt, &foreign.public);
        assert!(matches!(wrong_key, Err(CkksError::LevelMismatch(_))));
        assert!(ctx.decrypt(&ct, &foreign.secret).is_err());
        let mut coeff = pt.clone();
        coeff.poly.set_domain(Domain::Coeff);
        assert!(ctx.encrypt(&coeff, &kp.public).is_err());
        let beyond = ctx.encrypt_scaled(&pt.poly, 9, &kp.public, 1);
        assert!(matches!(beyond, Err(CkksError::LevelMismatch(_))));
        Ok(())
    }

    #[test]
    fn decrypt_with_wrong_key_is_garbage() -> Result<(), CkksError> {
        let ctx = ctx()?;
        let kp1 = ctx.keygen();
        let kp2 = ctx.keygen();
        let ct = ctx.encrypt_values(&[1.0, 2.0, 3.0], &kp1.public)?;
        let out = ctx.decrypt_values(&ct, &kp2.secret)?;
        let err = (out[0] - 1.0).abs() + (out[1] - 2.0).abs();
        assert!(err > 1.0, "wrong key should not decrypt: err = {err}");
        Ok(())
    }
}
