//! RNS polynomials: one residue limb per prime of the modulus chain.
//!
//! CKKS at level ℓ works in R_{Q_ℓ} with Q_ℓ = Π q_i; in RNS form the
//! polynomial is stored as ℓ+1 independent limbs, each a length-N vector of
//! residues. The limb dimension (the *L dimension* of §III-C) and the degree
//! dimension N are exactly the parallelism the PE kernel design exploits.

use crate::ntt::NttTable;
use crate::poly::Poly;
use crate::PolyError;
use std::sync::Arc;
use wd_modmath::lanes::{dispatch, reduce_once, Kernel};

/// `acc[i] = acc[i] + src[perm[i]] mod q`: the gather of
/// [`RnsPoly::automorphism_ntt`] fused with the addition, run through the
/// lane dispatch.
struct AddGathered<'a> {
    q: u64,
    acc: &'a mut [u64],
    src: &'a [u64],
    perm: &'a [u32],
}

impl Kernel for AddGathered<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        let (q, src) = (self.q, self.src);
        for (c, &i) in self.acc.iter_mut().zip(self.perm) {
            *c = reduce_once(*c + src[i as usize], q);
        }
    }
}

/// Which domain the limb coefficients currently live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Coefficient (time) domain.
    Coeff,
    /// NTT (evaluation) domain — pointwise products are ring products.
    Ntt,
}

/// Adds `limbs` to the `polyring.ntt_limb_transforms` trace counter (forward
/// and inverse together — the host transform count a keyswitch is pinned
/// to). [`RnsPoly::ntt_forward_with`] / [`RnsPoly::ntt_inverse_with`] call it
/// themselves; code that transforms single limbs through an
/// [`NttTable`] directly (the fused keyswitch, ModDown, Rescale) reports
/// them here so the counter keeps reading what ran.
pub fn count_limb_transforms(limbs: usize) {
    if wd_trace::enabled() {
        wd_trace::counter("polyring.ntt_limb_transforms", limbs as u64);
    }
}

/// A polynomial in RNS representation.
///
/// # Examples
///
/// ```
/// use wd_polyring::rns::{Domain, RnsPoly};
/// let p = RnsPoly::zero(&[97, 113], 4).unwrap();
/// assert_eq!(p.limb_count(), 2);
/// assert_eq!(p.domain(), Domain::Coeff);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    limbs: Vec<Poly>,
    domain: Domain,
}

impl RnsPoly {
    /// Zero polynomial over the given prime chain.
    ///
    /// # Errors
    ///
    /// Propagates degree/modulus validation failures.
    pub fn zero(primes: &[u64], n: usize) -> Result<Self, PolyError> {
        let limbs = primes
            .iter()
            .map(|&q| Poly::zero(q, n))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            limbs,
            domain: Domain::Coeff,
        })
    }

    /// Builds from signed coefficients, reducing into every limb.
    ///
    /// # Errors
    ///
    /// Propagates degree/modulus validation failures.
    pub fn from_signed(primes: &[u64], coeffs: &[i64]) -> Result<Self, PolyError> {
        let limbs = primes
            .iter()
            .map(|&q| Poly::from_signed(q, coeffs))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            limbs,
            domain: Domain::Coeff,
        })
    }

    /// Builds from per-limb polynomials (all must share the degree).
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::RingMismatch`] on ragged degrees, or
    /// [`PolyError::BadDegree`] when empty.
    pub fn from_limbs(limbs: Vec<Poly>, domain: Domain) -> Result<Self, PolyError> {
        let n = limbs
            .first()
            .map(Poly::degree)
            .ok_or(PolyError::BadDegree(0))?;
        if limbs.iter().any(|l| l.degree() != n) {
            return Err(PolyError::RingMismatch);
        }
        Ok(Self { limbs, domain })
    }

    /// Ring degree N.
    pub fn degree(&self) -> usize {
        self.limbs[0].degree()
    }

    /// Number of RNS limbs.
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// Current domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Prime values of the limb chain, in order.
    pub fn primes(&self) -> Vec<u64> {
        self.limbs.iter().map(|l| l.modulus().value()).collect()
    }

    /// Borrow a limb.
    pub fn limb(&self, i: usize) -> &Poly {
        &self.limbs[i]
    }

    /// Mutably borrow a limb.
    pub fn limb_mut(&mut self, i: usize) -> &mut Poly {
        &mut self.limbs[i]
    }

    /// Iterate over limbs.
    pub fn limbs(&self) -> impl Iterator<Item = &Poly> {
        self.limbs.iter()
    }

    /// Iterate mutably over limbs (the flat work-item axis of the parallel
    /// execution layer — see [`crate::par`]).
    pub fn limbs_mut(&mut self) -> impl Iterator<Item = &mut Poly> {
        self.limbs.iter_mut()
    }

    /// Overrides the domain marker (used by transforms that operate on raw
    /// limb data).
    pub fn set_domain(&mut self, d: Domain) {
        self.domain = d;
    }

    fn zip_check(&self, rhs: &Self) -> Result<(), PolyError> {
        if self.limb_count() != rhs.limb_count()
            || self.degree() != rhs.degree()
            || self.domain != rhs.domain
        {
            return Err(PolyError::RingMismatch);
        }
        Ok(())
    }

    /// Limb-wise addition (any domain, domains must match).
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::RingMismatch`] on shape or domain mismatch.
    pub fn add(&self, rhs: &Self) -> Result<Self, PolyError> {
        self.zip_check(rhs)?;
        let limbs = self
            .limbs
            .iter()
            .zip(&rhs.limbs)
            .map(|(a, b)| a.add(b))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            limbs,
            domain: self.domain,
        })
    }

    /// Limb-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::RingMismatch`] on shape or domain mismatch.
    pub fn sub(&self, rhs: &Self) -> Result<Self, PolyError> {
        self.zip_check(rhs)?;
        let limbs = self
            .limbs
            .iter()
            .zip(&rhs.limbs)
            .map(|(a, b)| a.sub(b))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            limbs,
            domain: self.domain,
        })
    }

    /// In-place limb-wise addition, `self += rhs` (any domain, domains
    /// must match): [`RnsPoly::add`] without the fresh result, through
    /// [`wd_modmath::Modulus::add_slab_assign`].
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::RingMismatch`] on shape, domain or modulus
    /// mismatch, before any limb is written.
    pub fn add_assign(&mut self, rhs: &Self) -> Result<(), PolyError> {
        self.zip_check_moduli(rhs)?;
        for (acc, b) in self.limbs.iter_mut().zip(&rhs.limbs) {
            let m = *acc.modulus();
            m.add_slab_assign(acc.coeffs_mut(), b.coeffs());
        }
        Ok(())
    }

    /// Fused multiply-accumulate, `self += a ⊙ b` (all three in the NTT
    /// domain): `self.add(&a.pointwise(&b)?)` in one pass and no temporary,
    /// through [`wd_modmath::Modulus::mul_add_slab_assign`].
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::RingMismatch`] on shape or modulus mismatch or
    /// when any operand is in the coefficient domain, before any limb is
    /// written.
    pub fn mul_add_assign(&mut self, a: &Self, b: &Self) -> Result<(), PolyError> {
        if self.domain != Domain::Ntt {
            return Err(PolyError::RingMismatch);
        }
        self.zip_check_moduli(a)?;
        self.zip_check_moduli(b)?;
        for ((acc, x), y) in self.limbs.iter_mut().zip(&a.limbs).zip(&b.limbs) {
            let m = *acc.modulus();
            m.mul_add_slab_assign(acc.coeffs_mut(), x.coeffs(), y.coeffs());
        }
        Ok(())
    }

    /// `self += src.automorphism_ntt(perm)` in one gathering pass, without
    /// the permuted copy.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::RingMismatch`] on shape or modulus mismatch, a
    /// coefficient-domain operand, or `perm.len() != N`, before any limb is
    /// written.
    pub fn add_automorphism_ntt_assign(
        &mut self,
        src: &Self,
        perm: &[u32],
    ) -> Result<(), PolyError> {
        if self.domain != Domain::Ntt || perm.len() != self.degree() {
            return Err(PolyError::RingMismatch);
        }
        self.zip_check_moduli(src)?;
        for (acc, s) in self.limbs.iter_mut().zip(&src.limbs) {
            let q = acc.modulus().value();
            dispatch(AddGathered {
                q,
                acc: acc.coeffs_mut(),
                src: s.coeffs(),
                perm,
            });
        }
        Ok(())
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            limbs: self.limbs.iter().map(Poly::neg).collect(),
            domain: self.domain,
        }
    }

    /// Pointwise (Hadamard) product — the ring product when both operands
    /// are in the NTT domain.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::RingMismatch`] on shape or modulus mismatch or
    /// when either operand is still in the coefficient domain.
    pub fn pointwise(&self, rhs: &Self) -> Result<Self, PolyError> {
        if self.domain != Domain::Ntt || rhs.domain != Domain::Ntt {
            return Err(PolyError::RingMismatch);
        }
        self.zip_check_moduli(rhs)?;
        let limbs = self
            .limbs
            .iter()
            .zip(&rhs.limbs)
            .map(|(a, b)| a.pointwise(b))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            limbs,
            domain: Domain::Ntt,
        })
    }

    /// Forward NTT on every limb (tables must be ordered like the limbs).
    /// One thread of [`RnsPoly::ntt_forward_with`].
    ///
    /// # Panics
    ///
    /// Panics if table moduli do not match limb moduli, or the poly is
    /// already in the NTT domain.
    pub fn ntt_forward(&mut self, tables: &[Arc<NttTable>]) {
        self.ntt_forward_with(tables, 1);
    }

    /// Inverse NTT on every limb. One thread of
    /// [`RnsPoly::ntt_inverse_with`].
    ///
    /// # Panics
    ///
    /// Panics if table moduli do not match limb moduli, or the poly is
    /// already in the coefficient domain.
    pub fn ntt_inverse(&mut self, tables: &[Arc<NttTable>]) {
        self.ntt_inverse_with(tables, 1);
    }

    /// Forward NTT on every limb with an explicit thread budget — the
    /// CPU-side analogue of the PE kernel's limb dimension (each RNS limb is
    /// independent, exactly why the GPU kernel can take the whole ciphertext
    /// at once). Every thread count produces bit-identical output, and every
    /// call adds the limb count to `polyring.ntt_limb_transforms`.
    ///
    /// # Panics
    ///
    /// Same contract as [`RnsPoly::ntt_forward`].
    pub fn ntt_forward_with(&mut self, tables: &[Arc<NttTable>], threads: usize) {
        assert_eq!(self.domain, Domain::Coeff, "already in NTT domain");
        assert!(tables.len() >= self.limbs.len());
        let mut work: Vec<(&mut Poly, &NttTable)> = self
            .limbs
            .iter_mut()
            .zip(tables)
            .map(|(limb, t)| {
                assert_eq!(t.modulus().value(), limb.modulus().value());
                (limb, t.as_ref())
            })
            .collect();
        crate::par::for_each_mut(threads, &mut work, |(limb, t)| t.forward(limb.coeffs_mut()));
        self.domain = Domain::Ntt;
        self.count_limb_transforms();
    }

    /// Inverse NTT on every limb with an explicit thread budget (see
    /// [`RnsPoly::ntt_forward_with`]).
    ///
    /// # Panics
    ///
    /// Same contract as [`RnsPoly::ntt_inverse`].
    pub fn ntt_inverse_with(&mut self, tables: &[Arc<NttTable>], threads: usize) {
        assert_eq!(self.domain, Domain::Ntt, "already in coefficient domain");
        assert!(tables.len() >= self.limbs.len());
        let mut work: Vec<(&mut Poly, &NttTable)> = self
            .limbs
            .iter_mut()
            .zip(tables)
            .map(|(limb, t)| {
                assert_eq!(t.modulus().value(), limb.modulus().value());
                (limb, t.as_ref())
            })
            .collect();
        crate::par::for_each_mut(threads, &mut work, |(limb, t)| t.inverse(limb.coeffs_mut()));
        self.domain = Domain::Coeff;
        self.count_limb_transforms();
    }

    /// One RNS transform just ran over every limb.
    fn count_limb_transforms(&self) {
        count_limb_transforms(self.limbs.len());
    }

    fn zip_check_moduli(&self, rhs: &Self) -> Result<(), PolyError> {
        self.zip_check(rhs)?;
        if self
            .limbs
            .iter()
            .zip(&rhs.limbs)
            .any(|(a, b)| a.modulus().value() != b.modulus().value())
        {
            return Err(PolyError::RingMismatch);
        }
        Ok(())
    }

    /// Galois automorphism X ↦ X^g applied limb-wise (coefficient domain):
    /// the definition [`RnsPoly::automorphism_ntt`] is tested against.
    ///
    /// # Panics
    ///
    /// Panics when called in the NTT domain.
    pub fn automorphism(&self, g: usize) -> Self {
        assert_eq!(
            self.domain,
            Domain::Coeff,
            "automorphism acts on coefficients"
        );
        Self {
            limbs: self.limbs.iter().map(|l| l.automorphism(g)).collect(),
            domain: Domain::Coeff,
        }
    }

    /// Galois automorphism on NTT-domain data: every limb gathered through
    /// `perm`, the [`crate::ntt::galois_permutation`] of the element. Bit-
    /// identical to INTT → [`RnsPoly::automorphism`] → NTT, without the two
    /// transforms.
    ///
    /// # Panics
    ///
    /// Panics in the coefficient domain or when `perm.len() != N`.
    pub fn automorphism_ntt(&self, perm: &[u32]) -> Self {
        assert_eq!(self.domain, Domain::Ntt, "permutation acts on evaluations");
        assert_eq!(perm.len(), self.degree());
        let limbs = self
            .limbs
            .iter()
            .map(|l| {
                let src = l.coeffs();
                let coeffs = perm.iter().map(|&i| src[i as usize]).collect();
                Poly::from_reduced_coeffs(l.modulus().value(), coeffs)
                    .expect("same ring as the source limb")
            })
            .collect();
        Self {
            limbs,
            domain: Domain::Ntt,
        }
    }

    /// Multiplies every limb by a scalar (reduced per limb).
    pub fn scale_scalar(&self, s: u64) -> Self {
        Self {
            limbs: self.limbs.iter().map(|l| l.scale(s)).collect(),
            domain: self.domain,
        }
    }

    /// Multiplies limb `i` by a limb-specific scalar — used by rescaling and
    /// ModDown, where the constant (q_last^{-1} mod q_i) differs per limb.
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len() != limb_count`.
    pub fn scale_per_limb(&self, scalars: &[u64]) -> Self {
        assert_eq!(scalars.len(), self.limb_count());
        Self {
            limbs: self
                .limbs
                .iter()
                .zip(scalars)
                .map(|(l, &s)| l.scale(s))
                .collect(),
            domain: self.domain,
        }
    }

    /// Drops the last `k` limbs (modulus switching step of RESCALE).
    ///
    /// # Panics
    ///
    /// Panics if `k >= limb_count`.
    pub fn drop_limbs(&mut self, k: usize) {
        assert!(k < self.limb_count(), "cannot drop every limb");
        self.limbs.truncate(self.limb_count() - k);
    }

    /// Consumes the polynomial, returning its limbs — the counterpart of
    /// [`RnsPoly::from_limbs`] that lets arena-backed limb storage be given
    /// back (see `crate::scratch::ScratchArena::give_vec`).
    pub fn into_limbs(self) -> Vec<Poly> {
        self.limbs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wd_modmath::prime::generate_ntt_primes;

    fn primes(n: usize, count: usize) -> Vec<u64> {
        generate_ntt_primes(26, 2 * n as u64, count).unwrap()
    }

    fn tables(primes: &[u64], n: usize) -> Vec<Arc<NttTable>> {
        primes
            .iter()
            .map(|&q| Arc::new(NttTable::new(q, n).unwrap()))
            .collect()
    }

    #[test]
    fn from_signed_consistent_across_limbs() {
        let ps = primes(8, 3);
        let p = RnsPoly::from_signed(&ps, &[-3, 0, 5, 0, 0, 0, 0, 1]).unwrap();
        for (i, &q) in ps.iter().enumerate() {
            assert_eq!(
                p.limb(i).centered(),
                vec![-3, 0, 5, 0, 0, 0, 0, 1],
                "q = {q}"
            );
        }
    }

    #[test]
    fn ntt_round_trip_all_limbs() {
        let n = 32;
        let ps = primes(n, 4);
        let ts = tables(&ps, n);
        let mut p = RnsPoly::from_signed(&ps, &(0..n as i64).collect::<Vec<_>>()).unwrap();
        let orig = p.clone();
        p.ntt_forward(&ts);
        assert_eq!(p.domain(), Domain::Ntt);
        p.ntt_inverse(&ts);
        assert_eq!(p, orig);
    }

    #[test]
    fn ntt_with_matches_serial_at_every_width() {
        let n = 64;
        let ps = primes(n, 6);
        let ts = tables(&ps, n);
        let coeffs: Vec<i64> = (0..n as i64).map(|i| i * 3 - 7).collect();
        // A full-chain polynomial and a lower-level one (a limb prefix
        // against the same table list), as ciphertexts in one batch are.
        for limbs in [6usize, 2] {
            let orig = RnsPoly::from_signed(&ps[..limbs], &coeffs).unwrap();
            let mut serial = orig.clone();
            serial.ntt_forward(&ts);
            for threads in [1usize, 2, 3, 4, 9] {
                let mut wide = orig.clone();
                wide.ntt_forward_with(&ts, threads);
                assert_eq!(wide, serial, "forward, {limbs} limbs, t = {threads}");
                wide.ntt_inverse_with(&ts, threads);
                assert_eq!(wide, orig, "round trip, {limbs} limbs, t = {threads}");
                assert_eq!(wide.domain(), Domain::Coeff);
            }
        }
    }

    #[test]
    fn pointwise_requires_ntt_domain() {
        let ps = primes(8, 2);
        let a = RnsPoly::zero(&ps, 8).unwrap();
        assert!(a.pointwise(&a).is_err());
    }

    #[test]
    fn ntt_multiplication_matches_schoolbook_per_limb() {
        let n = 16;
        let ps = primes(n, 2);
        let ts = tables(&ps, n);
        let av: Vec<i64> = (0..n as i64).map(|i| i - 8).collect();
        let bv: Vec<i64> = (0..n as i64).map(|i| 2 * i + 1).collect();
        let mut a = RnsPoly::from_signed(&ps, &av).unwrap();
        let mut b = RnsPoly::from_signed(&ps, &bv).unwrap();
        let plain_a = a.clone();
        let plain_b = b.clone();
        a.ntt_forward(&ts);
        b.ntt_forward(&ts);
        let mut c = a.pointwise(&b).unwrap();
        c.ntt_inverse(&ts);
        for i in 0..ps.len() {
            let expect = crate::naive::negacyclic_mul(
                plain_a.limb(i).modulus(),
                plain_a.limb(i).coeffs(),
                plain_b.limb(i).coeffs(),
            );
            assert_eq!(c.limb(i).coeffs(), &expect[..], "limb {i}");
        }
    }

    #[test]
    fn drop_limbs_shrinks_chain() {
        let ps = primes(8, 4);
        let mut p = RnsPoly::zero(&ps, 8).unwrap();
        p.drop_limbs(2);
        assert_eq!(p.limb_count(), 2);
        assert_eq!(p.primes(), ps[..2].to_vec());
    }

    #[test]
    fn add_rejects_mismatched_shapes() {
        let ps = primes(8, 2);
        let a = RnsPoly::zero(&ps, 8).unwrap();
        let b = RnsPoly::zero(&ps[..1], 8).unwrap();
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn automorphism_commutes_with_rns() {
        let ps = primes(8, 2);
        let p = RnsPoly::from_signed(&ps, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let rotated = p.automorphism(3);
        for i in 0..2 {
            assert_eq!(
                rotated.limb(i),
                &p.limb(i).automorphism(3),
                "limb {i} must equal per-limb automorphism"
            );
        }
    }

    #[test]
    fn ntt_automorphism_equals_the_coefficient_one_between_transforms() {
        let n = 32;
        let ps = primes(n, 3);
        let ts = tables(&ps, n);
        let coeffs: Vec<i64> = (0..n as i64).map(|i| i * i - 40).collect();
        let p = RnsPoly::from_signed(&ps, &coeffs).unwrap();
        let mut spectrum = p.clone();
        spectrum.ntt_forward(&ts);
        for g in [3usize, 5, 2 * n - 1] {
            let mut expect = p.automorphism(g);
            expect.ntt_forward(&ts);
            let perm = crate::ntt::galois_permutation(n, g);
            assert_eq!(spectrum.automorphism_ntt(&perm), expect, "g = {g}");
        }
    }

    /// NTT-domain operands over a prime just below 2^30 and a 26-bit one:
    /// one all-(q − 1), two pseudo-random.
    fn in_place_operands(n: usize) -> [RnsPoly; 3] {
        let ps = [
            wd_modmath::prime::ntt_prime_below((1 << 30) - 1, 2 * n as u64).unwrap(),
            primes(n, 1)[0],
        ];
        let limbs = |f: &dyn Fn(u64, u64) -> u64| {
            let limbs = ps
                .iter()
                .map(|&q| Poly::from_coeffs(q, (0..n as u64).map(|i| f(q, i)).collect()).unwrap())
                .collect();
            RnsPoly::from_limbs(limbs, Domain::Ntt).unwrap()
        };
        [
            limbs(&|q, _| q - 1),
            limbs(&|q, i| (i * 2654435761 + 5) % q),
            limbs(&|q, i| (i * 40503 + q / 3) % q),
        ]
    }

    #[test]
    fn in_place_ops_match_the_allocating_ones() {
        let n = 1 << 11;
        let [top, x, y] = in_place_operands(n);
        let perm = crate::ntt::galois_permutation(n, 5);
        for (acc0, a, b) in [(&top, &top, &top), (&x, &y, &top), (&top, &x, &y)] {
            let mut acc = acc0.clone();
            acc.add_assign(b).unwrap();
            assert_eq!(acc, acc0.add(b).unwrap(), "add");
            let mut acc = acc0.clone();
            acc.mul_add_assign(a, b).unwrap();
            assert_eq!(acc, acc0.add(&a.pointwise(b).unwrap()).unwrap(), "mul_add");
            let mut acc = acc0.clone();
            acc.add_automorphism_ntt_assign(a, &perm).unwrap();
            assert_eq!(acc, acc0.add(&a.automorphism_ntt(&perm)).unwrap(), "gather");
        }
    }

    #[test]
    fn in_place_gather_matches_the_scalar_oracle_at_every_level() {
        use wd_modmath::lanes::{run_at, Level};
        let n = 1 << 11;
        let [top, x, _] = in_place_operands(n);
        let perm = crate::ntt::galois_permutation(n, 2 * n - 1);
        for (acc0, src) in [(&top, &top), (&x, &top), (&top, &x)] {
            for (l, (c, s)) in acc0.limbs().zip(src.limbs()).enumerate() {
                let m = *c.modulus();
                let want: Vec<u64> = perm
                    .iter()
                    .zip(c.coeffs())
                    .map(|(&i, &v)| m.add(v, s.coeffs()[i as usize]))
                    .collect();
                for level in Level::ALL {
                    let mut acc = c.coeffs().to_vec();
                    let kernel = AddGathered {
                        q: m.value(),
                        acc: &mut acc,
                        src: s.coeffs(),
                        perm: &perm,
                    };
                    if run_at(level, kernel).is_some() {
                        assert_eq!(acc, want, "limb {l} at {level:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn in_place_ops_reject_mismatches_untouched() {
        let n = 16;
        let [top, x, _] = in_place_operands(n);
        let mut coeff = x.clone();
        coeff.set_domain(Domain::Coeff);
        let mut short = x.clone();
        short.drop_limbs(1);
        let foreign = RnsPoly::from_limbs(
            primes(n, 2)
                .iter()
                .map(|&q| Poly::zero(q, n).unwrap())
                .collect(),
            Domain::Ntt,
        )
        .unwrap();
        let perm = crate::ntt::galois_permutation(n, 5);
        for bad in [&coeff, &short, &foreign] {
            let mut acc = top.clone();
            assert_eq!(acc.add_assign(bad), Err(PolyError::RingMismatch));
            assert_eq!(acc.mul_add_assign(&x, bad), Err(PolyError::RingMismatch));
            assert_eq!(acc.mul_add_assign(bad, &x), Err(PolyError::RingMismatch));
            assert_eq!(
                acc.add_automorphism_ntt_assign(bad, &perm),
                Err(PolyError::RingMismatch)
            );
            assert_eq!(acc, top);
        }
        let mut acc = coeff.clone();
        assert_eq!(
            acc.mul_add_assign(&coeff, &coeff),
            Err(PolyError::RingMismatch)
        );
        let mut acc = top.clone();
        assert_eq!(
            acc.add_automorphism_ntt_assign(&x, &perm[..n - 1]),
            Err(PolyError::RingMismatch)
        );
    }

    #[test]
    fn pointwise_rejects_coeff_domain() {
        let ps = primes(8, 2);
        let a = RnsPoly::zero(&ps, 8).unwrap();
        assert!(a.pointwise(&a).is_err());
    }

    #[test]
    fn pointwise_rejects_foreign_moduli() {
        let ps = primes(8, 4);
        let mut a = RnsPoly::zero(&ps[..2], 8).unwrap();
        let mut b = RnsPoly::zero(&ps[2..], 8).unwrap();
        a.set_domain(Domain::Ntt);
        b.set_domain(Domain::Ntt);
        assert_eq!(a.pointwise(&b), Err(PolyError::RingMismatch));
    }
}
