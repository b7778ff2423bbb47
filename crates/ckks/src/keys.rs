//! RLWE key material.
//!
//! The secret and public keys are [`RnsPoly`]s. Key-switching keys (the
//! relinearization and rotation keys, which dominate the memory a server
//! holds) keep each digit component as a [`KeyPoly`]: one planar slab of
//! 32-bit words, written limb by limb at generation and read limb by limb
//! by the keyswitch inner product.

use std::collections::HashMap;
use std::sync::Arc;
use wd_polyring::rns::{Domain, RnsPoly};
use wd_polyring::Poly;

/// The ternary secret key, stored in NTT form over the full basis
/// (q_0…q_L, p_0…p_{K-1}) so every operation can use it directly.
#[derive(Debug, Clone, PartialEq)]
pub struct SecretKey {
    /// s in NTT domain over the full basis.
    pub s: RnsPoly,
}

/// The public encryption key: (b, a) with b = −a·s + e over the q chain.
#[derive(Debug, Clone, PartialEq)]
pub struct PublicKey {
    /// b component (NTT domain).
    pub b: RnsPoly,
    /// a component (NTT domain).
    pub a: RnsPoly,
}

/// One component of a key-switching digit: an NTT-domain polynomial over
/// the full basis whose residues (all below 2^30) are held in 32-bit words,
/// as one planar slab of `limbs × N` words — the paper's 32-bit word size
/// (§IV-A-4) applied to the largest objects the host keeps. Limb `i` is
/// words `i·N .. (i+1)·N`, in the NTT's bit-reversed slot order. Half the
/// bytes of the same polynomial as an [`RnsPoly`], and the keyswitch inner
/// product streams exactly these words (`wd_modmath::slab::mul_add2_lazy`).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyPoly {
    primes: Vec<u64>,
    n: usize,
    words: Vec<u32>,
}

impl KeyPoly {
    /// All-zero limbs over `primes`, degree `n`: one allocation.
    pub(crate) fn zero(primes: &[u64], n: usize) -> Self {
        debug_assert!(primes.iter().all(|&q| q < 1 << 32));
        Self {
            primes: primes.to_vec(),
            n,
            words: vec![0; primes.len() * n],
        }
    }

    /// The primes of the limbs, in limb order.
    pub fn primes(&self) -> &[u64] {
        &self.primes
    }

    /// Number of limbs.
    pub fn limb_count(&self) -> usize {
        self.primes.len()
    }

    /// Limb `i`: N residues mod `primes()[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`KeyPoly::limb_count`].
    pub fn limb(&self, i: usize) -> &[u32] {
        &self.words[i * self.n..(i + 1) * self.n]
    }

    /// Limb `i`, writable. Words must stay below their prime, which the
    /// inner product's fold cadence assumes: a larger one gives an
    /// unspecified keyswitch result (never a panic). The key cache's
    /// checksum is what notices a changed word.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`KeyPoly::limb_count`].
    pub fn limb_mut(&mut self, i: usize) -> &mut [u32] {
        &mut self.words[i * self.n..(i + 1) * self.n]
    }

    /// The whole slab, limb after limb.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Resident size of the slab in bytes: `limbs × N × 4`.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.words.as_slice())
    }

    /// An NTT-domain [`RnsPoly`] narrowed into 32-bit words: how the
    /// composed oracles state a key.
    #[cfg(test)]
    pub(crate) fn from_rns(p: &RnsPoly) -> Self {
        let mut key = Self::zero(&p.primes(), p.degree());
        for (i, limb) in p.limbs().enumerate() {
            for (w, &x) in key.limb_mut(i).iter_mut().zip(limb.coeffs()) {
                *w = u32::try_from(x).expect("a residue below 2^32");
            }
        }
        key
    }

    /// The same polynomial widened to `u64` limbs (NTT domain), for oracles
    /// and fingerprints.
    pub fn to_rns(&self) -> RnsPoly {
        let limbs = self
            .primes
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let coeffs = self.limb(i).iter().map(|&w| u64::from(w)).collect();
                Poly::from_coeffs(q, coeffs)
            })
            .collect::<Result<Vec<_>, _>>()
            // invariant: a key's primes and degree came from a valid ring.
            .expect("key ring");
        let mut p = RnsPoly::from_limbs(limbs, Domain::Coeff).expect("key basis");
        p.set_domain(Domain::Ntt);
        p
    }
}

/// One digit of a hybrid key-switching key, over the full basis (NTT form).
#[derive(Debug, Clone, PartialEq)]
pub struct KskDigit {
    /// b_j = −a_j·s + e_j + P·F_j·s′.
    pub b: KeyPoly,
    /// Uniform a_j.
    pub a: KeyPoly,
}

/// A hybrid key-switching key: `dnum` digits (Han–Ki \[26\]).
#[derive(Debug, Clone, PartialEq)]
pub struct KeySwitchKey {
    /// Digits j = 0 … dnum_max − 1.
    pub digits: Vec<KskDigit>,
    /// For a rotation or conjugation key, the Galois element g it switches
    /// from φ_g(s) for, and φ_g as an NTT-domain index permutation
    /// (`wd_polyring::ntt::galois_permutation`). `None` for the relin key.
    pub(crate) galois: Option<(usize, Arc<[u32]>)>,
}

impl KeySwitchKey {
    /// Number of digits.
    pub fn dnum(&self) -> usize {
        self.digits.len()
    }

    /// Resident size of this key in bytes: the digits' 32-bit slabs,
    /// `dnum × 2 × limbs × N × 4` (the permutation of a rotation key is
    /// derived from its element and not counted). Keyswitch keys dominate
    /// the working set of FHE serving (Cheddar's key-memory analysis), so
    /// this is what the per-tenant key-cache budget is charged.
    pub fn bytes(&self) -> usize {
        self.digits.iter().map(|d| d.b.bytes() + d.a.bytes()).sum()
    }
}

/// Rotation (and conjugation) keys, indexed by Galois element.
#[derive(Debug, Clone, Default)]
pub struct RotationKeys {
    keys: HashMap<usize, KeySwitchKey>,
}

impl RotationKeys {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the key for Galois element `g`.
    pub fn insert(&mut self, g: usize, key: KeySwitchKey) {
        self.keys.insert(g, key);
    }

    /// Fetches the key for Galois element `g`.
    pub fn get(&self, g: usize) -> Option<&KeySwitchKey> {
        self.keys.get(&g)
    }

    /// Galois elements covered.
    pub fn elements(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.keys.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no keys are held.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Resident size of the whole rotation-key set in bytes (the sum of
    /// [`KeySwitchKey::bytes`] over every Galois element).
    pub fn bytes(&self) -> usize {
        self.keys.values().map(KeySwitchKey::bytes).sum()
    }
}

/// Everything `keygen` returns: secret, public and relinearization keys.
/// Rotation keys are generated separately (they are workload-dependent and
/// large — the paper's memory-pool sizing in §IV-D-1 is dominated by them).
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// The secret key.
    pub secret: SecretKey,
    /// The public encryption key.
    pub public: PublicKey,
    /// The relinearization key (key-switch from s² to s).
    pub relin: KeySwitchKey,
}
