//! RLWE key material.

use std::collections::HashMap;
use std::sync::Arc;
use wd_polyring::rns::RnsPoly;

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

/// One digit of a hybrid key-switching key, over the full basis (NTT form).
#[derive(Debug, Clone, PartialEq)]
pub struct KskDigit {
    /// b_j = −a_j·s + e_j + P·F_j·s′.
    pub b: RnsPoly,
    /// Uniform a_j.
    pub a: RnsPoly,
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

    /// Compact footprint of this key in bytes, at the paper's 32-bit wire
    /// word size: `dnum × 2 polys × limbs × N × 4` (the digits only; the
    /// permutation of a rotation key is derived from its element).
    /// Keyswitch keys dominate the working set of GPU FHE serving (Cheddar's
    /// key-memory analysis), so this is the number the per-tenant key-cache
    /// budget is charged in.
    pub fn approx_bytes(&self) -> usize {
        self.digits
            .iter()
            .map(|d| (d.b.limb_count() + d.a.limb_count()) * d.b.degree() * 4)
            .sum()
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

    /// Compact footprint of the whole rotation-key set in bytes (the sum of
    /// [`KeySwitchKey::approx_bytes`] over every Galois element).
    pub fn approx_bytes(&self) -> usize {
        self.keys.values().map(KeySwitchKey::approx_bytes).sum()
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
