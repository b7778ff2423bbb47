//! CKKS parameter sets (paper Tables VI and XIII).

use crate::CkksError;
use serde::{Deserialize, Serialize};
use wd_modmath::prime::{ntt_prime_above, ntt_prime_below};
use wd_modmath::MAX_NTT_MODULUS_BITS;

/// A named, buildable parameter template.
///
/// Templates mirror the paper: [`ParamSet::set_a`] … [`ParamSet::set_e`] are
/// Table VI (NTT / homomorphic-op evaluation, K = 1); the workload presets
/// follow Table XIII.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamSet {
    /// Template name ("SET-A", "Boot", …).
    pub name: String,
    /// Ring degree N.
    pub n: usize,
    /// Current/maximum multiplicative level l (chain has l + 1 primes).
    pub level: usize,
    /// Number of special primes K.
    pub special: usize,
    /// Bits per chain prime (≈ log2 Δ for single-prime rescaling).
    pub prime_bits: u32,
    /// Bits per special prime (slightly larger so P covers digit noise).
    pub special_bits: u32,
}

macro_rules! preset {
    ($fn_name:ident, $name:literal, $n:expr, $level:expr, $special:expr, $doc:literal) => {
        preset!($fn_name, $name, $n, $level, $special, 28, 29, $doc);
    };
    ($fn_name:ident, $name:literal, $n:expr, $level:expr, $special:expr,
     $pbits:expr, $sbits:expr, $doc:literal) => {
        #[doc = $doc]
        pub fn $fn_name() -> Self {
            Self {
                name: $name.into(),
                n: $n,
                level: $level,
                special: $special,
                prime_bits: $pbits,
                special_bits: $sbits,
            }
        }
    };
}

impl ParamSet {
    // Prime widths track the paper's log qp column (and hence the 128-bit
    // security table): 108/217/437 bits demand narrower primes at small N.
    preset!(
        set_a,
        "SET-A",
        1 << 12,
        2,
        1,
        26,
        28,
        "Table VI SET-A: N = 2^12, l = 2."
    );
    preset!(
        set_b,
        "SET-B",
        1 << 13,
        6,
        1,
        26,
        29,
        "Table VI SET-B: N = 2^13, l = 6."
    );
    preset!(
        set_c,
        "SET-C",
        1 << 14,
        14,
        1,
        27,
        29,
        "Table VI SET-C: N = 2^14, l = 14."
    );
    preset!(
        set_d,
        "SET-D",
        1 << 15,
        24,
        1,
        "Table VI SET-D: N = 2^15, l = 24."
    );
    preset!(
        set_e,
        "SET-E",
        1 << 16,
        34,
        1,
        "Table VI SET-E: N = 2^16, l = 34."
    );
    preset!(
        boot,
        "Boot",
        1 << 16,
        34,
        12,
        "Table XIII bootstrapping workload: N = 2^16, L = 34, K = 12."
    );
    preset!(
        helr,
        "HELR",
        1 << 16,
        37,
        13,
        "Table XIII HELR workload: N = 2^16, L = 37, K = 13."
    );
    preset!(
        resnet,
        "ResNet",
        1 << 16,
        37,
        13,
        "Table XIII ResNet workload: N = 2^16, L = 37, K = 13."
    );
    preset!(
        aes,
        "AES",
        1 << 16,
        46,
        10,
        "Table XIII AES transciphering workload: N = 2^16, L = 46, K = 10."
    );

    /// The five Table VI sets, in order.
    pub fn table_vi() -> [ParamSet; 5] {
        [
            Self::set_a(),
            Self::set_b(),
            Self::set_c(),
            Self::set_d(),
            Self::set_e(),
        ]
    }

    /// Shrinks the ring for fast tests while keeping the chain shape.
    pub fn with_degree(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Overrides the level count.
    pub fn with_level(mut self, level: usize) -> Self {
        self.level = level;
        self
    }

    /// Overrides the special-prime count K.
    pub fn with_special(mut self, special: usize) -> Self {
        self.special = special;
        self
    }

    /// Generates the actual prime chains and derived constants.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParams`] if the prime pool is exhausted or the
    /// shape is invalid.
    pub fn build(&self) -> Result<CkksParams, CkksError> {
        CkksParams::generate(self.clone())
    }
}

/// Fully-instantiated CKKS parameters: the prime chains and bookkeeping the
/// context needs. Produced by [`ParamSet::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct CkksParams {
    set: ParamSet,
    /// Chain primes q_0 … q_L (q_0 is the base prime).
    q_chain: Vec<u64>,
    /// Special primes p_0 … p_{K-1}.
    p_chain: Vec<u64>,
    /// Default encoding scale Δ.
    scale: f64,
}

impl CkksParams {
    fn generate(set: ParamSet) -> Result<Self, CkksError> {
        if !set.n.is_power_of_two() || set.n < 8 {
            return Err(CkksError::InvalidParams(format!("N = {} invalid", set.n)));
        }
        if set.special == 0 {
            return Err(CkksError::InvalidParams("K must be >= 1".into()));
        }
        let two_n = 2 * set.n as u64;
        let mut primes = Vec::new();
        // Chain primes alternate above/below 2^prime_bits so Π q_i ≈ Δ^(l+1).
        let (mut lo, mut hi) = (1u64 << set.prime_bits, 1u64 << set.prime_bits);
        for i in 0..=set.level {
            let p = if i % 2 == 0 {
                let p = ntt_prime_above(hi + 1, two_n)
                    .map_err(|e| CkksError::InvalidParams(e.to_string()))?;
                hi = p;
                p
            } else {
                let p = ntt_prime_below(lo - 1, two_n)
                    .map_err(|e| CkksError::InvalidParams(e.to_string()))?;
                lo = p;
                p
            };
            primes.push(p);
        }
        // Special primes, strictly above the chain range to stay distinct.
        let mut p_chain = Vec::new();
        let mut cursor = 1u64 << set.special_bits;
        for _ in 0..set.special {
            let p = ntt_prime_above(cursor + 1, two_n)
                .map_err(|e| CkksError::InvalidParams(e.to_string()))?;
            cursor = p;
            p_chain.push(p);
        }
        // Decided here rather than deep inside context set-up: every prime
        // gets an NTT table, and its lazy butterflies need 4q < 2^32.
        let bound = 1u64 << MAX_NTT_MODULUS_BITS;
        if let Some(p) = primes.iter().chain(&p_chain).find(|&&p| p >= bound) {
            return Err(CkksError::InvalidParams(format!(
                "prime {p} is not below 2^{MAX_NTT_MODULUS_BITS}, the bound an NTT's \
                 32-bit lanes set on every chain and special prime"
            )));
        }
        let scale = (1u64 << set.prime_bits) as f64;
        Ok(Self {
            set,
            q_chain: primes,
            p_chain,
            scale,
        })
    }

    /// The originating template.
    pub fn set(&self) -> &ParamSet {
        &self.set
    }

    /// Ring degree N.
    pub fn degree(&self) -> usize {
        self.set.n
    }

    /// Slot count N/2.
    pub fn slots(&self) -> usize {
        self.set.n / 2
    }

    /// Maximum level L.
    pub fn max_level(&self) -> usize {
        self.set.level
    }

    /// Special prime count K (= the digit width α of hybrid keyswitching).
    pub fn special_count(&self) -> usize {
        self.set.special
    }

    /// Digit width α = K of the hybrid keyswitch decomposition.
    pub fn alpha(&self) -> usize {
        self.set.special
    }

    /// Decomposition number at level `l`: dnum = ⌈(l+1)/α⌉.
    pub fn dnum_at(&self, level: usize) -> usize {
        (level + 1).div_ceil(self.alpha())
    }

    /// Limb positions of digit `j` at `level`: α limbs, the last digit
    /// partial when α does not divide ℓ+1.
    pub(crate) fn digit_limbs(&self, level: usize, j: usize) -> std::ops::Range<usize> {
        j * self.alpha()..((j + 1) * self.alpha()).min(level + 1)
    }

    /// Chain primes q_0 … q_L.
    pub fn q_chain(&self) -> &[u64] {
        &self.q_chain
    }

    /// Chain primes active at level `l` (the first l+1).
    pub fn q_at(&self, level: usize) -> &[u64] {
        &self.q_chain[..=level]
    }

    /// Special primes.
    pub fn p_chain(&self) -> &[u64] {
        &self.p_chain
    }

    /// Full basis at level `l`: q_0…q_l followed by p_0…p_{K-1}.
    pub fn full_basis_at(&self, level: usize) -> Vec<u64> {
        let mut v = self.q_at(level).to_vec();
        v.extend_from_slice(&self.p_chain);
        v
    }

    /// Default encoding scale Δ.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// log2 of the total modulus (Table VI's "log qp" column).
    pub fn log_qp(&self) -> f64 {
        self.q_chain
            .iter()
            .chain(&self.p_chain)
            .map(|&q| (q as f64).log2())
            .sum()
    }
}

/// Maximum total modulus width (log2 PQ, bits) for 128-bit classical
/// security with a ternary secret, per the homomorphicencryption.org
/// standard's table (the 2^16 row is the community extrapolation the GPU
/// FHE literature uses). The paper's Table VI tracks this column exactly:
/// SET-A..E use log qp = 108/217/437/704/974 against limits of
/// 109/218/438/881/1772.
pub fn max_log_qp_128(n: usize) -> Option<u32> {
    match n {
        1024 => Some(27),
        2048 => Some(54),
        4096 => Some(109),
        8192 => Some(218),
        16384 => Some(438),
        32768 => Some(881),
        65536 => Some(1772),
        _ => None,
    }
}

impl CkksParams {
    /// Whether the instantiated chain satisfies the 128-bit security bound
    /// (for rings outside the standard's table, returns `false` — small
    /// test rings are *not* secure and are only for functional testing).
    pub fn is_128_bit_secure(&self) -> bool {
        max_log_qp_128(self.degree()).is_some_and(|max| self.log_qp() <= f64::from(max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wd_modmath::prime::is_prime;

    #[test]
    fn set_a_shape_matches_table_vi() -> Result<(), CkksError> {
        let p = ParamSet::set_a().build()?;
        assert_eq!(p.degree(), 1 << 12);
        assert_eq!(p.max_level(), 2);
        assert_eq!(p.q_chain().len(), 3);
        assert_eq!(p.p_chain().len(), 1);
        // Table VI: log qp = 108 for SET-A; our 26/28-bit chain gives ~106.
        assert!(
            (100.0..110.0).contains(&p.log_qp()),
            "log qp = {}",
            p.log_qp()
        );
        Ok(())
    }

    #[test]
    fn set_e_has_36_total_primes() -> Result<(), CkksError> {
        // "The total number of primes is l + 2" (l + 1 chain + 1 special).
        let p = ParamSet::set_e().with_degree(1 << 8).build()?;
        assert_eq!(p.q_chain().len() + p.p_chain().len(), 36);
        Ok(())
    }

    #[test]
    fn every_prime_is_held_below_the_ntt_lane_bound() {
        // 29 bits puts chain and special primes just above 2^29: accepted.
        let mut set = ParamSet::set_a().with_degree(1 << 8);
        (set.prime_bits, set.special_bits) = (29, 29);
        let p = set.build().expect("29-bit primes fit a lane");
        assert!(p.full_basis_at(p.max_level()).iter().all(|&q| q < 1 << 30));
        // 30 bits reaches past 2^30 on either chain: refused, naming the bound.
        for (prime_bits, special_bits) in [(30, 29), (29, 30)] {
            let mut set = ParamSet::set_a().with_degree(1 << 8);
            (set.prime_bits, set.special_bits) = (prime_bits, special_bits);
            match set.build() {
                Err(CkksError::InvalidParams(msg)) => assert!(msg.contains("2^30"), "{msg}"),
                other => panic!("{prime_bits}/{special_bits} bits: {other:?}"),
            }
        }
    }

    #[test]
    fn all_primes_distinct_and_ntt_friendly() -> Result<(), CkksError> {
        let p = ParamSet::set_c().with_degree(1 << 10).build()?;
        let mut all = p.full_basis_at(p.max_level());
        let two_n = 2 * p.degree() as u64;
        for &q in &all {
            assert!(is_prime(q));
            assert_eq!((q - 1) % two_n, 0);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), p.q_chain().len() + p.p_chain().len());
        Ok(())
    }

    #[test]
    fn dnum_formula() -> Result<(), CkksError> {
        let p = ParamSet::boot().with_degree(1 << 8).build()?;
        // K = 12, level 34: dnum = ceil(35/12) = 3.
        assert_eq!(p.dnum_at(34), 3);
        assert_eq!(p.dnum_at(11), 1);
        assert_eq!(p.dnum_at(12), 2);
        // K = 1 degenerates to per-prime decomposition.
        let q = ParamSet::set_b().with_degree(1 << 8).build()?;
        assert_eq!(q.dnum_at(6), 7);
        Ok(())
    }

    #[test]
    fn rejects_zero_special() {
        assert!(ParamSet::set_a().with_special(0).build().is_err());
    }

    #[test]
    fn rejects_bad_degree() {
        assert!(ParamSet::set_a().with_degree(100).build().is_err());
    }

    #[test]
    fn table_vi_sets_satisfy_the_128_bit_standard() -> Result<(), CkksError> {
        // The paper's log qp column (108/217/437/704/974) sits within the
        // standard's 128-bit limits — and so do our instantiated chains.
        for set in ParamSet::table_vi() {
            let p = set.build()?;
            assert!(
                p.is_128_bit_secure(),
                "{}: log qp = {:.0} exceeds the 128-bit bound",
                p.set().name,
                p.log_qp()
            );
        }
        Ok(())
    }

    #[test]
    fn shrunken_test_rings_are_flagged_insecure() -> Result<(), CkksError> {
        let p = ParamSet::set_a().with_degree(1 << 6).build()?;
        assert!(!p.is_128_bit_secure(), "toy rings must not claim security");
        Ok(())
    }

    #[test]
    fn security_table_boundaries() {
        assert_eq!(max_log_qp_128(4096), Some(109));
        assert_eq!(max_log_qp_128(65536), Some(1772));
        assert_eq!(max_log_qp_128(123), None);
    }

    #[test]
    fn scale_matches_prime_size() -> Result<(), CkksError> {
        let p = ParamSet::set_a().build()?;
        assert_eq!(p.scale(), (1u64 << 26) as f64);
        for &q in p.q_chain() {
            let ratio = q as f64 / p.scale();
            assert!((0.9..1.2).contains(&ratio), "q/Δ = {ratio}");
        }
        let e = ParamSet::set_e().with_degree(1 << 8).build()?;
        assert_eq!(e.scale(), (1u64 << 28) as f64);
        Ok(())
    }
}
