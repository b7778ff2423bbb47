//! Property tests: the width-taking primitives production runs
//! (`RnsPoly::ntt_{forward,inverse}_with`, `par::convert_poly`) are **bit-identical** to their sequential
//! counterparts for random ring shapes, limb counts and thread counts.
//! This is the determinism guarantee the README advertises for every
//! thread budget.

use std::sync::Arc;

use proptest::prelude::*;
use wd_modmath::prime::generate_ntt_primes;
use wd_modmath::rns::{BasisConverter, RnsBasis};
use wd_polyring::ntt::NttTable;
use wd_polyring::par;
use wd_polyring::rns::RnsPoly;

/// Random ring shape: (log2 degree, limb count, batch size, thread count).
fn shape_strategy() -> impl Strategy<Value = (u32, usize, usize, usize)> {
    (4u32..9, 1usize..6, 1usize..5, 1usize..9)
}

fn random_rns(primes: &[u64], n: usize, seed: usize) -> RnsPoly {
    let coeffs: Vec<i64> = (0..n)
        .map(|i| (((i * 2654435761 + seed * 40503) % 1021) as i64) - 510)
        .collect();
    RnsPoly::from_signed(primes, &coeffs).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_ntt_with_roundtrip_is_bit_identical((logn, limbs, batch, threads) in shape_strategy()) {
        let n = 1usize << logn;
        let primes = generate_ntt_primes(20, 2 * n as u64, limbs).unwrap();
        let tables: Vec<Arc<NttTable>> = primes
            .iter()
            .map(|&q| Arc::new(NttTable::new(q, n).unwrap()))
            .collect();
        let polys: Vec<RnsPoly> = (0..batch).map(|j| random_rns(&primes, n, j)).collect();

        // Sequential reference: limb-by-limb through the plain tables.
        let mut seq = polys.clone();
        for p in &mut seq {
            p.ntt_forward(&tables);
        }

        let mut par_polys = polys.clone();
        for p in &mut par_polys {
            p.ntt_forward_with(&tables, threads);
        }
        prop_assert_eq!(&seq, &par_polys, "forward NTT diverged at {} threads", threads);

        for p in &mut par_polys {
            p.ntt_inverse_with(&tables, threads);
        }
        prop_assert_eq!(&polys, &par_polys, "inverse NTT did not restore input");
    }

    #[test]
    fn prop_base_conversion_matches_sequential((logn, limbs, _batch, threads) in shape_strategy()) {
        let n = 1usize << logn;
        let primes = generate_ntt_primes(20, 2 * n as u64, limbs + 2).unwrap();
        let (from, to) = primes.split_at(limbs);
        let conv = BasisConverter::new(
            RnsBasis::new(from.to_vec()).unwrap(),
            RnsBasis::new(to.to_vec()).unwrap(),
        )
        .unwrap();
        let src = random_rns(from, n, 7);

        // Independent sequential reference: one coefficient at a time
        // through the scalar converter.
        let mut expect = vec![vec![0u64; n]; to.len()];
        let mut out = vec![0u64; to.len()];
        for j in 0..n {
            let column: Vec<u64> = (0..from.len()).map(|i| src.limb(i).coeffs()[j]).collect();
            conv.convert_coeff(&column, &mut out);
            for (limb, &v) in expect.iter_mut().zip(&out) {
                limb[j] = v;
            }
        }

        let got = par::convert_poly(&conv, &src, threads);
        for (i, limb) in expect.iter().enumerate() {
            prop_assert_eq!(
                limb,
                got.limb(i).coeffs(),
                "conversion limb {} diverged at {} threads", i, threads
            );
        }
    }
}
