//! Cross-crate integration tests: the full functional pipeline from
//! encoder through NTT variants, keyswitching and workloads.

use warpdrive::ckks::ops::{align_levels, hadd, hmult, hrotate, hsub, level_drop, pmult, rescale};
use warpdrive::ckks::{CkksContext, ParamSet};
use warpdrive::modmath::prime::ntt_prime_above;
use warpdrive::polyring::{NttEngine, NttVariant};

fn close(a: &[f64], b: &[f64], tol: f64) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() < tol, "slot {i}: {x} vs {y} (tol {tol})");
    }
}

#[test]
fn medium_ring_full_pipeline() {
    // N = 256 with a deep-ish chain: encrypt → arithmetic → rotate →
    // rescale ladder → decrypt.
    let params = ParamSet::set_b()
        .with_degree(1 << 8)
        .with_level(6)
        .build()
        .unwrap();
    let ctx = CkksContext::with_seed(params, 7777).unwrap();
    let kp = ctx.keygen();
    let keys = ctx.gen_rotation_keys(&kp.secret, &[1, 2, 4, 8], false);

    let slots = ctx.params().slots();
    let xs: Vec<f64> = (0..slots).map(|i| ((i % 13) as f64 - 6.0) * 0.3).collect();
    let ys: Vec<f64> = (0..slots).map(|i| ((i % 7) as f64) * 0.2 + 0.1).collect();
    let ct_x = ctx.encrypt_values(&xs, &kp.public).unwrap();
    let ct_y = ctx.encrypt_values(&ys, &kp.public).unwrap();

    // (x·y + x) rotated by 4, then squared.
    let xy = rescale(&ctx, &hmult(&ctx, &ct_x, &ct_y, &kp.relin).unwrap()).unwrap();
    let (xy, x_dropped) = align_levels(&xy, &ct_x).unwrap();
    let mut x2 = x_dropped;
    x2.scale = xy.scale;
    let sum = hadd(&xy, &x2).unwrap();
    let rot = hrotate(&ctx, &sum, 4, &keys).unwrap();
    let sq = rescale(&ctx, &hmult(&ctx, &rot, &rot, &kp.relin).unwrap()).unwrap();

    let got = ctx.decrypt_values(&sq, &kp.secret).unwrap();
    let expect: Vec<f64> = (0..slots)
        .map(|i| {
            let j = (i + 4) % slots;
            let v = xs[j] * ys[j] + xs[j];
            v * v
        })
        .collect();
    close(&got, &expect, 0.08);
}

#[test]
fn all_ntt_variants_power_the_same_ciphertext_math() {
    // Swap the NTT implementation under a polynomial product and verify the
    // CKKS-level result is identical (the engines are bit-exact drop-ins).
    let n = 128;
    let q = ntt_prime_above(1 << 27, 2 * n as u64).unwrap();
    let reference = NttEngine::new(q, n, NttVariant::Reference).unwrap();
    let input: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 5) % q).collect();
    let mut spectral_ref = input.clone();
    reference.forward(&mut spectral_ref);
    for variant in NttVariant::ALL {
        let eng = NttEngine::new(q, n, variant).unwrap();
        let mut x = input.clone();
        eng.forward(&mut x);
        assert_eq!(x, spectral_ref, "{variant} is not a drop-in replacement");
    }
}

#[test]
fn keyswitch_noise_stays_small_over_repeated_rotations() {
    let params = ParamSet::set_a().with_degree(1 << 6).build().unwrap();
    let ctx = CkksContext::with_seed(params, 31415).unwrap();
    let kp = ctx.keygen();
    let keys = ctx.gen_rotation_keys(&kp.secret, &[1], false);
    let slots = ctx.params().slots();
    let vals: Vec<f64> = (0..slots).map(|i| i as f64).collect();
    let mut ct = ctx.encrypt_values(&vals, &kp.public).unwrap();
    // 8 successive rotations by 1 = rotation by 8; noise adds per keyswitch
    // but must stay far below the message scale.
    for _ in 0..8 {
        ct = hrotate(&ctx, &ct, 1, &keys).unwrap();
    }
    let got = ctx.decrypt_values(&ct, &kp.secret).unwrap();
    let expect: Vec<f64> = (0..slots).map(|i| ((i + 8) % slots) as f64).collect();
    close(&got, &expect, 0.2);
}

#[test]
fn plaintext_ops_and_level_management() {
    let params = ParamSet::set_a().with_degree(1 << 6).build().unwrap();
    let ctx = CkksContext::with_seed(params, 999).unwrap();
    let kp = ctx.keygen();
    let ct = ctx.encrypt_values(&[2.0, -4.0, 8.0], &kp.public).unwrap();
    let pt = ctx.encode(&[0.5, 0.25, 0.125]).unwrap();
    let prod = rescale(&ctx, &pmult(&ct, &pt).unwrap()).unwrap();
    assert_eq!(prod.level, ct.level - 1);
    let dropped = level_drop(&prod, 0).unwrap();
    assert_eq!(dropped.level, 0);
    let got = ctx.decrypt_values(&dropped, &kp.secret).unwrap();
    close(&got[..3], &[1.0, -1.0, 1.0], 0.05);
}

#[test]
fn subtraction_of_equal_ciphertexts_is_noise_only() {
    let params = ParamSet::set_a().with_degree(1 << 6).build().unwrap();
    let ctx = CkksContext::with_seed(params, 4242).unwrap();
    let kp = ctx.keygen();
    let ct = ctx.encrypt_values(&[3.25; 16], &kp.public).unwrap();
    let zero = hsub(&ct, &ct).unwrap();
    let got = ctx.decrypt_values(&zero, &kp.secret).unwrap();
    for v in &got[..16] {
        assert!(v.abs() < 1e-6, "residue {v}");
    }
}

#[test]
fn workload_stack_smoke() {
    // The workload layer (linear transform + poly eval) on top of a context
    // built from the Boot preset.
    use warpdrive::ckks::encoding::C64;
    use warpdrive::workloads::hlt::{eval_poly, linear_transform, SlotMatrix};

    let params = ParamSet::boot()
        .with_degree(1 << 5)
        .with_level(6)
        .with_special(2)
        .build()
        .unwrap();
    let ctx = CkksContext::with_seed(params, 55).unwrap();
    let kp = ctx.keygen();
    let dim = ctx.params().slots();
    let rots: Vec<isize> = (1..dim as isize).collect();
    let keys = ctx.gen_rotation_keys(&kp.secret, &rots, false);

    let vals: Vec<f64> = (0..dim).map(|i| 0.1 * i as f64).collect();
    let ct = ctx.encrypt_values(&vals, &kp.public).unwrap();

    // Shift-by-one permutation matrix, then f(x) = x² − x.
    let mut entries = vec![C64::default(); dim * dim];
    for i in 0..dim {
        entries[i * dim + (i + 1) % dim] = C64::new(1.0, 0.0);
    }
    let shifted = linear_transform(&ctx, &ct, &SlotMatrix::new(dim, entries), &keys).unwrap();
    let f = eval_poly(&ctx, &shifted, &[0.0, -1.0, 1.0], &kp.relin).unwrap();
    let got = ctx.decrypt_values(&f, &kp.secret).unwrap();
    for i in 0..dim {
        let x = vals[(i + 1) % dim];
        let expect = x * x - x;
        assert!(
            (got[i] - expect).abs() < 0.05,
            "slot {i}: {} vs {expect}",
            got[i]
        );
    }
}

#[test]
fn parallel_path_is_bit_identical_and_decrypts_correctly() {
    // The same circuit as `medium_ring_full_pipeline`, but run through the
    // parallel execution layer twice over: limb-level parallelism inside
    // each op (the width the `_with` ops are handed) and op-level fan-out
    // via BatchExecutor. Every thread count must produce the *same
    // ciphertext bits* as the sequential fallback.
    use warpdrive::ckks::ops::{hmult_with, hrotate_with};
    use warpdrive::core::{BatchExecutor, BatchOp, EvalKeys};

    let params = ParamSet::set_b()
        .with_degree(1 << 8)
        .with_level(6)
        .build()
        .unwrap();
    let ctx = CkksContext::with_seed(params, 31337).unwrap();
    let kp = ctx.keygen();
    let keys = ctx.gen_rotation_keys(&kp.secret, &[1, 3], false);

    let slots = ctx.params().slots();
    let xs: Vec<f64> = (0..slots).map(|i| ((i % 11) as f64 - 5.0) * 0.25).collect();
    let ys: Vec<f64> = (0..slots).map(|i| ((i % 5) as f64) * 0.3 - 0.4).collect();
    let ct_x = ctx.encrypt_values(&xs, &kp.public).unwrap();
    let ct_y = ctx.encrypt_values(&ys, &kp.public).unwrap();

    let batch = [
        BatchOp::HMult(&ct_x, &ct_y),
        BatchOp::HAdd(&ct_x, &ct_y),
        BatchOp::HRotate(&ct_x, 1),
        BatchOp::HRotate(&ct_y, 3),
        BatchOp::HSub(&ct_y, &ct_x),
    ];
    let eval = EvalKeys::with_relin(&kp.relin).and_rotations(&keys);
    let through = |executor: BatchExecutor| {
        let out = executor.execute(&ctx, eval, &batch);
        out.into_iter().map(Result::unwrap).collect::<Vec<_>>()
    };
    // The same five ops called directly, each handed its limb width.
    let direct = |limb: usize| {
        vec![
            hmult_with(&ctx, &ct_x, &ct_y, &kp.relin, limb).unwrap(),
            hadd(&ct_x, &ct_y).unwrap(),
            hrotate_with(&ctx, &ct_x, 1, &keys, limb).unwrap(),
            hrotate_with(&ctx, &ct_y, 3, &keys, limb).unwrap(),
            hsub(&ct_y, &ct_x).unwrap(),
        ]
    };

    let baseline = through(BatchExecutor::new(1));
    for (limb, op) in [(1, 1), (2, 1), (4, 1), (1, 4), (3, 2), (4, 4)] {
        assert_eq!(baseline, direct(limb), "diverged at limb_threads={limb}");
        // A budget of limb × op threads: the executor's scheduler splits it
        // between the op and limb axes its own way.
        let budget = limb * op;
        let scheduled = through(BatchExecutor::new(budget));
        assert_eq!(baseline, scheduled, "diverged at budget {budget}");
    }

    // And the batch results decrypt to the right values.
    let prod = ctx.decrypt_values(&baseline[0], &kp.secret).unwrap();
    let rot1 = ctx.decrypt_values(&baseline[2], &kp.secret).unwrap();
    for i in 0..slots {
        assert!((prod[i] - xs[i] * ys[i]).abs() < 0.05, "slot {i} product");
        assert!(
            (rot1[i] - xs[(i + 1) % slots]).abs() < 0.05,
            "slot {i} rotation"
        );
    }
}
