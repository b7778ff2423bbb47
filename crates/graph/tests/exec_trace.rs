//! The value-lifetime signals of compiled execution: `graph.exec.released`
//! counts the computed values dropped before the programs end (a failed
//! job's included) and the `graph.exec.live` gauge samples the computed
//! values held after each wave.
//!
//! One test function on purpose: this binary owns its process, so setting
//! the process-global tracer level cannot race other tests.

use warpdrive_core::{BatchExecutor, EvalKeys};
use wd_ckks::{CkksContext, CkksError, ParamSet};
use wd_graph::{CompileOptions, CompiledProgram, Graph};

#[test]
fn released_counter_and_live_gauge_follow_the_drop_schedule() {
    let params = ParamSet::set_a()
        .with_degree(1 << 6)
        .with_level(4)
        .build()
        .unwrap();
    let ctx = CkksContext::with_seed(params, 0x11FE).unwrap();
    let kp = ctx.keygen();
    let rot = ctx.gen_rotation_keys(&kp.secret, &[1], false);
    let keys = EvalKeys::with_relin(&kp.relin).and_rotations(&rot);
    let compile = |g: &Graph| g.compile(ctx.params(), &CompileOptions::new()).unwrap();

    // A chain: MulRelin, Rescale, then six constant adds, one per wave.
    // Each wave's value is read only by the next wave.
    let chain = {
        let mut g = Graph::new();
        let (x, y) = (g.input(), g.input());
        let mut v = g.mul(x, y);
        for k in 0..6 {
            v = g.add_const(v, f64::from(k) + 0.5);
        }
        g.output(v);
        compile(&g)
    };
    assert_eq!((chain.step_count(), chain.wave_count()), (10, 8));
    // The same product, then a rotation without a key: fails in wave 3
    // holding the rescaled product.
    let failing = {
        let mut g = Graph::new();
        let (x, y) = (g.input(), g.input());
        let t = g.mul(x, y);
        let r = g.rotate(t, 3);
        g.output(r);
        compile(&g)
    };

    let inputs = [
        ctx.encrypt_values(&[0.5, -1.0], &kp.public).unwrap(),
        ctx.encrypt_values(&[2.0, 0.25], &kp.public).unwrap(),
    ];
    let jobs: Vec<(&CompiledProgram, &[_])> = vec![(&chain, &inputs), (&failing, &inputs)];

    wd_trace::set_level(wd_trace::TraceLevel::Full);
    wd_trace::reset();
    let got = wd_graph::execute_many(&ctx, keys, &jobs, &BatchExecutor::sequential());
    let data = wd_trace::snapshot();
    wd_trace::set_level(wd_trace::TraceLevel::Off);

    assert_eq!(got[0].as_ref().map(Vec::len).unwrap(), 1);
    assert!(matches!(got[1], Err(CkksError::MissingKey(_))));
    // The chain drops 7 of its 8 computed values; the failing job drops
    // its MulRelin after the Rescale read it, and the Rescale when it fails.
    assert_eq!(data.counter("graph.exec.released"), 9);
    // Two values held after waves 1 and 2 (one a job), then only the
    // chain's newest.
    let live = data.gauge("graph.exec.live").expect("sampled every wave");
    assert_eq!((live.max, live.last), (2, 1));
}
