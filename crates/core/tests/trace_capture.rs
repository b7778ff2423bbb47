//! End-to-end trace capture through the scheduled execution path:
//! `BatchExecutor::execute` → `ParScheduler::split` → CKKS ops → spans,
//! events and counters in the global tracer, exportable as Chrome-trace
//! JSON and a summary report.
//!
//! One test function on purpose: this binary owns its process, so mutating
//! the process-global tracer level cannot race other tests.

use warpdrive_core::{BatchExecutor, BatchOp, EvalKeys};
use wd_ckks::{CkksContext, ParamSet};

#[test]
fn scheduled_batch_records_splits_spans_and_exports() -> Result<(), Box<dyn std::error::Error>> {
    let params = ParamSet::set_b().with_degree(1 << 11).build()?;
    let ctx = CkksContext::with_seed(params, 7)?;
    let kp = ctx.keygen();

    let slots = ctx.params().slots().min(32);
    let cts: Vec<_> = (0..4)
        .map(|j| {
            let vals: Vec<f64> = (0..slots).map(|i| (i + j) as f64 * 0.01).collect();
            ctx.encrypt_values(&vals, &kp.public)
        })
        .collect::<Result<_, _>>()?;
    let batch: Vec<BatchOp> = vec![
        BatchOp::HMult(&cts[0], &cts[1]),
        BatchOp::HAdd(&cts[1], &cts[2]),
        BatchOp::HMult(&cts[2], &cts[3]),
        BatchOp::Rescale(&cts[3]),
    ];
    let eval = EvalKeys::with_relin(&kp.relin);

    // --- Off (the default): the run records nothing. ---
    wd_trace::set_level(wd_trace::TraceLevel::Off);
    wd_trace::reset();
    let baseline: Vec<_> = BatchExecutor::auto(4).execute(&ctx, eval, &batch);
    let data = wd_trace::snapshot();
    assert!(data.events.is_empty() && data.counters.is_empty() && data.span_aggs.is_empty());

    // --- Full: scheduler decisions, per-op spans, CKKS spans. ---
    wd_trace::set_level(wd_trace::TraceLevel::Full);
    wd_trace::reset();
    let traced: Vec<_> = BatchExecutor::auto(4).execute(&ctx, eval, &batch);
    let data = wd_trace::snapshot();

    // Tracing must not change results (the trace-smoke CI contract).
    for (a, b) in baseline.iter().zip(&traced) {
        assert_eq!(
            a.as_ref().unwrap(),
            b.as_ref().unwrap(),
            "tracing changed a result"
        );
    }

    // Scheduler decision event with the chosen split and cost-model score.
    assert_eq!(data.counter("sched.splits"), 1);
    let splits = data.events_named("sched", "split");
    assert_eq!(splits.len(), 1);
    let ev = splits[0];
    assert_eq!(ev.field("budget"), Some("4"));
    assert_eq!(ev.field("batch"), Some("4"));
    assert_eq!(ev.field("heavy"), Some("2"), "two HMULTs in the batch");
    let op_w: usize = ev.field("op_width").unwrap().parse()?;
    let limb_w: usize = ev.field("limb_width").unwrap().parse()?;
    assert!(op_w >= 1 && limb_w >= 1 && op_w * limb_w <= 4);
    assert!(
        ev.field("model_instrs").unwrap().parse::<f64>().is_ok(),
        "every split records its cost-model score"
    );

    // Executor and CKKS spans, aggregated and individual.
    assert_eq!(data.span_agg("batch", "execute").unwrap().count, 1);
    assert_eq!(data.span_agg("batch", "hmult").unwrap().count, 2);
    assert_eq!(data.span_agg("batch", "hadd").unwrap().count, 1);
    assert_eq!(data.span_agg("batch", "rescale").unwrap().count, 1);
    assert_eq!(data.span_agg("ckks", "hmult").unwrap().count, 2);
    assert!(
        data.span_agg("ckks", "keyswitch").unwrap().count >= 2,
        "each HMULT keyswitches"
    );
    assert!(data.spans.iter().any(|s| s.name == "execute"));

    // Exports: summary report lines and loadable Chrome-trace JSON.
    let report = data.summary_report();
    assert!(report.contains("counter sched.splits = 1"));
    assert!(report.contains("ckks.hmult"));
    assert!(report.contains("event sched.split x1"));
    let json = data.chrome_trace_json();
    assert!(json.contains(r#""name":"hmult""#));
    assert!(json.contains(r#""ph":"X""#));
    assert!(json.contains(r#""op_width""#));

    // Hoisted rotations keyswitch too, and show up under the same span:
    // one per rotation that needs a key.
    let rot_keys = ctx.gen_rotation_keys(&kp.secret, &[1, 2], false);
    wd_trace::reset();
    let rotated = wd_ckks::ops::hrotate_many(&ctx, &cts[0], &[1, 2], &rot_keys)?;
    assert_eq!(rotated.len(), 2);
    let data = wd_trace::snapshot();
    assert_eq!(
        data.span_agg("ckks", "keyswitch").map(|a| a.count),
        Some(2),
        "keyswitch_hoisted must open the ckks.keyswitch span"
    );

    wd_trace::set_level(wd_trace::TraceLevel::Off);
    Ok(())
}
