//! End-to-end run-ledger tests: train with the ledger on, check one record
//! per round with sensible deltas and non-zero memory high-water marks, and
//! round-trip the ledger through the JSON-lines file format.

use harp_bench::{harp_params, prepared};
use harp_data::DatasetKind;
use harp_metrics::{gauges, DiffOptions, DiffReport, RunLedger};
use harp_parallel::ProfileCounters;
use harpgbdt::trainer::{EvalMetric, EvalOptions};
use harpgbdt::{GbdtTrainer, LedgerConfig, ParallelMode, TraceConfig, TrainParams};

fn ledger_run(mut params: TrainParams, with_eval: bool) -> (RunLedger, usize) {
    let data = prepared(DatasetKind::HiggsLike, 0.03, 7);
    params.ledger = LedgerConfig::enabled();
    let trainer = GbdtTrainer::new(params).expect("valid params");
    let eval = with_eval.then_some(EvalOptions {
        data: &data.test,
        metric: EvalMetric::Auc,
        every: 1,
        early_stopping_rounds: None,
    });
    let out = trainer.train_prepared(&data.quantized, &data.train.labels, eval);
    let n_trees = out.model.n_trees();
    (out.diagnostics.ledger.expect("ledger enabled"), n_trees)
}

fn small_params() -> TrainParams {
    let mut p = harp_params(5, 2);
    p.n_trees = 6;
    p
}

#[test]
fn one_record_per_round_with_phase_and_counter_deltas() {
    let (ledger, n_trees) = ledger_run(small_params(), true);
    assert_eq!(ledger.len(), 6, "one record per boosting round");
    assert_eq!(n_trees, 6);
    let mut prev_elapsed = 0.0;
    for (i, r) in ledger.records().iter().enumerate() {
        assert_eq!(r.round, i as u64 + 1);
        assert!(r.round_secs > 0.0, "round {} took no time?", r.round);
        assert!(r.elapsed_secs > prev_elapsed, "elapsed must be cumulative");
        prev_elapsed = r.elapsed_secs;
        // Every round builds histograms; its phase delta must be non-zero.
        let build = r
            .phase_secs
            .iter()
            .find(|(n, _)| n == "build_hist")
            .map(|(_, v)| *v)
            .expect("build_hist phase present");
        assert!(build > 0.0, "round {} has no BuildHist time", r.round);
        // Counter deltas are per-round: regions are created every round, so
        // a whole-run (double-counted) read would grow with the round index.
        let regions = r.counters.iter().find(|(n, _)| n == "regions").map(|(_, v)| *v).unwrap_or(0);
        assert!(regions > 0, "round {} shows no parallel regions", r.round);
        assert!(r.eval_metric.is_some(), "eval ran every round");
        assert!(r.n_leaves >= 2);
        assert!(r.mean_k_per_pop >= 1.0, "effective K below 1 in round {}", r.round);
    }
    // Per-round region counts must be roughly flat, not cumulative.
    let first = ledger.records()[0].counters.iter().find(|(n, _)| n == "regions").unwrap().1 as f64;
    let last = ledger.records()[5].counters.iter().find(|(n, _)| n == "regions").unwrap().1 as f64;
    assert!(last < first * 3.0, "per-round counter looks cumulative: first {first}, last {last}");
}

#[test]
fn memory_gauges_report_nonzero_high_water() {
    let (ledger, _) = ledger_run(small_params(), true);
    let last = ledger.records().last().expect("records");
    let hw = |name: &str| {
        last.mem
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("gauge {name} missing"))
            .high_water_bytes
    };
    assert!(hw(gauges::HIST_POOL) > 0, "hist pool allocated nothing?");
    assert!(hw(gauges::SCRATCH_ARENA) > 0, "DP replica arena allocated nothing?");
    assert!(hw(gauges::MEMBUF) > 0, "membuf on but gauge zero");
    assert!(hw(gauges::PARTITION) > 0);
    assert!(hw(gauges::FLAT_FOREST) > 0, "eval compiles a flat tree every round");
    // MemBuf holds two GradPair replicas per row.
    let data = prepared(DatasetKind::HiggsLike, 0.03, 7);
    assert_eq!(hw(gauges::MEMBUF), 2 * data.train.n_rows() as u64 * 8);
}

#[test]
fn membuf_off_zeroes_the_membuf_gauge() {
    let mut p = small_params();
    p.use_membuf = false;
    let (ledger, _) = ledger_run(p, false);
    let last = ledger.records().last().expect("records");
    let membuf = last.mem.iter().find(|m| m.name == gauges::MEMBUF).expect("gauge");
    assert_eq!(membuf.high_water_bytes, 0);
    assert!(last.eval_metric.is_none(), "no eval set attached");
}

#[test]
fn trace_enriches_records_with_skew_and_queue_counters() {
    let mut p = small_params();
    p.trace = TraceConfig::enabled();
    p.mode = ParallelMode::Async;
    let (ledger, _) = ledger_run(p, false);
    let has_queue = ledger
        .records()
        .iter()
        .any(|r| r.counters.iter().any(|(n, v)| n == "queue_pops" && *v > 0));
    assert!(has_queue, "ASYNC training with trace on must count queue pops");
    assert!(
        ledger.records().iter().any(|r| !r.skew.is_empty()),
        "trace on must produce per-round skew rows"
    );
}

#[test]
fn every_profile_counter_reaches_the_ledger() {
    // The profile counters are declared once; each must land in the
    // round-1 record under its `named()` name, in declaration order.
    let (ledger, _) = ledger_run(small_params(), false);
    let round1 = &ledger.records()[0];
    assert_eq!(round1.round, 1);
    let names: Vec<&str> =
        ProfileCounters::default().named().iter().map(|&(name, _)| name).collect();
    let recorded: Vec<&str> = round1.counters.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(recorded[..names.len()], names[..], "round-1 counters: {recorded:?}");
}

#[test]
fn ledger_file_roundtrip_and_self_diff() {
    let (ledger, _) = ledger_run(small_params(), true);
    let path = std::env::temp_dir().join("harp_e2e_ledger.jsonl");
    ledger.write_jsonl(&path).expect("write");
    let text = std::fs::read_to_string(&path).expect("read back");
    assert_eq!(text.lines().count(), ledger.len(), "one JSON line per round");
    let back = RunLedger::read_jsonl(&path).expect("parse");
    std::fs::remove_file(&path).ok();
    assert_eq!(back, ledger);
    // A run diffed against itself passes at zero tolerance.
    let diff = DiffReport::between(&ledger.summary(), &back.summary(), &DiffOptions::default());
    assert!(!diff.failed());
    assert!(!diff.warned());
}

#[test]
fn records_carry_plan_stats() {
    let (ledger, _) = ledger_run(small_params(), false);
    for r in ledger.records() {
        assert!(r.plan.batches > 0, "round {} planned no batches", r.round);
        assert!(r.plan.tasks > 0, "round {} planned no tasks", r.round);
        assert!(r.plan.tasks >= r.plan.batches, "every batch has at least one task");
        assert!(r.plan.node_blk > 0, "resolved extents must be recorded");
        assert!(r.plan.feature_blk > 0);
        assert!(!r.plan.auto, "explicit config must not be flagged auto");
    }
    // The plan/ metric family lands in the summary for report --diff gating.
    let summary = ledger.summary();
    let get = |name: &str| {
        summary
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN)
    };
    assert!(get("plan/tasks") > 0.0);
    assert!(get("plan/batches") > 0.0);
    assert_eq!(get("plan/auto"), 0.0);
}

#[test]
fn auto_blocks_train_comparably_and_mark_the_ledger() {
    // BlockConfig::Auto must flag every round's plan stats and train to the
    // same quality as the default config (the cost model only re-blocks the
    // same arithmetic; accuracy is untouched up to K-batch ordering).
    let mut auto = small_params();
    auto.blocks = harpgbdt::BlockConfig::Auto;
    let (ledger, _) = ledger_run(auto, true);
    for r in ledger.records() {
        assert!(r.plan.auto, "round {} lost the auto flag", r.round);
        assert!(r.plan.batches > 0 && r.plan.tasks > 0);
    }
    let auc_of = |l: &RunLedger| l.records().last().unwrap().eval_metric.expect("eval ran");
    let (default_ledger, _) = ledger_run(small_params(), true);
    let (a, d) = (auc_of(&ledger), auc_of(&default_ledger));
    assert!((a - d).abs() < 0.02, "auto blocks changed eval quality: auto {a} vs default {d}");
}

#[test]
fn identical_seeds_produce_identical_deterministic_metrics() {
    let (a, _) = ledger_run(small_params(), true);
    let (b, _) = ledger_run(small_params(), true);
    // Timing differs run to run; the deterministic metric families must not.
    let diff = DiffReport::between(&a.summary(), &b.summary(), &DiffOptions::default());
    for row in diff.rows.iter().filter(|r| {
        r.metric.starts_with("counter/") && !r.metric.ends_with("_ns") && !r.metric.contains("wall")
            || r.metric.starts_with("tree/")
            || r.metric.starts_with("eval/")
            || r.metric.starts_with("plan/")
    }) {
        assert!(
            row.rel_delta == 0.0,
            "deterministic metric {} drifted: {} vs {}",
            row.metric,
            row.a,
            row.b
        );
    }
}
