//! Serving a workload's trained model: in-process `harp_serve::serve` with
//! `ServeConfig::default()`, driven open-loop with 64-row dense requests
//! taken from holdout rows.

use crate::gen::SplitMix64;
use crate::openloop::{run_step, Payload, StepResult};
use crate::pipeline::layer_row;
use crate::report::{median, Metrics, Outcomes};
use crate::spans::Recorder;
use crate::workloads::Files;
use harp_data::{DenseMatrix, FeatureMatrix};
use harp_metrics::HistogramSnapshot;
use harp_serve::{ServeConfig, ServerHandle, StatsSnapshot};
use harpgbdt::{FlatForest, GbdtModel};
use std::fmt::Write as _;

/// Rows per request.
const REQUEST_ROWS: usize = 64;
/// Distinct request bodies drawn from the holdout.
const N_PAYLOADS: usize = 128;
/// Low rate: requests arrive alone, so the batch window dominates.
const LOW_RPS: f64 = 800.0;
/// High rate: about two thirds of the saturation measured for the
/// dense-20k model (~3 000 req/s on a 2-core host).
const HIGH_RPS: f64 = 2000.0;
/// Latency limit on p99 (the `report --slo` example budget).
const SLO_MS: f64 = 5.0;
/// Rounds of one low-rate and one high-rate step in an untraced run.
const SUBSTEPS: usize = 4;
/// Rate ladder rung `i` offers `LADDER_BASE × 2^(i / LADDER_PER_OCTAVE)`.
const LADDER_BASE: f64 = 250.0;
const LADDER_PER_OCTAVE: f64 = 24.0;
const LADDER_RUNGS: usize = 121;
/// Bisection probes over the ladder; a probe that misses is repeated once,
/// so one host stall does not end the search below capacity.
const LADDER_PROBES: usize = 7;
/// Shares of a traced run's serving time spent at each of the two rates
/// and on the ladder probes.
const STEP_SHARE: f64 = 0.3;
const LADDER_SHARE: f64 = 0.4;

fn ladder_rate(rung: usize) -> f64 {
    LADDER_BASE * 2f64.powf(rung as f64 / LADDER_PER_OCTAVE)
}

/// Request bodies and the order they are sent in, both from `seed`. Rows of
/// a sparse holdout are sent dense, absent entries as `NaN` (missing).
pub fn payloads(
    forest: &FlatForest,
    holdout: &harp_data::Dataset,
    seed: u64,
) -> (Vec<Payload>, Vec<usize>) {
    let m = holdout.n_features().max(forest.n_features());
    let n = holdout.n_rows();
    let mut rng = SplitMix64::new(seed ^ 0x5e7e);
    let payloads = (0..N_PAYLOADS)
        .map(|_| {
            let r0 = rng.below((n - REQUEST_ROWS + 1) as u64) as usize;
            let mut values = vec![f32::NAN; REQUEST_ROWS * m];
            for r in 0..REQUEST_ROWS {
                let row = &mut values[r * m..(r + 1) * m];
                holdout.features.for_each_in_row(r0 + r, |c, v| row[c as usize] = v);
            }
            let rows = FeatureMatrix::Dense(DenseMatrix::from_vec(REQUEST_ROWS, m, values.clone()));
            let expected_bits = forest.predict_raw(&rows).iter().map(|x| x.to_bits()).collect();
            Payload { n_cols: m as u32, values, expected_bits }
        })
        .collect();
    let order = (0..4096).map(|_| rng.below(N_PAYLOADS as u64) as usize).collect();
    (payloads, order)
}

/// `GbdtModel::load` → `compile` → `harp_serve::serve` until listening.
fn start_server(model_path: &std::path::Path) -> Result<ServerHandle, String> {
    let model = GbdtModel::load(model_path).map_err(|e| format!("load model: {e}"))?;
    harp_serve::serve(model.compile(), ServeConfig::default()).map_err(|e| format!("serve: {e}"))
}

fn stop(mut handle: ServerHandle) {
    handle.shutdown();
    handle.wait();
}

struct Running {
    handle: ServerHandle,
    payloads: Vec<Payload>,
    order: Vec<usize>,
}

/// Builds the requests, then starts the server.
fn setup(files: &Files, seed: u64) -> Result<Running, String> {
    let holdout = harp_data::io::read_path(&files.holdout).map_err(|e| e.to_string())?;
    let local = GbdtModel::load(&files.model).map_err(|e| format!("load model: {e}"))?.compile();
    let (payloads, order) = payloads(&local, &holdout, seed);
    let handle = start_server(&files.model)?;
    Ok(Running { handle, payloads, order })
}

fn step(run: &Running, rate: f64, secs: f64) -> Result<StepResult, String> {
    run_step(run.handle.local_addr(), &run.payloads, &run.order, rate, secs)
        .map_err(|e| format!("step at {rate} req/s: {e}"))
}

/// Counts a step's requests and failures; sheds, error replies, wrong
/// scores and timeouts all fail.
fn record_step(outcomes: &mut Outcomes, s: &StepResult, what: &str) {
    outcomes.record_many(s.sent, s.failed(), what);
}

/// Bisects the fixed rate ladder for the highest rung meeting the SLO.
/// Returns the achieved rate at that rung and every probe made.
fn max_rps_at_slo(run: &Running, probe_secs: f64) -> Result<(f64, Vec<StepResult>), String> {
    let (mut lo, mut hi) = (0usize, LADDER_RUNGS - 1);
    let mut best: Option<f64> = None;
    let mut probes = Vec::new();
    for _ in 0..LADDER_PROBES {
        if lo > hi {
            break;
        }
        let mid = (lo + hi) / 2;
        let mut meets = false;
        for _attempt in 0..2 {
            let s = step(run, ladder_rate(mid), probe_secs)?;
            meets = s.meets(SLO_MS);
            if meets {
                best = Some(s.achieved_rps);
            }
            probes.push(s);
            if meets {
                break;
            }
        }
        if meets {
            lo = mid + 1;
        } else if mid == 0 {
            break;
        } else {
            hi = mid - 1;
        }
    }
    Ok((best.unwrap_or(f64::NAN), probes))
}

const RATES: [(&str, f64); 2] = [("low", LOW_RPS), ("high", HIGH_RPS)];

/// Untraced serving of the saved model for `seconds`: latency at the low
/// and high rates (`p50_ms_low`, `p50_ms_high`). The rates alternate
/// over `SUBSTEPS` rounds, each step on a fresh connection; a rate's
/// quantile is the median of its steps' quantiles. The p99s are printed
/// but, too noisy on a shared 2-core host to carry a bound, are reported as
/// per-layer metrics of the traced run.
pub fn run(files: &Files, seed: u64, seconds: f64, m: &mut Metrics, outcomes: &mut Outcomes) {
    let running = match setup(files, seed) {
        Ok(r) => r,
        Err(e) => {
            outcomes.record(false, &e);
            return;
        }
    };
    let mut steps: [Vec<StepResult>; 2] = Default::default();
    outcomes.record(true, "server setup");
    for _ in 0..SUBSTEPS {
        for ((label, rate), done) in RATES.into_iter().zip(&mut steps) {
            match step(&running, rate, seconds * 0.5 / SUBSTEPS as f64) {
                Ok(s) => {
                    record_step(outcomes, &s, &format!("{label}-rate requests"));
                    done.push(s);
                }
                Err(e) => outcomes.record(false, &e),
            }
        }
    }
    for ((label, rate), done) in RATES.into_iter().zip(&steps) {
        if done.is_empty() {
            continue;
        }
        let p = |q: f64| median(&done.iter().map(|s| s.p(q)).collect::<Vec<_>>());
        m.put(&format!("p50_ms_{label}"), p(0.5), "ms");
        println!(
            "{label} rate {rate} req/s: {} sent, p50 {:.4} ms, p99 {:.4} ms, generator late max \
             {:.3} ms, backlog grew {}",
            done.iter().map(|s| s.sent).sum::<u64>(),
            p(0.5),
            p(0.99),
            done.iter().map(|s| s.late_max_ms).fold(0.0, f64::max),
            done.iter().any(|s| s.backlog_grew)
        );
    }
    stop(running.handle);
}

fn hist(s: &StatsSnapshot, name: &str) -> HistogramSnapshot {
    s.latency.get(name).cloned().unwrap_or_default()
}

fn p50_ms(after: &StatsSnapshot, before: &StatsSnapshot, name: &str) -> f64 {
    hist(after, name).delta_since(&hist(before, name)).quantile(0.5) as f64 / 1e6
}

/// Traced serving for `seconds`: the low and high steps with the server's
/// phase counters and histograms read before and after each, then the SLO
/// ladder. Appends the serve rows to `table`.
pub fn run_traced(
    files: &Files,
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
    m: &mut Metrics,
    outcomes: &mut Outcomes,
    table: &mut String,
) {
    let _ = writeln!(table, "  serving ({seconds:.1} s):");
    let (running, _) = rec.span("serve.setup", |_| setup(files, seed));
    let running = match running {
        Ok(r) => r,
        Err(e) => {
            outcomes.record(false, &e);
            return;
        }
    };
    outcomes.record(true, "server setup");
    for (label, rate) in RATES {
        let before = running.handle.snapshot();
        let (s, _) = rec
            .span(&format!("serve.step.{label}"), |_| step(&running, rate, seconds * STEP_SHARE));
        let after = running.handle.snapshot();
        let s = match s {
            Ok(s) => s,
            Err(e) => {
                outcomes.record(false, &e);
                continue;
            }
        };
        record_step(outcomes, &s, &format!("{label}-rate requests"));
        let requests = (after.requests - before.requests) as f64;
        let batches = (after.batches - before.batches) as f64;
        let e2e = p50_ms(&after, &before, "end_to_end");
        m.put(
            &format!("serve.queue_wait_p50_ms_{label}"),
            p50_ms(&after, &before, "queue_wait"),
            "ms",
        );
        m.put(&format!("serve.assemble_p50_ms_{label}"), p50_ms(&after, &before, "assemble"), "ms");
        m.put(&format!("serve.predict_p50_ms_{label}"), p50_ms(&after, &before, "predict"), "ms");
        m.put(&format!("serve.write_p50_ms_{label}"), p50_ms(&after, &before, "write"), "ms");
        m.put(&format!("serve.end_to_end_p50_ms_{label}"), e2e, "ms");
        m.put(&format!("serve.client_residual_p50_ms_{label}"), s.p(0.5) - e2e, "ms");
        m.put(&format!("serve.client_p99_ms_{label}"), s.p(0.99), "ms");
        m.put(&format!("serve.requests_per_batch_{label}"), requests / batches.max(1.0), "count");
        m.put(&format!("serve.sheds_{label}"), (after.sheds - before.sheds) as f64, "count");
        m.put(&format!("serve.generator_late_max_ms_{label}"), s.late_max_ms, "ms");
        m.put(&format!("serve.requests_sent_{label}"), s.sent as f64, "count");
        let rows = requests * REQUEST_ROWS as f64;
        let _ = writeln!(
            table,
            "  step {label}: {rate} req/s, client p50 {:.4} ms p99 {:.4} ms",
            s.p(0.5),
            s.p(0.99)
        );
        layer_row(
            table,
            "serve.queue_wait",
            after.queue_wait_secs - before.queue_wait_secs,
            requests,
            "request",
            None,
        );
        layer_row(
            table,
            "serve.assemble",
            after.assemble_secs - before.assemble_secs,
            batches,
            "batch",
            None,
        );
        layer_row(
            table,
            "serve.predict",
            after.predict_secs - before.predict_secs,
            rows,
            "row",
            None,
        );
        layer_row(
            table,
            "serve.write",
            after.write_secs - before.write_secs,
            requests,
            "reply",
            None,
        );
        let _ = writeln!(
            table,
            "  check: client p50 {:.4} ms = server end_to_end p50 {e2e:.4} ms + client residual {:.4} ms",
            s.p(0.5),
            s.p(0.5) - e2e
        );
    }
    let probe_secs = seconds * LADDER_SHARE / (LADDER_PROBES + 2) as f64;
    let (ladder, _) = rec.span("serve.ladder", |_| max_rps_at_slo(&running, probe_secs));
    match ladder {
        Ok((max_rps, probes)) => {
            // Above capacity a shed is the server's correct answer; only
            // wrong scores fail a ladder probe.
            for p in &probes {
                outcomes.record_many(p.sent, p.wrong, "ladder scores");
                let _ = writeln!(
                    table,
                    "  ladder {:>8.1} req/s: p99 {:.3} ms, sheds {}, timeouts {}, backlog grew {}, \
                     generator late max {:.3} ms -> {}",
                    p.rate,
                    p.p(0.99),
                    p.sheds,
                    p.timeouts,
                    p.backlog_grew,
                    p.late_max_ms,
                    if p.meets(SLO_MS) { "meets the SLO" } else { "misses the SLO" }
                );
            }
            // 0 when not even the lowest rung meets the SLO.
            m.put("serve.max_rps_at_slo", if max_rps.is_finite() { max_rps } else { 0.0 }, "req/s");
            m.put("serve.ladder_probes", probes.len() as f64, "count");
        }
        Err(e) => outcomes.record(false, &e),
    }
    stop(running.handle);
}
