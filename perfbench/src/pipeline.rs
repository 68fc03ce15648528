//! A workload's path: input file → quantized matrix → model on disk →
//! reloaded, compiled and scored, then served, through the same public
//! calls the CLI `train`, `predict` and `serve` paths make.

use crate::report::{median, peak_rss_mb, quantile, trimmed_mean, Metrics, Outcomes};
use crate::serve;
use crate::spans::Recorder;
use crate::workloads::{train_params, Files, Workload};
use harp_binning::BinMapper;
use harp_data::Dataset;
use harp_parallel::ThreadPool;
use harpgbdt::kernels::FLOPS_PER_CELL;
use harpgbdt::{
    BinningConfig, GbdtModel, GbdtTrainer, LayoutOptions, QuantizedMatrix, TrainOutput,
};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Setup is timed at least `MIN_SETUPS` times per run: in every train
/// pass, and in up to `SETUPS_PER_PASS` set-up passes after each train pass
/// while they take less than `SETUP_SHARE` of `--seconds`. The median is
/// reported.
const MIN_SETUPS: usize = 3;
const SETUPS_PER_PASS: usize = 4;
const SETUP_SHARE: f64 = 0.1;
/// Share of `--seconds` spent serving the trained model.
const SERVE_SHARE: f64 = 0.2;
/// Predict passes per train pass.
const PREDICT_REPS: usize = 6;
/// `ms_per_tree` drops this share of the fastest and of the slowest rounds.
const ROUND_TRIM: f64 = 0.1;

/// A training input read and quantized, ready for the trainer.
pub struct Prepared {
    pub data: Dataset,
    pub qm: QuantizedMatrix,
    pub input_bytes: u64,
    pub read_s: f64,
    /// `QuantizedMatrix::from_matrix_opts` (cuts + quantize + layout).
    pub from_matrix_opts_s: f64,
    /// A separate `BinMapper::from_matrix` call, made only when asked, that
    /// splits the cut search out of `from_matrix_opts_s`.
    pub cuts_s: Option<f64>,
}

impl Prepared {
    pub fn setup_s(&self) -> f64 {
        self.read_s + self.from_matrix_opts_s
    }
}

/// Reads `path` and quantizes it with the CLI's default binning and layout.
///
/// # Errors
/// The loader's error.
fn prepare(rec: &mut Recorder, path: &Path, split_cuts: bool) -> Result<Prepared, String> {
    let (data, read_s) = rec.span("data.read", |_| harp_data::io::read_path(path));
    let data = data.map_err(|e| format!("read {}: {e}", path.display()))?;
    let cuts_s = split_cuts.then(|| {
        rec.span("binning.cuts", |_| {
            std::hint::black_box(BinMapper::from_matrix(&data.features, BinningConfig::default()))
        })
        .1
    });
    let (qm, from_matrix_opts_s) = rec.span("binning.from_matrix_opts", |_| {
        QuantizedMatrix::from_matrix_opts(
            &data.features,
            BinningConfig::default(),
            LayoutOptions::default(),
        )
    });
    let input_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    Ok(Prepared { data, qm, input_bytes, read_s, from_matrix_opts_s, cuts_s })
}

/// One CSV/LIBSVM → model-on-disk pass.
pub struct TrainRun {
    pub prep: Prepared,
    pub out: TrainOutput,
    pub train_s: f64,
    pub save_s: f64,
    pub time_to_model_s: f64,
}

/// Prepares, trains and saves the model to `files.model`.
///
/// # Errors
/// Read, parameter or save failures.
pub fn train_once(
    rec: &mut Recorder,
    w: &Workload,
    files: &Files,
    threads: usize,
    split_cuts: bool,
) -> Result<TrainRun, String> {
    let t0 = Instant::now();
    let trainer = GbdtTrainer::new(train_params(w, threads))?;
    let (prep, _) = rec.span("setup", |rec| prepare(rec, &files.train, split_cuts));
    let prep = prep?;
    let (out, train_s) =
        rec.span("core.train", |_| trainer.train_prepared(&prep.qm, &prep.data.labels, None));
    let (saved, save_s) = rec.span("model.save", |_| out.model.save(&files.model));
    saved.map_err(|e| format!("save {}: {e}", files.model.display()))?;
    let time_to_model_s = t0.elapsed().as_secs_f64();
    Ok(TrainRun { prep, out, train_s, save_s, time_to_model_s })
}

/// The saved model, reloaded, compiled and run over the holdout.
struct Scored {
    raw: Vec<f32>,
    load_s: f64,
    compile_s: f64,
    score_s: f64,
}

impl Scored {
    pub fn total_s(&self) -> f64 {
        self.load_s + self.compile_s + self.score_s
    }
}

/// `GbdtModel::load` → `compile` → `predict_raw_parallel`, as `harpgbdt
/// predict --threads N` does.
///
/// # Errors
/// Load failures, or a holdout narrower than the model.
fn score_saved(
    rec: &mut Recorder,
    model_path: &Path,
    holdout: &Dataset,
    pool: &ThreadPool,
) -> Result<Scored, String> {
    let (model, load_s) = rec.span("model.load", |_| GbdtModel::load(model_path));
    let model = model.map_err(|e| format!("load {}: {e}", model_path.display()))?;
    let (forest, compile_s) = rec.span("predict.compile", |_| model.compile());
    if holdout.n_features() < forest.n_features() {
        return Err(format!(
            "holdout has {} features, the model expects {}",
            holdout.n_features(),
            forest.n_features()
        ));
    }
    let (raw, score_s) =
        rec.span("predict.score", |_| forest.predict_raw_parallel(&holdout.features, pool));
    Ok(Scored { raw, load_s, compile_s, score_s })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The holdout log-loss of raw margins.
fn holdout_logloss(model: &GbdtModel, holdout: &Dataset, raw: &[f32]) -> f64 {
    harp_metrics::log_loss(&holdout.labels, &model.loss().transform_scores(raw))
}

/// Checks one trained model and its reloaded predictions.
fn check_run(
    w: &Workload,
    run: &TrainRun,
    scored: &Scored,
    holdout: &Dataset,
    pool: &ThreadPool,
    outcomes: &mut Outcomes,
) -> f64 {
    let in_memory = run.out.model.compile().predict_raw_parallel(&holdout.features, pool);
    outcomes.record(
        bits(&in_memory) == bits(&scored.raw),
        "reloaded model predicts bitwise like the in-memory model",
    );
    let logloss = holdout_logloss(&run.out.model, holdout, &scored.raw);
    outcomes.record(
        logloss.is_finite() && logloss < w.logloss_ceiling,
        &format!("holdout log-loss {logloss} under {}", w.logloss_ceiling),
    );
    if w.sparse {
        let bundled = run.prep.qm.layout_stats().cols_bundled;
        outcomes.record(bundled > 0, "the default layout bundles the one-hot features");
    }
    logloss
}

/// Runs `f`, turning a panic into a recorded failure.
fn guarded<T>(
    outcomes: &mut Outcomes,
    what: &str,
    f: impl FnOnce() -> Result<T, String>,
) -> Option<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Some(v),
        Ok(Err(e)) => {
            outcomes.record(false, &format!("{what}: {e}"));
            None
        }
        Err(_) => {
            outcomes.record(false, &format!("{what}: panicked"));
            None
        }
    }
}

/// Runs one pass of the pipeline in this process, which the parent started
/// fresh for it, and prints what it measured as `<key> <values...>` lines:
///
/// * `train`: input file → model on disk, then (untimed) the checks;
/// * `predict`: model load → compile → score the holdout at T=`threads`;
/// * `setup`: input file → quantized matrix.
///
/// # Errors
/// Unknown passes, and read, train, save or load failures.
pub fn run_pass(pass: &str, w: &Workload, files: &Files, threads: usize) -> Result<(), String> {
    let mut rec = Recorder::new(false);
    let read_holdout = || harp_data::io::read_path(&files.holdout).map_err(|e| e.to_string());
    match pass {
        "setup" => println!("setup_s {}", prepare(&mut rec, &files.train, false)?.setup_s()),
        "predict" => {
            let holdout = read_holdout()?;
            let pool = ThreadPool::new(threads);
            let scored = score_saved(&mut rec, &files.model, &holdout, &pool)?;
            println!("predict_rows_per_s {}", holdout.n_rows() as f64 / scored.total_s());
        }
        "train" => {
            let run = train_once(&mut rec, w, files, threads, false)?;
            println!("peak_rss_mb {}", peak_rss_mb());
            println!("setup_s {}", run.prep.setup_s());
            println!("time_to_model_s {}", run.time_to_model_s);
            let rounds: Vec<String> = run.out.diagnostics.per_tree_secs[1..]
                .iter()
                .map(|s| (s * 1e3).to_string())
                .collect();
            println!("rounds_ms {}", rounds.join(" "));
            let holdout = read_holdout()?;
            let pool = ThreadPool::new(threads);
            let scored = score_saved(&mut rec, &files.model, &holdout, &pool)?;
            let mut outcomes = Outcomes::default();
            let logloss = check_run(w, &run, &scored, &holdout, &pool, &mut outcomes);
            println!("holdout_logloss {logloss}");
            println!("checks {} {}", outcomes.attempted, outcomes.failed);
        }
        other => return Err(format!("unknown pass {other:?} (train|predict|setup)")),
    }
    Ok(())
}

/// What one pass printed, by key.
type PassReport = std::collections::HashMap<String, Vec<f64>>;

/// Runs `pass` in a fresh process of this binary, as a CLI user runs each
/// `harpgbdt` command in its own process. A failed or panicking pass, and
/// failed checks inside it, are recorded.
fn spawn_pass(pass: &str, w: &Workload, dir: &Path, outcomes: &mut Outcomes) -> Option<PassReport> {
    // A pass reads the inputs already in `dir`, so its seed is unused.
    let out = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(["pass", "--pass", pass, "--workload", w.name, "--seed", "0", "--dir"])
            .arg(dir)
            .stderr(std::process::Stdio::inherit())
            .output()
    });
    let out = match out {
        Ok(o) if o.status.success() => o,
        Ok(o) => {
            outcomes.record(false, &format!("{pass} pass exited with {}", o.status));
            return None;
        }
        Err(e) => {
            outcomes.record(false, &format!("{pass} pass did not start: {e}"));
            return None;
        }
    };
    let mut report = PassReport::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut parts = line.split_whitespace();
        if let Some(key) = parts.next() {
            let values = parts.filter_map(|v| v.parse().ok()).collect();
            report.insert(key.to_string(), values);
        }
    }
    match report.get("checks").map(Vec::as_slice) {
        Some(&[attempted, failed]) => {
            outcomes.record_many(attempted as u64, failed as u64, &format!("{pass} pass checks"))
        }
        _ => outcomes.record(true, pass),
    }
    Some(report)
}

fn collect(all: &mut PassReport, report: Option<PassReport>) {
    for (k, v) in report.into_iter().flatten() {
        all.entry(k).or_default().extend(v);
    }
}

/// Untraced run: repeats train, predict and set-up passes, each in a fresh
/// process, for the training share of `seconds`, then serves the saved
/// model for the rest; reports medians.
pub fn run(w: &Workload, files: &Files, seed: u64, seconds: f64) -> (Metrics, Outcomes) {
    let dir = files.train.parent().unwrap_or(Path::new("."));
    let mut outcomes = Outcomes::default();
    let mut all = PassReport::new();
    let serve_secs = seconds * SERVE_SHARE;
    let train_secs = seconds - serve_secs;
    let start = Instant::now();
    let mut setup_secs = 0.0;
    let mut trained = false;
    loop {
        let it = Instant::now();
        let train = spawn_pass("train", w, dir, &mut outcomes);
        if train.is_none() {
            break;
        }
        trained = true;
        collect(&mut all, train);
        for _ in 0..PREDICT_REPS {
            collect(&mut all, spawn_pass("predict", w, dir, &mut outcomes));
        }
        // Set-up is cheap next to training on the smaller inputs: time it
        // more often there, between train passes so that the samples span
        // the run.
        for _ in 0..SETUPS_PER_PASS {
            if setup_secs >= SETUP_SHARE * seconds {
                break;
            }
            let t = Instant::now();
            collect(&mut all, spawn_pass("setup", w, dir, &mut outcomes));
            setup_secs += t.elapsed().as_secs_f64();
        }
        if start.elapsed().as_secs_f64() + it.elapsed().as_secs_f64() > train_secs {
            break;
        }
    }
    while outcomes.failed == 0 && all.get("setup_s").map_or(0, Vec::len) < MIN_SETUPS {
        collect(&mut all, spawn_pass("setup", w, dir, &mut outcomes));
    }
    let get = |k: &str| all.get(k).map_or(&[][..], Vec::as_slice);
    let logloss = get("holdout_logloss");
    outcomes.record(
        logloss.windows(2).all(|p| p[0].to_bits() == p[1].to_bits()),
        "every training pass gives the same holdout log-loss",
    );
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(get("setup_s")), "s");
    // Round times on a shared host switch between a fast and a slow mode
    // for seconds at a time; a median jumps between the modes, while a
    // trimmed mean moves with the share of rounds in each.
    let rounds = get("rounds_ms");
    let ms_per_tree = trimmed_mean(rounds, ROUND_TRIM);
    println!(
        "rounds: {} timed, p10 {:.4} ms, median {:.4} ms, trimmed mean {ms_per_tree:.4} ms",
        rounds.len(),
        quantile(rounds, 0.1),
        median(rounds)
    );
    metrics.put("ms_per_tree", ms_per_tree, "ms");
    metrics.put("time_to_model_s", median(get("time_to_model_s")), "s");
    metrics.put("predict_rows_per_s", median(get("predict_rows_per_s")), "rows/s");
    metrics.put("peak_rss_mb", median(get("peak_rss_mb")), "MB");
    metrics.put("holdout_logloss", logloss.first().copied().unwrap_or(f64::NAN), "nats");
    if trained {
        serve::run(files, seed, serve_secs, &mut metrics, &mut outcomes);
    }
    (metrics, outcomes)
}

/// Exact work counts of one trained model (repeat exactly for a seed).
pub struct WorkCounts {
    pub rows: u64,
    pub cells: u64,
    pub boundaries: u64,
    pub rows_routed: u64,
    pub leaves: Vec<u32>,
    pub storage_cols: u64,
    pub cols_bundled: u64,
    pub cols_u4: u64,
}

pub fn work_counts(run: &TrainRun) -> WorkCounts {
    let d = &run.out.diagnostics;
    let total_bins = u64::from(run.prep.qm.mapper().total_bins());
    let trees = run.out.model.trees();
    // FindSplit scores every bin boundary of every feature once per node
    // evaluation; each node of a leafwise tree is evaluated once.
    let boundaries = trees.iter().map(|t| t.n_nodes() as u64 * total_bins).sum();
    let rows_routed = trees
        .iter()
        .flat_map(|t| (0..t.n_nodes()).map(move |i| t.node(i as _)))
        .filter(|n| !n.is_leaf())
        .map(|n| u64::from(n.stats.count))
        .sum();
    let layout = run.prep.qm.layout_stats();
    WorkCounts {
        rows: run.prep.data.n_rows() as u64,
        cells: d.profile.flops / FLOPS_PER_CELL,
        boundaries,
        rows_routed,
        leaves: d.tree_shapes.iter().map(|s| s.n_leaves).collect(),
        storage_cols: run.prep.qm.n_storage_cols() as u64,
        cols_bundled: layout.cols_bundled,
        cols_u4: layout.cols_u4,
    }
}

/// Trainer phase seconds: BuildHist, FindSplit, ApplySplit, and the rest of
/// the loop (gradients included).
fn phases(out: &TrainOutput) -> [f64; 4] {
    let b = &out.diagnostics.breakdown;
    let other = b.total() - b.build_hist_secs - b.find_split_secs - b.apply_split_secs;
    [b.build_hist_secs, b.find_split_secs, b.apply_split_secs, other]
}

/// T=1 time over T=nproc time, per trainer phase and for batch scoring.
struct Scaling {
    phases: [f64; 4],
    predict: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        f64::NAN
    }
}

/// One row of the per-layer table.
pub(crate) fn layer_row(
    table: &mut String,
    layer: &str,
    self_s: f64,
    work: f64,
    unit: &str,
    scaling: Option<f64>,
) {
    let ns_per = ratio(self_s * 1e9, work);
    let scale = scaling.map_or_else(|| "n/a".to_string(), |s| format!("{s:.3}"));
    let _ = writeln!(
        table,
        "  {layer:<34} {self_s:>10.4} {work:>16.0} {unit:<10} {ns_per:>12.3} {scale:>8}"
    );
}

pub(crate) fn table_header(title: &str) -> String {
    format!(
        "{title}\n  {:<34} {:>10} {:>16} {:<10} {:>12} {:>8}\n",
        "layer", "self s", "work", "unit", "ns/unit", "T1/Tn"
    )
}

/// Traced run: one untraced reference pipeline, one traced pipeline at
/// T=nproc and a T=1 retrain on the same matrix for the scaling column,
/// then traced serving for the serving share of `seconds`.
/// Returns the per-layer metrics, the checks, the printed table and the
/// spans.
pub fn run_traced(
    w: &Workload,
    files: &Files,
    seed: u64,
    seconds: f64,
    threads: usize,
) -> (Metrics, Outcomes, String, Recorder) {
    let mut outcomes = Outcomes::default();
    let mut m = Metrics::default();
    let mut rec = Recorder::new(true);
    let pool = ThreadPool::new(threads);
    // The untraced reference runs cold in its own process, like the traced
    // pass, which is the first in this one.
    let dir = files.train.parent().unwrap_or(Path::new("."));
    let reference = spawn_pass("train", w, dir, &mut outcomes);
    let untraced_ms = reference
        .as_ref()
        .and_then(|r| r.get("rounds_ms"))
        .map_or(f64::NAN, |v| trimmed_mean(v, ROUND_TRIM));
    let result = guarded(&mut outcomes, "traced run", || {
        let holdout = harp_data::io::read_path(&files.holdout).map_err(|e| e.to_string())?;
        let (run, wall_s) = rec.span("pipeline", |rec| train_once(rec, w, files, threads, true));
        let run = run?;
        let (scored, _) =
            rec.span("predict", |rec| score_saved(rec, &files.model, &holdout, &pool));
        let scored = scored?;
        // Scaling compares warm passes at T=1 and T=nproc on the same
        // matrix and forest.
        let forest = run.out.model.compile();
        let features = &holdout.features;
        let (_, score_tn) = rec.span("predict.score.tn", |_| {
            std::hint::black_box(forest.predict_raw_parallel(features, &pool))
        });
        let (_, score_t1) =
            rec.span("predict.score.t1", |_| std::hint::black_box(forest.predict_raw(features)));
        let (qm, labels) = (&run.prep.qm, &run.prep.data.labels);
        let trainer_t1 = GbdtTrainer::new(train_params(w, 1))?;
        let (t1, _) = rec.span("core.train.t1", |_| trainer_t1.train_prepared(qm, labels, None));
        let trainer_tn = GbdtTrainer::new(train_params(w, threads))?;
        let (tn, _) = rec.span("core.train.tn", |_| trainer_tn.train_prepared(qm, labels, None));
        let scaling = Scaling {
            phases: std::array::from_fn(|i| ratio(phases(&t1)[i], phases(&tn)[i])),
            predict: ratio(score_t1, score_tn),
        };
        Ok((run, scored, wall_s, scaling, holdout))
    });
    let Some((run, scored, wall_s, scaling, holdout)) = result else {
        return (m, outcomes, String::new(), rec);
    };

    check_run(w, &run, &scored, &holdout, &pool, &mut outcomes);
    let counts = work_counts(&run);
    let d = &run.out.diagnostics;
    let p = &d.profile;
    let n_trees = run.out.model.n_trees().max(1) as f64;
    let cuts_s = run.prep.cuts_s.unwrap_or(f64::NAN);
    let quantize_s = (run.prep.from_matrix_opts_s - cuts_s).max(0.0);
    let values = run.prep.data.features.n_present() as f64;
    let model_bytes = std::fs::metadata(&files.model).map_or(0, |md| md.len()) as f64;
    let [bh, fs, ap, other] = phases(&run.out);
    let [bh_x, fs_x, ap_x, other_x] = scaling.phases;
    let phase_sum = bh + fs + ap + other;
    let traced_ms = trimmed_mean(&d.per_tree_secs[1..], ROUND_TRIM) * 1e3;
    let row_trees = holdout.n_rows() as f64 * n_trees;

    m.put("data.rows", counts.rows as f64, "count");
    m.put("data.read_s", run.prep.read_s, "s");
    m.put("data.input_bytes", run.prep.input_bytes as f64, "B");
    m.put("data.read_mb_per_s", run.prep.input_bytes as f64 / 1e6 / run.prep.read_s, "MB/s");
    m.put("binning.cuts_s", cuts_s, "s");
    m.put("binning.quantize_s", quantize_s, "s");
    m.put("binning.ns_per_value", (cuts_s + quantize_s) * 1e9 / values, "ns/value");
    m.put("binning.storage_bytes", run.prep.qm.storage_bytes() as f64, "B");
    m.put("binning.storage_cols", counts.storage_cols as f64, "count");
    m.put("binning.cols_bundled", counts.cols_bundled as f64, "count");
    m.put("binning.cols_u4", counts.cols_u4 as f64, "count");
    m.put("core.build_hist_s", bh, "s");
    m.put("core.cells", counts.cells as f64, "count");
    m.put("core.build_hist_ns_per_cell", bh * 1e9 / counts.cells as f64, "ns/cell");
    m.put("core.find_split_s", fs, "s");
    m.put("core.boundaries", counts.boundaries as f64, "count");
    m.put("core.find_split_ns_per_boundary", fs * 1e9 / counts.boundaries as f64, "ns/boundary");
    m.put("core.apply_split_s", ap, "s");
    m.put("core.rows_routed", counts.rows_routed as f64, "count");
    m.put("core.apply_split_ns_per_row", ap * 1e9 / counts.rows_routed as f64, "ns/row");
    m.put("core.other_s", other, "s");
    m.put(
        "core.leaves_per_tree",
        counts.leaves.iter().map(|&l| f64::from(l)).sum::<f64>() / n_trees,
        "count",
    );
    let lookups = p.hist_cache_hits + p.hist_cache_misses;
    m.put("core.hist_cache_hit_share", ratio(p.hist_cache_hits as f64, lookups as f64), "ratio");
    m.put("core.build_hist_scaling", bh_x, "ratio");
    m.put("core.find_split_scaling", fs_x, "ratio");
    m.put("core.apply_split_scaling", ap_x, "ratio");
    m.put("core.other_scaling", other_x, "ratio");
    m.put("core.layer_sum_share", phase_sum / run.train_s, "ratio");
    m.put("parallel.regions_per_tree", p.regions as f64 / n_trees, "count");
    m.put("parallel.avg_task_us", p.avg_task_us, "us");
    m.put("parallel.barrier_share", p.barrier_overhead, "ratio");
    m.put("parallel.cpu_utilization", p.cpu_utilization, "ratio");
    m.put("model.save_s", run.save_s, "s");
    m.put("model.load_s", scored.load_s, "s");
    m.put("model.bytes", model_bytes, "B");
    m.put("predict.compile_s", scored.compile_s, "s");
    m.put("predict.ns_per_row_tree", scored.score_s * 1e9 / row_trees, "ns/row-tree");
    m.put("predict.scaling", scaling.predict, "ratio");
    m.put("trace.overhead_share", (traced_ms - untraced_ms) / untraced_ms, "ratio");

    let mut t = table_header(&format!("per-layer breakdown: {} (T={threads})", w.name));
    layer_row(&mut t, "data.read", run.prep.read_s, run.prep.input_bytes as f64, "byte", None);
    layer_row(&mut t, "binning.cuts", cuts_s, values, "value", None);
    layer_row(&mut t, "binning.quantize", quantize_s, values, "value", None);
    layer_row(&mut t, "core.build_hist", bh, counts.cells as f64, "cell", Some(bh_x));
    layer_row(
        &mut t,
        "core.find_split (computed work)",
        fs,
        counts.boundaries as f64,
        "boundary",
        Some(fs_x),
    );
    layer_row(&mut t, "core.apply_split", ap, counts.rows_routed as f64, "row", Some(ap_x));
    layer_row(&mut t, "core.other (gradients + rest)", other, n_trees, "round", Some(other_x));
    layer_row(&mut t, "model.save", run.save_s, model_bytes, "byte", None);
    layer_row(&mut t, "model.load", scored.load_s, model_bytes, "byte", None);
    layer_row(&mut t, "predict.compile", scored.compile_s, n_trees, "tree", None);
    layer_row(
        &mut t,
        "predict.score",
        scored.score_s,
        row_trees,
        "row-tree",
        Some(scaling.predict),
    );
    let unattributed = rec.self_secs("pipeline") + rec.self_secs("setup");
    let _ = writeln!(
        t,
        "  check: trainer phases sum {phase_sum:.4} s of train wall {:.4} s \
         (core.layer_sum_share {:.4}); layer spans cover {:.4} of pipeline wall {wall_s:.4} s",
        run.train_s,
        phase_sum / run.train_s,
        1.0 - unattributed / wall_s
    );
    let _ = writeln!(
        t,
        "  trace.overhead_share {:.4} (traced {traced_ms:.3} ms/tree vs untraced {untraced_ms:.3})",
        (traced_ms - untraced_ms) / untraced_ms
    );
    let serve_secs = seconds * SERVE_SHARE;
    serve::run_traced(files, seed, serve_secs, &mut rec, &mut m, &mut outcomes, &mut t);
    (m, outcomes, t, rec)
}
