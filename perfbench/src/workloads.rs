//! The three workloads, their inputs on disk, and the training
//! configuration they share.

use crate::gen;
use harpgbdt::{GrowthMethod, ParallelMode, TrainParams};
use std::path::{Path, PathBuf};

/// One benchmark workload. Every workload runs the whole path a user
/// runs: train the model, score the holdout with it, then serve it
/// open-loop at a low and a high rate. The workloads differ in their input
/// and in where their time goes.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Rows generated (train + holdout).
    pub rows: usize,
    /// Boosting rounds.
    pub trees: usize,
    /// LIBSVM one-hot input instead of HIGGS-like CSV.
    pub sparse: bool,
    /// Quality guard: the holdout log-loss must stay under this.
    pub logloss_ceiling: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload { name: "dense-20k", rows: 20_000, trees: 100, sparse: false, logloss_ceiling: 0.66 },
    Workload { name: "dense-400k", rows: 400_000, trees: 20, sparse: false, logloss_ceiling: 0.66 },
    Workload {
        name: "sparse-onehot",
        rows: 200_000,
        trees: 40,
        sparse: true,
        logloss_ceiling: 0.62,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Where a workload's inputs and outputs live inside its work directory.
pub struct Files {
    pub train: PathBuf,
    pub holdout: PathBuf,
    /// The trained model: every train pass writes it, serving loads it.
    pub model: PathBuf,
}

impl Files {
    pub fn new(w: &Workload, dir: &Path) -> Self {
        let ext = if w.sparse { "svm" } else { "csv" };
        Self {
            train: dir.join(format!("train.{ext}")),
            holdout: dir.join(format!("holdout.{ext}")),
            model: dir.join("model.json"),
        }
    }
}

/// Every workload trains leafwise, 256 leaves, TopK 32, `gamma 0`, DP.
pub fn train_params(w: &Workload, threads: usize) -> TrainParams {
    TrainParams {
        n_trees: w.trees,
        tree_size: 8,
        growth: GrowthMethod::Leafwise,
        k: 32,
        gamma: 0.0,
        mode: ParallelMode::DataParallel,
        n_threads: threads,
        ..TrainParams::default()
    }
}

/// Training threads: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Writes the workload's input files for `seed` into `dir`.
///
/// # Errors
/// I/O failures.
pub fn generate(w: &Workload, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let files = Files::new(w, dir);
    let data = if w.sparse { gen::onehot(w.rows, seed) } else { gen::higgs_like(w.rows, seed) };
    gen::write_split(&data, seed, &files.train, &files.holdout)
        .map_err(|e| format!("write inputs: {e}"))
}
