//! Seeded input generators. Every file a workload reads is written here
//! from `--seed`: the same seed gives byte-identical files.

use harp_data::{CsrMatrix, Dataset, DatasetKind, FeatureMatrix, SynthConfig};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Share of the generated rows written to the holdout file.
pub const HOLDOUT_FRACTION: f64 = 0.1;

/// One-hot layout of the sparse workload: fields × levels per field.
pub const ONEHOT_FIELDS: usize = 16;
pub const ONEHOT_LEVELS: usize = 24;
/// Chance that a field has a present level in a row.
const ONEHOT_PRESENT: f64 = 0.9;
/// Present values are drawn uniformly from `1..=ONEHOT_MAX_VALUE`.
const ONEHOT_MAX_VALUE: u64 = 8;

/// SplitMix64: a small, fully specified generator, so the sparse inputs do
/// not depend on any library's RNG stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// HIGGS-like dense rows from the repository's generator.
pub fn higgs_like(rows: usize, seed: u64) -> Dataset {
    let base = DatasetKind::HiggsLike.base_rows() as f64;
    let cfg = SynthConfig::new(DatasetKind::HiggsLike, seed).with_scale(rows as f64 / base);
    cfg.generate()
}

/// 16 categorical fields × 24 levels, one-hot encoded. Each field has at
/// most one present level (present in ~90% of rows); level frequencies are
/// skewed (weight ∝ 1/(24 − level), so the last level of every field is the
/// most common); present values are drawn from 1..=8; the label is logistic
/// in per-level weights times the value.
pub fn onehot(rows: usize, seed: u64) -> Dataset {
    let mut rng = SplitMix64::new(seed);
    let n_features = ONEHOT_FIELDS * ONEHOT_LEVELS;
    let weights: Vec<f64> = (0..n_features).map(|_| 3.0 * rng.next_f64() - 1.5).collect();
    let level_weight: Vec<f64> =
        (0..ONEHOT_LEVELS).map(|l| 1.0 / (ONEHOT_LEVELS - l) as f64).collect();
    let total: f64 = level_weight.iter().sum();
    let mut cdf = Vec::with_capacity(ONEHOT_LEVELS);
    let mut acc = 0.0;
    for w in &level_weight {
        acc += w / total;
        cdf.push(acc);
    }
    let mut csr_rows: Vec<Vec<(u32, f32)>> = Vec::with_capacity(rows);
    let mut logits = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut row = Vec::with_capacity(ONEHOT_FIELDS);
        let mut logit = 0.0;
        for field in 0..ONEHOT_FIELDS {
            if rng.next_f64() >= ONEHOT_PRESENT {
                continue;
            }
            let u = rng.next_f64();
            let level = cdf.iter().position(|&c| u < c).unwrap_or(ONEHOT_LEVELS - 1);
            let value = 1 + rng.below(ONEHOT_MAX_VALUE);
            let feature = field * ONEHOT_LEVELS + level;
            logit += weights[feature] * value as f64 / 4.5;
            row.push((feature as u32, value as f32));
        }
        logits.push(logit);
        csr_rows.push(row);
    }
    let mean = logits.iter().sum::<f64>() / rows.max(1) as f64;
    let labels = logits
        .iter()
        .map(|&z| {
            let p = 1.0 / (1.0 + (-(z - mean)).exp());
            if rng.next_f64() < p {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let matrix = FeatureMatrix::Sparse(CsrMatrix::from_rows(n_features, &csr_rows));
    Dataset::new("onehot", matrix, labels)
}

/// Splits `data` into train and holdout parts and writes them to
/// `train_path` / `holdout_path` in the format their extensions name
/// (`.csv` → CSV, otherwise LIBSVM).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_split(
    data: &Dataset,
    seed: u64,
    train_path: &Path,
    holdout_path: &Path,
) -> std::io::Result<()> {
    let (train, holdout) = data.split(HOLDOUT_FRACTION, seed);
    write_dataset(&train, train_path)?;
    write_dataset(&holdout, holdout_path)
}

fn write_dataset(data: &Dataset, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::with_capacity(1 << 20, std::fs::File::create(path)?);
    if path.extension().and_then(|e| e.to_str()) == Some("csv") {
        harp_data::io::write_csv(&mut w, data)?;
    } else {
        harp_data::io::write_libsvm(&mut w, data)?;
    }
    w.flush()
}
