//! Self-test of the benchmark: seeded generators are byte-reproducible and
//! the exact work counts repeat across two runs of one seed. Runs on
//! scaled-down copies of the workloads:
//!
//!     cargo test --release --manifest-path perfbench/Cargo.toml

use harp_perfbench::gen::{ONEHOT_FIELDS, ONEHOT_LEVELS};
use harp_perfbench::openloop::run_step;
use harp_perfbench::pipeline::{train_once, work_counts};
use harp_perfbench::spans::Recorder;
use harp_perfbench::workloads::{self, generate, Files, Workload};
use std::path::PathBuf;

fn small(name: &str) -> Workload {
    Workload { rows: 3_000, trees: 4, ..workloads::find(name).expect("known workload") }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(p: &std::path::Path) -> Vec<u8> {
    std::fs::read(p).expect("generated file")
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    for name in ["dense-20k", "sparse-onehot"] {
        let w = small(name);
        let (a, b, c) = (
            scratch(&format!("{name}-a")),
            scratch(&format!("{name}-b")),
            scratch(&format!("{name}-c")),
        );
        generate(&w, 7, &a).unwrap();
        generate(&w, 7, &b).unwrap();
        generate(&w, 8, &c).unwrap();
        let (fa, fb, fc) = (Files::new(&w, &a), Files::new(&w, &b), Files::new(&w, &c));
        assert_eq!(read(&fa.train), read(&fb.train), "{name}: train file differs for one seed");
        assert_eq!(read(&fa.holdout), read(&fb.holdout), "{name}: holdout differs for one seed");
        assert_ne!(
            read(&fa.train),
            read(&fc.train),
            "{name}: another seed gave the same train file"
        );
        assert_ne!(
            read(&fa.holdout),
            read(&fc.holdout),
            "{name}: another seed gave the same holdout"
        );
    }
}

#[test]
fn onehot_inputs_have_the_declared_shape_and_bundle() {
    let w = small("sparse-onehot");
    let dir = scratch("onehot-shape");
    generate(&w, 3, &dir).unwrap();
    let files = Files::new(&w, &dir);
    let run = train_once(&mut Recorder::new(false), &w, &files, 1, false).unwrap();
    assert_eq!(run.prep.data.n_features(), ONEHOT_FIELDS * ONEHOT_LEVELS);
    let counts = work_counts(&run);
    assert!(counts.cols_bundled > 0, "the default layout must bundle the one-hot fields");
    // Present values take more than one value, so trees split.
    assert!(
        counts.leaves.iter().all(|&l| l > 1),
        "one-hot trees did not split: {:?}",
        counts.leaves
    );
}

#[test]
fn exact_counts_repeat_for_one_seed() {
    for name in ["dense-20k", "sparse-onehot"] {
        let w = small(name);
        let dir = scratch(&format!("counts-{name}"));
        generate(&w, 11, &dir).unwrap();
        let files = Files::new(&w, &dir);
        let first =
            work_counts(&train_once(&mut Recorder::new(false), &w, &files, 2, false).unwrap());
        let second =
            work_counts(&train_once(&mut Recorder::new(true), &w, &files, 2, true).unwrap());
        assert_eq!(first.rows, second.rows, "{name}: data.rows");
        assert_eq!(first.cells, second.cells, "{name}: core.cells");
        assert_eq!(first.boundaries, second.boundaries, "{name}: core.boundaries");
        assert_eq!(first.rows_routed, second.rows_routed, "{name}: core.rows_routed");
        assert_eq!(first.leaves, second.leaves, "{name}: leaves per tree");
        assert_eq!(first.storage_cols, second.storage_cols, "{name}: binning.storage_cols");
        assert_eq!(first.cols_bundled, second.cols_bundled, "{name}: binning.cols_bundled");
        assert!(first.cells > 0 && first.rows_routed > 0);
    }
}

#[test]
fn open_loop_sends_the_scheduled_count_and_scores_match() {
    // Sparse holdout rows are sent dense, absent entries as missing.
    for name in ["dense-20k", "sparse-onehot"] {
        let w = small(name);
        let dir = scratch(&format!("serve-{name}"));
        generate(&w, 5, &dir).unwrap();
        let files = Files::new(&w, &dir);
        train_once(&mut Recorder::new(false), &w, &files, 2, false).unwrap();
        let holdout = harp_data::io::read_path(&files.holdout).unwrap();
        let forest = harpgbdt::GbdtModel::load(&files.model).unwrap().compile();
        let (payloads, order) = harp_perfbench::serve::payloads(&forest, &holdout, 5);
        let mut handle = harp_serve::serve(forest, harp_serve::ServeConfig::default()).unwrap();
        let addr = handle.local_addr();
        let a = run_step(addr, &payloads, &order, 200.0, 0.25).unwrap();
        let b = run_step(addr, &payloads, &order, 200.0, 0.25).unwrap();
        handle.shutdown();
        handle.wait();
        assert_eq!(a.sent, 50, "{name}");
        assert_eq!(a.sent, b.sent, "{name}: requests sent");
        for s in [&a, &b] {
            assert_eq!(s.failed(), 0, "{name}: sheds/errors/wrong scores/timeouts: {s:?}");
            assert_eq!(s.latencies_ms.len() as u64, s.sent, "{name}");
        }
    }
}
