//! Server counters, latency histograms, and phase accounting.
//!
//! Every counter is a relaxed atomic bumped on the hot path; a
//! [`StatsSnapshot`] is a consistent-enough point-in-time read used for
//! the `Stats` protocol reply, the shutdown summary, the `/metrics`
//! exposition, and the serve [`RunLedger`](harp_metrics::RunLedger)
//! epochs. Phase times mirror the trainer's breakdown discipline:
//! `queue_wait` (admission to dispatch), `assemble` (batch → matrix),
//! `predict` (forest traversal), and `write` (response serialization +
//! socket write) partition a request's server-side life. Each phase is
//! recorded into an [`AtomicHistogram`] only: its `sum` is the phase total
//! (the snapshot's `*_secs`) and its buckets give the tails (p99/p999);
//! `end_to_end` spans admission to scored reply.

use harp_metrics::{
    AtomicHistogram, HistogramSnapshot, LatencySet, LedgerRecord, PlanStats, RunLedger,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares the serve counters once, each with its Prometheus help text
/// (which doubles as the field doc). The macro generates the
/// [`ServeStats`] atomics, the [`StatsSnapshot`] fields, and
/// [`StatsSnapshot::counters`], which the ledger records and
/// `/metrics` exposition iterate — so every output lists the counters
/// under the same names, in row order.
macro_rules! serve_counters {
    ($($name:ident => $help:literal,)+) => {
        /// Number of serve counters.
        const N_COUNTERS: usize = [$(stringify!($name)),+].len();

        /// Hot-path counters and latency histograms for one server instance.
        #[derive(Debug, Default)]
        pub struct ServeStats {
            $(#[doc = $help] pub $name: AtomicU64,)+
            /// Jobs currently queued for dispatch (gauge: admitted −
            /// dispatched).
            pub queue_depth: AtomicU64,
            /// Admission → scored-reply latency distribution, per request.
            pub e2e_hist: AtomicHistogram,
            /// Queue-wait latency distribution, per request.
            pub queue_wait_hist: AtomicHistogram,
            /// Batch-assembly latency distribution, per batch.
            pub assemble_hist: AtomicHistogram,
            /// Predict latency distribution, per batch.
            pub predict_hist: AtomicHistogram,
            /// Response-write latency distribution, per reply.
            pub write_hist: AtomicHistogram,
        }

        /// A point-in-time read of [`ServeStats`].
        #[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
        pub struct StatsSnapshot {
            $(#[doc = $help] pub $name: u64,)+
            /// Generation of the forest being served.
            pub generation: u64,
            /// Feature count of the forest being served.
            pub n_features: u64,
            /// Score groups per row of the forest being served.
            pub n_groups: u64,
            /// Queue-wait seconds (sum over requests).
            pub queue_wait_secs: f64,
            /// Batch-assembly seconds.
            pub assemble_secs: f64,
            /// Predict seconds.
            pub predict_secs: f64,
            /// Response-write seconds.
            pub write_secs: f64,
            /// Seconds since the server started (distinguishes a fresh
            /// process from a long-lived one whose counters may have
            /// wrapped). Absent in pre-histogram snapshots;
            /// `Option::missing` keeps them parsing.
            pub uptime_secs: Option<f64>,
            /// Jobs queued for dispatch at snapshot time.
            pub queue_depth: Option<u64>,
            /// Latency histograms in [`PHASE_HIST_NAMES`] order; empty when
            /// the snapshot predates histogram recording.
            pub latency: LatencySet,
        }

        impl StatsSnapshot {
            /// `(name, help, value)` for every counter, in declaration
            /// order.
            pub(crate) fn counters(&self) -> [(&'static str, &'static str, u64); N_COUNTERS] {
                [$((stringify!($name), $help, self.$name)),+]
            }
        }

        impl ServeStats {
            /// Snapshot with the served forest's generation and shape
            /// stamped in. Phase seconds are the histogram sums.
            pub fn snapshot(
                &self,
                generation: u64,
                n_features: u64,
                n_groups: u64,
                uptime_secs: f64,
            ) -> StatsSnapshot {
                let latency = LatencySet(
                    PHASE_HIST_NAMES
                        .iter()
                        .zip([
                            &self.e2e_hist,
                            &self.queue_wait_hist,
                            &self.assemble_hist,
                            &self.predict_hist,
                            &self.write_hist,
                        ])
                        .map(|(name, h)| ((*name).to_string(), h.snapshot()))
                        .collect(),
                );
                let secs = |phase| latency.get(phase).map_or(0.0, |h| h.sum() as f64 / 1e9);
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                    generation,
                    n_features,
                    n_groups,
                    queue_wait_secs: secs("queue_wait"),
                    assemble_secs: secs("assemble"),
                    predict_secs: secs("predict"),
                    write_secs: secs("write"),
                    uptime_secs: Some(uptime_secs),
                    queue_depth: Some(self.queue_depth.load(Ordering::Relaxed)),
                    latency,
                }
            }
        }
    };
}

serve_counters! {
    requests => "Score requests admitted.",
    rows => "Rows admitted in Score requests.",
    batches => "Micro-batches dispatched.",
    sheds => "Requests shed by admission control.",
    protocol_errors => "Protocol errors answered.",
    swaps => "Model hot-swaps installed.",
    connections => "Connections accepted.",
}

/// Histogram names as they appear in [`StatsSnapshot::latency`],
/// `/metrics` labels, ledger metrics, and `--slo` specs.
pub const PHASE_HIST_NAMES: [&str; 5] =
    ["end_to_end", "queue_wait", "assemble", "predict", "write"];

impl ServeStats {
    /// Bumps a count by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Renders as one [`LedgerRecord`] for the serve ledger: the epoch
    /// index plays the role of the boosting round, phase seconds carry the
    /// serve phases, counters carry the deltas since the previous epoch,
    /// latency histograms carry per-epoch bucket deltas; tree-shape fields
    /// are zeroed (no trees are grown while serving).
    ///
    /// All deltas saturate at zero: the component loads are relaxed and
    /// can tear across a concurrent epoch boundary, so `prev` may be
    /// momentarily ahead of `self` on individual counters.
    pub fn to_ledger_record(
        &self,
        epoch: u64,
        elapsed_secs: f64,
        prev: &StatsSnapshot,
    ) -> LedgerRecord {
        let latency = LatencySet(
            self.latency
                .0
                .iter()
                .map(|(name, hist)| {
                    let prev_hist = prev.latency.get(name).cloned().unwrap_or_default();
                    (name.clone(), hist.delta_since(&prev_hist))
                })
                .collect(),
        );
        LedgerRecord {
            round: epoch,
            elapsed_secs,
            round_secs: 0.0,
            phase_secs: vec![
                ("queue_wait".into(), (self.queue_wait_secs - prev.queue_wait_secs).max(0.0)),
                ("assemble".into(), (self.assemble_secs - prev.assemble_secs).max(0.0)),
                ("predict".into(), (self.predict_secs - prev.predict_secs).max(0.0)),
                ("write".into(), (self.write_secs - prev.write_secs).max(0.0)),
            ],
            counters: self
                .counters()
                .into_iter()
                .zip(prev.counters())
                .map(|((name, _, now), (_, _, before))| (name.into(), now.saturating_sub(before)))
                .collect(),
            eval_metric: None,
            n_leaves: 0,
            max_depth: 0,
            mean_k_per_pop: 0.0,
            mem: Vec::new(),
            skew: Vec::new(),
            plan: PlanStats::default(),
            latency,
        }
    }

    /// The merged latency histograms as `(name, histogram)` pairs — the
    /// shape [`harp_metrics::evaluate_slo`] consumes.
    pub fn latency_hists(&self) -> &[(String, HistogramSnapshot)] {
        &self.latency.0
    }
}

/// Accumulates serve epochs into a [`RunLedger`].
#[derive(Debug, Default)]
pub struct ServeLedger {
    ledger: RunLedger,
    prev: StatsSnapshot,
    epoch: u64,
}

impl ServeLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Closes an epoch: records the delta between `snap` and the previous
    /// epoch's snapshot.
    pub fn record_epoch(&mut self, snap: StatsSnapshot, elapsed_secs: f64) {
        self.epoch += 1;
        self.ledger.push(snap.to_ledger_record(self.epoch, elapsed_secs, &self.prev));
        self.prev = snap;
    }

    /// The accumulated ledger.
    pub fn ledger(&self) -> &RunLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_ledger_deltas() {
        let s = ServeStats::default();
        ServeStats::bump(&s.requests);
        ServeStats::bump(&s.requests);
        s.rows.fetch_add(128, Ordering::Relaxed);
        s.predict_hist.record(2_000_000_000);
        let snap = s.snapshot(3, 28, 1, 1.5);
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.rows, 128);
        assert_eq!(snap.generation, 3);
        assert_eq!(snap.n_features, 28);
        assert!((snap.predict_secs - 2.0).abs() < 1e-9);
        assert_eq!(snap.uptime_secs, Some(1.5));
        assert_eq!(snap.queue_depth, Some(0));
        assert_eq!(snap.latency.0.len(), PHASE_HIST_NAMES.len());
        let predict = snap.latency.get("predict").unwrap();
        assert_eq!(predict.count(), 1);
        assert!(predict.quantile(0.99) >= 2_000_000_000);

        let mut ledger = ServeLedger::new();
        ledger.record_epoch(snap.clone(), 1.0);
        ServeStats::bump(&s.requests);
        s.predict_hist.record(1_000_000);
        ledger.record_epoch(s.snapshot(3, 28, 1, 2.5), 2.0);
        let records = ledger.ledger().records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].counters[0], ("requests".into(), 2));
        assert_eq!(records[1].counters[0], ("requests".into(), 1));
        assert_eq!(records[1].round, 2);
        // Epoch histograms are deltas: epoch 2 sees only the 1ms sample.
        let epoch2 = records[1].latency.get("predict").unwrap();
        assert_eq!(epoch2.count(), 1);
        assert!(epoch2.quantile(0.5) < 2_000_000);
        // The epoch's predict seconds are the histogram-sum delta.
        let (name, predict_secs) = &records[1].phase_secs[2];
        assert_eq!(name, "predict");
        assert!((predict_secs - 1e-3).abs() < 1e-12);
        // JSONL round-trip keeps the serve phases and histograms.
        let text = ledger.ledger().to_jsonl();
        let back = RunLedger::from_jsonl(&text).unwrap();
        assert_eq!(back.records(), ledger.ledger().records());
    }

    #[test]
    fn ledger_record_saturates_when_prev_snapshot_reads_ahead() {
        // Relaxed loads can tear across an epoch boundary, leaving `prev`
        // momentarily ahead of `self` on individual counters; the deltas
        // must clamp to zero instead of wrapping to ~u64::MAX.
        let prev =
            StatsSnapshot { requests: 10, rows: 1000, queue_wait_secs: 0.5, ..Default::default() };
        let cur = StatsSnapshot { requests: 9, rows: 1001, ..Default::default() };
        let rec = cur.to_ledger_record(1, 1.0, &prev);
        assert_eq!(rec.counters[0], ("requests".into(), 0), "torn counter must saturate");
        assert_eq!(rec.counters[1], ("rows".into(), 1));
        let (name, qw) = &rec.phase_secs[0];
        assert_eq!(name, "queue_wait");
        assert_eq!(*qw, 0.0, "torn phase seconds must clamp at zero");
    }

    #[test]
    fn every_counter_is_declared_once() {
        // Give each counter a distinct value and each phase a distinct
        // total, then check every output carries them under one name.
        let s = ServeStats::default();
        for (i, counter) in [
            &s.requests,
            &s.rows,
            &s.batches,
            &s.sheds,
            &s.protocol_errors,
            &s.swaps,
            &s.connections,
        ]
        .into_iter()
        .enumerate()
        {
            counter.fetch_add(i as u64 + 1, Ordering::Relaxed);
        }
        s.queue_wait_hist.record(1_000);
        s.assemble_hist.record(20_000);
        s.assemble_hist.record(30_000);
        s.predict_hist.record(400_000);
        s.write_hist.record(5_000_000);
        let snap = s.snapshot(1, 28, 1, 1.0);
        let counters = snap.counters();
        assert_eq!(counters.len(), N_COUNTERS);
        assert_eq!(counters.len(), 7);

        let prom = crate::render_prometheus(&snap);
        let record = snap.to_ledger_record(1, 1.0, &StatsSnapshot::default());
        let json = serde_json::to_string(&snap).unwrap();
        for (i, (name, help, value)) in counters.into_iter().enumerate() {
            assert_eq!(value, i as u64 + 1, "{name} reads another counter");
            let family = format!("harp_serve_{name}_total");
            assert!(prom.contains(&format!("# HELP {family} {help}\n")), "{family} HELP");
            assert!(prom.contains(&format!("# TYPE {family} counter\n")), "{family} TYPE");
            assert!(prom.contains(&format!("\n{family} {value}\n")), "{family} value");
            assert_eq!(record.counters[i], (name.to_string(), value), "ledger column {i}");
            assert!(json.contains(&format!("\"{name}\":{value}")), "{name} missing from JSON");
        }
        assert_eq!(record.counters.len(), N_COUNTERS);

        for (phase, secs) in [
            ("queue_wait", snap.queue_wait_secs),
            ("assemble", snap.assemble_secs),
            ("predict", snap.predict_secs),
            ("write", snap.write_secs),
        ] {
            let sum = snap.latency.get(phase).unwrap().sum();
            assert!(sum > 0, "{phase} recorded nothing");
            assert_eq!(secs, sum as f64 / 1e9, "{phase}_secs is not its histogram sum");
        }
    }
}
