//! Open-loop load generation over one pipelined protocol connection: a
//! sender thread writes each request at its due time whatever the replies
//! are doing, and a receiver matches replies by correlation id. Latency is
//! timed from each request's due time, so a stall also delays (and is
//! charged to) every request due during it.

use harp_serve::{ErrorCode, Frame, RowsPayload};
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a step waits for outstanding replies after its last send.
const DRAIN: Duration = Duration::from_secs(2);
/// Latency quantiles are taken per window of at least this many requests,
/// so a p99 has at least ten samples beyond it.
const WINDOW: usize = 1000;
const MAX_WINDOWS: usize = 16;

/// One request body and the scores a local `FlatForest::predict_raw`
/// gives for it.
pub struct Payload {
    pub n_cols: u32,
    pub values: Vec<f32>,
    pub expected_bits: Vec<u32>,
}

/// What one fixed-rate step measured.
#[derive(Debug, Default, Clone)]
pub struct StepResult {
    pub rate: f64,
    pub sent: u64,
    /// `(request index, ms from its due time)` of each request answered
    /// with correct scores, in due order.
    pub latencies_ms: Vec<(u64, f64)>,
    pub sheds: u64,
    pub errors: u64,
    pub wrong: u64,
    pub timeouts: u64,
    pub late_max_ms: f64,
    pub backlog_grew: bool,
    /// Correct replies per second over the step.
    pub achieved_rps: f64,
}

impl StepResult {
    pub fn failed(&self) -> u64 {
        self.sheds + self.errors + self.wrong + self.timeouts
    }

    /// Quantile `q` of the latencies: the median, over consecutive windows
    /// of at least `WINDOW` requests in due order, of each window's
    /// nearest-rank quantile. One host stall then moves one window, while a
    /// sustained overload moves them all. A step shorter than two windows
    /// is one window.
    pub fn p(&self, q: f64) -> f64 {
        let n = self.latencies_ms.len();
        let windows = (n / WINDOW).clamp(1, MAX_WINDOWS);
        let per = n / windows;
        let mut by_window = Vec::with_capacity(windows);
        for w in 0..windows {
            let end = if w + 1 == windows { n } else { (w + 1) * per };
            let lat: Vec<f64> = self.latencies_ms[w * per..end].iter().map(|&(_, ms)| ms).collect();
            by_window.push(crate::report::quantile(&lat, q));
        }
        crate::report::median(&by_window)
    }

    /// Meets `slo_ms` at p99 with nothing failed and no growing backlog.
    pub fn meets(&self, slo_ms: f64) -> bool {
        self.failed() == 0 && !self.backlog_grew && self.p(0.99) <= slo_ms
    }
}

/// Sends `rate × secs` requests at fixed spacing over a fresh connection,
/// request `i` carrying `payloads[order[i % order.len()]]`.
///
/// # Errors
/// Connection failures.
pub fn run_step(
    addr: SocketAddr,
    payloads: &[Payload],
    order: &[usize],
    rate: f64,
    secs: f64,
) -> std::io::Result<StepResult> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let reader = stream.try_clone()?;
    let n = (rate * secs).floor().max(1.0) as u64;
    let period_ns = 1e9 / rate;
    let received = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: u64| start + Duration::from_nanos((i as f64 * period_ns) as u64);

    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut result = std::thread::scope(|s| {
        let received = &received;
        let receiver = s.spawn(move || {
            let mut r = StepResult { rate, sent: n, ..StepResult::default() };
            let mut reader = BufReader::with_capacity(1 << 16, reader);
            let mut seen = vec![false; n as usize];
            let mut last = start;
            while received.load(Ordering::Relaxed) < n {
                let frame = match harp_serve::protocol::read_frame(&mut reader, u32::MAX) {
                    Ok(Some(f)) => f,
                    _ => break,
                };
                let now = Instant::now();
                let corr = u64::from(frame.corr());
                let Some(i) = corr.checked_sub(1).filter(|&i| i < n && !seen[i as usize]) else {
                    r.errors += 1;
                    continue;
                };
                seen[i as usize] = true;
                received.fetch_add(1, Ordering::Relaxed);
                match frame {
                    Frame::Scores { scores, .. } => {
                        let p = &payloads[order[i as usize % order.len()]];
                        if scores.iter().map(|x| x.to_bits()).eq(p.expected_bits.iter().copied()) {
                            r.latencies_ms.push((i, (now - due(i)).as_secs_f64() * 1e3));
                            last = now;
                        } else {
                            r.wrong += 1;
                        }
                    }
                    Frame::Error { code: ErrorCode::Overloaded, .. } => r.sheds += 1,
                    _ => r.errors += 1,
                }
            }
            r.latencies_ms.sort_by_key(|&(i, _)| i);
            let span = (last - start).as_secs_f64().max(1e-9);
            r.achieved_rps = r.latencies_ms.len() as f64 / span;
            let _ = done_tx.send(());
            r
        });

        // Sender: this thread. Outstanding requests are sampled at each send
        // to tell a bounded queue from a growing one.
        let mut late_max = Duration::ZERO;
        let mut outstanding = Vec::with_capacity(n as usize);
        for i in 0..n {
            let d = due(i);
            let now = Instant::now();
            if d > now {
                std::thread::sleep(d - now);
            } else {
                late_max = late_max.max(now - d);
            }
            outstanding.push(i.saturating_sub(received.load(Ordering::Relaxed)) as f64);
            let p = &payloads[order[i as usize % order.len()]];
            let frame = Frame::Score {
                corr: (i + 1) as u32,
                rows: RowsPayload::Dense { n_cols: p.n_cols, values: p.values.clone() },
            };
            if harp_serve::protocol::write_frame(&mut writer, &frame).is_err() {
                break;
            }
        }
        if done_rx.recv_timeout(DRAIN).is_err() {
            // Unblocks the receiver; whatever is still unanswered times out.
            let _ = stream.shutdown(Shutdown::Both);
        }
        let mut r = receiver.join().expect("receiver thread panicked");
        r.late_max_ms = late_max.as_secs_f64() * 1e3;
        r.backlog_grew = backlog_grew(&outstanding, rate);
        r
    });
    result.timeouts = n - received.load(Ordering::Relaxed).min(n);
    Ok(result)
}

/// A backlog grows when the mean outstanding count over the last quarter
/// of the sends exceeds that over the second quarter by more than 2 ms
/// worth of arrivals (and at least 4 requests).
pub fn backlog_grew(outstanding: &[f64], rate: f64) -> bool {
    let n = outstanding.len();
    if n < 8 {
        return false;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let early = mean(&outstanding[n / 4..n / 2]);
    let late = mean(&outstanding[3 * n / 4..]);
    late - early > (0.002 * rate).max(4.0)
}
