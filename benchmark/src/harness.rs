//! What every workload shares: the run configuration, the result of a run,
//! the repetition loop and the process-level readings.

use std::time::Instant;

use crate::metrics::Metrics;
use crate::stats::median;

/// One invocation: a workload, its seed, how long to measure and whether
/// this is the traced run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1/10-scale inputs, for the smoke test.
    pub quick: bool,
    /// Test hook: corrupt the ground truth so verification must fail.
    pub corrupt_truth: bool,
}

impl Config {
    /// Divides a full-scale size by 10 under `--quick`.
    pub fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }

    /// A seed for one purpose (`stream` distinguishes graph generation from
    /// the op schedule, the query mix, …), so purposes do not share draws.
    pub fn seed_for(&self, stream: u64) -> u64 {
        wcc_mpc::derive_stream_seed(self.seed, stream)
    }
}

/// What a run hands back to `main`: how many outputs were checked, how many
/// were wrong, and the metric values.
#[derive(Debug)]
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Metrics,
}

/// Counts checked outputs and wrong ones.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Compares two equally long label vectors position by position.
    pub fn record_labels(&mut self, got: &[usize], truth: &[usize]) {
        assert_eq!(got.len(), truth.len(), "label vectors differ in length");
        self.attempted += got.len() as u64;
        self.failed += got.iter().zip(truth).filter(|(a, b)| a != b).count() as u64;
    }
}

/// Shortest time set-up is repeated for, however cheap one set-up is.
const SETUP_SECONDS: f64 = 0.5;

/// Runs `setup` at least three times and for at least [`SETUP_SECONDS`],
/// returning the last product and the median set-up time in seconds. A single
/// reading is too noisy to gate on, and where one set-up takes a millisecond
/// even the median of a hundred, all taken in the process's first 50 ms,
/// moves by a third between identical runs.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let began = Instant::now();
    let mut walls = Vec::new();
    let mut product = None;
    while walls.len() < 3 || began.elapsed().as_secs_f64() < SETUP_SECONDS {
        let started = Instant::now();
        product = Some(std::hint::black_box(setup()));
        walls.push(started.elapsed().as_secs_f64());
    }
    (product.expect("set-up runs at least once"), median(&walls))
}

/// Calls `rep` until `seconds` have passed, and at least `min_reps` times, so
/// a slow host still yields enough repetitions. Stops at the first error.
///
/// # Errors
///
/// The first error `rep` returns.
pub fn repeat_for(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut done = 0;
    while done < min_reps || started.elapsed().as_secs_f64() < seconds {
        rep()?;
        done += 1;
    }
    Ok(())
}

/// This process's peak resident set (`VmHWM`) in MiB. The workload is the
/// only thing this process ran, so the reading is per workload.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
