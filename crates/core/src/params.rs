//! Algorithm parameters.
//!
//! The paper fixes its constants in Eq. (3) of Section 6:
//!
//! ```text
//! ε = (100 log n)^{-2}     discrepancy budget for almost-regular graphs
//! s = 10^6 · log n / ε²    concentration ("scaling") factor
//! Δ = 100 · s              base degree of the random batches
//! F = argmin_i { Δ^{2^i} ≥ n^{1/100} }   number of leader-election phases
//! ```
//!
//! together with expander degree `d = 100`, spectral-gap threshold `4/5`
//! (Corollary 4.4), randomized-graph degree `100 log n` and walk count
//! `50 log n` (Lemma 5.1).
//!
//! Those constants are tuned for the asymptotic analysis, not for running on
//! graphs with `10³–10⁶` vertices — with them, the "random batch" degree
//! `Δ·s` already exceeds `n` for any feasible `n`. [`Params::paper`] records
//! them faithfully; [`Params::laptop_scale`] keeps every *ratio* the proofs
//! rely on (leader probability `1/Δ_i`, batch degree `Δ_i·s`, phase count
//! `F = Θ(log log n)`, squaring schedule `Δ_{i+1} = Δ_i²`) while shrinking
//! the absolute constants so the algorithm runs comfortably on one machine.
//! DESIGN.md documents this substitution; every experiment states which
//! preset it uses.

use serde::{Deserialize, Serialize};

use crate::walks::WalkKernel;

/// Tunable constants of the full pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Memory exponent `δ`: machines have `≈ N^δ` words of memory.
    pub delta: f64,
    /// Degree `d` of the expander clouds used by the replacement product
    /// (paper: 100). Must be even.
    pub expander_degree: usize,
    /// Spectral-gap threshold a sampled cloud must reach (paper: 4/5).
    pub expander_min_gap: f64,
    /// Power-iteration count used when verifying cloud expanders.
    pub expander_gap_iters: usize,
    /// Attempts allowed when rejection-sampling a cloud expander.
    pub expander_max_attempts: usize,
    /// Multiplier `c` in the walk length `T = c · ln(n/γ) / λ`
    /// (Proposition 2.2; paper treats `c` as an absolute constant).
    pub mixing_time_constant: f64,
    /// The total-variation target `γ` of the randomization step, expressed as
    /// `γ = n^{-gamma_exponent}` (paper: `γ* = n^{-10}`).
    pub gamma_exponent: f64,
    /// Concentration factor `s`, expressed as a multiple of `ln n`
    /// (paper: `10⁶ · log n / ε²`, i.e. an enormous multiple; laptop preset
    /// uses a small constant).
    pub s_log_multiplier: f64,
    /// Base degree `Δ` of the leader-election schedule: phase `i` works at
    /// degree `Δ_i = Δ^{2^{i-1}}` (paper: `Δ = 100·s`).
    pub base_degree: usize,
    /// Stop growing once `Δ_F ≥ n^{stop_exponent}` and switch to the exact
    /// endgame on the O(1)-diameter contraction (paper: 1/100).
    pub stop_exponent: f64,
    /// Hard cap on the number of leader-election phases.
    pub max_phases: usize,
    /// When `true`, the randomization step runs the faithful layered-graph
    /// data structure of Theorem 3 (with independence detection); when
    /// `false` it simulates each walk directly, which produces exactly the
    /// same product distribution and is what the pipeline uses at scale.
    pub faithful_walks: bool,
    /// Copies per layer in the faithful layered graph, as a multiple of the
    /// walk length `t` (paper: 2, i.e. `2t` copies).
    pub layer_copies_multiplier: usize,
    /// Upper cap on the walk length `T` used by the randomization step. The
    /// paper needs no cap (its `T` is `polylog(n)` by assumption on `λ`);
    /// the cap keeps the direct simulation affordable when a caller passes a
    /// tiny `λ`, and correctness is unaffected because the pipeline's endgame
    /// is exact regardless of mixing.
    pub max_walk_length: usize,
    /// Worker threads of the execution backend (forwarded to
    /// [`MpcConfig::threads`](wcc_mpc::MpcConfig::threads) when the pipeline
    /// sizes its own cluster): `1` = sequential, `n > 1` = the persistent
    /// worker pool, `0` = resolve from the `WCC_THREADS` environment
    /// variable (whose own `0` means one worker per available CPU). Results
    /// are bit-identical for every value — see DESIGN.md, "The executor
    /// seam" and "The persistent pool".
    pub threads: usize,
    /// Which batched walk kernel simulates the Direct randomization fan-out
    /// (overridable at run time via `WCC_WALK_KERNEL`). Kernels realise the
    /// same walk distribution but consume per-vertex keystreams differently,
    /// so fixed-seed outputs are pinned per kernel — see DESIGN.md §10.
    pub walk_kernel: WalkKernel,
}

impl Params {
    /// The constants exactly as printed in the paper (Eq. (3), Section 4–5).
    ///
    /// These are intended for resource *accounting* and for asymptotic
    /// discussion; instantiating the algorithm with them on a laptop-sized
    /// graph would build random batches denser than the complete graph.
    pub fn paper(n: usize) -> Self {
        let ln_n = (n.max(2) as f64).ln();
        let eps = (100.0 * ln_n).powi(-2);
        let s = 1e6 * ln_n / (eps * eps);
        Params {
            delta: 0.3,
            expander_degree: 100,
            expander_min_gap: 0.8,
            expander_gap_iters: 200,
            expander_max_attempts: 50,
            mixing_time_constant: 1.0,
            gamma_exponent: 10.0,
            s_log_multiplier: s / ln_n,
            base_degree: (100.0 * s) as usize,
            stop_exponent: 1.0 / 100.0,
            max_phases: 64,
            faithful_walks: false,
            layer_copies_multiplier: 2,
            max_walk_length: 1 << 20,
            threads: 0,
            walk_kernel: WalkKernel::V3,
        }
    }

    /// Laptop-scale preset: same structure, small constants.
    pub fn laptop_scale() -> Self {
        Params {
            delta: 0.5,
            expander_degree: 8,
            expander_min_gap: 0.3,
            expander_gap_iters: 120,
            expander_max_attempts: 60,
            mixing_time_constant: 2.0,
            gamma_exponent: 2.0,
            s_log_multiplier: 1.5,
            base_degree: 4,
            stop_exponent: 0.25,
            max_phases: 8,
            faithful_walks: false,
            layer_copies_multiplier: 2,
            max_walk_length: 4096,
            threads: 0,
            walk_kernel: WalkKernel::V3,
        }
    }

    /// A smaller/faster preset used by unit tests.
    pub fn test_scale() -> Self {
        Params {
            expander_gap_iters: 60,
            mixing_time_constant: 1.5,
            max_walk_length: 1024,
            ..Params::laptop_scale()
        }
    }

    /// Returns a copy using the given number of worker threads (`1` =
    /// sequential backend, `0` = resolve from `WCC_THREADS`, whose own `0`
    /// means one worker per available CPU).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy using the given walk kernel (still subject to the
    /// `WCC_WALK_KERNEL` environment override at run time).
    pub fn with_walk_kernel(mut self, kernel: WalkKernel) -> Self {
        self.walk_kernel = kernel;
        self
    }

    /// The concentration factor `s` for an `n`-vertex instance: at least 2.
    pub fn s_factor(&self, n: usize) -> usize {
        ((self.s_log_multiplier * (n.max(3) as f64).ln()).ceil() as usize).max(2)
    }

    /// Per-batch random-graph degree `Δ·s` (always even).
    pub fn batch_degree(&self, n: usize) -> usize {
        let d = self.base_degree.max(2) * self.s_factor(n);
        if d.is_multiple_of(2) {
            d
        } else {
            d + 1
        }
    }

    /// The leader-election degree schedule `Δ_1, Δ_2, …, Δ_F` with
    /// `Δ_i = Δ^{2^{i-1}}`, truncated at `n^{stop_exponent}` (and by
    /// `max_phases`). This is `F = O(log log n)` long.
    pub fn degree_schedule(&self, n: usize) -> Vec<u64> {
        let stop = (n.max(4) as f64).powf(self.stop_exponent).max(2.0);
        let base = self.base_degree.max(2) as f64;
        let mut schedule = Vec::new();
        let mut exponent = 1.0f64;
        for _ in 0..self.max_phases {
            let delta_i = base.powf(exponent);
            schedule.push(delta_i.min(u64::MAX as f64 / 4.0) as u64);
            if delta_i >= stop {
                break;
            }
            exponent *= 2.0;
        }
        schedule
    }

    /// The number of phases `F` of the degree schedule.
    pub fn num_phases(&self, n: usize) -> usize {
        self.degree_schedule(n).len()
    }

    /// Target total-variation distance `γ = n^{-gamma_exponent}` of the
    /// randomization step.
    pub fn gamma(&self, n: usize) -> f64 {
        (n.max(2) as f64).powf(-self.gamma_exponent)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.expander_degree.is_multiple_of(2) || self.expander_degree < 2 {
            return Err(format!(
                "expander_degree must be even and >= 2, got {}",
                self.expander_degree
            ));
        }
        if !(0.0 < self.delta && self.delta < 1.0) {
            return Err(format!("delta must be in (0,1), got {}", self.delta));
        }
        if self.base_degree < 2 {
            return Err(format!(
                "base_degree must be >= 2, got {}",
                self.base_degree
            ));
        }
        if !(self.stop_exponent > 0.0 && self.stop_exponent <= 1.0) {
            return Err(format!(
                "stop_exponent must be in (0,1], got {}",
                self.stop_exponent
            ));
        }
        if self.s_log_multiplier <= 0.0 {
            return Err("s_log_multiplier must be positive".to_string());
        }
        if self.max_phases == 0 {
            return Err("max_phases must be at least 1".to_string());
        }
        Ok(())
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::laptop_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(Params::laptop_scale().validate().is_ok());
        assert!(Params::test_scale().validate().is_ok());
        assert!(Params::paper(1_000_000).validate().is_ok());
    }

    #[test]
    fn degree_schedule_squares_until_threshold() {
        let p = Params::laptop_scale();
        let schedule = p.degree_schedule(100_000);
        assert!(schedule.len() >= 2);
        for w in schedule.windows(2) {
            assert_eq!(w[1], w[0] * w[0], "schedule must square: {schedule:?}");
        }
        let stop = (100_000f64).powf(p.stop_exponent);
        assert!(*schedule.last().unwrap() as f64 >= stop);
        // F is tiny — the whole point of the paper.
        assert!(schedule.len() <= 6);
    }

    #[test]
    fn phase_count_grows_like_log_log_n() {
        let p = Params::laptop_scale();
        let f_small = p.num_phases(1 << 10);
        let f_large = p.num_phases(1 << 20);
        assert!(f_large >= f_small);
        assert!(
            f_large <= f_small + 2,
            "F should barely grow: {f_small} -> {f_large}"
        );
    }

    #[test]
    fn batch_degree_is_even_and_scales_with_log_n() {
        let p = Params::laptop_scale();
        assert_eq!(p.batch_degree(1000) % 2, 0);
        assert!(p.batch_degree(1_000_000) >= p.batch_degree(1000));
    }

    #[test]
    fn paper_preset_records_the_published_constants() {
        let p = Params::paper(1000);
        assert_eq!(p.expander_degree, 100);
        assert!((p.stop_exponent - 0.01).abs() < 1e-12);
        assert!(p.base_degree > 1_000_000); // Δ = 100·s is astronomically large.
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut p = Params::laptop_scale();
        p.expander_degree = 7;
        assert!(p.validate().is_err());
        let mut q = Params::laptop_scale();
        q.delta = 1.5;
        assert!(q.validate().is_err());
        let mut r = Params::laptop_scale();
        r.stop_exponent = 0.0;
        assert!(r.validate().is_err());
    }

    #[test]
    fn gamma_shrinks_polynomially() {
        let p = Params::laptop_scale();
        assert!(p.gamma(100) > p.gamma(10_000));
        assert!(p.gamma(10_000) > 0.0);
    }
}
