//! Round/memory accounting: the quantities the paper's theorems bound.
//!
//! Accounting is strictly single-threaded: parallel workers never touch an
//! [`MpcContext`]. Every charge and every load check happens on the calling
//! thread after the fan-in, in machine order — so the recorded statistics
//! (and any strict-mode memory error) are bit-identical no matter which
//! backend ran the work or how many threads it used.

use crate::config::{MpcConfig, MpcError};
use crate::executor::Executor;

use serde::{Deserialize, Serialize};

/// Resource usage of one named phase of an algorithm (e.g. "regularize",
/// "randomize", "grow-components").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Phase name.
    pub name: String,
    /// MPC rounds charged during the phase.
    pub rounds: u64,
    /// Words of cross-machine communication charged during the phase.
    pub communication_words: u64,
    /// Wall-clock time spent inside the phase, in milliseconds (the
    /// simulator's practical cost, *not* a model quantity). **Excluded from
    /// equality**: `PhaseStats` / `RoundStats` comparisons cover only the
    /// model-level fields, so the cross-backend determinism contract
    /// ("bit-identical stats for every thread count") is unaffected by
    /// timing jitter.
    pub wall_time_ms: f64,
}

impl PartialEq for PhaseStats {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.rounds == other.rounds
            && self.communication_words == other.communication_words
    }
}

// Equality is total over the compared (non-timing) fields.
impl Eq for PhaseStats {}

/// Aggregate resource usage of an algorithm run on the simulated cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RoundStats {
    total_rounds: u64,
    total_communication_words: u64,
    max_machine_load_words: usize,
    memory_violations: u64,
    phases: Vec<PhaseStats>,
}

impl RoundStats {
    /// Total MPC rounds charged.
    pub fn total_rounds(&self) -> u64 {
        self.total_rounds
    }

    /// Total words of cross-machine communication charged.
    pub fn total_communication_words(&self) -> u64 {
        self.total_communication_words
    }

    /// Largest number of words any single machine was asked to hold.
    pub fn max_machine_load_words(&self) -> usize {
        self.max_machine_load_words
    }

    /// Number of times a machine's budget was exceeded (only non-zero in
    /// permissive mode; strict mode errors out instead).
    pub fn memory_violations(&self) -> u64 {
        self.memory_violations
    }

    /// Per-phase breakdown, in execution order.
    pub fn phases(&self) -> &[PhaseStats] {
        &self.phases
    }

    /// Rounds charged to the phase with the given name (summed over repeats).
    pub fn rounds_in_phase(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.rounds)
            .sum()
    }

    /// Wall-clock milliseconds spent in the phase with the given name
    /// (summed over repeats). A simulator-cost observable, not a model
    /// quantity — see [`PhaseStats::wall_time_ms`].
    pub fn wall_time_in_phase_ms(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.wall_time_ms)
            .sum()
    }

    /// Total wall-clock milliseconds across all recorded phases.
    pub fn total_phase_wall_time_ms(&self) -> f64 {
        self.phases.iter().map(|p| p.wall_time_ms).sum()
    }

    /// Folds another run's statistics into this one: rounds, words and
    /// violations add, machine loads max, and `other`'s phases are appended
    /// in order after the existing ones. This is how long-lived callers (the
    /// streaming ingestion engine, experiment harnesses aggregating several
    /// runs) keep one cumulative record across contexts — e.g. when a
    /// growing input forces a fresh, larger [`MpcContext`], the old
    /// context's `into_stats()` is absorbed into the running total.
    pub fn absorb(&mut self, other: RoundStats) {
        self.total_rounds += other.total_rounds;
        self.total_communication_words += other.total_communication_words;
        self.max_machine_load_words = self
            .max_machine_load_words
            .max(other.max_machine_load_words);
        self.memory_violations += other.memory_violations;
        self.phases.extend(other.phases);
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} rounds, {} words shuffled, max machine load {} words, {} memory violations",
            self.total_rounds,
            self.total_communication_words,
            self.max_machine_load_words,
            self.memory_violations
        )
    }
}

/// The accounting context algorithms charge their resource usage against.
///
/// Costs follow the paper's implementation paragraphs:
///
/// * a shuffle / communication superstep is **1 round**;
/// * a Goodrich sort or search over `N` items is **`⌈log_s N⌉` rounds**
///   ([`MpcConfig::sort_rounds`]);
/// * local computation within a round is free (the MPC model allows unbounded
///   local computation).
#[derive(Debug, Clone)]
pub struct MpcContext {
    config: MpcConfig,
    executor: Executor,
    stats: RoundStats,
    current_phase: Option<PhaseStats>,
    /// Start instant of the open phase (drives [`PhaseStats::wall_time_ms`]).
    phase_started: Option<std::time::Instant>,
}

impl MpcContext {
    /// Creates a fresh context for the given cluster configuration. The
    /// context's execution backend is resolved from [`MpcConfig::threads`]
    /// here and then pinned for the context's lifetime. (A [`Cluster`]
    /// constructed later from the same config resolves independently at
    /// construction time — with `threads == 0` both consult `WCC_THREADS`,
    /// so keep the environment stable across a run.)
    ///
    /// [`Cluster`]: crate::Cluster
    pub fn new(config: MpcConfig) -> Self {
        MpcContext {
            config,
            executor: config.executor(),
            stats: RoundStats::default(),
            current_phase: None,
            phase_started: None,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// The execution backend algorithms should fan per-machine / per-chunk
    /// work out through.
    pub fn executor(&self) -> Executor {
        self.executor.clone()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RoundStats {
        &self.stats
    }

    /// Consumes the context and returns the accumulated statistics, closing
    /// any open phase.
    pub fn into_stats(mut self) -> RoundStats {
        self.end_phase();
        self.stats
    }

    /// Starts a named phase; any previously open phase is closed first. The
    /// phase records the paper's model quantities (rounds, words) *and* the
    /// wall-clock time until the matching [`MpcContext::end_phase`].
    pub fn begin_phase(&mut self, name: &str) {
        self.end_phase();
        self.current_phase = Some(PhaseStats {
            name: name.to_string(),
            rounds: 0,
            communication_words: 0,
            wall_time_ms: 0.0,
        });
        self.phase_started = Some(std::time::Instant::now());
    }

    /// Closes the current phase (no-op if none is open).
    pub fn end_phase(&mut self) {
        if let Some(mut phase) = self.current_phase.take() {
            if let Some(started) = self.phase_started.take() {
                phase.wall_time_ms = started.elapsed().as_secs_f64() * 1e3;
            }
            self.stats.phases.push(phase);
        }
    }

    /// Charges `rounds` MPC rounds and `communication_words` words of
    /// cross-machine traffic: the two quantities the paper's theorems bound.
    /// Every other charge is this one with its rounds and words worked out.
    pub fn charge(&mut self, rounds: u64, communication_words: u64) {
        self.stats.total_rounds += rounds;
        self.stats.total_communication_words += communication_words;
        if let Some(phase) = self.current_phase.as_mut() {
            phase.rounds += rounds;
            phase.communication_words += communication_words;
        }
    }

    /// Charges a single communication round moving `words` words in total.
    pub fn charge_shuffle(&mut self, words: usize) {
        self.charge(1, words as u64);
    }

    /// Charges a Goodrich parallel sort over `n_items` items:
    /// `⌈log_s n⌉` rounds, each moving (at most) all items once.
    pub fn charge_sort(&mut self, n_items: usize) {
        let rounds = self.config.sort_rounds(n_items);
        self.charge(rounds, rounds * n_items as u64);
    }

    /// Charges a Goodrich parallel search annotating `n_queries` queries
    /// against a set of `n_items` key–value pairs: `⌈log_s(n_items +
    /// n_queries)⌉` rounds.
    pub fn charge_search(&mut self, n_items: usize, n_queries: usize) {
        let total = n_items + n_queries;
        let rounds = self.config.sort_rounds(total);
        self.charge(rounds, rounds * total as u64);
    }

    /// Records that some machine holds `words` words, enforcing the memory
    /// budget.
    ///
    /// # Errors
    ///
    /// In strict mode returns [`MpcError::MemoryExceeded`] when `words`
    /// exceeds the per-machine budget; in permissive mode the violation is
    /// only counted.
    pub fn record_machine_load(&mut self, machine: usize, words: usize) -> Result<(), MpcError> {
        self.stats.max_machine_load_words = self.stats.max_machine_load_words.max(words);
        if words > self.config.memory_per_machine {
            self.stats.memory_violations += 1;
            if self.config.strict_memory {
                return Err(MpcError::MemoryExceeded {
                    machine,
                    required: words,
                    budget: self.config.memory_per_machine,
                });
            }
        }
        Ok(())
    }

    /// Records the load of every machine of a superstep's output, given in
    /// machine order. All loads and violations are recorded before any error
    /// is raised.
    ///
    /// # Errors
    ///
    /// In strict mode, returns [`MpcError::MemoryExceeded`] for the
    /// overflowing machine with the *lowest machine index*.
    pub(crate) fn record_machine_loads(
        &mut self,
        loads: impl IntoIterator<Item = usize>,
    ) -> Result<(), MpcError> {
        let mut first_overflow = Ok(());
        for (machine, words) in loads.into_iter().enumerate() {
            let recorded = self.record_machine_load(machine, words);
            first_overflow = first_overflow.and(recorded);
        }
        first_overflow
    }

    /// Records the load of a *balanced* distribution of `total_words` words
    /// across all machines (the common case for the algorithms in this
    /// workspace, which only ever hold evenly hashed tuples).
    ///
    /// # Errors
    ///
    /// Same as [`MpcContext::record_machine_load`].
    pub fn record_balanced_load(&mut self, total_words: usize) -> Result<(), MpcError> {
        let per_machine = total_words.div_ceil(self.config.num_machines.max(1));
        self.record_machine_load(0, per_machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(s: usize) -> MpcContext {
        MpcContext::new(MpcConfig::with_memory(1 << 16, s))
    }

    #[test]
    fn charges_accumulate_globally_and_per_phase() {
        let mut c = ctx(256);
        c.begin_phase("a");
        c.charge_shuffle(100);
        c.charge_shuffle(50);
        c.begin_phase("b");
        c.charge(3, 10);
        c.end_phase();
        let stats = c.stats();
        assert_eq!(stats.total_rounds(), 5);
        assert_eq!(stats.total_communication_words(), 160);
        assert_eq!(stats.rounds_in_phase("a"), 2);
        assert_eq!(stats.rounds_in_phase("b"), 3);
        assert_eq!(stats.phases().len(), 2);
    }

    #[test]
    fn sort_cost_matches_config() {
        let mut c = ctx(1 << 8);
        c.charge_sort(1 << 16);
        assert_eq!(c.stats().total_rounds(), 2);
        let mut c2 = ctx(16);
        c2.charge_sort(1 << 16);
        assert_eq!(c2.stats().total_rounds(), 4);
    }

    #[test]
    fn strict_memory_errors_permissive_counts() {
        let mut strict = ctx(100);
        assert!(strict.record_machine_load(3, 101).is_err());
        let mut loose = MpcContext::new(MpcConfig::with_memory(1 << 16, 100).permissive());
        assert!(loose.record_machine_load(3, 101).is_ok());
        assert!(loose.record_machine_load(3, 99).is_ok());
        assert_eq!(loose.stats().memory_violations(), 1);
        assert_eq!(loose.stats().max_machine_load_words(), 101);
    }

    #[test]
    fn into_stats_closes_open_phase() {
        let mut c = ctx(64);
        c.begin_phase("open");
        c.charge(2, 0);
        let stats = c.into_stats();
        assert_eq!(stats.phases().len(), 1);
        assert_eq!(stats.rounds_in_phase("open"), 2);
    }

    #[test]
    fn balanced_load_divides_by_machines() {
        let config = MpcConfig {
            memory_per_machine: 10,
            num_machines: 10,
            delta: 0.5,
            strict_memory: true,
            threads: 1,
        };
        let mut c = MpcContext::new(config);
        assert!(c.record_balanced_load(100).is_ok());
        assert!(c.record_balanced_load(101).is_err());
    }

    #[test]
    fn phase_wall_time_is_recorded_but_excluded_from_equality() {
        let mut a = ctx(64);
        a.begin_phase("walks");
        std::thread::sleep(std::time::Duration::from_millis(2));
        a.charge(1, 10);
        a.end_phase();
        let stats_a = a.into_stats();
        assert!(stats_a.wall_time_in_phase_ms("walks") > 0.0);
        assert!(stats_a.total_phase_wall_time_ms() >= stats_a.wall_time_in_phase_ms("walks"));

        // A second run of the same phase takes a different wall time, but the
        // stats still compare equal: timing is an observable, not part of the
        // determinism contract.
        let mut b = ctx(64);
        b.begin_phase("walks");
        b.charge(1, 10);
        b.end_phase();
        let stats_b = b.into_stats();
        assert_ne!(
            stats_a.phases()[0].wall_time_ms,
            stats_b.phases()[0].wall_time_ms
        );
        assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn absorb_concatenates_runs() {
        let mut a = ctx(64);
        a.begin_phase("first");
        a.charge(2, 100);
        a.record_machine_load(0, 30).unwrap();
        let mut total = a.into_stats();

        let mut b = ctx(64);
        b.begin_phase("second");
        b.charge(3, 50);
        b.record_machine_load(1, 45).unwrap();
        total.absorb(b.into_stats());

        assert_eq!(total.total_rounds(), 5);
        assert_eq!(total.total_communication_words(), 150);
        assert_eq!(total.max_machine_load_words(), 45);
        let names: Vec<&str> = total.phases().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["first", "second"]);
        // Absorbing an empty record is a no-op.
        let before = total.clone();
        total.absorb(RoundStats::default());
        assert_eq!(total, before);
    }

    #[test]
    fn summary_mentions_rounds() {
        let mut c = ctx(64);
        c.charge(7, 3);
        assert!(c.stats().summary().contains("7 rounds"));
    }

    #[test]
    fn machine_loads_report_lowest_overflowing_machine() {
        let loads = [50, 80, 140, 0, 0, 0, 0, 150];
        let mut strict = ctx(100);
        let err = strict.record_machine_loads(loads).unwrap_err();
        assert!(matches!(err, MpcError::MemoryExceeded { machine: 2, .. }));
        // Loads and violations were still recorded before erroring.
        assert_eq!(strict.stats().max_machine_load_words(), 150);
        assert_eq!(strict.stats().memory_violations(), 2);

        let mut loose = MpcContext::new(MpcConfig::with_memory(1 << 16, 100).permissive());
        assert!(loose.record_machine_loads(loads).is_ok());
        assert_eq!(loose.stats().memory_violations(), 2);
    }

    #[test]
    fn context_exposes_the_configured_executor() {
        let c = MpcContext::new(MpcConfig::with_memory(1 << 10, 64).with_threads(3));
        assert_eq!(c.executor().threads(), 3);
    }
}
