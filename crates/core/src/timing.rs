//! The time-to-train clock and the paper's timing exclusions (§3.2.1).
//!
//! Timing begins when any training or validation data is touched and
//! stops when the quality target is achieved. Excluded from the timed
//! region:
//!
//! - **system initialization** (cluster diagnostics, scheduling):
//!   whatever precedes a [`RunTimer`]'s first stage is never counted;
//! - **model creation and initialization**, up to a cap of 20 minutes —
//!   beyond the cap, the excess counts toward the result (discouraging
//!   impractically expensive compilation);
//! - **one-time data reformatting** — but augmentation performed during
//!   training may *not* be moved there.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

/// The model-creation exclusion cap: 20 minutes.
pub const MODEL_CREATION_CAP: Duration = Duration::from_secs(20 * 60);

/// A monotonic time source, and the wall clock real runs use. The
/// timing tests use [`SimClock`] to script arbitrary stage durations.
///
/// Re-exported from `mlperf-telemetry`, so the same clock drives both
/// the time-to-train timer and the telemetry spans of a run.
pub use mlperf_telemetry::{Clock, RealClock};

/// A manually advanced clock for deterministic timing tests. Cheap to
/// clone; clones share the same time.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Rc<Cell<Duration>>,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Advances the clock.
    pub fn advance(&self, by: Duration) {
        self.now.set(self.now.get() + by);
    }
}

impl Clock for SimClock {
    fn now(&self) -> Duration {
        self.now.get()
    }
}

/// The lifecycle stages a run moves through, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Created,
    Reformatting,
    ModelCreation,
    Timed,
    Stopped,
}

/// Accumulates a run's stage durations and computes the official
/// time-to-train under the exclusion rules.
///
/// Stages must be entered in lifecycle order (reformatting → model
/// creation → timed region); each is optional.
pub struct RunTimer<'c> {
    clock: &'c dyn Clock,
    stage: Stage,
    stage_started: Duration,
    reformatting: Duration,
    model_creation: Duration,
    timed: Duration,
}

impl<'c> RunTimer<'c> {
    /// A timer over the given clock.
    pub fn new(clock: &'c dyn Clock) -> Self {
        RunTimer {
            clock,
            stage: Stage::Created,
            stage_started: clock.now(),
            reformatting: Duration::ZERO,
            model_creation: Duration::ZERO,
            timed: Duration::ZERO,
        }
    }

    fn close_stage(&mut self) {
        let elapsed = self.clock.now() - self.stage_started;
        match self.stage {
            Stage::Reformatting => self.reformatting += elapsed,
            Stage::ModelCreation => self.model_creation += elapsed,
            Stage::Timed => self.timed += elapsed,
            Stage::Created | Stage::Stopped => {}
        }
        self.stage_started = self.clock.now();
    }

    fn enter(&mut self, next: Stage, order: u8) {
        let current_order = stage_order(self.stage);
        assert!(
            order >= current_order,
            "run stages must advance in lifecycle order ({:?} -> {next:?})",
            self.stage
        );
        self.close_stage();
        self.stage = next;
    }

    /// Enters the (excluded) one-time data-reformatting stage.
    ///
    /// # Panics
    ///
    /// Panics if a later stage has already begun.
    pub fn begin_reformatting(&mut self) {
        self.enter(Stage::Reformatting, 2);
    }

    /// Enters the model-creation stage (excluded up to
    /// [`MODEL_CREATION_CAP`]).
    ///
    /// # Panics
    ///
    /// Panics if the timed region has already begun.
    pub fn begin_model_creation(&mut self) {
        self.enter(Stage::ModelCreation, 3);
    }

    /// Enters the timed region — the moment training/validation data is
    /// first touched.
    ///
    /// # Panics
    ///
    /// Panics if the run was already stopped.
    pub fn begin_timed(&mut self) {
        self.enter(Stage::Timed, 4);
    }

    /// Stops the run.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn stop(&mut self) {
        assert_ne!(self.stage, Stage::Stopped, "run already stopped");
        self.close_stage();
        self.stage = Stage::Stopped;
    }

    /// The official time-to-train: the timed region, plus any model
    /// creation time beyond the 20-minute cap.
    ///
    /// # Panics
    ///
    /// Panics if the run has not been stopped.
    pub fn time_to_train(&self) -> Duration {
        assert_eq!(self.stage, Stage::Stopped, "run still in progress");
        let excess = self.model_creation.saturating_sub(MODEL_CREATION_CAP);
        self.timed + excess
    }

    /// Total excluded time (reformatting + capped model creation).
    pub fn excluded(&self) -> Duration {
        self.reformatting + self.model_creation.min(MODEL_CREATION_CAP)
    }

    /// Time spent in the timed region only.
    pub fn timed(&self) -> Duration {
        self.timed
    }
}

fn stage_order(s: Stage) -> u8 {
    match s {
        Stage::Created => 0,
        Stage::Reformatting => 2,
        Stage::ModelCreation => 3,
        Stage::Timed => 4,
        Stage::Stopped => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn init_and_reformatting_are_excluded() {
        let clock = SimClock::new();
        clock.advance(secs(300)); // 5 min of cluster init before the timer
        let mut t = RunTimer::new(&clock);
        t.begin_reformatting();
        clock.advance(secs(600)); // 10 min of data packing
        t.begin_model_creation();
        clock.advance(secs(60)); // 1 min of model build
        t.begin_timed();
        clock.advance(secs(120)); // 2 min of training
        t.stop();
        assert_eq!(t.time_to_train(), secs(120));
        assert_eq!(t.excluded(), secs(660));
    }

    #[test]
    fn model_creation_beyond_cap_counts() {
        let clock = SimClock::new();
        let mut t = RunTimer::new(&clock);
        t.begin_model_creation();
        clock.advance(secs(25 * 60)); // 25 min compile: 5 over cap
        t.begin_timed();
        clock.advance(secs(60));
        t.stop();
        assert_eq!(t.time_to_train(), secs(60 + 5 * 60));
        assert_eq!(t.excluded(), secs(20 * 60));
    }

    #[test]
    fn model_creation_at_cap_fully_excluded() {
        let clock = SimClock::new();
        let mut t = RunTimer::new(&clock);
        t.begin_model_creation();
        clock.advance(MODEL_CREATION_CAP);
        t.begin_timed();
        clock.advance(secs(10));
        t.stop();
        assert_eq!(t.time_to_train(), secs(10));
    }

    #[test]
    fn stages_are_optional() {
        let clock = SimClock::new();
        let mut t = RunTimer::new(&clock);
        t.begin_timed();
        clock.advance(secs(42));
        t.stop();
        assert_eq!(t.time_to_train(), secs(42));
        assert_eq!(t.excluded(), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "lifecycle order")]
    fn cannot_reformat_after_training_started() {
        let clock = SimClock::new();
        let mut t = RunTimer::new(&clock);
        t.begin_timed();
        t.begin_reformatting();
    }

    #[test]
    #[should_panic(expected = "still in progress")]
    fn ttt_requires_stop() {
        let clock = SimClock::new();
        let mut t = RunTimer::new(&clock);
        t.begin_timed();
        t.time_to_train();
    }

    #[test]
    #[should_panic(expected = "already stopped")]
    fn double_stop_panics() {
        let clock = SimClock::new();
        let mut t = RunTimer::new(&clock);
        t.begin_timed();
        t.stop();
        t.stop();
    }
}
