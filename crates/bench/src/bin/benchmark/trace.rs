//! Span accumulators for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer (see `sut::step_run`); nothing inside the program is
//! instrumented. Each field is a busy time in nanoseconds or a work count
//! summed over one traced job.

/// The decide sublayers, replayed on a sample of real page views at each
/// tick boundary (see `sut::replay_decides`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub decisions: u64,
    pub select_ns: u64,
    pub candidates: u64,
    pub eval_ns: u64,
    pub evals: u64,
    pub eligible_ns: u64,
    pub auction_ns: u64,
    pub bids: u64,
    pub decide_ns: u64,
    /// Wall time the replay took; excluded from the stepper's wall.
    pub wall_ns: u64,
}

impl Replay {
    pub fn merge(&mut self, other: &Replay) {
        self.decisions += other.decisions;
        self.select_ns += other.select_ns;
        self.candidates += other.candidates;
        self.eval_ns += other.eval_ns;
        self.evals += other.evals;
        self.eligible_ns += other.eligible_ns;
        self.auction_ns += other.auction_ns;
        self.bids += other.bids;
        self.decide_ns += other.decide_ns;
        self.wall_ns += other.wall_ns;
    }

    /// Mean per replayed decision.
    pub fn per_decision(&self, total: u64) -> f64 {
        total as f64 / self.decisions.max(1) as f64
    }
}

/// One traced batch job. The main-thread spans (`session_gen`,
/// `shard_scope`, `merge`, `fold`, `snapshot`, `ledger`, `capture`,
/// `encode`, `resume_*`) never overlap, so their sum plus
/// [`Spans::unattributed_ns`] is the stepper's wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// Stepper wall time, excluding the decide replay.
    pub wall_ns: u64,
    pub session_gen_ns: u64,
    pub session_gen_events: u64,
    /// Wall time of the parallel shard-tick sections.
    pub shard_scope_ns: u64,
    /// Busy time summed over every shard's `run_tick`.
    pub shard_tick_ns: u64,
    /// Per-tick slowest shard, summed over ticks (the critical path).
    pub shard_crit_ns: u64,
    pub shards: u64,
    pub merge_ns: u64,
    pub merge_events: u64,
    pub fold_ns: u64,
    pub fold_impressions: u64,
    pub snapshot_ns: u64,
    pub snapshots: u64,
    pub ledger_ns: u64,
    pub receipts: u64,
    pub capture_ns: u64,
    pub encode_ns: u64,
    pub frames: u64,
    pub frame_bytes: u64,
    pub dirty_slots: u64,
    pub resume_decode_ns: u64,
    pub resume_fold_ns: u64,
    pub resume_ns: u64,
    pub replay: Replay,
}

impl Spans {
    pub fn attributed_ns(&self) -> u64 {
        self.session_gen_ns
            + self.shard_scope_ns
            + self.merge_ns
            + self.fold_ns
            + self.snapshot_ns
            + self.ledger_ns
            + self.capture_ns
            + self.encode_ns
            + self.resume_decode_ns
            + self.resume_fold_ns
            + self.resume_ns
    }

    /// Stepper wall time no span covers.
    pub fn unattributed_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.attributed_ns())
    }
}

/// Nanoseconds elapsed since `start`, saturating.
pub fn since(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
