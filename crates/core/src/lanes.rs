//! Batch-lane entry points for the joined model.
//!
//! These are the opt-in high-throughput counterparts of
//! [`ReliabilityModel::simulate_survival_with`] and
//! [`ReliabilityModel::window_histogram_with`]: trials run `L` at a time
//! through the lockstep SoA kernels ([`settle::LaneScratch`] /
//! [`Settler::settle_lanes`](settle::Settler::settle_lanes) /
//! [`ShiftProcess::disjoint_lanes`](shiftproc::ShiftProcess::disjoint_lanes)),
//! with each trial drawing from its own counter-based stream seeded by
//! [`montecarlo::trial_seed`]`(seed, chunk, trial_in_chunk)`.
//!
//! # Determinism contract
//!
//! Because every trial's draws are a pure function of its own `(seed,
//! chunk, trial)` counter — no trial ever reads another trial's stream,
//! and retired lanes stop consuming draws — the lane estimates are
//! **bit-identical for any lane width and any worker-thread count**, a
//! strictly stronger invariance than the scalar path's (which fixes only
//! the thread count). The flip side: the lane stream is *different* from
//! the scalar per-chunk stream, so lane and scalar estimates for the same
//! seed agree statistically (validated by chi-square tests), not
//! bit-wise.

use crate::model::ReliabilityModel;
use montecarlo::{trial_seed, BernoulliEstimate, Histogram, Runner, Seed};
use settle::{LaneRng, LaneScratch, MAX_LANES};
use shiftproc::ShiftProcess;

/// Reusable per-worker buffers for the batch-lane trial kernels.
///
/// Obtained from [`ReliabilityModel::lane_scratch`]; one scratch serves
/// any number of lane blocks of that configuration. All buffers are
/// allocated up front — the steady-state block loop is allocation-free.
#[derive(Debug, Clone)]
pub struct LaneTrialScratch {
    /// The SoA settle images and working buffers.
    lanes: LaneScratch,
    /// One counter-seeded stream per lane.
    rng: LaneRng,
    /// Per-lane trial seeds of the current group.
    seeds: Vec<u64>,
    /// Per-lane γ of one settle.
    gammas: Vec<u64>,
    /// Window lengths `Γ`, window-major (`windows[i * capacity + lane]`).
    windows: Vec<u64>,
    /// Pre-drawn shift words, window-major like `windows`.
    shift_draws: Vec<u64>,
    /// Per-lane disjointness outcome.
    survived: Vec<bool>,
}

impl ReliabilityModel {
    /// A fresh [`LaneTrialScratch`] for `width` lanes of this
    /// configuration. Construction allocates and draws nothing.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=`[`MAX_LANES`].
    #[must_use]
    pub fn lane_scratch(&self, width: usize) -> LaneTrialScratch {
        assert!(
            (1..=MAX_LANES).contains(&width),
            "lane width {width} outside 1..={MAX_LANES}"
        );
        let n = self.threads();
        LaneTrialScratch {
            lanes: LaneScratch::new(&self.template(), width),
            rng: LaneRng::with_capacity(width),
            seeds: Vec::with_capacity(width),
            gammas: vec![0; width],
            windows: vec![0; n * width],
            shift_draws: vec![0; n * width],
            survived: vec![false; width],
        }
    }

    /// Lane-path Monte-Carlo estimate of `Pr[A]`, using the machine's
    /// available parallelism. See
    /// [`simulate_survival_lanes_with`](ReliabilityModel::simulate_survival_lanes_with).
    #[must_use]
    pub fn simulate_survival_lanes(&self, trials: u64, seed: u64, lanes: usize) -> BernoulliEstimate {
        self.survival_lanes_runner(Runner::new(Seed(seed)), trials, lanes)
    }

    /// Lane-path Monte-Carlo estimate of `Pr[A]` with an explicit worker
    /// count: `lanes` trials advance in lockstep per worker step.
    ///
    /// The estimate is bit-identical for any `lanes` and any `workers`
    /// (see the module docs), but differs bit-wise from the scalar
    /// [`simulate_survival_with`](ReliabilityModel::simulate_survival_with)
    /// — the two agree statistically.
    #[must_use]
    pub fn simulate_survival_lanes_with(
        &self,
        trials: u64,
        seed: u64,
        lanes: usize,
        workers: usize,
    ) -> BernoulliEstimate {
        self.survival_lanes_runner(Runner::new(Seed(seed)).with_threads(workers), trials, lanes)
    }

    /// Lane-path empirical distribution of the window growth `γ`, using
    /// the machine's available parallelism.
    #[must_use]
    pub fn window_histogram_lanes(&self, trials: u64, seed: u64, lanes: usize) -> Histogram {
        self.histogram_lanes_runner(Runner::new(Seed(seed)), trials, lanes)
    }

    /// Lane-path `γ` histogram with an explicit worker count. One settle
    /// per trial, exactly like the scalar
    /// [`window_histogram_with`](ReliabilityModel::window_histogram_with)
    /// kernel shape; bit-identical for any `lanes`/`workers`.
    #[must_use]
    pub fn window_histogram_lanes_with(
        &self,
        trials: u64,
        seed: u64,
        lanes: usize,
        workers: usize,
    ) -> Histogram {
        self.histogram_lanes_runner(Runner::new(Seed(seed)).with_threads(workers), trials, lanes)
    }

    fn survival_lanes_runner(&self, runner: Runner, trials: u64, lanes: usize) -> BernoulliEstimate {
        let this = *self;
        let n = self.threads();
        // Lane results are lane-width-invariant, so every width shares one
        // cache key (the key carries only the lane path, not the width).
        self.request("survival_lanes", true, &runner, trials, move |resume| {
            runner.try_fold_blocks(
                trials,
                move || this.lane_scratch(lanes),
                BernoulliEstimate::new,
                move |scratch, seed, chunk, span, acc| {
                    let trials_run = span.end - span.start;
                    scratch.for_groups(seed, chunk, span, this.store_prob(), |s, w| {
                        let settler = this.settler();
                        let cap = s.lanes.capacity();
                        for i in 0..n {
                            settler.settle_lanes(&mut s.lanes, &mut s.rng, &mut s.gammas[..w]);
                            for l in 0..w {
                                s.windows[i * cap + l] = s.gammas[l] + 2;
                            }
                        }
                        s.rng.fill(&mut s.shift_draws, n, cap);
                        ShiftProcess::canonical().disjoint_lanes(
                            &s.windows,
                            &s.shift_draws,
                            n,
                            cap,
                            &mut s.survived[..w],
                        );
                        for &alive in &s.survived[..w] {
                            acc.record(alive);
                        }
                    });
                    scratch.flush_metrics(lanes, trials_run);
                },
                |a, b| a.merge(&b),
                resume,
            )
        })
        .value
    }

    fn histogram_lanes_runner(&self, runner: Runner, trials: u64, lanes: usize) -> Histogram {
        let this = *self;
        self.request("windows_lanes", true, &runner, trials, move |resume| {
            runner.try_fold_blocks(
                trials,
                move || this.lane_scratch(lanes),
                Histogram::new,
                move |scratch, seed, chunk, span, acc| {
                    let trials_run = span.end - span.start;
                    scratch.for_groups(seed, chunk, span, this.store_prob(), |s, w| {
                        this.settler()
                            .settle_lanes(&mut s.lanes, &mut s.rng, &mut s.gammas[..w]);
                        for &g in &s.gammas[..w] {
                            acc.record(g);
                        }
                    });
                    scratch.flush_metrics(lanes, trials_run);
                },
                |a, b| a.merge(&b),
                resume,
            )
        })
        .value
    }
}

impl LaneTrialScratch {
    /// Splits `span` into lane-width groups of chunk-local trial indices,
    /// reseeds each group's streams from `trial_seed(seed, chunk, trial)`,
    /// regenerates the lane programs with store probability `p`, and
    /// hands each regenerated group to `body` with the group's live width.
    /// Tail groups narrow the width instead of padding, so results are
    /// those of the trials alone (per-trial purity).
    fn for_groups(
        &mut self,
        seed: Seed,
        chunk: u64,
        span: std::ops::Range<u64>,
        p: f64,
        mut body: impl FnMut(&mut LaneTrialScratch, usize),
    ) {
        let cap = self.lanes.capacity();
        let mut t = span.start;
        while t < span.end {
            let w = usize::try_from(span.end - t).map_or(cap, |rest| rest.min(cap));
            self.seeds.clear();
            self.seeds
                .extend((0..w as u64).map(|k| trial_seed(seed, chunk, t + k)));
            self.rng.reseed(&self.seeds);
            self.lanes.regenerate(p, &mut self.rng);
            body(self, w);
            t += w as u64;
        }
    }

    /// Records the `mc.lanes.*` telemetry for the block just run (no-op
    /// when recording is off). Out-of-band: seeded estimates are
    /// identical with telemetry on or off.
    fn flush_metrics(&mut self, width: usize, trials: u64) {
        let steps = self.lanes.take_steps();
        if obs::recording() {
            let m = crate::telemetry::lane_metrics();
            m.width.set(width as u64);
            m.retire_rounds.add(steps);
            m.trials.add(trials);
        }
    }
}
