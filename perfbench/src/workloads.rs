//! The three closed-loop workloads: one client issues one request at a
//! time, each request's seed derived from the run seed.
//!
//! Every workload runs the same four cache phases over its own request
//! shapes — cold (miss, compute, insert), warm (memory-tier hits),
//! reopen (segment-tier hits under a small memory budget) and grow (twice
//! the trials, resumed from the cached prefix) — so every end-to-end
//! metric is defined on every workload. `survival_n2` and `scaling_rb`
//! first run a throughput phase of long requests with no store installed;
//! their trial rates come from that phase alone, so the store stays off
//! the path those rates measure. `sweep_cache` has no throughput phase:
//! its rates come from its cold and grow requests. A run is cut into
//! cycles, each a slice of every phase, so every phase samples the whole
//! run.

use crate::adapter::{self, Cache, CacheStats, Kind, Model, Outcome, Point};
use crate::gate::{self, Reference};
use crate::report::{cpu_ticks, median, mix, peak_rss_mb, quantile, Metrics};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Direct survival at the Theorem 6.2 point, all four models.
    SurvivalN2,
    /// Rao-Blackwellised survival at n ∈ {4, 8, 16}, all four models.
    ScalingRb,
    /// Many small survival requests over a parameter grid, through a
    /// disk-backed store.
    SweepCache,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::SurvivalN2,
        Workload::ScalingRb,
        Workload::SweepCache,
    ];

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SurvivalN2 => "survival_n2",
            Workload::ScalingRb => "scaling_rb",
            Workload::SweepCache => "sweep_cache",
        }
    }

    /// The estimator every request of the workload runs.
    #[must_use]
    pub fn kind(self) -> Kind {
        match self {
            Workload::ScalingRb => Kind::Rb,
            _ => Kind::Survival,
        }
    }

    /// The parameter points the workload's requests cover.
    #[must_use]
    pub fn points(self) -> Vec<Point> {
        let canonical = |model, n| Point {
            model,
            n,
            m: 64,
            p: 0.5,
        };
        match self {
            Workload::SurvivalN2 => Model::ALL.iter().map(|&m| canonical(m, 2)).collect(),
            Workload::ScalingRb => Model::ALL
                .iter()
                .flat_map(|&m| [4, 8, 16].map(|n| canonical(m, n)))
                .collect(),
            Workload::SweepCache => {
                let mut v = Vec::new();
                for model in Model::ALL {
                    for m in [16, 32, 64] {
                        for n in [2, 3, 4] {
                            for p in [0.3, 0.5, 0.7] {
                                v.push(Point { model, n, m, p });
                            }
                        }
                    }
                }
                v
            }
        }
    }

    /// Chunks per throughput-phase request at a point, sized so every
    /// request takes 0.1–0.2 s on two threads: long against the runner's
    /// per-request cost, and SC, the fastest model, gets about the same
    /// wall time as each relaxed model. `None` when the workload has no
    /// throughput phase.
    #[must_use]
    pub fn throughput_chunks(self, point: Point) -> Option<u64> {
        match self {
            Workload::SurvivalN2 => Some(match point.model {
                Model::Sc => 96,
                Model::Tso => 32,
                Model::Pso => 28,
                Model::Wo => 20,
            }),
            Workload::ScalingRb => Some(match (point.model, point.n) {
                (Model::Sc, 4) => 32,
                (Model::Sc, 8) => 16,
                (Model::Sc, _) => 8,
                (_, 4) => 8,
                (_, 8) => 4,
                _ => 2,
            }),
            Workload::SweepCache => None,
        }
    }

    /// Whether the cache phases request `point`. `scaling_rb` keeps them
    /// to its n = 4 points: the store's work does not depend on n, and on
    /// twelve request shapes a latency percentile would fall in the gap
    /// between two of them and jump from run to run.
    fn in_cache_phases(self, point: &Point) -> bool {
        self != Workload::ScalingRb || point.n == 4
    }

    /// Whether the workload runs a throughput phase of long requests.
    #[must_use]
    pub fn has_throughput_phase(self) -> bool {
        self != Workload::SweepCache
    }

    /// Chunks of a cold request (grow requests ask for twice as many).
    /// The sweep varies them so its latencies spread without gaps over
    /// its grid; on the few points of the other workloads one chunk keeps
    /// a latency percentile from landing in the gap between two request
    /// shapes.
    fn cold_chunks(self, salt: u64) -> u64 {
        match self {
            Workload::SweepCache => 1 + salt % 3,
            _ => 1,
        }
    }
}

/// What one run measures and how.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed every request seed is derived from.
    pub seed: u64,
    /// Wall time the timed phases aim to fill.
    pub seconds: f64,
    /// Runner worker threads of a throughput-phase request (cache-phase
    /// requests use [`CACHE_THREADS`]).
    pub threads: usize,
    /// Analytic references the gate compares against.
    pub reference: Reference,
    /// Directory for the run's stores (created, emptied, removed).
    pub work_dir: PathBuf,
    /// Minimum samples per latency phase over the run: cold, warm, disk,
    /// grow. Each is large enough that the percentile reported from it
    /// has at least ten samples beyond it.
    pub min_samples: [usize; 4],
    /// Cycles the phases are spread over. Each cycle runs a slice of
    /// every phase, so each phase samples the whole run and a slow spell
    /// of a shared host touches a slice of every phase rather than the
    /// whole of one.
    pub cycles: usize,
}

impl Config {
    /// The configuration of a full run.
    #[must_use]
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        threads: usize,
        work_dir: PathBuf,
    ) -> Config {
        Config {
            workload,
            seed,
            seconds,
            threads,
            reference: Reference::paper(),
            work_dir,
            min_samples: [100, 2000, 200, 40],
            cycles: 10,
        }
    }
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Requests attempted and failed, with the first failure messages.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests and checks attempted.
    pub attempted: u64,
    /// Those that failed a check or returned an error.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one attempt and its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// The result of a run: metrics, tally and the run record's counts.
#[derive(Debug, Default, Clone)]
pub struct RunOutput {
    /// Named metrics with units.
    pub metrics: Metrics,
    /// Correctness tally.
    pub tally: Tally,
    /// Computed trials per model.
    pub trials_by_model: BTreeMap<&'static str, u64>,
    /// Samples per phase.
    pub samples: BTreeMap<&'static str, u64>,
    /// Per steal-corrected phase, the share of its CPU time the
    /// hypervisor left to the run.
    pub kept: BTreeMap<&'static str, f64>,
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
struct Done {
    /// Index of the request's point in the workload's point list.
    at: usize,
    point: Point,
    trials: u64,
    seed: u64,
    outcome: Option<Outcome>,
    secs: f64,
}

/// The run so far: latencies by phase, per-point rates, and the requests
/// the checks revisit.
#[derive(Default)]
struct Samples {
    /// Per point: `(computed trials, seconds, phase)` of each request
    /// whose rate the throughput metrics use.
    rates: Vec<Vec<(u64, f64, Timed)>>,
    /// Per [`Timed`] phase: CPU ticks spent busy, and ticks the
    /// hypervisor stole from CPUs while they were busy.
    stolen: [(f64, f64); 3],
    cold: Vec<f64>,
    warm: Vec<f64>,
    disk: Vec<f64>,
    grow: Vec<f64>,
    /// `Store::open` times of the reopens.
    reopen: Vec<f64>,
    /// Cold requests that returned, and the grown ones.
    served: Vec<Done>,
    grown: Vec<Done>,
    /// Per point, the pooled direct-survival counts of the throughput
    /// phase.
    pooled: BTreeMap<usize, (u64, u64)>,
    /// Lookups by outcome, summed over every store instance.
    stats: CacheStats,
    throughput_requests: u64,
    trials_by_model: BTreeMap<&'static str, u64>,
}

impl Samples {
    /// Counts a request's computed trials; `rate` also enters its rate
    /// into the throughput metrics.
    fn computed(&mut self, d: &Done, trials: u64, rate: bool, phase: Timed) {
        if rate {
            self.rates[d.at].push((trials, d.secs, phase));
        }
        *self
            .trials_by_model
            .entry(d.point.model.name())
            .or_default() += trials;
    }

    /// The share of a phase's busy CPU time the hypervisor left to the
    /// run. Times of that phase are scaled by it: on an unshared host the
    /// stolen time would not be there.
    fn kept(&self, phase: Timed) -> f64 {
        let (busy, stolen) = self.stolen[phase as usize];
        if busy > 0.0 {
            busy / (busy + stolen)
        } else {
            1.0
        }
    }

    /// Accounts a store instance's statistics before it is dropped.
    fn retire(&mut self, cache: Cache) {
        adapter::uninstall_cache();
        let s = cache.stats();
        self.stats.hits += s.hits;
        self.stats.misses += s.misses;
        self.stats.extends += s.extends;
        self.stats.errors += s.errors;
        self.stats.torn_tails += s.torn_tails;
    }

    /// Trials per second over the points `keep` selects: each point's
    /// median request rate, combined as total trials over the time they
    /// take at those rates. The median makes a slow spell of the host
    /// that touches a few requests leave the figure alone.
    fn rate(&self, points: &[Point], keep: impl Fn(&Point) -> bool) -> f64 {
        let (mut trials, mut secs) = (0.0, 0.0);
        for (p, r) in points.iter().zip(&self.rates) {
            if !keep(p) || r.is_empty() {
                continue;
            }
            let rates: Vec<f64> = r
                .iter()
                .map(|&(t, s, phase)| t as f64 / (s * self.kept(phase)))
                .collect();
            let total: u64 = r.iter().map(|&(t, _, _)| t).sum();
            trials += total as f64;
            secs += total as f64 / median(&rates);
        }
        if secs > 0.0 {
            trials / secs
        } else {
            0.0
        }
    }
}

/// The phases whose times are corrected for hypervisor steal: their
/// requests take milliseconds or more, so steal stretches them roughly
/// evenly. Hits take microseconds; steal lands on few of them, whole, and
/// their percentiles are left as measured.
#[derive(Debug, Clone, Copy)]
enum Timed {
    Throughput,
    Cold,
    Grow,
}

/// Per-CPU tick counts since a phase slice began.
struct Meter(Vec<[u64; 3]>);

impl Meter {
    fn start() -> Meter {
        Meter(cpu_ticks())
    }

    /// Accounts the slice to `phase`. Each CPU's stolen ticks count in
    /// the share it was busy: an idle CPU's steal did not delay the run.
    fn stop(self, s: &mut Samples, phase: Timed) {
        let slot = &mut s.stolen[phase as usize];
        for (a, b) in self.0.iter().zip(cpu_ticks()) {
            let [busy, idle, steal] = [0, 1, 2].map(|i| b[i].saturating_sub(a[i]) as f64);
            if busy > 0.0 {
                slot.0 += busy;
                slot.1 += steal * busy / (busy + idle);
            }
        }
    }
}

struct Driver<'a> {
    cfg: &'a Config,
    points: Vec<Point>,
    kind: Kind,
    dir: PathBuf,
    s: Samples,
    out: &'a mut RunOutput,
}

impl Driver<'_> {
    fn request(&mut self, at: usize, trials: u64, seed: u64, threads: usize) -> Done {
        let point = self.points[at];
        let t = Instant::now();
        let result = adapter::request(self.kind, point, trials, seed, threads);
        let secs = t.elapsed().as_secs_f64();
        let outcome = match result {
            Ok(o) => Some(o),
            Err(e) => {
                self.out.tally.record(Err(format!("request panicked: {e}")));
                None
            }
        };
        Done {
            at,
            point,
            trials,
            seed,
            outcome,
            secs,
        }
    }

    /// A request through `cache` that must be served as `class`, on
    /// [`CACHE_THREADS`].
    fn cached_request(
        &mut self,
        cache: &Cache,
        at: usize,
        trials: u64,
        seed: u64,
        class: &str,
    ) -> Done {
        let before = cache.stats();
        let done = self.request(at, trials, seed, CACHE_THREADS);
        if done.outcome.is_some() {
            self.out
                .tally
                .record(expect_one(before, cache.stats(), class));
        }
        done
    }

    fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.cfg.seconds * share / self.cfg.cycles as f64)
    }

    fn per_cycle(&self, phase: usize) -> usize {
        self.cfg.min_samples[phase].div_ceil(self.cfg.cycles)
    }

    /// Long requests with no store installed, in whole rounds so every
    /// point gets the same number of requests.
    fn throughput_slice(&mut self) {
        adapter::uninstall_cache();
        let budget = self.budget(THROUGHPUT_SHARE);
        let meter = Meter::start();
        let start = Instant::now();
        loop {
            for at in 0..self.points.len() {
                let point = self.points[at];
                let chunks = self
                    .cfg
                    .workload
                    .throughput_chunks(point)
                    .expect("throughput workload");
                let seed = mix(self.cfg.seed, 1 << 40 | self.s.throughput_requests);
                self.s.throughput_requests += 1;
                let done =
                    self.request(at, chunks * adapter::chunk_width(), seed, self.cfg.threads);
                let Some(outcome) = done.outcome else {
                    continue;
                };
                self.s.computed(&done, done.trials, true, Timed::Throughput);
                self.out
                    .tally
                    .record(gate::check_statistics(&self.cfg.reference, point, &outcome));
                if let Outcome::Survival { successes, trials } = outcome {
                    let e = self.s.pooled.entry(at).or_default();
                    e.0 += successes;
                    e.1 += trials;
                }
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        meter.stop(&mut self.s, Timed::Throughput);
    }

    /// One cycle of the cache phases on `cache`; returns the store
    /// reopened for the next cycle.
    fn cache_cycle(&mut self, cache: Cache, cold_index: &mut u64) -> Result<Cache, String> {
        let shares = cache_shares(self.cfg.workload);
        let cw = adapter::chunk_width();
        // Without a throughput phase, the trial rates come from the
        // requests here.
        let rates_here = !self.cfg.workload.has_throughput_phase();

        // Cold: miss, compute, insert. Request j of the run visits the
        // cache-phase points in the seeded order of its round. Where a
        // round fits in the floor (the few points of `survival_n2` and
        // `scaling_rb`) the floor is whole rounds, so every point gets the
        // same share.
        cache.install();
        let first = self.s.served.len();
        let eligible: Vec<usize> = (0..self.points.len())
            .filter(|&i| self.cfg.workload.in_cache_phases(&self.points[i]))
            .collect();
        let floor = self.per_cycle(0);
        let min = if eligible.len() <= floor {
            floor.next_multiple_of(eligible.len())
        } else {
            floor
        };
        let (budget, start) = (self.budget(shares[0]), Instant::now());
        let meter = Meter::start();
        let mut n = 0;
        while n < min || start.elapsed() < budget {
            let round = *cold_index / eligible.len() as u64;
            let mut order = eligible.clone();
            order.sort_by_key(|&i| mix(self.cfg.seed ^ round, i as u64));
            let at = order[(*cold_index % eligible.len() as u64) as usize];
            let salt = mix(self.cfg.seed, *cold_index);
            *cold_index += 1;
            let trials = self.cfg.workload.cold_chunks(salt) * cw;
            let done = self.cached_request(&cache, at, trials, mix(salt, 2), "miss");
            self.s.cold.push(done.secs);
            n += 1;
            if let Some(outcome) = done.outcome {
                self.s.computed(&done, trials, rates_here, Timed::Cold);
                self.out.tally.record(gate::check_statistics(
                    &self.cfg.reference,
                    done.point,
                    &outcome,
                ));
                self.s.served.push(done);
            }
        }
        meter.stop(&mut self.s, Timed::Cold);
        let fresh: Vec<Done> = self.s.served[first..].to_vec();

        // Warm: this cycle's entries, hits from the memory tier.
        let warm = self.replay(
            &cache,
            &fresh,
            self.per_cycle(1),
            self.budget(shares[1]),
            "warm",
        );
        self.s.warm.extend(warm);

        // Reopen under a memory budget below one entry: every lookup of a
        // different key than the last is served by the segment tier.
        self.s.retire(cache);
        let t = Instant::now();
        let disk_cache = Cache::open(&self.dir, Some(1))?;
        self.s.reopen.push(t.elapsed().as_secs_f64());
        disk_cache.install();
        let all = self.s.served.clone();
        let disk = self.replay(
            &disk_cache,
            &all,
            self.per_cycle(2),
            self.budget(shares[2]),
            "disk",
        );
        self.s.disk.extend(disk);

        // Grow: twice the trials of this cycle's entries, resumed from the
        // cached prefix; each entry grown at most once. On the sweep's
        // wide grid a budgeted prefix of them is a fair sample; on the few
        // points of the other workloads all are grown, so every point
        // keeps its share.
        let (min, budget, start) = (self.per_cycle(3), self.budget(shares[3]), Instant::now());
        let meter = Meter::start();
        for (i, d) in fresh.iter().enumerate() {
            if rates_here && i >= min && start.elapsed() >= budget {
                break;
            }
            let g = self.cached_request(&disk_cache, d.at, 2 * d.trials, d.seed, "extend");
            self.s.grow.push(g.secs);
            if g.outcome.is_some() {
                self.s.computed(&g, d.trials, rates_here, Timed::Grow);
                self.s.grown.push(g);
            }
        }
        meter.stop(&mut self.s, Timed::Grow);
        self.s.retire(disk_cache);
        let t = Instant::now();
        let next = Cache::open(&self.dir, None)?;
        self.s.reopen.push(t.elapsed().as_secs_f64());
        Ok(next)
    }

    /// Re-issues `requests` in order, cycling, until both the sample floor
    /// and the budget are met; each must be an exact hit equal to its cold
    /// result. Returns the latencies.
    fn replay(
        &mut self,
        cache: &Cache,
        requests: &[Done],
        min: usize,
        budget: Duration,
        what: &str,
    ) -> Vec<f64> {
        let mut lat = Vec::new();
        if requests.is_empty() {
            return lat;
        }
        let start = Instant::now();
        for d in requests.iter().cycle() {
            if lat.len() >= min && start.elapsed() >= budget {
                break;
            }
            let r = self.cached_request(cache, d.at, d.trials, d.seed, "hit");
            if let (Some(got), Some(want)) = (r.outcome, d.outcome) {
                self.out
                    .tally
                    .record(gate::check_identical(what, &got, &want));
            }
            lat.push(r.secs);
        }
        lat
    }

    /// Runs every cycle, then the untimed checks: each grown and every
    /// eighth cold result against an uncached run of the same request,
    /// the pooled throughput estimates, and the store's fault counters.
    fn drive(&mut self, mut cache: Cache, throughput: bool) -> Result<(), String> {
        let mut cold_index = 0;
        for _ in 0..self.cfg.cycles {
            if throughput {
                self.throughput_slice();
            }
            cache = self.cache_cycle(cache, &mut cold_index)?;
        }
        self.s.retire(cache);
        let twins: Vec<Done> = self
            .s
            .grown
            .iter()
            .chain(self.s.served.iter().step_by(8))
            .copied()
            .collect();
        for d in twins {
            let Some(got) = d.outcome else { continue };
            let verdict = adapter::request(self.kind, d.point, d.trials, d.seed, self.cfg.threads)
                .and_then(|want| gate::check_identical("uncached twin", &got, &want));
            self.out.tally.record(verdict);
        }
        for (&at, &(successes, trials)) in &self.s.pooled {
            let outcome = Outcome::Survival { successes, trials };
            self.out.tally.record(gate::check_statistics(
                &self.cfg.reference,
                self.points[at],
                &outcome,
            ));
        }
        let st = self.s.stats;
        self.out
            .tally
            .record(if st.errors == 0 && st.torn_tails == 0 {
                Ok(())
            } else {
                Err(format!("store faults: {st:?}"))
            });
        Ok(())
    }
}

/// Runner threads of a cache-phase request. Those requests are one to
/// three chunks: too few to split well, so a second thread would add
/// little but the wake-up of an idle CPU, which on a shared host is the
/// noisiest step of a request.
const CACHE_THREADS: usize = 1;

/// Share of the run the throughput phase takes, where there is one.
const THROUGHPUT_SHARE: f64 = 0.65;

/// Cache-phase budgets as shares of the run: cold, warm, disk, grow. The
/// sample floors of [`Config::min_samples`] apply on top.
fn cache_shares(workload: Workload) -> [f64; 4] {
    match workload {
        Workload::SweepCache => [0.5, 0.1, 0.1, 0.15],
        _ => [0.0, 0.03, 0.03, 0.0],
    }
}

/// One set-up: warm-up requests (pool threads, code paths), then a fresh
/// disk-backed store.
fn prepare(cfg: &Config, points: &[Point], dir: &Path) -> Result<Cache, String> {
    adapter::uninstall_cache();
    for model in Model::ALL {
        if let Some(&point) = points.iter().find(|p| p.model == model) {
            adapter::request(
                cfg.workload.kind(),
                point,
                adapter::chunk_width(),
                cfg.seed,
                cfg.threads,
            )?;
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Cache::open(dir, None)
}

/// Runs the workload untraced and returns its end-to-end metrics.
///
/// # Errors
///
/// When the work directory cannot be created or a store cannot be
/// opened; request failures are counted, not returned.
pub fn run(cfg: &Config) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let points = cfg.workload.points();

    // Set-up, repeated; the last one's store is used.
    let mut setup = Vec::new();
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let dir = cfg.work_dir.join(format!("cold-{rep}"));
        let cache = prepare(cfg, &points, &dir)?;
        setup.push(t.elapsed().as_secs_f64());
        prepared = Some((cache, dir));
    }
    let (cache, dir) = prepared.expect("at least one set-up repetition");
    let mut d = Driver {
        cfg,
        kind: cfg.workload.kind(),
        s: Samples {
            rates: vec![Vec::new(); points.len()],
            ..Samples::default()
        },
        points,
        dir,
        out: &mut out,
    };
    d.drive(cache, cfg.workload.has_throughput_phase())?;
    let (s, points) = (d.s, d.points);

    let m = &mut out.metrics;
    m.set("setup_s", median(&setup) + median(&s.reopen), "s");
    m.set("trials_per_s", s.rate(&points, |_| true), "1/s");
    m.set(
        "sc_trials_per_s",
        s.rate(&points, |p| p.model == Model::Sc),
        "1/s",
    );
    m.set(
        "relaxed_trials_per_s",
        s.rate(&points, |p| p.model != Model::Sc),
        "1/s",
    );
    let (cold, grow) = (s.kept(Timed::Cold), s.kept(Timed::Grow));
    m.set("miss_p50_ms", quantile(&s.cold, 0.5) * cold * 1e3, "ms");
    m.set("miss_p90_ms", quantile(&s.cold, 0.9) * cold * 1e3, "ms");
    m.set("hit_p50_us", quantile(&s.warm, 0.5) * 1e6, "us");
    m.set("hit_p95_us", quantile(&s.warm, 0.95) * 1e6, "us");
    m.set("disk_hit_p50_us", quantile(&s.disk, 0.5) * 1e6, "us");
    m.set("grow_p50_ms", quantile(&s.grow, 0.5) * grow * 1e3, "ms");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    for (name, v) in [
        ("cold", &s.cold),
        ("warm", &s.warm),
        ("disk", &s.disk),
        ("grow", &s.grow),
    ] {
        out.samples.insert(name, v.len() as u64);
    }
    out.samples.insert("throughput", s.throughput_requests);
    for (name, phase) in [
        ("throughput", Timed::Throughput),
        ("cold", Timed::Cold),
        ("grow", Timed::Grow),
    ] {
        if s.stolen[phase as usize].0 > 0.0 {
            out.kept.insert(name, s.kept(phase));
        }
    }
    out.trials_by_model = s.trials_by_model;
    Ok(out)
}

/// What a reduced run of the cache phases alone measured, for the traced
/// run.
pub struct CacheRun {
    /// Warm-hit request latencies, seconds.
    pub warm: Vec<f64>,
    /// Lookups by outcome over every phase.
    pub stats: CacheStats,
}

/// One set-up and the cache phases alone, as the traced run replays them
/// at reduced size.
///
/// # Errors
///
/// As [`run`].
pub fn cache_run(cfg: &Config, out: &mut RunOutput) -> Result<CacheRun, String> {
    let points = cfg.workload.points();
    let dir = cfg.work_dir.join("cold-traced");
    let cache = prepare(cfg, &points, &dir)?;
    let mut d = Driver {
        cfg,
        kind: cfg.workload.kind(),
        s: Samples {
            rates: vec![Vec::new(); points.len()],
            ..Samples::default()
        },
        points,
        dir,
        out,
    };
    d.drive(cache, false)?;
    Ok(CacheRun {
        warm: d.s.warm,
        stats: d.s.stats,
    })
}

/// Exactly one lookup of the expected class happened between two stat
/// snapshots.
fn expect_one(before: CacheStats, after: CacheStats, class: &str) -> Result<(), String> {
    let d = (
        after.hits - before.hits,
        after.misses - before.misses,
        after.extends - before.extends,
    );
    let want = match class {
        "hit" => (1, 0, 0),
        "miss" => (0, 1, 0),
        _ => (0, 0, 1),
    };
    if d == want {
        Ok(())
    } else {
        Err(format!(
            "expected one cache {class}, saw (hits, misses, extends) = {d:?}"
        ))
    }
}
