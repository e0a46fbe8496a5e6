//! The benchmark's only door into the workspace.
//!
//! Every call into a repository crate goes through this module, and the
//! rest of the benchmark sees only the plain types defined here. When an
//! entry point of the workspace moves or is merged, this file is the one
//! to adapt; the workloads, the ledger and the gate stay identical on
//! both sides of the change they measure. No lane API is used.

use memmodel::MemoryModel;
use mmr_core::{RbSurvival, ReliabilityModel, TrialScratch};
use montecarlo::{BernoulliEstimate, ChunkPrefix, Histogram, RunReport, Runner, Seed};
use progmodel::{Program, ProgramGenerator};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use settle::{SettleScratch, Settler};
use shiftproc::{exchangeable, ShiftProcess, ShiftScratch};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use store::{CachedPrefix, CachedReport, KeySpec, RequestKey, Store};

/// Trials per runner chunk; requests are sized in whole chunks.
#[must_use]
pub fn chunk_width() -> u64 {
    montecarlo::CHUNK_WIDTH
}

/// The four named memory models of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Model {
    /// Sequential consistency.
    Sc,
    /// Total store order.
    Tso,
    /// Partial store order.
    Pso,
    /// Weak ordering.
    Wo,
}

impl Model {
    /// All four, in the paper's order.
    pub const ALL: [Model; 4] = [Model::Sc, Model::Tso, Model::Pso, Model::Wo];

    /// Lower-case name used in metric names (`settle.ns.tso`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Model::Sc => "sc",
            Model::Tso => "tso",
            Model::Pso => "pso",
            Model::Wo => "wo",
        }
    }

    fn memory_model(self) -> MemoryModel {
        match self {
            Model::Sc => MemoryModel::Sc,
            Model::Tso => MemoryModel::Tso,
            Model::Pso => MemoryModel::Pso,
            Model::Wo => MemoryModel::Wo,
        }
    }
}

/// One parameter point of the joined model: memory model, threads `n`,
/// filler length `m` and store probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Memory model.
    pub model: Model,
    /// Program threads.
    pub n: usize,
    /// Filler length.
    pub m: usize,
    /// Store probability.
    pub p: f64,
}

impl Point {
    fn reliability(&self) -> ReliabilityModel {
        ReliabilityModel::new(self.model.memory_model(), self.n)
            .with_filler_len(self.m)
            .with_store_probability(self.p)
            .expect("benchmark points use probabilities in [0, 1]")
    }
}

/// Which estimator a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Direct survival Monte Carlo.
    Survival,
    /// Rao-Blackwellised survival.
    Rb,
}

/// A request's result in a form that compares bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Direct Monte Carlo: survivals out of trials.
    Survival {
        /// Trials in which the bug did not manifest.
        successes: u64,
        /// Trials run.
        trials: u64,
    },
    /// Rao-Blackwellised estimate, as IEEE-754 bit patterns.
    Rb {
        /// `log2 Pr[A]`.
        log2_bits: u64,
        /// Mean scaled factor.
        mean_bits: u64,
        /// Standard error of the mean factor.
        sem_bits: u64,
        /// Window vectors sampled.
        samples: u64,
    },
}

fn rb_outcome(rb: &RbSurvival) -> Outcome {
    Outcome::Rb {
        log2_bits: rb.log2_survival.to_bits(),
        mean_bits: rb.mean_factor.to_bits(),
        sem_bits: rb.factor_sem.to_bits(),
        samples: rb.samples,
    }
}

fn bernoulli_outcome(est: &BernoulliEstimate) -> Outcome {
    Outcome::Survival {
        successes: est.successes(),
        trials: est.trials(),
    }
}

/// Runs one request through the public, cache-aware core entry point
/// (the installed store, if any, serves or records it). A panic inside
/// the workspace is returned as an error so the run can count it.
///
/// # Errors
///
/// The panic message when the request panicked.
pub fn request(
    kind: Kind,
    point: Point,
    trials: u64,
    seed: u64,
    threads: usize,
) -> Result<Outcome, String> {
    let model = point.reliability();
    catch_unwind(AssertUnwindSafe(|| match kind {
        Kind::Survival => {
            let runner = Runner::new(Seed(seed)).with_threads(threads);
            bernoulli_outcome(&model.simulate_survival_runner(&runner, trials).value)
        }
        Kind::Rb => rb_outcome(&model.estimate_survival_rb_with(trials, seed, threads)),
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "request panicked".to_string())
    })
}

/// A one-chunk request whose trial does no work: what the runner alone
/// costs per request (dispatch, chunk seeding, merge).
pub fn trivial_request(seed: u64, threads: usize) {
    let runner = Runner::new(Seed(seed)).with_threads(threads);
    let report = runner
        .try_bernoulli_scratch(chunk_width(), || (), |(), _| true)
        .expect("a trivial trial cannot panic");
    std::hint::black_box(report.value.successes());
}

/// Analytic `log2 Pr[A]` bounds for a point: the Theorem 6.2 constants at
/// `n = 2`, the exact SC value (Theorem 6.3) and the Claim B.2 sandwich
/// otherwise. Valid only at the canonical `m = 64`, `p = 1/2`.
#[must_use]
pub fn log2_survival_bounds(point: Point) -> Option<(f64, f64)> {
    point.reliability().log2_survival_bounds()
}

/// The Theorem 4.1 window-growth law `Pr[γ]` of a model.
pub struct WindowLaw(analytic::window_law::WindowLaws);

impl WindowLaw {
    /// Builds the laws of every named model.
    #[must_use]
    pub fn new() -> WindowLaw {
        WindowLaw(analytic::window_law::WindowLaws::new())
    }

    /// `Pr[γ = g]` under `model`.
    #[must_use]
    pub fn pmf(&self, model: Model, g: u64) -> f64 {
        self.0
            .pmf(model.memory_model(), g)
            .expect("named models have a closed-form law")
    }
}

/// Chi-square goodness-of-fit p-value of γ counts (`counts[g]` samples
/// of γ = g) against `pmf`, pooling cells expected below 5.
#[must_use]
pub fn gof_p_value(counts: &[u64], pmf: impl Fn(u64) -> f64) -> f64 {
    let mut hist = Histogram::new();
    for (g, &c) in counts.iter().enumerate() {
        for _ in 0..c {
            hist.record(g as u64);
        }
    }
    montecarlo::chi_square_gof(&hist, pmf, 5.0).p_value
}

/// Process-wide observability switches.
pub fn set_recording(on: bool) {
    obs::set_recording(on);
}

/// Flight-recorder switch.
pub fn set_flight_recording(on: bool) {
    obs::flight::set_flight_recording(on);
}

/// Pool queue wait so far: `(tickets, total µs)`.
#[must_use]
pub fn queue_wait() -> (u64, u64) {
    obs::snapshot()
        .histogram("mc.pool.queue_wait_us")
        .map_or((0, 0), |h| (h.count, h.sum))
}

/// Cache statistics of one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact hits.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups served a resumable prefix.
    pub extends: u64,
    /// Survivable faults.
    pub errors: u64,
    /// Torn tails truncated.
    pub torn_tails: u64,
}

/// A result store, shared with the core entry points when installed.
pub struct Cache(Arc<Store>);

impl Cache {
    /// Opens (or creates) a disk-backed store at `dir`; `memory_budget`
    /// bytes replace the default memory-tier budget when given.
    ///
    /// # Errors
    ///
    /// The store's error, rendered.
    pub fn open(dir: &Path, memory_budget: Option<u64>) -> Result<Cache, String> {
        let store = Store::open(dir).map_err(|e| e.to_string())?;
        let store = match memory_budget {
            Some(bytes) => store.with_memory_budget(bytes),
            None => store,
        };
        Ok(Cache(Arc::new(store)))
    }

    /// Makes this store the one the core entry points consult.
    pub fn install(&self) {
        store::install(Arc::clone(&self.0));
    }

    /// Statistics since the store was opened.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let s = self.0.stats();
        CacheStats {
            hits: s.hits,
            misses: s.misses,
            extends: s.extends,
            errors: s.errors,
            torn_tails: s.torn_tails,
        }
    }
}

/// Removes the installed store: later requests compute uncached.
pub fn uninstall_cache() {
    store::clear();
}

/// Pre-built store traffic for timing `Store::open`, `lookup` and
/// `insert` directly: keys from the public [`KeySpec`], values from real
/// finished survival runs.
pub struct StoreTraffic {
    keys: Vec<RequestKey>,
    reports: Vec<(CachedReport, CachedPrefix)>,
}

impl StoreTraffic {
    /// One entry per `(point, seed)`, keyed as the point's canonical
    /// request of `chunks` chunks. The value is the point's real finished
    /// report (computed once, uncached) for every seed: the store's cost
    /// depends on the entry's shape, not on its counts.
    #[must_use]
    pub fn build(points: &[Point], seeds: &[u64], chunks: u64) -> StoreTraffic {
        let trials = chunks * chunk_width();
        let mut keys = Vec::new();
        let mut reports = Vec::new();
        for point in points {
            let model = point.reliability();
            let report: RunReport<BernoulliEstimate> = model
                .simulate_survival_runner(&Runner::new(Seed(seeds[0])).with_threads(1), trials);
            let prefix = ChunkPrefix {
                chunks,
                trials,
                value: report.value,
            };
            let cached = CachedReport::from_report(&report).expect("clean run");
            for &seed in seeds {
                keys.push(key_spec(point, &model, seed).request(trials, None));
                reports.push((cached.clone(), CachedPrefix::from_prefix(&prefix)));
            }
        }
        StoreTraffic { keys, reports }
    }

    /// Entries held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Inserts every entry into `cache`.
    pub fn insert_all(&self, cache: &Cache) {
        for (key, (report, prefix)) in self.keys.iter().zip(&self.reports) {
            cache.0.insert(key, report.clone(), vec![prefix.clone()]);
        }
    }

    /// Looks every entry up once; returns how many were exact hits.
    #[must_use]
    pub fn lookup_all(&self, cache: &Cache) -> u64 {
        self.keys
            .iter()
            .map(|k| u64::from(matches!(cache.0.lookup(k), store::Lookup::Hit(_))))
            .sum()
    }
}

fn key_spec(point: &Point, model: &ReliabilityModel, seed: u64) -> KeySpec {
    use memmodel::OpType::{Ld, St};
    let settler = model.settler();
    let probs = settler.probs();
    KeySpec {
        kernel: format!("{}/survival", store::KERNEL_VERSION),
        matrix: settler.matrix().to_string(),
        threads_n: model.threads() as u64,
        filler_m: model.filler_len() as u64,
        p_bits: point.p.to_bits(),
        settle_bits: [
            probs.raw(St, St).to_bits(),
            probs.raw(St, Ld).to_bits(),
            probs.raw(Ld, St).to_bits(),
            probs.raw(Ld, Ld).to_bits(),
        ],
        fence_pass_bits: settler.fence_pass_probability().to_bits(),
        acquire_fence: false,
        seed,
        chunk_width: chunk_width(),
        lanes: 0,
    }
}

/// The benchmark's seeded generator.
pub type BenchRng = SmallRng;

/// A seeded generator.
#[must_use]
pub fn rng(seed: u64) -> BenchRng {
    SmallRng::seed_from_u64(seed)
}

/// Wraps a generator and counts the 64-bit words drawn from it. The
/// kernels are generic over the generator, so they run unchanged on it
/// and draw the same stream as on the wrapped one.
pub struct Counting<R> {
    inner: R,
    words: u64,
}

impl<R> Counting<R> {
    /// Wraps `inner` with a zero count.
    pub fn new(inner: R) -> Counting<R> {
        Counting { inner, words: 0 }
    }

    /// Words drawn so far.
    #[must_use]
    pub fn words(&self) -> u64 {
        self.words
    }
}

impl<R: RngCore> RngCore for Counting<R> {
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

/// The per-layer kernels of one point, called in batches over pre-drawn
/// inputs: `batch` programs are regenerated, then settled, then shifted,
/// so each layer runs over the previous layer's real outputs.
pub struct Kernels {
    point: Point,
    model: ReliabilityModel,
    generator: ProgramGenerator,
    settler: Settler,
    shift: ShiftProcess,
    programs: Vec<Program>,
    windows: Vec<u64>,
    settle: SettleScratch,
    shift_scratch: ShiftScratch,
    trial: TrialScratch,
}

impl Kernels {
    /// Buffers for `batch` trials at `point`.
    #[must_use]
    pub fn new(point: Point, batch: usize) -> Kernels {
        let model = point.reliability();
        let generator = ProgramGenerator::new(point.m)
            .with_store_probability(point.p)
            .expect("benchmark points use probabilities in [0, 1]");
        let template = Program::from_filler_types(&vec![memmodel::OpType::Ld; point.m])
            .expect("canonical program shape is valid");
        Kernels {
            point,
            model,
            generator,
            settler: *model.settler(),
            shift: ShiftProcess::canonical(),
            programs: vec![template.clone(); batch],
            windows: vec![0; batch * point.n],
            settle: SettleScratch::with_capacity(template.len()),
            shift_scratch: ShiftScratch::with_capacity(point.n),
            trial: model.scratch(),
        }
    }

    /// `program` layer: regenerates every program in place.
    pub fn regenerate_all<R: RngCore>(&mut self, rng: &mut R) {
        for program in &mut self.programs {
            self.generator.regenerate(program, rng);
        }
    }

    /// `settle` layer: `n` settles of each program, γ into the window
    /// buffer.
    pub fn settle_all<R: RngCore>(&mut self, rng: &mut R) {
        for (program, out) in self
            .programs
            .iter()
            .zip(self.windows.chunks_mut(self.point.n))
        {
            self.settler
                .sample_gammas_scratch(program, out, &mut self.settle, rng);
        }
    }

    /// The γ values of the last settle pass.
    #[must_use]
    pub fn gammas(&self) -> &[u64] {
        &self.windows
    }

    /// `shiftproc` layer: shifts each trial's windows (`Γ = γ + 2`);
    /// returns how many trials survived.
    pub fn shift_all<R: RngCore>(&mut self, rng: &mut R) -> u64 {
        let mut lengths = vec![0u64; self.point.n];
        let mut survived = 0;
        for gammas in self.windows.chunks(self.point.n) {
            for (l, g) in lengths.iter_mut().zip(gammas) {
                *l = g + 2;
            }
            survived += u64::from(self.shift.simulate_disjoint_into(
                &lengths,
                &mut self.shift_scratch,
                rng,
            ));
        }
        survived
    }

    /// The Rao-Blackwell factor of each trial's windows (`shiftproc`'s
    /// exchangeable evaluation, no shift simulation); returns their sum.
    #[must_use]
    pub fn factor_all(&self) -> f64 {
        let mut lengths = vec![0u64; self.point.n];
        let mut sum = 0.0;
        for gammas in self.windows.chunks(self.point.n) {
            for (l, g) in lengths.iter_mut().zip(gammas) {
                *l = g + 2;
            }
            sum += exchangeable::sample_factor(&lengths, 2);
        }
        sum
    }

    /// The whole survival trial as `core` composes it, `batch` times
    /// serially on one scratch; returns the survivals.
    pub fn survival_trials<R: RngCore>(&mut self, rng: &mut R) -> u64 {
        let mut survived = 0;
        for _ in 0..self.programs.len() {
            survived += u64::from(
                self.model
                    .simulate_survival_once_scratch(&mut self.trial, rng),
            );
        }
        survived
    }

    /// The whole Rao-Blackwell sample as `core` composes it, `batch`
    /// times serially; returns the factor sum.
    pub fn rb_trials<R: RngCore>(&mut self, rng: &mut R) -> f64 {
        let mut sum = 0.0;
        for _ in 0..self.programs.len() {
            let windows = self.model.sample_windows_scratch(&mut self.trial, rng);
            sum += exchangeable::sample_factor(windows, 2);
        }
        sum
    }

    /// Builds `count` fresh trial scratches (`ReliabilityModel::scratch`).
    pub fn scratches(&self, count: usize) {
        for _ in 0..count {
            std::hint::black_box(self.model.scratch());
        }
    }
}
