//! The traced run: a trial's cost split by layer, timed from outside.
//!
//! Each layer is driven through its public kernel in batches over the
//! previous layer's real outputs — `program` regenerates a batch of
//! programs, `settle` settles each `n` times, `shiftproc` shifts or
//! factors the resulting windows — with one clock read per batch, never
//! per call (a clock read per call inflates the parts past the whole).
//! The untraced whole trial is timed the same way, so the residual
//! `core.trial_ns − Σ parts` is what the parts leave unexplained. A
//! separate pass on a counting generator gives exact draws per call and
//! the traced pipeline's cost (`trace.overhead`).
//!
//! Above the kernels the ledger times the runner (`montecarlo`), the
//! store (`store`), the cache seam between them (`core`), and the
//! observability switches (`obs`). Every metric is emitted on every
//! workload; a layer a workload never calls reads 0.

use crate::adapter::{self, Cache, Counting, Kernels, Kind, Model, Point, StoreTraffic, WindowLaw};
use crate::gate;
use crate::report::{median, mix};
use crate::workloads::{self, Config, RunOutput, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Programs per batch: small enough that a batch's programs and windows
/// stay in a core's L2 cache, as the fused kernel's single scratch does.
const BATCH: usize = 256;

/// Batches in the counting pass; fixed, so draw counts repeat exactly
/// for a seed.
const COUNT_BATCHES: usize = 64;

/// Timed batches per point at least, whatever the budget.
const MIN_BATCHES: usize = 8;

/// The points whose layers the ledger splits: the workload's own points
/// for `survival_n2` and `scaling_rb`, and the grid's centre column
/// (`n = 3`, `m = 32`, `p = 1/2`) for `sweep_cache`.
#[must_use]
fn ledger_points(workload: Workload) -> Vec<Point> {
    match workload {
        Workload::SweepCache => Model::ALL
            .iter()
            .map(|&model| Point {
                model,
                n: 3,
                m: 32,
                p: 0.5,
            })
            .collect(),
        w => w.points(),
    }
}

/// Per-trial costs of one point, in nanoseconds (draws in words).
#[derive(Debug, Default, Clone, Copy)]
struct PointLedger {
    regenerate_ns: f64,
    settle_ns: f64,
    shift_ns: f64,
    factor_ns: f64,
    trial_ns: f64,
    traced_ns: f64,
    regenerate_draws: f64,
    settle_draws: f64,
    shift_draws: f64,
    scratch_ns: f64,
    runner_overhead_ns: f64,
    scaling_eff: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Splits one point's trial by layer. `counts` receives its γ histogram.
fn kernel_ledger(
    kind: Kind,
    point: Point,
    seed: u64,
    budget: Duration,
    counts: &mut Vec<u64>,
) -> PointLedger {
    let mut k = Kernels::new(point, BATCH);
    let mut rng = adapter::rng(seed);
    let (mut regen, mut settle, mut shift, mut trial) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while regen.len() < MIN_BATCHES || start.elapsed() < budget {
        regen.push(timed(|| k.regenerate_all(&mut rng)).1);
        settle.push(timed(|| k.settle_all(&mut rng)).1);
        shift.push(match kind {
            Kind::Survival => timed(|| std::hint::black_box(k.shift_all(&mut rng))).1,
            Kind::Rb => timed(|| std::hint::black_box(k.factor_all())).1,
        });
        trial.push(match kind {
            Kind::Survival => timed(|| std::hint::black_box(k.survival_trials(&mut rng))).1,
            Kind::Rb => timed(|| std::hint::black_box(k.rb_trials(&mut rng))).1,
        });
    }
    let med = |v: &[Duration]| median(&v.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());
    let ns = |v: &[Duration]| med(v) * 1e9 / BATCH as f64;

    // Counting pass: the same staged pipeline on a counting generator.
    let mut crng = Counting::new(adapter::rng(mix(seed, 7)));
    let (mut words, mut traced) = ([0u64; 3], Vec::new());
    for _ in 0..COUNT_BATCHES {
        let w0 = crng.words();
        let (_, a) = timed(|| k.regenerate_all(&mut crng));
        let w1 = crng.words();
        let (_, b) = timed(|| k.settle_all(&mut crng));
        let w2 = crng.words();
        let (_, c) = match kind {
            Kind::Survival => timed(|| {
                std::hint::black_box(k.shift_all(&mut crng));
            }),
            Kind::Rb => timed(|| {
                std::hint::black_box(k.factor_all());
            }),
        };
        words[0] += w1 - w0;
        words[1] += w2 - w1;
        words[2] += crng.words() - w2;
        traced.push(a + b + c);
        for &g in k.gammas() {
            let g = g as usize;
            if counts.len() <= g {
                counts.resize(g + 1, 0);
            }
            counts[g] += 1;
        }
    }
    let calls = (COUNT_BATCHES * BATCH) as f64;
    let (shift_ns, factor_ns) = match kind {
        Kind::Survival => (ns(&shift), 0.0),
        Kind::Rb => (0.0, ns(&shift)),
    };
    PointLedger {
        regenerate_ns: ns(&regen),
        settle_ns: ns(&settle) / point.n as f64,
        shift_ns,
        factor_ns,
        trial_ns: ns(&trial),
        traced_ns: ns(&traced),
        regenerate_draws: words[0] as f64 / calls,
        settle_draws: words[1] as f64 / (calls * point.n as f64),
        shift_draws: words[2] as f64 / calls,
        ..PointLedger::default()
    }
}

/// The runner against the bare kernel: each repetition times a request
/// of `chunks` chunks at one thread, the same number of serial kernel
/// trials right after it, and the request at `threads`. Returns the
/// runner's ns per trial beyond the kernel, and its scaling efficiency.
fn runner_ledger(
    kind: Kind,
    point: Point,
    chunks: u64,
    seed: u64,
    threads: usize,
) -> Result<(f64, f64), String> {
    let trials = chunks * adapter::chunk_width();
    let mut k = Kernels::new(point, BATCH);
    let mut rng = adapter::rng(seed);
    let (mut over, mut one, mut many) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..5 {
        let s = mix(seed, rep);
        let (r, runner) = timed(|| adapter::request(kind, point, trials, s, 1));
        r?;
        let (_, bare) = timed(|| {
            for _ in 0..trials / BATCH as u64 {
                match kind {
                    Kind::Survival => {
                        std::hint::black_box(k.survival_trials(&mut rng));
                    }
                    Kind::Rb => {
                        std::hint::black_box(k.rb_trials(&mut rng));
                    }
                }
            }
        });
        let (r, parallel) = timed(|| adapter::request(kind, point, trials, s, threads));
        r?;
        over.push((runner.as_secs_f64() - bare.as_secs_f64()) * 1e9 / trials as f64);
        one.push(runner.as_secs_f64());
        many.push(parallel.as_secs_f64());
    }
    Ok((
        median(&over),
        median(&one) / (median(&many) * threads as f64),
    ))
}

/// Throughput with a switch on over throughput with it off, alternating
/// arms, over one request per point.
fn switch_ratio(
    kind: Kind,
    points: &[Point],
    chunks: &[u64],
    seed: u64,
    threads: usize,
    set: impl Fn(bool),
) -> Result<f64, String> {
    let mut on = Vec::new();
    let mut off = Vec::new();
    for rep in 0..3u64 {
        for arm in [true, false] {
            set(arm);
            let mut secs = 0.0;
            for (i, (&p, &c)) in points.iter().zip(chunks).enumerate() {
                let s = mix(seed, rep << 8 | i as u64);
                let (r, d) =
                    timed(|| adapter::request(kind, p, c * adapter::chunk_width(), s, threads));
                r?;
                secs += d.as_secs_f64();
            }
            if arm {
                on.push(secs)
            } else {
                off.push(secs)
            };
        }
    }
    set(true);
    Ok(median(&off) / median(&on))
}

/// Runs the traced ledger of a workload and returns its per-layer
/// metrics.
///
/// # Errors
///
/// When a store cannot be opened or a ledger request fails.
pub fn run(cfg: &Config) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let kind = cfg.workload.kind();
    let points = ledger_points(cfg.workload);
    let law = WindowLaw::new();
    adapter::uninstall_cache();
    let budget = Duration::from_secs_f64(cfg.seconds * 0.3 / points.len() as f64);

    // Kernel layers, per point, and the γ law gate per model.
    let mut ledgers = Vec::new();
    let mut gammas: BTreeMap<Model, Vec<u64>> = BTreeMap::new();
    for (i, &point) in points.iter().enumerate() {
        let counts = gammas.entry(point.model).or_default();
        let mut l = kernel_ledger(kind, point, mix(cfg.seed, i as u64), budget, counts);
        let k = Kernels::new(point, 1);
        let reps = 200;
        let times: Vec<f64> = (0..9)
            .map(|_| timed(|| k.scratches(reps)).1.as_secs_f64() * 1e9 / reps as f64)
            .collect();
        l.scratch_ns = median(&times);
        ledgers.push(l);
    }
    for (model, counts) in &gammas {
        out.tally.record(gate::check_window_law(
            |g| law.pmf(*model, g),
            *model,
            counts,
        ));
    }

    // Runner layer.
    let (q0, w0) = adapter::queue_wait();
    let chunks: Vec<u64> = points
        .iter()
        .map(|&p| runner_chunks(cfg.workload, p))
        .collect();
    for (i, &point) in points.iter().enumerate() {
        let (over, eff) = runner_ledger(
            kind,
            point,
            chunks[i],
            mix(cfg.seed, 100 + i as u64),
            cfg.threads,
        )?;
        ledgers[i].runner_overhead_ns = over;
        ledgers[i].scaling_eff = eff;
    }
    let (q1, w1) = adapter::queue_wait();
    let request_us: Vec<f64> = (0..200)
        .map(|i| {
            timed(|| adapter::trivial_request(mix(cfg.seed, 300 + i), cfg.threads))
                .1
                .as_secs_f64()
                * 1e6
        })
        .collect();

    // Observability switches, on the same requests.
    let recording = switch_ratio(
        kind,
        &points,
        &chunks,
        cfg.seed,
        cfg.threads,
        adapter::set_recording,
    )?;
    let flight = switch_ratio(
        kind,
        &points,
        &chunks,
        cfg.seed ^ 1,
        cfg.threads,
        adapter::set_flight_recording,
    )?;

    // Store layer, timed directly.
    let store = store_ledger(cfg, &points)?;

    // The workload's own cache phases, reduced, for the hit path through
    // core and the store's hit and extension ratios.
    let reduced = Config {
        seconds: cfg.seconds * 0.1,
        min_samples: [24, 400, 24, 12],
        cycles: 1,
        ..cfg.clone()
    };
    let phases = workloads::cache_run(&reduced, &mut out)?;

    // Per model: the mean over the model's points.
    let m = &mut out.metrics;
    let mean_of = |model: Model, f: &dyn Fn(&PointLedger, &Point) -> f64| {
        let v: Vec<f64> = ledgers
            .iter()
            .zip(&points)
            .filter(|(_, p)| p.model == model)
            .map(|(l, p)| f(l, p))
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    for model in Model::ALL {
        let name = model.name();
        let g = |f: &dyn Fn(&PointLedger, &Point) -> f64| mean_of(model, f);
        m.set(format!("settle.ns.{name}"), g(&|l, _| l.settle_ns), "ns");
        m.set(
            format!("settle.draws.{name}"),
            g(&|l, _| l.settle_draws),
            "count",
        );
        m.set(
            format!("shiftproc.disjoint_ns.{name}"),
            g(&|l, _| l.shift_ns),
            "ns",
        );
        m.set(
            format!("shiftproc.draws.{name}"),
            g(&|l, _| l.shift_draws),
            "count",
        );
        m.set(
            format!("shiftproc.factor_ns.{name}"),
            g(&|l, _| l.factor_ns),
            "ns",
        );
        m.set(format!("core.trial_ns.{name}"), g(&|l, _| l.trial_ns), "ns");
        m.set(
            format!("core.residual_ns.{name}"),
            g(&|l, p| {
                l.trial_ns - (l.regenerate_ns + p.n as f64 * l.settle_ns + l.shift_ns + l.factor_ns)
            }),
            "ns",
        );
        m.set(
            format!("core.scratch_ns.{name}"),
            g(&|l, _| l.scratch_ns),
            "ns",
        );
        m.set(
            format!("montecarlo.overhead_ns.{name}"),
            g(&|l, _| l.runner_overhead_ns),
            "ns",
        );
        m.set(
            format!("montecarlo.scaling_eff.{name}"),
            g(&|l, _| l.scaling_eff),
            "ratio",
        );
        m.set(
            format!("trace.overhead.{name}"),
            g(&|l, _| l.traced_ns / l.trial_ns),
            "ratio",
        );
    }
    let all =
        |f: &dyn Fn(&PointLedger) -> f64| ledgers.iter().map(f).sum::<f64>() / ledgers.len() as f64;
    m.set("program.regenerate_ns", all(&|l| l.regenerate_ns), "ns");
    m.set("program.draws", all(&|l| l.regenerate_draws), "count");
    m.set(
        "shiftproc.calls_per_trial",
        if kind == Kind::Survival { 1.0 } else { 0.0 },
        "count",
    );
    m.set("montecarlo.request_us", median(&request_us), "us");
    m.set(
        "montecarlo.queue_wait_us",
        if q1 > q0 {
            (w1 - w0) as f64 / (q1 - q0) as f64
        } else {
            0.0
        },
        "us",
    );
    m.set("obs.recording_ratio", recording, "ratio");
    m.set("obs.flight_ratio", flight, "ratio");
    m.set("store.open_ms", store.open_ms, "ms");
    m.set("store.lookup_us", store.lookup_us, "us");
    m.set("store.lookup_disk_us", store.lookup_disk_us, "us");
    m.set("store.insert_us", store.insert_us, "us");
    m.set("store.bytes_per_entry", store.bytes_per_entry, "bytes");
    let s = phases.stats;
    let lookups = (s.hits + s.misses + s.extends).max(1) as f64;
    m.set("store.hit_ratio", s.hits as f64 / lookups, "ratio");
    m.set("store.extend_ratio", s.extends as f64 / lookups, "ratio");
    m.set("store.errors", s.errors as f64, "count");
    m.set("store.torn_tails", s.torn_tails as f64, "count");
    m.set(
        "core.cache_seam_us",
        median(&phases.warm) * 1e6 - store.lookup_us,
        "us",
    );
    out.samples.insert("ledger_points", points.len() as u64);
    out.samples.insert("store_entries", store.entries as u64);
    Ok(out)
}

/// Chunks per runner-ledger request: a sixth of a throughput request,
/// 16 on the sweep's centre points.
fn runner_chunks(workload: Workload, point: Point) -> u64 {
    workload
        .throughput_chunks(point)
        .map_or(16, |c| (c / 6).max(2))
}

struct StoreLedger {
    entries: usize,
    open_ms: f64,
    lookup_us: f64,
    lookup_disk_us: f64,
    insert_us: f64,
    bytes_per_entry: f64,
}

/// Times `Store::insert`, `lookup` (memory and segment tier) and `open`
/// directly, on keys built from the public key spec.
fn store_ledger(cfg: &Config, points: &[Point]) -> Result<StoreLedger, String> {
    let per_point = (128 / points.len()).max(2) as u64;
    let seeds: Vec<u64> = (0..per_point).map(|i| mix(cfg.seed, 500 + i)).collect();
    let traffic = StoreTraffic::build(points, &seeds, 1);
    let n = traffic.len();
    let dir = cfg.work_dir.join("store-ledger");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cache = Cache::open(&dir, None)?;
    let (_, insert) = timed(|| traffic.insert_all(&cache));
    let mut lookups = Vec::new();
    for _ in 0..9 {
        let (hits, d) = timed(|| traffic.lookup_all(&cache));
        if hits != n as u64 {
            return Err(format!("store ledger: {hits} of {n} memory lookups hit"));
        }
        lookups.push(d.as_secs_f64() * 1e6 / n as f64);
    }
    drop(cache);
    let mut opens = Vec::new();
    let mut disk = Vec::new();
    for _ in 0..5 {
        let (c, d) = timed(|| Cache::open(&dir, Some(1)));
        let c = c?;
        opens.push(d.as_secs_f64() * 1e3);
        let (hits, d) = timed(|| traffic.lookup_all(&c));
        if hits != n as u64 {
            return Err(format!("store ledger: {hits} of {n} segment lookups hit"));
        }
        disk.push(d.as_secs_f64() * 1e6 / n as f64);
    }
    let bytes: u64 = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(StoreLedger {
        entries: n,
        open_ms: median(&opens),
        lookup_us: median(&lookups),
        lookup_disk_us: median(&disk),
        insert_us: insert.as_secs_f64() * 1e6 / n as f64,
        bytes_per_entry: bytes as f64 / n as f64,
    })
}
