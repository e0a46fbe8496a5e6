//! Bit-exact serializable accumulator state and the cached-entry records.
//!
//! The cache stores merged runner accumulators, so a warm lookup must
//! reconstruct *the same value*, not a numerically-close one. Integers
//! round-trip trivially; Welford's floats are stored as IEEE-754 bit
//! patterns (`u64`), never as formatted decimals, because Chan's merge is
//! not associative and a reconstructed accumulator has to re-enter the
//! fold exactly where the producing run left it.

use montecarlo::{BernoulliEstimate, ChunkPrefix, Histogram, RunReport, Welford};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Serialized [`BernoulliEstimate`]: plain counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BernoulliState {
    /// Successes.
    pub successes: u64,
    /// Trials.
    pub trials: u64,
}

/// Serialized [`Welford`]: count plus both floats as bit patterns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeanState {
    /// Observation count.
    pub count: u64,
    /// Mean, as IEEE-754 bits.
    pub mean_bits: u64,
    /// Sum of squared deviations, as IEEE-754 bits.
    pub m2_bits: u64,
}

/// Serialized [`Histogram`]: the dense counts (total is recomputed).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistState {
    /// Per-value counts, densely indexed from zero.
    pub counts: Vec<u64>,
}

/// One runner accumulator in serializable form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccState {
    /// A Bernoulli success/trial estimate.
    Bernoulli(BernoulliState),
    /// A Welford mean/variance accumulator.
    Mean(MeanState),
    /// A dense integer histogram.
    Hist(HistState),
}

/// Bit-exact round-tripping between a runner accumulator and [`AccState`].
pub trait CacheableAcc: Sized {
    /// Serializes the accumulator.
    fn to_state(&self) -> AccState;
    /// Rebuilds the accumulator; `None` when the state is a different
    /// accumulator kind or holds values no run could have produced (a
    /// corrupt or mismatched cache record).
    fn from_state(state: &AccState) -> Option<Self>;
}

impl CacheableAcc for BernoulliEstimate {
    fn to_state(&self) -> AccState {
        AccState::Bernoulli(BernoulliState {
            successes: self.successes(),
            trials: self.trials(),
        })
    }

    fn from_state(state: &AccState) -> Option<BernoulliEstimate> {
        match state {
            AccState::Bernoulli(s) if s.successes <= s.trials => {
                Some(BernoulliEstimate::from_counts(s.successes, s.trials))
            }
            _ => None,
        }
    }
}

impl CacheableAcc for Welford {
    fn to_state(&self) -> AccState {
        let (count, mean_bits, m2_bits) = self.raw_parts();
        AccState::Mean(MeanState {
            count,
            mean_bits,
            m2_bits,
        })
    }

    fn from_state(state: &AccState) -> Option<Welford> {
        match state {
            AccState::Mean(s) => Some(Welford::from_raw_parts(s.count, s.mean_bits, s.m2_bits)),
            _ => None,
        }
    }
}

impl CacheableAcc for Histogram {
    fn to_state(&self) -> AccState {
        AccState::Hist(HistState {
            counts: self.dense_counts().to_vec(),
        })
    }

    fn from_state(state: &AccState) -> Option<Histogram> {
        match state {
            AccState::Hist(s) => Histogram::from_dense_counts(s.counts.clone()),
            _ => None,
        }
    }
}

/// A cached whole-chunk prefix ([`ChunkPrefix`] in serializable form).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedPrefix {
    /// Whole chunks merged into `value`.
    pub chunks: u64,
    /// Trials merged into `value` (`chunks * CHUNK_WIDTH`).
    pub trials: u64,
    /// The merged accumulator.
    pub value: AccState,
}

impl CachedPrefix {
    /// Serializes a runner prefix.
    #[must_use]
    pub fn from_prefix<A: CacheableAcc>(prefix: &ChunkPrefix<A>) -> CachedPrefix {
        CachedPrefix {
            chunks: prefix.chunks,
            trials: prefix.trials,
            value: prefix.value.to_state(),
        }
    }

    /// Rebuilds a runner prefix; `None` on an accumulator-kind mismatch
    /// or an inconsistent (or overflowing) chunk/trial pair.
    #[must_use]
    pub fn to_prefix<A: CacheableAcc>(&self) -> Option<ChunkPrefix<A>> {
        if self.chunks.checked_mul(montecarlo::CHUNK_WIDTH) != Some(self.trials) {
            return None;
        }
        Some(ChunkPrefix {
            chunks: self.chunks,
            trials: self.trials,
            value: A::from_state(&self.value)?,
        })
    }
}

/// A finished run's deterministic outcome — everything a warm lookup
/// needs to reproduce the producing [`RunReport`] bit for bit.
///
/// Only *clean* runs are cached (not truncated, not degraded, nothing
/// abandoned), so those flags are not stored: reconstruction always
/// reports the canonical fault-free run. `retried_chunks` is likewise
/// pinned to zero — a retried chunk replays its exact stream, so the
/// value is identical to the fault-free run's and the cache serves the
/// canonical form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedReport {
    /// The merged accumulator over all completed trials.
    pub value: AccState,
    /// Trials the producing run was asked for.
    pub trials_requested: u64,
    /// Trials that contributed to `value`.
    pub trials_completed: u64,
    /// Whether a `with_target_rse` target stopped the run early.
    pub converged_early: bool,
}

impl CachedReport {
    /// Serializes a clean run report. Returns `None` for reports the
    /// cache must not store: truncated or degraded runs are partial,
    /// timing-dependent estimates, not pure functions of the key.
    #[must_use]
    pub fn from_report<A: CacheableAcc>(report: &RunReport<A>) -> Option<CachedReport> {
        if report.truncated || report.degraded || report.abandoned_chunks > 0 {
            return None;
        }
        Some(CachedReport {
            value: report.value.to_state(),
            trials_requested: report.trials_requested,
            trials_completed: report.trials_completed,
            converged_early: report.converged_early,
        })
    }

    /// Reconstructs the canonical fault-free [`RunReport`]; `None` on an
    /// accumulator-kind mismatch.
    #[must_use]
    pub fn to_report<A: CacheableAcc>(&self) -> Option<RunReport<A>> {
        Some(RunReport {
            value: A::from_state(&self.value)?,
            trials_requested: self.trials_requested,
            trials_completed: self.trials_completed,
            truncated: false,
            retried_chunks: 0,
            converged_early: self.converged_early,
            degraded: false,
            abandoned_chunks: 0,
            elapsed: Duration::ZERO,
        })
    }
}

/// One cache entry: the full canonical strings (collision guard — the
/// 128-bit content address names the entry, the canon verifies it), the
/// finished report, and the chunk prefixes later runs can extend.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entry {
    /// Canonical request string ([`crate::RequestKey::canon`]).
    pub canon: String,
    /// Canonical family string (the extension index key).
    pub family: String,
    /// The finished result.
    pub report: CachedReport,
    /// Whole-chunk prefixes captured by the producing run, ascending.
    pub prefixes: Vec<CachedPrefix>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_roundtrips() {
        let est = BernoulliEstimate::from_counts(123, 4567);
        let back = BernoulliEstimate::from_state(&est.to_state()).unwrap();
        assert_eq!(back, est);
    }

    #[test]
    fn welford_roundtrips_bit_exactly() {
        let mut w = Welford::new();
        for x in [0.1, 0.7, -3.25, 1e-17, 2.5e8] {
            w.record(x);
        }
        let back = Welford::from_state(&w.to_state()).unwrap();
        assert_eq!(back.raw_parts(), w.raw_parts());
    }

    #[test]
    fn histogram_roundtrips() {
        let h: Histogram = [0u64, 2, 2, 7, 2].into_iter().collect();
        let back = Histogram::from_state(&h.to_state()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn kind_mismatch_is_none_not_garbage() {
        let est = BernoulliEstimate::from_counts(1, 2);
        assert!(Welford::from_state(&est.to_state()).is_none());
        assert!(Histogram::from_state(&est.to_state()).is_none());
    }

    #[test]
    fn out_of_range_disk_values_decode_to_none() {
        // CRC-valid but impossible records: the seam must see `None` (and
        // recompute), never a panic.
        let overflowing = AccState::Hist(HistState {
            counts: vec![u64::MAX, 1],
        });
        assert!(Histogram::from_state(&overflowing).is_none());
        let report = CachedReport {
            value: overflowing.clone(),
            trials_requested: 1,
            trials_completed: 1,
            converged_early: false,
        };
        assert!(report.to_report::<Histogram>().is_none());
        let prefix = CachedPrefix {
            chunks: 4,
            trials: 4 * montecarlo::CHUNK_WIDTH,
            value: overflowing,
        };
        assert!(prefix.to_prefix::<Histogram>().is_none());
        // `chunks * CHUNK_WIDTH` overflows u64: refused, even when `trials`
        // holds the wrapped product.
        let chunks = u64::MAX / montecarlo::CHUNK_WIDTH + 1;
        let wrapped = CachedPrefix {
            chunks,
            trials: chunks.wrapping_mul(montecarlo::CHUNK_WIDTH),
            value: BernoulliEstimate::new().to_state(),
        };
        assert!(wrapped.to_prefix::<BernoulliEstimate>().is_none());
    }

    #[test]
    fn json_roundtrip_through_the_shim() {
        let entry = Entry {
            canon: "mmrk1|…|trials=100|rse=-".into(),
            family: "mmrk1|…".into(),
            report: CachedReport {
                value: AccState::Mean(MeanState {
                    count: 9,
                    mean_bits: 0.30000000000000004f64.to_bits(),
                    m2_bits: (-0.0f64).to_bits(),
                }),
                trials_requested: 100,
                trials_completed: 100,
                converged_early: false,
            },
            prefixes: vec![CachedPrefix {
                chunks: 4,
                trials: 4 * montecarlo::CHUNK_WIDTH,
                value: AccState::Hist(HistState {
                    counts: vec![1, 0, 3],
                }),
            }],
        };
        let json = serde_json::to_string(&entry).unwrap();
        let back: Entry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, entry);
    }

    #[test]
    fn dirty_reports_are_refused() {
        let report = RunReport {
            value: BernoulliEstimate::from_counts(1, 10),
            trials_requested: 100,
            trials_completed: 10,
            truncated: true,
            retried_chunks: 0,
            converged_early: false,
            degraded: false,
            abandoned_chunks: 0,
            elapsed: Duration::ZERO,
        };
        assert!(CachedReport::from_report(&report).is_none());
    }
}
