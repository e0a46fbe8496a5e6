//! The correctness gate: every request's result is checked against the
//! paper's exact laws or against its own cold and uncached twins, and a
//! request that fails counts into the run's `failed`.

use crate::adapter::{self, Model, Outcome, Point};

/// Standard errors of slack the statistical checks allow (for direct
/// survival, the same in Chernoff terms). At six, a correct estimate
/// fails with probability below 1e-8 per check.
pub const Z: f64 = 6.0;

/// Lowest chi-square p-value a γ histogram may have against its law.
pub const LAW_ALPHA: f64 = 1e-6;

/// The analytic reference values the gate compares against. Real runs use
/// [`Reference::paper`]; the self-tests shift the constants to prove that
/// the gate trips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// Added to every analytic `log2 Pr[A]` bound (0 in the paper's
    /// reference).
    pub log2_offset: f64,
}

impl Reference {
    /// The paper's constants, unchanged.
    #[must_use]
    pub fn paper() -> Reference {
        Reference { log2_offset: 0.0 }
    }

    /// `log2 Pr[A]` bounds of a canonical point (`m = 64`, `p = 1/2`):
    /// Theorem 6.2 at `n = 2`, Theorem 6.3 for SC, Claim B.2 otherwise.
    #[must_use]
    pub fn log2_bounds(&self, point: Point) -> Option<(f64, f64)> {
        if point.m != 64 || point.p != 0.5 {
            return None;
        }
        adapter::log2_survival_bounds(point)
            .map(|(lo, hi)| (lo + self.log2_offset, hi + self.log2_offset))
    }
}

/// Checks a result against the analytic bounds of its point, where the
/// point has them. `Err` names what failed.
///
/// * Direct survival: the count is plausible under the bound interval
///   (see [`check_survival`]).
/// * Rao-Blackwell, SC: the estimate is exact (SC windows are fixed).
/// * Rao-Blackwell, other models: the estimate lies inside the bounds,
///   widened by [`Z`] standard errors of the mean factor.
///
/// # Errors
///
/// A description of the violated bound.
pub fn check_statistics(
    reference: &Reference,
    point: Point,
    outcome: &Outcome,
) -> Result<(), String> {
    let Some((lo, hi)) = reference.log2_bounds(point) else {
        return Ok(());
    };
    match *outcome {
        Outcome::Survival { successes, trials } => {
            check_survival(successes, trials, 2f64.powf(lo), 2f64.powf(hi))
        }
        Outcome::Rb {
            log2_bits,
            mean_bits,
            sem_bits,
            ..
        } => {
            let log2 = f64::from_bits(log2_bits);
            if point.model == Model::Sc && point.n > 2 {
                return if (log2 - lo).abs() < 1e-9 && (log2 - hi).abs() < 1e-9 {
                    Ok(())
                } else {
                    Err(format!("SC n={}: log2 {log2} != exact {lo}", point.n))
                };
            }
            let mean = f64::from_bits(mean_bits);
            let slack = Z * f64::from_bits(sem_bits) / mean / std::f64::consts::LN_2 + 1e-6;
            if log2 >= lo - slack && log2 <= hi + slack {
                Ok(())
            } else {
                Err(format!(
                    "{} n={}: log2 {log2} outside [{lo}, {hi}] ± {slack}",
                    point.model.name(),
                    point.n
                ))
            }
        }
    }
}

/// A survival count plausible under some probability in `[lo, hi]`: the
/// Chernoff bound `exp(−N·KL(p̂ ‖ p))` on the binomial tail beyond the
/// nearer bound stays above `e^{−Z²/2}` (about 1.5e-8). Unlike a normal
/// approximation it holds for the rare survivals of large `n`, where a
/// small request expects less than one success.
///
/// # Errors
///
/// A description of the violated bound.
pub fn check_survival(successes: u64, trials: u64, lo: f64, hi: f64) -> Result<(), String> {
    if trials == 0 {
        return Err("no trials".to_string());
    }
    let est = successes as f64 / trials as f64;
    let edge = est.clamp(lo, hi);
    let information = trials as f64 * kl_bernoulli(est, edge);
    if information <= Z * Z / 2.0 {
        Ok(())
    } else {
        Err(format!(
            "survival {est} over {trials} trials outside [{lo}, {hi}] (N·KL = {information:.1})"
        ))
    }
}

/// `KL(a ‖ b)` between Bernoulli laws, in nats (`0 · ln 0 = 0`).
fn kl_bernoulli(a: f64, b: f64) -> f64 {
    let term = |x: f64, y: f64| if x == 0.0 { 0.0 } else { x * (x / y).ln() };
    term(a, b) + term(1.0 - a, 1.0 - b)
}

/// A γ histogram (`counts[g]` settles with γ = g) consistent with the
/// Theorem 4.1 law of `model`.
///
/// # Errors
///
/// The chi-square p-value when it falls below [`LAW_ALPHA`].
pub fn check_window_law(
    law: impl Fn(u64) -> f64,
    model: Model,
    counts: &[u64],
) -> Result<(), String> {
    // A point-mass law (SC: γ ≡ 0) has nothing to test but its support.
    if let Some(g) = (0..counts.len() as u64).find(|&g| law(g) >= 1.0 - 1e-12) {
        let off: u64 = counts
            .iter()
            .enumerate()
            .filter(|&(i, _)| i as u64 != g)
            .map(|(_, c)| c)
            .sum();
        return if off == 0 {
            Ok(())
        } else {
            Err(format!(
                "{}: {off} settles off the law's single value γ = {g}",
                model.name()
            ))
        };
    }
    let p = adapter::gof_p_value(counts, law);
    if p >= LAW_ALPHA {
        Ok(())
    } else {
        Err(format!(
            "{}: γ histogram fails the window law (p = {p:e})",
            model.name()
        ))
    }
}

/// A cached result equal bit for bit to its reference twin.
///
/// # Errors
///
/// Both results, when they differ.
pub fn check_identical(what: &str, got: &Outcome, want: &Outcome) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got:?} != {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canonical(model: Model, n: usize) -> Point {
        Point {
            model,
            n,
            m: 64,
            p: 0.5,
        }
    }

    #[test]
    fn survival_band_accepts_the_constant_and_rejects_far_values() {
        // SC at n = 2 survives with probability exactly 1/6.
        assert!(check_survival(1_000_000 / 6, 1_000_000, 1.0 / 6.0, 1.0 / 6.0).is_ok());
        assert!(check_survival(200_000, 1_000_000, 1.0 / 6.0, 1.0 / 6.0).is_err());
    }

    #[test]
    fn rare_survivals_are_judged_by_the_tail_not_a_normal_band() {
        // n = 4: Pr[A] ~ 1e-5, so 2 survivals in 8192 trials is unusual
        // but far from impossible; 40 is impossible.
        assert!(check_survival(2, 8192, 2.3e-6, 1.9e-5).is_ok());
        assert!(check_survival(40, 8192, 2.3e-6, 1.9e-5).is_err());
    }

    #[test]
    fn shifted_reference_trips_the_survival_gate() {
        let point = canonical(Model::Sc, 2);
        let exact = Outcome::Survival {
            successes: 100_000 / 6,
            trials: 100_000,
        };
        assert!(check_statistics(&Reference::paper(), point, &exact).is_ok());
        let wrong = Reference { log2_offset: 0.25 };
        assert!(check_statistics(&wrong, point, &exact).is_err());
    }

    #[test]
    fn non_canonical_points_have_no_statistical_gate() {
        let point = Point {
            model: Model::Tso,
            n: 2,
            m: 16,
            p: 0.3,
        };
        let any = Outcome::Survival {
            successes: 0,
            trials: 10,
        };
        assert!(check_statistics(&Reference::paper(), point, &any).is_ok());
    }

    #[test]
    fn window_law_gate_rejects_another_models_law() {
        let law = adapter::WindowLaw::new();
        // 20 000 draws of γ at the exact WO law's expected counts.
        let counts: Vec<u64> = (0..40)
            .map(|g| (20_000.0 * law.pmf(Model::Wo, g)).round() as u64)
            .collect();
        assert!(check_window_law(|g| law.pmf(Model::Wo, g), Model::Wo, &counts).is_ok());
        assert!(check_window_law(|g| law.pmf(Model::Tso, g), Model::Wo, &counts).is_err());
    }

    #[test]
    fn identity_gate_compares_bits() {
        let a = Outcome::Survival {
            successes: 1,
            trials: 2,
        };
        let b = Outcome::Survival {
            successes: 2,
            trials: 2,
        };
        assert!(check_identical("warm", &a, &a).is_ok());
        assert!(check_identical("warm", &a, &b).is_err());
    }
}
