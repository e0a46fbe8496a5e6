//! Explore the generalised model of §3.1.2 footnote 3: sweep the swap
//! probability `s`, the store probability `p`, and custom reorder matrices,
//! and watch the critical-window distribution and two-thread survival move.
//!
//! ```text
//! cargo run --release --example window_explorer
//! ```

use memmodel::{MemoryModel, ReorderMatrix, SettleProbs};
use montecarlo::{BernoulliEstimate, Histogram, Runner, Seed};
use progmodel::ProgramGenerator;
use settle::Settler;
use shiftproc::ShiftProcess;
use textplot::{sparkline, Table};

const TRIALS: u64 = 60_000;

fn survival_and_window(settler: Settler, p: f64, seed: u64) -> (f64, f64, Vec<f64>) {
    let gen = ProgramGenerator::new(48)
        .with_store_probability(p)
        .expect("valid p");
    let hist = Runner::new(Seed(seed)).run::<Histogram>(TRIALS, move |rng| {
        let program = gen.generate(rng);
        settler.sample_gamma(&program, rng)
    });
    let est = Runner::new(Seed(seed ^ 1)).run::<BernoulliEstimate>(TRIALS, move |rng| {
        let program = gen.generate(rng);
        let windows: Vec<u64> = (0..2)
            .map(|_| settler.settle(&program, rng).window_len())
            .collect();
        ShiftProcess::canonical().simulate_disjoint(&windows, rng)
    });
    let pmf: Vec<f64> = (0..8).map(|g| hist.pmf(g)).collect();
    (est.point(), hist.mean(), pmf)
}

fn main() {
    println!("sweep 1: swap probability s under TSO (paper fixes s = 1/2)\n");
    let mut t = Table::new(vec!["s", "mean gamma", "Pr[A] n=2", "window pmf gamma=0.."]);
    for s in [0.1f64, 0.3, 0.5, 0.7, 0.9] {
        let settler = Settler::new(
            MemoryModel::Tso.matrix(),
            SettleProbs::uniform(s).expect("valid s"),
        );
        let (surv, mean, pmf) = survival_and_window(settler, 0.5, 100 + (s * 10.0) as u64);
        t.row(vec![
            format!("{s:.1}"),
            format!("{mean:.4}"),
            format!("{surv:.4}"),
            sparkline(&pmf),
        ]);
    }
    print!("{}", t.render());

    println!("\nsweep 2: store probability p under TSO (more stores = wider windows)\n");
    let mut t = Table::new(vec!["p", "mean gamma", "Pr[A] n=2", "window pmf gamma=0.."]);
    for p in [0.1f64, 0.3, 0.5, 0.7, 0.9] {
        let settler = Settler::for_model(MemoryModel::Tso);
        let (surv, mean, pmf) = survival_and_window(settler, p, 200 + (p * 10.0) as u64);
        t.row(vec![
            format!("{p:.1}"),
            format!("{mean:.4}"),
            format!("{surv:.4}"),
            sparkline(&pmf),
        ]);
    }
    print!("{}", t.render());

    println!("\nsweep 3: all sixteen reorder matrices (custom models), s = p = 1/2\n");
    let mut t = Table::new(vec!["matrix", "named", "mean gamma", "Pr[A] n=2"]);
    for bits in 0u8..16 {
        let matrix = ReorderMatrix::new(
            bits & 8 != 0, // ST/ST
            bits & 4 != 0, // ST/LD
            bits & 2 != 0, // LD/ST
            bits & 1 != 0, // LD/LD
        );
        let named = MemoryModel::NAMED
            .iter()
            .find(|m| m.matrix() == matrix)
            .map(|m| m.short_name())
            .unwrap_or("");
        let settler = Settler::new(matrix, SettleProbs::canonical());
        let (surv, mean, _) = survival_and_window(settler, 0.5, 300 + u64::from(bits));
        t.row(vec![
            matrix.to_string(),
            named.into(),
            format!("{mean:.4}"),
            format!("{surv:.4}"),
        ]);
    }
    print!("{}", t.render());
    println!("\ncolumns of the matrix: ST/ST ST/LD LD/ST LD/LD (X = relaxed, . = enforced)");
    println!("note how survival depends almost entirely on whether ST/LD is relaxed —");
    println!("only relaxations that let the critical LD climb grow the window.");
}
