//! Seed spread of the paper's Figures 1 and 2: per itemset length, the
//! quartiles of ρ, σ⁻ and σ⁺ over 16 perturbation seeds, for DET-GD and
//! RAN-GD (α = γx/2) on CENSUS and HEALTH.
//!
//! A change to a sampler moves every figure's single-seed numbers; this
//! table says whether it moved their distribution. Run it in release:
//!
//! ```text
//! cargo test --release -p frapp-bench --test seed_spread -- --ignored --nocapture
//! ```

use frapp_bench::{paper_experiments, Method};

const SEEDS: u64 = 16;

/// First quartile, median and third quartile (linear interpolation
/// between order statistics); `None` when no seed defines the value.
fn quartiles(mut xs: Vec<f64>) -> Option<[f64; 3]> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (xs.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
    };
    Some([at(0.25), at(0.5), at(0.75)])
}

fn cell(q: Option<[f64; 3]>) -> String {
    match q {
        Some([q1, med, q3]) => format!("{med:>7.2} [{q1:>6.2},{q3:>6.2}]"),
        None => format!("{:>23}", "-"),
    }
}

#[test]
#[ignore = "64 full-size mining runs; run in release"]
fn figure_1_and_2_per_length_seed_spread() {
    for exp in paper_experiments() {
        for method in [
            Method::DetGd,
            Method::RanGd {
                alpha_fraction: 0.5,
            },
        ] {
            let runs: Vec<_> = (0..SEEDS).map(|seed| exp.run(method, seed)).collect();
            println!(
                "{} {} over seeds 0..{SEEDS}: median [q1,q3]",
                exp.dataset_name,
                method.name()
            );
            println!("len {:>23} {:>23} {:>23}", "rho %", "sigma- %", "sigma+ %");
            for len in 1..=exp.truth.max_length() {
                let of_len: Vec<_> = runs
                    .iter()
                    .filter_map(|run| run.metrics.of_length(len))
                    .collect();
                let rho = quartiles(of_len.iter().filter_map(|m| m.support_error).collect());
                let minus = quartiles(of_len.iter().map(|m| m.false_negatives).collect());
                let plus = quartiles(of_len.iter().map(|m| m.false_positives).collect());
                println!("{len:>3} {} {} {}", cell(rho), cell(minus), cell(plus));
            }
        }
    }
}
