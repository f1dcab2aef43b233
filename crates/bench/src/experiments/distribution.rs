//! Distribution-fidelity experiments: E1 (perfect L_p), E4 (approximate),
//! E8 (polynomial), E10/E11/E12 (G-samplers).
//!
//! Protocol: fix a workload vector, run many independent sampler instances,
//! and compare the empirical index histogram against the ideal law
//! `G(x_i)/ΣG(x_j)` via total-variation distance, max relative bias over
//! resolvable cells, and the χ² p-value.

use crate::runner::parallel_counts;
use pts_core::{
    ApproxLpBatch, ApproxLpParams, PerfectLpParams, PerfectLpSampler, Polynomial, PolynomialParams,
    PolynomialSampler, RejectionGSampler,
};
use pts_samplers::TurnstileSampler;
use pts_stream::gen::{planted_vector, zipf_vector};
use pts_stream::FrequencyVector;
use pts_util::stats::{chi_square_test, max_relative_bias, tv_distance};
use pts_util::table::fmt_sig;
use pts_util::Table;

/// Shared row builder: measures one (workload, sampler) pair.
fn law_row(
    table: &mut Table,
    label: &str,
    workload: &str,
    weights: &[f64],
    counts: &[u64],
    fails: u64,
    trials: u64,
) {
    let accepted: u64 = counts.iter().sum();
    let tv = tv_distance(counts, weights);
    let bias = max_relative_bias(counts, weights, 0.02);
    let mass: f64 = weights.iter().sum();
    let probs: Vec<f64> = weights.iter().map(|w| w / mass).collect();
    let chi = chi_square_test(counts, &probs, 5.0);
    table.push_row([
        label.to_string(),
        workload.to_string(),
        accepted.to_string(),
        format!("{:.3}", fails as f64 / trials as f64),
        fmt_sig(tv, 3),
        fmt_sig(bias, 3),
        fmt_sig(chi.p_value, 3),
    ]);
}

fn law_table() -> Table {
    Table::new([
        "sampler",
        "workload",
        "samples",
        "fail rate",
        "TV",
        "max rel bias",
        "chi2 p",
    ])
}

/// The E1 workload battery (small universes keep exact laws resolvable).
fn e1_battery(n: usize) -> Vec<(&'static str, FrequencyVector)> {
    vec![
        ("zipf(1.1)", zipf_vector(n, 1.1, 60, 101)),
        ("planted", planted_vector(n, 2, 80, 6, 102)),
        ("flat±", pts_stream::gen::uniform_vector(n, 8, 103)),
    ]
}

/// E1: the perfect L_p sampler's output law for p ∈ {2.5, 3, 3.5, 4}.
/// Each trial is one lazy draw ([`PerfectLpSampler::draw_from`]) of the
/// sampler seeded for it, caught up from the workload vector.
pub fn e1_perfect_lp(quick: bool) -> Table {
    let n = 32;
    let trials: u64 = if quick { 2_000 } else { 12_000 };
    let mut table = law_table();
    for p in [2.5f64, 3.0, 3.5, 4.0] {
        let params = PerfectLpParams::for_universe(n, p);
        for (wname, x) in e1_battery(n) {
            let weights = x.lp_weights(p);
            let (counts, fails) = parallel_counts(n, trials, |t| {
                let seed = 0xE1_0000 + t * 127 + p as u64;
                PerfectLpSampler::draw_from(n, params, seed, x.iter_nonzero())
                    .map(|smp| smp.index as usize)
            });
            law_row(
                &mut table,
                &format!("perfect Lp p={p}"),
                wname,
                &weights,
                &counts,
                fails,
                trials,
            );
        }
    }
    table
}

/// E4: the approximate sampler's law at ε ∈ {0.3, 0.1}.
pub fn e4_approx_lp(quick: bool) -> Table {
    let n = 32;
    let trials: u64 = if quick { 3_000 } else { 20_000 };
    let mut table = law_table();
    for eps in [0.3f64, 0.1] {
        for p in [3.0f64, 4.0] {
            let params = ApproxLpParams::for_universe(n, p, eps);
            for (wname, x) in e1_battery(n) {
                let weights = x.lp_weights(p);
                let (counts, fails) = parallel_counts(n, trials, |t| {
                    let mut s = ApproxLpBatch::new(
                        n,
                        params,
                        6,
                        0xE4_0000 + t * 131 + (eps * 100.0) as u64,
                    );
                    s.ingest_vector(&x);
                    s.sample().map(|smp| smp.index as usize)
                });
                law_row(
                    &mut table,
                    &format!("approx Lp p={p} eps={eps}"),
                    wname,
                    &weights,
                    &counts,
                    fails,
                    trials,
                );
            }
        }
    }
    table
}

/// E8: the polynomial sampler, including the scale-shift demonstration.
pub fn e8_polynomial(quick: bool) -> Table {
    let trials: u64 = if quick { 1_500 } else { 8_000 };
    let mut table = law_table();
    let g = Polynomial::new(vec![(1.0, 1.0), (0.2, 2.0)]);
    let base = FrequencyVector::from_values(vec![1, 8, 3, 0, 5, 2]);
    let scaled = FrequencyVector::from_values(base.values().iter().map(|v| v * 8).collect());
    for (wname, x) in [("base", &base), ("base×8", &scaled)] {
        let weights: Vec<f64> = x.values().iter().map(|&v| g.eval(v as f64)).collect();
        let n = x.n();
        let params = PolynomialParams::for_universe(n, g.clone());
        let (counts, fails) = parallel_counts(n, trials, |t| {
            let mut s = PolynomialSampler::new(n, params.clone(), 0xE8_0000 + t * 37);
            s.ingest_vector(x);
            s.sample().map(|smp| smp.index as usize)
        });
        law_row(
            &mut table,
            "poly |z|+0.2z²",
            wname,
            &weights,
            &counts,
            fails,
            trials,
        );
    }
    // Cubic bonus polynomial (degree > 2 engine) on a small vector.
    let g3 = Polynomial::new(vec![(1.0, 2.0), (3.0, 3.0)]);
    let x3 = FrequencyVector::from_values(vec![2, -4, 6, 1, 0, 3]);
    let weights: Vec<f64> = x3.values().iter().map(|&v| g3.eval(v as f64)).collect();
    let trials3 = if quick { 400 } else { 2_500 };
    let params3 = PolynomialParams::for_universe(x3.n(), g3);
    let (counts, fails) = parallel_counts(x3.n(), trials3, |t| {
        let mut s = PolynomialSampler::new(x3.n(), params3.clone(), 0xE8_5000 + t * 41);
        s.ingest_vector(&x3);
        s.sample().map(|smp| smp.index as usize)
    });
    law_row(
        &mut table,
        "poly z²+3|z|³",
        "mixed",
        &weights,
        &counts,
        fails,
        trials3,
    );
    table
}

/// E10: the logarithmic G-sampler.
pub fn e10_log(quick: bool) -> Table {
    let trials: u64 = if quick { 4_000 } else { 20_000 };
    let mut table = law_table();
    let x = FrequencyVector::from_values(vec![1, 10, 100, 1000, 0, -50, 3, 7]);
    let n = x.n();
    let weights: Vec<f64> = x
        .values()
        .iter()
        .map(|&v| (1.0 + (v as f64).abs()).ln())
        .collect();
    let (counts, fails) = parallel_counts(n, trials, |t| {
        let mut s = RejectionGSampler::log_sampler(n, 1000, 0xE10_000 + t * 13);
        s.ingest_vector(&x);
        s.sample().map(|smp| smp.index as usize)
    });
    law_row(
        &mut table,
        "log(1+|z|)",
        "spread",
        &weights,
        &counts,
        fails,
        trials,
    );
    table
}

/// E11: the cap G-sampler across thresholds.
pub fn e11_cap(quick: bool) -> Table {
    let trials: u64 = if quick { 4_000 } else { 20_000 };
    let mut table = law_table();
    let x = FrequencyVector::from_values(vec![1, 2, -3, 10, 0, 5, -8, 2]);
    let n = x.n();
    for t_cap in [4.0f64, 16.0, 64.0] {
        let weights: Vec<f64> = x
            .values()
            .iter()
            .map(|&v| ((v as f64).abs().powi(2)).min(t_cap))
            .collect();
        let (counts, fails) = parallel_counts(n, trials, |t| {
            let mut s =
                RejectionGSampler::cap_sampler(n, t_cap, 2.0, 0xE11_000 + t * 17 + t_cap as u64);
            s.ingest_vector(&x);
            s.sample().map(|smp| smp.index as usize)
        });
        law_row(
            &mut table,
            &format!("cap T={t_cap} p=2"),
            "mixed",
            &weights,
            &counts,
            fails,
            trials,
        );
    }
    table
}

/// E12: Huber / Fair / L1−L2 M-estimators through the rejection framework.
pub fn e12_m_estimators(quick: bool) -> Table {
    let trials: u64 = if quick { 4_000 } else { 20_000 };
    let mut table = law_table();
    let x = FrequencyVector::from_values(vec![1, -2, 5, 20, 0, 3, 9, -12]);
    let n = x.n();
    let bound = 20u64;
    let tau = 3.0;

    let huber = move |z: f64| {
        let a = z.abs();
        if a <= tau {
            a * a / (2.0 * tau)
        } else {
            a - tau / 2.0
        }
    };
    let fair = move |z: f64| {
        let a = z.abs();
        tau * a - tau * tau * (1.0 + a / tau).ln()
    };
    let l1l2 = |z: f64| 2.0 * ((1.0 + z * z / 2.0).sqrt() - 1.0);

    type Maker = Box<dyn Fn(u64) -> RejectionGSampler + Sync>;
    #[allow(clippy::type_complexity)]
    let entries: Vec<(&str, Box<dyn Fn(f64) -> f64>, Maker)> = vec![
        (
            "huber τ=3",
            Box::new(huber),
            Box::new(move |s| RejectionGSampler::huber_sampler(n, tau, bound, s)),
        ),
        (
            "fair τ=3",
            Box::new(fair),
            Box::new(move |s| RejectionGSampler::fair_sampler(n, tau, bound, s)),
        ),
        (
            "l1-l2",
            Box::new(l1l2),
            Box::new(move |s| RejectionGSampler::l1l2_sampler(n, bound, s)),
        ),
    ];
    for (name, g, maker) in &entries {
        let weights: Vec<f64> = x.values().iter().map(|&v| g(v as f64)).collect();
        let (counts, fails) = parallel_counts(n, trials, |t| {
            let mut s = maker(0xE12_000 + t * 19);
            s.ingest_vector(&x);
            s.sample().map(|smp| smp.index as usize)
        });
        law_row(&mut table, name, "mixed", &weights, &counts, fails, trials);
    }
    table
}
