//! The experiment suite: one function per table/figure of EXPERIMENTS.md.
//!
//! Every experiment returns a rendered markdown [`Table`] (plus prints
//! progress); the `reproduce` binary selects and runs them. `quick` mode
//! trims trial counts for smoke runs; `--full` reproduces the numbers
//! recorded in EXPERIMENTS.md.

// Progress lines on stdout ARE the product here: `reproduce` is a
// terminal tool and these modules are its reporting layer, so the
// crate-wide never-print rule is lifted for this subtree only.
#![allow(clippy::print_stdout)]

pub mod ablations;
pub mod accuracy;
pub mod cluster;
pub mod distribution;
pub mod lower_bound;
pub mod multiplex;
pub mod service;
pub mod space;
pub mod table1;
pub mod tenants;
pub mod throughput;
pub mod timing;
pub mod trace;
pub mod wire;

use pts_util::Table;

/// A runnable experiment.
pub struct Experiment {
    /// Identifier (`tab1`, `e1`, …, `s1`, `w1`, `n1`, `c1`, `m1`, `mt1`, `tr1`, `a3`).
    pub id: &'static str,
    /// What it reproduces.
    pub title: &'static str,
    /// The runner.
    pub run: fn(quick: bool) -> Table,
}

/// The full registry, in EXPERIMENTS.md order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "tab1",
            title: "Table 1 — sampler comparison matrix (measured)",
            run: table1::run,
        },
        Experiment {
            id: "e1",
            title: "E1 — perfect Lp (p>2) sampling law (Thm 1.2/2.6/2.10)",
            run: distribution::e1_perfect_lp,
        },
        Experiment {
            id: "e2",
            title: "E2 — perfect sampler space scaling n^(1-2/p) (Thm 1.2)",
            run: space::e2_perfect_space,
        },
        Experiment {
            id: "e3",
            title: "E3 — (1+eps) value estimates (Thm 1.2/2.10)",
            run: accuracy::e3_estimates,
        },
        Experiment {
            id: "e4",
            title: "E4 — approximate sampler law vs eps (Thm 1.3/3.21)",
            run: distribution::e4_approx_lp,
        },
        Experiment {
            id: "e5",
            title: "E5 — fast-update vs naive duplication (Thm 1.3)",
            run: timing::e5_update_time,
        },
        Experiment {
            id: "e6",
            title: "E6 — approximate sampler space scaling (Thm 1.3/3.21)",
            run: space::e6_approx_space,
        },
        Experiment {
            id: "e7",
            title: "E7 — lower-bound distinguishing protocol (Thm 1.4/4.3)",
            run: lower_bound::e7_phase_transition,
        },
        Experiment {
            id: "e8",
            title: "E8 — perfect polynomial sampler (Thm 1.5/2.14)",
            run: distribution::e8_polynomial,
        },
        Experiment {
            id: "e9",
            title: "E9 — subset-norm estimation / RFDS (Thm 1.6/5.3)",
            run: accuracy::e9_subset_norm,
        },
        Experiment {
            id: "e10",
            title: "E10 — log G-sampler (Thm 5.5)",
            run: distribution::e10_log,
        },
        Experiment {
            id: "e11",
            title: "E11 — cap G-sampler (Thm 5.6)",
            run: distribution::e11_cap,
        },
        Experiment {
            id: "e12",
            title: "E12 — M-estimator G-samplers via rejection (Thm 5.7)",
            run: distribution::e12_m_estimators,
        },
        Experiment {
            id: "s1",
            title: "S1 — engine ingest throughput vs shard count (pts-engine)",
            run: throughput::s1_engine_throughput,
        },
        Experiment {
            id: "w1",
            title: "W1 — durable snapshot/checkpoint bytes vs n, p, shards (wire format)",
            run: wire::w1_snapshot_size,
        },
        Experiment {
            id: "n1",
            title: "N1 — service requests/sec over loopback vs batch size (pts-server)",
            run: service::n1_service_throughput,
        },
        Experiment {
            id: "c1",
            title: "C1 — cluster throughput + sample latency vs node count (pts-cluster)",
            run: cluster::c1_cluster_scaling,
        },
        Experiment {
            id: "m1",
            title: "M1 — pipelined requests/sec vs in-flight depth + scatter vs N (wire v3)",
            run: multiplex::m1_multiplexing,
        },
        Experiment {
            id: "mt1",
            title: "MT1 — multi-tenant serving: req/sec + bytes/tenant vs tenant count (wire v4)",
            run: tenants::mt1_tenants,
        },
        Experiment {
            id: "tr1",
            title: "TR1 — tracing overhead: traced 1/256 vs untraced (wire v5)",
            run: trace::tr1_trace_overhead,
        },
        Experiment {
            id: "a1",
            title: "A1 — ablation: duplication vs conditional FAIL bias",
            run: ablations::a1_duplication,
        },
        Experiment {
            id: "a2",
            title: "A2 — ablation: Taylor truncation depth (Lemma 2.7)",
            run: ablations::a2_taylor_depth,
        },
        Experiment {
            id: "a3",
            title: "A3 — ablation: estimator replicas vs clamping",
            run: ablations::a3_estimator_reps,
        },
    ]
}
