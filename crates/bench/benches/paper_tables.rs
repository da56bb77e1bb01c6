//! One Criterion benchmark per reproduced table/figure (DESIGN.md §3's
//! bench-target column), plus corpus generation and the full pipeline.
//!
//! Each `bench_*` target measures the analyzer that regenerates the
//! corresponding artifact over the shared fixture corpus.

use criterion::{criterion_group, criterion_main, Criterion};
use mtls_bench::{corpus, sim_output, BENCH_SCALE};
use mtls_core::analyze;
use mtls_core::corpus::MetaKnowledge;
use mtls_core::{run_pipeline_parallel, AnalysisInputs};
use mtls_netsim::{generate, SimConfig};
use std::hint::black_box;

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);
    group.bench_function("bench_gen_corpus_scale_0.01", |b| {
        b.iter(|| {
            let out = generate(&SimConfig {
                seed: 7,
                scale: 0.01,
                ..Default::default()
            });
            black_box(out.ssl.len())
        })
    });
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("bench_full_pipeline", |b| {
        b.iter(|| {
            let sim = sim_output();
            let out = run_pipeline_parallel(AnalysisInputs {
                meta: MetaKnowledge::from_sim(&sim.meta),
                ssl: sim.ssl.clone(),
                x509: sim.x509.clone(),
                ct: sim.ct.clone(),
                gossip: sim.gossip.clone(),
            });
            black_box(out.tab1.all.total)
        })
    });
    group.finish();
}

fn bench_experiments(c: &mut Criterion) {
    let corpus = corpus();
    let mut group = c.benchmark_group(format!("experiments(scale={BENCH_SCALE})"));

    group.bench_function("bench_pre1_interception", |b| {
        let sim = sim_output();
        let meta = MetaKnowledge::from_sim(&sim.meta);
        b.iter(|| {
            let mut interner = mtls_intern::Interner::new();
            black_box(mtls_core::pipeline::interception::filter(
                &sim.ssl,
                &sim.x509,
                &sim.ct,
                &meta,
                &mut interner,
            ))
        })
    });
    group.bench_function("bench_fig1_prevalence", |b| {
        b.iter(|| black_box(analyze::prevalence::run(corpus).months.len()))
    });
    group.bench_function("bench_tab1_census", |b| {
        b.iter(|| black_box(analyze::cert_census::run(corpus).all.total))
    });
    group.bench_function("bench_tab2_ports", |b| {
        b.iter(|| black_box(analyze::ports::run(corpus).inbound_mtls.total))
    });
    group.bench_function("bench_tab3_inbound", |b| {
        b.iter(|| black_box(analyze::inbound::run(corpus).total_conns))
    });
    group.bench_function("bench_fig2_flows", |b| {
        b.iter(|| black_box(analyze::outbound_flows::run(corpus).total))
    });
    group.bench_function("bench_tab4_dummy", |b| {
        b.iter(|| black_box(analyze::dummy_issuers::run(corpus).rows.len()))
    });
    group.bench_function("bench_ser1_serials", |b| {
        b.iter(|| black_box(analyze::serial_collisions::run(corpus).groups.len()))
    });
    group.bench_function("bench_tab5_sharing", |b| {
        b.iter(|| black_box(analyze::cert_sharing::run(corpus).shared_certs))
    });
    group.bench_function("bench_tab6_subnets", |b| {
        b.iter(|| black_box(analyze::subnet_spread::run(corpus).cross_shared_certs))
    });
    group.bench_function("bench_fig3_dates", |b| {
        b.iter(|| black_box(analyze::incorrect_dates::run(corpus).total_certs))
    });
    group.bench_function("bench_fig4_validity", |b| {
        b.iter(|| black_box(analyze::validity::run(corpus).very_long))
    });
    group.bench_function("bench_fig5_expired", |b| {
        b.iter(|| black_box(analyze::expired::run(corpus).points.len()))
    });
    group.bench_function("bench_tab7_cnsan", |b| {
        b.iter(|| black_box(analyze::cn_san_usage::run(corpus).server.total))
    });
    group.bench_function("bench_tab8_infotypes", |b| {
        b.iter(|| {
            black_box(
                analyze::info_types::run(corpus, analyze::info_types::Slice::Mtls)
                    .columns
                    .len(),
            )
        })
    });
    group.bench_function("bench_tab9_unidentified", |b| {
        b.iter(|| black_box(analyze::unidentified::run(corpus).totals.len()))
    });
    group.bench_function("bench_tab13_shared_info", |b| {
        b.iter(|| {
            black_box(
                analyze::info_types::run(corpus, analyze::info_types::Slice::SharedCerts)
                    .columns
                    .len(),
            )
        })
    });
    group.bench_function("bench_tab14_nonmtls_info", |b| {
        b.iter(|| {
            black_box(
                analyze::info_types::run(corpus, analyze::info_types::Slice::NonMtlsServers)
                    .columns
                    .len(),
            )
        })
    });
    group.bench_function("bench_ext1_validation_audit", |b| {
        b.iter(|| black_box(analyze::audit::run(corpus).flagged_conns))
    });
    group.bench_function("bench_ext2_tracking", |b| {
        b.iter(|| black_box(analyze::tracking::run(corpus).trackable))
    });
    group.bench_function("bench_gen1_generalization", |b| {
        b.iter(|| black_box(analyze::generalization::run(corpus).external_cloud_server_share))
    });
    group.finish();
}

criterion_group!(benches, bench_generation, bench_pipeline, bench_experiments);
criterion_main!(benches);
