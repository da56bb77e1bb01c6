//! File-based pipeline: the corpus written as Zeek-TSV logs must read back
//! identically, and the analysis over the re-read logs must equal the
//! in-memory analysis.

use mtlscope::core::{run_pipeline_parallel, AnalysisInputs, IngestMode};
use mtlscope::netsim::{generate, SimConfig};
use std::io::BufReader;

#[test]
fn zeek_logs_round_trip_and_reanalyze_identically() {
    let config = SimConfig {
        seed: 5150,
        scale: 0.01,
        ..Default::default()
    };
    let sim = generate(&config);

    let dir = std::env::temp_dir().join(format!("mtlscope-roundtrip-{}", std::process::id()));
    sim.write_to_dir(&dir).expect("write logs");

    let ssl = mtlscope::zeek::read_ssl_log(BufReader::new(
        std::fs::File::open(dir.join("ssl.log")).expect("ssl.log"),
    ))
    .expect("parse ssl.log");
    let x509 = mtlscope::zeek::read_x509_log(BufReader::new(
        std::fs::File::open(dir.join("x509.log")).expect("x509.log"),
    ))
    .expect("parse x509.log");

    assert_eq!(ssl, sim.ssl, "ssl.log round-trips exactly");
    assert_eq!(x509, sim.x509, "x509.log round-trips exactly");

    // meta.tsv exists and carries the strata weight.
    let meta_text = std::fs::read_to_string(dir.join("meta.tsv")).expect("meta.tsv");
    assert!(meta_text.contains("non_mtls_weight"));
    assert!(meta_text.contains("university_net"));
    assert!(meta_text.contains("public_ca_orgs"));

    // Analysis over re-read logs equals in-memory analysis — through the
    // generic directory loader (meta.tsv + ct.log included).
    let (loaded, _) =
        mtlscope::core::ingest::load_dir_with(&dir, IngestMode::Strict).expect("ingest");
    assert_eq!(loaded.ssl, sim.ssl);
    assert_eq!(loaded.ct.len(), sim.ct.len());
    let from_files = run_pipeline_parallel(loaded);
    let in_memory = run_pipeline_parallel(AnalysisInputs::from_sim(sim));
    assert_eq!(from_files.tab1.all.total, in_memory.tab1.all.total);
    assert_eq!(from_files.tab1.all.mtls, in_memory.tab1.all.mtls);
    assert_eq!(from_files.fig3.total_certs, in_memory.fig3.total_certs);
    assert_eq!(from_files.render_all(), in_memory.render_all());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rotated_logs_round_trip() {
    let config = SimConfig {
        seed: 777,
        scale: 0.005,
        ..Default::default()
    };
    let sim = generate(&config);
    let dir = std::env::temp_dir().join(format!("mtlscope-rotated-{}", std::process::id()));
    sim.write_to_dir_rotated(&dir).expect("write rotated");

    // 23 months of traffic → many per-month files.
    let ssl_files = std::fs::read_dir(&dir)
        .expect("dir")
        .filter(|e| {
            e.as_ref()
                .map(|e| {
                    let n = e.file_name().to_string_lossy().into_owned();
                    n.starts_with("ssl.") && n.ends_with(".log")
                })
                .unwrap_or(false)
        })
        .count();
    assert!(ssl_files >= 20, "expected per-month files, got {ssl_files}");

    let (ssl, x509, _) =
        mtlscope::zeek::read_monthly_with(&dir, IngestMode::Strict).expect("read rotated");
    assert_eq!(ssl.len(), sim.ssl.len());
    assert_eq!(x509.len(), sim.x509.len());
    // Records are already ts-sorted by the emitter, so chronological
    // concatenation reproduces the exact sequence.
    assert_eq!(ssl, sim.ssl);
    std::fs::remove_dir_all(&dir).ok();
}
