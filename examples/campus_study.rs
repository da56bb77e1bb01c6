//! Campus study: regenerate the paper's headline measurements end to end —
//! generate a synthetic campus corpus, write real Zeek-format logs, read
//! them back, and run the analysis pipeline on the files (proving the
//! toolchain works from on-disk logs, as the paper's did).
//!
//!     cargo run --release --example campus_study [scale]

use mtlscope::core::corpus::MetaKnowledge;
use mtlscope::core::{run_pipeline_parallel, AnalysisInputs};
use mtlscope::netsim::{generate, SimConfig};
use std::io::BufReader;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.10);
    let config = SimConfig {
        seed: 20240704,
        scale,
        ..Default::default()
    };

    println!("generating the synthetic campus corpus (scale {scale})...");
    let sim = generate(&config);
    println!(
        "  {} connections, {} unique certificates",
        sim.ssl.len(),
        sim.x509.len()
    );

    // Write Zeek-format logs to disk, then read them back: the pipeline
    // consumes files exactly like the original study consumed Zeek output.
    let dir = std::env::temp_dir().join("mtlscope-campus-study");
    sim.write_to_dir(&dir).expect("write logs");
    println!("  Zeek logs written under {}", dir.display());

    let ssl = mtlscope::zeek::read_ssl_log(BufReader::new(
        std::fs::File::open(dir.join("ssl.log")).expect("open ssl.log"),
    ))
    .expect("parse ssl.log");
    let x509 = mtlscope::zeek::read_x509_log(BufReader::new(
        std::fs::File::open(dir.join("x509.log")).expect("open x509.log"),
    ))
    .expect("parse x509.log");
    assert_eq!(ssl.len(), sim.ssl.len());
    assert_eq!(x509.len(), sim.x509.len());
    println!("  logs round-tripped byte-faithfully");

    let inputs = AnalysisInputs {
        meta: MetaKnowledge::from_sim(&sim.meta),
        ssl,
        x509,
        ct: sim.ct.clone(),
        gossip: sim.gossip.clone(),
    };
    let out = run_pipeline_parallel(inputs);

    // The paper's three headline findings (§1 Contributions).
    println!("\n--- 1) Prevalence of mutual TLS ---");
    println!(
        "mTLS share grew {}x over 23 months ({:.2}% -> {:.2}%, paper 1.99% -> 3.61%)",
        (out.fig1.growth() * 100.0).round() / 100.0,
        out.fig1.share_start * 100.0,
        out.fig1.share_end * 100.0
    );
    println!(
        "{:.2}% of server certs and {:.2}% of client certs are used in mTLS \
         (paper: 38.45% / 94.34%)",
        100.0 * out.tab1.server.mtls as f64 / out.tab1.server.total.max(1) as f64,
        100.0 * out.tab1.client.mtls as f64 / out.tab1.client.total.max(1) as f64,
    );

    println!("\n--- 2) Concerning certificate practices ---");
    println!(
        "missing-issuer share of outbound client certs: {:.2}% (paper 37.84%)",
        out.fig2.missing_issuer_share * 100.0
    );
    if let Some(globus) = out.ser1.group("Globus Online", "00") {
        println!(
            "largest serial collision: Globus Online serial 00 with {} certificates",
            globus.client_certs.max(globus.server_certs)
        );
    }
    println!(
        "same-cert-at-both-endpoints connections: {} inbound / {} outbound",
        out.tab5.inbound_conns, out.tab5.outbound_conns
    );
    println!("incorrect-date certificates: {}", out.fig3.total_certs);

    println!("\n--- 3) Sensitive information in CN/SAN ---");
    use mtlscope::classify::InfoType;
    use mtlscope::core::analyze::info_types::Cell;
    let (names, _) = out
        .tab8
        .cn_share(Cell::ClientPrivate, InfoType::PersonalName);
    let (accounts, _) = out
        .tab8
        .cn_share(Cell::ClientPrivate, InfoType::UserAccount);
    println!("client certs with personal names: {names}, with user accounts: {accounts}");
    println!("(paper: 43,539 personal names and 18,603 user accounts at full scale)");

    println!("\nfull report: cargo run --release -p mtls-core --bin repro");
    std::fs::remove_dir_all(&dir).ok();
}
