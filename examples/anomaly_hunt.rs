//! Anomaly hunt: the paper's §5 misconfiguration catalogue as an
//! operator-facing detector — feed it logs, get back the certificates that
//! should never have worked: inverted validity dates, colliding dummy
//! serials, both-endpoint certificate sharing, long-expired credentials,
//! dummy issuers, weak keys.
//!
//!     cargo run --release --example anomaly_hunt [scale]

use mtlscope::core::{run_pipeline_parallel, AnalysisInputs};
use mtlscope::netsim::{generate, SimConfig};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.10);
    let sim = generate(&SimConfig {
        seed: 99,
        scale,
        ..Default::default()
    });
    println!(
        "hunting anomalies in {} connections / {} certificates...\n",
        sim.ssl.len(),
        sim.x509.len()
    );
    let out = run_pipeline_parallel(AnalysisInputs::from_sim(sim));

    let mut alerts = 0usize;

    println!("== ALERT class 1: impossible validity windows (notBefore >= notAfter) ==");
    for row in out.fig3.rows.iter().take(6) {
        alerts += row.certs;
        println!(
            "  {:>4} certs  issuer {:<36} ({} side) dates ({}, {}), active {} days",
            row.certs,
            row.issuer,
            if row.client_side { "client" } else { "server" },
            row.not_before_year,
            row.not_after_year,
            row.duration_days
        );
    }

    println!("\n== ALERT class 2: serial-number collisions within one issuer ==");
    for g in out.ser1.groups.iter().take(5) {
        alerts += g.client_certs + g.server_certs;
        println!(
            "  issuer {:<40} serial {:<8} {} certs across {} connections",
            g.issuer,
            g.serial,
            g.client_certs + g.server_certs,
            g.conns
        );
    }

    println!("\n== ALERT class 3: one certificate on BOTH endpoints (key sharing) ==");
    for row in out.tab5.rows.iter().take(5) {
        println!(
            "  {:<24} issuer {:<36} {} clients, {} days of activity",
            row.sld.clone().unwrap_or_else(|| "(missing SNI)".into()),
            row.issuer,
            row.clients,
            row.duration_days
        );
    }
    alerts += out.tab5.shared_certs;

    println!("\n== ALERT class 4: expired client credentials still accepted ==");
    let worst = out
        .fig5
        .points
        .iter()
        .max_by_key(|p| p.days_expired)
        .map(|p| (p.days_expired, p.issuer_org.clone()));
    println!(
        "  {} expired client certs in established connections{}",
        out.fig5.points.len(),
        worst
            .map(|(d, org)| format!("; worst: {d} days past expiry (issuer {org:?})"))
            .unwrap_or_default()
    );
    alerts += out.fig5.points.len();

    println!("\n== ALERT class 5: dummy issuers and weak keys ==");
    println!(
        "  {} dummy-issuer populations; {} v1 certificates; {} RSA<2048 keys",
        out.tab4.rows.len(),
        out.tab4.v1_client_certs,
        out.tab4.weak_key_client_certs
    );
    alerts += out.tab4.v1_client_certs + out.tab4.weak_key_client_certs;

    println!("\ntotal certificates flagged: {alerts}");
    println!(
        "(the paper: \"prompting a critical re-evaluation of client-side \
         authentication validation procedures in over 13 million connections\")"
    );
}
