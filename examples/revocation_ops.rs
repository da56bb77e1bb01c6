//! Revocation operations: close the loop the paper's §7 leaves open.
//!
//! The anomaly hunt surfaces pathological certificates; a real operator's
//! next move is *revocation* — which §2.1 calls out as one of client
//! authentication's hardest management problems. This example plays that
//! role: find the worst client certificates in a corpus, issue a CRL
//! against them, and show how validation verdicts flip when revocation is
//! actually checked (and how soft-fail silently un-flips them).
//!
//!     cargo run --release --example revocation_ops

use mtlscope::asn1::Asn1Time;
use mtlscope::core::{run_pipeline_parallel, AnalysisInputs};
use mtlscope::crypto::Keypair;
use mtlscope::netsim::{generate, SimConfig};
use mtlscope::pki::crl::{check_revocation, CrlBuilder};
use mtlscope::pki::{CertificateAuthority, RevocationReason, ValidationPolicy};
use mtlscope::x509::{CertificateBuilder, DistinguishedName, SerialNumber};

fn main() {
    // 1. Run the measurement pipeline and pick revocation candidates:
    //    expired-but-active client certificates.
    let sim = generate(&SimConfig {
        seed: 3,
        scale: 0.05,
        ..Default::default()
    });
    let out = run_pipeline_parallel(AnalysisInputs::from_sim(sim));
    println!(
        "pipeline flagged {} of {} established mTLS connections ({:.1}%)",
        out.ext1.flagged_conns,
        out.ext1.total_mtls_conns,
        out.ext1.flagged_share() * 100.0
    );
    let candidates: Vec<_> = out
        .fig5
        .points
        .iter()
        .filter(|p| p.days_expired > 365)
        .take(5)
        .collect();
    println!(
        "revocation candidates: {} client certs expired > 1 year yet still used\n",
        candidates.len()
    );

    // 2. Re-enact the management workflow on a concrete fleet: a CA with
    //    three agents, one of which leaks its key.
    let now = Asn1Time::from_ymd(2024, 1, 15);
    let ca = CertificateAuthority::new_root(
        b"ops-ca",
        DistinguishedName::builder()
            .organization("Fleet Operations Inc")
            .build(),
        now,
    );
    let mint = |name: &str, serial: &[u8]| {
        let k = Keypair::from_seed(name.as_bytes());
        ca.issue(
            CertificateBuilder::new()
                .serial(serial)
                .subject(DistinguishedName::builder().common_name(name).build())
                .validity(now.add_days(-30), now.add_days(335))
                .subject_key(k.key_id()),
        )
    };
    let healthy = mint("agent-alpha", &[0x0A]);
    let compromised = mint("agent-bravo", &[0x0B]);
    let retired = mint("agent-charlie", &[0x0C]);

    // 3. Issue the CRL.
    let crl = CrlBuilder::new(now, now.add_days(7))
        .revoke(
            SerialNumber::new(&[0x0B]),
            now,
            RevocationReason::KeyCompromise,
        )
        .revoke(
            SerialNumber::new(&[0x0C]),
            now,
            RevocationReason::CessationOfOperation,
        )
        .sign(&ca);
    println!(
        "issued CRL: {} entries, {} bytes DER, valid until {}",
        crl.entries().len(),
        crl.to_der().len(),
        crl.next_update().to_date_string()
    );

    // 4. What validators see.
    let policy = ValidationPolicy::enterprise();
    for cert in [&healthy, &compromised, &retired] {
        let base = policy.evaluate(cert, now.add_days(1), false, None);
        let revocation = check_revocation(cert, Some(&crl), now.add_days(1));
        println!(
            "  {:<14} policy: {:<8} revocation: {}",
            cert.subject().common_name().expect("cn"),
            if base.is_empty() { "clean" } else { "flagged" },
            match revocation {
                Ok(()) => "not revoked".to_string(),
                Err(reason) => format!("REVOKED ({reason:?})"),
            }
        );
    }

    // 5. The soft-fail trap: a stale CRL silently stops protecting.
    let much_later = now.add_days(30);
    let stale = check_revocation(&compromised, Some(&crl), much_later);
    println!(
        "\n30 days on, the CRL is stale; soft-fail verdict for the compromised agent: {:?}",
        stale
    );
    println!(
        "-> this is exactly why the paper's expired/shared certificates kept working:\n\
         revocation and expiry checks soft-fail in deployed software (paper section 7)."
    );
}
