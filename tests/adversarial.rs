//! Adversarial client-authentication testing — the paper's §7 future-work
//! item ("conducting code-level investigations and adversarial testing" of
//! client-auth implementations), made concrete: mint each §5 pathology,
//! push it through a real simulated handshake, recover the DER from the
//! passive monitor, and check what validators of different strictness do
//! with it.

use mtlscope::asn1::Asn1Time;
use mtlscope::crypto::Keypair;
use mtlscope::pki::{CertificateAuthority, ValidationPolicy, Violation};
use mtlscope::tlssim::{observe, simulate_handshake, HandshakeConfig, TlsVersion};
use mtlscope::x509::{
    Certificate, CertificateBuilder, DistinguishedName, KeyAlgorithm, SignatureAlgorithm, Version,
};

fn now() -> Asn1Time {
    Asn1Time::from_ymd(2023, 6, 1)
}

fn server_cert() -> Certificate {
    let ca = CertificateAuthority::new_root(
        b"adv-server-ca",
        DistinguishedName::builder()
            .organization("Server Org Inc")
            .build(),
        now(),
    );
    let k = Keypair::from_seed(b"adv-server");
    ca.issue(
        CertificateBuilder::new()
            .subject(
                DistinguishedName::builder()
                    .common_name("api.adv.example")
                    .build(),
            )
            .validity(now().add_days(-30), now().add_days(335))
            .subject_key(k.key_id()),
    )
}

/// Push a client certificate through the wire and return what the server
/// side (equivalently, a monitor) received.
fn through_the_wire(client: &Certificate) -> Certificate {
    let transcript = simulate_handshake(&HandshakeConfig {
        version: TlsVersion::Tls12,
        sni: Some("api.adv.example".into()),
        server_chain: vec![server_cert().der()],
        request_client_cert: true,
        client_chain: vec![client.der()],
        established: true,
        resumed: false,
        random_seed: 0xADDED,
    });
    let obs = observe(&transcript).expect("is TLS");
    Certificate::from_der(&obs.client_cert_ders[0]).expect("client leaf parses")
}

fn probe(client: &Certificate, expect: &[Violation]) {
    let seen = through_the_wire(client);
    let enterprise = ValidationPolicy::enterprise();
    let got = enterprise.evaluate(&seen, now(), false, None);
    assert_eq!(
        got,
        expect,
        "enterprise verdict for {:?}",
        seen.subject().common_name()
    );
    // The lax posture — what the paper's measured deployments do — accepts
    // every single one of these.
    assert!(
        ValidationPolicy::lax().accepts(&seen, now(), false, None),
        "lax must accept (that's the finding)"
    );
}

fn private_ca(org: &str) -> CertificateAuthority {
    CertificateAuthority::new_root(
        org.as_bytes(),
        DistinguishedName::builder().organization(org).build(),
        now(),
    )
}

#[test]
fn adversarial_expired_certificate() {
    let k = Keypair::from_seed(b"a1");
    let cert = private_ca("Fleet Ops Inc").issue(
        CertificateBuilder::new()
            .subject(
                DistinguishedName::builder()
                    .common_name("stale-agent")
                    .build(),
            )
            .validity(now().add_days(-1_365), now().add_days(-1_000)) // the Apple cluster
            .subject_key(k.key_id()),
    );
    probe(&cert, &[Violation::Expired]);
}

#[test]
fn adversarial_inverted_dates() {
    let k = Keypair::from_seed(b"a2");
    let cert = private_ca("IDrive Inc Certificate Authority").issue(
        CertificateBuilder::new()
            .subject(
                DistinguishedName::builder()
                    .common_name("backup-dev")
                    .build(),
            )
            .validity(
                Asn1Time::from_ymd(2019, 8, 2),
                Asn1Time::from_ymd(1849, 10, 24),
            )
            .subject_key(k.key_id()),
    );
    probe(&cert, &[Violation::IncorrectDates]);
}

#[test]
fn adversarial_missing_issuer() {
    let k = Keypair::from_seed(b"a3");
    let cert = private_ca("whoever").issue_verbatim(
        CertificateBuilder::new()
            .issuer(DistinguishedName::empty())
            .subject(
                DistinguishedName::builder()
                    .common_name("anon-agent")
                    .build(),
            )
            .validity(now().add_days(-1), now().add_days(300))
            .subject_key(k.key_id()),
    );
    probe(&cert, &[Violation::MissingIssuer]);
}

#[test]
fn adversarial_dummy_issuer_v1_weak_key() {
    // The §5.1.1 triple threat: OpenSSL default issuer, X.509 v1, 1024-bit.
    let k = Keypair::from_seed(b"a4");
    let cert = private_ca("Internet Widgits Pty Ltd").issue(
        CertificateBuilder::new()
            .version(Version::V1)
            .subject(
                DistinguishedName::builder()
                    .organization("Internet Widgits Pty Ltd")
                    .build(),
            )
            .validity(now().add_days(-1), now().add_days(300))
            .key_algorithm(KeyAlgorithm::Rsa { bits: 1024 })
            .subject_key(k.key_id()),
    );
    probe(
        &cert,
        &[
            Violation::DummyIssuer,
            Violation::WeakKey,
            Violation::ObsoleteVersion,
        ],
    );
}

#[test]
fn adversarial_228_year_certificate() {
    let k = Keypair::from_seed(b"a5");
    let cert = private_ca("TMDX Devices Inc").issue(
        CertificateBuilder::new()
            .subject(
                DistinguishedName::builder()
                    .common_name("tmdx-dev-gateway")
                    .build(),
            )
            .validity(now().add_days(-1), now().add_days(83_432))
            .subject_key(k.key_id()),
    );
    probe(&cert, &[Violation::ExcessiveValidity]);
}

#[test]
fn adversarial_md5_signature() {
    let k = Keypair::from_seed(b"a6");
    let signer = Keypair::from_seed(b"a6-ca");
    let cert = CertificateBuilder::new()
        .issuer(
            DistinguishedName::builder()
                .organization("Legacy Systems Inc")
                .build(),
        )
        .subject(DistinguishedName::builder().common_name("old-box").build())
        .validity(now().add_days(-1), now().add_days(300))
        .signature_algorithm(SignatureAlgorithm::Md5WithRsa)
        .subject_key(k.key_id())
        .sign(&signer);
    probe(&cert, &[Violation::DeprecatedSignatureAlgorithm]);
}

#[test]
fn adversarial_shared_certificate_both_endpoints() {
    // Globus-style: the identical certificate on both ends of the wire.
    let ca = private_ca("Globus Online");
    let k = Keypair::from_seed(b"a7");
    let cert = ca.issue(
        CertificateBuilder::new()
            .serial(&[0x00])
            .subject(DistinguishedName::builder().common_name("transfer").build())
            .validity(now().add_days(-1), now().add_days(13))
            .subject_key(k.key_id()),
    );
    let transcript = simulate_handshake(&HandshakeConfig {
        version: TlsVersion::Tls12,
        sni: Some("FXP DCAU Cert".into()),
        server_chain: vec![cert.der()],
        request_client_cert: true,
        client_chain: vec![cert.der()],
        established: true,
        resumed: false,
        random_seed: 7,
    });
    let obs = observe(&transcript).expect("is TLS");
    let server_leaf = Certificate::from_der(&obs.server_cert_ders[0]).expect("parses");
    let client_leaf = Certificate::from_der(&obs.client_cert_ders[0]).expect("parses");
    let shared = server_leaf.fingerprint() == client_leaf.fingerprint();
    assert!(shared, "wire preserves the sharing");

    let verdict = ValidationPolicy::enterprise().evaluate(&client_leaf, now(), shared, None);
    assert_eq!(verdict, vec![Violation::SharedWithPeer]);
    assert!(ValidationPolicy::lax().accepts(&client_leaf, now(), shared, None));
}

#[test]
fn adversarial_healthy_certificate_passes_enterprise() {
    let k = Keypair::from_seed(b"a8");
    let cert = private_ca("Well Run Corp Inc").issue(
        CertificateBuilder::new()
            .subject(
                DistinguishedName::builder()
                    .common_name("good-agent")
                    .build(),
            )
            .validity(now().add_days(-10), now().add_days(355))
            .subject_key(k.key_id()),
    );
    let seen = through_the_wire(&cert);
    assert!(ValidationPolicy::enterprise().accepts(&seen, now(), false, None));
    // Strict additionally demands a root-program anchor.
    assert_eq!(
        ValidationPolicy::strict().evaluate(&seen, now(), false, None),
        vec![Violation::UntrustedIssuer]
    );
}

#[test]
fn revoked_certificate_is_caught_when_crl_checked() {
    use mtlscope::pki::crl::{check_revocation, CrlBuilder};
    use mtlscope::pki::RevocationReason;
    use mtlscope::x509::SerialNumber;

    let ca = private_ca("Revoking Org Inc");
    let k = Keypair::from_seed(b"a9");
    let cert = ca.issue(
        CertificateBuilder::new()
            .serial(&[0xDE, 0xAD])
            .subject(
                DistinguishedName::builder()
                    .common_name("compromised")
                    .build(),
            )
            .validity(now().add_days(-10), now().add_days(355))
            .subject_key(k.key_id()),
    );
    let seen = through_the_wire(&cert);
    // Without revocation data, even the enterprise policy accepts it —
    // the soft-fail reality the paper's findings live in.
    assert!(ValidationPolicy::enterprise().accepts(&seen, now(), false, None));
    // With a CRL, the compromise is caught.
    let crl = CrlBuilder::new(now().add_days(-1), now().add_days(6))
        .revoke(
            SerialNumber::new(&[0xDE, 0xAD]),
            now().add_days(-1),
            RevocationReason::KeyCompromise,
        )
        .sign(&ca);
    assert_eq!(
        check_revocation(&seen, Some(&crl), now()),
        Err(RevocationReason::KeyCompromise)
    );
}
