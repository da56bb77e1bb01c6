//! Substrate microbenchmarks: the from-scratch building blocks the
//! reproduction rests on — DER codec, SHA-256/HMAC, certificate minting and
//! parsing, chain validation, the passive monitor, the Zeek-TSV codec, and
//! the CN/SAN classifier.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mtls_asn1::{Asn1Time, DerReader, DerWriter};
use mtls_classify::{classify, ClassifyContext};
use mtls_crypto::{hmac_sha256, sha256, KeyRegistry, Keypair};
use mtls_pki::{validate_chain, CertificateAuthority, RootProgram, TrustAnchors};
use mtls_tlssim::{observe, simulate_handshake, HandshakeConfig, TlsVersion};
use mtls_x509::{Certificate, CertificateBuilder, DistinguishedName, GeneralName};
use std::hint::black_box;
use std::io::Cursor;

fn fixture_cert() -> Certificate {
    let ca = Keypair::from_seed(b"bench-ca");
    let leaf = Keypair::from_seed(b"bench-leaf");
    CertificateBuilder::new()
        .serial(&[0x12, 0x34, 0x56, 0x78, 0x9A])
        .issuer(
            DistinguishedName::builder()
                .organization("Bench CA")
                .common_name("Bench CA R1")
                .build(),
        )
        .subject(
            DistinguishedName::builder()
                .common_name("bench.example.com")
                .build(),
        )
        .san(vec![
            GeneralName::Dns("bench.example.com".into()),
            GeneralName::Dns("alt.example.com".into()),
        ])
        .validity(
            Asn1Time::from_ymd(2023, 1, 1),
            Asn1Time::from_ymd(2024, 1, 1),
        )
        .subject_key(leaf.key_id())
        .sign(&ca)
}

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let data = vec![0xABu8; 4096];
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256_4k", |b| b.iter(|| black_box(sha256(&data))));
    group.bench_function("hmac_sha256_4k", |b| {
        b.iter(|| black_box(hmac_sha256(b"key", &data)))
    });
    group.finish();
}

fn bench_der(c: &mut Criterion) {
    let mut group = c.benchmark_group("der");
    group.bench_function("writer_nested_sequence", |b| {
        b.iter(|| {
            let mut w = DerWriter::new();
            w.sequence(|w| {
                w.integer_i64(123_456_789);
                w.utf8_string("mutual tls in practice");
                w.sequence(|w| {
                    w.boolean(true);
                    w.octet_string(&[0u8; 64]);
                });
            });
            black_box(w.finish().len())
        })
    });
    let encoded = {
        let mut w = DerWriter::new();
        w.sequence(|w| {
            w.integer_i64(123_456_789);
            w.utf8_string("mutual tls in practice");
            w.octet_string(&[0u8; 64]);
        });
        w.finish()
    };
    group.bench_function("reader_nested_sequence", |b| {
        b.iter(|| {
            let mut r = DerReader::new(&encoded);
            let mut seq = r.read_sequence().expect("seq");
            black_box(seq.read_integer_i64().expect("int"));
            black_box(seq.read_string().expect("str"));
            black_box(seq.read_octet_string().expect("bytes"));
        })
    });
    group.finish();
}

fn bench_x509(c: &mut Criterion) {
    let mut group = c.benchmark_group("x509");
    let ca = Keypair::from_seed(b"mint-ca");
    let leaf = Keypair::from_seed(b"mint-leaf");
    group.bench_function("mint_and_sign", |b| {
        b.iter(|| {
            let cert = CertificateBuilder::new()
                .serial(&[1, 2, 3])
                .subject(DistinguishedName::builder().common_name("x").build())
                .validity(
                    Asn1Time::from_ymd(2023, 1, 1),
                    Asn1Time::from_ymd(2024, 1, 1),
                )
                .subject_key(leaf.key_id())
                .sign(&ca);
            black_box(cert.fingerprint())
        })
    });
    let der = fixture_cert().to_der();
    group.throughput(Throughput::Bytes(der.len() as u64));
    group.bench_function("parse_from_der", |b| {
        b.iter(|| black_box(Certificate::from_der(&der).expect("parses")))
    });
    group.finish();
}

fn bench_chain_validation(c: &mut Criterion) {
    let now = Asn1Time::from_ymd(2023, 6, 1);
    let root = CertificateAuthority::new_root(
        b"bench-root",
        DistinguishedName::builder()
            .organization("Bench Trust")
            .common_name("Root")
            .build(),
        now,
    );
    let int = CertificateAuthority::new_intermediate(
        &root,
        b"bench-int",
        DistinguishedName::builder()
            .organization("Bench Trust")
            .common_name("Sub CA")
            .build(),
        now,
    );
    let mut anchors = TrustAnchors::new();
    anchors.add_to(&[RootProgram::MozillaNss], root.certificate());
    let mut registry = KeyRegistry::new();
    root.register_key(&mut registry);
    int.register_key(&mut registry);
    let leaf_key = Keypair::from_seed(b"bench-chain-leaf");
    let leaf = int.issue(
        CertificateBuilder::new()
            .subject(
                DistinguishedName::builder()
                    .common_name("leaf.bench")
                    .build(),
            )
            .validity(now.add_days(-30), now.add_days(335))
            .subject_key(leaf_key.key_id()),
    );
    let pool = vec![int.certificate().clone(), root.certificate().clone()];

    c.bench_function("pki/validate_two_hop_chain", |b| {
        b.iter(|| black_box(validate_chain(&leaf, &pool, &anchors, &registry, now).is_ok()))
    });
}

fn bench_monitor(c: &mut Criterion) {
    let cert = fixture_cert();
    let cfg = HandshakeConfig {
        version: TlsVersion::Tls12,
        sni: Some("bench.example.com".into()),
        server_chain: vec![cert.der()],
        request_client_cert: true,
        client_chain: vec![cert.der()],
        established: true,
        resumed: false,
        random_seed: 1,
    };
    let mut group = c.benchmark_group("tlssim");
    group.bench_function("simulate_handshake", |b| {
        b.iter(|| black_box(simulate_handshake(&cfg).len()))
    });
    let transcript = simulate_handshake(&cfg);
    group.bench_function("passive_observe", |b| {
        b.iter(|| black_box(observe(&transcript).expect("tls").is_mutual_tls()))
    });
    group.finish();
}

fn bench_zeek_tsv(c: &mut Criterion) {
    let sim = mtls_bench::sim_output();
    let records = &sim.ssl[..sim.ssl.len().min(2_000)];
    let mut group = c.benchmark_group("zeek");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("write_ssl_log_2k", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(512 * 1024);
            mtls_zeek::write_ssl_log(&mut buf, records).expect("write");
            black_box(buf.len())
        })
    });
    let mut encoded = Vec::new();
    mtls_zeek::write_ssl_log(&mut encoded, records).expect("write");
    group.bench_function("read_ssl_log_2k", |b| {
        b.iter(|| {
            black_box(
                mtls_zeek::read_ssl_log(Cursor::new(&encoded))
                    .expect("read")
                    .len(),
            )
        })
    });
    group.finish();
}

fn bench_classifier(c: &mut Criterion) {
    let inputs = [
        "www.example.com",
        "192.168.1.10",
        "12:34:56:AB:CD:EF",
        "sip:4434@voip.example.edu",
        "user@example.org",
        "hd7gr",
        "John Smith",
        "Hybrid Runbook Worker",
        "550e8400-e29b-41d4-a716-446655440000",
        "f3a9c2d17b604e5d",
        "__transfer__",
    ];
    let ctx = ClassifyContext {
        issuer_org: Some("Commonwealth University"),
        issuer_is_campus: true,
    };
    let mut group = c.benchmark_group("classify");
    group.throughput(Throughput::Elements(inputs.len() as u64));
    group.bench_function("classify_mixed_batch", |b| {
        b.iter(|| {
            for s in &inputs {
                black_box(classify(s, ctx));
            }
        })
    });
    group.finish();
}

fn bench_policy_and_crl(c: &mut Criterion) {
    use mtls_pki::crl::{check_revocation, CrlBuilder};
    use mtls_pki::{RevocationReason, ValidationPolicy};
    use mtls_x509::SerialNumber;

    let cert = fixture_cert();
    let policy = ValidationPolicy::enterprise();
    let at = Asn1Time::from_ymd(2023, 6, 1);
    let mut group = c.benchmark_group("policy");
    group.bench_function("evaluate_enterprise", |b| {
        b.iter(|| black_box(policy.evaluate(&cert, at, false, None).len()))
    });

    let ca = CertificateAuthority::new_root(
        b"bench-crl-ca",
        DistinguishedName::builder()
            .organization("Bench CRL Org")
            .build(),
        at,
    );
    let mut builder = CrlBuilder::new(at, at.add_days(7));
    for i in 0..500u32 {
        builder = builder.revoke(
            SerialNumber::new(&i.to_be_bytes()),
            at,
            RevocationReason::Superseded,
        );
    }
    let crl = builder.sign(&ca);
    group.bench_function("crl_sign_500_entries", |b| {
        b.iter(|| {
            let mut builder = CrlBuilder::new(at, at.add_days(7));
            for i in 0..500u32 {
                builder = builder.revoke(
                    SerialNumber::new(&i.to_be_bytes()),
                    at,
                    RevocationReason::Superseded,
                );
            }
            black_box(builder.sign(&ca).to_der().len())
        })
    });
    let der = crl.to_der();
    group.bench_function("crl_parse_500_entries", |b| {
        b.iter(|| {
            black_box(
                mtls_pki::CertificateRevocationList::from_der(&der)
                    .expect("parses")
                    .entries()
                    .len(),
            )
        })
    });
    group.bench_function("revocation_lookup", |b| {
        b.iter(|| black_box(check_revocation(&cert, Some(&crl), at).is_ok()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_crypto,
    bench_der,
    bench_x509,
    bench_chain_validation,
    bench_monitor,
    bench_zeek_tsv,
    bench_classifier,
    bench_policy_and_crl
);
criterion_main!(benches);
