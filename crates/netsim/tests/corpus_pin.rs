//! Pins netsim's output bytes: the sha256 of every file
//! `SimOutput::write_to_dir` writes, for two small `(seed, scale)` corpora.
//!
//! Performance work on the generator (DER encoding, the handshake wire
//! round trip, the final sort) must leave every byte of the corpus as it
//! was. A digest changes only when the generated corpus does; a change that
//! means to alter the corpus updates these constants and says why.

use mtls_crypto::{hex, sha256};
use mtls_netsim::{generate, SimConfig};

const FILES: [&str; 5] = ["ssl.log", "x509.log", "ct.log", "ct_gossip.log", "meta.tsv"];

fn digests(seed: u64, scale: f64) -> Vec<(&'static str, String)> {
    let out = generate(&SimConfig {
        seed,
        scale,
        ..SimConfig::default()
    });
    let dir = std::env::temp_dir().join(format!(
        "mtlscope-corpus-pin-{}-{seed}-{scale}",
        std::process::id()
    ));
    out.write_to_dir(&dir).unwrap();
    let got = FILES
        .iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(name)).unwrap();
            (*name, hex::encode(&sha256(&bytes)))
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    got
}

fn check(seed: u64, scale: f64, want: [&str; 5]) {
    let got = digests(seed, scale);
    let expected: Vec<(&str, String)> = FILES
        .iter()
        .zip(want)
        .map(|(name, d)| (*name, d.to_string()))
        .collect();
    assert_eq!(got, expected, "seed {seed}, scale {scale}");
}

#[test]
fn seed7_scale001_corpus_bytes_are_pinned() {
    check(
        7,
        0.01,
        [
            "bb5c977fe10a089db70fc60fe28224b63ec53298fcd8fcc7d8350112a84baf4f",
            "5c6fd4bc12d417786480c36d43ad9359f9b27ad9a659332c26957a73d119809f",
            "2863a1ca10aae9ca53e5db81a2d5975879c298dd6eaeff3c1b25b5d2851d8e47",
            "764c3563a21ef54134136764a09cb6e3b6da9b0e2c463cba96f15cba0fbe0d40",
            "2865827b7571e4604f126b2b6764a5df30fc9f1819c9b2cd8a07fa4e3aea053b",
        ],
    );
}

#[test]
fn seed1_scale002_corpus_bytes_are_pinned() {
    check(
        1,
        0.02,
        [
            "f565eb9c5f523091e6476dbefabe8d0e17f7b04fe6441cc261f4130c898d1c66",
            "23ed29af252b893b7d42364b13a9172c2459c2c6f4761295b06bde3e144069de",
            "18a67b63ca986b729f76ad09ca411b96bd31b6df7ba8c39e9421b942650b2ff4",
            "cffbdcc3c4f75581c53a1ff3babf467b9bbcbb1b0ef85c17c66aaa360bdb9263",
            "9208c07b1f5dc3d8fd00bc484712f065bd84314bb1706b0125b0b974ab3d1fc0",
        ],
    );
}
