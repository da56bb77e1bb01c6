//! The WebRTC-style ephemeral population.
//!
//! Real-time media stacks mint a fresh self-signed certificate per session
//! on *both* peers, with CNs like "WebRTC", "twilio", "hangouts" — this is
//! what makes private CAs dominate the unique-certificate census (Table 1)
//! and "WebRTC" dominate the Org/Product rows of Table 8. Sessions ride
//! TURN-over-TLS relays (tcp/443) with no SNI.

use crate::certgen::{random_hex, sip_address, MintSpec};
use crate::config::SimConfig;
use crate::emit::{ConnSpec, Emitter};
use crate::scenarios::{mtls_spread, pick_weighted, spread_ts};
use crate::targets;
use crate::world::World;
use mtls_zeek::TlsVersion;
use rand::Rng;

/// Run the scenario.
pub fn run(config: &SimConfig, world: &World, em: &mut Emitter, rng: &mut impl Rng) {
    let pairs = config.scaled(targets::WEBRTC_PAIRS);
    // Sessions ride a small TURN-relay fleet, not a fresh address each —
    // the paper's §3.3 observes that external mTLS *servers* concentrate
    // at a handful of cloud/security providers.
    let relays: Vec<mtls_zeek::Ipv4> = (0..config.scaled(40).max(2))
        .map(|_| {
            if rng.gen_bool(0.7) {
                world.plan.aws.sample(rng)
            } else {
                world.plan.gp_cloud.sample(rng)
            }
        })
        .collect();
    let (spread, months) = mtls_spread(pairs, false);
    let sip_quota_server = config.scaled(targets::SERVER_PRIVATE_SIP);
    let mut sip_left = sip_quota_server;
    // CN mix weights, plus the remainder for SIP URIs and hash CNs.
    let mut weights: Vec<f64> = targets::WEBRTC_CN_MIX.iter().map(|(_, f)| *f).collect();
    weights.push(1.0 - weights.iter().sum::<f64>());

    for k in 0..pairs {
        let ts = spread_ts(rng, k, &spread, &months);
        // Ephemeral validity: around 30 days either side of the session,
        // like real DTLS stacks.
        let t0 = mtls_asn1::Asn1Time::from_unix(ts as i64);
        let validity = (t0.add_days(-1), t0.add_days(30));

        // Both peers self-issue. The issuer string is the generator name
        // itself (how these appear in the wild).
        let pick = pick_weighted(rng, &weights);
        let (server_cn, client_cn): (String, String) = if pick < targets::WEBRTC_CN_MIX.len() {
            let base = targets::WEBRTC_CN_MIX[pick].0;
            (base.to_string(), base.to_string())
        } else if sip_left > 0 {
            // VoIP endpoints: SIP URIs in the CN (Table 8's SIP rows).
            sip_left -= 1;
            (sip_address(rng), sip_address(rng))
        } else {
            // Short hash CNs: Table 9's dominant 8-char server strings.
            (random_hex(rng, 8), random_hex(rng, 8))
        };

        let self_ca_server = world.private_ca_with_cn("WebRTC", &server_cn);
        let self_ca_client = world.private_ca_with_cn("WebRTC", &client_cn);
        let server_cert = MintSpec::new(&self_ca_server, validity.0, validity.1)
            .cn(server_cn)
            .org("WebRTC")
            .mint(rng);
        // A slice of stacks reuse one certificate for both peers — part of
        // Table 13's shared-certificate population.
        let client_cert = if rng.gen_bool(0.004) {
            server_cert.clone()
        } else {
            MintSpec::new(&self_ca_client, validity.0, validity.1)
                .cn(client_cn)
                .org("WebRTC")
                .mint(rng)
        };

        // Outbound: campus peer dials an external relay.
        let orig = world.plan.clients.sample(rng);
        let resp = relays[rng.gen_range(0..relays.len())];
        let conns = if rng.gen_bool(0.15) { 2 } else { 1 };
        for c in 0..conns {
            em.connection(
                ConnSpec {
                    ts: ts + c as f64 * 60.0,
                    orig,
                    resp,
                    resp_port: 443,
                    version: TlsVersion::Tls12,
                    sni: None,
                    server_chain: vec![&server_cert],
                    client_chain: vec![&client_cert],
                    established: true,
                    resumed: false,
                },
                rng,
            );
        }
    }
}
