//! Experiment `ser1` — §5.1.2: certificates sharing the identical serial
//! number within the same issuer's scope.

use crate::corpus::{CertId, Corpus, Direction};
use crate::report::{count, Table};
use mtls_intern::{FxHashMap, FxHashSet};
use mtls_zeek::Ipv4;

/// One (issuer, serial) collision group.
#[derive(Debug, Clone)]
pub struct Group {
    pub issuer: String,
    pub serial: String,
    pub client_certs: usize,
    pub server_certs: usize,
    pub conns: usize,
    pub clients: usize,
    /// Median validity period of the colliding certs (days) — the paper
    /// notes most are < 15 days.
    pub median_validity_days: i64,
}

/// §5.1.2's statistics.
#[derive(Debug, Clone)]
pub struct Report {
    /// Collision groups (≥ 2 certificates), largest first.
    pub groups: Vec<Group>,
    /// Clients involved in inbound / outbound connections with ≥ 1
    /// colliding endpoint.
    pub inbound_clients: usize,
    pub outbound_clients: usize,
    /// Outbound clients where *both* endpoints collide.
    pub outbound_both_clients: usize,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    // Group unique mTLS certs by (issuer display, serial), borrowing both
    // strings from the corpus. Almost every key is unique, so a first pass
    // only counts, and only the collision groups (≥ 2 certificates)
    // accumulate anything.
    #[derive(Default)]
    struct Acc {
        client_certs: usize,
        server_certs: usize,
        validities: Vec<i64>,
        conns: usize,
        clients: FxHashSet<Ipv4>,
    }
    let live = || {
        corpus
            .certs
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.excluded && c.in_mtls)
            .map(|(id, c)| (id, c, (c.rec.issuer.as_str(), c.rec.serial.as_str())))
    };
    let mut sizes: FxHashMap<(&str, &str), u32> =
        FxHashMap::with_capacity_and_hasher(corpus.certs.len(), Default::default());
    for (_, _, key) in live() {
        *sizes.entry(key).or_default() += 1;
    }
    let mut by_key: FxHashMap<(&str, &str), Acc> = FxHashMap::default();
    // Each colliding certificate's group, for the connection pass.
    let mut colliding: FxHashMap<CertId, (&str, &str)> = FxHashMap::default();
    for (id, cert, key) in live() {
        if sizes[&key] < 2 {
            continue;
        }
        colliding.insert(id, key);
        let acc = by_key.entry(key).or_default();
        if cert.seen_as_client {
            acc.client_certs += 1;
        }
        if cert.seen_as_server {
            acc.server_certs += 1;
        }
        acc.validities.push(cert.rec.validity_days());
    }

    let mut inbound_clients: FxHashSet<Ipv4> = FxHashSet::default();
    let mut outbound_clients: FxHashSet<Ipv4> = FxHashSet::default();
    let mut outbound_both: FxHashSet<Ipv4> = FxHashSet::default();
    for conn in corpus.mtls_conns() {
        let group_of = |leaf: Option<CertId>| leaf.and_then(|id| colliding.get(&id).copied());
        let s = group_of(conn.server_leaf);
        let c = group_of(conn.client_leaf);
        if s.is_none() && c.is_none() {
            continue;
        }
        match conn.direction {
            Direction::Inbound => {
                inbound_clients.insert(conn.rec.orig_h);
            }
            Direction::Outbound => {
                outbound_clients.insert(conn.rec.orig_h);
                if s.is_some() && c.is_some() {
                    outbound_both.insert(conn.rec.orig_h);
                }
            }
            Direction::Transit => {}
        }
        for key in [s, c].into_iter().flatten() {
            let acc = by_key
                .get_mut(&key)
                .expect("colliding certs map to live groups");
            acc.conns += 1;
            acc.clients.insert(conn.rec.orig_h);
        }
    }

    let mut groups: Vec<Group> = by_key
        .into_iter()
        .map(|((issuer, serial), mut acc)| {
            acc.validities.sort();
            let median = acc.validities[acc.validities.len() / 2];
            Group {
                issuer: issuer.to_string(),
                serial: serial.to_string(),
                client_certs: acc.client_certs,
                server_certs: acc.server_certs,
                conns: acc.conns,
                clients: acc.clients.len(),
                median_validity_days: median,
            }
        })
        .collect();
    groups.sort_by(|a, b| {
        (b.client_certs + b.server_certs)
            .cmp(&(a.client_certs + a.server_certs))
            .then_with(|| a.issuer.cmp(&b.issuer))
            .then_with(|| a.serial.cmp(&b.serial))
    });

    Report {
        groups,
        inbound_clients: inbound_clients.len(),
        outbound_clients: outbound_clients.len(),
        outbound_both_clients: outbound_both.len(),
    }
}

impl Report {
    /// The collision group for (issuer-substring, serial), if any.
    pub fn group(&self, issuer_contains: &str, serial: &str) -> Option<&Group> {
        self.groups
            .iter()
            .find(|g| g.issuer.contains(issuer_contains) && g.serial == serial)
    }

    /// Render §5.1.2's findings.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Serial-number collisions within the same issuer (section 5.1.2)",
            &[
                "issuer",
                "serial",
                "client certs",
                "server certs",
                "conns",
                "clients",
                "median validity (d)",
            ],
        );
        for g in self.groups.iter().take(12) {
            t.row(vec![
                g.issuer.clone(),
                g.serial.clone(),
                count(g.client_certs),
                count(g.server_certs),
                count(g.conns),
                count(g.clients),
                g.median_validity_days.to_string(),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "clients touching collisions: inbound {} / outbound {} (both-endpoint outbound: {})\n",
            self.inbound_clients, self.outbound_clients, self.outbound_both_clients
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CertOpts, CorpusBuilder, T0};

    #[test]
    fn groups_by_issuer_and_serial() {
        let mut b = CorpusBuilder::new();
        // Two client certs and one server cert share serial 00 under one CA.
        for fp in ["a", "b"] {
            b.cert(
                fp,
                CertOpts {
                    issuer_org: Some("Globus Online"),
                    serial: "00",
                    cn: Some("t1"),
                    ..Default::default()
                },
            );
        }
        b.cert(
            "srv00",
            CertOpts {
                issuer_org: Some("Globus Online"),
                serial: "00",
                cn: Some("t2"),
                ..Default::default()
            },
        );
        // Same serial, *different* issuer: no collision across issuers.
        b.cert(
            "other",
            CertOpts {
                issuer_org: Some("GuardiCore"),
                serial: "00",
                cn: Some("t3"),
                ..Default::default()
            },
        );
        // Unique serial: never a collision.
        b.cert(
            "uniq",
            CertOpts {
                issuer_org: Some("Globus Online"),
                serial: "0BEEF0",
                cn: Some("t4"),
                ..Default::default()
            },
        );

        b.inbound(T0, 1, None, "srv00", "a");
        b.inbound(T0, 2, None, "srv00", "b");
        b.outbound(T0, 3, None, "uniq", "other");
        let r = run(&b.build());

        assert_eq!(r.groups.len(), 1, "one collision group");
        let g = &r.groups[0];
        assert!(g.issuer.contains("Globus Online"));
        assert_eq!(g.serial, "00");
        assert_eq!(g.client_certs, 2);
        assert_eq!(g.server_certs, 1);
        assert_eq!(g.clients, 2);
        assert_eq!(r.inbound_clients, 2);
        assert_eq!(r.outbound_clients, 0);
        assert!(r.group("GuardiCore", "00").is_none());
    }

    #[test]
    fn both_endpoint_collisions_counted() {
        let mut b = CorpusBuilder::new();
        for fp in ["x", "y"] {
            b.cert(
                fp,
                CertOpts {
                    issuer_org: Some("ViptelaClient"),
                    serial: "024680",
                    cn: Some(if fp == "x" { "cx" } else { "cy" }),
                    ..Default::default()
                },
            );
        }
        b.outbound(T0, 7, None, "x", "y");
        let r = run(&b.build());
        assert_eq!(r.outbound_both_clients, 1);
        let g = r.group("ViptelaClient", "024680").expect("group");
        assert_eq!(g.conns, 2, "both endpoints counted");
    }
}
