//! Monthly log rotation.
//!
//! Real Zeek deployments rotate logs; a 23-month collection is hundreds of
//! files, not two. This module writes a corpus as per-month files
//! (`ssl.2022-05.log`, `x509.2022-05.log`, …) and reads such a directory
//! back in chronological order, so the pipeline can ingest either layout.

use crate::diag::{IngestMode, IngestStats, ShardDiag};
use crate::records::{SslRecord, X509Record};
use crate::tsv::{read_ssl_log_with, read_x509_log_with, write_ssl_log, write_x509_log, TsvError};
use mtls_intern::FxHashMap;
use mtls_obs::{Obs, SpanId};
use std::io::BufReader;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `YYYY-MM` for a Unix-seconds timestamp (proleptic Gregorian).
fn month_key(ts: f64) -> String {
    // Days since epoch → civil date, reusing the zeek-local arithmetic to
    // avoid a dependency on mtls-asn1 here. Floor before the integer cast:
    // `ts as i64` truncates toward zero, which would bucket a fractional
    // pre-epoch timestamp like -0.5 into 1970-01 instead of 1969-12.
    let days = (ts.floor() as i64).div_euclid(86_400);
    let (y, m) = civil_year_month(days);
    format!("{y:04}-{m:02}")
}

/// (year, month) from days-since-epoch (Howard Hinnant's algorithm).
fn civil_year_month(z: i64) -> (i64, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (y + i64::from(m <= 2), m)
}

/// Group records into per-month buckets of references (no record clones;
/// bucket order is resolved by sorting the handful of month keys after
/// the single fast-hash grouping pass).
fn group_by_month<T>(records: &[T], ts_of: impl Fn(&T) -> f64) -> Vec<(String, Vec<&T>)> {
    let mut by_month: FxHashMap<String, Vec<&T>> = FxHashMap::default();
    for rec in records {
        by_month.entry(month_key(ts_of(rec))).or_default().push(rec);
    }
    let mut buckets: Vec<(String, Vec<&T>)> = by_month.into_iter().collect();
    buckets.sort_by(|a, b| a.0.cmp(&b.0));
    buckets
}

/// Write per-month `ssl.YYYY-MM.log` / `x509.YYYY-MM.log` files.
pub fn write_monthly(dir: &Path, ssl: &[SslRecord], x509: &[X509Record]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (month, records) in group_by_month(ssl, |r| r.ts) {
        let mut f =
            std::io::BufWriter::new(std::fs::File::create(dir.join(format!("ssl.{month}.log")))?);
        write_ssl_log(&mut f, records)?;
    }
    for (month, records) in group_by_month(x509, |r| r.ts) {
        let mut f = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("x509.{month}.log")),
        )?);
        write_x509_log(&mut f, records)?;
    }
    Ok(())
}

/// Enumerate the rotated shard files of a directory, sorted into filename
/// (chronological) order. Files not matching the `ssl.*.log` /
/// `x509.*.log` patterns are ignored, as are the unrotated
/// `ssl.log`/`x509.log` singletons.
fn shard_files(dir: &Path) -> Result<(Vec<std::path::PathBuf>, Vec<std::path::PathBuf>), TsvError> {
    let mut ssl_files: Vec<std::path::PathBuf> = Vec::new();
    let mut x509_files: Vec<std::path::PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(TsvError::Io)? {
        let path = entry.map_err(TsvError::Io)?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("ssl.") && name.ends_with(".log") && name != "ssl.log" {
            ssl_files.push(path);
        } else if name.starts_with("x509.") && name.ends_with(".log") && name != "x509.log" {
            x509_files.push(path);
        }
    }
    ssl_files.sort();
    x509_files.sort();
    Ok((ssl_files, x509_files))
}

/// One parsed shard, tagged by kind so both log streams can share a
/// single work queue.
enum ParsedShard {
    Ssl(Vec<SslRecord>),
    X509(Vec<X509Record>),
}

fn shard_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// One shard's parse outcome: its accounting plus the records or the
/// shard-level error.
type ShardResult = (ShardDiag, Result<ParsedShard, TsvError>);

/// Open and parse one shard, timing it and accounting rows/bytes into its
/// [`ShardDiag`]. Shard-level failures (open, header) come back as `Err`;
/// the caller either propagates them (strict) or quarantines (lenient).
///
/// Each shard records one span (named after the shard file) under
/// `parent`, so the span tree of a read is the same for every worker
/// count and interleaving. Metrics are batched — one counter add and one
/// histogram observation per shard, never per row — keeping the
/// instrumented hot path within the overhead budget.
fn read_shard(
    path: &Path,
    is_ssl: bool,
    mode: IngestMode,
    obs: &Obs,
    parent: Option<SpanId>,
) -> ShardResult {
    let mut diag = ShardDiag::new(shard_name(path));
    let span = obs.span(parent, &diag.shard);
    let parsed = std::fs::File::open(path)
        .map_err(TsvError::Io)
        .and_then(|f| {
            if is_ssl {
                read_ssl_log_with(BufReader::new(f), mode, &mut diag).map(ParsedShard::Ssl)
            } else {
                read_x509_log_with(BufReader::new(f), mode, &mut diag).map(ParsedShard::X509)
            }
        });
    diag.wall_micros = span.finish().as_micros() as u64;
    if obs.enabled() {
        obs.counter("ingest.rows_parsed").add(diag.rows_parsed);
        obs.counter("ingest.rows_skipped").add(diag.rows_skipped());
        obs.counter("ingest.bytes_read").add(diag.bytes_read);
        obs.histogram_record("ingest.shard_parse_micros", diag.wall_micros);
        obs.gauge_max("ingest.peak_shard_rows", diag.rows_parsed as i64);
    }
    (diag, parsed)
}

/// Stitch per-shard results back in filename order. Strict mode surfaces
/// the first shard error in that order (matching serial semantics);
/// lenient mode quarantines failed shards and keeps going.
fn stitch(
    slots: Vec<ShardResult>,
    mode: IngestMode,
    stats: &mut IngestStats,
) -> Result<(Vec<SslRecord>, Vec<X509Record>), TsvError> {
    let mut ssl = Vec::new();
    let mut x509 = Vec::new();
    for (mut diag, parsed) in slots {
        match parsed {
            Ok(ParsedShard::Ssl(records)) => ssl.extend(records),
            Ok(ParsedShard::X509(records)) => x509.extend(records),
            Err(err) if mode == IngestMode::Lenient => diag.quarantine(&err),
            Err(err) => return Err(err),
        }
        stats.absorb(diag);
    }
    Ok((ssl, x509))
}

/// Worker count for the parallel readers: the machine's available
/// parallelism (1 when it cannot be queried).
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Read a rotated directory back, concatenated in filename (chronological)
/// order, with per-shard diagnostics.
///
/// Each monthly shard is independent — parse work dominates I/O here — so
/// with `workers > 1` the shards are drained from one shared queue by that
/// many scoped threads (capped at the shard count); `workers <= 1` reads
/// them in order on the caller's thread. Either way the results are
/// stitched back in sorted filename order, so the output does not depend
/// on `workers`: strict mode reports the first shard error in that order,
/// lenient mode quarantines failed shards and keeps going.
///
/// Each shard records a span (named after its file) under `parent`, plus
/// batched row/byte counters and a parse-latency histogram, so the span
/// tree and counter totals are the same for every worker count.
pub fn read_monthly(
    dir: &Path,
    mode: IngestMode,
    workers: usize,
    obs: &Obs,
    parent: Option<SpanId>,
) -> Result<(Vec<SslRecord>, Vec<X509Record>, IngestStats), TsvError> {
    let t0 = std::time::Instant::now();
    let (ssl_files, x509_files) = shard_files(dir)?;
    let tasks: Vec<(&Path, bool)> = ssl_files
        .iter()
        .map(|p| (p.as_path(), true))
        .chain(x509_files.iter().map(|p| (p.as_path(), false)))
        .collect();
    let read = |&(path, is_ssl): &(&Path, bool)| read_shard(path, is_ssl, mode, obs, parent);
    let workers = workers.min(tasks.len());
    let slots: Vec<ShardResult> = if workers <= 1 {
        tasks.iter().map(read).collect()
    } else {
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, ShardResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(task) = tasks.get(i) else {
                                return done;
                            };
                            done.push((i, read(task)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard reader panicked"))
                .collect()
        });
        done.sort_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, result)| result).collect()
    };
    let mut stats = IngestStats {
        mode,
        ..IngestStats::default()
    };
    let (ssl, x509) = stitch(slots, mode, &mut stats)?;
    stats.wall_micros = t0.elapsed().as_micros() as u64;
    Ok((ssl, x509, stats))
}

/// Strict-or-lenient [`read_monthly`] on [`available_workers`] threads,
/// without observability.
pub fn read_monthly_with(
    dir: &Path,
    mode: IngestMode,
) -> Result<(Vec<SslRecord>, Vec<X509Record>, IngestStats), TsvError> {
    read_monthly(dir, mode, available_workers(), &Obs::noop(), None)
}

/// The month key embedded in a rotated shard filename
/// (`ssl.2022-05.log` → `2022-05`), or `None` for non-shard files.
fn shard_month(name: &str) -> Option<&str> {
    let stem = name.strip_suffix(".log")?;
    let key = stem
        .strip_prefix("ssl.")
        .or_else(|| stem.strip_prefix("x509."))?;
    (!key.is_empty()).then_some(key)
}

/// The distinct month keys present in a rotated directory, sorted into
/// chronological (`YYYY-MM` lexicographic) order. This is the epoch
/// schedule of a streaming ingest: each key names one
/// [`read_month_obs`] unit.
pub fn month_keys(dir: &Path) -> Result<Vec<String>, TsvError> {
    let (ssl_files, x509_files) = shard_files(dir)?;
    let mut keys: Vec<String> = ssl_files
        .iter()
        .chain(x509_files.iter())
        .filter_map(|p| p.file_name()?.to_str())
        .filter_map(shard_month)
        .map(str::to_string)
        .collect();
    keys.sort();
    keys.dedup();
    Ok(keys)
}

/// Read only the shards of one month (`ssl.<key>.log` / `x509.<key>.log`
/// where present) — the unit of work a streaming ingest pushes as one
/// epoch. Observability mirrors [`read_monthly`]: one span per shard
/// file under `parent`, batched row/byte counters, so a month-by-month
/// walk of a directory produces the same span tree and counter totals as
/// one batch read. Strict mode surfaces the first shard error in
/// filename order; lenient quarantines it, exactly like the batch
/// readers.
pub fn read_month_obs(
    dir: &Path,
    key: &str,
    mode: IngestMode,
    obs: &Obs,
    parent: Option<SpanId>,
) -> Result<(Vec<SslRecord>, Vec<X509Record>, IngestStats), TsvError> {
    let t0 = std::time::Instant::now();
    let mut stats = IngestStats {
        mode,
        ..IngestStats::default()
    };
    let mut ssl = Vec::new();
    let mut x509 = Vec::new();
    for (name, is_ssl) in [
        (format!("ssl.{key}.log"), true),
        (format!("x509.{key}.log"), false),
    ] {
        let path = dir.join(&name);
        if !path.exists() {
            continue;
        }
        let (diag, parsed) = read_shard(&path, is_ssl, mode, obs, parent);
        let (ssl_part, x509_part) = stitch(vec![(diag, parsed)], mode, &mut stats)?;
        ssl.extend(ssl_part);
        x509.extend(x509_part);
    }
    stats.wall_micros = t0.elapsed().as_micros() as u64;
    Ok((ssl, x509, stats))
}

/// Partition in-memory records into per-month epochs, chronologically
/// sorted — the in-memory twin of a rotated directory walk, used when a
/// simulated corpus is streamed without touching disk. Record order
/// within each month is preserved, so concatenating the partitions
/// reproduces [`write_monthly`]-then-read byte order exactly.
pub fn partition_monthly(
    ssl: Vec<SslRecord>,
    x509: Vec<X509Record>,
) -> Vec<(String, Vec<SslRecord>, Vec<X509Record>)> {
    let mut months: std::collections::BTreeMap<String, (Vec<SslRecord>, Vec<X509Record>)> =
        std::collections::BTreeMap::new();
    for rec in ssl {
        months.entry(month_key(rec.ts)).or_default().0.push(rec);
    }
    for rec in x509 {
        months.entry(month_key(rec.ts)).or_default().1.push(rec);
    }
    months
        .into_iter()
        .map(|(key, (ssl, x509))| (key, ssl, x509))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::Ipv4;
    use crate::records::TlsVersion;

    fn ssl_at(ts: f64, uid: &str) -> SslRecord {
        SslRecord {
            ts,
            uid: uid.to_string(),
            orig_h: Ipv4::new(10, 0, 0, 1),
            orig_p: 1,
            resp_h: Ipv4::new(10, 0, 0, 2),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: None,
            established: true,
            cert_chain_fps: vec![],
            client_cert_chain_fps: vec![],
        }
    }

    fn x509_at(ts: f64, fp: &str) -> X509Record {
        X509Record {
            ts,
            fingerprint: fp.to_string(),
            version: 3,
            serial: "01".into(),
            subject: String::new(),
            issuer: String::new(),
            issuer_org: None,
            subject_cn: None,
            not_valid_before: 0,
            not_valid_after: 1,
            key_alg: "rsa".into(),
            key_length: 2048,
            sig_alg: String::new(),
            san_dns: vec![],
            san_email: vec![],
            san_uri: vec![],
            san_ip: vec![],
            basic_constraints_ca: false,
        }
    }

    /// [`read_monthly`] without observability.
    fn read(
        dir: &Path,
        mode: IngestMode,
        workers: usize,
    ) -> Result<(Vec<SslRecord>, Vec<X509Record>, IngestStats), TsvError> {
        read_monthly(dir, mode, workers, &Obs::noop(), None)
    }

    const MAY_2022: f64 = 1_651_363_200.0;
    const JUN_2022: f64 = 1_654_041_600.0;

    #[test]
    fn month_keys() {
        assert_eq!(month_key(MAY_2022), "2022-05");
        assert_eq!(month_key(MAY_2022 + 86_400.0 * 30.0), "2022-05");
        assert_eq!(month_key(JUN_2022), "2022-06");
        assert_eq!(month_key(0.0), "1970-01");
    }

    #[test]
    fn month_keys_floor_pre_epoch_fractions() {
        // Truncation (`ts as i64`) would bucket -0.5 into 1970-01; a
        // fractional second before the epoch belongs to 1969-12.
        assert_eq!(month_key(-0.5), "1969-12");
        assert_eq!(month_key(-1.0), "1969-12");
        assert_eq!(month_key(0.5), "1970-01");
        // Whole pre-epoch days were already correct via div_euclid.
        assert_eq!(month_key(-86_400.0), "1969-12");
        assert_eq!(month_key(-86_400.0 * 31.0), "1969-12");
        assert_eq!(month_key(-86_400.0 * 31.0 - 0.25), "1969-11");
        // A deep pre-epoch timestamp (1756-12-28T23:59:59.5Z) lands in the
        // right month.
        assert_eq!(month_key(-6_721_833_600.0 - 0.5), "1756-12");
    }

    #[test]
    fn lenient_quarantines_bad_shards_and_counts_rows() {
        use crate::diag::ErrorKind;
        let ssl = vec![ssl_at(MAY_2022, "a"), ssl_at(JUN_2022, "b")];
        let x509 = vec![x509_at(MAY_2022, "f1"), x509_at(JUN_2022, "f2")];
        let dir = std::env::temp_dir().join(format!("mtlscope-rotate4-{}", std::process::id()));
        write_monthly(&dir, &ssl, &x509).unwrap();
        // Corrupt the x509 May shard's #fields header.
        let victim = dir.join("x509.2022-05.log");
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, text.replace("#fields\tts", "#fields\tbogus")).unwrap();

        // Strict: serial and parallel reads both fail with BadHeader.
        for workers in [1, 4] {
            assert!(matches!(
                read(&dir, IngestMode::Strict, workers),
                Err(TsvError::BadHeader)
            ));
        }

        // Lenient: the shard is quarantined, everything else survives.
        for workers in [1, 4] {
            let (ssl_rt, x509_rt, stats) = read(&dir, IngestMode::Lenient, workers).unwrap();
            assert_eq!(ssl_rt, ssl);
            assert_eq!(x509_rt, vec![x509_at(JUN_2022, "f2")]);
            assert_eq!(stats.shards_quarantined, 1);
            assert_eq!(stats.rows_parsed, 3);
            assert_eq!(stats.rows_skipped, 0);
            let bad = stats
                .shards
                .iter()
                .find(|d| d.quarantined.is_some())
                .expect("quarantined shard diag");
            assert_eq!(bad.shard, "x509.2022-05.log");
            assert_eq!(bad.quarantined.as_ref().unwrap().kind, ErrorKind::BadHeader);
            // Corpus-wide totals agree with the per-shard sums.
            let summed: u64 = stats.shards.iter().map(|d| d.rows_parsed).sum();
            assert_eq!(stats.rows_parsed, summed);
            assert!(stats.error_rate() > 0.0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_round_trips_in_order() {
        let ssl = vec![
            ssl_at(MAY_2022, "a"),
            ssl_at(MAY_2022 + 60.0, "b"),
            ssl_at(JUN_2022, "c"),
        ];
        let x509 = vec![x509_at(MAY_2022, "f1"), x509_at(JUN_2022, "f2")];
        let dir = std::env::temp_dir().join(format!("mtlscope-rotate-{}", std::process::id()));
        write_monthly(&dir, &ssl, &x509).unwrap();

        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.contains(&"ssl.2022-05.log".to_string()));
        assert!(names.contains(&"ssl.2022-06.log".to_string()));
        assert!(names.contains(&"x509.2022-05.log".to_string()));

        let (ssl_rt, x509_rt, _) = read(&dir, IngestMode::Strict, 4).unwrap();
        assert_eq!(ssl_rt, ssl, "chronological concatenation");
        assert_eq!(x509_rt, x509);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_matches_serial() {
        let ssl: Vec<SslRecord> = (0..40)
            .map(|i| ssl_at(MAY_2022 + f64::from(i) * 86_400.0, &format!("u{i}")))
            .collect();
        let x509: Vec<X509Record> = (0..40)
            .map(|i| x509_at(MAY_2022 + f64::from(i) * 86_400.0, &format!("fp{i}")))
            .collect();
        let dir = std::env::temp_dir().join(format!("mtlscope-rotate3-{}", std::process::id()));
        write_monthly(&dir, &ssl, &x509).unwrap();

        let (par_ssl, par_x509, _) = read(&dir, IngestMode::Strict, 4).unwrap();
        let (ser_ssl, ser_x509, _) = read(&dir, IngestMode::Strict, 1).unwrap();
        let par = (par_ssl, par_x509);
        assert_eq!(par, (ser_ssl, ser_x509));
        assert_eq!(par.0, ssl);
        assert_eq!(par.1, x509);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn month_by_month_walk_matches_batch_read() {
        let ssl = vec![
            ssl_at(MAY_2022, "a"),
            ssl_at(MAY_2022 + 60.0, "b"),
            ssl_at(JUN_2022, "c"),
        ];
        // June has ssl traffic but no x509 shard — the walk must cope
        // with a month missing one of the two files.
        let x509 = vec![x509_at(MAY_2022, "f1")];
        let dir = std::env::temp_dir().join(format!("mtlscope-rotate5-{}", std::process::id()));
        write_monthly(&dir, &ssl, &x509).unwrap();

        let keys = crate::rotate::month_keys(&dir).unwrap();
        assert_eq!(keys, vec!["2022-05".to_string(), "2022-06".to_string()]);

        let mut walked_ssl = Vec::new();
        let mut walked_x509 = Vec::new();
        let mut rows = 0;
        for key in &keys {
            let (s, x, stats) =
                read_month_obs(&dir, key, IngestMode::Strict, &Obs::noop(), None).unwrap();
            rows += stats.rows_parsed;
            walked_ssl.extend(s);
            walked_x509.extend(x);
        }
        let (batch_ssl, batch_x509, _) = read(&dir, IngestMode::Strict, 4).unwrap();
        assert_eq!(walked_ssl, batch_ssl);
        assert_eq!(walked_x509, batch_x509);
        assert_eq!(rows, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partition_matches_rotated_layout() {
        let ssl = vec![
            ssl_at(JUN_2022, "c"),
            ssl_at(MAY_2022, "a"),
            ssl_at(MAY_2022 + 60.0, "b"),
        ];
        let x509 = vec![x509_at(MAY_2022, "f1"), x509_at(JUN_2022, "f2")];
        let parts = partition_monthly(ssl.clone(), x509.clone());
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, "2022-05");
        assert_eq!(
            parts[0].1,
            vec![ssl_at(MAY_2022, "a"), ssl_at(MAY_2022 + 60.0, "b")]
        );
        assert_eq!(parts[0].2, vec![x509_at(MAY_2022, "f1")]);
        assert_eq!(parts[1].0, "2022-06");
        assert_eq!(parts[1].1, vec![ssl_at(JUN_2022, "c")]);

        // Same epochs a rotated directory would yield.
        let dir = std::env::temp_dir().join(format!("mtlscope-rotate6-{}", std::process::id()));
        write_monthly(&dir, &ssl, &x509).unwrap();
        for (key, part_ssl, part_x509) in &parts {
            let (s, x, _) =
                read_month_obs(&dir, key, IngestMode::Strict, &Obs::noop(), None).unwrap();
            assert_eq!(&s, part_ssl);
            assert_eq!(&x, part_x509);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ignores_unrelated_files() {
        let dir = std::env::temp_dir().join(format!("mtlscope-rotate2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), "hi").unwrap();
        std::fs::write(dir.join("ssl.log"), "unrotated singleton").unwrap();
        let (ssl, x509, _) = read(&dir, IngestMode::Strict, 4).unwrap();
        assert!(ssl.is_empty());
        assert!(x509.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
