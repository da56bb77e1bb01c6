//! File-based ingestion: load a log directory written by the simulator (or
//! by any producer of the same layout) into [`AnalysisInputs`].
//!
//! Layout accepted:
//! * `ssl.log` / `x509.log` — unrotated singletons, or
//! * `ssl.YYYY-MM.log` / `x509.YYYY-MM.log` — Zeek-style monthly rotation;
//! * `ct.log` — tab-separated (domain, issuer, fingerprint) triples;
//! * `ct_gossip.log` — optional STH/proof gossip evidence (see
//!   [`mtls_pki::GossipBundle`]); absent on pre-gossip corpora and real
//!   captures, in which case the legacy interception filter runs;
//! * `meta.tsv` — the out-of-band knowledge (`key<TAB>value` lines).
//!
//! Every loader runs in one of two [`IngestMode`]s. [`IngestMode::Strict`]
//! (the default, and the historical behavior) aborts on the first malformed
//! row, shard, or meta entry. [`IngestMode::Lenient`] skips malformed data
//! rows, quarantines whole shards that fail to open or carry a bad header,
//! and skips malformed `cloud_nets` meta entries — recording everything in
//! an [`IngestDiagnostics`] so corruption is visible, bounded (see
//! [`IngestDiagnostics::check_error_rate`]), and never silent. Structural
//! problems (a missing required meta key, an unreadable `meta.tsv`) stay
//! hard errors in both modes: there is no sensible partial recovery from
//! losing the out-of-band knowledge.

use crate::corpus::MetaKnowledge;
use crate::pipeline::AnalysisInputs;
use crate::report::{count, fmt_micros, Table};
use crate::stream::{CorpusBuilder, StreamParts};
use mtls_obs::{Obs, SpanId};
use mtls_pki::ctlog::{CtEntry, CtLog};
use mtls_pki::GossipBundle;
use mtls_zeek::{
    available_workers, IngestMode, IngestStats, Ipv4, ShardDiag, SslRecord, TsvError, X509Record,
    ERROR_KINDS,
};
use std::io::BufReader;
use std::path::Path;

/// Errors from loading a log directory.
#[derive(Debug)]
pub enum IngestError {
    Io(std::io::Error),
    Tsv(mtls_zeek::TsvError),
    /// `meta.tsv` is missing a required key or has a malformed value.
    BadMeta(String),
    /// The lenient loader skipped more than `--max-error-rate` allows.
    ErrorRate {
        rate: f64,
        max: f64,
    },
}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> IngestError {
        IngestError::Io(e)
    }
}

impl From<mtls_zeek::TsvError> for IngestError {
    fn from(e: mtls_zeek::TsvError) -> IngestError {
        IngestError::Tsv(e)
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "io error: {e}"),
            IngestError::Tsv(e) => write!(f, "log parse error: {e}"),
            IngestError::BadMeta(k) => write!(f, "meta.tsv: bad or missing key {k:?}"),
            IngestError::ErrorRate { rate, max } => write!(
                f,
                "ingest error rate {rate:.6} exceeds the configured maximum {max}"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// Accounting for the `meta.tsv` parse (today only malformed `cloud_nets`
/// entries are recoverable, so that is all this tracks).
#[derive(Debug, Clone, Default)]
struct MetaDiag {
    entries_skipped: u64,
    samples: Vec<String>,
    wall_micros: u64,
}

/// Structured diagnostics for one directory load: the Zeek-log shard
/// accounting from [`IngestStats`], the meta-entry skips, and per-stage
/// wall times. Returned by [`load_dir`] and [`load_dir_streaming_obs`].
#[derive(Debug, Clone, Default)]
pub struct IngestDiagnostics {
    pub mode: IngestMode,
    /// Per-shard and corpus-wide Zeek-log accounting.
    pub stats: IngestStats,
    /// Malformed `cloud_nets` entries skipped (lenient mode only).
    pub meta_entries_skipped: u64,
    /// First few skipped `cloud_nets` entries, verbatim.
    pub meta_samples: Vec<String>,
    /// Wall time parsing `meta.tsv`.
    pub meta_micros: u64,
    /// Wall time parsing `ct.log`.
    pub ct_micros: u64,
    /// Wall time reading the Zeek logs (singletons or rotated shards).
    pub logs_micros: u64,
    /// Wall time for the whole load, end to end.
    pub total_micros: u64,
}

impl IngestDiagnostics {
    /// Skipped fraction of everything attempted: skipped rows, quarantined
    /// shards (one bad unit each), and skipped meta entries, over those
    /// plus the rows that parsed. 0.0 for an empty load.
    pub fn error_rate(&self) -> f64 {
        let bad =
            self.stats.rows_skipped + self.stats.shards_quarantined + self.meta_entries_skipped;
        let attempted = self.stats.rows_parsed + bad;
        if attempted == 0 {
            0.0
        } else {
            bad as f64 / attempted as f64
        }
    }

    /// Enforce `--max-error-rate`: error if the observed rate *exceeds*
    /// `max` (so `max = 0.0` tolerates a clean corpus and nothing else).
    pub fn check_error_rate(&self, max: f64) -> Result<(), IngestError> {
        let rate = self.error_rate();
        if rate > max {
            Err(IngestError::ErrorRate { rate, max })
        } else {
            Ok(())
        }
    }

    /// Fold another load's diagnostics into this one — the incremental
    /// ingest accumulator. The streaming loader absorbs each epoch's
    /// diagnostics here so [`error_rate`](Self::error_rate) and
    /// [`check_error_rate`](Self::check_error_rate) are always evaluated
    /// over the cumulative totals across every epoch pushed so far —
    /// never reset per month, which would let `--max-error-rate` pass a
    /// corpus whose early months were clean and late months garbage.
    pub fn absorb(&mut self, other: IngestDiagnostics) {
        self.stats.absorb_stats(other.stats);
        self.meta_entries_skipped += other.meta_entries_skipped;
        self.meta_samples.extend(other.meta_samples);
        self.meta_micros += other.meta_micros;
        self.ct_micros += other.ct_micros;
        self.logs_micros += other.logs_micros;
        self.total_micros += other.total_micros;
    }

    /// Whether anything at all was skipped or quarantined.
    pub fn has_problems(&self) -> bool {
        self.stats.rows_skipped > 0
            || self.stats.shards_quarantined > 0
            || self.meta_entries_skipped > 0
    }

    /// Plain-text rendering: a summary table always, plus a per-shard
    /// problem table and the sampled offending lines when anything was
    /// skipped. Clean shards are omitted from the problem table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut t = Table::new(
            &format!("Ingest diagnostics ({} mode)", self.mode.label()),
            &["metric", "value"],
        );
        t.row(vec!["shards read".into(), count(self.stats.shards.len())]);
        t.row(vec![
            "rows parsed".into(),
            count(self.stats.rows_parsed as usize),
        ]);
        t.row(vec![
            "rows skipped".into(),
            count(self.stats.rows_skipped as usize),
        ]);
        t.row(vec![
            "shards quarantined".into(),
            count(self.stats.shards_quarantined as usize),
        ]);
        t.row(vec![
            "meta entries skipped".into(),
            count(self.meta_entries_skipped as usize),
        ]);
        t.row(vec![
            "bytes read".into(),
            count(self.stats.bytes_read as usize),
        ]);
        t.row(vec![
            "error rate".into(),
            format!("{:.6}", self.error_rate()),
        ]);
        t.row(vec![
            "wall (meta / ct / logs / total)".into(),
            format!(
                "{} / {} / {} / {}",
                fmt_micros(self.meta_micros),
                fmt_micros(self.ct_micros),
                fmt_micros(self.logs_micros),
                fmt_micros(self.total_micros)
            ),
        ]);
        out.push_str(&t.render());

        let problems: Vec<&ShardDiag> = self
            .stats
            .shards
            .iter()
            .filter(|d| d.rows_skipped() > 0 || d.quarantined.is_some())
            .collect();
        if !problems.is_empty() {
            let mut header: Vec<&str> = vec!["shard", "rows"];
            header.extend(ERROR_KINDS.iter().map(|k| k.label()));
            header.push("quarantined");
            let mut pt = Table::new("Ingest problems by shard", &header);
            for d in &problems {
                let mut row = vec![d.shard.clone(), count(d.rows_parsed as usize)];
                row.extend(d.skipped.iter().map(|n| count(*n as usize)));
                row.push(
                    d.quarantined
                        .as_ref()
                        .map(|q| q.kind.label().to_string())
                        .unwrap_or_else(|| "-".into()),
                );
                pt.row(row);
            }
            out.push('\n');
            out.push_str(&pt.render());
            for d in &problems {
                if let Some(q) = &d.quarantined {
                    out.push_str(&format!("  {}: quarantined: {}\n", d.shard, q.detail));
                }
                for s in &d.samples {
                    out.push_str(&format!(
                        "  {}:{} (byte {}): {}: {:?}\n",
                        d.shard, s.line, s.byte_offset, s.detail, s.snippet
                    ));
                }
            }
        }
        for entry in &self.meta_samples {
            out.push_str(&format!(
                "  meta.tsv: skipped malformed cloud_nets entry {entry:?}\n"
            ));
        }
        out
    }

    /// Just the per-stage wall-time block, for runs that want timings
    /// without the full diagnostics (strict mode with `--metrics`: the
    /// skip/quarantine tables are irrelevant — a strict load that finished
    /// is clean by construction — but the stage timings still matter).
    pub fn render_stage_times(&self) -> String {
        let mut t = Table::new("Ingest stage wall time", &["stage", "wall"]);
        t.row(vec!["meta.tsv".into(), fmt_micros(self.meta_micros)]);
        t.row(vec!["ct.log".into(), fmt_micros(self.ct_micros)]);
        t.row(vec![
            format!("zeek logs ({} shards)", self.stats.shards.len()),
            fmt_micros(self.logs_micros),
        ]);
        t.row(vec!["total".into(), fmt_micros(self.total_micros)]);
        t.render()
    }
}

/// Parse `addr/prefix` with a decimal prefix no wider than 32 bits. A
/// prefix above 32 used to slip through here and panic much later, deep in
/// the subnet mask arithmetic.
fn parse_net(entry: &str) -> Option<(Ipv4, u8)> {
    let (addr, prefix) = entry.split_once('/')?;
    let prefix: u8 = prefix.parse().ok().filter(|p| *p <= 32)?;
    Some((Ipv4::parse(addr)?, prefix))
}

fn parse_meta(
    path: &Path,
    mode: IngestMode,
    obs: &Obs,
    parent: Option<SpanId>,
) -> Result<(MetaKnowledge, MetaDiag), IngestError> {
    let span = obs.span(parent, "meta");
    let text = std::fs::read_to_string(path)?;
    // One pass over the file into a key → value map (first occurrence
    // wins, matching the old first-match scan).
    let mut kv: mtls_intern::FxHashMap<&str, &str> = mtls_intern::FxHashMap::default();
    for line in text.lines() {
        if let Some((key, value)) = line.split_once('\t') {
            kv.entry(key).or_insert(value);
        }
    }
    let get = |key: &str| -> Result<String, IngestError> {
        kv.get(key)
            .map(|v| (*v).to_owned())
            .ok_or_else(|| IngestError::BadMeta(key.to_string()))
    };
    // Lists are '|'-separated: organization names legitimately contain
    // commas ("GoDaddy.com, Inc").
    let list = |v: String| -> Vec<String> {
        if v.is_empty() {
            Vec::new()
        } else {
            v.split('|').map(str::to_owned).collect()
        }
    };
    let net = get("university_net")?;
    let university_net =
        parse_net(&net).ok_or_else(|| IngestError::BadMeta("university_net".into()))?;
    // A malformed cloud_nets entry is a hard error in strict mode (it used
    // to be dropped silently, shifting classifications without a trace)
    // and a counted, sampled skip in lenient mode.
    let mut diag = MetaDiag::default();
    let mut cloud_nets = Vec::new();
    for entry in list(get("cloud_nets").unwrap_or_default()) {
        match parse_net(&entry) {
            Some(net) => cloud_nets.push(net),
            None if mode == IngestMode::Lenient => {
                diag.entries_skipped += 1;
                if diag.samples.len() < mtls_zeek::diag::MAX_SAMPLES {
                    diag.samples.push(entry);
                }
            }
            None => {
                return Err(IngestError::BadMeta(format!("cloud_nets entry {entry:?}")));
            }
        }
    }
    let meta = MetaKnowledge {
        university_net,
        cloud_nets,
        campus_issuer_orgs: list(get("campus_issuer_orgs")?),
        public_ca_orgs: list(get("public_ca_orgs")?),
        health_slds: list(get("health_slds")?),
        university_slds: list(get("university_slds")?),
        vpn_slds: list(get("vpn_slds")?),
        localorg_slds: list(get("localorg_slds")?),
        globus_slds: list(get("globus_slds")?),
        non_mtls_weight: get("non_mtls_weight")?
            .parse()
            .map_err(|_| IngestError::BadMeta("non_mtls_weight".into()))?,
        // Optional: only simulated corpora with a planted CT fork carry it.
        ct_forked_logs: list(get("ct_forked_logs").unwrap_or_default()),
    };
    diag.wall_micros = span.finish().as_micros() as u64;
    if obs.enabled() {
        obs.counter("ingest.meta_entries_skipped")
            .add(diag.entries_skipped);
        obs.gauge_set("ingest.cloud_nets", meta.cloud_nets.len() as i64);
    }
    Ok((meta, diag))
}

fn parse_ct(path: &Path) -> Result<CtLog, IngestError> {
    if !path.exists() {
        return Ok(CtLog::new()); // CT data is optional
    }
    let text = std::fs::read_to_string(path)?;
    let mut entries = Vec::new();
    for line in text.lines() {
        let mut cols = line.splitn(3, '\t');
        let (Some(domain), Some(issuer), Some(fp)) = (cols.next(), cols.next(), cols.next()) else {
            continue;
        };
        entries.push(CtEntry {
            domain: domain.to_string(),
            issuer_display: issuer.to_string(),
            fingerprint_hex: fp.to_string(),
        });
    }
    Ok(CtLog::from_entries(entries))
}

/// Parse the optional `ct_gossip.log` (STHs, consistency and inclusion
/// proofs, log keys — see [`GossipBundle::to_tsv`]). Absent file → empty
/// bundle → the pipeline runs its legacy bare-issuer filter.
fn parse_gossip(path: &Path) -> Result<GossipBundle, IngestError> {
    if !path.exists() {
        return Ok(GossipBundle::default());
    }
    let text = std::fs::read_to_string(path)?;
    Ok(GossipBundle::from_tsv(&text))
}

/// A mode-aware TSV reader over an opened singleton log file.
type SingletonReader<T> =
    fn(BufReader<std::fs::File>, IngestMode, &mut ShardDiag) -> Result<Vec<T>, TsvError>;

/// Open and parse one singleton log (`ssl.log` / `x509.log`), timing it and
/// accounting rows into a fresh [`ShardDiag`]. Open failures surface as
/// `TsvError::Io` so the caller's quarantine logic sees one error type.
///
/// Instrumented like the rotated shard readers: one span named after the
/// file, one batched counter add per file — so a singleton layout and a
/// rotated layout produce the same kind of span tree and metric totals.
fn read_singleton<T>(
    path: &Path,
    mode: IngestMode,
    read: SingletonReader<T>,
    obs: &Obs,
    parent: Option<SpanId>,
) -> (ShardDiag, Result<Vec<T>, TsvError>) {
    let name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let mut diag = ShardDiag::new(name);
    let span = obs.span(parent, &diag.shard);
    let result = std::fs::File::open(path)
        .map_err(TsvError::from)
        .and_then(|f| read(BufReader::new(f), mode, &mut diag));
    diag.wall_micros = span.finish().as_micros() as u64;
    if obs.enabled() {
        obs.counter("ingest.rows_parsed").add(diag.rows_parsed);
        obs.counter("ingest.rows_skipped").add(diag.rows_skipped());
        obs.counter("ingest.bytes_read").add(diag.bytes_read);
        obs.histogram_record("ingest.shard_parse_micros", diag.wall_micros);
        obs.gauge_max("ingest.peak_shard_rows", diag.rows_parsed as i64);
    }
    (diag, result)
}

/// Fold one singleton read into `stats`. Strict propagates the error;
/// lenient quarantines the file (its records are dropped, the load goes on
/// with an empty vector) — the same contract rotated shards get.
fn stitch_singleton<T>(
    mode: IngestMode,
    mut diag: ShardDiag,
    result: Result<Vec<T>, TsvError>,
    stats: &mut IngestStats,
) -> Result<Vec<T>, IngestError> {
    match result {
        Ok(records) => {
            stats.absorb(diag);
            Ok(records)
        }
        Err(err) if mode == IngestMode::Lenient => {
            diag.quarantine(&err);
            stats.absorb(diag);
            Ok(Vec::new())
        }
        Err(err) => Err(err.into()),
    }
}

/// Read the unrotated `ssl.log` / `x509.log` pair, the two files on their
/// own threads when `workers > 1`. They are stitched in a fixed order (ssl
/// before x509), so strict mode's first error does not depend on
/// `workers`.
fn read_singletons(
    dir: &Path,
    mode: IngestMode,
    workers: usize,
    obs: &Obs,
    parent: Option<SpanId>,
) -> Result<(Vec<SslRecord>, Vec<X509Record>, IngestStats), IngestError> {
    let ssl_path = dir.join("ssl.log");
    let x509_path = dir.join("x509.log");
    let read_ssl = || read_singleton(&ssl_path, mode, mtls_zeek::read_ssl_log_with, obs, parent);
    let read_x509 = || read_singleton(&x509_path, mode, mtls_zeek::read_x509_log_with, obs, parent);
    let ((s_diag, s_res), (x_diag, x_res)) = if workers > 1 {
        std::thread::scope(|s| {
            let ssl = s.spawn(read_ssl);
            let x509 = read_x509();
            (ssl.join().expect("ssl reader panicked"), x509)
        })
    } else {
        (read_ssl(), read_x509())
    };
    let mut stats = IngestStats {
        mode,
        ..IngestStats::default()
    };
    let ssl = stitch_singleton(mode, s_diag, s_res, &mut stats)?;
    let x509 = stitch_singleton(mode, x_diag, x_res, &mut stats)?;
    Ok((ssl, x509, stats))
}

/// Fold the finished load into run-level throughput metrics: rows/sec and
/// bytes/sec gauges derived from the logs stage wall time. (Gauges, not
/// counters — they are rates of this run, and loads of the same corpus on
/// different worker counts legitimately differ here.)
fn record_throughput(obs: &Obs, diag: &IngestDiagnostics) {
    if !obs.enabled() || diag.logs_micros == 0 {
        return;
    }
    let per_sec = |n: u64| (n as f64 * 1_000_000.0 / diag.logs_micros as f64) as i64;
    obs.gauge_set("ingest.rows_per_sec", per_sec(diag.stats.rows_parsed));
    obs.gauge_set("ingest.bytes_per_sec", per_sec(diag.stats.bytes_read));
}

/// The scaffold every directory load shares: an `ingest` span under
/// `parent` with `meta` / `ct` / `logs` children, the sidecar parses, and
/// the [`IngestDiagnostics`] ledger. `read_logs` gets the parsed meta and
/// the `logs` span and returns whatever it built from the Zeek logs plus
/// their accounting. With `workers > 1`, `ct.log` and `ct_gossip.log`
/// parse on their own thread while the logs load.
///
/// Errors surface in a fixed order — meta, ct, logs — whatever `workers`
/// is. The span durations fill the wall-time fields of the diagnostics,
/// so the ledger keeps its shape whether or not `obs` is enabled.
fn load<T>(
    dir: &Path,
    mode: IngestMode,
    workers: usize,
    obs: &Obs,
    parent: Option<SpanId>,
    read_logs: impl FnOnce(MetaKnowledge, Option<SpanId>) -> Result<(T, IngestStats), IngestError>,
) -> Result<(T, CtLog, GossipBundle, IngestDiagnostics), IngestError> {
    let ingest_span = obs.span(parent, "ingest");
    let ingest_id = ingest_span.id();
    let result = (|| {
        let (meta, meta_diag) = parse_meta(&dir.join("meta.tsv"), mode, obs, ingest_id)?;
        let parse_sidecars = || {
            let span = obs.span(ingest_id, "ct");
            let ct = parse_ct(&dir.join("ct.log"));
            let gossip = parse_gossip(&dir.join("ct_gossip.log"));
            (ct, gossip, span.finish().as_micros() as u64)
        };
        let load_logs = || {
            let span = obs.span(ingest_id, "logs");
            let logs = read_logs(meta, span.id());
            (logs, span.finish().as_micros() as u64)
        };
        let ((ct, gossip, ct_micros), (logs, logs_micros)) = if workers > 1 {
            std::thread::scope(|s| {
                let sidecars = s.spawn(parse_sidecars);
                let logs = load_logs();
                (sidecars.join().expect("ct parser panicked"), logs)
            })
        } else {
            (parse_sidecars(), load_logs())
        };
        let (ct, gossip) = (ct?, gossip?);
        let (built, mut stats) = logs?;
        stats.wall_micros = logs_micros;
        let diagnostics = IngestDiagnostics {
            mode,
            stats,
            meta_entries_skipped: meta_diag.entries_skipped,
            meta_samples: meta_diag.samples,
            meta_micros: meta_diag.wall_micros,
            ct_micros,
            logs_micros,
            total_micros: 0, // stamped below, once the ingest span closes
        };
        Ok((built, ct, gossip, diagnostics))
    })();
    let total_micros = ingest_span.finish().as_micros() as u64;
    result.map(|(built, ct, gossip, mut diag)| {
        diag.total_micros = total_micros;
        record_throughput(obs, &diag);
        (built, ct, gossip, diag)
    })
}

/// Load a directory into pipeline inputs plus [`IngestDiagnostics`].
/// Accepts both the unrotated and the monthly-rotated layouts.
///
/// With `workers > 1` the independent files load concurrently: the CT
/// sidecars on their own thread, the two singletons on two threads, or
/// the rotated shards on a pool of `workers` threads
/// ([`mtls_zeek::read_monthly`]). `workers <= 1` reads everything in
/// order on the caller's thread. The records, diagnostics, span tree
/// (`ingest` → `meta` / `ct` / `logs` → one span per log file) and
/// counter totals do not depend on `workers`.
pub fn load_dir(
    dir: &Path,
    mode: IngestMode,
    workers: usize,
    obs: &Obs,
    parent: Option<SpanId>,
) -> Result<(AnalysisInputs, IngestDiagnostics), IngestError> {
    let ((ssl, x509, meta), ct, gossip, diag) =
        load(dir, mode, workers, obs, parent, |meta, logs_id| {
            let (ssl, x509, stats) = if dir.join("ssl.log").exists() {
                read_singletons(dir, mode, workers, obs, logs_id)?
            } else {
                mtls_zeek::read_monthly(dir, mode, workers, obs, logs_id)?
            };
            Ok(((ssl, x509, meta), stats))
        })?;
    let inputs = AnalysisInputs {
        ssl,
        x509,
        ct,
        gossip,
        meta,
    };
    Ok((inputs, diag))
}

/// [`load_dir`] on [`mtls_zeek::available_workers`] threads, without
/// observability.
pub fn load_dir_with(
    dir: &Path,
    mode: IngestMode,
) -> Result<(AnalysisInputs, IngestDiagnostics), IngestError> {
    load_dir(dir, mode, available_workers(), &Obs::noop(), None)
}

/// Options for [`load_dir_streaming_obs`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamOptions {
    /// Rolling window: keep only the newest N months live in the
    /// builder, retiring older epochs as newer ones arrive. `None`
    /// streams the full directory (every epoch survives to the finish).
    pub window_months: Option<usize>,
}

/// Month-by-month streaming load: walk a rotated directory one epoch at a
/// time, pushing each month into a [`CorpusBuilder`] and (in window mode)
/// retiring epochs that fall outside the rolling window, so peak memory
/// is bounded by the window — not the corpus. Returns the builder's
/// [`StreamParts`] (records in canonical month order), the CT log, and
/// *cumulative* diagnostics: every epoch's stats are absorbed into one
/// [`IngestDiagnostics`], so the `--max-error-rate` guard sees the whole
/// stream, never a single month.
///
/// The span schema matches [`load_dir`] — `ingest` with `meta`/`ct`/`logs`
/// children and one `logs/<shard>` grandchild per shard file — plus one
/// `logs/push_epoch` grandchild per push and the builder's `stream.*`
/// gauges. An unrotated singleton directory degrades gracefully: the
/// singletons are read whole, then partitioned into monthly epochs in
/// memory, so windowing still works.
pub fn load_dir_streaming_obs(
    dir: &Path,
    mode: IngestMode,
    opts: StreamOptions,
    obs: &Obs,
    parent: Option<SpanId>,
) -> Result<(StreamParts, CtLog, GossipBundle, IngestDiagnostics), IngestError> {
    let workers = available_workers();
    load(dir, mode, workers, obs, parent, |meta, logs_id| {
        let mut builder = CorpusBuilder::new(meta).with_obs(obs, logs_id);
        // Evict months about to fall out of the window *before* reading
        // the next month, so the peak live set is `window` months, never
        // `window + 1`.
        let make_room = |builder: &mut CorpusBuilder| {
            if let Some(window) = opts.window_months {
                builder.retire_for_incoming(window);
            }
        };
        let stats = if dir.join("ssl.log").exists() {
            let (ssl, x509, stats) = read_singletons(dir, mode, workers, obs, logs_id)?;
            for (key, ssl_part, x509_part) in mtls_zeek::partition_monthly(ssl, x509) {
                make_room(&mut builder);
                builder.push_epoch(&key, ssl_part, x509_part);
            }
            stats
        } else {
            let mut stats = IngestStats {
                mode,
                ..IngestStats::default()
            };
            for key in mtls_zeek::month_keys(dir)? {
                make_room(&mut builder);
                let (ssl_part, x509_part, month_stats) =
                    mtls_zeek::read_month_obs(dir, &key, mode, obs, logs_id)?;
                stats.absorb_stats(month_stats);
                builder.push_epoch(&key, ssl_part, x509_part);
            }
            stats
        };
        Ok((builder.finish(), stats))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE_META: &str = "university_net\t172.29.0.0/16\ncampus_issuer_orgs\tX\n\
                             public_ca_orgs\t\nhealth_slds\t\nuniversity_slds\t\nvpn_slds\t\n\
                             localorg_slds\t\nglobus_slds\t\nnon_mtls_weight\t10\n";

    /// Strict load, records only.
    fn load_strict(dir: &Path) -> Result<AnalysisInputs, IngestError> {
        load_dir_with(dir, IngestMode::Strict).map(|(inputs, _)| inputs)
    }

    /// [`load_dir`] on `workers` threads, without observability.
    fn load_on(
        workers: usize,
    ) -> impl Fn(&Path, IngestMode) -> Result<(AnalysisInputs, IngestDiagnostics), IngestError>
    {
        move |dir, mode| load_dir(dir, mode, workers, &Obs::noop(), None)
    }

    fn write_empty_logs(dir: &Path) {
        let mut ssl = Vec::new();
        mtls_zeek::write_ssl_log(&mut ssl, &[]).unwrap();
        std::fs::write(dir.join("ssl.log"), ssl).unwrap();
        let mut x509 = Vec::new();
        mtls_zeek::write_x509_log(&mut x509, &[]).unwrap();
        std::fs::write(dir.join("x509.log"), x509).unwrap();
    }

    #[test]
    fn missing_meta_is_reported() {
        let dir = std::env::temp_dir().join(format!("mtlscope-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("meta.tsv"), "university_net\t10.0.0.0/8\n").unwrap();
        let err = match load_strict(&dir) {
            Err(e) => e,
            Ok(_) => panic!("incomplete meta must be rejected"),
        };
        assert!(matches!(err, IngestError::BadMeta(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_logs_error_instead_of_panicking() {
        let dir = std::env::temp_dir().join(format!("mtlscope-ingest3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("meta.tsv"), BASE_META).unwrap();
        // Garbage where a Zeek header should be, and raw bytes that are not
        // UTF-8 at all.
        std::fs::write(
            dir.join("ssl.log"),
            "#separator \\x09\nnot\ta\tvalid\trow\n",
        )
        .unwrap();
        std::fs::write(dir.join("x509.log"), [0xFFu8, 0xFE, 0x00, 0x80]).unwrap();
        assert!(load_strict(&dir).is_err());

        // A malformed university_net is a BadMeta, not a panic.
        std::fs::write(
            dir.join("meta.tsv"),
            BASE_META.replace("/16", "/notaprefix"),
        )
        .unwrap();
        assert!(matches!(load_strict(&dir), Err(IngestError::BadMeta(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ct_log_is_optional() {
        let dir = std::env::temp_dir().join(format!("mtlscope-ingest2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let meta = "university_net\t172.29.0.0/16\ncampus_issuer_orgs\tX\n\
                    public_ca_orgs\tGoDaddy.com, Inc|Entrust, Inc.\n\
                    health_slds\t\nuniversity_slds\t\nvpn_slds\t\nlocalorg_slds\t\nglobus_slds\t\n\
                    non_mtls_weight\t10\n";
        std::fs::write(dir.join("meta.tsv"), meta).unwrap();
        write_empty_logs(&dir);

        let inputs = load_strict(&dir).unwrap();
        assert!(inputs.ct.is_empty());
        assert!(inputs.ssl.is_empty());
        assert_eq!(inputs.meta.non_mtls_weight, 10.0);
        // Comma-bearing org names survive the list separator.
        assert_eq!(
            inputs.meta.public_ca_orgs,
            vec!["GoDaddy.com, Inc".to_string(), "Entrust, Inc.".to_string()]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_rejects_malformed_cloud_nets_lenient_counts_them() {
        let dir = std::env::temp_dir().join(format!("mtlscope-ingest4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Three malformed entries among two good ones: no prefix, a prefix
        // wider than 32 bits (used to parse, then panic in the subnet mask
        // shift), and a non-address. All were silently dropped before.
        let meta = format!(
            "{BASE_META}cloud_nets\t18.204.0.0/16|10.9.8.0|52.0.0.0/40|nonsense/8|35.80.0.0/12\n"
        );
        std::fs::write(dir.join("meta.tsv"), &meta).unwrap();
        write_empty_logs(&dir);

        for loader in [load_on(1), load_on(4)] {
            let err = match loader(&dir, IngestMode::Strict) {
                Err(e) => e,
                Ok(_) => panic!("strict mode must reject malformed cloud_nets"),
            };
            assert!(
                matches!(&err, IngestError::BadMeta(k) if k.contains("cloud_nets")),
                "{err}"
            );

            let (inputs, diag) = loader(&dir, IngestMode::Lenient).unwrap();
            assert_eq!(
                inputs.meta.cloud_nets,
                vec![
                    (Ipv4::new(18, 204, 0, 0), 16),
                    (Ipv4::new(35, 80, 0, 0), 12)
                ]
            );
            assert_eq!(diag.meta_entries_skipped, 3);
            assert_eq!(
                diag.meta_samples,
                vec!["10.9.8.0", "52.0.0.0/40", "nonsense/8"]
            );
            assert!(diag.error_rate() > 0.0);
            assert!(diag.check_error_rate(0.0).is_err());
            assert!(diag.check_error_rate(1.0).is_ok());
            assert!(diag.render().contains("cloud_nets"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_rate_is_cumulative_across_absorbed_epochs_and_zero_when_empty() {
        // Empty diagnostics: 0.0, not NaN (0/0).
        let total = IngestDiagnostics::default();
        assert_eq!(total.error_rate(), 0.0);
        assert!(total.check_error_rate(0.0).is_ok());

        // A clean early epoch followed by a garbage late epoch: evaluated
        // per month, the clean epoch passes (0.0) and only the last
        // month's isolated rate would reach the guard. Cumulative
        // absorption evaluates 50 bad over 150 attempted.
        let clean = IngestDiagnostics {
            stats: mtls_zeek::IngestStats {
                rows_parsed: 100,
                ..mtls_zeek::IngestStats::default()
            },
            ..IngestDiagnostics::default()
        };
        let dirty = IngestDiagnostics {
            stats: mtls_zeek::IngestStats {
                rows_skipped: 50,
                ..mtls_zeek::IngestStats::default()
            },
            ..IngestDiagnostics::default()
        };
        let mut total = IngestDiagnostics::default();
        total.absorb(clean);
        assert_eq!(total.error_rate(), 0.0);
        total.absorb(dirty);
        assert!((total.error_rate() - 50.0 / 150.0).abs() < 1e-12);
        assert!(total.check_error_rate(0.2).is_err());
        assert!(total.check_error_rate(0.5).is_ok());
    }

    #[test]
    fn streaming_load_guards_over_the_whole_stream_not_per_month() {
        use mtls_zeek::{SslRecord, TlsVersion};
        let dir = std::env::temp_dir().join(format!("mtlscope-ingest7-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("meta.tsv"), BASE_META).unwrap();
        let ssl_at = |ts: f64, uid: &str| SslRecord {
            ts,
            uid: uid.to_string(),
            orig_h: Ipv4::new(172, 29, 0, 1),
            orig_p: 1,
            resp_h: Ipv4::new(10, 0, 0, 2),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: None,
            established: true,
            cert_chain_fps: vec![],
            client_cert_chain_fps: vec![],
        };
        const MAY: f64 = 1_651_363_200.0;
        const JUN: f64 = 1_654_041_600.0;
        mtls_zeek::write_monthly(&dir, &[ssl_at(MAY, "a"), ssl_at(JUN, "b")], &[]).unwrap();
        // Corrupt only the *late* month: three malformed rows appended.
        let victim = dir.join("ssl.2022-06.log");
        let mut text = std::fs::read_to_string(&victim).unwrap();
        text.push_str("garbage\nmore\tgarbage\nworse\n");
        std::fs::write(&victim, text).unwrap();

        let (parts, _ct, _gossip, diag) = load_dir_streaming_obs(
            &dir,
            IngestMode::Lenient,
            StreamOptions::default(),
            &Obs::noop(),
            None,
        )
        .unwrap();
        assert_eq!(parts.summary.epochs_pushed, 2);
        assert_eq!(diag.stats.rows_parsed, 2);
        assert_eq!(diag.stats.rows_skipped, 3);
        // Cumulative: 3 bad of 5 attempted across BOTH epochs — a
        // per-month guard would have seen 0.0 for May and waved the
        // stream through until the very last epoch.
        assert!((diag.error_rate() - 0.6).abs() < 1e-9);
        assert!(diag.check_error_rate(0.5).is_err());
        assert!(diag.check_error_rate(0.6).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_quarantines_unreadable_singletons() {
        let dir = std::env::temp_dir().join(format!("mtlscope-ingest5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("meta.tsv"), BASE_META).unwrap();
        let mut ssl = Vec::new();
        mtls_zeek::write_ssl_log(&mut ssl, &[]).unwrap();
        std::fs::write(dir.join("ssl.log"), ssl).unwrap();
        // x509.log has a header that belongs to no known schema.
        std::fs::write(dir.join("x509.log"), "#fields\tnope\nnope\n").unwrap();

        for loader in [load_on(1), load_on(4)] {
            assert!(matches!(
                loader(&dir, IngestMode::Strict),
                Err(IngestError::Tsv(TsvError::BadHeader))
            ));
            let (inputs, diag) = loader(&dir, IngestMode::Lenient).unwrap();
            assert!(inputs.x509.is_empty());
            assert_eq!(diag.stats.shards_quarantined, 1);
            let bad = diag
                .stats
                .shards
                .iter()
                .find(|d| d.quarantined.is_some())
                .unwrap();
            assert_eq!(bad.shard, "x509.log");
            assert!(diag.render().contains("quarantined"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
