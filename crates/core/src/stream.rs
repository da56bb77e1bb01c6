//! Windowed record loader: bounded-memory month-by-month ingest.
//!
//! The batch pipeline slurps all 23 months, then builds one [`Corpus`]
//! — peak memory linear in months. A [`CorpusBuilder`] instead accepts
//! one month (an **epoch**) at a time and keeps only the records of the
//! months inside a rolling window. It does no aggregation of its own: its
//! [`CorpusBuilder::finish`] output goes through the same interception
//! filter and [`Corpus::build`] the batch path runs
//! (`pipeline::run_pipeline_streamed_parallel_obs`), so the two paths
//! share every line of the join and fold.
//!
//! Lifecycle:
//!
//! 1. **push** — [`CorpusBuilder::push_epoch`] appends one month's
//!    `ssl`/`x509` records to that month's segment and tags every
//!    fingerprint with the epoch that first contributed it (the dedup
//!    ledger).
//! 2. **retire** — [`CorpusBuilder::retire_for_incoming`] drops every
//!    epoch that would fall outside the rolling window, releasing its
//!    records and ledger entries. This is what bounds memory: the builder
//!    retains O(window) connection rows, not O(corpus).
//! 3. **finish** — [`CorpusBuilder::finish`] re-assembles the surviving
//!    epochs in canonical month order (a `BTreeMap` walk, so shuffled
//!    pushes converge to the same records).
//!
//! Equivalence contracts (pinned in `tests/ingest_equiv.rs`):
//! * full-window streaming output is byte-identical to the batch build on
//!   the same input, for any push order;
//! * a rolling window of N months is byte-identical to a batch build over
//!   only those N months.
//!
//! [`Corpus`]: crate::Corpus
//! [`Corpus::build`]: crate::Corpus::build

use crate::corpus::MetaKnowledge;
use mtls_intern::FxHashMap;
use mtls_obs::{Obs, SpanId};
use mtls_zeek::{SslRecord, X509Record};
use std::collections::BTreeMap;

/// Rough retained heap of one `ssl.log` record (owned strings + vectors;
/// lengths, not capacities, so the estimate is deterministic for given
/// contents).
fn ssl_heap_bytes(rec: &SslRecord) -> usize {
    std::mem::size_of::<SslRecord>()
        + rec.uid.len()
        + rec.server_name.as_ref().map_or(0, |s| s.len())
        + rec
            .cert_chain_fps
            .iter()
            .chain(rec.client_cert_chain_fps.iter())
            .map(|f| f.len() + std::mem::size_of::<String>())
            .sum::<usize>()
}

/// Rough retained heap of one `x509.log` record.
fn x509_heap_bytes(rec: &X509Record) -> usize {
    std::mem::size_of::<X509Record>()
        + rec.fingerprint.len()
        + rec.serial.len()
        + rec.subject.len()
        + rec.issuer.len()
        + rec.issuer_org.as_ref().map_or(0, |s| s.len())
        + rec.subject_cn.as_ref().map_or(0, |s| s.len())
        + rec.key_alg.len()
        + rec.sig_alg.len()
        + rec
            .san_dns
            .iter()
            .chain(rec.san_email.iter())
            .chain(rec.san_uri.iter())
            .map(|s| s.len() + std::mem::size_of::<String>())
            .sum::<usize>()
}

/// One month's retained state.
struct Epoch {
    ssl: Vec<SslRecord>,
    x509: Vec<X509Record>,
    /// Retained-heap estimate of this epoch's records.
    footprint: u64,
}

/// What one [`CorpusBuilder::push_epoch`] call did.
#[derive(Debug, Clone, Default)]
pub struct EpochStats {
    pub key: String,
    pub ssl_rows: usize,
    pub x509_rows: usize,
    /// x509 rows introducing a fingerprint no live epoch had contributed.
    pub fresh_fps: usize,
    /// x509 rows whose fingerprint an earlier push already contributed
    /// (the epoch-tagged dedup ledger; the rows are kept, exactly as the
    /// batch build keeps duplicate rows, but the re-appearance is
    /// accounted).
    pub dup_fps: usize,
    /// Builder retained-heap estimate after this push (live epochs only).
    pub footprint_bytes: u64,
}

/// Summary of a whole streaming build, returned inside [`StreamParts`].
#[derive(Debug, Clone, Default)]
pub struct StreamSummary {
    /// Epochs pushed, in push order.
    pub epochs_pushed: usize,
    /// Epochs retired out of the rolling window, with their row counts.
    pub epochs_retired: usize,
    pub retired_ssl_rows: u64,
    pub retired_x509_rows: u64,
    /// High-water retained-heap estimate across the whole build.
    pub peak_footprint_bytes: u64,
    /// Largest single epoch's retained-heap estimate — the "1-month
    /// footprint" reference the rolling-window RSS ceiling is gated
    /// against (peak ≤ 2× this when `--window 1mo`).
    pub max_epoch_footprint_bytes: u64,
    /// Cross-epoch duplicate fingerprints observed by the dedup ledger.
    pub dup_fps: u64,
}

/// Everything [`CorpusBuilder::finish`] hands the pipeline: the surviving
/// records in canonical month order and the build summary. Feed it to
/// `pipeline::run_pipeline_streamed_parallel_obs` (or run the interception
/// filter and [`crate::Corpus::build`] by hand).
pub struct StreamParts {
    pub ssl: Vec<SslRecord>,
    pub x509: Vec<X509Record>,
    pub meta: MetaKnowledge,
    pub summary: StreamSummary,
}

/// The incremental corpus builder. See the module docs for the lifecycle.
pub struct CorpusBuilder {
    meta: MetaKnowledge,
    /// Live epochs, keyed by month (`BTreeMap` = canonical order for
    /// free, whatever order the pushes arrived in).
    epochs: BTreeMap<String, Epoch>,
    /// Epoch-tagged fingerprint dedup: fingerprint → index into
    /// `epoch_keys` of the live epoch that first contributed it.
    fp_epoch: FxHashMap<String, u32>,
    /// Registry backing `fp_epoch` (retired keys keep their slot; their
    /// fingerprints are evicted from `fp_epoch` on retirement).
    epoch_keys: Vec<String>,
    summary: StreamSummary,
    obs: Obs,
    parent: Option<SpanId>,
}

impl CorpusBuilder {
    pub fn new(meta: MetaKnowledge) -> CorpusBuilder {
        CorpusBuilder {
            meta,
            epochs: BTreeMap::new(),
            fp_epoch: FxHashMap::default(),
            epoch_keys: Vec::new(),
            summary: StreamSummary::default(),
            obs: Obs::noop(),
            parent: None,
        }
    }

    /// Attach an observability session: one `push_epoch` span per push
    /// under `parent`, per-push gauges (live rows, footprint, epoch count)
    /// and RSS samples.
    pub fn with_obs(mut self, obs: &Obs, parent: Option<SpanId>) -> CorpusBuilder {
        self.obs = obs.clone();
        self.parent = parent;
        self
    }

    /// Ingest one month. Pushing the same key twice appends to that
    /// epoch (shards of one month may arrive separately).
    pub fn push_epoch(
        &mut self,
        key: &str,
        ssl: Vec<SslRecord>,
        x509: Vec<X509Record>,
    ) -> EpochStats {
        let span = self.obs.span(self.parent, "push_epoch");
        let epoch_idx = match self.epoch_keys.iter().position(|k| k == key) {
            Some(i) => i as u32,
            None => {
                self.epoch_keys.push(key.to_string());
                (self.epoch_keys.len() - 1) as u32
            }
        };

        let mut stats = EpochStats {
            key: key.to_string(),
            ssl_rows: ssl.len(),
            x509_rows: x509.len(),
            ..EpochStats::default()
        };

        // Epoch-tagged fingerprint dedup ledger: first live contributor
        // wins the tag; re-appearances are counted, not dropped (the
        // batch build keeps duplicate rows too, so byte-identity holds).
        let mut footprint: u64 = ssl.iter().map(|r| ssl_heap_bytes(r) as u64).sum();
        for rec in &x509 {
            footprint += x509_heap_bytes(rec) as u64;
            if self.fp_epoch.contains_key(&rec.fingerprint) {
                stats.dup_fps += 1;
            } else {
                self.fp_epoch.insert(rec.fingerprint.clone(), epoch_idx);
                stats.fresh_fps += 1;
            }
        }
        self.summary.dup_fps += stats.dup_fps as u64;

        let slot = self.epochs.entry(key.to_string()).or_insert_with(|| Epoch {
            ssl: Vec::new(),
            x509: Vec::new(),
            footprint: 0,
        });
        slot.ssl.extend(ssl);
        slot.x509.extend(x509);
        slot.footprint += footprint;
        self.summary.epochs_pushed += 1;
        self.summary.max_epoch_footprint_bytes =
            self.summary.max_epoch_footprint_bytes.max(slot.footprint);

        stats.footprint_bytes = self.footprint_bytes();
        self.summary.peak_footprint_bytes =
            self.summary.peak_footprint_bytes.max(stats.footprint_bytes);
        span.finish();

        if self.obs.enabled() {
            self.obs
                .gauge_set("stream.epochs_live", self.epochs.len() as i64);
            self.obs
                .gauge_set("stream.footprint_bytes", stats.footprint_bytes as i64);
            self.obs.gauge_max(
                "stream.peak_footprint_bytes",
                self.summary.peak_footprint_bytes as i64,
            );
            self.obs
                .counter_add("stream.ssl_rows_pushed", stats.ssl_rows as u64);
            self.obs
                .counter_add("stream.x509_rows_pushed", stats.x509_rows as u64);
            self.obs.sample_rss();
        }
        stats
    }

    /// Make room for one incoming epoch: evict the oldest months so that
    /// after the next [`CorpusBuilder::push_epoch`] at most `window`
    /// epochs are live. Callers use this *before* reading the next
    /// month's shards, so the peak live set is `window` months — not
    /// `window + 1` — and a `--window 1mo` walk genuinely holds one
    /// month's footprint (the RSS ceiling the bench gates).
    pub fn retire_for_incoming(&mut self, window: usize) -> Vec<String> {
        let keep = window.max(1) - 1;
        let mut retired_keys = Vec::new();
        while self.epochs.len() > keep {
            let key = self.epochs.keys().next().expect("non-empty epochs").clone();
            let epoch = self.epochs.remove(&key).expect("epoch exists");
            if let Some(idx) = self.epoch_keys.iter().position(|k| k == &key) {
                let idx = idx as u32;
                self.fp_epoch.retain(|_, owner| *owner != idx);
            }
            self.summary.epochs_retired += 1;
            self.summary.retired_ssl_rows += epoch.ssl.len() as u64;
            self.summary.retired_x509_rows += epoch.x509.len() as u64;
            retired_keys.push(key);
        }
        if !retired_keys.is_empty() && self.obs.enabled() {
            self.obs
                .counter_add("stream.epochs_retired", retired_keys.len() as u64);
            self.obs
                .gauge_set("stream.epochs_live", self.epochs.len() as i64);
            self.obs
                .gauge_set("stream.footprint_bytes", self.footprint_bytes() as i64);
        }
        retired_keys
    }

    /// Retained-heap estimate of every live epoch's records.
    /// Deterministic for given contents — this is the number the bench
    /// gates, with the OS-reported RSS recorded alongside it.
    fn footprint_bytes(&self) -> u64 {
        self.epochs.values().map(|e| e.footprint).sum()
    }

    /// Seal the build: the surviving epochs' records, re-assembled in
    /// canonical month order.
    pub fn finish(self) -> StreamParts {
        let mut ssl = Vec::new();
        let mut x509 = Vec::new();
        for (_, epoch) in self.epochs {
            ssl.extend(epoch.ssl);
            x509.extend(epoch.x509);
        }
        StreamParts {
            ssl,
            x509,
            meta: self.meta,
            summary: self.summary,
        }
    }
}
