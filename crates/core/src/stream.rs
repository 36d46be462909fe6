//! Streaming ingestion: event-at-a-time TKG growth, bitwise-equivalent
//! to batch.
//!
//! The paper's pipeline (and [`crate::longitudinal`]) ingests whole
//! months at once; the OSINT systems it builds on run *continuous*
//! collection. [`StreamRuntime`] closes that gap: it accepts reports
//! one at a time (or in micro-batches), runs each through the existing
//! collect → enrich → merge path, delta-merges the frozen CSR via
//! [`Csr::merge_appended`], encodes only newly featured rows through
//! [`CodeCache`], and fires periodic *ticks* — label-propagation check
//! plus GNN fine-tune over the events accumulated since the last tick.
//!
//! ## The equivalence contract
//!
//! For a fixed base system, config and RNG seed, any partition of the
//! same report sequence into micro-batches — pushed between the same
//! tick points — produces
//!
//! 1. a byte-identical TKG (same nodes, same edges, same CSR), and
//! 2. a bitwise-identical model state and per-tick result series.
//!
//! Three properties make this hold, each load-bearing:
//!
//! * **Canonical arrival order.** Depth-2 enrichment links only to
//!   nodes already in the graph, so the edge set depends on ingest
//!   order. [`StreamRuntime::push_batch`] therefore sorts each
//!   micro-batch by `(created_day, id)` — the order
//!   [`trail_osint::OsintClient::stream_reports`] delivers and exactly
//!   the order the batch path ingests — healing within-batch
//!   reordering instead of diverging under it.
//! * **Content-keyed incremental state.** The delta CSR merge and the
//!   code cache depend only on the store (its content and its feature
//!   write order), never on how many merge steps or refreshes produced
//!   it (pinned byte-for-byte by the `merge_appended` audit tests and
//!   `code_cache_refresh_equals_compute_codes`).
//! * **Deterministic enrichment.** World faults are deterministic per
//!   `(key, attempt)`, features are first-write-wins, and analyses are
//!   evaluated as-of a day derived from the event via [`AsofPolicy`] —
//!   never from wall clock — so a replay (the crash-recovery story:
//!   the feed is the log) reconstructs the exact graph.
//!
//! The runtime is the one monthly-window engine: both study entry points in
//! [`crate::longitudinal`] push each month's reports, tick once per
//! month under [`AsofPolicy::WindowEnd`] and read the ticks back as a
//! [`StudyOutput`]. A full per-window rebuild is kept as the test
//! oracle `tests/common/study_oracle.rs`.
//!
//! ## One base model, one RNG policy
//!
//! [`StreamRuntime::new`] trains the autoencoders and **one** base GNN
//! (through [`crate::freeze::train_frozen_from`], which trains with
//! [`crate::attribute::train_event_gnn`], the one event-GNN trainer)
//! from its generator. The stale model is that base model and
//! the fresh model starts as a clone of it, so Fig. 8's stale/fresh gap
//! is paired: at the first non-empty tick the two predict bitwise
//! alike, and every later difference is the fine-tunes'. The only
//! generator state kept is one `u64` tick key, the first draw of a
//! clone of the generator: tick `m` fine-tunes from
//! [`stage_rng`]`(key, m)`, so a resumed study re-derives every tick's
//! generator from its seed without any state on disk.
//!
//! ## Latency budget
//!
//! Every pushed report is timed. Events over `budget_us` are **counted
//! and surfaced** (`stream.events.exceeded`, [`BudgetLedger`]) — never
//! dropped: an attribution pipeline that silently shed late evidence
//! would corrupt the graph it serves. The ledger reconciles exactly:
//! `issued == within_budget + exceeded == attributed + dropped`, where
//! `dropped` counts collector rejections (unresolved/conflicting tags),
//! which are themselves surfaced, deterministic, and identical to the
//! batch collector's verdicts.
//!
//! ## Durability
//!
//! The replay story above assumes the feed can be replayed. The
//! [`wal`] module removes that assumption: a TWL1 write-ahead log
//! persists every pushed report and every hand-fired tick *before* it
//! is processed, and [`DurableStream`] recovers the surviving prefix
//! after a crash — truncating at the first torn record — into a state
//! bitwise identical to an uninterrupted run over that prefix, whether
//! ticks come from the `tick_every` cadence or from
//! [`DurableStream::tick`]. It is the one recovery path: the resumable
//! study ([`crate::longitudinal::run_resumable_study`]) is a durable
//! stream too. See the module docs for the frame format, fsync
//! policies and crash windows.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use trail_gnn::train::predict_events;
use trail_gnn::{LabelPropagation, SageModel};
use trail_graph::algo::Ball;
use trail_graph::{Csr, NodeId};
use trail_ioc::fnv1a;
use trail_ioc::report::RawReport;
use trail_linalg::Matrix;
use trail_ml::metrics::{accuracy, balanced_accuracy, ConfusionMatrix};
use trail_ml::nn::autoencoder::Autoencoder;

use crate::attribute::label_masking;
use crate::collector::{collect, CollectStats};
use crate::embed::{
    gnn_input_dim, label_offset, train_autoencoders_with_scalers, write_gnn_input_row, CodeCache,
    SparseScaler,
};
use crate::enrich::{Enricher, IngestStats};
use crate::longitudinal::{stage_rng, MonthResult, StudyConfig, StudyOutput};
use crate::system::TrailSystem;
use crate::tkg::Tkg;

pub mod wal;

pub use wal::{DurableStream, FsyncPolicy, RecoveryReport, Tear, Wal, WalConfig, WalError};

/// Which day enrichment analyses are evaluated *as of* for a report.
///
/// The analysis day changes what the OSINT world answers (NXDOMAIN
/// after takedown, late passive-DNS captures), so stream/batch
/// equivalence requires the policy to derive the day from the event —
/// deterministically — rather than from arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsofPolicy {
    /// Events analysed as of the end of the `stride`-day window
    /// containing them, windows anchored at `origin` — exactly the
    /// monthly study's `Enricher::new(client, hi)` semantics when
    /// `origin` is the build cutoff and `stride` is
    /// [`trail_osint::DAYS_PER_MONTH`].
    WindowEnd {
        /// First window's start day.
        origin: u32,
        /// Window length in days.
        stride: u32,
    },
}

impl AsofPolicy {
    /// The as-of day for a report created on `day`.
    pub fn asof_for(&self, day: u32) -> u32 {
        let AsofPolicy::WindowEnd { origin, stride } = *self;
        let s = stride.max(1);
        if day < origin {
            origin
        } else {
            origin + ((day - origin) / s + 1) * s
        }
    }
}

/// Streaming runtime parameters.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Model/training hyper-parameters, shared with the batch study so
    /// the two paths are comparable bit for bit (`months` is unused —
    /// the stream has no horizon).
    pub study: StudyConfig,
    /// As-of policy for enrichment analyses.
    pub asof: AsofPolicy,
    /// Automatic tick cadence: fine-tune after every `n` attributed
    /// events. `None` leaves ticks entirely to explicit
    /// [`StreamRuntime::tick`] calls (e.g. month boundaries).
    pub tick_every: Option<usize>,
    /// Per-event latency budget in microseconds. Exceeding it is
    /// counted and surfaced, never enforced by dropping.
    pub budget_us: u64,
}

/// Exact accounting of every report pushed into the stream.
///
/// Two reconciliations hold at all times (asserted by
/// [`BudgetLedger::reconciles`] and pinned by property tests):
/// `issued == within_budget + exceeded` and
/// `issued == attributed + dropped`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetLedger {
    /// Reports pushed.
    pub issued: u64,
    /// Reports processed within the latency budget.
    pub within_budget: u64,
    /// Reports that blew the budget (still fully processed).
    pub exceeded: u64,
    /// Reports ingested into the TKG as attributed events.
    pub attributed: u64,
    /// Reports the collector rejected (unresolved or conflicting
    /// tags) — surfaced here, identical to the batch collector's
    /// verdicts.
    pub dropped: u64,
}

impl BudgetLedger {
    /// True when both accounting identities hold.
    pub fn reconciles(&self) -> bool {
        self.issued == self.within_budget + self.exceeded
            && self.issued == self.attributed + self.dropped
    }
}

/// What happened to one pushed report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Ingested into the TKG as this event node.
    Ingested {
        /// The new event's node.
        node: NodeId,
        /// Whether processing stayed within the latency budget.
        within_budget: bool,
    },
    /// Rejected by the collector (unresolved/conflicting tags); the
    /// drop is counted, never silent.
    Dropped {
        /// Whether processing stayed within the latency budget.
        within_budget: bool,
    },
}

/// One tick's deterministic summary (wall clock lives in obs
/// histograms, never here — this struct is compared bitwise across
/// partitions).
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// The per-tick evaluation, shaped exactly like a study month so
    /// monthly-ticked streams convert into a [`StudyOutput`].
    pub result: MonthResult,
    /// How many of the tick's events label propagation agreed with the
    /// fresh GNN on (read-only check — LP never mutates state).
    pub lp_agree: usize,
}

/// The streaming ingestion runtime. See the module docs for the
/// equivalence contract.
pub struct StreamRuntime {
    sys: TrailSystem,
    cfg: StreamConfig,
    /// Tick `m` fine-tunes from `stage_rng(tick_key, m)` (module docs).
    tick_key: u64,
    encoders: Vec<Autoencoder>,
    scalers: Vec<SparseScaler>,
    code_dim: usize,
    base_pairs: Vec<(NodeId, u16)>,
    stale_model: SageModel,
    fresh_model: SageModel,
    /// Labels visible to the fresh model: base events + past ticks.
    fresh_visible: Vec<(NodeId, u16)>,
    /// Frozen CSR as of the last sync; `None` only transiently.
    inc_csr: Option<Csr>,
    code_cache: CodeCache,
    /// Events ingested since the last tick.
    pending: Vec<(NodeId, u16)>,
    tick_index: u32,
    ticks: Vec<TickReport>,
    confusion: Option<ConfusionMatrix>,
    window_ingest: IngestStats,
    stream_collect: CollectStats,
    ledger: BudgetLedger,
}

impl StreamRuntime {
    /// Build the runtime over a base system: read the tick key from a
    /// clone of `rng`, train the frozen autoencoders/scalers and then
    /// the one base GNN from `rng`, start the stale model as the base
    /// model and the fresh model as a clone of it, and seed the
    /// incremental state.
    pub fn new(mut rng: StdRng, sys: TrailSystem, cfg: StreamConfig) -> Self {
        let _span = trail_obs::span("stream.init");
        let tick_key = rng.clone().gen();
        let (emb, encoders, scalers) =
            train_autoencoders_with_scalers(&mut rng, &sys.tkg, &cfg.study.ae);
        let fresh_model = crate::freeze::train_frozen_from(
            &mut rng,
            &sys.tkg,
            emb,
            &cfg.study.gnn,
            cfg.study.gnn_layers,
        )
        .instantiate();
        let code_dim = encoders.first().map_or(0, |ae| ae.code_dim());
        let base_pairs = sys.tkg.event_pairs();
        let mut code_cache = CodeCache::new();
        code_cache.refresh(&sys.tkg, &encoders, &scalers, cfg.study.ae.batch_size);
        Self {
            inc_csr: Some(sys.tkg.csr()),
            code_cache,
            tick_key,
            encoders,
            scalers,
            code_dim,
            fresh_visible: base_pairs.clone(),
            base_pairs,
            stale_model: fresh_model.clone(),
            fresh_model,
            pending: Vec::new(),
            tick_index: 0,
            ticks: Vec::new(),
            confusion: None,
            window_ingest: IngestStats::default(),
            stream_collect: CollectStats::default(),
            ledger: BudgetLedger::default(),
            sys,
            cfg,
        }
    }

    /// Push one report through collect → enrich → merge. Timed against
    /// the latency budget; may fire an automatic tick when the cadence
    /// is configured.
    pub fn push(&mut self, report: &RawReport) -> PushOutcome {
        let t = Instant::now();
        let ingested_node = {
            let _span = trail_obs::span("stream.push");
            let (events, cstats) = collect(std::slice::from_ref(report), &self.sys.tkg.registry);
            for stats in [&mut self.stream_collect, &mut self.sys.collect_stats] {
                stats.kept += cstats.kept;
                stats.unresolved += cstats.unresolved;
                stats.conflicting += cstats.conflicting;
                stats.rejected_indicators += cstats.rejected_indicators;
            }
            match events.into_iter().next() {
                Some(event) => {
                    let asof = self.cfg.asof.asof_for(report.created_day);
                    self.sys.asof_day = self.sys.asof_day.max(asof);
                    let stats = {
                        let enricher = Enricher::new(&self.sys.client, asof);
                        enricher.ingest(&mut self.sys.tkg, &event)
                    };
                    self.window_ingest.absorb(&stats);
                    self.sys.ingest_stats.absorb(&stats);
                    let info = self
                        .sys
                        .tkg
                        .event_by_report(&event.report.id)
                        .expect("just ingested");
                    let pair = (info.node, info.apt);
                    self.pending.push(pair);
                    Some(pair.0)
                }
                None => None,
            }
        };

        let us = t.elapsed().as_micros() as u64;
        trail_obs::observe("stream.event_us", trail_obs::bounds::STREAM_EVENT_US, us);
        trail_obs::counter_add("stream.events.issued", 1);
        self.ledger.issued += 1;
        let within_budget = us <= self.cfg.budget_us;
        if within_budget {
            trail_obs::counter_add("stream.events.within_budget", 1);
            self.ledger.within_budget += 1;
        } else {
            trail_obs::counter_add("stream.events.exceeded", 1);
            self.ledger.exceeded += 1;
        }
        match ingested_node {
            Some(_) => self.ledger.attributed += 1,
            None => {
                trail_obs::counter_add("stream.events.dropped", 1);
                self.ledger.dropped += 1;
            }
        }

        if let Some(cadence) = self.cfg.tick_every {
            if self.pending.len() >= cadence.max(1) {
                self.tick();
            }
        }

        match ingested_node {
            Some(node) => PushOutcome::Ingested {
                node,
                within_budget,
            },
            None => PushOutcome::Dropped { within_budget },
        }
    }

    /// Push a micro-batch. The batch is first healed into canonical
    /// `(created_day, id)` order — the one order all partitions share —
    /// so within-batch arrival reordering cannot change the graph.
    pub fn push_batch(&mut self, reports: &[RawReport]) -> Vec<PushOutcome> {
        let mut sorted: Vec<&RawReport> = reports.iter().collect();
        sorted.sort_by(|a, b| (a.created_day, a.id.as_str()).cmp(&(b.created_day, b.id.as_str())));
        sorted.into_iter().map(|r| self.push(r)).collect()
    }

    /// Bring the incremental state up to date with the grown TKG:
    /// delta-merge the frozen CSR and encode the feature rows written
    /// since the last sync. Costs what the graph grew by: nothing but
    /// a few comparisons when it did not grow.
    fn sync(&mut self) {
        let csr = self.inc_csr.take().expect("present between calls");
        let grew = csr.node_count() != self.sys.tkg.graph.node_count()
            || csr.half_edge_count() / 2 != self.sys.tkg.graph.edge_count();
        let csr = if grew {
            csr.merge_appended(&self.sys.tkg.graph)
        } else {
            csr
        };
        self.code_cache.refresh(
            &self.sys.tkg,
            &self.encoders,
            &self.scalers,
            self.cfg.study.ae.batch_size,
        );
        self.inc_csr = Some(csr);
    }

    /// Fire a tick: sync the incremental state, evaluate both models on
    /// the events accumulated since the last tick, run the read-only
    /// label-propagation check, make the events' labels visible and
    /// fine-tune the fresh model on them.
    ///
    /// The GNN passes run on the [`Ball`] of radius = model depth around
    /// the tick's events, not on the whole graph: their cost follows the
    /// tick's work instead of the graph's size, and their results are
    /// bitwise those of the full-graph passes. Label propagation runs
    /// on the full graph's CSR and computes only the rows its targets
    /// read.
    ///
    /// Returns `None` (consuming a tick index, and with it that tick's
    /// generator, exactly like an empty study month) when no events are
    /// pending. No RNG is drawn, so empty ticks cannot desynchronise
    /// the stream from the batch path.
    pub fn tick(&mut self) -> Option<TickReport> {
        let month = self.tick_index;
        self.tick_index += 1;
        if self.pending.is_empty() {
            return None;
        }
        let t = Instant::now();
        let _span = trail_obs::span("stream.tick");
        self.sync();

        let tick_events = std::mem::take(&mut self.pending);
        let truth: Vec<u16> = tick_events.iter().map(|&(_, c)| c).collect();
        let targets: Vec<NodeId> = tick_events.iter().map(|&(n, _)| n).collect();
        let csr = self.inc_csr.take().expect("sync just seeded it");
        let label_base = label_offset(self.code_dim);

        // Both predictions and the fine-tune read only the model-depth
        // ball around the tick's events: run them there, on local ids,
        // bitwise equal to the full-graph passes (DESIGN.md §10).
        let (ball, sub, mut x_ball) = {
            let _span = trail_obs::span("stream.ball");
            // One radius serves both models: they share one `SageConfig`.
            let depth = self.fresh_model.config().layers as u32;
            let ball = Ball::new(&csr, &targets, depth);
            let sub = ball.induced(&csr);
            let x_ball = self.ball_input(&ball);
            (ball, sub, x_ball)
        };
        trail_obs::observe(
            "stream.tick_ball_nodes",
            trail_obs::bounds::STREAM_TICK_BALL_NODES,
            ball.len() as u64,
        );
        let ball_events = ball.localise(&tick_events);
        let ball_targets: Vec<NodeId> = ball_events.iter().map(|&(n, _)| n).collect();

        // Fresh model first: the label block already equals
        // `fresh_visible` (same order as the incremental study; both
        // predictions are rng-free).
        let fresh_preds = predict_events(&mut self.fresh_model, &sub, &x_ball, &ball_targets);
        let fresh_hard: Vec<u16> = fresh_preds.iter().map(|&(c, _)| c).collect();

        // Stale view: hide the post-base labels inside the ball, predict,
        // restore.
        let post_base: Vec<(usize, usize)> = self.fresh_visible[self.base_pairs.len()..]
            .iter()
            .filter_map(|&(node, label)| {
                ball.local(node)
                    .map(|l| (l.index(), label_base + label as usize))
            })
            .collect();
        for &cell in &post_base {
            x_ball[cell] = 0.0;
        }
        let stale_preds = predict_events(&mut self.stale_model, &sub, &x_ball, &ball_targets);
        let stale_hard: Vec<u16> = stale_preds.iter().map(|&(c, _)| c).collect();
        for &cell in &post_base {
            x_ball[cell] = 1.0;
        }

        // Label-propagation check: read-only, deterministic, never
        // mutates runtime state — a second opinion per tick.
        let lp = LabelPropagation::new(&csr, self.sys.tkg.n_classes());
        let mut seeds = vec![None; csr.node_count()];
        for &(n, c) in &self.fresh_visible {
            seeds[n.index()] = Some(c);
        }
        let lp_preds = lp.predict(&seeds, 4, &targets);
        let lp_agree = lp_preds
            .iter()
            .zip(&fresh_hard)
            .filter(|(lp, &f)| **lp == Some(f))
            .count();
        trail_obs::counter_add("stream.lp_agree", lp_agree as u64);

        let k = self.sys.tkg.n_classes();
        let result = MonthResult {
            month,
            n_events: truth.len(),
            stale_acc: accuracy(&truth, &stale_hard),
            stale_bacc: balanced_accuracy(&truth, &stale_hard, k),
            fresh_acc: accuracy(&truth, &fresh_hard),
            fresh_bacc: balanced_accuracy(&truth, &fresh_hard, k),
        };
        if self.confusion.is_none() {
            self.confusion = Some(ConfusionMatrix::from_predictions(&truth, &stale_hard, k));
        }

        // The tick's labels become visible; fine-tune the fresh model.
        self.fresh_visible.extend(tick_events.iter().copied());
        for &(node, label) in &ball_events {
            x_ball[(node.index(), label_base + label as usize)] = 1.0;
        }
        trail_gnn::train::fine_tune_masked(
            &mut stage_rng(self.tick_key, u64::from(month)),
            &mut self.fresh_model,
            &sub,
            &mut x_ball,
            &ball_events,
            &self.cfg.study.fine_tune,
            label_masking(self.code_dim, &self.cfg.study.gnn),
        );
        self.inc_csr = Some(csr);

        let report = TickReport { result, lp_agree };
        self.ticks.push(report.clone());
        trail_obs::counter_add("stream.ticks", 1);
        trail_obs::observe(
            "stream.tick_us",
            trail_obs::bounds::STREAM_TICK_US,
            t.elapsed().as_micros() as u64,
        );
        Some(report)
    }

    /// The GNN input rows of `ball`'s members, in local order: each
    /// member's code and kind, plus the label one-hots of the members
    /// in `fresh_visible` — the ball's rows of the full-graph input
    /// `assemble_gnn_input_from` builds.
    fn ball_input(&self, ball: &Ball) -> Matrix {
        let tkg = &self.sys.tkg;
        let codes = self.code_cache.codes();
        let mut x = Matrix::zeros(ball.len(), gnn_input_dim(self.code_dim, tkg.n_classes()));
        for (i, &id) in ball.members().iter().enumerate() {
            write_gnn_input_row(
                x.row_mut(i),
                codes.row(id.index()),
                tkg.graph.node(id).kind,
                None,
            );
        }
        let label_base = label_offset(self.code_dim);
        for &(node, label) in &self.fresh_visible {
            if let Some(l) = ball.local(node) {
                x[(l.index(), label_base + label as usize)] = 1.0;
            }
        }
        x
    }

    /// Fire a final tick over any pending remainder. Call when the
    /// stream drains; both the streaming and the batch run must end
    /// with this for their model states to be comparable.
    pub fn finish(&mut self) -> Option<TickReport> {
        if self.pending.is_empty() {
            return None;
        }
        self.tick()
    }

    /// Content fingerprint of the current TKG (see [`tkg_fingerprint`]).
    pub fn tkg_fingerprint(&self) -> u64 {
        tkg_fingerprint(&self.sys.tkg)
    }

    /// Fingerprint of the fresh (fine-tuned) model's weights.
    pub fn model_fingerprint(&self) -> u64 {
        model_fingerprint(&self.fresh_model)
    }

    /// Freeze the live fine-tuned state into the plain-data artefact
    /// `trail-serve` packages into a bundle (the producer half of
    /// bundle hot-swap: `ServeBundle::refreeze` calls it and packages
    /// the result; the stream keeps running).
    ///
    /// Catches the incremental state up first (`Self::sync`: right
    /// after a tick that is a no-op, otherwise it merges and encodes
    /// only what was pushed since), then clones the current codes and
    /// the fresh model's weights. Draws no RNG and fires no tick, so
    /// freezing never perturbs the stream/batch equivalence contract —
    /// `&mut` only because `Self::sync` folds pending graph growth
    /// into the caches.
    pub fn freeze_fresh(&mut self) -> crate::freeze::FrozenModel {
        let _span = trail_obs::span("stream.refreeze");
        self.sync();
        let sage_cfg = *self.fresh_model.config();
        let layers = self
            .fresh_model
            .weights()
            .iter()
            .map(|(r, n, b)| ((*r).clone(), (*n).clone(), (*b).clone()))
            .collect();
        crate::freeze::FrozenModel {
            codes: self.code_cache.codes().clone(),
            code_dim: self.code_dim,
            sage_cfg,
            layers,
        }
    }

    /// The budget ledger so far.
    pub fn ledger(&self) -> BudgetLedger {
        self.ledger
    }

    /// Collector verdicts over the streamed reports.
    pub fn collect_stats(&self) -> &CollectStats {
        &self.stream_collect
    }

    /// Aggregate enrichment taxonomy over the streamed events (the
    /// stream's analog of the study's window ingest).
    pub fn ingest_stats(&self) -> &IngestStats {
        &self.window_ingest
    }

    /// Ticks fired so far (indices consumed, including empty ones).
    pub fn ticks_fired(&self) -> u32 {
        self.tick_index
    }

    /// Per-tick reports so far.
    pub fn tick_reports(&self) -> &[TickReport] {
        &self.ticks
    }

    /// Events ingested but not yet covered by a tick.
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }

    /// Borrow the underlying system (graph, client, stats).
    pub fn system(&self) -> &TrailSystem {
        &self.sys
    }

    /// The frozen CSR as of the last sync — callers wanting the
    /// current graph should [`Self::tick`] or compare fingerprints
    /// after a tick, when the CSR is guaranteed caught up.
    pub fn frozen_csr(&self) -> &Csr {
        self.inc_csr.as_ref().expect("present between calls")
    }

    /// Convert a finished (monthly-ticked) stream into the batch
    /// study's output shape for bitwise comparison with
    /// [`crate::longitudinal::run_monthly_study`].
    pub fn into_study_output(self) -> StudyOutput {
        StudyOutput {
            model_fingerprint: self.model_fingerprint(),
            months: self.ticks.iter().map(|t| t.result.clone()).collect(),
            first_month_confusion: self.confusion.unwrap_or_else(|| {
                ConfusionMatrix::from_predictions(&[], &[], self.sys.tkg.n_classes())
            }),
            class_names: self.sys.tkg.registry.names().to_vec(),
            ingest: self.window_ingest,
        }
    }
}

/// Content fingerprint of a TKG: node count, edge count and the sorted
/// degree sequence folded through fnv1a — the same identity the golden
/// fixture tests pin, packaged for stream-vs-batch comparison.
pub fn tkg_fingerprint(tkg: &Tkg) -> u64 {
    let mut degrees: Vec<usize> = tkg
        .graph
        .iter_nodes()
        .map(|(id, _)| tkg.graph.degree(id))
        .collect();
    degrees.sort_unstable();
    let mut b = Vec::with_capacity(16 + degrees.len() * 8);
    b.extend_from_slice(&(tkg.graph.node_count() as u64).to_le_bytes());
    b.extend_from_slice(&(tkg.graph.edge_count() as u64).to_le_bytes());
    for d in degrees {
        b.extend_from_slice(&(d as u64).to_le_bytes());
    }
    fnv1a(&b)
}

/// Bitwise fingerprint of a GNN's weights (shapes + f32 bit patterns).
pub fn model_fingerprint(model: &SageModel) -> u64 {
    let mut b = Vec::new();
    for (w_root, w_nbr, bias) in model.weights() {
        for m in [w_root, w_nbr, bias] {
            b.extend_from_slice(&(m.rows() as u64).to_le_bytes());
            b.extend_from_slice(&(m.cols() as u64).to_le_bytes());
            for &v in m.as_slice() {
                b.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    fnv1a(&b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::sync::Arc;
    use trail_osint::{OsintClient, World, WorldConfig, DAYS_PER_MONTH};

    use crate::attribute::GnnEvalConfig;
    use trail_ml::nn::autoencoder::AutoencoderConfig;

    fn tiny_client() -> OsintClient {
        OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(123))))
    }

    fn tiny_stream_cfg(cutoff: u32) -> StreamConfig {
        StreamConfig {
            study: StudyConfig {
                months: 2,
                gnn_layers: 2,
                gnn: GnnEvalConfig {
                    hidden: 12,
                    train: trail_gnn::TrainConfig {
                        lr: 0.02,
                        epochs: 15,
                        patience: 0,
                    },
                    val_fraction: 0.0,
                    l2_normalize: true,
                    label_visible_fraction: 0.5,
                    sampled_neighbor_cap: None,
                },
                ae: AutoencoderConfig {
                    hidden: 16,
                    code: 6,
                    epochs: 1,
                    batch_size: 64,
                    lr: 1e-3,
                },
                fine_tune: trail_gnn::FineTune {
                    lr: 0.01,
                    epochs: 3,
                },
            },
            asof: AsofPolicy::WindowEnd {
                origin: cutoff,
                stride: DAYS_PER_MONTH,
            },
            tick_every: None,
            budget_us: u64::MAX,
        }
    }

    fn runtime() -> (StreamRuntime, u32, u32) {
        let client = tiny_client();
        let cutoff = client.world().config.cutoff_day;
        let horizon = client.world().config.horizon_day();
        let sys = TrailSystem::build(client, cutoff);
        let cfg = tiny_stream_cfg(cutoff);
        (
            StreamRuntime::new(StdRng::seed_from_u64(9), sys, cfg),
            cutoff,
            horizon,
        )
    }

    #[test]
    fn asof_policy_window_end_rounds_up() {
        let p = AsofPolicy::WindowEnd {
            origin: 600,
            stride: 30,
        };
        assert_eq!(p.asof_for(600), 630);
        assert_eq!(p.asof_for(629), 630);
        assert_eq!(p.asof_for(630), 660);
        assert_eq!(
            p.asof_for(5),
            600,
            "pre-origin events analysed as of origin"
        );
    }

    #[test]
    fn push_grows_the_graph_and_ledger_reconciles() {
        let (mut rt, cutoff, horizon) = runtime();
        let nodes_before = rt.system().tkg.graph.node_count();
        let reports = rt.system().client.stream_reports(cutoff, horizon);
        assert!(!reports.is_empty());
        for r in &reports {
            rt.push(r);
        }
        assert!(rt.system().tkg.graph.node_count() > nodes_before);
        let ledger = rt.ledger();
        assert_eq!(ledger.issued, reports.len() as u64);
        assert!(ledger.reconciles(), "ledger does not reconcile: {ledger:?}");
        assert_eq!(ledger.attributed as usize, rt.pending_events());
    }

    #[test]
    fn zero_budget_counts_every_event_as_exceeded_but_drops_none() {
        let (rt, cutoff, horizon) = runtime();
        let sys_graph_nodes = |rt: &StreamRuntime| rt.system().tkg.graph.node_count();
        let mut rt = rt;
        rt.cfg.budget_us = 0;
        let before = sys_graph_nodes(&rt);
        let reports = rt.system().client.stream_reports(cutoff, horizon);
        for r in &reports {
            rt.push(r);
        }
        let ledger = rt.ledger();
        assert_eq!(
            ledger.exceeded, ledger.issued,
            "0us budget must flag every event"
        );
        assert_eq!(ledger.within_budget, 0);
        assert!(ledger.reconciles());
        // Enforcement is surfacing, not shedding: the graph still grew.
        assert!(sys_graph_nodes(&rt) > before);
    }

    #[test]
    fn empty_tick_consumes_an_index_without_rng_or_report() {
        let (mut rt, _, _) = runtime();
        assert_eq!(rt.ticks_fired(), 0);
        assert!(rt.tick().is_none());
        assert_eq!(rt.ticks_fired(), 1);
        assert!(rt.tick_reports().is_empty());
        let fp = rt.model_fingerprint();
        assert!(rt.tick().is_none());
        assert_eq!(
            fp,
            rt.model_fingerprint(),
            "empty tick must not touch the model"
        );
    }

    #[test]
    fn fresh_model_starts_as_the_base_and_month_zero_is_paired() {
        let (mut rt, cutoff, _) = runtime();
        assert_eq!(model_fingerprint(&rt.stale_model), rt.model_fingerprint());
        let reports = rt
            .system()
            .client
            .stream_reports(cutoff, cutoff + DAYS_PER_MONTH);
        rt.push_batch(&reports);
        let m0 = rt.tick().expect("the first month has events").result;
        assert_eq!(m0.stale_acc.to_bits(), m0.fresh_acc.to_bits(), "{m0:?}");
        assert_eq!(m0.stale_bacc.to_bits(), m0.fresh_bacc.to_bits(), "{m0:?}");
        assert_ne!(
            model_fingerprint(&rt.stale_model),
            rt.model_fingerprint(),
            "no fine-tune ran"
        );
    }

    #[test]
    fn automatic_cadence_fires_ticks() {
        let (mut rt, cutoff, horizon) = runtime();
        rt.cfg.tick_every = Some(3);
        let reports = rt.system().client.stream_reports(cutoff, horizon);
        for r in &reports {
            rt.push(r);
        }
        rt.finish();
        assert!(rt.ticks_fired() > 0);
        assert!(rt.pending_events() == 0);
        let total: usize = rt.tick_reports().iter().map(|t| t.result.n_events).sum();
        assert_eq!(total as u64, rt.ledger().attributed);
        for t in rt.tick_reports() {
            assert!(
                t.result.n_events <= 3,
                "cadence-3 tick covered {} events",
                t.result.n_events
            );
            assert!(t.lp_agree <= t.result.n_events);
        }
    }

    #[test]
    fn fingerprints_are_order_sensitive_inputs_fold_content() {
        let (rt, _, _) = runtime();
        // Same world, same build: fingerprint is reproducible.
        let (rt2, _, _) = runtime();
        assert_eq!(rt.tkg_fingerprint(), rt2.tkg_fingerprint());
        assert_eq!(rt.model_fingerprint(), rt2.model_fingerprint());
    }
}
