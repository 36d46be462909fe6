//! Shared experiment drivers for the TRAIL reproduction harness.
//!
//! Each public function regenerates one table or figure of the paper
//! and returns/prints the measured numbers next to the paper's values.
//! The `repro` binary dispatches to these.

#![forbid(unsafe_code)]

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use trail::attribute::{self, GnnEvalConfig, IocModelSettings, ModelKind};
use trail::embed::NodeEmbeddings;
use trail::longitudinal::{self, run_resumable_study, StudyConfig, StudyOutput};
use trail::report;
use trail::system::TrailSystem;
use trail_ml::nn::autoencoder::AutoencoderConfig;
use trail_osint::{OsintClient, World, WorldConfig};

/// Harness-wide run options.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// World scale multiplier (1.0 = the calibrated default).
    pub scale: f32,
    /// World seed.
    pub seed: u64,
    /// Cross-validation folds.
    pub folds: usize,
    /// Quick mode: smaller models, fewer epochs.
    pub quick: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            scale: 1.0,
            seed: 0x0072_1411,
            folds: 5,
            quick: false,
        }
    }
}

impl RunOptions {
    /// Build the world + TRAIL system for these options. Setup cost is
    /// tracked by the `setup.build_system` span (world generation and
    /// the TKG build as children); the human-readable summary line is
    /// suppressed in `--quick` mode.
    pub fn build_system(&self) -> TrailSystem {
        let _setup = trail_obs::span("setup.build_system");
        let mut cfg = WorldConfig::default().scaled(self.scale);
        cfg.seed = self.seed;
        let world = {
            let _s = trail_obs::span("world_gen");
            Arc::new(World::generate(cfg))
        };
        let client = OsintClient::new(world);
        let cutoff = client.world().config.cutoff_day;
        let t = Instant::now();
        let sys = {
            let _s = trail_obs::span("tkg_build");
            TrailSystem::build(client, cutoff)
        };
        if !self.quick {
            println!(
                "[setup] TKG built in {:?}: {} events, {} nodes, {} edges",
                t.elapsed(),
                sys.tkg.events.len(),
                sys.tkg.graph.node_count(),
                sys.tkg.graph.edge_count()
            );
        }
        sys
    }

    /// Deterministic RNG for the experiments.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ 0x5eed)
    }

    /// Model settings matched to the mode.
    pub fn ioc_settings(&self) -> IocModelSettings {
        if self.quick {
            IocModelSettings::fast()
        } else {
            IocModelSettings::default()
        }
    }

    /// GNN evaluation settings matched to the mode.
    pub fn gnn_settings(&self) -> GnnEvalConfig {
        if self.quick {
            GnnEvalConfig {
                hidden: 32,
                train: trail_gnn::TrainConfig {
                    lr: 2e-2,
                    epochs: 80,
                    patience: 0,
                },
                val_fraction: 0.1,
                l2_normalize: true,
                label_visible_fraction: 0.7,
                sampled_neighbor_cap: None,
            }
        } else {
            GnnEvalConfig::default()
        }
    }

    /// Autoencoder settings matched to the mode.
    pub fn ae_settings(&self) -> AutoencoderConfig {
        if self.quick {
            AutoencoderConfig {
                hidden: 64,
                code: 32,
                epochs: 2,
                ..Default::default()
            }
        } else {
            AutoencoderConfig {
                hidden: 256,
                code: 64,
                epochs: 4,
                ..Default::default()
            }
        }
    }
}

fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

fn row(label: &str, paper: &str, measured: String) {
    println!("{label:<28} paper: {paper:<18} measured: {measured}");
}

/// Table II — TKG node/edge statistics.
pub fn table2(sys: &TrailSystem) {
    header(
        "table2",
        "TKG composition (paper Table II, proportionally scaled)",
    );
    println!("{}", sys.tkg.stats_table());
    println!(
        "paper (full scale): 4,512 events / 2.125M nodes / 7.916M edges; 26.66% first-order; avg reuse 1.513"
    );
}

/// Section V — graph structure statistics.
pub fn sec5(sys: &TrailSystem) {
    header("sec5", "graph structure (paper Section V)");
    let csr = sys.tkg.csr();
    let full = report::graph_stats(&sys.tkg, &csr);
    let sub = report::first_order_subgraph(&sys.tkg);
    let sub_csr = trail_graph::Csr::from_store(&sub);
    let sub_cc = trail_graph::algo::connected_components(&sub_csr);
    let sub_diam = if sub_cc.largest() > 1 {
        let seed = sub_cc
            .assignment
            .iter()
            .position(|&c| c == 0)
            .map(trail_graph::NodeId::from)
            .unwrap_or(trail_graph::NodeId(0));
        trail_graph::algo::diameter_double_sweep(&sub_csr, seed, 6)
    } else {
        0
    };
    row(
        "largest CC fraction",
        "99.94%",
        format!("{:.2}%", 100.0 * full.largest_fraction),
    );
    row("components (full)", "161", format!("{}", full.components));
    row(
        "components (1st-order)",
        "477 (more)",
        format!("{}", sub_cc.count()),
    );
    row("diameter (full)", "23", format!("{}", full.diameter));
    row(
        "diameter (1st-order)",
        "20 (smaller CC)",
        format!("{sub_diam}"),
    );
    row(
        "events w/in 2 hops of event",
        "85%",
        format!("{:.1}%", 100.0 * full.events_within_2_hops),
    );
}

/// Fig. 4 — IOC reuse histogram.
pub fn fig4(sys: &TrailSystem) {
    header("fig4", "IOC reuse by type (paper Fig. 4)");
    let hist = report::ReuseHistogram::compute(&sys.tkg);
    println!("{}", hist.render());
    row(
        "avg reuse IP/URL/Domain",
        "2.94 / 1.25 / 1.50",
        format!(
            "{:.2} / {:.2} / {:.2}",
            hist.mean_reuse(trail_graph::NodeKind::Ip),
            hist.mean_reuse(trail_graph::NodeKind::Url),
            hist.mean_reuse(trail_graph::NodeKind::Domain)
        ),
    );
}

/// Fig. 3 — ego-net around one event.
pub fn fig3(sys: &TrailSystem) {
    header(
        "fig3",
        "ego-net of one event (paper Fig. 3: 239 related IOCs)",
    );
    // Pick the event of the busiest APT (the paper uses an APT28 event).
    let event = sys
        .tkg
        .events
        .iter()
        .max_by_key(|e| sys.tkg.graph.degree(e.node))
        .expect("events exist");
    let csr = sys.tkg.csr();
    let counts = report::egonet_summary(&sys.tkg, &csr, event.node, 2);
    println!(
        "event {} ({}), 2-hop ego-net: {} IPs, {} URLs, {} domains, {} ASNs, {} events",
        event.report_id,
        sys.tkg.registry.name(event.apt),
        counts[1],
        counts[2],
        counts[3],
        counts[4],
        counts[0],
    );
}

/// Table III — individual IOC attribution.
pub fn table3(sys: &TrailSystem, opts: &RunOptions) {
    header(
        "table3",
        "individual IOC attribution, 5-fold CV (paper Table III)",
    );
    let paper: &[(&str, [(f64, f64); 3])] = &[
        // (model, [(acc, bacc) for IP, URL, Domain])
        (
            "XGB",
            [(0.3174, 0.1975), (0.4590, 0.2531), (0.2894, 0.1609)],
        ),
        ("NN", [(0.3796, 0.2260), (0.3395, 0.1742), (0.1087, 0.1004)]),
        ("RF", [(0.2431, 0.1708), (0.3419, 0.2193), (0.1297, 0.1248)]),
    ];
    let mut rng = opts.rng();
    let settings = opts.ioc_settings();
    let datasets = attribute::ioc_datasets(&mut rng, &sys.tkg, settings.max_samples);
    println!(
        "datasets: {} IPs, {} URLs, {} domains (first-order, single-label)",
        datasets[0].data.len(),
        datasets[1].data.len(),
        datasets[2].data.len()
    );
    for (mi, model) in ModelKind::ALL.iter().enumerate() {
        for (ki, kind_name) in ["IP", "URL", "Domain"].iter().enumerate() {
            let t = Instant::now();
            let scores =
                attribute::crossval_ioc(&mut rng, &datasets[ki], *model, &settings, opts.folds);
            let (acc, _) = scores.acc_mean_std();
            let (bacc, _) = scores.bacc_mean_std();
            let (p_acc, p_bacc) = paper[mi].1[ki];
            row(
                &format!("{} {}", model.name(), kind_name),
                &format!("{p_acc:.3}/{p_bacc:.3}"),
                format!("{acc:.4}/{bacc:.4}  ({:.0?})", t.elapsed()),
            );
        }
    }
}

/// Table IV — event attribution across all nine approaches, each row
/// with its wall-clock seconds.
pub fn table4(sys: &TrailSystem, opts: &RunOptions, emb: &NodeEmbeddings) {
    header("table4", "event attribution, 5-fold CV (paper Table IV)");
    let mut rng = opts.rng();
    let settings = opts.ioc_settings();
    let paper_ml = [
        ("XGB", 0.4663, 0.2911),
        ("NN", 0.2622, 0.1617),
        ("RF", 0.6878, 0.5491),
    ];
    for (i, model) in ModelKind::ALL.iter().enumerate() {
        let t = Instant::now();
        let scores = attribute::eval_event_ml(&mut rng, &sys.tkg, *model, &settings, opts.folds);
        let secs = t.elapsed().as_secs_f64();
        let (acc, std) = scores.acc_mean_std();
        let (bacc, _) = scores.bacc_mean_std();
        let (_, p_acc, p_bacc) = paper_ml[i];
        row(
            &format!("{} (IOC vote)", model.name()),
            &format!("{p_acc:.3}/{p_bacc:.3}"),
            format!("{acc:.4}±{std:.4}/{bacc:.4}  ({secs:.1}s)"),
        );
    }
    let paper_lp = [
        (2, 0.7589, 0.7434),
        (3, 0.7934, 0.7660),
        (4, 0.8236, 0.7734),
    ];
    for &(layers, p_acc, p_bacc) in &paper_lp {
        let t = Instant::now();
        let scores = attribute::eval_event_lp(&mut rng, &sys.tkg, layers, opts.folds);
        let secs = t.elapsed().as_secs_f64();
        let (acc, std) = scores.acc_mean_std();
        let (bacc, _) = scores.bacc_mean_std();
        row(
            &format!("LP {layers}L"),
            &format!("{p_acc:.3}/{p_bacc:.3}"),
            format!("{acc:.4}±{std:.4}/{bacc:.4}  ({secs:.1}s)"),
        );
    }
    let paper_gnn = [
        (2, 0.8338, 0.7793),
        (3, 0.8396, 0.7860),
        (4, 0.8405, 0.7922),
    ];
    let gnn_cfg = opts.gnn_settings();
    for &(layers, p_acc, p_bacc) in &paper_gnn {
        let t = Instant::now();
        let scores =
            attribute::eval_event_gnn(&mut rng, &sys.tkg, emb, layers, &gnn_cfg, opts.folds);
        let secs = t.elapsed().as_secs_f64();
        let (acc, std) = scores.acc_mean_std();
        let (bacc, _) = scores.bacc_mean_std();
        row(
            &format!("GNN {layers}L"),
            &format!("{p_acc:.3}/{p_bacc:.3}"),
            format!("{acc:.4}±{std:.4}/{bacc:.4}  ({secs:.1}s)"),
        );
    }
}

/// Study configuration for the longitudinal experiments.
pub fn study_config(opts: &RunOptions) -> StudyConfig {
    StudyConfig {
        months: 6,
        gnn_layers: if opts.quick { 2 } else { 3 },
        gnn: opts.gnn_settings(),
        ae: opts.ae_settings(),
        fine_tune: trail_gnn::FineTune {
            lr: 5e-3,
            epochs: if opts.quick { 4 } else { 10 },
        },
    }
}

/// Print a [`StudyOutput`] as the Fig. 7 + Fig. 8 report.
fn print_study(out: &StudyOutput) {
    println!("Fig. 7 — confusion matrix, first unseen month (stale model):");
    let names: Vec<&str> = out.class_names.iter().map(String::as_str).collect();
    println!("{}", out.first_month_confusion.render(&names));
    println!("Fig. 8 — degradation series (paper: stale-vs-fresh gap grows ~3.5%/month):");
    println!(
        "{:>6} {:>8} {:>11} {:>11} {:>11} {:>11}",
        "month", "events", "stale acc", "stale bacc", "fresh acc", "fresh bacc"
    );
    for m in &out.months {
        println!(
            "{:>6} {:>8} {:>11.4} {:>11.4} {:>11.4} {:>11.4}",
            m.month, m.n_events, m.stale_acc, m.stale_bacc, m.fresh_acc, m.fresh_bacc
        );
    }
    if out.months.len() >= 2 {
        let first_gap = out.months[0].fresh_acc - out.months[0].stale_acc;
        let last = out.months.last().expect("non-empty");
        let last_gap = last.fresh_acc - last.stale_acc;
        println!(
            "gap month0 {first_gap:+.4} -> month{} {last_gap:+.4}",
            last.month
        );
    }
}

/// Figs. 7 & 8 — the monthly study.
pub fn fig7_fig8(sys: TrailSystem, opts: &RunOptions) {
    header("fig7+fig8", "months-long study (paper Section VII-C)");
    let out = longitudinal::run_monthly_study(opts.seed, sys, &study_config(opts));
    print_study(&out);
}

/// Figs. 7 & 8 via the crash-safe study (`repro fig8 --resume DIR`).
/// The study logs to a write-ahead log in `dir`, and a log already
/// there is replayed and the run carried on from where it stopped; the
/// stdout is that of [`fig7_fig8`] either way. Returns `false` when the
/// log in `dir` is refused (a damaged sealed segment, or another run's
/// log).
pub fn fig7_fig8_resumable(client: OsintClient, opts: &RunOptions, dir: &Path) -> bool {
    header("fig7+fig8", "months-long study (paper Section VII-C)");
    let cutoff = client.world().config.cutoff_day;
    let cfg = study_config(opts);
    match run_resumable_study(client, cutoff, &cfg, opts.seed, dir, None) {
        Ok(Some(out)) => {
            eprintln!("[study] write-ahead log in {}", dir.display());
            print_study(&out);
            true
        }
        Ok(None) => unreachable!("no kill point requested"),
        Err(e) => {
            eprintln!("[study] cannot resume from {}: {e}", dir.display());
            false
        }
    }
}

/// Case study (Figs. 5–6).
pub fn case(sys: TrailSystem, opts: &RunOptions) {
    header(
        "case",
        "fresh-event case study (paper Section VII-C, Figs. 5-6)",
    );
    let mut rng = opts.rng();
    let cfg = study_config(opts);
    match longitudinal::case_study(&mut rng, sys, &cfg, "APT38") {
        Some(cs) => {
            println!("event {} (truth {})", cs.report_id, cs.true_apt);
            row("reported IOCs", "20", format!("{}", cs.reported_iocs));
            row(
                "after enrichment (2-hop)",
                "2,668 -> 9,405",
                format!("{}", cs.neighborhood_iocs),
            );
            row(
                "attributed events @2 hops",
                "14",
                format!("{}", cs.events_2hop),
            );
            row(
                "attributed events @3 hops",
                "24",
                format!("{}", cs.events_3hop),
            );
            row(
                "LP attribution",
                "APT38",
                cs.lp_prediction.unwrap_or_else(|| "unattributed".into()),
            );
            row(
                "GNN masked neighbours",
                "APT38 @ 48%",
                format!("{} @ {:.0}%", cs.gnn_masked.0, 100.0 * cs.gnn_masked.1),
            );
            row(
                "GNN visible neighbours",
                "APT38 @ 88%",
                format!("{} @ {:.0}%", cs.gnn_visible.0, 100.0 * cs.gnn_visible.1),
            );
        }
        None => println!("no post-cutoff event available at this scale"),
    }
}

/// Fig. 9 — SHAP-style beeswarm over the URL classifier.
pub fn fig9(sys: &TrailSystem, opts: &RunOptions) {
    header(
        "fig9",
        "top URL features for one APT (paper Fig. 9, SHAP beeswarm)",
    );
    let mut rng = opts.rng();
    let settings = opts.ioc_settings();
    let datasets = attribute::ioc_datasets(&mut rng, &sys.tkg, settings.max_samples);
    let urls = &datasets[1];
    if urls.data.is_empty() {
        println!("no URL dataset at this scale");
        return;
    }
    // Train an XGB URL classifier on everything, then explain APT28
    // (class 0) — the paper's example class.
    let (scaler, scaled) = trail_ml::StandardScaler::fit_transform(&urls.data.x);
    let _ = scaler;
    let gbt = trail_ml::GradientBoostedTrees::fit(
        &mut rng,
        &scaled,
        &urls.data.y,
        urls.data.n_classes,
        &settings.gbt,
    );
    let class = 0usize; // APT28
    let bees = trail_ml::explain::gbt_beeswarm(&gbt, &scaled, class, 10);
    println!(
        "top-10 features for {} (paper: url_entropy and encoding=gzip dominate APT28):",
        sys.tkg.registry.name(class as u16)
    );
    for (f, imp) in &bees.top_features {
        println!(
            "  {:<30} mean|contribution| {:.5}",
            sys.tkg.url_encoder.feature_name(*f),
            imp
        );
    }
}

/// Ablations called out in DESIGN.md §6: enrichment depth, SMOTE,
/// L2 normalisation, autoencoder projection and confidence
/// thresholding.
pub fn ablations(sys: &TrailSystem, opts: &RunOptions, emb: &NodeEmbeddings) {
    header("ablations", "design-choice ablations (DESIGN.md §6)");
    let mut rng = opts.rng();

    // --- 1. Enrichment depth: LP on the first-order-only subgraph ----
    // (paper: "results from any 2L model are equivalent to the results
    // if we did not apply the extra enrichment process")
    {
        let sub = report::first_order_subgraph(&sys.tkg);
        // Rebuild a TKG-shaped wrapper for the subgraph to reuse the LP
        // evaluator: we run LP manually on the pruned graph instead.
        let csr = trail_graph::Csr::from_store(&sub);
        let lp = trail_gnn::LabelPropagation::new(&csr, sys.tkg.n_classes());
        // Map event nodes into the subgraph.
        let mut pairs = Vec::new();
        for info in &sys.tkg.events {
            if let Some(node) = sub.find_node(trail_graph::NodeKind::Event, &info.report_id) {
                pairs.push((node, info.apt));
            }
        }
        // Simple 1-fold holdout (ablation, not a headline number).
        let n_test = pairs.len() / 5;
        let (test, train) = pairs.split_at(n_test);
        let mut seeds = vec![None; sub.node_count()];
        for &(n, c) in train {
            seeds[n.index()] = Some(c);
        }
        for layers in [2usize, 4] {
            let targets: Vec<trail_graph::NodeId> = test.iter().map(|&(n, _)| n).collect();
            let preds = lp.predict(&seeds, layers, &targets);
            let truth: Vec<u16> = test.iter().map(|&(_, c)| c).collect();
            let hard: Vec<u16> = preds.iter().map(|p| p.unwrap_or(u16::MAX)).collect();
            let acc = trail_ml::metrics::accuracy(&truth, &hard);
            println!(
                "no-enrichment LP {layers}L holdout acc: {acc:.4} (full-graph numbers in table4)"
            );
        }
    }

    // --- 2. SMOTE on/off for the largest IOC dataset ------------------
    {
        let mut settings = opts.ioc_settings();
        let datasets = attribute::ioc_datasets(&mut rng, &sys.tkg, settings.max_samples.min(3000));
        let ds = datasets
            .iter()
            .max_by_key(|d| d.data.len())
            .expect("non-empty");
        for smote_on in [true, false] {
            settings.smote = smote_on;
            let s = attribute::crossval_ioc(&mut rng, ds, ModelKind::Xgb, &settings, 3);
            let (acc, _) = s.acc_mean_std();
            let (bacc, _) = s.bacc_mean_std();
            println!(
                "XGB {:?} smote={smote_on}: acc {acc:.4} bacc {bacc:.4}",
                ds.kind
            );
        }
    }

    // --- 3. L2 normalisation on/off for the GNN ----------------------
    {
        let mut cfg = opts.gnn_settings();
        for l2 in [true, false] {
            cfg.l2_normalize = l2;
            let s = attribute::eval_event_gnn(&mut rng, &sys.tkg, emb, 2, &cfg, 3);
            let (acc, _) = s.acc_mean_std();
            println!("GNN 2L l2_normalize={l2}: acc {acc:.4}");
        }
    }

    // --- 4. Confidence thresholding (paper §IX future work) ----------
    {
        let cfg = opts.gnn_settings();
        let threshold_scores =
            attribute::eval_event_gnn_thresholded(&mut rng, &sys.tkg, emb, 2, &cfg, 3, 0.6);
        println!(
            "GNN 2L with 0.6 confidence threshold: precision on attributed {:.4}, coverage {:.4}",
            threshold_scores.0, threshold_scores.1
        );
    }
}

/// Fig. 10 — GNNExplainer on one event's prediction, run on the exact
/// receptive field of the model: the event's L-hop ball.
pub fn fig10(sys: &TrailSystem, opts: &RunOptions, emb: &NodeEmbeddings) {
    header(
        "fig10",
        "GNNExplainer: most influential IOCs for one event (paper Fig. 10)",
    );
    let mut rng = opts.rng();
    let csr = sys.tkg.csr();
    // Train a 3-layer GNN on all events (the paper explains a pretrained
    // 3-layer model).
    let layers = if opts.quick { 2 } else { 3 };
    let gnn_cfg = opts.gnn_settings();
    let (mut model, x) = attribute::train_event_gnn(
        &mut rng,
        &sys.tkg,
        emb,
        &sys.tkg.event_pairs(),
        &[],
        layers,
        &gnn_cfg,
    );
    // Explain the busiest correctly-predicted event.
    let proba = model.predict_proba(&csr, &x);
    let event = sys
        .tkg
        .events
        .iter()
        .filter(|e| trail_linalg::vector::argmax(proba.row(e.node.index())) == Some(e.apt as usize))
        .max_by_key(|e| sys.tkg.graph.degree(e.node))
        .or_else(|| sys.tkg.events.first());
    let Some(event) = event else {
        println!("no events to explain");
        return;
    };
    let class = event.apt as usize;
    let expl = trail_gnn::explain::explain(
        &model,
        &csr,
        &x,
        event.node,
        class,
        &trail_gnn::explain::ExplainerConfig::default(),
    );
    let model_p = proba[(event.node.index(), class)];
    println!(
        "event {} ({}), {}-layer model, {}-hop ball: {} members, {} masked half-edges",
        event.report_id,
        sys.tkg.registry.name(event.apt),
        layers,
        layers,
        expl.members.len(),
        expl.edges.len()
    );
    println!(
        "p(class): model {:.4}, explainer's unmasked forward {:.4} (bitwise equal: {})",
        model_p,
        expl.base_probability,
        model_p.to_bits() == expl.base_probability.to_bits()
    );
    let below = expl.edge_importance.iter().filter(|&&m| m < 0.5).count();
    println!(
        "mask entries below 0.5: {below} of {}{}",
        expl.edge_importance.len(),
        if below == 0 {
            " (degenerate: the importances below only count incident half-edges)"
        } else {
            ""
        }
    );
    // A node adjacent to the event sits on one of its feature edges;
    // any other node is reached over a reuse path through a neighbour.
    let top = expl.top_nodes(15);
    let own = |v: trail_graph::NodeId| csr.neighbors(event.node).contains(&v);
    let n_own = top.iter().filter(|&&(v, _)| own(v)).count();
    println!(
        "top-{} influential nodes: {} on the event's feature edges, {} over reuse paths \
         (paper: IOC features outweigh reuse paths):",
        top.len(),
        n_own,
        top.len() - n_own
    );
    for (node, importance) in top {
        let rec = sys.tkg.graph.node(node);
        println!(
            "  {:<8} {:<50} {:<7} importance {:.3}",
            format!("{:?}", rec.kind),
            sys.tkg.graph.key(node).chars().take(50).collect::<String>(),
            if own(node) { "feature" } else { "reuse" },
            importance
        );
    }
}

/// `repro quant` — i8-quantized inference vs f32 on the attribution
/// GNN (DESIGN.md §11). Takes the first of Table IV's event folds and
/// trains a 2-layer GNN on its whole train fold (no validation set is
/// carved and the fold is not shuffled, unlike Table IV's GNN rows),
/// then compares `forward` against `forward_quantized` on the input
/// with the train labels visible: max-abs logit error, argmax
/// agreement on the test events, test accuracy under both paths, and
/// min-of-N per-forward wall clock, printed as table rows plus one
/// `[quant]` summary line.
pub fn quant(sys: &TrailSystem, opts: &RunOptions, emb: &NodeEmbeddings) {
    header(
        "quant",
        "i8 symmetric per-row quantized inference vs f32 (2-layer GNN)",
    );
    let mut rng = opts.rng();
    let cfg = opts.gnn_settings();
    let csr = sys.tkg.csr();
    let kf = attribute::event_folds(&mut rng, &sys.tkg, opts.folds.max(2));
    let Some((train_ev, test_ev)) = kf.splits().next() else {
        println!("no event folds to evaluate");
        return;
    };
    let pairs = |idx: &[usize]| -> Vec<(trail_graph::NodeId, u16)> {
        idx.iter()
            .map(|&i| (sys.tkg.events[i].node, sys.tkg.events[i].apt))
            .collect()
    };
    let train_pairs = pairs(&train_ev);
    let test_pairs = pairs(&test_ev);

    // Inference input: train labels visible, test labels masked.
    let (mut model, x_test) =
        attribute::train_event_gnn(&mut rng, &sys.tkg, emb, &train_pairs, &[], 2, &cfg);

    // Accuracy + error metrics (one forward each; also warms the
    // quantized weight cache so the timing loop measures steady state).
    let logits_f32 = model.forward(&csr, &x_test, false);
    let logits_q = model.forward_quantized(&csr, &x_test);
    let max_abs_err = logits_f32
        .as_slice()
        .iter()
        .zip(logits_q.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    let mut agree = 0usize;
    let mut correct_f32 = 0usize;
    let mut correct_q = 0usize;
    for &(node, apt) in &test_pairs {
        let pf = trail_linalg::vector::argmax(logits_f32.row(node.index())).unwrap_or(0);
        let pq = trail_linalg::vector::argmax(logits_q.row(node.index())).unwrap_or(0);
        agree += usize::from(pf == pq);
        correct_f32 += usize::from(pf == apt as usize);
        correct_q += usize::from(pq == apt as usize);
    }
    let n_test = test_pairs.len().max(1);
    let agreement = agree as f64 / n_test as f64;

    // Min-of-N per-forward wall clock, full-graph inference.
    let reps = if opts.quick { 3 } else { 10 };
    let mut f32_ns = f64::INFINITY;
    let mut quant_ns = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let _ = model.forward(&csr, &x_test, false);
        f32_ns = f32_ns.min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let _ = model.forward_quantized(&csr, &x_test);
        quant_ns = quant_ns.min(t.elapsed().as_nanos() as f64);
    }
    let speedup = f32_ns / quant_ns;
    row(
        "max |logit err|",
        "—",
        format!("{max_abs_err:.2e} (gate ≤ 1e-2 on fixture)"),
    );
    row(
        "argmax agreement",
        "—",
        format!("{:.2}% ({agree}/{n_test} test events)", agreement * 100.0),
    );
    row(
        "test accuracy f32/i8",
        "—",
        format!(
            "{:.4} / {:.4}",
            correct_f32 as f64 / n_test as f64,
            correct_q as f64 / n_test as f64
        ),
    );
    row(
        "per-forward wall clock",
        "—",
        format!(
            "f32 {:.2} ms, i8 {:.2} ms ({speedup:.2}x)",
            f32_ns / 1e6,
            quant_ns / 1e6
        ),
    );
    println!(
        "[quant] max_abs_logit_err={max_abs_err:.3e} argmax_agreement={agreement:.4} \
         speedup={speedup:.3}"
    );
}

/// `repro scale-bench` — paper-scale ingest + compact storage
/// (DESIGN.md §15). Builds one world and times its sequential TKG
/// build, fastest of three after an untimed one, with the
/// allocation-event delta (the counting-allocator RSS proxy) next to
/// it. It then audits the compact storage layer: the u32 CSR must
/// agree element-for-element with a pointer-width
/// [`trail_graph::WideCsr`] built from the same store, and its
/// adjacency bytes/node are reported against the wide baseline.
///
/// Everything is written to `BENCH_scale.json` plus one grep-able
/// `[scale-summary]` line. Returns `false` (non-zero exit) if the
/// three timed builds differ in events or allocations, the two layouts
/// disagree, the build ingested no event, or the compact layout is not
/// >=40% smaller than the wide one (`compact_ratio <= 0.6`).
pub fn scale_bench(opts: &RunOptions) -> bool {
    header("scale-bench", "paper-scale ingest + compact graph storage");
    let mut wcfg = WorldConfig::default().scaled(opts.scale);
    wcfg.seed = opts.seed;
    let world = Arc::new(World::generate(wcfg));
    let cutoff = world.config.cutoff_day;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Min-of-N: each build from a fresh client does identical work, so
    // the fastest is the least disturbed by the host. An untimed build
    // goes first: the process-global metric registry allocates its
    // entries on first use, which would make the first count differ.
    const BUILDS: usize = 3;
    let mut seq_secs = f64::INFINITY;
    let mut counts = Vec::with_capacity(BUILDS);
    let mut seq = TrailSystem::build(OsintClient::new(Arc::clone(&world)), cutoff);
    for _ in 0..BUILDS {
        drop(seq);
        let client = OsintClient::new(Arc::clone(&world));
        let allocs0 = trail_obs::alloc::allocation_count();
        let t = Instant::now();
        seq = TrailSystem::build(client, cutoff);
        seq_secs = seq_secs.min(t.elapsed().as_secs_f64());
        counts.push((
            seq.tkg.events.len(),
            trail_obs::alloc::allocation_count() - allocs0,
        ));
    }
    let (events, seq_allocs) = counts[0];
    let builds_agree = counts.iter().all(|&c| c == counts[0]);
    if !builds_agree {
        eprintln!("[scale] FAIL: the {BUILDS} builds differ in (events, allocations): {counts:?}");
    }
    let seq_evps = events as f64 / seq_secs.max(1e-9);
    println!(
        "[scale] sequential, fastest of {BUILDS}: {} events, {} nodes, {} edges in \
         {seq_secs:.2}s ({seq_evps:.1} events/s, {seq_allocs} allocation events)",
        events,
        seq.tkg.graph.node_count(),
        seq.tkg.graph.edge_count()
    );

    // Compact-storage audit: the u32 CSR against the pointer-width
    // reference layout over the same store.
    let csr = seq.tkg.csr();
    let wide = trail_graph::WideCsr::from_store(&seq.tkg.graph);
    let structural_ok = wide.agrees_with(&csr);
    let n_nodes = csr.node_count().max(1);
    let bpn_compact = csr.heap_bytes() as f64 / n_nodes as f64;
    let bpn_wide = wide.heap_bytes() as f64 / n_nodes as f64;
    let compact_ratio = bpn_compact / bpn_wide.max(1e-9);
    let feature_bytes = seq.tkg.feature_heap_bytes();
    println!(
        "[scale] adjacency: {bpn_wide:.1} bytes/node wide -> {bpn_compact:.1} bytes/node \
         compact (ratio {compact_ratio:.3}, structural agreement {}); feature arena {} bytes",
        u8::from(structural_ok),
        feature_bytes
    );

    println!(
        "[scale-summary] events={events} cores={cores} structural_ok={} evps_seq={seq_evps:.1} \
         bpn_wide={bpn_wide:.1} bpn_compact={bpn_compact:.1} compact_ratio={compact_ratio:.4}",
        u8::from(structural_ok),
    );

    let doc = serde_json::json!({
        "experiment": "scale-bench",
        "seed": opts.seed,
        "scale": opts.scale as f64,
        "quick": opts.quick,
        "cores": cores,
        "pool_threads": trail_linalg::pool::num_threads(),
        "events": events,
        "nodes": seq.tkg.graph.node_count(),
        "edges": seq.tkg.graph.edge_count(),
        "structural_ok": structural_ok,
        "sequential": serde_json::json!({
            "builds": BUILDS,
            "seconds": seq_secs,
            "events_per_sec": seq_evps,
            "allocations": seq_allocs,
        }),
        "bytes_per_node_wide": bpn_wide,
        "bytes_per_node_compact": bpn_compact,
        "compact_ratio": compact_ratio,
        "feature_arena_bytes": feature_bytes,
    });
    let compact_ok = compact_ratio <= 0.6;
    if !compact_ok {
        eprintln!(
            "[scale] FAIL: compact adjacency is {compact_ratio:.3}x the wide layout (need <=0.6)"
        );
    }
    let mut ok = structural_ok && events > 0 && compact_ok && builds_agree;
    match std::fs::write(
        "BENCH_scale.json",
        serde_json::to_string_pretty(&doc).expect("scale doc serialises"),
    ) {
        Ok(()) => println!("[scale] run report written to BENCH_scale.json"),
        Err(e) => {
            eprintln!("[scale] could not write BENCH_scale.json: {e}");
            ok = false;
        }
    }
    ok
}
