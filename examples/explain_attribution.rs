//! Explainability: which features fingerprint an APT's URLs (paper
//! Fig. 9) and which IOCs drove one event's attribution (Fig. 10).
//!
//! ```sh
//! cargo run --release --example explain_attribution
//! ```

use std::sync::Arc;

use trail::attribute::{ioc_datasets, train_event_gnn, GnnEvalConfig, IocModelSettings};
use trail::embed::train_autoencoders;
use trail::system::TrailSystem;
use trail_ml::explain::gbt_beeswarm;
use trail_ml::nn::autoencoder::AutoencoderConfig;
use trail_ml::GradientBoostedTrees;
use trail_osint::{OsintClient, World, WorldConfig};

fn main() {
    let mut config = WorldConfig::default().scaled(0.25);
    config.seed = 42;
    let world = Arc::new(World::generate(config));
    let client = OsintClient::new(world);
    let cutoff = client.world().config.cutoff_day;
    let system = TrailSystem::build(client, cutoff);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);

    // --- Fig. 9: per-feature contributions of the URL classifier -----
    let settings = IocModelSettings::default();
    let datasets = ioc_datasets(&mut rng, &system.tkg, 3000);
    let urls = &datasets[1];
    let gbt = GradientBoostedTrees::fit(
        &mut rng,
        &urls.data.x,
        &urls.data.y,
        urls.data.n_classes,
        &settings.gbt,
    );
    let class = 0u16; // APT28, the paper's example
    let bees = gbt_beeswarm(&gbt, &urls.data.x, class as usize, 10);
    println!(
        "top URL features pushing predictions toward {} (cf. paper Fig. 9):",
        system.tkg.registry.name(class)
    );
    for (f, imp) in &bees.top_features {
        println!(
            "  {:<32} mean|contribution| {:.5}",
            system.tkg.url_encoder.feature_name(*f),
            imp
        );
    }

    // --- Fig. 10: GNNExplainer over one event's neighbourhood --------
    let ae_cfg = AutoencoderConfig {
        hidden: 128,
        code: 48,
        epochs: 3,
        ..Default::default()
    };
    let (emb, _) = train_autoencoders(&mut rng, &system.tkg, &ae_cfg);
    let gnn_cfg = GnnEvalConfig {
        hidden: 48,
        train: trail_gnn::TrainConfig {
            lr: 2e-2,
            epochs: 150,
            patience: 0,
        },
        val_fraction: 0.0,
        l2_normalize: true,
        label_visible_fraction: 0.5,
        sampled_neighbor_cap: None,
    };
    let csr = system.tkg.csr();
    let (model, x) = train_event_gnn(
        &mut rng,
        &system.tkg,
        &emb,
        &system.tkg.event_pairs(),
        &[],
        2,
        &gnn_cfg,
    );

    let event = system
        .tkg
        .events
        .iter()
        .max_by_key(|e| system.tkg.graph.degree(e.node))
        .unwrap();
    let expl = trail_gnn::explain::explain(
        &model,
        &csr,
        &x,
        event.node,
        event.apt as usize,
        &trail_gnn::explain::ExplainerConfig::default(),
    );
    println!(
        "\nevent {} ({}): {}-member 2-hop ball, model p(class) = {:.2}",
        event.report_id,
        system.tkg.registry.name(event.apt),
        expl.members.len(),
        expl.base_probability
    );
    println!("most influential IOCs (cf. paper Fig. 10):");
    for (node, importance) in expl.top_nodes(10) {
        let rec = system.tkg.graph.node(node);
        println!(
            "  {:<8} {:<45} importance {:.3}",
            format!("{:?}", rec.kind),
            system
                .tkg
                .graph
                .key(node)
                .chars()
                .take(45)
                .collect::<String>(),
            importance
        );
    }
}
