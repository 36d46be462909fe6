//! Attribution integration: the three analysis families all beat
//! random on a fresh synthetic world, and the graph methods beat the
//! per-IOC voting baseline — the ordering at the heart of Table IV.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use trail::attribute::{self, GnnEvalConfig, IocModelSettings, ModelKind};
use trail::embed::train_autoencoders;
use trail::system::TrailSystem;
use trail_ml::nn::autoencoder::AutoencoderConfig;
use trail_osint::{OsintClient, World, WorldConfig};

fn build(seed: u64) -> TrailSystem {
    let client = OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(seed))));
    let cutoff = client.world().config.cutoff_day;
    TrailSystem::build(client, cutoff)
}

#[test]
fn all_three_ioc_model_families_train_and_predict() {
    let sys = build(900);
    let mut rng = StdRng::seed_from_u64(1);
    let settings = IocModelSettings::fast();
    let datasets = attribute::ioc_datasets(&mut rng, &sys.tkg, settings.max_samples);
    let ds = datasets
        .iter()
        .max_by_key(|d| d.data.len())
        .expect("non-empty");
    assert!(ds.data.len() > 30);
    for model in ModelKind::ALL {
        let scores = attribute::crossval_ioc(&mut rng, ds, model, &settings, 2);
        assert_eq!(scores.acc.len(), 2);
        let (acc, _) = scores.acc_mean_std();
        assert!((0.0..=1.0).contains(&acc), "{model:?} acc {acc}");
    }
}

#[test]
fn lp_depth_ordering_matches_paper() {
    // Deeper propagation must not hurt much and usually helps — the
    // paper's LP 2L < 3L < 4L. Tiny worlds are noisy, so assert the
    // weaker invariant: LP4 >= LP2 - small slack, and both beat random.
    let sys = build(901);
    let mut rng = StdRng::seed_from_u64(2);
    let lp2 = attribute::eval_event_lp(&mut rng, &sys.tkg, 2, 3)
        .acc_mean_std()
        .0;
    let lp4 = attribute::eval_event_lp(&mut rng, &sys.tkg, 4, 3)
        .acc_mean_std()
        .0;
    let random = 1.0 / sys.tkg.n_classes() as f64;
    assert!(lp2 > random * 1.5, "LP2 {lp2} vs random {random}");
    assert!(lp4 > random * 1.5, "LP4 {lp4}");
    assert!(lp4 >= lp2 - 0.1, "LP4 {lp4} much worse than LP2 {lp2}");
}

#[test]
fn graph_methods_beat_ioc_voting() {
    let sys = build(902);
    let mut rng = StdRng::seed_from_u64(3);
    let vote = attribute::eval_event_ml(
        &mut rng,
        &sys.tkg,
        ModelKind::Rf,
        &IocModelSettings::fast(),
        2,
    )
    .acc_mean_std()
    .0;
    let lp4 = attribute::eval_event_lp(&mut rng, &sys.tkg, 4, 2)
        .acc_mean_std()
        .0;
    // The paper's central observation: topology carries more signal
    // than per-IOC features alone.
    assert!(
        lp4 > vote - 0.05,
        "LP4 {lp4} should not lose badly to voting {vote}"
    );
}

#[test]
fn gnn_learns_and_beats_random() {
    let sys = build(903);
    let mut rng = StdRng::seed_from_u64(4);
    let ae = AutoencoderConfig {
        hidden: 32,
        code: 8,
        epochs: 2,
        batch_size: 64,
        lr: 1e-3,
    };
    let (emb, _) = train_autoencoders(&mut rng, &sys.tkg, &ae);
    let cfg = GnnEvalConfig {
        hidden: 16,
        train: trail_gnn::TrainConfig {
            lr: 0.02,
            epochs: 150,
            patience: 0,
        },
        val_fraction: 0.1,
        l2_normalize: false,
        label_visible_fraction: 0.6,
        sampled_neighbor_cap: None,
    };
    let scores = attribute::eval_event_gnn(&mut rng, &sys.tkg, &emb, 2, &cfg, 2);
    let (acc, _) = scores.acc_mean_std();
    let random = 1.0 / sys.tkg.n_classes() as f64;
    assert!(acc > random * 1.2, "GNN acc {acc} vs random {random}");
    // Per-fold scores, bit for bit. The world and every model draw come
    // from the in-repo `rand` stand-in, so these are that generator's
    // bits; re-pin only for a change that means to move the GNN fold loop.
    let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&scores.acc),
        [0x3fde_b851_eb85_1eb8, 0x3fd6_42c8_590b_2164]
    );
    assert_eq!(
        bits(&scores.bacc),
        [0x3fda_e38e_38e3_8e39, 0x3fd2_db6d_b6db_6db7]
    );
}

#[test]
fn fold_scores_are_reproducible_for_fixed_seeds() {
    let sys = build(904);
    let a = attribute::eval_event_lp(&mut StdRng::seed_from_u64(5), &sys.tkg, 3, 3);
    let b = attribute::eval_event_lp(&mut StdRng::seed_from_u64(5), &sys.tkg, 3, 3);
    assert_eq!(a.acc, b.acc);
    assert_eq!(a.bacc, b.bacc);
}
