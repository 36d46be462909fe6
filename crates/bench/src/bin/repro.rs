//! `repro` — regenerate every table and figure of the TRAIL paper.
//!
//! ```text
//! repro <experiment> [--scale S] [--seed N] [--folds K] [--resume DIR]
//!       [--quick] [--trace]
//!
//! experiments:
//!   table2  table3  table4  fig3  fig4  fig7  fig8  fig9  fig10
//!   sec5    case    ablations   quant   scale-bench   all
//! ```
//!
//! `scale-bench` exercises the paper-scale ingest path: one world is
//! ingested sequentially and then shard-parallel (8 hash shards) at
//! 1/2/8 worker threads; each sharded build must be bitwise-identical
//! to the sequential reference with an exactly-equal ingest taxonomy.
//! It also audits the compact u32 CSR against a pointer-width
//! reference layout and reports adjacency bytes/node. Results land in
//! `BENCH_scale.json` plus a `[scale-summary]` line; the run exits
//! non-zero if any equality invariant breaks, the compact layout is
//! not >=40% smaller than the wide one, or a machine with >=8 cores
//! shows less than a 2x 8-thread speedup (see DESIGN.md §15).
//!
//! `quant` trains one Table-IV fold and compares f32 inference against
//! the i8-quantized forward path: max-abs logit error, argmax
//! agreement and test accuracy on the held-out events, and min-of-N
//! per-forward wall clock, printed as table rows.
//!
//! Serving and streaming are checked by tier-1 tests
//! (`tests/serve_test.rs`, `tests/stream_equivalence_test.rs`) and
//! timed by `perfbench/` (see DESIGN.md §12–13), not by `repro`.
//!
//! `--trace` pretty-prints the hierarchical span tree (plus counters
//! and histograms) collected by `trail-obs` after the run, under one
//! root span named after the experiment. `--quick` also suppresses the
//! free-form setup banners.
//!
//! `fig7` and `fig8` share one longitudinal run (`fig7` is the first
//! month's confusion matrix of the same study), driven month by month
//! through the streaming runtime. With `--resume DIR` they run the
//! crash-safe study instead: a checkpoint is written to DIR after every
//! window, and an existing checkpoint there resumes the run — the
//! output is bitwise-identical to an uninterrupted run, and a damaged
//! or foreign checkpoint is refused with a typed error (exit 1). The
//! fault drills (kill/resume under a seeded `ChaosPlan`, corrupted
//! checkpoints, a dead feed) are tier-1 tests in `tests/chaos_test.rs`.

use trail_bench::RunOptions;

/// Every allocation in the run bumps a relaxed counter (one atomic
/// add over the system allocator — noise-level overhead), so the
/// allocation counts `scale-bench` prints and records in
/// `BENCH_scale.json` are real measurements rather than 0.
#[global_allocator]
static ALLOC: trail_obs::alloc::CountingAllocator = trail_obs::alloc::CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = String::from("all");
    let mut opts = RunOptions::default();
    let mut trace = false;
    let mut resume_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--resume" => {
                i += 1;
                resume_dir = Some(args.get(i).cloned().unwrap_or_else(usage));
            }
            "--scale" => {
                i += 1;
                opts.scale = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(usage);
            }
            "--seed" => {
                i += 1;
                opts.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(usage);
            }
            "--folds" => {
                i += 1;
                opts.folds = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(usage);
            }
            "--quick" => opts.quick = true,
            "--trace" => trace = true,
            flag if flag.starts_with("--") => usage(),
            name => experiment = name.to_owned(),
        }
        i += 1;
    }

    let total = std::time::Instant::now();
    let ok = run(&experiment, &opts, resume_dir.as_deref());
    if trace {
        println!("\n=== trace: span tree, counters, histograms ===");
        print!("{}", trail_obs::snapshot().render_tree());
    }
    println!("\n[done] total {:?}", total.elapsed());
    std::process::exit(if ok { 0 } else { 1 });
}

/// Run one experiment and return its verdict: `false` when a bench
/// found a broken invariant or a checkpoint was refused (the process
/// then exits 1).
fn run(experiment: &str, opts: &RunOptions, resume_dir: Option<&str>) -> bool {
    let _span = trail_obs::span(experiment);
    // scale-bench builds its own world (several competing ingest
    // paths); dispatch it before the default system build.
    if experiment == "scale-bench" {
        return trail_bench::scale_bench(opts);
    }

    let needs_embeddings = matches!(
        experiment,
        "table4" | "fig10" | "ablations" | "quant" | "all"
    );
    let sys = opts.build_system();
    let embeddings = if needs_embeddings {
        let t = std::time::Instant::now();
        let mut rng = opts.rng();
        let (emb, _) = trail::embed::train_autoencoders(&mut rng, &sys.tkg, &opts.ae_settings());
        if !opts.quick {
            println!("[setup] autoencoders trained in {:?}", t.elapsed());
        }
        Some(emb)
    } else {
        None
    };

    match experiment {
        "table2" => trail_bench::table2(&sys),
        "sec5" => trail_bench::sec5(&sys),
        "fig3" => trail_bench::fig3(&sys),
        "fig4" => trail_bench::fig4(&sys),
        "table3" => trail_bench::table3(&sys, opts),
        "table4" => trail_bench::table4(&sys, opts, embeddings.as_ref().expect("built")),
        "fig9" => trail_bench::fig9(&sys, opts),
        "ablations" => trail_bench::ablations(&sys, opts, embeddings.as_ref().expect("built")),
        "fig10" => trail_bench::fig10(&sys, opts, embeddings.as_ref().expect("built")),
        "quant" => trail_bench::quant(&sys, opts, embeddings.as_ref().expect("built")),
        "fig7" | "fig8" => match resume_dir {
            Some(dir) => {
                return trail_bench::fig7_fig8_resumable(
                    sys.client,
                    opts,
                    std::path::Path::new(dir),
                )
            }
            None => trail_bench::fig7_fig8(sys, opts),
        },
        "case" => trail_bench::case(sys, opts),
        "all" => {
            let emb = embeddings.as_ref().expect("built");
            trail_bench::table2(&sys);
            trail_bench::sec5(&sys);
            trail_bench::fig3(&sys);
            trail_bench::fig4(&sys);
            trail_bench::table3(&sys, opts);
            trail_bench::table4(&sys, opts, emb);
            trail_bench::fig9(&sys, opts);
            trail_bench::fig10(&sys, opts, emb);
            // The longitudinal experiments consume systems of their own.
            trail_bench::case(opts.build_system(), opts);
            trail_bench::fig7_fig8(opts.build_system(), opts);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            usage::<()>();
        }
    }
    true
}

fn usage<T>() -> T {
    eprintln!(
        "usage: repro <table2|table3|table4|fig3|fig4|fig7|fig8|fig9|fig10|sec5|case|ablations|quant|scale-bench|all> \
         [--scale S] [--seed N] [--folds K] [--resume DIR] [--quick] [--trace]"
    );
    std::process::exit(2);
}
