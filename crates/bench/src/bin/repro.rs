//! `repro` — regenerate every table and figure of the TRAIL paper.
//!
//! ```text
//! repro <experiment> [--scale S] [--seed N] [--folds K] [--faults P]
//!       [--resume DIR] [--chaos SEED] [--quick] [--trace]
//!
//! experiments:
//!   table2  table3  table4  fig3  fig4  fig7  fig8  fig9  fig10
//!   sec5    case    chaos   ablations   quant   scale-bench   all
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
//! per-forward wall clock, all recorded under the `quant` taxonomy in
//! `BENCH_repro.json`.
//!
//! Serving and streaming are checked by tier-1 tests
//! (`tests/serve_test.rs`, `tests/stream_equivalence_test.rs`) and
//! timed by `perfbench/` (see DESIGN.md §12–13), not by `repro`.
//!
//! `--trace` pretty-prints the hierarchical span tree (plus counters
//! and histograms) collected by `trail-obs` after the run. `--quick`
//! also switches stage reporting to machine-parseable `[stage]` lines
//! and suppresses the free-form setup banners.
//!
//! `fig7` and `fig8` share one longitudinal run (`fig7` is the first
//! month's confusion matrix of the same study), driven month by month
//! through the streaming runtime. With `--resume DIR` they run the
//! crash-safe study instead: a checkpoint is written to DIR after every
//! window, and an existing checkpoint there resumes the run — the
//! output is bitwise-identical to an uninterrupted run.
//!
//! `--chaos SEED` (or the `chaos` experiment) runs the deterministic
//! fault drill: a seeded plan injects transient faults and analysis
//! gaps, arms the OSINT circuit breaker, kills the study at the plan's
//! window boundaries, resumes it, and verifies checkpoint corruption
//! is rejected. Exits non-zero if any invariant fails. The WAL and
//! hot-swap durability drills live in `tests/wal_recovery_test.rs`
//! and `tests/hot_swap_test.rs`.
//!
//! Every run also writes `BENCH_repro.json` into the working
//! directory: per-stage wall-clock seconds plus run metadata (thread
//! count, scale, graph size), for mechanical perf comparison across
//! commits.

use trail_bench::{BenchRecorder, RunOptions};

/// Every allocation in the run bumps a relaxed counter (one atomic
/// add over the system allocator — noise-level overhead), so the
/// `allocations` field the longitudinal study records in
/// `BENCH_repro.json` is a real measurement rather than 0.
#[global_allocator]
static ALLOC: trail_obs::alloc::CountingAllocator = trail_obs::alloc::CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = String::from("all");
    let mut opts = RunOptions::default();
    let mut trace = false;
    let mut chaos_seed: Option<u64> = None;
    let mut resume_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--chaos" => {
                i += 1;
                chaos_seed = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(usage),
                );
                experiment = String::from("chaos");
            }
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
            "--faults" => {
                i += 1;
                opts.transient_fault_prob = args
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

    let mut rec = BenchRecorder::new();
    rec.set_machine_readable(opts.quick);
    rec.set_meta("experiment", experiment.as_str());
    rec.set_meta("obs_enabled", trail_obs::enabled());
    rec.set_meta("threads", trail_linalg::pool::num_threads() as u64);
    rec.set_meta("scale", opts.scale as f64);
    rec.set_meta("seed", opts.seed);
    rec.set_meta("folds", opts.folds as u64);
    rec.set_meta("quick", opts.quick);
    rec.set_meta("faults", opts.transient_fault_prob as f64);

    let total = std::time::Instant::now();
    let ok = run(
        &experiment,
        &opts,
        chaos_seed,
        resume_dir.as_deref(),
        &mut rec,
    );
    rec.record("total", total.elapsed().as_secs_f64());
    match rec.write_json("BENCH_repro.json") {
        Ok(()) => println!("[bench] stage timings written to BENCH_repro.json"),
        Err(e) => eprintln!("[bench] could not write BENCH_repro.json: {e}"),
    }
    if trace {
        println!("\n=== trace: span tree, counters, histograms ===");
        print!("{}", trail_obs::snapshot().render_tree());
    }
    println!("\n[done] total {:?}", total.elapsed());
    std::process::exit(if ok { 0 } else { 1 });
}

/// Run one experiment and return its verdict: `false` when a bench or
/// drill found a broken invariant (the process then exits 1).
fn run(
    experiment: &str,
    opts: &RunOptions,
    chaos_seed: Option<u64>,
    resume_dir: Option<&str>,
    rec: &mut BenchRecorder,
) -> bool {
    // scale-bench and the chaos drill build their own worlds (several
    // competing ingest paths; a fault-injected world); dispatch them
    // before the default system build.
    match experiment {
        "scale-bench" => return trail_bench::scale_bench(opts, rec),
        "chaos" => return trail_bench::chaos(opts, chaos_seed.unwrap_or(opts.seed), rec),
        _ => {}
    }

    let needs_embeddings = matches!(
        experiment,
        "table4" | "fig10" | "ablations" | "quant" | "all"
    );
    let sys = rec.time("setup_tkg", || opts.build_system());
    rec.set_meta("events", sys.tkg.events.len() as u64);
    rec.set_meta("nodes", sys.tkg.graph.node_count() as u64);
    rec.set_meta("edges", sys.tkg.graph.edge_count() as u64);
    rec.record_taxonomy("setup_tkg", sys.ingest_stats.to_json());
    let embeddings = if needs_embeddings {
        let t = std::time::Instant::now();
        let mut rng = opts.rng();
        let (emb, _) = rec.time("autoencoders", || {
            trail::embed::train_autoencoders(&mut rng, &sys.tkg, &opts.ae_settings())
        });
        if !opts.quick {
            println!("[setup] autoencoders trained in {:?}", t.elapsed());
        }
        Some(emb)
    } else {
        None
    };

    match experiment {
        "table2" => rec.time("table2", || trail_bench::table2(&sys)),
        "sec5" => rec.time("sec5", || trail_bench::sec5(&sys)),
        "fig3" => rec.time("fig3", || trail_bench::fig3(&sys)),
        "fig4" => rec.time("fig4", || trail_bench::fig4(&sys)),
        "table3" => rec.time("table3", || trail_bench::table3(&sys, opts)),
        "table4" => trail_bench::table4(&sys, opts, embeddings.as_ref().expect("built"), rec),
        "fig9" => rec.time("fig9", || trail_bench::fig9(&sys, opts)),
        "ablations" => rec.time("ablations", || {
            trail_bench::ablations(&sys, opts, embeddings.as_ref().expect("built"))
        }),
        "fig10" => rec.time("fig10", || {
            trail_bench::fig10(&sys, opts, embeddings.as_ref().expect("built"))
        }),
        "quant" => trail_bench::quant(&sys, opts, embeddings.as_ref().expect("built"), rec),
        "fig7" | "fig8" => {
            let t = std::time::Instant::now();
            let ok = match resume_dir {
                Some(dir) => trail_bench::fig7_fig8_resumable(
                    sys.client,
                    opts,
                    std::path::Path::new(dir),
                    rec,
                ),
                None => {
                    trail_bench::fig7_fig8(sys, opts, rec);
                    true
                }
            };
            rec.record("fig7_fig8", t.elapsed().as_secs_f64());
            return ok;
        }
        "case" => rec.time("case", || trail_bench::case(sys, opts)),
        "all" => {
            let emb = embeddings.as_ref().expect("built");
            rec.time("table2", || trail_bench::table2(&sys));
            rec.time("sec5", || trail_bench::sec5(&sys));
            rec.time("fig3", || trail_bench::fig3(&sys));
            rec.time("fig4", || trail_bench::fig4(&sys));
            rec.time("table3", || trail_bench::table3(&sys, opts));
            trail_bench::table4(&sys, opts, emb, rec);
            rec.time("fig9", || trail_bench::fig9(&sys, opts));
            rec.time("fig10", || trail_bench::fig10(&sys, opts, emb));
            // The longitudinal experiments consume systems of their own.
            rec.time("case", || trail_bench::case(opts.build_system(), opts));
            let t = std::time::Instant::now();
            trail_bench::fig7_fig8(opts.build_system(), opts, rec);
            rec.record("fig7_fig8", t.elapsed().as_secs_f64());
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
        "usage: repro <table2|table3|table4|fig3|fig4|fig7|fig8|fig9|fig10|sec5|case|chaos|ablations|quant|scale-bench|all> \
         [--scale S] [--seed N] [--folds K] [--faults P] [--resume DIR] [--chaos SEED] [--quick] [--trace]"
    );
    std::process::exit(2);
}
