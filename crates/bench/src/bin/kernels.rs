//! `kernels` — std-only microbenchmark for the trail-linalg hot
//! kernels (no criterion: the offline container has no registry).
//!
//! ```text
//! kernels [--quick] [--check] [--out PATH]
//! ```
//!
//! Sweeps the GNN/autoencoder shapes the pipeline actually runs:
//! `matmul`, `matmul_t` and `t_matmul` measure the blocked kernels
//! against the exact pre-blocking reference loops
//! (`trail_linalg::reference`), and `matmul_quant` measures the i8
//! path (per-row activation quantization included, weight
//! quantization cached — matching how `forward_quantized` uses it)
//! against both the old and the new f32 kernel. All timings are
//! min-of-N wall clock, single thread (`TRAIL_THREADS=1` is forced
//! before the pool spins up). The kernels compared on one shape take
//! their repetitions in turn (for `matmul`: reference, blocked, i8,
//! reference, ...), so host speed drifting over the run moves both
//! sides of a ratio alike. Each timed call runs right after an untimed
//! call of the same kernel, so every kernel finds its inputs as warm
//! as it leaves them, whichever kernel ran before it (some read the
//! same buffers, some read copies). The slice kernels' operands start
//! on page boundaries: with heap-placed buffers the f32 matmul ratio
//! moved by up to a fifth when only the allocations made before the
//! timed loop changed.
//!
//! Results go to `BENCH_kernels.json` plus machine-parseable stdout
//! lines:
//!
//! ```text
//! [kernel] matmul shape=2048x512x512 old_ns=.. new_ns=.. speedup=..
//! [kernel-summary] matmul_speedup=.. t_matmul_speedup=.. matmul_t_speedup=.. quant_speedup=..
//! ```
//!
//! `--check` gates the geometric-mean speedups (f32 ≥ 1.5×, quantized
//! ≥ 2× over the old f32 kernel) and exits non-zero on regression;
//! `scripts/verify.sh --perf` runs `kernels --check`.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};
use std::time::Instant;

use trail_linalg::quant::{matmul_quant_into, QuantizedMatrix};
use trail_linalg::{kernels, reference, Matrix};

/// (rows, inner, cols) products the models run: autoencoder encode at
/// the paper's 1,517-feature width, SAGE hidden layers at the paper
/// (512) and default (64) widths, and the logits layer.
const SHAPES: &[(usize, usize, usize, &str)] = &[
    (1024, 1517, 256, "ae_encode"),
    (2048, 512, 512, "sage_hidden_paper"),
    (4096, 256, 64, "sage_hidden_default"),
    (4096, 64, 16, "sage_logits"),
];

const PAGE_FLOATS: usize = 4096 / std::mem::size_of::<f32>();

/// An f32 buffer whose first element sits on a 4 KiB page boundary.
/// The slice kernels read and write only such buffers, so where their
/// operands fall against each other (cache sets, 4K aliasing between
/// loads and stores) is the same on every run, for every kernel,
/// whatever the allocator handed out before.
struct Paged {
    buf: Vec<f32>,
    start: usize,
    len: usize,
}

impl Paged {
    fn zeros(len: usize) -> Self {
        let buf = vec![0.0f32; len + PAGE_FLOATS];
        let start =
            (buf.as_ptr() as usize / std::mem::size_of::<f32>()).wrapping_neg() % PAGE_FLOATS;
        Self { buf, start, len }
    }
}

impl Deref for Paged {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl DerefMut for Paged {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

fn fill(seed: u64, len: usize) -> Paged {
    let mut out = Paged::zeros(len);
    let mut s = seed | 1;
    for x in out.iter_mut() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x = ((s >> 33) as i32 % 2000) as f32 / 700.0;
    }
    out
}

/// Min-of-N wall clock in nanoseconds of each of `fs`, repetitions
/// interleaved: repetition `i` of every kernel runs before repetition
/// `i + 1` of any. Each timed call follows an untimed warm-up call of
/// the same kernel, so no kernel is timed on caches another one warmed.
fn time_min<const N: usize>(reps: usize, mut fs: [&mut dyn FnMut(); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps {
        for (best, f) in best.iter_mut().zip(fs.iter_mut()) {
            f();
            let t = Instant::now();
            f();
            *best = best.min(t.elapsed().as_nanos() as f64);
        }
    }
    best
}

fn gflops(m: usize, k: usize, n: usize, ns: f64) -> f64 {
    (2.0 * m as f64 * k as f64 * n as f64) / ns
}

fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

struct Case {
    kernel: &'static str,
    site: &'static str,
    shape: (usize, usize, usize),
    old_ns: f64,
    new_ns: f64,
    extra: Vec<(&'static str, f64)>,
}

fn main() {
    // The speedup claims are single-thread kernel-vs-kernel; pin the
    // pool before anything touches it.
    if std::env::var("TRAIL_THREADS").is_err() {
        std::env::set_var("TRAIL_THREADS", "1");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_kernels.json".into());

    let mut cases: Vec<Case> = Vec::new();
    let mut quant_speedups = Vec::new();
    let mut quant_vs_new = Vec::new();

    for &(m, k, n, site) in SHAPES {
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let base_reps = ((2.0e8 / flops).ceil() as usize).clamp(3, 40);
        let reps = if quick { 3.min(base_reps) } else { base_reps };

        let a = fill(m as u64 * 7 + k as u64, m * k);
        let b = fill(n as u64 * 13 + 5, k * n);
        let mut c_old = Paged::zeros(m * n);
        let mut c_new = Paged::zeros(m * n);

        // -- matmul: C = A @ B, and matmul_quant on the same product:
        // weights cached, activations quantized per call --
        let bm = Matrix::from_vec(k, n, b.to_vec()).unwrap();
        let qbt = QuantizedMatrix::from_cols(&bm);
        let am = Matrix::from_vec(m, k, a.to_vec()).unwrap();
        let mut qa = QuantizedMatrix::new();
        let mut qc = Matrix::zeros(m, n);
        let [old_ns, new_ns, quant_ns] = time_min(
            reps,
            [
                &mut || {
                    c_old.fill(0.0);
                    reference::matmul_rows_skip(&a, k, &b, n, &mut c_old);
                },
                &mut || {
                    c_new.fill(0.0);
                    kernels::matmul_rows(&a, k, &b, n, &mut c_new);
                },
                &mut || {
                    qa.quantize_rows_into(&am);
                    matmul_quant_into(&qa, &qbt, &mut qc).expect("quant shapes");
                },
            ],
        );
        cases.push(Case {
            kernel: "matmul",
            site,
            shape: (m, k, n),
            old_ns,
            new_ns,
            extra: vec![],
        });
        quant_speedups.push(old_ns / quant_ns);
        quant_vs_new.push(new_ns / quant_ns);
        cases.push(Case {
            kernel: "matmul_quant",
            site,
            shape: (m, k, n),
            old_ns,
            new_ns: quant_ns,
            extra: vec![("vs_new_f32", new_ns / quant_ns)],
        });

        // -- matmul_t: C = dY @ Wᵀ (backward input-gradient shape) --
        let bt_rows = k; // W is (k_out × n_in) here: reuse (m,n,k) roles
        let wt = fill(9 + m as u64, bt_rows * n);
        let dy = fill(3 + n as u64, m * n);
        let mut dx = Paged::zeros(m * bt_rows);
        let dym = Matrix::from_vec(m, n, dy.to_vec()).unwrap();
        let wtm = Matrix::from_vec(bt_rows, n, wt.to_vec()).unwrap();
        let mut dxm = Matrix::zeros(m, bt_rows);
        let [old_t_ns, new_t_ns] = time_min(
            reps,
            [
                &mut || reference::matmul_t_rows_dot(&dy, n, &wt, bt_rows, &mut dx),
                &mut || dym.matmul_t_into(&wtm, &mut dxm).expect("matmul_t shapes"),
            ],
        );
        cases.push(Case {
            kernel: "matmul_t",
            site,
            shape: (m, n, bt_rows),
            old_ns: old_t_ns,
            new_ns: new_t_ns,
            extra: vec![],
        });

        // -- t_matmul: dW = Xᵀ @ dY (backward weight-gradient shape) --
        let dyb = fill(17, m * n);
        let mut dw_old = Paged::zeros(k * n);
        let mut dw_new = Paged::zeros(k * n);
        let [old_tm_ns, new_tm_ns] = time_min(
            reps,
            [
                &mut || {
                    dw_old.fill(0.0);
                    reference::t_matmul_rows_skip(&a, m, k, &dyb, n, &mut dw_old);
                },
                &mut || {
                    dw_new.fill(0.0);
                    kernels::t_matmul_rows(&a, m, k, &dyb, n, &mut dw_new);
                },
            ],
        );
        cases.push(Case {
            kernel: "t_matmul",
            site,
            shape: (m, k, n),
            old_ns: old_tm_ns,
            new_ns: new_tm_ns,
            extra: vec![],
        });
    }

    // Per-kernel geometric-mean speedups.
    let mean_for = |name: &str, cs: &[Case]| {
        geomean(
            &cs.iter()
                .filter(|c| c.kernel == name)
                .map(|c| c.old_ns / c.new_ns)
                .collect::<Vec<_>>(),
        )
    };
    let matmul_speedup = mean_for("matmul", &cases);
    let matmul_t_speedup = mean_for("matmul_t", &cases);
    let t_matmul_speedup = mean_for("t_matmul", &cases);
    let quant_speedup = geomean(&quant_speedups);
    let quant_speedup_vs_new = geomean(&quant_vs_new);

    for c in &cases {
        let (m, k, n) = c.shape;
        println!(
            "[kernel] {} site={} shape={m}x{k}x{n} old_ns={:.0} new_ns={:.0} speedup={:.3} old_gflops={:.2} new_gflops={:.2}{}",
            c.kernel,
            c.site,
            c.old_ns,
            c.new_ns,
            c.old_ns / c.new_ns,
            gflops(m, k, n, c.old_ns),
            gflops(m, k, n, c.new_ns),
            c.extra
                .iter()
                .map(|(k2, v)| format!(" {k2}={v:.3}"))
                .collect::<String>(),
        );
    }
    println!(
        "[kernel-summary] matmul_speedup={matmul_speedup:.3} matmul_t_speedup={matmul_t_speedup:.3} \
         t_matmul_speedup={t_matmul_speedup:.3} quant_speedup={quant_speedup:.3} \
         quant_speedup_vs_new={quant_speedup_vs_new:.3}"
    );

    // JSON mirror of the stdout report.
    let mut arr = Vec::new();
    for c in &cases {
        let (m, k, n) = c.shape;
        let mut o = serde_json::Map::new();
        o.insert("kernel".into(), c.kernel.into());
        o.insert("site".into(), c.site.into());
        o.insert(
            "shape".into(),
            serde_json::Value::Array(vec![m.into(), k.into(), n.into()]),
        );
        o.insert("old_ns".into(), c.old_ns.into());
        o.insert("new_ns".into(), c.new_ns.into());
        o.insert("speedup".into(), (c.old_ns / c.new_ns).into());
        o.insert("old_gflops".into(), gflops(m, k, n, c.old_ns).into());
        o.insert("new_gflops".into(), gflops(m, k, n, c.new_ns).into());
        for (k2, v) in &c.extra {
            o.insert((*k2).into(), (*v).into());
        }
        arr.push(serde_json::Value::Object(o));
    }
    let mut summary = serde_json::Map::new();
    summary.insert("matmul_speedup".into(), matmul_speedup.into());
    summary.insert("matmul_t_speedup".into(), matmul_t_speedup.into());
    summary.insert("t_matmul_speedup".into(), t_matmul_speedup.into());
    summary.insert("quant_speedup".into(), quant_speedup.into());
    summary.insert("quant_speedup_vs_new".into(), quant_speedup_vs_new.into());
    let mut root = serde_json::Map::new();
    root.insert("schema".into(), "trail-bench-kernels/v1".into());
    root.insert(
        "threads".into(),
        (trail_linalg::pool::num_threads() as u64).into(),
    );
    root.insert("quick".into(), quick.into());
    root.insert("cases".into(), serde_json::Value::Array(arr));
    root.insert("summary".into(), serde_json::Value::Object(summary));
    let json = serde_json::to_string_pretty(&serde_json::Value::Object(root)).expect("serialises");
    match std::fs::write(&out_path, json + "\n") {
        Ok(()) => println!("[bench] kernel timings written to {out_path}"),
        Err(e) => eprintln!("[bench] could not write {out_path}: {e}"),
    }

    if check {
        let mut ok = true;
        if matmul_speedup < 1.5 {
            eprintln!("[gate] FAIL matmul geomean speedup {matmul_speedup:.3} < 1.5");
            ok = false;
        }
        if quant_speedup < 2.0 {
            eprintln!("[gate] FAIL quant geomean speedup {quant_speedup:.3} < 2.0 (vs old f32)");
            ok = false;
        }
        if ok {
            println!("[gate] kernel speedups OK (matmul {matmul_speedup:.2}x, quant {quant_speedup:.2}x)");
        } else {
            std::process::exit(1);
        }
    }
}
