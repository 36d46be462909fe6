#!/usr/bin/env bash
# Tier-1 verification gate: everything a PR must keep green.
# Run from the repository root.
#
#   scripts/verify.sh            tier-1 gate
#   scripts/verify.sh --chaos    tier-1 gate + corrupted-checkpoint smokes
#   scripts/verify.sh --perf     tier-1 gate + benches
#
# Every invariant has exactly one checker, and every test runs once.
#
# Tier 1 builds the workspace, runs every test once (the seeded chaos
# drills of tests/chaos_test.rs, the kill-at-any-byte WAL drills of
# tests/wal_recovery_test.rs, the live re-freeze + hot-swap drill of
# tests/hot_swap_test.rs, the stream == batch suite and the
# zero-allocation / study-oracle tests included), then runs the
# `#[ignore]`d tests only, and the quickstart and explain_attribution
# examples.
#
# The chaos tier adds what no test covers: `repro --resume` must
# reject two corrupted checkpoints with a typed error, never a panic —
# garbage behind the TSC1 magic, and a real checkpoint with one
# payload byte flipped, which only the checksum can catch. And the
# Fig. 7/8 tables `repro fig8` prints must equal those of
# `repro fig8 --resume` into a fresh directory: one RNG policy.
#
# The perf tier runs the benches. Each bench owns its verdict and
# exits non-zero when one of its invariants breaks:
#   kernels --check       blocked f32 matmul >= 1.5x and i8 >= 2x
#                         geomean speedup over the reference kernels
#   repro serve-bench     >= 2 concurrency levels, rankings identical
#                         across them, request counters reconcile
#   repro stream-bench    stream == micro-batch bits, ledger
#                         reconciles, ticks fired, amortized cost
#                         >= 10x below a full rebuild, WAL scans back
#                         equal and a torn tail truncates cleanly
#   repro scale-bench     sharded builds bitwise == sequential, compact
#                         CSR agrees with the wide layout and is <= 0.6x
#                         its size, 8-thread speedup >= 2x on >= 8 cores
# The only comparisons left here need the committed BENCH_*.json: a
# fresh top-level field against the committed one, with wide slack
# that catches order-of-magnitude regressions, not machine noise, and
# two fingerprints that must match the committed ones exactly: the
# stream bench's fine-tuned model (a change to the tick's model bits
# fails here) and the serve bench's responses (a change to any served
# ranking bit fails here). The committed fingerprints come from the
# in-repo rand stand-in (scripts/harness/stubs/rand, xoshiro256++): a
# build against upstream rand generates another world and must
# re-commit BENCH_stream.json and BENCH_serve.json.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

run_chaos=0
run_perf=0
for arg in "$@"; do
  case "$arg" in
    --chaos) run_chaos=1 ;;
    --perf) run_perf=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== tests (ignored tier: overhead budget + large-scale reconciliation) =="
cargo test -q --workspace -- --ignored

echo "== quickstart smoke =="
cargo run --release --example quickstart >/dev/null

echo "== explain_attribution smoke =="
cargo run --release --example explain_attribution >/dev/null

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --all -- --check

if [ "$run_chaos" -eq 1 ]; then
  echo "== chaos tier: corrupted-snapshot resume smokes =="
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "$smoke_dir"' EXIT
  fig8() { # $@ = extra flags
    cargo run --release -p trail-bench --bin repro -- fig8 --quick --scale 0.05 "$@" 2>&1
  }
  resume_fig8() { # $1 = checkpoint dir
    fig8 --resume "$1"
  }
  # The Fig. 7/8 tables of a fig8 run: from the Fig. 7 heading up to
  # the next bracketed status line.
  study_tables() {
    sed -n '/^Fig\. 7/,/^\[/{/^\[/!p}'
  }
  # Resuming from checkpoint dir $1 must fail with a typed error.
  expect_clean_rejection() { # $1 = checkpoint dir, $2 = case name
    local out status
    set +e
    out="$(resume_fig8 "$1")"
    status=$?
    set -e
    if [ "$status" -eq 0 ]; then
      echo "FAIL: repro --resume accepted a $2 checkpoint" >&2
      exit 1
    fi
    if printf '%s' "$out" | grep -q 'panicked'; then
      echo "FAIL: $2 checkpoint caused a panic instead of a typed error" >&2
      printf '%s\n' "$out" >&2
      exit 1
    fi
    echo "$2 checkpoint rejected cleanly (exit $status)"
  }
  # Garbage after the magic: the header check (version) refuses it.
  mkdir "$smoke_dir/garbage"
  printf 'TSC1 this is not a valid checkpoint payload' > "$smoke_dir/garbage/study.ckpt"
  expect_clean_rejection "$smoke_dir/garbage" "garbage"
  # A real checkpoint with one payload byte flipped: the header passes,
  # so the checksum over the payload must refuse it.
  mkdir "$smoke_dir/flipped"
  resumed="$(resume_fig8 "$smoke_dir/flipped" | study_tables)"
  plain="$(fig8 | study_tables)"
  if [ -z "$plain" ] || [ "$plain" != "$resumed" ]; then
    echo "FAIL: repro fig8 and repro fig8 --resume print different studies" >&2
    diff <(printf '%s\n' "$plain") <(printf '%s\n' "$resumed") >&2 || true
    exit 1
  fi
  echo "repro fig8 == repro fig8 --resume (Fig. 7/8 tables)"
  ckpt="$smoke_dir/flipped/study.ckpt"
  byte="$(od -An -tu1 -j100 -N1 "$ckpt" | tr -d ' ')"
  printf "$(printf '\\%03o' $((byte ^ 0x40)))" \
    | dd of="$ckpt" bs=1 seek=100 count=1 conv=notrunc 2>/dev/null
  expect_clean_rejection "$smoke_dir/flipped" "payload-flipped"
fi

if [ "$run_perf" -eq 1 ]; then
  cargo build --release -p trail-bench --bin repro --bin kernels
  bin_dir="$PWD/target/release"
  perf_dir="$(mktemp -d)"
  # May follow the chaos tier's trap; clean up both temp dirs.
  trap 'rm -rf "${smoke_dir:-}" "$perf_dir"' EXIT

  # A top-level numeric field of a pretty-printed BENCH_*.json.
  json_field() { # $1 = file, $2 = field
    sed -n "s/^  \"$2\": \([-0-9.eE+]*\),\{0,1\}\$/\1/p" "$1" | head -1
  }
  # A top-level string field of a pretty-printed BENCH_*.json.
  json_string() { # $1 = file, $2 = field
    sed -n "s/^  \"$2\": \"\([^\"]*\)\",\{0,1\}\$/\1/p" "$1" | head -1
  }
  # Field $3 of the fresh report $1 must equal the committed report
  # $2's, character for character. A missing field fails.
  same() { # $1 = fresh json, $2 = committed json, $3 = field
    local fresh base
    fresh="$(json_string "$1" "$3")"
    base="$(json_string "$2" "$3")"
    if [ -z "$fresh" ] || [ -z "$base" ]; then
      echo "FAIL: field $3 missing from $1 or $2" >&2
      exit 1
    fi
    if [ "$fresh" != "$base" ]; then
      echo "FAIL: $3 = $fresh differs from committed $base ($2)" >&2
      exit 1
    fi
    echo "same ok: $3 = $fresh"
  }
  # A non-negative decimal as an integer count of thousandths.
  milli() { # $1 = number
    local v
    v="$(printf '%.3f' "$1")"
    echo $((10#${v/./}))
  }
  # Hold one field of the fresh report $1 against the committed report
  # $2 of the same name: le = fresh <= factor x committed,
  # ge = fresh >= committed / factor. A missing field fails.
  slack() { # $1 = fresh json, $2 = committed json, $3 = field, $4 = le|ge, $5 = factor
    local fresh base f b k
    fresh="$(json_field "$1" "$3")"
    base="$(json_field "$2" "$3")"
    if [ -z "$fresh" ] || [ -z "$base" ]; then
      echo "FAIL: field $3 missing from $1 or $2" >&2
      exit 1
    fi
    f="$(milli "$fresh")"
    b="$(milli "$base")"
    k="$(milli "$5")"
    local ok=0 rel
    case "$4" in
      le) rel="<= $5 x"; if (( f * 1000 <= k * b )); then ok=1; fi ;;
      ge) rel=">= 1/$5 x"; if (( f * k >= b * 1000 )); then ok=1; fi ;;
    esac
    if [ "$ok" -ne 1 ]; then
      echo "FAIL: $3 = $fresh is not $rel committed $base ($2)" >&2
      exit 1
    fi
    echo "slack ok: $3 = $fresh $rel committed $base"
  }
  # Run one bench in the scratch dir; its own verdict is the exit status.
  bench() { # $1 = binary, $2.. = args
    local bin="$bin_dir/$1"
    shift
    (cd "$perf_dir" && "$bin" "$@")
  }

  echo "== perf tier: blocked/quantized kernel speedups (single thread) =="
  bench kernels --check --out "$perf_dir/BENCH_kernels.json"

  echo "== perf tier: serving determinism + latency/throughput floor =="
  bench repro serve-bench --quick
  slack "$perf_dir/BENCH_serve.json" BENCH_serve.json max_p99_us le 10
  slack "$perf_dir/BENCH_serve.json" BENCH_serve.json min_qps ge 10
  same "$perf_dir/BENCH_serve.json" BENCH_serve.json fingerprint

  echo "== perf tier: streaming amortized cost, stream==batch, WAL replay =="
  bench repro stream-bench --quick
  slack "$perf_dir/BENCH_stream.json" BENCH_stream.json amortized_us le 10
  same "$perf_dir/BENCH_stream.json" BENCH_stream.json model_fingerprint

  echo "== perf tier: sharded ingest determinism + compact storage =="
  bench repro scale-bench --quick
  slack "$perf_dir/BENCH_scale.json" BENCH_scale.json bytes_per_node_compact le 1.5
fi

echo "tier-1 gate: OK"
