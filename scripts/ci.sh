#!/usr/bin/env bash
# Workspace-wide CI gate: formatting, lints, docs, and the full test suite.
# Usage: scripts/ci.sh
# Used locally, by .github/workflows/ci.yml, and as the preflight of
# scripts/run_experiments.sh. Per-stage wall-clock times are echoed at
# the end so slow stages are visible in CI logs.
set -euo pipefail
cd "$(dirname "$0")/.."

stage_names=()
stage_secs=()
retried_stages=()
timed() {
  local name="$1"
  shift
  echo "== $name =="
  local start end
  start=$(date +%s)
  "$@"
  end=$(date +%s)
  stage_names+=("$name")
  stage_secs+=($((end - start)))
}

# Flaky-soak quarantine: the live-socket stages (serve soak, metrics
# gate, chaos gate) depend on wall-clock timing and loaded-runner
# scheduling, so a single structured retry is allowed. The retry is
# logged and counted in the stage summary — a stage that needs its
# retry is visible, not silent — and two consecutive failures still
# fail CI. Output is captured to ci_logs/<slug>.log for artifact upload.
timed_retry() {
  local name="$1"
  shift
  local slug log
  slug=$(echo "$name" | tr -cs 'a-zA-Z0-9' '-' | sed 's/^-//;s/-$//')
  mkdir -p ci_logs
  log="ci_logs/$slug.log"
  echo "== $name =="
  local start end attempts=1
  start=$(date +%s)
  if ! "$@" 2>&1 | tee "$log"; then
    attempts=2
    retried_stages+=("$name")
    echo "RETRY: stage '$name' failed; retrying once (flaky-soak quarantine," \
      "log: $log). A second consecutive failure fails CI." >&2
    if ! "$@" 2>&1 | tee -a "$log"; then
      echo "FAIL: stage '$name' failed twice consecutively (log: $log)" >&2
      return 1
    fi
  fi
  end=$(date +%s)
  local tag=""
  if [[ $attempts == 2 ]]; then
    tag=" [retried]"
  fi
  stage_names+=("$name$tag")
  stage_secs+=($((end - start)))
}

timed "cargo fmt --check" \
  cargo fmt --all --check

timed "cargo clippy (workspace, -D warnings)" \
  cargo clippy --workspace --all-targets --offline -- -D warnings

timed "cargo doc (no deps, warnings denied)" \
  env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

timed "cargo test (workspace minus serve)" \
  cargo test --workspace --exclude oblivion-serve --offline -q

# The benchmark (benchmark/, a Cargo package outside the workspace with
# its own lock file) carries unit tests of its statistics, comparison
# and checks.
timed "cargo test (benchmark package)" \
  cargo test --release --offline --manifest-path benchmark/Cargo.toml

# The serve crate's suites (soak, pipelining, differential) drive real
# sockets against wall-clock deadlines, so they get the quarantine
# wrapper: one logged retry, two consecutive failures still fail.
timed_retry "serve soak + pipelining tests" \
  cargo test -p oblivion-serve --offline -q

# Fault-injected runs must be byte-identical at every thread count: run
# the same faulted online simulation at --threads 1 and 8, and compare
# every deterministic metrics line (wall-clock spans and the whole
# scheduling-dependent `runtime_` family excluded). The arguments name
# the faults, the recovery policy and the scheduling policy of the leg.
fault_differential() {
  local tmp
  tmp=$(mktemp -d)
  local base=(online --mesh 16x16 --router busch2d --rate 0.05 --steps 200
    --seed 99 "$@")
  for threads in 1 8; do
    cargo run --offline --quiet --bin oblivion -- "${base[@]}" \
      --threads "$threads" --metrics-out "$tmp/t$threads.json" > /dev/null
    grep -v '"type":"span' "$tmp/t$threads.json" \
      | grep -v '"type":"runtime_' > "$tmp/t$threads.det"
  done
  if ! cmp -s "$tmp/t1.det" "$tmp/t8.det"; then
    echo "fault differential ($*): metrics differ between --threads 1 and 8" >&2
    diff "$tmp/t1.det" "$tmp/t8.det" | head >&2 || true
    rm -rf "$tmp"
    return 1
  fi
  rm -rf "$tmp"
}

timed "fault differential (--threads 1 vs 8)" \
  fault_differential --fault-links 0.08 --fault-mode transient --recovery resample
# Per-hop drops under the drop-after-budget recovery, with furthest-to-go
# scheduling (contention keys that order by remaining hops).
timed "fault differential, drops + ftg (--threads 1 vs 8)" \
  fault_differential --drop-prob 0.1 --recovery drop-after-budget --policy ftg
# No faults, random-rank scheduling: contention keys that order by a
# per-packet random draw rather than by arrival or remaining hops.
timed "fault differential, no faults + random-rank (--threads 1 vs 8)" \
  fault_differential --policy random-rank

# Live telemetry: a daemon under load must answer METRICS with a
# parseable, conserving exposition on every scrape (`oblivion top
# --check` validates each frame), and the background stats flusher's
# JSONL stream must agree with the final report on serve_accepted —
# proving the final report was *appended* after the flushed lines, not
# clobbered over them.
metrics_gate() {
  local tmp port pid up lg
  tmp=$(mktemp -d)
  cargo build --offline --quiet --bin oblivion
  local bin=target/debug/oblivion
  pid=""
  # The daemon needs port AND port+1 (health); retry with fresh random
  # ports on bind races, same as the chaos gate.
  for _ in $(seq 1 10); do
    port=$((21000 + RANDOM % 30000))
    : > "$tmp/serve.err"
    "$bin" serve --mesh 16x16 --port "$port" --threads 2 --queue 32 \
      --stats-every 40 --metrics-out "$tmp/telemetry.jsonl" \
      > "$tmp/serve.out" 2> "$tmp/serve.err" &
    pid=$!
    up=0
    for _ in $(seq 1 100); do
      if grep -q "serve: listening" "$tmp/serve.err" 2> /dev/null; then
        up=1
        break
      fi
      if ! kill -0 "$pid" 2> /dev/null; then
        break
      fi
      sleep 0.05
    done
    if [[ $up == 1 ]]; then
      break
    fi
    wait "$pid" 2> /dev/null || true
    pid=""
  done
  if [[ -z "$pid" ]]; then
    echo "metrics gate: could not start the daemon after 10 attempts" >&2
    cat "$tmp/serve.err" >&2
    rm -rf "$tmp"
    return 1
  fi
  "$bin" loadgen --mesh 16x16 --port "$port" --requests 300 \
    --concurrency 16 --seed 7 > "$tmp/loadgen.out" 2>&1 &
  lg=$!
  if ! "$bin" top --port $((port + 1)) --interval-ms 40 --iterations 5 \
    --check > "$tmp/top.out" 2> "$tmp/top.err"; then
    echo "metrics gate: oblivion top --check failed against the live daemon" >&2
    cat "$tmp/top.out" "$tmp/top.err" >&2
    kill -9 "$pid" 2> /dev/null || true
    kill -9 "$lg" 2> /dev/null || true
    rm -rf "$tmp"
    return 1
  fi
  if ! wait "$lg"; then
    echo "metrics gate: loadgen failed" >&2
    cat "$tmp/loadgen.out" >&2
    kill -9 "$pid" 2> /dev/null || true
    rm -rf "$tmp"
    return 1
  fi
  kill -TERM "$pid"
  if ! wait "$pid"; then
    echo "metrics gate: SIGTERM drain did not exit 0" >&2
    cat "$tmp/serve.out" "$tmp/serve.err" >&2
    rm -rf "$tmp"
    return 1
  fi
  local flushed reported
  flushed=$(grep '"type":"serve_stats"' "$tmp/telemetry.jsonl" | tail -1 \
    | grep -o '"serve_accepted":[0-9]*' | grep -o '[0-9]*$' || true)
  reported=$(grep '"type":"report"' "$tmp/telemetry.jsonl" | tail -1 \
    | grep -o '"serve_accepted":[0-9]*' | grep -o '[0-9]*$' || true)
  if [[ -z "$flushed" || -z "$reported" || "$flushed" != "$reported" ]]; then
    echo "metrics gate: flusher stream (accepted=${flushed:-missing}) and" \
      "final report (accepted=${reported:-missing}) disagree" >&2
    cat "$tmp/telemetry.jsonl" >&2
    rm -rf "$tmp"
    return 1
  fi
  # The live binary times reply assembly: the final report carries a
  # reply_format phase histogram with samples in it.
  local formatted
  formatted=$(grep '"type":"report"' "$tmp/telemetry.jsonl" | tail -1 \
    | grep -o '"phase_reply_format_us":{"type":"histogram","name":"reply_format","count":[0-9]*' \
    | grep -o '[0-9]*$' || true)
  if [[ -z "$formatted" || "$formatted" == 0 ]]; then
    echo "metrics gate: the final report has no reply_format phase samples" \
      "(count=${formatted:-missing})" >&2
    grep '"type":"report"' "$tmp/telemetry.jsonl" | tail -1 >&2
    rm -rf "$tmp"
    return 1
  fi
  rm -rf "$tmp"
}

timed_retry "metrics gate (METRICS scrape + top --check + flusher/report diff)" \
  metrics_gate

# Id-walk geometries live: the server writes every reply from node ids,
# so a torus (wrap hops) and a rectangle (unequal strides) must each
# serve a pipelined loadgen with no failed and no malformed reply (the
# loadgen checks every hop's adjacency on the mesh it is given).
id_walk_serve_gate() {
  cargo build --offline --quiet --bin oblivion
  local bin=target/debug/oblivion
  local leg router spec torus tmp port pid up
  for leg in "busch-torus 16x16 --torus" "busch-padded 12x20"; do
    read -r router spec torus <<< "$leg"
    tmp=$(mktemp -d)
    pid=""
    for _ in $(seq 1 10); do
      port=$((21000 + RANDOM % 30000))
      : > "$tmp/serve.err"
      "$bin" serve --router "$router" --mesh "$spec" --port "$port" --no-health \
        --threads 2 > "$tmp/serve.out" 2> "$tmp/serve.err" &
      pid=$!
      up=0
      for _ in $(seq 1 100); do
        if grep -q "serve: listening" "$tmp/serve.err" 2> /dev/null; then
          up=1
          break
        fi
        if ! kill -0 "$pid" 2> /dev/null; then
          break
        fi
        sleep 0.05
      done
      if [[ $up == 1 ]]; then
        break
      fi
      wait "$pid" 2> /dev/null || true
      pid=""
    done
    if [[ -z "$pid" ]]; then
      echo "id-walk serve gate: could not start $router on $spec" >&2
      cat "$tmp/serve.err" >&2
      rm -rf "$tmp"
      return 1
    fi
    # shellcheck disable=SC2086 # $torus is one switch or nothing
    if ! "$bin" loadgen --mesh "$spec" $torus --port "$port" --requests 400 \
      --concurrency 2 --pipeline 32 --seed 7 > "$tmp/loadgen.out" 2>&1 \
      || ! grep -q "failed=0 malformed=0" "$tmp/loadgen.out"; then
      echo "id-walk serve gate: $router on $spec: loadgen failed or saw malformed replies" >&2
      cat "$tmp/loadgen.out" >&2
      kill -9 "$pid" 2> /dev/null || true
      rm -rf "$tmp"
      return 1
    fi
    kill -TERM "$pid"
    if ! wait "$pid"; then
      echo "id-walk serve gate: $router on $spec: SIGTERM drain did not exit 0" >&2
      cat "$tmp/serve.out" "$tmp/serve.err" >&2
      rm -rf "$tmp"
      return 1
    fi
    rm -rf "$tmp"
  done
}

timed_retry "id-walk serve gate (busch-torus 16x16, busch-padded 12x20 under loadgen)" \
  id_walk_serve_gate

# Straggler resilience: a daemon with deterministic chaos injection
# (heavy-tailed stalls, slow writes, connection resets, worker pauses)
# must survive a hedged open-loop load with zero failed requests, and
# its SIGTERM drain must still exit 0 — `serve` errors on exit if the
# final request ledger does not conserve, so a clean drain proves the
# chaos events (stalls settling as completions, resets as io errors,
# abandoned hedge losers) all landed in exactly one terminal bucket.
chaos_serve_gate() {
  local tmp port pid up
  tmp=$(mktemp -d)
  cargo build --offline --quiet --bin oblivion
  local bin=target/debug/oblivion
  pid=""
  for _ in $(seq 1 10); do
    port=$((21000 + RANDOM % 30000))
    : > "$tmp/serve.err"
    "$bin" serve --mesh 16x16 --port "$port" --threads 3 --queue 32 \
      --chaos-seed 7 --chaos-stall-prob 0.2 --chaos-stall-ms 8 \
      --chaos-write-prob 0.1 --chaos-write-ms 2 \
      --chaos-reset-prob 0.15 --chaos-pause-prob 0.05 --chaos-pause-ms 2 \
      > "$tmp/serve.out" 2> "$tmp/serve.err" &
    pid=$!
    up=0
    for _ in $(seq 1 100); do
      if grep -q "serve: listening" "$tmp/serve.err" 2> /dev/null; then
        up=1
        break
      fi
      if ! kill -0 "$pid" 2> /dev/null; then
        break
      fi
      sleep 0.05
    done
    if [[ $up == 1 ]]; then
      break
    fi
    wait "$pid" 2> /dev/null || true
    pid=""
  done
  if [[ -z "$pid" ]]; then
    echo "chaos-serve gate: could not start the daemon after 10 attempts" >&2
    cat "$tmp/serve.err" >&2
    rm -rf "$tmp"
    return 1
  fi
  # Open-loop hedged load: loadgen exits nonzero if any request fails or
  # any reply is malformed, so hedging must absorb every injected stall
  # and reset within the retry budget.
  if ! "$bin" loadgen --mesh 16x16 --port "$port" --requests 200 \
    --concurrency 8 --rate 250 --hedge-after 12 \
    --retries 8 --timeout-ms 4000 --seed 7 > "$tmp/loadgen.out" 2>&1; then
    echo "chaos-serve gate: hedged loadgen failed under injected chaos" >&2
    cat "$tmp/loadgen.out" >&2
    kill -9 "$pid" 2> /dev/null || true
    rm -rf "$tmp"
    return 1
  fi
  if ! grep -q "failed=0" "$tmp/loadgen.out"; then
    echo "chaos-serve gate: loadgen report does not show failed=0" >&2
    cat "$tmp/loadgen.out" >&2
    kill -9 "$pid" 2> /dev/null || true
    rm -rf "$tmp"
    return 1
  fi
  kill -TERM "$pid"
  if ! wait "$pid"; then
    echo "chaos-serve gate: SIGTERM drain did not exit 0 (ledger violation?)" >&2
    cat "$tmp/serve.out" "$tmp/serve.err" >&2
    rm -rf "$tmp"
    return 1
  fi
  rm -rf "$tmp"
}

timed_retry "chaos-serve gate (hedged open-loop load vs injected stalls/resets)" \
  chaos_serve_gate

# Crash consistency: kill -9 mid-run, torn snapshot writes and flipped
# bytes must all recover to byte-identical results — and the serve
# daemon must survive kill -9 + restart under live load with zero
# malformed responses (scripts/chaos.sh).
timed_retry "chaos gate (kill -9 / torn write / corruption / serve restart)" \
  scripts/chaos.sh

# The perf-regression gate itself must be able to catch a regression
# before CI trusts it: synthesize a 25% throughput drop and a 40% p99
# inflation from the committed baselines and require both to fail (and
# a 10% wobble to pass). The real gate runs in the bench CI job, which
# has fresh release-mode results to compare.
timed "bench gate self-test (synthetic 25% regression must fail)" \
  scripts/bench_gate.sh --self-test

# The error-path crates must not grow panicking shortcuts: any new
# .unwrap()/.expect( in non-test code needs an explicit
# `// ci-allow-unwrap: why` justification on the same line.
unwrap_gate() {
  local bad=0 file
  while IFS= read -r file; do
    awk '
      /#\[cfg\(test\)\]/ { intest = 1 }
      intest { next }
      /\.unwrap\(\)|\.expect\(/ && !/ci-allow-unwrap/ {
        printf "%s:%d: %s\n", FILENAME, FNR, $0
        found = 1
      }
      END { exit found ? 1 : 0 }
    ' "$file" || bad=1
  done < <(find crates/workloads/src crates/faults/src crates/serve/src \
    crates/wire/src -name '*.rs' | sort)
  if [[ $bad -ne 0 ]]; then
    echo "unannotated unwrap()/expect( in error-path crates;" \
      "add \`// ci-allow-unwrap: <why>\` only if provably unreachable" >&2
    return 1
  fi
}

timed "unwrap/expect gate (workloads, faults, serve)" \
  unwrap_gate

# The request server, the load generator and `oblivion top` wait on
# readiness (poll + wake pipes, the shutdown latch), never on a timer:
# any thread::sleep( in non-test code of server.rs, loadgen.rs or top.rs
# needs a `// ci-allow-sleep: why` note on the same line. Only the
# sleeps that *are* the behavior carry one: the chaos worker pause, the
# simulated service time, and the chaos slow-write stall in the server;
# the retry backoff and the open-loop pacing wait in the load generator.
sleep_gate() {
  awk '
    FNR == 1 { intest = 0 }
    /#\[cfg\(test\)\]/ { intest = 1 }
    intest { next }
    /thread::sleep\(/ && !/ci-allow-sleep: [^ ]/ {
      printf "%s:%d: %s\n", FILENAME, FNR, $0
      found = 1
    }
    END { exit found ? 1 : 0 }
  ' crates/serve/src/server.rs crates/serve/src/loadgen.rs crates/serve/src/top.rs || {
    echo "unannotated thread::sleep( in crates/serve/src/{server,loadgen,top}.rs:" \
      "park on readiness instead, or add \`// ci-allow-sleep: <why>\`" >&2
    return 1
  }
}

timed "sleep gate (serve request path, loadgen, top)" \
  sleep_gate

echo "ci: all checks passed"
if [[ ${#retried_stages[@]} -gt 0 ]]; then
  echo "flaky-soak quarantine: ${#retried_stages[@]} stage(s) needed their retry:"
  for s in "${retried_stages[@]}"; do
    echo "  $s"
  done
fi
echo "stage timings:"
for i in "${!stage_names[@]}"; do
  printf '  %-45s %3ss\n' "${stage_names[$i]}" "${stage_secs[$i]}"
done
