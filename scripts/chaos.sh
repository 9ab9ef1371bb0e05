#!/usr/bin/env bash
# Kill-mid-run chaos gate for checkpoint/resume and the serve daemon.
# Usage: scripts/chaos.sh
#
# Three ways to die, one invariant: a run that is killed at any moment
# and then rerun with the same flags must produce results byte-identical
# to a run that was never interrupted. Plus the serving scenario: a
# server kill -9'd under live load and restarted on the same port must
# be invisible to a retrying client (zero failures, zero malformed
# responses), and a SIGTERM drain must exit 0 with conserving counters.
#
#   1. kill -9 at a random point after the first snapshot lands (the
#      signal can even hit mid-snapshot-write — the two-generation store
#      makes that recoverable too);
#   2. a deterministic torn snapshot write (OBLIVION_CKPT_CRASH tears the
#      slot file in half and aborts), so the fallback path is exercised
#      on every CI run, not only when the race above happens to hit it;
#   3. a single flipped byte in the newest snapshot, which must be
#      rejected by its CRC and recovered via the previous generation.
#
# "Byte-identical" means: stdout matches exactly, and the metrics files
# match after dropping wall-clock spans, the scheduling-dependent
# `runtime_` family (work-steal tallies, phase-latency histograms),
# and the ckpt_* resume-provenance fields (which honestly record that a
# resume happened and so exist only in the resumed file).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --offline --quiet --bin oblivion
bin=target/debug/oblivion

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

base=(online --mesh 16x16 --router busch2d --rate 0.1 --steps 800 --seed 42
  --fault-links 0.05 --fault-mode transient --recovery resample --threads 2)

deterministic() { # <in.json> <out>
  grep -v '"type":"span' "$1" | grep -v '"type":"runtime_' \
    | sed -E 's/,"ckpt_[a-z_]+":("[^"]*"|[0-9]+)//g' > "$2"
}

echo "== chaos: uninterrupted reference run =="
"${bin}" "${base[@]}" --metrics-out "$tmp/ref.json" > "$tmp/ref.out"
deterministic "$tmp/ref.json" "$tmp/ref.det"

# Reruns the interrupted run in $tmp/<tag>/ckpt to completion and diffs
# stdout + deterministic metrics against the reference.
check_resume() { # <tag>
  local tag="$1"
  "${bin}" "${base[@]}" --checkpoint-dir "$tmp/$tag/ckpt" --checkpoint-every 25 \
    --metrics-out "$tmp/$tag/res.json" > "$tmp/$tag/res.out" 2> "$tmp/$tag/res.err"
  if ! grep -q "resuming from checkpoint generation" "$tmp/$tag/res.err"; then
    echo "chaos/$tag: rerun did not resume from a snapshot" >&2
    cat "$tmp/$tag/res.err" >&2
    return 1
  fi
  if ! cmp -s "$tmp/ref.out" "$tmp/$tag/res.out"; then
    echo "chaos/$tag: stdout differs from the uninterrupted run" >&2
    diff "$tmp/ref.out" "$tmp/$tag/res.out" | head >&2 || true
    return 1
  fi
  deterministic "$tmp/$tag/res.json" "$tmp/$tag/res.det"
  if ! cmp -s "$tmp/ref.det" "$tmp/$tag/res.det"; then
    echo "chaos/$tag: metrics differ from the uninterrupted run" >&2
    diff "$tmp/ref.det" "$tmp/$tag/res.det" | head >&2 || true
    return 1
  fi
  echo "chaos/$tag: resumed run is byte-identical to the reference"
}

echo "== chaos: kill -9 at a random point mid-run =="
mkdir -p "$tmp/kill9"
"${bin}" "${base[@]}" --checkpoint-dir "$tmp/kill9/ckpt" --checkpoint-every 25 \
  > /dev/null 2>&1 &
pid=$!
for _ in $(seq 1 600); do
  if [[ -e "$tmp/kill9/ckpt/snap-a.ckpt" || -e "$tmp/kill9/ckpt/snap-b.ckpt" ]]; then
    break
  fi
  if ! kill -0 "$pid" 2> /dev/null; then
    break
  fi
  sleep 0.05
done
kill -9 "$pid" 2> /dev/null || {
  echo "chaos/kill9: run finished before it could be killed; raise --steps" >&2
  exit 1
}
wait "$pid" 2> /dev/null || true
if [[ ! -e "$tmp/kill9/ckpt/snap-a.ckpt" && ! -e "$tmp/kill9/ckpt/snap-b.ckpt" ]]; then
  echo "chaos/kill9: no snapshot on disk after the kill" >&2
  exit 1
fi
check_resume kill9

echo "== chaos: torn snapshot write (crash mid-write) =="
mkdir -p "$tmp/midwrite"
if OBLIVION_CKPT_CRASH="mid-write:3" "${bin}" "${base[@]}" \
  --checkpoint-dir "$tmp/midwrite/ckpt" --checkpoint-every 25 > /dev/null 2>&1; then
  echo "chaos/midwrite: crash directive did not kill the run" >&2
  exit 1
fi
check_resume midwrite
if ! grep -q "rejected" "$tmp/midwrite/res.err"; then
  echo "chaos/midwrite: torn slot was not rejected on resume" >&2
  cat "$tmp/midwrite/res.err" >&2
  exit 1
fi

echo "== chaos: flipped byte in the newest snapshot =="
mkdir -p "$tmp/corrupt"
if "${bin}" "${base[@]}" --checkpoint-dir "$tmp/corrupt/ckpt" \
  --checkpoint-every 25 --ckpt-stop-at 120 > /dev/null 2>&1; then
  echo "chaos/corrupt: --ckpt-stop-at did not interrupt the run" >&2
  exit 1
fi
# Generations 1..4 were saved (t = 25..100); the newest, 4, sits in
# snap-a by generation parity. Flip one byte in its middle.
slot="$tmp/corrupt/ckpt/snap-a.ckpt"
size=$(stat -c %s "$slot")
off=$((size / 2))
byte=$(od -An -tu1 -j "$off" -N1 "$slot" | tr -d ' ')
flipped=$(((byte + 1) % 256))
# shellcheck disable=SC2059 — building a single escaped octal byte
printf "$(printf '\\%03o' "$flipped")" \
  | dd of="$slot" bs=1 seek="$off" conv=notrunc status=none
check_resume corrupt
if ! grep -q "rejected" "$tmp/corrupt/res.err"; then
  echo "chaos/corrupt: corrupted slot was not rejected on resume" >&2
  cat "$tmp/corrupt/res.err" >&2
  exit 1
fi
if ! grep -q "generation 3" "$tmp/corrupt/res.err"; then
  echo "chaos/corrupt: resume did not fall back to generation 3" >&2
  cat "$tmp/corrupt/res.err" >&2
  exit 1
fi

echo "== chaos: kill -9 the serve daemon mid-load, restart, retries converge =="
# The serving invariant: a server that is kill -9'd under live load and
# restarted on the same port loses nothing the client can observe — the
# loadgen's retries (transport errors are retryable) converge with every
# request answered and ZERO malformed responses. Then a SIGTERM drain of
# the restarted server must exit 0 with a conserving final account.
serve_dir="$tmp/serve"
mkdir -p "$serve_dir"
serve_port=""
serve_pid=""
start_serve() { # <extra flags...>
  # Fresh stderr per attempt: the "listening" wait below must see THIS
  # process's announcement, not a stale one from before a kill.
  : > "$serve_dir/serve.err"
  "${bin}" serve --mesh 16x16 --router busch2d --port "$serve_port" \
    --threads 2 --queue 32 --deadline-ms 500 --drain-ms 2000 "$@" \
    >> "$serve_dir/serve.out" 2>> "$serve_dir/serve.err" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    if grep -q "serve: listening" "$serve_dir/serve.err" 2> /dev/null; then
      return 0
    fi
    if ! kill -0 "$serve_pid" 2> /dev/null; then
      return 1
    fi
    sleep 0.05
  done
  return 1
}
# Ports can collide with other suites on shared CI hosts: retry the whole
# bind with a fresh random port. (SO_REUSEADDR makes the *restart* on the
# same port safe; only the first pick can lose a race.)
for _ in $(seq 1 10); do
  serve_port=$((21000 + RANDOM % 30000))
  if start_serve --no-health; then
    break
  fi
  serve_pid=""
done
if [[ -z "$serve_pid" ]]; then
  echo "chaos/serve: could not bind a port after 10 attempts" >&2
  cat "$serve_dir/serve.err" >&2
  exit 1
fi
"${bin}" loadgen --mesh 16x16 --port "$serve_port" --requests 400 \
  --concurrency 8 --retries 40 --backoff-ms 5 --backoff-cap-ms 200 \
  --timeout-ms 2000 --seed 77 > "$serve_dir/loadgen.out" 2> "$serve_dir/loadgen.err" &
loadgen_pid=$!
sleep 0.4
kill -9 "$serve_pid" 2> /dev/null || {
  echo "chaos/serve: server died before the kill (see serve.err)" >&2
  cat "$serve_dir/serve.err" >&2
  exit 1
}
wait "$serve_pid" 2> /dev/null || true
# Restart on the SAME port while the loadgen is mid-retry.
if ! start_serve --no-health --metrics-out "$serve_dir/serve_metrics.json"; then
  echo "chaos/serve: restart on port $serve_port failed" >&2
  cat "$serve_dir/serve.err" >&2
  exit 1
fi
if ! wait "$loadgen_pid"; then
  echo "chaos/serve: loadgen failed across the kill/restart" >&2
  cat "$serve_dir/loadgen.out" "$serve_dir/loadgen.err" >&2
  exit 1
fi
if ! grep -q " failed=0 malformed=0 " "$serve_dir/loadgen.out"; then
  echo "chaos/serve: retries did not converge cleanly" >&2
  cat "$serve_dir/loadgen.out" >&2
  exit 1
fi
# Graceful drain of the restarted server: exit 0, conserving account,
# and the obs run report carries the serve_* counters.
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
  echo "chaos/serve: SIGTERM drain did not exit 0" >&2
  cat "$serve_dir/serve.out" "$serve_dir/serve.err" >&2
  exit 1
fi
if ! grep -q "counters conserve: yes" "$serve_dir/serve.out"; then
  echo "chaos/serve: final account does not conserve" >&2
  cat "$serve_dir/serve.out" >&2
  exit 1
fi
if ! grep -q "serve_accepted" "$serve_dir/serve_metrics.json"; then
  echo "chaos/serve: run report is missing serve_* counters" >&2
  cat "$serve_dir/serve_metrics.json" >&2
  exit 1
fi
echo "chaos/serve: kill -9 + restart converged with zero malformed responses"

echo "== chaos: hot-retire a tenant mid-load, kill -9, restart, ADMIN ADD it back =="
# The multi-tenant invariant: RETIRE answers a tenant's lines with
# MESH_RETIRED and a restart that forgot the tenant answers UNKNOWN_MESH
# — both retryable, because an operator may ADD the mesh back at any
# moment. So a two-tenant load that survives retire → kill -9 → restart
# (tenant b missing) → hot ADMIN ADD must still converge with every
# request answered: failed=0, malformed=0, no restart of the client.
mt_dir="$tmp/serve_mt"
mkdir -p "$mt_dir"
mt_port=""
mt_health=""
mt_pid=""
start_mt() { # <mesh flags...>
  : > "$mt_dir/serve.err"
  "${bin}" serve "$@" --router busch2d --port "$mt_port" \
    --health-port "$mt_health" --threads 2 --queue 64 \
    --deadline-ms 500 --drain-ms 2000 \
    >> "$mt_dir/serve.out" 2>> "$mt_dir/serve.err" &
  mt_pid=$!
  for _ in $(seq 1 100); do
    if grep -q "serve: listening" "$mt_dir/serve.err" 2> /dev/null; then
      return 0
    fi
    if ! kill -0 "$mt_pid" 2> /dev/null; then
      return 1
    fi
    sleep 0.05
  done
  return 1
}
# One ADMIN line over the health port (admission-free, answers even at
# full overload), first response line to stdout.
admin() { # <line>
  exec 3<> "/dev/tcp/127.0.0.1/$mt_health"
  printf '%s\n' "$1" >&3
  IFS= read -r -t 5 reply <&3
  exec 3>&- 3<&-
  printf '%s\n' "$reply"
}
for _ in $(seq 1 10); do
  mt_port=$((21000 + RANDOM % 30000))
  mt_health=$((mt_port + 1))
  if start_mt --mesh 16x16:a --mesh 16x16:b; then
    break
  fi
  mt_pid=""
done
if [[ -z "$mt_pid" ]]; then
  echo "chaos/serve_mt: could not bind a port after 10 attempts" >&2
  cat "$mt_dir/serve.err" >&2
  exit 1
fi
# Paced open-loop load split across both tenants, generous retries: the
# client must ride out every disruption below without intervention.
"${bin}" loadgen --mesh 16x16 --port "$mt_port" --tenant-mix a=0.5,b=0.5 \
  --requests 600 --rate 300 --concurrency 8 --retries 60 \
  --backoff-ms 5 --backoff-cap-ms 200 --timeout-ms 2000 --seed 78 \
  > "$mt_dir/loadgen.out" 2> "$mt_dir/loadgen.err" &
mt_loadgen_pid=$!
sleep 0.3
reply=$(admin "ADMIN RETIRE b")
if [[ "$reply" != "OK retired b" ]]; then
  echo "chaos/serve_mt: RETIRE under load answered: $reply" >&2
  exit 1
fi
sleep 0.2
kill -9 "$mt_pid" 2> /dev/null || {
  echo "chaos/serve_mt: server died before the kill (see serve.err)" >&2
  cat "$mt_dir/serve.err" >&2
  exit 1
}
wait "$mt_pid" 2> /dev/null || true
# Restart on the SAME ports knowing only tenant a: b's lines now bounce
# with UNKNOWN_MESH until the operator adds the mesh back — live.
if ! start_mt --mesh 16x16:a --metrics-out "$mt_dir/serve_metrics.json"; then
  echo "chaos/serve_mt: restart on port $mt_port failed" >&2
  cat "$mt_dir/serve.err" >&2
  exit 1
fi
reply=$(admin "ADMIN ADD b 16x16 busch2d")
if [[ "$reply" != OK\ added\ b* ]]; then
  echo "chaos/serve_mt: hot ADD answered: $reply" >&2
  exit 1
fi
if ! wait "$mt_loadgen_pid"; then
  echo "chaos/serve_mt: loadgen failed across retire/kill/restart/add" >&2
  cat "$mt_dir/loadgen.out" "$mt_dir/loadgen.err" >&2
  exit 1
fi
if ! grep -q " failed=0 malformed=0 " "$mt_dir/loadgen.out"; then
  echo "chaos/serve_mt: retries did not converge cleanly" >&2
  cat "$mt_dir/loadgen.out" >&2
  exit 1
fi
# The disruption must actually have been observed on the wire, or this
# scenario silently degrades into a plain happy-path run.
if grep -q "unknown_mesh=0 mesh_retired=0" "$mt_dir/loadgen.out"; then
  echo "chaos/serve_mt: client never saw MESH_RETIRED or UNKNOWN_MESH —" \
    "the retire/restart raced past the load; retune the sleeps" >&2
  cat "$mt_dir/loadgen.out" >&2
  exit 1
fi
kill -TERM "$mt_pid"
if ! wait "$mt_pid"; then
  echo "chaos/serve_mt: SIGTERM drain did not exit 0" >&2
  cat "$mt_dir/serve.out" "$mt_dir/serve.err" >&2
  exit 1
fi
if ! grep -q "counters conserve: yes" "$mt_dir/serve.out"; then
  echo "chaos/serve_mt: final account does not conserve" >&2
  cat "$mt_dir/serve.out" >&2
  exit 1
fi
echo "chaos/serve_mt: retire + kill -9 + hot re-add converged with zero failures"

echo "chaos: all kill/corruption scenarios recovered byte-identically"
