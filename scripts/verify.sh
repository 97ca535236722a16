#!/usr/bin/env bash
# Tier-1 verification, fully offline.
#
#   scripts/verify.sh
#
# Steps:
#   1. zero-dependency audit: no Cargo.toml may pull anything from a
#      registry — every dependency must be a workspace path crate;
#   2. `cargo build --release` and `cargo test -q` with --offline
#      (the workspace must build with no network and no vendored deps),
#      plus `cargo clippy --workspace --all-targets -- -D warnings`
#      (lint-clean, tests/benches/examples included) and
#      `cargo doc --workspace --no-deps` with rustdoc warnings denied
#      (no broken or private intra-doc links), plus the `benchmark/`
#      crate's own build and tests (a separate workspace: it compiles
#      against the public items it uses, so breaking one fails here, not
#      first in a benchmark run);
#   3. build all five examples;
#   4. CLI smoke test on the shipped sample system, under the default
#      FIFO scheduler and under fixed priority (the leftover-service
#      chain);
#   5. adversarial stress suite at elevated case counts (no-panic,
#      budget-respecting, structural ≤ degraded ≤ RTC sandwich), plus
#      the budgeted CLI run on systems/adversarial.srtw (exit 0,
#      degraded, and done within 5 s under its 1 s budget), plus the path
#      explorer's two differential properties at 1024 cases each:
#      scaled-integer vs exact-rational instantiation (identical arenas
#      and rbfs), and a search grown through increasing horizons vs fresh
#      searches to each of them, plus the pseudo-inverse's reach table
#      vs the linear-scan reference and a grid search at 1024 cases, plus
#      the general convolution's differential suite at 1024 cases (the
#      kernel at i64 rationals vs its exact-rational re-run: identical
#      curves and tick sequences), plus Howard's maximum-cycle-ratio
#      iteration vs the parametric Bellman–Ford oracle at 1024 cases;
#   6. supervised batch smoke test: the shipped systems under a 2 s
#      watchdog must come back degraded-not-failed (exit 0), and a
#      fault-injected batch must exhaust the ladder and exit 4;
#   7. performance-regression gate: the newest committed BENCH_*.json
#      must not regress the `convolution`, `rbf`, `server_throughput`,
#      `fused_pipeline`, `server_connections`, `journal_overhead`,
#      `cache_saturation`, and `warm_restart` suite medians by more than
#      1.5x against the best older committed document (a suite with no
#      baseline yet is skipped with a notice);
#   8. service smoke test: `srtw serve` on an ephemeral port must answer
#      /healthz, produce an exact and a deadline-degraded /analyze,
#      shed with 503 when flooded past the queue bound, and drain
#      gracefully (exit 0, no leaked process);
#   9. replicated soak: `srtw serve --replicas 2` with an injected
#      `abort@N` takes 10k flood connections; the supervisor must
#      restart the aborted replica (exactly once), the surviving
#      replica's RSS must stay flat (±10%) and leak no fds between
#      flood waves, /analyze must stay byte-identical to the CLI, and
#      SIGTERM must drain the whole tree with exit 0 and no orphans;
#  10. durable batch: a journaled 100-job batch SIGKILL'd mid-run must
#      resume from its journal (>=1 job replayed, not recomputed) with a
#      final report byte-identical to an uninterrupted run, and a
#      deterministic torn-write fault must recover the same way; then
#      a manifest of the shipped systems and the same 100 jobs POSTed
#      to `srtw serve --journal` must stream one job line per entry with
#      `"replayed":0`, a re-POST must replay all of them verbatim
#      (`"replayed":102`), and the server must drain with exit 0;
#  11. cache + delta smoke test: the same system POSTed twice, then once
#      more with `X-Deadline-Ms`, must replay the first body verbatim
#      both times (/stats-confirmed: two hits, one miss),
#      a POST /analyze/delta edit must match a cold CLI run of the
#      edited system byte-for-byte (modulo runtime_secs), and the
#      server must still drain with exit 0;
#  12. persistent cache smoke + crash sweep: a result cached under
#      --persist must replay *verbatim* from a brand-new process as a
#      hit with zero cold misses, and for every injected persistence
#      fault (pers-torn@2, pers-corrupt@2, pers-enospc@2) the faulted
#      server must keep answering correct bytes with a typed
#      `srtw-persist:` warning, and a restart must land in exactly two
#      states — the durable record warm-and-byte-identical, the faulted
#      one cold-recomputed-but-correct.
#
# Benchmarks run separately (they are slow by design):
#   cargo run -p srtw-bench --release --bin experiments

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== 1/12 dependency audit (path-only policy) =="
# Inside [dependencies*] / [workspace.dependencies] sections, every
# dependency line must carry `path =` or `workspace = true`; a version
# requirement ("1.0", { version = ... }) means a registry dependency.
violations=$(awk '
    /^\[/ {
        in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]?/)
        next
    }
    in_deps && /=/ && !/^[[:space:]]*#/ {
        if ($0 !~ /path[[:space:]]*=/ && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/)
            printf "%s: %s\n", FILENAME, $0
    }
' Cargo.toml crates/*/Cargo.toml)
if [ -n "$violations" ]; then
    echo "error: non-path dependencies found (zero-dependency policy):" >&2
    echo "$violations" >&2
    exit 1
fi
echo "ok: all dependencies are workspace path crates"

echo "== 2/12 offline build + tests =="
cargo build --release --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
SRTW_BENCH_FAST=1 cargo test -q --offline --workspace
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== 3/12 examples build =="
cargo build --release --offline --examples

echo "== 4/12 CLI smoke test =="
out=$(cargo run --release --offline -q --bin srtw -- analyze systems/decoder.srtw)
echo "$out" | grep -q "RTC baseline" || {
    echo "error: analyze output missing the RTC baseline line" >&2
    exit 1
}
json=$(cargo run --release --offline -q --bin srtw -- analyze systems/decoder.srtw --json)
case "$json" in
    "{"*"}") : ;;
    *) echo "error: --json output is not a JSON object" >&2; exit 1 ;;
esac
fp_json=$(cargo run --release --offline -q --bin srtw -- \
    analyze systems/decoder.srtw --scheduler fp --json)
case "$fp_json" in
    *'"scheduler":"fp"'*) : ;;
    *) echo "error: --scheduler fp --json output lacks \"scheduler\":\"fp\"" >&2; exit 1 ;;
esac

echo "== 5/12 adversarial stress suite =="
# Elevated case count for the seeded property suite; the release profile
# keeps the 150 ms wall budget per case meaningful.
SRTW_PROP_CASES=256 cargo test -q --release --offline --test stress
# The explorer runs in scaled integers or exact rationals; both must give
# the same arena, counters and rbf on every seeded rational task.
SRTW_PROP_CASES=1024 cargo test -q --release --offline -p srtw-workload --lib \
    paths::tests::scaled_and_exact_explorations_agree
# The per-node delay loop and the RTC breakpoints run at one request scale
# in i128 or, as the overflow fallback, in exact rationals: both must give
# the same per-vertex bounds and witnesses as a plain rational reference,
# on seeded 1–3-stream systems and rate-latency, TDMA, periodic-resource
# and rational-slope staircase servers.
SRTW_PROP_CASES=1024 cargo test -q --release --offline -p srtw-core --lib \
    scale::tests::scaled_loops_match_rationals_and_the_reference
# A search grown level by level must read exactly like fresh searches to
# each level: arenas, parents, counters and rbfs, under every path cap.
SRTW_PROP_CASES=1024 cargo test -q --release --offline -p srtw-workload --lib \
    paths::tests::explorer_grown_vs_fresh
# Every delay bound goes through β⁻¹: the reach-table lookup must equal the
# linear scan it replaced and a grid search, on seeded curves with jumps,
# flat pieces, affine and periodic (also zero-increment) tails.
SRTW_PROP_CASES=1024 cargo test -q --release --offline -p srtw-minplus --lib \
    dev::tests::pseudo_inverse_table_matches_scan_and_brute
# The general convolution runs at i64 rationals and re-runs in exact
# rationals when a value leaves i64: both must give the same curve, and
# the meter must see the same tick sequence either way.
SRTW_PROP_CASES=1024 cargo test -q --release --offline -p srtw-minplus --test differential
# The maximum cycle ratio is Howard's policy iteration: it must equal the
# parametric Bellman–Ford loop it replaced, on seeded rational tasks with
# off-ring vertices, and return a real cycle of that ratio.
SRTW_PROP_CASES=1024 cargo test -q --release --offline -p srtw-workload --lib \
    utilization::tests::howard_matches_the_bellman_ford_oracle
# The shipped adversarial system must degrade gracefully under a 1 s wall
# budget: exit 0, a degradation warning on stderr, "degraded":true in JSON,
# and no more than 5 s of wall time (post-budget work is bounded too).
cargo build --release --offline -q --bin srtw
adv_err=$(mktemp)
adv_start=$(date +%s%N)
adv_json=$(target/release/srtw \
    analyze systems/adversarial.srtw --json --budget-ms 1000 2>"$adv_err") || {
    echo "error: budgeted adversarial run failed (exit $?)" >&2
    cat "$adv_err" >&2
    exit 1
}
adv_ms=$(( ($(date +%s%N) - adv_start) / 1000000 ))
if [ "$adv_ms" -gt 5000 ]; then
    echo "error: budgeted adversarial run took ${adv_ms} ms (limit 5000 ms)" >&2
    exit 1
fi
case "$adv_json" in
    *'"degraded":true'*) : ;;
    *) echo 'error: adversarial run not flagged "degraded":true' >&2; exit 1 ;;
esac
grep -q "degraded" "$adv_err" || {
    echo "error: budgeted adversarial run missing the stderr warning" >&2
    exit 1
}
rm -f "$adv_err"

echo "== 6/12 supervised batch smoke test =="
# The shipped systems under a 2 s per-attempt watchdog: the adversarial
# job must wind down to a *degraded* (still sound) result, never a
# failure — batch exit 0, summary status "some_degraded".
batch_err=$(mktemp)
batch_json=$(cargo run --release --offline -q --bin srtw -- \
    batch systems/ --jobs 2 --timeout-ms 2000 --json 2>"$batch_err") || {
    echo "error: supervised batch run failed (exit $?)" >&2
    cat "$batch_err" >&2
    exit 1
}
case "$batch_json" in
    *'"some_degraded"'*) : ;;
    *) echo 'error: batch summary not "some_degraded"' >&2; exit 1 ;;
esac
case "$batch_json" in
    *'"failed":0'*) : ;;
    *) echo 'error: supervised batch reported failed jobs' >&2; exit 1 ;;
esac
grep -q "degraded" "$batch_err" || {
    echo "error: degraded batch missing the stderr warning" >&2
    exit 1
}
rm -f "$batch_err"
# Injected synthetic overflow at the first metered op must fail every
# rung of the ladder for every job: exit 4, summary status "some_failed".
set +e
fault_json=$(cargo run --release --offline -q --bin srtw -- \
    batch systems/ --fault overflow@1 --json 2>/dev/null)
fault_rc=$?
set -e
if [ "$fault_rc" -ne 4 ]; then
    echo "error: fault-injected batch exited $fault_rc, expected 4" >&2
    exit 1
fi
case "$fault_json" in
    *'"some_failed"'*) : ;;
    *) echo 'error: fault-injected batch summary not "some_failed"' >&2; exit 1 ;;
esac

echo "== 7/12 performance-regression gate =="
# Newest committed BENCH document vs every older one; the gate watches
# the algorithmic suites whose medians are stable across machines.
bench_docs=$(ls -1 BENCH_*.json 2>/dev/null | sort -t_ -k2 -n -r)
if [ "$(echo "$bench_docs" | wc -l)" -ge 2 ]; then
    # shellcheck disable=SC2086
    cargo run -p srtw-bench --release --offline -q --bin experiments -- \
        gate $bench_docs --factor 1.5 \
        --groups convolution,rbf,server_throughput,fused_pipeline,server_connections,journal_overhead,cache_saturation,warm_restart
else
    echo "skip: fewer than two BENCH_*.json documents committed"
fi

echo "== 8/12 service smoke test =="
# One request over /dev/tcp (no curl in the offline environment): prints
# the full response (head + body) on stdout.
http_req() { # port method target [body-file] [extra-header]
    local port=$1 method=$2 target=$3 body=${4:-} hdr=${5:-}
    exec 9<>"/dev/tcp/127.0.0.1/$port"
    {
        # Connection: close — the server keep-alives by default, and the
        # `cat` below must see EOF after one exchange.
        printf '%s %s HTTP/1.1\r\nHost: srtw\r\nConnection: close\r\n' "$method" "$target"
        [ -n "$hdr" ] && printf '%s\r\n' "$hdr"
        if [ -n "$body" ]; then
            printf 'Content-Length: %s\r\n\r\n' "$(wc -c <"$body")"
            cat "$body"
        else
            # The server requires Content-Length on bodied methods (411
            # otherwise), and 0 is harmless on GET.
            printf 'Content-Length: 0\r\n\r\n'
        fi
    } >&9
    cat <&9
    exec 9<&- 9>&-
}
serve_out=$(mktemp); serve_err=$(mktemp)
# One worker and a queue of one so the flood below actually overflows.
target/release/srtw serve --addr 127.0.0.1:0 --workers 1 --queue 1 \
    >"$serve_out" 2>"$serve_err" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$serve_out" && break
    sleep 0.1
done
port=$(sed -n 's/.*:\([0-9]*\)$/\1/p' "$serve_out")
if [ -z "$port" ]; then
    echo "error: srtw serve did not report a listening address" >&2
    kill "$serve_pid" 2>/dev/null; exit 1
fi
# 8a: health.
http_req "$port" GET /healthz | grep -q '"status":"ok"' || {
    echo "error: /healthz did not answer ok" >&2; exit 1
}
# 8b: an exact /analyze must be byte-identical to `analyze --json`
# (runtime_secs, the one measured field, normalized on both sides).
norm_runtime() { sed 's/"runtime_secs":[0-9.e+-]*/"runtime_secs":0/g'; }
srv_doc=$(http_req "$port" POST /analyze systems/decoder.srtw | tail -1 | norm_runtime)
cli_doc=$(target/release/srtw analyze systems/decoder.srtw --json 2>/dev/null | norm_runtime)
if [ "$srv_doc" != "$cli_doc" ]; then
    echo "error: POST /analyze diverged from srtw analyze --json" >&2
    exit 1
fi
# 8c: a deadline-bounded adversarial /analyze degrades soundly (200 with
# "degraded":true), instead of hanging or failing.
http_req "$port" POST /analyze systems/adversarial.srtw "X-Deadline-Ms: 1500" \
    | grep -q '"degraded":true' || {
    echo "error: deadline-bounded /analyze did not report degraded:true" >&2
    exit 1
}
# 8d: flood past the queue bound while the single worker is pinned on a
# slow request: the overflow must shed with 503, never hang or crash.
flood_dir=$(mktemp -d)
http_req "$port" POST /analyze systems/adversarial.srtw "X-Deadline-Ms: 3000" \
    >"$flood_dir/blocker" &
blocker_pid=$!
sleep 0.5
probe_pids=()
for i in $(seq 1 6); do
    http_req "$port" GET /healthz >"$flood_dir/probe$i" 2>/dev/null &
    probe_pids+=("$!")
done
# Wait on the flood jobs by pid — a bare `wait` would also wait on the
# server itself, which has no reason to exit yet.
wait "$blocker_pid" "${probe_pids[@]}"
grep -lq "503 Service Unavailable" "$flood_dir"/probe* || {
    echo "error: flooding past the queue bound produced no 503" >&2
    exit 1
}
grep -q '"degraded":true' "$flood_dir/blocker" || {
    echo "error: the pinned request did not come back degraded" >&2
    exit 1
}
# 8e: graceful drain with in-flight work — POST /shutdown must stop the
# process with exit 0 and leave no leaked process behind.
http_req "$port" POST /analyze systems/decoder.srtw >/dev/null &
sleep 0.2
http_req "$port" POST /shutdown | grep -q '"status":"draining"' || {
    echo "error: POST /shutdown did not answer draining" >&2
    exit 1
}
set +e
wait "$serve_pid"
serve_rc=$?
set -e
if [ "$serve_rc" -ne 0 ]; then
    echo "error: srtw serve exited $serve_rc after graceful drain" >&2
    cat "$serve_err" >&2
    exit 1
fi
if kill -0 "$serve_pid" 2>/dev/null; then
    echo "error: srtw serve process leaked past its drain" >&2
    exit 1
fi
wait
rm -rf "$flood_dir" "$serve_out" "$serve_err"
echo "ok: serve answered, degraded under deadline, shed under flood, drained cleanly"

echo "== 9/12 replicated soak =="
rep_out=$(mktemp); rep_err=$(mktemp)
# Two shared-nothing replicas; replica 0 is armed to abort after its
# 120th request, well inside the first flood wave.
target/release/srtw serve --addr 127.0.0.1:0 --replicas 2 --workers 2 \
    --fault abort@120 >"$rep_out" 2>"$rep_err" &
rep_pid=$!
# The stdout protocol announces the public port, the supervisor admin
# port, and one admin line per replica.
for _ in $(seq 1 100); do
    [ "$(grep -c "admin on" "$rep_out")" -ge 3 ] && break
    sleep 0.1
done
port=$(sed -n 's/^srtw-serve listening on .*:\([0-9]*\)$/\1/p' "$rep_out" | head -1)
admin=$(sed -n 's/^srtw-serve supervisor admin on .*:\([0-9]*\)$/\1/p' "$rep_out" | head -1)
if [ -z "$port" ] || [ -z "$admin" ]; then
    echo "error: replicated serve did not announce its ports" >&2
    cat "$rep_out" "$rep_err" >&2
    kill "$rep_pid" 2>/dev/null; exit 1
fi
# Quorum: both replicas must come up healthy.
for _ in $(seq 1 100); do
    http_req "$admin" GET /readyz 2>/dev/null | grep -q '"status":"ready"' && break
    sleep 0.1
done
http_req "$admin" GET /readyz | grep -q '"status":"ready"' || {
    echo "error: parent /readyz never reached quorum" >&2; exit 1
}
# 9a: byte-identity must hold through the shared listener at replicas=2.
rep_doc=$(http_req "$port" POST /analyze systems/decoder.srtw | tail -1 | norm_runtime)
if [ "$rep_doc" != "$cli_doc" ]; then
    echo "error: replicated POST /analyze diverged from srtw analyze --json" >&2
    exit 1
fi
# 9b: first flood wave (5k connections) — replica 0 aborts mid-wave and
# the supervisor must restart it exactly once.
target/release/srtw flood "127.0.0.1:$port" --count 5000 --concurrency 8 \
    | tee "$rep_out.flood1" | grep -q "flood complete:" || {
    echo "error: first flood wave did not complete" >&2; exit 1
}
for _ in $(seq 1 100); do
    grep -q "; restart in " "$rep_out" && break
    sleep 0.1
done
restarts=$(grep -c "; restart in " "$rep_out" || true)
if [ "$restarts" -ne 1 ]; then
    echo "error: expected exactly 1 replica restart after abort@120, saw $restarts" >&2
    cat "$rep_out" >&2
    exit 1
fi
# Wait for the respawned replica to rejoin the quorum.
for _ in $(seq 1 100); do
    http_req "$admin" GET /readyz 2>/dev/null | grep -q '"status":"ready"' && break
    sleep 0.1
done
# The surviving (unfaulted) replica's pid: the announce of replica 1.
surv_pid=$(sed -n 's/^srtw-serve replica 1 pid \([0-9]*\) .*/\1/p' "$rep_out" | head -1)
settle_fds() { # pid -> prints a settled fd count (waits out transient conns)
    local pid=$1 prev=-1 cur
    for _ in $(seq 1 50); do
        cur=$(ls "/proc/$pid/fd" 2>/dev/null | wc -l)
        [ "$cur" = "$prev" ] && break
        prev=$cur
        sleep 0.1
    done
    echo "$cur"
}
rss_of() { awk '/^VmRSS:/ {print $2}' "/proc/$1/status"; }
fds_before=$(settle_fds "$surv_pid")
rss_before=$(rss_of "$surv_pid")
# 9c: second flood wave (5k more — 10k total): RSS flat, no fd creep.
target/release/srtw flood "127.0.0.1:$port" --count 5000 --concurrency 8 \
    | grep -q "flood complete:" || {
    echo "error: second flood wave did not complete" >&2; exit 1
}
fds_after=$(settle_fds "$surv_pid")
rss_after=$(rss_of "$surv_pid")
if [ "$fds_before" != "$fds_after" ]; then
    echo "error: surviving replica leaked fds across the flood ($fds_before -> $fds_after)" >&2
    exit 1
fi
awk -v a="$rss_before" -v b="$rss_after" 'BEGIN {
    if (b > a * 1.10 || b < a * 0.90) {
        printf "error: replica RSS not flat across the flood (%s kB -> %s kB)\n", a, b
        exit 1
    }
}' || exit 1
# 9d: SIGTERM to the parent drains the whole tree: exit 0, no orphans.
replica_pids=$(sed -n 's/^srtw-serve replica [0-9]* pid \([0-9]*\) .*/\1/p' "$rep_out" | sort -u)
kill -TERM "$rep_pid"
set +e
wait "$rep_pid"
rep_rc=$?
set -e
if [ "$rep_rc" -ne 0 ]; then
    echo "error: replicated serve exited $rep_rc after SIGTERM drain" >&2
    cat "$rep_err" >&2
    exit 1
fi
for pid in $replica_pids; do
    if kill -0 "$pid" 2>/dev/null; then
        echo "error: replica $pid orphaned past the supervisor's drain" >&2
        exit 1
    fi
done
rm -f "$rep_out" "$rep_out.flood1" "$rep_err"
echo "ok: 10k-connection soak over 2 replicas — one abort recovered, flat RSS, no fd leak, clean drain"

echo "== 10/12 durable batch crash recovery =="
# 100 copies of the fast decoder system: enough fsync'd records that a
# mid-run SIGKILL reliably lands between the first and the last.
jr_dir=$(mktemp -d)
for i in $(seq -w 1 100); do cp systems/decoder.srtw "$jr_dir/job-$i.srtw"; done
norm_batch() {
    sed -e 's/"runtime_secs":[0-9.e+-]*/"runtime_secs":0/g' \
        -e 's/"wall_ms":[0-9.e+-]*/"wall_ms":0/g'
}
# Reference: the same batch, uninterrupted.
target/release/srtw batch "$jr_dir" --jobs 1 --json \
    | norm_batch >"$jr_dir/clean.json"
# 10a: SIGKILL mid-run, then --resume. Poll the journal until it holds at
# least one record past its 20-byte header before pulling the trigger.
target/release/srtw batch "$jr_dir" --jobs 1 --json \
    --journal "$jr_dir/journal.wal" >/dev/null 2>&1 &
batch_pid=$!
for _ in $(seq 1 500); do
    jsize=$(stat -c %s "$jr_dir/journal.wal" 2>/dev/null || echo 0)
    [ "$jsize" -gt 20 ] && break
    sleep 0.01
done
kill -9 "$batch_pid" 2>/dev/null || true
set +e
wait "$batch_pid" 2>/dev/null
set -e
resume_err=$(mktemp)
target/release/srtw batch "$jr_dir" --jobs 1 --json \
    --journal "$jr_dir/journal.wal" --resume 2>"$resume_err" \
    | norm_batch >"$jr_dir/resumed.json" || {
    echo "error: resumed batch failed" >&2; cat "$resume_err" >&2; exit 1
}
replayed=$(sed -n 's/^journal: replayed \([0-9]*\) completed job(s).*/\1/p' "$resume_err")
if [ -z "$replayed" ] || [ "$replayed" -lt 1 ]; then
    echo "error: resume replayed no journaled jobs (journal was $jsize bytes)" >&2
    cat "$resume_err" >&2
    exit 1
fi
if ! diff -q "$jr_dir/clean.json" "$jr_dir/resumed.json" >/dev/null; then
    echo "error: resumed report is not byte-identical to the uninterrupted run" >&2
    diff "$jr_dir/clean.json" "$jr_dir/resumed.json" >&2 | head -5
    exit 1
fi
# 10b: deterministic torn-write crash — the armed fault tears the 3rd
# append mid-frame (exit 3); the resume must replay exactly 2 jobs and
# still reproduce the reference bytes.
set +e
target/release/srtw batch "$jr_dir" --jobs 1 --json \
    --journal "$jr_dir/torn.wal" --fault torn@3 >/dev/null 2>&1
torn_rc=$?
set -e
if [ "$torn_rc" -ne 3 ]; then
    echo "error: torn@3 batch exited $torn_rc, expected 3" >&2
    exit 1
fi
target/release/srtw batch "$jr_dir" --jobs 1 --json \
    --journal "$jr_dir/torn.wal" --resume 2>"$resume_err" \
    | norm_batch >"$jr_dir/torn-resumed.json" || {
    echo "error: torn-journal resume failed" >&2; cat "$resume_err" >&2; exit 1
}
grep -q "replayed 2 completed job(s)" "$resume_err" || {
    echo "error: torn@3 resume did not replay exactly 2 jobs" >&2
    cat "$resume_err" >&2
    exit 1
}
if ! diff -q "$jr_dir/clean.json" "$jr_dir/torn-resumed.json" >/dev/null; then
    echo "error: torn-journal resume diverged from the uninterrupted run" >&2
    exit 1
fi
# 10c: the shipped systems and the same 100 jobs over the served route.
# `srtw serve --journal` runs a POST /batch of the manifest fresh (one job
# line per entry, nothing replayed), a re-POST replays every line
# byte-identically from the journal, and the server drains with exit 0.
ls "$PWD"/systems/*.srtw "$jr_dir"/job-*.srtw >"$jr_dir/manifest.txt"
jobs=$(wc -l <"$jr_dir/manifest.txt")
b_out=$(mktemp); b_err=$(mktemp)
target/release/srtw serve --addr 127.0.0.1:0 --journal "$jr_dir/wal" \
    >"$b_out" 2>"$b_err" &
b_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$b_out" && break
    sleep 0.1
done
b_port=$(sed -n 's/.*:\([0-9]*\)$/\1/p' "$b_out")
if [ -z "$b_port" ]; then
    echo "error: srtw serve --journal did not report a listening address" >&2
    kill "$b_pid" 2>/dev/null; exit 1
fi
batch_post() { # tag expected-replayed
    http_req "$b_port" POST /batch "$jr_dir/manifest.txt" >"$jr_dir/$1.http"
    grep '^{"name"' "$jr_dir/$1.http" >"$jr_dir/$1.lines" || true
    if [ "$(wc -l <"$jr_dir/$1.lines")" -ne "$jobs" ]; then
        echo "error: /batch ($1) did not stream one job line per manifest entry" >&2
        head -c 600 "$jr_dir/$1.http" >&2
        exit 1
    fi
    grep -q "\"replayed\":$2}}" "$jr_dir/$1.http" || {
        echo "error: /batch ($1) summary does not say \"replayed\":$2" >&2
        grep '^{"summary"' "$jr_dir/$1.http" >&2
        exit 1
    }
}
batch_post fresh 0
batch_post replay "$jobs"
if ! diff -q "$jr_dir/fresh.lines" "$jr_dir/replay.lines" >/dev/null; then
    echo "error: the re-POSTed /batch did not replay its job lines verbatim" >&2
    exit 1
fi
http_req "$b_port" POST /shutdown >/dev/null
set +e
wait "$b_pid"
b_rc=$?
set -e
if [ "$b_rc" -ne 0 ]; then
    echo "error: srtw serve --journal exited $b_rc after drain" >&2
    cat "$b_err" >&2
    exit 1
fi
rm -rf "$jr_dir" "$resume_err" "$b_out" "$b_err"
echo "ok: journaled batch survived SIGKILL and a torn write — resume replayed, bytes identical;"
echo "    POST /batch streamed $jobs fresh lines, and its re-POST replayed all $jobs verbatim"

echo "== 11/12 cache + delta smoke test =="
cache_out=$(mktemp); cache_err=$(mktemp)
target/release/srtw serve --addr 127.0.0.1:0 --workers 2 \
    >"$cache_out" 2>"$cache_err" &
cache_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$cache_out" && break
    sleep 0.1
done
port=$(sed -n 's/.*:\([0-9]*\)$/\1/p' "$cache_out")
if [ -z "$port" ]; then
    echo "error: srtw serve did not report a listening address" >&2
    kill "$cache_pid" 2>/dev/null; exit 1
fi
# 11a: the same system twice, then a third time with a deadline — the
# second and third answers must replay the first's bytes *verbatim* (not
# merely modulo runtime; the cache key is the parsed system as presented,
# so a deadline cannot split it) and /stats must record exactly two hits
# against one miss. The second POST attaches its bytes to the entry, so
# the third is answered from the request index before it is parsed:
# exactly one request-index hit.
first=$(http_req "$port" POST /analyze systems/decoder.srtw | tail -1)
second=$(http_req "$port" POST /analyze systems/decoder.srtw | tail -1)
if [ "$first" != "$second" ]; then
    echo "error: repeated POST /analyze bodies differ (cache did not replay)" >&2
    exit 1
fi
third=$(http_req "$port" POST /analyze systems/decoder.srtw "X-Deadline-Ms: 60000" | tail -1)
if [ "$first" != "$third" ]; then
    echo "error: a deadlined re-send did not replay the cached body verbatim" >&2
    exit 1
fi
stats=$(http_req "$port" GET /stats | tail -1)
case "$stats" in
    *'"cache_hits":2'*) : ;;
    *) echo "error: /stats did not record both cache hits: $stats" >&2; exit 1 ;;
esac
case "$stats" in
    *'"cache_misses":1'*) : ;;
    *) echo "error: /stats miss counter wrong after three identical POSTs: $stats" >&2; exit 1 ;;
esac
case "$stats" in
    *'"cache_request_hits":1'*) : ;;
    *) echo "error: the third identical POST was not a request-index hit: $stats" >&2; exit 1 ;;
esac
# 11b: a delta edit over the warm base must answer byte-identically
# (modulo runtime_secs) to a cold CLI run of the edited system.
delta_dir=$(mktemp -d)
{ cat systems/decoder.srtw; printf '@delta\ndeadline decoder B 24\n'; } >"$delta_dir/delta.body"
sed 's/deadline=25/deadline=24/' systems/decoder.srtw >"$delta_dir/edited.srtw"
delta_doc=$(http_req "$port" POST /analyze/delta "$delta_dir/delta.body" | tail -1 | norm_runtime)
cold_doc=$(target/release/srtw analyze "$delta_dir/edited.srtw" --json 2>/dev/null | norm_runtime)
if [ "$delta_doc" != "$cold_doc" ]; then
    echo "error: POST /analyze/delta diverged from a cold CLI run of the edited system" >&2
    exit 1
fi
# 11c: graceful drain, exit 0.
http_req "$port" POST /shutdown | grep -q '"status":"draining"' || {
    echo "error: POST /shutdown did not answer draining" >&2
    exit 1
}
set +e
wait "$cache_pid"
cache_rc=$?
set -e
if [ "$cache_rc" -ne 0 ]; then
    echo "error: srtw serve exited $cache_rc after the cache smoke test" >&2
    cat "$cache_err" >&2
    exit 1
fi
rm -rf "$delta_dir" "$cache_out" "$cache_err"
echo "ok: cache hit replayed verbatim, delta matched a cold run, drained cleanly"

echo "== 12/12 persistent cache smoke + crash sweep =="
# Helper: start `srtw serve` with the given extra args, wait for the
# port, and leave $p_pid/$p_port/$p_out/$p_err set for the caller.
p_start() {
    p_out=$(mktemp); p_err=$(mktemp)
    target/release/srtw serve --addr 127.0.0.1:0 --workers 2 "$@" \
        >"$p_out" 2>"$p_err" &
    p_pid=$!
    for _ in $(seq 1 100); do
        grep -q "listening on" "$p_out" && break
        sleep 0.1
    done
    p_port=$(sed -n 's/.*:\([0-9]*\)$/\1/p' "$p_out")
    if [ -z "$p_port" ]; then
        echo "error: srtw serve (persist) did not report a listening address" >&2
        cat "$p_err" >&2
        kill "$p_pid" 2>/dev/null; exit 1
    fi
}
p_stop() {
    http_req "$p_port" POST /shutdown >/dev/null
    set +e
    wait "$p_pid"
    p_rc=$?
    set -e
    if [ "$p_rc" -ne 0 ]; then
        echo "error: srtw serve (persist) exited $p_rc after drain" >&2
        cat "$p_err" >&2
        exit 1
    fi
}
pers_dir=$(mktemp -d)
# 12a: warm restart. Cache a result, drain, restart a brand-new process
# over the same spill directory: the very first POST must replay the
# stored bytes *verbatim* as a hit, with zero cold misses.
p_start --persist "$pers_dir/spill"
seeded=$(http_req "$p_port" POST /analyze systems/decoder.srtw | tail -1)
p_stop
first_out=$p_out; first_err=$p_err
p_start --persist "$pers_dir/spill"
revived=$(http_req "$p_port" POST /analyze systems/decoder.srtw | tail -1)
if [ "$seeded" != "$revived" ]; then
    echo "error: restart-warm POST /analyze did not replay the stored bytes verbatim" >&2
    exit 1
fi
stats=$(http_req "$p_port" GET /stats | tail -1)
case "$stats" in
    *'"persist_loaded":1'*'"cache_hits":1'*|*'"cache_hits":1'*'"persist_loaded":1'*) : ;;
    *) echo "error: restart did not warm-load the spill: $stats" >&2; exit 1 ;;
esac
case "$stats" in
    *'"cache_misses":0'*) : ;;
    *) echo "error: a warm restart recomputed: $stats" >&2; exit 1 ;;
esac
p_stop
rm -f "$first_out" "$first_err" "$p_out" "$p_err"
# 12b: crash-point sweep. Two systems; the second spill append is broken
# by each fault kind in turn. The faulted server must keep answering
# correct bytes (degrading cold with a typed warning), and a restart
# must land in exactly two states: the durable record warm-and-byte-
# identical, the faulted one cold-recomputed-but-correct.
sed 's/deadline=25/deadline=24/' systems/decoder.srtw >"$pers_dir/edited.srtw"
edited_cli=$(target/release/srtw analyze "$pers_dir/edited.srtw" --json 2>/dev/null | norm_runtime)
for kind in pers-torn pers-corrupt pers-enospc; do
    sweep_dir="$pers_dir/$kind"
    p_start --persist "$sweep_dir" --fault "$kind@2"
    sys1=$(http_req "$p_port" POST /analyze systems/decoder.srtw | tail -1)
    sys2=$(http_req "$p_port" POST /analyze "$pers_dir/edited.srtw" | tail -1)
    if [ "$(echo "$sys2" | norm_runtime)" != "$edited_cli" ]; then
        echo "error: $kind@2 changed the faulted response's bytes" >&2
        exit 1
    fi
    grep -q "srtw-persist:" "$p_err" || {
        echo "error: $kind@2 fired without a typed srtw-persist warning" >&2
        cat "$p_err" >&2
        exit 1
    }
    p_stop
    rm -f "$p_out" "$p_err"
    p_start --persist "$sweep_dir"
    warm1=$(http_req "$p_port" POST /analyze systems/decoder.srtw | tail -1)
    cold2=$(http_req "$p_port" POST /analyze "$pers_dir/edited.srtw" | tail -1)
    if [ "$warm1" != "$sys1" ]; then
        echo "error: $kind sweep: the durable record did not replay verbatim after restart" >&2
        exit 1
    fi
    if [ "$(echo "$cold2" | norm_runtime)" != "$edited_cli" ]; then
        echo "error: $kind sweep: the cold recompute diverged after restart" >&2
        exit 1
    fi
    stats=$(http_req "$p_port" GET /stats | tail -1)
    case "$stats" in
        *'"cache_hits":1'*'"cache_misses":1'*|*'"cache_misses":1'*'"cache_hits":1'*) : ;;
        *) echo "error: $kind sweep: not exactly warm+cold after restart: $stats" >&2; exit 1 ;;
    esac
    p_stop
    rm -f "$p_out" "$p_err"
done
rm -rf "$pers_dir"
echo "ok: warm restart replayed verbatim; every persistence fault degraded cold with a warning, never a wrong byte"

echo "verify: OK"
