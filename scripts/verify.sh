#!/usr/bin/env sh
# Local verification gate: exactly what CI / the driver runs, plus docs.
#
#   scripts/verify.sh          # tier-1 gate + rustdoc
#
# Tier-1 (must stay green): release build + full workspace test suite.
# Docs: `cargo doc --no-deps` must finish without warnings (RUSTDOCFLAGS
# promotes them to errors) so the public API stays documented — see
# OBSERVABILITY.md and the crate-level rustdoc of wootz-obs.
set -eu

cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== release: cargo test --release -q -p wootz-par =="
# The pool's determinism tests under optimization: one closure must give the
# same bits inline and as a dispatched pool task.
cargo test --release -q -p wootz-par

echo "== release: kernel oracle at every kernel level =="
# The GEMM core against the scalar loops it replaced, bit for bit, at every
# micro-kernel level this CPU supports, as the optimizer compiles it.
cargo test --release -q -p wootz-tensor --test kernel_oracle

echo "== fmt: cargo fmt --check -p wootz-tensor -p wootz-par =="
cargo fmt --check -p wootz-tensor -p wootz-par

echo "== docs: cargo doc --no-deps (warnings are errors, whole workspace) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p wootz-obs -p wootz-par -p wootz-tensor -p wootz-nn -p wootz-core \
    -p wootz-sim -p wootz-fault -p wootz-wire -p wootz-store -p wootz-cluster \
    -p wootz-ir -p wootz-sequitur -p wootz-data -p wootz-models -p wootz-bench

echo "== benchmark package: unit tests + the --smoke integration test =="
# The repository benchmark (BENCHMARK.json) is a standalone package that
# compiles against the public API of every crate; running its tests here
# makes an API break against it fail this gate instead of the benchmark
# pipeline. (~1 min: the --smoke test runs all four workloads tiny.)
cargo test -q --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "== smoke: fault injection + journal resume =="
# A cold run under a deterministic fault plan journals every completed unit
# of work; a second --resume run must replay the journal (strictly fewer
# fresh evaluations) and land on the same best network.
SMOKE=$(mktemp -d "${TMPDIR:-/tmp}/wootz_smoke.XXXXXX")
trap 'rm -rf "$SMOKE"' EXIT
W=target/release/wootz
"$W" genmodel --classes 8 --out "$SMOKE/model.prototxt" >/dev/null
"$W" sample --modules 4 --count 6 --seed 5 --out "$SMOKE/configs.json" >/dev/null
printf 'dataset: "flowers102"\nbase_lr: 0.03\nmax_iter: 30\nbatch_size: 8\npretrain_iter: 8\neval_every: 10\nseed: 3\n' \
    > "$SMOKE/solver.prototxt"
printf 'min ModelSize\nconstraint Accuracy >= 0.1\n' > "$SMOKE/objective.txt"
printf '{"seed": 5, "triggers": [{"site":"explore.eval","key":0,"kind":"EvalError","times":1}], "rates": []}' \
    > "$SMOKE/faults.json"

run_prune() {
    "$W" prune --model "$SMOKE/model.prototxt" --configs "$SMOKE/configs.json" \
        --solver "$SMOKE/solver.prototxt" --objective "$SMOKE/objective.txt" \
        --inject-faults "$SMOKE/faults.json" --journal "$SMOKE/run.ndjson" "$@"
}
COLD=$(run_prune)
WARM=$(run_prune --resume)
cold_fresh=$(printf '%s\n' "$COLD" | sed -n 's/^exploration: \([0-9]*\) evaluated fresh.*/\1/p')
warm_fresh=$(printf '%s\n' "$WARM" | sed -n 's/^exploration: \([0-9]*\) evaluated fresh.*/\1/p')
cold_best=$(printf '%s\n' "$COLD" | grep '^best network:')
warm_best=$(printf '%s\n' "$WARM" | grep '^best network:')
[ -n "$cold_fresh" ] && [ -n "$warm_fresh" ] || {
    echo "smoke FAILED: missing exploration summary"; exit 1; }
[ "$warm_fresh" -lt "$cold_fresh" ] || {
    echo "smoke FAILED: resume did not skip work (fresh $cold_fresh -> $warm_fresh)"; exit 1; }
[ "$cold_best" = "$warm_best" ] || {
    echo "smoke FAILED: best network changed across resume"; echo "  cold: $cold_best"; echo "  warm: $warm_best"; exit 1; }
echo "smoke ok: fresh $cold_fresh -> $warm_fresh, best network stable"

echo "== threads smoke: wootz prune bitwise-identical at --threads 1 vs 4 =="
# The wootz-par determinism contract (PERFORMANCE.md): the kernel pool's
# chunk boundaries are fixed by the problem shape and merges are ordered,
# so any thread count must produce byte-identical results JSON.
threads_prune() {
    "$W" prune --model "$SMOKE/model.prototxt" --configs "$SMOKE/configs.json" \
        --solver "$SMOKE/solver.prototxt" --objective "$SMOKE/objective.txt" "$@" >/dev/null
}
threads_prune --threads 1 --out "$SMOKE/run_t1.json"
threads_prune --threads 4 --out "$SMOKE/run_t4.json"
cmp -s "$SMOKE/run_t1.json" "$SMOKE/run_t4.json" || {
    echo "threads smoke FAILED: --threads 1 and --threads 4 outputs differ"; exit 1; }
echo "threads smoke ok: results byte-identical across thread counts"

echo "== evals smoke: without an Accuracy bound each network is measured once =="
# Nothing reads an accuracy curve unless the objective bounds Accuracy
# (DESIGN.md §14): the full model and every fresh evaluation each take one
# test-set pass (OBSERVABILITY.md, trainer.evals), and the results are the
# same at any thread count.
printf 'max Accuracy\nconstraint ModelSize <= 3100\n' > "$SMOKE/objective_max.txt"
evals_prune() {
    "$W" prune --model "$SMOKE/model.prototxt" --configs "$SMOKE/configs.json" \
        --solver "$SMOKE/solver.prototxt" --objective "$SMOKE/objective_max.txt" "$@"
}
EVALS=$(evals_prune --metrics-out "$SMOKE/evals.ndjson" --out "$SMOKE/evals.json" 2>/dev/null)
evals_prune --threads 1 --out "$SMOKE/evals_t1.json" >/dev/null
evals_fresh=$(printf '%s\n' "$EVALS" | sed -n 's/^exploration: \([0-9]*\) evaluated fresh.*/\1/p')
evals_passes=$(sed -n 's/.*"name":"trainer.evals","value":\([0-9]*\).*/\1/p' "$SMOKE/evals.ndjson")
[ -n "$evals_fresh" ] && [ "$evals_passes" = "$((1 + evals_fresh))" ] || {
    echo "evals smoke FAILED: trainer.evals = '$evals_passes' for 1 full model + '$evals_fresh' fresh evaluations"; exit 1; }
cmp -s "$SMOKE/evals.json" "$SMOKE/evals_t1.json" || {
    echo "evals smoke FAILED: the --threads 1 output differs"; exit 1; }
echo "evals smoke ok: trainer.evals $evals_passes = 1 full model + $evals_fresh evaluations, outputs identical at --threads 1"

echo "== exec-plan smoke: wootz prune bitwise-identical --exec-plan on vs off =="
# The planned executor (DESIGN.md §10) runs the same float-op sequence as
# the interpreter against arena-backed buffers; prune results must be
# byte-identical whichever executor runs the training loops.
threads_prune --exec-plan on --out "$SMOKE/run_plan.json"
threads_prune --exec-plan off --out "$SMOKE/run_interp.json"
cmp -s "$SMOKE/run_plan.json" "$SMOKE/run_interp.json" || {
    echo "exec-plan smoke FAILED: --exec-plan on and off outputs differ"; exit 1; }
cmp -s "$SMOKE/run_plan.json" "$SMOKE/run_t1.json" || {
    echo "exec-plan smoke FAILED: planned output differs from the threads-smoke baseline"; exit 1; }
echo "exec-plan smoke ok: results byte-identical across executors"

echo "== memory smoke: reproduce memory =="
# Exits non-zero unless steady-state training makes zero tensor
# allocations after warm-up AND the eval-mode peak drops >=2x vs the
# interpreter (PERFORMANCE.md).
R="$PWD/target/release/reproduce"
(cd "$SMOKE" && "$R" memory --quick) > "$SMOKE/memory.out" 2>&1 || {
    echo "memory smoke FAILED: reproduce memory exited non-zero"
    cat "$SMOKE/memory.out"; exit 1; }
[ -s "$SMOKE/BENCH_exec_mem.json" ] || {
    echo "memory smoke FAILED: BENCH_exec_mem.json not written"; exit 1; }
echo "memory smoke ok: $(grep 'eval-mode peak live' "$SMOKE/memory.out" | head -1)"

echo "== kernels smoke: reproduce kernels --metrics-out =="
# The kernel micro-bench exits non-zero if any kernel's outputs diverge
# across thread counts; --metrics-out must yield a summary with the par.*
# pool counters (OBSERVABILITY.md inventory).
R="$PWD/target/release/reproduce"
(cd "$SMOKE" && "$R" kernels --quick --threads 4 --metrics-out kernels.ndjson) \
    > "$SMOKE/kernels.out" 2> "$SMOKE/kernels.err" || {
    echo "kernels smoke FAILED: reproduce kernels exited non-zero"
    cat "$SMOKE/kernels.out" "$SMOKE/kernels.err"; exit 1; }
[ -s "$SMOKE/BENCH_kernels.json" ] || {
    echo "kernels smoke FAILED: BENCH_kernels.json not written"; exit 1; }
grep -q '"name":"par.tasks"' "$SMOKE/kernels.ndjson" || {
    echo "kernels smoke FAILED: par.tasks counter missing from metrics"; exit 1; }
grep -q '"name":"tensor.kernel_level"' "$SMOKE/kernels.ndjson" || {
    echo "kernels smoke FAILED: tensor.kernel_level gauge missing from metrics"; exit 1; }
LEVEL=$(sed -n 's/.*"kernel_level": "\([a-z0-9]*\)".*/\1/p' "$SMOKE/BENCH_kernels.json")
[ -n "$LEVEL" ] || {
    echo "kernels smoke FAILED: BENCH_kernels.json has no kernel_level"; exit 1; }
echo "kernels smoke ok: $(grep -c '"kernel"' "$SMOKE/BENCH_kernels.json") kernels benched at the $LEVEL level, par.* counters exported"

echo "== crash-matrix smoke: reproduce crashes --quick =="
# For every registered kill point (wootz chaos list) plus a mid-file
# corruption row: kill a run mid-write, resume it, and require the final
# best network bit-identical to an uninterrupted baseline (DESIGN.md §12).
R="$PWD/target/release/reproduce"
(cd "$SMOKE" && "$R" crashes --quick) > "$SMOKE/crashes.out" 2>&1 || {
    echo "crash-matrix smoke FAILED: reproduce crashes exited non-zero"
    cat "$SMOKE/crashes.out"; exit 1; }
grep -q 'recovered bit-identically' "$SMOKE/crashes.out" || {
    echo "crash-matrix smoke FAILED: bit-identical line missing"
    cat "$SMOKE/crashes.out"; exit 1; }
echo "crash-matrix smoke ok: $(grep 'recovered bit-identically' "$SMOKE/crashes.out" | tail -1)"

echo "== chaos smoke: distributed prune under SIGKILL + SIGSTOP =="
# The same inputs pruned single-process and distributed must land on the
# same best network even when one worker is killed outright and another is
# suspended (a zombie: its lease expires, its task is reclaimed, and its
# late result must be fenced). See DESIGN.md §9.
printf 'dataset: "flowers102"\nbase_lr: 0.03\nmax_iter: 30\nbatch_size: 8\npretrain_iter: 8\neval_every: 10\nseed: 3\nnum_workers: 4\n' \
    > "$SMOKE/dsolver.prototxt"
chaos_prune() {
    "$W" prune --model "$SMOKE/model.prototxt" --configs "$SMOKE/configs.json" \
        --solver "$SMOKE/dsolver.prototxt" --objective "$SMOKE/objective.txt" "$@"
}
base_best=$(chaos_prune | grep '^best network:')
DIST_DIR="$SMOKE/dist"
# A fixed loopback port, so the spawned workers can be found by the
# address on their command line.
DIST_PORT=$((15000 + $$ % 2000))
chaos_prune --distributed 3 --run-dir "$DIST_DIR" --lease-ms 400 \
    --listen "127.0.0.1:$DIST_PORT" > "$SMOKE/dist.out" 2>&1 &
COORD=$!
# Wait for at least two worker processes, then murder one and suspend the
# other mid-run.
victims=""
tries=0
while [ "$tries" -lt 150 ]; do
    victims=$(pgrep -f "worker --connect 127.0.0.1:$DIST_PORT" 2>/dev/null || true)
    if [ "$(printf '%s\n' "$victims" | grep -c .)" -ge 2 ]; then
        break
    fi
    kill -0 "$COORD" 2>/dev/null || break
    tries=$((tries + 1))
    sleep 0.1
done
killed=$(printf '%s\n' "$victims" | sed -n 1p)
stopped=$(printf '%s\n' "$victims" | sed -n 2p)
if [ -n "$killed" ] && [ -n "$stopped" ]; then
    kill -KILL "$killed" 2>/dev/null || true
    kill -STOP "$stopped" 2>/dev/null || true
    echo "chaos: SIGKILLed worker $killed, SIGSTOPped worker $stopped"
else
    echo "chaos smoke FAILED: never saw two live workers"; kill "$COORD" 2>/dev/null || true; exit 1
fi
wait "$COORD" || {
    echo "chaos smoke FAILED: distributed run exited non-zero"; cat "$SMOKE/dist.out"; exit 1; }
# The coordinator's shutdown path SIGKILLs leftovers, including the stopped
# worker; reap any straggler all the same.
kill -KILL "$stopped" 2>/dev/null || true
dist_best=$(grep '^best network:' "$SMOKE/dist.out" || true)
[ -n "$dist_best" ] || {
    echo "chaos smoke FAILED: no best network line"; cat "$SMOKE/dist.out"; exit 1; }
[ "$base_best" = "$dist_best" ] || {
    echo "chaos smoke FAILED: best network changed under faults"
    echo "  single:      $base_best"; echo "  distributed: $dist_best"; exit 1; }
echo "chaos smoke ok: $(grep '^cluster:' "$SMOKE/dist.out" || echo 'stats line missing'), best network stable"

echo "== socket chaos smoke: a mid-frame disconnect =="
# The same inputs again (wire format: PROTOCOL.md): the coordinator
# listens on loopback, workers connect, and worker w0's first
# TaskDone frame is cut in half with the socket hard-closed — the
# connection dies, not the process. The worker must reconnect and resend;
# the run must stay byte-equal to the single-process best network and the
# stats line must record the reconnect (DESIGN.md §11).
NET_DIR="$SMOKE/net"
WOOTZ_CHAOS_NET_DROP="w0:1" chaos_prune --distributed 2 --run-dir "$NET_DIR" \
    --listen 127.0.0.1:0 > "$SMOKE/net.out" 2>&1 || {
    echo "socket chaos smoke FAILED: TCP run exited non-zero"; cat "$SMOKE/net.out"; exit 1; }
net_best=$(grep '^best network:' "$SMOKE/net.out" || true)
[ -n "$net_best" ] || {
    echo "socket chaos smoke FAILED: no best network line"; cat "$SMOKE/net.out"; exit 1; }
[ "$base_best" = "$net_best" ] || {
    echo "socket chaos smoke FAILED: best network changed over TCP"
    echo "  single: $base_best"; echo "  tcp:    $net_best"; exit 1; }
grep '^cluster:' "$SMOKE/net.out" | grep -q '[1-9][0-9]* net reconnects' || {
    echo "socket chaos smoke FAILED: no reconnect recorded"; cat "$SMOKE/net.out"; exit 1; }
echo "socket chaos smoke ok: $(grep '^cluster:' "$SMOKE/net.out"), best network stable"

echo "== tcp dispatch smoke: results leave the worker without waiting out a timer =="
# Dispatch is event-driven (DESIGN.md §11): a finished task's
# TaskDone must not wait for the heartbeat period (lease/4 = 375 ms) and
# an idle worker must not sleep between requests. Workers export their own
# metrics, so one extra worker is started by hand with --metrics-out beside
# the two the coordinator spawns; the median of its `net.result_delivery_us`
# (task finished -> TaskDone written) must be far below any timer, and the
# run must still land on the single-process best network.
LAT_DIR="$SMOKE/tcplat"
LAT_PORT=$((19000 + $$ % 2000))
chaos_prune --distributed 2 --run-dir "$LAT_DIR" --listen "127.0.0.1:$LAT_PORT" \
    --metrics-out "$SMOKE/tcplat_coord.ndjson" > "$SMOKE/tcplat.out" 2> "$SMOKE/tcplat.err" &
COORD=$!
# The coordinator's own workers appear once the hub is bound; join then.
tries=0
while [ "$tries" -lt 600 ]; do
    pgrep -f "worker --connect 127.0.0.1:$LAT_PORT" >/dev/null 2>&1 && break
    kill -0 "$COORD" 2>/dev/null || break
    tries=$((tries + 1))
    sleep 0.02
done
"$W" worker --connect "127.0.0.1:$LAT_PORT" --worker-id hand --orphan-grace-ms 5000 \
    --metrics-out "$SMOKE/tcplat_hand.ndjson" > "$SMOKE/tcplat_hand.out" 2>&1 || true
wait "$COORD" || {
    echo "tcp dispatch smoke FAILED: TCP run exited non-zero"
    cat "$SMOKE/tcplat.out" "$SMOKE/tcplat.err"; exit 1; }
lat_best=$(grep '^best network:' "$SMOKE/tcplat.out" || true)
[ "$base_best" = "$lat_best" ] || {
    echo "tcp dispatch smoke FAILED: best network changed over TCP"
    echo "  single: $base_best"; echo "  tcp:    $lat_best"; exit 1; }
delivery_p50=$(sed -n 's/.*"name":"net.result_delivery_us".*"p50":\([0-9]*\).*/\1/p' \
    "$SMOKE/tcplat_hand.ndjson" 2>/dev/null | head -n 1)
[ -n "$delivery_p50" ] || {
    echo "tcp dispatch smoke FAILED: the hand-started worker delivered no result"
    cat "$SMOKE/tcplat_hand.out"; exit 1; }
[ "$delivery_p50" -lt 50000 ] || {
    echo "tcp dispatch smoke FAILED: net.result_delivery_us p50 = ${delivery_p50} us (>= 50 ms)"; exit 1; }
grep -q '"name":"cluster.reap_latency_us"' "$SMOKE/tcplat_coord.ndjson" || {
    echo "tcp dispatch smoke FAILED: cluster.reap_latency_us missing from coordinator metrics"; exit 1; }
echo "tcp dispatch smoke ok: net.result_delivery_us p50 ${delivery_p50} us, $(grep '^cluster:' "$SMOKE/tcplat.out" | sed 's/.*, //')"

echo "== coordinator-kill smoke: SIGKILL the coordinator mid-run, restart --resume =="
# The in-run failover contract (DESIGN.md §9, PROTOCOL.md §7): kill the
# *coordinator* outright while its workers are alive, restart it with
# --resume on the same port, and require (a) at least one orphaned worker
# re-adopted and (b) the final best network byte-equal to the
# single-process baseline. The chaos registry must also expose the
# coordinator-side kill sites this contract is proven against.
for site in coord.grant coord.reap coord.assemble; do
    "$W" chaos list | grep -q "$site" || {
        echo "coordinator-kill smoke FAILED: \`wootz chaos list\` missing $site"; exit 1; }
done
KILL_DIR="$SMOKE/coordkill"
PORT=$((17000 + $$ % 2000))
# Eight times the chaos smoke's fine-tuning, so the coordinator is still
# running when it is killed: the 30-iteration job is over about 0.2 s after
# its workers start, before the kill below.
sed 's/^max_iter: 30$/max_iter: 240/' "$SMOKE/dsolver.prototxt" > "$SMOKE/ksolver.prototxt"
kill_prune() {
    "$W" prune --model "$SMOKE/model.prototxt" --configs "$SMOKE/configs.json" \
        --solver "$SMOKE/ksolver.prototxt" --objective "$SMOKE/objective.txt" "$@"
}
kill_base_best=$(kill_prune | grep '^best network:')
coordkill_prune() {
    kill_prune --distributed 2 --run-dir "$KILL_DIR" --lease-ms 400 \
        --listen "127.0.0.1:$PORT" --orphan-grace-ms 30000 \
        --journal "$SMOKE/coordkill.ndjson" "$@"
}
coordkill_prune > "$SMOKE/coordkill1.out" 2>&1 &
COORD=$!
# Wait until both workers are connected, then murder the coordinator.
tries=0
while [ "$tries" -lt 150 ]; do
    live=$(pgrep -f "worker --connect 127.0.0.1:$PORT" 2>/dev/null | grep -c . || true)
    [ "$live" -ge 2 ] && break
    kill -0 "$COORD" 2>/dev/null || break
    tries=$((tries + 1))
    sleep 0.1
done
[ "${live:-0}" -ge 2 ] || {
    echo "coordinator-kill smoke FAILED: never saw two workers"
    kill "$COORD" 2>/dev/null || true; cat "$SMOKE/coordkill1.out"; exit 1; }
sleep 0.3
# $COORD is the backgrounded subshell; the wootz binary is its child and is
# the process that holds the listen socket and the journal lock — kill that.
COORD_PID=$(pgrep -f "prune .*--listen 127.0.0.1:$PORT" | head -n 1)
[ -n "$COORD_PID" ] || {
    echo "coordinator-kill smoke FAILED: coordinator process not found"
    kill "$COORD" 2>/dev/null || true; cat "$SMOKE/coordkill1.out"; exit 1; }
kill -KILL "$COORD_PID" 2>/dev/null || true
wait "$COORD" 2>/dev/null || true
echo "coordinator-kill: SIGKILLed coordinator $COORD_PID with workers alive"
# Restart on the same port: orphaned workers are mid-backoff redialing it.
coordkill_prune --resume > "$SMOKE/coordkill2.out" 2>&1 || {
    echo "coordinator-kill smoke FAILED: restarted coordinator exited non-zero"
    cat "$SMOKE/coordkill2.out"; exit 1; }
kill_best=$(grep '^best network:' "$SMOKE/coordkill2.out" || true)
[ -n "$kill_best" ] || {
    echo "coordinator-kill smoke FAILED: no best network line"; cat "$SMOKE/coordkill2.out"; exit 1; }
[ "$kill_base_best" = "$kill_best" ] || {
    echo "coordinator-kill smoke FAILED: best network changed across the coordinator kill"
    echo "  single:    $kill_base_best"; echo "  restarted: $kill_best"; exit 1; }
grep '^cluster:' "$SMOKE/coordkill2.out" | grep -q '[1-9][0-9]* workers re-adopted' || {
    echo "coordinator-kill smoke FAILED: no orphaned worker was re-adopted"
    cat "$SMOKE/coordkill2.out"; exit 1; }
echo "coordinator-kill smoke ok: $(grep '^cluster:' "$SMOKE/coordkill2.out"), best network stable"

echo "== serve smoke: wootz serve + two overlapping tenants share a block store =="
# Pruning-as-a-service (SERVING.md): a daemon seeds its content-addressed
# block store with tenant A's job; tenant B submits the same model and
# subspace under a different objective — a different job, the same tuning
# blocks. B's event stream must be pure cache hits (no fresh pre-training,
# zero pre-training steps in its report), and B's result must be
# byte-identical to a cold daemon's run of the same job.
printf 'min ModelSize\nconstraint Accuracy >= 0.12\n' > "$SMOKE/objective_b.txt"
start_serve() {
    # $1: store dir, $2: log file. Sets SERVE_PID and SERVE_ADDR.
    "$W" serve --store "$1" --state "$1.state" --listen 127.0.0.1:0 > "$2" 2>&1 &
    SERVE_PID=$!
    SERVE_ADDR=""
    tries=0
    while [ "$tries" -lt 100 ]; do
        SERVE_ADDR=$(sed -n 's/^serving on \([0-9.:]*\) .*/\1/p' "$2" | head -n 1)
        [ -n "$SERVE_ADDR" ] && break
        kill -0 "$SERVE_PID" 2>/dev/null || break
        tries=$((tries + 1))
        sleep 0.1
    done
    [ -n "$SERVE_ADDR" ] || {
        echo "serve smoke FAILED: daemon never announced an address"; cat "$2"; exit 1; }
}
submit_to() {
    "$W" submit --connect "$1" --model "$SMOKE/model.prototxt" \
        --configs "$SMOKE/configs.json" --solver "$SMOKE/solver.prototxt" \
        --objective "$2"
}
start_serve "$SMOKE/store" "$SMOKE/serve.out"
WARM_PID=$SERVE_PID
submit_to "$SERVE_ADDR" "$SMOKE/objective.txt" > "$SMOKE/subA.out" 2>&1 || {
    echo "serve smoke FAILED: job A failed"; cat "$SMOKE/subA.out"; exit 1; }
submit_to "$SERVE_ADDR" "$SMOKE/objective_b.txt" > "$SMOKE/subB.out" 2>&1 || {
    echo "serve smoke FAILED: job B failed"; cat "$SMOKE/subB.out"; exit 1; }
kill "$WARM_PID" 2>/dev/null || true
pretrained_a=$(grep -c '"event":"block_pretrained"' "$SMOKE/subA.out" || true)
hits_b=$(grep -c '"event":"block_cache_hit"' "$SMOKE/subB.out" || true)
fresh_b=$(grep -c '"event":"block_pretrained"' "$SMOKE/subB.out" || true)
[ "$pretrained_a" -gt 0 ] || {
    echo "serve smoke FAILED: job A pre-trained no blocks"; cat "$SMOKE/subA.out"; exit 1; }
[ "$fresh_b" -eq 0 ] && [ "$hits_b" -eq "$pretrained_a" ] || {
    echo "serve smoke FAILED: job B not fully served from cache (A trained $pretrained_a, B hit $hits_b, B trained $fresh_b)"
    cat "$SMOKE/subB.out"; exit 1; }
grep '^result ' "$SMOKE/subB.out" | grep -q '"pretrain_steps":0' || {
    echo "serve smoke FAILED: job B charged pre-training steps"
    grep '^result ' "$SMOKE/subB.out"; exit 1; }
# Cold control: the same job B against a fresh daemon must choose a
# bit-identical best network — cached blocks are byte-for-byte the blocks
# a cold run trains. (The reports legitimately differ in pretrain_steps:
# 0 warm vs the real cost cold, which is the point.)
start_serve "$SMOKE/store_cold" "$SMOKE/serve_cold.out"
COLD_PID=$SERVE_PID
submit_to "$SERVE_ADDR" "$SMOKE/objective_b.txt" > "$SMOKE/subB_cold.out" 2>&1 || {
    echo "serve smoke FAILED: cold control failed"; cat "$SMOKE/subB_cold.out"; exit 1; }
kill "$COLD_PID" 2>/dev/null || true
best_of() {
    sed -n 's/^result [^ ]* //p' "$1" \
        | sed -n 's/.*\("full_accuracy":[^,]*,"best":{[^}]*}\).*/\1/p'
}
warm_best=$(best_of "$SMOKE/subB.out")
cold_best=$(best_of "$SMOKE/subB_cold.out")
[ -n "$warm_best" ] && [ "$warm_best" = "$cold_best" ] || {
    echo "serve smoke FAILED: warm best network differs from the cold control"
    echo "  warm: $warm_best"; echo "  cold: $cold_best"; exit 1; }
echo "serve smoke ok: job A trained $pretrained_a blocks, job B served $hits_b/$hits_b from cache, results identical"

echo "== explorer smoke: seeded bandit reproducibility + reproduce explorers gate =="
# Same seed, same flags, run twice: the bandit policy is ChaCha8-seeded
# from the solver seed, so the entire results JSON must come out
# byte-identical (DESIGN.md §14).
explorer_prune() {
    "$W" prune --model "$SMOKE/model.prototxt" --configs "$SMOKE/configs.json" \
        --solver "$SMOKE/solver.prototxt" --objective "$SMOKE/objective.txt" \
        --explorer bandit --explorer-budget 8 "$@" >/dev/null
}
explorer_prune --out "$SMOKE/bandit_a.json"
explorer_prune --out "$SMOKE/bandit_b.json"
cmp -s "$SMOKE/bandit_a.json" "$SMOKE/bandit_b.json" || {
    echo "explorer smoke FAILED: two seeded bandit runs differ"; exit 1; }
# The bench gate (exit code carries the verdict): every strategy reaches
# the accuracy target, warm reruns pretrain nothing and stay
# bit-identical to cold, and at least one adaptive strategy beats fixed
# on evaluations-to-target with the block store warm.
R="$PWD/target/release/reproduce"
(cd "$SMOKE" && "$R" explorers) > "$SMOKE/explorers.out" 2>&1 || {
    echo "explorer smoke FAILED: reproduce explorers exited non-zero"
    cat "$SMOKE/explorers.out"; exit 1; }
[ -s "$SMOKE/BENCH_explorers.json" ] || {
    echo "explorer smoke FAILED: BENCH_explorers.json not written"; exit 1; }
# Budget 0 leaves every adaptive strategy short of the target: the gate
# must exit non-zero, not report success.
if (cd "$SMOKE" && "$R" explorers --budget 0) > "$SMOKE/explorers0.out" 2>&1; then
    echo "explorer smoke FAILED: --budget 0 should exit non-zero"
    cat "$SMOKE/explorers0.out"; exit 1
fi
echo "explorer smoke ok: $(grep -c '"strategy"' "$SMOKE/BENCH_explorers.json") strategy rows, seeded bandit byte-stable, zero budget refused"

echo "verify.sh: all gates passed"
