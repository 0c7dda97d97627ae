#!/usr/bin/env bash
# crash_soak.sh — SIGKILL torture for the crash-safe campaign runner.
#
# Runs one uninterrupted run_campaign as the reference, then repeatedly
# launches an identical run, SIGKILLs it at a random point inside the run
# window, resumes from the checkpoint, and requires the resumed run's trace
# file, trace hash and serialized sink state to be byte-identical to the
# reference. Every other kill iteration runs --durable against the plain
# reference (here and in --shard mode), so the fsync paths face SIGKILL and
# --resume too. Kill points are drawn from bash's seeded RANDOM, so a
# failure replays with CRASH_SOAK_SEED.
#
#   crash_soak.sh <run_campaign-binary> [kills] [threads] [sources] [frames]
#
# Defaults (20 kills, 12 sources x 65536 frames) keep one thread-count pass
# under ~30s on a laptop; the check.sh --crash stage runs threads 1 and 4.
#
# Sweep mode tortures the process-isolated sweep supervisor instead:
#
#   crash_soak.sh --sweep <run_sweep-binary> [supervisor_kills]
#
# Service mode tortures the streaming traffic service the same way:
#
#   crash_soak.sh --service [--overload] <serve_traffic-binary> [kills] [streams] [samples]
#
# It runs one uninterrupted serve_traffic as the reference, then SIGKILLs
# checkpointing runs at random instants, resumes each from its VBRSRVC1
# checkpoint, and requires the resumed results_hash to be bit-identical.
# With --overload it additionally tortures the overload governor: a seeded
# fault + pressure schedule (quarantines, shedding, degraded blocks) runs as
# a governed reference, SIGKILLs land inside the degraded window, and an
# injected mid-run sink I/O fault must checkpoint-then-exit-4; every resume
# must reproduce the governed reference hash bit-for-bit.
#
# Sweep mode runs every sweep as a one-shard, one-pool sweep directory. It
# (1) runs a fault-free reference sweep, (2) replays it with every cell's
# first worker attempt crashing/hanging/OOMing, requires all of those
# faults to end quarantined when a cell gets one attempt, and requires the
# retried results hash to match the reference bit-for-bit, (3) SIGSTOPs a
# live worker from outside and requires the watchdog to fire and the retry
# to heal it, (4) SIGKILLs the whole sweep mid-run `supervisor_kills` times
# and requires every rerun to reproduce the reference hash, and (5) runs
# poison cells that fail deterministically and requires them quarantined
# in the result log without crashing the supervisor or blocking healthy
# cells, and a rerun to leave every shard log byte-identical.
set -u

# In the sweep and shard modes, no process of the soak — supervisor,
# dispatcher, pool or worker; the forks share the command line, which names
# the soak's $WORK — may outlive the phase that started it. Waits up to 5 s
# for the kernel to finish killed process groups, then kills what is left
# and fails the soak.
assert_none_left() {
  local left="" i
  for i in $(seq 1 50); do
    left=$(pgrep -f -- "$WORK/" | tr '\n' ' ')
    [[ -z "$left" ]] && return 0
    sleep 0.1
  done
  note "$1: processes left running: $left"
  pkill -9 -f -- "$WORK/"
  fail=1
}

if [[ "${1:-}" == "--sweep" ]]; then
  shift
  BIN=${1:?usage: crash_soak.sh --sweep <run_sweep-binary> [supervisor_kills]}
  KILLS=${2:-5}
  RANDOM=${CRASH_SOAK_SEED:-1994}

  WORK=$(mktemp -d "${TMPDIR:-/tmp}/sweep_soak.XXXXXX")
  trap 'rm -rf "$WORK"' EXIT

  # 18 cells: 3 queues x 3 Hurst x 2 utilizations. The grid (and so the
  # sweep fingerprint and results hash) is identical in every phase;
  # only fault/limit flags differ, and those must not change one bit.
  GRID=(--queues fluid,cell,fbm --hursts 0.7,0.8,0.9 --utilizations 0.8,0.95
        --buffers-ms 10 --sources 2 --frames 2048 --seed 1994)
  CELLS=18
  FAULTS=(--fault-rate 1 --fault-seed 42 --mem-mib 512 --deadline-sec 2)
  # One shard covering the whole grid, one pool. A killed sweep leaves its
  # lease behind, and the rerun steals it once it is --lease-ttl old.
  SWEEP=(--shards 1 --pools 1 --lease-ttl 2 --heartbeat 0.3)

  fail=0
  note() { echo "sweep_soak: $*"; }

  # Phase 1: fault-free reference.
  t0=$(date +%s%N)
  "$BIN" --shard-dir "$WORK/ref.d" "${SWEEP[@]}" "${GRID[@]}" --deadline-sec 30 \
    --hash-out "$WORK/ref.hash" --quiet >/dev/null || {
    note "reference sweep failed" >&2
    exit 1
  }
  t1=$(date +%s%N)
  window_ms=$(((t1 - t0) / 1000000))
  ((window_ms < 50)) && window_ms=50
  note "reference $(cat "$WORK/ref.hash") ($CELLS cells, ~${window_ms}ms)"

  # Phase 2: every cell's first attempt faults (crash/hang/OOM mix). With
  # one attempt per cell nothing can heal, so every cell must end
  # quarantined: the faults fire. With the default three attempts the
  # retried sweep must be bit-identical to the reference.
  out=$("$BIN" --shard-dir "$WORK/unhealed.d" "${SWEEP[@]}" "${GRID[@]}" "${FAULTS[@]}" \
    --attempts 1 --quiet) || { note "one-attempt fault run FAILED"; fail=1; }
  faulted=$(awk '/^quarantined/{print $2}' <<<"$out")
  if [[ "$faulted" != "$CELLS" ]]; then
    note "one-attempt fault run quarantined ${faulted:-0} of $CELLS cells (need all)"
    fail=1
  fi
  "$BIN" --shard-dir "$WORK/faulted.d" "${SWEEP[@]}" "${GRID[@]}" "${FAULTS[@]}" \
    --hash-out "$WORK/faulted.hash" --quiet >/dev/null || { note "fault run FAILED"; fail=1; }
  if cmp -s "$WORK/ref.hash" "$WORK/faulted.hash"; then
    note "worker faults: ${faulted:-0} fired, all healed by retry, hash identical"
  else
    note "worker faults: HASH MISMATCH after retries"
    fail=1
  fi

  # Phase 3: hang a worker from the outside. SIGSTOP the first live worker
  # we can catch; the pool's watchdog must SIGKILL it and the cell must
  # heal (rerun in a fresh worker, or retried). The dispatcher forks the
  # pool and the pool forks the worker, so the worker is the dispatcher's
  # grandchild; a stopped pool would hang the soak. One worker serves the
  # whole sweep, but the sweep takes only tens of milliseconds, so it can
  # still finish before the polling loop lands a SIGSTOP; such a run, if
  # it succeeded, proves nothing and is started again in an empty
  # directory, up to five times.
  stopped=""
  for attempt in 1 2 3 4 5; do
    rm -rf "$WORK/stopped.d" "$WORK/stopped.hash"
    "$BIN" --shard-dir "$WORK/stopped.d" "${SWEEP[@]}" "${GRID[@]}" --deadline-sec 2 \
      --hash-out "$WORK/stopped.hash" --quiet >/dev/null 2>&1 &
    sup=$!
    while kill -0 "$sup" 2>/dev/null; do
      worker=""
      pool=$(pgrep -P "$sup" | head -1)
      [[ -n "$pool" ]] && worker=$(pgrep -P "$pool" | head -1)
      if [[ -n "$worker" ]] && kill -STOP "$worker" 2>/dev/null; then
        stopped=$worker
        break
      fi
    done
    wait "$sup"
    sup_rc=$?
    [[ -n "$stopped" || $sup_rc -ne 0 ]] && break
  done
  if [[ -z "$stopped" ]]; then
    note "never caught a worker to SIGSTOP (sweep too fast?, rc=$sup_rc)"
    fail=1
  elif ((sup_rc != 0)); then
    note "supervisor died after external SIGSTOP (rc=$sup_rc)"
    fail=1
  elif cmp -s "$WORK/ref.hash" "$WORK/stopped.hash"; then
    note "external SIGSTOP of worker $stopped: watchdog fired, hash identical"
  else
    note "external SIGSTOP: HASH MISMATCH"
    fail=1
  fi
  assert_none_left "phase 3"

  # Phase 4: SIGKILL the whole sweep (dispatcher, pool and worker: its
  # process group) mid-run, rerun the same command, compare. The rerun
  # waits out the dead pool's lease (--lease-ttl) before it steals it.
  for i in $(seq 1 "$KILLS"); do
    rm -rf "$WORK/run.d" "$WORK/run.hash"
    delay_ms=$((RANDOM % window_ms))
    setsid "$BIN" --shard-dir "$WORK/run.d" "${SWEEP[@]}" "${GRID[@]}" "${FAULTS[@]}" \
      --fault-kinds crash,oom --hash-out "$WORK/run.hash" --quiet >/dev/null 2>&1 &
    pid=$!
    sleep "$(awk "BEGIN{printf \"%.3f\", $delay_ms / 1000}")"
    if kill -9 -- "-$pid" 2>/dev/null; then outcome=killed; else outcome=completed; fi
    wait "$pid" 2>/dev/null

    if ! "$BIN" --shard-dir "$WORK/run.d" "${SWEEP[@]}" "${GRID[@]}" "${FAULTS[@]}" \
      --fault-kinds crash,oom --hash-out "$WORK/run.hash" --quiet >/dev/null; then
      note "iter $i (delay ${delay_ms}ms, $outcome): resume FAILED"
      fail=1
      continue
    fi
    if cmp -s "$WORK/ref.hash" "$WORK/run.hash"; then
      note "iter $i (delay ${delay_ms}ms, $outcome): identical"
    else
      note "iter $i (delay ${delay_ms}ms, $outcome): HASH MISMATCH"
      fail=1
    fi
  done
  assert_none_left "phase 4"

  # Phase 5: poison cells fail deterministically every attempt; they must be
  # quarantined in the log while every healthy cell completes. A rerun
  # must salvage the whole record set, quarantine included, without
  # re-running or appending anything: first of the finished directory, then
  # with its done markers removed (a pool killed after its last append), so
  # the rerun replays the log. Each leaves every shard log byte-identical
  # and prints the same report.
  POISON=(--shard-dir "$WORK/poison.d" "${SWEEP[@]}" "${GRID[@]}" --deadline-sec 30
          --poison 2,7 --quiet)
  out=$("$BIN" "${POISON[@]}") || { note "poison sweep FAILED (rc=$?)"; fail=1; }
  quarantined=$(awk '/^quarantined/{print $2}' <<<"$out")
  completed=$(awk '/^completed/{print $2}' <<<"$out")
  if [[ "$quarantined" == 2 && "$completed" == $((CELLS - 2)) ]]; then
    note "poison: 2 quarantined, $completed healthy cells unblocked"
  else
    note "poison: expected 2 quarantined / $((CELLS - 2)) done, got ${quarantined:-?} / ${completed:-?}"
    fail=1
  fi
  mkdir -p "$WORK/poison.logs"
  cp "$WORK"/poison.d/shard_*.log "$WORK/poison.logs/"
  for rerun in finished unmarked; do
    [[ "$rerun" == unmarked ]] && rm -f "$WORK"/poison.d/shard_*.done
    again=$("$BIN" "${POISON[@]}") || { note "poison rerun ($rerun) FAILED"; fail=1; }
    same=1
    for log in "$WORK"/poison.logs/shard_*.log; do
      cmp -s "$log" "$WORK/poison.d/${log##*/}" || same=0
    done
    if ((same)) && [[ "$again" == "$out" ]]; then
      note "poison rerun ($rerun): all $CELLS records salvaged, every shard log byte-identical"
    else
      note "poison rerun ($rerun): shard log changed or report differs"
      fail=1
    fi
  done

  if ((fail)); then
    note "FAILED (seed ${CRASH_SOAK_SEED:-1994})" >&2
  else
    note "${faulted:-0} worker faults + 1 external SIGSTOP + $KILLS supervisor kills: all bit-identical"
  fi
  exit $fail
fi

if [[ "${1:-}" == "--shard" ]]; then
  shift
  BIN=${1:?usage: crash_soak.sh --shard <run_sweep-binary> [dispatcher_kills] [pools] [shards] [hurst_steps]}
  KILLS=${2:-5}
  POOLS=${3:-4}
  SHARDS=${4:-8}
  HURST_STEPS=${5:-6}
  RANDOM=${CRASH_SOAK_SEED:-1994}

  WORK=$(mktemp -d "${TMPDIR:-/tmp}/shard_soak.XXXXXX")
  trap 'rm -rf "$WORK"' EXIT

  # Grid scale is driven by the Hurst axis: hurst_steps x 4 utilizations x
  # 2 buffers x 2 source counts = 16 cells per step. hurst_steps=6 keeps
  # the ctest smoke fast; hurst_steps=6250 is the 10^5-cell acceptance run
  # (the CSV stays ~56 KiB, inside the kernel's 128 KiB per-argument cap —
  # the Hurst axis alone cannot reach 10^5 steps through argv).
  HURSTS=$(awk -v n="$HURST_STEPS" 'BEGIN {
    for (i = 0; i < n; i++) printf "%s%.6f", (i ? "," : ""), 0.55 + 0.4 * i / n }')
  GRID=(--queues fluid --hursts "$HURSTS" --utilizations 0.8,0.85,0.9,0.95
        --buffers-ms 5,20 --sources 1,2 --frames 64 --seed 1994)
  CELLS=$((HURST_STEPS * 16))
  SHARDED=(--shard-dir "$WORK/sweep" --shards "$SHARDS" --pools "$POOLS"
           --lease-ttl 2 --heartbeat 0.3)

  fail=0
  note() { echo "shard_soak: $*"; }

  # Rerun a sharded sweep until it completes: exit 3 means injected (or
  # real) pool deaths outran the survivors and a rerun resumes from the
  # per-shard logs. Any other nonzero exit is a hard failure. DURABLE holds
  # --durable on the kill iterations that exercise the fsync paths.
  DURABLE=()
  run_until_complete() {
    local tries=0 rc
    while :; do
      "$BIN" "${SHARDED[@]}" "${GRID[@]}" ${DURABLE[@]+"${DURABLE[@]}"} "$@" \
        --quiet >/dev/null 2>&1
      rc=$?
      ((rc == 0)) && return 0
      ((rc != 3)) && return "$rc"
      # Injected faults only on the first attempt; resume fault-free.
      set -- --hash-out "$WORK/run.hash"
      ((++tries >= 10)) && return 3
    done
  }

  # Phase 1: fault-free reference, one shard and one pool.
  t0=$(date +%s%N)
  "$BIN" --shard-dir "$WORK/ref.d" --shards 1 --pools 1 "${GRID[@]}" \
    --hash-out "$WORK/ref.hash" --quiet >/dev/null || {
    note "reference sweep failed" >&2
    exit 1
  }
  t1=$(date +%s%N)
  window_ms=$(((t1 - t0) / 1000000))
  ((window_ms < 50)) && window_ms=50
  note "reference $(cat "$WORK/ref.hash") ($CELLS cells, ~${window_ms}ms)"
  assert_none_left "phase 1"

  # Phase 2: injected pool faults — SIGKILL two pools mid-shard with torn
  # log tails, plus one duplicate claim — healed by stealing and replay to
  # the exact reference hash.
  if run_until_complete --kill-pool "0:3,1:7" --torn-tail --duplicate-claim 2 \
    --hash-out "$WORK/run.hash" && cmp -s "$WORK/ref.hash" "$WORK/run.hash"; then
    note "pool kills + torn tails + duplicate claim: healed, hash identical"
  else
    note "pool faults: FAILED (rc or hash mismatch)"
    fail=1
  fi
  assert_none_left "phase 2"

  # Phase 3: SIGKILL the whole dispatcher process group (dispatcher AND all
  # its pools — a machine death) at a random instant, then rerun the same
  # command: survivors-from-disk only. Every resume must reproduce the
  # reference hash. Every other iteration runs --durable (killed run and
  # resume alike), so the fsynced logs and markers must hash the same as
  # the plain reference.
  for i in $(seq 1 "$KILLS"); do
    rm -rf "$WORK/sweep" "$WORK/run.hash"
    delay_ms=$((RANDOM % window_ms))
    if ((i % 2 == 0)); then DURABLE=(--durable); mode=durable; else DURABLE=(); mode=plain; fi
    setsid "$BIN" "${SHARDED[@]}" "${GRID[@]}" ${DURABLE[@]+"${DURABLE[@]}"} \
      --hash-out "$WORK/run.hash" --quiet >/dev/null 2>&1 &
    pid=$!
    sleep "$(awk "BEGIN{printf \"%.3f\", $delay_ms / 1000}")"
    if kill -9 -- "-$pid" 2>/dev/null; then outcome=killed; else outcome=completed; fi
    wait "$pid" 2>/dev/null

    if ! run_until_complete --hash-out "$WORK/run.hash"; then
      note "iter $i (delay ${delay_ms}ms, $mode, $outcome): resume FAILED"
      fail=1
      continue
    fi
    if cmp -s "$WORK/ref.hash" "$WORK/run.hash"; then
      note "iter $i (delay ${delay_ms}ms, $mode, $outcome): identical"
    else
      note "iter $i (delay ${delay_ms}ms, $mode, $outcome): HASH MISMATCH"
      fail=1
    fi
  done
  assert_none_left "phase 3"

  # Phase 4: a different grid against the same sweep directory must fail
  # fast, naming both fingerprints — never silently mix two sweeps.
  err=$("$BIN" "${SHARDED[@]}" "${GRID[@]}" --seed 4991 --quiet 2>&1 >/dev/null)
  rc=$?
  if ((rc == 1)) && grep -q "fingerprint" <<<"$err"; then
    note "mismatched grid rejected: ${err##*run_sweep: }"
  else
    note "mismatched grid NOT rejected (rc=$rc): $err"
    fail=1
  fi
  assert_none_left "phase 4"

  if ((fail)); then
    note "FAILED (seed ${CRASH_SOAK_SEED:-1994})" >&2
  else
    note "2 pool kills + $KILLS dispatcher kills (every other one durable) across $POOLS pools / $SHARDS shards: all bit-identical"
  fi
  exit $fail
fi

if [[ "${1:-}" == "--service" ]]; then
  shift
  OVERLOAD=0
  if [[ "${1:-}" == "--overload" ]]; then
    OVERLOAD=1
    shift
  fi
  BIN=${1:?usage: crash_soak.sh --service [--overload] <serve_traffic-binary> [kills] [streams] [samples]}
  KILLS=${2:-10}
  STREAMS=${3:-64}
  SAMPLES=${4:-16384}
  RANDOM=${CRASH_SOAK_SEED:-1994}

  WORK=$(mktemp -d "${TMPDIR:-/tmp}/service_soak.XXXXXX")
  trap 'rm -rf "$WORK"' EXIT

  # Checkpoint every other round so a random SIGKILL usually lands between
  # a save and the next — the resume path that matters.
  common=(--streams "$STREAMS" --samples "$SAMPLES" --block 256 --checkpoint-every 2
          --queue-capacity 8e6 --queue-buffer 4e6)

  t0=$(date +%s%N)
  "$BIN" "${common[@]}" --checkpoint "$WORK/ref.ckpt" --hash-out "$WORK/ref.hash" \
    >/dev/null || {
    echo "service_soak: reference run failed" >&2
    exit 1
  }
  t1=$(date +%s%N)
  window_ms=$(((t1 - t0) / 1000000))
  ((window_ms < 50)) && window_ms=50
  echo "service_soak: reference $(cat "$WORK/ref.hash") (~${window_ms}ms, $STREAMS streams)"

  fail=0
  for i in $(seq 1 "$KILLS"); do
    rm -f "$WORK"/run.*
    delay_ms=$((RANDOM % window_ms))
    "$BIN" "${common[@]}" --checkpoint "$WORK/run.ckpt" --hash-out "$WORK/run.hash" \
      >/dev/null 2>&1 &
    pid=$!
    sleep "$(awk "BEGIN{printf \"%.3f\", $delay_ms / 1000}")"
    if kill -9 "$pid" 2>/dev/null; then outcome=killed; else outcome=completed; fi
    wait "$pid" 2>/dev/null

    if ! "$BIN" "${common[@]}" --checkpoint "$WORK/run.ckpt" --resume \
      --hash-out "$WORK/run.hash" >/dev/null; then
      echo "service_soak: iter $i (delay ${delay_ms}ms, $outcome): resume FAILED"
      fail=1
      continue
    fi
    if cmp -s "$WORK/ref.hash" "$WORK/run.hash"; then
      echo "service_soak: iter $i (delay ${delay_ms}ms, $outcome): identical"
    else
      echo "service_soak: iter $i (delay ${delay_ms}ms, $outcome): HASH MISMATCH"
      fail=1
    fi
  done

  if ((OVERLOAD)); then
    # Overload phase: the governed run quarantines two streams on a seeded
    # schedule and walks the pressure ladder (shed at 1/3, degraded block at
    # 1/2, recovery at 7/8 of the run). The degraded-mode hash is the
    # reference every torture below must reproduce.
    GOV=(--stream-fault "1@$((SAMPLES / 2)):permanent"
         --stream-fault "3@$((SAMPLES / 4)):transient:3"
         --pressure "$((SAMPLES / 3)):1" --pressure "$((SAMPLES / 2)):2"
         --pressure "$((SAMPLES - SAMPLES / 8)):0" --shed-fraction 0.25)

    out=$("$BIN" "${common[@]}" "${GOV[@]}" --checkpoint "$WORK/oref.ckpt" \
      --hash-out "$WORK/oref.hash" --json 2>/dev/null) || {
      echo "service_soak: governed reference run failed" >&2
      exit 1
    }
    failures=$(grep -o '"kind":' <<<"$out" | wc -l)
    if ((failures != 2)); then
      echo "service_soak: overload: expected exactly 2 StreamFailure records, got $failures"
      fail=1
    fi
    echo "service_soak: overload reference $(cat "$WORK/oref.hash") ($failures streams quarantined)"

    # SIGKILL inside the degraded window (the ladder is active through the
    # middle of the run), resume with the same governor flags, compare.
    for i in $(seq 1 "$KILLS"); do
      rm -f "$WORK"/orun.*
      delay_ms=$((window_ms / 3 + RANDOM % (window_ms / 2 + 1)))
      "$BIN" "${common[@]}" "${GOV[@]}" --checkpoint "$WORK/orun.ckpt" \
        --hash-out "$WORK/orun.hash" >/dev/null 2>&1 &
      pid=$!
      sleep "$(awk "BEGIN{printf \"%.3f\", $delay_ms / 1000}")"
      if kill -9 "$pid" 2>/dev/null; then outcome=killed; else outcome=completed; fi
      wait "$pid" 2>/dev/null

      if ! "$BIN" "${common[@]}" "${GOV[@]}" --checkpoint "$WORK/orun.ckpt" --resume \
        --hash-out "$WORK/orun.hash" >/dev/null 2>&1; then
        echo "service_soak: overload iter $i (delay ${delay_ms}ms, $outcome): resume FAILED"
        fail=1
        continue
      fi
      if cmp -s "$WORK/oref.hash" "$WORK/orun.hash"; then
        echo "service_soak: overload iter $i (delay ${delay_ms}ms, $outcome): identical"
      else
        echo "service_soak: overload iter $i (delay ${delay_ms}ms, $outcome): HASH MISMATCH"
        fail=1
      fi
    done

    # Mid-run sink I/O fault: must report, checkpoint, and exit 4 (the
    # documented resumable-failure code), and the resume must still land on
    # the governed reference hash.
    rm -f "$WORK"/orun.*
    "$BIN" "${common[@]}" "${GOV[@]}" --checkpoint "$WORK/orun.ckpt" \
      --inject-io-fault 5 >/dev/null 2>&1
    rc=$?
    if ((rc != 4)); then
      echo "service_soak: overload: injected I/O fault exited $rc, want 4"
      fail=1
    fi
    if "$BIN" "${common[@]}" "${GOV[@]}" --checkpoint "$WORK/orun.ckpt" --resume \
      --hash-out "$WORK/orun.hash" >/dev/null 2>&1 &&
      cmp -s "$WORK/oref.hash" "$WORK/orun.hash"; then
      echo "service_soak: overload: injected I/O fault checkpointed, resume identical"
    else
      echo "service_soak: overload: I/O fault resume FAILED or HASH MISMATCH"
      fail=1
    fi
  fi

  if ((fail)); then
    echo "service_soak: FAILED (seed ${CRASH_SOAK_SEED:-1994})" >&2
  elif ((OVERLOAD)); then
    echo "service_soak: $KILLS plain kills + $KILLS degraded-mode kills + 1 injected I/O fault, all resumes bit-identical"
  else
    echo "service_soak: $KILLS kills, all resumes bit-identical"
  fi
  exit $fail
fi

BIN=${1:?usage: crash_soak.sh <run_campaign-binary> [kills] [threads] [sources] [frames]}
KILLS=${2:-20}
THREADS=${3:-4}
SOURCES=${4:-12}
FRAMES=${5:-65536}
RANDOM=${CRASH_SOAK_SEED:-1994}

WORK=$(mktemp -d "${TMPDIR:-/tmp}/crash_soak.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

common=(--sources "$SOURCES" --frames "$FRAMES" --threads "$THREADS" --every 2)

t0=$(date +%s%N)
"$BIN" --trace "$WORK/ref.bin" --checkpoint "$WORK/ref.ckpt" "${common[@]}" \
  --hash-out "$WORK/ref.hash" --sink-out "$WORK/ref.sink" >/dev/null || {
  echo "crash_soak: reference run failed" >&2
  exit 1
}
t1=$(date +%s%N)
window_ms=$(((t1 - t0) / 1000000))
((window_ms < 50)) && window_ms=50
echo "crash_soak: reference $(cat "$WORK/ref.hash") (~${window_ms}ms, threads=$THREADS)"

# Every other iteration runs --durable (killed run and resume alike) against
# the plain reference, so the fsync paths must write the same trace bytes.
fail=0
for i in $(seq 1 "$KILLS"); do
  rm -f "$WORK"/run.*
  delay_ms=$((RANDOM % window_ms))
  if ((i % 2 == 0)); then run=("${common[@]}" --durable); mode=durable; else run=("${common[@]}"); mode=plain; fi
  "$BIN" --trace "$WORK/run.bin" --checkpoint "$WORK/run.ckpt" "${run[@]}" \
    --hash-out "$WORK/run.hash" --sink-out "$WORK/run.sink" >/dev/null 2>&1 &
  pid=$!
  sleep "$(awk "BEGIN{printf \"%.3f\", $delay_ms / 1000}")"
  if kill -9 "$pid" 2>/dev/null; then outcome=killed; else outcome=completed; fi
  wait "$pid" 2>/dev/null

  if ! "$BIN" --trace "$WORK/run.bin" --checkpoint "$WORK/run.ckpt" "${run[@]}" \
    --resume --hash-out "$WORK/run.hash" --sink-out "$WORK/run.sink" >/dev/null; then
    echo "crash_soak: iter $i (delay ${delay_ms}ms, $mode, $outcome): resume FAILED"
    fail=1
    continue
  fi
  if cmp -s "$WORK/ref.hash" "$WORK/run.hash" &&
    cmp -s "$WORK/ref.sink" "$WORK/run.sink" &&
    cmp -s "$WORK/ref.bin" "$WORK/run.bin"; then
    echo "crash_soak: iter $i (delay ${delay_ms}ms, $mode, $outcome): identical"
  else
    echo "crash_soak: iter $i (delay ${delay_ms}ms, $mode, $outcome): ARTIFACT MISMATCH"
    fail=1
  fi
done

if ((fail)); then
  echo "crash_soak: FAILED (seed ${CRASH_SOAK_SEED:-1994})" >&2
else
  echo "crash_soak: $KILLS kills (every other one durable), all resumes bit-identical"
fi
exit $fail
