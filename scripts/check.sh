#!/usr/bin/env bash
# check.sh — the repo's correctness gauntlet.
#
#   ./scripts/check.sh            # every stage, in order
#   ./scripts/check.sh --tier1    # configure + build + ctest (canonical gate)
#   ./scripts/check.sh --asan     # full ctest under ASan+UBSan
#   ./scripts/check.sh --tsan     # engine/fft/generator/campaign tests, the
#                                 # engine tap, and the service
#                                 # scheduler/governor cases under TSan
#   ./scripts/check.sh --analyze  # vbr_analyze over the full tree (build the
#                                 # analyzer, zero findings required)
#   ./scripts/check.sh --lint     # vbr_analyze + clang-tidy (if installed)
#   ./scripts/check.sh --reach    # link-time audit: every library function is
#                                 # reached by an example, bench driver,
#                                 # vbr_analyze or perfbench_workload, or is
#                                 # listed in scripts/reachability_allow.txt
#   ./scripts/check.sh --fuzz     # fuzz harness smoke (~12k execs each)
#   ./scripts/check.sh --stream   # stream_analyze on a 2^24-sample trace,
#                                 # peak RSS checked against the 64 MiB bound
#   ./scripts/check.sh --crash    # SIGKILL crash-soak: kill run_campaign at
#                                 # random points, resume, require bit-equal
#                                 # trace hash + sink state (~60 s bound)
#   ./scripts/check.sh --service  # bounded-RSS service soak: 10^6 streaming
#                                 # sources advanced round-robin under a 1 GiB
#                                 # RSS ceiling (VBR_SERVICE_SOAK_SAMPLES=65536
#                                 # runs the full >= 2^16-samples-per-stream
#                                 # endurance form; RSS is per-stream-state
#                                 # dominated, so the smoke depth tests the
#                                 # same memory claim), then a checkpoint save
#                                 # and a --resume under the same ceiling
#
# Stages may be combined (e.g. --tier1 --lint). Tier-1 is the canonical
# gate from ROADMAP.md. The sanitizer stages force hot-loop VBR_DCHECK
# contracts on (see CMakeLists.txt), so instrumented runs exercise both the
# sanitizer and the contract layer; tier-1 stays a plain Release build with
# contracts compiled out, matching what the benchmarks measure.
set -euo pipefail
cd "$(dirname "$0")/.."

run_tier1=0 run_asan=0 run_tsan=0 run_analyze=0 run_lint=0 run_reach=0 run_fuzz=0 run_stream=0 run_crash=0 run_service=0
if [[ $# -eq 0 ]]; then
  run_tier1=1 run_asan=1 run_tsan=1 run_analyze=1 run_lint=1 run_reach=1 run_fuzz=1 run_stream=1 run_crash=1 run_service=1
fi
for arg in "$@"; do
  case "$arg" in
    --tier1)   run_tier1=1 ;;
    --asan)    run_asan=1 ;;
    --tsan)    run_tsan=1 ;;
    --analyze) run_analyze=1 ;;
    --lint)    run_lint=1 ;;
    --reach)   run_reach=1 ;;
    --fuzz)    run_fuzz=1 ;;
    --stream)  run_stream=1 ;;
    --crash)   run_crash=1 ;;
    --service) run_service=1 ;;
    *) echo "unknown stage: $arg (expected --tier1/--asan/--tsan/--analyze/--lint/--reach/--fuzz/--stream/--crash/--service)" >&2
       exit 2 ;;
  esac
done

if [[ $run_tier1 -eq 1 ]]; then
  echo "=== tier-1: configure + build + ctest (Release, contracts off) ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j >/dev/null
  ctest --test-dir build --output-on-failure -j"$(nproc)"
fi

if [[ $run_asan -eq 1 ]]; then
  echo "=== asan: full ctest under -fsanitize=address,undefined ==="
  cmake --preset asan-ubsan >/dev/null
  cmake --build --preset asan-ubsan -j >/dev/null
  ctest --preset asan-ubsan
fi

if [[ $run_tsan -eq 1 ]]; then
  echo "=== tsan: engine + fft + generator + campaign tests, service scheduler + governor under -fsanitize=thread ==="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j \
    --target engine_test fft_test generators_test generator_zoo_test campaign_test \
    streaming_test service_test governor_test >/dev/null
  ./build-tsan/tests/engine_test
  # The campaign's committer (tap merge, trace append, hash) beside the
  # generating workers, and the engine tap merged while a batch generates.
  ./build-tsan/tests/campaign_test --gtest_filter='CampaignTest.*'
  ./build-tsan/tests/streaming_test --gtest_filter='EngineTapTest.*'
  ./build-tsan/tests/fft_test
  ./build-tsan/tests/generators_test
  # Paxson and Davies-Harte share fft.cpp's unpack-table cache across the
  # engine's workers.
  ./build-tsan/tests/generator_zoo_test --gtest_filter='GeneratorZooEngineTest.*'
  # The round scheduler's chunk claims and merge, and the governed rounds: the
  # multi-threaded service cases, not the single-stream statistics.
  ./build-tsan/tests/service_test --gtest_filter='TrafficServiceTest.*:TrafficSchedulerTest.*'
  ./build-tsan/tests/governor_test \
    --gtest_filter='FaultIsolationTest.*:DegradationTest.*:GovernorCheckpointTest.*'
fi

if [[ $run_analyze -eq 1 ]]; then
  echo "=== analyze: vbr_analyze over the full tree (zero findings required) ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j --target vbr_analyze >/dev/null
  ./build/tools/vbr_analyze/vbr_analyze --root .
  python3 tests/analyzer_fixtures/run_fixtures.py ./build/tools/vbr_analyze/vbr_analyze
fi

if [[ $run_lint -eq 1 ]]; then
  echo "=== lint: domain rules (vbr_analyze) + clang-tidy ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j --target vbr_analyze >/dev/null
  ./build/tools/vbr_analyze/vbr_analyze --root .
  ./scripts/tidy.sh
fi

if [[ $run_reach -eq 1 ]]; then
  echo "=== reach: every library function has a production caller (or a listed reason) ==="
  # -O0 keeps every call a call, and one section per function lets the linker
  # drop each function no production binary reaches. Tests stay off: a
  # function only they call is what the audit looks for. perfbench is built
  # as its own package, as the benchmark builds it.
  reach_flags=(-DCMAKE_BUILD_TYPE=Release "-DCMAKE_CXX_FLAGS_RELEASE=-O0 -DNDEBUG"
               "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
               "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
  cmake -B build-reach/tree -S . "${reach_flags[@]}" -DVBR_BUILD_TESTS=OFF >/dev/null
  cmake --build build-reach/tree -j"$(nproc)" >/dev/null
  cmake -B build-reach/perfbench -S perfbench "${reach_flags[@]}" >/dev/null
  cmake --build build-reach/perfbench -j"$(nproc)" >/dev/null
  python3 scripts/audit_reachability.py --allow scripts/reachability_allow.txt build-reach
fi

if [[ $run_fuzz -eq 1 ]]; then
  echo "=== fuzz: harness smoke (deterministic, ~12k execs each) ==="
  cmake --preset fuzz >/dev/null
  cmake --build --preset fuzz -j >/dev/null
  # -runs=/-seed= is libFuzzer's flag spelling; the GCC standalone driver
  # accepts the same flags, so this line works with either toolchain.
  for pair in huffman_decode:huffman rle_decode:rle stream_reader:stream_reader \
              checkpoint:checkpoint \
              sweep_result_log:sweep_result_log \
              generation_plan:generation_plan \
              service_checkpoint:service_checkpoint; do
    harness="${pair%%:*}" corpus="${pair##*:}"
    ./build-fuzz/fuzz/fuzz_"$harness" fuzz/corpus/"$corpus" -runs=12000 -seed=1
  done
fi

if [[ $run_stream -eq 1 ]]; then
  echo "=== stream: 2^24-sample one-pass analysis under the 64 MiB RSS bound ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j --target stream_analyze >/dev/null
  stream_trace="$(mktemp /tmp/vbr_stream_check.XXXXXX.bin)"
  trap 'rm -f "$stream_trace"' EXIT
  # Generation is a separate process so its (block-sized) footprint does not
  # count against the analyzer's RSS measurement.
  ./build/examples/stream_analyze --generate "$stream_trace" $((1 << 24))
  ./build/examples/stream_analyze "$stream_trace" --max-rss-mib 64
  rm -f "$stream_trace"
fi

if [[ $run_crash -eq 1 ]]; then
  echo "=== crash: SIGKILL soak — resume must be bit-identical ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j --target run_campaign >/dev/null
  # 20 kill points per thread count; each iteration is one aborted run plus
  # one resumed run of 12 x 65536 frames, keeping the stage near a minute.
  for threads in 1 4; do
    ./scripts/crash_soak.sh ./build/examples/run_campaign 20 "$threads"
  done
  echo "=== crash: sweep soak — worker faults, SIGSTOP, supervisor kills ==="
  cmake --build build -j --target run_sweep >/dev/null
  ./scripts/crash_soak.sh --sweep ./build/examples/run_sweep 5
  echo "=== crash: shard soak — pool kills, torn tails, stolen leases, dispatcher kills ==="
  ./scripts/crash_soak.sh --shard ./build/examples/run_sweep 5 4 8 50
  echo "=== crash: service soak — SIGKILL serve_traffic (plain + degraded mode), resume must be bit-identical ==="
  cmake --build build -j --target serve_traffic >/dev/null
  ./scripts/crash_soak.sh --service --overload ./build/examples/serve_traffic 10
fi

if [[ $run_service -eq 1 ]]; then
  echo "=== service: 10^6-stream round-robin soak under the 1 GiB RSS ceiling ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j --target serve_traffic >/dev/null
  # Per-stream state at the default hosking horizon (64-sample ring + Rng +
  # wrapper) measures ~0.85 KiB, so 10^6 streams fit a documented 1 GiB
  # ceiling with headroom; serve_traffic exits 3 if the ceiling is pierced.
  # The smoke depth (64 samples/stream = 6.4e7 samples) exercises every
  # stream past its ring-fill transient; RSS is independent of depth, so
  # the full >= 2^16-samples-per-stream endurance run tests the same bound:
  #   VBR_SERVICE_SOAK_SAMPLES=65536 ./scripts/check.sh --service
  ./build/examples/serve_traffic --streams 1000000 \
    --samples "${VBR_SERVICE_SOAK_SAMPLES:-64}" --block 32 \
    --max-rss-mib 1024 --json
  # Checkpoints fit the same ceiling: a save streams one chunk of records
  # per worker into the file and a load verifies, then parses, straight
  # from it, so neither holds a second copy of the fleet. Save, then resume
  # from the ~680 MB file and save again.
  service_ckpt_dir="$(mktemp -d /tmp/vbr_service_check.XXXXXX)"
  trap 'rm -rf "$service_ckpt_dir" "${stream_trace:-}"' EXIT
  ./build/examples/serve_traffic --streams 1000000 --samples 64 --block 32 \
    --checkpoint "$service_ckpt_dir/soak.ckpt" --max-rss-mib 1024 --json
  ./build/examples/serve_traffic --streams 1000000 --samples 128 --block 32 \
    --checkpoint "$service_ckpt_dir/soak.ckpt" --resume --max-rss-mib 1024 --json
fi

echo "=== all requested checks OK ==="
