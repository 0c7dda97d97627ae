#!/usr/bin/env python3
"""Schema smoke-check for the recorded BENCH_*.json artifacts.

CI runs each bench at reduced scale and then this script, so a refactor
that silently drops a field, emits malformed JSON, or records an
out-of-domain number fails the build — the recorded artifacts in results/
and any downstream plotting stay parseable. The schema is dispatched on the
document's own name field, so one entry point covers every bench:

    python3 scripts/check_bench_schema.py path/to/BENCH_generator_pareto.json
    python3 scripts/check_bench_schema.py path/to/BENCH_engine_scaling.json
    python3 scripts/check_bench_schema.py path/to/BENCH_service.json
    python3 scripts/check_bench_schema.py path/to/BENCH_sweep_shard.json
    python3 scripts/check_bench_schema.py path/to/BENCH_stream.json
"""
import json
import sys


def fail(msg):
    print(f"schema check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def check_number(obj, key, lo=None, hi=None, ctx=""):
    require(key in obj, f"missing key '{key}' {ctx}")
    v = obj[key]
    require(isinstance(v, (int, float)) and not isinstance(v, bool),
            f"'{key}' is not a number {ctx}")
    if lo is not None:
        require(v >= lo, f"'{key}' = {v} below {lo} {ctx}")
    if hi is not None:
        require(v <= hi, f"'{key}' = {v} above {hi} {ctx}")
    return v


def check_hash(obj, key, ctx=""):
    v = obj.get(key)
    require(isinstance(v, str) and len(v) == 16
            and all(c in "0123456789abcdef" for c in v),
            f"'{key}' is not a 16-hex-digit hash {ctx}")
    return v


# The scaling gate: on a host with at least four hardware threads, four
# workers must generate a recorded-scale run (16 sources of 2^17 frames or
# more) at least 3x faster than one. Below four hardware threads a 4-thread
# row measures contention, not scaling; below the recorded scale (CI's smoke
# run of 4 x 8192 frames) it measures thread start-up.
SCALING_MIN_HARDWARE = 4
SCALING_MIN_FRAMES = 16 * 131072
SCALING_MIN_SPEEDUP = 3.0


def check_engine_thread_scaling(doc, results):
    if doc["hardware_concurrency"] < SCALING_MIN_HARDWARE:
        return
    if doc["sources"] * doc["frames_per_source"] < SCALING_MIN_FRAMES:
        return
    require(results[0]["threads"] == 1, "the first row must be the 1-thread baseline")
    four = [row for row in results if row["threads"] == 4]
    require(four, "no 4-thread row on a host with >= 4 hardware threads")
    require(four[0]["speedup_vs_first"] >= SCALING_MIN_SPEEDUP,
            f"4-thread speedup {four[0]['speedup_vs_first']} below "
            f"{SCALING_MIN_SPEEDUP} on {doc['hardware_concurrency']} hardware threads")


def check_engine_scaling(doc):
    """BENCH_engine_scaling.json: thread-scaling + determinism witness."""
    require(doc.get("contracts") in ("on", "off"), "contracts must be on/off")
    check_number(doc, "sources", lo=1)
    check_number(doc, "frames_per_source", lo=1)
    check_number(doc, "hardware_concurrency", lo=1)
    results = doc.get("results")
    require(isinstance(results, list) and results,
            "'results' must be a non-empty list")
    hashes = set()
    for row in results:
        ctx = f"(threads {row.get('threads')})"
        check_number(row, "threads", lo=1, ctx=ctx)
        check_number(row, "threads_used", lo=1, ctx=ctx)
        check_number(row, "wall_seconds", lo=0.0, ctx=ctx)
        check_number(row, "frames_per_second", lo=1.0, ctx=ctx)
        check_number(row, "bytes_per_second", lo=0.0, ctx=ctx)
        check_number(row, "speedup_vs_first", lo=0.0, ctx=ctx)
        hashes.add(check_hash(row, "trace_hash", ctx=ctx))
    require(isinstance(doc.get("bit_identical_across_thread_counts"), bool),
            "'bit_identical_across_thread_counts' not bool")
    require(doc["bit_identical_across_thread_counts"],
            "recorded run was not bit-identical across thread counts")
    require(len(hashes) == 1, "trace hashes differ across thread counts")
    check_engine_thread_scaling(doc, results)
    ck = doc.get("checkpoint_overhead")
    require(isinstance(ck, dict), "missing 'checkpoint_overhead' object")
    check_number(ck, "plain_seconds", lo=0.0)
    check_number(ck, "checkpointed_seconds", lo=0.0)
    check_number(ck, "overhead_fraction", lo=-1.0)
    check_number(ck, "checkpoint_every_sources", lo=1)
    # One pair cannot resolve the 5% budget; the fraction is a median.
    check_number(ck, "pairs", lo=5)
    check_number(ck, "overhead_fraction_min", lo=-1.0)
    check_number(ck, "overhead_fraction_max", lo=-1.0)
    require(ck["overhead_fraction_min"] <= ck["overhead_fraction"] <= ck["overhead_fraction_max"],
            "checkpoint overhead median lies outside its recorded min and max")
    print(f"schema check OK: {sys.argv[1]} ({len(results)} thread counts)")


def check_service(doc):
    """BENCH_service.json: streaming-service throughput + footprint."""
    require(doc.get("contracts") in ("on", "off"), "contracts must be on/off")
    streams = check_number(doc, "streams", lo=1)
    check_number(doc, "samples_per_stream", lo=1)
    check_number(doc, "block", lo=1)
    require(doc.get("backend") in ("hosking", "paxson", "onoff"),
            f"unknown backend {doc.get('backend')}")
    check_number(doc, "hosking_horizon", lo=1)
    check_number(doc, "hardware_concurrency", lo=1)
    isa = doc.get("kernel_isa")
    require(isa in ("baseline", "avx2"), f"unknown kernel_isa {isa}")
    lanes = check_number(doc, "lockstep_lanes", lo=1)
    require(lanes == (16 if isa == "avx2" else 8),
            f"lockstep_lanes = {lanes} does not match kernel_isa {isa}")
    kernel = doc.get("kernel")
    require(isinstance(kernel, dict), "missing 'kernel' object")
    check_number(kernel, "block", lo=1, ctx="(kernel)")
    check_number(kernel, "threads", lo=1, hi=1, ctx="(kernel)")
    check_number(kernel, "lockstep_ns_per_sample", lo=0.0, ctx="(kernel)")
    check_number(kernel, "single_lane_ns_per_sample", lo=0.0, ctx="(kernel)")
    results = doc.get("results")
    require(isinstance(results, list) and results,
            "'results' must be a non-empty list")
    hashes = set()
    for row in results:
        ctx = f"(threads {row.get('threads')})"
        check_number(row, "threads", lo=1, ctx=ctx)
        check_number(row, "build_seconds", lo=0.0, ctx=ctx)
        check_number(row, "streams_per_second_build", lo=0.0, ctx=ctx)
        check_number(row, "serve_seconds", lo=0.0, ctx=ctx)
        check_number(row, "samples_per_second", lo=1.0, ctx=ctx)
        check_number(row, "speedup_vs_first", lo=0.0, ctx=ctx)
        hashes.add(check_hash(row, "results_hash", ctx=ctx))
    require(len(hashes) == 1, "results hashes differ across thread counts")
    require(isinstance(doc.get("bit_identical_across_thread_counts"), bool),
            "'bit_identical_across_thread_counts' not bool")
    require(doc["bit_identical_across_thread_counts"],
            "recorded run was not bit-identical across thread counts")
    ck = doc.get("checkpoint")
    require(isinstance(ck, dict), "missing 'checkpoint' object")
    check_number(ck, "save_seconds", lo=0.0)
    check_number(ck, "load_seconds", lo=0.0)
    require(ck.get("hash_match") is True, "checkpoint round-trip hash mismatch")
    ov = doc.get("overload")
    require(isinstance(ov, dict), "missing 'overload' object")
    check_number(ov, "plain_seconds", lo=0.0)
    check_number(ov, "guarded_seconds", lo=0.0)
    # The always-snapshot guard costs something but must stay sane; a
    # recorded 3x slowdown means the isolation path regressed.
    check_number(ov, "quarantine_overhead_fraction", lo=-0.5, hi=2.0)
    # The crossing round minus a typical same-size round: the shed's own
    # cost, which may read slightly negative because the crossing round
    # serves the shed streams only up to the epoch.
    check_number(ov, "shed_round_excess_seconds")
    check_number(ov, "streams_served_under_pressure", lo=1)
    failures = check_number(ov, "stream_failures", lo=0)
    expected = check_number(ov, "expected_stream_failures", lo=1)
    require(failures == expected,
            f"seeded fault schedule produced {failures} StreamFailure records, "
            f"expected exactly {expected}")
    check_number(ov, "transient_retries", lo=0)
    check_hash(ov, "results_hash", ctx="(overload)")
    require(ov.get("hash_match") is True,
            "degraded-mode results hash not invariant across thread counts")
    check_number(doc, "build_seconds", lo=0.0)
    check_number(doc, "serve_rss_mib", lo=0.0)
    check_number(doc, "peak_rss_mib", lo=0.0)
    per_million = check_number(doc, "rss_mib_per_million_streams", lo=0.0)
    # The bounded-memory contract at recorded scale (normalized from the
    # serve-phase RSS, one live fleet): at >= 2^18 streams the fixed
    # process overhead is amortized and per-stream state dominates, so the
    # normalized footprint must stay inside the documented 1 GiB/10^6
    # ceiling check.sh --service enforces.
    if streams >= (1 << 18):
        require(per_million <= 1024.0,
                f"rss_mib_per_million_streams = {per_million} above the 1 GiB ceiling")
        # The checkpoint phase holds two fleets, the saved service and the
        # restored one, and no payload-sized buffer: a save streams a chunk
        # per worker and a load parses straight from the file. A buffered
        # payload would add most of a third fleet.
        serve = doc["serve_rss_mib"]
        require(doc["peak_rss_mib"] <= 2.5 * serve,
                f"peak_rss_mib = {doc['peak_rss_mib']} above 2.5x the serving fleet "
                f"({serve} MiB): a checkpoint holds a payload-sized buffer")
    print(f"schema check OK: {sys.argv[1]} ({len(results)} thread counts, "
          f"{streams} streams)")


# The Paxson contract: cold-cache Paxson at least 2x faster than cold-cache
# Davies-Harte at 2^17 frames. Both run on one irfft; Paxson transforms n
# points where Davies-Harte transforms 2n, and draws half the normals.
PAXSON_SPEEDUP_MIN = 2.0


def check_generator_pareto(doc):
    require(doc.get("bench") == "generator_pareto", "bench name mismatch")
    require(doc.get("contracts") in ("on", "off"), "contracts must be on/off")
    check_number(doc, "hardware_concurrency", lo=1)
    check_number(doc, "frames", lo=1)
    check_number(doc, "reps", lo=1)
    check_number(doc, "fidelity_frames", lo=32)
    check_number(doc, "timing_hurst", lo=0.0, hi=1.0)

    gens = doc.get("generators")
    require(isinstance(gens, list) and gens, "'generators' must be a non-empty list")
    names = [g.get("name") for g in gens]
    require(len(set(names)) == len(names), "duplicate generator names")
    expected = {"davies-harte", "hosking", "paxson", "onoff"}
    require(expected <= set(names),
            f"zoo registry incomplete: missing {expected - set(names)}")

    for g in gens:
        ctx = f"(generator {g.get('name')})"
        require(isinstance(g.get("exact"), bool), f"'exact' not bool {ctx}")
        require(g.get("covariance") in ("farima", "fgn"), f"bad covariance {ctx}")
        require(isinstance(g.get("pareto_optimal"), bool),
                f"'pareto_optimal' not bool {ctx}")
        check_number(g, "timing_frames", lo=1, ctx=ctx)
        check_number(g, "fidelity_frames", lo=32, ctx=ctx)
        check_number(g, "cold_ms_median", lo=0.0, ctx=ctx)
        check_number(g, "warm_ms_median", lo=0.0, ctx=ctx)
        check_number(g, "frames_per_second_cold", lo=1, ctx=ctx)
        check_number(g, "max_whittle_error", lo=0.0, hi=1.0, ctx=ctx)
        check_number(g, "max_gaussian_ks", lo=0.0, hi=1.0, ctx=ctx)
        check_number(g, "max_acf_rms_error", lo=0.0, ctx=ctx)
        fid = g.get("fidelity")
        require(isinstance(fid, list) and len(fid) == 3,
                f"'fidelity' must list the three H targets {ctx}")
        targets = []
        for row in fid:
            targets.append(check_number(row, "target_hurst", lo=0.0, hi=1.0, ctx=ctx))
            check_number(row, "whittle_hurst", lo=0.0, hi=1.0, ctx=ctx)
            check_number(row, "vt_hurst", lo=0.0, hi=1.5, ctx=ctx)
            check_number(row, "gaussian_ks", lo=0.0, hi=1.0, ctx=ctx)
            check_number(row, "acf_rms_error", lo=0.0, ctx=ctx)
            check_number(row, "sample_variance", lo=0.0, ctx=ctx)
        require(targets == [0.6, 0.75, 0.9], f"unexpected H grid {targets} {ctx}")

    require(any(g["pareto_optimal"] for g in gens),
            "no generator marked pareto_optimal — the front cannot be empty")

    c = doc.get("constraints")
    require(isinstance(c, dict), "missing 'constraints' object")
    require(isinstance(c.get("enforced"), bool), "'enforced' not bool")
    # An artifact may not record a weaker contract than PAXSON_SPEEDUP_MIN,
    # and at full scale its speedup is checked here, not taken from its bool.
    speedup_min = check_number(c, "paxson_speedup_min", lo=PAXSON_SPEEDUP_MIN)
    speedup = check_number(c, "paxson_cold_speedup", lo=0.0)
    check_number(c, "whittle_tolerance", lo=0.0, hi=1.0)
    require(isinstance(c.get("paxson_speedup_ok"), bool), "'paxson_speedup_ok' not bool")
    require(isinstance(c.get("paxson_whittle_ok"), bool), "'paxson_whittle_ok' not bool")
    if c["enforced"]:
        require(speedup >= speedup_min,
                f"paxson cold speedup {speedup} below the enforced {speedup_min}")
        require(c["paxson_speedup_ok"] and c["paxson_whittle_ok"],
                "enforced constraints recorded as failing")

    print(f"schema check OK: {sys.argv[1]} ({len(gens)} generators)")


# The pool gate: at a recorded-scale sweep (512 cells or more) on a host
# with at least two hardware threads, no multi-pool row may run at less
# than half the single-pool rate. A pool that idles a full heartbeat-capped
# sleep past the sweep's last shard read 0.12 here; smaller sweeps (CI's
# 128-cell smoke run) finish in a few milliseconds and measure fork start-up.
POOL_GATE_MIN_CELLS = 512
POOL_GATE_MIN_HARDWARE = 2
POOL_GATE_MIN_SPEEDUP = 0.5


# The sweep pin: the merged results hash of bench_sweep_shard's grid at its
# recorded scale (512 cells, seed 1994). CI's 128-cell smoke has its own.
SWEEP_PIN_CELLS = 512
SWEEP_PIN_HASH = "4e04a0333ae3cd5b"


def check_sweep_pool_scaling(doc, pools):
    if doc["sweep_cells"] < POOL_GATE_MIN_CELLS:
        return
    if doc["hardware_concurrency"] < POOL_GATE_MIN_HARDWARE:
        return
    for row in pools:
        if row["pools"] < 2:
            continue
        require(row["speedup_vs_first"] >= POOL_GATE_MIN_SPEEDUP,
                f"{row['pools']}-pool speedup {row['speedup_vs_first']} below "
                f"{POOL_GATE_MIN_SPEEDUP} on a {doc['sweep_cells']}-cell sweep")


def check_sweep_shard(doc):
    """BENCH_sweep_shard.json: checkpoint I/O + steal latency + pool scaling."""
    require(doc.get("contracts") in ("on", "off"), "contracts must be on/off")
    check_number(doc, "hardware_concurrency", lo=1)

    io = doc.get("checkpoint_io")
    require(isinstance(io, list) and io, "'checkpoint_io' must be a non-empty list")
    prev_cells = 0
    for row in io:
        ctx = f"(cells {row.get('cells')})"
        cells = check_number(row, "cells", lo=1, ctx=ctx)
        require(cells > prev_cells, f"'cells' must be strictly increasing {ctx}")
        prev_cells = cells
        check_number(row, "log_append_bytes", lo=1, ctx=ctx)
        check_number(row, "log_append_bytes_per_cell", lo=1.0, ctx=ctx)
        check_number(row, "log_append_seconds", lo=0.0, ctx=ctx)
    require(isinstance(doc.get("log_bytes_per_cell_flat"), bool),
            "'log_bytes_per_cell_flat' not bool")
    # The tentpole claim: checkpoint cost per settled cell is O(1) for the
    # append-only log. The bench exits nonzero when this fails, so a recorded
    # artifact carrying false means someone pasted a broken run.
    require(doc["log_bytes_per_cell_flat"],
            "recorded run shows append-only log cost growing with sweep size")

    steal = doc.get("steal")
    require(isinstance(steal, dict), "missing 'steal' object")
    check_number(steal, "iterations", lo=1)
    check_number(steal, "mean_steal_seconds", lo=0.0)
    check_number(steal, "salvage_records", lo=1)
    check_number(steal, "mean_salvage_seconds", lo=0.0)
    require(steal.get("all_steals_succeeded") is True,
            "recorded run contains failed lease steals")

    check_number(doc, "sweep_cells", lo=1)
    pools = doc.get("pools")
    require(isinstance(pools, list) and pools, "'pools' must be a non-empty list")
    hashes = set()
    modes = set()
    for row in pools:
        ctx = f"(pools {row.get('pools')}, isolate {row.get('isolate')})"
        p = check_number(row, "pools", lo=1, ctx=ctx)
        require(isinstance(row.get("isolate"), bool), f"'isolate' not bool {ctx}")
        modes.add((p, row["isolate"]))
        check_number(row, "shards", lo=p, ctx=ctx)
        check_number(row, "pools_failed", lo=0, hi=0, ctx=ctx)
        check_number(row, "wall_seconds", lo=0.0, ctx=ctx)
        check_number(row, "cells_per_second", lo=0.0, ctx=ctx)
        check_number(row, "speedup_vs_first", lo=0.0, ctx=ctx)
        row_hash = check_hash(row, "results_hash", ctx=ctx)
        hashes.add(row_hash)
        if row["isolate"]:
            check_number(row, "isolation_overhead_ms_per_cell", ctx=ctx)
            # The production path at the recorded grid carries the sweep pin.
            if doc["sweep_cells"] == SWEEP_PIN_CELLS:
                require(row_hash == SWEEP_PIN_HASH,
                        f"isolated results_hash {row_hash} is not the sweep pin "
                        f"{SWEEP_PIN_HASH} {ctx}")
    require({isolate for _, isolate in modes} == {False, True},
            "'pools' needs in-process and isolated rows")
    require(all((p, not isolate) in modes for p, isolate in modes),
            "every pool count needs an in-process and an isolated row")
    require(len(hashes) == 1, "results hashes differ across pool counts or modes")
    require(doc.get("bit_identical_across_pool_counts") is True,
            "recorded run was not bit-identical across pool counts")
    check_sweep_pool_scaling(doc, pools)
    print(f"schema check OK: {sys.argv[1]} ({len(io)} sweep sizes, "
          f"{len(pools)} pool rows)")


def check_stream(doc):
    """BENCH_stream.json: one-pass estimator throughput, sink by sink."""
    require(doc.get("contracts") in ("on", "off"), "contracts must be on/off")
    check_number(doc, "samples", lo=1)
    check_number(doc, "block", lo=1)
    check_number(doc, "acf_max_lag", lo=1)
    check_number(doc, "hardware_concurrency", lo=1)
    results = doc.get("results")
    require(isinstance(results, list) and results,
            "'results' must be a non-empty list")
    sinks = [row.get("sink") for row in results]
    expected = ["moments", "quantiles", "acf", "variance_time", "welch", "chain_all"]
    require(sinks == expected, f"sinks {sinks} are not {expected}")
    for row in results:
        ctx = f"(sink {row.get('sink')})"
        check_number(row, "wall_seconds", lo=0.0, ctx=ctx)
        check_number(row, "samples_per_second", lo=1.0, ctx=ctx)
    print(f"schema check OK: {sys.argv[1]} ({len(results)} sinks)")


def main():
    if len(sys.argv) != 2:
        fail("expected exactly one argument: path to a BENCH_*.json artifact")
    try:
        with open(sys.argv[1]) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {sys.argv[1]}: {e}")

    checkers = {
        "engine_scaling": check_engine_scaling,
        "service": check_service,
        "sweep_shard": check_sweep_shard,
        "stream_throughput": check_stream,
    }
    if doc.get("bench") == "generator_pareto":
        check_generator_pareto(doc)
    elif doc.get("benchmark") in checkers:
        checkers[doc["benchmark"]](doc)
    else:
        fail(f"unrecognized bench document: bench={doc.get('bench')!r} "
             f"benchmark={doc.get('benchmark')!r}")


if __name__ == "__main__":
    main()
