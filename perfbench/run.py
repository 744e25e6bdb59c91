#!/usr/bin/env python3
"""Builds and runs the protected-DLRM benchmark, checks its outputs and
prints every metric by name with its unit.

    python3 perfbench/run.py --workload dlrm-serve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (the program's library plus the measuring binary) into
.bench_build/perfbench; later runs only rebuild what changed. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it ("detail: ...")
carries the host and noise record and the figures behind each metric.
README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = ("dlrm-serve", "dlrm-offline", "fault-campaign")
LAYERS = ("fc1", "fc2", "fc3")

# A run whose open-loop generator submitted later than this is invalid:
# its latencies would measure the generator, not the program.
MAX_MEDIAN_LATE_MS = 1.0
MAX_WORST_LATE_MS = 1000.0

RUN_TIMEOUT_S = 175.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "protected_cpu_ms": "ms",
    "unprotected_cpu_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {
        "plan.compile_ms": "ms",
        "plan.profiles": "count",
        "session.build_ms": "ms",
        "serving.queue_ms.p50": "ms",
        "serving.queue_ms.p99": "ms",
        "serving.execute_ms.p50": "ms",
        "serving.execute_ms.p99": "ms",
        "serving.batch_size.mean": "requests",
        "serving.queue_depth.max": "requests",
        "executor.run_ms": "ms",
        "executor.deferred_checks": "count",
        "executor.rewinds": "count",
        "executor.flushed_executions": "count",
    }
    for layer in LAYERS:
        units.update({
            "gemm.%s.ms" % layer: "ms",
            "gemm.%s.executed_macs" % layer: "MAC",
            "gemm.%s.useful_macs" % layer: "MAC",
            "gemm.%s.useful_share" % layer: "ratio",
            "gemm.%s.gflops" % layer: "GFLOP/s",
            "gemm.%s.bytes" % layer: "B",
            "gemm.%s.ops_per_byte" % layer: "FLOP/B",
            "check.%s.ms" % layer: "ms",
            "check.%s.other_ms" % layer: "ms",
            "check.%s.share" % layer: "ratio",
        })
    for layer in LAYERS[:-1]:  # no activation after the last layer
        units["act.%s.ms" % layer] = "ms"
    units.update({
        "scratch.misses": "count",
        "campaign.trials": "count",
        "campaign.detected": "count",
        "campaign.recovered": "count",
        "campaign.unrecovered": "count",
        "campaign.masked": "count",
        "campaign.sdc": "count",
        "campaign.reexecutions": "count",
        "campaign.coverage": "ratio",
        "campaign.coverage_base": "count",
        "trace.overhead_pct": "%",
    })
    return units


PER_LAYER_UNITS = per_layer_units()


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
        except OSError as e:
            log("cannot run %s: %s" % (cmd[0], e))
            return False
        if proc.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def steal_ticks():
    """Host-wide steal ticks from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else None
    except (OSError, IndexError, ValueError):
        return None


def median_or_none(values):
    return statistics.median(values) if values else None


def end_to_end(workload, raw):
    """The end-to-end metrics of one untraced run, plus detail figures.

    Throughput is gated as process CPU time per operation, not as
    wall-clock rate: on the shared reference host, wall-clock rates of the
    MLP-Bottom workloads moved by 20-40% between runs minutes apart (each
    tiny GEMM waits on waking a pool thread), while CPU time per operation
    moved by about 5%. Wall-clock rates and latencies are in `detail`.
    """
    s, n = raw["series"], raw["numbers"]
    detail = {}
    if workload == "dlrm-serve":
        prot_cpu = median_or_none(s.get("protected_cpu_ms"))
        unprot_cpu = median_or_none(s.get("unprotected_cpu_ms"))
        prot = median_or_none(s.get("protected_ips"))
        unprot = median_or_none(s.get("unprotected_ips"))
        detail["latency_ms.light"] = stats.summarize(s.get("latency_ms.light", []))
        detail["latency_ms.heavy"] = stats.summarize(s.get("latency_ms.heavy", []))
    elif workload == "dlrm-offline":
        prot_cpu = median_or_none(s.get("protected_cpu_ms"))
        unprot_cpu = median_or_none(s.get("unprotected_cpu_ms"))
        prot = stats.ratio(1000.0, median_or_none(s.get("protected_ms")))
        unprot = stats.ratio(1000.0, median_or_none(s.get("unprotected_ms")))
        detail["inference_ms.protected"] = stats.summarize(s.get("protected_ms", []))
        detail["inference_ms.unprotected"] = stats.summarize(s.get("unprotected_ms", []))
        detail["clean_run_flags"] = n.get("clean_run_flags", 0)
    else:
        trials = n["campaign.trials_per_call"]
        med = {plan: median_or_none(s.get("call_ms." + plan))
               for plan in ("guided", "global", "unprotected")}
        cpu = {plan: median_or_none(s.get("call_cpu_ms." + plan))
               for plan in ("guided", "global", "unprotected")}
        both = (None if None in (cpu["guided"], cpu["global"])
                else cpu["guided"] + cpu["global"])
        prot_cpu = stats.ratio(both, 2.0 * trials)
        unprot_cpu = stats.ratio(cpu["unprotected"], trials)
        wall = (None if None in (med["guided"], med["global"])
                else med["guided"] + med["global"])
        prot = stats.ratio(2000.0 * trials, wall)
        unprot = stats.ratio(1000.0 * trials, med["unprotected"])
        detail["campaign_tps"] = prot
        for plan in ("guided", "global", "unprotected"):
            detail["campaign_tps." + plan] = stats.ratio(1000.0 * trials, med[plan])
            detail["call_ms." + plan] = stats.summarize(s.get("call_ms." + plan, []))
    overhead = stats.ratio(unprot, prot)
    cpu_overhead = stats.ratio(prot_cpu, unprot_cpu)
    detail["protected_ips"] = prot
    detail["unprotected_ips"] = unprot
    detail["protection_overhead_pct"] = {
        "wall": None if overhead is None else (overhead - 1.0) * 100.0,
        "wall_base": "unprotected_ips / protected_ips - 1",
        "cpu": None if cpu_overhead is None else (cpu_overhead - 1.0) * 100.0,
        "cpu_base": "protected_cpu_ms / unprotected_cpu_ms - 1",
    }
    metrics = {
        "setup_s": median_or_none(s.get("setup_s")),
        "protected_cpu_ms": prot_cpu,
        "unprotected_cpu_ms": unprot_cpu,
        "peak_rss_mb": n.get("peak_rss_mb"),
    }
    return metrics, detail


def per_layer(workload, raw):
    """The per-layer metrics of one traced run, plus detail figures."""
    s, n = raw["series"], raw["numbers"]
    span_ms = stats.self_time_ms_by_name(raw["spans"])
    m = {
        "plan.compile_ms": span_ms.get("plan.compile"),
        "plan.profiles": n.get("plan.profiles"),
        "session.build_ms": span_ms.get("session.build"),
        "executor.run_ms": span_ms.get("executor.run"),
        "executor.deferred_checks": n.get("executor.deferred_checks"),
        "executor.rewinds": n.get("executor.rewinds"),
        "executor.flushed_executions": n.get("executor.flushed_executions"),
        "scratch.misses": n.get("scratch.misses"),
    }
    # Layers a workload does not exercise read 0: no request was served
    # on dlrm-offline and fault-campaign, no campaign ran on the others.
    serving = workload == "dlrm-serve"
    for key in ("queue_ms", "execute_ms"):
        xs = s.get("serving." + key, [])
        m["serving.%s.p50" % key] = stats.percentile(xs, 50.0) if serving else 0
        supported = stats.tail_percentile(len(xs)) in (99.0, 99.9)
        m["serving.%s.p99" % key] = (stats.percentile(xs, 99.0)
                                     if serving and supported else
                                     (None if serving else 0))
    m["serving.batch_size.mean"] = n.get("serving.batch_size.mean", 0)
    m["serving.queue_depth.max"] = n.get("serving.queue_depth.max", 0)

    for layer in LAYERS:
        g = "gemm.%s." % layer
        mm, nn, kk = n.get(g + "m"), n.get(g + "n"), n.get(g + "k")
        useful = None if None in (mm, nn, kk) else mm * nn * kk
        executed = n.get(g + "executed_macs")
        gemm_ms = span_ms.get("gemm." + layer)
        nbytes = stats.gemm_bytes(mm, nn, kk)
        check_ms = span_ms.get("check." + layer)
        m.update({
            g + "ms": gemm_ms,
            g + "executed_macs": executed,
            g + "useful_macs": useful,
            g + "useful_share": stats.ratio(useful, executed),
            g + "gflops": stats.gflops(useful, gemm_ms),
            g + "bytes": nbytes,
            g + "ops_per_byte": stats.ops_per_byte(
                None if useful is None else 2 * useful, nbytes),
            "check.%s.ms" % layer: check_ms,
            "check.%s.other_ms" % layer: span_ms.get("check_other." + layer),
            "check.%s.share" % layer: stats.ratio(check_ms, gemm_ms),
        })
    for layer in LAYERS[:-1]:
        m["act.%s.ms" % layer] = span_ms.get("act." + layer)

    campaign = workload == "fault-campaign"
    for key in ("trials", "detected", "recovered", "unrecovered", "masked",
                "sdc", "reexecutions"):
        m["campaign." + key] = n.get("campaign." + key, 0)
    base = m["campaign.trials"] - m["campaign.masked"]
    m["campaign.coverage_base"] = base
    m["campaign.coverage"] = stats.ratio(m["campaign.detected"], base) if campaign else 0

    if workload == "dlrm-serve":
        traced = median_or_none(s.get("traced_ips"))
        untraced = median_or_none(s.get("untraced_ips"))
        slowdown = stats.ratio(untraced, traced)
    else:
        traced = median_or_none(s.get("traced_ms"))
        untraced = median_or_none(s.get("untraced_ms"))
        slowdown = stats.ratio(traced, untraced)
    m["trace.overhead_pct"] = None if slowdown is None else (slowdown - 1.0) * 100.0
    detail = {
        "trace.overhead_base": {"traced": traced, "untraced": untraced,
                                "unit": "1/s" if workload == "dlrm-serve" else "ms"},
        "computed_from_tensor_sizes": ["gemm.*.bytes", "gemm.*.ops_per_byte"],
        "spans": len(raw["spans"]),
    }
    return m, detail


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1

    # One pool worker: with the calling thread, the open-loop generator and
    # the serving batcher that is four threads, within nproc on the 4-vCPU
    # reference host. A second worker left MLP-Bottom's tiny GEMMs waiting
    # on pool dispatch and made run-to-run figures bimodal (README.md).
    cores = os.cpu_count() or 1
    env = dict(os.environ)
    env["AIFT_NUM_THREADS"] = "1"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    steal_before = steal_ticks()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        log("run exceeded %g s" % RUN_TIMEOUT_S)
        return 1
    steal_after = steal_ticks()
    if proc.returncode != 0:
        log("measuring binary exited with %d" % proc.returncode)
        return 1
    raw = json.loads(proc.stdout)

    late = raw["series"].get("generator_late_ms", [])
    text = raw["text"]
    host = {
        "cores": cores,
        "cpu_flags": text.get("cpu_flags"),
        "compiler": text.get("compiler"),
        "build_type": text.get("build_type"),
        "AIFT_NUM_THREADS": env["AIFT_NUM_THREADS"],
        "pool_workers": raw["numbers"].get("pool_workers"),
        "steal_ticks": (None if None in (steal_before, steal_after)
                        else steal_after - steal_before),
        "generator_late_ms": {
            "median": median_or_none(late), "worst": max(late) if late else None,
            "bound_median": MAX_MEDIAN_LATE_MS, "bound_worst": MAX_WORST_LATE_MS,
        },
    }
    plans = {k: v for k, v in raw["numbers"].items() if k.startswith("plan.")
             and k.endswith("overhead_pct")}
    plans.update({k: v for k, v in text.items() if k.startswith("plan.")})

    if args.trace:
        values, detail = per_layer(args.workload, raw)
        units = PER_LAYER_UNITS
    else:
        values, detail = end_to_end(args.workload, raw)
        units = END_TO_END_UNITS
    detail.update({"workload": args.workload, "seed": args.seed, "host": host,
                   "plans": plans, "failures": raw["failures"]})
    print("detail: " + json.dumps(detail, sort_keys=True))

    if late and (statistics.median(late) > MAX_MEDIAN_LATE_MS
                 or max(late) > MAX_WORST_LATE_MS):
        log("invalid run: the load generator ran late beyond its bound "
            "(median %.3f ms, worst %.3f ms)" % (statistics.median(late), max(late)))
        return 3

    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
