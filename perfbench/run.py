#!/usr/bin/env python3
"""Repository benchmark: build the perfbench program, run one workload, check
its outputs and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --prepare
    python3 perfbench/run.py --workload W --seed 1 --seconds 20 --trace 0 --update-golden

Run from the root of a checkout. The program is built from source into
.bench_build/perfbench (incremental after the first run) and writes its raw
record to .bench_out/. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end set, with --trace 1 the per-layer set of BENCHMARK.json.

--prepare is the untimed preparation step (pretrained checkpoint, calibrated
sigma ladder, GBO schedule) that writes perfbench/artifacts; timed runs fail
when those artifacts are missing or stale. --raw FILE reduces a saved raw
record instead of building and running (used by the tests).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
ARTIFACTS = os.path.join(HERE, "artifacts")
GOLDEN = os.path.join(HERE, "golden.json")

WORKLOADS = ("train", "eval", "serve_analytic", "serve_pulse_slo")
PROGRAM_TIMEOUT_S = 170
# Fixed latency limit of the serve_analytic rate ladder: a rung meets the
# SLO when its tail percentile is at or below this and its backlog is flat.
LATENCY_LIMIT_MS = 10.0
TAIL_PERCENTILES = (99.0, 95.0, 90.0)
KINDS = ("QuantConv2d", "QuantLinear", "BatchNorm2d", "BatchNorm1d",
         "QuantTanh", "MaxPool2d", "Linear")
KERNELS = {"gemm": "tensor.gemm", "binary_mvm": "tensor.binary_mvm",
           "pulse_encode": "encoding.pulse_encode"}


# ---------------------------------------------------------------------------
# Statistics

def nearest_rank(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    s = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def supported(n, p, beyond=10):
    return n > 0 and samples_beyond(n, p) >= beyond


def tail_percentile(n):
    """Highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if supported(n, p):
            return p
    return None


def backlog_growing(latencies_ms):
    """A backlog grows when requests late in the phase wait far longer than
    early ones: the median of the last quarter (in arrival order) exceeds
    twice the first quarter's plus 5 ms."""
    q = len(latencies_ms) // 4
    if q == 0:
        return False
    first = statistics.median(latencies_ms[:q])
    last = statistics.median(latencies_ms[-q:])
    return last > 2.0 * first + 5.0


def slo_rate(rungs, limit_ms=LATENCY_LIMIT_MS):
    """Highest rate r such that every rung up to r meets the limit on its
    tail percentile with no growing backlog; 0 when the lowest rung fails.
    `rungs` are dicts with rate_rps and latency_ms in arrival order."""
    best = 0.0
    for r in sorted(rungs, key=lambda r: r["rate_rps"]):
        lat = r["latency_ms"]
        p = tail_percentile(len(lat))
        if p is None or nearest_rank(lat, p) > limit_ms or backlog_growing(lat):
            break
        best = r["rate_rps"]
    return best


def self_times(spans):
    """Per-name calls, total and self time of nested spans.

    `spans` are (name, tid, start_us, dur_us, work) tuples. On each thread a
    span is the child of the innermost span that contains it; a span's self
    time is its duration minus the part its direct children cover.
    """
    table = {}
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s[1], []).append(s)
    for tid_spans in by_tid.values():
        tid_spans.sort(key=lambda s: (s[2], -s[3]))
        stack = []  # [name, start, end, covered, work]

        def close(entry):
            name, start, end, covered, work = entry
            row = table.setdefault(name, {"calls": 0, "total_us": 0.0,
                                          "self_us": 0.0, "work": 0.0})
            row["calls"] += 1
            row["total_us"] += end - start
            row["self_us"] += max(0.0, (end - start) - covered)
            row["work"] += work

        for name, _tid, start, dur, work in tid_spans:
            end = start + dur
            while stack and stack[-1][2] <= start:
                close(stack.pop())
            if stack and end <= stack[-1][2]:
                stack[-1][3] += dur
            elif stack:
                # Overlaps the enclosing span's end without nesting: charge
                # only the covered part to the parent.
                stack[-1][3] += max(0, stack[-1][2] - start)
            stack.append([name, start, end, 0.0, work])
        while stack:
            close(stack.pop())
    return table


def covered_us(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


# ---------------------------------------------------------------------------
# Golden outputs and checks

def golden_mismatches(outputs, golden):
    """Every key whose value differs from the golden record."""
    bad = []
    for key, want in sorted(golden.items()):
        got = outputs.get(key)
        if got != want:
            bad.append(f"{key}: expected {want!r}, got {got!r}")
    return bad


def load_golden(workload, seed, seconds):
    """The committed golden outputs for (workload, seed, seconds), or None."""
    if not os.path.exists(GOLDEN):
        return None
    with open(GOLDEN) as f:
        doc = json.load(f)
    if seed != doc["seed"] or seconds != doc["seconds"]:
        return None
    return doc["workloads"].get(workload)


def correctness(raw, golden):
    """(ok, messages): the program's self-consistency checks, tracing not
    changing any output, and the golden outputs when they apply."""
    msgs = [f"check failed: {c['name']}" for c in raw["checks"] if not c["ok"]]
    traced = raw.get("traced")
    if traced:
        msgs += [f"traced check failed: {c['name']}"
                 for c in traced["checks"] if not c["ok"]]
        if traced["outputs"] != raw["outputs"]:
            msgs.append("traced outputs differ from untraced outputs")
    if golden is not None:
        msgs += [f"golden mismatch: {m}"
                 for m in golden_mismatches(raw["outputs"], golden)]
    return not msgs, msgs


# ---------------------------------------------------------------------------
# Metrics

def unit_latencies(raw):
    """Latency samples of the workload's unit of work (ms)."""
    w = raw["workload"]
    if w == "serve_analytic":
        return phase(raw["phases"], "low")["latency_ms"]
    if w == "serve_pulse_slo":
        return phase(raw["phases"], "flash")["latency_ms"]
    return raw["latency_ms"]


def phase(phases, name):
    for p in phases:
        if p["name"] == name:
            return p
    raise KeyError(name)


def throughput(raw):
    """Work per second of the timed phase. A whole-job average: on a shared
    host the speed shifts for seconds at a time, and a median over shorter
    pieces follows whichever speed held the majority of them."""
    w = raw["workload"]
    if w == "serve_analytic":
        return sum(p["delivered"] for p in raw["phases"]) / raw["job_s"]
    if w == "serve_pulse_slo":
        return raw["goodput_rps"]
    return raw["work"] / raw["job_s"]


def capacity(raw):
    """Median throughput of the saturating bursts (serve_analytic)."""
    return statistics.median(p["delivered"] / p["wall_s"] for p in raw["phases"]
                             if p["name"].startswith("burst"))


def end_to_end(raw):
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "job_s": (raw["job_s"], "s"),
        "cpu_s": (raw["cpu_s"], "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "throughput_per_s": (throughput(raw), "1/s"),
    }


def _unit(name):
    if name.endswith("_s") or name.startswith("core.evaluate"):
        return "s"
    if name.endswith("_ms") or ".ms" in name or "_ms." in name:
        return "ms"
    if name.endswith("gflops"):
        return "GFLOP/s"
    if name.endswith("_rps"):
        return "1/s"
    if name.startswith("obs.tracing") or name.startswith("obs.kernel") or \
            name.endswith("_share"):
        return "ratio"
    return "count"


def per_layer_names():
    names = ["core.pretrain.epoch_s", "gbo.train.epoch_s"]
    for k in KINDS:
        names += [f"nn.{k}.forward_ms", f"nn.{k}.backward_ms", f"nn.{k}.infer_ms"]
    names += [f"core.evaluate_noisy.s.{c}" for c in ("baseline", "pla12", "pla16", "gbo")]
    names += ["core.evaluate.s"]
    names += ["tensor.gemm.ms", "tensor.gemm.gflops", "tensor.binary_mvm.ms",
              "tensor.binary_mvm.gflops", "encoding.pulse_encode.ms",
              "encoding.pulse_encode.pulses", "tensor.arena.allocs"]
    names += ["serve.backend_run.ms_per_call", "serve.backend_run.rows_per_call",
              "serve.queue_wait_ms.p50", "serve.queue_wait_ms.p99",
              "serve.mean_batch", "serve.queue.max_depth",
              "job.p50_ms", "job.p90_ms", "serve.p50_ms.high",
              "serve.p95_ms.high", "serve.slo_rate_rps", "serve.capacity_rps",
              "crossbar.pulse_forward.ms_per_row", "serve.plan_ms",
              "serve.slo.primary_share", "serve.slo.served_primary",
              "serve.slo.admitted"]
    names += ["crossbar.deploy_s", "serve.warmup_s", "data.synth_cifar_s",
              "core.checkpoint_load_s"]
    names += ["obs.tracing_overhead", "obs.tracing_overhead_cpu",
              "obs.kernel_coverage", "obs.dropped",
              "serve.generator_late_ms.p99", "serve.generator_late_ms.max"]
    return names


def queue_waits_and_lateness(raw):
    """Per-request queue wait (kAdmit to the kBatch that carried it, joined
    through kBatchMember) and generator lateness (kAdmit time minus due
    time, relative to the least-late request of the phase), pooled over the
    open-loop phases of the traced job (the rate rungs, or the flash crowd;
    saturating bursts are excluded)."""
    t = raw["traced"]
    phase_spans = sorted((s[2], s[2] + s[3], s[0]) for s in t["spans"]
                         if (s[0].startswith("serve.phase.") and
                             not s[0].startswith("serve.phase.burst"))
                         or s[0] == "serve.run_slo")
    due = {p["name"]: p["due_us"] for p in t["phases"]}
    waits, late = [], []
    for start, end, name in phase_spans:
        admit, member, batch = {}, {}, {}
        for kind, _tid, ts, dur, ident, arg in t["events"]:
            if ts < start or ts > end:
                continue
            if kind == "admit":
                admit[ident] = ts
            elif kind == "batch_member":
                member[ident] = arg
            elif kind == "batch":
                batch[ident] = ts
        for rid, seq in member.items():
            if rid in admit and seq in batch:
                waits.append(max(0, batch[seq] - admit[rid]) / 1000.0)
        pname = "flash" if name == "serve.run_slo" else name[len("serve.phase."):]
        d = due.get(pname, [])
        offs = [admit[i] - d[i] for i in range(len(d)) if i in admit]
        if offs:
            base = min(offs)
            late += [(o - base) / 1000.0 for o in offs]
    return waits, late


def per_layer(raw):
    t = raw["traced"]
    vals = {n: 0.0 for n in per_layer_names()}
    for src in (raw["layer"], t["layer"]):
        for k, v in src.items():
            if k in vals:
                vals[k] = float(v)
    # Tails and the rate ladder from the untraced job of this invocation.
    lat = unit_latencies(raw)
    vals["job.p50_ms"] = nearest_rank(lat, 50)
    vals["job.p90_ms"] = nearest_rank(lat, 90)
    if raw["workload"] == "serve_analytic":
        rungs = [p for p in raw["phases"] if not p["name"].startswith("burst")]
        high = phase(raw["phases"], "high")["latency_ms"]
        vals["serve.p50_ms.high"] = nearest_rank(high, 50)
        vals["serve.p95_ms.high"] = nearest_rank(high, 95)
        vals["serve.slo_rate_rps"] = slo_rate(rungs)
        vals["serve.capacity_rps"] = capacity(raw)
    # Kernel spans of the traced job.
    window = (t["job_start_us"], t["job_end_us"])
    kern = {}
    spans_all = [tuple(s) for s in t["spans"]]
    allocs = 0
    kernel_iv = []
    for kind, tid, ts, dur, _ident, arg in t["events"]:
        if kind in KERNELS:
            spans_all.append((KERNELS[kind], tid, ts, dur, float(arg)))
            if window[0] <= ts <= window[1]:
                row = kern.setdefault(kind, [0.0, 0.0])
                row[0] += dur
                row[1] += arg
                kernel_iv.append((ts, ts + dur))
        elif kind in ("batch", "stall"):
            spans_all.append(("serve." + kind, tid, ts, dur, float(arg)))
        elif kind == "arena_alloc" and window[0] <= ts <= window[1]:
            allocs += 1
    for kind, name in KERNELS.items():
        dur_us, work = kern.get(kind, (0.0, 0.0))
        vals[name + ".ms"] = dur_us / 1000.0
        if kind == "pulse_encode":
            vals[name + ".pulses"] = work
        elif dur_us > 0:
            vals[name + ".gflops"] = work / dur_us / 1000.0
    vals["tensor.arena.allocs"] = float(allocs)
    job_us = max(1, window[1] - window[0])
    vals["obs.kernel_coverage"] = covered_us(kernel_iv) / job_us
    vals["obs.tracing_overhead"] = t["job_s"] / raw["job_s"]
    vals["obs.tracing_overhead_cpu"] = t["cpu_s"] / raw["cpu_s"]
    vals["obs.dropped"] = float(t["dropped"])
    if raw["workload"].startswith("serve_"):
        waits, late = queue_waits_and_lateness(raw)
        if waits:
            vals["serve.queue_wait_ms.p50"] = nearest_rank(waits, 50)
            if supported(len(waits), 99):
                vals["serve.queue_wait_ms.p99"] = nearest_rank(waits, 99)
        if late:
            vals["serve.generator_late_ms.max"] = max(late)
            if supported(len(late), 99):
                vals["serve.generator_late_ms.p99"] = nearest_rank(late, 99)
    table = self_times(spans_all)
    return {k: (v, _unit(k)) for k, v in vals.items()}, table


# ---------------------------------------------------------------------------
# Reporting

def format_table(table):
    lines = [f"{'span':44s} {'calls':>7s} {'total_ms':>10s} {'self_ms':>10s} {'GFLOP/s':>8s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["total_us"]):
        gf = ""
        if name in ("tensor.gemm", "tensor.binary_mvm") and row["total_us"] > 0:
            gf = f"{row['work'] / row['total_us'] / 1000.0:8.2f}"
        lines.append(f"{name:44s} {row['calls']:7d} {row['total_us'] / 1000.0:10.2f} "
                     f"{row['self_us'] / 1000.0:10.2f} {gf:>8s}")
    return lines


def reduce(raw, trace, golden):
    """(result dict, report lines, exit code) for one raw record."""
    ok, msgs = correctness(raw, golden)
    lines = [f"workload {raw['workload']} seed {raw['seed']} seconds {raw['seconds']}",
             "machine " + json.dumps(raw["machine"], sort_keys=True),
             f"golden: {'checked' if golden is not None else 'not applicable (seed/seconds differ)'}"]
    for p in raw["phases"]:
        n = len(p["latency_ms"])
        tp = tail_percentile(n)
        lines.append(f"phase {p['name']}: sent {p['sent']} delivered {p['delivered']} "
                     f"failed {p['failed']} mean_batch {p['mean_batch']:.2f} "
                     f"latency samples {n} (tail p{tp})")
    lat = unit_latencies(raw)
    lines.append(f"unit latency samples {len(lat)}; p90 has "
                 f"{samples_beyond(len(lat), 90)} samples beyond it")
    if not supported(len(lat), 90):
        ok = False
        msgs.append("too few latency samples for a supported p90")
    if trace:
        metrics, table = per_layer(raw)
        lines += ["per-layer spans of the traced job:"] + format_table(table)
        if raw["traced"]["dropped"]:
            ok = False
            msgs.append("trace ring dropped events")
    else:
        metrics = end_to_end(raw)
    lines += msgs
    result = {
        "correct": ok,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines, 0 if ok else 1


# ---------------------------------------------------------------------------
# Build and run

def run_logged(cmd, log, **kw):
    with open(log, "a") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, **kw).returncode


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "core", "pipeline.hpp")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            print(f"perfbench: cmake configure failed, see {log}", file=sys.stderr)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", BUILD, "--parallel", jobs], log) != 0:
        print(f"perfbench: build failed, see {log}", file=sys.stderr)
        return None
    return os.path.join(BUILD, "perfbench")


def run_program(exe, args):
    os.makedirs(OUT, exist_ok=True)
    raw_path = os.path.join(OUT, f"raw-{args.workload}-{args.trace}.json")
    if os.path.exists(raw_path):
        os.remove(raw_path)
    env = dict(os.environ, GBO_NUM_THREADS="1", GBO_TRACE="0")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--artifacts", ARTIFACTS, "--out", raw_path]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark program timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(raw_path):
        print(f"perfbench: benchmark program exited with {proc.returncode}", file=sys.stderr)
        return None
    with open(raw_path) as f:
        return json.load(f)


def update_golden(raw):
    doc = {"seed": raw["seed"], "seconds": raw["seconds"], "workloads": {}}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as f:
            doc = json.load(f)
        if doc["seed"] != raw["seed"] or doc["seconds"] != raw["seconds"]:
            raise SystemExit("golden.json is for another seed/seconds")
    doc["workloads"][raw["workload"]] = raw["outputs"]
    with open(GOLDEN, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prepare", action="store_true")
    ap.add_argument("--update-golden", action="store_true")
    ap.add_argument("--raw", help="reduce this saved raw record instead of running")
    args = ap.parse_args(argv)
    if not args.prepare and not args.workload:
        ap.error("--workload is required")

    if args.raw:
        with open(args.raw) as f:
            raw = json.load(f)
    else:
        exe = build()
        if exe is None:
            return 2
        if args.prepare:
            os.makedirs(ARTIFACTS, exist_ok=True)
            return subprocess.run([exe, "--prepare", "--artifacts", ARTIFACTS],
                                  cwd=ROOT).returncode
        raw = run_program(exe, args)
        if raw is None:
            return 1
    if args.update_golden:
        update_golden(raw)
    golden = load_golden(raw["workload"], raw["seed"], raw["seconds"])
    result, lines, code = reduce(raw, args.trace == 1, golden)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
