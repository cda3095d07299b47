#!/usr/bin/env python3
"""Structural gate check over bench JSON artifacts (BENCH_mvm / BENCH_serve).

Machine-independent CI gating: wall-clock numbers vary wildly across
runners, but the bitwise-equality and steady-state gates must exist and
hold everywhere.

For BENCH_mvm*.json files, every section below must be present with its
boolean gates true ("bitwise_match" unless named otherwise):

    gemm_packed             packed-panel GEMM == unpacked blocked GEMM
    gemm_prepacked          cached prepacked weight panels == fresh pack,
                            and one repack per weight version
    conv_direct             fused conv training step (y, dX, dW, bias
                            grad) == im2col -> GEMM -> col2im route
    eval_trials             trial-parallel noisy eval == sequential oracle
    pulse_mvm               fused pulse sweep == per-pulse reference
    pulse_mvm_device_model  same, with read noise / ADC / variation on
    gemm_binary             int8 level-code MVM == float oracle,
                            dispatched micro-kernel == scalar, dispatched
                            A-side encoders == scalar (encoder_match), and
                            one int8 sign pack per weight version
                            (repack_once)
    activations             threshold QuantTanh == quantize_value(tanh(x))
                            (tanh_match only)
    normals                 dispatched and scalar batched Box-Muller fills
                            == sequential normal() (normal_match only)

For BENCH_serve*.json files ("bench": "serve"), the document-level
"gates_ok" must be true and every scenario (any object carrying a
"backend" key) must satisfy:

    bitwise_1_vs_n_workers  payloads identical at 1 and N workers
    batching_invariant      payloads identical at max_batch and unit batches
    arena_steady_state      zero arena heap allocations in steady state
    zero_steady_packs       zero weight packs / binarizations in steady
                            state (the frozen-weight caches, DESIGN.md §6)
    zero_steady_binary_packs  zero binary int8 sign repacks in steady
                            state (the version-stamped panel cache, §8)
    noisy_fused             stochastic scenarios fused micro-batches on
                            per-sample RNG streams (where present)

Every serve and serve_slo scenario must additionally carry a "trace"
section (DESIGN.md S9) with enabled=true and:

    causal_match_1_vs_n     the causal event fingerprint is identical at 1
                            and N workers
    causal_matches_oracle   ... and equals the planner-derived oracle
    no_drops                no trace ring overflowed (dropped == 0)
    zero_steady_ring_allocs tracing allocated no ring memory during the
                            measured steady-state run

and its causal_fingerprint must be identical for the same scenario across
ALL artifacts passed in one invocation (the cross-pool half of the causal
determinism contract, exactly like the shed-set fingerprints). Serve
documents must also record the dispatched binary kernel and the CPUID
feature string (binary_kernel / cpu_features) like BENCH_mvm.json.

For BENCH_serve_slo*.json files ("bench": "serve_slo"), the SLO control
plane's overload/fault contract (DESIGN.md S7) is gated: every scenario
must satisfy

    slo_payload_match       delivered payloads bitwise identical 1 vs N
                            workers
    shed_set_deterministic  the runtime's shed-set fingerprint equals the
                            virtual-time planner's, at both worker counts
    zero_late_success       no served request completed past its deadline
    p99_bounded             served virtual p99 <= the deadline
    no_lost_requests        every planned-served request was delivered
    ladder_recovered        full fidelity restored after the flash crowd
    overload_exercised      the burst actually shed and degraded work
    faults_retried          transients retried to success, the outage fell
                            back and tripped the breaker

and, across ALL serve_slo files passed in one invocation (CI passes the
1-thread and 4-thread artifacts together), each scenario's plan and exec
shed-set fingerprints must be identical — the cross-pool half of the
shed-set determinism contract.

For BENCH_serve_router*.json files ("bench": "serve_router"), the
multi-replica routing contract (DESIGN.md S10) is gated: the document's
"sharded_mvm" section must show the column-sharded crossbar sweep bitwise
equal to the unsharded one at both the engine and the deployed-network
level, and every router scenario must satisfy

    router_payload_match    payloads bitwise identical at 1 and N workers
                            per replica
    routing_deterministic   the runtime routing hash equals route_plan()'s
    replica_sheds_match     every replica's executed shed set == its
                            plan row's fingerprint
    replica_zero_allocs     no replica arena grew during the measured run
    fleet_shed_match        the fleet shed-set union == the plan's
    no_lost_requests        every planned-served request was delivered
    outage_rerouted         the downed replica received zero traffic
    autoscale_bounded       the active count stayed within policy bounds
    overload_exercised      the flash actually shed work fleet-wide

plus per-replica structural checks (exec shed hash == plan shed hash,
steady_allocs == 0), and — across ALL serve_router files in one
invocation — identical routing hashes, fleet shed hashes, and per-replica
shed fingerprints (the cross-pool half of the routing determinism
contract).

For BENCH_serve_swap*.json files ("bench": "serve_swap"), the hot-swap
rollout contract (DESIGN.md S11) is gated: every swap leg (the clean
promote and the seeded-faulty rollback) must satisfy

    swap_payload_match      payloads, per-request versions, and the
                            provenance hash identical at 1 and N workers
    zero_dropped_by_swap    the swap changed no shed decision — exec shed
                            fingerprint == the version-blind plan's
    provenance_exact        every delivered row bitwise equals the pinned
                            single-version run it was attributed to
    verdict_exercised       promote: all replicas cut over; rollback: the
                            breaker opened and the canary cut back
    swap_zero_allocs        no replica arena grew during the swap run
    swap_zero_packs         prepack-before-cutover — zero packs and
                            binarizations through the live cutover

plus structural checks (runtime swap ledger hashes == the plan's), and —
across ALL serve_swap files in one invocation — identical provenance
hashes, shed hashes, and verdicts (the cross-pool half of the swap
determinism contract).

It also prints trajectory tables (markdown, suitable for
$GITHUB_STEP_SUMMARY) so the perf and prepack numbers ride along without
gating on them.

Usage: check_bench_gates.py BENCH_mvm.json [BENCH_serve.json ...]
"""
import json
import sys

# Boolean gates every BENCH_mvm section must carry as true.
SECTION_GATES = {
    "gemm_packed": ["bitwise_match"],
    "gemm_prepacked": ["bitwise_match"],
    "conv_direct": ["bitwise_match"],
    "eval_trials": ["bitwise_match"],
    "pulse_mvm": ["bitwise_match"],
    "pulse_mvm_device_model": ["bitwise_match"],
    "pulse_mvm_n6": ["bitwise_match"],
    "pulse_mvm_n10": ["bitwise_match"],
    "pulse_mvm_n14": ["bitwise_match"],
    "pulse_mvm_fallback": ["bitwise_match", "fallback_taken"],
    "gemm_binary": ["bitwise_match", "repack_once", "encoder_match"],
    "activations": ["tanh_match"],
    "normals": ["normal_match"],
}

# Non-boolean keys that must be present (documenting what ran), e.g. the
# dispatched micro-kernel name in the CI artifact.
SECTION_REQUIRED_KEYS = {
    "gemm_binary": ["kernel", "cpu_features"],
    "normals": ["kernel"],
}

SERVE_SCENARIO_GATES = [
    "bitwise_1_vs_n_workers",
    "batching_invariant",
    "arena_steady_state",
    "zero_steady_packs",
    "zero_steady_binary_packs",
]

TRACE_GATES = [
    "causal_match_1_vs_n",
    "causal_matches_oracle",
    "no_drops",
    "zero_steady_ring_allocs",
]

# Doc-level keys every serve/serve_slo artifact must record (what hardware
# path actually ran), mirroring SECTION_REQUIRED_KEYS for gemm_binary.
SERVE_REQUIRED_DOC_KEYS = ["binary_kernel", "cpu_features"]

SERVE_ROUTER_GATES = [
    "router_payload_match",
    "routing_deterministic",
    "replica_sheds_match",
    "replica_zero_allocs",
    "fleet_shed_match",
    "no_lost_requests",
    "outage_rerouted",
    "autoscale_bounded",
    "overload_exercised",
]

SHARDED_MVM_GATES = [
    "engine_bitwise_sharded_vs_unsharded",
    "network_bitwise_sharded_vs_unsharded",
]

SERVE_SWAP_GATES = [
    "swap_payload_match",
    "zero_dropped_by_swap",
    "provenance_exact",
    "verdict_exercised",
    "swap_zero_allocs",
    "swap_zero_packs",
]

SERVE_SLO_GATES = [
    "slo_payload_match",
    "shed_set_deterministic",
    "zero_late_success",
    "p99_bounded",
    "no_lost_requests",
    "ladder_recovered",
    "overload_exercised",
    "faults_retried",
]

# (section, sub, key, label) rows for the kernel trajectory table; missing
# keys are skipped so older artifacts still render.
TRAJECTORY = [
    ("gemm", "nn", "gflops_naive", "gemm nn naive"),
    ("gemm", "nn", "gflops_blocked_1t", "gemm nn dispatch 1t"),
    ("gemm_packed", None, "gflops_unpacked_1t", "gemm unpacked 1t"),
    ("gemm_packed", None, "gflops_packed_1t", "gemm packed 1t"),
    ("gemm_packed", None, "gflops_packed_mt", "gemm packed mt"),
    ("gemm_packed", None, "speedup_packed_1t", "packed/unpacked 1t (x)"),
    ("gemm_prepacked", None, "gflops_cached_1t", "gemm prepacked cached 1t"),
    ("gemm_prepacked", None, "pack_overhead_ms", "pack overhead (ms)"),
    ("gemm_prepacked", None, "speedup_cached_vs_cold_1t",
     "cached/cold pack (x)"),
    ("conv_direct", None, "gflops_reference_1t", "conv step im2col 1t"),
    ("conv_direct", None, "gflops_fused_1t", "conv step fused 1t"),
    ("conv_direct", None, "fused_over_reference_1t",
     "conv step fused/im2col time 1t"),
    ("gemm_binary", None, "gflops_binary_cached_1t", "binary mvm cached 1t"),
    ("gemm_binary", None, "speedup_binary_vs_float_1t",
     "binary/float packed 1t (x)"),
    ("gemm_binary", None, "t_pack_1t",
     "binary A-side level-code pass 1t (us)"),
    ("gemm_binary", None, "pack_share_1t", "binary encode share 1t"),
    ("gemm_binary", None, "speedup_cached_vs_cold_1t",
     "binary cached/cold pack (x)"),
    ("activations", None, "speedup_threshold_vs_libm",
     "QuantTanh thresholds/libm (x)"),
    ("normals", None, "speedup_dispatched_vs_scalar",
     "normals dispatched/scalar Box-Muller (x)"),
    ("normals", None, "fallback_rate", "normals guard recompute rate"),
    ("pulse_mvm", None, "speedup_fused", "pulse fused/reference (x)"),
    ("eval_trials", None, "trials_per_sec_mt", "eval trials/s mt"),
]


def check_mvm(path, doc):
    failures = []
    for section, gates in SECTION_GATES.items():
        node = doc.get(section)
        if not isinstance(node, dict):
            failures.append(f"{path}: section '{section}' missing")
            continue
        for gate in gates:
            if node.get(gate) is not True:
                failures.append(
                    f"{path}: {section}.{gate} is {node.get(gate)!r}, "
                    "expected true")
        for key in SECTION_REQUIRED_KEYS.get(section, []):
            if not node.get(key):
                failures.append(f"{path}: {section}.{key} missing or empty")
    return failures


def serve_scenarios(doc):
    return [(name, node) for name, node in doc.items()
            if isinstance(node, dict) and "backend" in node]


def check_trace(path, name, node, trace_fingerprints):
    """Gates one scenario's "trace" section (DESIGN.md S9)."""
    failures = []
    tr = node.get("trace")
    if not isinstance(tr, dict):
        failures.append(f"{path}: {name}.trace section missing")
        return failures
    if tr.get("enabled") is not True:
        failures.append(
            f"{path}: {name}.trace.enabled is {tr.get('enabled')!r} "
            "(artifact produced without tracing; CI artifacts must trace)")
        return failures
    for gate in TRACE_GATES:
        if tr.get(gate) is not True:
            failures.append(
                f"{path}: {name}.trace.{gate} is {tr.get(gate)!r}, "
                "expected true")
    if tr.get("dropped") != 0:
        failures.append(
            f"{path}: {name}.trace.dropped is {tr.get('dropped')!r}, "
            "expected 0")
    if tr.get("steady_ring_allocs") != 0:
        failures.append(
            f"{path}: {name}.trace.steady_ring_allocs is "
            f"{tr.get('steady_ring_allocs')!r}, expected 0")
    fp = tr.get("causal_fingerprint")
    if not fp:
        failures.append(f"{path}: {name}.trace.causal_fingerprint missing")
    else:
        # Cross-file equality demanded in main(): the same scenario must
        # hash identically in every artifact (1t and 4t pools).
        trace_fingerprints.setdefault(name, []).append((path, fp))
    return failures


def check_serve_doc_keys(path, doc):
    return [f"{path}: doc.{key} missing or empty"
            for key in SERVE_REQUIRED_DOC_KEYS if not doc.get(key)]


def check_serve(path, doc, trace_fingerprints):
    failures = check_serve_doc_keys(path, doc)
    if doc.get("gates_ok") is not True:
        failures.append(f"{path}: gates_ok is {doc.get('gates_ok')!r}")
    scenarios = serve_scenarios(doc)
    if not scenarios:
        failures.append(f"{path}: no serve scenarios found")
    for name, node in scenarios:
        for gate in SERVE_SCENARIO_GATES:
            if node.get(gate) is not True:
                failures.append(
                    f"{path}: {name}.{gate} is {node.get(gate)!r}, "
                    "expected true")
        if "noisy_fused" in node and node["noisy_fused"] is not True:
            failures.append(f"{path}: {name}.noisy_fused is not true")
        failures.extend(check_trace(path, name, node, trace_fingerprints))
    return failures


def check_serve_slo(path, doc, fingerprints, trace_fingerprints):
    failures = check_serve_doc_keys(path, doc)
    if doc.get("gates_ok") is not True:
        failures.append(f"{path}: gates_ok is {doc.get('gates_ok')!r}")
    scenarios = serve_scenarios(doc)
    if not scenarios:
        failures.append(f"{path}: no serve_slo scenarios found")
    for name, node in scenarios:
        for gate in SERVE_SLO_GATES:
            if node.get(gate) is not True:
                failures.append(
                    f"{path}: {name}.{gate} is {node.get(gate)!r}, "
                    "expected true")
        slo = node.get("slo", {})
        plan_hash = slo.get("plan", {}).get("shed_set_hash")
        exec_hash = slo.get("exec", {}).get("shed_set_hash")
        if plan_hash is None or exec_hash is None:
            failures.append(f"{path}: {name} is missing shed-set hashes")
            continue
        if plan_hash != exec_hash:
            failures.append(
                f"{path}: {name} plan hash {plan_hash} != exec hash "
                f"{exec_hash}")
        # Collected for the cross-file (1-thread vs 4-thread pool) equality
        # check in main(): same scenario name => same fingerprint demanded.
        fingerprints.setdefault(name, []).append((path, plan_hash))
        failures.extend(check_trace(path, name, node, trace_fingerprints))
    return failures


def check_serve_router(path, doc, router_fingerprints, trace_fingerprints):
    failures = check_serve_doc_keys(path, doc)
    if doc.get("gates_ok") is not True:
        failures.append(f"{path}: gates_ok is {doc.get('gates_ok')!r}")
    sharded = doc.get("sharded_mvm")
    if not isinstance(sharded, dict):
        failures.append(f"{path}: sharded_mvm section missing")
    else:
        for gate in SHARDED_MVM_GATES:
            if sharded.get(gate) is not True:
                failures.append(
                    f"{path}: sharded_mvm.{gate} is {sharded.get(gate)!r}, "
                    "expected true")
    scenarios = serve_scenarios(doc)
    if not scenarios:
        failures.append(f"{path}: no serve_router scenarios found")
    for name, node in scenarios:
        for gate in SERVE_ROUTER_GATES:
            if node.get(gate) is not True:
                failures.append(
                    f"{path}: {name}.{gate} is {node.get(gate)!r}, "
                    "expected true")
        replica_hashes = []
        for i, rep in enumerate(node.get("replicas", [])):
            plan_hash = rep.get("plan_shed_set_hash")
            exec_hash = rep.get("exec_shed_set_hash")
            if plan_hash is None or exec_hash is None:
                failures.append(
                    f"{path}: {name}.replicas[{i}] missing shed-set hashes")
                continue
            if plan_hash != exec_hash:
                failures.append(
                    f"{path}: {name}.replicas[{i}] plan hash {plan_hash} "
                    f"!= exec hash {exec_hash}")
            if rep.get("steady_allocs") != 0:
                failures.append(
                    f"{path}: {name}.replicas[{i}].steady_allocs is "
                    f"{rep.get('steady_allocs')!r}, expected 0")
            replica_hashes.append(exec_hash)
        routing = node.get("routing_hash")
        fleet = node.get("serve", {}).get("slo", {}).get("exec", {}).get(
            "shed_set_hash")
        if not routing:
            failures.append(f"{path}: {name}.routing_hash missing")
        else:
            # Collected for the cross-file (1-thread vs 4-thread pool)
            # equality check in main(): same scenario name => identical
            # routing hash, fleet shed hash, and per-replica shed hashes.
            router_fingerprints.setdefault(name, []).append(
                (path, (routing, fleet, tuple(replica_hashes))))
        failures.extend(check_trace(path, name, node, trace_fingerprints))
    return failures


def check_serve_swap(path, doc, swap_fingerprints, trace_fingerprints):
    failures = check_serve_doc_keys(path, doc)
    if doc.get("gates_ok") is not True:
        failures.append(f"{path}: gates_ok is {doc.get('gates_ok')!r}")
    scenarios = serve_scenarios(doc)
    if not scenarios:
        failures.append(f"{path}: no serve_swap scenarios found")
    for name, node in scenarios:
        for gate in SERVE_SWAP_GATES:
            if node.get(gate) is not True:
                failures.append(
                    f"{path}: {name}.{gate} is {node.get(gate)!r}, "
                    "expected true")
        sw = node.get("serve", {}).get("swap", {})
        if not sw.get("enabled"):
            failures.append(f"{path}: {name} is missing the swap ledger")
            continue
        version_hash = sw.get("version_hash")
        if version_hash != node.get("plan_version_hash"):
            failures.append(
                f"{path}: {name} runtime provenance hash {version_hash} != "
                f"plan hash {node.get('plan_version_hash')}")
        shed_hash = node.get("serve", {}).get("slo", {}).get("exec", {}).get(
            "shed_set_hash")
        if shed_hash != node.get("plan_shed_set_hash"):
            failures.append(
                f"{path}: {name} exec shed hash {shed_hash} != plan hash "
                f"{node.get('plan_shed_set_hash')}")
        # Collected for the cross-file (1-thread vs 4-thread pool) equality
        # check in main(): same leg => identical provenance hash, shed hash,
        # and verdict.
        swap_fingerprints.setdefault(name, []).append(
            (path, (version_hash, shed_hash, sw.get("rolled_back"))))
        failures.extend(check_trace(path, name, node, trace_fingerprints))
    return failures


def serve_swap_rows(doc):
    rows = []
    for name, node in serve_scenarios(doc):
        sw = node.get("serve", {}).get("swap", {})
        by = {e.get("version"): e.get("served")
              for e in sw.get("served_by_version", [])}
        rows.append((
            name,
            "rollback" if sw.get("rolled_back") else "promote",
            str(sw.get("verdict_us", "?")),
            f"{sw.get('canary_faults', '?')}/{sw.get('canary_served', '?')}",
            str(sw.get("cutovers", "?")),
            str(by.get(sw.get("from_version"), 0)),
            str(by.get(sw.get("to_version"), 0)),
            str(sw.get("version_hash", "?")),
        ))
    return rows


def serve_router_rows(doc):
    rows = []
    for name, node in serve_scenarios(doc):
        slo = node.get("serve", {}).get("slo", {})
        plan = slo.get("plan", {})
        exec_ = slo.get("exec", {})
        rows.append((
            name,
            f"{node.get('active_replicas', '?')}/"
            f"{node.get('total_replicas', '?')}",
            str(plan.get("served", "?")),
            str(exec_.get("shed", "?")),
            str(node.get("routing_hash", "?")),
            str(plan.get("shed_set_hash", "?")),
        ))
    return rows


def serve_slo_rows(doc):
    rows = []
    for name, node in serve_scenarios(doc):
        slo = node.get("slo", {})
        plan = slo.get("plan", {})
        exec_ = slo.get("exec", {})
        vlat = plan.get("virtual_latency", {})
        rows.append((
            name,
            str(plan.get("served", "?")),
            str(exec_.get("shed", "?")),
            str(exec_.get("degraded", "?")),
            str(exec_.get("retried", "?")),
            str(exec_.get("fallbacks", "?")),
            str(plan.get("breaker_opens", "?")),
            f"{vlat.get('p99_us', 0):.0f}",
            str(plan.get("late_virtual", "?")),
            str(plan.get("shed_set_hash", "?")),
        ))
    return rows


def mvm_rows(doc):
    rows = []
    for section, sub, key, label in TRAJECTORY:
        node = doc.get(section, {})
        if sub is not None:
            node = node.get(sub, {}) if isinstance(node, dict) else {}
        val = node.get(key) if isinstance(node, dict) else None
        if isinstance(val, (int, float)):
            rows.append((label, f"{val:.2f}"))
    return rows


def serve_rows(doc):
    rows = []
    for name, node in serve_scenarios(doc):
        lat = node.get("latency", {})
        rows.append((
            name,
            f"{lat.get('p50_us', 0):.0f}",
            f"{lat.get('p95_us', 0):.0f}",
            f"{node.get('throughput_rps', 0):.0f}",
            f"{node.get('mean_exec_batch', 0):.2f}",
            str(node.get("fusion", "?")),
            str(node.get("steady_weight_packs", "?")),
            str(node.get("steady_binarizes", "?")),
            str(node.get("steady_binary_packs", "?")),
            str(node.get("binary_mvms", "?")),
        ))
    return rows


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_failures = []
    slo_fingerprints = {}
    router_fingerprints = {}
    swap_fingerprints = {}
    trace_fingerprints = {}
    print("## bench gates and perf trajectory\n")
    for path in argv[1:]:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            all_failures.append(f"{path}: unreadable ({e})")
            continue
        threads = doc.get("num_threads", "?")
        print(f"### `{path}` (pool={threads} threads)\n")
        if doc.get("bench") == "serve":
            failures = check_serve(path, doc, trace_fingerprints)
            kernel = doc.get("binary_kernel", "?")
            print(f"binary micro-kernel: `{kernel}`\n")
            print("| scenario | p50 us | p95 us | rps | exec batch | fusion "
                  "| steady packs | steady binarizes | steady bin packs "
                  "| binary mvms |")
            print("|---|---|---|---|---|---|---|---|---|---|")
            for row in serve_rows(doc):
                print("| " + " | ".join(row) + " |")
        elif doc.get("bench") == "serve_router":
            failures = check_serve_router(path, doc, router_fingerprints,
                                          trace_fingerprints)
            print("| scenario | active/total | served | shed | routing hash "
                  "| fleet shed hash |")
            print("|---|---|---|---|---|---|")
            for row in serve_router_rows(doc):
                print("| " + " | ".join(row) + " |")
        elif doc.get("bench") == "serve_swap":
            failures = check_serve_swap(path, doc, swap_fingerprints,
                                        trace_fingerprints)
            print("| leg | verdict | verdict us | canary faults/served "
                  "| cutovers | incumbent rows | candidate rows "
                  "| provenance hash |")
            print("|---|---|---|---|---|---|---|---|")
            for row in serve_swap_rows(doc):
                print("| " + " | ".join(row) + " |")
        elif doc.get("bench") == "serve_slo":
            failures = check_serve_slo(path, doc, slo_fingerprints,
                                       trace_fingerprints)
            print("| scenario | served | shed | degraded | retried "
                  "| fallbacks | breaker opens | vp99 us | late | shed hash |")
            print("|---|---|---|---|---|---|---|---|---|---|")
            for row in serve_slo_rows(doc):
                print("| " + " | ".join(row) + " |")
        else:
            failures = check_mvm(path, doc)
            print("| metric | value |\n|---|---|")
            for label, val in mvm_rows(doc):
                print(f"| {label} | {val} |")
        all_failures.extend(failures)
        gates = "FAILED" if failures else "all true"
        print(f"\ngates: **{gates}**\n")
    # Cross-file shed-set determinism: the same SLO scenario must carry the
    # identical fingerprint in every artifact (1-thread and 4-thread pools
    # run the same (seed, trace, policy) tuple).
    for name, entries in slo_fingerprints.items():
        hashes = {h for _, h in entries}
        if len(hashes) > 1:
            detail = ", ".join(f"{p}={h}" for p, h in entries)
            all_failures.append(
                f"slo scenario '{name}': shed-set fingerprint differs "
                f"across artifacts ({detail})")
    # Cross-file routing determinism (DESIGN.md S10): the same router
    # scenario must carry the identical routing hash, fleet shed hash, and
    # per-replica shed fingerprints in every artifact.
    for name, entries in router_fingerprints.items():
        hashes = {h for _, h in entries}
        if len(hashes) > 1:
            detail = "; ".join(f"{p}={h}" for p, h in entries)
            all_failures.append(
                f"router scenario '{name}': routing/shed fingerprints "
                f"differ across artifacts ({detail})")
    # Cross-file swap determinism (DESIGN.md S11): the same swap leg must
    # carry the identical provenance hash, shed hash, and verdict in every
    # artifact — a hot swap pins versions by admission time on the virtual
    # clock, never by pool size.
    for name, entries in swap_fingerprints.items():
        hashes = {h for _, h in entries}
        if len(hashes) > 1:
            detail = "; ".join(f"{p}={h}" for p, h in entries)
            all_failures.append(
                f"swap leg '{name}': provenance/shed fingerprints differ "
                f"across artifacts ({detail})")
    # Cross-file causal-trace determinism (DESIGN.md S9): same scenario,
    # same (seed, trace, policy) => the identical causal event fingerprint
    # in every artifact, whatever the pool size or machine.
    for name, entries in trace_fingerprints.items():
        hashes = {h for _, h in entries}
        if len(hashes) > 1:
            detail = ", ".join(f"{p}={h}" for p, h in entries)
            all_failures.append(
                f"scenario '{name}': causal trace fingerprint differs "
                f"across artifacts ({detail})")
    if all_failures:
        for f in all_failures:
            print(f"GATE FAILURE: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
