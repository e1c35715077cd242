"""Steadiness mode (run.py --steadiness RUNS): the figures the bounds in
BENCHMARK.json are set from.

Runs each workload RUNS times untraced, each run a fresh process with its
own seed, and prints every end-to-end metric's median, quartiles and spread
(interquartile distance over median, as statistics.quantiles(n=4) gives the
quartiles). Then one traced run per workload compares the sum of the layer
times that make up one operation with the untraced median operation; the
rest is the operation's unattributed share.
"""

import json
import statistics
import subprocess
import sys

# Layer metrics whose sum is one operation of each workload, in seconds
# (a ".._ms" name is converted).
OPERATION_LAYERS = {
    "org-audit": ["io.load_dataset_s", "core.engine_init_s", "core.first_reaudit_s",
                  "core.engine_teardown_s", "io.report_json_s"],
    "delta-stream": ["store.apply_ms", "store.reaudit_ms"],
    "mine-org": ["io.load_dataset_s", "mining.plan_s", "mining.apply_s",
                 "core.verify_equivalence_s"],
}


def _run(run_py, workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, str(run_py), "--workload", workload, "--seed",
                          str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         stdout=subprocess.PIPE, check=True).stdout.decode()
    return json.loads(out.strip().splitlines()[-1])


def _seconds(name, value):
    return value / 1e3 if name.endswith("_ms") else value


def main(run_py, workloads, runs, seconds):
    summary = {}
    for workload in workloads:
        results = [_run(run_py, workload, seed, seconds, 0) for seed in range(1, runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        row = {"correct": all(r["correct"] for r in results), "failed_shares": sorted(shares)}
        print(f"{workload}: {runs} runs, all correct: {row['correct']}, "
              f"failed shares: {sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            row[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                         "values": values}
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {100 * (q3 - q1) / med:5.2f}%")
        traced = _run(run_py, workload, 1, seconds, 1)["metrics"]
        layers = sum(_seconds(n, traced[n]["value"]) for n in OPERATION_LAYERS[workload])
        op = row["op_p50_ms"]["median"] / 1e3
        row["traced_layer_sum_s"] = layers
        row["unattributed_share"] = 1 - layers / op
        print(f"  traced: {' + '.join(OPERATION_LAYERS[workload])} = {layers:.4f} s against "
              f"untraced op median {op:.4f} s; unattributed {100 * (1 - layers / op):.1f}%")
        row["traced"] = {n: m["value"] for n, m in traced.items()}
        summary[workload] = row
    print(json.dumps(summary))
    return 0
