#!/usr/bin/env python3
"""End-to-end benchmark of the rolediet CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --steadiness RUNS [--seconds S] [--workload NAME]...

Run from the repository root. The first run builds the library, the CLI and
perfbench/tool.cpp (Release) into .bench_build/perfbench; inputs and outputs
go to .bench_work/<workload>. Progress goes to stderr; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones, timed from
outside around whole `rolediet` processes; with --trace 1 they are the
per-layer ones from perfbench_tool's traced run. See perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import pty
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_work"
TOOL = BUILD / "perfbench_tool"
CLI = BUILD / "rolediet" / "tools" / "rolediet"

BATCH = 50              # mutations per delta-stream batch
CHECKPOINT_EVERY = 500  # WAL records between delta-stream checkpoints
TRACE_BATCHES = 10      # traced delta stream length, checkpointed at its end
TAIL_BATCHES = 20       # traced recovery: committed batches in the WAL tail
MINE_SCALE = 2          # mine-org input: OrgProfile::small() x 2
TRACE_MINE_SCALE = 1    # mining layers in the paper-scale traced runs

# A run times whole operations for --seconds: one untimed warm-up
# operation, then timed ones back to back until --seconds have passed, and
# at least MIN_OPS. delta-stream is one `replay` process whose journal is
# written in set-up, so its batch count is fixed from --seconds through a
# nominal batch time of the 4-core reference machine.
MIN_OPS = {"org-audit": 5, "mine-org": 3}
NOMINAL_BATCH_S = 0.6
MIN_BATCHES = 10

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class OpFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("ROLEDIET_KERNEL", None)  # the auto kernel target, always
    return env


# ------------------------------------------------------------------ build ---

def source_fingerprint():
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", ROOT / "perfbench" / "CMakeLists.txt",
             ROOT / "perfbench" / "tool.cpp"]
    for top in ("src", "tools"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not (ROOT / needed).exists():
            sys.exit(f"perfbench: {ROOT / needed} is missing; run from a rolediet checkout")
    stamp = BUILD / "sources.sha256"
    fingerprint = source_fingerprint()
    if stamp.exists() and stamp.read_text() == fingerprint and TOOL.exists() and CLI.exists():
        return
    log("perfbench: building (Release) into", BUILD)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", jobs]):
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if result.returncode != 0:
            sys.stderr.write(result.stdout.decode(errors="replace")[-4000:])
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    stamp.write_text(fingerprint)


# -------------------------------------------------------------- processes ---

def tool(*args):
    result = subprocess.run([str(TOOL), *map(str, args)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env())
    if result.returncode != 0:
        raise RuntimeError(f"perfbench_tool {args[0]} failed: {result.stderr.decode()}")
    return result.stdout.decode()


def timed(args, log_path):
    """Runs one CLI operation to completion. Returns (seconds, peak RSS MB).
    The harness only waits in wait4() while the operation runs."""
    with open(log_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([str(CLI), *map(str, args)], stdout=out,
                                stderr=subprocess.STDOUT, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise OpFailed(f"rolediet {args[0]} exited {proc.returncode}: "
                       f"{Path(log_path).read_text()[-2000:]}")
    return seconds, usage.ru_maxrss / 1024.0


def timed_lines(args, marker):
    """Runs one CLI process on a pseudo-terminal, so its stdout is line
    buffered, and stamps every line as it arrives. Returns (peak RSS MB,
    [(stamp, line)] for the lines that start with `marker`, full output)."""
    master, slave = pty.openpty()
    proc = subprocess.Popen([str(CLI), *map(str, args)], stdout=slave, stderr=slave,
                            stdin=subprocess.DEVNULL, env=child_env())
    os.close(slave)
    stamps, chunks, pending = [], [], b""
    while True:
        try:
            data = os.read(master, 1 << 16)
        except OSError:  # EIO: the child closed the terminal
            data = b""
        if not data:
            break
        now = time.perf_counter()
        chunks.append(data)
        pending += data
        *lines, pending = pending.split(b"\n")
        stamps += [(now, line.decode(errors="replace").rstrip("\r"))
                   for line in lines if line.startswith(marker)]
    _, status, usage = os.wait4(proc.pid, 0)
    os.close(master)
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = b"".join(chunks).decode(errors="replace").replace("\r\n", "\n")
    if proc.returncode != 0:
        raise OpFailed(f"rolediet {args[0]} failed: {output[-2000:]}")
    return usage.ru_maxrss / 1024.0, stamps, output


# -------------------------------------------------------------- workloads ---

def fresh(directory):
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}


def repeated_ops(result, workload, seconds, make_args, work):
    """One untimed warm-up operation, then timed ones back to back until
    `seconds` have passed and at least MIN_OPS[workload] ran. Returns
    {index: (seconds, peak RSS MB)} for the timed operations that
    succeeded."""
    def attempt(i):
        try:
            return timed(make_args(i), work / f"op-{i}.log")
        except OpFailed as e:
            log("perfbench:", e)
            return None

    attempt(0)
    start = time.perf_counter()
    done, i = {}, 1
    while i <= MIN_OPS[workload] or time.perf_counter() - start < seconds:
        measured = attempt(i)
        result.attempted += 1
        if measured:
            done[i] = measured
        else:
            result.failed += 1
        i += 1
    log("perfbench: operation seconds:", " ".join(f"{s:.3f}" for s, _ in done.values()))
    return done


def summary(done):
    return [s for s, _ in done.values()], max((r for _, r in done.values()), default=0.0)


def run_org_audit(seed, seconds, work, result):
    setup(["setup-org", work, "--seed", seed, "--scale", 0], result)
    org = work / "org"
    report = lambda i: work / f"report-{i}.json"
    done = repeated_ops(result, "org-audit", seconds,
                        lambda i: ["audit", org, "--threads", 1, "--json", report(i)], work)
    if done:
        first = min(done)
        result.problems += checks.check_report(report(first), checks.Model.load(org),
                                               label="org-audit")
        findings = checks.findings_of(report(first))
        result.problems += [f"org-audit: report {i} differs from report {first}"
                            for i in done if checks.findings_of(report(i)) != findings]
    return summary(done)


def run_mine_org(seed, seconds, work, result):
    setup(["setup-mine", work, "--seed", seed, "--scale", MINE_SCALE], result)
    org = work / "org"
    out = lambda i: work / f"out-{i}"
    done = repeated_ops(result, "mine-org", seconds,
                        lambda i: ["mine", org, out(i), "--threads", 1,
                                   "--json", work / f"mine-{i}.json"], work)
    before = checks.effective_permissions(org)
    for i in done:
        result.problems += checks.check_mined(org, out(i), before, f"mine-org op {i}")
    return summary(done)


def run_delta_stream(seed, seconds, work, result):
    batches = max(MIN_BATCHES, round(seconds / NOMINAL_BATCH_S))
    setup(["setup-stream", work, "--seed", seed, "--scale", 0, "--batches", batches,
           "--batch-size", BATCH], result)
    store = work / "store"
    args = ["replay", work / "org", work / "journal.csv", "--every", BATCH, "--store", store,
            "--checkpoint-every", CHECKPOINT_EVERY, "--fsync", "batch", "--threads", 1,
            "--json", work / "final.json"]
    result.attempted += batches
    try:
        rss, lines, output = timed_lines(args, b"replay: ")
    except OpFailed as e:
        log("perfbench:", e)
        result.failed += batches
        return None
    (work / "replay.log").write_text(output)
    applied = [stamp for stamp, line in lines if " mutations applied, version " in line]
    if len(applied) != batches:
        result.problems.append(f"delta-stream: {len(applied)} batch lines, expected {batches}")
    # Operation k is the gap between batch lines k-1 and k; the first batch
    # has no predecessor and serves as the warm-up.
    ops = [b - a for a, b in zip(applied, applied[1:])]

    model = checks.Model.load(work / "org")
    model.apply_journal(work / "journal.csv")
    result.problems += checks.check_report(work / "final.json", model, label="delta-stream")
    try:
        timed(["recover", store, "--threads", 1, "--json", work / "recovered.json"],
              work / "recover.log")
        if checks.findings_of(work / "recovered.json") != checks.findings_of(work / "final.json"):
            result.problems.append("delta-stream: recovered store's findings differ from replay's")
    except OpFailed as e:
        result.problems.append(f"delta-stream: recover of the replayed store failed: {e}")
    return ops, rss


RUNNERS = {
    "org-audit": run_org_audit,
    "delta-stream": run_delta_stream,
    "mine-org": run_mine_org,
}


def setup(tool_args, result):
    """Writes the workload's inputs and records setup_s: one cold set-up,
    timed from the start of this process."""
    tool(*tool_args)
    result.metrics["setup_s"] = time.perf_counter() - PROCESS_START


def run_untraced(workload, seed, seconds, work):
    result = Result()
    outcome = RUNNERS[workload](seed, seconds, work, result)
    if outcome is None or not outcome[0]:
        return result
    ops, rss = outcome
    result.metrics.update(op_p50_ms=1e3 * statistics.median(ops), peak_rss_mb=rss)
    result.metrics = {name: (result.metrics[name], unit) for name, unit in END_TO_END.items()}
    return result


# ---------------------------------------------------------------- tracing ---

def unit_of(name):
    if "_bytes" in name:
        return "B"
    if name.endswith("_ms"):
        return "ms"
    return "s" if name.endswith("_s") else "count"


def run_traced(workload, seed, work):
    """The per-layer run: perfbench_tool calls each layer's public functions
    one at a time. The two paper-scale workloads trace the paper-scale org
    (mining layers on the 1x mining org, only so every metric is printed);
    mine-org traces 2x orgs throughout."""
    result = Result()
    mine = workload == "mine-org"
    batches = TRACE_BATCHES
    output = tool("trace", work, "--seed", seed, "--audit-scale", MINE_SCALE if mine else 0,
                  "--mine-scale", MINE_SCALE if mine else TRACE_MINE_SCALE,
                  "--batches", batches, "--tail-batches", TAIL_BATCHES, "--batch-size", BATCH,
                  "--checkpoint-every", CHECKPOINT_EVERY)
    layers = json.loads(output.strip().splitlines()[-1])
    result.attempted = 1 + batches + 1 + 1  # audit, stream batches, recover, mine
    model = checks.Model.load(work / "org")
    result.problems += checks.check_report(work / "report.json", model, label="traced audit")
    model.apply_journal(work / "journal.csv")
    result.problems += checks.check_report(work / "recovered.json", model, label="traced recover")
    result.problems += checks.check_mined(work / "mine", work / "mine_out", label="traced mine")
    if layers["store.replayed_records"] != TAIL_BATCHES * BATCH:
        result.problems.append("traced recover replayed an unexpected number of records")
    result.metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    return result


# ------------------------------------------------------------------- main ---

def emit(result):
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.steadiness is not None and args.steadiness < 2:
        parser.error("--steadiness needs at least 2 runs")

    build()
    if args.selftest:
        import selftest
        sys.exit(selftest.main(TOOL, CLI, WORK / "selftest"))
    if args.steadiness:
        import steadiness
        sys.exit(steadiness.main(Path(__file__), args.workload or list(RUNNERS),
                                 args.steadiness, args.seconds))
    if not args.workload or len(args.workload) != 1:
        parser.error("exactly one --workload is required")
    workload = args.workload[0]
    work = fresh(WORK / workload)
    if args.trace:
        result = run_traced(workload, args.seed, work)
    else:
        result = run_untraced(workload, args.seed, args.seconds, work)
    for problem in result.problems:
        log("perfbench: CHECK FAILED:", problem)
    if not result.metrics or (not args.trace and len(result.metrics) != len(END_TO_END)):
        sys.exit("perfbench: no operation completed; nothing to report")
    emit(result)


if __name__ == "__main__":
    main()
