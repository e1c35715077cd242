"""Self-test of the benchmark's output checks (run.py --selftest).

Each check must pass on the program's real output and fail on a copy with
one deliberate fault: a group member dropped from a report, one edge
altered in the journal model, one grant removed from a mined dataset.
Small 1:100 orgs keep it to a few seconds.
"""

import json
import shutil
import subprocess

import checks


def _run(*args):
    result = subprocess.run([str(a) for a in args], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    if result.returncode != 0:
        raise RuntimeError(f"{args[0]} failed: {result.stdout.decode()[-2000:]}")


def _drop_group_member(src, dst, key):
    report = json.loads(src.read_text())
    group = next(g for g in report[key] if len(g) >= 2)
    group.pop()
    dst.write_text(json.dumps(report))


def main(tool, cli, work):
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outcomes = []

    def expect(name, problems, should_fail):
        ok = bool(problems) == should_fail
        verdict = ("fails as it should" if should_fail else "passes") if ok else \
            ("PASSED A CORRUPTED OUTPUT" if should_fail else f"FAILED: {problems[:3]}")
        print(f"selftest: {name}: {verdict}")
        outcomes.append(ok)

    # org-audit: the report against the independent recomputation.
    _run(tool, "setup-org", work / "a", "--seed", 1, "--scale", 1)
    report = work / "a" / "report.json"
    _run(cli, "audit", work / "a" / "org", "--threads", 1, "--json", report)
    model = checks.Model.load(work / "a" / "org")
    expect("audit report", checks.check_report(report, model), False)
    for key in ("same_user_groups", "similar_permission_groups"):
        corrupt = work / "a" / f"dropped-{key}.json"
        _drop_group_member(report, corrupt, key)
        expect(f"audit report, one member dropped from {key}",
               checks.check_report(corrupt, model), True)

    # delta-stream: the report against the journal model, and recover == replay.
    s = work / "s"
    _run(tool, "setup-stream", s, "--seed", 1, "--scale", 1, "--batches", 4, "--batch-size", 50)
    _run(cli, "replay", s / "org", s / "journal.csv", "--every", 50, "--store", s / "store",
         "--threads", 1, "--json", s / "final.json")
    model = checks.Model.load(s / "org")
    model.apply_journal(s / "journal.csv")
    expected = checks.expected_findings(model)
    expect("replay report vs journal model", checks.check_report(s / "final.json", model, expected),
           False)
    role = sorted(next(iter(expected["same_user_groups"])))[0]
    users = model.role_users[role]
    old = min(users)
    new = next(u for u in model.users if u not in users)
    users.discard(old)
    users.add(new)
    expect(f"replay report vs model with edge ({role},{old}) moved to ({role},{new})",
           checks.check_report(s / "final.json", model), True)
    _run(cli, "recover", s / "store", "--threads", 1, "--json", s / "recovered.json")
    expect("recovered findings == replay findings",
           [] if checks.findings_of(s / "recovered.json") == checks.findings_of(s / "final.json")
           else ["differ"], False)
    _drop_group_member(s / "recovered.json", s / "recovered-dropped.json", "similar_user_groups")
    expect("recovered findings with one member dropped == replay findings",
           [] if checks.findings_of(s / "recovered-dropped.json") ==
           checks.findings_of(s / "final.json") else ["differ"], True)

    # mine-org: effective permissions of every user, input vs mined output.
    m = work / "m"
    _run(tool, "setup-mine", m, "--seed", 1, "--scale", 1)
    _run(cli, "mine", m / "org", m / "out", "--threads", 1)
    expect("mined dataset", checks.check_mined(m / "org", m / "out"), False)
    grants = (m / "out" / "grants.csv").read_text().splitlines(keepends=True)
    corrupt = m / "corrupt"
    shutil.copytree(m / "out", corrupt)
    (corrupt / "grants.csv").write_text("".join(grants[:1] + grants[2:]))
    expect(f"mined dataset without grant '{grants[1].strip()}'",
           checks.check_mined(m / "org", corrupt), True)

    print(f"selftest: {sum(outcomes)}/{len(outcomes)} as expected")
    return 0 if all(outcomes) else 1
