"""Independent output checks for the end-to-end benchmark.

Nothing here calls the program: datasets are read from the CSV files the
set-up wrote, journals are applied to a plain edge-set model, and every
finding is recomputed with algorithms of this module's own:

- types 1-3 by counting each entity's edges;
- types 4 and 5 at t = 1 by hashing each role's set and each set minus one
  element (a deletion neighbourhood), then taking connected components.
  The program instead sweeps co-occurrence counts, so agreement between the
  two is evidence, not a restatement.

Each check returns a list of problems; an empty list means the output is
correct.
"""

import csv
import json
from pathlib import Path

STRUCTURAL = (
    "standalone_users",
    "standalone_roles",
    "standalone_permissions",
    "roles_without_users",
    "roles_without_permissions",
    "single_user_roles",
    "single_permission_roles",
)
GROUPS = (
    "same_user_groups",
    "same_permission_groups",
    "similar_user_groups",
    "similar_permission_groups",
)


class Model:
    """An RBAC dataset as ordered entity names plus per-role edge sets."""

    def __init__(self):
        self.users, self.roles, self.perms = [], [], []
        self.role_users, self.role_perms = {}, {}

    @classmethod
    def load(cls, directory):
        model = cls()
        directory = Path(directory)
        kinds = {"user": model.users, "role": model.roles, "permission": model.perms}
        for kind, name in _rows(directory / "entities.csv", ["kind", "name"]):
            kinds[kind].append(name)
        model.role_users = {role: set() for role in model.roles}
        model.role_perms = {role: set() for role in model.roles}
        for role, user in _rows(directory / "assignments.csv", ["role", "user"]):
            model.role_users[role].add(user)
        for role, perm in _rows(directory / "grants.csv", ["role", "permission"]):
            model.role_perms[role].add(perm)
        return model

    def apply_journal(self, path):
        """Applies a mutation journal. The benchmark's journals name only
        existing entities, so edge mutations are plain set operations."""
        ops = {
            "assign-user": lambda r, e: self.role_users[r].add(e),
            "revoke-user": lambda r, e: self.role_users[r].discard(e),
            "grant-permission": lambda r, e: self.role_perms[r].add(e),
            "revoke-permission": lambda r, e: self.role_perms[r].discard(e),
        }
        with open(path, newline="") as f:
            for record in csv.reader(f):
                if not record:
                    continue
                if record[0] not in ops or len(record) != 3:
                    raise ValueError(f"unexpected journal record {record}")
                ops[record[0]](record[1], record[2])


def _rows(path, header):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if next(reader) != header:
            raise ValueError(f"{path}: expected header {header}")
        for row in reader:
            if row:
                yield row


def _components(pairs):
    """Connected components (of two or more roles) of the pair graph."""
    parent = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for role in {r for pair in pairs for r in pair}:
        groups.setdefault(find(role), set()).add(role)
    return {frozenset(g) for g in groups.values()}


def _groups(role_sets):
    """(same, similar) partitions at Hamming t = 1 over non-empty sets.

    A pair is within distance 1 when the sets are equal or one is the other
    plus one element. Keying every set by the sum of its elements' hashes
    lets the set minus one element be looked up in O(1); each hash hit is
    confirmed on the sets themselves.
    """
    mask = (1 << 64) - 1
    by_hash = {}
    keyed = []
    for role, items in role_sets.items():
        if items:
            h = sum(map(hash, items)) & mask
            by_hash.setdefault(h, []).append(role)
            keyed.append((role, items, h))
    same_pairs = [(role, other) for role, items, h in keyed for other in by_hash[h]
                  if other != role and role_sets[other] == items]
    near_pairs = []
    for role, items, h in keyed:
        if len(items) < 2:
            continue
        for e in items:
            for other in by_hash.get((h - hash(e)) & mask, ()):
                smaller = role_sets[other]
                if len(smaller) == len(items) - 1 and e not in smaller and smaller <= items:
                    near_pairs.append((role, other))
    return _components(same_pairs), _components(same_pairs + near_pairs)


def expected_findings(model):
    """Recomputes every finding the report carries, with entity names."""
    assigned = set().union(*model.role_users.values()) if model.roles else set()
    granted = set().union(*model.role_perms.values()) if model.roles else set()
    nu = {r: len(model.role_users[r]) for r in model.roles}
    np_ = {r: len(model.role_perms[r]) for r in model.roles}
    same_u, similar_u = _groups(model.role_users)
    same_p, similar_p = _groups(model.role_perms)
    return {
        "dataset": {
            "users": len(model.users),
            "roles": len(model.roles),
            "permissions": len(model.perms),
            "user_assignments": sum(nu.values()),
            "permission_grants": sum(np_.values()),
        },
        "standalone_users": {u for u in model.users if u not in assigned},
        "standalone_roles": {r for r in model.roles if nu[r] == 0 and np_[r] == 0},
        "standalone_permissions": {p for p in model.perms if p not in granted},
        "roles_without_users": {r for r in model.roles if nu[r] == 0 and np_[r] > 0},
        "roles_without_permissions": {r for r in model.roles if nu[r] > 0 and np_[r] == 0},
        "single_user_roles": {r for r in model.roles if nu[r] == 1},
        "single_permission_roles": {r for r in model.roles if np_[r] == 1},
        "same_user_groups": same_u,
        "same_permission_groups": same_p,
        "similar_user_groups": similar_u,
        "similar_permission_groups": similar_p,
    }


def reported_findings(report, model):
    """The report's findings in the shape expected_findings() returns.
    Structural findings are entity ids, which follow entities.csv order."""
    names = {
        "standalone_users": model.users,
        "standalone_roles": model.roles,
        "standalone_permissions": model.perms,
        "roles_without_users": model.roles,
        "roles_without_permissions": model.roles,
        "single_user_roles": model.roles,
        "single_permission_roles": model.roles,
    }
    out = {"dataset": report["dataset"]}
    for key in STRUCTURAL:
        out[key] = {names[key][i] for i in report["structural"][key]}
    for key in GROUPS:
        out[key] = {frozenset(g) for g in report[key]}
    return out


def compare(expected, got, label):
    problems = []
    for key in ("dataset",) + STRUCTURAL + GROUPS:
        if expected[key] != got[key]:
            if isinstance(expected[key], dict):
                detail = f"expected {expected[key]}, got {got[key]}"
            else:
                detail = (f"{len(expected[key] - got[key])} missing, "
                          f"{len(got[key] - expected[key])} unexpected")
            problems.append(f"{label}: {key} differs ({detail})")
    return problems


def check_report(report_path, model, expected=None, label="report"):
    """The report at report_path against the independent recomputation."""
    if expected is None:
        expected = expected_findings(model)
    report = json.loads(Path(report_path).read_text())
    return compare(expected, reported_findings(report, model), label)


def findings_of(report_path):
    """A report's findings without its timings, for report-to-report
    equality (ids and names exactly as written)."""
    report = json.loads(Path(report_path).read_text())
    return {key: report[key] for key in ("dataset", "structural") + GROUPS}


def effective_permissions(directory):
    """user -> frozenset of permissions over every role the user holds."""
    directory = Path(directory)
    role_perms = {}
    for role, perm in _rows(directory / "grants.csv", ["role", "permission"]):
        role_perms.setdefault(role, set()).add(perm)
    users = {name for kind, name in _rows(directory / "entities.csv", ["kind", "name"])
             if kind == "user"}
    eff = {u: set() for u in users}
    for role, user in _rows(directory / "assignments.csv", ["role", "user"]):
        eff.setdefault(user, set()).update(role_perms.get(role, ()))
    return {u: frozenset(p) for u, p in eff.items()}


def count_roles(directory):
    return sum(1 for kind, _ in _rows(Path(directory) / "entities.csv", ["kind", "name"])
               if kind == "role")


def check_mined(input_dir, output_dir, before=None, label="mine"):
    """Every user keeps exactly their effective permissions, with fewer
    roles. `before` is the input's effective-permission map when already
    computed."""
    if before is None:
        before = effective_permissions(input_dir)
    after = effective_permissions(output_dir)
    problems = []
    if before.keys() != after.keys():
        problems.append(f"{label}: user sets differ")
    differing = sum(1 for u in before if before[u] != after.get(u))
    if differing:
        problems.append(f"{label}: {differing} users' effective permissions differ")
    roles_before, roles_after = count_roles(input_dir), count_roles(output_dir)
    if not roles_after < roles_before:
        problems.append(f"{label}: roles_after {roles_after} not below roles_before {roles_before}")
    return problems
