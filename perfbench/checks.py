"""Output checks that do not trust the code under test.

Each checker takes what a job left behind (exit code, stdout, output file)
and returns ``None`` when the output is right or a short reason when it is
not.  The expected values come from closed forms, from the inputs the
benchmark generated, or from values pinned by the paper and the repository's
own tests; none of them is computed by calling borderlab.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

_CLAUSE = re.compile(r"^(\S+): (ok|FAILED) \((.*)\)$")

# clauses ``borderlab verify`` must report, per kind of stored output
VERIFY_CLAUSES = {
    "degeneration": {"profile", "pyramid", "restriction", "limit", "unit-tensor", "jacobian-rank"},
    "cartan": {"residual"},
    "witness": {
        "cim-residual[0]",
        "specialization",
        "translation-invertible",
        "translation",
        "limit-zero",
        "limit-infinity",
    },
}

BOUNDS_HEADER = ["n", "d3_lower", "generic_subrank", "dmz_lo", "border_upper", "excess_flag"]
# the first n where the three-factor lower bound exceeds the generic
# subrank, as tests/test_bounds.py pins it
BOUNDS_FIRST_EXCESS = 133


def _load(data: bytes):
    try:
        return json.loads(data)
    except (ValueError, UnicodeDecodeError) as exc:
        return exc


def pyramid_size(r: int) -> int:
    return r * (r + 1) * (2 * r + 1) // 6


def check_certificate(n: int, rc: int, data: bytes):
    """``certify --n n``: Certified, r = isqrt(4n) - 3, full Jacobian rank."""
    if rc != 0:
        return f"exit code {rc}"
    obj = _load(data)
    if not isinstance(obj, dict):
        return f"unreadable certificate: {obj}"
    r = math.isqrt(4 * n) - 3
    size = pyramid_size(r)
    if obj.get("kind") != "degeneration" or obj.get("n") != n:
        return "not a degeneration certificate for this n"
    if obj.get("verdict") != "Certified":
        return f"verdict {obj.get('verdict')!r}"
    if obj.get("r") != r:
        return f"r = {obj.get('r')}, expected isqrt(4n) - 3 = {r}"
    if not obj.get("pyramidSize") == obj.get("jacobianRank") == size:
        return (
            f"pyramidSize {obj.get('pyramidSize')} / jacobianRank {obj.get('jacobianRank')},"
            f" expected r(r+1)(2r+1)/6 = {size}"
        )
    corners = sorted([r - l + 1, r - l + 1, l] for l in range(1, r + 1))
    s_entries = obj.get("S", {}).get("entries", [])
    if sorted(e["idx"] for e in s_entries) != corners or any(e["value"] != "1" for e in s_entries):
        return "S is not the unit tensor on the pyramid corners"
    return None


def check_verify(kind: str, rc: int, stdout: str):
    """``verify``: exit 0, every expected clause present and every clause ok."""
    if rc != 0:
        return f"exit code {rc}"
    lines = [line for line in stdout.splitlines() if line.strip()]
    seen = set()
    for line in lines:
        m = _CLAUSE.match(line)
        if m is None:
            return f"unexpected verify line {line!r}"
        if m.group(2) != "ok":
            return f"clause {m.group(1)} FAILED"
        seen.add(re.sub(r"\[\d+\]$", "", m.group(1)) if kind == "cartan" else m.group(1))
    missing = VERIFY_CLAUSES[kind] - seen
    if missing:
        return f"missing clauses {sorted(missing)}"
    return None


def diagonal_valuation_sum(matrix_obj) -> int:
    """Sum of the diagonal entries' valuations, read from a matrix JSON.

    ``gen --kind cim`` makes the diagonal monomials strictly dominate
    every other term of the determinant, so this is ``v(det g)``, which
    the Cartan weights must sum to.
    """
    entries = matrix_obj["entries"]
    return sum(int(entries[i][i]["val"]) for i in range(len(entries)))


def check_cim(input_obj, rc: int, data: bytes):
    """``cim``: verified, weights weakly increasing and summing to v(det g)."""
    if rc != 0:
        return f"exit code {rc}"
    obj = _load(data)
    if not isinstance(obj, dict):
        return f"unreadable cim output: {obj}"
    if obj.get("kind") != "cartan" or obj.get("verified") is not True:
        return "decomposition not verified"
    if obj.get("input") != input_obj:
        return "output does not carry the input matrix"
    weights = obj["decomposition"]["weights"]
    if len(weights) != len(input_obj["entries"]):
        return "wrong number of weights"
    if any(a > b for a, b in zip(weights, weights[1:])):
        return f"weights not weakly increasing: {weights}"
    expected = diagonal_valuation_sum(input_obj)
    if sum(weights) != expected:
        return f"weights sum to {sum(weights)}, expected v(det g) = {expected}"
    return None


def check_witness(input_obj, rc: int, data: bytes):
    """``witness``: output bound to its input; binary cubics give q~ = y^3, limit 0."""
    if rc != 0:
        return f"exit code {rc}"
    obj = _load(data)
    if not isinstance(obj, dict):
        return f"unreadable witness: {obj}"
    if obj.get("kind") != "witness":
        return "not a witness"
    if obj.get("g") != input_obj["g"] or obj.get("p") != input_obj["p"]:
        return "output does not carry the input curve and tensor"
    if input_obj.get("lift") == "sym3":
        # basis (x^3, x^2 y, x y^2, y^3): y^3 is position 4
        if obj["qTilde"].get("entries") != [{"idx": [4], "value": "1"}]:
            return f"qTilde is not y^3: {obj['qTilde'].get('entries')}"
        if obj["sharedLimit"].get("entries") != []:
            return "shared limit is not 0"
    return None


def border_upper(n: int) -> int:
    """Largest r <= n whose three-factor dimension bound reaches n^3."""
    full = n**3
    best = 0
    for r in range(n + 1):
        s = r // 3
        if full - s**3 + 6 * s * (n - s) + r * (1 + 3 * (r - 1) + 3 * (n - r)) >= full:
            best = r
    return best


def check_bounds(n_max: int, rc: int, data: bytes):
    """``bounds --d 3 --n-max n_max --format csv`` with n_max >= 1000.

    Every closed-form column is recomputed; border_upper is recomputed at
    n = 200 and pinned at the paper's 359 for n = 1000.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    except UnicodeDecodeError as exc:
        return f"unreadable csv: {exc}"
    if not rows or rows[0] != BOUNDS_HEADER:
        return "wrong header"
    rows = rows[1:]
    if [row[0] for row in rows] != [str(n) for n in range(1, n_max + 1)]:
        return "rows are not n = 1..n_max"
    first_excess = None
    for row in rows:
        n = int(row[0])
        lower = max(math.isqrt(4 * n) - 3, 0)
        generic = math.isqrt(3 * n - 2)
        dmz_lo = 3 * ((math.isqrt(12 * (4 * n + 3)) - 6) // 12)
        excess = lower > generic
        want = [str(lower), str(generic), str(dmz_lo)]
        if row[1:4] != want or row[5] != ("true" if excess else "false"):
            return f"row n={n} reads {row}, expected {want} excess={excess}"
        if excess and first_excess is None:
            first_excess = n
    if first_excess != BOUNDS_FIRST_EXCESS:
        return f"first excess row is n={first_excess}, expected {BOUNDS_FIRST_EXCESS}"
    n200, n1000 = rows[199], rows[999]
    if n200[1:3] + n200[5:] != ["25", "24", "true"] or n200[4] != str(border_upper(200)):
        return f"row n=200 reads {n200}"
    if n1000[4] != "359":
        return f"border_upper at n=1000 is {n1000[4]}, expected 359"
    return None
