"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
checks are exact (zero tolerance); each criterion carries its runtime
budget as an assertion.
"""

import json
import math
import random
import time
from itertools import product

import pytest

from borderlab import (
    PrimeField,
    QQ,
    LaurentSeries,
    SeriesMatrix,
    Tensor,
    build_pyramid,
    build_planted_tensor,
    build_witness,
    cartan_decompose,
    certify_lower_bound,
    jacobian_dominance_rank,
    limit_at_infinity,
    limit_at_zero,
    pyramid_size,
    recheck_certificate,
    recognize_unit_tensor,
    verify_cartan,
)
from borderlab.bounds import (
    border_subrank_lower_3d,
    dimension_upper_bound,
    generic_border_subrank_upper,
    scan_table,
)
from borderlab.instances import (
    random_invertible_laurent_matrix,
    random_series_unit_matrix,
    random_witness_instance,
)

from conftest import cartan_weights, cover_size, elimination_rank, pyramid_weight_profile, unit_tensor
from paper_claims import dimension_upper_bound_equal_dims, hypercube_dichotomy, max_locus_bounds, min_slice_cover


def report(number, description):
    def decorator(fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        return wrapper

    return decorator


@report(1, "binary-cubics worked example, end to end, exact")
def test_criterion_1_worked_example():
    start = time.monotonic()
    g = SeriesMatrix(QQ, [
        [LaurentSeries(QQ, -1, [1]), LaurentSeries.zero(QQ)],
        [LaurentSeries(QQ, -2, [QQ.from_int(-1)]), LaurentSeries(QQ, 1, [1])],
    ])
    p = Tensor(QQ, (4,), {(2,): QQ.one()})  # x^2 y
    w = build_witness([g], p, 16, lift="sym3")
    assert w.q == Tensor(QQ, (4,), {(1,): QQ.one()})  # x^3
    assert cartan_weights(w) == ((-2, 2),)
    assert w.q_tilde == Tensor(QQ, (4,), {(4,): QQ.one()})  # y^3
    assert w.shared_limit.is_zero()
    assert limit_at_zero(w.subgroup, p).is_zero()
    assert limit_at_infinity(w.subgroup, w.q_tilde).is_zero()
    assert time.monotonic() - start < 1.0


@report(2, "500 Cartan round trips mod t^16 and 50 translation-invariance pairs")
def test_criterion_2_cartan_round_trip():
    start = time.monotonic()
    rng = random.Random(160911)
    fp = PrimeField(1000003)
    for trial in range(500):
        field = QQ if trial % 2 else fp
        n = rng.randint(1, 4)
        g = random_invertible_laurent_matrix(field, n, rng)
        dec, _ = cartan_decompose(g, 16)
        assert dec.precision == 16
        assert verify_cartan(g, dec).passed  # residual zero mod t^16
    for trial in range(50):
        field = QQ if trial % 2 else fp
        n = rng.randint(2, 4)
        g = random_invertible_laurent_matrix(field, n, rng)
        u = random_series_unit_matrix(field, n, rng)
        v = random_series_unit_matrix(field, n, rng)
        base, _ = cartan_decompose(g, 16)
        moved, _ = cartan_decompose(u @ g @ v, 16)
        assert sorted(base.weights) == sorted(moved.weights)
    assert time.monotonic() - start < 60.0


@report(3, "200 generated limit witnesses: both limits exist and agree exactly")
def test_criterion_3_witness_property():
    start = time.monotonic()
    rng = random.Random(41)
    fp = PrimeField(1000003)
    for trial in range(200):
        field = QQ if trial % 2 else fp
        d = rng.choice([2, 3])
        dims = tuple(rng.randint(1, 4) for _ in range(d))
        gs, p = random_witness_instance(field, dims, rng)
        w = build_witness(gs, p, 16)
        assert limit_at_zero(w.subgroup, p) == w.shared_limit
        assert limit_at_infinity(w.subgroup, w.q_tilde) == w.shared_limit
    assert time.monotonic() - start < 60.0


@report(4, "degeneration certificates for n in {4,...,64} over the rationals")
def test_criterion_4_certificates():
    start = time.monotonic()
    for n in (4, 8, 9, 16, 25, 36, 49, 64):
        cert = certify_lower_bound(n)
        assert cert.r == max(math.isqrt(4 * n) - 3, 1)
        assert cert.verdict == "Certified"
        assert all(ok for _, ok, _ in recheck_certificate(cert))
        assert recognize_unit_tensor(cert.s_tensor) == cert.r
        assert cert.jacobian_rank == cert.pyramid_size == pyramid_size(cert.r)
        assert cert.t_tilde.field == QQ
        lam = pyramid_weight_profile(n, cert.r).subgroup(QQ)
        assert limit_at_zero(lam, cert.t_tilde) == cert.s_tensor
    # the two worked sizes quoted with explicit ranks
    assert pyramid_size(3) == 14 and pyramid_size(11) == 506
    assert time.monotonic() - start < 60.0


@report(5, "bound calculators: all pinned exact values and the full equality grid")
def test_criterion_5_bounds():
    start = time.monotonic()
    assert dimension_upper_bound(3, (9, 9, 9), 3) == 851
    assert dimension_upper_bound(3, (3, 3, 3), 3) == 59
    assert max_locus_bounds(3)[1] == 59  # the closed form at n = 3
    for d in range(2, 6):
        for n in range(1, 51):
            for r in range(0, n + 1, d):
                assert dimension_upper_bound_equal_dims(d, n, r) == dimension_upper_bound(d, (n,) * d, r)
    # independent exhaustive scan (formula re-inlined) pins r = 359 at n = 1000
    n = 1000
    full = n**3
    best = 0
    for r in range(n + 1):
        s = r // 3
        value = n**3 - s**3 + 3 * (2 * s * (n - s)) + r * (1 + 3 * (r - 1) + 3 * (n - r))
        if value >= full:
            best = r
    assert best == 359 == generic_border_subrank_upper(3, 1000)
    table = {row["n"]: row for row in scan_table(3, 200)}
    crossover = lambda n: (table[n]["d3_lower"], table[n]["generic_subrank"], table[n]["excess_flag"])
    assert crossover(200) == (25, 24, True)
    assert crossover(9) == (3, 5, False)
    assert time.monotonic() - start < 30.0


def _all_downward_closed_cubes():
    """All downward-closed subsets of [3]^3 via monotone height matrices."""
    triples = [t for t in product(range(4), repeat=3) if t[0] >= t[1] >= t[2]]
    ideals = []
    for r1 in triples:
        for r2 in triples:
            if all(a >= b for a, b in zip(r1, r2)):
                for r3 in triples:
                    if all(a >= b for a, b in zip(r2, r3)):
                        ideals.append((r1, r2, r3))
    out = []
    for heights in ideals:
        pos = {
            (j + 1, k + 1, l)
            for j in range(3)
            for k in range(3)
            for l in range(1, heights[j][k] + 1)
        }
        out.append(frozenset(pos))
    return out


@report(6, "slice dichotomy exhaustive over [3]^3 and exact covers of unit supports")
def test_criterion_6_dichotomy():
    start = time.monotonic()
    ideals = _all_downward_closed_cubes()
    assert len(ideals) == 980  # plane partitions in a 3x3x3 box
    for positions in ideals:
        for s in (1, 2, 3):
            result = hypercube_dichotomy(positions, s, 3)
            if (s, s, s) in positions:
                assert result.kind == "hypercube"
                assert result.hypercube <= positions
                assert len(result.hypercube) == s**3
            else:
                assert result.kind == "cover"
                assert cover_size(result) <= 3 * (s - 1)
                for pos in positions:
                    assert any(pos[axis] == value for axis, value in result.cover)
                if positions:
                    assert min_slice_cover(positions, (3, 3, 3)) <= 3 * (s - 1)
    for r in range(1, 6):
        support = {pos for pos, _ in unit_tensor(QQ, r, 3).support()}
        assert min_slice_cover(support, (r,) * 3) == r
    assert time.monotonic() - start < 60.0


@report(7, "negative controls: stripped blocks drop rank; tampering is caught by name")
def test_criterion_7_negative_controls(tmp_path, capsys):
    field = PrimeField(1000003)
    # stripping the planted blocks breaks dominance
    for n, r in ((8, 2), (9, 3), (16, 5)):
        _, s_only = build_planted_tensor(field, n, r)
        pattern = build_pyramid(n, r)
        assert jacobian_dominance_rank(s_only, pattern) < pattern.size
        assert elimination_rank(s_only, pattern, field) < pattern.size

    # a tampered certificate fails re-verification with the named clause
    from borderlab.cli import main

    cert_path = tmp_path / "cert.json"
    assert main(["certify", "--n", "9", "--out", str(cert_path)]) == 0
    obj = json.loads(cert_path.read_text())
    obj["TTilde"]["entries"].append({"idx": [1, 1, 1], "value": "1"})
    cert_path.write_text(json.dumps(obj))
    assert main(["verify", str(cert_path)]) == 1
    out = capsys.readouterr().out
    assert "restriction: FAILED (T|_P = S|_P)" in out
