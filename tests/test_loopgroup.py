import json
import os
import random
from collections import Counter

import pytest

from borderlab import (
    DEFAULT_TRUNCATION,
    CartanDecomposition,
    PrecisionError,
    PrimeField,
    QQ,
    LaurentSeries,
    SeriesMatrix,
    SingularError,
    cartan_decompose,
    smith_form,
    verify_cartan,
)
from borderlab import cli, jsonio, linalg, loopgroup
from borderlab.series import certify_min_valuation
from borderlab.instances import (
    random_invertible_laurent_matrix,
    random_series_unit_matrix,
)

from conftest import (
    derived_h1,
    inverse_residual_check,
    leibniz_determinant,
    reference_smith_form,
    schoolbook_mul,
    series,
    stored_h1_check,
    tpow,
    with_terms,
)

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def sl2_example_matrix(field=QQ):
    return SeriesMatrix(field, [
        [tpow(field, -1), LaurentSeries.zero(field)],
        [LaurentSeries(field, -2, [field.from_int(-1)]), tpow(field, 1)],
    ])


# ---------------------------------------------------------------------------
# Smith reduction
# ---------------------------------------------------------------------------

def test_smith_already_diagonal():
    m = SeriesMatrix.diag_powers(QQ, [1, 3])
    exps, h2 = smith_form(m, 16)
    assert exps == [1, 3]
    assert h2 == SeriesMatrix.identity(QQ, 2)
    assert derived_h1(m, CartanDecomposition(tuple(exps), h2, 16)) == SeriesMatrix.identity(QQ, 2)


def test_smith_antidiagonal_swap():
    m = SeriesMatrix(QQ, [[LaurentSeries.zero(QQ), tpow(QQ, 1)],
                          [tpow(QQ, 2), LaurentSeries.zero(QQ)]])
    exps, h2 = smith_form(m, 16)
    assert exps == [1, 2]
    dec = CartanDecomposition(tuple(exps), h2, 16)
    # permutation-type transforms: every entry is 0 or a constant
    for mat in (derived_h1(m, dec), h2):
        for row in mat.entries:
            for e in row:
                assert len(e.coeffs) <= 1 and (not e.coeffs or e.val == 0)
    assert verify_cartan(m, dec).passed


def test_smith_unit_pivot():
    m = SeriesMatrix(QQ, [[tpow(QQ, 1), LaurentSeries.zero(QQ)],
                          [series(QQ, {0: -1}), tpow(QQ, 3)]])
    exps, h2 = smith_form(m, 16)
    assert exps == [0, 4]
    assert verify_cartan(m, CartanDecomposition(tuple(exps), h2, 16)).passed
    # exponent sum equals the determinant valuation (Leibniz oracle)
    assert sum(exps) == leibniz_determinant(m).valuation()


def test_smith_rejects_negative_valuations():
    m = SeriesMatrix(QQ, [[tpow(QQ, -1)]])
    with pytest.raises(ValueError):
        smith_form(m, 8)


def test_smith_singular():
    one = series(QQ, {0: 1})
    m = SeriesMatrix(QQ, [[one, one], [one, one]])
    with pytest.raises(SingularError):
        smith_form(m, 8)


def test_smith_ambiguous_pivot_precision():
    fuzzy = LaurentSeries(QQ, 0, (), 0)  # nothing known at all
    m = SeriesMatrix(QQ, [[fuzzy, tpow(QQ, 1)], [tpow(QQ, 2), LaurentSeries.zero(QQ)]])
    with pytest.raises(PrecisionError):
        smith_form(m, 8)


def entry_parts(mat):
    """Each entry of a series matrix as its stored ``(val, nums, den, trunc)``."""
    return [[(e.val, e.nums, e.den, e.trunc) for e in row] for row in mat.entries]


def smith_fuzz(seed=22, count=480):
    """Seeded ``(m, n)`` over Q, F_3 and F_1000003: square power-series
    matrices of size 1-8 whose entries are exactly zero or have valuation
    0-3 and 1-4 coefficients in -3 ... 3, half of them cut at an order 1-8,
    at a precision that is 1 (the probe's) a quarter of the time and 1-40
    otherwise."""
    rng = random.Random(seed)
    fields = (QQ, PrimeField(3), PrimeField(1000003))
    for i in range(count):
        field = fields[i % len(fields)]
        size = rng.randint(1, 8)
        m = SeriesMatrix(field, [
            [LaurentSeries(field, rng.randint(0, 3), [field.from_int(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))])
             if rng.random() < 0.8 else LaurentSeries.zero(field)
             for _ in range(size)]
            for _ in range(size)
        ])
        if rng.random() < 0.5:
            m = cut_at(m, rng.randint(1, 8))
        yield m, 1 if rng.random() < 0.25 else rng.randint(1, 40)


def test_smith_form_matches_the_reference_entry_by_entry():
    events, outcomes = Counter(), Counter()
    # a non-monomial pivot whose elimination cancels past t^1: the probe's PrecisionError
    probe_failure = SeriesMatrix(QQ, [[series(QQ, {0: 1, 1: 1}), series(QQ, {0: 1})],
                                      [series(QQ, {0: 1}), series(QQ, {0: 1, 5: 1})]])
    for m, n in [(probe_failure, 1), *smith_fuzz()]:
        try:
            want = reference_smith_form(m, n, events)
        except (PrecisionError, SingularError) as exc:
            with pytest.raises(type(exc)) as got:
                smith_form(m, n)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            outcomes[f"{type(exc).__name__}{' at n = 1' if n == 1 else ''}"] += 1
            continue
        exponents, h2 = smith_form(m, n)
        assert exponents == want[1]
        assert entry_parts(h2) == entry_parts(want[2])
        outcomes["exact" if m.trunc is None else "truncated"] += 1
    # not vacuous: 872 row swaps, 1091 column swaps and 1303 skipped
    # multipliers over 218 exact and 158 truncated reductions, 27 pivots that
    # precision 1 cannot certify and 16 singular matrices.  smith_form's
    # scaled pivot row matches the reference's row multipliers where a
    # pivot-row entry has no known terms (1345 times: its scaled form lowers
    # the orders it reaches as the reference's product does) and where an
    # entry below the pivot is a truncated zero (916 times: both skip it)
    assert min(events[e] for e in ("row swap", "column swap", "skipped multiplier")) >= 800, events
    assert min(events[e] for e in ("unknown pivot-row entry", "truncated zero below the pivot")) >= 800, events
    assert outcomes["exact"] >= 200 and outcomes["truncated"] >= 150, outcomes
    assert outcomes["PrecisionError at n = 1"] >= 25 and outcomes["SingularError"] >= 15, outcomes


@pytest.mark.parametrize("size", [1, 2, 6, 8])
def test_smith_form_multiplies_once_per_pivot_row_entry(size, monkeypatch):
    # step k, with s = n-k-1 columns past the pivot, scales each pivot-row
    # entry past the pivot by the pivot's inverse, and that one product
    # serves both the row updates and h2's column operation: s products per
    # step, n(n-1)/2 in all, and no left factor
    rng = random.Random(size)
    m = SeriesMatrix(QQ, [[series(QQ, {k: rng.randint(1, 9) for k in range(3)}) for _ in range(size)]
                          for _ in range(size)])
    events = Counter()
    expected = reference_smith_form(m, 16, events)
    assert events["skipped multiplier"] == 0
    calls = []
    mul = LaurentSeries.__mul__
    monkeypatch.setattr(LaurentSeries, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    got = smith_form(m, 16)
    assert len(calls) == size * (size - 1) // 2
    assert got == expected[1:]


@pytest.mark.parametrize("size", [1, 2, 6, 8])
def test_smith_form_muladds_once_per_row_update_h2_update_and_product(size, monkeypatch):
    # step k, with s = n-k-1 rows and columns left, makes s² row updates
    # right of the pivot column and n·s column operations on h2 alone, and
    # its s products, one per pivot-row entry past the pivot, reach muladd
    # through the operator: no call on column k below the pivot, no column
    # operation on the working matrix, and no left factor
    from borderlab import series as series_module

    rng = random.Random(size)
    m = SeriesMatrix(QQ, [[series(QQ, {k: rng.randint(1, 9) for k in range(3)}) for _ in range(size)]
                          for _ in range(size)])
    expected = reference_smith_form(m, 16)
    kernel = series_module.muladd
    calls = Counter()
    for module in (series_module, loopgroup):
        monkeypatch.setattr(module, "muladd", lambda *args, name=module.__name__: calls.update([name]) or kernel(*args))
    got = smith_form(m, 16)
    steps = range(size)
    assert calls["borderlab.loopgroup"] == sum(s * s + size * s for s in steps)
    assert calls["borderlab.series"] == sum(s for s in steps) == size * (size - 1) // 2
    assert got == expected[1:]


# ---------------------------------------------------------------------------
# Cartan decomposition
# ---------------------------------------------------------------------------

def test_cartan_sl2_example():
    g = sl2_example_matrix()
    dec, _ = cartan_decompose(g, 16)
    assert dec.weights == (-2, 2)
    assert verify_cartan(g, dec).passed
    # this instance reproduces the classical factor choice exactly
    assert derived_h1(g, dec) == SeriesMatrix(QQ, [[tpow(QQ, 1), series(QQ, {0: 1})],
                                                   [series(QQ, {0: -1}), LaurentSeries.zero(QQ)]])
    assert dec.h2 == SeriesMatrix(QQ, [[series(QQ, {0: 1}), series(QQ, {3: 1})],
                                       [LaurentSeries.zero(QQ), series(QQ, {0: 1})]])


def test_cartan_identity():
    g = SeriesMatrix.identity(QQ, 2)
    dec, _ = cartan_decompose(g, 8)
    assert dec.weights == (0, 0)
    assert dec.h2 == SeriesMatrix.identity(QQ, 2)
    assert verify_cartan(g, dec).h1_0 == SeriesMatrix.identity(QQ, 2).constant_matrix()


def test_cartan_diagonal_unshift():
    g = SeriesMatrix.diag_powers(QQ, [3, -1])
    dec, _ = cartan_decompose(g, 8)
    assert dec.weights == (-1, 3)
    assert verify_cartan(g, dec).passed


@pytest.mark.parametrize("n", [0, -3])
def test_cartan_refuses_a_precision_below_one(n):
    with pytest.raises(ValueError):
        cartan_decompose(sl2_example_matrix(), n)


def test_cartan_refuses_a_precision_beyond_its_input():
    # known to t^5: decomposed and verified at precision 4, refused at 6 and 32
    def known_to_t5(*coeffs):
        return LaurentSeries(QQ, 0, [QQ.from_int(c) for c in coeffs], 5)

    g = SeriesMatrix(QQ, [[known_to_t5(1, 2), known_to_t5(0, 1)], [known_to_t5(3, 0, 1), known_to_t5(1, 1)]])
    assert verify_cartan(g, cartan_decompose(g, 4)[0]).passed
    for n in (6, 32):
        with pytest.raises(PrecisionError, match="known only to t\\^5"):
            cartan_decompose(g, n)


def test_verify_accepts_the_classical_factor_triple():
    # the textbook factor triple of the example curve, assembled by hand
    from borderlab import CartanDecomposition

    g = sl2_example_matrix()
    h1 = SeriesMatrix(QQ, [[tpow(QQ, 1), series(QQ, {0: 1})],
                           [series(QQ, {0: -1}), LaurentSeries.zero(QQ)]])
    h2 = SeriesMatrix(QQ, [[series(QQ, {0: 1}), series(QQ, {3: 1})],
                           [LaurentSeries.zero(QQ), series(QQ, {0: 1})]])
    dec = CartanDecomposition(weights=(-2, 2), h2=h2, precision=12)
    verdict = verify_cartan(g, dec)
    assert verdict.passed and verdict.h1_0 == h1.constant_matrix()
    assert derived_h1(g, dec) == h1


def test_verify_accepts_alternative_valid_triples():
    # rescaling h2 by a constant diagonal rescales the derived h1 by it
    from borderlab import CartanDecomposition

    g = sl2_example_matrix()
    dec, _ = cartan_decompose(g, 16)
    scale = SeriesMatrix(QQ, [[series(QQ, {0: 5}), LaurentSeries.zero(QQ)],
                              [LaurentSeries.zero(QQ), series(QQ, {0: 7})]])
    alt = CartanDecomposition(weights=dec.weights, h2=dec.h2 @ scale, precision=dec.precision)
    verdict = verify_cartan(g, alt)
    assert verdict.passed
    assert verdict.h1_0 == linalg.mat_mul(QQ, verify_cartan(g, dec).h1_0, scale.constant_matrix())


def test_verify_rejects_permuted_weights():
    g = sl2_example_matrix()
    dec, _ = cartan_decompose(g, 16)
    tampered = dec._replace(weights=(2, -2))
    verdict = verify_cartan(g, tampered)
    assert not verdict.passed
    assert verdict.h1_0 is None


def test_verify_stable_under_doubled_precision():
    g = sl2_example_matrix()
    dec, _ = cartan_decompose(g, 32)
    assert verify_cartan(g, dec).passed


def test_weight_sum_equals_det_valuation():
    rng = random.Random(41)
    for trial in range(25):
        field = QQ if trial % 2 else PrimeField(65537)
        n = rng.randint(1, 4)
        g = random_invertible_laurent_matrix(field, n, rng)
        dec, _ = cartan_decompose(g, 16)
        assert sum(dec.weights) == leibniz_determinant(g).valuation()
        assert list(dec.weights) == sorted(dec.weights)


def test_weights_invariant_under_unit_translations():
    rng = random.Random(42)
    fp = PrimeField(1000003)
    for trial in range(10):
        field = QQ if trial % 2 else fp
        n = rng.randint(2, 4)
        g = random_invertible_laurent_matrix(field, n, rng)
        u = random_series_unit_matrix(field, n, rng)
        v = random_series_unit_matrix(field, n, rng)
        base, _ = cartan_decompose(g, 16)
        moved, _ = cartan_decompose(u @ g @ v, 16)
        assert sorted(base.weights) == sorted(moved.weights)


def test_round_trip_random():
    rng = random.Random(43)
    fp = PrimeField(1000003)
    for trial in range(60):
        field = QQ if trial % 2 else fp
        n = rng.randint(1, 4)
        g = random_invertible_laurent_matrix(field, n, rng)
        dec, _ = cartan_decompose(g, 16)
        assert verify_cartan(g, dec).passed


def test_determinism():
    from borderlab.jsonio import cartan_to_obj

    g = sl2_example_matrix()
    a = cartan_to_obj(cartan_decompose(g, 16)[0])
    b = cartan_to_obj(cartan_decompose(g, 16)[0])
    assert a == b


# ---------------------------------------------------------------------------
# soundness: h1 and h2 must lie in K[[t]]
# ---------------------------------------------------------------------------

def test_verify_rejects_factors_outside_power_series():
    # g = diag(t^-1 + 1, 1) has weights (-1, 0); the forged triple claims (0, 0)
    g = SeriesMatrix(QQ, [[series(QQ, {-1: 1, 0: 1}), LaurentSeries.zero(QQ)],
                          [LaurentSeries.zero(QQ), series(QQ, {0: 1})]])
    assert cartan_decompose(g, 16)[0].weights == (-1, 0)
    forged = CartanDecomposition(weights=(0, 0), h2=SeriesMatrix.identity(QQ, 2), precision=16)
    verdict = verify_cartan(g, forged)
    assert not verdict.passed
    assert "h1" in verdict.reason and "K[[t]]" in verdict.reason
    # the mirror image: h2 = g outside K[[t]] claims weights (0, 0) for g^-1
    inv = g.inverse(17)
    assert cartan_decompose(inv, 16)[0].weights == (0, 1)
    mirrored = CartanDecomposition(weights=(0, 0), h2=g, precision=16)
    verdict = verify_cartan(inv, mirrored)
    assert not verdict.passed
    assert "h2" in verdict.reason and "K[[t]]" in verdict.reason


# ---------------------------------------------------------------------------
# the residual check against the inverse-based oracle
# ---------------------------------------------------------------------------

def with_entry(m, i, j, entry):
    rows = [list(row) for row in m.entries]
    rows[i][j] = entry
    return SeriesMatrix(m.field, rows)


def plus_term(e, c, k):
    """``e + c · t^k``, cut where ``e`` is cut."""
    return e + LaurentSeries(e.field, k, [c], e.trunc)


def tampered(dec, rng):
    """Copies of ``dec`` with one coefficient or entry of ``h2``, one weight or the precision changed."""
    field = dec.h2.field
    size = len(dec.weights)
    i, j = rng.randrange(size), rng.randrange(size)
    c = field.random_scalar(rng, nonzero=True)
    k = rng.randrange(max(dec.h2.trunc if dec.h2.trunc is not None else dec.precision, 1))
    entry = dec.h2.entries[i][j]
    bumped = list(dec.weights)
    bumped[j] += rng.choice((-1, 1))
    return [
        dec._replace(h2=with_entry(dec.h2, i, j, plus_term(entry, c, k))),
        dec._replace(h2=with_entry(dec.h2, i, j, plus_term(entry, field.one(), -1))),
        dec._replace(h2=with_entry(dec.h2, i, j, entry.shift(rng.choice((-1, 1))))),
        dec._replace(h2=with_entry(dec.h2, i, j, entry.truncate(rng.randrange(max(entry.val, 0) + 2)))),
        dec._replace(weights=tuple(bumped)),
        dec._replace(weights=tuple(bumped[::-1])),
        dec._replace(precision=dec.precision + rng.choice((-1, 1))),
        # a weight at the precision, where the residual alone would not read it
        dec._replace(precision=max(1, max(dec.weights))),
    ]


def oracle_matrices():
    """Seeded matrices over Q and F_p of size 1-5, monomial-dominated or moved by units."""
    rng = random.Random(47)
    fp = PrimeField(1000003)
    for trial in range(30):
        field = QQ if trial % 2 else fp
        n = 1 + trial % 5
        g = random_invertible_laurent_matrix(field, n, rng)
        if trial % 3 == 0:
            g = random_series_unit_matrix(field, n, rng) @ g @ random_series_unit_matrix(field, n, rng)
        yield g, rng


def test_residual_check_agrees_with_the_inverse_oracle():
    decided = {True: 0, False: 0}
    for g, rng in oracle_matrices():
        dec, _ = cartan_decompose(g, 16)
        for candidate in [dec, *tampered(dec, rng)]:
            if candidate.precision < 1:
                continue
            try:
                want = inverse_residual_check(g, derived_h1(g, candidate), candidate)
            except PrecisionError:
                continue
            assert verify_cartan(g, candidate).passed == want
            decided[want] += 1
    # both verdicts occur, so the comparison is not vacuous
    assert decided[True] >= 30 and decided[False] >= 60, decided


def test_cim_output_checks_without_precision_error_at_the_default_precision():
    for g, _ in oracle_matrices():
        assert verify_cartan(g, cartan_decompose(g, DEFAULT_TRUNCATION)[0]).passed


def test_the_derived_check_agrees_with_the_stored_h1_checks():
    # gen's matrices over Q and F_p, of size 1-8 at a precision 1-40, their
    # decompositions and one-change copies of them: the check that derives
    # h1 passes exactly when the derived h1, made exact, passes the three
    # checks of a stored h1; and a passing check hands back its h1(0)
    rng = random.Random(59)
    outcomes = Counter()
    for trial in range(40):
        field = QQ if trial % 2 else PrimeField(P62)
        size, n = 1 + trial % 8, rng.choice((1, 2, rng.randint(1, 40)))
        g = random_invertible_laurent_matrix(field, size, rng)
        dec, _ = cartan_decompose(g, n)
        for candidate in [dec, *tampered(dec, rng)]:
            if candidate.precision < 1:
                continue
            verdict = verify_cartan(g, candidate)
            h1 = derived_h1(g, candidate)
            assert verdict.passed == stored_h1_check(g, h1, candidate), (trial, candidate)
            assert verdict.h1_0 == (h1.constant_matrix() if verdict.passed else None)
            corner = max(candidate.weights) >= candidate.precision
            outcomes[(verdict.passed, corner)] += 1
    # not vacuous: both verdicts, also where a weight reaches the precision
    assert min(outcomes.values()) >= 5 and len(outcomes) == 4, outcomes


def test_the_ground_truth_factors_of_random_instances_verify():
    # any valid triple passes, unsorted weights included:
    # random_invertible_laurent_matrix builds g = diag(t^m) · U with U(0) an
    # invertible diagonal, so h1 = 1, the weights m and h2 = U^-1; and the
    # factors h1 · diag(t^w) · h2^-1 that random_witness_instance multiplies
    rng = random.Random(53)
    for trial in range(24):
        field = QQ if trial % 2 else PrimeField(1000003)
        size, n = 1 + trial % 6, rng.randint(1, 20)
        g = random_invertible_laurent_matrix(field, size, rng)
        m = [row[i].val for i, row in enumerate(g.entries)]
        unit = SeriesMatrix(field, [[e.shift(-v) for e in row] for row, v in zip(g.entries, m)])
        verdict = verify_cartan(g, CartanDecomposition(tuple(m), unit.inverse(n + 8), n))
        assert verdict.passed and verdict.h1_0 == SeriesMatrix.identity(field, size).constant_matrix()
        h1 = random_series_unit_matrix(field, size, rng)
        h2_inv = random_series_unit_matrix(field, size, rng)
        w = [rng.randint(-2, 2) for _ in range(size)]
        g = h1 @ SeriesMatrix.diag_powers(field, w) @ h2_inv
        verdict = verify_cartan(g, CartanDecomposition(tuple(w), h2_inv.inverse(n + 8), n))
        assert verdict.passed and verdict.h1_0 == h1.constant_matrix()


def test_a_weight_at_or_above_the_precision_is_certified():
    # g = diag(1, t^5) at precision 2.  The residual mod t^2 holds with
    # h1 = 1 for the weights (0, 3) and (0, 7) too, but the check reads
    # column 1 of g·h2 through t^w_1: t^5 / t^3 leaves h1(0) singular, and
    # t^5 / t^7 lies outside K[[t]]
    g = SeriesMatrix.diag_powers(QQ, [0, 5])
    dec, _ = cartan_decompose(g, 2)
    assert dec.weights == (0, 5) and verify_cartan(g, dec).passed
    identity = SeriesMatrix.identity(QQ, 2)
    for weights, reason in (((0, 3), "h1(0) is not invertible"), ((0, 7), "h1 has an entry of valuation -2")):
        forged = CartanDecomposition(weights, identity, 2)
        assert stored_h1_check(g, identity, forged)
        verdict = verify_cartan(g, forged)
        assert not verdict.passed and verdict.reason.startswith(reason)
    # h2 = 1 + O(t^cut) leaves g·h2 known to t^cut, which must reach both
    # t^precision and past t^5
    for cut, precision, reason in (
        (5, 2, "coefficient of t^5 unknown (truncated at t^5)"),
        (6, 2, None),
        (6, 6, None),
        (6, 7, "g h2 known only to t^6, below t^7"),
    ):
        h2 = SeriesMatrix(QQ, [[e.truncate(cut) for e in row] for row in identity.entries])
        verdict = verify_cartan(g, CartanDecomposition((0, 5), h2, precision))
        assert verdict.passed == (reason is None)
        assert reason is None or verdict.reason == f"insufficient precision for the residual check: {reason}"


# ---------------------------------------------------------------------------
# one full-precision Smith pass per decomposition
# ---------------------------------------------------------------------------

def v_tracking_smith_form(m, n):
    """Smith reduction that tracks the right transform ``v`` of
    ``m ≡ u · diag(t^e) · v mod t^n`` row operation by row operation, with
    the library's pivot rule (test reference for the h2-tracking pass)."""
    size, field = m.rows, m.field
    a = [list(row) for row in m.entries]
    u = [list(row) for row in SeriesMatrix.identity(field, size).entries]
    v = [list(row) for row in SeriesMatrix.identity(field, size).entries]
    exponents = []
    for k in range(size):
        cand = ((i, j) for i in range(k, size) for j in range(k, size))
        (pi, pj), pval = certify_min_valuation(((ij, a[ij[0]][ij[1]]) for ij in cand))
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            for row in u:
                row[k], row[pi] = row[pi], row[k]
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            v[k], v[pj] = v[pj], v[k]
        pivot = a[k][k]
        pinv = pivot.inverse(n)
        for i in range(k + 1, size):
            if a[i][k].has_no_known_terms():
                continue
            f = a[i][k] * pinv
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
            for row in u:
                row[k] = row[k] + f * row[i]
        for j in range(k + 1, size):
            if a[k][j].has_no_known_terms():
                continue
            f = a[k][j] * pinv
            for row in a:
                row[j] = row[j] - f * row[k]
            v[k] = [x + f * y for x, y in zip(v[k], v[j])]
        unit = pivot.shift(-pval)
        for row in u:
            row[k] = row[k] * unit
        exponents.append(pval)
    return SeriesMatrix(field, u), exponents, SeriesMatrix(field, v)


def two_pass_decompose(g, n):
    """``(decomposition, passes, h1)``: a first reference Smith pass at
    ``n + 2·shift``, a corrected re-run when the largest exponent needs
    more, and ``h2 = v⁻¹`` by Gauss-Jordan at the last pass's precision
    (test oracle).  ``passes`` lists the precision of each pass, and ``h1``
    is the pass's left factor ``u``."""
    shift = max(0, -g.min_valuation_lower_bound())
    passes = [n + 2 * shift]
    while True:
        u, exponents, v = v_tracking_smith_form(g.shift(shift), passes[-1])
        need = n + shift + max(exponents, default=0)
        if passes[-1] >= need:
            break
        passes.append(need)
    weights = tuple(e - shift for e in exponents)
    return CartanDecomposition(weights=weights, h2=v.inverse(passes[-1]), precision=n), passes, u


def one_pass_inputs(tmp_path):
    """``gen --kind cim`` matrices over Q and F_p, and the binary-cubics curve."""
    paths = [os.path.join(DATA, "binary_cubics_curve.json")]
    for field in ("q", "fp"):
        for size in (2, 4, 6):
            paths.append(str(tmp_path / f"cim-{field}{size}.json"))
            assert cli.main(["gen", "--kind", "cim", "--field", field, "--size", str(size), "--seed", "1",
                             "--out", paths[-1]]) == 0
    for path in paths:
        with open(path) as handle:
            yield from jsonio.cim_input_from_obj(json.load(handle))


def test_decomposition_makes_one_full_precision_smith_pass(monkeypatch, tmp_path):
    precisions = []
    smith = loopgroup.smith_form
    monkeypatch.setattr(loopgroup, "smith_form", lambda m, n: precisions.append(n) or smith(m, n))
    two_passes = 0
    for g in one_pass_inputs(tmp_path):
        precisions.clear()
        dec, _ = cartan_decompose(g, 32)
        assert len([n for n in precisions if n >= 32]) == 1, precisions
        reference, passes, _ = two_pass_decompose(g, 32)
        assert jsonio.cartan_to_obj(dec) == jsonio.cartan_to_obj(reference)
        two_passes += len(passes) == 2
    # the reference re-runs its reduction on some inputs, so one pass saves one
    assert two_passes >= 3
    # a non-monomial pivot whose elimination cancels past t^1 defeats the
    # probe; the full passes then give the reference's factors
    g = SeriesMatrix(QQ, [[series(QQ, {0: 1, 1: 1}), series(QQ, {0: 1})],
                          [series(QQ, {0: 1}), series(QQ, {0: 1, 5: 1})]])
    with pytest.raises(PrecisionError):
        smith(g, 1)
    assert jsonio.cartan_to_obj(cartan_decompose(g, 32)[0]) == jsonio.cartan_to_obj(two_pass_decompose(g, 32)[0])


#: the largest prime below 2^62
P62 = 4611686018427387847


def cut_at(m, n):
    return SeriesMatrix(m.field, [[e.truncate(n) for e in row] for row in m.entries])


def sparse_laurent_matrix(field, size, rng):
    """Entries of 0-2 terms in t^-1 ... t^3, so that many pivots are exact
    monomials; the matrix may be singular."""
    return SeriesMatrix(field, [
        [LaurentSeries.from_terms(field, {rng.randint(-1, 3): field.random_scalar(rng, nonzero=True)
                                          for _ in range(rng.choice((0, 1, 1, 2)))})
         for _ in range(size)]
        for _ in range(size)
    ])


def exact_h2_matrix(field):
    """A matrix whose Smith pass makes only exact column operations, while
    the Gauss-Jordan inverse of its ``v`` meets a pivot ``1 + t``."""
    return SeriesMatrix(field, [[series(field, {1: 1}), series(field, {}), series(field, {0: 1})],
                                [series(field, {0: -1}), series(field, {0: 1}), series(field, {1: 1})],
                                [series(field, {}), series(field, {}), series(field, {0: 1, 1: 1})]])


def comparison_inputs():
    """Seeded ``(g, n)`` over Q, F_2, F_3, F_7 and F_P62, of size 1-7: exact
    matrices, dense (moved by units at odd sizes) and sparse, at n and at
    the 2n of one doubling retry, and a truncated copy at its own order and
    two below it; and :func:`exact_h2_matrix` at 8 and 16."""
    rng = random.Random(2025)
    for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(P62)):
        yield exact_h2_matrix(field), 8
        yield exact_h2_matrix(field), 16
        for size in range(1, 8):
            g = random_invertible_laurent_matrix(field, size, rng)
            if size % 2:
                g = random_series_unit_matrix(field, size, rng) @ g @ random_series_unit_matrix(field, size, rng)
            for m in (g, sparse_laurent_matrix(field, size, rng)):
                yield m, 8
                yield m, 16
            cut = rng.randint(4, 12)
            yield cut_at(g, cut), cut
            yield cut_at(g, cut), cut - 2


def test_decompositions_match_the_inverse_reference():
    # the library's h2 against the reference's Gauss-Jordan inverse of v:
    # equal, except that an h2 the library knows exactly may be O(t^work)
    # in the reference, which is then the library's cut at work
    outcomes = Counter()
    for g, n in comparison_inputs():
        try:
            reference, passes, _ = two_pass_decompose(g, n)
        except (PrecisionError, SingularError) as exc:
            with pytest.raises(type(exc)):
                cartan_decompose(g, n)
            outcomes[type(exc).__name__] += 1
            continue
        try:
            dec, _ = cartan_decompose(g, n)
        except PrecisionError:
            # refused: the input is known to too little for the reference's
            # factors to pass the check
            assert g.trunc is not None and not verify_cartan(g, reference).passed
            outcomes["refused"] += 1
            continue
        want = jsonio.cartan_to_obj(reference)
        if jsonio.cartan_to_obj(dec) == want:
            outcomes["equal"] += 1
            continue
        work = passes[-1]
        assert dec.h2.trunc is None and reference.h2.trunc == work
        assert jsonio.cartan_to_obj(dec._replace(h2=cut_at(dec.h2, work))) == want
        outcomes["exact h2"] += 1
    assert outcomes["equal"] >= 150 and outcomes["exact h2"] >= 1 and outcomes["refused"] >= 10, outcomes


def precision_fuzz(field=QQ, seed=2024, count=3000, exact=False):
    """``count`` seeded square matrices of size 1-4 whose entries have
    valuation -2 ... 3 and 0-4 coefficients in -3 ... 3, half of them
    truncated 0-3 orders past their last coefficient unless ``exact``."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(1, 4)
        rows = []
        for _ in range(size):
            row = []
            for _ in range(size):
                val = rng.randint(-2, 3)
                coeffs = [field.from_int(rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
                trunc = val + len(coeffs) + rng.randint(0, 3) if not exact and rng.random() < 0.5 else None
                row.append(LaurentSeries(field, val, coeffs, trunc))
            rows.append(row)
        yield SeriesMatrix(field, rows)


def test_no_decomposition_claims_more_precision_than_its_input_has():
    # each matrix is decomposed at its own order (16 when exact): the result
    # verifies or is refused, and a refusal on precision alone falls where
    # the reference's factors fail the check too.  The check is the one
    # rule: every decomposition it passes is kept
    outcomes = Counter()
    for g in precision_fuzz():
        n = 16 if g.trunc is None else g.trunc
        if n < 1:
            continue
        try:
            dec, verdict = cartan_decompose(g, n)
        except SingularError:
            outcomes["singular"] += 1
            continue
        except PrecisionError:
            try:
                reference, _, _ = two_pass_decompose(g, n)
            except PrecisionError:
                outcomes["ambiguous pivot"] += 1
                continue
            assert not verify_cartan(g, reference).passed
            outcomes["refused"] += 1
            continue
        assert verdict.passed and verify_cartan(g, dec) == verdict
        outcomes["verified"] += 1
    # not vacuous: 1 145 decompositions verify, and 188 are refused on precision alone
    assert outcomes["verified"] >= 1145 and outcomes["refused"] >= 180, outcomes


def test_truncated_inputs_make_the_passes_and_checks_of_the_doubling_retry(monkeypatch):
    # each truncated fuzz input decomposed as cim does, at its own order and
    # at 32: a truncated input's working precision already reaches what it
    # is known to, so it is never doubled.  A pass at precision 1 counts as
    # a probe, as does the full pass of an unshifted input at n = 1; each
    # check the decomposition makes is counted by its verdict, and a kept
    # decomposition by the check run on it again
    counts = Counter()
    smith, check = loopgroup.smith_form, loopgroup.verify_cartan
    monkeypatch.setattr(loopgroup, "smith_form",
                        lambda m, n: counts.update(["probe" if n == 1 else "full pass"]) or smith(m, n))

    def counted_check(g, dec):
        verdict = check(g, dec)
        counts.update(["check", "passed" if verdict.passed else "failed"])
        return verdict

    monkeypatch.setattr(loopgroup, "verify_cartan", counted_check)
    for g in precision_fuzz():
        if g.trunc is None:
            continue
        for n in (g.trunc, 32):
            try:
                dec, _ = cartan_decompose(g, n)
            except (PrecisionError, SingularError, ValueError) as exc:
                counts[type(exc).__name__] += 1
                continue
            counts["verified" if check(g, dec).passed else "refuted"] += 1
    # 188 full passes fail the check, and each is refused: a truncated
    # input is not doubled
    assert counts == {"probe": 1874, "full pass": 1764, "check": 988, "passed": 800, "failed": 188,
                      "verified": 800, "PrecisionError": 3582, "ValueError": 748}


def doubling_reference(g, n, monkeypatch):
    """``cim``'s decomposition as it was when the CLI owned the precision
    retry (test reference): a decomposition at precision ``n`` with no
    working-precision doubling, and a check that raises PrecisionError when
    it cannot decide, retried at 2n, 4n and 8n on PrecisionError, and
    refused at once at a precision above what ``g`` is known to."""
    with monkeypatch.context() as patched:
        patched.setattr(loopgroup, "MAX_DOUBLINGS", 0)
        for _ in range(4):
            if g.trunc is not None and g.trunc < n:
                raise PrecisionError(f"input known only to t^{g.trunc}, below precision {n}")
            try:
                dec, _ = cartan_decompose(g, n)
                inverse_residual_check(g, derived_h1(g, dec), dec)
                return dec
            except PrecisionError:
                n *= 2
        raise PrecisionError("precision retries exhausted")


def test_working_precision_doublings_end_as_the_claimed_precision_doublings_did(monkeypatch):
    # exact F_3 fuzz inputs at n = 1 and 2, where cancellations mod 3 leave
    # pivots the first working precision cannot certify: each (g, n) ends in
    # the reference's outcome class, now at the asked n, and verifies
    outcomes = Counter()
    for g in precision_fuzz(PrimeField(3), seed=9, count=600, exact=True):
        for n in (1, 2):
            try:
                reference = doubling_reference(g, n, monkeypatch)
            except (PrecisionError, SingularError) as exc:
                with pytest.raises(type(exc)):
                    cartan_decompose(g, n)
                outcomes[type(exc).__name__] += 1
                continue
            dec, _ = cartan_decompose(g, n)
            assert dec.precision == n and verify_cartan(g, dec).passed
            outcomes["rescued" if reference.precision > n else "decomposed"] += 1
    # not vacuous: 6 pairs need a doubling, and 4 stay undecided after three
    assert outcomes["rescued"] >= 5 and outcomes["PrecisionError"] >= 1 and outcomes["decomposed"] >= 800, outcomes


# ---------------------------------------------------------------------------
# the fused kernel under the decomposition and its check
# ---------------------------------------------------------------------------

def reference_muladd(x, terms, subtract=False):
    """``x ± Σ a·b`` from the schoolbook product and a sum taken exponent by
    exponent (test reference for ``series.muladd``)."""
    field = x.field
    parts = [a if b is None else schoolbook_mul(a, b) for a, b in terms]
    truncs = [s.trunc for s in (x, *parts) if s.trunc is not None]
    trunc = min(truncs, default=None)
    coeffs = {}
    for i, s in enumerate((x, *parts)):
        for k, c in enumerate(s.coeffs, s.val):
            if trunc is None or k < trunc:
                coeffs[k] = coeffs.get(k, 0) + (-c if subtract and i else c)
    return with_terms(field, coeffs, trunc)


def test_decompositions_match_the_operator_reference(monkeypatch, tmp_path):
    from borderlab import series as series_module

    inputs = []
    for field in ("q", "fp"):
        for size in range(1, 9):
            path = tmp_path / f"cim-{field}{size}.json"
            assert cli.main(["gen", "--kind", "cim", "--field", field, "--size", str(size), "--seed", "1",
                             "--out", str(path)]) == 0
            inputs.extend(jsonio.cim_input_from_obj(json.loads(path.read_text())))

    def run():
        out = []
        for g in inputs:
            for n in (8, 32):
                dec, _ = cartan_decompose(g, n)
                out.append((jsonio.cartan_to_obj(dec), verify_cartan(g, dec).passed))
        return out

    fused = run()
    calls = []
    for module in (series_module, loopgroup):
        monkeypatch.setattr(module, "muladd", lambda *args: calls.append(1) or reference_muladd(*args))
    assert run() == fused
    assert all(passed for _, passed in fused)
    assert len(calls) > 1000
