import json
import random

import pytest

from borderlab import (
    PrimeField,
    QQ,
    LaurentSeries,
    SchemaError,
    OneParamSubgroup,
    SeriesMatrix,
    SubgroupFactor,
    Tensor,
    build_witness,
    cartan_decompose,
    certify_lower_bound,
)
from borderlab import jsonio
from borderlab.instances import random_invertible_laurent_matrix, random_witness_instance

from conftest import series, tpow, unit_tensor


def test_series_round_trip_exact():
    s = series(QQ, {-2: 1, 0: -3, 5: 2})
    obj = jsonio.series_to_obj(s)
    assert obj["exact"] is True
    assert obj["coeffs"][0] == "1"
    assert jsonio.series_from_obj(QQ, obj) == s


def test_series_round_trip_truncated():
    s = series(QQ, {0: 1, 1: 1}).truncate(7)
    obj = jsonio.series_to_obj(s)
    assert obj == {"val": 0, "coeffs": ["1", "1"], "trunc": 7, "exact": False}
    assert jsonio.series_from_obj(QQ, obj) == s


def test_series_exact_trunc_is_its_end():
    # an exact series may omit its trunc; one it gives must be val + len(coeffs)
    obj = {"val": -2, "coeffs": ["1", "0", "3"], "exact": True}
    s = series(QQ, {-2: 1, 0: 3})
    assert jsonio.series_from_obj(QQ, obj) == s
    assert jsonio.series_from_obj(QQ, dict(obj, trunc=1)) == s
    for trunc in (0, 2, "1/2"):
        with pytest.raises(SchemaError):
            jsonio.series_from_obj(QQ, dict(obj, trunc=trunc))


def test_series_zero_forms():
    exact = LaurentSeries.zero(QQ)
    fuzzy = LaurentSeries(QQ, 0, (), 9)
    for s in (exact, fuzzy):
        assert jsonio.series_from_obj(QQ, jsonio.series_to_obj(s)) == s


def test_matrix_round_trip_fp():
    fp = PrimeField(101)
    rng = random.Random(1)
    m = random_invertible_laurent_matrix(fp, 3, rng)
    obj = jsonio.matrix_to_obj(m)
    assert obj["field"] == {"kind": "Fp", "p": "101"}
    assert jsonio.matrix_from_obj(obj) == m


def test_tensor_round_trip_sparse():
    t = unit_tensor(QQ, 3, 3)
    obj = jsonio.tensor_to_obj(t)
    assert len(obj["entries"]) == 3  # omitted entries are zero
    assert jsonio.tensor_from_obj(obj) == t


def test_subgroup_round_trip_big_weights():
    lam = OneParamSubgroup(
        QQ,
        [
            SubgroupFactor(weights=(2**200, 2**201)),
            SubgroupFactor(
                weights=(-5, 7),
                basis=((QQ.one(), QQ.from_int(2)), (QQ.zero(), QQ.one())),
            ),
        ],
    )
    obj = jsonio.subgroup_to_obj(lam)
    assert obj["factors"][0]["basis"] == "standard"
    assert obj["factors"][0]["weights"][0] == str(2**200)
    assert jsonio.subgroup_from_obj(obj) == lam


def test_cartan_round_trip():
    g = SeriesMatrix(QQ, [
        [tpow(QQ, -1), LaurentSeries.zero(QQ)],
        [LaurentSeries(QQ, -2, [QQ.from_int(-1)]), tpow(QQ, 1)],
    ])
    dec = cartan_decompose(g, 16)
    obj = jsonio.cartan_to_obj(dec)
    back = jsonio.cartan_from_obj(obj)
    assert back == dec
    assert obj["weights"] == [-2, 2]


@pytest.mark.parametrize("seed", range(6))
def test_cim_output_round_trip(seed):
    # one factor is written at the top level and several as the factors
    # list; either reads back as the factors written, over Q and F_p
    from borderlab.loopgroup import cartan_factors

    rng = random.Random(seed)
    field = QQ if seed < 3 else PrimeField(1000003)
    count = 1 + seed % 3
    factors = cartan_factors([random_invertible_laurent_matrix(field, rng.randint(1, 3), rng) for _ in range(count)], 8)
    obj = jsonio.cartan_results_to_obj(factors)
    assert ("factors" in obj) == (count > 1) == ("input" not in obj)
    assert jsonio.cartan_results_from_obj(json.loads(json.dumps(obj))) == factors


def test_witness_round_trip():
    rng = random.Random(6)
    gs, p = random_witness_instance(QQ, (2, 2), rng)
    w = build_witness(gs, p, 16)
    obj = jsonio.witness_to_obj(w, gs, p)
    back, back_gs, back_p = jsonio.witness_from_obj(obj)
    assert back == w
    assert back_gs == list(gs)
    assert back_p == p


def test_certificate_round_trip():
    cert = certify_lower_bound(8)
    obj = jsonio.certificate_to_obj(cert)
    back = jsonio.certificate_from_obj(obj)
    assert back == cert


def test_sorted_json_is_deterministic():
    cert = certify_lower_bound(8)
    a = json.dumps(jsonio.certificate_to_obj(cert), sort_keys=True)
    cert2 = certify_lower_bound(8)
    b = json.dumps(jsonio.certificate_to_obj(cert2), sort_keys=True)
    assert a == b
