import copy
import random
import re

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

from conftest import plain, series, tpow, unit_tensor, written


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
    obj = plain(m)
    assert obj["field"] == {"kind": "Fp", "p": "101"}
    assert jsonio.matrix_from_obj(obj) == m


def test_documents_over_one_prime_decode_to_one_field():
    # so a kernel's identity test skips the field comparison; a number that
    # is not prime is refused each time it is read, not remembered
    rng = random.Random(2)
    fp = PrimeField(1000003)
    g = jsonio.matrix_from_obj(plain(random_invertible_laurent_matrix(fp, 2, rng)))
    t = jsonio.tensor_from_obj(plain(unit_tensor(fp, 2, 3)))
    assert g.field is t.field is jsonio.field_from_obj(fp.to_obj())
    assert g.field == fp
    for _ in range(2):
        with pytest.raises(ValueError, match="1000001 is not prime"):
            jsonio.field_from_obj({"kind": "Fp", "p": "1000001"})


def test_tensor_round_trip_sparse():
    t = unit_tensor(QQ, 3, 3)
    obj = plain(t)
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
    dec, _ = cartan_decompose(g, 16)
    obj = plain(jsonio.cartan_to_obj(dec))
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
    assert jsonio.cartan_results_from_obj(plain(obj)) == factors


def test_witness_round_trip():
    rng = random.Random(6)
    gs, p = random_witness_instance(QQ, (2, 2), rng)
    w = build_witness(gs, p, 16)
    obj = plain(jsonio.witness_to_obj(w, gs, p))
    back, back_gs, back_p = jsonio.witness_from_obj(obj)
    assert back == w
    assert back_gs == list(gs)
    assert back_p == p


@pytest.mark.parametrize("lift", ["bogus", 5, "SYM3"])
def test_witness_input_refuses_an_unknown_lift(lift):
    # no lift and the sym3 lift are the only ones defined; another is a
    # malformed input, not a witness for the clauses to fail
    gs, p = random_witness_instance(QQ, (2, 2), random.Random(6))
    obj = {"g": [plain(jsonio.matrix_to_obj(g)) for g in gs], "p": plain(jsonio.tensor_to_obj(p)), "lift": lift}
    assert jsonio.witness_input_from_obj(dict(obj, lift=None)) == (list(gs), p, None)
    with pytest.raises(SchemaError, match=rf"^lift: expected null or 'sym3', got '{lift}'$"):
        jsonio.witness_input_from_obj(obj)


def test_certificate_round_trip():
    cert = certify_lower_bound(8)
    obj = plain(jsonio.certificate_to_obj(cert))
    back = jsonio.certificate_from_obj(obj)
    assert back == cert


def test_certificate_decoder_refuses_another_kind():
    # verify picks the decoder by kind, but the decoder checks it too
    obj = plain(jsonio.certificate_to_obj(certify_lower_bound(8)))
    for kind in ("cartan", "witness", None):
        with pytest.raises(SchemaError, match="not a degeneration certificate"):
            jsonio.certificate_from_obj(dict(obj, kind=kind))


@pytest.mark.parametrize("key", ["S", "TTilde"])
def test_certificate_decoder_refuses_a_tensor_that_is_not_n_cubed(key):
    # each tensor is n x n x n: another shape is a malformed document, not
    # a claim for the recheck to fail
    obj = plain(jsonio.certificate_to_obj(certify_lower_bound(8)))
    obj[key]["dims"] = [8, 8, 9]
    with pytest.raises(SchemaError, match=rf"^{key}: dims \[8, 8, 9\] are not n x n x n for n=8$"):
        jsonio.certificate_from_obj(obj)


def test_sorted_json_is_deterministic():
    cert = certify_lower_bound(8)
    a = written(jsonio.certificate_to_obj(cert))
    cert2 = certify_lower_bound(8)
    b = written(jsonio.certificate_to_obj(cert2))
    assert a == b


@pytest.fixture(scope="module")
def documents():
    """One plain document of each kind that a decoder below reads."""
    from borderlab.loopgroup import cartan_factors

    gs, p = random_witness_instance(QQ, (2, 2), random.Random(6))
    field = PrimeField(7)
    return {
        "cim output": plain(jsonio.cartan_results_to_obj(cartan_factors(list(gs), 8))),
        "witness": plain(jsonio.witness_to_obj(build_witness(gs, p, 16), gs, p)),
        "certificate": plain(jsonio.certificate_to_obj(certify_lower_bound(8))),
        "tensor": plain(jsonio.tensor_to_obj(p)),
        "series": plain(jsonio.series_to_obj(LaurentSeries(field, -1, [3, 0, 5], 4))),
        "field": {"kind": "Fp", "p": "7"},
        "cim input": {"factors": [plain(jsonio.matrix_to_obj(g)) for g in gs]},
        "witness input": {"g": [plain(jsonio.matrix_to_obj(g)) for g in gs], "p": plain(jsonio.tensor_to_obj(p))},
    }


DECODERS = {
    "cim output": jsonio.cartan_results_from_obj,
    "witness": jsonio.witness_from_obj,
    "certificate": jsonio.certificate_from_obj,
    "tensor": jsonio.tensor_from_obj,
    "series": lambda obj: jsonio.series_from_obj(PrimeField(7), obj),
    "field": jsonio.field_from_obj,
    "cim input": jsonio.cim_input_from_obj,
    "witness input": jsonio.witness_input_from_obj,
}

#: (document, path to a node, a value of the wrong type for it, the name its check gives)
WRONG_TYPES = [
    ("cim output", (), [], "cim output"),
    ("cim output", ("factors",), {}, "factors"),
    ("cim output", ("factors", 0), [], "cim result"),
    ("witness", (), [], "witness"),
    ("witness", ("g",), {}, "g"),
    ("witness", ("translations",), {}, "translations"),
    ("witness", ("translations", 0), {}, "scalar matrix"),
    ("witness", ("translations", 0, 0), {}, "scalar matrix row"),
    ("witness", ("cim",), {}, "witness decompositions"),
    ("witness", ("lambda",), [], "subgroup"),
    ("witness", ("lambda", "factors"), {}, "subgroup factors"),
    ("witness", ("lambda", "factors", 0), [], "subgroup factor"),
    ("witness", ("lambda", "factors", 0, "weights"), {}, "subgroup weights"),
    ("certificate", ("profile",), [], "profile"),
    ("certificate", ("profile", "n"), 1.5, "profile n"),
    ("certificate", ("profile", "r"), 1.5, "profile r"),
    ("certificate", ("r",), 1.5, "r"),
    ("certificate", ("jacobianRank",), 1.5, "jacobianRank"),
    ("certificate", ("pyramidSize",), 1.5, "pyramidSize"),
    ("certificate", ("verdict",), 1, "verdict"),
    ("certificate", ("S",), [], "S"),
    ("tensor", (), [], "tensor"),
    ("tensor", ("dims",), {}, "tensor dims"),
    ("tensor", ("dims", 0), 1.5, "tensor dim"),
    ("tensor", ("entries",), {}, "tensor entries"),
    ("tensor", ("entries", 0), [], "tensor entry"),
    ("tensor", ("entries", 0, "idx"), {}, "tensor idx"),
    ("series", ("trunc",), 1.5, "series trunc"),
    ("field", ("p",), 7.5, "field prime"),
    ("cim input", (), [], "cim input"),
    ("cim input", ("factors",), {}, "factors"),
    ("witness input", (), [], "witness input"),
    ("witness input", ("g",), {}, "g"),
]


@pytest.mark.parametrize("doc, path, bad, what", WRONG_TYPES,
                         ids=[" ".join(map(str, (doc, *path))) for doc, path, _, _ in WRONG_TYPES])
def test_decoders_refuse_a_node_of_the_wrong_type(documents, doc, path, bad, what):
    # a node of the wrong type is refused by its own shape check, by name,
    # and not by whatever later step trips over it
    obj = copy.deepcopy(documents[doc])
    DECODERS[doc](copy.deepcopy(obj))
    if path:
        *parents, last = path
        node = obj
        for key in parents:
            node = node[key]
        node[last] = bad
    else:
        obj = bad
    with pytest.raises(SchemaError, match=rf"^{re.escape(what)}: expected .*, got {type(bad).__name__}$"):
        DECODERS[doc](obj)


def test_an_exact_series_may_write_its_trunc_as_a_string():
    obj = plain(jsonio.series_to_obj(LaurentSeries(QQ, -1, [QQ.one(), QQ.from_int(2)])))
    assert obj["exact"] and obj["trunc"] == 1
    assert jsonio.series_from_obj(QQ, dict(obj, trunc="1")) == jsonio.series_from_obj(QQ, obj)
