"""The library's records, and the test oracles' weight profile, block
placement, weight decomposition and dichotomy result, are immutable values:
read-only fields, equality and hashing by value, and the validation and
truth value they define."""


import pytest

from borderlab import (
    QQ,
    ShapeError,
    SubgroupFactor,
    Tensor,
    VerificationResult,
    build_pyramid,
    cartan_decompose,
    certify_lower_bound,
)
from borderlab.jsonio import witness_from_obj, witness_to_obj
from borderlab.series import SeriesMatrix
from borderlab.witness import build_witness

from conftest import (
    WeightProfile,
    block_placements,
    cover_size,
    pyramid_weight_profile,
    trivial_subgroup,
    unit_tensor,
    weight_decompose,
)
from paper_claims import DichotomyResult, hypercube_dichotomy


def records():
    """Two independently built copies of one value of every record type."""

    def build():
        g = SeriesMatrix.diag_powers(QQ, [-1, 1])
        p = Tensor(QQ, (2, 2), {(1, 2): QQ.one(), (2, 1): QQ.one()})
        cert = certify_lower_bound(9)
        return {
            "WeightProfile": pyramid_weight_profile(5, 2),
            "PyramidPattern": build_pyramid(5, 2),
            "BlockPlacement": block_placements(3)[0],
            "DegenerationCertificate": cert,
            "DichotomyResult": hypercube_dichotomy([(1, 1, 1)], 1, 3),
            "CartanDecomposition": cartan_decompose(g, 8),
            "VerificationResult": VerificationResult(False, "h1(0) is not invertible"),
            "SubgroupFactor": SubgroupFactor(weights=(0, 1), basis=((QQ.one(), QQ.zero()), (QQ.one(), QQ.one()))),
            "WeightDecomposition": weight_decompose(unit_tensor(QQ, 2, 3), trivial_subgroup(QQ, (2, 2, 2))),
            "LimitWitness": witness_from_obj(witness_to_obj(build_witness([g, g], p, 8), [g, g], p))[0],
        }

    return build(), build()


#: records holding a dict or a OneParamSubgroup were unhashable before too
UNHASHABLE = {"WeightDecomposition", "LimitWitness"}


def test_records_compare_and_hash_by_value():
    first, second = records()
    for name, record in first.items():
        assert type(record).__name__ == name
        assert record == second[name], name
        if name not in UNHASHABLE:
            assert hash(record) == hash(second[name]), name
        else:
            with pytest.raises(TypeError):
                hash(record)


def test_record_fields_are_read_only():
    for name, record in records()[0].items():
        field = type(record)._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_record_defaults_and_replace():
    dec = records()[0]["CartanDecomposition"]
    assert dec._replace(weights=(0, 0)).weights == (0, 0)
    assert len(dec.weights) == 2
    assert VerificationResult(True) == VerificationResult(True, "", None)
    assert cover_size(DichotomyResult(kind="cover")) == 0
    assert WeightProfile(dims=(1,), weights=((0,),)).pyramid_rank is None


@pytest.mark.parametrize(
    "dims, weights, error, message",
    [
        ((2, 2), ((0, 1),), ShapeError, "one weight list per factor required"),
        ((2,), ((0, 1, 2),), ShapeError, "weight list length must match the factor dimension"),
        ((2,), ((3, 1),), ValueError, "weights must be weakly increasing within each factor"),
    ],
    ids=["factor-count", "length", "decreasing"],
)
def test_weight_profile_validates(dims, weights, error, message):
    with pytest.raises(error, match=message):
        WeightProfile(dims=dims, weights=weights)
    with pytest.raises(error, match=message):
        WeightProfile(dims, weights, None)
    # a copy is validated like a new profile
    with pytest.raises(error, match=message):
        WeightProfile(dims=(2,), weights=((0, 1),))._replace(dims=dims, weights=weights)
