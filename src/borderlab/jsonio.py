"""JSON encoding and decoding for every on-disk schema.

Scalars are decimal strings ("a/b" for rationals, "k" for prime-field
residues); big integers (weights) are also strings.  Maps are emitted with
sorted keys by the CLI so identical inputs yield byte-identical files.
"""

from __future__ import annotations

from typing import Optional

from .degeneration import (
    BlockPlacement,
    DegenerationCertificate,
    WeightProfile,
)
from .errors import ShapeError
from .fields import FieldContext
from .loopgroup import CartanDecomposition
from .series import LaurentSeries, SeriesMatrix
from .tensors import OneParamSubgroup, SubgroupFactor, Tensor
from .witness import LimitWitness

TOOL_VERSION = "borderlab-0.1.0"


# -- fields ------------------------------------------------------------------

def field_to_obj(field: FieldContext) -> dict:
    return field.to_obj()


def field_from_obj(obj: dict) -> FieldContext:
    return FieldContext.from_obj(obj)


# -- series and matrices -------------------------------------------------------

def series_to_obj(s: LaurentSeries) -> dict:
    if s.is_exact:
        trunc = s.val + len(s.coeffs)
    else:
        trunc = s.trunc
    return {
        "val": s.val,
        "coeffs": [s.field.format(c) for c in s.coeffs],
        "trunc": trunc,
        "exact": s.is_exact,
    }


def series_from_obj(field: FieldContext, obj: dict) -> LaurentSeries:
    coeffs = [field.parse(c) for c in obj["coeffs"]]
    trunc = None if obj.get("exact", False) else int(obj["trunc"])
    return LaurentSeries(field, int(obj["val"]), coeffs, trunc)


def matrix_to_obj(m: SeriesMatrix) -> dict:
    return {
        "field": field_to_obj(m.field),
        "entries": [[series_to_obj(e) for e in row] for row in m.entries],
    }


def matrix_from_obj(obj: dict, field: Optional[FieldContext] = None) -> SeriesMatrix:
    fld = field if field is not None else field_from_obj(obj["field"])
    entries = [[series_from_obj(fld, e) for e in row] for row in obj["entries"]]
    return SeriesMatrix(fld, entries)


def scalar_matrix_to_obj(field: FieldContext, mat) -> list:
    return [[field.format(v) for v in row] for row in mat]


def scalar_matrix_from_obj(field: FieldContext, obj) -> list:
    return [[field.parse(v) for v in row] for row in obj]


# -- tensors ---------------------------------------------------------------

def tensor_to_obj(t: Tensor) -> dict:
    entries = [
        {"idx": list(pos), "value": t.field.format(v)} for pos, v in t.support()
    ]
    return {"field": field_to_obj(t.field), "dims": list(t.dims), "entries": entries}


def tensor_from_obj(obj: dict, field: Optional[FieldContext] = None) -> Tensor:
    fld = field if field is not None else field_from_obj(obj["field"])
    dims = tuple(int(n) for n in obj["dims"])
    entries = {}
    for item in obj.get("entries", ()):
        pos = tuple(int(i) for i in item["idx"])
        entries[pos] = fld.parse(item["value"])
    return Tensor.from_entries(fld, dims, entries)


# -- subgroups ---------------------------------------------------------------

def subgroup_to_obj(s: OneParamSubgroup) -> dict:
    factors = []
    for fac in s.factors:
        basis = "standard" if fac.basis is None else scalar_matrix_to_obj(s.field, fac.basis)
        factors.append({"basis": basis, "weights": [str(w) for w in fac.weights]})
    return {"field": field_to_obj(s.field), "factors": factors}


def subgroup_from_obj(obj: dict, field: Optional[FieldContext] = None) -> OneParamSubgroup:
    fld = field if field is not None else field_from_obj(obj["field"])
    factors = []
    for fac in obj["factors"]:
        weights = tuple(int(w) for w in fac["weights"])
        basis = fac.get("basis", "standard")
        if basis == "standard":
            factors.append(SubgroupFactor(weights=weights))
        else:
            mat = scalar_matrix_from_obj(fld, basis)
            factors.append(SubgroupFactor(weights=weights, basis=tuple(tuple(r) for r in mat)))
    return OneParamSubgroup(fld, factors)


# -- decompositions -----------------------------------------------------------

def cartan_to_obj(dec: CartanDecomposition) -> dict:
    return {
        "h1": matrix_to_obj(dec.h1),
        "weights": [int(w) for w in dec.weights],
        "h2": matrix_to_obj(dec.h2),
        "precision": dec.precision,
    }


def cartan_from_obj(obj: dict, field: Optional[FieldContext] = None) -> CartanDecomposition:
    h1 = matrix_from_obj(obj["h1"], field)
    h2 = matrix_from_obj(obj["h2"], field)
    return CartanDecomposition(
        h1=h1, weights=tuple(int(w) for w in obj["weights"]), h2=h2, precision=int(obj["precision"])
    )


# -- witnesses -----------------------------------------------------------------

def witness_to_obj(w: LimitWitness) -> dict:
    fld = w.q_tilde.field
    return {
        "kind": "witness",
        "version": TOOL_VERSION,
        "lambda": subgroup_to_obj(w.subgroup),
        "q": tensor_to_obj(w.q),
        "qTilde": tensor_to_obj(w.q_tilde),
        "sharedLimit": tensor_to_obj(w.shared_limit),
        "translations": [scalar_matrix_to_obj(fld, m) for m in w.translations],
        "cim": [cartan_to_obj(dec) for dec in w.decompositions],
        "lift": w.lift,
    }


def witness_from_obj(obj: dict) -> LimitWitness:
    subgroup = subgroup_from_obj(obj["lambda"])
    fld = subgroup.field
    q = tensor_from_obj(obj["q"], fld)
    q_tilde = tensor_from_obj(obj["qTilde"], fld)
    shared = tensor_from_obj(obj["sharedLimit"], fld)
    translations = tuple(
        tuple(tuple(r) for r in scalar_matrix_from_obj(fld, m)) for m in obj["translations"]
    )
    decs = tuple(cartan_from_obj(o, fld) for o in obj["cim"])
    return LimitWitness(
        subgroup=subgroup,
        q=q,
        q_tilde=q_tilde,
        shared_limit=shared,
        translations=translations,
        decompositions=decs,
        lift=obj.get("lift"),
    )


# -- degeneration certificates ---------------------------------------------------

def profile_to_obj(p: WeightProfile) -> dict:
    return {
        "dims": list(p.dims),
        "weights": [[str(w) for w in ws] for ws in p.weights],
        "pyramidRank": p.pyramid_rank,
    }


def profile_from_obj(obj: dict) -> WeightProfile:
    return WeightProfile(
        dims=tuple(int(n) for n in obj["dims"]),
        weights=tuple(tuple(int(w) for w in ws) for ws in obj["weights"]),
        pyramid_rank=obj.get("pyramidRank"),
    )


def placement_to_obj(p: BlockPlacement) -> dict:
    return {"s": p.s, "layer": p.layer, "axis": p.axis, "start": p.start}


def placement_from_obj(obj: dict) -> BlockPlacement:
    return BlockPlacement(
        s=int(obj["s"]), layer=int(obj["layer"]), axis=obj["axis"], start=int(obj["start"])
    )


def certificate_to_obj(c: DegenerationCertificate) -> dict:
    return {
        "kind": "degeneration",
        "version": TOOL_VERSION,
        "n": c.n,
        "r": c.r,
        "profile": profile_to_obj(c.profile),
        "S": tensor_to_obj(c.s_tensor),
        "TTilde": tensor_to_obj(c.t_tilde),
        "placements": [placement_to_obj(p) for p in c.placements],
        "limitCheck": "Pass" if c.limit_check else "Fail",
        "restrictionCheck": "Pass" if c.restriction_check else "Fail",
        "unitSize": c.unit_size,
        "jacobianRank": c.jacobian_rank,
        "pyramidSize": c.pyramid_size,
        "prime": None if c.prime is None else str(c.prime),
        "verdict": c.verdict,
    }


def certificate_from_obj(obj: dict) -> DegenerationCertificate:
    if obj.get("kind") != "degeneration":
        raise ShapeError("not a degeneration certificate")
    s_tensor = tensor_from_obj(obj["S"])
    t_tilde = tensor_from_obj(obj["TTilde"])
    prime = obj.get("prime")
    return DegenerationCertificate(
        n=int(obj["n"]),
        r=int(obj["r"]),
        profile=profile_from_obj(obj["profile"]),
        s_tensor=s_tensor,
        t_tilde=t_tilde,
        placements=tuple(placement_from_obj(p) for p in obj["placements"]),
        limit_check=obj["limitCheck"] == "Pass",
        restriction_check=obj.get("restrictionCheck", "Pass") == "Pass",
        unit_size=obj.get("unitSize"),
        jacobian_rank=int(obj["jacobianRank"]),
        pyramid_size=int(obj["pyramidSize"]),
        prime=None if prime is None else int(prime),
        verdict=obj["verdict"],
    )
