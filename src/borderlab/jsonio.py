"""JSON encoding and decoding for every on-disk schema.

Scalars are decimal strings ("a/b" or "a" for rationals, "k" for
prime-field residues); big integers (weights) are also strings.  Maps are
emitted with sorted keys by the CLI so identical inputs yield
byte-identical files.

Decoders check the shape of what they read: a value of the wrong JSON type
raises :class:`~borderlab.errors.SchemaError`, a missing key ``KeyError``.
A matrix or tensor inside a document that fixes the field may leave out
its own ``"field"``, but one it names must be that field; a witness's λ
names the document's field.
A certificate and a Cartan decomposition are read strictly: their keys
must be exactly those of the current format, and a missing one is a
``SchemaError`` too.

A decoder imports the module of the type it builds when it runs, so reading
a ``cim`` document loads no tensor code, reading a witness loads no
degeneration code and reading a certificate loads no series code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .errors import SchemaError
from .fields import _INTEGER, QQ, FieldContext

if TYPE_CHECKING:
    from .degeneration import DegenerationCertificate
    from .loopgroup import CartanDecomposition
    from .series import LaurentSeries, SeriesMatrix
    from .tensors import OneParamSubgroup, Tensor
    from .witness import LimitWitness

#: ``cim`` outputs and witnesses store each decomposition without ``h1``
TOOL_VERSION = "borderlab-0.3.0"
#: certificates name their doubling profile by its recipe and carry no prime
CERTIFICATE_VERSION = "borderlab-0.2.0"


# -- shape checks ------------------------------------------------------------

def _dict(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{what}: expected an object, got {type(value).__name__}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what}: expected an array, got {type(value).__name__}")
    return value


def _int(value, what: str) -> int:
    """An integer written as a JSON number or a ``[+-]digits`` string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{what}: expected an integer, got {type(value).__name__}")
    if isinstance(value, str) and _INTEGER.fullmatch(value) is None:
        raise SchemaError(f"{what}: integer must be [+-]digits, got {value[:40]!r}")
    return int(value)


def _str(value, what: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{what}: expected a scalar string, got {type(value).__name__}")
    return value


def _bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{what}: expected true or false, got {type(value).__name__}")
    return value


def _exact_keys(obj: dict, keys, what: str) -> None:
    if obj.keys() != keys:
        extra, missing = sorted(obj.keys() - keys), sorted(keys - obj.keys())
        raise SchemaError(f"{what}: unknown keys {extra}" if extra else f"{what}: missing keys {missing}")


def _version(obj: dict, what: str, expected: str = TOOL_VERSION) -> None:
    if obj.get("version") != expected:
        raise SchemaError(f"{what}: version {obj.get('version')!r} is not {expected!r}")


def _scalar(field: FieldContext, value, what: str):
    return field.parse(_str(value, what))


# -- fields ------------------------------------------------------------------

def field_from_obj(obj: dict) -> FieldContext:
    if "p" in _dict(obj, "field"):
        _int(obj["p"], "field prime")
    return FieldContext.from_obj(obj)


def _field_of(obj: dict, field: Optional[FieldContext], what: str) -> FieldContext:
    """The field ``obj`` names; when its document gives ``field``, a named one must equal it."""
    if field is None:
        return field_from_obj(obj["field"])
    # the fast test is the bytes every writer emits; a hand-written "p" may be a number
    if "field" in obj and obj["field"] != field.to_obj() and field_from_obj(obj["field"]) != field:
        raise SchemaError(f"{what}: field {obj['field']} is not the document's field {field.to_obj()}")
    return field


# -- series and matrices -------------------------------------------------------

def series_to_obj(s: LaurentSeries) -> dict:
    if s.is_exact:
        trunc = s.val + len(s.nums)
    else:
        trunc = s.trunc
    return {
        "val": s.val,
        "coeffs": s.field.format_vector(s.nums, s.den),
        "trunc": trunc,
        "exact": s.is_exact,
    }


def series_from_obj(field: FieldContext, obj: dict) -> LaurentSeries:
    from .series import LaurentSeries

    _dict(obj, "series")
    coeffs = [_str(c, "series coefficient") for c in _list(obj["coeffs"], "series coeffs")]
    exact = _bool(obj.get("exact", False), "series exact")
    val = _int(obj["val"], "series val")
    trunc = None if exact else _int(obj["trunc"], "series trunc")
    # an exact series is known through its last coefficient; a trunc it gives must say so
    if exact and "trunc" in obj and _int(obj["trunc"], "series trunc") != val + len(coeffs):
        raise SchemaError(f"series trunc: an exact series from t^{val} with {len(coeffs)} coefficients "
                          f"has trunc {val + len(coeffs)}, not {obj['trunc']}")
    return LaurentSeries.from_vector(field, val, *field.parse_vector(coeffs), trunc)


def matrix_to_obj(m: SeriesMatrix) -> dict:
    return {
        "field": m.field.to_obj(),
        "entries": [[series_to_obj(e) for e in row] for row in m.entries],
    }


def matrix_from_obj(obj: dict, field: Optional[FieldContext] = None) -> SeriesMatrix:
    from .series import SeriesMatrix

    _dict(obj, "matrix")
    fld = _field_of(obj, field, "matrix")
    rows = _list(obj["entries"], "matrix entries")
    return SeriesMatrix(fld, [[series_from_obj(fld, e) for e in _list(row, "matrix row")] for row in rows])


def scalar_matrix_to_obj(field: FieldContext, mat) -> list:
    return [[field.format(v) for v in row] for row in mat]


def scalar_matrix_from_obj(field: FieldContext, obj) -> list:
    rows = _list(obj, "scalar matrix")
    return [[_scalar(field, v, "matrix entry") for v in _list(row, "scalar matrix row")] for row in rows]


# -- tensors ---------------------------------------------------------------

def tensor_to_obj(t: Tensor) -> dict:
    entries = [
        {"idx": list(pos), "value": t.field.format(v)} for pos, v in t.support()
    ]
    return {"field": t.field.to_obj(), "dims": list(t.dims), "entries": entries}


def tensor_from_obj(obj: dict, field: Optional[FieldContext] = None) -> Tensor:
    from .tensors import Tensor

    _dict(obj, "tensor")
    fld = _field_of(obj, field, "tensor")
    dims = tuple(_int(n, "tensor dim") for n in _list(obj["dims"], "tensor dims"))
    entries = {}
    for item in _list(obj.get("entries", []), "tensor entries"):
        _dict(item, "tensor entry")
        pos = tuple(_int(i, "tensor index") for i in _list(item["idx"], "tensor idx"))
        if pos in entries:
            raise SchemaError(f"tensor entries: position {list(pos)} given twice")
        entries[pos] = _scalar(fld, item["value"], "tensor value")
    return Tensor(fld, dims, entries)


# -- subgroups ---------------------------------------------------------------

def subgroup_to_obj(s: OneParamSubgroup) -> dict:
    factors = []
    for fac in s.factors:
        basis = "standard" if fac.basis is None else scalar_matrix_to_obj(s.field, fac.basis)
        factors.append({"basis": basis, "weights": [str(w) for w in fac.weights]})
    return {"field": s.field.to_obj(), "factors": factors}


def subgroup_from_obj(obj: dict) -> OneParamSubgroup:
    """A subgroup over the field it names; a witness reads its λ first to learn its field."""
    from .tensors import OneParamSubgroup, SubgroupFactor

    fld = field_from_obj(_dict(obj, "subgroup")["field"])
    factors = []
    for fac in _list(obj["factors"], "subgroup factors"):
        _dict(fac, "subgroup factor")
        weights = tuple(_int(w, "subgroup weight") for w in _list(fac["weights"], "subgroup weights"))
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
        "weights": [int(w) for w in dec.weights],
        "h2": matrix_to_obj(dec.h2),
        "precision": dec.precision,
    }


def cartan_from_obj(obj: dict, field: Optional[FieldContext] = None) -> CartanDecomposition:
    """A decomposition of exactly ``weights``, ``h2`` and ``precision``; ``verify_cartan`` derives ``h1``."""
    from .loopgroup import CartanDecomposition

    _exact_keys(_dict(obj, "decomposition"), {"weights", "h2", "precision"}, "decomposition")
    h2 = matrix_from_obj(obj["h2"], field)
    weights = tuple(_int(w, "Cartan weight") for w in _list(obj["weights"], "Cartan weights"))
    precision = _int(obj["precision"], "precision")
    if precision < 1:
        # a claim mod t^N says nothing for N <= 0
        raise SchemaError(f"decomposition precision must be at least 1, got {precision}")
    return CartanDecomposition(weights=weights, h2=h2, precision=precision)


# -- witnesses -----------------------------------------------------------------

def witness_to_obj(w: LimitWitness, gs, p: Tensor) -> dict:
    """The witness document of ``w``, built from the curve ``gs`` at ``p``."""
    fld = w.q_tilde.field
    return {
        "kind": "witness",
        "version": TOOL_VERSION,
        "g": [matrix_to_obj(g) for g in gs],
        "p": tensor_to_obj(p),
        "lambda": subgroup_to_obj(w.subgroup),
        "q": tensor_to_obj(w.q),
        "qTilde": tensor_to_obj(w.q_tilde),
        "sharedLimit": tensor_to_obj(w.shared_limit),
        "translations": [scalar_matrix_to_obj(fld, m) for m in w.translations],
        "cim": [cartan_to_obj(dec) for dec in w.decompositions],
        "lift": w.lift,
    }


def witness_from_obj(obj: dict) -> tuple:
    """``(witness, gs, p)`` of a witness document: one decomposition per matrix of ``gs``."""
    from .witness import LimitWitness

    _version(_dict(obj, "witness"), "witness")
    subgroup = subgroup_from_obj(obj["lambda"])
    fld = subgroup.field
    q = tensor_from_obj(obj["q"], fld)
    q_tilde = tensor_from_obj(obj["qTilde"], fld)
    shared = tensor_from_obj(obj["sharedLimit"], fld)
    translations = tuple(
        tuple(tuple(r) for r in scalar_matrix_from_obj(fld, m))
        for m in _list(obj["translations"], "translations")
    )
    decs = tuple(cartan_from_obj(o, fld) for o in _list(obj["cim"], "witness decompositions"))
    if len(decs) != len(_list(obj["g"], "g")):
        raise SchemaError(f"cim: {len(decs)} decompositions for {len(obj['g'])} matrices of g")
    gs, p, lift = witness_input_from_obj(obj, fld)
    return LimitWitness(subgroup, q, q_tilde, shared, translations, decs, lift), gs, p


# -- degeneration certificates ---------------------------------------------------

#: every key of a certificate, none optional
_CERTIFICATE_KEYS = frozenset(
    ("kind", "version", "n", "r", "profile", "S", "TTilde", "jacobianRank", "pyramidSize", "verdict")
)


def certificate_to_obj(c: DegenerationCertificate) -> dict:
    n, r = c.recipe
    return {
        "kind": "degeneration",
        "version": CERTIFICATE_VERSION,
        "n": c.n,
        "r": c.r,
        "profile": {"kind": "doubling", "n": n, "r": r},
        "S": tensor_to_obj(c.s_tensor),
        "TTilde": tensor_to_obj(c.t_tilde),
        "jacobianRank": c.jacobian_rank,
        "pyramidSize": c.pyramid_size,
        "verdict": c.verdict,
    }


def _rational_cube(obj, n: int, what: str) -> Tensor:
    """An ``n x n x n`` tensor over Q, read from ``obj``."""
    if field_from_obj(_dict(obj, what)["field"]) != QQ:
        raise SchemaError(f"{what}: a certificate is over Q, got field {obj['field']}")
    t = tensor_from_obj(obj, QQ)
    if t.dims != (n, n, n):
        raise SchemaError(f"{what}: dims {list(t.dims)} are not n x n x n for n={n}")
    return t


def certificate_from_obj(obj: dict) -> DegenerationCertificate:
    from .degeneration import DegenerationCertificate

    if document_kind(obj) != "degeneration":
        raise SchemaError("not a degeneration certificate")
    _version(obj, "certificate", CERTIFICATE_VERSION)
    _exact_keys(obj, _CERTIFICATE_KEYS, "certificate")
    recipe = _dict(obj["profile"], "profile")
    _exact_keys(recipe, {"kind", "n", "r"}, "profile")
    if recipe["kind"] != "doubling":
        raise SchemaError(f"profile: unknown recipe {recipe['kind']!r}")
    n = _int(obj["n"], "n")
    return DegenerationCertificate(
        n=n,
        r=_int(obj["r"], "r"),
        recipe=(_int(recipe["n"], "profile n"), _int(recipe["r"], "profile r")),
        s_tensor=_rational_cube(obj["S"], n, "S"),
        t_tilde=_rational_cube(obj["TTilde"], n, "TTilde"),
        jacobian_rank=_int(obj["jacobianRank"], "jacobianRank"),
        pyramid_size=_int(obj["pyramidSize"], "pyramidSize"),
        verdict=_str(obj["verdict"], "verdict"),
    )


# -- command-line documents ------------------------------------------------------

def document_kind(obj) -> Optional[str]:
    """The ``"kind"`` a top-level document names, if any."""
    return _dict(obj, "document").get("kind")


def cim_input_from_obj(obj) -> list:
    """The matrices of a ``cim`` input: one matrix, or ``{"factors": [...]}``."""
    factors = _list(obj["factors"], "factors") if "factors" in _dict(obj, "cim input") else [obj]
    if not factors:
        raise SchemaError("factors: expected at least one matrix")
    return [matrix_from_obj(o) for o in factors]


def witness_input_from_obj(obj, field: Optional[FieldContext] = None):
    """``(gs, p, lift)`` of a witness input: an exact curve, and ``p`` over its field."""
    gs = [matrix_from_obj(o, field) for o in _list(_dict(obj, "witness input")["g"], "g")]
    if not gs:
        raise SchemaError("g: expected at least one matrix")
    for i, g in enumerate(gs):
        if g.trunc is not None:
            raise SchemaError(f"g[{i}]: known only to t^{g.trunc}, but a curve must be exact Laurent polynomials")
    lift = obj.get("lift")
    if lift is not None and lift != "sym3":
        raise SchemaError(f"lift: expected null or 'sym3', got {str(lift)[:40]!r}")
    if lift == "sym3" and len(gs) != 1:
        raise SchemaError(f"g: the sym3 lift expects one 2x2 decomposition of one matrix, got {len(gs)} matrices")
    return gs, tensor_from_obj(obj["p"], gs[0].field), lift


#: the keys of one ``cim`` result, in ``factors`` or at the top level of a one-factor output
_CIM_RESULT_KEYS = ("input", "decomposition", "verified", "reason")


def cartan_results_to_obj(factors) -> dict:
    """The ``cim`` output of ``(g, decomposition, verified, reason)`` factors:
    one result at the top level, or several as the ``factors`` list."""
    results = [
        dict(zip(_CIM_RESULT_KEYS, (matrix_to_obj(g), cartan_to_obj(dec), verified, reason)))
        for g, dec, verified, reason in factors
    ]
    obj = {"kind": "cartan", "version": TOOL_VERSION}
    obj.update(results[0] if len(results) == 1 else {"factors": results})
    return obj


def cartan_results_from_obj(obj) -> list:
    """``(g, decomposition, verified, reason)`` per factor of a ``cim`` output.

    A document with ``factors`` holds that non-empty list, and one without
    it is its own one result.  A result key beside the list is refused
    rather than left unread.
    """
    _version(_dict(obj, "cim output"), "cim output")
    if "factors" not in obj:
        factors = [obj]
    else:
        factors = _list(obj["factors"], "factors")
        if not factors:
            raise SchemaError("factors: expected at least one result")
        beside = [key for key in _CIM_RESULT_KEYS if key in obj]
        if beside:
            raise SchemaError(f"top-level {beside[0]} beside a factors list")
    results = []
    for fac in factors:
        g = matrix_from_obj(_dict(fac, "cim result")["input"])
        dec = cartan_from_obj(fac["decomposition"], g.field)
        results.append((g, dec, _bool(fac["verified"], "verified"), _str(fac["reason"], "reason")))
    return results
