"""borderlab: exact loop-group decompositions, one-parameter-subgroup tensor
limits, and border-subrank degeneration certificates.

Importing the package loads none of its submodules: each exported name is
imported from its home module on first use (PEP 562), so a command-line
run pays only for the modules its subcommand needs.
"""

import importlib

__version__ = "0.1.0"

#: exported name -> the submodule that defines it (a submodule exports itself)
_HOMES = {
    name: module
    for module, names in (
        ("errors", (
            "BorderlabError",
            "FieldMismatchError",
            "NoLimitError",
            "PlacementError",
            "PrecisionError",
            "SchemaError",
            "ShapeError",
            "SingularError",
            "WitnessVerificationFailure",
        )),
        ("fields", ("FieldContext", "PrimeField", "QQ", "Rationals", "is_prime", "random_prime")),
        ("series", ("DEFAULT_TRUNCATION", "LaurentPolynomials", "LaurentSeries", "SeriesMatrix")),
        ("loopgroup", (
            "CartanDecomposition",
            "VerificationResult",
            "cartan_decompose",
            "smith_form",
            "verify_cartan",
        )),
        ("tensors", (
            "OneParamSubgroup",
            "SubgroupFactor",
            "Tensor",
            "act",
            "act_series",
            "limit_at_infinity",
            "limit_at_zero",
            "recognize_unit_tensor",
        )),
        ("witness", ("LimitWitness", "build_witness", "specialize", "sym3_lift", "sym3_lift_constant")),
        ("degeneration", (
            "DegenerationCertificate",
            "PyramidPattern",
            "build_planted_tensor",
            "build_pyramid",
            "certify_lower_bound",
            "jacobian_dominance_rank",
            "pyramid_size",
            "recheck_certificate",
        )),
        ("bounds", ("bounds",)),
        ("instances", ("instances",)),
        ("jsonio", ("jsonio",)),
    )
    for name in names
}

__all__ = list(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
