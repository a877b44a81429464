"""The names that outside tooling reaches into the package by, and what
each subcommand imports.

``perfbench/spans.py`` wraps borderlab functions and methods by module and
attribute name, so a renamed or deleted one would only show when a traced
benchmark run fails.  These tests make it fail here instead.

Start-up is most of a small job, so each subcommand must import only the
modules it runs; fresh ``python -S`` children record what a run loaded.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import borderlab
from borderlab.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.abspath(os.path.join(ROOT, "src"))
DATA = os.path.abspath(os.path.join(ROOT, "data"))


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """Every attribute binding the tracer may patch, by namespace."""
    owners = [m for name, m in sys.modules.items() if name == "borderlab" or name.startswith("borderlab.")]
    owners += [borderlab.Tensor, borderlab.LaurentSeries, borderlab.SeriesMatrix]
    return {id(owner): dict(vars(owner)) for owner in owners}


def test_every_exported_name_resolves():
    missing = [name for name in borderlab.__all__ if not hasattr(borderlab, name)]
    assert missing == []


def test_tracer_installs_spans_and_uninstalls(tmp_path):
    tracer = load_spans().Tracer()
    before = namespaces()
    tracer.install()
    try:
        witness_file = os.path.join(ROOT, "data", "binary_cubics_witness.json")
        assert main(["witness", witness_file, "--out", str(tmp_path / "w.json")]) == 0
        built = len(tracer.spans)
        assert main(["verify", str(tmp_path / "w.json")]) == 0
    finally:
        tracer.uninstall()
    seen = {span[0] for span in tracer.spans[:built]}
    assert {"witness.specialize", "tensors.act_series", "loopgroup.cartan_self"} <= seen
    # verify re-derives the witness through the same spanned functions
    seen = {span[0] for span in tracer.spans[built:]}
    assert {"witness.specialize", "loopgroup.verify_cartan", "tensors.limit_at_zero"} <= seen
    assert tracer.counts["tensors.support_nnz"] > 0
    after = namespaces()
    assert after.keys() == before.keys()
    for key, bindings in before.items():
        assert after[key].keys() == bindings.keys()
        assert all(after[key][attr] is value for attr, value in bindings.items())


def test_tracer_counts_the_series_kernels_under_cim(tmp_path):
    # the traced benchmark counts products and coefficient pairs at
    # LaurentSeries.__mul__, so the kernel must be reached there; cim adds
    # no two series, so its series.add_calls, counted at __add__, is 0
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        curve_file = os.path.join(ROOT, "data", "binary_cubics_curve.json")
        assert main(["cim", curve_file, "--out", str(tmp_path / "dec.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["series.mul_calls"] > 0
    assert tracer.counts["series.coeff_mults"] > 0
    assert "loopgroup.smith_form" in {span[0] for span in tracer.spans}


def test_tracer_spans_the_certify_path(tmp_path, capsys):
    # the traced subrank benchmark wraps build_pyramid and
    # jacobian_dominance_rank, and counts the pyramid rows by reading
    # PyramidPattern.positions; certify and verify draw no prime
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        cert = str(tmp_path / "cert.json")
        assert main(["certify", "--n", "64", "--out", cert]) == 0
        assert main(["verify", cert]) == 0
    finally:
        tracer.uninstall()
    assert "verdict: ok" in capsys.readouterr().out
    seen = {span[0] for span in tracer.spans}
    assert {
        "degeneration.certify_self",
        "degeneration.build_pyramid",
        "degeneration.build_planted",
        "degeneration.jacobian_self",
        "degeneration.recheck_self",
    } <= seen
    # one rank check in certify and one in verify, each over |P| = 819 rows
    assert tracer.counts["degeneration.pyramid_rows"] == 2 * borderlab.pyramid_size(13)
    assert tracer.counts["fields.primes_drawn"] == 0


# ---------------------------------------------------------------------------
# lazy package exports
# ---------------------------------------------------------------------------

def test_exported_names_are_their_home_modules_objects():
    for name in borderlab.__all__:
        home = importlib.import_module(f"borderlab.{borderlab._HOMES[name]}")
        expected = home if home.__name__ == f"borderlab.{name}" else getattr(home, name)
        assert getattr(borderlab, name) is expected, name
    assert borderlab.Tensor is borderlab.tensors.Tensor


def test_dir_and_star_import_cover_all():
    assert set(borderlab.__all__) <= set(dir(borderlab))
    namespace = {}
    exec("from borderlab import *", namespace)
    assert set(borderlab.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        borderlab.no_such_name
    with pytest.raises(ImportError):
        exec("from borderlab import no_such_name", {})


# ---------------------------------------------------------------------------
# what each subcommand imports
# ---------------------------------------------------------------------------

# argv None: only ``import borderlab``
CHILD = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
rc = 0
if argv is None:
    import borderlab
else:
    from borderlab.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""

SUBMODULES = {
    "bounds", "cli", "degeneration", "errors", "fields", "instances",
    "jsonio", "linalg", "loopgroup", "series", "tensors", "witness",
}
CIM_FREE = {"tensors", "witness", "degeneration", "bounds", "instances"}
WITNESS_FREE = {"degeneration", "bounds", "instances"}
CERTIFY_FREE = {"loopgroup", "witness", "bounds", "series"}

# (case, argv, submodules it must not load); the verify cases read the
# outputs of the cases before them
PRODUCERS = [
    ("import", None, SUBMODULES),
    ("help", ["--help"], SUBMODULES - {"cli", "errors"}),
    ("bounds", ["bounds", "--n-max", "5"], {"series", "loopgroup", "tensors", "degeneration"}),
    ("certify", ["certify", "--n", "9", "--out", "cert.json"], CERTIFY_FREE),
    ("cim", ["cim", os.path.join(DATA, "binary_cubics_curve.json"), "--out", "cim.json"], CIM_FREE),
    ("witness", ["witness", os.path.join(DATA, "binary_cubics_witness.json"), "--out", "wit.json"], WITNESS_FREE),
    ("gen-cim", ["gen", "--kind", "cim"], {"tensors"}),
]
VERIFIERS = [
    ("verify-certificate", ["verify", "cert.json"], CERTIFY_FREE),
    ("verify-cim", ["verify", "cim.json"], CIM_FREE),
    ("verify-witness", ["verify", "wit.json"], WITNESS_FREE),
]


def run_children(cases, cwd):
    """Run the cases' children side by side; ``{case: (rc, modules)}``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    procs = [
        (case, subprocess.Popen(
            [sys.executable, "-S", "-c", CHILD, json.dumps(argv)],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
        for case, argv, _ in cases
    ]
    loaded = {}
    for case, proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (case, err)
        reply = json.loads(out)
        loaded[case] = (reply["rc"], set(reply["modules"]))
    return loaded


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("imports")
    found = run_children(PRODUCERS, cwd)
    found.update(run_children(VERIFIERS, cwd))
    return found


@pytest.mark.parametrize("case, argv, absent", PRODUCERS + VERIFIERS, ids=[c[0] for c in PRODUCERS + VERIFIERS])
def test_subcommand_imports_only_what_it_runs(loaded, case, argv, absent):
    rc, modules = loaded[case]
    assert rc == 0
    assert not modules & {"dataclasses", "inspect"}
    assert not modules & {f"borderlab.{name}" for name in absent}


# ---------------------------------------------------------------------------
# the library is what a subcommand runs
# ---------------------------------------------------------------------------

#: library functions and class members that no subcommand reaches, each
#: with what keeps it; a member of a class hierarchy is named on the class
#: nearest the hierarchy's root that defines it
UNREACHED_ALLOWED = {
    "borderlab.__dir__": "only dir(borderlab) calls it",
    "borderlab.linalg.sparse_rank": "perfbench/spans.py wraps it (span linalg.sparse_rank_s)",
    "borderlab.degeneration.PyramidPattern.positions": (
        "perfbench/spans.py reads it for the counter degeneration.pyramid_rows"
    ),
    "borderlab.series.LaurentSeries.coeffs": "perfbench/spans.py reads it for the counter series.coeff_mults",
    "borderlab.fields.FieldContext.scalars": (
        "LaurentSeries.coeffs calls it, which perfbench/spans.py reads for the counter series.coeff_mults"
    ),
    "borderlab.series.SeriesMatrix.inverse": "perfbench/spans.py wraps it (span series.matrix_inverse_s)",
    "borderlab.series.LaurentSeries.is_exactly_zero": "only SeriesMatrix.inverse calls it",
    "borderlab.series.LaurentSeries.valuation": (
        "SeriesMatrix.inverse reaches it through LaurentSeries.inverse, which calls it only to "
        "raise on a unit with no known terms"
    ),
}

#: defaulted parameters of reached functions that no subcommand sets, each
#: with what keeps it; a member's is named as in ``UNREACHED_ALLOWED``
UNSET_ALLOWED = {
    "borderlab.series.LaurentSeries.__init__(trunc)": "tests build truncated series with it",
    "borderlab.instances.random_laurent_polynomial(nonzero)": (
        "tests/test_series.py draws units with it; dropping it would change that test's draws"
    ),
}

# every subcommand at a small size, run in process under sys.setprofile in a
# fresh child, so that functions a module calls while it is imported count
# too.  Dunders are skipped; a member counts as reached when the member of
# that name is reached on any class of its borderlab hierarchy, so an
# interface stub or a field's twin of a reached method needs no entry.
# The same pass records, per reached function, each defaulted parameter
# that some call set to a value other than its default (by identity, or by
# an equal value of the same type); a member's parameter counts as set when
# it is set on any class of its hierarchy, and a member that overrides a
# method of a class outside borderlab (other than object) is not checked
REACH_CHILD = """
import contextlib, gc, importlib, importlib.util, inspect, io, json, os, pkgutil, sys
from types import FunctionType

PACKAGE = importlib.util.find_spec("borderlab").submodule_search_locations[0]
reached = set()
defaults = {}  # code object -> {parameter: default} of its function
passed = set()  # (code object, parameter) of every call that set the parameter


def defaults_of(func):
    return {name: p.default for name, p in inspect.signature(func).parameters.items() if p.default is not p.empty}


def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        reached.add((code.co_filename, code.co_firstlineno, code.co_name))
        if code.co_filename.startswith(PACKAGE):
            params = defaults.get(code)
            if params is None:
                funcs = [f for f in gc.get_referrers(code) if isinstance(f, FunctionType)]
                params = defaults[code] = defaults_of(funcs[0]) if funcs else {}
            for name, default in params.items():
                value = frame.f_locals[name]
                if value is not default and not (type(value) is type(default) and value == default):
                    passed.add((code, name))


sys.setprofile(profile)
from borderlab.cli import main

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)

import borderlab


def where(func):
    code = func.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def line(func):
    code = func.__code__
    return f"{os.path.relpath(code.co_filename, os.path.dirname(borderlab.__path__[0]))}:{code.co_firstlineno}"


def own_function(attr, module):
    # the function behind a method, classmethod, staticmethod or property
    # getter that ``module`` defines, else None
    func = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
    if isinstance(func, FunctionType) and func.__code__.co_filename == module.__file__:
        return func
    return None


def params_set(func):
    # {defaulted parameter: whether a call set it}
    return {name: (func.__code__, name) in passed for name in defaults_of(func)}


names = [f"borderlab.{m.name}" for m in pkgutil.iter_modules(borderlab.__path__) if m.name != "__main__"]
unreached, unset = {}, {}
classes = []
for module in [borderlab] + [importlib.import_module(name) for name in names]:
    for name, obj in vars(module).items():
        if isinstance(obj, FunctionType) and obj.__module__ == module.__name__:
            if where(obj) not in reached:
                unreached[f"{module.__name__}.{name}"] = line(obj)
                continue
            for param, is_set in params_set(obj).items():
                if not is_set:
                    unset[f"{module.__name__}.{name}({param})"] = line(obj)
        elif isinstance(obj, type) and obj.__module__ == module.__name__:
            classes.append((module, obj))

# (hierarchy root, member name) -> [reached, (mro depth, qualified name, file:line), {parameter: set}]
members = {}
for module, cls in classes:
    lineage = [c for c in cls.__mro__ if c.__module__.startswith("borderlab.")]
    foreign = [c for c in cls.__mro__ if c not in lineage and c is not object]
    for name, attr in vars(cls).items():
        func = own_function(attr, module)
        if func is None:
            continue
        entry = members.setdefault((lineage[-1], name), [False, None, {}])
        site = (len(lineage), f"{module.__name__}.{cls.__qualname__}.{name}", line(func))
        entry[1] = site if entry[1] is None else min(entry[1], site)
        if where(func) not in reached:
            continue
        entry[0] = True
        if not any(name in vars(c) for c in foreign):
            for param, is_set in params_set(func).items():
                entry[2][param] = entry[2].get(param, False) or is_set
for (_, name), (is_reached, (_, qualified, site), params) in members.items():
    if not is_reached and not (name.startswith("__") and name.endswith("__")):
        unreached[qualified] = site
    for param, is_set in params.items():
        if not is_set:
            unset[f"{qualified}({param})"] = site
print(json.dumps({"codes": codes, "unreached": unreached, "unset": unset}))
"""

# (argv, exit code); later runs read the files earlier ones write
REACH_RUNS = [
    (["bounds", "--n-max", "5"], 0),
    (["bounds", "--d", "4", "--n-max", "5", "--format", "csv"], 0),
    (["certify", "--n", "9", "--out", "cert.json"], 0),
    (["verify", "cert.json"], 0),
    (["certify", "--n", "4", "--r", "3"], 3),
    (["bounds"], 3),
    *[
        run
        for field in ("q", "fp")
        for run in (
            (["gen", "--kind", "cim", "--field", field, "--size", "3", "--seed", "1", "--out", f"g-{field}.json"], 0),
            (["cim", f"g-{field}.json", "--out", f"cim-{field}.json"], 0),
            (["verify", f"cim-{field}.json"], 0),
        )
    ],
    (["cim", "g-q.json", "--precision", "8"], 0),
    (["gen", "--kind", "witness", "--dims", "2,2", "--seed", "1", "--out", "witness-input.json"], 0),
    (["witness", "witness-input.json", "--out", "witness.json"], 0),
    (["verify", "witness.json"], 0),
    (["witness", "witness-input.json", "--precision", "8"], 0),
    # building this witness subtracts in a scalar elimination; the 2,2 one above does not
    (["gen", "--kind", "witness", "--field", "q", "--dims", "3,3,3", "--seed", "1", "--out", "witness-333.json"], 0),
    (["witness", "witness-333.json"], 0),
    (["cim", os.path.join(DATA, "binary_cubics_curve.json"), "--out", "curve.json"], 0),
    (["verify", "curve.json"], 0),
    (["witness", os.path.join(DATA, "binary_cubics_witness.json"), "--out", "cubics.json"], 0),
    (["verify", "cubics.json"], 0),
]


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """What the child records over ``REACH_RUNS``: ``{"codes", "unreached", "unset"}``."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", REACH_CHILD, json.dumps([argv for argv, _ in REACH_RUNS])],
        cwd=tmp_path_factory.mktemp("reach"), env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    reply = json.loads(proc.stdout)
    assert reply["codes"] == [code for _, code in REACH_RUNS]
    return reply


def test_every_library_function_is_reached_by_a_subcommand(reach):
    # code that only tests call belongs in tests/; an entry no longer
    # unreached leaves the allowlist
    unreached = reach["unreached"]
    unexpected = [f"{name} ({unreached[name]})" for name in sorted(unreached.keys() - UNREACHED_ALLOWED.keys())]
    assert not unexpected, "unreached: " + ", ".join(unexpected)
    assert sorted(unreached) == sorted(UNREACHED_ALLOWED)


def test_every_defaulted_parameter_is_set_by_a_subcommand(reach):
    # a parameter that only ever holds its default is a constant; an entry
    # that some run now sets leaves the allowlist
    unset = reach["unset"]
    unexpected = [f"{name} ({unset[name]})" for name in sorted(unset.keys() - UNSET_ALLOWED.keys())]
    assert not unexpected, "never set: " + ", ".join(unexpected)
    assert sorted(unset) == sorted(UNSET_ALLOWED)
