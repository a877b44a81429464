"""The names that outside tooling reaches into the package by.

``perfbench/spans.py`` wraps borderlab functions and methods by module and
attribute name, so a renamed or deleted one would only show when a traced
benchmark run fails.  These tests make it fail here instead.
"""

import importlib.util
import os
import sys

import borderlab
from borderlab.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


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
    finally:
        tracer.uninstall()
    seen = {span[0] for span in tracer.spans}
    assert {"witness.specialize", "tensors.act_series", "loopgroup.cartan_self"} <= seen
    assert tracer.counts["tensors.support_nnz"] > 0
    after = namespaces()
    assert after.keys() == before.keys()
    for key, bindings in before.items():
        assert after[key].keys() == bindings.keys()
        assert all(after[key][attr] is value for attr, value in bindings.items())


def test_tracer_counts_the_series_kernels_under_cim(tmp_path):
    # the traced benchmark counts products and coefficient pairs at
    # LaurentSeries.__mul__ and __add__, so the kernels must be reached there
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        curve_file = os.path.join(ROOT, "data", "binary_cubics_curve.json")
        assert main(["cim", curve_file, "--out", str(tmp_path / "dec.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["series.mul_calls"] > 0
    assert tracer.counts["series.coeff_mults"] > 0
    assert tracer.counts["series.add_calls"] > 0
    assert "loopgroup.smith_form" in {span[0] for span in tracer.spans}
