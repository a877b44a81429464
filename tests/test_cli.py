import copy
import hashlib
import json
import os
import random
import re
from fractions import Fraction

import pytest

from borderlab import (
    BorderlabError,
    NoLimitError,
    PlacementError,
    PrecisionError,
    SchemaError,
    ShapeError,
    SingularError,
    WitnessVerificationFailure,
    cli,
    jsonio,
)
from borderlab.cli import main
from borderlab.tensors import SingularBasisError

from conftest import derived_h1, inverse_residual_check, series, unit_tensor

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def run(args):
    return main(args)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture
def curve_file():
    return os.path.join(DATA, "binary_cubics_curve.json")


@pytest.fixture
def witness_file():
    return os.path.join(DATA, "binary_cubics_witness.json")


# ---------------------------------------------------------------------------
# cim
# ---------------------------------------------------------------------------

def test_cim_worked_example(curve_file, tmp_path):
    out = tmp_path / "dec.json"
    assert run(["cim", curve_file, "--out", str(out)]) == 0
    obj = read_json(out)
    assert obj["decomposition"]["weights"] == [-2, 2]
    assert obj["verified"] is True
    # one result at the top level, with no factors list
    assert sorted(obj) == ["decomposition", "input", "kind", "reason", "verified", "version"]


def test_cim_identity(tmp_path):
    from borderlab import QQ, SeriesMatrix

    path = tmp_path / "id.json"
    path.write_text(json.dumps(jsonio.matrix_to_obj(SeriesMatrix.identity(QQ, 2))))
    out = tmp_path / "dec.json"
    assert run(["cim", str(path), "--out", str(out)]) == 0
    assert read_json(out)["decomposition"]["weights"] == [0, 0]


def test_cim_singular_exits_3(tmp_path, capsys):
    from borderlab import QQ, LaurentSeries, SeriesMatrix

    one = LaurentSeries(QQ, 0, [1])
    m = SeriesMatrix(QQ, [[one, one], [one, one]])
    path = tmp_path / "sing.json"
    path.write_text(json.dumps(jsonio.matrix_to_obj(m)))
    assert run(["cim", str(path)]) == 3
    assert "zero" in capsys.readouterr().err


def test_cim_malformed_input_exits_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["cim", str(path)]) == 3


@pytest.mark.parametrize(
    "command, doc",
    [("cim", [1]), ("verify", [1]), ("witness", {"g": [], "p": {}})],
    ids=["cim-array", "verify-array", "witness-empty-g"],
)
def test_wrongly_shaped_json_exits_3(command, doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run([command, str(path)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["witness", "verify"])
def test_a_truncated_witness_curve_exits_3(command, tmp_path, capsys):
    # specialize needs exact Laurent polynomials and no precision stands in
    # for them, so a curve known only to t^40 is bad input, not inconclusive
    path, out = tmp_path / "input.json", tmp_path / "out.json"
    assert run(["gen", "--kind", "witness", "--dims", "2,2", "--seed", "1", "--out", str(path)]) == 0
    if command == "verify":
        assert run(["witness", str(path), "--out", str(path)]) == 0
    doc = read_json(path)
    doc["g"][0]["entries"][0][0].update(exact=False, trunc=40)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run([command, str(path), *(["--out", str(out)] if command == "witness" else [])]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()
    assert "g[0]: known only to t^40" in captured.err


@pytest.mark.parametrize("scalar", ["1/0", "1e400000000"])
@pytest.mark.parametrize("command", ["cim", "witness", "verify"])
def test_rational_scalars_outside_the_grammar_exit_3(command, scalar, tmp_path, curve_file, witness_file, capsys):
    # a zero denominator and an exponent are not in [+-]digits(/digits):
    # SchemaError (exit 3), not a ZeroDivisionError or a 10^400000000
    if command == "verify":
        out = tmp_path / "dec.json"
        assert run(["cim", curve_file, "--out", str(out)]) == 0
        doc = read_json(out)
        matrices = [doc["input"]]
    elif command == "witness":
        doc = read_json(witness_file)
        matrices = [doc["g"][0]]
    else:
        doc = read_json(curve_file)
        matrices = [doc]
    for matrix in matrices:
        entry = next(e for row in matrix["entries"] for e in row if e["coeffs"])
        entry["coeffs"][0] = scalar
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run([command, str(path)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("scalar", [" 1_0 ", "\u0663", "\uff13", "1/2", "", "0x1"])
@pytest.mark.parametrize("command", ["cim", "verify"])
def test_prime_field_scalars_outside_the_grammar_exit_3(command, scalar, tmp_path, capsys):
    # F_p reads [+-]digits only, as Q does: no int() whitespace, underscores
    # or non-ASCII digits
    source = tmp_path / "g.json"
    assert run(["gen", "--kind", "cim", "--field", "fp", "--size", "3", "--seed", "1", "--out", str(source)]) == 0
    if command == "verify":
        out = tmp_path / "dec.json"
        assert run(["cim", str(source), "--out", str(out)]) == 0
        doc = read_json(out)
        matrices = [doc["input"]]
    else:
        doc = read_json(source)
        matrices = [doc]
    for matrix in matrices:
        entry = next(e for row in matrix["entries"] for e in row if e["coeffs"])
        entry["coeffs"][0] = scalar
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run([command, str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def json_paths(node, path=()):
    """Every path into a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def read_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    read_at(doc, path[:-1])[path[-1]] = value
    return doc


def test_every_wrongly_typed_node_exits_3_or_is_ignored(tmp_path):
    # each node of a cim input and of the cim output verify reads, replaced
    # by a value of every other JSON type: the decoders refuse it (exit 3) or
    # the key is one they do not read (exit 0); nothing escapes as a crash
    from borderlab import QQ, SeriesMatrix

    g = tmp_path / "g.json"
    g.write_text(json.dumps(jsonio.matrix_to_obj(SeriesMatrix(QQ, [[series(QQ, {-1: 2})]]))))
    dec = tmp_path / "dec.json"
    assert run(["cim", str(g), "--out", str(dec)]) == 0
    bad = tmp_path / "bad.json"
    for command, doc in (("cim", read_json(g)), ("verify", read_json(dec))):
        for path in json_paths(doc):
            original = read_at(doc, path)
            for value in (None, 1.5, "x", [], {}):
                if type(value) is type(original):
                    continue
                bad.write_text(json.dumps(replaced(doc, path, value)))
                assert run([command, str(bad)]) in (0, 3), (command, path, value)


def small_output(document, tmp_path):
    """The seed-1 ``cim`` output of a 2x2 matrix over F_p, or the seed-1 witness of a 2,2 curve over Q."""
    source, out = tmp_path / "input.json", tmp_path / "out.json"
    if document == "cim":
        assert run(["gen", "--kind", "cim", "--field", "fp", "--size", "2", "--seed", "1", "--out", str(source)]) == 0
    else:
        assert run(["gen", "--kind", "witness", "--field", "q", "--dims", "2,2", "--seed", "1", "--out", str(source)]) == 0
    assert run([document, str(source), "--out", str(out)]) == 0
    return read_json(out)


def integer_paths(doc):
    """The paths to the integers of ``doc``: its JSON numbers, and the strings of weight lists and field primes."""
    for path in json_paths(doc):
        value = read_at(doc, path)
        if isinstance(value, bool):
            continue
        if isinstance(value, int) or isinstance(value, str) and (path[-1] == "p" or path[-2:-1] == ("weights",)):
            yield path


@pytest.mark.parametrize("document", ["cim", "witness"])
def test_a_huge_integer_in_any_node_is_a_verdict_or_refused(document, tmp_path, capsys):
    # each integer node, replaced by +-2^70 (a string stays a string): verify
    # exits 0-3 and nothing escapes main; exit 1 comes with a FAILED clause
    doc = small_output(document, tmp_path)
    path = tmp_path / "huge.json"
    for node in integer_paths(doc):
        for huge in (2**70, -2**70):
            mutant = replaced(doc, node, huge if isinstance(read_at(doc, node), int) else str(huge))
            path.write_text(json.dumps(mutant))
            rc = run(["verify", str(path)])
            out = capsys.readouterr().out
            assert rc in (0, 1, 2, 3), (node, huge, rc)
            assert rc != 1 or re.search(r"^\S+: FAILED \(", out, re.M), (node, huge, out)


def test_cim_uncertifiable_pivot_exits_2(tmp_path, capsys):
    # an entry that is zero to precision 0 can never be pivoted, at any
    # retry precision: the contract is exit 2 (inconclusive)
    obj = {
        "field": {"kind": "Q"},
        "entries": [
            [
                {"val": 0, "coeffs": [], "trunc": 0, "exact": False},
                {"val": 1, "coeffs": ["1"], "trunc": 3, "exact": False},
            ],
            [
                {"val": 2, "coeffs": ["1"], "trunc": 4, "exact": False},
                {"val": 0, "coeffs": [], "trunc": 0, "exact": False},
            ],
        ],
    }
    path = tmp_path / "fuzzy.json"
    path.write_text(json.dumps(obj))
    assert run(["cim", str(path)]) == 2
    assert "inconclusive" in capsys.readouterr().err


def test_cim_input_known_below_precision_makes_no_futile_attempt(tmp_path, monkeypatch, capsys):
    # the input is known to t^5: it verifies at precision 4, and a higher
    # precision is refused before any Smith pass
    from borderlab import QQ, LaurentSeries, SeriesMatrix, loopgroup

    def known_to_t5(*coeffs):
        return LaurentSeries(QQ, 0, [QQ.from_int(c) for c in coeffs], 5)

    g = SeriesMatrix(QQ, [[known_to_t5(1, 2), known_to_t5(0, 1)], [known_to_t5(3, 0, 1), known_to_t5(1, 1)]])
    path = tmp_path / "t5.json"
    path.write_text(json.dumps(jsonio.matrix_to_obj(g)))
    passes = []
    smith = loopgroup.smith_form
    monkeypatch.setattr(loopgroup, "smith_form", lambda m, n: passes.append(n) or smith(m, n))
    assert run(["cim", str(path), "--precision", "4", "--out", str(tmp_path / "dec.json")]) == 0
    assert read_json(tmp_path / "dec.json")["decomposition"]["precision"] == 4
    assert passes
    passes.clear()
    assert run(["cim", str(path)]) == 2
    assert passes == []
    assert "known only to t^5" in capsys.readouterr().err


def test_cim_doubles_the_working_precision_and_keeps_the_asked_precision(tmp_path, monkeypatch):
    # neither the probe nor the first full pass at precision 1 can certify
    # a pivot; a doubled working precision does, and the decomposition is
    # stored at the asked precision 1, not at a doubled claim
    from borderlab import QQ, SeriesMatrix, loopgroup

    g = SeriesMatrix(QQ, [[series(QQ, {2: -3, 3: 1, 4: -1, 5: 1}), series(QQ, {2: 1})],
                          [series(QQ, {3: 3, 4: 2, 6: 2}), series(QQ, {3: -1})]])
    path, out = tmp_path / "g.json", tmp_path / "dec.json"
    path.write_text(json.dumps(jsonio.matrix_to_obj(g)))
    passes = []
    smith = loopgroup.smith_form
    monkeypatch.setattr(loopgroup, "smith_form", lambda m, n: passes.append(n) or smith(m, n))
    assert run(["cim", str(path), "--precision", "1", "--out", str(out)]) == 0
    assert passes == [1, 1, 2, 5]
    doc = read_json(out)
    assert doc["decomposition"]["precision"] == 1
    assert doc["decomposition"]["weights"] == [2, 4]
    assert run(["verify", str(out)]) == 0


@pytest.mark.parametrize("precision", [1, 2, 3, 4])
def test_cim_at_a_precision_below_its_weights_verifies(precision, curve_file, tmp_path):
    # a weight at or above the precision is checked through t^w, beyond
    # t^N; the h2 cim writes reaches that far, so the benchmark's ℚ 8x8
    # input (weights up to 2) and the binary-cubics curve (-2, 2) verify
    matrix = tmp_path / "g.json"
    assert run(["gen", "--kind", "cim", "--field", "q", "--size", "8", "--seed", "1", "--out", str(matrix)]) == 0
    top = []
    for source in (str(matrix), curve_file):
        out = tmp_path / "dec.json"
        assert run(["cim", source, "--precision", str(precision), "--out", str(out)]) == 0
        top.append(max(read_json(out)["decomposition"]["weights"]))
        assert run(["verify", str(out)]) == 0
    assert top == [2, 2]


def test_cim_exactly_singular_series_exits_2_after_the_doublings(tmp_path, monkeypatch, capsys):
    # det = 0 exactly, but the elimination leaves O(t^work) rather than an
    # exact zero: one probe, then a full pass at 32 and at each doubling
    from borderlab import QQ, SeriesMatrix, loopgroup

    one_plus_t = series(QQ, {0: 1, 1: 1})
    path = tmp_path / "g.json"
    path.write_text(json.dumps(jsonio.matrix_to_obj(SeriesMatrix(QQ, [[one_plus_t] * 2] * 2))))
    passes = []
    smith = loopgroup.smith_form
    monkeypatch.setattr(loopgroup, "smith_form", lambda m, n: passes.append(n) or smith(m, n))
    assert run(["cim", str(path)]) == 2
    assert passes == [1] + [32 << k for k in range(loopgroup.MAX_DOUBLINGS + 1)]
    assert "inconclusive: " in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["0", "-3"])
def test_cim_precision_below_one_exits_3(curve_file, tmp_path, capsys, precision):
    out = tmp_path / "dec.json"
    assert run(["cim", curve_file, "--precision", precision, "--out", str(out)]) == 3
    assert f"argument --precision: must be >= 1, got {precision}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "cim"])
def test_a_file_nested_too_deeply_is_bad_input(command, tmp_path, capsys):
    # json's reader recurses once per level; its RecursionError is malformed
    # input (exit 3), not a crash that exits 1 as if something were refuted
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert run([command, str(path)]) == 3
    assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply to read\n"


@pytest.mark.parametrize("error", [MemoryError, RecursionError, OverflowError])
def test_running_out_of_memory_or_stack_is_inconclusive(error, monkeypatch, capsys):
    # an OverflowError (a number too large to index or convert) reaches no
    # verdict either, and maps to the same exit
    from borderlab import degeneration

    def exhausted(*args, **kwargs):
        raise error()

    monkeypatch.setattr(degeneration, "certify_lower_bound", exhausted)
    assert run(["certify", "--n", "9"]) == 2
    assert capsys.readouterr().err == f"inconclusive: {error.__name__}()\n"


@pytest.mark.parametrize(
    "weight, reason",
    [(2**70, "h1 has an entry of valuation -118059162071741130342"), (-2**70, "h1(0) is not invertible")],
    ids=["plus", "minus"],
)
@pytest.mark.parametrize("document", ["cim", "witness"])
def test_a_weight_too_large_to_index_fails_the_cartan_check(document, weight, reason, tmp_path, capsys):
    # the check derives h1 by reading the coefficients of g·h2 at t^w, and
    # builds nothing as long as w: a far weight is refuted, with the reason
    doc = small_output(document, tmp_path)
    (doc["decomposition"] if document == "cim" else doc["cim"][0])["weights"][0] = weight
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    clause = "residual" if document == "cim" else "cim-residual[0]"
    assert f"{clause}: FAILED ({reason}" in captured.out
    assert captured.err == ""


def test_cim_factor_tuple_input(curve_file, tmp_path):
    from borderlab import QQ, SeriesMatrix

    tup = {
        "factors": [
            read_json(curve_file),
            jsonio.matrix_to_obj(SeriesMatrix.diag_powers(QQ, [2, -2])),
        ]
    }
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(tup))
    out = tmp_path / "dec.json"
    assert run(["cim", str(path), "--out", str(out)]) == 0
    obj = read_json(out)
    weights = [fac["decomposition"]["weights"] for fac in obj["factors"]]
    assert weights == [[-2, 2], [-2, 2]]
    # several results as the factors list, with none at the top level
    assert sorted(obj) == ["factors", "kind", "version"]


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def test_witness_worked_example(witness_file, tmp_path):
    out = tmp_path / "w.json"
    assert run(["witness", witness_file, "--out", str(out)]) == 0
    obj = read_json(out)
    # q~ = y^3 (basis position 4), shared limit = 0
    assert obj["qTilde"]["entries"] == [{"idx": [4], "value": "1"}]
    assert obj["sharedLimit"]["entries"] == []
    assert obj["cim"][0]["weights"] == [-2, 2]


def test_witness_identity_curve(tmp_path):
    from borderlab import QQ, SeriesMatrix

    inp = tmp_path / "in.json"
    inp.write_text(
        json.dumps(
            {
                "g": [jsonio.matrix_to_obj(SeriesMatrix.identity(QQ, 2))] * 3,
                "p": jsonio.tensor_to_obj(unit_tensor(QQ, 2, 3)),
            }
        )
    )
    out = tmp_path / "w.json"
    assert run(["witness", str(inp), "--out", str(out)]) == 0
    obj = read_json(out)
    assert obj["sharedLimit"] == obj["p"]


def test_witness_no_limit_exits_1(tmp_path, capsys):
    from borderlab import QQ, SeriesMatrix, Tensor

    bad = SeriesMatrix.diag_powers(QQ, [-1, 0])
    p = Tensor(QQ, (2,), {(1,): QQ.one()})
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"g": [jsonio.matrix_to_obj(bad)], "p": jsonio.tensor_to_obj(p)}))
    assert run(["witness", str(inp)]) == 1
    assert "specialize" in capsys.readouterr().err


def test_witness_fails_an_undecidable_cartan_check_with_its_reason(witness_file, tmp_path, monkeypatch, capsys):
    # the decomposition's h2 is known only to t^1, so g·h2, and with it the
    # derived h1, cannot decide the Cartan check at precision 32: the
    # witness is refused, not retried
    from borderlab import SeriesMatrix, witness

    tried = []
    decompose = witness.cartan_decompose

    def cut_h2(g, n):
        tried.append(n)
        dec = decompose(g, n)
        return dec._replace(h2=SeriesMatrix(dec.h2.field, [[e.truncate(1) for e in row] for row in dec.h2.entries]))

    monkeypatch.setattr(witness, "cartan_decompose", cut_h2)
    out = tmp_path / "w.json"
    assert run(["witness", witness_file, "--out", str(out)]) == 1
    assert tried == [32]
    assert not out.exists()
    err = capsys.readouterr().err
    assert "witness clause cim-residual[0] failed: insufficient precision for the residual check" in err


def test_witness_refuses_its_own_witness_when_a_clause_fails(witness_file, tmp_path, monkeypatch, capsys):
    # witness checks the clauses verify checks: a limit at infinity other
    # than the shared limit (q~ = y^3 for the binary cubics' 0) fails one
    from borderlab import witness

    monkeypatch.setattr(witness, "limit_at_infinity", lambda subgroup, t: t)
    out = tmp_path / "w.json"
    assert run(["witness", witness_file, "--out", str(out)]) == 1
    assert not out.exists()
    assert "witness clause limit-infinity failed" in capsys.readouterr().err


def test_witness_and_verify_each_specialize_once(witness_file, tmp_path, monkeypatch):
    from borderlab import witness

    calls = []
    specialize = witness.specialize

    def counted(gs, p):
        calls.append(len(gs))
        return specialize(gs, p)

    monkeypatch.setattr(witness, "specialize", counted)
    source = tmp_path / "input.json"
    assert run(["gen", "--kind", "witness", "--dims", "3,3,3", "--seed", "1", "--out", str(source)]) == 0
    for path in (witness_file, str(source)):
        out = tmp_path / "w.json"
        calls.clear()
        assert run(["witness", path, "--out", str(out)]) == 0
        assert len(calls) == 1
        assert run(["verify", str(out)]) == 0
        assert len(calls) == 2


@pytest.mark.parametrize(
    "source, witness_calls, verify_calls",
    [("q", 12, 9), ("fp", 12, 9), ("binary-cubics", 4, 3)],
    ids=["q", "fp", "binary-cubics"],
)
def test_witness_and_verify_invert_each_lambda_basis_once(
    source, witness_calls, verify_calls, witness_file, tmp_path, monkeypatch
):
    # per factor, witness eliminates four times: h1(0) for the translation
    # and h2(0) for lambda's basis, and both again in the Cartan check;
    # verify three times: the stored basis h2(0) when it reads lambda, and
    # h1(0) and h2(0) in the Cartan check.  The translations clause
    # multiplies, so translation-invertible eliminates only when it fails.
    # The binary cubics have one factor, whose lifted h1(0) witness inverts.
    from borderlab import linalg

    calls = []
    gauss_jordan = linalg._gauss_jordan
    monkeypatch.setattr(linalg, "_gauss_jordan", lambda *args: calls.append(1) or gauss_jordan(*args))
    out = tmp_path / "w.json"
    if source != "binary-cubics":
        witness_file = str(tmp_path / "input.json")
        gen = ["gen", "--kind", "witness", "--field", source, "--dims", "3,3,3", "--seed", "1"]
        assert run([*gen, "--out", witness_file]) == 0
    calls.clear()
    assert run(["witness", witness_file, "--out", str(out)]) == 0
    assert len(calls) == witness_calls
    calls.clear()
    assert run(["verify", str(out)]) == 0
    assert len(calls) == verify_calls


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (lambda basis: [basis[0]] * len(basis), SingularBasisError, "subgroup basis matrix is singular"),
        (lambda basis: basis[:-1], ShapeError, "basis matrix shape does not match the weight count"),
    ],
    ids=["singular", "wrong-shape"],
)
def test_verify_refuses_a_lambda_basis_with_no_inverse(edit, error, message, tmp_path, capsys):
    # reading lambda inverts each basis: one with no inverse is bad input
    source, out = tmp_path / "input.json", tmp_path / "w.json"
    assert run(["gen", "--kind", "witness", "--dims", "3,3,3", "--seed", "1", "--out", str(source)]) == 0
    assert run(["witness", str(source), "--out", str(out)]) == 0
    doc = read_json(out)
    factor = doc["lambda"]["factors"][1]
    factor["basis"] = edit(factor["basis"])
    with pytest.raises(error):
        jsonio.witness_from_obj(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_names_the_positive_weight_that_has_no_limit_at_infinity(witness_file, tmp_path, capsys):
    # moving the binary cubics' qTilde = y^3 (weight -6) to x^3 (weight 6):
    # lambda(t) qTilde has no limit at t -> inf, and the detail gives
    # lambda's own weight
    out = tmp_path / "w.json"
    assert run(["witness", witness_file, "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["qTilde"]["entries"][0]["idx"] == [4]
    doc["qTilde"]["entries"][0]["idx"] = [1]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "limit-infinity: FAILED (no limit at t->inf: eigen-position (1,) has positive weight 6)" in lines


def test_gen_witness_round_trip(tmp_path):
    inp = tmp_path / "instance.json"
    assert run(["gen", "--kind", "witness", "--dims", "3,2", "--seed", "5", "--out", str(inp)]) == 0
    out = tmp_path / "w.json"
    assert run(["witness", str(inp), "--out", str(out)]) == 0


def test_gen_cim_round_trip(tmp_path):
    inp = tmp_path / "m.json"
    assert run(["gen", "--kind", "cim", "--size", "3", "--seed", "9", "--out", str(inp)]) == 0
    assert run(["cim", str(inp), "--out", str(tmp_path / "dec.json")]) == 0


def test_gen_over_a_given_prime(tmp_path, capsys):
    # --prime fixes the field of the document; a number that is not prime is bad input
    out = tmp_path / "m.json"
    gen = ["gen", "--kind", "cim", "--field", "fp", "--size", "2", "--seed", "1", "--out", str(out)]
    assert run(gen + ["--prime", "101"]) == 0
    doc = read_json(out)
    assert doc["field"] == {"kind": "Fp", "p": "101"}
    assert all(0 <= int(c) < 101 for row in doc["entries"] for e in row for c in e["coeffs"])
    assert run(gen + ["--prime", "100"]) == 3
    assert capsys.readouterr().err == "error: 100 is not prime\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kind", "cim", "--size", "0"], "argument --size: must be >= 1, got 0"),
        (["--kind", "cim", "--size", "-1"], "argument --size: must be >= 1, got -1"),
        (["--kind", "witness", "--dims", "0,3"], "argument --dims: must be >= 1, got 0"),
        (["--kind", "witness", "--dims", "3,-2"], "argument --dims: must be >= 1, got -2"),
        (["--kind", "witness", "--dims", "2.5,3"], "argument --dims: expected an integer, got '2.5'"),
        (["--kind", "witness", "--dims", "3,"], "argument --dims: expected an integer, got ''"),
    ],
    ids=["size-0", "size-negative", "dims-0", "dims-negative", "dims-fraction", "dims-empty"],
)
def test_gen_refuses_a_degenerate_size_before_any_work(flags, message, tmp_path, monkeypatch, capsys):
    from borderlab import fields

    # the refusal comes from the parser: not even the prime is drawn
    monkeypatch.setattr(fields, "random_prime", lambda *args: pytest.fail("gen drew a prime"))
    out = tmp_path / "instance.json"
    assert run(["gen", *flags, "--field", "fp", "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_9(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", "--n", "9", "--out", str(out)]) == 0
    obj = read_json(out)
    assert obj["verdict"] == "Certified"
    assert obj["r"] == 3
    assert obj["jacobianRank"] == 14


def test_certify_infeasible_exits_3(tmp_path, capsys):
    assert run(["certify", "--n", "10", "--r", "4"]) == 3
    assert "(r+3)^2/4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["--n", "0"], ["--n", "1"], ["--n", "2"], ["--n", "3"], ["--n", "1", "--r", "1"]],
    ids=["n0", "n1", "n2", "n3", "n1-r1"],
)
def test_certify_below_the_fit_bound_of_r1_names_it(argv, tmp_path, capsys):
    # no rank fits below n = 4: one message, naming that bound, whether r is given or not
    out = tmp_path / "cert.json"
    assert run(["certify", *argv, "--out", str(out)]) == 3
    n = argv[1]
    assert capsys.readouterr().err == (
        f"error: fit condition violated: n >= (r+3)^2/4 requires n >= 4 for r=1, got n={n}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("r", [[], ["--r", "1"]], ids=["default-r", "given-r"])
def test_certify_names_a_negative_n(r, capsys):
    assert run(["certify", "--n", "-3", *r]) == 3
    assert "argument --n: must be >= 0, got -3" in capsys.readouterr().err


def test_certify_names_a_rank_below_one(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run(["certify", "--n", "10", "--r", "0", "--out", str(out)]) == 3
    assert "argument --r: must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_certify_4(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", "--n", "4", "--out", str(out)]) == 0
    obj = read_json(out)
    assert obj["r"] == 1 and obj["verdict"] == "Certified"


def test_certify_exact_rational_rank(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", "--n", "8", "--out", str(out)]) == 0
    obj = read_json(out)
    assert obj["verdict"] == "Certified"
    assert obj["S"]["field"] == obj["TTilde"]["field"] == {"kind": "Q"}
    assert "prime" not in obj


def test_certify_and_verify_past_the_int_to_str_digit_limit(tmp_path, capsys):
    # the stored weight profile's largest weight, 2^(n+1), has more than
    # 4 300 digits from n = 14 285 on; the recipe stores no weight
    out = tmp_path / "cert.json"
    assert run(["certify", "--n", "14300", "--out", str(out)]) == 0
    assert read_json(out)["profile"] == {"kind": "doubling", "n": 14300, "r": 236}
    assert run(["verify", str(out)]) == 0
    assert "FAILED" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_csv(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["bounds", "--d", "3", "--n-max", "200", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,d3_lower,generic_subrank,dmz_lo,border_upper,excess_flag"
    row200 = lines[200].split(",")
    assert row200[:3] == ["200", "25", "24"] and row200[5] == "true"
    row9 = lines[9].split(",")
    assert row9[:3] == ["9", "3", "5"] and row9[5] == "false"


def test_bounds_csv_leaves_the_three_factor_columns_blank_for_other_orders(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["bounds", "--d", "4", "--n-max", "3", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "n,d3_lower,generic_subrank,dmz_lo,border_upper,excess_flag",
        "1,,,,1,",
        "2,,,,2,",
        "3,,,,3,",
    ]


def test_bounds_empty_range_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["bounds", "--d", "3", "--n-max", "0", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().strip() == "n,d3_lower,generic_subrank,dmz_lo,border_upper,excess_flag"


def test_bounds_bad_range_exits_3(capsys):
    assert run(["bounds", "--d", "3", "--n-max", "-2"]) == 3
    assert "argument --n-max: must be >= 0, got -2" in capsys.readouterr().err


@pytest.mark.parametrize("n_max", ["0", "5"])
@pytest.mark.parametrize("d", ["1", "0", "-4"])
def test_bounds_refuses_an_order_below_2_whatever_the_range(d, n_max, tmp_path, capsys):
    out = tmp_path / "table.json"
    assert run(["bounds", "--d", d, "--n-max", n_max, "--out", str(out)]) == 3
    assert f"argument --d: must be >= 2, got {d}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_fresh_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--n", "9", "--out", str(cert_path)]) == 0
    assert run(["verify", str(cert_path)]) == 0
    out = capsys.readouterr().out
    assert "jacobian-rank: ok" in out


def test_verify_under_fresh_prime_seed(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--n", "8", "--seed", "1", "--out", str(cert_path)]) == 0
    capsys.readouterr()
    # verify draws nothing at random, so --seed is accepted and changes no byte
    outs = []
    for seed in ("1", "123456"):
        assert run(["verify", str(cert_path), "--seed", seed]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_verify_tampered_certificate_names_clause(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--n", "9", "--out", str(cert_path)]) == 0
    obj = read_json(cert_path)
    obj["TTilde"]["entries"].append({"idx": [1, 1, 1], "value": "1"})  # inside P, off S
    cert_path.write_text(json.dumps(obj))
    assert run(["verify", str(cert_path)]) == 1
    out = capsys.readouterr().out
    assert "restriction: FAILED" in out
    assert "T|_P = S|_P" in out


@pytest.mark.parametrize(
    "mutate, clause",
    [
        (lambda obj: obj.update(verdict="Refuted"), "verdict"),
        (lambda obj: obj.update(verdict="Inconclusive"), "verdict"),
    ],
    ids=["verdict-refuted", "verdict-inconclusive"],
)
def test_verify_compares_every_stored_claim(mutate, clause, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--n", "9", "--out", str(cert_path)]) == 0
    obj = read_json(cert_path)
    mutate(obj)
    cert_path.write_text(json.dumps(obj))
    assert run(["verify", str(cert_path)]) == 1
    failed = re.findall(r"^(\S+): FAILED", capsys.readouterr().out, re.M)
    assert failed[0] == clause


def _with_entries(obj, tensor, entries):
    return dict(obj, **{tensor: dict(obj[tensor], entries=entries)})


def _first_entry(obj, tensor, **change):
    """``obj`` with ``change`` applied to its tensor's first entry."""
    entries = obj[tensor]["entries"]
    return _with_entries(obj, tensor, [dict(entries[0], **change)] + entries[1:])


FP = {"kind": "Fp", "p": "1000003"}
V1_CERTIFICATE = os.path.join(DATA, "certificate_v1.json")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda obj: read_json(V1_CERTIFICATE), "version 'borderlab-0.1.0' is not 'borderlab-0.2.0'"),
        (lambda obj: dict(read_json(V1_CERTIFICATE), version="borderlab-0.2.0"), "unknown keys"),
        (lambda obj: dict(obj, placements=[]), "unknown keys ['placements']"),
        (lambda obj: dict(obj, limitCheck="Pass"), "unknown keys ['limitCheck']"),
        (lambda obj: dict(obj, restrictionCheck="Pass"), "unknown keys ['restrictionCheck']"),
        (lambda obj: dict(obj, unitSize=3), "unknown keys ['unitSize']"),
        (lambda obj: dict(obj, prime="1000003"), "unknown keys ['prime']"),
        (lambda obj: {k: v for k, v in obj.items() if k != "verdict"}, "missing keys ['verdict']"),
        (lambda obj: dict(obj, profile=dict(obj["profile"], kind="weights")), "unknown recipe 'weights'"),
        (lambda obj: dict(obj, TTilde=dict(obj["TTilde"], field=FP)), "TTilde: a certificate is over Q"),
        (lambda obj: dict(obj, S=dict(obj["S"], field=FP)), "S: a certificate is over Q"),
        (lambda obj: dict(obj, n="1_0"), "n: integer must be [+-]digits"),
        (lambda obj: _first_entry(obj, "TTilde", idx=["\u0663", 1, 3]), "tensor index: integer must be [+-]digits"),
        (lambda obj: _first_entry(obj, "TTilde", idx=obj["TTilde"]["entries"][1]["idx"]), "given twice"),
    ],
    ids=[
        "v1",
        "v1-relabelled",
        "extra-placements",
        "extra-limitCheck",
        "extra-restrictionCheck",
        "extra-unitSize",
        "extra-prime",
        "missing-verdict",
        "profile-kind",
        "fp-TTilde",
        "fp-S",
        "n-underscore",
        "idx-arabic-indic",
        "TTilde-repeated-position",
    ],
)
def test_verify_refuses_a_certificate_outside_the_format(build, message, tmp_path, capsys):
    # format v2 has exactly these keys, tensors over Q, [+-]digits integers
    # and each tensor position once; anything else exits 3
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--n", "9", "--out", str(cert_path)]) == 0
    cert_path.write_text(json.dumps(build(read_json(cert_path))))
    capsys.readouterr()
    assert run(["verify", str(cert_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_witness_refuses_a_repeated_tensor_position(witness_file, tmp_path, capsys):
    # the later entry used to win silently
    doc = read_json(witness_file)
    doc["p"]["entries"].append(dict(doc["p"]["entries"][0], value="2"))
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert run(["witness", str(path)]) == 3
    assert "given twice" in capsys.readouterr().err


# -- seeded semantic mutations of certificates ---------------------------------

def canonical_support(tensor, n):
    """The positions of a 0/1 n x n x n tensor over Q, or None for anything else.

    An explicit "0" is no entry; a position given twice is no tensor.
    """
    entries = tensor["entries"]
    if tensor["field"] != {"kind": "Q"} or tensor["dims"] != [n, n, n]:
        return None
    if len({tuple(e["idx"]) for e in entries}) != len(entries) or any(e["value"] not in ("0", "1") for e in entries):
        return None
    return {tuple(e["idx"]) for e in entries if e["value"] == "1"}


def oracle_valid(doc):
    """Whether ``doc`` is, read off its JSON alone, the doubling construction's certificate of its own (n, r)."""
    n, r = doc["n"], doc["r"]
    if not (type(n) is int and type(r) is int and r >= 1 and 4 * n >= (r + 3) ** 2):
        return False
    size = r * (r + 1) * (2 * r + 1) // 6
    claims = (doc["profile"], doc["jacobianRank"], doc["pyramidSize"], doc["verdict"])
    if claims != ({"kind": "doubling", "n": n, "r": r}, size, size, "Certified"):
        return False
    corners = {(r - l + 1, r - l + 1, l) for l in range(1, r + 1)}
    blocks, start = set(), {"j": r + 1, "k": r + 1}
    for s in range(r):  # identity blocks of size s + 1 on layer r - s, packed greedily from r + 1
        axis = "j" if s % 2 == 0 else "k"
        for i in range(s + 1):
            blocks.add((start[axis] + i, 1 + i, r - s) if axis == "j" else (1 + i, start[axis] + i, r - s))
        start[axis] += s + 1
    return canonical_support(doc["S"], n) == corners and canonical_support(doc["TTilde"], n) == corners | blocks


def certificate_mutants(obj, rng):
    """``(name, mutant)`` pairs, each changing one field of ``obj``."""
    for key in ("n", "r", "jacobianRank", "pyramidSize"):
        for d in (-1, 1):
            yield f"{key}{d:+d}", dict(obj, **{key: obj[key] + d})
    for key in ("n", "r"):
        for d in (-1, 1):
            yield f"profile.{key}{d:+d}", dict(obj, profile=dict(obj["profile"], **{key: obj["profile"][key] + d}))
    yield "verdict", dict(obj, verdict="Inconclusive")
    for tensor in ("S", "TTilde"):
        entries = obj[tensor]["entries"]
        i, axis = rng.randrange(len(entries)), rng.randrange(3)
        head, entry, tail = entries[:i], entries[i], entries[i + 1 :]
        for d in (-1, 1):
            idx = [c + d if a == axis else c for a, c in enumerate(entry["idx"])]
            yield f"{tensor}[{i}].idx[{axis}]{d:+d}", _with_entries(obj, tensor, head + [dict(entry, idx=idx)] + tail)
        yield f"{tensor}[{i}] dropped", _with_entries(obj, tensor, head + tail)
        yield f"{tensor}[{i}] duplicated", _with_entries(obj, tensor, head + [entry, entry] + tail)
        for value in ("2", "0"):
            yield f"{tensor}[{i}] = {value}", _with_entries(obj, tensor, head + [dict(entry, value=value)] + tail)


@pytest.mark.parametrize("n", [4, 9, 16])
def test_certificate_mutants_fail_verify_unless_the_oracle_accepts_them(n, tmp_path, capsys):
    # every mutant changes one field; verify must exit nonzero on it, or
    # the oracle, which knows the construction's closed form, must judge
    # it a valid certificate in its own right (then verify must pass it)
    path = tmp_path / "cert.json"
    assert run(["certify", "--n", str(n), "--out", str(path)]) == 0
    obj = read_json(path)
    assert oracle_valid(obj)
    mutants = list(certificate_mutants(obj, random.Random(2024 + n)))
    assert len(mutants) == 25
    for name, mutant in mutants:
        path.write_text(json.dumps(mutant))
        rc = run(["verify", str(path)])
        capsys.readouterr()
        assert (rc == 0) == oracle_valid(mutant), (name, rc)


def test_verify_witness_output(witness_file, tmp_path):
    out = tmp_path / "w.json"
    assert run(["witness", witness_file, "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0


def doubled(scalar):
    return str(2 * Fraction(scalar))


def double_lambda(doc):
    # the limits still hold, for lambda(t^2), but lambda is no longer the
    # subgroup the decompositions give
    for factor in doc["lambda"]["factors"]:
        factor["weights"] = [doubled(w) for w in factor["weights"]]


def double_q(doc):
    # no other clause reads the stored q: translation acts on the recomputed one
    for entry in doc["q"]["entries"]:
        entry["value"] = doubled(entry["value"])


def double_q_tilde(doc):
    # the shared limit 0 of the binary cubics stays the limit at infinity
    for entry in doc["qTilde"]["entries"]:
        entry["value"] = doubled(entry["value"])


def zero_translation(doc):
    # qTilde no longer equals translations . q, and a zero T has no inverse
    doc["translations"][0] = [["0"] * len(row) for row in doc["translations"][0]]


def double_translation(doc):
    # qTilde doubles with it, so qTilde = translations . q still holds
    doc["translations"] = [[[doubled(x) for x in row] for row in m] for m in doc["translations"]]
    double_q_tilde(doc)


def move_a_weight(doc):
    # the first decomposition no longer verifies, so lambda and the
    # translations, which read its h1(0) and h2(0), fail with it
    doc["cim"][0]["weights"][0] += 1


def pole_at_p(doc):
    # p = x y^2: the curve has a pole there, and so has lambda(t) p at 0
    doc["p"]["entries"] = [{"idx": [3], "value": "1"}]


@pytest.mark.parametrize(
    "source, edit, clauses",
    [
        ("gen-333", double_lambda, ["lambda"]),
        ("binary-cubics", double_translation, ["translations"]),
        ("gen-333", zero_translation, ["translations", "translation-invertible", "translation"]),
        ("gen-333", double_q, ["specialization"]),
        ("binary-cubics", double_q_tilde, ["translation"]),
        ("gen-333", move_a_weight, ["cim-residual[0]", "lambda", "translations"]),
        ("binary-cubics", pole_at_p, ["specialization", "limit-zero"]),
    ],
    ids=["lambda-doubled", "translation-doubled", "translation-zero", "q-doubled", "qTilde-doubled",
         "weight-moved", "pole-at-p"],
)
def test_verify_rederives_lambda_and_the_translations(source, edit, clauses, witness_file, tmp_path, capsys):
    if source == "gen-333":
        witness_file = str(tmp_path / "input.json")
        assert run(["gen", "--kind", "witness", "--dims", "3,3,3", "--seed", "1", "--out", witness_file]) == 0
    out = tmp_path / "w.json"
    assert run(["witness", witness_file, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", str(out)]) == 0
    doc = read_json(out)
    edit(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    failed = re.findall(r"^(\S+): FAILED", capsys.readouterr().out, re.M)
    assert failed == clauses


def test_verify_refuses_a_ragged_translation(tmp_path, capsys):
    # the translations clause checks T's shape before multiplying, so a row
    # with an extra nonzero entry fails it, and the elimination that
    # translation-invertible falls back to refuses T as bad input
    source, out = tmp_path / "input.json", tmp_path / "w.json"
    assert run(["gen", "--kind", "witness", "--dims", "3,3,3", "--seed", "1", "--out", str(source)]) == 0
    assert run(["witness", str(source), "--out", str(out)]) == 0
    doc = read_json(out)
    zero_translation(doc)
    doc["translations"][0][1].append("1")
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 3
    assert capsys.readouterr().err == "error: inverse of a non-square matrix\n"


# -- seeded semantic mutations of cim and witness outputs ----------------------

FIELD_SWAP = {"Q": {"kind": "Fp", "p": "1000003"}, "Fp": {"kind": "Q"}}


def one_change_mutants(doc, rng):
    """``(name, mutant)`` pairs, each changing one field of ``doc``: a bool
    flipped, an int moved by one, a list element dropped or duplicated, an
    enum value swapped or made unknown, or a weight list doubled."""

    def at(path, value):
        return replaced(doc, path, value)

    for path in json_paths(doc):
        value, key, name = read_at(doc, path), path[-1], "/".join(map(str, path))
        if isinstance(value, dict) and value.get("kind") in FIELD_SWAP and set(value) <= {"kind", "p"}:
            yield f"{name} swapped", at(path, FIELD_SWAP[value["kind"]])
        elif path == ("kind",):
            yield "kind swapped", at(path, {"cartan": "witness", "witness": "cartan"}[value])
        elif path == ("lift",):
            yield "lift swapped", at(path, None if value else "sym3")
            for unknown in ("bogus", 5):
                yield f"lift {unknown!r}", at(path, unknown)
        elif key == "basis" and isinstance(value, list):
            yield f"{name} standard", at(path, "standard")
        if isinstance(value, bool):
            yield f"{name} flipped", at(path, not value)
        elif isinstance(value, int):
            for d in (-1, 1):
                yield f"{name}{d:+d}", at(path, value + d)
        elif isinstance(value, list) and value:
            i = rng.randrange(len(value))
            yield f"{name}[{i}] dropped", at(path, value[:i] + value[i + 1 :])
            yield f"{name}[{i}] duplicated", at(path, value[:i] + [value[i]] + value[i:])
            if key == "weights":
                yield f"{name} doubled", at(path, [doubled(w) if isinstance(w, str) else 2 * w for w in value])


def names_one_field(doc):
    """Whether every ``"field"`` object in ``doc`` names the same field."""
    fields = {json.dumps(read_at(doc, path), sort_keys=True) for path in json_paths(doc) if path[-1] == "field"}
    return len(fields) == 1


def cim_oracle_valid(doc):
    """Whether ``doc`` is a ``cim`` output true on its own terms.

    It is read by the schema's decoders; each factor's decomposition, with
    the h1 that ``verify_cartan`` derives, must then pass the inverse-based
    residual oracle at its own precision, and be stored as verified with no
    reason.
    """
    if doc.get("kind") != "cartan" or not names_one_field(doc):
        return False
    try:
        results = jsonio.cartan_results_from_obj(doc)
        return all(inverse_residual_check(g, derived_h1(g, dec), dec) and verified and reason == ""
                   for g, dec, verified, reason in results)
    except (BorderlabError, KeyError, ValueError):
        return False


def witness_oracle_valid(doc):
    """Whether ``doc`` is a witness of its own ``g`` and ``p``, true on its own terms.

    It is read by the schema's decoders.  Each decomposition, with the h1
    that ``verify_cartan`` derives, must pass the inverse-based residual
    oracle; λ_i must be the weights of ``cim[i]`` on
    the basis h2_i(0) and translation i the T with T·h1_i(0) = h2_i(0); q
    the constant terms of g(t)·p, which may have no pole; q̃ the translated
    q; and the shared limit both limits.  The documents here have no
    ``lift``: the sym3 lift takes one 2x2 curve.
    """
    from borderlab import SubgroupFactor, Tensor, act, act_series, limit_at_infinity, limit_at_zero, linalg

    if doc.get("kind") != "witness" or doc.get("lift") is not None or not names_one_field(doc):
        return False
    try:
        w, gs, p = jsonio.witness_from_obj(doc)
        fld = w.subgroup.field
        if not len(gs) == len(w.decompositions) == len(w.subgroup.factors) == len(w.translations):
            return False
        for g, dec, factor, translation in zip(gs, w.decompositions, w.subgroup.factors, w.translations):
            h1 = derived_h1(g, dec)
            if not inverse_residual_check(g, h1, dec):
                return False
            h1_0, h2_0 = h1.constant_matrix(), dec.h2.constant_matrix()
            if factor != SubgroupFactor(tuple(dec.weights), tuple(map(tuple, h2_0))):
                return False
            square = [len(row) for row in translation] == [len(h1_0)] * len(h1_0)
            if not square or linalg.mat_mul(fld, translation, h1_0) != h2_0:
                return False
        moved = act_series(gs, p)
        if any(e.val < 0 for _, e in moved.support()):
            return False
        q = Tensor(fld, moved.dims, {pos: e.coefficient(0) for pos, e in moved.support()})
        return (
            q == w.q
            and act([[list(row) for row in m] for m in w.translations], q) == w.q_tilde
            and limit_at_zero(w.subgroup, p) == w.shared_limit == limit_at_infinity(w.subgroup, w.q_tilde)
        )
    except (BorderlabError, KeyError, ValueError):
        return False


@pytest.mark.parametrize(
    "command, gen, mutate, oracle",
    [
        ("cim", ["--kind", "cim", "--field", "q", "--size", "3"], one_change_mutants, cim_oracle_valid),
        ("witness", ["--kind", "witness", "--field", "fp", "--dims", "2,2"], one_change_mutants, witness_oracle_valid),
        ("witness", ["--kind", "witness", "--field", "q", "--dims", "2,2"], one_change_mutants, witness_oracle_valid),
    ],
    ids=["cim", "witness", "witness-q"],
)
def test_output_mutants_fail_verify_unless_the_oracle_accepts_them(command, gen, mutate, oracle, tmp_path, capsys):
    # every mutant changes one field; verify must exit nonzero on it, or
    # the oracle must judge it true on its own terms (then verify must pass
    # it): a lower precision is such a weaker claim that still holds
    source, path = tmp_path / "input.json", tmp_path / "out.json"
    assert run(["gen", *gen, "--seed", "1", "--out", str(source)]) == 0
    assert run([command, str(source), "--out", str(path)]) == 0
    doc = read_json(path)
    assert oracle(doc)
    mutants = list(mutate(doc, random.Random(2024)))
    accepted = []
    for name, mutant in mutants:
        path.write_text(json.dumps(mutant))
        rc = run(["verify", str(path)])
        capsys.readouterr()
        assert (rc == 0) == oracle(mutant), (name, rc)
        if rc == 0:
            accepted.append(name)
    # not vacuous: a lower precision stays true, and most changes are refused
    assert any(name.endswith("precision-1") for name in accepted)
    assert 2 * len(accepted) < len(mutants)


def test_verify_refuses_a_sym3_witness_with_two_matrices(witness_file, tmp_path, capsys):
    # the lift acts through one 2x2 curve, so a second matrix and its
    # decomposition would go unread; the document is refused before any
    # clause runs, also when the second decomposition fails its residual
    out = tmp_path / "w.json"
    assert run(["witness", witness_file, "--out", str(out)]) == 0
    doc = read_json(out)
    doc["g"].append(doc["g"][0])
    doc["cim"].append(copy.deepcopy(doc["cim"][0]))
    for weights in (doc["cim"][1]["weights"], [w + 1 for w in doc["cim"][1]["weights"]]):
        doc["cim"][1]["weights"] = weights
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sym3 lift expects one 2x2 decomposition" in captured.err


def test_verify_cartan_output(curve_file, tmp_path, capsys):
    out = tmp_path / "dec.json"
    assert run(["cim", curve_file, "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0
    assert capsys.readouterr().out == (
        "residual: ok (g = h1 diag(t^w) h2^-1 mod t^N)\n"
        "verdict: ok (stored verified and reason match the residual)\n"
    )


@pytest.mark.parametrize(
    "document, precision, shift",
    [("cim", 0, 0), ("cim", -40, 7), ("witness", 0, 0), ("witness", -40, 0)],
    ids=["cim-0", "cim-minus40-wrong-weights", "witness-0", "witness-minus40"],
)
def test_verify_refuses_a_decomposition_stored_below_precision_one(
    document, precision, shift, witness_file, tmp_path, capsys
):
    # a claim mod t^N says nothing for N <= 0, so the decoder refuses a
    # precision below 1 before any check runs, also beside weights moved by
    # 7 (summing to 16 where v(det g) = -5)
    out = tmp_path / "doc.json"
    if document == "cim":
        matrix = tmp_path / "g.json"
        assert run(["gen", "--kind", "cim", "--field", "q", "--size", "3", "--seed", "1", "--out", str(matrix)]) == 0
        assert run(["cim", str(matrix), "--out", str(out)]) == 0
    else:
        assert run(["witness", witness_file, "--out", str(out)]) == 0
    doc = read_json(out)
    dec = doc["decomposition"] if document == "cim" else doc["cim"][0]
    dec["precision"] = precision
    dec["weights"] = [w + shift for w in dec["weights"]]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"precision must be at least 1, got {precision}" in captured.err


@pytest.mark.parametrize(
    "document, edit, message",
    [
        ("cim", lambda dec: dec.update(h1=dec["h2"]), "unknown keys ['h1']"),
        ("witness", lambda dec: dec.update(h1=dec["h2"]), "unknown keys ['h1']"),
        ("cim", lambda dec: dec.update(residual=[]), "unknown keys ['residual']"),
        ("witness", lambda dec: dec.pop("h2"), "missing keys ['h2']"),
    ],
    ids=["cim-h1", "witness-h1", "cim-other-key", "witness-missing-key"],
)
def test_verify_refuses_a_decomposition_with_other_keys(document, edit, message, tmp_path, capsys):
    # a decomposition holds exactly its weights, h2 and precision: a stored
    # h1, which the check derives instead, or any other key would go unread,
    # so the document is refused rather than half read
    doc = small_output(document, tmp_path)
    edit(doc["decomposition"] if document == "cim" else doc["cim"][0])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: decomposition: {message}\n"


@pytest.mark.parametrize(
    "count, beside, named",
    [
        (1, ("input", "decomposition", "verified", "reason"), "input"),
        (2, ("verified",), "verified"),
        (1, ("reason",), "reason"),
    ],
    ids=["old-form", "verified-beside-two", "reason-beside-one"],
)
def test_verify_refuses_a_result_key_beside_a_factors_list(count, beside, named, curve_file, tmp_path, capsys):
    # a cim output holds one result at its top level or several in factors,
    # never both: a result key beside the list would go unread, so the
    # document is refused naming it; the old form, which carried a
    # one-factor output's result in both places, is such a document
    out = tmp_path / "dec.json"
    assert run(["cim", curve_file, "--out", str(out)]) == 0
    doc = read_json(out)
    result = {key: doc.pop(key) for key in ("input", "decomposition", "verified", "reason")}
    doc.update(factors=[result] * count, **{key: result[key] for key in beside})
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: top-level {named} beside a factors list\n"


@pytest.mark.parametrize(
    "path, value",
    [
        (("decomposition", "weights"), [5, 7]),
        (("factors", 0, "decomposition", "weights"), [5, 7]),
        (("verified",), False),
        (("input", "entries", 0, 0, "val"), 1),
    ],
    ids=["top-weights", "factor-weights", "top-verified", "top-input"],
)
def test_verify_refuses_a_cartan_copy_that_differs(curve_file, tmp_path, capsys, path, value):
    # the old form of a one-factor cim output carried its result twice, in
    # factors[0] and at the top level; with either copy edited the two no
    # longer agree, and verify refuses the document rather than reading one
    # copy and leaving the other unread
    out = tmp_path / "dec.json"
    assert run(["cim", curve_file, "--out", str(out)]) == 0
    doc = read_json(out)
    doc["factors"] = [{key: doc[key] for key in ("input", "decomposition", "verified", "reason")}]
    out.write_text(json.dumps(replaced(doc, path, value)))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: top-level input beside a factors list\n"


def test_a_cim_document_without_factors_exits_3(curve_file, tmp_path, capsys):
    # an empty factor list claims nothing: cim refuses it as input, and
    # verify refuses an output that carries no factor; an output with
    # neither the list nor a result is refused for the result it lacks
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"factors": []}))
    assert run(["cim", str(empty), "--out", str(tmp_path / "none.json")]) == 3
    assert "factors: expected at least one" in capsys.readouterr().err
    assert not (tmp_path / "none.json").exists()
    out = tmp_path / "dec.json"
    assert run(["cim", curve_file, "--out", str(out)]) == 0
    doc = read_json(out)
    out.write_text(json.dumps({"kind": doc["kind"], "version": doc["version"], "factors": []}))
    assert run(["verify", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "factors: expected at least one" in captured.err
    out.write_text(json.dumps({"kind": doc["kind"], "version": doc["version"]}))
    assert run(["verify", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 'input'\n"


@pytest.mark.parametrize("delta", [-1, 1])
def test_an_exact_series_with_another_trunc_exits_3(delta, curve_file, tmp_path, capsys):
    # an exact series is known through its last coefficient, so a trunc it
    # gives must be val + len(coeffs), in a cim input and in a cim output
    out = tmp_path / "dec.json"
    assert run(["cim", curve_file, "--out", str(out)]) == 0
    doc = read_json(out)
    curve = read_json(curve_file)
    curve["entries"][1][1]["trunc"] += delta
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve))
    capsys.readouterr()
    assert run(["cim", str(path)]) == 3
    assert "series trunc" in capsys.readouterr().err
    entry = doc["decomposition"]["h2"]["entries"][0][0]
    assert entry["exact"] is True
    entry["trunc"] += delta
    out.write_text(json.dumps(doc))
    assert run(["verify", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "series trunc" in captured.err


def test_no_matrix_inverse_on_the_cim_and_witness_paths(curve_file, witness_file, tmp_path, monkeypatch):
    # cim, witness and verify take h2 from the Smith pass and check g·h2
    # against h1·diag(t^w): no Gauss-Jordan inverse
    from borderlab.series import SeriesMatrix

    inverses = []
    monkeypatch.setattr(SeriesMatrix, "inverse", lambda self, n=None: inverses.append(n))
    paths = {"cim": [curve_file], "witness": [witness_file]}
    for kind, gen in (("cim", ["--field", "fp", "--size", "4"]), ("witness", ["--dims", "2,2"])):
        paths[kind].append(str(tmp_path / f"{kind}-gen.json"))
        assert run(["gen", "--kind", kind, *gen, "--seed", "1", "--out", paths[kind][-1]]) == 0
    for kind, inputs in paths.items():
        for i, source in enumerate(inputs):
            out = str(tmp_path / f"{kind}-{i}.json")
            assert run([kind, source, "--out", out]) == 0
            assert run(["verify", out]) == 0

    assert inverses == []


def test_verify_rejects_cartan_factors_outside_power_series(tmp_path, capsys):
    # g = diag(t^-1 + 1, 1) has weights (-1, 0); the forged claim of
    # weights (0, 0) and h2 = I derives h1 = g, which is not in K[[t]]
    from borderlab import QQ, LaurentSeries, SeriesMatrix

    g = SeriesMatrix(QQ, [[series(QQ, {-1: 1, 0: 1}), LaurentSeries.zero(QQ)],
                          [LaurentSeries.zero(QQ), series(QQ, {0: 1})]])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(jsonio.matrix_to_obj(g)))
    out = tmp_path / "dec.json"
    assert run(["cim", str(path), "--out", str(out)]) == 0
    obj = read_json(out)
    dec = obj["decomposition"]
    assert dec["weights"] == [-1, 0]
    dec.update(weights=[0, 0], h2=jsonio.matrix_to_obj(SeriesMatrix.identity(QQ, 2)))
    out.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert "residual: FAILED (h1 has an entry of valuation -1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "verified, reason",
    [(False, "nonzero residual"), (True, "nonzero residual"), (False, "")],
    ids=["refuted-with-reason", "verified-with-reason", "refuted-without-reason"],
)
def test_verify_compares_the_stored_cim_verdict(curve_file, tmp_path, capsys, verified, reason):
    # the residual holds, so only verified = true with an empty reason agrees
    out = tmp_path / "dec.json"
    assert run(["cim", curve_file, "--out", str(out)]) == 0
    obj = read_json(out)
    obj.update(verified=verified, reason=reason)
    out.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("residual: ok")
    assert lines[1] == f"verdict: FAILED (stored verified={verified}, reason={reason!r})"


def test_verify_names_the_verdict_of_each_cim_factor(curve_file, tmp_path, capsys):
    out = tmp_path / "dec.json"
    assert run(["cim", curve_file, "--out", str(out)]) == 0
    obj = read_json(out)
    factor = {key: obj.pop(key) for key in ("input", "decomposition", "verified", "reason")}
    obj["factors"] = [factor, dict(factor, verified=False)]
    out.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    failed = re.findall(r"^(\S+): FAILED", capsys.readouterr().out, re.M)
    assert failed == ["verdict[1]"]


@pytest.mark.parametrize("cim", [[], "short"], ids=["empty", "short"])
def test_verify_refuses_a_witness_without_one_decomposition_per_matrix(witness_file, tmp_path, capsys, cim):
    from borderlab import QQ, SeriesMatrix

    out = tmp_path / "w.json"
    assert run(["witness", witness_file, "--out", str(out)]) == 0
    obj = read_json(out)
    if cim == "short":
        # two matrices of g and one decomposition: zipping them would check only the first
        obj["g"].append(jsonio.matrix_to_obj(SeriesMatrix.identity(QQ, 2)))
        cim = obj["cim"]
    obj["cim"] = cim
    out.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "decompositions for" in captured.err


@pytest.mark.parametrize("kind", ["certificate", "cim", "witness"])
@pytest.mark.parametrize(
    "version", ["junk", None, "borderlab-0.0.9", "borderlab-0.1.0"], ids=["junk", "null", "older", "stored-h1"]
)
def test_verify_refuses_an_unknown_version(kind, version, curve_file, witness_file, tmp_path, capsys):
    out = tmp_path / "doc.json"
    argv = {
        "certificate": ["certify", "--n", "9"],
        "cim": ["cim", curve_file],
        "witness": ["witness", witness_file],
    }[kind]
    assert run(argv + ["--out", str(out)]) == 0
    obj = read_json(out)
    obj["version"] = version
    out.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = jsonio.CERTIFICATE_VERSION if kind == "certificate" else jsonio.TOOL_VERSION
    assert f"version {version!r} is not {expected!r}" in captured.err


def test_verify_unknown_kind_exits_3(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"kind": "mystery"}))
    assert run(["verify", str(path)]) == 3


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------

def test_each_subcommand_parses_only_the_flags_it_reads():
    import argparse

    from borderlab.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {
        name: {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
        for name, p in sub.choices.items()
    }
    assert dests == {
        "cim": {"input", "precision", "out"},
        "witness": {"input", "precision", "out"},
        "certify": {"n", "r", "seed", "out"},
        "bounds": {"d", "n_max", "format", "out"},
        "verify": {"input", "seed"},
        "gen": {"kind", "dims", "size", "field", "prime", "seed", "out"},
    }


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["certify"],
        ["certify", "--n", "x"],
        ["bounds", "--n-max", "x"],
        ["bounds", "--n-max", "5", "--seed", "1"],
        ["bounds", "--n", "5"],
        ["verify", "cert.json", "--field", "fp"],
        ["cim", "curve.json", "--field", "fp"],
        ["cim", "curve.json", "--max-doublings", "5"],
        ["witness", "--g", "g.json", "--p", "p.json"],
        ["certify", "--n", "9", "--prime-retries", "1"],
        ["gen", "--kind", "tensor"],
        ["certify", "--n", "9", "--field", "q", "--prime", "7"],
        ["gen", "--kind", "cim", "--field", "q", "--prime", "7"],
    ],
)
def test_usage_errors_exit_3(argv, capsys):
    assert run(argv) == 3
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code",
    [
        (NoLimitError("no limit at t->0"), 1),
        (WitnessVerificationFailure("the two limits disagree"), 1),
        (PrecisionError("precision retries exhausted"), 2),
        (PlacementError("fit condition violated"), 3),
        (SingularError("zero determinant"), 3),
        (SchemaError("expected an object"), 3),
        (ShapeError("dims differ"), 3),
        (ValueError("bad value"), 3),
        (KeyError("missing"), 3),
        (OSError("unreadable"), 3),
        (json.JSONDecodeError("Expecting value", "{", 1), 3),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_follows_the_exception_type(error, code, monkeypatch, capsys):
    def fail(args):
        raise error

    # the parser binds each subcommand's function when main builds it
    monkeypatch.setattr(cli, "cmd_bounds", fail)
    assert run(["bounds", "--n-max", "1"]) == code
    assert capsys.readouterr().err.startswith("inconclusive: " if code == 2 else "error: ")


@pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"], ["verify", "--help"]])
def test_help_exits_0(argv, capsys):
    assert run(argv) == 0
    assert "usage:" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_byte_identical_outputs(tmp_path):
    # certify draws nothing at random: --seed is accepted and changes no byte
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out, seed in ((a, "0"), (b, "123")):
        assert run(["certify", "--n", "64", "--seed", seed, "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_every_output_is_canonical_json(tmp_path, curve_file, witness_file, capsys):
    # each document is json.dumps(obj, sort_keys=True, indent=2) plus a newline
    jobs = {
        "certify": ["certify", "--n", "196"],
        "cim": ["cim", curve_file],
        "witness": ["witness", witness_file],
        "gen-witness": ["gen", "--kind", "witness", "--field", "fp", "--dims", "3,3,3", "--seed", "1"],
        "gen-cim": ["gen", "--kind", "cim", "--field", "q", "--size", "4", "--seed", "1"],
        "bounds": ["bounds", "--n-max", "40", "--format", "json"],
    }
    texts = {}
    for name, argv in jobs.items():
        out = tmp_path / f"{name}.json"
        assert run(argv + ["--out", str(out)]) == 0
        texts[name] = out.read_text()
    capsys.readouterr()
    assert run(jobs["cim"]) == 0
    texts["stdout"] = capsys.readouterr().out
    assert texts["stdout"] == texts["cim"]
    for name, text in texts.items():
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", name


# SHA-256 of outputs as the dense tensor storage and the schoolbook series
# product wrote them (the certificate as format v2 first wrote it); the
# sparse storage and the Kronecker product must write the same bytes.  The
# ℚ gen witness and its witness were recorded from the tensor action that
# formed each term as a product and a sum, before it became one muladd.
# The cim digests were taken again when a one-factor output stopped
# repeating its result in a factors list; each such output parses to the
# one pinned before with that list removed.  The cim and witness digests
# were taken again when decompositions stopped storing h1; each output
# parses to the one pinned before with each h1 removed and the version
# changed.
PINNED_DIGESTS = {
    "certify": "c3316584080fd8cbc533be000884ff23f51689e03a5c8e50e76fc91d618d4142",
    "witness-data": "c40ea4d281d1612b8b7c9bbe406905c0abd89f01f6759e2b89683700eb55a677",
    "gen": "cc27539098a1e18df7a1b83a518335c222ade94429c4079e99e8497e4cd1bc7e",
    "witness-gen": "3b56b1d2e99848d503d038e4311efb0bcb49ccee001e5f4a16b86f212719cd77",
    "cim-q": "342d2956713384351c2162033401e80025ec48ea4e05c76460db78a66e9bf27a",
    "cim-fp": "6043dd05780f48bbecd356449c213e09cbc7a458d94ee558cf29070f05f328e4",
    "gen-q": "3a4868025df386056f530ca32aa45dc1b3aa11ceca9c7260585655746802a969",
    "witness-gen-q": "b5a7b1c6f758081f4e01aa359bb6ea7941390b8852e7d521fea9a2d9999e6d8c",
}


def test_outputs_match_pinned_digests(tmp_path, witness_file):
    paths = {name: tmp_path / f"{name}.json" for name in PINNED_DIGESTS}
    assert run(["certify", "--n", "64", "--seed", "7", "--out", str(paths["certify"])]) == 0
    assert run(["witness", witness_file, "--out", str(paths["witness-data"])]) == 0
    for field, suffix in (("fp", ""), ("q", "-q")):
        gen = ["gen", "--kind", "witness", "--field", field, "--dims", "3,3,3", "--seed", "1"]
        assert run(gen + ["--out", str(paths[f"gen{suffix}"])]) == 0
        assert run(["witness", str(paths[f"gen{suffix}"]), "--out", str(paths[f"witness-gen{suffix}"])]) == 0
    for field in ("q", "fp"):
        matrix = tmp_path / f"gen-cim-{field}.json"
        assert run(["gen", "--kind", "cim", "--field", field, "--size", "6", "--seed", "1", "--out", str(matrix)]) == 0
        assert run(["cim", str(matrix), "--out", str(paths[f"cim-{field}"])]) == 0
        assert run(["verify", str(paths[f"cim-{field}"])]) == 0
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == PINNED_DIGESTS


# SHA-256 of ``cim`` on the workload-sized gen inputs, as the operator-built
# Smith pass, inverse and residual check wrote them (without the factors
# list of a one-factor output and without h1, as PINNED_DIGESTS); the
# fused kernel must write the same bytes
WORKLOAD_DIGESTS = {
    ("q", 12): "05283962db1a4c67fc8ab7e65956928ef5a357c7a38003bdda1b2d26a0c8a10c",
    ("fp", 16): "e9a1a33073420e56625d78550012dfe606006c71ac65063e272431465319c133",
}


@pytest.mark.parametrize("field, size", sorted(WORKLOAD_DIGESTS), ids=str)
def test_workload_sized_cim_outputs_match_pinned_digests(field, size, tmp_path):
    matrix, out = tmp_path / "g.json", tmp_path / "dec.json"
    gen = ["gen", "--kind", "cim", "--field", field, "--size", str(size), "--seed", "1"]
    assert run(gen + ["--out", str(matrix)]) == 0
    assert run(["cim", str(matrix), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WORKLOAD_DIGESTS[(field, size)]
    assert run(["verify", str(out)]) == 0
