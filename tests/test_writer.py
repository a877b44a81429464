"""The streaming JSON writer behind every output file, and the memory a job holds.

``cli._dump_json`` must write exactly ``json.dumps(obj, sort_keys=True,
indent=2) + "\\n"`` without ever holding that text whole, and
``cli._write_json`` must replace its target only with a complete document.
A job holds one copy of its data: the writer builds no JSON tree of a
matrix or tensor, and ``verify`` releases the tree it read before it
rechecks.
"""

import gc
import json
import os
import random
import tracemalloc

import pytest

# every module the jobs below run, imported before any heap is traced
from borderlab import cli, degeneration, jsonio, loopgroup, witness

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dumped(obj):
    pieces = []
    cli._dump_json(obj, pieces.append)
    return "".join(pieces)


ALPHABET = 'ab"\\/\n\t\r\x00\x1f\x7f é中\U0001f600  0123456789'


def random_str(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))


def random_document(rng, depth=0):
    kind = rng.randrange(7 if depth < 4 else 4)
    if kind == 0:
        return random_str(rng)
    if kind == 1:
        return rng.choice([0, -1, 7, rng.randint(-(10**30), 10**30)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        # string lists on both sides of the slice size
        size = rng.choice([0, 1, 2, cli._JOIN_SLICE - 1, cli._JOIN_SLICE, cli._JOIN_SLICE + 1, 2 * cli._JOIN_SLICE + 3])
        return [random_str(rng) for _ in range(size)]
    if kind == 4:
        return [random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 5:
        return tuple(random_document(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    return {random_str(rng): random_document(rng, depth + 1) for _ in range(rng.randint(0, 5))}


def test_writes_exactly_what_json_dumps_writes():
    rng = random.Random(20261018)
    # and strings longer than the file buffer, alone and in a list
    long = {"long": "x\"é" * cli._BUFFER, "tail": ["y" * cli._BUFFER] * 3, "n": -(10**40)}
    for obj in [*(random_document(rng) for _ in range(1500)), long]:
        assert dumped(obj) == canonical(obj)


@pytest.mark.parametrize(
    "obj",
    [1.5, float("nan"), {"a": [1, 2.0]}, {1: "a"}, {None: 1}, {"a": object()}, [b"bytes"], {"a": {1, 2}}],
    ids=["float", "nan", "nested-float", "int-key", "none-key", "object", "bytes", "set"],
)
def test_refuses_what_no_document_holds(obj):
    with pytest.raises(TypeError):
        dumped(obj)


def synthetic_cim_output(size=16, terms=140):
    """A one-factor ``cim`` output of the current form on a 16×16 F_p matrix,
    its series longer than any workload's so that the text exceeds 1 MB."""
    rng = random.Random(16)

    def matrix(low):
        entries = [
            [
                {
                    "val": rng.randint(low, 3),
                    "coeffs": [str(rng.randrange(2**61)) for _ in range(rng.randint(1, terms))],
                    "trunc": 32,
                    "exact": False,
                }
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        return {"field": {"kind": "Fp", "p": str(2**61 - 1)}, "entries": entries}

    return {
        "kind": "cartan",
        "version": jsonio.TOOL_VERSION,
        "input": matrix(-3),
        "decomposition": {"weights": list(range(size)), "h2": matrix(0), "precision": 32},
        "verified": True,
        "reason": "",
    }


def traced_peak(func, *args) -> tuple:
    """``(func(*args), peak)``: the peak is in bytes of traced heap above what was allocated before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = func(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_writing_a_workload_sized_document_holds_no_copy_of_it(tmp_path):
    obj = synthetic_cim_output()
    # a cim output of the current form whose text alone exceeds the 1 MB
    # peak bound below, so a writer holding one whole copy of it fails
    assert len(jsonio.cartan_results_from_obj(obj)) == 1
    size = len(canonical(obj))
    assert size > 1_000_000
    path = tmp_path / "dec.json"
    _, peak = traced_peak(cli._write_json, str(path), obj)
    assert peak < 1_000_000
    assert path.read_text() == canonical(obj)


def test_cim_on_a_16x16_fp_input_holds_no_encoded_copy_of_a_matrix(tmp_path):
    # writing h2 and the input as JSON trees beside the matrices peaked at
    # about 850 KB; encoding one series at a time peaks at about 530 KB
    source, out = tmp_path / "g.json", tmp_path / "dec.json"
    assert cli.main(["gen", "--kind", "cim", "--field", "fp", "--size", "16", "--seed", "1", "--out", str(source)]) == 0
    code, peak = traced_peak(cli.main, ["cim", str(source), "--out", str(out)])
    assert code == 0
    assert peak < 700_000


def test_certify_holds_no_encoded_copy_of_its_tensors(tmp_path):
    # at n = 4096 (8000 entries in T~), building both tensors' entry
    # objects before writing peaked at about 500 bytes per T~ entry;
    # encoding one entry at a time peaks at about 250
    out = tmp_path / "cert.json"
    code, peak = traced_peak(cli.main, ["certify", "--n", "4096", "--out", str(out)])
    assert code == 0
    entries = len(json.loads(out.read_text())["TTilde"]["entries"])
    assert entries == 8000
    assert peak < 350 * entries


@pytest.mark.parametrize(
    "kind, module, recheck",
    [("cartan", loopgroup, "recheck_cartan"), ("witness", witness, "recheck_witness"),
     ("degeneration", degeneration, "recheck_certificate")],
    ids=["cartan", "witness", "degeneration"],
)
def test_verify_releases_the_document_tree_before_it_rechecks(kind, module, recheck, tmp_path, monkeypatch, capsys):
    out = tmp_path / "doc.json"
    make = {
        "cartan": ["cim", os.path.join(DATA, "binary_cubics_curve.json")],
        "witness": ["witness", os.path.join(DATA, "binary_cubics_witness.json")],
        "degeneration": ["certify", "--n", "9"],
    }[kind]
    assert cli.main([*make, "--out", str(out)]) == 0

    def trees():
        """How many documents of this kind are alive, as JSON trees."""
        return sum(1 for o in gc.get_objects() if type(o) is dict and o.get("kind") == kind and "version" in o)

    alive = []
    original = getattr(module, recheck)

    def spy(*args):
        alive.append(trees())
        return original(*args)

    monkeypatch.setattr(module, recheck, spy)
    before = trees()
    assert cli.main(["verify", str(out)]) == 0
    assert alive == [before]
    assert ": ok (" in capsys.readouterr().out


def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    # well past the file buffer before the float, so some text has reached the temp file
    obj = {"a": ["z" * 1000] * (4 * cli._BUFFER // 1000), "b": 1.5}
    with pytest.raises(TypeError):
        cli._write_json(str(path), obj)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.json"]



@pytest.fixture
def umask_027():
    old = os.umask(0o027)
    yield
    os.umask(old)


def test_a_new_file_gets_the_mode_open_would_give(tmp_path, umask_027):
    # mkstemp makes its file 0600; the output must not stay that private
    path = tmp_path / "new.json"
    cli._write_json(str(path), {"a": 1})
    assert os.stat(path).st_mode & 0o777 == 0o640
    os.umask(0o022)
    cli._write_json(str(tmp_path / "other.json"), {"a": 1})
    assert os.stat(tmp_path / "other.json").st_mode & 0o777 == 0o644


def test_a_replaced_file_keeps_its_mode(tmp_path, umask_027):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    os.chmod(path, 0o604)
    cli._write_json(str(path), {"a": 1})
    assert os.stat(path).st_mode & 0o777 == 0o604
    assert path.read_text() == canonical({"a": 1})
