"""The streaming JSON writer behind every output file.

``cli._dump_json`` must write exactly ``json.dumps(obj, sort_keys=True,
indent=2) + "\\n"`` without ever holding that text whole, and
``cli._write_json`` must replace its target only with a complete document.
"""

import json
import os
import random
import tracemalloc

import pytest

from borderlab import cli


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


def synthetic_cim_output(size=16, terms=40):
    """A document shaped and sized like ``cim`` on a 16×16 F_p matrix (about 0.8 MB)."""
    rng = random.Random(16)

    def matrix():
        entries = [
            [
                {
                    "val": rng.randint(-3, 3),
                    "coeffs": [str(rng.randrange(2**61)) for _ in range(rng.randint(1, terms))],
                    "trunc": 32,
                    "exact": False,
                }
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        return {"field": {"kind": "fp", "p": str(2**61 - 1)}, "entries": entries}

    factor = {
        "input": matrix(),
        "decomposition": {"h1": matrix(), "weights": list(range(size)), "h2": matrix(), "precision": 32},
        "verified": True,
        "reason": "",
    }
    return dict(factor, kind="cartan", version="borderlab-0.1.0", factors=[factor])


def test_writing_a_workload_sized_document_holds_no_copy_of_it(tmp_path):
    obj = synthetic_cim_output()
    size = len(canonical(obj))
    assert size > 700_000
    path = tmp_path / "dec.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli._write_json(str(path), obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 1_000_000
    assert path.read_text() == canonical(obj)


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
