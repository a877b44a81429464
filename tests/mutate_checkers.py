"""Mutation run over the functions that decide a Cartan, witness or certificate verdict.

Does tier-1 notice a checker that is wrong?  Each mutant is one change to
one function of ``src/borderlab``, made on its syntax tree:

* ``flip``: a comparison negated (``==``/``!=``, ``<``/``>=``, ``<=``/``>``,
  ``in``/``not in``, ``is``/``is not``);
* ``bound``: an order comparison moved by one (``<``/``<=``, ``>``/``>=``);
* ``ok``: a clause's ``ok`` forced to ``True``, in a yielded or appended
  ``(clause, ok, detail)`` triple or a ``VerificationResult``;
* ``raise``: a refusal turned into ``pass``: a ``raise`` of ``SchemaError``
  (exit 3), ``PrecisionError`` (exit 2) or ``WitnessVerificationFailure``
  (exit 1);
* ``exit``: in an ``except`` handler, a returned ``EXIT_*`` code set to each
  other one, or one exception type dropped from the handler's tuple;
* ``skip``: a call of a shape check (``_dict``, ``_list``, ``_str``,
  ``_bool``, ``_int``) replaced by its first argument, unchecked.

The list of mutants is fixed by the source.  For each one the script copies
the repository into a work directory, writes the mutant over the copy of
its module, and runs pytest there with ``-x`` on the test files that reach
the function; a mutant those leave alive is run against the whole suite.
A mutant is killed when pytest fails (or times out: a mutant of
``cartan_decompose``'s loop may never end), and survives when every test
passes.  Each set of test files is first run once unmutated: it must pass,
and ``TIMEOUT_FACTOR`` times its run time is the timeout of its mutants.
The repository itself is never written.

Run it from the repository root (pytest does not collect this file)::

    python tests/mutate_checkers.py --workdir /path/to/scratch [FUNCTION ...]
"""

from __future__ import annotations

import argparse
import ast
import copy
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: a mutant's pytest run that takes this many times as long as the unmutated
#: run of the same files (and at least ``MIN_TIMEOUT`` seconds) counts as a kill
TIMEOUT_FACTOR, MIN_TIMEOUT = 5, 30

#: (module, function) -> the test files that reach it
TARGETS = {
    ("loopgroup", "verify_cartan"): ["test_loopgroup.py", "test_cli.py", "test_witness.py", "test_acceptance.py"],
    ("loopgroup", "recheck_cartan"): ["test_cli.py"],
    ("witness", "witness_clauses"): ["test_witness.py", "test_cli.py"],
    ("witness", "lambda_and_constants"): ["test_witness.py", "test_cli.py"],
    ("jsonio", "cartan_from_obj"): ["test_jsonio.py", "test_cli.py"],
    ("loopgroup", "cartan_decompose"): ["test_loopgroup.py", "test_witness.py", "test_cli.py", "test_acceptance.py"],
    ("witness", "build_witness"): ["test_witness.py", "test_cli.py", "test_acceptance.py"],
    ("degeneration", "_claim_clauses"): ["test_degeneration.py", "test_cli.py", "test_acceptance.py"],
    ("degeneration", "recheck_certificate"): ["test_degeneration.py", "test_cli.py", "test_acceptance.py"],
    ("degeneration", "unit_cover_holds"): ["test_degeneration.py", "test_cli.py", "test_acceptance.py"],
    ("degeneration", "restriction_agrees"): ["test_degeneration.py", "test_cli.py", "test_acceptance.py"],
    ("degeneration", "limit_agrees"): ["test_degeneration.py", "test_cli.py", "test_acceptance.py"],
    ("tensors", "recognize_unit_tensor"): ["test_tensors.py", "test_sparse_tensors.py", "test_degeneration.py",
                                          "test_cli.py"],
    ("jsonio", "cartan_results_from_obj"): ["test_jsonio.py", "test_cli.py", "test_writer.py"],
    ("jsonio", "witness_from_obj"): ["test_jsonio.py", "test_records.py", "test_cli.py", "test_writer.py"],
    ("jsonio", "certificate_from_obj"): ["test_jsonio.py", "test_degeneration.py", "test_cli.py", "test_acceptance.py",
                                         "test_writer.py"],
    ("jsonio", "matrix_from_obj"): ["test_jsonio.py", "test_loopgroup.py", "test_records.py", "test_cli.py",
                                    "test_writer.py"],
    ("jsonio", "tensor_from_obj"): ["test_jsonio.py", "test_degeneration.py", "test_records.py", "test_cli.py",
                                    "test_acceptance.py", "test_writer.py"],
    ("loopgroup", "smith_form"): ["test_loopgroup.py", "test_witness.py", "test_cli.py", "test_jsonio.py",
                                  "test_records.py", "test_writer.py", "test_acceptance.py"],
    ("cli", "main"): ["test_cli.py", "test_degeneration.py", "test_loopgroup.py", "test_writer.py", "test_acceptance.py"],
    # the series kernel: its comparisons decide the truncation order that a decomposition claims
    ("series", "muladd"): ["test_series.py", "test_loopgroup.py", "test_tensors.py", "test_sparse_tensors.py",
                           "test_witness.py", "test_jsonio.py", "test_records.py", "test_writer.py", "test_cli.py",
                           "test_acceptance.py", "test_tooling.py"],
}
#: the decoders' shape helpers, each reached by the test files of every decoder
TARGETS.update({("jsonio", name): ["test_jsonio.py", "test_cli.py", "test_records.py", "test_degeneration.py",
                                   "test_loopgroup.py", "test_writer.py", "test_acceptance.py"]
                for name in ("_dict", "_list", "_int", "_str", "_bool", "_exact_keys", "_version", "_field_of",
                             "field_from_obj", "series_from_obj", "scalar_matrix_from_obj", "subgroup_from_obj",
                             "_rational_cube", "cim_input_from_obj", "witness_input_from_obj")})

FLIP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt,
        ast.Gt: ast.LtE, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
BOUND = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
EXIT_CODES = ("EXIT_OK", "EXIT_FAIL", "EXIT_INCONCLUSIVE", "EXIT_INPUT")
SHAPE_CHECKS = ("_dict", "_list", "_str", "_bool", "_int")


def _ok_slot(node):
    """The index of the ``ok`` argument that the ``ok`` operator forces, or None."""
    triple = None
    if isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple):
        triple = node.value
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "append":
        if node.args and isinstance(node.args[0], ast.Tuple):
            triple = node.args[0]
    if triple is not None and len(triple.elts) == 3 and not _is_true(triple.elts[1]):
        return triple, 1
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "VerificationResult":
        if node.args and not _is_true(node.args[0]):
            return node, 0
    return None


def _is_true(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def _raises_refusal(node) -> bool:
    exc = getattr(node, "exc", None)
    return (isinstance(node, ast.Raise) and isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            and exc.func.id in ("SchemaError", "PrecisionError", "WitnessVerificationFailure"))


def _skips_check(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in SHAPE_CHECKS
            and bool(node.args))


def _exit_codes(func: ast.FunctionDef) -> set:
    """The nodes of ``return EXIT_*`` statements inside ``func``'s ``except`` handlers."""
    return {node for handler in ast.walk(func) if isinstance(handler, ast.ExceptHandler)
            for node in ast.walk(handler) if isinstance(node, ast.Return) and isinstance(node.value, ast.Name)
            and node.value.id in EXIT_CODES}


def _set_exit(node, code):
    before = ast.unparse(node)
    node.value = ast.Name(code, ast.Load())
    return f"{before}  ->  {ast.unparse(node)}"


def _drop_type(node, slot):
    before = ast.unparse(node.type)
    del node.type.elts[slot]
    return f"except {before}  ->  except {ast.unparse(node.type)}"


def mutations(func: ast.FunctionDef):
    """``(operator, index, apply)`` for every mutant of ``func``; ``apply`` takes the node at
    position ``index`` of ``ast.walk`` on a copy, and either edits it and returns a
    description or returns the node to put in its place."""
    exits = _exit_codes(func)
    for index, node in enumerate(ast.walk(func)):
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            op = type(node.ops[0])
            if op in FLIP:
                yield "flip", index, lambda n, new=FLIP[op]: _set_op(n, new)
            if op in BOUND:
                yield "bound", index, lambda n, new=BOUND[op]: _set_op(n, new)
        if _ok_slot(node) is not None:
            yield "ok", index, _force_ok
        if _raises_refusal(node):
            yield "raise", index, lambda n: ast.Pass()
        if _skips_check(node):
            yield "skip", index, lambda n: n.args[0]
        if node in exits:
            for code in EXIT_CODES:
                if code != node.value.id:
                    yield "exit", index, lambda n, code=code: _set_exit(n, code)
        if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple):
            for slot in range(len(node.type.elts)):
                yield "exit", index, lambda n, slot=slot: _drop_type(n, slot)


def _set_op(node, op):
    before = ast.unparse(node)
    node.ops = [op()]
    return f"{before}  ->  {ast.unparse(node)}"


def _force_ok(node):
    holder, slot = _ok_slot(node)
    elts = holder.elts if isinstance(holder, ast.Tuple) else holder.args
    before = ast.unparse(elts[slot])
    elts[slot] = ast.Constant(True)
    return f"ok {before}  ->  True in {ast.unparse(node)[:80]}"


def _replace(root, target, new) -> str:
    """Put ``new`` where ``target`` stands under ``root``, and describe the change."""
    for parent in ast.walk(root):
        for name, value in ast.iter_fields(parent):
            if value is target:
                setattr(parent, name, new)
            elif isinstance(value, list) and any(v is target for v in value):
                value[value.index(target)] = new
    return f"{ast.unparse(target)[:80]}  ->  {ast.unparse(new)[:80]}"


def mutant_source(source: str, name: str, index: int, apply) -> tuple:
    """``(module source, description)`` with mutation ``index`` of function ``name`` applied."""
    tree = ast.parse(source)
    func = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    mutated = copy.deepcopy(func)
    node = list(ast.walk(mutated))[index]
    description = apply(node)
    if isinstance(description, ast.AST):
        description = _replace(mutated, node, description)
    ast.fix_missing_locations(mutated)
    lines = source.splitlines(keepends=True)
    body = ast.unparse(mutated) + "\n"
    return "".join(lines[: func.lineno - 1]) + body + "".join(lines[func.end_lineno:]), description


def run_tests(repo: Path, files, timeout=None) -> tuple:
    """``(killed, seconds)`` of pytest ``-x`` over ``files`` (the whole suite when empty)."""
    start = time.perf_counter()
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *[f"tests/{f}" for f in files]]
    try:
        proc = subprocess.run(argv, cwd=repo, capture_output=True, text=True, timeout=timeout)
        killed = proc.returncode != 0
    except subprocess.TimeoutExpired:
        killed = True
    return killed, time.perf_counter() - start


def unmutated_timeout(repo: Path, files) -> float:
    """The timeout of a mutant's run over ``files``, from one unmutated run of them, which must pass."""
    failed, seconds = run_tests(repo, files)
    if failed:
        raise SystemExit(f"the unmutated tests fail: {' '.join(files) or 'the whole suite'}")
    timeout = max(MIN_TIMEOUT, TIMEOUT_FACTOR * seconds)
    print(f"unmutated {' '.join(files) or 'whole suite'}: {seconds:.1f} s, timeout {timeout:.0f} s", flush=True)
    return timeout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", help="where the copy of the repository goes (default: a new temporary directory)")
    parser.add_argument("functions", nargs="*", help="only these functions (default: all targets)")
    args = parser.parse_args(argv)
    work = Path(args.workdir or tempfile.mkdtemp(prefix="mutants-"))
    repo = work / "repo"
    shutil.rmtree(repo, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".perfbench_runs", ".git")
    for part in ("src", "tests", "data", "perfbench"):
        shutil.copytree(ROOT / part, repo / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", repo / "pyproject.toml")
    counts = {"killed": 0, "survived": 0}
    timeouts = {(): unmutated_timeout(repo, [])}  # per set of test files, the empty set the whole suite
    for (module, name), files in TARGETS.items():
        if args.functions and name not in args.functions:
            continue
        path = repo / "src" / "borderlab" / f"{module}.py"
        original = path.read_text()
        func = next(n for n in ast.parse(original).body if isinstance(n, ast.FunctionDef) and n.name == name)
        if tuple(files) not in timeouts:
            timeouts[tuple(files)] = unmutated_timeout(repo, files)
        timeout = timeouts[tuple(files)]
        for operator, index, apply in mutations(func):
            source, description = mutant_source(original, name, index, apply)
            path.write_text(source)
            try:
                killed, seconds = run_tests(repo, files, timeout)
                if not killed:
                    killed, more = run_tests(repo, [], timeouts[()])
                    seconds += more
            finally:
                path.write_text(original)
            counts["killed" if killed else "survived"] += 1
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict:<8} {module}.{name} [{operator}] {description} ({seconds:.1f} s)", flush=True)
    print(f"killed {counts['killed']}, survived {counts['survived']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
