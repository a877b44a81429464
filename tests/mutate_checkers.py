"""Mutation run over the functions that decide a Cartan or witness verdict.

Does tier-1 notice a checker that is wrong?  Each mutant is one change to
one function of ``src/borderlab``, made on its syntax tree:

* ``flip``: a comparison negated (``==``/``!=``, ``<``/``>=``, ``<=``/``>``,
  ``in``/``not in``, ``is``/``is not``);
* ``bound``: an order comparison moved by one (``<``/``<=``, ``>``/``>=``);
* ``ok``: a clause's ``ok`` forced to ``True``, in a yielded or appended
  ``(clause, ok, detail)`` triple or a ``VerificationResult``;
* ``raise``: a ``raise SchemaError(...)`` turned into ``pass``.

The list of mutants is fixed by the source.  For each one the script copies
the repository into a work directory, writes the mutant over the copy of
its module, and runs pytest there with ``-x`` on the test files that reach
the function; a mutant those leave alive is run against the whole suite.
A mutant is killed when pytest fails (or times out), and survives when
every test passes.  The repository itself is never written.

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

#: seconds per pytest run; a run that takes longer counts as a kill
TIMEOUT = 900

#: (module, function) -> the test files that reach it
TARGETS = {
    ("loopgroup", "verify_cartan"): ["test_loopgroup.py", "test_cli.py", "test_witness.py", "test_acceptance.py"],
    ("loopgroup", "recheck_cartan"): ["test_cli.py"],
    ("witness", "witness_clauses"): ["test_witness.py", "test_cli.py"],
    ("witness", "lambda_and_constants"): ["test_witness.py", "test_cli.py"],
    ("jsonio", "cartan_from_obj"): ["test_jsonio.py", "test_cli.py"],
}

FLIP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt,
        ast.Gt: ast.LtE, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
BOUND = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


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


def _raises_schema_error(node) -> bool:
    exc = getattr(node, "exc", None)
    return (isinstance(node, ast.Raise) and isinstance(exc, ast.Call)
            and isinstance(exc.func, ast.Name) and exc.func.id == "SchemaError")


def mutations(func: ast.FunctionDef):
    """``(operator, index, apply)`` for every mutant of ``func``; ``apply`` edits the node at
    position ``index`` of ``ast.walk`` on a copy, and returns a description."""
    for index, node in enumerate(ast.walk(func)):
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            op = type(node.ops[0])
            if op in FLIP:
                yield "flip", index, lambda n, new=FLIP[op]: _set_op(n, new)
            if op in BOUND:
                yield "bound", index, lambda n, new=BOUND[op]: _set_op(n, new)
        if _ok_slot(node) is not None:
            yield "ok", index, _force_ok
        if isinstance(node, ast.Raise) and _raises_schema_error(node):
            yield "raise", index, None


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


class _RaiseToPass(ast.NodeTransformer):
    def __init__(self, target):
        self.target = target
        self.description = ""

    def visit_Raise(self, node):
        if node is self.target:
            self.description = f"{ast.unparse(node)[:80]}  ->  pass"
            return ast.Pass()
        return node


def mutant_source(source: str, name: str, index: int, apply) -> tuple:
    """``(module source, description)`` with mutation ``index`` of function ``name`` applied."""
    tree = ast.parse(source)
    func = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    mutated = copy.deepcopy(func)
    node = list(ast.walk(mutated))[index]
    if apply is None:
        remover = _RaiseToPass(node)
        mutated = remover.visit(mutated)
        description = remover.description
    else:
        description = apply(node)
    ast.fix_missing_locations(mutated)
    lines = source.splitlines(keepends=True)
    body = ast.unparse(mutated) + "\n"
    return "".join(lines[: func.lineno - 1]) + body + "".join(lines[func.end_lineno:]), description


def run_tests(repo: Path, files) -> tuple:
    """``(killed, seconds)`` of pytest ``-x`` over ``files`` (the whole suite when empty)."""
    start = time.perf_counter()
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *[f"tests/{f}" for f in files]]
    try:
        proc = subprocess.run(argv, cwd=repo, capture_output=True, text=True, timeout=TIMEOUT)
        killed = proc.returncode != 0
    except subprocess.TimeoutExpired:
        killed = True
    return killed, time.perf_counter() - start


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
    for (module, name), files in TARGETS.items():
        if args.functions and name not in args.functions:
            continue
        path = repo / "src" / "borderlab" / f"{module}.py"
        original = path.read_text()
        func = next(n for n in ast.parse(original).body if isinstance(n, ast.FunctionDef) and n.name == name)
        for operator, index, apply in mutations(func):
            source, description = mutant_source(original, name, index, apply)
            path.write_text(source)
            try:
                killed, seconds = run_tests(repo, files)
                if not killed:
                    killed, more = run_tests(repo, [])
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
