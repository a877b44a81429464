"""The three workloads: the inputs they generate and the jobs they run.

Every workload is a fixed list of ``borderlab`` jobs, each followed by the
``verify`` of what it wrote.  Inputs are generated during set-up with
``borderlab gen`` and rescaled by constants drawn from the workload seed,
or copied from ``data/``; the seed also picks the ``--seed`` of every
certify and verify job.

* ``subrank`` -- the border-subrank certificates and the bound table.
  Time goes to dense ``n^3`` tensor scans, tensor JSON and the bound scan;
  it never touches ``series`` or ``loopgroup``.
* ``cim`` -- loop-group decompositions over Q and F_p.  Time goes to
  Laurent-series arithmetic and Smith reduction; it never touches tensors.
* ``witness`` -- many small limit witnesses, where interpreter start-up is
  most of each job and tensors are small, dense and carry series entries.
"""

from __future__ import annotations

import functools
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import checks

# certify sizes: n = 196 peaks at ~250 MB of RSS on today's dense tensors;
# n >= 512 would need several GB and is left out until tensors are sparse
CERTIFY_SIZES = (64, 144, 196)
BOUNDS_N_MAX = 1000
# (field, size) for gen --kind cim
CIM_INPUTS = (("q", 8), ("q", 12), ("fp", 12), ("fp", 16))
# (dims, instances per field) for gen --kind witness
WITNESS_INPUTS = (("3,3,3", 3), ("4,4,4", 2), ("5,5,5", 2), ("4,4,4,4", 1))
WITNESS_FIELDS = ("q", "fp")


@dataclass
class Job:
    """One ``borderlab`` invocation of a workload and how to check it."""

    name: str  # unique within the workload
    command: str  # the subcommand, for per-subcommand totals
    argv: list  # arguments after ``borderlab``, relative to the work dir
    out: Optional[str]  # the file the job writes; None when it prints (verify)
    check: Callable  # (rc, data) -> None or a reason; data is the file or stdout

    @property
    def produces(self) -> bool:
        return self.command != "verify"


@dataclass
class Plan:
    """What set-up produces: the generator commands and the jobs to time."""

    gens: list  # (file name, argv of ``borderlab gen``, rewrite of its output)
    copies: list  # file names under the repository's data/
    jobs: list


def _verify_job(name: str, kind: str, target: str, extra=()) -> Job:
    return Job(
        name=f"verify-{name}",
        command="verify",
        argv=["verify", target, *extra],
        out=None,
        check=lambda rc, data, kind=kind: checks.check_verify(kind, rc, data.decode("utf-8", "replace")),
    )


def plan(workload: str, seed: int, inputs: Path) -> Plan:
    """The workload's set-up and jobs; ``inputs`` is where its jobs run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "subrank":
        return _plan_subrank(rng)
    if workload == "cim":
        return _plan_cim(rng, inputs)
    if workload == "witness":
        return _plan_witness(rng, inputs)
    raise ValueError(f"unknown workload {workload!r}")


def _plan_subrank(rng) -> Plan:
    jobs = [
        Job(
            name="bounds",
            command="bounds",
            argv=["bounds", "--d", "3", "--n-max", str(BOUNDS_N_MAX), "--format", "csv", "--out", "bounds.csv"],
            out="bounds.csv",
            check=functools.partial(checks.check_bounds, BOUNDS_N_MAX),
        )
    ]
    for n in CERTIFY_SIZES:
        cert = f"cert-{n}.json"
        jobs.append(
            Job(
                name=f"certify-{n}",
                command="certify",
                argv=["certify", "--n", str(n), "--seed", str(rng.randrange(2**31)), "--out", cert],
                out=cert,
                check=functools.partial(checks.check_certificate, n),
            )
        )
        # verify draws its prime from a seed of its own, so it is a fresh one
        jobs.append(_verify_job(f"certify-{n}", "degeneration", cert, ["--seed", str(rng.randrange(2**31))]))
    return Plan(gens=[], copies=[], jobs=jobs)


def _plan_cim(rng, inputs: Path) -> Plan:
    gens = []
    for field, size in CIM_INPUTS:
        argv = ["gen", "--kind", "cim", "--field", field, "--size", str(size), "--seed", "1"]
        gens.append((f"cim-{field}{size}.json", argv, functools.partial(rescale_cim, seed=rng.randrange(2**31))))
    return _plan_producers("cim", "cartan", checks.check_cim, gens, "binary_cubics_curve.json", inputs)


def _plan_witness(rng, inputs: Path) -> Plan:
    gens = []
    for field in WITNESS_FIELDS:
        for dims, count in WITNESS_INPUTS:
            for i in range(count):
                argv = ["gen", "--kind", "witness", "--field", field, "--dims", dims, "--seed", str(i + 1)]
                name = f"witness-{field}{dims.replace(',', '')}-{i}.json"
                gens.append((name, argv, functools.partial(rescale_witness, seed=rng.randrange(2**31))))
    return _plan_producers("witness", "witness", checks.check_witness, gens, "binary_cubics_witness.json", inputs)


def _plan_producers(command, kind, checker, gens, data_file, inputs: Path) -> Plan:
    jobs = []
    for input_name in [g[0] for g in gens] + [data_file]:
        stem = input_name[: -len(".json")]
        out = f"out-{stem}.json"
        check = _with_input(checker, inputs / input_name)
        jobs.append(Job(name=stem, command=command, argv=[command, input_name, "--out", out], out=out, check=check))
        jobs.append(_verify_job(stem, kind, out))
    return Plan(gens=gens, copies=[data_file], jobs=jobs)


# How long a decomposition or a witness takes depends on the structure gen
# draws at random (valuation pattern, number of terms, heights), and single
# instances differ by 15-30% from seed to seed.  So that every seed asks for
# the same work, the structure comes from gen with fixed seeds and the
# workload seed draws nonzero constants to scale the input by.  A constant is
# a unit of the power-series ring: it changes no valuation, no Cartan weight
# and no limit's existence, only the coefficients.


def _constants(field_obj, rng):
    """``(draw, scale)``: a random nonzero constant, and a scalar string times constants."""
    if field_obj["kind"] == "Fp":
        p = int(field_obj["p"])

        def draw():
            return rng.randrange(1, p)

        def scale(c, *factors):
            out = int(c)
            for a in factors:
                out = out * a % p
            return str(out)

    else:
        # small fractions keep the heights of rational inputs modest

        def draw():
            return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))

        def scale(c, *factors):
            out = Fraction(c)
            for a in factors:
                out *= a
            return str(out)

    return draw, scale


def rescale_cim(matrix_obj: dict, seed: int) -> dict:
    """Scale row i and column j of a matrix JSON by seeded constants a_i, b_j."""
    draw, scale = _constants(matrix_obj["field"], random.Random(seed))
    entries = matrix_obj["entries"]
    rows = [draw() for _ in entries]
    cols = [draw() for _ in entries[0]]
    for row, a in zip(entries, rows):
        for entry, b in zip(row, cols):
            entry["coeffs"] = [scale(c, a, b) for c in entry["coeffs"]]
    return matrix_obj


def rescale_witness(obj: dict, seed: int) -> dict:
    """Scale each curve matrix g_i and the tensor p of a witness input by seeded constants."""
    draw, scale = _constants(obj["p"]["field"], random.Random(seed))
    for matrix in obj["g"]:
        a = draw()
        for row in matrix["entries"]:
            for entry in row:
                entry["coeffs"] = [scale(c, a) for c in entry["coeffs"]]
    c = draw()
    for entry in obj["p"]["entries"]:
        entry["value"] = scale(entry["value"], c)
    return obj


def _with_input(checker, path: Path):
    """Bind a checker to the input file the job read (reread on every check)."""
    return lambda rc, data: checker(json.loads(path.read_bytes()), rc, data)


def prepare(p: Plan, workdir: Path, data_dir: Path, gen_main) -> None:
    """Generate, rescale and copy the inputs of one set-up into ``workdir``."""
    workdir.mkdir(parents=True)
    for name, argv, rewrite in p.gens:
        rc = gen_main([*argv, "--out", str(workdir / name)])
        if rc != 0:
            raise RuntimeError(f"borderlab {' '.join(argv)} exited {rc}")
        path = workdir / name
        path.write_text(json.dumps(rewrite(json.loads(path.read_text())), sort_keys=True, indent=2) + "\n")
    for name in p.copies:
        shutil.copyfile(data_dir / name, workdir / name)
