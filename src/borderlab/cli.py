"""Command-line surface: decomposition, witnesses, certification, bounds.

Exit codes are a stable contract:
  0  success / certified
  1  refuted or failed verification
  2  inconclusive (precision or prime retries exhausted)
  3  malformed input or bad parameters

All outputs are JSON with sorted keys (identical inputs and seed give
byte-identical files); files are written atomically.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

from . import bounds as bounds_mod
from . import jsonio
from .degeneration import certify_lower_bound, recheck_certificate
from .errors import (
    BorderlabError,
    NoLimitError,
    PlacementError,
    PrecisionError,
    SingularError,
    WitnessVerificationFailure,
)
from .fields import FieldContext, PrimeField, QQ, random_prime
from .instances import random_invertible_laurent_matrix, random_witness_instance
from .loopgroup import cartan_decompose, check_cartan, verify_cartan
from .tensors import limit_at_infinity, limit_at_zero
from .witness import build_witness, specialize
from . import linalg
from .tensors import act

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


@dataclass
class RunConfig:
    field: Optional[FieldContext]
    precision: int
    seed: int
    out: Optional[str]
    fmt: str
    max_doublings: int
    prime_retries: int

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def _config(args) -> RunConfig:
    field = None
    if args.field == "q":
        field = QQ
    elif args.field == "fp":
        if args.prime is not None:
            field = PrimeField(int(args.prime))
        else:
            field = PrimeField(random_prime(62, random.Random(args.seed)))
    elif args.prime is not None:
        field = PrimeField(int(args.prime))
    return RunConfig(
        field=field,
        precision=args.precision,
        seed=args.seed,
        out=args.out,
        fmt=args.format,
        max_doublings=args.max_doublings,
        prime_retries=args.prime_retries,
    )


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Optional[str], obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _at_doubling_precision(cfg: RunConfig, gs, attempt):
    """``attempt(precision)`` from ``cfg.precision``, doubling it on PrecisionError.

    A precision above what an input matrix of ``gs`` is known to cannot be
    verified, so reaching one raises PrecisionError at once.
    """
    known = min((g.trunc for g in gs if g.trunc is not None), default=None)
    precision = cfg.precision
    last_exc = None
    for _ in range(cfg.max_doublings + 1):
        if known is not None and known < precision:
            raise PrecisionError(f"input known only to t^{known}, below precision {precision}") from last_exc
        try:
            return attempt(precision)
        except PrecisionError as exc:
            last_exc = exc
            precision *= 2
    raise PrecisionError(f"precision retries exhausted: {last_exc}")


def _decompose(g, precision: int):
    dec = cartan_decompose(g, precision)
    return dec, check_cartan(g, dec)


def cmd_cim(args) -> int:
    cfg = _config(args)
    obj = _load_json(args.input)
    if "factors" in obj:
        matrices = [jsonio.matrix_from_obj(o, cfg.field) for o in obj["factors"]]
    else:
        matrices = [jsonio.matrix_from_obj(obj, cfg.field)]
    results = []
    all_ok = True
    for g in matrices:
        dec, verdict = _at_doubling_precision(cfg, [g], lambda n: _decompose(g, n))
        all_ok = all_ok and verdict.passed
        results.append(
            {
                "input": jsonio.matrix_to_obj(g),
                "decomposition": jsonio.cartan_to_obj(dec),
                "verified": verdict.passed,
                "reason": verdict.reason,
            }
        )
    out_obj = {"kind": "cartan", "version": jsonio.TOOL_VERSION, "factors": results}
    if len(results) == 1:
        out_obj.update(results[0])
    _write_json(cfg.out, out_obj)
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_witness(args) -> int:
    cfg = _config(args)
    if args.input is not None:
        obj = _load_json(args.input)
        g_objs, p_obj, lift = obj["g"], obj["p"], obj.get("lift")
    else:
        if args.g is None or args.p is None:
            raise ValueError("witness needs either a combined input file or --g and --p")
        g_objs = _load_json(args.g)
        if isinstance(g_objs, dict) and "g" in g_objs:
            g_objs = g_objs["g"]
        p_obj = _load_json(args.p)
        lift = args.lift
    gs = [jsonio.matrix_from_obj(o, cfg.field) for o in g_objs]
    fld = gs[0].field
    p = jsonio.tensor_from_obj(p_obj, fld)

    witness = _at_doubling_precision(cfg, gs, lambda n: build_witness(gs, p, n, lift=lift))
    out_obj = jsonio.witness_to_obj(witness)
    out_obj["g"] = [jsonio.matrix_to_obj(g) for g in gs]
    out_obj["p"] = jsonio.tensor_to_obj(p)
    _write_json(cfg.out, out_obj)
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = _config(args)
    cert = certify_lower_bound(
        args.n,
        r=args.r,
        field=cfg.field,
        rng=cfg.rng(),
        max_prime_retries=cfg.prime_retries,
    )
    _write_json(cfg.out, jsonio.certificate_to_obj(cert))
    if cert.verdict == "Certified":
        return EXIT_OK
    if cert.verdict == "Refuted":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def cmd_bounds(args) -> int:
    cfg = _config(args)
    if args.n_max < 0:
        raise ValueError("--n-max must be nonnegative")
    rows = bounds_mod.scan_table(args.d, args.n_max) if args.n_max >= 1 else []
    header = ["n", "d3_lower", "generic_subrank", "dmz_lo", "border_upper", "excess_flag"]
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row[h]) for h in header])
        _write_text(cfg.out, buf.getvalue())
    else:
        _write_json(cfg.out, {"kind": "bounds", "d": args.d, "rows": rows})
    return EXIT_OK


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return v


def cmd_verify(args) -> int:
    cfg = _config(args)
    obj = _load_json(args.input)
    kind = obj.get("kind")
    if kind == "degeneration":
        cert = jsonio.certificate_from_obj(obj)
        # the fresh prime comes from a stream of its own, apart from certify's
        results = recheck_certificate(cert, rng=random.Random(f"verify:{cfg.seed}"))
    elif kind == "cartan":
        results = _recheck_cartan(obj, cfg)
    elif kind == "witness":
        results = _recheck_witness(obj)
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    ok = True
    for clause, passed, detail in results:
        status = "ok" if passed else "FAILED"
        print(f"{clause}: {status} ({detail})")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_FAIL


def _recheck_cartan(obj, cfg: RunConfig):
    factors = obj["factors"] if "factors" in obj else [obj]
    results = []
    for i, fac in enumerate(factors):
        g = jsonio.matrix_from_obj(fac["input"], cfg.field)
        dec = jsonio.cartan_from_obj(fac["decomposition"], g.field)
        verdict = verify_cartan(g, dec)
        label = f"residual[{i}]" if len(factors) > 1 else "residual"
        results.append((label, verdict.passed, verdict.reason or "g = h1 diag(t^w) h2^-1 mod t^N"))
    return results


def _recheck_witness(obj):
    witness = jsonio.witness_from_obj(obj)
    fld = witness.subgroup.field
    results = []
    gs = [jsonio.matrix_from_obj(o, fld) for o in obj["g"]]
    p = jsonio.tensor_from_obj(obj["p"], fld)
    for i, (g, dec) in enumerate(zip(gs, witness.decompositions)):
        verdict = verify_cartan(g, dec)
        results.append((f"cim-residual[{i}]", verdict.passed, verdict.reason or "verified"))
    action = gs
    if witness.lift == "sym3":
        from .witness import sym3_lift

        action = [sym3_lift(gs[0])]
    try:
        q = specialize(action, p)
        results.append(("specialization", q == witness.q, "lim g(t)p recomputed"))
    except NoLimitError as exc:
        results.append(("specialization", False, str(exc)))
        q = None
    if q is not None:
        mats = [[list(r) for r in m] for m in witness.translations]
        inv_ok = all(linalg.is_invertible(fld, m) for m in mats)
        results.append(("translation-invertible", inv_ok, "h2(0) h1(0)^-1 per factor"))
        results.append(("translation", act(mats, q) == witness.q_tilde, "qTilde = translations . q"))
    try:
        lim0 = limit_at_zero(witness.subgroup, p)
        results.append(("limit-zero", lim0 == witness.shared_limit, "lim_{t->0} lambda(t) p"))
    except NoLimitError as exc:
        results.append(("limit-zero", False, str(exc)))
    try:
        liminf = limit_at_infinity(witness.subgroup, witness.q_tilde)
        results.append(("limit-infinity", liminf == witness.shared_limit, "lim_{t->inf} lambda(t) qTilde"))
    except NoLimitError as exc:
        results.append(("limit-infinity", False, str(exc)))
    return results


def cmd_gen(args) -> int:
    cfg = _config(args)
    rng = cfg.rng()
    field = cfg.field if cfg.field is not None else QQ
    if args.kind == "witness":
        dims = tuple(int(x) for x in args.dims.split(","))
        gs, p = random_witness_instance(field, dims, rng)
        out_obj = {
            "kind": "witness-input",
            "g": [jsonio.matrix_to_obj(g) for g in gs],
            "p": jsonio.tensor_to_obj(p),
        }
    elif args.kind == "cim":
        g = random_invertible_laurent_matrix(field, args.size, rng)
        out_obj = jsonio.matrix_to_obj(g)
    else:
        raise ValueError(f"unknown generator kind {args.kind!r}")
    _write_json(cfg.out, out_obj)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", choices=["q", "fp"], default=None, help="coefficient field")
    common.add_argument("--prime", type=int, default=None, help="prime for --field fp")
    common.add_argument("--precision", type=int, default=32, help="series truncation order")
    common.add_argument("--seed", type=int, default=0, help="seed for all randomized choices")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--max-doublings", type=int, default=3, help="precision retry cap")
    common.add_argument("--prime-retries", type=int, default=3, help="fresh-prime retry cap")

    parser = argparse.ArgumentParser(
        prog="borderlab",
        description="Exact loop-group decompositions, limit witnesses, and border-subrank certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cim = sub.add_parser("cim", parents=[common], help="decompose a loop-group element")
    p_cim.add_argument("input", help="matrix JSON (or {factors: [...]})")
    p_cim.set_defaults(func=cmd_cim)

    p_wit = sub.add_parser("witness", parents=[common], help="build and verify a limit witness")
    p_wit.add_argument("input", nargs="?", default=None, help='combined {"g": [...], "p": ...} file')
    p_wit.add_argument("--g", default=None, help="curve matrices JSON file")
    p_wit.add_argument("--p", default=None, help="tensor JSON file")
    p_wit.add_argument("--lift", choices=["sym3"], default=None, help="act through the cubic lift")
    p_wit.set_defaults(func=cmd_witness)

    p_cert = sub.add_parser("certify", parents=[common], help="produce a degeneration certificate")
    p_cert.add_argument("--n", type=int, required=True)
    p_cert.add_argument("--r", type=int, default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_bounds = sub.add_parser("bounds", parents=[common], help="emit the bound table")
    p_bounds.add_argument("--d", type=int, default=3)
    p_bounds.add_argument("--n-max", type=int, required=True)
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", parents=[common], help="re-derive a stored certificate from scratch")
    p_verify.add_argument("input")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", parents=[common], help="generate test instances with known ground truth")
    p_gen.add_argument("--kind", choices=["witness", "cim"], required=True)
    p_gen.add_argument("--dims", default="3,3", help="comma-separated factor dimensions (witness)")
    p_gen.add_argument("--size", type=int, default=3, help="matrix size (cim)")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NoLimitError, WitnessVerificationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except PrecisionError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (PlacementError, SingularError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BorderlabError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
