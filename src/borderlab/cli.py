"""Command-line surface: decomposition, witnesses, certification, bounds.

Exit codes are a stable contract:
  0  success / certified
  1  refuted or failed verification
  2  inconclusive (no working precision certifies a Cartan
     decomposition, an input known to too little for the asked precision,
     or a certificate whose checks do not all hold)
  3  malformed input, bad parameters or a usage error

A run that runs out of memory or stack, or meets a size too large to index
(``MemoryError``, ``RecursionError``, ``OverflowError``), reached no
verdict, so it exits 2 and its ``inconclusive:`` line names the exception;
an input file nested too deeply for the JSON reader exits 3.

``cim`` and ``witness`` decompose at exactly ``--precision``; the working
precision, and its doublings when a pivot cannot be certified, are
:func:`borderlab.loopgroup.cartan_decompose`'s own.

All outputs are the bytes of ``json.dumps(obj, sort_keys=True, indent=2)``
plus a newline (identical inputs and seed give byte-identical files),
streamed piece by piece; files are written atomically.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import stat
import sys
import tempfile
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

# Only light modules are imported here: each subcommand imports the
# modules it runs, so a job loads nothing it does not use.  A subcommand
# that reads Laurent series imports ``series`` before anything else: it is
# the largest module, and where no bytecode is cached, compiling it while
# the heap is still small lowers the job's peak RSS by 0.1-0.3 MB.
from .errors import BorderlabError, NoLimitError, PrecisionError, SchemaError, WitnessVerificationFailure

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


#: the output file's buffer, in bytes, and how many strings the JSON writer quotes and joins at once
_BUFFER, _JOIN_SLICE = 1 << 16, 128


def _emit(path: Optional[str], dump) -> None:
    """``dump(write)`` into stdout, or into a temp file that replaces ``path`` once complete."""
    if path is None:
        dump(sys.stdout.write)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", buffering=_BUFFER) as handle:
            # mkstemp makes the file 0600; give it the mode open(path, "w") would
            try:
                mode = stat.S_IMODE(os.stat(path).st_mode)
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask
            os.fchmod(fd, mode)
            dump(handle.write)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: Optional[str], text: str) -> None:
    _emit(path, lambda write: write(text))


def _write_json(path: Optional[str], obj) -> None:
    _emit(path, lambda write: _dump_json(obj, write))


def _dump_json(obj, write) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` through ``write``, piece by piece.

    No piece is larger than one string of ``obj`` or one slice of a string
    list, so the whole text is never held.  Only str, int, bool, None,
    lists, tuples and str-keyed dicts are written; anything else raises
    TypeError.
    """

    def node(o, indent):
        if isinstance(o, str):
            return write(_quote(o))
        if o is None or o is True or o is False:
            return write("null" if o is None else "true" if o else "false")
        if isinstance(o, int):
            return write(int.__repr__(o))
        if not isinstance(o, (list, tuple, dict)):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if not o:
            return write("{}" if isinstance(o, dict) else "[]")
        inner = indent + "  "
        lead, sep = ("{" if isinstance(o, dict) else "[") + inner, "," + inner
        if isinstance(o, dict):
            for i, key in enumerate(sorted(o)):  # _quote refuses a key that is not a str
                write((sep if i else lead) + _quote(key) + ": ")
                node(o[key], inner)
            return write(indent + "}")
        if all(isinstance(x, str) for x in o):  # quoted and joined in C, a slice at a time
            for i in range(0, len(o), _JOIN_SLICE):
                write((sep if i else lead) + sep.join(map(_quote, o[i : i + _JOIN_SLICE])))
        else:
            for i, x in enumerate(o):
                write(sep if i else lead)
                node(x, inner)
        write(indent + "]")

    node(obj, "\n")
    write("\n")


def _load_json(path: str):
    with open(path) as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply to read") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_cim(args) -> int:
    from . import series  # noqa: F401  (first: see the imports above)
    from . import jsonio
    from .loopgroup import cartan_factors

    factors = cartan_factors(jsonio.cim_input_from_obj(_load_json(args.input)), args.precision)
    _write_json(args.out, jsonio.cartan_results_to_obj(factors))
    return EXIT_OK if all(verified for _, _, verified, _ in factors) else EXIT_FAIL


def cmd_witness(args) -> int:
    from . import series  # noqa: F401  (first: see the imports above)
    from . import jsonio
    from .witness import build_witness

    gs, p, lift = jsonio.witness_input_from_obj(_load_json(args.input))
    _write_json(args.out, jsonio.witness_to_obj(build_witness(gs, p, args.precision, lift=lift), gs, p))
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import jsonio
    from .degeneration import certify_lower_bound

    cert = certify_lower_bound(args.n, r=args.r)
    _write_json(args.out, jsonio.certificate_to_obj(cert))
    return EXIT_OK if cert.certified else EXIT_INCONCLUSIVE


def cmd_bounds(args) -> int:
    from . import bounds

    rows = bounds.scan_table(args.d, args.n_max) if args.n_max >= 1 else []
    header = ["n", "d3_lower", "generic_subrank", "dmz_lo", "border_upper", "excess_flag"]
    if args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row[h]) for h in header])
        _write_text(args.out, buf.getvalue())
    else:
        _write_json(args.out, {"kind": "bounds", "d": args.d, "rows": rows})
    return EXIT_OK


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return v


def cmd_verify(args) -> int:
    from . import jsonio

    obj = _load_json(args.input)
    kind = jsonio.document_kind(obj)
    if kind == "degeneration":
        from .degeneration import recheck_certificate

        results = recheck_certificate(jsonio.certificate_from_obj(obj))
    elif kind == "cartan":
        from . import series  # noqa: F401  (first: see the imports above)
        from .loopgroup import recheck_cartan

        results = recheck_cartan(jsonio.cartan_results_from_obj(obj))
    elif kind == "witness":
        from . import series  # noqa: F401  (first: see the imports above)
        from .witness import recheck_witness

        results = recheck_witness(*jsonio.witness_from_obj(obj))
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    ok = True
    for clause, passed, detail in results:
        status = "ok" if passed else "FAILED"
        print(f"{clause}: {status} ({detail})")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_FAIL


def cmd_gen(args) -> int:
    from . import jsonio
    from .fields import PrimeField, QQ, random_prime
    from .instances import random_invertible_laurent_matrix, random_witness_instance

    # the parser refuses --field q with --prime
    if args.prime is not None:
        field = PrimeField(args.prime)
    elif args.field == "fp":
        field = PrimeField(random_prime(62, random.Random(args.seed)))
    else:
        field = QQ
    rng = random.Random(args.seed)
    if args.kind == "witness":
        gs, p = random_witness_instance(field, args.dims, rng)
        out_obj = {
            "kind": "witness-input",
            "g": [jsonio.matrix_to_obj(g) for g in gs],
            "p": jsonio.tensor_to_obj(p),
        }
    else:  # "cim"
        g = random_invertible_laurent_matrix(field, args.size, rng)
        out_obj = jsonio.matrix_to_obj(g)
    _write_json(args.out, out_obj)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error with the bad-input exit code, not argparse's 2."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if getattr(namespace, "field", None) == "q" and getattr(namespace, "prime", None) is not None:
            self.error("argument --prime: not allowed with --field q")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """The argparse type of an integer flag that is at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _dims(text: str) -> tuple:
    """The argparse type of ``--dims``: comma-separated integers, each at least 1."""
    return tuple(_int_at_least(1)(x) for x in text.split(","))


#: the flags more than one subcommand takes
_FLAGS = {
    "--precision": dict(type=_int_at_least(1), default=32, help="truncation order of the decompositions (default 32)"),
    "--out": dict(default=None, help="output path (default: stdout)"),
}


#: ``--seed`` of certify and verify, which draw nothing at random; it stays
#: accepted so that callers passing one still run
_IGNORED_SEED = dict(type=int, default=0, help="accepted and ignored: nothing is drawn at random")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="borderlab",
        description="Exact loop-group decompositions, limit witnesses, and border-subrank certificates",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    p_cim = command("cim", cmd_cim, "decompose a loop-group element", "--precision", "--out")
    p_cim.add_argument("input", help="matrix JSON (or {factors: [...]})")

    p_wit = command("witness", cmd_witness, "build and verify a limit witness", "--precision", "--out")
    p_wit.add_argument("input", help='{"g": [...], "p": ..., "lift": optional "sym3"} file')

    p_cert = command("certify", cmd_certify, "produce a degeneration certificate over Q", "--out")
    p_cert.add_argument("--seed", **_IGNORED_SEED)
    p_cert.add_argument("--n", type=_int_at_least(0), required=True)
    p_cert.add_argument("--r", type=_int_at_least(1), default=None)

    p_bounds = command("bounds", cmd_bounds, "emit the bound table", "--out")
    p_bounds.add_argument("--d", type=_int_at_least(2), default=3)
    p_bounds.add_argument("--n-max", type=_int_at_least(0), required=True)
    p_bounds.add_argument("--format", choices=["json", "csv"], default="json")

    p_verify = command("verify", cmd_verify, "re-derive a stored certificate from scratch")
    p_verify.add_argument("input")
    p_verify.add_argument("--seed", **_IGNORED_SEED)

    p_gen = command("gen", cmd_gen, "generate test instances with known ground truth", "--out")
    p_gen.add_argument("--field", choices=["q", "fp"], default=None, help="coefficient field")
    p_gen.add_argument("--prime", type=int, default=None, help="prime for --field fp (default: a random 62-bit prime)")
    p_gen.add_argument("--seed", type=int, default=0, help="seed for all randomized choices")
    p_gen.add_argument("--kind", choices=["witness", "cim"], required=True)
    p_gen.add_argument("--dims", type=_dims, default="3,3", help="comma-separated factor dimensions (witness)")
    p_gen.add_argument("--size", type=_int_at_least(1), default=3, help="matrix size (cim)")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (EXIT_INPUT)
        return exc.code
    try:
        return args.func(args)
    except (NoLimitError, WitnessVerificationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except PrecisionError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (MemoryError, RecursionError, OverflowError) as exc:  # no verdict was reached
        print(f"inconclusive: {exc!r}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (BorderlabError, ValueError, KeyError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
