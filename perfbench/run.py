"""Benchmark of the borderlab command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload subrank --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's jobs as a user does, one
``python -m borderlab ...`` child at a time (a closed loop with a single
client).  It repeats the whole job list at least twice, and again while
another pass would still end within ``--seconds``, and reports the
end-to-end metrics.  ``--trace 1`` runs the same jobs in this process
through ``borderlab.cli.main``, alternately plain and with spans around the
calls into each module, and reports the per-layer metrics.  Every output is
checked (``checks.py``) and hashed; a wrong exit code, a failed check, a
timeout, a ``MemoryError`` or an output that changes between repetitions of
a job counts as a failed job.

The last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (metadata, every
job with its digest, the negative controls) goes to
``.perfbench_runs/<workload>-seed<seed>-trace<0|1>/result.json`` in the
checkout, and a traced run's spans to ``spans.jsonl`` beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
RUNS = ROOT / ".perfbench_runs"

WORKLOADS = ("subrank", "cim", "witness")
SETUP_REPS = 3  # set-ups per run; setup_s is their median
MIN_PASSES = 2  # every job runs at least twice, so its output is hashed twice
STARTUP_SAMPLES = 5  # ``borderlab --help`` children behind cli.startup_s
JOB_TIMEOUT = 120.0
RUN_BUDGET = 165.0  # seconds; a job that would start later is counted as failed
CONTROL_TIMEOUT = 0.3  # the timeout control kills its job after this long

END_TO_END = {  # name -> unit
    "cpu_s": "s",
    "main_cpu_s": "s",
    "verify_cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
COUNTS = {  # name -> unit; counted by the tracer
    "jsonio.bytes_out": "bytes",
    "degeneration.attempts": "count",
    "degeneration.pyramid_rows": "count",
    "tensors.support_slots": "count",
    "tensors.support_nnz": "count",
    "linalg.sparse_rank_cols": "count",
    "loopgroup.smith_calls": "count",
    "series.mul_calls": "count",
    "series.coeff_mults": "count",
    "series.add_calls": "count",
    "fields.primes_drawn": "count",
    "bounds.dim_bound_calls": "count",
}
RATIOS = ("tensors.support_yield", "linalg.pivot_yield", "trace.overhead")
# the spans that scan dense n^3 tensors on the certify path
DENSE_SCAN_SPANS = ("tensors.limit_at_zero", "tensors.recognize_unit", "jsonio.encode", "degeneration.jacobian_self")


def median(values):
    return statistics.median(values) if values else 0.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class JobTimeout(BaseException):
    """Raised in an in-process job that ran out of time (not an ``Exception``,
    so the program under test cannot catch it)."""


def _raise_timeout(signum, frame):
    raise JobTimeout


class Result:
    """What one execution of a job left behind."""

    def __init__(self, job, pass_no, wall=0.0, rss_mb=0.0, rc=None, data=b"", reason=None, cpu=0.0):
        self.job, self.pass_no = job, pass_no
        self.wall, self.rss_mb, self.rc, self.data, self.reason = wall, rss_mb, rc, data, reason
        self.cpu = cpu
        self.digest = None

    def record(self) -> dict:
        return {
            "job": self.job.name,
            "pass": self.pass_no,
            "wall_s": self.wall,
            "cpu_s": self.cpu,
            "rss_mb": self.rss_mb,
            "rc": self.rc,
            "sha256": self.digest,
            "failure": self.reason,
        }


class Tally:
    """Jobs attempted and failed; a failed job is counted, never dropped."""

    def __init__(self, results=()):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.add(results)

    def add(self, results):
        for res in results:
            self.attempted += 1
            if res.reason is not None:
                self.failed += 1
                self.reasons.append(f"{res.job.name} (pass {res.pass_no}): {res.reason}")


def judge(results, digests: dict) -> None:
    """Check and hash every result; an output that changed is a failure."""
    for res in results:
        res.digest = sha256(res.data)
        if res.reason is None:
            try:
                res.reason = res.job.check(res.rc, res.data)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                res.reason = f"malformed output: {type(exc).__name__}: {exc}"
        first = digests.setdefault(res.job.name, res.digest)
        if res.reason is None and res.digest != first:
            res.reason = "output differs from an earlier repetition of this job"


class Spawner:
    """Runs ``python -m borderlab`` children through ``spawn.py``."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawn.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv, cwd: Path, timeout: float) -> dict:
        """Run one child to completion: ``{"rc", "wall", "cpu", "maxrss_kb", "killed", "stdout", "stderr"}``."""
        out, err = cwd / ".job.stdout", cwd / ".job.stderr"
        request = {
            "argv": [sys.executable, "-m", "borderlab", *argv],
            "cwd": str(cwd),
            "env": self.env,
            "stdout": str(out),
            "stderr": str(err),
            "timeout": timeout,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process died")
        reply = json.loads(line)
        reply["stdout"], reply["stderr"] = out.read_bytes(), err.read_bytes()
        return reply

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """One run of one workload: its directory, deadline and child spawner."""

    def __init__(self, args, cli, spawner: Spawner, start: float):
        self.args, self.cli, self.spawner = args, cli, spawner
        self.deadline = start + RUN_BUDGET
        self.rundir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.rundir, ignore_errors=True)
        self.rundir.mkdir(parents=True)

    # -- running jobs --------------------------------------------------------

    def run_child(self, job, pass_no, workdir: Path, deadline=None) -> Result:
        timeout = min(JOB_TIMEOUT, (self.deadline if deadline is None else deadline) - time.perf_counter())
        if timeout <= 0:
            return Result(job, pass_no, reason="not started: run time budget spent")
        if job.out is not None:
            (workdir / job.out).unlink(missing_ok=True)
        reply = self.spawner.run(job.argv, workdir, timeout)
        res = Result(job, pass_no, reply["wall"], reply["maxrss_kb"] / 1024.0, reply["rc"], cpu=reply["cpu"])
        if reply["killed"]:
            res.reason = f"timeout after {timeout:.2f} s"
        elif b"MemoryError" in reply["stderr"]:
            res.reason = "MemoryError"
        res.data = self._output(job, workdir, reply["stdout"])
        return res

    def run_inprocess(self, job, pass_no, workdir: Path, tracer=None) -> Result:
        timeout = min(JOB_TIMEOUT, self.deadline - time.perf_counter())
        if timeout <= 0:
            return Result(job, pass_no, reason="not started: run time budget spent")
        if job.out is not None:
            (workdir / job.out).unlink(missing_ok=True)
        gc.collect()
        out = io.StringIO()
        rc, reason = None, None
        cwd = os.getcwd()
        os.chdir(workdir)
        if tracer is not None:
            tracer.job = f"{pass_no}:{job.name}"
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(list(job.argv))
        except JobTimeout:
            reason = f"timeout after {timeout:.2f} s"
        except MemoryError:
            reason = "MemoryError"
        except Exception as exc:  # a crash of the program under test fails the job
            reason = f"{type(exc).__name__}: {exc}"
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            os.chdir(cwd)
        res = Result(job, pass_no, wall, 0.0, rc, reason=reason)
        res.data = self._output(job, workdir, out.getvalue().encode("utf-8"))
        return res

    @staticmethod
    def _output(job, workdir: Path, stdout: bytes) -> bytes:
        if job.out is None:
            return stdout
        path = workdir / job.out
        return path.read_bytes() if path.exists() else b""

    # -- set-up ----------------------------------------------------------------

    def set_up(self):
        """Prepare the inputs SETUP_REPS times; the first copy is used.

        Returns the wall and CPU seconds of every set-up, the plan, the
        inputs directory and the input digests.

        One set-up is a ``borderlab --help`` child (so the first timed job
        does not pay for cold caches) and the workload's ``borderlab gen``
        commands, run through ``cli.main`` in this process.  Every
        repetition must give byte-identical inputs.
        """
        inputs = self.rundir / "inputs-0"
        plan = workloads.plan(self.args.workload, self.args.seed, inputs)

        def gen(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv)

        walls, cpus, digests = [], [], None
        for rep in range(SETUP_REPS):
            t0, c0 = time.perf_counter(), time.process_time()
            reply = self.spawner.run(["--help"], self.rundir, JOB_TIMEOUT)
            if reply["rc"] != 0:
                raise RuntimeError(f"borderlab --help exited {reply['rc']}")
            workdir = self.rundir / f"inputs-{rep}"
            workloads.prepare(plan, workdir, DATA, gen)
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0 + reply["cpu"])
            got = {p.name: sha256(p.read_bytes()) for p in sorted(workdir.iterdir())}
            if digests is None:
                digests = got
            elif got != digests:
                raise RuntimeError("set-up gave different inputs for the same seed")
            if rep:
                shutil.rmtree(workdir)
        return {"wall_s": walls, "cpu_s": cpus}, plan, inputs, digests

    # -- negative controls -------------------------------------------------------

    def negative_controls(self, results) -> dict:
        """Corrupt real outputs and show each check rejects them: {control: caught}."""
        last = {res.job.name: res for res in results}
        controls = {}

        def corrupted(name, mutate):
            res = last[name]
            if res.reason is not None:  # no good output to corrupt: not shown
                return False
            obj = json.loads(res.data)
            mutate(obj)
            return res.job.check(0, json.dumps(obj).encode()) is not None

        verify = next((r for r in results if r.job.command == "verify" and r.reason is None), None)
        controls["verify-clause-FAILED"] = verify is not None and (
            verify.job.check(0, verify.data.replace(b": ok (", b": FAILED (", 1)) is not None
        )
        workload = self.args.workload
        if workload == "subrank":

            def off_by_one(cert):
                cert["jacobianRank"] += 1

            controls["certificate-jacobianRank-off-by-one"] = corrupted("certify-196", off_by_one)
            bounds = last["bounds"]
            controls["bounds-359-to-358"] = bounds.reason is None and (
                bounds.job.check(0, bounds.data.replace(b",359,", b",358,")) is not None
            )
        elif workload == "cim":

            def wrong_sum(out):
                out["decomposition"]["weights"][-1] += 1

            first = next(r for r in results if r.job.command == "cim")
            controls["cim-weight-sum-wrong"] = corrupted(first.job.name, wrong_sum)
        elif workload == "witness":

            def not_y3(out):
                out["qTilde"]["entries"][0]["idx"] = [3]

            controls["witness-qTilde-not-y3"] = corrupted("binary_cubics_witness", not_y3)
        # a job killed by its timeout is counted: attempted 1, failed 1
        job = workloads.Job(
            name="timeout-control",
            command="bounds",
            argv=["bounds", "--n-max", "1000", "--out", "control.csv"],
            out="control.csv",
            check=lambda rc, data: None if rc == 0 else f"exit code {rc}",
        )
        res = self.run_child(job, 0, self.rundir, min(self.deadline, time.perf_counter() + CONTROL_TIMEOUT))
        judge([res], {})
        tally = Tally([res])
        controls["timeout-counted"] = (tally.attempted, tally.failed) == (1, 1) and res.reason.startswith("timeout")
        return controls

    # -- the two kinds of run ------------------------------------------------------

    def _done(self, start, rounds, min_rounds, last):
        """Stop once ``min_rounds`` are done and another would end after ``--seconds``."""
        now = time.perf_counter()
        if now + last > self.deadline:
            return True
        return rounds >= min_rounds and now + last - start > self.args.seconds

    def untraced(self):
        setup, plan, inputs, input_digests = self.set_up()
        passes, results, digests = [], [], {}
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            done = [self.run_child(job, len(passes), inputs) for job in plan.jobs]
            wall = time.perf_counter() - t0
            judge(done, digests)
            passes.append(_pass_summary(wall, done))
            results.append(done)
            if self._done(start, len(passes), MIN_PASSES, wall):
                break
        flat = [r for done in results for r in done]
        metrics = {
            "cpu_s": median([p["cpu"] for p in passes]),
            "main_cpu_s": median([p["main_cpu"] for p in passes]),
            "verify_cpu_s": median([p["verify_cpu"] for p in passes]),
            "peak_rss_mb": max(r.rss_mb for r in flat),
            "setup_s": median(setup["cpu_s"]),
        }
        samples = dict.fromkeys(("cpu_s", "main_cpu_s", "verify_cpu_s"), len(passes))
        samples.update(peak_rss_mb=len(flat), setup_s=SETUP_REPS)
        commands = sorted({r.job.command for r in flat})
        per_command = {
            f"{c}_{kind}": median([p["by_command"][c][i] for p in passes])
            for c in commands
            for i, kind in enumerate(("wall_s", "cpu_s"))
        }
        record = {
            "setup": setup,
            "input_sha256": input_digests,
            "passes": passes,
            "per_command_median": per_command,
            "output_sha256": digests,
            "jobs": [r.record() for r in flat],
        }
        lines = [
            f"{name:<14} {metrics[name]:>12.4f} {unit:<3} {'largest' if name == 'peak_rss_mb' else 'median'} of {samples[name]}"
            for name, unit in END_TO_END.items()
        ]
        lines.append(f"  pass wall_s   {median([p['wall'] for p in passes]):>12.4f} s   median over passes")
        lines += [f"  {name:<12} {value:>12.4f} s   median over passes" for name, value in per_command.items()]
        return metrics, samples, Tally(flat), self.negative_controls(results[-1]), record, lines

    def traced(self):
        setup, plan, inputs, input_digests = self.set_up()
        startup = [self.spawner.run(["--help"], self.rundir, JOB_TIMEOUT) for _ in range(STARTUP_SAMPLES)]
        plain, traced, tracers, results, digests = [], [], [], [], {}
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            done = [self.run_inprocess(job, len(results), inputs) for job in plan.jobs]
            judge(done, digests)
            plain.append(sum(r.wall for r in done))
            results.append(done)
            tracer = spans.Tracer()
            tracer.install()
            try:
                done = [self.run_inprocess(job, len(results), inputs, tracer) for job in plan.jobs]
            finally:
                tracer.uninstall()
            judge(done, digests)
            traced.append(sum(r.wall for r in done))
            tracers.append(tracer)
            results.append(done)
            if self._done(start, len(results) // 2, 1, time.perf_counter() - t0):
                break
        flat = [r for done in results for r in done]
        tally = Tally(flat)
        for reply in startup:
            tally.attempted += 1
            if reply["rc"] != 0:
                tally.failed += 1
                tally.reasons.append(f"borderlab --help exited {reply['rc']}")
        per_pass = [layer_metrics(t) for t in tracers]
        metrics = {"cli.startup_s": median([r["wall"] for r in startup])}
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            # counts repeat exactly from pass to pass; keep them whole numbers
            metrics[name] = statistics.median_low(values) if name in COUNTS else median(values)
        metrics["trace.overhead"] = median(traced) / median(plain)
        samples = dict.fromkeys(metrics, len(per_pass))
        samples.update({"cli.startup_s": len(startup), "trace.overhead": len(plain)})
        share = dense_scan_share(tracers[-1])
        with open(self.rundir / "spans.jsonl", "w") as handle:
            offset = 0
            for tracer in tracers:
                offset += tracer.write(handle, offset)
        record = {
            "setup": setup,
            "input_sha256": input_digests,
            "untraced_jobs_s": plain,
            "traced_jobs_s": traced,
            "traced_passes": per_pass,
            "certify_dense_scan_share": share,
            "output_sha256": digests,
            "jobs": [r.record() for r in flat],
        }
        lines = [f"{name:<30} {metrics[name]:>14.6g}  median of {samples[name]}" for name in metrics]
        if share["certify_s"]:
            lines.append(f"certify time in the dense-scan spans: {share['share']:.1%} of {share['certify_s']:.3f} s")
        return metrics, samples, tally, self.negative_controls(results[-1]), record, lines


def _pass_summary(wall, results) -> dict:
    by_command = {}  # subcommand -> [wall, cpu]
    for r in results:
        acc = by_command.setdefault(r.job.command, [0.0, 0.0])
        acc[0] += r.wall
        acc[1] += r.cpu
    return {
        "wall": wall,
        "cpu": sum(r.cpu for r in results),
        "main_cpu": sum(r.cpu for r in results if r.job.produces),
        "verify_cpu": sum(r.cpu for r in results if not r.job.produces),
        "by_command": by_command,
    }


def layer_metrics(tracer) -> dict:
    """The per-layer metrics of one traced pass."""
    totals, counts = tracer.layer_totals(), tracer.counts
    out = {f"{name}_s": totals.get(name, 0.0) for name in spans.SPAN_METRICS}
    out.update({name: counts.get(name, 0) for name in COUNTS})
    slots = counts.get("tensors.support_slots", 0)
    out["tensors.support_yield"] = counts.get("tensors.support_nnz", 0) / slots if slots else 0.0
    cols = counts.get("linalg.sparse_rank_cols", 0)
    out["linalg.pivot_yield"] = counts.get("linalg.sparse_rank_rank", 0) / cols if cols else 0.0
    return out


def dense_scan_share(tracer) -> dict:
    """How much of the certify jobs' time the dense-scan spans account for."""
    selfs = tracer.self_times()
    total = scans = 0.0
    for i, (name, start, end, parent, job, lent) in enumerate(tracer.spans):
        if job is None or ":certify-" not in job:
            continue
        if name == "cli.main":
            total += end - start
        elif name in DENSE_SCAN_SPANS:
            scans += selfs[i]
    return {"certify_s": total, "dense_scan_s": scans, "share": scans / total if total else 0.0}


def layer_units() -> dict:
    units = {"cli.startup_s": "s"}
    units.update({f"{name}_s": "s" for name in spans.SPAN_METRICS})
    units.update(COUNTS)
    units.update(dict.fromkeys(RATIOS, "ratio"))
    return units


def metadata(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "borderlab").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark of the borderlab command line.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    for needed in (SRC / "borderlab" / "cli.py", DATA / "binary_cubics_curve.json", DATA / "binary_cubics_witness.json"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run it in a borderlab checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    import borderlab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "borderlab":
        print(f"perfbench: borderlab was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spawner = Spawner()
    try:
        bench = Bench(args, cli, spawner, start)
        metrics, samples, tally, controls, record, lines = bench.traced() if args.trace else bench.untraced()
    finally:
        spawner.close()
    units = layer_units() if args.trace else END_TO_END
    missed = [name for name, caught in controls.items() if not caught]
    correct = tally.failed == 0 and not missed
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    full = {
        "meta": metadata(args),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": fail_ratio,
        "failures": tally.reasons,
        "negative_controls": controls,
        "metrics": {name: {"value": metrics[name], "unit": units[name], "samples": samples[name]} for name in metrics},
        **record,
        "elapsed_s": time.perf_counter() - start,
    }
    result_path = bench.rundir / "result.json"
    result_path.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    for line in lines:
        print(line)
    print(f"jobs attempted {tally.attempted}, failed {tally.failed}, fail_ratio {fail_ratio:.4f}")
    for reason in tally.reasons[:20]:
        print(f"  FAILED {reason}")
    for name, caught in controls.items():
        print(f"negative control {name}: {'caught' if caught else 'NOT CAUGHT'}")
    print(f"record: {result_path.relative_to(ROOT)}")
    summary = {name: {"value": metrics[name], "unit": units[name]} for name in metrics}
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
