"""alexlink benchmark: seeded link records timed through ``alexlink.cli.main``.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, closed loop: each record is one
``cli.main([subcommand, file, ...])`` call on a generated ``.lnk`` file,
started after the previous one returned.  Whole rounds of records (see
``workloads.py``) run until ``--seconds`` of wall time have passed.  Every
record's stdout is checked against a reference computed without the CLI
(``ref.py``).

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
reference machine speed: a fixed pure-Python computation from the
benchmark's own code is timed before the first record and after every
record, and each record's time is multiplied by ``REFERENCE_S`` over the
median of the six reference times nearest to it.  On a shared machine
whose CPU speed drifts by tens of percent within seconds and between
minutes, this keeps runs comparable; the unscaled values are in the
details line.  ``setup_s`` is reported unscaled.

``--trace 1`` runs a fixed number of rounds twice, first untraced and then
with every public function of the layer modules wrapped (``spans.py``),
and prints the per-layer metrics with the tracing overhead.  sympy's cache
is cleared between the two passes so the second does not find the first's
results.

The last stdout line is the JSON result; the line before it gives the
details: error rate, tail percentile and sample count, and the sha256 of
the stdout of the records in the first rounds, a gate for changes that
must not alter output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

import gen  # noqa: E402
import ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 5
DIGEST_ROUNDS = 2
RECORD_CAP_S = 60
# rounds of the traced run per second of --seconds, one for each pass; set
# so that the two passes last about --seconds on a 2-core machine
TRACE_ROUNDS_PER_S = {"split-torsion": 0.15, "nonsplit-obstruct": 0.35,
                      "knot-invariants": 0.35, "split-search": 0.3}
TAIL_GRID = (99.9, 99, 95, 90, 80, 75, 50)
# reference_seconds() on the 2-core x86-64 VM the benchmark was defined
# on, in its fast phases
REFERENCE_S = 0.0053
REFERENCE_BRAID = gen.torus(3, 16)

SETUP_CODE = """\
import io, sys
from alexlink import cli
sys.exit(cli.main(sys.argv[1:], out=io.StringIO(), err=io.StringIO()))
"""


class RecordTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RecordTimeout(f"record exceeded {RECORD_CAP_S} s")


def reference_seconds():
    """Time of a fixed computation, with the GC off so that the size of the
    heap does not enter."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(10):
            ref.burau_alexander(REFERENCE_BRAID)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Record:
    def __init__(self, case, path):
        self.case = case
        self.path = path
        self.seconds = None
        self.status = None
        self.stdout = ""
        self.error = ""


def run_record(cli, workload, rec):
    """Time one ``cli.main`` call; failures are kept on the record."""
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(RECORD_CAP_S)
    t0 = time.perf_counter()
    try:
        rec.status = cli.main(workload.cli_args(rec.path), out=out, err=err)
    except Exception as exc:  # a raising record is a failed record
        rec.status = f"raised {type(exc).__name__}: {exc}"
    finally:
        rec.seconds = time.perf_counter() - t0
        signal.alarm(0)
    rec.stdout = out.getvalue()
    rec.error = err.getvalue()


def write_case(workdir, case):
    path = workdir / f"{case.name}.lnk"
    path.write_text(case.fixture())
    return path.relative_to(ROOT)


def measure_setup(workload, warm_path):
    """Median wall time of fresh interpreters importing the CLI and running
    one warm-up record."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE,
             *workload.cli_args(warm_path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=60, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up launch failed: "
                               + proc.stderr.decode()[-500:])
    return statistics.median(times)


def tail(times, percentile):
    """Nearest-rank percentile value, lowered along TAIL_GRID until at
    least ten samples lie beyond it."""
    xs = sorted(times)
    n = len(xs)
    for p in (q for q in TAIL_GRID if q <= percentile):
        k = max(1, -(-int(p * n) // 100))  # ceil(p * n / 100)
        if n - k >= 10:
            return xs[k - 1], p
    return xs[n // 2], 50


def check_records(records, workload, fixture_conway):
    """Number of records agreeing with their reference; notes on the rest."""
    depth = int(workload.argv[1]) if workload.argv else None
    good, wrong, notes = 0, 0, []
    for rec in records:
        if rec.status != 0:
            notes.append(f"{rec.case.name}: exit {rec.status}: "
                         f"{rec.error.strip()[:200]}")
            continue
        lines = rec.stdout.splitlines()
        problems = ["expected one record"] if len(lines) != 1 else \
            ref.check(rec.case, json.loads(lines[0]),
                      ref.expect(rec.case, fixture_conway), depth)
        if problems:
            wrong += 1
            notes.append(f"{rec.case.name}: wrong: {'; '.join(problems)}")
        else:
            good += 1
    return good, wrong, notes


def conway_route(alexlink, records):
    """One-variable polynomials of the fixtures by the Conway skein."""
    from alexlink.invariants import one_variable_alexander
    out = {}
    for rec in records:
        if rec.case.kind == "fixture":
            d = alexlink.parse_fixture(rec.case.text)
            out[rec.case.name] = ref.parse_poly(
                alexlink.format_poly(one_variable_alexander(d)), 1)
    return out


def digest(records, count):
    h = hashlib.sha256()
    for rec in records[:count]:
        h.update(rec.stdout.encode())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "alexlink" / "cli.py").is_file():
        sys.stderr.write(f"error: no alexlink sources under {SRC}\n")
        return 2
    choices = workloads.all_workloads(SRC / "alexlink" / "fixtures")
    if args.workload not in choices:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(choices)}\n")
        return 2
    workload = choices[args.workload]

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import alexlink
    from alexlink import cli
    if Path(alexlink.__file__).resolve().parent != SRC / "alexlink":
        sys.stderr.write(f"error: imported alexlink from {alexlink.__file__}\n")
        return 2

    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        return bench(args, workload, alexlink, cli, workdir)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def bench(args, workload, alexlink, cli, workdir):
    stream = gen.Stream(args.seed)
    case = workload.warmup(stream)
    warm = Record(case, write_case(workdir, case))

    setup_s = measure_setup(workload, warm.path) if not args.trace else None

    run_record(cli, workload, warm)
    if warm.status != 0:
        raise RuntimeError(f"warm-up record failed: {warm.status} {warm.error}")

    def new_round(index):
        return [Record(c, write_case(workdir, c))
                for c in workload.round(stream, index)]

    records, rounds, digest_count = [], 0, 0
    if args.trace:
        rounds = max(DIGEST_ROUNDS, round(
            args.seconds * TRACE_ROUNDS_PER_S[workload.name]))
        for index in range(rounds):
            records += new_round(index)
            if index == DIGEST_ROUNDS - 1:
                digest_count = len(records)
        for rec in records:
            run_record(cli, workload, rec)
    else:
        reference = [reference_seconds()]
        start = time.perf_counter()
        while rounds < DIGEST_ROUNDS or \
                time.perf_counter() - start < args.seconds:
            batch = new_round(rounds)
            if not batch:
                break
            for rec in batch:
                run_record(cli, workload, rec)
                reference.append(reference_seconds())
            records += batch
            rounds += 1
            if rounds == DIGEST_ROUNDS:
                digest_count = len(records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced_s = sum(r.seconds for r in records)

    identical = True
    if args.trace:
        from sympy.core.cache import clear_cache
        first = [(r.status, r.stdout) for r in records]
        clear_cache()
        tracer = spans.Tracer()
        tracer.install(alexlink)
        try:
            for rec in records:
                run_record(cli, workload, rec)
        finally:
            tracer.restore()
        identical = first == [(r.status, r.stdout) for r in records]

    good, wrong, notes = check_records(records, workload,
                                       conway_route(alexlink, records))
    for note in notes:
        sys.stderr.write(note + "\n")
    attempted = len(records)
    failed = attempted - good
    times = [r.seconds for r in records]
    details = {
        "workload": workload.name, "seed": args.seed, "rounds": rounds,
        "records": attempted, "wrong": wrong,
        "error_rate": failed / attempted,
        "digest_records": digest_count,
        "stdout_sha256": digest(records, digest_count),
    }
    if args.trace:
        traced_s = sum(times)
        layer, absent = tracer.metrics()
        layer["trace.overhead"] = ((traced_s - untraced_s) / untraced_s,
                                   "ratio")
        layer["trace.records"] = (attempted, "count")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        details.update(untraced_s=untraced_s, traced_s=traced_s,
                       absent_spans=absent, traced_output_identical=identical)
    else:
        def timings(times):
            tail_s, pct = tail(times, workload.tail_percentile)
            return pct, {
                "links_per_s": good / sum(times),
                "record_p50_ms": statistics.median(times) * 1000,
                "record_tail_ms": tail_s * 1000,
            }
        # a record's speed: the median of the six reference times nearest
        # to it, which follows the drift and smooths single readings
        scaled_times = [
            t * REFERENCE_S / statistics.median(reference[max(0, i - 2):i + 4])
            for i, t in enumerate(times)]
        pct, raw = timings(times)
        _, scaled = timings(scaled_times)
        details.update(tail_percentile=pct, samples=attempted, unscaled=raw,
                       speed=REFERENCE_S / statistics.median(reference))
        units = {"links_per_s": "1/s", "record_p50_ms": "ms",
                 "record_tail_ms": "ms"}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in scaled.items()}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        metrics["success_rate"] = {"value": good / attempted,
                                   "unit": "ratio"}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": wrong == 0 and identical,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
