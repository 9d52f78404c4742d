"""negbeta benchmark: one seeded workload per run, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload fixed-deep --seed 1 --seconds 20 --trace 0

One closed-loop client runs the workload's job list in a single process,
one job after another, pass after pass, until ``--seconds`` is used up
(always at least one pass).  Library jobs call ``negbeta`` directly; CLI
jobs call ``negbeta.cli.main(argv)`` in process with their own ``--out``
directory, so interpreter start-up does not swamp the cheap verbs (the
import is timed in ``setup_s``).  Each job's answer is checked outside the
timed region.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracer.py``) together with the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: ``failed``
counts jobs that gave a wrong answer or an undocumented exception, and
``correct`` is false when any returned answer was wrong.  A record of the
run (git sha, Python version, nproc, seed, input digest, job counts, every
metric and the per-function spans) is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS

SUBMODULES = ("errors", "order", "numeric", "language", "graph", "decomposition",
              "measures", "factors", "cli", "oracle")
DOCUMENTED_EXIT_CODES = (2, 3, 4)


def load_negbeta(src: Path):
    """Import negbeta afresh from ``src``: module bodies run again each time."""
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "negbeta" or m.startswith("negbeta.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("negbeta")
    for name in SUBMODULES:
        importlib.import_module(f"negbeta.{name}")
    if Path(package.__file__).resolve().parent != (src / "negbeta").resolve():
        raise ImportError(f"negbeta imported from {package.__file__}, not {src}")
    return package


class Runner:
    """Runs passes over a job list and checks every answer untimed."""

    def __init__(self, nb, jobs, tmp: Path):
        self.nb = nb
        self.jobs = jobs
        self.tmp = tmp
        self.tracer = None
        self.verdicts: dict = {}    # job index -> (answer digest, verdict)
        self.sink = io.StringIO()

    def run_pass(self, traced: bool) -> dict:
        gc.collect()
        stats = {"latencies": [], "attempted": 0, "refused": 0, "failed": 0,
                 "wrong": 0, "failures": []}
        for index, job in enumerate(self.jobs):
            outcome, seconds = self._run_job(index, job, traced)
            stats["latencies"].append(seconds)
            stats["attempted"] += 1
            if outcome == "refused":
                stats["refused"] += 1
            elif outcome != "ok":
                stats["failed"] += 1
                stats["wrong"] += outcome == "wrong"
                stats["failures"].append(f"{job.name}: {outcome}")
        stats["wall_s"] = sum(stats["latencies"])
        return stats

    def _timed(self, call, traced: bool):
        if self.tracer is not None:
            self.tracer.enabled = traced
        error = None
        start = time.perf_counter()
        try:
            answer = call()
        except (Exception, SystemExit) as exc:
            answer, error = None, exc
        seconds = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.enabled = False
        return answer, error, seconds

    def _run_job(self, index: int, job, traced: bool):
        if job.argv is not None:
            return self._run_cli(index, job, traced)
        answer, error, seconds = self._timed(job.run, traced)
        if error is not None:
            if isinstance(error, self.nb.errors.NegBetaError):
                ok = job.refusal_ok is None or self._safe(job.refusal_ok)
                return ("refused" if ok else "wrong"), seconds
            return f"raised {type(error).__name__}", seconds
        return self._verdict(index, repr(answer), lambda: job.check(answer)), seconds

    def _run_cli(self, index: int, job, traced: bool):
        out = self.tmp / f"out{index}"
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            code, error, seconds = self._timed(
                lambda: self.nb.cli.main([*job.argv, "--out", str(out)]), traced)
        self.sink.seek(0)
        self.sink.truncate()
        if isinstance(error, SystemExit):
            code, error = error.code, None
        if error is not None:
            return f"raised {type(error).__name__}", seconds
        if code in DOCUMENTED_EXIT_CODES:
            return "refused", seconds
        if code != 0:
            return f"exit {code}", seconds
        files = _read_files(out)
        if traced:
            self.tracer.counts["cli.bytes_written"] += sum(map(len, files.values()))

        def check():
            # the same command, run again, must write byte-identical files
            shutil.rmtree(out)
            with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
                self.nb.cli.main([*job.argv, "--out", str(out)])
            return _read_files(out) == files and job.check(files)

        digest = repr(sorted((k, hashlib.sha256(v).hexdigest()) for k, v in files.items()))
        return self._verdict(index, digest, check), seconds

    def _verdict(self, index: int, digest_text: str, check) -> str:
        # A full check per job and run; a later pass with the same answer
        # reuses its verdict.
        digest = hashlib.sha256(digest_text.encode()).hexdigest()
        known = self.verdicts.get(index)
        if known is not None and known[0] == digest:
            return known[1]
        verdict = "ok" if self._safe(check) else "wrong"
        self.verdicts[index] = (digest, verdict)
        return verdict

    @staticmethod
    def _safe(check) -> bool:
        try:
            return bool(check())
        except Exception:
            return False


def _read_files(directory: Path) -> dict:
    if not directory.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def best_latencies(passes: list) -> list:
    """Each job's latency as the best over the passes.

    CPU speed on a shared machine drifts for stretches of several seconds;
    the best of several passes spread over the run is far steadier than
    any single pass, as with ``timeit``.
    """
    return [min(times) for times in zip(*(p["latencies"] for p in passes))]


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = root / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_passes(runner: Runner, deadline: float, traced: bool, on_pass=None) -> list:
    passes = []
    while True:
        begin = time.perf_counter()
        passes.append(runner.run_pass(traced))
        if on_pass is not None:
            on_pass()
        now = time.perf_counter()
        if now + (now - begin) > deadline:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    src = root / "src"
    if not (src / "negbeta" / "__init__.py").is_file():
        print(f"error: no negbeta sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    (root / ".bench_tmp").mkdir(exist_ok=True)
    # a fixed-length name: CLI outputs embed their --out path
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_tmp"))
    try:
        return measure(args, root, src, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()


def measure(args, root: Path, src: Path, tmp: Path) -> int:
    setup_times = []

    def set_up():
        begin = time.perf_counter()
        nb = load_negbeta(src)
        workload = WORKLOADS[args.workload](nb, args.seed, tmp)
        setup_times.append(time.perf_counter() - begin)
        return nb, workload

    nb, workload = set_up()
    workload.prepare()
    runner = Runner(nb, workload.jobs, tmp)

    start = time.perf_counter()
    traced_passes, deltas = [], []
    if args.trace:
        plain = run_passes(runner, start + args.seconds / 2, traced=False)
        tracer = runner.tracer = Tracer(nb)
        tracer.install()
        snaps = [tracer.snapshot()]
        try:
            traced_passes = run_passes(runner, start + args.seconds, traced=True,
                                       on_pass=lambda: snaps.append(tracer.snapshot()))
        finally:
            tracer.uninstall()
        deltas = [{k: b.get(k, 0) - a.get(k, 0) for k in b} for a, b in zip(snaps, snaps[1:])]
    else:
        # Set-up is repeated after every pass, so that its samples span the
        # run as the passes do; the jobs keep using the first import.
        plain = run_passes(runner, start + args.seconds, traced=False, on_pass=set_up)

    every = plain + traced_passes
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    refused = sum(p["refused"] for p in every)
    wrong = sum(p["wrong"] for p in every)
    latencies = best_latencies(plain)
    jobs_per_pass = len(workload.jobs)

    if args.trace:
        self_s = {layer: statistics.median(d.get(f"{layer}.self_ns", 0) for d in deltas) / 1e9
                  for layer in LAYERS}
        metrics = layer_metrics(deltas[0], self_s)
        overhead = sum(best_latencies(traced_passes)) / sum(latencies)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        samples = {name: len(traced_passes) for name in metrics}
        samples["trace.overhead_ratio"] = len(plain) + len(traced_passes)
        # counts repeat exactly from one traced pass to the next
        steady = all({k: v for k, v in d.items() if not k.endswith("_ns")}
                     == {k: v for k, v in deltas[0].items() if not k.endswith("_ns")}
                     for d in deltas)
    else:
        failed_ratio = failed / attempted
        refused_ratio = refused / attempted
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (sum(latencies), "s"),
            "job_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
            "job_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": (1 - failed_ratio, "ratio"),
            "answered_ratio": (1 - failed_ratio - refused_ratio, "ratio"),
        }
        samples = {"setup_s": len(setup_times), "wall_s": len(plain),
                   "job_p50_ms": len(latencies), "job_p90_ms": len(latencies),
                   "peak_rss_mb": 1, "ok_ratio": attempted, "answered_ratio": attempted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "input_digest": workload.digest, "jobs_per_pass": jobs_per_pass,
        "passes": len(plain), "traced_passes": len(traced_passes),
        "pass_seconds": [p["wall_s"] for p in every],
        "setup_seconds": setup_times,
        "attempted": attempted, "failed": failed, "refused": refused, "wrong": wrong,
        "failed_ratio": failed / attempted, "refused_ratio": refused / attempted,
        "failures": sorted(set(f for p in every for f in p["failures"])),
        "metrics": {name: {"value": v, "unit": u, "samples": samples[name]}
                    for name, (v, u) in metrics.items()},
    }
    if args.trace:
        record["counts_repeat_across_passes"] = steady
        record["spans"] = tracer.per_function()
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  inputs {workload.digest}  "
          f"jobs/pass {jobs_per_pass}  passes {len(plain)}+{len(traced_passes)} traced  "
          f"git {record['git_sha'][:12]}  python {record['python']}  nproc {record['nproc']}")
    if not args.trace:
        print(f"  {'failed_ratio':32s} {record['failed_ratio']:<14.6g} ratio  (n={attempted})")
        print(f"  {'refused_ratio':32s} {record['refused_ratio']:<14.6g} ratio  (n={attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:<14.6g} {unit:6s} (n={samples[name]})")
    for failure in record["failures"]:
        print(f"  failed job: {failure}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": v, "unit": u}
                                  for name, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
