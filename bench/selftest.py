"""Tests of the benchmark harness itself.

Run from the repository root (the file name keeps it out of the library's
own test collection):

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

DETERMINISTIC = ("language.words_out", "graph.vertices_built", "graph.edges_built",
                 "language.block_checks")


@pytest.fixture(scope="module")
def nb():
    return bench.load_negbeta(ROOT / "src")


_dirs = itertools.count()


@pytest.fixture
def tmp_dir():
    # scratch files stay inside the checkout, as in a benchmark run
    path = ROOT / ".bench_tmp" / f"selftest-{os.getpid()}-{next(_dirs)}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


def _cheap(workload) -> list:
    # a quick slice of each job kind, so the traced passes stay short
    keep = ("build_graph/golden/K=1000", "gap_scan/", "glue/", "count_words/golden/n=6",
            "count_words/figure/n=5", "per_points/golden/n=5", "per_points/beta2/n=4",
            "mu_n/golden/n=8", "shortest_path_to_v0/branchy/", "cli/expand --beta golden",
            "from_beta/", "is_admissible/", "periodic_block_ok/")
    return [job for job in workload.jobs if job.name.startswith(keep)]


def _traced_counts(nb, name: str, seed: int, tmp: Path) -> tuple[str, dict]:
    tmp.mkdir()
    workload = WORKLOADS[name](nb, seed, tmp)
    workload.prepare()
    runner = bench.Runner(nb, _cheap(workload), tmp)
    tracer = runner.tracer = Tracer(nb)
    tracer.install()
    try:
        stats = runner.run_pass(traced=True)
    finally:
        tracer.uninstall()
    assert stats["failed"] == 0, stats["failures"]
    counts = {k: v for k, v in tracer.snapshot().items() if not k.endswith("_ns")}
    return workload.digest, counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_counts(nb, name, tmp_dir):
    digest1, counts1 = _traced_counts(nb, name, 3, tmp_dir / "a")
    digest2, counts2 = _traced_counts(nb, name, 3, tmp_dir / "b")
    assert digest1 == digest2
    assert counts1 == counts2
    assert any(k.endswith(".calls") and v > 0 for k, v in counts1.items())
    if name != "many-bases":
        assert any(counts1.get(k) for k in DETERMINISTIC)
    (tmp_dir / "c").mkdir()
    assert WORKLOADS[name](nb, 4, tmp_dir / "c").digest != digest1


def _first(workload, prefix: str) -> Job:
    return next(job for job in workload.jobs if job.name.startswith(prefix))


def test_injected_wrong_answer_is_counted_as_failed(nb, tmp_dir):
    workload = WORKLOADS["many-bases"](nb, 3, tmp_dir)
    honest = _first(workload, "golden_test/")
    expand = _first(workload, "cli/expand")
    real = honest.run()
    flipped = "below" if real == "at_or_above" else "at_or_above"
    wrong = Job(honest.name, honest.check, lambda: flipped)
    runner = bench.Runner(nb, [honest, wrong, expand], tmp_dir)
    stats = runner.run_pass(traced=False)
    assert (stats["attempted"], stats["failed"], stats["wrong"], stats["refused"]) == (3, 1, 1, 0)
    assert stats["failed"] / stats["attempted"] == pytest.approx(1 / 3)


def test_refusals_and_undocumented_exceptions(nb, tmp_dir):
    def refuse():
        raise nb.errors.TruncationInsufficient("slice too short")

    def crash():
        raise RecursionError("deep")

    jobs = [Job("refuse", lambda got: True, refuse),
            Job("refuse-wrongly", lambda got: True, refuse, refusal_ok=lambda: False),
            Job("crash", lambda got: True, crash),
            Job("cli-invalid", lambda files: True, argv=["expand", "--beta", "abc"])]
    stats = bench.Runner(nb, jobs, tmp_dir).run_pass(traced=False)
    assert (stats["refused"], stats["failed"], stats["wrong"]) == (2, 2, 1)


def test_refuses_to_run_without_sources(tmp_dir):
    # a directory holding only the benchmark's own files
    shutil.copytree(BENCH, tmp_dir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_dir)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "many-bases",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_dir, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
