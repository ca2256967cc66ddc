"""Smoke test of the benchmark itself, at a tiny size.

Run with ``python3 -m pytest -q perfbench/test_smoke.py`` from the root of a
checkout.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import laminar_secretary  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.02


def _bindings():
    """Every module-level binding of the package, plus the class dict of
    LaminarInstance, by identity."""
    out = {}
    for mod in tracing.package_modules(laminar_secretary):
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
    for attr, obj in vars(laminar_secretary.model.LaminarInstance).items():
        out[("LaminarInstance", attr)] = obj
    return out


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    before = _bindings()
    out = {}
    for name in run.WORKLOADS:
        for trace in (False, True):
            kept = []
            res = run.run_workload(name, 3, 0.0, trace, scale=TINY, min_passes=1,
                                   workdir=tmp_path_factory.mktemp(name), keep_tracer=kept)
            out[name, trace] = (res, kept[0] if kept else None)
    return before, out


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_with_its_unit(results, name, trace):
    res = results[1][name, trace][0]["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] >= 0
        if not trace:
            assert got["value"] > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_outputs_match_untraced(results, name):
    plain = results[1][name, False][0]["info"]["fingerprint"]
    traced = results[1][name, True][0]["info"]["fingerprint"]
    assert plain == traced


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_spans_nest_and_self_times_are_non_negative(results, name):
    tr = results[1][name, True][1]
    assert len(tr) > 0
    assert min(tr.self_times()) >= 0
    tops = {tr.name_id("cli.main"), tr.name_id("bench.library")}
    for i in range(len(tr)):
        assert tr.start[i] <= tr.end[i]
        p = tr.parent[i]
        if p < 0:
            assert tr.name[i] in tops and tr.root[i] == i
        else:
            assert p < i and tr.root[i] == tr.root[p]
            assert tr.start[p] <= tr.start[i] and tr.end[i] <= tr.end[p]


def test_wrapped_bindings_are_restored(results):
    before, _ = results
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_install_wraps_every_importing_module():
    tr = tracing.Tracer(laminar_secretary)
    tr.install()
    try:
        from laminar_secretary import cli, experiments, kicknext, matroid, model, theory
        for mod in (experiments, theory, cli):
            assert mod.greedy_opt.__wrapped__ is matroid.greedy_opt.__wrapped__
        assert kicknext._greedy_ranks.__wrapped__ is matroid._greedy_ranks.__wrapped__
        assert hasattr(model.LaminarInstance.__dict__["element"], "__wrapped__")
        assert experiments.random.Random.__wrapped__ is __import__("random").Random
    finally:
        tr.restore()
    assert not tr.patched()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
