"""The benchmark's tracer (``perfbench/tracer.py``, imported here, never
changed) sees each CLI call load its instance once and build its rank
tables once.  It wraps ``load_instance`` and ``_Pre`` where the package looks
them up, so both must stay plain module-level calls.  It wraps
``exact_expectation`` at every module that binds ``experiments``' binding,
so each exact expectation a CLI call prints records one span of the name
the benchmark reads, whichever module defines the function."""

import importlib.util
from pathlib import Path

import pytest

import laminar_secretary
from laminar_secretary import GenSpec, dump_instance, generate
from laminar_secretary.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", [["opt"], ["montecarlo", "--trials", "50"]])
def test_one_load_and_one_pre_span_per_call(tmp_path, command):
    path = tmp_path / "partition.json"
    path.write_text(dump_instance(generate(GenSpec("partition", 40, 3, parts=4))))
    tracer = _tracing().Tracer(laminar_secretary)
    tracer.install()
    try:
        for _ in range(3):
            assert main([command[0], str(path), *command[1:]]) == 0
    finally:
        tracer.restore()
    assert not tracer.patched()
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("model.load") == 3
    assert names.count("model.pre") == 3


@pytest.mark.parametrize("command,spans", [(["exact"], 1), (["verify", "--trials", "50"], 2)])
def test_exact_expectation_spans_per_call(tmp_path, capsys, command, spans):
    # ``exact`` enumerates once; ``verify`` on n <= 8 prints the exact ratio
    # padded and unpadded, so it enumerates twice
    path = tmp_path / "tree.json"
    path.write_text(dump_instance(generate(GenSpec("random_tree", 7, 3))))
    tracer = _tracing().Tracer(laminar_secretary)
    tracer.install()
    try:
        assert main([command[0], str(path), *command[1:]]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("experiments.exact_expectation") == spans


def test_one_walk_span_per_trial(tmp_path, capsys):
    # above ``SMALL_N`` each Monte Carlo trial walks its reference sets once,
    # through ``experiments``' binding of ``kicknext._run_weight``, which the
    # tracer wraps; the sets are bits, so no trial builds a list
    path = tmp_path / "partition.json"
    path.write_text(dump_instance(generate(GenSpec("partition", 40, 3, parts=4))))
    tracer = _tracing().Tracer(laminar_secretary)
    tracer.install()
    try:
        assert main(["montecarlo", str(path), "--trials", "50"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("kicknext.walk") == 50
    assert names.count("kicknext.refs") == 0
