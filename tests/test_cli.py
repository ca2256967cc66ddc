import importlib.util
import json
import subprocess
import sys
import tracemalloc
from itertools import starmap
from pathlib import Path

import pytest

import laminar_secretary.cli as cli
import laminar_secretary.exact as exact
import laminar_secretary.experiments as experiments
import laminar_secretary.generators as generators
import laminar_secretary.matroid as matroid
import laminar_secretary.model as model
from laminar_secretary import (GenSpec, dump_instance, exact_ratio, generate, greedy_opt,
                               load_instance)
from laminar_secretary.cli import main
from laminar_secretary.kicknext import _block_size, _order

from helpers import FOUR_ELEMENT_TEXT, corrupt_four_element


@pytest.fixture
def four_file(tmp_path):
    path = tmp_path / "four.json"
    path.write_text(FOUR_ELEMENT_TEXT)
    return str(path)


def test_theory_single_point(capsys):
    assert main(["theory", "--p", "0.08"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "p,alpha,c,ratio_lower_bound"
    p, alpha, c, ratio = out[1].split(",")
    assert float(p) == 0.08
    assert float(c) == pytest.approx(0.2944, rel=1e-12)
    assert float(ratio) == pytest.approx(0.05357614805500742, rel=1e-12)


def test_theory_sweep_to_csv(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    assert main(["theory", "--p-min", "0.05", "--p-max", "0.1",
                 "--step", "0.01", "--csv", str(csv)]) == 0
    body = csv.read_text().strip().splitlines()
    assert len(body) == 1 + 6
    assert capsys.readouterr().out.strip().splitlines() == body


def test_theory_default_step(capsys):
    assert main(["theory", "--p-min", "0.05", "--p-max", "0.07"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == pytest.approx([0.05, 0.06, 0.07])


def test_theory_one_point_sweep_is_one_row(capsys):
    # the end's slack stays below a quarter step, so no point but 0.1 fits
    assert main(["theory", "--p-min", "0.1", "--p-max", "0.1", "--step", "1e-13"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0.1"]


def test_theory_domain_error(capsys):
    assert main(["theory", "--p", "0.6"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    ["--p-min", "0.1", "--p-max", "0.05"],
    ["--p-min", "0.4", "--p-max", "0.6", "--step", "0.05"],
    ["--p-min", "0.05", "--p-max", "0.06", "--step", "nan"],
    ["--p-min", "0.05", "--p-max", "0.06", "--step", "inf"],
    ["--p-max", "0.3"],
    ["--step", "0.02"],
    ["--p", "0.1", "--p-min", "0.2", "--p-max", "0.3", "--step", "0"],
    ["--p", "0.1", "--step", "0.01"],
    ["--p", "0.1", "--p-max", "0.3"],
], ids=["p_max_below_p_min", "past_one_half", "nan_step", "inf_step",
        "p_max_without_p_min", "step_without_p_min", "p_with_grid", "p_with_step",
        "p_with_p_max"])
def test_theory_grid_errors_exit_2(capsys, grid):
    # only inputs that end at once even without the checks; a zero, negative
    # or tiny step would loop or grow without them, so test_theory.py checks
    # those on ``p_grid`` directly
    assert main(["theory", *grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_theory_sweep_script_rejects_bad_step():
    script = Path(__file__).resolve().parents[1] / "scripts" / "theory_sweep.py"
    res = subprocess.run([sys.executable, str(script), "--step", "nan"],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    assert res.stdout == "" and "error:" in res.stderr


def test_theory_sweep_script_cannot_write_exit_2(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "theory_sweep.py"
    out = tmp_path / "missing" / "x.csv"
    res = subprocess.run([sys.executable, str(script), "--csv", str(out)],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    assert res.stdout == "" and res.stderr.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("flags", [["--p", "0"], ["--p", "1"], ["--p", "nan"], ["--trials", "0"]])
def test_ratio_experiment_script_rejects_bad_flags(flags):
    script = Path(__file__).resolve().parents[1] / "scripts" / "ratio_experiment.py"
    res = subprocess.run([sys.executable, str(script), *flags],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    assert res.stdout == "" and "error:" in res.stderr


@pytest.mark.parametrize("flags,message", [
    (["--seed", "-1"], "seed must be in"),
    (["--seed", "18446744073709551616"], "seed must be in"),
    (["--p", "1e-320"], "longest trial gap"),
])
def test_ratio_experiment_script_rejects_bad_run_before_output(flags, message):
    script = Path(__file__).resolve().parents[1] / "scripts" / "ratio_experiment.py"
    res = subprocess.run([sys.executable, str(script), *flags],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    assert res.stdout == "" and res.stderr.startswith("error: ") and message in res.stderr


@pytest.mark.parametrize("flags,message", [
    (["--n", "17"], "n must be in 1..16"),
    (["--n", "0"], "n must be in 1..16"),
    (["--rounds", "0"], "rounds must be in 1..1000"),
    (["--rounds", "1001"], "rounds must be in 1..1000"),
    (["--p", "0"], "p must be"),
    (["--p", "nan"], "p must be"),
])
def test_exact_layers_script_rejects_bad_flags_before_work(flags, message):
    script = Path(__file__).resolve().parents[1] / "scripts" / "exact_layers.py"
    res = subprocess.run([sys.executable, str(script), *flags],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    assert res.stdout == "" and res.stderr.startswith("error: ") and message in res.stderr


def test_exact_layers_script_reports_the_exact_expectation():
    script = Path(__file__).resolve().parents[1] / "scripts" / "exact_layers.py"
    res = subprocess.run([sys.executable, str(script), "--family", "chain", "--n", "6",
                          "--seed", "3", "--rounds", "2"],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0 and res.stderr == ""
    expected, _ = exact.exact_expectation(generate(GenSpec("chain", 6, 3)), 0.08)
    lines = res.stdout.splitlines()
    assert lines[1].startswith(f"expected weight {expected!r}, memo states ")
    assert [line.split()[0] for line in lines[3:]] == ["starts", "recursion"]


@pytest.mark.parametrize("flags,message", [
    # trials x n alone passes the limit: refused before the instance is built
    (["--n", "1000000", "--trials", "10000000"], "got 10000000 x 1000000"),
    (["--n", "2000", "--trials", "501"], "got 501 x 2000"),
    # 5000 parts: 100 elements, 5001 nodes and 199 slots a trial
    (["--family", "partition", "--n", "100", "--parts", "5000", "--trials", "200"],
     "got 200 x 5300"),
])
def test_trial_layers_script_refuses_a_round_it_cannot_hold(flags, message):
    script = Path(__file__).resolve().parents[1] / "scripts" / "trial_layers.py"
    res = subprocess.run([sys.executable, str(script), *flags],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    assert res.stdout == "" and res.stderr.startswith("error: a round holds ")
    assert "limited to 1000000" in res.stderr and message in res.stderr


def test_trial_layers_script_times_every_layer():
    script = Path(__file__).resolve().parents[1] / "scripts" / "trial_layers.py"
    res = subprocess.run([sys.executable, str(script), "--family", "chain", "--n", "30",
                          "--trials", "5", "--rounds", "1"],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0 and res.stderr == ""
    lines = res.stdout.splitlines()
    assert lines[0].startswith("chain-n30-s3: ")
    assert [line.split()[0] for line in lines[3:]] == ["draw", "fields", "live", "walk",
                                                      "dominance", "failures"]


def test_gen_opt_run_pipeline(tmp_path, capsys):
    out = tmp_path / "u.json"
    assert main(["gen", "--family", "uniform", "--n", "5", "--k", "2",
                 "--seed", "1", "-o", str(out)]) == 0
    inst = load_instance(out.read_text())
    assert inst.n == 5 and inst.nodes[0].capacity == 2
    capsys.readouterr()

    assert main(["opt", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "optimum has 2 elements" in lines[0]
    assert len(lines) == 3  # header plus the two chosen elements

    assert main(["run", str(out), "--p", "0.3", "--seed", "9"]) == 0
    text = capsys.readouterr().out
    assert "selected" in text


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--family", "random_tree", "--n", "10", "--seed", "5"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_trace_csv(four_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["run", four_file, "--p", "0.4", "--seed", "3",
                 "--trace", "-o", str(trace)]) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "step,element_id,node_id,action,evicted_id,evicted_virtual"
    for line in lines[1:]:
        step, eid, nid, action, evicted, virtual = line.split(",")
        assert action in ("accept", "break")
        assert virtual in ("0", "1")
    capsys.readouterr()


def test_run_output_needs_trace(four_file, tmp_path, capsys):
    # without --trace nothing would go to the file
    out = tmp_path / "trace.csv"
    assert main(["run", four_file, "--seed", "3", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: -o/--output needs --trace\n"
    assert not out.exists()


@pytest.mark.parametrize("exponent", ["0", "-1", "nan", "inf"])
def test_gen_bad_power_exponent_exit_2(tmp_path, capsys, exponent):
    out = tmp_path / "g.json"
    assert main(["gen", "--family", "uniform", "--n", "4", "--seed", "1", "--weights",
                 "power_law", f"--power-exponent={exponent}", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "power exponent must be positive and finite" in captured.err
    assert not out.exists()


def test_montecarlo_csv_byte_identical(four_file, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["montecarlo", four_file, "--p", "0.08", "--trials", "2000", "--seed", "3"]
    assert main(argv + ["--csv", str(a)]) == 0
    assert main(argv + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("check_name,instance,p,value")
    capsys.readouterr()


def test_summary_names_the_trial_stream(four_file, capsys):
    assert experiments.RNG_VERSION == 3
    assert main(["montecarlo", four_file, "--trials", "50", "--seed", "3"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.endswith(f"seed=3  rng={experiments.RNG_VERSION}")


def test_readme_names_the_trial_stream():
    # the README's seeding section states the stream that summaries print
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"rng={experiments.RNG_VERSION}" in readme


def test_run_rejects_seed_outside_64_bits(four_file, capsys):
    assert main(["run", four_file, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seed must be in" in captured.err


def test_montecarlo_jobs_flag_preserves_output(four_file, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["montecarlo", four_file, "--p", "0.08", "--trials", "500", "--seed", "1"]
    assert main(base + ["--csv", str(a)]) == 0
    assert main(base + ["--jobs", "2", "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_montecarlo_jobs_below_one_exit_2(four_file, capsys, jobs):
    assert main(["montecarlo", four_file, "--trials", "20", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "jobs must be at least 1" in captured.err


def test_exact_matches_library(four_file, capsys):
    assert main(["exact", four_file, "--p", "0.08"]) == 0
    out = capsys.readouterr().out
    printed = float(out.strip().splitlines()[-1].split()[-1])
    inst = load_instance(FOUR_ELEMENT_TEXT)
    assert printed == pytest.approx(exact_ratio(inst, 0.08), rel=1e-12)


def test_verify_passes(four_file, capsys):
    assert main(["verify", four_file, "--p", "0.08", "--trials", "500"]) == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    assert "lemma g-chain-decay: pass" in out


def test_verify_refuses_p_at_or_above_half_before_any_trial(four_file, capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(experiments, "_draws", no_draw)
    assert main(["verify", four_file, "--p", "0.6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p must be in (0, 1/2), got 0.6\n"


def test_verify_draws_each_trial_once(tmp_path, capsys, monkeypatch):
    inst = generate(GenSpec("random_tree", 60, 3))
    path = tmp_path / "tree.json"
    path.write_text(dump_instance(inst))
    trials, seed = 150, 1
    # a trial rebuilds, on bits, exactly the nodes whose OPT (the whole
    # set's optimum there) holds one of its arrivals; a trial with none
    # keeps every field OPT's
    opt = matroid._global_optima(inst.pre())
    orders = list(starmap(_order, experiments._arrival_draws(inst.pre(), 0.08, seed, 0, trials)))
    rebuilds = [{b for b, O in enumerate(opt) if any(r in O for r in order)} for order in orders]
    assert 0 < len([nodes for nodes in rebuilds if nodes]) < trials
    seeds, builds, fields = [], [], []
    derive, greedy = experiments.derive_seed, matroid._greedy_ranks
    ref_fields = experiments._ref_fields

    def counted_seed(master_seed, index):
        seeds.append(index)
        return derive(master_seed, index)

    def counted_greedy(pre, in_v, *rest):
        builds.append((all(in_v), set(rest[0]) if rest else None))
        return greedy(pre, in_v, *rest)

    def counted_fields(pre, arrivals, padding):
        got = ref_fields(pre, arrivals, padding)
        changed = {b for b, (F, O) in enumerate(zip(got, pre.opt_fields[padding])) if F != O}
        fields.append((list(arrivals), padding, changed))
        return got

    monkeypatch.setattr(experiments, "derive_seed", counted_seed)
    monkeypatch.setattr(matroid, "_greedy_ranks", counted_greedy)
    monkeypatch.setattr(experiments, "_ref_fields", counted_fields)
    assert main(["verify", str(path), "--trials", str(trials), "--seed", str(seed)]) == 0
    assert "verify: PASS" in capsys.readouterr().out
    # one stream per block of 64 trials, each seeded once
    assert _block_size(60, 0.08) == 64
    assert seeds == [0, 1, 2]
    # one padded build per trial, on bits, each changing exactly the nodes
    # to rebuild; the one list build is the whole set's optima, from
    # all-True flags and of every node
    assert fields == [(order, True, nodes) for order, nodes in zip(orders, rebuilds)]
    assert builds == [(True, None)]


@pytest.mark.parametrize("command", ["montecarlo", "verify"])
def test_trial_count_above_the_limit_is_refused(four_file, capsys, monkeypatch, command):
    def no_draw(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(experiments, "_draws", no_draw)
    for trials in (experiments.MAX_TRIALS + 1, 10 ** 10):
        assert main([command, four_file, "--trials", str(trials)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: trials limited to 10000000, got {trials}\n"


def test_verify_skips_out_of_hypothesis_lemmas(four_file, capsys):
    assert main(["verify", four_file, "--p", "0.2", "--trials", "200"]) == 0
    out = capsys.readouterr().out
    assert "hypothesis not met" in out


def test_usage_errors(tmp_path, capsys):
    assert main(["frobnicate"]) == 2
    assert main(["opt", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["opt", str(bad)]) == 2
    assert main(["gen", "--family", "uniform", "--n", "3", "--k", "9",
                 "--seed", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field,value", [
    ("weight", float("inf")),
    ("weight", float("nan")),
    ("weight", True),
    ("capacity", True),
    ("capacity", 2.7),
])
def test_bad_numbers_exit_2(tmp_path, capsys, field, value):
    bad = tmp_path / "bad.json"
    bad.write_text(corrupt_four_element(field, value))
    assert main(["opt", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", [[1, 2], None, 7])
def test_non_string_name_exit_2(tmp_path, capsys, name):
    doc = json.loads(FOUR_ELEMENT_TEXT)
    doc["name"] = name
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["opt", str(bad)]) == 2
    assert "name must be a string" in capsys.readouterr().err


def test_exact_enumerates_once(four_file, capsys, monkeypatch):
    calls = []
    real = experiments.exact_expectation

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # both bindings, so that a call through ``exact_ratio`` is counted too
    monkeypatch.setattr(cli, "exact_expectation", counted)
    monkeypatch.setattr(experiments, "exact_expectation", counted)
    assert main(["exact", four_file, "--p", "0.08"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_exact_ratio_is_printed_weight_over_optimum(four_file, capsys):
    assert main(["exact", four_file, "--p", "0.2", "--no-padding"]) == 0
    weight_line, ratio_line = capsys.readouterr().out.strip().splitlines()
    expected = float(weight_line.split()[3])
    ratio = float(ratio_line.split()[-1])
    w_opt = greedy_opt(load_instance(FOUR_ELEMENT_TEXT), None, 0).weight
    assert ratio == expected / w_opt


def _one_node_file(tmp_path, capacity):
    """One node of the given capacity over six elements."""
    path = tmp_path / f"cap{capacity}.json"
    path.write_text(json.dumps({
        "name": "huge", "elements": [{"id": i, "weight": 1.0 + i} for i in range(6)],
        "nodes": [{"id": 0, "capacity": capacity, "parent": None}],
        "membership": {str(i): 0 for i in range(6)}}))
    return str(path)


@pytest.mark.parametrize("padding", [[], ["--no-padding"]])
def test_exact_at_a_huge_capacity(tmp_path, capsys, padding):
    # one node of capacity 10^9 over six elements: no list of capacity length
    path = _one_node_file(tmp_path, 10 ** 9)
    assert main(["exact", path, "--p", "0.2", *padding]) == 0
    assert capsys.readouterr().out.startswith("exact expected weight")


@pytest.mark.parametrize("command", [
    ["montecarlo", "--trials", "300"],
    ["montecarlo", "--trials", "300", "--no-padding"],
    ["verify", "--trials", "300"],
    ["run", "--seed", "3"],
    ["run", "--seed", "3", "--no-padding"],
    ["run", "--seed", "3", "--trace"],
    ["exact"],
], ids=" ".join)
def test_capacity_does_not_drive_the_cost(tmp_path, capsys, command):
    # a padded list holds the slots a walk can reach, at most the six
    # elements, so capacity 10^9 peaks as capacity 6 does; a list padded to
    # capacity would need tens of GiB
    def peak(capacity):
        tracemalloc.start()
        try:
            code = main([command[0], _one_node_file(tmp_path, capacity), "--p", "0.2",
                         *command[1:]])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak(6)  # first-call allocations stay out of the comparison
    code, small = peak(6)
    assert code == 0
    code, huge = peak(10 ** 9)
    assert code == 0
    assert huge <= small + small // 4


def test_exact_size_guard_exit_2(tmp_path, capsys):
    path = tmp_path / "nine.json"
    assert main(["gen", "--family", "random_tree", "--n", "9", "--seed", "1",
                 "-o", str(path)]) == 0
    assert main(["exact", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "limited to 8" in captured.err


@pytest.mark.parametrize("command", ["montecarlo", "verify"])
@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_master_seed_outside_64_bits_exit_2(four_file, capsys, command, seed):
    assert main([command, four_file, "--trials", "20", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seed must be in" in captured.err


@pytest.mark.parametrize("flag", ["--n", "--parts", "--depth"])
def test_gen_size_above_the_limit_exit_2(monkeypatch, capsys, flag):
    monkeypatch.setattr(generators, "MAX_GEN_SIZE", 10)
    family = {"--n": "uniform", "--parts": "partition", "--depth": "chain"}[flag]
    argv = ["gen", "--family", family, "--n", "4", "--seed", "1"]
    assert main(argv + [flag, "10"]) == 0
    capsys.readouterr()
    assert main(argv + [flag, "11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "10" in captured.err and "11" in captured.err


def test_gen_negative_seed_exit_2(capsys):
    assert main(["gen", "--family", "uniform", "--n", "4", "--seed", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seed must be non-negative" in captured.err


# each shape flag of ``gen``, its family, and a value of it that differs
# from the ``GenSpec`` default
SHAPE_FLAGS = [("--k", "uniform", "rank", 2), ("--parts", "partition", "parts", 4),
               ("--part-capacity", "partition", "part_capacity", 2),
               ("--depth", "chain", "depth", 2),
               ("--max-branching", "random_tree", "max_branching", 1)]


@pytest.mark.parametrize("flag,family", [
    (flag, family) for flag, own, _, _ in SHAPE_FLAGS
    for family in ("uniform", "partition", "chain", "random_tree") if family != own
])
@pytest.mark.parametrize("value", ["0", "2"])
def test_gen_refuses_a_flag_its_family_never_reads(tmp_path, capsys, flag, family, value):
    argv = ["gen", "--family", family, "--n", "5", "--seed", "1", flag, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} does not apply to the {family} family\n"
    out = tmp_path / "x.json"
    assert main(argv + ["-o", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag,family,field,value", SHAPE_FLAGS)
def test_gen_reads_each_flag_on_its_family(tmp_path, capsys, flag, family, field, value):
    # seed 5: the value changes the instance on every family
    argv = ["gen", "--family", family, "--n", "6", "--seed", "5"]
    assert main(argv + [flag, str(value)]) == 0
    given = capsys.readouterr().out
    assert given == dump_instance(generate(GenSpec(family, 6, 5, **{field: value}))) + "\n"
    assert main(argv) == 0
    absent = capsys.readouterr().out
    assert absent == dump_instance(generate(GenSpec(family, 6, 5))) + "\n"
    assert given != absent
    # the default, given, writes what no flag writes
    default = getattr(GenSpec(family, 6, 5), field)
    if default is not None:
        assert main(argv + [flag, str(default)]) == 0
        assert capsys.readouterr().out == absent


def test_trial_layers_script_refuses_parts_off_the_partition_family():
    script = Path(__file__).resolve().parents[1] / "scripts" / "trial_layers.py"
    res = subprocess.run([sys.executable, str(script), "--family", "chain", "--n", "30",
                          "--parts", "7", "--trials", "5", "--rounds", "1"],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "error: --parts does not apply to the chain family\n"


@pytest.mark.parametrize("command", [["run", "--seed", "1"], ["montecarlo", "--trials", "20"]])
def test_p_too_small_for_a_trial_gap_exit_2(four_file, capsys, command):
    assert main([command[0], four_file, "--p", "1e-310", *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "longest trial gap" in captured.err


def test_tiny_p_theory_and_montecarlo(four_file, capsys):
    assert main(["theory", "--p", "1e-200"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(row[1]) == 0.25 and float(row[3]) == pytest.approx(1e-200, rel=1e-12)
    assert main(["montecarlo", four_file, "--p", "1e-300", "--trials", "20"]) == 0
    assert "ratio estimate 0.000000" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["montecarlo", "FILE", "--trials", "20", "--csv"],
    ["theory", "--csv"],
    ["gen", "--family", "uniform", "--n", "4", "--seed", "1", "-o"],
    ["run", "FILE", "--seed", "1", "--trace", "-o"],
], ids=["montecarlo", "theory", "gen", "run"])
def test_failed_output_write_exit_2(four_file, tmp_path, capsys, command):
    # the output's directory does not exist, so the write fails
    out = tmp_path / "missing" / "out.csv"
    argv = [four_file if x == "FILE" else x for x in command] + [str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert not out.parent.exists()


def test_deep_chain_with_ids_rising_to_the_root(tmp_path, capsys):
    # node j's parent is j + 1, so resolving a chain from node 0 goes 1499 deep
    n = 1500
    doc = {"name": "deep", "elements": [{"id": i, "weight": float(i + 1)} for i in range(5)],
           "nodes": [{"id": j, "capacity": j + 1, "parent": j + 1 if j < n - 1 else None}
                     for j in range(n)],
           "membership": {str(i): i for i in range(5)}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    assert main(["opt", str(path)]) == 0
    assert "optimum has 5 elements" in capsys.readouterr().out
    assert main(["montecarlo", str(path), "--trials", "10"]) == 0
    assert "ratio estimate" in capsys.readouterr().out


def test_too_many_chain_slots_exit_2(tmp_path, capsys, monkeypatch):
    # a four-node chain needs 1 + 2 + 3 + 4 = 10 chain slots
    monkeypatch.setattr(model, "MAX_CHAIN_SLOTS", 9)
    doc = {"name": "deep", "elements": [{"id": 0, "weight": 1.0}],
           "nodes": [{"id": j, "capacity": 1, "parent": j - 1 if j else None} for j in range(4)],
           "membership": {"0": 3}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    assert main(["opt", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "too deep" in captured.err
    monkeypatch.setattr(model, "MAX_CHAIN_SLOTS", 10)
    assert main(["opt", str(path)]) == 0


def test_deeply_nested_text_exit_2(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["opt", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed instance text" in captured.err


@pytest.mark.parametrize("limit,n,shown", [(3, 4, False), (9, 9, True)])
def test_verify_follows_the_exact_enumeration_limit(tmp_path, capsys, monkeypatch,
                                                    limit, n, shown):
    monkeypatch.setattr(exact, "EXACT_ENUM_LIMIT", limit)
    path = tmp_path / "inst.json"
    assert main(["gen", "--family", "random_tree", "--n", str(n), "--seed", "1",
                 "-o", str(path)]) == 0
    assert main(["verify", str(path), "--trials", "50"]) == 0
    captured = capsys.readouterr()
    assert ("exact ratio: padded" in captured.out) == shown
    assert captured.err == ""


def test_ratio_experiment_script_follows_the_exact_enumeration_limit(capsys, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "ratio_experiment.py"
    spec = importlib.util.spec_from_file_location("ratio_experiment", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(exact, "EXACT_ENUM_LIMIT", 6)
    monkeypatch.setattr(sys, "argv", [str(script), "--trials", "20"])
    module.main()
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == len(module.SPECS)
    for row in rows:
        n, value = int(row.split()[1]), row.split()[5]
        assert (value != "-") == (n <= 6)


def test_parser_is_built_once(monkeypatch, capsys):
    def refuse():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert main(["theory", "--p", "0.08"]) == 0
    assert capsys.readouterr().out.startswith("p,alpha,c,ratio_lower_bound\n0.08,")


@pytest.mark.parametrize("command", [
    ["opt"], ["montecarlo", "--trials", "300"], ["exact"], ["verify", "--trials", "300"],
    ["run", "--seed", "3", "--trace"],
])
@pytest.mark.parametrize("text", [
    FOUR_ELEMENT_TEXT, dump_instance(generate(GenSpec("random_tree", 8, 5, "near_ties"))),
], ids=["four", "random-tree"])
def test_cli_builds_no_element(tmp_path, capsys, monkeypatch, command, text):
    # the instance is loaded as columns and run in rank space
    path = tmp_path / "inst.json"
    path.write_text(text)
    argv = [command[0], str(path), *command[1:]]
    assert main(argv) == 0
    want = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("an Element was built")

    monkeypatch.setattr(model, "Element", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def readme_cli_examples():
    """The ``laminar-secretary`` command lines of README's CLI block, each
    as its argument list, with backslash continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    return [line.split()[1:] for line in commands if line.strip().startswith("laminar-secretary ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    examples = readme_cli_examples()
    assert len(examples) == 11
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert main(argv) == 0, argv
        for flag in ("-o", "--csv"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).stat().st_size > 0, argv
    capsys.readouterr()
