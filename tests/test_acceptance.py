"""Acceptance gate: the headline requirements, one test per criterion.

Each test prints a PASS/FAIL line with its runtime (visible under
``pytest -s``) and enforces its stated tolerance and time budget.
"""

import random
import time

import pytest

from laminar_secretary import (
    GenSpec,
    allkicked_frequency,
    best_p,
    brute_force_opt,
    exact_ratio,
    g_exact,
    g_refined_bound,
    g_weak_bound,
    generate,
    greedy_opt,
    make_trial,
    monte_carlo_ratio,
    qualifying_joint_probability,
    ratio_lower_bound,
    run_kicknext,
    theory_params,
    weighted_penalty,
    weighted_penalty_telescoped,
)
from laminar_secretary.cli import main

from helpers import check_run_invariants, enumerable_suite, replay_events

TOL = 1e-12


def _report(num, name, ok, detail, elapsed, budget):
    line = (f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}  "
            f"{detail}  ({elapsed:.2f}s / budget {budget:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_1_theory_reproduction(capsys):
    t0 = time.perf_counter()
    code = main(["theory", "--p", "0.08"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    ratio = float(out.strip().splitlines()[1].split(",")[3])
    ok = code == 0 and abs(ratio - 0.0536) <= 0.0005 and ratio >= 0.053
    with capsys.disabled():
        _report(1, "ratio guarantee at p=0.08", ok,
                f"reported {ratio:.6f}, target 0.0536 +- 0.0005 and >= 0.053",
                elapsed, 1.0)


def test_criterion_2_grid_maximizer(capsys):
    t0 = time.perf_counter()
    p_star, ratio_star = best_p(0.001)
    elapsed = time.perf_counter() - t0
    ok = 0.07 <= p_star <= 0.09 and ratio_star >= 0.053
    with capsys.disabled():
        _report(2, "grid maximizer near p=0.08", ok,
                f"argmax p={p_star:.3f} with ratio {ratio_star:.6f}", elapsed, 1.0)


def test_criterion_3_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    families = ("random_tree", "uniform", "partition", "chain")
    mismatches = 0
    checks = 0
    for i in range(200):
        n = 4 + i % 9  # 4..12
        family = families[i % 4]
        inst = generate(GenSpec(
            family, n, seed=5000 + i,
            weights=("uniform", "exponential", "near_ties", "power_law")[i % 4],
            rank=max(1, n // 3), parts=2 + i % 2, depth=2 + i % 2,
        ))
        rnd = random.Random(9000 + i)
        ids = sorted(inst.element_ids())
        for _ in range(20):
            subset = {x for x in ids if rnd.random() < 0.5}
            for nd in inst.nodes:
                checks += 1
                if greedy_opt(inst, subset, nd.id).elements != \
                        brute_force_opt(inst, subset, nd.id).elements:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(3, "greedy equals brute force", mismatches == 0,
                f"{checks} node/subset checks on 200 instances, {mismatches} mismatches",
                elapsed, 30.0)


def test_criterion_4_feasibility_suite(capsys):
    t0 = time.perf_counter()
    instances = []
    for fi, family in enumerate(("uniform", "partition", "chain", "random_tree")):
        for k, n in enumerate((8, 12, 16, 20)):
            instances.append(generate(GenSpec(
                family, n, seed=300 + 10 * fi + k,
                weights=("uniform", "exponential", "near_ties", "power_law")[k],
                rank=max(1, n // 3), parts=3, part_capacity=2, depth=3,
            )))
    trials_per = 6500
    total = infeasible = traced = 0
    for idx, inst in enumerate(instances):
        for t in range(trials_per):
            trace = t % 20 == 0
            trial = make_trial(inst, 0.08, 40_000 + idx * trials_per + t)
            res = run_kicknext(inst, trial, padding=True)
            total += 1
            try:
                check_run_invariants(inst, res)
            except AssertionError:
                infeasible += 1
            if trace:
                traced += 1
                replay_events(inst, res)
    elapsed = time.perf_counter() - t0
    ok = total >= 100_000 and infeasible == 0
    with capsys.disabled():
        _report(4, "feasibility and eviction bookkeeping", ok,
                f"{total} runs ({traced} fully replayed), {infeasible} violations",
                elapsed, 60.0)


def test_criterion_5_exact_beats_guarantee(capsys):
    t0 = time.perf_counter()
    bound = ratio_lower_bound(0.08)
    suite = enumerable_suite()
    violations = []
    for inst in suite:
        r = exact_ratio(inst, 0.08, padding=True)
        if r < bound - 1e-9:
            violations.append((inst.name, r))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(5, "exact expectation above the guarantee", not violations,
                f"{len(suite)} enumerable instances vs bound {bound:.6f}, "
                f"violations: {violations}", elapsed, 300.0)


def test_criterion_6_monte_carlo_matches_exact(capsys):
    t0 = time.perf_counter()
    suite = enumerable_suite()
    worst = 0.0
    failures = []
    for idx, inst in enumerate(suite):
        for p in (0.05, 0.08, 0.2):
            exact = exact_ratio(inst, p, padding=True)
            rep = monte_carlo_ratio(inst, p, 100_000, master_seed=123 + idx)
            gap = abs(rep.ratio.value - exact)
            worst = max(worst, gap / rep.ratio.std_err if rep.ratio.std_err else 0.0)
            if gap > 4 * rep.ratio.std_err:
                failures.append((inst.name, p, gap, rep.ratio.std_err))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(6, "Monte Carlo within 4 SE of exact", not failures,
                f"{len(suite)} instances x 3 sampling rates, worst gap "
                f"{worst:.2f} SE, failures: {failures}", elapsed, 300.0)


def test_criterion_7_lemma_suites(capsys):
    t0 = time.perf_counter()
    c = theory_params(0.08).c
    failures = []
    checked = 0
    for i in range(500):
        n = 4 + i % 11  # 4..14
        inst = generate(GenSpec(
            ("random_tree", "uniform", "partition", "chain")[i % 4], n,
            seed=70_000 + i,
            weights=("uniform", "exponential", "near_ties", "power_law")[i % 4],
            rank=max(1, n // 3), parts=2 + i % 3, depth=2 + i % 3,
        ))
        for nd in inst.nodes:
            opt_b = greedy_opt(inst, None, nd.id)
            for m in range(len(opt_b) + 1):
                checked += 1
                g = g_exact(inst, m, nd.id, c)
                refined = g_refined_bound(m, nd.capacity, c)
                if g > refined + TOL or refined > g_weak_bound(m, c) + TOL:
                    failures.append(("g", inst.name, nd.id, m))
        w_opt = greedy_opt(inst, None, inst.root_id).weight
        pen = weighted_penalty(inst, c)
        if pen > g_weak_bound(1, c) * w_opt + TOL:
            failures.append(("weighted", inst.name, pen))
        tele = weighted_penalty_telescoped(inst, c)
        if abs(pen - tele) > 1e-9 * max(1.0, abs(pen)):
            failures.append(("telescoping", inst.name, pen, tele))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(7, "chain-decay and weighted-penalty lemmas", not failures,
                f"500 instances, {checked} (node, m) pairs, failures: {failures[:3]}",
                elapsed, 60.0)


def test_criterion_8_probabilistic_lemma_checks(capsys):
    t0 = time.perf_counter()
    failures = []

    # eviction-failure frequencies against the analytical bound
    rows_checked = 0
    for i in range(20):
        n = 5 + i % 5  # 5..9
        inst = generate(GenSpec(
            ("random_tree", "uniform", "partition", "chain")[i % 4], n,
            seed=81_000 + i,
            weights=("uniform", "exponential", "near_ties", "power_law")[i % 4],
            rank=max(1, n // 2), parts=2, depth=2 + i % 2,
        ))
        for row in allkicked_frequency(inst, 0.08, 4000, master_seed=500 + i):
            rows_checked += 1
            if row.frequency > row.bound + 4 * row.std_err:
                failures.append(("allkicked", inst.name, row))

    # qualifying-count joint probabilities, exact enumeration
    vectors_checked = 0
    for inst in enumerable_suite()[:6]:
        opt = greedy_opt(inst, None, inst.root_id)
        for eid in list(reversed(opt.elements))[:2]:
            for nid in (inst.root_id, inst.minimal_node(eid)):
                cap = inst.node(nid).capacity
                vectors = [[0] * cap]
                for j in range(cap):
                    one = [0] * cap
                    one[j] = 1
                    vectors.append(one)
                    two = [0] * cap
                    two[j] = 2
                    vectors.append(two)
                for counts in vectors:
                    vectors_checked += 1
                    res = qualifying_joint_probability(
                        inst, 0.08, nid, counts, element_id=eid
                    )
                    assert res.exact
                    if res.probability > res.bound + TOL:
                        failures.append(("qualifying", inst.name, nid, counts,
                                         res.probability, res.bound))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(8, "probabilistic bound checks", not failures,
                f"{rows_checked} (element, node) frequencies and "
                f"{vectors_checked} qualifying-count vectors, failures: {failures[:3]}",
                elapsed, 300.0)
