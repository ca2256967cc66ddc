"""The benchmark's workloads: seeded instances, the fixed call list each
workload runs through the CLI, and the checks on every output.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import laminar_secretary
from laminar_secretary import experiments, generators, model

SE_BAND = 4.0  # statistical checks pass within 4 standard errors


@dataclass
class Call:
    """One entry of a workload's call list.  ``kind`` is "mc" for CLI
    ``montecarlo`` (counted in trials/s) or "check" for the calls that
    compute ground truth or check a bound."""

    label: str
    kind: str
    argv: list[str] | None = None
    csv: Path | None = None
    trials: int = 0
    lib: Callable[[], object] | None = None

    def run(self, cli, wrap=None) -> "Outcome":
        """Make the call with stdout captured; only the call itself is
        timed.  ``wrap(fn, span_name)``, when given, wraps the function
        called, which makes it a top-level span of a tracer."""
        fn, args = (cli.main, (self.argv,)) if self.lib is None else (self.lib, ())
        if wrap is not None:
            fn = wrap(fn, "cli.main" if self.lib is None else "bench.library")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter_ns()
            result = fn(*args)
            ns = time.perf_counter_ns() - t0
        if self.lib is not None:
            return Outcome(0, repr(result), b"", ns, result)
        csv = self.csv.read_bytes() if self.csv is not None and result == 0 else b""
        return Outcome(result, buf.getvalue(), csv, ns)


@dataclass
class Outcome:
    code: int
    stdout: str  # the library result's repr for a library call
    csv: bytes
    ns: int
    value: object = None  # a library call's return value
    ref_ns: float = 0.0  # reference-kernel time around the call, set by the runner


@dataclass
class Workload:
    instances: dict[str, model.LaminarInstance]
    calls: list[Call]
    checker: Callable[["Workload", dict[str, Outcome]], list[tuple[str, bool]]]

    def checks(self, outcomes: dict[str, Outcome]) -> list[tuple[str, bool]]:
        """(check name, passed) for every output check of one pass."""
        out = [(f"exit0:{c.label}", outcomes[c.label].code == 0) for c in self.calls]
        return out + self.checker(self, outcomes)

    def fingerprint(self, outcomes: dict[str, Outcome]) -> str:
        """sha256 over every call's exit code, stdout and CSV bytes, in order."""
        h = hashlib.sha256()
        for c in self.calls:
            o = outcomes[c.label]
            for part in (c.label.encode(), str(o.code).encode(), o.stdout.encode(), o.csv):
                h.update(len(part).to_bytes(8, "little"))
                h.update(part)
        return h.hexdigest()

    def shapes(self) -> dict[str, str]:
        return {label: f"n={inst.n} nodes={len(inst.nodes)} "
                       f"root_cap={inst.node(inst.root_id).capacity}"
                for label, inst in self.instances.items()}


# -- independent references ----------------------------------------------------


def guarantee(p: float) -> float:
    """The paper's ratio guarantee p(1 - 2 alpha c/(1-c)^2), computed here
    rather than read from the program under test."""
    alpha = (p + (1.0 - p) * math.log1p(-p)) / (2.0 * (1.0 - p) * p * p)
    c = 4.0 * p * (1.0 - p)
    return p * (1.0 - 2.0 * alpha * c / (1.0 - c) ** 2)


def greedy_weight(inst: model.LaminarInstance) -> float:
    """Optimum weight of a laminar matroid by the greedy scan, from the
    instance's plain fields."""
    cap = {nd.id: nd.capacity for nd in inst.nodes}
    parent = {nd.id: nd.parent for nd in inst.nodes}
    used = dict.fromkeys(cap, 0)
    total = 0.0
    for e in sorted(inst.elements, key=lambda e: (-e.weight, e.id)):
        chain, nid = [], inst.membership[e.id]
        while nid is not None:
            chain.append(nid)
            nid = parent[nid]
        if all(used[b] < cap[b] for b in chain):
            for b in chain:
                used[b] += 1
            total += e.weight
    return total


# -- output parsing ------------------------------------------------------------


def ratio_row(csv: bytes) -> tuple[float, float]:
    """(estimate, standard error) from a ``montecarlo --csv`` report."""
    for line in csv.decode().splitlines():
        cells = line.split(",")
        if cells[0] == "ratio_estimate":
            return float(cells[3]), float(cells[5])
    raise ValueError("no ratio_estimate row")


def _float_after(prefix: str, text: str) -> float:
    m = re.search(re.escape(prefix) + r" (\S+)", text)
    if m is None:
        raise ValueError(f"no {prefix!r} in output")
    return float(m.group(1))


def _checked(name: str, test: Callable[[], bool]) -> tuple[str, bool]:
    """Run one check; output that cannot be parsed fails it."""
    try:
        return name, bool(test())
    except (ValueError, IndexError, KeyError, AttributeError, TypeError):
        return name, False


def _mc_checks(w: Workload, outs: dict[str, Outcome]) -> list[tuple[str, bool]]:
    """Every Monte Carlo estimate is at least guarantee - 4 SE."""
    res = []
    for c in w.calls:
        if c.kind == "mc":
            p = float(c.argv[c.argv.index("--p") + 1])

            def above(c=c, p=p):
                value, se = ratio_row(outs[c.label].csv)
                return value >= guarantee(p) - SE_BAND * se

            res.append(_checked(f"guarantee:{c.label}", above))
    return res


# -- instance choice -----------------------------------------------------------


def _members(inst: model.LaminarInstance) -> dict[int, list[int]]:
    """Node id -> ids of the elements inside it, from the plain fields."""
    parent = {nd.id: nd.parent for nd in inst.nodes}
    out = {nd.id: [] for nd in inst.nodes}
    for eid, nid in inst.membership.items():
        while nid is not None:
            out[nid].append(eid)
            nid = parent[nid]
    return out


def scan_cost(inst: model.LaminarInstance) -> int:
    """Monte Carlo cost proxy: the steps of one greedy reference-set build
    per node, i.e. for every node and member, one plus the member's chain
    length below that node."""
    parent = {nd.id: nd.parent for nd in inst.nodes}

    def depth(nid):
        d = 0
        while parent[nid] is not None:
            nid, d = parent[nid], d + 1
        return d

    return sum(1 + depth(inst.membership[e]) - depth(b) + 1
               for b, ids in _members(inst).items() for e in ids)


def key_cost(inst: model.LaminarInstance) -> int:
    """Verification cost proxy: the element-list scan steps that the
    backward-rank checks take in one trial (per node and member, the
    member's own key lookups plus one per element of the node's optimum),
    plus the cube of the root optimum's size for the chain-decay sums.
    It models the present linear ``LaminarInstance.element`` scan."""
    opts = {nid: laminar_secretary.greedy_opt(inst, None, nid).elements
            for nid in (nd.id for nd in inst.nodes)}
    per_trial = sum(sum(2 * (e + 1) for e in ids) + len(ids) * sum(o + 1 for o in opts[b])
                    for b, ids in _members(inst).items())
    return per_trial + len(opts[inst.root_id]) ** 3 // 3


def _gen(rnd: random.Random, family: str, n: int, weights: str, *, targets=(),
         candidates: int = 1, min_nodes: int = 1, **kw) -> model.LaminarInstance:
    """An instance of the family drawn from ``rnd``.  With ``targets``, a
    list of (cost proxy, target) pairs, it is the one among ``candidates``
    draws with at least ``min_nodes`` nodes whose proxies are closest to
    their targets (sum of absolute log ratios): instances of one family can
    differ in cost by several times from seed to seed, and the benchmark's
    timings must not."""
    best = None
    for _ in range(candidates):
        inst = generators.generate(
            generators.GenSpec(family, n, rnd.randrange(2**32), weights, **kw))
        if len(inst.nodes) < min_nodes:
            continue
        gap = sum(abs(math.log(cost(inst) / target)) for cost, target in targets)
        if best is None or gap < best[0]:
            best = (gap, inst)
    if best is None:
        raise RuntimeError(f"no {family} instance with {min_nodes}+ nodes in {candidates} draws")
    return best[1]


def _trials(base: int, scale: float) -> int:
    return max(20, int(base * scale))


def _montecarlo(key: str, path: Path, p: str, trials: int, seed: int, workdir: Path) -> Call:
    csv = workdir / f"{key}.csv"
    return Call(f"montecarlo:{key}", "mc",
                ["montecarlo", str(path), "--p", p, "--trials", str(trials),
                 "--seed", str(seed), "--jobs", "1", "--csv", str(csv)],
                csv=csv, trials=trials)


# -- workloads -----------------------------------------------------------------


def _mc_small(rnd, scale):
    insts = {
        "uniform": _gen(rnd, "uniform", 6, "uniform", rank=3),
        "partition": _gen(rnd, "partition", 6, "exponential", parts=3),
        "chain": _gen(rnd, "chain", 6, "power_law", depth=3,
                      targets=[(scan_cost, 32)], candidates=8),
        "tree": _gen(rnd, "random_tree", 6, "near_ties", min_nodes=3,
                     targets=[(scan_cost, 30)], candidates=16),
    }
    specs = [(f"{label}_p{p}", label, p) for label in insts for p in ("0.05", "0.08", "0.2")]
    trials = _trials(1000, scale)
    rnd_seed = rnd.randrange(2**31)

    def calls(files, workdir):
        out = []
        for key, label, p in specs:
            out.append(_montecarlo(key, files[label], p, trials, rnd_seed, workdir))
            out.append(Call(f"exact:{key}", "check", ["exact", str(files[label]), "--p", p]))
        return out

    def checker(w, outs):
        res = _mc_checks(w, outs)
        for key, _, _ in specs:
            def agrees(key=key):
                value, se = ratio_row(outs[f"montecarlo:{key}"].csv)
                exact = _float_after("exact ratio", outs[f"exact:{key}"].stdout)
                return abs(value - exact) <= SE_BAND * se
            res.append(_checked(f"mc_vs_exact:{key}", agrees))
        return res

    return insts, calls, checker


def _mc_large(rnd, scale):
    insts = {
        "chain": _gen(rnd, "chain", 200, "uniform", depth=4),
        "tree": _gen(rnd, "random_tree", 200, "exponential", min_nodes=6,
                     targets=[(scan_cost, 1500)], candidates=32),
        "partition": _gen(rnd, "partition", 2000, "uniform", parts=40, part_capacity=1),
    }
    trials = {"chain": _trials(200, scale), "tree": _trials(200, scale),
              "partition": _trials(40, scale)}
    rnd_seed = rnd.randrange(2**31)

    def calls(files, workdir):
        out = [_montecarlo(label, files[label], "0.08", trials[label], rnd_seed, workdir)
               for label in insts]
        out += [Call(f"opt:{label}", "check", ["opt", str(files[label])]) for label in insts]
        return out

    def checker(w, outs):
        res = _mc_checks(w, outs)
        for label, inst in w.instances.items():
            def optimal(inst=inst, label=label):
                got = _float_after("weight", outs[f"opt:{label}"].stdout.splitlines()[0])
                want = greedy_weight(inst)
                return abs(got - want) <= 1e-9 * want
            res.append(_checked(f"opt:{label}", optimal))
        return res

    return insts, calls, checker


def _verify(rnd, scale):
    tree = _gen(rnd, "random_tree", 60, "uniform", min_nodes=6,
                targets=[(key_cost, 55000), (scan_cost, 435)], candidates=256)
    insts = {
        "tree": tree,
        "partition": _gen(rnd, "partition", 60, "exponential", parts=6, part_capacity=2,
                          targets=[(key_cost, 33000)], candidates=16),
    }
    mc_trials = _trials(400, scale)
    v_trials = _trials(150, scale)
    q_trials = _trials(200, scale)
    rnd_seed = rnd.randrange(2**31)
    # qualifying law at the minimal node of the heaviest optimum element:
    # exactly one qualifying element between the two lightest reference
    # slots, whose bound is p^1
    root_opt = laminar_secretary.greedy_opt(tree, None, tree.root_id)
    q_elem = root_opt.elements[-1]
    q_node = tree.minimal_node(q_elem)
    counts = [0] * tree.node(q_node).capacity
    counts[0] = 1

    def calls(files, workdir):
        out = [_montecarlo(label, files[label], "0.08", mc_trials, rnd_seed, workdir)
               for label in insts]
        out += [Call(f"verify:{label}", "check",
                     ["verify", str(files[label]), "--p", "0.08", "--trials", str(v_trials),
                      "--seed", str(rnd_seed)]) for label in insts]
        out.append(Call("qualifying:tree", "check", lib=lambda: (
            experiments.qualifying_joint_probability(
                model.load_instance(files["tree"].read_text()), 0.08, q_node,
                counts, q_elem, master_seed=rnd_seed, trials=q_trials, method="mc"))))
        return out

    def checker(w, outs):
        res = _mc_checks(w, outs)
        for label in insts:
            res.append(_checked(f"verify_pass:{label}",
                                lambda label=label: outs[f"verify:{label}"].stdout
                                .rstrip().endswith("verify: PASS")))

        def within():
            q = outs["qualifying:tree"].value
            return q.probability <= q.bound + SE_BAND * q.std_err
        res.append(_checked("qualifying_bound:tree", within))
        return res

    return insts, calls, checker


_WORKLOADS = {"mc_small": _mc_small, "mc_large": _mc_large, "verify": _verify}


def build(name: str, seed: int, workdir: Path, scale: float = 1.0) -> Workload:
    """Set-up: generate the workload's instances from ``seed`` and write
    their JSON files into ``workdir``.  The CLI only ever sees those files."""
    rnd = random.Random(f"{name}:{seed}")
    insts, make_calls, checker = _WORKLOADS[name](rnd, scale)
    files = {}
    for label, inst in insts.items():
        files[label] = workdir / f"{label}.json"
        files[label].write_text(model.dump_instance(inst) + "\n")
    return Workload(insts, make_calls(files, workdir), checker)
