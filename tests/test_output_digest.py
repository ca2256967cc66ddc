"""One sha256 over a fixed grid of fixed-seed outputs.

The grid covers every family at n = 6, 16, 17 and 200 (on both sides of the
small-instance caches), p = 0.05, 0.08 and 0.2, padding on and off.  It
hashes the Monte Carlo weight list of ``_trial_weights_chunk``, the
``monte_carlo_ratio`` CSV and the ``_sample_ids`` draws, so any change to a
fixed-seed value changes the digest.  ``VERIFY_DIGEST`` pins the report of
CLI ``verify`` (``verify_report``'s summary and CSV) over every family at
n = 6, 17 and 60, the same p values and 1, 37 and 600 trials; the last
runs past the 500-trial cap of the backward-rank dominance checks.
``EXACT_DIGEST`` pins ``exact_expectation`` over every family at n = 1, 4,
6 and 8, the same p values, padding on and off.  ``GEN_DIGEST`` pins the
text of ``dump_instance`` over every family and weight regime at n = 1, 6,
17, 200 and 2000, plus one hand-built instance with int weights, sparse
ids ("100" sorts before "12" as a key), nodes given out of id order and a
non-ASCII name, so ``gen`` files stay byte-identical.  ``CLI_DIGEST`` pins
the stdout of CLI ``opt`` (the root and every node by ``--node``), ``exact``
(n <= 8) and ``run --seed 5`` with and without ``--trace`` on ``gen`` files
of every family at n = 6, 17 and 200, plus a 2000-element, 40-part
partition.  A change that alters fixed-seed outputs on purpose must say so
and record the new digest.
"""

import contextlib
import io
from hashlib import sha256

from laminar_secretary import (
    Element,
    FamilyNode,
    GenSpec,
    derive_seed,
    dump_instance,
    exact_expectation,
    generate,
    make_instance,
    monte_carlo_ratio,
    verify_report,
)
from laminar_secretary.cli import main
from laminar_secretary.generators import WEIGHTS
from laminar_secretary.experiments import _trial_weights_chunk
from laminar_secretary.kicknext import _sample_ids

from helpers import family_instance

DIGEST = "d23846c1715dbfa5871f37edb6c47fec855c427b08b622dae98065c69d82906b"
VERIFY_DIGEST = "5655d4342b518110e0e1eb3b08fed7bfd0340b48f795ab5c59b34c553e7eec07"
EXACT_DIGEST = "e2961e87d95736024f2bd063cb1f4785544428c46bc4b30d882c9f7b70338fe6"
GEN_DIGEST = "d1aabf01088ad9009d148054ef751827652a189954eaf75af0639e6072b1c322"
CLI_DIGEST = "b6491999e64113f68bf1f546574ac7d41c30c22d9d9f7c2cbb8086dc0a474489"

FAMILIES = ("uniform", "partition", "chain", "random_tree")
SIZES = (6, 16, 17, 200)
PS = (0.05, 0.08, 0.2)
VERIFY_SIZES = (6, 17, 60)
VERIFY_TRIALS = (1, 37, 600)
EXACT_SIZES = (1, 4, 6, 8)
GEN_SIZES = (1, 6, 17, 200, 2000)
CLI_SIZES = (6, 17, 200)


def _digest() -> str:
    h = sha256()
    for fi, family in enumerate(FAMILIES):
        for n in SIZES:
            inst = family_instance(family, n, 10 * fi + n)
            pre = inst.pre()
            for p in PS:
                seed = 1000 * n + int(1000 * p)
                for t in range(40):
                    in_s, order = _sample_ids(pre, p, derive_seed(seed, t))
                    h.update(repr((in_s, order)).encode())
                for padding in (True, False):
                    weights = _trial_weights_chunk(inst, p, 3, 250, seed, padding)
                    h.update(repr(weights).encode())
                    csv = monte_carlo_ratio(inst, p, 60, seed, padding=padding).to_csv()
                    h.update(csv.encode())
    return h.hexdigest()


def test_fixed_seed_outputs_are_unchanged():
    assert _digest() == DIGEST


def _verify_digest() -> str:
    h = sha256()
    for fi, family in enumerate(FAMILIES):
        for n in VERIFY_SIZES:
            inst = family_instance(family, n, 10 * fi + n)
            for p in PS:
                for trials in VERIFY_TRIALS:
                    report = verify_report(inst, p, trials, 1000 * n + int(1000 * p) + trials)
                    h.update(report.summary().encode())
                    h.update(report.to_csv().encode())
    return h.hexdigest()


def test_verify_reports_are_unchanged():
    assert _verify_digest() == VERIFY_DIGEST


def _exact_digest() -> str:
    h = sha256()
    for fi, family in enumerate(FAMILIES):
        for n in EXACT_SIZES:
            inst = family_instance(family, n, 10 * fi + n)
            for p in PS:
                for padding in (True, False):
                    h.update(repr(exact_expectation(inst, p, padding=padding)).encode())
    return h.hexdigest()


def test_exact_expectations_are_unchanged():
    assert _exact_digest() == EXACT_DIGEST


def _gen_digest() -> str:
    h = sha256()
    for fi, family in enumerate(FAMILIES):
        for weights in WEIGHTS:
            for n in GEN_SIZES:
                spec = GenSpec(family, n, 10 * fi + n, weights)
                h.update(dump_instance(generate(spec)).encode())
    hand = make_instance(
        "Kettenbr\u00fcche \u2014 \u03bb",
        [Element(40, 3), Element(12, 7), Element(100, 2), Element(10, 7), Element(95, 1)],
        [FamilyNode(31, 1, 10), FamilyNode(10, 2, None), FamilyNode(17, 1, 10)],
        {95: 31, 10: 17, 100: 17, 40: 10, 12: 31},
    )
    h.update(dump_instance(hand).encode())
    return h.hexdigest()


def test_instance_files_are_unchanged():
    assert _gen_digest() == GEN_DIGEST


def _cli_digest(tmp_path) -> str:
    insts = [family_instance(family, n, 10 * fi + n)
             for fi, family in enumerate(FAMILIES) for n in CLI_SIZES]
    insts.append(generate(GenSpec("partition", 2000, 2000, "uniform",
                                  parts=40, part_capacity=1)))
    h = sha256()
    for i, inst in enumerate(insts):
        path = tmp_path / f"{i}.json"
        path.write_text(dump_instance(inst) + "\n")  # as ``gen`` writes it
        file = str(path)
        calls = [["opt", file]]
        calls += [["opt", file, "--node", str(nd.id)] for nd in inst.nodes]
        if inst.n <= 8:
            calls.append(["exact", file])
        calls += [["run", file, "--seed", "5"], ["run", file, "--seed", "5", "--trace"]]
        for argv in calls:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            h.update(repr((i, argv[0], argv[2:], code, out.getvalue())).encode())
    return h.hexdigest()


def test_cli_outputs_are_unchanged(tmp_path):
    assert _cli_digest(tmp_path) == CLI_DIGEST
