"""Every float sum that reaches output adds left to right, one float at a
time.  The builtin ``sum`` compensates its float additions from Python 3.12
on, so a sum left to it rounds differently on 3.12 than on 3.11.  Here it
is replaced by ``math.fsum``, which on every version rounds differently
from a left-to-right sum on the inputs below: each value must come out as
it does unpatched."""

import builtins
import math
from functools import reduce
from operator import add

from laminar_secretary import dump_instance, greedy_opt
from laminar_secretary.cli import main
from laminar_secretary.experiments import _opt_weight
from laminar_secretary.theory import g_refined_bound, geometric_sum

from helpers import rank1

_builtin_sum = builtins.sum


def _compensated_sum(values, start=0):
    """``math.fsum`` when any input is a float, the builtin otherwise."""
    values = list(values)
    if any(type(v) is float for v in [start, *values]):
        return math.fsum([start, *values])
    return _builtin_sum(values, start)


def test_sums_that_reach_output_add_left_to_right(monkeypatch, tmp_path, capsys):
    # 1e16 + 1 rounds back to 1e16 (ties to even), twice; fsum keeps the 2
    inst = rank1([1e16, 1.0, 1.0], capacity=3)
    path = tmp_path / "big.json"
    path.write_text(dump_instance(inst))

    def values():
        # seed 1 at p = 0.9 selects all three, the heaviest first
        assert main(["run", str(path), "--p", "0.9", "--seed", "1"]) == 0
        printed = capsys.readouterr().out.splitlines()[1]
        return (_opt_weight(inst), greedy_opt(inst, None, inst.root_id).weight,
                g_refined_bound(7, 9, 0.29), g_refined_bound(8, 9, 0.29), printed)

    want = values()
    assert want[:2] == (1e16, 1e16)
    assert want[4] == "selected 3 elements, weight 1e+16"
    # the patch rounds differently on OPT's weights and on the 2 c_1 + ...
    # + 2 c_{m-1} of the refined bound at m = 8 (at m = 7 the bound comes
    # out the same)
    geometric = [geometric_sum(0.29, j) for j in range(1, 8)]
    assert _compensated_sum(geometric) != reduce(add, geometric, 0.0)
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert sum([1e16, 1.0, 1.0]) == 1.0000000000000002e16
    assert values() == want


def test_an_empty_sum_is_the_float_zero(tmp_path, capsys):
    # an empty selection or optimum weighs 0.0, printed as every weight is
    inst = rank1([1.0, 2.0])
    path = tmp_path / "two.json"
    path.write_text(dump_instance(inst))
    # seed 0 at p = 0.08 samples both elements, so nothing arrives
    assert main(["run", str(path), "--p", "0.08", "--seed", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "selected 0 elements, weight 0.0"
    assert repr(greedy_opt(inst, set(), inst.root_id).weight) == "0.0"
