import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, strategies as st

from laminar_secretary import (
    GenSpec,
    allkicked_bound,
    best_p,
    g_exact,
    g_refined_bound,
    g_weak_bound,
    generate,
    geometric_sum,
    greedy_opt,
    p_grid,
    ratio_lower_bound,
    theory_params,
    weighted_penalty,
    weighted_penalty_telescoped,
)

from laminar_secretary.theory import MAX_GRID_POINTS

from helpers import four_element, mixed_instances, rank1, tree

# frozen evaluations of the closed forms at the headline operating point
ALPHA_008 = 0.2792900625062013
C_008 = 0.2944
C_GEO_008 = 0.41723356009070295
BOUND_D0_008 = 0.11652918707741733
BOUND_D1_008 = 0.03430619267559166
RATIO_008 = 0.05357614805500742

approx = pytest.approx


class TestParams:
    def test_headline_point(self):
        t = theory_params(0.08)
        assert t.alpha == approx(ALPHA_008, rel=1e-12)
        assert t.c == approx(C_008, rel=1e-12)
        assert t.c_geo == approx(C_GEO_008, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.6, -0.1])
    def test_domain(self, p):
        with pytest.raises(ValueError, match="must be in"):
            theory_params(p)

    def test_alpha_small_p_limit(self):
        assert theory_params(1e-5).alpha == approx(0.25, abs=1e-4)

    @pytest.mark.parametrize("p", [1e-15, 1e-160, 1e-200, 1e-300, 5e-324])
    def test_alpha_tiny_p(self, p):
        # the closed form reads 0.197 at 1e-15, 0.0 near 1e-160 and divides
        # by zero once p * p underflows
        assert theory_params(p).alpha == approx(0.25, rel=1e-14)

    def test_alpha_against_decimal(self):
        # (p + (1-p) ln(1-p)) / (2 (1-p) p^2) with 50 correct digits: the
        # working precision covers the cancellation of the two ~p terms
        grid = [m * 10.0 ** e for e in range(-300, 0) for m in (1.0, 2.2, 4.7)]
        worst = (Decimal(0), None)
        for p in [q for q in grid if q < 0.49] + [0.49]:
            digits = max(0, -math.floor(math.log10(p)))
            with localcontext() as ctx:
                ctx.prec = 50 + 2 * digits
                q = Decimal(p)
                ref = (q + (1 - q) * (1 - q).ln()) / (2 * (1 - q) * q * q)
                worst = max(worst, (abs(Decimal(theory_params(p).alpha) / ref - 1), p))
        assert worst[0] <= Decimal("1e-12"), worst

    @given(st.floats(0.001, 0.499))
    def test_alpha_alternate_algebraic_form(self, p):
        t = theory_params(p)
        other = -(p - (p - 1.0) * math.log1p(-p)) / (2.0 * (p - 1.0) * p * p)
        assert t.alpha == approx(other, rel=1e-11)

    @given(st.floats(0.001, 0.499))
    def test_ranges(self, p):
        t = theory_params(p)
        assert t.alpha > 0
        assert 0 < t.c < 1
        assert t.c_geo == approx(t.c / (1 - t.c), rel=1e-12)


class TestAllKickedBound:
    def test_values(self):
        t = theory_params(0.08)
        assert allkicked_bound(t, 0) == approx(BOUND_D0_008, rel=1e-12)
        assert allkicked_bound(t, 1) == approx(BOUND_D1_008, rel=1e-12)
        assert allkicked_bound(t, 1) == approx(allkicked_bound(t, 0) * t.c, rel=1e-12)

    def test_decreasing_and_vanishing(self):
        t = theory_params(0.08)
        values = [allkicked_bound(t, d) for d in range(50)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-20

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            allkicked_bound(theory_params(0.08), -1)

    def test_matches_geometric_tail(self):
        # the bound is the closed form of sum_{l > d} alpha c^l
        t = theory_params(0.11)
        for d in range(5):
            tail = sum(t.alpha * t.c ** l for l in range(d + 1, 400))
            assert allkicked_bound(t, d) == approx(tail, rel=1e-12)


class TestGeometricSum:
    @given(st.floats(0.01, 0.95), st.integers(0, 30))
    def test_matches_direct_sum(self, c, i):
        direct = sum(c ** j for j in range(1, i + 1))
        assert geometric_sum(c, i) == approx(direct, rel=1e-10, abs=1e-12)


class TestGExact:
    def test_single_capacity_closed_form(self):
        # one capacity node of rank k: the m heaviest optimum elements sit at
        # padded backward ranks k-1 .. k-m, so g telescopes to c_m * c^(k-m)
        inst = generate(GenSpec("uniform", n=6, seed=2, rank=4))
        c = 0.2944
        for m in range(0, 5):
            expect = geometric_sum(c, m) * c ** (4 - m)
            assert g_exact(inst, m, inst.root_id, c) == approx(expect, rel=1e-12, abs=1e-15)

    def test_empty_prefix(self):
        assert g_exact(four_element(), 0, 0, 0.2944) == 0.0

    def test_four_element_value(self):
        assert g_exact(four_element(), 1, 0, 0.2944) == approx(0.319916048384, rel=1e-12)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError, match="m must be within"):
            g_exact(four_element(), 4, 0, 0.2944)

    def test_padding_matters_for_sparse_nodes(self):
        # a lone element under nested capacities 1 < 2 < 3 contributes
        # c + c^2 + c^3 thanks to the padded ranks -- not 3c
        inst = tree("lone", [(0, 3, None), (1, 2, 0), (2, 1, 1)], {0: 2}, [4.0])
        c = 0.2944
        assert g_exact(inst, 1, 0, c) == approx(c + c ** 2 + c ** 3, rel=1e-12)


class TestGBounds:
    def test_base_cases(self):
        assert g_refined_bound(0, 5, 0.2944) == 0.0
        assert g_refined_bound(1, 1, 0.2944) == approx(0.2944, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="0 <= m <= k"):
            g_refined_bound(3, 2, 0.2)
        with pytest.raises(ValueError, match="c must be in"):
            g_refined_bound(1, 2, 0.6)
        with pytest.raises(ValueError, match="c must be in"):
            g_weak_bound(1, 0.5)

    @pytest.mark.parametrize("c", [0.05, 0.15, 0.2944, 0.4, 0.49])
    def test_refined_below_weak_on_grid(self, c):
        for k in range(0, 9):
            for m in range(0, k + 1):
                assert g_refined_bound(m, k, c) <= g_weak_bound(m, c) + 1e-12

    def test_exact_below_refined_below_weak(self):
        c = 0.2944
        for inst in mixed_instances(15, seed0=60):
            for nd in inst.nodes:
                opt = greedy_opt(inst, None, nd.id)
                for m in range(len(opt) + 1):
                    g = g_exact(inst, m, nd.id, c)
                    refined = g_refined_bound(m, nd.capacity, c)
                    assert g <= refined + 1e-12
                    assert refined <= g_weak_bound(m, c) + 1e-12


class TestWeightedPenalty:
    def test_single_element(self):
        c = 0.2944
        assert weighted_penalty(rank1([7.5]), c) == approx(7.5 * c, rel=1e-12)

    def test_four_element_value(self):
        c = 0.2944
        assert weighted_penalty(four_element(), c) == approx(4.2213172838399995, rel=1e-12)
        assert weighted_penalty(four_element(), c) <= g_weak_bound(1, c) * 17.0

    def test_vanishes_with_c(self):
        assert weighted_penalty(four_element(), 1e-9) == approx(0.0, abs=1e-7)

    def test_c_domain(self):
        with pytest.raises(ValueError, match="c must be in"):
            weighted_penalty(four_element(), 0.5)

    def test_bounded_on_random_instances(self):
        c = 0.2944
        for inst in mixed_instances(15, seed0=61):
            w_opt = greedy_opt(inst, None, inst.root_id).weight
            assert weighted_penalty(inst, c) <= g_weak_bound(1, c) * w_opt + 1e-12

    def test_telescoped_form_agrees(self):
        for c in (0.1, 0.2944, 0.45):
            for inst in [four_element()] + mixed_instances(8, seed0=62):
                direct = weighted_penalty(inst, c)
                tele = weighted_penalty_telescoped(inst, c)
                assert tele == approx(direct, rel=1e-9, abs=1e-12)


class TestRatioBound:
    def test_headline_value(self):
        assert ratio_lower_bound(0.08) == approx(RATIO_008, rel=1e-12)
        assert ratio_lower_bound(0.08) >= 0.053

    def test_vanishes_with_p(self):
        assert 0 < ratio_lower_bound(1e-6) < 1e-5

    @given(st.floats(0.001, 0.45))
    def test_below_p(self, p):
        assert ratio_lower_bound(p) < p

    def test_fine_grid_maximizer(self):
        p_star, ratio_star = best_p(0.001)
        assert 0.07 <= p_star <= 0.09
        assert ratio_star >= 0.053
        assert p_star == approx(0.083, abs=1e-12)

    def test_coarse_grid_maximizer(self):
        p_star, ratio_star = best_p(0.1)
        assert p_star == approx(0.1, abs=1e-12)
        assert ratio_star == approx(ratio_lower_bound(0.1), rel=1e-12)

    def test_single_point_grid(self):
        p_star, ratio_star = best_p(0.05, p_min=0.25, p_max=0.25)
        assert p_star == 0.25
        assert ratio_star == approx(ratio_lower_bound(0.25), rel=1e-12)

    def test_step_validation(self):
        with pytest.raises(ValueError, match="step"):
            best_p(0.0)


class TestPGrid:
    def test_default_grid(self):
        assert p_grid(0.1) == [0.1, 0.2, 0.1 * 3, 0.4]
        assert p_grid(0.25) == [0.25]

    def test_range_grid(self):
        assert p_grid(0.01, 0.05, 0.1) == [0.05 + k * 0.01 for k in range(6)]
        assert p_grid(0.05, 0.25) == [0.25]
        assert p_grid(0.03, 0.4, 0.5) == [0.4 + k * 0.03 for k in range(4)]  # 0.49 < 1/2

    @pytest.mark.parametrize("step", [0.0, -0.01, math.nan, math.inf, -math.inf])
    def test_bad_step(self, step):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            p_grid(step)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            p_grid(step, 0.05, 0.06)

    @pytest.mark.parametrize("p_min,p_max", [
        (0.1, 0.05), (math.nan, 0.1), (0.1, math.nan), (-math.inf, 0.1), (0.1, math.inf),
    ])
    def test_bad_range(self, p_min, p_max):
        with pytest.raises(ValueError, match="need finite p_min <= p_max"):
            p_grid(0.01, p_min, p_max)

    def test_p_max_needs_p_min(self):
        with pytest.raises(ValueError, match="p_max needs p_min"):
            p_grid(0.01, p_max=0.2)

    @pytest.mark.parametrize("step,p_min,p_max,bad", [
        (0.05, 0.4, 0.6, "0.6"),
        (0.05, 0.0, 0.1, "0.0"),
        (0.05, -0.1, 0.1, "-0.1"),
        (0.01, 0.5, None, "0.5"),
    ])
    def test_points_outside_open_half(self, step, p_min, p_max, bad):
        with pytest.raises(ValueError, match=f"grid point {bad}.* outside"):
            p_grid(step, p_min, p_max)
        with pytest.raises(ValueError, match="outside"):
            best_p(step, p_min, p_max)

    def test_empty_default_grid(self):
        with pytest.raises(ValueError, match="no grid point"):
            p_grid(0.5)

    def test_one_point_range_for_any_step(self):
        # a slack of 1e-12 on the end would let ten more points past 0.1
        assert p_grid(1e-13, 0.1, 0.1) == [0.1]
        assert p_grid(1e-300, 0.1, 0.1) == [0.1]
        assert p_grid(5e-324, 0.1, 0.1) == [0.1]

    def test_step_too_small_for_distinct_points(self):
        with pytest.raises(ValueError, match="too small to give distinct"):
            p_grid(1e-20, 0.1, 0.1 + 1e-16)

    @given(st.floats(1e-9, 0.49), st.floats(0.0, 0.1), st.floats(5e-324, 0.2),
           st.none() | st.floats(0.1, 40.0))
    def test_grid_points_stay_within_rounding(self, p_min, width, step, ulps):
        if ulps is not None:  # a step of a few ulps: points may coincide
            step = math.ulp(p_min) * ulps
        p_max = min(p_min + width, 0.49)
        try:
            grid = p_grid(step, p_min, p_max)
        except ValueError as exc:
            assert "more than" in str(exc) or "too small" in str(exc)
            assert "too small" not in str(exc) or step <= 2 * math.ulp(p_max + 4 * math.ulp(p_max))
            return
        assert grid == [p_min + k * step for k in range(len(grid))]
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert grid[-1] <= p_max + 4 * math.ulp(p_max)
        if p_min == p_max:
            assert grid == [p_min]

    def test_point_cap(self):
        assert len(p_grid(0.5 / MAX_GRID_POINTS)) == MAX_GRID_POINTS - 1
        with pytest.raises(ValueError, match="more than"):
            p_grid(0.5 / (MAX_GRID_POINTS + 2))
        with pytest.raises(ValueError, match="more than"):
            p_grid(1e-300, 0.1, 0.2)
