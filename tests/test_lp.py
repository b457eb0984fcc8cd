import random
from collections import Counter
from fractions import Fraction as F
from itertools import permutations
from pathlib import Path

import pytest

from dodgsonyoung import SCHEMES, Profile, parse_profile
from dodgsonyoung import lp as lp_module
from dodgsonyoung.lp import (
    Constraint,
    IntegerProgram,
    LinearProgram,
    Variable,
    frac,
    linear_program,
    solve_ilp,
    solve_lp,
)
from oracles import (
    grid_solve_ilp,
    random_bounded_ilp,
    random_lp,
    random_lp_any_bounds,
    scipy_linprog,
)

FIXTURES = Path(__file__).parent / "fixtures"

BEALE = linear_program(
    "min",
    [("x1", 0, None), ("x2", 0, None), ("x3", 0, None), ("x4", 0, None)],
    [F(-3, 4), 150, F(-1, 50), 6],
    [
        ([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
        ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
        ([0, 0, 1, 0], "<=", 1),
    ],
)


def check_feasible(lp, assignment):
    for var in lp.variables:
        val = assignment[var.name]
        assert val >= var.lower
        assert var.upper is None or val <= var.upper
    for con in lp.constraints:
        lhs = sum(a * assignment[v.name] for a, v in zip(con.coeffs, lp.variables))
        if con.relation == "<=":
            assert lhs <= con.rhs
        elif con.relation == ">=":
            assert lhs >= con.rhs
        else:
            assert lhs == con.rhs


class TestSolveLP:
    def test_box_maximum(self):
        sol = solve_lp(linear_program("max", [("x", 0, 3)], [1], []))
        assert sol.status == "optimal"
        assert sol.objective_value == 3
        assert sol["x"] == 3

    def test_infeasible_pair(self):
        lp = linear_program("min", [("x", 0, None)], [1], [([1], ">=", 2), ([1], "<=", 1)])
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        assert solve_lp(linear_program("max", [("x", 0, None)], [1], [])).status == "unbounded"

    def test_crossed_bounds_infeasible(self):
        assert solve_lp(linear_program("min", [("x", 2, 1)], [1], [])).status == "infeasible"

    def test_fixed_variables_only(self):
        sol = solve_lp(linear_program("min", [("x", 2, 2)], [3], [([1], "<=", 2)]))
        assert sol.status == "optimal"
        assert sol.objective_value == 6
        bad = solve_lp(linear_program("min", [("x", 2, 2)], [3], [([1], "<=", 1)]))
        assert bad.status == "infeasible"

    def test_degenerate_equalities(self):
        lp = linear_program(
            "min",
            [("x", 0, None), ("y", 0, None)],
            [1, 1],
            [([1, 1], "=", 4), ([2, 2], "=", 8)],  # dependent rows
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == 4

    def test_dodgson_star_lp_of_cycle(self):
        # lift fractions for the 3-cycle, candidate A: one constraint worth 1/2
        lp = linear_program(
            "min",
            [("x21", 0, 1), ("x22", 0, 1), ("x31", 0, 1)],
            [1, 2, 1],
            [([1, 1, 0], "<=", 1), ([1, 1, 1], ">=", F(1, 2))],
        )
        sol = solve_lp(lp)
        assert sol.objective_value == F(1, 2)
        # cross-check by a grid over halves
        best = None
        vals = (F(0), F(1, 2), F(1))
        for x21 in vals:
            for x22 in vals:
                for x31 in vals:
                    if x21 + x22 <= 1 and x21 + x22 + x31 >= F(1, 2):
                        obj = x21 + 2 * x22 + x31
                        best = obj if best is None else min(best, obj)
        assert best == F(1, 2)

    def test_beale_cycling_instance_terminates_with_bland(self):
        sol = solve_lp(BEALE)
        assert sol.status == "optimal"
        assert sol.objective_value == F(-1, 20)
        check_feasible(BEALE, sol.assignment)

    def test_random_lps_exact_feasibility(self):
        rng = random.Random(4040)
        statuses = set()
        for _ in range(120):
            lp = random_lp(rng)
            sol = solve_lp(lp)
            statuses.add(sol.status)
            if sol.status == "optimal":
                check_feasible(lp, sol.assignment)
        assert "optimal" in statuses and "infeasible" in statuses

    def test_random_lps_against_scipy(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(515)
        checked = 0
        for _ in range(80):
            lp = random_lp(rng, max_vars=4)
            sol = solve_lp(lp)
            sense, res = scipy_linprog(scipy_opt, lp)
            if sol.status == "optimal":
                assert res.status == 0
                assert abs(sense * res.fun - float(sol.objective_value)) < 1e-7
                checked += 1
            elif sol.status == "infeasible":
                assert res.status == 2
        assert checked > 20

    def test_every_variable_kind_against_scipy(self):
        # Boxed, fixed and lower-only variables, with "unbounded" matched to
        # scipy status 3.
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(626)
        statuses = Counter()
        kinds = set()
        for _ in range(200):
            lp = random_lp_any_bounds(rng)
            kinds.update(
                "lower-only" if v.upper is None else "fixed" if v.lower == v.upper else "boxed"
                for v in lp.variables
            )
            sol = solve_lp(lp)
            sense, res = scipy_linprog(scipy_opt, lp)
            statuses[sol.status] += 1
            if sol.status == "optimal":
                assert res.status == 0
                assert abs(sense * res.fun - float(sol.objective_value)) < 1e-7
                check_feasible(lp, sol.assignment)
            else:
                assert res.status == {"infeasible": 2, "unbounded": 3}[sol.status]
        assert kinds == {"boxed", "fixed", "lower-only"}
        assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) > 10


class TestSolveILP:
    def test_round_down_relaxation(self):
        ip = IntegerProgram(linear_program("max", [("x", 0, F(5, 2))], [1], []), frozenset({"x"}))
        sol = solve_ilp(ip)
        assert sol.objective_value == 2
        assert sol["x"] == 2

    def test_empty_integer_window(self):
        ip = IntegerProgram(
            linear_program("max", [("x", F(1, 3), F(2, 3))], [1], []), frozenset({"x"})
        )
        assert solve_ilp(ip).status == "infeasible"

    def test_integral_variables_need_finite_bounds(self):
        with pytest.raises(ValueError):
            IntegerProgram(linear_program("max", [("x", 0, None)], [1], []), frozenset({"x"}))
        with pytest.raises(ValueError):
            IntegerProgram(linear_program("max", [("x", 0, 1)], [1], []), frozenset({"y"}))

    def test_relaxation_bounds_minimization(self):
        rng = random.Random(99)
        for _ in range(40):
            ip = random_bounded_ilp(rng, max_vars=4, max_grid=256)
            relaxed = solve_lp(ip.base)
            integral = solve_ilp(ip)
            if integral.status != "optimal" or relaxed.status != "optimal":
                continue
            if ip.base.direction == "min":
                assert relaxed.objective_value <= integral.objective_value
            else:
                assert relaxed.objective_value >= integral.objective_value

    def test_agrees_with_grid_enumeration(self):
        rng = random.Random(2718)
        solved = 0
        for _ in range(60):
            ip = random_bounded_ilp(rng, max_vars=4, max_grid=512)
            expected = grid_solve_ilp(ip)
            got = solve_ilp(ip)
            if expected is None:
                assert got.status == "infeasible"
            else:
                assert got.status == "optimal"
                assert got.objective_value == expected
                solved += 1
        assert solved > 20

    def test_mixed_integer_continuous(self):
        lp = linear_program(
            "max",
            [("x", 0, 10), ("y", 0, None)],
            [1, 1],
            [([1, 2], "<=", F(15, 2)), ([0, 1], "<=", F(3, 4))],
        )
        sol = solve_ilp(IntegerProgram(lp, frozenset({"x"})))
        assert sol.status == "optimal"
        assert sol["x"].denominator == 1
        # x=7 forces y down to 1/4 but still beats x=6, y=3/4
        assert sol["x"] == 7
        assert sol["y"] == F(1, 4)
        assert sol.objective_value == F(29, 4)

    def test_branch_and_bound_keeps_the_sense(self, monkeypatch):
        # every node relaxation is the given maximisation, not a negated copy
        nodes = []

        def recorded(lp):
            nodes.append(lp.direction)
            return solve_lp(lp)

        monkeypatch.setattr(lp_module, "solve_lp", recorded)
        lp = linear_program("max", [("x", 0, 10), ("y", 0, 10)], [3, 2],
                            [([2, 2], "<=", 9), ([2, -2], "<=", 3)])
        sol = solve_ilp(IntegerProgram(lp, frozenset({"x", "y"})))
        assert (sol.objective_value, sol["x"], sol["y"]) == (10, 2, 2)
        assert len(nodes) > 1 and set(nodes) == {"max"}


class TestProgramTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            linear_program("down", [("x", 0, 1)], [1], [])
        with pytest.raises(ValueError):
            linear_program("min", [("x", 0, 1), ("x", 0, 1)], [1, 1], [])
        with pytest.raises(ValueError):
            linear_program("min", [("x", 0, 1)], [1, 2], [])
        with pytest.raises(ValueError):
            linear_program("min", [("x", 0, 1)], [1], [([1], "<", 0)])
        with pytest.raises(ValueError, match="constraint length does not match variable count"):
            linear_program("min", [("x", 0, 1), ("y", 0, 1)], [1, 1], [([1], "<=", 1)])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            frac(0.5)
        with pytest.raises(TypeError):
            linear_program("min", [("x", 0, 1)], [0.5], [])

    def test_floats_rejected_without_linear_program(self):
        x = Variable("x")
        programs = [
            lambda: LinearProgram("max", (x,), (F(1),), (Constraint((F(3),), "<=", 0.1),)),
            lambda: LinearProgram("max", (x,), (F(1),), (Constraint((0.5,), "<=", F(1)),)),
            lambda: LinearProgram("max", (x,), (0.5,)),
            lambda: LinearProgram("max", (Variable("x", F(0), 2.5),), (F(1),)),
            lambda: LinearProgram("max", (Variable("x", -0.5, None),), (F(1),)),
        ]
        for program in programs:
            with pytest.raises(TypeError):
                program()

    def test_lower_bound_required(self):
        programs = [
            lambda: Variable("x", None, 1),
            lambda: linear_program("min", [("x", None, None)], [1], []),
            lambda: LinearProgram("min", (Variable("x", lower=None),), (F(1),)),
        ]
        for program in programs:
            with pytest.raises(ValueError, match="finite lower bound"):
                program()

    def test_ints_become_fractions_without_linear_program(self):
        lp = LinearProgram(
            "max",
            (Variable("x", 0, 3), Variable("y", 0, None)),
            (1, 1),
            (Constraint((2, 3), "<=", 7), Constraint((1, -1), ">=", 0)),
        )
        assert all(type(a) is F for con in lp.constraints for a in (*con.coeffs, con.rhs))
        assert all(type(a) is F for v in lp.variables for a in (v.lower, v.upper) if a is not None)
        sol = solve_lp(lp)
        assert (sol.objective_value, sol["x"], sol["y"]) == (F(10, 3), 3, F(1, 3))
        assert type(sol.objective_value) is F and type(sol["y"]) is F


class TestPivotCounts:
    """Pinned `_Simplex._pivot` counts, so that engine changes show up as diffs."""

    @pytest.fixture
    def pivots(self, monkeypatch):
        calls = []
        pivot = lp_module._Simplex._pivot

        def counted(self, *args):
            calls.append(None)
            return pivot(self, *args)

        monkeypatch.setattr(lp_module._Simplex, "_pivot", counted)

        def count(solve):
            calls.clear()
            solve()
            return len(calls)

        return count

    def test_beale(self, pivots):
        assert pivots(lambda: solve_lp(BEALE)) == 6

    @pytest.mark.parametrize(
        "fixture, expected",
        [("cycle", [11, 5, 12, 8]), ("young_ranking14", [551, 147, 291, 131])],
    )
    def test_scheme_scores_on_fixtures(self, pivots, fixture, expected):
        profile = parse_profile((FIXTURES / f"{fixture}.elect").read_text())
        assert [pivots(lambda: scheme.scores(profile)) for scheme in SCHEMES.values()] == expected

    def test_scheme_scores_on_impartial_culture_grid(self, pivots):
        # The ic-distinct benchmark cells, seed 0: every order distinct.
        rng = random.Random(0)
        profiles = []
        for k, n in ((4, 15), (4, 23), (5, 15), (5, 31), (6, 15), (6, 31)):
            candidates = tuple("abcdef"[:k])
            orders = rng.sample(list(permutations(candidates)), n)
            profiles.append(Profile(candidates, tuple((order, 1) for order in orders)))
        totals = {
            name: sum(pivots(lambda: scheme.scores(p)) for p in profiles)
            for name, scheme in SCHEMES.items()
        }
        assert totals == {"dodgson": 1413, "young": 781, "dodgson-star": 1334, "young-star": 816}
