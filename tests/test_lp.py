import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from dodgsonyoung import SCHEMES, parse_profile
from dodgsonyoung import lp as lp_module
from dodgsonyoung.exact import (
    dodgson_certificate,
    dodgson_rows,
    dodgson_score_with_moves,
    young_certificate,
    young_rows,
)
from dodgsonyoung.homogeneous import dodgson_star_program, dodgson_star_score, young_star_program
from dodgsonyoung.lp import (
    Constraint,
    LinearProgram,
    Variable,
    dual_bound,
    frac,
    linear_program,
    solve_ilp,
    solve_lp,
)
from oracles import (
    dense,
    grid_solve_ilp,
    ic_grid,
    random_bounded_ilp,
    random_lp,
    scipy_linprog,
    sparse,
)

FIXTURES = Path(__file__).parent / "fixtures"
STAR_PROGRAMS = {"dodgson-star": dodgson_star_program, "young-star": young_star_program}
CERTIFICATES = {"dodgson-star": dodgson_certificate, "young-star": young_certificate}


def young_program(profile, c):
    """The exact Young keep program of c, at the strict threshold."""
    return linear_program("max", *young_rows(profile, c, weak=False))



# Beale's cycling example, boxed at 10: the box cuts off no optimum.
BEALE = linear_program(
    "min",
    [("x1", 0, 10), ("x2", 0, 10), ("x3", 0, 10), ("x4", 0, 10)],
    [F(-3, 4), 150, F(-1, 50), 6],
    [
        (sparse([F(1, 4), -60, F(-1, 25), 9]), "<=", 0),
        (sparse([F(1, 2), -90, F(-1, 50), 3]), "<=", 0),
        (sparse([0, 0, 1, 0]), "<=", 1),
    ],
)
# The LP dual of BEALE: min w3 s.t. A^T w >= -c, w >= 0.  The start is dual
# degenerate, since w1 and w2 cost nothing.  Boxed at 10, as BEALE.
TRANSPOSED_BEALE = linear_program(
    "min",
    [("w1", 0, 10), ("w2", 0, 10), ("w3", 0, 10)],
    [0, 0, 1],
    [
        (sparse([F(1, 4), F(1, 2), 0]), ">=", F(3, 4)),
        (sparse([-60, -90, 0]), ">=", -150),
        (sparse([F(-1, 25), F(-1, 50), 1]), ">=", F(1, 50)),
        (sparse([9, 3, 0]), ">=", -6),
    ],
)


def check_feasible(lp, assignment):
    for var in lp.variables:
        val = assignment[var.name]
        assert var.lower <= val <= var.upper
    for con in lp.constraints:
        lhs = sum(a * assignment[v.name] for a, v in zip(dense(con, len(lp.variables)), lp.variables))
        if con.relation == "<=":
            assert lhs <= con.rhs
        else:
            assert lhs >= con.rhs


class TestSolveLP:
    def test_box_maximum(self):
        sol = solve_lp(linear_program("max", [("x", 0, 3)], [1], []))
        assert sol.status == "optimal"
        assert sol.objective_value == 3
        assert sol["x"] == 3

    def test_infeasible_pair(self):
        lp = linear_program("min", [("x", 0, 5)], [1], [(sparse([1]), ">=", 2), (sparse([1]), "<=", 1)])
        assert solve_lp(lp).status == "infeasible"

    def test_crossed_bounds_infeasible(self):
        assert solve_lp(linear_program("min", [("x", 2, 1)], [1], [])).status == "infeasible"

    def test_fixed_variables_only(self):
        sol = solve_lp(linear_program("min", [("x", 2, 2)], [3], [(sparse([1]), "<=", 2)]))
        assert sol.status == "optimal"
        assert sol.objective_value == 6
        bad = solve_lp(linear_program("min", [("x", 2, 2)], [3], [(sparse([1]), "<=", 1)]))
        assert bad.status == "infeasible"

    def test_degenerate_equalities(self):
        lp = linear_program(
            "min",
            [("x", 0, 10), ("y", 0, 10)],
            [1, 1],
            # dependent rows, both tight at the optimum
            [(sparse([1, 1]), ">=", 4), (sparse([2, 2]), ">=", 8)],
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
            [(sparse([1, 1, 0]), "<=", 1), (sparse([1, 1, 1]), ">=", F(1, 2))],
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

    def test_transposed_beale_is_dual_degenerate_and_terminates(self):
        lp = TRANSPOSED_BEALE
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == F(1, 20)
        check_feasible(lp, sol.assignment)

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

    def test_bound_flips_against_scipy(self, monkeypatch):
        # Boxes at least 2 wide, so that the ratio test can pass a column by
        # flipping it; every flip goes through `_Simplex._move`.
        scipy_opt = pytest.importorskip("scipy.optimize")
        flips = []
        move = lp_module._Simplex._move

        def counted(self, moves):
            flips.extend(moves)
            return move(self, moves)

        monkeypatch.setattr(lp_module._Simplex, "_move", counted)
        rng = random.Random(2605)
        checked = 0
        for _ in range(60):
            lp = random_lp(rng, max_vars=8, max_rows=6, min_width=2)
            sol = solve_lp(lp)
            sense, res = scipy_linprog(scipy_opt, lp)
            if sol.status == "optimal":
                assert res.status == 0
                assert abs(sense * res.fun - float(sol.objective_value)) < 1e-7
                check_feasible(lp, sol.assignment)
                checked += 1
            else:
                assert res.status == 2
        assert checked > 20
        assert len(flips) == 45

    def test_duals_that_do_not_prove_the_optimum_raise(self, monkeypatch):
        # The slacks' reduced costs are the multipliers that prove a simplex
        # optimum; raising one breaks the proof.
        solve = lp_module._Simplex.solve

        def tampered(self):
            done = solve(self)
            self.z[len(MIN_LP.variables)] += 1
            return done

        monkeypatch.setattr(lp_module._Simplex, "solve", tampered)
        with pytest.raises(RuntimeError, match="internal: the final basis's duals"):
            solve_lp(MIN_LP)


# min x1 + 2 x2, x1 + x2 >= 3, x1 <= 2 (a row), x1 in [0, 4], x2 in [1, 5]:
# the optimum is 4 at (2, 1).
MIN_LP = linear_program(
    "min",
    [("x1", 0, 4), ("x2", 1, 5)],
    [1, 2],
    [(sparse([1, 1]), ">=", 3), (sparse([1, 0]), "<=", 2)],
)
# max 3x + 2y, x + y <= 4, x + 3y <= 6, 2x >= 6, x in [0, 3], y in [0, 4]:
# the optimum is 11 at (3, 1).
MAX_LP = linear_program(
    "max",
    [("x", 0, 3), ("y", 0, 4)],
    [3, 2],
    [(sparse([1, 1]), "<=", 4), (sparse([1, 3]), "<=", 6), (sparse([2, 0]), ">=", 6)],
)


class TestDualBound:
    def test_min_program_by_hand(self):
        # y = (2, 1): the '<=' row reads -x1 >= -2, so the reduced costs are
        # (1, 2) - 2 (1, 1) + (1, 0) = (0, 0) and the bound is 2*3 - 2 = 4.
        assert dual_bound(MIN_LP, [2, 1]) == 4
        # y = (1, 0): reduced costs (0, 1), and x2 >= 1 adds 1: 3 + 1 = 4.
        assert dual_bound(MIN_LP, [1, 0]) == 4
        # y = (2, 0): reduced costs (-1, 0), and x1 <= 4 takes 4: 6 - 4 = 2.
        assert dual_bound(MIN_LP, [2, 0]) == 2
        # y = 0: the costs themselves, at the lower bounds: 0 + 2*1 = 2.
        assert dual_bound(MIN_LP, [0, 0]) == 2

    def test_max_program_by_hand(self):
        # 3x + 2y = 2 (x + y) + x <= 2*4 + 3 = 11
        assert dual_bound(MAX_LP, [2, 0, 0]) == 11
        # 3x + 2y <= 3 (x + y) = 12 (y's reduced cost -1 sits at its lower bound 0)
        assert dual_bound(MAX_LP, [3, 0, 0]) == 12
        # 3x + 2y = (x + 3y) * 2/3 + x * 7/3 <= 4 + 7 = 11
        assert dual_bound(MAX_LP, [0, F(2, 3), 0]) == 11

    def test_none_cases(self):
        assert dual_bound(MIN_LP, [-1, 0]) is None  # a negative multiplier
        # reduced costs (-2, -1) take both upper bounds: 9 - 2*4 - 5 = -4
        assert dual_bound(MIN_LP, [3, 0]) == -4
        # 3x + 2y <= 3x + 2y + 2x - 6 = 5x + 2y - 6 <= 15 + 8 - 6 = 17
        assert dual_bound(MAX_LP, [0, 0, 1]) == 17
        # 3x + 2y = (x + y) + 2x + y <= 4 + 6 + 4 = 14
        assert dual_bound(MAX_LP, [1, 0, 0]) == 14
        with pytest.raises(ValueError):
            dual_bound(MIN_LP, [1])


class TestCertificate:
    def test_meeting_certificate_is_returned_without_a_pivot(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_Simplex", None)  # building one would fail
        sol = solve_lp(MAX_LP, ([3, 1], [2, 0, 0]))
        assert (sol.status, sol.objective_value, sol.assignment) == ("optimal", 11, {"x": 3, "y": 1})
        assert solve_lp(MIN_LP, ([2, 1], [1, 0])).objective_value == 4

    @pytest.mark.parametrize(
        "certificate",
        [([3, 1], [3, 0, 0]), ([3, 1], [-1, 0, 0]), ([3, F(1, 2)], [2, 0, 0])],
        ids=["loose-bound", "no-bound", "suboptimal-point"],
    )
    def test_other_certificates_fall_back_to_the_simplex(self, certificate):
        assert solve_lp(MAX_LP, certificate) == solve_lp(MAX_LP)

    def test_infeasible_point_raises(self):
        with pytest.raises(RuntimeError, match="internal: "):
            solve_lp(MIN_LP, ([0, 1], [1, 0]))
        with pytest.raises(RuntimeError, match="internal: "):
            solve_lp(MAX_LP, ([4, 0], [2, 0, 0]))

    @pytest.mark.parametrize("point", [[3], [3, 1, 0]], ids=["short", "long"])
    def test_point_of_the_wrong_length_raises(self, point):
        with pytest.raises(ValueError, match="one value per variable expected"):
            solve_lp(MAX_LP, (point, [2, 0, 0]))


class TestSolveILP:
    def test_round_down_relaxation(self):
        sol = solve_ilp(linear_program("max", [("x", 0, F(5, 2))], [1], []))
        assert sol.objective_value == 2
        assert sol["x"] == 2

    def test_empty_integer_window(self):
        lp = linear_program("max", [("x", F(1, 3), F(2, 3))], [1], [])
        assert solve_ilp(lp).status == "infeasible"

    def test_relaxation_bounds_minimization(self):
        rng = random.Random(99)
        for _ in range(40):
            lp = random_bounded_ilp(rng, max_vars=4, max_grid=256)
            relaxed = solve_lp(lp)
            integral = solve_ilp(lp)
            if integral.status != "optimal" or relaxed.status != "optimal":
                continue
            if lp.direction == "min":
                assert relaxed.objective_value <= integral.objective_value
            else:
                assert relaxed.objective_value >= integral.objective_value

    def test_agrees_with_grid_enumeration(self):
        rng = random.Random(2718)
        solved = 0
        for _ in range(60):
            lp = random_bounded_ilp(rng, max_vars=4, max_grid=512)
            expected = grid_solve_ilp(lp)
            got = solve_ilp(lp)
            if expected is None:
                assert got.status == "infeasible"
            else:
                assert got.status == "optimal"
                assert got.objective_value == expected
                solved += 1
        assert solved > 20

    def test_mixed_integer_continuous(self):
        # With y continuous the optimum would be 29/4 at x = 7, y = 1/4; an
        # integral y <= 3/4 is 0, so the optimum is 7 at x = 7.
        lp = linear_program(
            "max",
            [("x", 0, 10), ("y", 0, 10)],
            [1, 1],
            [(sparse([1, 2]), "<=", F(15, 2)), (sparse([0, 1]), "<=", F(3, 4))],
        )
        sol = solve_ilp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == grid_solve_ilp(lp) == 7
        assert (sol["x"], sol["y"]) == (7, 0)
        assert sol["y"].denominator == 1

    def test_branches_on_a_variable_the_objective_ignores(self):
        # max x with x <= 2y and 2y <= 3: the relaxation takes y = 3/2, which
        # costs nothing, so only branching on y finds the optimum x = 2.
        lp = linear_program("max", [("x", 0, 10), ("y", 0, 10)], [1, 0],
                            [({0: 1, 1: -2}, "<=", 0), ({1: 2}, "<=", 3)])
        relaxed = solve_lp(lp)
        assert (relaxed.objective_value, relaxed["x"], relaxed["y"]) == (3, 3, F(3, 2))
        sol = solve_ilp(lp)
        assert (sol.objective_value, sol["x"], sol["y"]) == (2, 2, 1)
        assert grid_solve_ilp(lp) == 2

    @staticmethod
    def counted_lp_calls(monkeypatch):
        calls = []

        def counted(lp, *certificate):
            calls.append(certificate)
            return solve_lp(lp, *certificate)

        monkeypatch.setattr(lp_module, "solve_lp", counted)
        return calls

    def test_certified_integral_root_ends_the_search(self, monkeypatch):
        lp = linear_program("max", [("x", 0, 10), ("y", 0, 10)], [1, 1], [(sparse([1, 1]), "<=", 4)])
        calls = self.counted_lp_calls(monkeypatch)
        pivots = []
        monkeypatch.setattr(lp_module._Simplex, "_pivot", lambda *args: pivots.append(args))
        sol = solve_ilp(lp, ([4, 0], [1]))
        assert (sol.objective_value, sol["x"], sol["y"]) == (4, 4, 0)
        assert calls == [(([4, 0], [1]),)] and pivots == []

    # Its root optimum is x = 3, y = 3/2 of value 12, which the multipliers
    # 5/4 and 1/4 prove; its integer optimum is 10 at x = y = 2.
    FRACTIONAL_ROOT = linear_program("max", [("x", 0, 10), ("y", 0, 10)], [3, 2],
                                     [(sparse([2, 2]), "<=", 9), (sparse([2, -2]), "<=", 3)])

    def test_certified_fractional_root_still_branches(self, monkeypatch):
        lp = self.FRACTIONAL_ROOT
        certificate = ([3, F(3, 2)], [F(5, 4), F(1, 4)])
        assert dual_bound(lp, certificate[1]) == 12
        calls = self.counted_lp_calls(monkeypatch)
        sol = solve_ilp(lp, certificate)
        # only the root call gets the certificate; every other node gets the
        # simplex it starts from
        assert len(calls) == 9 and calls[0] == (certificate,)
        assert all(type(start) is lp_module._Simplex for start, in calls[1:])
        assert sol == solve_ilp(lp)
        assert (sol.objective_value, sol["x"], sol["y"]) == (10, 2, 2)

    @pytest.mark.parametrize(
        "certificate",
        [
            ([2, 2], [F(5, 4), F(1, 4)]),  # a feasible point below the bound
            ([3, F(3, 2)], [1, 1]),  # the optimum with multipliers proving too little
            ([0, 0], [0, 0]),
        ],
    )
    def test_wrong_certificate_gives_the_same_answer(self, certificate):
        assert solve_ilp(self.FRACTIONAL_ROOT, certificate) == solve_ilp(self.FRACTIONAL_ROOT)

    # A weak lift program (9 voters, 5 orders) whose rival rows need 3/2 and
    # 9/2 lifts: integer rows over integer columns, so each right-hand side
    # rounds up, and the rounded root is integral.  Unrounded, branch and
    # bound took 4,545 relaxations.
    HALF_VOTES = parse_profile(
        "candidates: a b c d e f\nvoter: e>b>d>c>f>a\nvoter 2: d>b>c>f>e>a\n"
        "voter: e>f>b>d>c>a\nvoter 2: c>f>e>d>b>a\nvoter 3: e>c>f>a>b>d\n"
    )

    def test_half_vote_rows_are_rounded_before_branching(self, monkeypatch):
        lp = linear_program("min", *dodgson_rows(self.HALF_VOTES, "a", weak=True))
        assert (len(lp.variables), len(lp.constraints)) == (23, 10)
        assert {con.rhs for con in lp.constraints} >= {F(3, 2), F(9, 2)}
        # The greedy's point fills a row of 3/2 exactly, so the rounded rows
        # refuse it: a rounded program drops the root certificate.
        certificate = dodgson_certificate(lp)
        assert any(getattr(x, "denominator", 1) == 2 for x in certificate[0])
        calls = self.counted_lp_calls(monkeypatch)
        sol = solve_ilp(lp, certificate)
        assert (sol.status, sol.objective_value) == ("optimal", 19)
        assert len(calls) == 1 and type(calls[0][0]) is lp_module._Simplex
        check_feasible(lp, sol.assignment)

    def test_rounding_keeps_fractional_rows(self):
        # Rows with a fractional coefficient keep their right-hand side.
        lp = linear_program("max", [("x", 0, 10)], [1], [({0: F(1, 2)}, "<=", F(3, 2))])
        assert solve_ilp(lp)["x"] == 3

    def test_branch_and_bound_keeps_the_sense(self, monkeypatch):
        # every node relaxation is the given maximisation, not a negated copy
        nodes = []

        def recorded(lp, certificate=None):
            nodes.append(lp.direction)
            return solve_lp(lp, certificate)

        monkeypatch.setattr(lp_module, "solve_lp", recorded)
        lp = linear_program("max", [("x", 0, 10), ("y", 0, 10)], [3, 2],
                            [(sparse([2, 2]), "<=", 9), (sparse([2, -2]), "<=", 3)])
        sol = solve_ilp(lp)
        assert (sol.objective_value, sol["x"], sol["y"]) == (10, 2, 2)
        assert len(nodes) == 9 and set(nodes) == {"max"}

    @pytest.mark.parametrize("certificate, cold", [(None, 1), (([3, F(3, 2)], [F(5, 4), F(1, 4)]), 2)],
                             ids=["root", "certified-root"])
    def test_children_start_from_their_parents_simplex(self, monkeypatch, certificate, cold):
        # Only the root builds a slack-basis simplex, or, when a certificate
        # settled the root without one, the root's two children.
        builds = []
        start = lp_module._start

        def counted(lp):
            builds.append(lp)
            return start(lp)

        monkeypatch.setattr(lp_module, "_start", counted)
        sol = solve_ilp(self.FRACTIONAL_ROOT, certificate)
        assert (sol.objective_value, sol["x"], sol["y"]) == (10, 2, 2)
        assert len(builds) == cold


class TestProgramTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            linear_program("down", [("x", 0, 1)], [1], [])
        with pytest.raises(ValueError):
            linear_program("min", [("x", 0, 1), ("x", 0, 1)], [1, 1], [])
        with pytest.raises(ValueError):
            linear_program("min", [("x", 0, 1)], [1, 2], [])
        for relation in ("<", "="):
            with pytest.raises(ValueError, match="bad relation"):
                linear_program("min", [("x", 0, 1)], [1], [({0: 1}, relation, 0)])
        with pytest.raises(ValueError, match="constraint column 1 out of range 0..0"):
            linear_program("min", [("x", 0, 1)], [1], [({1: 1}, "<=", 1)])

    def test_dense_and_mapping_rows_build_equal_constraints(self):
        # `oracles.sparse` turns a dense row into the mapping a row is built from
        con = Constraint(sparse([0, 2, 0, F(-1, 3)]), "<=", 3)
        assert con.coeffs == ((1, F(2)), (3, F(-1, 3)))
        assert all(type(a) is F for _, a in con.coeffs)
        assert con == Constraint({3: F(-1, 3), 1: 2, 0: 0}, "<=", 3)
        assert dense(con, 4) == [0, 2, 0, F(-1, 3)]
        variables = [(name, 0, 1) for name in "wxyz"]
        from_dense = linear_program("min", variables, [1] * 4, [(sparse([0, 2, 0, F(-1, 3)]), "<=", 3)])
        assert from_dense == linear_program("min", variables, [1] * 4, [({1: 2, 3: F(-1, 3)}, "<=", 3)])

    def test_rows_must_be_mappings(self):
        for coeffs in ([1, 0], (1, 0), [], ((0, 1),)):
            with pytest.raises(TypeError, match="mapping"):
                Constraint(coeffs, "<=", 1)
            with pytest.raises(TypeError, match="mapping"):
                linear_program("min", [("x", 0, 1), ("y", 0, 1)], [1, 1], [(coeffs, "<=", 1)])

    def test_row_input_is_checked_before_zeros_drop(self):
        for coeffs in ({0: 0.0}, {0: 0.0, 1: 1}, sparse([0.0, 1])):
            with pytest.raises(TypeError):
                Constraint(coeffs, "<=", 1)
            with pytest.raises(TypeError):
                linear_program("min", [("x", 0, 1), ("y", 0, 1)], [1, 1], [(coeffs, "<=", 1)])
        variables = [("x", 0, 1), ("y", 0, 1)]
        for coeffs in ({2: 1}, {-1: 1}, {"x": 1}, {True: 1}):
            with pytest.raises(ValueError):
                linear_program("min", variables, [1, 1], [(coeffs, "<=", 1)])
        x, y = Variable("x", 0, 1), Variable("y", 0, 1)
        with pytest.raises(ValueError):
            LinearProgram("min", (x, y), (F(1), F(1)), (Constraint({2: 1}, "<=", 1),))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            frac(0.5)
        with pytest.raises(TypeError):
            linear_program("min", [("x", 0, 1)], [0.5], [])

    def test_floats_rejected_without_linear_program(self):
        x = Variable("x", 0, 1)
        programs = [
            lambda: LinearProgram("max", (x,), (F(1),), (Constraint({0: F(3)}, "<=", 0.1),)),
            lambda: LinearProgram("max", (x,), (F(1),), (Constraint({0: 0.5}, "<=", F(1)),)),
            lambda: LinearProgram("max", (x,), (0.5,)),
            lambda: LinearProgram("max", (Variable("x", F(0), 2.5),), (F(1),)),
            lambda: LinearProgram("max", (Variable("x", -0.5, 1),), (F(1),)),
        ]
        for program in programs:
            with pytest.raises(TypeError):
                program()

    def test_bounds_required(self):
        programs = [
            lambda: Variable("x", None, 1),
            lambda: linear_program("min", [("x", None, None)], [1], []),
            lambda: LinearProgram("min", (Variable("x", lower=None, upper=1),), (F(1),)),
        ]
        for program in programs:
            with pytest.raises(ValueError, match="finite lower bound"):
                program()
        programs = [
            lambda: Variable("x", 0, None),
            lambda: linear_program("min", [("x", 0, None)], [1], []),
            lambda: LinearProgram("min", (Variable("x", lower=0, upper=None),), (F(1),)),
        ]
        for program in programs:
            with pytest.raises(ValueError, match="finite upper bound"):
                program()

    def test_ints_become_fractions_without_linear_program(self):
        lp = LinearProgram(
            "max",
            (Variable("x", 0, 3), Variable("y", 0, 5)),
            (1, 1),
            (Constraint(sparse((2, 3)), "<=", 7), Constraint(sparse((1, -1)), ">=", 0)),
        )
        assert all(type(a) is F for con in lp.constraints for a in (*dense(con, 2), con.rhs))
        assert all(type(a) is F for v in lp.variables for a in (v.lower, v.upper))
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

    @staticmethod
    def engine_pivots(pivots, name, profile):
        """Pivots of one scheme's scores, a starred program solved by plain
        `solve_lp` and the exact Young program by plain `solve_ilp`, with no
        certificate, so that the pin counts the engine."""
        if name in STAR_PROGRAMS:
            build = STAR_PROGRAMS[name]
            return pivots(lambda: [solve_lp(build(profile, c)) for c in profile.candidates])
        if name == "young":
            return pivots(lambda: [solve_ilp(young_program(profile, c)) for c in profile.candidates])
        return pivots(lambda: SCHEMES[name].scores(profile))

    def test_beale(self, pivots):
        assert pivots(lambda: solve_lp(BEALE)) == 2

    def test_transposed_beale_takes_bland_steps(self, pivots, monkeypatch):
        # Its degenerate pivots make the steps after them Bland steps: 4 of
        # the 6.  Without that fallback, largest-violation pricing cycles on
        # this program, so the recorder stops it.
        steps = []
        leaving_row = lp_module._Simplex._leaving_row

        def recorded(self, bland):
            r = leaving_row(self, bland)
            if r >= 0:
                steps.append(bland)
                assert len(steps) <= 50, "no optimum after 50 steps"
            return r

        monkeypatch.setattr(lp_module._Simplex, "_leaving_row", recorded)
        assert pivots(lambda: solve_lp(TRANSPOSED_BEALE)) == 6
        assert steps == [False, True, True, True, True, False]

    @pytest.mark.parametrize(
        "fixture, expected",
        [("cycle", [3, 3, 3, 3]), ("young_ranking14", [111, 14, 24, 12])],
    )
    def test_scheme_scores_on_fixtures(self, pivots, fixture, expected):
        profile = parse_profile((FIXTURES / f"{fixture}.elect").read_text())
        assert [self.engine_pivots(pivots, name, profile) for name in SCHEMES] == expected

    def test_scheme_scores_on_impartial_culture_grid(self, pivots):
        totals = {
            name: sum(self.engine_pivots(pivots, name, p) for p in ic_grid(0)) for name in SCHEMES
        }
        assert totals == {"dodgson": 92, "young": 46, "dodgson-star": 95, "young-star": 39}

    def test_certified_starred_scores_make_no_pivot(self, pivots):
        # The greedy certificates settle every starred score of these inputs,
        # so the starred schemes never build a simplex for them.
        profiles = [parse_profile((FIXTURES / f"{f}.elect").read_text()) for f in ("cycle", "young_ranking14")]
        profiles += ic_grid(0)
        for name in STAR_PROGRAMS:
            assert [pivots(lambda: SCHEMES[name].scores(p)) for p in profiles] == [0] * 8

    def test_certified_exact_young_scores_make_no_pivot(self, pivots):
        # The greedy certificate of the strict keep program settles the root
        # relaxation with an integral point, so branch and bound ends there.
        profiles = [parse_profile((FIXTURES / f"{f}.elect").read_text()) for f in ("cycle", "young_ranking14")]
        profiles += ic_grid(0)
        assert [pivots(lambda: SCHEMES["young"].scores(p)) for p in profiles] == [0] * 8

    def test_condorcet_winners_get_empty_programs(self, pivots):
        # With no short rival there is no lift to keep: no column, no row, and
        # a score of 0 with no pivot.  a beats each rival 2 to 1 while heading
        # no order; c ties d, so it is a weak winner only.
        strict = parse_profile(
            "candidates: a b c d\nvoter: b > a > c > d\nvoter: c > a > d > b\nvoter: d > a > b > c\n"
        )
        weak = parse_profile("candidates: c d\nvoter: c > d\nvoter: d > c\n")
        assert linear_program("min", *dodgson_rows(strict, "a", weak=False)) == linear_program("min", [], [])
        assert dodgson_star_program(weak, "c") == linear_program("min", [], [])
        assert pivots(lambda: dodgson_score_with_moves(strict, "a")) == 0
        assert dodgson_score_with_moves(strict, "a") == (0, ())
        assert pivots(lambda: dodgson_star_score(weak, "c")) == 0
        assert dodgson_star_score(weak, "c") == 0
        # At the strict threshold d is short, so c's exact program has a column.
        assert dodgson_rows(weak, "c", weak=False)[0]

    @pytest.mark.parametrize("name", STAR_PROGRAMS)
    def test_corrupted_certificate_falls_back_to_the_simplex(self, pivots, name):
        build, certify = STAR_PROGRAMS[name], CERTIFICATES[name]
        profile = parse_profile((FIXTURES / "young_ranking14.elect").read_text())
        for c in profile.candidates:
            program = build(profile, c)
            point, duals = certify(program)
            r = next((r for r, y in enumerate(duals) if y), None)
            if r is None:
                continue  # a weak Condorcet winner: every multiplier is 0
            duals[r] = 0 if name == "dodgson-star" else 2
            want = solve_lp(program).objective_value
            assert pivots(lambda: solve_lp(program, (point, duals))) > 0
            assert solve_lp(program, (point, duals)).objective_value == want

    def test_no_pivot_when_the_cost_preferred_start_satisfies_every_row(self, pivots):
        # Young* of a keeps every voter: each column starts at its upper bound
        # (the count), where both ">= 0" rival rows already hold.
        profile = parse_profile("candidates: a b c\nvoter 3: a > b > c\nvoter 2: b > c > a\n")
        program = young_star_program(profile, "a")
        assert pivots(lambda: solve_lp(program)) == 0
        assert solve_lp(program).objective_value == 5
