import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dodgsonyoung import reductions
from dodgsonyoung.cli import run
from oracles import parse_frac

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "score_young_ranking14_c.txt": ["score", "--scheme", "young", "--profile", "young_ranking14.elect", "--candidate", "c"],
    "score_youngstar_cycle_json.txt": ["score", "--scheme", "young-star", "--profile", "cycle.elect", "--format", "json"],
    "score_dodgson_cycle_text.txt": ["score", "--scheme", "dodgson", "--profile", "cycle.elect"],
    "score_dodgsonstar_cycle_json.txt": ["score", "--scheme", "dodgson-star", "--profile", "cycle.elect", "--format", "json"],
    "condorcet_cycle.txt": ["condorcet", "--profile", "cycle.elect"],
    "condorcet_single_json.txt": ["condorcet", "--profile", "single.elect", "--format", "json"],
    "winner_dodgson_cycle_A.txt": ["winner", "--scheme", "dodgson", "--profile", "cycle.elect", "--candidate", "A"],
    "winner_young_single_d.txt": ["winner", "--scheme", "young", "--profile", "single.elect", "--candidate", "d"],
    "ranking_youngstar_cycle.txt": ["ranking", "--scheme", "young-star", "--profile", "cycle.elect", "--candidate", "A", "--other", "B"],
    "reduce_sets_profile.txt": ["reduce", "--sets1", "fam3.sets", "--sets2", "fam3b.sets"],
    "reduce_graphs_mspc.txt": ["reduce", "--graph1", "star3.graph", "--graph2", "star4.graph", "--emit", "mspc"],
    "reduce_sets_json.txt": ["reduce", "--sets1", "fam3.sets", "--sets2", "fam3b.sets", "--format", "json"],
    "amplify_rotate.txt": ["amplify", "--profile", "rotate.elect", "--candidate", "c", "--other", "d"],
    "verify_star4_star3.txt": ["verify", "--graph1", "star4.graph", "--graph2", "star3.graph"],
    "verify_star3_star4_json.txt": ["verify", "--graph1", "star3.graph", "--graph2", "star4.graph", "--format", "json"],
    "convergence_cycle.txt": ["convergence", "--scheme", "dodgson-star", "--profile", "cycle.elect", "--candidate", "A", "--q", "1,2,4,8"],
    "convergence_youngstar_json.txt": ["convergence", "--scheme", "young-star", "--profile", "cycle.elect", "--candidate", "A", "--q", "1,2,4", "--format", "json"],
}


def _expand(argv):
    known = {p.name for p in FIXTURES.iterdir()}
    return [str(FIXTURES / arg) if arg in known else arg for arg in argv]


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_CASES))
def test_golden_outputs_are_byte_identical(golden_name, capsys):
    argv = _expand(GOLDEN_CASES[golden_name])
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first == (GOLDEN / golden_name).read_text()


def test_huge_multiplicity_line_answers_at_once(tmp_path, capsys):
    # not in GOLDEN_CASES, which the cli-chain benchmark workload replays
    huge = tmp_path / "huge.elect"
    huge.write_text("candidates: a b\nvoter 99999999999999: a > b\n")
    cases = [
        (["score", "--scheme", "dodgson"], "a  0\nb  50000000000000\n"),
        (["score", "--scheme", "young"], "a  99999999999999\nb  0\n"),
        (["winner", "--scheme", "dodgson", "--candidate", "b"], "false\n"),
    ]
    for argv, expected in cases:
        assert run(argv + ["--profile", str(huge)]) == 0
        assert capsys.readouterr().out == expected


def test_kappa_is_computed_once_per_family(monkeypatch, capsys):
    calls = []
    kappa = reductions.kappa

    def counted(family):
        calls.append(family)
        return kappa(family)

    monkeypatch.setattr(reductions, "kappa", counted)
    for argv in (
        ["verify", "--graph1", "star3.graph", "--graph2", "star4.graph", "--format", "json"],
        ["reduce", "--sets1", "fam3.sets", "--sets2", "fam3b.sets", "--format", "json"],
    ):
        calls.clear()
        assert run(_expand(argv)) == 0
        assert len(calls) == 2, argv


class TestExitCodes:
    def test_missing_file_is_domain_error(self, capsys):
        assert run(["condorcet", "--profile", str(FIXTURES / "nope.elect")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_profile(self, capsys):
        assert run(["condorcet", "--profile", str(FIXTURES / "bad.elect")]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_unknown_candidate(self, capsys):
        assert run(["score", "--scheme", "young", "--profile", str(FIXTURES / "cycle.elect"),
                    "--candidate", "Z"]) == 1
        assert "unknown candidate" in capsys.readouterr().err

    def test_guard_violation(self, capsys, tmp_path):
        assert run(["reduce", "--graph1", str(FIXTURES / "star3.graph"),
                    "--graph2", str(FIXTURES / "star3.graph")]) == 0
        capsys.readouterr()
        # P3-like instance with kappa <= 2 must be refused
        p3 = tmp_path / "p3.graph"
        p3.write_text("vertices: a b c\nedge: a b\nedge: b c\n")
        assert run(["verify", "--graph1", str(p3), "--graph2", str(FIXTURES / "star3.graph")]) == 1
        assert "exceed 2" in capsys.readouterr().err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run(["score", "--scheme", "borda", "--profile", "x"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            run(["reduce", "--graph1", "a", "--sets1", "b"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--graph1", "a", "--sets1", "b"], "give either --graph1/--graph2 or --sets1/--sets2"),
            (["--graph1", "g"], "both --graph1 and --graph2 are required"),
            (["--sets1", "s"], "both --sets1 and --sets2 are required"),
        ],
    )
    def test_reduce_pair_errors_show_reduce_usage(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            run(["reduce", *argv])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage: dodgsonyoung reduce")
        assert stderr.endswith(f"\ndodgsonyoung reduce: error: {message}\n")

    @pytest.mark.parametrize(
        "q,message",
        [("1,x", "bad replication factor 'x'"), ("0", "replication factors must be positive, got 0")],
    )
    def test_bad_replication_factors(self, q, message, capsys):
        assert run(["convergence", "--scheme", "young-star", "--profile",
                    str(FIXTURES / "cycle.elect"), "--candidate", "A", "--q", q]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_false_answers_still_exit_zero(self, capsys):
        code = run(["winner", "--scheme", "young", "--profile", str(FIXTURES / "single.elect"),
                    "--candidate", "d"])
        assert code == 0
        assert capsys.readouterr().out == "false\n"

    def test_convergence_has_no_voter_cap(self, capsys, tmp_path):
        assert run(["convergence", "--scheme", "young-star", "--profile",
                    str(FIXTURES / "cycle.elect"), "--candidate", "A", "--q", "200"]) == 0
        assert capsys.readouterr().out == "q      score  score/q\n200    399    399/200\nlimit         2/1\n"
        cycle300 = tmp_path / "cycle300.elect"
        cycle300.write_text("candidates: A B C\nvoter 100: A > B > C\n"
                            "voter 100: B > C > A\nvoter 100: C > A > B\n")
        assert run(["convergence", "--scheme", "dodgson-star", "--profile", str(cycle300),
                    "--candidate", "A"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "limit         50/1"


class TestEmitReport:
    """The score report, as every verb prints it, through ``run``."""

    @staticmethod
    def score(capsys, *argv):
        assert run(["score", "--profile", str(FIXTURES / "cycle.elect"), *argv]) == 0
        return capsys.readouterr().out

    def test_json_renders_rationals_as_strings(self, capsys):
        # Young* of every cycle candidate is the integral rational 2
        out = self.score(capsys, "--scheme", "young-star", "--format", "json")
        assert out == '{"A": "2/1", "B": "2/1", "C": "2/1"}\n'

    def test_text_json_value_identity(self, capsys):
        for scheme in ("dodgson", "young", "dodgson-star", "young-star"):
            text = self.score(capsys, "--scheme", scheme)
            data = json.loads(self.score(capsys, "--scheme", scheme, "--format", "json"))
            parsed_text = {}
            for line in text.splitlines():
                name, value = line.split()
                parsed_text[name] = parse_frac(value)
            assert parsed_text == {name: parse_frac(str(v)) for name, v in data.items()}

    def test_single_candidate_prints_bare_value(self, capsys):
        assert self.score(capsys, "--scheme", "dodgson", "--candidate", "A") == "1\n"
        assert self.score(capsys, "--scheme", "dodgson-star", "--candidate", "A") == "1/2\n"
        out = self.score(capsys, "--scheme", "dodgson", "--candidate", "A", "--format", "json")
        assert out == '{"A": 1}\n'

    def test_full_report_without_filter(self, capsys):
        assert run(["score", "--scheme", "young", "--profile", str(FIXTURES / "cycle.elect")]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == ["A", "B", "C"]


@pytest.mark.parametrize("scheme", ["dodgson", "young", "dodgson-star", "young-star"])
def test_decision_verbs_print_json_booleans(scheme, capsys):
    # not in GOLDEN_CASES, which the cli-chain benchmark workload replays
    cycle = str(FIXTURES / "cycle.elect")
    single = str(FIXTURES / "single.elect")
    for argv in (
        ["winner", "--profile", cycle, "--candidate", "A"],
        ["winner", "--profile", single, "--candidate", "d"],
        ["ranking", "--profile", cycle, "--candidate", "A", "--other", "B"],
        ["ranking", "--profile", single, "--candidate", "e", "--other", "c"],
    ):
        assert run(argv + ["--scheme", scheme]) == 0
        text = capsys.readouterr().out
        assert text in ("true\n", "false\n")
        assert run(argv + ["--scheme", scheme, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) is (text == "true\n")


def test_amplify_refuses_a_huge_electorate(tmp_path, capsys):
    # a third candidate makes amplify rotate it through 10^14 voters
    huge = tmp_path / "huge3.elect"
    huge.write_text("candidates: a b c\nvoter 99999999999999: a > b > c\n")
    assert run(["amplify", "--profile", str(huge), "--candidate", "a", "--other", "b"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: amplify capped at")


def test_module_entry_point_runs():
    # pytest's `pythonpath` setting does not reach a child process
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "dodgsonyoung", "condorcet", "--profile",
         str(FIXTURES / "single.elect")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "c\n"
