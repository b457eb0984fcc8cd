import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from dodgsonyoung.cli import emit_report, run
from dodgsonyoung.exact import ScoreReport
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

    def test_false_answers_still_exit_zero(self, capsys):
        code = run(["winner", "--scheme", "young", "--profile", str(FIXTURES / "single.elect"),
                    "--candidate", "d"])
        assert code == 0
        assert capsys.readouterr().out == "false\n"

    def test_convergence_cap(self, capsys):
        code = run(["convergence", "--scheme", "young-star", "--profile",
                    str(FIXTURES / "cycle.elect"), "--candidate", "A",
                    "--q", "200"])
        assert code == 1
        assert "capped" in capsys.readouterr().err


class TestEmitReport:
    REPORT = ScoreReport("young-star", (("A", F(2)), ("B", F(2)), ("C", F(2))))

    def test_json_renders_rationals_as_strings(self):
        assert emit_report(self.REPORT, "json") == '{"A": "2/1", "B": "2/1", "C": "2/1"}\n'

    def test_text_json_value_identity(self):
        text = emit_report(self.REPORT, "text")
        data = json.loads(emit_report(self.REPORT, "json"))
        parsed_text = {}
        for line in text.splitlines():
            name, value = line.split()
            parsed_text[name] = parse_frac(value)
        assert parsed_text == {name: parse_frac(v) for name, v in data.items()}

    def test_single_candidate_prints_bare_value(self):
        report = ScoreReport("young", (("c", 7),))
        assert emit_report(report, "text") == "7\n"

    def test_full_report_without_filter(self, capsys):
        assert run(["score", "--scheme", "young", "--profile", str(FIXTURES / "cycle.elect")]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == ["A", "B", "C"]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dodgsonyoung", "condorcet", "--profile",
         str(FIXTURES / "single.elect")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "c\n"
