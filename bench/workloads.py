"""Seeded inputs, calls and answer checks of the benchmark workloads.

Every workload is a list of passes; pass ``i`` is generated from the
benchmark seed and ``i`` alone, so the same seed gives the same calls.  A
call is timed on its own.  Its answer is checked after the timed window,
once per distinct input, by :meth:`Workload.check`.
"""
from __future__ import annotations

import ast
import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import dodgsonyoung as dy
from dodgsonyoung import cli, reductions

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
if not Path(dy.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"dodgsonyoung was imported from {dy.__file__}, not from {ROOT / 'src'}")
SCHEMES = ("dodgson", "young", "dodgson-star", "young-star")
_SCORERS = {
    "dodgson": "dodgson_score",
    "young": "young_score",
    "dodgson-star": "dodgson_star_score",
    "young-star": "young_star_score",
}
# Oracle caps: the library defaults of the swap search and subset enumeration.
SWAP_MAX_VOTERS, SWAP_MAX_CANDIDATES, SUBSET_MAX_VOTERS = 5, 5, 22
CLI_TIMEOUT_S = 60


def score(scheme: str, profile, c):
    """Top-level scorer, looked up at call time so that tracing sees it."""
    return getattr(dy, _SCORERS[scheme])(profile, c)


@dataclass(frozen=True)
class Call:
    kind: str  # latency class: a scheme name, or a CLI verb without one
    key: tuple  # names the input; equal keys must give equal answers
    run: Callable[[], object]


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def _candidates(k: int) -> tuple[str, ...]:
    return tuple("abcdefgh"[:k])


def _distinct_orders(rng: random.Random, k: int, n: int) -> list[tuple[str, ...]]:
    """n distinct orders drawn uniformly without replacement (n <= k!)."""
    return rng.sample(list(itertools.permutations(_candidates(k))), n)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def calls(self, index: int) -> list[Call]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def check(self, key: tuple, value) -> str | None:
        """None if the answer is right, else what is wrong with it."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class ProfileWorkload(Workload):
    """In-process scorer calls; answers checked against oracles and witnesses."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.profiles: dict[str, object] = {}
        self._reference: dict[tuple, object] = {}

    def _score_calls(self, pid: str, profile, schemes=SCHEMES, candidates=None) -> list[Call]:
        self.profiles[pid] = profile
        return [
            Call(s, (pid, c, s), lambda s=s, p=profile, c=c: score(s, p, c))
            for c in candidates or profile.candidates
            for s in schemes
        ]

    def warm_up(self) -> None:
        profile = dy.parse_profile((TESTS / "fixtures" / "cycle.elect").read_text())
        for scheme in SCHEMES:
            score(scheme, profile, profile.candidates[0])

    def _exact(self, pid: str, c: str, scheme: str) -> int:
        """Exact score, proved by an oracle or replayed witness, memoized."""
        key = (pid, c, scheme)
        if key in self._reference:
            return self._reference[key]
        p = self.profiles[pid]
        n, k = p.num_voters, len(p.candidates)
        if scheme == "dodgson" and n <= SWAP_MAX_VOTERS and k <= SWAP_MAX_CANDIDATES:
            value = dy.dodgson_score_bruteforce(p, c)
        elif scheme == "young" and n <= SUBSET_MAX_VOTERS:
            value = dy.young_score_bruteforce(p, c)
        elif scheme == "dodgson":
            value, moves = dy.dodgson_score_with_moves(p, c)
            if not dy.validate_dodgson_witness(p, c, value, moves):
                raise AssertionError(f"Dodgson witness for {c} does not replay")
        else:
            value, kept = dy.young_score_with_subset(p, c)
            if not dy.validate_young_witness(p, c, value, kept):
                raise AssertionError(f"Young witness for {c} does not replay")
        self._reference[key] = value
        return value

    def check(self, key: tuple, value) -> str | None:
        pid, c, scheme = key
        try:
            if scheme in ("dodgson", "young"):
                want = self._exact(pid, c, scheme)
                return None if value == want and type(value) is int else f"{value!r} != {want}"
            if not isinstance(value, (int, Fraction)):
                return f"non-rational starred score {value!r}"
            if scheme == "dodgson-star":
                exact = self._exact(pid, c, "dodgson")
                return None if 0 <= value <= exact else f"Dodgson* {value} outside [0, {exact}]"
            exact = self._exact(pid, c, "young")
            n = self.profiles[pid].num_voters
            return None if exact <= value <= n else f"Young* {value} outside [{exact}, {n}]"
        except AssertionError as exc:
            return str(exc)


class ICDistinct(ProfileWorkload):
    """Impartial culture, every order distinct: the LP engine does the work."""

    name = "ic-distinct"
    # k=4 has only 24 orders, so its distinct-order profiles stop at n=23.
    # n=51 is left out: those two cells took 2/3 of a pass, too few profiles
    # fitted in a run, and the per-scheme medians then varied with the seed.
    CELLS = ((4, 15), (4, 23), (5, 15), (5, 31), (6, 15), (6, 31))

    def calls(self, index: int) -> list[Call]:
        rng = _rng(self.seed, self.name, index)
        out = []
        for k, n in self.CELLS:
            orders = _distinct_orders(rng, k, n)
            profile = dy.Profile(_candidates(k), tuple((o, 1) for o in orders))
            out += self._score_calls(f"p{index}-k{k}-n{n}", profile)
        rng.shuffle(out)
        return out


class Replicated(ProfileWorkload):
    """Few distinct orders, many voters: expansion and starred-program growth."""

    name = "replicated"
    QS = (1, 2, 4, 8, 16)
    # Exact scores for every candidate, starred scores for one seeded
    # candidate per base that is not its Condorcet winner: at q=16 a starred
    # LP costs 100x an exact score, costs vary more between base profiles than
    # between candidates, and a winner's starred LP costs half as much, so
    # many bases and no winners keep the medians steady.
    BASES = 8
    TWO_ORDER_VOTERS = (2_001, 20_001, 200_001)

    def __init__(self, seed: int):
        super().__init__(seed)
        # The same two-order files in every pass: their cost does not depend
        # on the order drawn, and replaying their Dodgson witnesses is slow.
        rng = _rng(seed, self.name + "-two-order", 0)
        self.two_order = {}
        for n in self.TWO_ORDER_VOTERS:
            order = list(_candidates(4))
            rng.shuffle(order)
            m = n // 2
            pid = f"two-n{n}"
            self.two_order[pid] = (
                f"candidates: {' '.join(_candidates(4))}\n"
                f"voter {m}: {' > '.join(order)}\n"
                f"voter {m + 1}: {' > '.join(reversed(order))}\n"
            )
            self.profiles[pid] = dy.parse_profile(self.two_order[pid])

    def calls(self, index: int) -> list[Call]:
        rng = _rng(self.seed, self.name, index)
        out = []
        for b in range(self.BASES):
            orders = sorted(_distinct_orders(rng, 4, 5))
            base = dy.Profile(_candidates(4), tuple((o, 1) for o in orders))
            c = rng.choice([x for x in base.candidates if x != dy.condorcet_winner(base)])
            for q in self.QS:
                pid, profile = f"p{index}-b{b}-q{q}", dy.replicate(base, q)
                out += self._score_calls(pid, profile, SCHEMES[:2])
                out += self._score_calls(pid, profile, SCHEMES[2:], (c,))
        rng.shuffle(out)
        # The huge profiles go last, so that the memory they churn does not
        # slow the small calls that would follow them.
        for pid, text in self.two_order.items():
            for c in _candidates(4):
                for s in ("dodgson", "young"):
                    # parsing is part of the call, as for a user reading a file
                    run = lambda s=s, t=text, c=c: score(s, dy.parse_profile(t), c)
                    out.append(Call(s, (pid, c, s), run))
        return out

    def check(self, key: tuple, value) -> str | None:
        wrong = super().check(key, value)
        pid, c, scheme = key
        if wrong or not scheme.endswith("-star"):
            return wrong
        # exact homogeneity: star(qV) = q * star(V)
        head, q = pid.rsplit("-q", 1)
        ref_key = (f"{head}-q1", c, scheme)
        if ref_key not in self._reference:
            self._reference[ref_key] = score(scheme, self.profiles[f"{head}-q1"], c)
        want = int(q) * self._reference[ref_key]
        return None if value == want else f"{scheme}({q}V) = {value} != {q} * star(V) = {want}"


# -- CLI chain ----------------------------------------------------------------


def golden_cases() -> dict[str, list[str]]:
    """GOLDEN_CASES of tests/test_cli.py, read without importing the test module."""
    tree = ast.parse((TESTS / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GOLDEN_CASES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("GOLDEN_CASES not found in tests/test_cli.py")


def _graph_text(rng: random.Random) -> tuple[str, object]:
    """A graph with 6 or 7 vertices, as many edges, no isolated vertex and
    independence number >= 3.

    Fixing the size keeps the cost of a verify call within a narrow range
    (with 4-7 vertices and random density it varied 14-fold), so the tail
    latency does not hinge on which graphs a seed draws.
    """
    while True:
        names = [f"v{i}" for i in range(rng.randint(6, 7))]
        edges = rng.sample(list(itertools.combinations(names, 2)), len(names))
        if {x for e in edges for x in e} != set(names):
            continue
        text = "vertices: " + " ".join(names) + "\n" + "".join(f"edge: {u} {v}\n" for u, v in edges)
        g = dy.parse_graph(text)
        if dy.alpha(g) >= 3:
            return text, g


def run_child(cmd: list[str], timeout: float = CLI_TIMEOUT_S, **kwargs) -> tuple[int, bytes]:
    """Run cmd with its output captured; (exit code, stdout).

    The wait for the child blocks in the kernel.  With ``timeout=``,
    ``subprocess`` would poll the child with sleeps that double from 0.5 ms
    up to 50 ms, so a ~60 ms process would read either 64 or 114 ms.  A
    timer kills the child instead, and the call then raises TimeoutExpired.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)
    expired = threading.Event()

    def kill() -> None:
        expired.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
        timer.join()
    if expired.is_set():
        raise subprocess.TimeoutExpired(cmd, timeout)
    return proc.returncode, out


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


class CLIChain(Workload):
    """Sequential CLI processes: interpreter start, parsing and the reductions."""

    name = "cli-chain"
    VERIFY_PAIRS = 4

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        fixtures = {p.name: str(p) for p in (TESTS / "fixtures").iterdir()}
        self.golden = {}
        for name, argv in golden_cases().items():
            argv = [fixtures.get(a, a) for a in argv]
            self.golden[name] = (argv, (TESTS / "golden" / name).read_bytes())
        self.graphs: dict[str, tuple] = {}  # key -> (argv, graph1, graph2)
        self.env = cli_env()

    def _verify_pairs(self, index: int) -> list[tuple[str, list[str]]]:
        rng = _rng(self.seed, self.name, index)
        out = []
        for i in range(self.VERIFY_PAIRS):
            key = f"verify-{index}-{i}"
            if key not in self.graphs:
                paths, graphs = [], []
                for side in (1, 2):
                    text, g = _graph_text(rng)
                    path = self.workdir / f"{key}-g{side}.graph"
                    path.write_text(text, encoding="utf-8")
                    paths.append(str(path))
                    graphs.append(g)
                argv = ["verify", "--graph1", paths[0], "--graph2", paths[1], "--format", "json"]
                self.graphs[key] = (argv, *graphs)
            out.append((key, self.graphs[key][0]))
        return out

    def _invocations(self, index: int) -> list[tuple[str, str, list[str]]]:
        """(kind, key, argv) of one pass, in seeded order."""
        out = []
        for name, (argv, _) in self.golden.items():
            kind = argv[argv.index("--scheme") + 1] if "--scheme" in argv else argv[0]
            out.append((kind, name, argv))
        out += [("verify", key, argv) for key, argv in self._verify_pairs(index)]
        _rng(self.seed, self.name + "-order", index).shuffle(out)
        return out

    def run_process(self, argv: list[str]) -> tuple[int, bytes]:
        return run_child([sys.executable, "-m", "dodgsonyoung", *argv], env=self.env, cwd=ROOT)

    @staticmethod
    def run_inprocess(argv: list[str]) -> tuple[int, bytes]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.run(argv)
        return code, buf.getvalue().encode()

    def calls(self, index: int, inprocess: bool = False) -> list[Call]:
        runner = self.run_inprocess if inprocess else self.run_process
        return [
            Call(kind, (key,), lambda argv=argv: runner(argv))
            for kind, key, argv in self._invocations(index)
        ]

    def warm_up(self) -> None:
        # also compiles the package's bytecode before anything is timed
        self.run_process(["condorcet", "--profile", str(TESTS / "fixtures" / "cycle.elect")])

    def check(self, key: tuple, value) -> str | None:
        (name,) = key
        code, out = value
        if code != 0:
            return f"exit code {code}"
        if name in self.golden:
            return None if out == self.golden[name][1] else "output differs from golden bytes"
        _, g1, g2 = self.graphs[name]
        try:
            report = json.loads(out)
        except ValueError:
            return f"unparsable verify output {out[:80]!r}"
        if report.get("consistent") is not True:
            return "reduction chain reported inconsistent"
        want = [reductions.alpha(g1), reductions.alpha(g2)]
        return None if report.get("alpha") == want else f"alpha {report.get('alpha')} != {want}"

    def close(self) -> None:
        for path in self.workdir.glob("*.graph"):
            path.unlink()
        self.workdir.rmdir()


WORKLOADS = {"ic-distinct": ICDistinct, "replicated": Replicated, "cli-chain": CLIChain}


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "cli-chain":
        return CLIChain(seed, workdir)
    return WORKLOADS[name](seed)
