"""Command-line interface.

Every verb is a thin wrapper around the library.  Results go to stdout
through one path, ``_emit``, which honours ``--format`` on every verb;
rationals appear as p/q strings in both formats.  Domain errors (missing
files, malformed input, unknown candidates, caps) exit with code 1 and a
message on stderr; usage errors exit with 2.  Decision verbs print
lowercase true/false (text and JSON alike) and exit 0 for both answers.
Each verb imports only what it runs: ``reduce``, ``amplify`` and ``verify``
load the reduction chain when they start, and ``json`` is loaded only to
print JSON.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .errors import CapExceededError
from .homogeneous import SCHEMES
from .profiles import Profile, condorcet_winner, parse_profile, replicate, serialize_profile


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _score_repr(value):
    return _frac_str(value) if isinstance(value, Fraction) else value


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_profile(path: str) -> Profile:
    return parse_profile(_read(path))


def _emit(args, payload, text: str) -> int:
    """Write ``text``, or under ``--format json`` one line with the JSON of
    ``payload()``; the payload is built only when it is printed."""
    if args.format == "json":
        import json
        text = json.dumps(payload()) + "\n"
    sys.stdout.write(text)
    return 0


def _cmd_score(args) -> int:
    profile = _load_profile(args.profile)
    score = SCHEMES[args.scheme].score
    shown = {c: _score_repr(score(profile, c)) for c in args.candidate or profile.candidates}
    if len(shown) == 1:
        text = f"{next(iter(shown.values()))}\n"
    else:
        width = max(map(len, shown))
        text = "".join(f"{name.ljust(width)}  {value}\n" for name, value in shown.items())
    return _emit(args, lambda: shown, text)


def _cmd_winner(args) -> int:
    profile = _load_profile(args.profile)
    answer = SCHEMES[args.scheme].winner(profile, args.candidate)
    return _emit(args, lambda: answer, f"{str(answer).lower()}\n")


def _cmd_ranking(args) -> int:
    profile = _load_profile(args.profile)
    answer = SCHEMES[args.scheme].ranking(profile, args.candidate, args.other)
    return _emit(args, lambda: answer, f"{str(answer).lower()}\n")


def _cmd_condorcet(args) -> int:
    profile = _load_profile(args.profile)
    winner = condorcet_winner(profile)
    return _emit(args, lambda: {"winner": winner}, f"{winner if winner is not None else 'none'}\n")


def _cmd_reduce(args, parser) -> int:
    from . import reductions
    from_graphs = args.graph1 is not None or args.graph2 is not None
    from_sets = args.sets1 is not None or args.sets2 is not None
    if from_graphs == from_sets:
        parser.error("give either --graph1/--graph2 or --sets1/--sets2")
    if from_graphs:
        if args.graph1 is None or args.graph2 is None:
            parser.error("both --graph1 and --graph2 are required")
        g1 = reductions.parse_graph(_read(args.graph1))
        g2 = reductions.parse_graph(_read(args.graph2))
        inst = reductions.inc_to_mspc(g1, g2)
    else:
        if args.sets1 is None or args.sets2 is None:
            parser.error("both --sets1 and --sets2 are required")
        inst = reductions.MSPCInstance(
            reductions.parse_set_family(_read(args.sets1)),
            reductions.parse_set_family(_read(args.sets2)),
        )
    if args.emit == "mspc":
        payload = lambda: {
            "base1": list(inst.first.base),
            "family1": [list(m) for m in inst.first.family],
            "base2": list(inst.second.base),
            "family2": [list(m) for m in inst.second.family],
        }
        return _emit(args, payload, reductions.serialize_mspc(inst))
    out = reductions.mspc_to_young_ranking(inst)
    text = serialize_profile(out.profile)
    payload = lambda: {
        "c": out.c,
        "d": out.d,
        "kappa1": out.kappa1,
        "kappa2": out.kappa2,
        "profile": text,
    }
    return _emit(args, payload, text)


def _cmd_amplify(args) -> int:
    from . import reductions
    profile = _load_profile(args.profile)
    amplified = reductions.amplify_for_winner(profile, args.candidate, args.other)
    text = serialize_profile(amplified)
    return _emit(args, lambda: {"profile": text}, text)


def _cmd_verify(args) -> int:
    from . import reductions
    g1 = reductions.parse_graph(_read(args.graph1))
    g2 = reductions.parse_graph(_read(args.graph2))
    report = reductions.verify_reduction_chain(g1, g2)
    payload = lambda: {
        "alpha": [report.alpha1, report.alpha2],
        "kappa": [report.kappa1, report.kappa2],
        "young": [report.young_c, report.young_d],
        "equations_hold": report.equations_hold,
        "ranking": report.ranking_answer,
        "winner_checked": report.winner_checked,
        "winner": report.winner_answer,
        "consistent": report.consistent,
    }
    winner_line = (
        str(report.winner_answer).lower() if report.winner_checked else "skipped (instance too large)"
    )
    lines = [
        f"alpha:        {report.alpha1} {report.alpha2}",
        f"kappa:        {report.kappa1} {report.kappa2}",
        f"young(c, d):  {report.young_c} {report.young_d}",
        f"equations:    {'ok' if report.equations_hold else 'VIOLATED'}",
        f"ranking(c,d): {str(report.ranking_answer).lower()}",
        f"winner(c):    {winner_line}",
        str(report.consistent).lower(),
    ]
    return _emit(args, payload, "\n".join(lines) + "\n")


def _cmd_convergence(args) -> int:
    profile = _load_profile(args.profile)
    qs = []
    for piece in args.q.split(","):
        piece = piece.strip()
        try:
            q = int(piece)
        except ValueError:
            raise ValueError(f"bad replication factor {piece!r}") from None
        if q < 1:
            raise ValueError(f"replication factors must be positive, got {q}")
        qs.append(q)
    base_score = SCHEMES[args.scheme.removesuffix("-star")].score
    points = []
    for q in qs:
        score = base_score(replicate(profile, q), args.candidate)
        points.append((q, score, Fraction(score, q)))
    limit = SCHEMES[args.scheme].score(profile, args.candidate)
    payload = lambda: {
        "scheme": args.scheme,
        "candidate": args.candidate,
        "points": [
            {"q": q, "score": score, "ratio": _frac_str(ratio)} for q, score, ratio in points
        ],
        "limit": _frac_str(limit),
    }
    lines = ["q      score  score/q"]
    for q, score, ratio in points:
        lines.append(f"{str(q).ljust(6)} {str(score).ljust(6)} {_frac_str(ratio)}")
    lines.append(f"limit         {_frac_str(limit)}")
    return _emit(args, payload, "\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    """Each verb lists its options as ``(flags, kwargs)`` pairs, in the order
    the usage line shows them; every verb ends with ``--format``.  An option
    shared by several verbs is one pair, named once below."""

    def option(*flags, **kwargs):
        return flags, kwargs

    scheme = option("--scheme", choices=SCHEMES, required=True)
    profile = option("--profile", required=True)
    candidate = option("--candidate", required=True)
    other = option("--other", required=True)
    fmt = option("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="dodgsonyoung",
        description="Exact and homogeneous Dodgson/Young election scoring.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, func, help, *options) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flags, kwargs in (*options, fmt):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
        return p

    verb("score", _cmd_score, "score candidates under a scheme",
         scheme, profile, option("--candidate", action="append"))
    verb("winner", _cmd_winner, "is the candidate a winner? prints true/false",
         scheme, profile, candidate)
    verb("ranking", _cmd_ranking, "does candidate tie-or-defeat other? true/false",
         scheme, profile, candidate, other)
    verb("condorcet", _cmd_condorcet, "print the Condorcet winner or 'none'", profile)
    p_reduce = verb(
        "reduce", lambda args: _cmd_reduce(args, p_reduce),
        "build a Young Ranking instance from graphs or set families",
        *map(option, ("--graph1", "--graph2", "--sets1", "--sets2")),
        option("--emit", choices=("profile", "mspc"), default="profile"),
    )
    verb("amplify", _cmd_amplify, "rotate non-designated candidates per voter",
         profile, candidate, other)
    verb("verify", _cmd_verify, "run the whole reduction chain; prints true/false",
         option("--graph1", required=True), option("--graph2", required=True))
    verb("convergence", _cmd_convergence, "table of score(qV)/q against the starred LP value",
         option("--scheme", choices=("dodgson-star", "young-star"), required=True),
         profile, candidate, option("--q", default="1,2,4,8,16"))
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
