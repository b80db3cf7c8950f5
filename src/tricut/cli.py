"""Command line front end.

    tricut gen KIND [--n N] [--seed S] [--out PATH]
    tricut solve {cell,wedge111,wedge,segment,arcs,lline}
                 [--in PATH | --n N --seed S] [--k K] [--verify]
                 [--format json|svg] [--out PATH]
    tricut verify --in SOLUTION [--out PATH]
    tricut render --in FILE [--out PATH] [--format svg]

Solve commands read an instance file, or generate one themselves from --n
and --seed.  Every solver output is a JSON envelope carrying the instance
and naming its kind in `command`, so verify and render work from the file
alone; render draws a file without a solve command as a bare instance.
Each solve kind is one record (`_Kind`) in `_KINDS`, from the decoder of
its payload to its figure.  Exit codes:
0 success, 2 a precondition failed (bad input, bad flags), 3 an internal
guarantee broke (the contradiction trace is dumped to stderr).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

from . import serialization as ser
from .arcs import _arcset_of_rows
from .cells import _face_of_rows, build_arrangement, cycle_parity
from .core import RGB, Color, arcset_color_counts, dual_point_to_line, require_rgb
from .errors import GenerationFailed, InternalError, PreconditionViolated, TricutError
from .generators import GenKind, GenSpec, generate
from .llines import _lline_of_rows, brute_oracle_llines, lline_counts
from .oracles import (
    ORACLE_MAX_POINTS,
    VerificationReport,
    arcset_points_key,
    count_segment_crossings,
    enumerate_2arc_sets,
    scan_all_complete_faces,
)
from .svg import render_arcset, render_arrangement, render_lline, render_wedge
from .wedges import (
    _points_of_rows,
    _require_6n,
    _segment_of_rows,
    _wedge111_of_rows,
    _wedge_of_rows,
    brute_oracle_segments,
    brute_oracle_wedges,
    wedge_color_counts,
    wedge_dual_segment,
    wedge_point_indices,
)


# -- plumbing --------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise PreconditionViolated(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise PreconditionViolated(f"{path} is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise PreconditionViolated(f"{path} is not valid JSON: {e}") from e
    except ValueError as e:  # an integer past Python's digit limit for str -> int
        raise PreconditionViolated(f"{path} holds a number too long to read: {e}") from e


def _load_envelope(path: str) -> dict:
    """The file verify or render reads: a JSON object, `command` a string."""
    env = _load_json(path)
    if not isinstance(env, dict) or not isinstance(env.get("command", ""), str):
        raise PreconditionViolated(f"{path} must hold a JSON object whose command is a string")
    return env


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"  # the same bytes to a file
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise PreconditionViolated(f"cannot write {out}: {e}") from e


def _envelope_text(env: dict) -> str:
    """A solve or gen envelope as JSON: keys sorted, one per line, each value
    as json.dumps(indent=2) writes it, but the instance echo compact on its
    line (with `indent` set the json module takes its pure-Python encoder)."""

    def value(key):
        if key == "instance":
            return json.dumps(env[key], sort_keys=True)
        # a JSON string holds no raw newline: this shifts whole lines
        return json.dumps(env[key], indent=2, sort_keys=True).replace("\n", "\n  ")

    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {value(k)}" for k in sorted(env)) + "\n}"


# -- the solve kinds -------------------------------------------------------------


def _drawn(answer: dict | None, key: str, dec):
    """What a figure draws over its items: dec(answer[key]), or with no answer
    nothing; a missing key or an answer that is no object is malformed."""
    with ser.decoding():
        return None if answer is None else dec(answer[key])


def _without_k(kind: str, solve: Callable[[tuple], dict]):
    """solve(rows) as a record's solve(rows, k): only arcs reads k."""
    def solve_rows(rows, k: int | None) -> dict:
        if k is not None:
            raise PreconditionViolated(f"solve {kind} takes no --k")
        return solve(rows)
    return solve_rows


def _wedge_answer(w) -> dict:
    return {"wedge": ser.enc_wedge(w), "dual_segment": ser.enc_segment(wedge_dual_segment(w))}


def _solve_arcs(rows, k: int | None) -> dict:
    if k is None:
        raise PreconditionViolated("solve arcs requires --k")
    return {"arcs": ser.enc_arcset(_arcset_of_rows(*rows, k))}


def _solve_lline(rows) -> dict:
    l, k = _lline_of_rows(*rows)
    return {"lline": ser.enc_lline(l), "k": k}


def _check_cell(lines, answer: dict, k: int | None):
    require_rgb([l.color for l in lines], "line")
    with ser.decoding():
        verts = [ser.dec_xy(v) for v in answer["face"]["vertices"]]
        colors = [Color(c) for c in answer["face"]["boundary_colors"]]
    complete = scan_all_complete_faces(build_arrangement(lines))
    oracle = tuple(sorted(ser.enc_xy(v) for v in f.vertices) for f in complete)
    # a cell's edges (vertex, color, next vertex) do not depend on the vertex its cycle starts at
    def edges(vs, cs):
        return len(vs), frozenset(zip(vs, cs, vs[1:] + vs[:1]))

    mine = edges(verts, colors)
    member = len(verts) == len(colors) and any(
        edges(f.vertices, f.boundary_colors) == mine for f in complete
    )
    return cycle_parity(colors), (1, 1, 1), oracle, member


def _one_each(colors, what: str) -> int:
    """A 111 wedge's n: 1, on any instance that holds all three colors."""
    require_rgb(colors, what)
    return 1


def _wedge_cut(points, answer: dict):
    with ser.decoding():
        w = ser.dec_wedge(answer["wedge"])
    return wedge_color_counts(w, points), wedge_point_indices(w, points), brute_oracle_wedges


def _segment_cut(lines, answer: dict):
    with ser.decoding():
        seg = ser.dec_segment(answer["segment"])
    # count_segment_crossings refuses an end on a line, so each side is +-1
    counts = count_segment_crossings(seg, lines)
    key = tuple(i for i, l in enumerate(lines) if l.side(seg.p) != l.side(seg.q))
    return counts, key, brute_oracle_segments


def _check_cut(n_of, what: str, cut, items, answer: dict, k: int | None):
    """A wedge or segment answer: n_of refuses an instance the solver refuses,
    with its message; cut gives the answer's color counts, its item set (the
    oracle's key) and the oracle of those sets."""
    n = n_of([x.color for x in items], what)
    target = (n, n, n)
    cc, key, oracle_of = cut(items, answer)
    counts = tuple(cc[c] for c in RGB)
    if len(items) > ORACLE_MAX_POINTS["wedge"]:
        return counts, target, (), counts == target
    oracle_sets = oracle_of(items, target)
    return counts, target, tuple(list(t) for t in oracle_sets), key in oracle_sets


def _check_arcs(points, answer: dict, k: int | None):
    require_rgb([p.color for p in points], "point")
    if k is None:
        raise PreconditionViolated("verify arcs requires the k parameter")
    with ser.decoding():
        a = ser.dec_arcset(answer["arcs"])
    cc = arcset_color_counts(a, points)
    counts = tuple(cc[c] for c in RGB)
    keys = {arcset_points_key(o, points) for o in enumerate_2arc_sets(points, k)}
    member = a.component_count() <= 2 and arcset_points_key(a, points) in keys
    return counts, (k, k, k), tuple(sorted(list(kk) for kk in keys)), member


def _check_lline(points, answer: dict, k: int | None):
    """The answer carries its own k."""
    with ser.decoding():
        l = ser.dec_lline(answer["lline"])
        kk = answer["k"]
    if type(kk) is not int:
        raise PreconditionViolated(f"answer.k must be an integer, got {kk!r}")
    pairs = brute_oracle_llines(points)
    oracle = tuple({"lline": ser.enc_lline(ol), "k": ok} for ol, ok in pairs)
    return lline_counts(l, points)[0], (kk, kk, kk), oracle, (l, kk) in pairs


@dataclass(frozen=True)
class _Kind:
    """One solve kind.  `gen` and `n` make the instance a solve command makes
    itself.  `decode` names its payload decoder in `serialization` (looked up at
    call time, so a wrapper bound there sees the call): the integer rows of
    `solve(rows, k) -> answer` and of `objects(*rows) -> items`, which feed
    `check(items, answer, k) -> (counts, target, oracle answers, member)` and
    `draw(items, answer or None) -> SVG`.  Every answer is JSON data."""

    gen: GenKind
    n: int
    decode: str
    objects: Callable
    solve: Callable[[tuple, int | None], dict]
    check: Callable[[tuple, dict, int | None], tuple]
    draw: Callable[[tuple, dict | None], str]


_KINDS = {
    "cell": _Kind(
        GenKind.SimpleLines3C, 7, "dec_line_rows", ser._lines_of_rows,
        _without_k("cell", lambda rows: {"face": ser.enc_face(_face_of_rows(*rows))}),
        _check_cell,
        lambda lines, answer: render_arrangement(
            build_arrangement(lines), _drawn(answer, "face", ser.dec_face))),
    "wedge111": _Kind(
        GenKind.Points3C, 9, "dec_point_rows", _points_of_rows,
        _without_k("wedge111", lambda rows: _wedge_answer(_wedge111_of_rows(*rows))),
        functools.partial(_check_cut, _one_each, "point", _wedge_cut),
        lambda points, answer: render_wedge(points, _drawn(answer, "wedge", ser.dec_wedge))),
    "wedge": _Kind(
        GenKind.Points3CConvex, 2, "dec_point_rows", _points_of_rows,
        _without_k("wedge", lambda rows: _wedge_answer(_wedge_of_rows(*rows))),
        functools.partial(_check_cut, _require_6n, "point", _wedge_cut),
        lambda points, answer: render_wedge(points, _drawn(answer, "wedge", ser.dec_wedge))),
    "segment": _Kind(
        GenKind.Points3CConvex, 2, "dec_line_rows", ser._lines_of_rows,
        _without_k("segment", lambda rows: {"segment": ser.enc_segment(_segment_of_rows(*rows))}),
        functools.partial(_check_cut, _require_6n, "line", _segment_cut),
        lambda lines, answer: render_arrangement(build_arrangement(lines))),  # its lines alone
    "arcs": _Kind(
        GenKind.CirclePoints3C, 5, "dec_circle_rows", ser._circle_of_rows, _solve_arcs, _check_arcs,
        lambda points, answer: render_arcset(points, _drawn(answer, "arcs", ser.dec_arcset))),
    "lline": _Kind(
        GenKind.LatticeRedHull, 4, "dec_lattice_rows", ser._lattice_of_rows,
        _without_k("lline", _solve_lline), _check_lline,
        lambda points, answer: render_lline(points, _drawn(answer, "lline", ser.dec_lline))),
}
SOLVE_KINDS = tuple(_KINDS)


def _rows(kind: str, payload: dict):
    """The integer rows of an instance payload, through its kind's decoder."""
    return getattr(ser, _KINDS[kind].decode)(payload)


def _verification(kind: str, payload: dict, items, answer: dict, k: int | None) -> dict:
    """The oracle check of a JSON answer on the dataclass items of `payload`
    (what verify re-runs), as the object of its report line."""
    t0 = time.perf_counter()
    counts, target, oracle, member = _KINDS[kind].check(items, answer, k)
    instance_id = hashlib.sha1(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()[:12]
    report = VerificationReport(instance_id, answer, oracle, member, counts, target,
                                time.perf_counter() - t0)
    return json.loads(report.to_json_line())


# -- commands --------------------------------------------------------------------


def _cmd_gen(args) -> int:
    spec = GenSpec(args.kind, args.n, args.seed)
    obj = generate(spec)
    env = ser.enc_instance(spec.kind.value, args.n, args.seed, obj)
    _emit(_envelope_text(env), args.out)
    return 0


def _cmd_solve(args) -> int:
    kind, rec = args.what, _KINDS[args.what]
    if args.infile is not None:
        payload = ser.unwrap_instance(_load_json(args.infile))
    else:
        n = rec.n if args.n is None else args.n
        objects = generate(GenSpec(rec.gen, n, args.seed))
        if kind == "segment":  # the duals of convex-position points: simple, 2n lines per color
            objects = tuple(dual_point_to_line(p) for p in objects)
        payload = ser.enc_instance(rec.gen.value, n, args.seed, objects)["instance"]
    rows = _rows(kind, payload)  # a generated instance too: one route
    answer = rec.solve(rows, args.k)
    k = answer["k"] if kind == "lline" else args.k
    env = {"command": f"solve {kind}", "params": {"k": k}, "instance": payload,
           "answer": answer, "verification": None}
    items = rec.objects(*rows) if args.verify or args.format == "svg" else None
    if args.verify:
        env["verification"] = _verification(kind, payload, items, answer, k)
        if not env["verification"]["member"]:
            raise InternalError("solver answer rejected by its oracle", env["verification"])
    if args.format == "svg":
        _emit(rec.draw(items, answer), args.out)
    else:
        _emit(_envelope_text(env), args.out)
    return 0


def _kind_of(command: str) -> str | None:
    """The solve kind a solution file's command names (its last word), or None."""
    words = command.split()
    return words[-1] if words and words[-1] in _KINDS else None


def _cmd_verify(args) -> int:
    env = _load_envelope(args.infile)
    for key in ("command", "instance", "answer"):
        if key not in env:
            raise PreconditionViolated(f"solution file lacks {key!r}")
    kind = _kind_of(env["command"])
    if kind is None:
        raise PreconditionViolated(f"unknown command {env['command']!r}")
    params = env.get("params") or {}
    if not isinstance(params, dict):
        raise PreconditionViolated(f"params must be an object, got {params!r}")
    k = params.get("k")
    if k is not None and type(k) is not int:
        raise PreconditionViolated(f"params.k must be an integer, got {k!r}")
    items = _KINDS[kind].objects(*_rows(kind, env["instance"]))
    got = _verification(kind, env["instance"], items, env["answer"], k)
    if not got["member"]:
        raise InternalError("solution rejected by its oracle", got)
    embedded = env.get("verification")
    if embedded is not None:
        a = {key: v for key, v in embedded.items() if key != "elapsed_s"}
        b = {key: v for key, v in got.items() if key != "elapsed_s"}
        if a != b:
            raise InternalError("re-verification differs from the embedded report",
                                {"embedded": a, "recomputed": b})
    _emit(json.dumps(got, sort_keys=True), args.out)
    return 0


def _bare_kind(payload: dict) -> str:
    """The kind whose figure draws a bare instance: lines as a segment's
    arrangement, points by their fields (circle parameters t, lattice
    coordinates as JSON integers, other points as a wedge's)."""
    if "lines" in payload:
        return "segment"
    points = payload.get("points") or ()
    with ser.decoding():  # the points are objects
        if points and "t" in points[0]:
            return "arcs"
        if points and all(type(p["x"]) is int and type(p["y"]) is int for p in points):
            return "lline"
        if points:
            return "wedge"
    raise PreconditionViolated("nothing renderable in this file")


def _cmd_render(args) -> int:
    """A solution file is drawn through the kind its command names; any
    other file as a bare instance, with nothing over it."""
    env = _load_envelope(args.infile)
    kind, answer = _kind_of(env.get("command", "")), env.get("answer", {})
    with ser.decoding():  # the instance is an object
        payload = dict(ser.unwrap_instance(env))
    if kind is None:
        kind, answer = _bare_kind(payload), None
    rec = _KINDS[kind]
    _emit(rec.draw(rec.objects(*_rows(kind, payload)), answer), args.out)
    return 0


# -- argument parsing --------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    top = argparse.ArgumentParser(
        prog="tricut",
        description="Balanced bipartitions of 3-colored geometric data.",
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate an instance")
    g.add_argument("kind", choices=[k.value for k in GenKind])
    g.add_argument("--n", type=int, default=6)
    g.add_argument("--seed", type=int, default=1)

    s = sub.add_parser("solve", help="run a solver")
    s.add_argument("what", choices=SOLVE_KINDS)
    s.add_argument("--in", dest="infile", default=None)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--verify", action="store_true")
    s.add_argument("--format", choices=("json", "svg"), default="json")

    v = sub.add_parser("verify", help="re-check a solution file against oracles")
    v.add_argument("--in", dest="infile", required=True)

    r = sub.add_parser("render", help="draw an instance or solution as SVG")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--format", choices=("svg",), default="svg")
    for p, cmd in ((g, _cmd_gen), (s, _cmd_solve), (v, _cmd_verify), (r, _cmd_render)):
        p.add_argument("--out", dest="out", default=None)
        p.set_defaults(func=cmd)
    return top


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalError as e:
        trace = {"error": "internal", "message": str(e), "trace": e.trace}
        sys.stderr.write(json.dumps(trace, default=str, sort_keys=True) + "\n")
        return 3
    except (PreconditionViolated, GenerationFailed) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except TricutError as e:
        # remaining family members are invariant breaches (odd winding lost,
        # parity mixed, no cut found): report as internal
        sys.stderr.write(json.dumps({"error": "internal", "message": str(e)}) + "\n")
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
