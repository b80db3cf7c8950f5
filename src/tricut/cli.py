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
Each command decodes its instance payload once, through the kind table
`_KINDS`; solve decodes the payload it generates the same way.  Every
kind's payload decodes to integer rows, which its solver body takes as they
are; the dataclass items the oracles and figures need are built from those
rows only when verify or a figure needs them (`_objects`).  Exit codes:
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

from . import serialization as ser
from .arcs import _arcset_of_rows
from .cells import _face_of_rows, build_arrangement, cycle_parity
from .core import Color, arcset_color_counts, dual_point_to_line, require_rgb
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

# per solve kind: the generator and default n of the instance a solve command
# makes itself, and the name of its payload decoder in `serialization` (looked
# up at call time, so a wrapper bound there sees the call); segment takes the
# duals of convex-position points: simple, 2n lines per color.  Every kind
# decodes to the integer rows its solver body takes
_KINDS = {
    "cell": (GenKind.SimpleLines3C, 7, "dec_line_rows"),
    "wedge111": (GenKind.Points3C, 9, "dec_point_rows"),
    "wedge": (GenKind.Points3CConvex, 2, "dec_point_rows"),
    "segment": (GenKind.Points3CConvex, 2, "dec_line_rows"),
    "arcs": (GenKind.CirclePoints3C, 5, "dec_circle_rows"),
    "lline": (GenKind.LatticeRedHull, 4, "dec_lattice_rows"),
}
SOLVE_KINDS = tuple(_KINDS)


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


def _instance_id(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()[:12]


# -- solving ---------------------------------------------------------------------


def _decode(kind: str, payload: dict):
    """The items of an instance payload, through its solve kind's decoder."""
    return getattr(ser, _KINDS[kind][2])(payload)


def _objects(kind: str, items):
    """The dataclass items of decoded ones, for the oracles and figures."""
    if kind in ("cell", "segment"):
        return ser._lines_of_rows(*items)
    if kind == "arcs":
        return ser._circle_of_rows(*items)
    if kind == "lline":
        return ser._lattice_of_rows(*items)
    return _points_of_rows(*items)


def _answer(answer: dict, key: str, dec):
    """dec(answer[key]); a missing key or an answer that is no object is malformed."""
    with ser.decoding():
        return dec(answer[key])


def _solve(kind: str, items, k: int | None) -> dict:
    """Run one solver on decoded items; answers come back as JSON data."""
    if kind == "cell":
        return {"face": ser.enc_face(_face_of_rows(*items))}
    if kind in ("wedge111", "wedge"):
        w = (_wedge111_of_rows if kind == "wedge111" else _wedge_of_rows)(*items)
        return {"wedge": ser.enc_wedge(w), "dual_segment": ser.enc_segment(wedge_dual_segment(w))}
    if kind == "segment":
        return {"segment": ser.enc_segment(_segment_of_rows(*items))}
    if kind == "arcs":
        if k is None:
            raise PreconditionViolated("solve arcs requires --k")
        return {"arcs": ser.enc_arcset(_arcset_of_rows(*items, k))}
    l, kk = _lline_of_rows(*items)
    return {"lline": ser.enc_lline(l), "k": kk}


def _counts_tuple(cc: dict) -> tuple[int, int, int]:
    return (cc[Color.R], cc[Color.G], cc[Color.B])


def _report(kind: str, payload: dict, items, answer: dict, k: int | None) -> VerificationReport:
    """Recompute the oracle check of a JSON answer on the dataclass items of
    `payload` (what verify re-runs)."""
    t0 = time.perf_counter()
    what = "line" if kind in ("cell", "segment") else "point"
    if kind in ("cell", "wedge111", "arcs"):  # lline: LatticePointSet; wedge, segment: _require_6n
        require_rgb([x.color for x in items], what)

    if kind == "cell":
        with ser.decoding():
            verts = [ser.dec_xy(v) for v in answer["face"]["vertices"]]
            colors = [Color(c) for c in answer["face"]["boundary_colors"]]
        complete = scan_all_complete_faces(build_arrangement(items))
        oracle = tuple(sorted(ser.enc_xy(v) for v in f.vertices) for f in complete)
        # a cell's edges (vertex, color, next vertex) do not depend on the
        # vertex either construction path starts its cycle at
        def edges(vs, cs):
            return len(vs), frozenset(zip(vs, cs, vs[1:] + vs[:1]))

        mine = edges(verts, colors)
        member = len(verts) == len(colors) and any(
            edges(f.vertices, f.boundary_colors) == mine for f in complete
        )
        counts, target = cycle_parity(colors), (1, 1, 1)

    elif kind in ("wedge111", "wedge", "segment"):
        # a wedge or segment instance the solver refuses, refused with its message
        n = 1 if kind == "wedge111" else _require_6n([x.color for x in items], what)
        target = (n, n, n)
        if kind == "segment":
            seg = _answer(answer, "segment", ser.dec_segment)
            # count_segment_crossings refuses an end on a line, so each side is +-1
            counts = _counts_tuple(count_segment_crossings(seg, items))
            key = tuple(i for i, l in enumerate(items) if l.side(seg.p) != l.side(seg.q))
            oracle_of = brute_oracle_segments
        else:
            w = _answer(answer, "wedge", ser.dec_wedge)
            counts = _counts_tuple(wedge_color_counts(w, items))
            key = wedge_point_indices(w, items)
            oracle_of = brute_oracle_wedges
        if len(items) <= ORACLE_MAX_POINTS["wedge"]:
            oracle_sets = oracle_of(items, target)
            member = key in oracle_sets
            oracle = tuple(list(t) for t in oracle_sets)
        else:
            oracle, member = (), counts == target

    elif kind == "arcs":
        if k is None:
            raise PreconditionViolated("verify arcs requires the k parameter")
        a = _answer(answer, "arcs", ser.dec_arcset)
        counts = _counts_tuple(arcset_color_counts(a, items))
        target = (k, k, k)
        keys = {arcset_points_key(o, items) for o in enumerate_2arc_sets(items, k)}
        member = a.component_count() <= 2 and arcset_points_key(a, items) in keys
        oracle = tuple(sorted(list(kk) for kk in keys))

    else:
        with ser.decoding():
            l = ser.dec_lline(answer["lline"])
            kk = answer["k"]
        if type(kk) is not int:
            raise PreconditionViolated(f"answer.k must be an integer, got {kk!r}")
        counts = lline_counts(l, items)[0]
        target = (kk, kk, kk)
        oracle_pairs = brute_oracle_llines(items)
        member = (l, kk) in oracle_pairs
        oracle = tuple({"lline": ser.enc_lline(ol), "k": ok} for ol, ok in oracle_pairs)

    return VerificationReport(
        instance_id=_instance_id(payload),
        solver_answer=answer,
        oracle_answers=oracle,
        member=member,
        counts=counts,
        target=target,
        elapsed_s=time.perf_counter() - t0,
    )


def _report_as_dict(r: VerificationReport) -> dict:
    return json.loads(r.to_json_line())


def _draw(kind: str, items, answer: dict | None) -> str:
    """SVG of dataclass items with their kind's JSON answer drawn over them;
    with no answer, the items alone."""

    def drawn(key: str, dec):
        return None if answer is None else _answer(answer, key, dec)

    if kind == "cell":
        return render_arrangement(build_arrangement(items), drawn("face", ser.dec_face))
    if kind in ("wedge111", "wedge"):
        return render_wedge(items, drawn("wedge", ser.dec_wedge))
    if kind == "arcs":
        return render_arcset(items, drawn("arcs", ser.dec_arcset))
    if kind == "lline":
        return render_lline(items, drawn("lline", ser.dec_lline))
    return render_arrangement(build_arrangement(items))  # a segment as its lines


# -- commands --------------------------------------------------------------------


def _cmd_gen(args) -> int:
    spec = GenSpec(args.kind, args.n, args.seed)
    obj = generate(spec)
    env = ser.enc_instance(spec.kind.value, args.n, args.seed, obj)
    _emit(_envelope_text(env), args.out)
    return 0


def _cmd_solve(args) -> int:
    kind = args.what
    if args.infile is not None:
        payload = ser.unwrap_instance(_load_json(args.infile))
    else:
        gen, n, _ = _KINDS[kind]
        n = n if args.n is None else args.n
        objects = generate(GenSpec(gen, n, args.seed))
        if kind == "segment":
            objects = tuple(dual_point_to_line(p) for p in objects)
        payload = ser.enc_instance(gen.value, n, args.seed, objects)["instance"]
    items = _decode(kind, payload)  # a generated instance too: one route
    k = args.k
    answer = _solve(kind, items, k)
    if kind == "lline":
        k = answer["k"]
    env = {
        "command": f"solve {kind}",
        "params": {"k": k},
        "instance": payload,
        "answer": answer,
        "verification": None,
    }
    objects = _objects(kind, items) if args.verify or args.format == "svg" else None
    if args.verify:
        env["verification"] = _report_as_dict(_report(kind, payload, objects, answer, k))
        if not env["verification"]["member"]:
            raise InternalError("solver answer rejected by its oracle", env["verification"])
    if args.format == "svg":
        _emit(_draw(kind, objects, answer), args.out)
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
    items = _objects(kind, _decode(kind, env["instance"]))
    report = _report(kind, env["instance"], items, env["answer"], k)
    got = _report_as_dict(report)
    if not got["member"]:
        raise InternalError("solution rejected by its oracle", got)
    embedded = env.get("verification")
    if embedded is not None:
        a = {key: v for key, v in embedded.items() if key != "elapsed_s"}
        b = {key: v for key, v in got.items() if key != "elapsed_s"}
        if a != b:
            raise InternalError(
                "re-verification differs from the embedded report",
                {"embedded": a, "recomputed": b},
            )
    _emit(report.to_json_line(), args.out)
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
    _emit(_draw(kind, _objects(kind, _decode(kind, payload)), answer), args.out)
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
    g.add_argument("--out", dest="out", default=None)
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="run a solver")
    s.add_argument("what", choices=SOLVE_KINDS)
    s.add_argument("--in", dest="infile", default=None)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--verify", action="store_true")
    s.add_argument("--format", choices=("json", "svg"), default="json")
    s.add_argument("--out", dest="out", default=None)
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="re-check a solution file against oracles")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--out", dest="out", default=None)
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("render", help="draw an instance or solution as SVG")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--format", choices=("svg",), default="svg")
    r.add_argument("--out", dest="out", default=None)
    r.set_defaults(func=_cmd_render)
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
