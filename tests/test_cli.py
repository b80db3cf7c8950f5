"""End-to-end command line runs, in subprocesses and in process.

Covers the exit-code contract (0 success, 2 precondition, 3 internal),
solve/verify round trips, and SVG rendering of instances and solutions;
`TestEveryKind` takes each solve kind through the file routes in process.
"""

import json
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from tricut import arcs, cells, cli, core, llines, serialization as ser, wedges
from tricut.cells import find_complete_face
from tricut.generators import GenKind, GenSpec, generate
from tricut.llines import find_balanced_lline

from payload_reference import (
    dec_circle_payload,
    dec_lattice_payload,
    dec_lines_payload,
    dec_points_payload,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tricut.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


# six simple lines, 2 per color, the first one vertical
VERTICAL_SIX = [
    {"a": "1", "b": "0", "c": "0", "color": "R"}, {"a": "1", "b": "-1", "c": "3", "color": "R"},
    {"a": "1", "b": "2", "c": "-5", "color": "G"}, {"a": "1", "b": "-3", "c": "7", "color": "G"},
    {"a": "1", "b": "5", "c": "11", "color": "B"}, {"a": "0", "b": "1", "c": "-13", "color": "B"},
]


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a = run_cli("gen", "SimpleLines3C", "--n", "6", "--seed", "9")
        b = run_cli("gen", "SimpleLines3C", "--n", "6", "--seed", "9")
        assert a.returncode == 0 and a.stdout == b.stdout

    def test_writes_file(self, tmp_path):
        out = tmp_path / "inst.json"
        r = run_cli("gen", "CirclePoints3C", "--n", "4", "--seed", "2", "--out", str(out))
        assert r.returncode == 0
        env = json.loads(out.read_text())
        assert env["kind"] == "CirclePoints3C"
        assert len(env["instance"]["points"]) == 12

    def test_unknown_kind_rejected(self):
        assert run_cli("gen", "Nonsense").returncode == 2

    def test_impossible_instance_exit_2(self):
        r = run_cli("gen", "LatticeRedHull", "--n", "2", "--seed", "1")
        assert r.returncode == 2
        assert "hull" in r.stderr


class TestSolve:
    def test_arcs_example(self):
        # the flagship invocation: 15 circle points, 5 per color, k = 2
        r = run_cli("solve", "arcs", "--n", "5", "--k", "2", "--seed", "1", "--verify")
        assert r.returncode == 0
        env = json.loads(r.stdout)
        v = env["verification"]
        assert v["member"] is True
        assert v["counts"] == [2, 2, 2] == v["target"]
        assert len(env["answer"]["arcs"]) <= 2

    def test_arcs_requires_k(self):
        assert run_cli("solve", "arcs", "--n", "5").returncode == 2

    @pytest.mark.parametrize("kind", [k for k in cli.SOLVE_KINDS if k != "arcs"])
    def test_other_kinds_refuse_k(self, kind, tmp_path, capsys):
        out = tmp_path / "out.json"
        for k in ("1", "99"):
            assert cli.run(["solve", kind, "--k", k, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: solve {kind} takes no --k\n"
        assert not out.exists()

    def test_cell_from_file(self, tmp_path):
        inst = tmp_path / "lines.json"
        run_cli("gen", "SimpleLines3C", "--n", "7", "--seed", "4", "--out", str(inst))
        r = run_cli("solve", "cell", "--in", str(inst), "--verify")
        assert r.returncode == 0
        env = json.loads(r.stdout)
        assert env["verification"]["member"] is True
        assert env["verification"]["counts"] == [1, 1, 1]

    def test_wedge_prints_dual_segment(self):
        r = run_cli("solve", "wedge", "--n", "2", "--seed", "3", "--verify")
        assert r.returncode == 0
        env = json.loads(r.stdout)
        assert env["answer"]["dual_segment"] is not None
        assert env["verification"]["counts"] == [2, 2, 2]

    def test_wedge111_and_segment(self):
        r = run_cli("solve", "wedge111", "--n", "10", "--seed", "6", "--verify")
        assert json.loads(r.stdout)["verification"]["counts"] == [1, 1, 1]
        r2 = run_cli("solve", "segment", "--n", "2", "--seed", "6", "--verify")
        assert json.loads(r2.stdout)["verification"]["member"] is True

    def test_segment_with_a_vertical_line_is_oracle_checked(self, tmp_path):
        inst = tmp_path / "vertical.json"
        inst.write_text(json.dumps({"instance": {"lines": VERTICAL_SIX}}))
        r = run_cli("solve", "segment", "--in", str(inst), "--verify")
        assert r.returncode == 0, r.stderr
        v = json.loads(r.stdout)["verification"]
        assert v["member"] is True and v["counts"] == [1, 1, 1]
        assert len(v["oracle_answers"]) == 8 and [1, 3, 5] in v["oracle_answers"]

    def test_lline_self_generated(self):
        r = run_cli("solve", "lline", "--n", "4", "--seed", "5", "--verify")
        assert r.returncode == 0
        env = json.loads(r.stdout)
        assert 1 <= env["answer"]["k"] <= 3
        assert env["verification"]["member"] is True

    def test_lline_diagonal_fixture_exit_2(self, tmp_path):
        inst = tmp_path / "diag.json"
        run_cli(
            "gen", "LatticeDiagonalCounterexample", "--n", "4", "--seed", "1",
            "--out", str(inst),
        )
        r = run_cli("solve", "lline", "--in", str(inst))
        assert r.returncode == 2
        assert "hull" in r.stderr

    def test_unknown_flag_exit_2(self):
        assert run_cli("solve", "cell", "--bogus").returncode == 2

    def test_arcs_neutral_point_exit_2(self, tmp_path):
        # balanced R, G, B plus one K point: a precondition, not a crash
        inst = tmp_path / "k.json"
        pts = [{"t": f"{i}/8", "color": c} for i, c in enumerate("RGBRGBK", start=1)]
        inst.write_text(json.dumps({"points": pts}))
        r = run_cli("solve", "arcs", "--in", str(inst), "--k", "1")
        assert r.returncode == 2
        assert "color K" in r.stderr

    def test_arcs_huge_exponent_exit_2(self, tmp_path, capsys):
        # an 11-byte parameter that would decode to a ten-million-digit
        # denominator is refused before it is built
        inst = tmp_path / "e.json"
        pts = [{"t": f"{i}/8", "color": c} for i, c in enumerate("RGBRGB", start=1)]
        pts[0]["t"] = "1e-10000000"
        inst.write_text(json.dumps({"points": pts}))
        t0 = time.process_time()
        assert cli.run(["solve", "arcs", "--in", str(inst), "--k", "1"]) == 2
        assert time.process_time() - t0 < 1.0
        assert "not a rational: '1e-10000000'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,instance",
        [
            ("wedge", {"points": [{"x": "1"}]}),
            ("cell", {"lines": [{"a": "1"}]}),
            ("wedge", {"points": [{"x": "1", "y": "2", "color": "Q"}]}),
            ("cell", {"lines": "abc"}),
        ],
        ids=["missing-y", "missing-b", "unknown-color", "lines-not-a-list"],
    )
    def test_malformed_instance_exit_2(self, tmp_path, kind, instance):
        inst = tmp_path / "bad.json"
        inst.write_text(json.dumps(instance))
        r = run_cli("solve", kind, "--in", str(inst))
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1

    def test_solve_svg_output(self, tmp_path):
        out = tmp_path / "pic.svg"
        r = run_cli(
            "solve", "arcs", "--n", "4", "--k", "1", "--seed", "2",
            "--format", "svg", "--out", str(out),
        )
        assert r.returncode == 0
        assert out.read_text().startswith("<svg ")


class TestVerify:
    def solution(self, tmp_path, *args):
        out = tmp_path / "sol.json"
        r = run_cli(*args, "--out", str(out))
        assert r.returncode == 0
        return out

    def test_round_trip_idempotent(self, tmp_path):
        sol = self.solution(
            tmp_path, "solve", "arcs", "--n", "5", "--k", "3", "--seed", "7", "--verify"
        )
        r1 = run_cli("verify", "--in", str(sol))
        r2 = run_cli("verify", "--in", str(sol))
        assert r1.returncode == 0 and r2.returncode == 0
        d1, d2 = json.loads(r1.stdout), json.loads(r2.stdout)
        d1.pop("elapsed_s"), d2.pop("elapsed_s")
        assert d1 == d2
        embedded = json.loads(sol.read_text())["verification"]
        embedded.pop("elapsed_s")
        assert embedded == d1

    def test_verify_without_embedded_report(self, tmp_path):
        sol = self.solution(tmp_path, "solve", "lline", "--n", "4", "--seed", "11")
        assert json.loads(sol.read_text())["verification"] is None
        assert run_cli("verify", "--in", str(sol)).returncode == 0

    def test_tampered_solution_exit_3(self, tmp_path):
        sol = self.solution(
            tmp_path, "solve", "arcs", "--n", "4", "--k", "2", "--seed", "5"
        )
        env = json.loads(sol.read_text())
        env["answer"]["arcs"] = [["0", "1/2"]]  # wrong counts on purpose
        sol.write_text(json.dumps(env))
        r = run_cli("verify", "--in", str(sol))
        assert r.returncode == 3
        trace = json.loads(r.stderr)
        assert trace["error"] == "internal"

    def test_tampered_cell_colors_exit_3(self, tmp_path):
        sol = self.solution(tmp_path, "solve", "cell", "--n", "7", "--seed", "1")
        env = json.loads(sol.read_text())
        face = env["answer"]["face"]
        face["boundary_colors"] = ["R"] * len(face["boundary_colors"])
        sol.write_text(json.dumps(env))
        r = run_cli("verify", "--in", str(sol))
        assert r.returncode == 3
        assert json.loads(r.stderr)["error"] == "internal"

    def test_rotated_cell_verifies(self, tmp_path):
        sol = self.solution(tmp_path, "solve", "cell", "--n", "7", "--seed", "1")
        env = json.loads(sol.read_text())
        face = env["answer"]["face"]
        for key in ("vertices", "boundary_lines", "boundary_colors"):
            face[key] = face[key][1:] + face[key][:1]
        sol.write_text(json.dumps(env))
        assert run_cli("verify", "--in", str(sol)).returncode == 0

    def test_neutral_point_in_solution_exit_2(self, tmp_path):
        sol = self.solution(
            tmp_path, "solve", "arcs", "--n", "2", "--k", "1", "--seed", "3"
        )
        env = json.loads(sol.read_text())
        env["instance"]["points"].append({"t": "1/999", "color": "K"})
        sol.write_text(json.dumps(env))
        r = run_cli("verify", "--in", str(sol))
        assert r.returncode == 2
        assert "color K" in r.stderr

    @pytest.mark.parametrize("drop", ["answer.wedge", "wedge.apex"])
    def test_malformed_answer_exit_2(self, tmp_path, drop):
        sol = self.solution(tmp_path, "solve", "wedge", "--n", "2", "--seed", "1")
        env = json.loads(sol.read_text())
        if drop == "answer.wedge":
            env["answer"] = {}
        else:
            del env["answer"]["wedge"]["apex"]
        sol.write_text(json.dumps(env))
        r = run_cli("verify", "--in", str(sol))
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1

    @pytest.mark.parametrize("edit", ["command", "params.k", "params", "envelope"])
    def test_malformed_envelope_exit_2(self, tmp_path, edit):
        sol = self.solution(tmp_path, "solve", "arcs", "--n", "3", "--k", "1", "--seed", "1")
        env = json.loads(sol.read_text())
        if edit == "command":
            env["command"] = 5
        elif edit == "params.k":
            env["params"] = {"k": "1"}
        elif edit == "params":
            env["params"] = [1]
        else:
            env = "command instance answer"
        sol.write_text(json.dumps(env))
        r = run_cli("verify", "--in", str(sol))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1

    @pytest.mark.parametrize("k", [3.7, "3", True])
    def test_non_integer_lline_k_exit_2(self, tmp_path, k):
        # answer.k is held to type(k) is int, as params.k is: int() would
        # read 3.7 and "3" as the solver's own k = 3
        sol = self.solution(tmp_path, "solve", "lline", "--n", "5", "--seed", "17")
        env = json.loads(sol.read_text())
        assert env["answer"]["k"] == 3
        env["answer"]["k"] = k
        sol.write_text(json.dumps(env))
        r = run_cli("verify", "--in", str(sol))
        assert r.returncode == 2, r.stderr
        assert r.stderr == f"error: answer.k must be an integer, got {k!r}\n"

    def test_verify_needs_solution_shape(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"lines": []}))
        assert run_cli("verify", "--in", str(bad)).returncode == 2

    def test_missing_file_exit_2(self):
        assert run_cli("verify", "--in", "/nonexistent/x.json").returncode == 2

    @pytest.mark.parametrize("kind,n,edit,message", [
        ("segment", 1, "B->R", "no line of color B"),
        ("segment", 1, "empty", "need 6n lines, got 0"),  # as solve segment --in says
        ("segment", 4, "B->R", "no line of color B"),  # 24 lines, past the oracle cap
        ("wedge", 4, "B->R", "no point of color B"),
        ("cell", 7, "K", "line 0 has color K, want R, G or B"),
        # not 6n items, or not 2n per color: what solve refuses, with its message
        ("wedge", 2, "drop", "need 6n points, got 11"),
        ("segment", 2, "drop", "need 6n lines, got 11"),
        ("wedge", 2, "one G->R", "color R has 5 points, want 4"),
        # the answer crosses one line per color, but the instance is R, R, G, R, G, B
        ("segment", 1, "RRGRGB", "color R has 3 lines, want 2"),
    ], ids=["segment", "segment-empty", "segment-past-cap", "wedge-past-cap", "cell-neutral",
            "wedge-dropped", "segment-dropped", "wedge-recolored", "segment-unbalanced"])
    def test_instance_colors_checked_exit_2(self, tmp_path, capsys, kind, n, edit, message):
        sol = tmp_path / "sol.json"
        assert cli.run(["solve", kind, "--n", str(n), "--seed", "3", "--out", str(sol)]) == 0
        env = json.loads(sol.read_text())
        items = env["instance"]["lines" if kind in ("cell", "segment") else "points"]
        if edit == "empty":
            items.clear()
        elif edit == "K":
            items[0]["color"] = "K"
        elif edit == "drop":
            items.pop()
        elif edit == "one G->R":
            next(item for item in items if item["color"] == "G")["color"] = "R"
        elif edit == "RRGRGB":
            for item, c in zip(items, edit):
                item["color"] = c
        else:
            for item in items:
                item["color"] = "R" if item["color"] == "B" else item["color"]
        sol.write_text(json.dumps(env))
        assert cli.run(["verify", "--in", str(sol)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRender:
    def test_solution_pictures(self, tmp_path):
        cases = [
            (["solve", "cell", "--n", "6", "--seed", "2"], "polygon"),
            (["solve", "wedge111", "--n", "9", "--seed", "2"], "circle"),
            (["solve", "arcs", "--n", "4", "--k", "2", "--seed", "2"], "path"),
            (["solve", "lline", "--n", "4", "--seed", "2"], "line"),
        ]
        for args, marker in cases:
            sol = tmp_path / "sol.json"
            assert run_cli(*args, "--out", str(sol)).returncode == 0
            out = tmp_path / "pic.svg"
            r = run_cli("render", "--in", str(sol), "--out", str(out))
            assert r.returncode == 0, r.stderr
            doc = out.read_text()
            assert doc.startswith("<svg ") and f"<{marker}" in doc

    def test_bare_instance_render(self, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli("gen", "SimpleLines3C", "--n", "5", "--seed", "8", "--out", str(inst))
        r = run_cli("render", "--in", str(inst))
        assert r.returncode == 0 and r.stdout.startswith("<svg ")

    @pytest.mark.parametrize("gen_kind", [k.value for k in GenKind])
    def test_every_gen_envelope_renders(self, tmp_path, capsys, gen_kind):
        # lines, circle points, lattice points and other points all draw bare
        inst = tmp_path / "inst.json"
        assert cli.run(["gen", gen_kind, "--n", "5", "--seed", "8", "--out", str(inst)]) == 0
        assert cli.run(["render", "--in", str(inst)]) == 0
        assert capsys.readouterr().out.startswith("<svg ")

    def test_render_rejects_json_format(self, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli("gen", "SimpleLines3C", "--n", "5", "--seed", "8", "--out", str(inst))
        assert run_cli("render", "--in", str(inst), "--format", "json").returncode == 2

    def test_nothing_renderable_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"what": 1}))
        assert run_cli("render", "--in", str(bad)).returncode == 2

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"command": 5, "instance": {"lines": []}, "answer": {}},
        {"command": "solve cell", "instance": 5, "answer": {}},
        {"points": [5]},
    ], ids=["list", "command", "instance", "points"])
    def test_malformed_file_exit_2(self, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        r = run_cli("render", "--in", str(bad))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def k_flag(kind):
    return ["--k", "2"] if kind == "arcs" else []


@pytest.mark.parametrize("kind", cli.SOLVE_KINDS)
class TestEveryKind:
    """Each solve kind at its default n, seed 1, through every file route."""

    def solve(self, tmp_path, kind, name, *args):
        out = tmp_path / name
        assert cli.run(["solve", kind, "--seed", "1", *k_flag(kind), *args, "--out", str(out)]) == 0
        return out

    def test_file_solve_repeats_the_generated_one(self, tmp_path, kind):
        gen = self.solve(tmp_path, kind, "gen.json")
        again = tmp_path / "again.json"
        assert cli.run(["solve", kind, "--in", str(gen), *k_flag(kind), "--out", str(again)]) == 0
        a, b = json.loads(gen.read_text()), json.loads(again.read_text())
        assert (a["instance"], a["answer"]) == (b["instance"], b["answer"])

    def test_svg_equals_render_of_the_json(self, tmp_path, kind):
        svg = self.solve(tmp_path, kind, "solve.svg", "--format", "svg")
        pic = tmp_path / "render.svg"
        assert cli.run(["render", "--in", str(self.solve(tmp_path, kind, "sol.json")),
                        "--out", str(pic)]) == 0
        assert svg.read_text().startswith("<svg ")
        assert svg.read_bytes() == pic.read_bytes()

    def test_verified_file_verifies(self, tmp_path, kind, capsys):
        sol = self.solve(tmp_path, kind, "sol.json", "--verify")
        assert cli.run(["verify", "--in", str(sol)]) == 0
        assert json.loads(capsys.readouterr().out)["member"] is True

    def test_file_without_command_renders_as_its_bare_instance(self, tmp_path, kind, capsys):
        # every instance draws bare, whatever answer the file holds
        env = json.loads(self.solve(tmp_path, kind, "sol.json").read_text())
        del env["command"]
        results = []
        for doc in (env, {"instance": env["instance"]}):
            f = tmp_path / "doc.json"
            f.write_text(json.dumps(doc))
            results.append((cli.run(["render", "--in", str(f)]), capsys.readouterr()))
        assert results[0] == results[1]
        assert results[0][0] == 0
        assert results[0][1].out.startswith("<svg ")


def _mapped_lines(lines):
    """The lines under the affine map (x, y) -> (x * 7/3 + 5/11, y * 13/17 - 2/9),
    coefficients written as "p/q": a simple arrangement stays simple."""
    s, t, u, v = F(7, 3), F(5, 11), F(13, 17), F(-2, 9)
    return [
        {"a": str(l.a / s), "b": str(l.b / u), "c": str(l.c - l.a * t / s - l.b * v / u),
         "color": l.color.value}
        for l in lines
    ]


# three points, two sharing x, that once made the 111 solver raise InternalError
SHARED_X_THREE = [{"color": "R", "x": "-1", "y": "-2"}, {"color": "B", "x": "-1", "y": "71771"},
                  {"color": "G", "x": "2", "y": "8317"}]


class TestIntegerRoutes:
    """`solve <kind> --in` runs every kind's solver body on the integer rows
    of the payload; the answers equal the public dataclass entries' on the
    payload the reference decoders read."""

    @pytest.mark.parametrize("case", [
        "lines", "mapped-lines", "lattice", "points", "mapped-points", "segment", "segment-vertical",
        "arcs-1", "arcs-21", "arcs-39", "arcs-rational", "wedge111", "wedge111-shared-x",
    ])
    def test_same_answer_as_the_dataclass_entry(self, tmp_path, monkeypatch, case):
        k = None
        if case.startswith("arcs"):
            points = generate(GenSpec(GenKind.CirclePoints3C, 40, 1))
            if case == "arcs-rational":
                points, k = _relabelled(points), 21
            else:
                k = int(case.split("-")[1])
            kind, payload = "arcs", {"points": [ser.enc_circle_point(p) for p in points]}
        elif case == "wedge111":
            points = generate(GenSpec(GenKind.Points3C, 30, 1))
            kind, payload = "wedge111", {"points": [ser.enc_point(p) for p in points]}
        elif case == "wedge111-shared-x":
            kind, payload = "wedge111", {"points": SHARED_X_THREE}
        elif case == "lattice":
            kind, payload = "lline", ser.enc_instance(
                "LatticeRedHull", 32, 1, generate(GenSpec(GenKind.LatticeRedHull, 32, 1)))
        elif case in ("lines", "mapped-lines"):
            lines = generate(GenSpec(GenKind.SimpleLines3C, 100, 1))
            body = ([ser.enc_line(l) for l in lines] if case == "lines" else _mapped_lines(lines))
            kind, payload = "cell", {"lines": body}
        elif case == "segment-vertical":
            kind, payload = "segment", {"lines": VERTICAL_SIX}
        else:
            points = generate(GenSpec(GenKind.Points3CConvex, 24, 1))
            if case == "segment":
                kind, payload = "segment", {"lines": [
                    ser.enc_line(core.dual_point_to_line(p)) for p in points]}
            else:
                body = [ser.enc_point(p) for p in points] if case == "points" else _mapped_points(points)
                kind, payload = "wedge", {"points": body}
        inst, out = tmp_path / "in.json", tmp_path / "out.json"
        inst.write_text(json.dumps(payload))

        assert not [name for name in dir(ser) if name.startswith("dec_") and name.endswith("_payload")]
        calls = Counter()
        if kind == "lline":
            init = llines.LatticePointSet.__post_init__
            monkeypatch.setattr(llines.LatticePointSet, "__post_init__",
                                _counted(calls, "LatticePointSet", init))
        else:
            # every module that holds one of these by name
            for name in ("int_line", "int_point", "int_points", "circle_point",
                         "dual_point_to_line"):
                real = getattr(core, name)
                for mod in (core, cells, wedges, arcs, ser, cli):
                    if getattr(mod, name, None) is real:
                        monkeypatch.setattr(mod, name, _counted(calls, name, real))
            # a wedge's answer carries the dual points of its two neutral
            # boundary lines; no input line or point is dualized
            real_dual = core.dual_line_to_point

            def dual(l):
                calls["dual_line_to_point", l.color.value] += 1
                return real_dual(l)

            for mod in (core, wedges, cli):
                if getattr(mod, "dual_line_to_point", None) is real_dual:
                    monkeypatch.setattr(mod, "dual_line_to_point", dual)
            # the Fraction cells and segments of the cell module
            for name in ("Face", "Segment"):
                monkeypatch.setattr(cells, name, _counted(calls, name, getattr(cells, name)))
        argv = ["solve", kind, "--in", str(inst), "--out", str(out)]
        assert cli.run(argv + ([] if k is None else ["--k", str(k)])) == 0
        want_calls = Counter()
        if kind in ("wedge", "wedge111"):
            want_calls["dual_line_to_point", "K"] = 2
        if kind == "cell":
            want_calls["Face"] = 1
        # the 111 wedge hands its cell and its segment over as integer
        # triples: no int_point, Face or Segment between the two
        assert calls == want_calls
        monkeypatch.undo()

        got = json.loads(out.read_text())["answer"]
        if kind == "cell":
            want = {"face": ser.enc_face(find_complete_face(dec_lines_payload(payload)))}
        elif kind in ("wedge", "wedge111"):
            points = dec_points_payload(payload)
            w = (wedges.sweep_balanced_wedge(points) if kind == "wedge"
                 else wedges.find_111_wedge(points))
            want = {"wedge": ser.enc_wedge(w),
                    "dual_segment": ser.enc_segment(wedges.wedge_dual_segment(w))}
        elif kind == "segment":
            want = {"segment": ser.enc_segment(
                wedges.halving_segment(dec_lines_payload(payload)))}
        elif kind == "arcs":
            want = {"arcs": ser.enc_arcset(arcs.find_k_arcset(dec_circle_payload(payload), k))}
        else:
            l, k = find_balanced_lline(dec_lattice_payload(payload))
            want = {"lline": ser.enc_lline(l), "k": k}
        assert got == want


def _relabelled(points):
    """The circle points with the same order of parameters, moved onto
    distinct denominators between 1e5 and 1e6, as the rational-scale
    benchmark maps them."""
    rng = random.Random(7)
    fresh = sorted({F(rng.randrange(1, d), d) for d in rng.sample(range(10**5, 10**6), len(points))})
    order = sorted(range(len(points)), key=lambda i: points[i].t)
    out = [None] * len(points)
    for t, i in zip(fresh, order):
        out[i] = core.circle_point(t, points[i].color)
    return out


def _mapped_points(points):
    """The points under the affine map (x, y) -> (x * 7/3 + 5/11, y * 13/17 - 2/9),
    coordinates written as "p/q": x order and general position stay."""
    s, t, u, v = F(7, 3), F(5, 11), F(13, 17), F(-2, 9)
    return [{"x": str(p.x * s + t), "y": str(p.y * u + v), "color": p.color.value}
            for p in points]


def _counted(calls, name, f):
    def spy(*args, **kwargs):
        calls[name] += 1
        return f(*args, **kwargs)
    return spy


@pytest.mark.parametrize("args", [
    ["solve", "cell", "--in"],
    ["verify", "--in"],
    ["render", "--in"],
], ids=["solve", "verify", "render"])
def test_non_utf8_file_exit_2(tmp_path, args):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"lines": ["é"]}'.encode("latin-1"))
    r = run_cli(*args, str(bad))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "UTF-8" in r.stderr
    assert r.stderr.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["solve", "lline", "--in"],
    ["verify", "--in"],
    ["render", "--in"],
], ids=["solve", "verify", "render"])
def test_overlong_json_integer_exit_2(tmp_path, args):
    # json.load raises a plain ValueError past Python's 4300-digit limit
    bad = tmp_path / "long.json"
    bad.write_text('{"instance": {"points": [{"x": ' + "9" * 5000 + ', "y": 1, "color": "R"}]}}')
    r = run_cli(*args, str(bad))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith(f"error: {bad} holds a number too long to read")
    assert r.stderr.count("\n") == 1


def test_lline_past_int64_verifies(tmp_path):
    # every point mapped to (x 10**20 + 1, y 10**20 + 7): the doubled
    # coordinates no longer fit an int64, the oracle's ranks do
    env = json.loads(run_cli("gen", "LatticeRedHull", "--n", "5", "--seed", "3").stdout)
    for p in env["instance"]["points"]:
        p["x"], p["y"] = p["x"] * 10**20 + 1, p["y"] * 10**20 + 7
    inst, sol = tmp_path / "big.json", tmp_path / "big-solved.json"
    inst.write_text(json.dumps(env))
    r = run_cli("solve", "lline", "--in", str(inst), "--verify", "--out", str(sol))
    assert r.returncode == 0, r.stderr
    v = json.loads(sol.read_text())["verification"]
    assert v["member"] is True and v["oracle_answers"]
    r = run_cli("verify", "--in", str(sol))
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("n", [16, 24, 32, 200])
def test_lline_verify_up_to_the_oracle_cap(tmp_path, n):
    # the scale rungs and the last size the L-line oracle takes, 600 points
    sol = tmp_path / "sol.json"
    assert cli.run(["solve", "lline", "--n", str(n), "--seed", "1", "--verify", "--out", str(sol)]) == 0
    v = json.loads(sol.read_text())["verification"]
    assert v["member"] is True and v["oracle_answers"]


def test_lline_verify_past_the_oracle_cap_exit_2(capsys):
    assert cli.run(["solve", "lline", "--n", "201", "--seed", "1", "--verify"]) == 2
    assert capsys.readouterr().err == "error: oracle is limited to 1..600 points, got 603\n"


@pytest.mark.parametrize("argv", [
    ["solve", "arcs", "--n", "4", "--k", "1", "--seed", "2"],
    ["solve", "arcs", "--n", "4", "--k", "1", "--seed", "2", "--format", "svg"],
    ["gen", "SimpleLines3C", "--n", "5", "--seed", "8"],
], ids=["solve-json", "solve-svg", "gen"])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.run(argv) == 0
    printed = capsys.readouterr().out
    assert cli.run([*argv, "--out", str(out)]) == 0
    assert printed.endswith("\n") and out.read_bytes() == printed.encode()


@pytest.mark.parametrize("argv", [["solve", "cell"], ["gen", "SimpleLines3C"]], ids=["solve", "gen"])
@pytest.mark.parametrize("where", ["no/such/dir/x.json", "."], ids=["missing-dir", "a-directory"])
def test_unwritable_out_exit_2(tmp_path, capsys, argv, where):
    path = tmp_path / where
    assert cli.run([*argv, "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_cached_parser_after_a_failing_call(tmp_path, capsys):
    # run() builds its parser once per process; calls that fail in argparse
    # or in the solver leave nothing behind for the next call to read
    with pytest.raises(SystemExit) as err:
        cli.run(["solve", "nonsense"])
    assert err.value.code == 2
    assert cli.run(["solve", "arcs", "--n", "5", "--k", "99", "--seed", "1", "--verify"]) == 2
    out = tmp_path / "good.json"
    assert cli.run(["solve", "arcs", "--n", "5", "--k", "2", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    assert env["params"] == {"k": 2} and env["verification"] is None
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser.cache_info().currsize == 1
    capsys.readouterr()
