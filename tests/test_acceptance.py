"""Acceptance run: one test per numbered criterion, in order.

Each test prints a single `criterion N: pass` line (visible with -s; the
pytest -v verdict carries the same per-criterion record).  Criterion 9
needs this module to run before any unit test that deliberately constructs
an InternalError; alphabetical collection puts this file first, and the
snapshot below is taken at import time.
"""

import json
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import tricut.arcs
from tricut import (
    Color,
    GenKind,
    GenSpec,
    GeneralPosition,
    arcset_color_counts,
    brute_oracle_llines,
    brute_oracle_wedges,
    build_arrangement,
    check_general_position,
    cycle_parity,
    dual_point_to_line,
    find_111_wedge,
    find_balanced_lline,
    find_complete_face,
    find_k_arcset,
    gen_shielded_counterexample,
    generate,
    is_complete,
    lline_counts,
    parity_audit,
    pt,
    scan_all_complete_faces,
    serialization,
    sweep_balanced_wedge,
    wedge_color_counts,
    wedge_dual_segment,
    wedge_point_indices,
)
from tricut.cells import ColoredTriangulation
from tricut.errors import GenerationFailed, InternalError, PreconditionViolated
from tricut.oracles import count_segment_crossings

from plan_batch import bfs_shortest_lengths, eval_plans_batch, plan_ops_batch

INTERNAL_ERRORS_AT_START = InternalError.count

R, G, B = Color.R, Color.G, Color.B
RGB = (R, G, B)


def _arrangement_params():
    # 500 instances covering 3..12 lines evenly
    return [(3 + i % 10, 1000 + i) for i in range(500)]


def test_criterion_1_complete_cell_existence():
    t0 = time.perf_counter()
    for n, seed in _arrangement_params():
        lines = generate(GenSpec(GenKind.SimpleLines3C, n, seed))
        face = find_complete_face(lines)
        assert is_complete(face)
        arr = build_arrangement(lines)
        assert scan_all_complete_faces(arr)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 1: pass - 500 arrangements, solver face complete and "
          f"scan nonempty everywhere, {elapsed:.1f}s")


def test_criterion_2_equal_parities():
    faces = 0
    for n, seed in _arrangement_params():
        lines = generate(GenSpec(GenKind.SimpleLines3C, n, seed))
        for f in build_arrangement(lines).faces:
            if f.bounded:
                p = cycle_parity(f.boundary_colors)
                assert p[0] == p[1] == p[2]
                faces += 1

    audits = 0
    rng = random.Random(424242)
    for i in range(200):
        d = 2 + i % 3
        if d == 2:
            m = rng.randint(3, 24)
            simplices = tuple((j, (j + 1) % m) for j in range(m))
            colors = tuple(rng.randint(0, 2) for _ in range(m))
        else:
            m = rng.randint(3, 12)
            north, south = m, m + 1
            tris = []
            for j in range(m):
                jj = (j + 1) % m
                tris.append((j, jj, north))
                tris.append((j, jj, south))
            if d == 3:
                # bipyramid over an m-cycle: a closed 2-sphere
                simplices = tuple(tris)
                colors = tuple(rng.randint(0, 3) for _ in range(m + 2))
            else:
                # its suspension: a closed 3-sphere
                p_lo, p_hi = m + 2, m + 3
                simplices = tuple(t + (p,) for t in tris for p in (p_lo, p_hi))
                colors = tuple(rng.randint(0, 4) for _ in range(m + 4))
        parity_audit(ColoredTriangulation(d, simplices, colors))  # never mixed
        audits += 1
    print(f"criterion 2: pass - equal parities on {faces} bounded faces; "
          f"{audits} triangulation audits, none mixed")


def test_criterion_3_four_color_counterexample():
    lines = gen_shielded_counterexample()
    assert len(lines) == 9
    arr = build_arrangement(lines)
    four = scan_all_complete_faces(arr, required=set(Color))
    assert four == []
    print(f"criterion 3: pass - {len(arr.faces)} cells scanned, "
          "none sees all four colors")


def test_criterion_4_one_one_one_wedge_and_segment():
    for i in range(200):
        n = 3 + i % 13
        points = generate(GenSpec(GenKind.Points3C, n, 2000 + i))
        w = find_111_wedge(points)
        counts = wedge_color_counts(w, points)
        assert tuple(counts[c] for c in RGB) == (1, 1, 1)
        seg = wedge_dual_segment(w)
        crossings = count_segment_crossings(seg, [dual_point_to_line(p) for p in points])
        assert tuple(crossings[c] for c in RGB) == (1, 1, 1)
    print("criterion 4: pass - 200 point sets, wedge membership and dual "
          "segment crossings both (1,1,1)")


def _balanced_points(n, seed):
    rng = random.Random(seed)
    m = 6 * n
    while True:
        xs = rng.sample(range(-40 * n, 40 * n + 1), m)
        ys = rng.sample(range(-40 * n, 40 * n + 1), m)
        colors = [R] * (2 * n) + [G] * (2 * n) + [B] * (2 * n)
        rng.shuffle(colors)
        points = tuple(pt(x, y, c) for x, y, c in zip(xs, ys, colors))
        try:
            check_general_position(points, GeneralPosition.NO_THREE_COLLINEAR)
        except PreconditionViolated:
            continue
        return points


def test_criterion_5_balanced_wedge_sweep():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        for trial in range(100):
            points = _balanced_points(n, 5000 + 977 * n + trial)
            w = sweep_balanced_wedge(points, validate=True)
            counts = wedge_color_counts(w, points)
            assert tuple(counts[c] for c in RGB) == (n, n, n)
            assert wedge_point_indices(w, points) in brute_oracle_wedges(
                points, (n, n, n)
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 5: pass - 300 sweeps validated at every event and "
          f"confirmed by brute force, {elapsed:.1f}s")


def test_criterion_6_op_plans():
    t0 = time.perf_counter()
    rng = random.Random(6)
    for n in range(2, 4097):
        ops = plan_ops_batch(n)
        vals = eval_plans_batch(n, ops)
        assert (vals[1:] == np.arange(1, n + 1)).all()
        lengths = (ops != 0).sum(axis=1)
        assert lengths[1:].max() <= 2 * int(np.ceil(np.log2(n))) + 4
        # rows are right-aligned, so adjacency in columns is adjacency in ops
        assert not ((ops[:, :-1] == 2) & (ops[:, 1:] == 2)).any()
        bfs = bfs_shortest_lengths(n)
        assert (bfs[1:] >= 0).all()
        assert (lengths[1:] >= bfs[1:]).all()
        k = rng.randint(1, n)  # batch rows match the one-plan builder
        row = tuple("fg"[o - 1] for o in ops[k] if o)
        assert row == tricut.arcs.plan_ops(n, k).ops
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 6: pass - every k reached for all n <= 4096 within the "
          f"length bound, no double complement, {elapsed:.1f}s")


def test_criterion_7_two_arc_subsets(monkeypatch):
    halve_calls = []
    real_halve = tricut.arcs._halve

    def spy(*args):
        res = real_halve(*args)
        assert len(res.cuts) <= 3
        assert len(res.plus) + len(res.minus) <= 5
        halve_calls.append(len(res.cuts))
        return res

    monkeypatch.setattr(tricut.arcs, "_halve", spy)
    for n in range(2, 9):
        for k in range(1, n + 1):
            for trial in range(50):
                points = generate(
                    GenSpec(GenKind.CirclePoints3C, n, 7000 + 811 * n + 97 * k + trial)
                )
                a = find_k_arcset(points, k)
                assert a.component_count() <= 2
                counts = arcset_color_counts(a, points)
                assert tuple(counts[c] for c in RGB) == (k, k, k)
    assert halve_calls
    print(f"criterion 7: pass - every (n, k) balanced with at most 2 arcs; "
          f"{len(halve_calls)} halve invocations all within cut/component bounds")


def test_criterion_8_balanced_lline(tmp_path):
    for n in (2, 3):
        for seed in range(100):
            with pytest.raises(GenerationFailed):
                generate(GenSpec(GenKind.LatticeRedHull, n, seed))

    solved = 0
    for n in range(4, 9):
        for seed in range(100):
            s = generate(GenSpec(GenKind.LatticeRedHull, n, 9000 + seed))
            l, k = find_balanced_lline(s, validate=True)
            assert 1 <= k <= n - 1
            assert lline_counts(l, s) == ((k, k, k), (n - k, n - k, n - k))
            assert (l, k) in brute_oracle_llines(s)
            solved += 1

    diag = generate(GenSpec(GenKind.LatticeDiagonalCounterexample, 4, 1))
    assert brute_oracle_llines(diag) == []
    fixture = tmp_path / "diagonal_fixture.json"
    fixture.write_text(
        json.dumps({"points": serialization.enc_lattice_set(diag)})
    )
    r = subprocess.run(
        [sys.executable, "-m", "tricut.cli", "solve", "lline", "--in", str(fixture)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert r.returncode == 2
    print(f"criterion 8: pass - {solved} instances solved, validated and "
          "confirmed by brute force; n in {2,3} vacuous (generator cannot "
          "build a monochromatic hull); diagonal fixture: empty oracle, exit 2")


def test_criterion_9_internal_assertions_never_fire():
    assert InternalError.count == INTERNAL_ERRORS_AT_START
    print("criterion 9: pass - no internal assertion was ever constructed "
          "during criteria 1-8")
