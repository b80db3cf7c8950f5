"""Self-tests of the benchmark.  Run with:  python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402


def run_bench(*args, script=HERE / "run.py", cwd=HERE.parent):
    r = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return r.returncode, r.stdout.strip().splitlines(), r.stderr


def smoke(workload, *extra, trace=0, seed=3):
    rc, lines, err = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                               "--trace", str(trace), "--smoke", *extra)
    info = next(json.loads(l[len("# info "):]) for l in lines if l.startswith("# info "))
    return rc, json.loads(lines[-1]), info, lines, err


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_with_its_unit(workload):
    rc, result, info, lines, err = smoke(workload)
    assert rc == 0, err
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in want.items():
        assert any(l.startswith(f"# {name} = ") and l.endswith(f" {unit}") for l in lines)
    assert "# failed_frac = 0.0 (of 6 attempted)" in lines
    assert info["failed_frac"] == 0.0 and len(info["inputs_sha"]) == 12


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_answer_is_counted_as_failed(workload):
    rc, result, info, _, _ = smoke(workload, "--corrupt")
    assert rc == 1
    assert not result["correct"] and result["failed"] > 0
    assert info["failed_frac"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_counts_repeat_exactly(workload):
    runs = [smoke(workload, trace=1) for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    calls = []
    for rc, result, _, _, err in runs:
        assert rc == 0, err
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert result["metrics"]["errors.InternalError.count"]["value"] == 0
        calls.append({k: v["value"] for k, v in result["metrics"].items()
                      if k.endswith(".calls")})
    assert calls[0] == calls[1]
    assert sum(calls[0].values()) > 0
    doc = json.loads((HERE / "out" / f"spans-{workload}-3.json").read_text(encoding="utf-8"))
    spans = doc["phases"]["passes"]
    assert spans and all(-1 <= parent < i for i, (_, parent, _, _) in enumerate(spans))
    assert all(t0 <= t1 for _, _, t0, t1 in spans)


def test_inputs_follow_the_seed():
    shas = {seed: smoke("rational-scale", seed=seed)[2]["inputs_sha"] for seed in (5, 6)}
    assert shas[5] != shas[6]
    assert smoke("rational-scale", seed=5)[2]["inputs_sha"] == shas[5]


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_work", ".pytest_cache"))
    rc, lines, _ = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                             "--trace", "0", script=tmp_path / HERE.name / "run.py",
                             cwd=tmp_path)
    assert rc != 0
    assert not any(l.startswith("{") for l in lines)


def test_verdicts():
    parent = [10.0 + 0.1 * i for i in range(10)]
    faster = [v - 2 for v in parent]
    pairs = list(zip(parent, faster))
    assert compare.verdict(parent, faster, pairs, True, 0.1) == ("gain", 10)
    slower = [v * 1.5 for v in parent]
    assert compare.verdict(parent, slower, list(zip(parent, slower)), True, 0.1)[0] == "regression"
    noisy = [10.0, 20.0, 5.0, 15.0, 8.0]
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)), True, 0.1)[0] == "unresolved"
    assert compare.verdict(parent[:5], faster[:5], pairs[:5], True, 0.1)[0] == "unresolved"
    assert compare.verdict([7.0] * 3, [7.0] * 3, [(7.0, 7.0)] * 3, True, None)[0] == "same count"


def test_compare_refuses_runs_of_different_inputs(tmp_path, capsys):
    def write(side, sha):
        d = tmp_path / side
        d.mkdir()
        info = {"workload": "scale-cli", "trace": 0, "seed": 1, "inputs_sha": sha}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
        (d / "run.out").write_text(f"# info {json.dumps(info)}\n{json.dumps(result)}\n")
        return d

    assert compare.main([str(write("parent", "aaa")), str(write("change", "bbb"))]) == 2
    assert "refused" in capsys.readouterr().out


def test_rational_map_keeps_incidence_and_order():
    import random

    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from tricut import core

    amap = workloads._RationalMap(random.Random(7))
    l = core.line(2, -3, 5, "R")
    on, off = core.pt(2, 3, "G"), core.pt(0, 0, "B")
    assert amap.line(l).eval_at(amap.point(on)) == 0
    assert amap.line(l).eval_at(amap.point(off)) != 0
    pts = [core.pt(x, x * x, "R") for x in (-3, 1, 4)]
    assert [amap.point(p).x for p in pts] == sorted(amap.point(p).x for p in pts)
