"""Compare benchmark runs of a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved stdout of `bench/run.py` runs, one file per
run.  Runs are grouped by workload and trace flag and paired by seed.  A pair
whose inputs differ (another `inputs_sha` for the same workload and seed) is
refused: the comparison stops with exit code 2.

For every metric the table shows each side's median and quartiles, the pair
wins of the change, and a verdict:

  gain          the change wins at least 9/10 of the pairs (ties count for
                neither side), there are at least 10 pairs, and the medians
                differ by more than the parent's interquartile range;
  regression    the change's median is worse than the parent's by more than
                the metric's bound (end-to-end metrics only);
  unresolved    the parent's own spread (IQR / median) is wider than the
                bound, and not every change run beats every parent run;
                or a gain-sized difference with fewer than 10 pairs;
  worse         per-layer metric, the mirror image of a gain;
  same          none of the above.

Per-layer metrics have no bound; a count that repeats exactly on each side
is reported as such.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> list[dict]:
    runs = []
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        info = next((json.loads(l[len("# info "):]) for l in lines if l.startswith("# info ")), None)
        if info is None or not lines:
            continue
        result = json.loads(lines[-1])
        runs.append({"file": path.name, "info": info, "result": result})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            lower_better: bool, bound: float | None) -> tuple[str, int]:
    def better(a, b):  # a reads better than b
        return a < b if lower_better else a > b

    wins = sum(1 for p, c in pairs if better(c, p))
    losses = sum(1 for p, c in pairs if better(p, c))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    iqr = p3 - p1
    if all(float(v).is_integer() for v in parent + change) and len(set(parent)) == 1 \
            and len(set(change)) == 1:
        return ("same count" if parent[0] == change[0] else "count changed"), wins
    spread = iqr / abs(pm) if pm else 0.0
    all_better = all(better(c, p) for c in change for p in parent)
    if bound is not None:
        worse_by = (cm - pm if lower_better else pm - cm) / abs(pm) if pm else 0.0
        if worse_by > bound:
            return "regression", wins
        if spread > bound and not all_better:
            return "unresolved", wins
    n = len(pairs)
    if better(cm, pm) and abs(cm - pm) > iqr and n and wins >= WIN_SHARE * n:
        return ("gain" if n >= MIN_PAIRS else "unresolved"), wins
    if bound is None and better(pm, cm) and abs(cm - pm) > iqr and n and losses >= WIN_SHARE * n:
        return "worse", wins
    return "same", wins


def compare(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> int:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}

    def group(runs):
        out: dict[tuple, dict[int, dict]] = {}
        for r in runs:
            key = (r["info"]["workload"], r["info"]["trace"])
            out.setdefault(key, {})[r["info"]["seed"]] = r
        return out

    pg, cg = group(parent_runs), group(change_runs)
    status = 0
    for key in sorted(set(pg) | set(cg)):
        workload, trace = key
        p, c = pg.get(key, {}), cg.get(key, {})
        seeds = sorted(set(p) & set(c))
        for s in seeds:
            if p[s]["info"]["inputs_sha"] != c[s]["info"]["inputs_sha"]:
                print(f"refused: {workload} seed {s} has inputs {p[s]['info']['inputs_sha']} "
                      f"in the parent and {c[s]['info']['inputs_sha']} in the change")
                return 2
        print(f"\n== {workload} (trace {trace}): {len(p)} parent runs, {len(c)} change runs, "
              f"{len(seeds)} pairs")
        failed = [(side, r["file"]) for side, runs in (("parent", p), ("change", c))
                  for r in runs.values() if r["result"]["failed"] or not r["result"]["correct"]]
        for side, f in failed:
            print(f"  {side} run {f} has failures")
        if not p or not c:
            continue
        print(f"  {'metric':44s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s}  wins  verdict")
        names = [n for n in next(iter(p.values()))["result"]["metrics"]]
        for name in names:
            meta = bounds.get(name) or layers.get(name) or {"better": "lower"}
            pv = [r["result"]["metrics"][name]["value"] for r in p.values()]
            cv = [r["result"]["metrics"][name]["value"] for r in c.values()]
            pairs = [(p[s]["result"]["metrics"][name]["value"],
                      c[s]["result"]["metrics"][name]["value"]) for s in seeds]
            v, wins = verdict(pv, cv, pairs, meta["better"] == "lower", meta.get("bound"))
            if v == "regression":
                status = 1
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"  {name:44s} {fmt(quartiles(pv)):>32s} {fmt(quartiles(cv)):>32s}"
                  f"  {wins:>2d}/{len(seeds):<2d} {v}")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), spec)


if __name__ == "__main__":
    sys.exit(main())
