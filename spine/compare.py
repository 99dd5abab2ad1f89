"""``python -m spine.compare A.json B.json [--same-code]``

Two result files of ``spine/run.py`` side by side: one row per workload
and end-to-end metric with the base median, the new median, their ratio
and a verdict against the bound ``BENCHMARK.json`` fixes for the metric:

- ``unresolved``: the repeats of either side spread wider than the
  bound, so the pair cannot tell a change of that size from noise;
- ``regressed`` / ``improved``: the new median is worse / better than
  the base by more than the bound;
- ``unchanged``: otherwise.

``--same-code`` is for two sets of runs of one commit: it exits non-zero
unless every row is ``unchanged``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """``base``/``new`` are one metric's ``{"median", "spread"}``."""
    if max(base["spread"], new["spread"]) > bound:
        return "unresolved"
    change = (new["median"] - base["median"]) / base["median"]
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(base_doc: dict, new_doc: dict, metrics: list[dict]) -> list[dict]:
    rows = []
    for workload, base_cell in base_doc["end_to_end"].items():
        new_cell = new_doc["end_to_end"].get(workload)
        if new_cell is None:
            continue
        for metric in metrics:
            name = metric["name"]
            if name not in base_cell or name not in new_cell:
                continue
            base, new = base_cell[name], new_cell[name]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "base": base["median"],
                "new": new["median"],
                "ratio": new["median"] / base["median"],
                "verdict": verdict(base, new, metric["better"],
                                   metric["bound"]),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--same-code", action="store_true",
                        help="fail unless every row is unchanged")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base_doc = json.loads(Path(args.base).read_text())
    new_doc = json.loads(Path(args.new).read_text())
    rows = compare(base_doc, new_doc, metrics)
    for side, doc in (("base", base_doc), ("new", new_doc)):
        prov = doc["provenance"]
        print(f"{side}: commit {prov['commit'][:12]}"
              f"{' (dirty)' if prov['dirty'] else ''} seed {prov['seed']} "
              f"loadavg {prov['loadavg'][0]:.2f} {prov['generated']}")
    print(f"{'workload':<22}{'metric':<24}{'base':>14}{'new':>14}"
          f"{'new/base':>10}  verdict")
    for row in rows:
        print(f"{row['workload']:<22}{row['metric']:<24}"
              f"{row['base']:>14.4f}{row['new']:>14.4f}"
              f"{row['ratio']:>10.3f}  {row['verdict']}")
    changed = [row for row in rows if row["verdict"] != "unchanged"]
    if args.same_code and changed:
        print(f"{len(changed)} of {len(rows)} rows are not unchanged",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
