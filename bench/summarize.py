"""Medians and quartiles of each metric over a set of run records.

    python3 bench/summarize.py bench/out/run-*.json > summary.json

Records are grouped by workload and trace mode.  For each metric the output
gives the median, the quartiles, the spread (q3 - q1) / median and the number
of records, together with the machine facts and seeds the records carry.
"""

from __future__ import annotations

import json
import sys

from measure import quartiles

FACTS = ("machine", "processor", "system", "nproc", "python", "git_sha", "src_lines", "seconds")


def summarize(records) -> dict:
    groups = {}
    for rec in records:
        groups.setdefault(f"{rec['workload']}/trace{rec['trace']}", []).append(rec)
    out = {}
    for key, recs in sorted(groups.items()):
        metrics = {}
        for name, first in recs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in recs if name in r["metrics"]]
            q1, med, q3 = quartiles(values)
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "unit": first["unit"],
                             "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}
        out[key] = {
            **{fact: sorted({str(r.get(fact)) for r in recs}) for fact in FACTS},
            "seeds": [r["seed"] for r in recs],
            "correct": all(r["correct"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "metrics": metrics,
        }
    return out


def main() -> int:
    records = []
    for path in sys.argv[1:]:
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        print("usage: summarize.py RUN_RECORD.json ...", file=sys.stderr)
        return 2
    print(json.dumps(summarize(records), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
