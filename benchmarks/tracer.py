"""Run one deformflow CLI job with spans around its layer calls.

    python3 benchmarks/tracer.py SPANS_JSON JOB_ID -- CLI_ARGS...

Times `import numpy` and `import deformflow.cli`, then replaces, in the
`deformflow.cli` namespace only, the layer functions the CLI calls with
timing wrappers, and runs `deformflow.cli.main(CLI_ARGS)`.  Calls made once
per job (`integrate`, `claim_audit`, `flow_invariant_scaling`) become spans;
calls made once per row or per snapshot are folded into a count and total
time under the span that was open, so memory stays bounded.  Everything is
kept in memory and written to SPANS_JSON at exit.  The exit code is the
CLI's.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter

SPAN_CALLS = {
    "integrate": "flow.integrate",
    "claim_audit": "invariants.audit",
    "flow_invariant_scaling": "invariants.scaling",
}
AGGREGATED_CALLS = {
    "compare": "elliptic.compare",
    "l2_energy": "energy.l2",
    "l2_energy_rate": "energy.l2",
    "analytic_linear": "flow.oracle",
    "analytic_conformal": "flow.oracle",
    "second_order_solution": "flow.oracle",
}


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self.open: list[int] = []
        # (parent span index, name) -> [calls, total seconds]
        self.aggregates: dict[tuple[int, str], list[float]] = {}

    def span(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        record = {
            "name": name,
            "start": clock(),
            "end": None,
            "parent": self.open[-1] if self.open else None,
            "job": self.job,
            "attrs": attrs or {},
        }
        self.spans.append(record)
        self.open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            self.open.pop()
            record["end"] = clock()

    def aggregated(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot = self.aggregates.setdefault((self.open[-1], name), [0, 0.0])
                slot[0] += 1
                slot[1] += clock() - t0

        return wrapper

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            attrs = {}
            if name == "flow.integrate":
                cfg = args[2] if len(args) > 2 else kwargs["cfg"]
                attrs = {"regime": cfg.regime, "method": cfg.method}
            return self.span(name, fn, *args, attrs=attrs, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        aggregates = [
            {"parent": parent, "name": name, "calls": int(calls), "total": total}
            for (parent, name), (calls, total) in self.aggregates.items()
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job, "spans": self.spans, "aggregates": aggregates}, fh)


def main() -> int:
    spans_path, job = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON JOB_ID -- CLI_ARGS...")
    argv = sys.argv[4:]
    tracer = Tracer(job)
    rc = 1
    try:
        tracer.span("import.numpy", __import__, "numpy")
        tracer.span("import.deformflow", __import__, "deformflow.cli")
        cli = sys.modules["deformflow.cli"]
        for attr, name in SPAN_CALLS.items():
            setattr(cli, attr, tracer.spanned(name, getattr(cli, attr)))
        for attr, name in AGGREGATED_CALLS.items():
            setattr(cli, attr, tracer.aggregated(name, getattr(cli, attr)))
        rc = tracer.span(f"cli.{argv[0]}", cli.main, argv)
    finally:
        tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
