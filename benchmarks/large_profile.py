"""Large-profile worker: library calls on one huge array, in a warm interpreter.

    python3 benchmarks/large_profile.py OUT_JSON SECONDS TRACE SLOPE ALPHA PEAK C

Imports numpy and deformflow once, builds its inputs from the given
values, runs one untimed warm-up pass and then timed passes until SECONDS
have gone by.  A pass builds `VelocityGrid.uniform(beta_c, 2^20 + 1)` and a
`FlowState` over it, evaluates `l2_energy` and `l2_energy_rate` on them,
and `dirichlet_energy` on 2^23 + 1 samples.  Results go to OUT_JSON; the
parent process checks them against its own closed forms.  With TRACE = 1
each call is also timed on its own.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter

GRID_N = 2**20 + 1
DIRICHLET_N = 2**23 + 1


def main() -> int:
    out_path = sys.argv[1]
    seconds = float(sys.argv[2])
    trace = sys.argv[3] == "1"
    slope, alpha, peak, c = (float(x) for x in sys.argv[4:8])

    t0 = clock()
    import numpy as np

    t1 = clock()
    import deformflow
    from deformflow import FlowState, VelocityGrid, dirichlet_energy, l2_energy, l2_energy_rate

    t2 = clock()
    beta_c = deformflow.critical_beta()
    step = beta_c / (GRID_N - 1)
    profile = [3.141592653589793 + slope * (i * step) for i in range(GRID_N)]
    v = np.linspace(-c, c, DIRICHLET_N)
    dirichlet_values = peak * (1.0 - (v / c) ** 2)
    del v

    def one_pass(traced: bool) -> tuple[dict, dict]:
        spans: dict[str, float] = {}

        def timed(name, fn, *args):
            s = clock()
            result = fn(*args)
            spans[name] = spans.get(name, 0.0) + clock() - s
            return result

        call = timed if traced else (lambda _name, fn, *args: fn(*args))
        grid = call("flow.grid_build_s", VelocityGrid.uniform, beta_c, GRID_N)
        state = call("flow.state_build_s", FlowState, 0.0, profile)
        energy = call("energy.l2_large.busy_s", l2_energy, state, grid)
        rate = call("energy.l2_large.busy_s", l2_energy_rate, state, grid, alpha)
        dirichlet = call("energy.dirichlet.busy_s", dirichlet_energy, dirichlet_values, c)
        return {"l2": energy, "l2_rate": rate, "dirichlet": dirichlet}, spans

    one_pass(False)
    passes = []
    start = clock()
    while True:
        # A traced run alternates untraced and traced passes, so that the
        # tracing overhead is measured against passes of the same run.
        traced = trace and len(passes) % 2 == 1
        s = clock()
        results, spans = one_pass(traced)
        wall = clock() - s
        passes.append({"wall": wall, "traced": traced, "results": results, "spans": spans})
        if clock() - start >= seconds and (len(passes) >= 2 or not trace):
            break
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_numpy_s": t1 - t0,
                "import_deformflow_s": t2 - t1,
                "grid_n": GRID_N,
                "dirichlet_n": DIRICHLET_N,
                "passes": passes,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
