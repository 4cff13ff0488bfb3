"""Benchmark of deformflow: four workloads, timed end to end or traced by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of stepping, adaptive, post-process, large-profile, or all.
Run from a source checkout: the program is imported from ./src, never from
an installed copy.  The load is a closed loop with one client: jobs run one
at a time, and each CLI job is a fresh `python3 -m deformflow.cli` process.
The seed draws the values of the inputs (alpha, C0, K and the large-profile
shapes) from ranges that leave the work, meaning step counts and row
counts, unchanged.

Every job's output is checked against the closed forms and quadratures in
oracles.py.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See README.md in this
directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from importlib import metadata
from pathlib import Path
from typing import Callable

import oracles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("stepping", "adaptive", "post-process", "large-profile")
REGIMES = ("subcritical-linear", "supercritical-linear", "conformal-nonlinear", "second-order")
STEP_GRID_N = 257
SETUP_SAMPLES = 9
# A run must end within 180 s; jobs still running at this deadline are killed.
RUN_DEADLINE_S = 165.0

# Seeded ranges.  alpha <= 1 keeps dt = auto at 1e-3 for every regime and
# keeps the adaptive controller's step count unchanged; C0 >= 3.5 keeps the
# conformal exhaustion time C0^2 / 4 above tau_end = 3.  At alpha = 1,
# C0 = 4 adaptive second-order is at 8.7e-9 of its 1e-8 oracle tolerance and
# beyond it fails (README.md), which would make failures depend on the seed.
ALPHA_RANGE = (0.5, 1.0)
C0_RANGE = (3.5, 4.0)
K_RANGE = (0.5, 2.0)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
}

PER_LAYER = {
    "import.numpy_s": "s",
    "import.deformflow_s": "s",
    "cli.flow.self_s": "s",
    "cli.energy.self_s": "s",
    "cli.cv.self_s": "s",
    "cli.rows_written": "count",
    "cli.rows_read": "count",
    "cli.bytes_written": "B",
    "cli.ns_per_row_written": "ns",
    **{f"flow.rk4.{r}.busy_s": "s" for r in REGIMES},
    "flow.rk4.sample_steps": "count",
    "flow.rk4.ns_per_sample_step": "ns",
    "flow.integrate.calls": "count",
    **{f"flow.adaptive.{r}.busy_s": "s" for r in REGIMES},
    "flow.oracle.busy_s": "s",
    "flow.grid_build_s": "s",
    "flow.state_build_s": "s",
    "flow.oracle_max_rel_err": "rel",
    "elliptic.compare.calls": "count",
    "elliptic.compare.busy_s": "s",
    "elliptic.ns_per_eval": "ns",
    "elliptic.max_abs_err": "abs",
    "energy.l2.calls": "count",
    "energy.l2.busy_s": "s",
    "energy.l2_large.busy_s": "s",
    "energy.dirichlet.busy_s": "s",
    "energy.dirichlet.bytes_computed": "B",
    "invariants.audit.busy_s": "s",
    "trace.overhead_frac": "frac",
    "trace.unaccounted_frac": "frac",
}

# Rows written and rk4 sample steps of one pass.  They depend on the
# workload only, never on the seed; a run whose outputs disagree is wrong.
WORK_SIGNATURE = {
    "stepping": {"rows_written": 4 * 11 * STEP_GRID_N, "sample_steps": STEP_GRID_N * (3 * 10_000 + 3_000)},
    "adaptive": {"rows_written": 4 * 101 * STEP_GRID_N, "sample_steps": 0},
    "post-process": {"rows_written": 1001 * 65 + 1001 + 100_001 + 20, "sample_steps": 1000 * 65},
    "large-profile": {"rows_written": 0, "sample_steps": 0},
}

# The jobs that a known defect makes fail at the commit that introduced the
# benchmark.  They stay in the workload and count as failed until fixed.
KNOWN_DEFECTS = {
    "second-order-unstable": "ROADMAP 4(b): rk4 past its stability bound exits 1, not 2",
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a foreign import, ...)."""


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Check:
    """Outcome of checking one job's output."""

    ok: bool = True
    problems: list[str] = field(default_factory=list)
    rows_written: int = 0
    rows_read: int = 0
    bytes_written: int = 0
    sample_steps: int = 0
    flow_rel_err: float = 0.0
    elliptic_abs_err: float = 0.0

    def fail(self, message: str) -> None:
        self.ok = False
        self.problems.append(message)


@dataclass
class Job:
    name: str
    argv: list[str]
    expect_rc: int = 0
    check: Callable[[], Check] | None = None


def regime_values(seed: int) -> dict[str, dict]:
    """Seeded values of the four regime configs shared by stepping and adaptive."""
    rng = random.Random(f"regimes-{seed}")
    return {
        regime: {
            "alpha": rng.uniform(*ALPHA_RANGE),
            "c0": rng.uniform(*C0_RANGE),
            "K": rng.uniform(*K_RANGE) if regime == "supercritical-linear" else 0.0,
        }
        for regime in REGIMES
    }


def _data_rows(path: Path, check: Check) -> tuple[dict, list[str], list[list[str]]] | None:
    if not path.is_file():
        check.fail(f"{path.name}: no output file")
        return None
    meta, header, rows = oracles.read_csv(str(path))
    check.rows_written += len(rows)
    check.bytes_written += path.stat().st_size
    return meta, header, rows


def check_flow(out: Path, regime: str, values: dict, tau_end: float, n: int, snapshots: int,
               rk4: bool) -> Check:
    check = Check()
    parsed = _data_rows(out, check)
    if parsed is None:
        return check
    meta, header, rows = parsed
    if header != ["tau", "beta", "C"] or len(rows) != snapshots * n:
        check.fail(f"{out.name}: expected {snapshots * n} tau,beta,C rows, got {len(rows)}")
        return check
    taus = [float(rows[j * n][0]) for j in range(snapshots)]
    if taus[-1] != tau_end:
        check.fail(f"{out.name}: last snapshot at tau = {taus[-1]!r}, expected {tau_end!r}")
    worst = 0.0
    for row in rows[-n:]:
        beta, cv = float(row[1]), float(row[2])
        ref = oracles.flow_reference(regime, beta, tau_end, values["c0"], values["alpha"], values["K"])
        worst = max(worst, abs(cv - ref) / abs(ref))
    check.flow_rel_err = worst
    if not worst <= oracles.FLOW_REL_TOL:
        check.fail(f"{out.name}: {regime} relative error {worst:.3e} > {oracles.FLOW_REL_TOL:g}")
    if rk4:
        dt = float(meta["dt"])
        for t0, t1 in zip(taus, taus[1:]):
            full = math.floor((t1 - t0) / dt + 1e-9)
            rest = (t1 - t0) - full * dt
            check.sample_steps += n * (full + (1 if rest > 1e-9 * dt else 0))
    return check


def check_energy(out: Path, flow_out: Path, c: float) -> Check:
    check = Check()
    parsed = _data_rows(out, check)
    if parsed is None or not flow_out.is_file():
        check.fail("energy: missing output or input")
        return check
    _, header, rows = parsed
    _, _, flow_rows = oracles.read_csv(str(flow_out))
    check.rows_read = len(flow_rows)
    snapshots: dict[str, tuple[list[float], list[float]]] = {}
    for tau, beta, cv in flow_rows:
        betas, values = snapshots.setdefault(tau, ([], []))
        betas.append(float(beta))
        values.append(float(cv))
    if header[:2] != ["tau", "E"] or len(rows) != len(snapshots):
        check.fail(f"{out.name}: expected {len(snapshots)} tau,E rows, got {len(rows)}")
        return check
    worst = 0.0
    for row, (betas, values) in zip(rows, snapshots.values()):
        keep = [i for i, b in enumerate(betas) if b <= oracles.BETA_C * (1.0 + 1e-9)]
        ref = oracles.l2_energy([betas[i] for i in keep], [values[i] for i in keep], c)
        worst = max(worst, abs(float(row[1]) - ref))
    if not worst <= oracles.ENERGY_ABS_TOL:
        check.fail(f"{out.name}: E column off by {worst:.3e} > {oracles.ENERGY_ABS_TOL:g}")
    return check


def check_cv(out: Path, n: int, picks: list[int]) -> Check:
    check = Check()
    parsed = _data_rows(out, check)
    if parsed is None:
        return check
    _, header, rows = parsed
    if len(rows) != n or header[:3] != ["beta", "c_model", "c_exact"]:
        check.fail(f"{out.name}: expected {n} beta,c_model,c_exact rows, got {len(rows)}")
        return check
    worst = 0.0
    for i in picks:
        beta, exact = float(rows[i][0]), float(rows[i][2])
        worst = max(worst, abs(exact - 2.0 * oracles.elliptic_e(beta)))
    check.elliptic_abs_err = worst
    if not worst <= oracles.ELLIPTIC_ABS_TOL:
        check.fail(f"{out.name}: c_exact off by {worst:.3e} > {oracles.ELLIPTIC_ABS_TOL:g}")
    return check


def check_audit(out: Path) -> Check:
    check = Check()
    parsed = _data_rows(out, check)
    if parsed is None:
        return check
    _, header, rows = parsed
    if header != ["label", "claimed", "computed", "abs_dev", "rel_dev", "status"] or not rows:
        check.fail(f"{out.name}: unexpected audit table")
        return check
    seen = set()
    for label, claimed, computed, _abs, rel, status in rows:
        seen.add(label)
        expected = "PASS" if float(rel) <= oracles.AUDIT_PASS_RTOL else "DEVIATION"
        if status != expected:
            check.fail(f"{out.name}: {label} marked {status} at rel_dev {rel}")
        want = oracles.AUDIT_CLOSED_FORMS.get(label)
        if want is not None and not math.isclose(float(computed), want, rel_tol=1e-12):
            check.fail(f"{out.name}: {label} computed {computed}, closed form {want!r}")
    missing = set(oracles.AUDIT_CLOSED_FORMS) - seen
    if missing:
        check.fail(f"{out.name}: rows missing: {sorted(missing)}")
    return check


def _flow_job(name: str, work: Path, files: dict[Path, str], config: dict, c0: float,
              tau_end: float, every: float | None = None, expect_rc: int = 0) -> tuple[Job, Path]:
    cfg = work / f"{name}.cfg"
    out = work / f"{name}.csv"
    files[cfg] = "".join(f"{k} = {v}\n" if isinstance(v, str) else f"{k} = {v!r}\n"
                         for k, v in config.items())
    argv = ["flow", "--config", str(cfg), "--initial", f"uniform:{c0!r}", "--tau-end", repr(tau_end),
            "--out", str(out)]
    if every is not None:
        argv += ["--snapshot-every", repr(every)]
    return Job(name, argv, expect_rc), out


def build_jobs(workload: str, seed: int, work: Path) -> tuple[list[Job], dict[Path, str]]:
    """The job list of one pass and the input files it needs."""
    files: dict[Path, str] = {}
    jobs: list[Job] = []
    if workload in ("stepping", "adaptive"):
        adaptive = workload == "adaptive"
        for regime, values in regime_values(seed).items():
            tau_end = 3.0 if regime == "conformal-nonlinear" else 10.0
            config = {"regime": regime, "alpha": values["alpha"], "K": values["K"], "grid.n": STEP_GRID_N}
            if regime == "supercritical-linear":
                config["grid.beta_max"] = 0.95
            if adaptive:
                config.update({"method": "adaptive-rk", "tol": 1e-10})
            every = tau_end / 100.0 if adaptive else None
            job, out = _flow_job(regime, work, files, config, values["c0"], tau_end, every)
            snapshots = 101 if adaptive else 11
            job.check = partial(check_flow, out, regime, values, tau_end, STEP_GRID_N, snapshots, not adaptive)
            jobs.append(job)
        if not adaptive:
            rng = random.Random(f"errors-{seed}")
            jobs.append(_flow_job("conformal-past-tau-star", work, files,
                                  {"regime": "conformal-nonlinear", "grid.n": STEP_GRID_N},
                                  rng.uniform(*C0_RANGE), 10.0, expect_rc=2)[0])
            jobs.append(_flow_job("second-order-unstable", work, files,
                                  {"regime": "second-order", "alpha": 1e6, "dt": 0.1, "grid.n": STEP_GRID_N},
                                  rng.uniform(*C0_RANGE), 10.0, expect_rc=2)[0])
    elif workload == "post-process":
        rng = random.Random(f"post-process-{seed}")
        values = {"alpha": rng.uniform(*ALPHA_RANGE), "c0": rng.uniform(*C0_RANGE), "K": 0.0}
        job, flow_out = _flow_job("flow", work, files, {"alpha": values["alpha"], "dt": 0.01},
                                  values["c0"], 10.0, 0.01)
        job.check = partial(check_flow, flow_out, "subcritical-linear", values, 10.0, 65, 1001, True)
        jobs.append(job)
        energy_out = work / "energy.csv"
        jobs.append(Job("energy", ["energy", str(flow_out), "--out", str(energy_out)],
                        check=partial(check_energy, energy_out, flow_out, 1.0)))
        cv_n = 100_001
        cv_out = work / "cv.csv"
        picks = sorted(rng.sample(range(1, cv_n - 1), 16) + [0, cv_n - 1])
        jobs.append(Job("cv", ["cv", "--n", str(cv_n), "--out", str(cv_out)],
                        check=partial(check_cv, cv_out, cv_n, picks)))
        audit_out = work / "audit.csv"
        jobs.append(Job("audit", ["audit", "--out", str(audit_out)], check=partial(check_audit, audit_out)))
    else:
        raise ValueError(f"{workload} has no CLI jobs")
    return jobs, files


def large_profile_values(seed: int) -> dict[str, float]:
    rng = random.Random(f"large-profile-{seed}")
    return {
        "slope": rng.uniform(0.5, 1.5),
        "alpha": rng.uniform(*ALPHA_RANGE),
        "peak": rng.uniform(2.0, 4.0),
        "c": rng.uniform(0.5, 2.0),
    }


def job_inputs(workload: str, seed: int) -> object:
    """Everything a seed feeds to the program, for comparing two seeds."""
    if workload == "large-profile":
        return large_profile_values(seed)
    jobs, files = build_jobs(workload, seed, Path("inputs"))
    return [job.argv for job in jobs], sorted((str(p), t) for p, t in files.items())


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # Children keep .pyc files next to the sources, as an installed package
    # has them, so the warm-up pass compiles once and imports are comparable
    # whatever the caller's environment says about bytecode.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


@dataclass
class ProcResult:
    rc: int
    wall: float
    maxrss_kib: int


def spawn(argv: list[str], stdout: Path, stderr: Path, deadline: float) -> ProcResult:
    """Run one process to completion; its own max RSS comes from wait4."""
    timeout = max(1.0, deadline - time.monotonic())
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(proc.returncode, wall, usage.ru_maxrss)


SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import deformflow.cli\n"
    "t = time.perf_counter() - t\n"
    "print(t)\n"
    "print(deformflow.cli.__file__)\n"
)


def measure_setup(work: Path, deadline: float) -> list[float]:
    """`import deformflow.cli` in fresh interpreters, timed inside each one."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        res = spawn([sys.executable, "-c", SETUP_CODE], work / "setup.out", work / "setup.err", deadline)
        lines = (work / "setup.out").read_text().split("\n")
        if res.rc != 0:
            raise BenchError(f"import deformflow.cli failed: {(work / 'setup.err').read_text()[-500:]}")
        if not Path(lines[1]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"deformflow was imported from {lines[1]}, not from {SRC}")
        samples.append(float(lines[0]))
    return samples


# ---------------------------------------------------------------------------
# passes


@dataclass
class JobRun:
    job: Job
    proc: ProcResult
    check: Check
    spans: dict | None = None

    @property
    def failed(self) -> bool:
        return self.proc.rc != self.job.expect_rc or not self.check.ok

    def failure(self) -> str:
        if self.proc.rc != self.job.expect_rc:
            return f"{self.job.name}: exit {self.proc.rc}, expected {self.job.expect_rc}"
        return f"{self.job.name}: " + "; ".join(self.check.problems)


@dataclass
class PassRun:
    wall: float
    traced: bool
    jobs: list[JobRun]
    # Call times of a traced large-profile pass, by per-layer metric name.
    spans: dict[str, float] = field(default_factory=dict)


def run_cli_pass(jobs: list[Job], work: Path, traced: bool, deadline: float) -> PassRun:
    procs = []
    t0 = time.perf_counter()
    for job in jobs:
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(work / f"{job.name}.spans.json"),
                    job.name, "--", *job.argv]
        else:
            argv = [sys.executable, "-m", "deformflow.cli", *job.argv]
        procs.append(spawn(argv, work / f"{job.name}.stdout", work / f"{job.name}.stderr", deadline))
    wall = time.perf_counter() - t0
    runs = []
    for job, proc in zip(jobs, procs):
        if job.expect_rc != 0:
            check = Check()
        elif proc.rc != 0:
            check = Check(ok=False, problems=[f"exit {proc.rc}, so no output to check"])
        else:
            check = job.check()
        spans = None
        if traced:
            spans_path = work / f"{job.name}.spans.json"
            spans = json.loads(spans_path.read_text()) if spans_path.is_file() else None
        runs.append(JobRun(job, proc, check, spans))
    return PassRun(wall, traced, runs)


def run_large_profile(seed: int, seconds: float, trace: bool, work: Path, deadline: float
                      ) -> tuple[list[PassRun], dict, ProcResult]:
    values = large_profile_values(seed)
    out = work / "large-profile.json"
    argv = [sys.executable, str(BENCH_DIR / "large_profile.py"), str(out), repr(seconds),
            "1" if trace else "0", *(repr(values[k]) for k in ("slope", "alpha", "peak", "c"))]
    proc = spawn(argv, work / "large.stdout", work / "large.stderr", deadline)
    jobs = [Job("grid-and-state", []), Job("l2-energies", []), Job("dirichlet", [])]
    if proc.rc != 0 or not out.is_file():
        err = (work / "large.stderr").read_text()[-500:]
        failed = Check(ok=False, problems=[f"worker exited {proc.rc}: {err}"])
        return [PassRun(proc.wall, False, [JobRun(j, proc, failed) for j in jobs])], {}, proc
    report = json.loads(out.read_text())
    passes = []
    for p in report["passes"]:
        res = p["results"]
        l2 = Check()
        for key, want in (("l2", oracles.l2_energy_linear(values["slope"])),
                          ("l2_rate", oracles.l2_rate_linear(values["slope"], values["alpha"]))):
            if not abs(res[key] - want) <= oracles.ENERGY_ABS_TOL:
                l2.fail(f"{key} = {res[key]!r}, closed form {want!r}")
        dirichlet = Check()
        want = oracles.dirichlet_quadratic(values["peak"], values["c"])
        if not abs(res["dirichlet"] - want) <= oracles.DIRICHLET_REL_TOL * want:
            dirichlet.fail(f"dirichlet = {res['dirichlet']!r}, closed form {want!r}")
        ok_proc = ProcResult(0, p["wall"], proc.maxrss_kib)
        runs = [JobRun(job, ok_proc, check) for job, check in zip(jobs, (Check(), l2, dirichlet))]
        passes.append(PassRun(p["wall"], p["traced"], runs, p["spans"]))
    return passes, report, proc


# ---------------------------------------------------------------------------
# per-layer metrics


def span_self_times(trace: dict) -> tuple[list[float], float]:
    """Self time of each span, and the total the layer-sum check compares."""
    spans = trace["spans"]
    durations = [s["end"] - s["start"] for s in spans]
    children = [0.0] * len(spans)
    for s, d in zip(spans, durations):
        if s["parent"] is not None:
            children[s["parent"]] += d
    for agg in trace["aggregates"]:
        children[agg["parent"]] += agg["total"]
    return [d - c for d, c in zip(durations, children)], sum(
        d for s, d in zip(spans, durations) if s["parent"] is None)


def empty_layer_metrics() -> dict[str, float]:
    return {k: 0 if unit in ("count", "B") else 0.0 for k, unit in PER_LAYER.items()}


def layer_metrics(pass_run: PassRun, problems: list[str]) -> dict[str, float]:
    """Per-layer figures of one traced pass; layers the pass never reaches read 0."""
    m = empty_layer_metrics()
    numpy_s, deformflow_s = [], []
    wall_total = unaccounted_total = 0.0
    for run in pass_run.jobs:
        trace = run.spans
        if trace is None:
            problems.append(f"{run.job.name}: no spans recorded")
            continue
        selfs, rooted = span_self_times(trace)
        # Layer-sum rule: import spans, layer self times and the remainder add
        # up to the job's wall time; no span's children outlast it.
        layered = sum(selfs) + sum(a["total"] for a in trace["aggregates"])
        unaccounted = run.proc.wall - rooted
        if abs(layered - rooted) > 1e-6 * max(1.0, rooted) or min(selfs) < -1e-6 or unaccounted < 0.0:
            problems.append(f"{run.job.name}: layer times do not add up to the job wall time")
        wall_total += run.proc.wall
        unaccounted_total += unaccounted
        for span, self_s in zip(trace["spans"], selfs):
            name, dur = span["name"], span["end"] - span["start"]
            if name == "import.numpy":
                numpy_s.append(dur)
            elif name == "import.deformflow":
                deformflow_s.append(dur)
            elif name.startswith("cli.") and f"{name}.self_s" in m:
                m[f"{name}.self_s"] += self_s
            elif name == "flow.integrate":
                kind = "rk4" if span["attrs"]["method"] == "rk4" else "adaptive"
                m[f"flow.{kind}.{span['attrs']['regime']}.busy_s"] += dur
                m["flow.integrate.calls"] += 1
            elif name == "invariants.audit":
                m["invariants.audit.busy_s"] += dur
        for agg in trace["aggregates"]:
            if agg["name"] in ("elliptic.compare", "energy.l2"):
                m[f"{agg['name']}.calls"] += agg["calls"]
            m[f"{agg['name']}.busy_s"] += agg["total"]
    if numpy_s:
        m["import.numpy_s"] = statistics.median(numpy_s)
        m["import.deformflow_s"] = statistics.median(deformflow_s)
    if wall_total > 0.0:
        m["trace.unaccounted_frac"] = unaccounted_total / wall_total
    return m


def large_layer_metrics(pass_run: PassRun, report: dict) -> dict[str, float]:
    m = empty_layer_metrics()
    m.update(pass_run.spans)
    m["import.numpy_s"] = report["import_numpy_s"]
    m["import.deformflow_s"] = report["import_deformflow_s"]
    m["energy.dirichlet.bytes_computed"] = 8 * report["dirichlet_n"]
    m["trace.unaccounted_frac"] = (pass_run.wall - sum(pass_run.spans.values())) / pass_run.wall
    return m


def fill_work_counts(m: dict[str, float], pass_run: PassRun) -> None:
    checks = [run.check for run in pass_run.jobs]
    m["cli.rows_written"] = sum(c.rows_written for c in checks)
    m["cli.rows_read"] = sum(c.rows_read for c in checks)
    m["cli.bytes_written"] = sum(c.bytes_written for c in checks)
    m["flow.rk4.sample_steps"] = sum(c.sample_steps for c in checks)
    cli_self = m["cli.flow.self_s"] + m["cli.energy.self_s"] + m["cli.cv.self_s"]
    if m["cli.rows_written"]:
        m["cli.ns_per_row_written"] = 1e9 * cli_self / m["cli.rows_written"]
    rk4_busy = sum(m[f"flow.rk4.{r}.busy_s"] for r in REGIMES)
    if m["flow.rk4.sample_steps"]:
        m["flow.rk4.ns_per_sample_step"] = 1e9 * rk4_busy / m["flow.rk4.sample_steps"]
    if m["elliptic.compare.calls"]:
        m["elliptic.ns_per_eval"] = 1e9 * m["elliptic.compare.busy_s"] / m["elliptic.compare.calls"]


def traced_metrics(workload: str, passes: list[PassRun], report: dict, problems: list[str]) -> dict:
    """Medians over the traced passes; overhead against the untraced passes of the same run."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    if not traced or not plain:
        problems.append("the run ended before one traced and one untraced pass")
        return empty_layer_metrics()
    per_pass = []
    for p in traced:
        m = large_layer_metrics(p, report) if workload == "large-profile" else layer_metrics(p, problems)
        fill_work_counts(m, p)
        per_pass.append(m)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in PER_LAYER}
    runs = [r for p in passes for r in p.jobs]
    metrics["flow.oracle_max_rel_err"] = max(r.check.flow_rel_err for r in runs)
    metrics["elliptic.max_abs_err"] = max(r.check.elliptic_abs_err for r in runs)
    metrics["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                      / statistics.median(p.wall for p in plain) - 1.0)
    return metrics


# ---------------------------------------------------------------------------
# a run


def environment(seed: int) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "caches": {},
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    env["git_commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10)
            if commit.returncode == 0:
                env["git_commit"] = commit.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            env["git_commit"] = "unknown (git not available)"
    return env


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its report; return the result object."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    env = environment(seed)
    if job_inputs(workload, seed) == job_inputs(workload, seed + 1):
        raise BenchError(f"seeds {seed} and {seed + 1} give {workload} the same inputs")
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_workload(workload, seed, seconds, trace, work, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path, env: dict,
                  deadline: float) -> dict:
    problems: list[str] = []
    setup = []
    report: dict = {}
    worker: ProcResult | None = None
    if workload == "large-profile":
        if not trace:
            setup = measure_setup(work, deadline)
        passes, report, worker = run_large_profile(seed, seconds, trace, work, deadline)
    else:
        jobs, files = build_jobs(workload, seed, work)
        for path, text in files.items():
            path.write_text(text, encoding="utf-8")
        # Untimed warm-up: compiles .pyc files and fills the page cache.
        run_cli_pass(jobs, work, False, deadline)
        if not trace:
            setup = measure_setup(work, deadline)
        passes = []
        t0 = time.monotonic()
        while time.monotonic() < deadline:
            traced = trace and len(passes) % 2 == 1
            passes.append(run_cli_pass(jobs, work, traced, deadline))
            if any(r.proc.rc < 0 for r in passes[-1].jobs):
                problems.append("a job was killed at the run deadline")
                break
            if time.monotonic() - t0 >= seconds and (len(passes) >= 2 or not trace):
                break

    runs = [r for p in passes for r in p.jobs]
    attempted = len(runs)
    failures = [r.failure() for r in runs if r.failed]
    # Jobs expected to succeed must produce output that passes its check;
    # expected-error jobs that exit with the wrong code count as failed only.
    correct = all(r.check.ok for r in runs)
    signature = WORK_SIGNATURE[workload]
    for p in passes:
        got = {"rows_written": sum(r.check.rows_written for r in p.jobs),
               "sample_steps": sum(r.check.sample_steps for r in p.jobs)}
        if all(r.check.ok and r.proc.rc == 0 for r in p.jobs if r.job.expect_rc == 0) and got != signature:
            problems.append(f"work per pass {got} differs from the fixed {signature}")
            break

    print(f"workload = {workload}  seed = {seed}  mode = {'traced' if trace else 'timed'}")
    if trace:
        metrics = traced_metrics(workload, passes, report, problems)
        units = PER_LAYER
        print(f"traced passes = {sum(p.traced for p in passes)}, "
              f"untraced passes = {sum(not p.traced for p in passes)}")
    else:
        walls = [p.wall for p in passes]
        q1, q3 = quartiles(walls)
        maxrss = worker.maxrss_kib if worker is not None else max(r.proc.maxrss_kib for r in runs)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": maxrss / 1024.0,
            "ok_frac": (attempted - len(failures)) / attempted,
        }
        units = END_TO_END
        sq1, sq3 = quartiles(setup)
        print(f"setup_s = {metrics['setup_s']:.6f} s  (median of {len(setup)} fresh imports; "
              f"q1 = {sq1:.6f}, q3 = {sq3:.6f})")
        print(f"wall_s = {metrics['wall_s']:.6f} s  (median of {len(walls)} passes; "
              f"q1 = {q1:.6f}, q3 = {q3:.6f})")
        if workload != "large-profile":
            for i, job in enumerate(jobs):
                job_walls = [p.jobs[i].proc.wall for p in passes]
                print(f"job {job.name}: median wall {statistics.median(job_walls):.6f} s")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']:.3f} MiB  (largest max RSS of one process)")
        print(f"failed_frac = {len(failures) / attempted:.6f}  ({len(failures)} of {attempted} jobs)")
        print(f"ok_frac = {metrics['ok_frac']:.6f}  (1 - failed_frac)")
    for message in sorted(set(failures)):
        name = message.partition(":")[0]
        known = f"  [known defect: {KNOWN_DEFECTS[name]}]" if name in KNOWN_DEFECTS else ""
        print(f"FAILED {message} (x{failures.count(message)}){known}")
    for message in problems:
        print(f"PROBLEM {message}")
    env["loadavg_end"] = os.getloadavg()
    print("env = " + json.dumps(env, sort_keys=True))
    return {
        "correct": correct and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def check_declared_metrics() -> None:
    """The metrics printed must be the ones BENCHMARK.json declares, with the same units."""
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = {key: {m["name"]: m["unit"] for m in declared[key]} for key in ("end_to_end", "per_layer")}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read the metrics declared in BENCHMARK.json: {exc!r}") from exc
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if names[key] != ours:
            raise BenchError(f"BENCHMARK.json {key} does not match the metrics run.py reports")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like on an interrupt: the running child is killed
    # and reaped, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "deformflow" / "cli.py").is_file():
        print(f"benchmark: no deformflow source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        check_declared_metrics()
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
