"""Command-line interface.

Subcommands: ``cv`` tabulates the perimeter ratios, ``flow`` runs a
relaxation flow, ``energy`` post-processes a flow CSV, ``invariants``
scales the curvature-volume triple, ``audit`` prints the claim table.

All numeric output uses 17 significant digits, '.' decimals, and LF line
endings; summary and configuration metadata appear as '# key = value'
comment lines.  Exit codes: 0 success, 1 validation error, 2 numerical or
domain failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager

import numpy as np

from .deform import c_model, critical_beta, lorentz_gamma
from .elliptic import compare
# l2_energy and l2_energy_rate are unused here; benchmarks/tracer.py wraps them by name.
from .energy import PotentialParams, energy_trace, l2_energy, l2_energy_rate  # noqa: F401
from .flow import (
    CONFORMAL_NONLINEAR,
    LINEAR_REGIMES,
    FlowConfig,
    FlowDomainError,
    Trajectory,
    VelocityGrid,
    analytic_conformal,
    analytic_linear,
    integrate,
    relaxation_target,
    second_order_solution,
)
from .invariants import claim_audit, flow_invariant_scaling

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2

_CONFIG_FLOAT_KEYS = ("alpha", "c", "K", "lambda", "k_curv", "tol")
_CONFIG_KEYS = _CONFIG_FLOAT_KEYS + ("regime", "method", "dt", "grid.n", "grid.beta_max")
# Data rows per write, which bounds the output text held in memory.
_CHUNK_ROWS = 8192


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _defaults() -> dict:
    return {
        "alpha": 1.0,
        "c": 1.0,
        "K": 0.0,
        "lambda": 0.0,
        "k_curv": 1.0,
        "regime": "subcritical-linear",
        "dt": None,
        "method": "rk4",
        "tol": 1e-10,
        "grid.n": 65,
        "grid.beta_max": critical_beta(),
    }


def parse_config(path: str | None) -> dict:
    """Flat 'key = value' file; unknown or repeated keys are hard errors."""
    values = _defaults()
    if path is None:
        return values
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        seen.add(key)
        if key in _CONFIG_FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key} needs a number, got {value!r}") from exc
        elif key == "dt":
            if value == "auto":
                values[key] = None
            else:
                try:
                    values[key] = float(value)
                except ValueError as exc:
                    raise ConfigError(
                        f"{path}:{lineno}: dt needs a number or 'auto', got {value!r}"
                    ) from exc
        elif key == "grid.n":
            try:
                values[key] = int(value)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: grid.n needs an integer, got {value!r}"
                ) from exc
        elif key == "grid.beta_max":
            try:
                values[key] = float(value)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: grid.beta_max needs a number, got {value!r}"
                ) from exc
        else:
            values[key] = value
    return values


def _build_flow(values: dict) -> tuple[FlowConfig, VelocityGrid]:
    cfg = FlowConfig(
        regime=values["regime"],
        alpha=values["alpha"],
        c=values["c"],
        K=values["K"],
        k_curv=values["k_curv"],
        dt=values["dt"],
        method=values["method"],
        tol=values["tol"],
    )
    grid = VelocityGrid.uniform(values["grid.beta_max"], values["grid.n"])
    PotentialParams(values["lambda"])  # range check only; recorded, not evolved
    return cfg, grid


def _resolve_initial(spec: str, grid: VelocityGrid) -> tuple[float, ...]:
    if spec == "static":
        return tuple(c_model(b) for b in grid.samples)
    if spec.startswith("uniform:"):
        try:
            x = float(spec[len("uniform:") :])
        except ValueError as exc:
            raise ConfigError(f"bad uniform initial profile {spec!r}") from exc
        return (x,) * grid.n
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh]
        except OSError as exc:
            raise ConfigError(f"cannot read initial profile {path!r}: {exc}") from exc
        pairs: list[tuple[float, float]] = []
        for ln in lines:
            if not ln or ln.startswith("#"):
                continue
            fields = ln.split(",")
            if len(fields) != 2:
                raise ConfigError(f"{path}: expected 'beta,C' rows, got {ln!r}")
            try:
                pairs.append((float(fields[0]), float(fields[1])))
            except ValueError:
                if pairs:
                    raise ConfigError(f"{path}: malformed row {ln!r}") from None
                continue  # header row
        if len(pairs) != grid.n:
            raise ConfigError(
                f"{path}: profile has {len(pairs)} rows for a grid of {grid.n} samples"
            )
        for (b_file, _), b_grid in zip(pairs, grid.samples):
            if abs(b_file - b_grid) > 1e-9 * max(1.0, abs(b_grid)):
                raise ConfigError(
                    f"{path}: profile beta {b_file!r} does not match grid sample {b_grid!r}"
                )
        return tuple(cv for _, cv in pairs)
    raise ConfigError(f"initial profile must be 'static', 'uniform:<x>' or 'file:<path>', got {spec!r}")


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        fh = open(path, "w", encoding="utf-8", newline="")
        try:
            yield fh
        finally:
            fh.close()


def _emit(out, *fields) -> None:
    out.write(",".join(fields) + "\n")


def _write_rows(out, table: np.ndarray, end: str = "\n") -> None:
    """Write a 2-d array as rows of '%.17g' fields, the same text as _fmt."""
    row = ",".join(["%.17g"] * table.shape[1]) + end
    for i in range(0, len(table), _CHUNK_ROWS):
        chunk = table[i : i + _CHUNK_ROWS]
        out.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def _write_snapshots(out, taus: np.ndarray, beta_text: list[str], profiles: np.ndarray) -> None:
    """'tau,beta,C' rows, each tau formatted once per snapshot and each beta once."""
    tails = [f",{b},%.17g\n" for b in beta_text]
    per_chunk = max(1, _CHUNK_ROWS // len(tails))
    for i in range(0, len(taus), per_chunk):
        rows = "".join(t + t.join(tails) for t in map(_fmt, taus[i : i + per_chunk].tolist()))
        out.write(rows % tuple(profiles[i : i + per_chunk].ravel().tolist()))


def _comment(out, key: str, value) -> None:
    out.write(f"# {key} = {value}\n")


def _common_comments(out, args, command: str) -> None:
    _comment(out, "command", command)
    if getattr(args, "seed", None) is not None:
        _comment(out, "seed", args.seed)


def cmd_cv(args) -> int:
    betas = np.array(VelocityGrid.uniform(args.beta_max, args.n, args.beta_min).samples)
    row = compare(betas)
    cols = (betas, row.c_model, row.c_exact, row.c_first_order, row.dev_model, row.dev_first_order)
    m = int(np.searchsorted(betas, 1.0))  # gamma diverges at beta = 1: that cell stays empty
    with _open_out(args.out) as out:
        _common_comments(out, args, "cv")
        _emit(out, "beta", "c_model", "c_exact", "c_first_order", "dev_model", "dev_first_order", "gamma")
        _write_rows(out, np.column_stack([c[:m] for c in cols] + [lorentz_gamma(betas[:m])]))
        _write_rows(out, np.column_stack([c[m:] for c in cols]), ",\n")
    return EXIT_OK


def _fitted_rates(d0: np.ndarray, d1: np.ndarray, span: float) -> list[str]:
    """log(|d0| / |d1|) / span per sample; n/a where a deviation is 0 or changes sign."""
    fit = (d0 != 0.0) & (d1 != 0.0) & ((d0 > 0.0) == (d1 > 0.0))
    rates = ["n/a"] * d0.size
    # math.log: numpy's SIMD log may differ from the C library's in the last bit
    for i, r in zip(np.flatnonzero(fit).tolist(), (np.abs(d0[fit]) / np.abs(d1[fit])).tolist()):
        rates[i] = _fmt(math.log(r) / span)
    return rates


def cmd_flow(args) -> int:
    values = parse_config(args.config)
    cfg, grid = _build_flow(values)
    initial = _resolve_initial(args.initial, grid)
    tau_end = args.tau_end
    snapshot_every = args.snapshot_every if args.snapshot_every is not None else tau_end / 10.0
    traj = integrate(grid, initial, cfg, tau_end, snapshot_every)
    beta_text = [_fmt(b) for b in grid.samples]

    with _open_out(args.out) as out:
        _common_comments(out, args, "flow")
        for key in ("regime", "alpha", "c", "K", "lambda", "k_curv", "method", "tol"):
            val = values[key]
            _comment(out, key, val if isinstance(val, str) else _fmt(val))
        _comment(out, "dt", _fmt(traj.config.dt))
        _comment(out, "grid.n", grid.n)
        _comment(out, "grid.beta_max", _fmt(grid.beta_max))
        _comment(out, "tau_end", _fmt(tau_end))
        _comment(out, "snapshot_every", _fmt(snapshot_every))
        _comment(out, "initial", args.initial)
        _emit(out, "tau", "beta", "C")
        _write_snapshots(out, traj.taus, beta_text, traj.profiles)

        first, last = traj.profiles[0], traj.profiles[-1]
        tau_last = float(traj.taus[-1])
        rates = ["n/a"] * grid.n
        if cfg.regime in LINEAR_REGIMES:
            targets = np.array([relaxation_target(b, cfg) for b in grid.samples])
            _comment(out, "final_max_abs_dev_from_target", _fmt(np.max(np.abs(last - targets))))
            oracle = [analytic_linear(b, tau_last, c0, cfg) for b, c0 in zip(grid.samples, initial)]
            rates = _fitted_rates(first - targets, last - targets, tau_last - float(traj.taus[0]))
        else:
            _comment(out, "final_max_abs_dev_from_target", "n/a")
            if cfg.regime == CONFORMAL_NONLINEAR:
                oracle = [analytic_conformal(tau_last, c0, cfg) for c0 in initial]
            else:
                oracle = [
                    second_order_solution(b, cfg.alpha, c0 - math.pi, tau_last)
                    for b, c0 in zip(grid.samples, initial)
                ]
        _comment(out, "oracle_max_abs_dev", _fmt(np.max(np.abs(last - oracle))))
        for b, rate in zip(beta_text, rates):
            _comment(out, f"fitted_rate_beta_{b}", rate)
    return EXIT_OK


def _parse_rows(path: str, data: list[str]) -> np.ndarray:
    """'tau,beta,C' lines as a (rows, 3) array; an error names the first bad line."""
    try:
        rows = np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
        if rows.shape[1] == 3:
            return rows
    except ValueError:
        pass  # the loop below finds the line, or parses what float() accepts
    parsed = []
    for line in data:
        fields = line.split(",")
        if len(fields) != 3:
            raise ConfigError(f"{path}: expected 'tau,beta,C' rows, got {line!r}")
        try:
            parsed.append([float(f) for f in fields])
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed row {line!r}") from exc
    return np.array(parsed)


def _read_trajectory(path: str) -> tuple[dict, np.ndarray, np.ndarray, VelocityGrid]:
    """Metadata, snapshot times (m,), profiles (m, n) and grid of a flow CSV."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory {path!r}: {exc}") from exc
    meta: dict[str, str] = {}
    data: list[str] = []
    for raw in lines:
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta.setdefault(key.strip(), value.strip())
        elif line and line != "tau" and not line.startswith("tau,"):
            data.append(line)
    if not data:
        raise ConfigError(f"{path}: no data rows")

    tau, beta, cv = _parse_rows(path, data).T
    starts = np.flatnonzero(np.r_[True, tau[1:] != tau[:-1]])  # a snapshot per run of equal tau
    sizes = np.diff(np.r_[starts, tau.size])
    n = int(sizes[0])
    bad = sizes != n
    later = np.flatnonzero(~bad)[1:]  # snapshots of n rows compared with the first
    bad[later] = (beta[starts[later, None] + np.arange(n)] != beta[:n]).any(axis=1)
    if bad.any():
        raise ConfigError(
            f"{path}: snapshot at tau = {float(tau[starts[np.argmax(bad)]])!r} has a different grid"
        )
    grid = VelocityGrid(tuple(beta[:n].tolist()))
    taus = tau[starts]
    if taus.size < 2:
        raise ConfigError(f"{path}: need at least 2 snapshots, got {taus.size}")
    if not (np.diff(taus) > 0.0).all():
        raise ConfigError(f"{path}: snapshot times must be strictly increasing")
    return meta, taus, cv.reshape(-1, n), grid


def cmd_energy(args) -> int:
    meta, taus, profiles, grid = _read_trajectory(args.trajectory)
    for key in ("alpha", "c"):
        if key not in meta:
            raise ConfigError(f"{args.trajectory}: missing '# {key} = ...' header")
    alpha = float(meta["alpha"])
    c = float(meta["c"])
    trace = energy_trace(Trajectory(grid, FlowConfig(alpha=alpha, c=c), taus, profiles))

    energies = np.array(trace.energies)
    j = np.arange(taus.size)
    lo, hi = np.maximum(j - 1, 0), np.minimum(j + 1, taus.size - 1)
    slopes = (energies[hi] - energies[lo]) / (taus[hi] - taus[lo])
    increases = taus[1:][np.diff(energies) > 1e-12 * (1.0 + np.abs(energies[:-1]))]

    with _open_out(args.out) as out:
        _common_comments(out, args, "energy")
        _comment(out, "alpha", _fmt(alpha))
        _comment(out, "c", _fmt(c))
        _emit(out, "tau", "E", "dE_dtau_quadrature", "dE_dtau_lemma")
        _write_rows(out, np.column_stack((taus, energies, slopes, trace.rates)))
        for tau in increases.tolist():
            _comment(out, "warn_energy_increase_at_tau", _fmt(tau))
    return EXIT_OK


def cmd_invariants(args) -> int:
    triple = flow_invariant_scaling(args.conformal_factor, args.r0, args.vol0)
    with _open_out(args.out) as out:
        _common_comments(out, args, "invariants")
        _comment(out, "conformal_factor", _fmt(args.conformal_factor))
        _comment(out, "r0", _fmt(args.r0))
        _comment(out, "vol0", _fmt(args.vol0))
        _emit(out, "i1", "i2", "i3")
        _emit(out, _fmt(triple.i1), _fmt(triple.i2), _fmt(triple.i3))
    return EXIT_OK


def cmd_audit(args) -> int:
    report = claim_audit()
    if args.out is not None and args.out != "-":
        with _open_out(args.out) as out:
            _common_comments(out, args, "audit")
            _emit(out, "label", "claimed", "computed", "abs_dev", "rel_dev", "status")
            for row in report.rows:
                _emit(
                    out,
                    row.label,
                    _fmt(row.claimed),
                    _fmt(row.computed),
                    _fmt(row.abs_dev),
                    _fmt(row.rel_dev),
                    row.status,
                )
            for note in report.notes:
                _comment(out, "note", note)
        return EXIT_OK
    width = max(len(r.label) for r in report.rows)
    head = f"{'label'.ljust(width)}  {'claimed':>20}  {'computed':>20}  {'rel_dev':>12}  status"
    print(head)
    print("-" * len(head))
    for row in report.rows:
        print(
            f"{row.label.ljust(width)}  {row.claimed:>20.12g}  {row.computed:>20.12g}  "
            f"{row.rel_dev:>12.3g}  {row.status}"
        )
    for note in report.notes:
        print(f"note: {note}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deformflow",
        description="Deformation-factor tables, relaxation flows, energies, and invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="seed recorded in the output header")

    p_cv = sub.add_parser("cv", help="tabulate the three perimeter ratios")
    p_cv.add_argument("--beta-min", type=float, default=0.0)
    p_cv.add_argument("--beta-max", type=float, default=1.0)
    p_cv.add_argument("--n", type=int, default=101)
    add_common(p_cv)
    p_cv.set_defaults(func=cmd_cv)

    p_flow = sub.add_parser("flow", help="integrate a relaxation flow")
    p_flow.add_argument("--config", default=None, help="flat key = value config file")
    p_flow.add_argument("--tau-end", type=float, default=10.0)
    p_flow.add_argument("--snapshot-every", type=float, default=None)
    p_flow.add_argument(
        "--initial",
        default="static",
        help="initial profile: static | uniform:<x> | file:<path>",
    )
    add_common(p_flow)
    p_flow.set_defaults(func=cmd_flow)

    p_energy = sub.add_parser("energy", help="energy trace of a flow CSV")
    p_energy.add_argument("trajectory", help="CSV produced by the flow subcommand")
    add_common(p_energy)
    p_energy.set_defaults(func=cmd_energy)

    p_inv = sub.add_parser("invariants", help="scaled curvature-volume triple")
    p_inv.add_argument("--conformal-factor", type=float, default=1.0)
    p_inv.add_argument("--r0", type=float, default=6.0)
    p_inv.add_argument("--vol0", type=float, default=2.0 * math.pi**2)
    add_common(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_audit = sub.add_parser("audit", help="audit quoted reference values")
    add_common(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        return args.func(args)
    except FlowDomainError as exc:
        print(f"deformflow: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as exc:
        print(f"deformflow: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"deformflow: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
