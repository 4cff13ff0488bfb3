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

from .deform import c_model, critical_beta, lorentz_gamma
from .elliptic import compare
from .energy import PotentialParams, l2_energy, l2_energy_rate
from .flow import (
    CONFORMAL_NONLINEAR,
    LINEAR_REGIMES,
    SECOND_ORDER,
    FlowConfig,
    FlowDomainError,
    FlowState,
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


def _comment(out, key: str, value) -> None:
    out.write(f"# {key} = {value}\n")


def _common_comments(out, args, command: str) -> None:
    _comment(out, "command", command)
    if getattr(args, "seed", None) is not None:
        _comment(out, "seed", args.seed)


def cmd_cv(args) -> int:
    betas = VelocityGrid.uniform(args.beta_max, args.n, args.beta_min).samples
    with _open_out(args.out) as out:
        _common_comments(out, args, "cv")
        _emit(out, "beta", "c_model", "c_exact", "c_first_order", "dev_model", "dev_first_order", "gamma")
        for b in betas:
            row = compare(b)
            gamma = "" if b == 1.0 else _fmt(lorentz_gamma(b))
            _emit(
                out,
                _fmt(b),
                _fmt(row.c_model),
                _fmt(row.c_exact),
                _fmt(row.c_first_order),
                _fmt(row.dev_model),
                _fmt(row.dev_first_order),
                gamma,
            )
    return EXIT_OK


def _fitted_rate(d0: float, d1: float, span: float) -> str:
    if d0 == 0.0 or d1 == 0.0 or (d0 > 0.0) != (d1 > 0.0):
        return "n/a"
    return _fmt(math.log(abs(d0) / abs(d1)) / span)


def cmd_flow(args) -> int:
    values = parse_config(args.config)
    cfg, grid = _build_flow(values)
    initial = _resolve_initial(args.initial, grid)
    tau_end = args.tau_end
    snapshot_every = args.snapshot_every if args.snapshot_every is not None else tau_end / 10.0
    traj = integrate(grid, initial, cfg, tau_end, snapshot_every)

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
        for st in traj.states:
            for b, cv in zip(grid.samples, st.profile):
                _emit(out, _fmt(st.tau), _fmt(b), _fmt(cv))

        first, last = traj.states[0], traj.states[-1]
        span = last.tau - first.tau
        if cfg.regime in LINEAR_REGIMES:
            targets = [relaxation_target(b, cfg) for b in grid.samples]
            final_dev = max(abs(cv - t) for cv, t in zip(last.profile, targets))
            _comment(out, "final_max_abs_dev_from_target", _fmt(final_dev))
            oracle = [analytic_linear(b, last.tau, c0, cfg) for b, c0 in zip(grid.samples, initial)]
        else:
            _comment(out, "final_max_abs_dev_from_target", "n/a")
            if cfg.regime == CONFORMAL_NONLINEAR:
                oracle = [analytic_conformal(last.tau, c0, cfg) for c0 in initial]
            else:
                oracle = [
                    second_order_solution(b, cfg.alpha, c0 - math.pi, last.tau)
                    for b, c0 in zip(grid.samples, initial)
                ]
        _comment(out, "oracle_max_abs_dev", _fmt(max(abs(cv - o) for cv, o in zip(last.profile, oracle))))
        for i, b in enumerate(grid.samples):
            if cfg.regime in LINEAR_REGIMES:
                t = relaxation_target(b, cfg)
                rate = _fitted_rate(first.profile[i] - t, last.profile[i] - t, span)
            else:
                rate = "n/a"
            _comment(out, f"fitted_rate_beta_{_fmt(b)}", rate)
    return EXIT_OK


def _read_trajectory(path: str) -> tuple[dict, list[FlowState], VelocityGrid]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory {path!r}: {exc}") from exc
    meta: dict[str, str] = {}
    rows: list[tuple[float, float, float]] = []
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta.setdefault(key.strip(), value.strip())
            continue
        fields = line.split(",")
        if fields[0] == "tau":
            continue
        if len(fields) != 3:
            raise ConfigError(f"{path}: expected 'tau,beta,C' rows, got {line!r}")
        try:
            rows.append((float(fields[0]), float(fields[1]), float(fields[2])))
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed row {line!r}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")

    groups: list[tuple[float, list[float], list[float]]] = []
    for tau, beta, cv in rows:
        if not groups or tau != groups[-1][0]:
            groups.append((tau, [], []))
        groups[-1][1].append(beta)
        groups[-1][2].append(cv)
    betas0 = groups[0][1]
    for tau, betas, _ in groups:
        if betas != betas0:
            raise ConfigError(f"{path}: snapshot at tau = {tau!r} has a different grid")
    grid = VelocityGrid(tuple(betas0))
    states = [FlowState(tau=tau, profile=tuple(cvs)) for tau, _, cvs in groups]
    if len(states) < 2:
        raise ConfigError(f"{path}: need at least 2 snapshots, got {len(states)}")
    for a, b in zip(states, states[1:]):
        if not b.tau > a.tau:
            raise ConfigError(f"{path}: snapshot times must be strictly increasing")
    return meta, states, grid


def cmd_energy(args) -> int:
    meta, states, grid = _read_trajectory(args.trajectory)
    for key in ("alpha", "c"):
        if key not in meta:
            raise ConfigError(f"{args.trajectory}: missing '# {key} = ...' header")
    alpha = float(meta["alpha"])
    c = float(meta["c"])

    taus = [st.tau for st in states]
    energies = [l2_energy(st, grid, c) for st in states]
    lemma = [l2_energy_rate(st, grid, alpha, c) for st in states]
    slopes: list[float] = []
    for j in range(len(states)):
        lo = max(0, j - 1)
        hi = min(len(states) - 1, j + 1)
        slopes.append((energies[hi] - energies[lo]) / (taus[hi] - taus[lo]))
    increases = [
        taus[j + 1]
        for j in range(len(states) - 1)
        if energies[j + 1] - energies[j] > 1e-12 * (1.0 + abs(energies[j]))
    ]

    with _open_out(args.out) as out:
        _common_comments(out, args, "energy")
        _comment(out, "alpha", _fmt(alpha))
        _comment(out, "c", _fmt(c))
        _emit(out, "tau", "E", "dE_dtau_quadrature", "dE_dtau_lemma")
        for tau, e, s, r in zip(taus, energies, slopes, lemma):
            _emit(out, _fmt(tau), _fmt(e), _fmt(s), _fmt(r))
        for tau in increases:
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
