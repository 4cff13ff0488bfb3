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
import dataclasses
import itertools
import math
import os
import stat
import sys
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from .deform import _first, _libm, c_model, critical_beta, lorentz_gamma
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
    snapshot_times,
)
from .invariants import claim_audit, flow_invariant_scaling

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2

# Data rows per write of a table: it bounds the text held.
_CHUNK_ROWS = 8192


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    """A float as '%.17g', anything else as str()."""
    return format(float(x), ".17g") if isinstance(x, float) else str(x)


# The config keys in the order `flow` echoes them: how each value parses, and what a bad one needs.
_NUMBER = (float, "a number")
_CONFIG = {
    "regime": (str, None),
    **dict.fromkeys(("alpha", "c", "K", "lambda", "k_curv"), _NUMBER),
    "method": (str, None),
    "tol": _NUMBER,
    "dt": (lambda value: None if value == "auto" else float(value), "a number or 'auto'"),
    "grid.n": (int, "an integer"),
    "grid.beta_max": _NUMBER,
}


def _parse_value(where: str, key: str, value: str):
    parse, what = _CONFIG[key]
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {key} needs {what}, got {value!r}") from exc


def parse_config(path: str | None) -> dict:
    """Flat 'key = value' file over FlowConfig's defaults; unknown or repeated keys are hard errors."""
    values = {**vars(FlowConfig()), "lambda": 0.0, "grid.n": 65, "grid.beta_max": critical_beta()}
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
        if key not in _CONFIG:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        seen.add(key)
        values[key] = _parse_value(f"{path}:{lineno}", key, value.strip())
    return values


def _build_flow(values: dict) -> tuple[FlowConfig, VelocityGrid]:
    cfg = FlowConfig(**{field.name: values[field.name] for field in dataclasses.fields(FlowConfig)})
    grid = VelocityGrid.uniform(values["grid.beta_max"], values["grid.n"])
    PotentialParams(values["lambda"])  # range check only; recorded, not evolved
    return cfg, grid


def _resolve_initial(spec: str, grid: VelocityGrid) -> np.ndarray:
    if spec == "static":
        return c_model(grid.samples)
    if spec.startswith("uniform:"):
        try:
            x = float(spec[len("uniform:") :])
        except ValueError as exc:
            raise ConfigError(f"bad uniform initial profile {spec!r}") from exc
        return np.full(grid.n, x)
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        _, rows = _read_table(path, "beta,C", "initial profile")
        if rows.shape[0] != grid.n:
            raise ConfigError(f"{path}: profile has {rows.shape[0]} rows for a grid of {grid.n} samples")
        beta, cv = rows.T
        off = np.abs(beta - grid.samples) > 1e-9 * np.maximum(1.0, np.abs(grid.samples))
        if off.any():
            b_file, b_grid = _first(off, beta, grid.samples)
            raise ConfigError(f"{path}: profile beta {b_file!r} does not match grid sample {b_grid!r}")
        return cv
    raise ConfigError(f"initial profile must be 'static', 'uniform:<x>' or 'file:<path>', got {spec!r}")


@contextmanager
def _open_out(path: str | None):
    """stdout, or the file at path written over in place and cut at the end of what was written.

    Without O_TRUNC the path keeps its inode, mode, links and symlink, and a
    rerun does not wait on the disk writeback that truncating a written file
    starts.  A run that fails while writing leaves the rows it wrote.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        finally:
            fh.flush()
            fd = fh.fileno()
            if stat.S_ISREG(os.fstat(fd).st_mode):  # a pipe or a device has no length to cut
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _emit(out, *fields) -> None:
    out.write(",".join(map(_fmt, fields)) + "\n")


# '%.17g' text in numpy blocks.  A field is _FIELD bytes of ASCII padded with
# zero bytes: a sign, the "0.000" lead of small values, the first digit, a slot
# for the decimal point and 16 more digits.  Python's longest '%.17g' text,
# "-2.2250738585072014e-308", fits too.
_FIELD = 24
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter into two 26-bit halves


def _halves(a):
    """a as hi + lo exactly, each half of at most 26 significant bits (Veltkamp)."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


# The decimal exponents e that %g writes in fixed point, indexed by e - _E_MIN: the least double
# >= 10**e, up to 10**17 (10**e itself from e = 0; below, the nearest double lies above 10**e),
# and the scale 10**(16 - e) <= 10**20, a double exactly, with its halves.
_E_MIN, _E_MAX = -4, 16
_CEIL = np.array([float(f"1e{e}") for e in range(_E_MIN, _E_MAX + 2)])
_SCALE = np.array([float(10 ** (16 - e)) for e in range(_E_MIN, _E_MAX + 1)])
_SCALE_HI, _SCALE_LO = _halves(_SCALE)


def _ascii_tables() -> tuple[np.ndarray, ...]:
    """The ASCII pieces of a field, built once at import.

    The digits of each 4-digit group as one uint32, the digit mask for a
    count of kept digits, and the "0.000" lead for a lead length.
    """
    # the 10**4 groups as a (10, 10, 10, 10) grid of their digits, so no table is built by division
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    ascii4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        ascii4[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    keep = (np.arange(17) < np.arange(18)[:, None]).astype(np.uint8)
    lead = keep[:6, :5] * np.frombuffer(b"0.000", np.uint8)
    return ascii4.view(np.uint32).ravel(), keep, lead


_ASCII4, _KEEP, _LEAD = _ascii_tables()


def _g17_round(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, e, ok): |x| rounded to 17 digits as n * 10**(e - 16), 10**16 <= n < 10**17.

    Only what '%g' writes in fixed point, 1e-4 <= |x| < 1e17, is rounded
    here; ok is False for the rest (zero, inf, nan and every value written
    with an exponent), and n and e are placeholders there.  The scale
    10**(16 - e) is a double, so Dekker's product |x| * 10**(16 - e) = p +
    rest is exact, and p, a double of at least 1e16, is an even integer:
    np.rint(rest) breaks exact ties to even, as CPython does.  n never
    reaches 10**17, since every double below 10**(e + 1) lies further from
    it than the 10**(e + 1) * 5e-18 that 17-digit rounding can move.
    """
    a = np.abs(x)
    ok = (a >= _CEIL[0]) & (a < _CEIL[-1])
    a[~ok] = 1.0
    # floor(log10 a) may be one off next to a power of ten; the ceilings settle it
    i = np.clip(np.floor(np.log10(a)), _E_MIN, _E_MAX).astype(np.intp) - _E_MIN
    i += a >= _CEIL.take(i + 1)
    i -= a < _CEIL.take(i)
    a_hi, a_lo = _halves(a)
    s_hi, s_lo = _SCALE_HI.take(i), _SCALE_LO.take(i)
    p = a * _SCALE.take(i)
    rest = (((a_hi * s_hi - p) + a_hi * s_lo) + a_lo * s_hi) + a_lo * s_lo
    return p.astype(np.int64) + np.rint(rest).astype(np.int64), i + _E_MIN, ok


def _g17_fields(values: np.ndarray) -> np.ndarray:
    """'%.17g' % x for every x of values, as values.shape + (_FIELD,) zero-padded ASCII.

    The 17 digits from _g17_round are spelled by 4-digit groups, split off
    the end by divmod, and laid out in %g's fixed point with the trailing
    zeros dropped.  The point slot follows the first digit; where the point
    follows digit p >= 1, digits 1..p move left into that slot by one slice
    per p that occurs.  What _g17_round leaves takes Python's own '%.17g',
    so every byte follows CPython's rules.
    """
    x = np.asarray(values, dtype=float).ravel()
    m = x.size
    n, e, ok = _g17_round(x)
    groups = np.empty((m, 4), np.int64)
    for g in range(3, -1, -1):
        n, groups[:, g] = np.divmod(n, 10**4)
    digits = np.empty((m, 17), np.uint8)
    digits[:, 0] = n + ord("0")
    digits[:, 1:] = _ASCII4.take(groups).view(np.uint8)
    # digit 0 is never '0', since n >= 10**16
    kept = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    kept = np.maximum(kept, e + 1)  # the integer part stays whole

    out = np.zeros((m, _FIELD), np.uint8)
    out[:, 0] = (x < 0.0) * np.uint8(ord("-"))
    out[:, 1:6] = _LEAD.take((1 - e) * (e < 0), axis=0)
    digits *= _KEEP.take(kept, axis=0)
    out[:, 6] = digits[:, 0]
    out[:, 8:] = digits[:, 1:]
    fraction = (kept > e + 1) & (e >= 0)  # the point follows digit e
    out[:, 7] = (fraction & (e == 0)) * np.uint8(ord("."))
    for p in np.flatnonzero(np.bincount(e[fraction & (e > 0)])).tolist():
        at = np.flatnonzero(fraction & (e == p))
        out[at, 7 : 7 + p] = digits[at, 1 : p + 1]
        out[at, 7 + p] = ord(".")
    at = np.flatnonzero(~ok)
    if at.size:
        text = np.array(["%.17g" % v for v in x[at].tolist()], dtype=f"S{_FIELD}")
        out[at] = text.view(np.uint8).reshape(-1, _FIELD)
    return out.reshape(np.shape(values) + (_FIELD,))


def _write_rows(out, line: str, *columns: np.ndarray, missing: str | None = None) -> None:
    """Write line per element of the columns' broadcast shape, its j-th '{}' the '%.17g' of column j.

    The shape is (m,) or (m, k).  At most _CHUNK_ROWS rows are held at a
    time, whatever k is: whole runs of k rows while one fits, else pieces of
    a run, all in one row buffer tiled from the template once.  A column
    repeated along an axis (shape (m, 1) or (1, k)) is formatted once per
    chunk, not once per row.  Where missing is given, a NaN field is
    written as that text instead.
    """
    pieces = line.split("{}")
    template = np.frombuffer(("\0" * _FIELD).join(pieces).encode("ascii"), np.uint8)
    starts = np.cumsum([len(piece) for piece in pieces[:-1]]) + _FIELD * np.arange(len(columns))
    blank = np.frombuffer((missing or "").encode("ascii").ljust(_FIELD, b"\0"), np.uint8)
    columns = [c[:, None] if c.ndim == 1 else c for c in columns]
    m, k = np.broadcast_shapes(*(c.shape for c in columns))
    step, span = max(1, _CHUNK_ROWS // k), min(k, _CHUNK_ROWS)
    buffer = np.tile(template, (min(step, m) * span, 1))  # the largest chunk's rows
    for i, p in itertools.product(range(0, m, step), range(0, k, span)):
        block, at = (min(step, m - i), min(span, k - p)), (slice(i, i + step), slice(p, p + span))
        rows = buffer[: math.prod(block)]  # a chunk writes every field in full and never a separator
        for start, column in zip(starts.tolist(), columns):
            field = rows[:, start : start + _FIELD].reshape(*block, _FIELD)
            part = column[tuple(a if size > 1 else slice(None) for a, size in zip(at, column.shape))]
            gap = np.isnan(part) & (missing is not None)
            field[...] = _g17_fields(np.where(gap, 1.0, part))  # 1: a placeholder the kernel formats itself
            field[np.broadcast_to(gap, block)] = blank
        out.write(rows.tobytes().translate(None, b"\0").decode("ascii"))


def _comment(out, key: str, value) -> None:
    out.write(f"# {key} = {_fmt(value)}\n")


def _common_comments(out, args, command: str) -> None:
    _comment(out, "command", command)
    if getattr(args, "seed", None) is not None:
        _comment(out, "seed", args.seed)


def cmd_cv(args) -> int:
    betas = VelocityGrid.uniform(args.beta_max, args.n, args.beta_min).samples
    row = compare(betas)
    m = int(np.searchsorted(betas, 1.0))
    gamma = np.full(betas.size, math.nan)  # gamma diverges at beta = 1: that cell stays empty
    gamma[:m] = lorentz_gamma(betas[:m])
    with _open_out(args.out) as out:
        _common_comments(out, args, "cv")
        _emit(out, "beta", "c_model", "c_exact", "c_first_order", "dev_model", "dev_first_order", "gamma")
        _write_rows(out, "{},{},{},{},{},{},{}\n", betas, row.c_model, row.c_exact, row.c_first_order,
                    row.dev_model, row.dev_first_order, gamma, missing="")
    return EXIT_OK


def _fitted_rates(d0: np.ndarray, d1: np.ndarray, span: float) -> np.ndarray:
    """log(|d0| / |d1|) / span per sample; NaN where a deviation is 0 or changes sign."""
    fit = (d0 != 0.0) & (d1 != 0.0) & ((d0 > 0.0) == (d1 > 0.0))
    rates = np.full(d0.size, math.nan)
    rates[fit] = _libm(math.log, np.abs(d0[fit]) / np.abs(d1[fit])) / span
    return rates


def cmd_flow(args) -> int:
    values = parse_config(args.config)
    tau_end = args.tau_end
    snapshot_every = args.snapshot_every if args.snapshot_every is not None else tau_end / 10.0
    snapshot_times(tau_end, snapshot_every, values["grid.n"])  # sizes the run before the grid exists
    cfg, grid = _build_flow(values)
    initial = _resolve_initial(args.initial, grid)
    traj = integrate(grid, initial, cfg, tau_end, snapshot_every)

    with _open_out(args.out) as out:
        _common_comments(out, args, "flow")
        echo = {**values, "dt": traj.config.dt, "tau_end": tau_end, "snapshot_every": snapshot_every}
        for key in (*_CONFIG, "tau_end", "snapshot_every"):
            _comment(out, key, echo[key])
        _comment(out, "initial", args.initial)
        _emit(out, "tau", "beta", "C")
        _write_rows(out, "{},{},{}\n", traj.taus[:, None], grid.samples[None, :], traj.profiles)

        first, last = traj.profiles[0], traj.profiles[-1]
        tau_last = float(traj.taus[-1])
        rates = np.full(grid.n, math.nan)
        if cfg.regime in LINEAR_REGIMES:
            targets = relaxation_target(grid.samples, cfg)
            _comment(out, "final_max_abs_dev_from_target", np.max(np.abs(last - targets)))
            oracle = analytic_linear(grid.samples, tau_last, initial, cfg)
            rates = _fitted_rates(first - targets, last - targets, tau_last - float(traj.taus[0]))
        else:
            _comment(out, "final_max_abs_dev_from_target", "n/a")
            if cfg.regime == CONFORMAL_NONLINEAR:
                oracle = analytic_conformal(tau_last, initial, cfg)
            else:
                oracle = second_order_solution(grid.samples, cfg.alpha, initial - math.pi, tau_last)
        _comment(out, "oracle_max_abs_dev", np.max(np.abs(last - oracle)))
        _write_rows(out, "# fitted_rate_beta_{} = {}\n", grid.samples, rates, missing="n/a")
    return EXIT_OK


def _read_table(path: str, header: str, what: str) -> tuple[dict, np.ndarray]:
    """'# key = value' metadata and the rows of a CSV table, read once and parsed by one np.loadtxt.

    Comment and blank lines are skipped whole.  The '# key = value' lines
    before the first other line go into the metadata, the first of a key
    winning, and a table without the header line starts at its first data
    row.  numpy sizes every row by the first one, so that row's field count
    is checked here, and stops at the first row it cannot parse: the last
    line handed to it.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    meta: dict[str, str] = {}
    line = ""

    def lines() -> Iterator[str]:
        nonlocal line
        head = True
        for line in fh:
            text = line.lstrip()
            if text[:1] not in "#":  # neither blank nor a comment
                head = False
                yield line
            elif head:
                key, eq, value = text[1:].partition("=")
                if eq:
                    meta.setdefault(key.strip(), value.strip())

    with fh:
        rows = lines()
        first = next(rows, None)
        if first is not None and first.strip() == header:
            first = next(rows, None)
        if first is None:  # loadtxt would warn on an empty table
            raise ConfigError(f"{path}: no data rows")
        if first.count(",") == header.count(","):
            try:
                return meta, np.loadtxt(itertools.chain([first], rows), delimiter=",", comments=None, ndmin=2)
            except UnicodeDecodeError:  # the file's, not a row's
                raise
            except ValueError:
                pass
    bad = line.strip()  # the first row, or the row numpy stopped at
    if bad.count(",") != header.count(","):
        raise ConfigError(f"{path}: expected '{header}' rows, got {bad!r}")
    raise ConfigError(f"{path}: malformed row {bad!r}")


def _read_trajectory(path: str) -> tuple[dict, np.ndarray, np.ndarray, VelocityGrid]:
    """Metadata, snapshot times (m,), profiles (m, n) and grid of a flow CSV."""
    meta, rows = _read_table(path, "tau,beta,C", "trajectory")
    tau, beta, cv = rows.T
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
    grid = VelocityGrid(beta[:n])
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
    cfg = FlowConfig(**{key: _parse_value(args.trajectory, key, meta[key]) for key in ("alpha", "c")})
    trace = energy_trace(Trajectory(grid, cfg, taus, profiles))

    energies = trace.energies
    j = np.arange(taus.size)
    lo, hi = np.maximum(j - 1, 0), np.minimum(j + 1, taus.size - 1)
    slopes = (energies[hi] - energies[lo]) / (taus[hi] - taus[lo])
    increases = taus[1:][np.diff(energies) > 1e-12 * (1.0 + np.abs(energies[:-1]))]

    with _open_out(args.out) as out:
        _common_comments(out, args, "energy")
        for key in ("alpha", "c"):
            _comment(out, key, getattr(cfg, key))
        _emit(out, "tau", "E", "dE_dtau_quadrature", "dE_dtau_lemma")
        _write_rows(out, "{},{},{},{}\n", taus, energies, slopes, trace.rates)
        _write_rows(out, "# warn_energy_increase_at_tau = {}\n", increases)
    return EXIT_OK


def cmd_invariants(args) -> int:
    triple = flow_invariant_scaling(args.conformal_factor, args.r0, args.vol0)
    with _open_out(args.out) as out:
        _common_comments(out, args, "invariants")
        for key in ("conformal_factor", "r0", "vol0"):
            _comment(out, key, getattr(args, key))
        _emit(out, "i1", "i2", "i3")
        _emit(out, triple.i1, triple.i2, triple.i3)
    return EXIT_OK


def cmd_audit(args) -> int:
    report = claim_audit()
    if args.out is not None and args.out != "-":
        with _open_out(args.out) as out:
            _common_comments(out, args, "audit")
            _emit(out, "label", "claimed", "computed", "abs_dev", "rel_dev", "status")
            for row in report.rows:
                _emit(out, row.label, row.claimed, row.computed, row.abs_dev, row.rel_dev, row.status)
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
    except MemoryError as exc:  # numpy's names the allocation it refused; Python's own is empty
        print(f"deformflow: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
