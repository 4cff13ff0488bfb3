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
import functools
import itertools
import math
import re
import sys
from collections.abc import Iterator
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
    snapshot_times,
)
from .invariants import claim_audit, flow_invariant_scaling

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2

# Data rows per write, which bounds the output text held in memory.
_CHUNK_ROWS = 8192
# math.log per element: numpy's SIMD log may differ from the C library's in the last bit.
_log = np.vectorize(math.log, otypes=[float])


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
            i = int(np.argmax(off))
            b_file, b_grid = float(beta[i]), float(grid.samples[i])
            raise ConfigError(f"{path}: profile beta {b_file!r} does not match grid sample {b_grid!r}")
        return cv
    raise ConfigError(f"initial profile must be 'static', 'uniform:<x>' or 'file:<path>', got {spec!r}")


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _emit(out, *fields) -> None:
    out.write(",".join(map(_fmt, fields)) + "\n")


# '%.17g' text in numpy blocks.  A field is _FIELD bytes of ASCII padded with
# zero bytes: a sign, the "0.000" lead of small fixed-point values, the first
# digit, a slot for the decimal point, 16 more digits and an "e+308" exponent.
_FIELD = 29
# Decimal exponents the numpy path takes; the power-of-ten tables span 10**_K_MIN to 10**_K_MAX.
_E_MIN, _E_MAX = -280, 290
_K_MIN, _K_MAX = -300, 300
# The scaled value's fraction is off by less than 3e-15; nearer 1/2 than this it goes to '%.17g'.
_HALF_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter into two 26-bit halves


def _pow10(k: int) -> tuple[float, float]:
    """10**k as hi + lo, each correctly rounded (so is int / int division)."""
    if k >= 0:
        n = 10**k
        hi = float(n)
        return hi, float(n - int(hi))
    d = 10**-k
    hi = 1 / d
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (den * d)


# The power-of-ten tables, indexed by k - _K_MIN: the least double >= 10**k, and 10**k as hi + lo
# with hi split in halves.  Each row is built the first time a block of values needs it.
_POW10 = np.zeros((5, _K_MAX - _K_MIN + 1))
_POW10_BUILT = np.zeros(_K_MAX - _K_MIN + 1, bool)


def _pow10_tables(k: np.ndarray) -> tuple[np.ndarray, ...]:
    """The five tables, with the rows of every exponent in k built; rows never asked for hold 0."""
    need = np.zeros_like(_POW10_BUILT)
    need[k - _K_MIN] = True
    new = np.flatnonzero(need & ~_POW10_BUILT)
    if new.size:
        hi, lo = np.array([_pow10(i) for i in (new + _K_MIN).tolist()]).T
        c = hi * _SPLIT
        hi_hi = c - (c - hi)
        _POW10[:, new] = np.where(lo > 0.0, np.nextafter(hi, np.inf), hi), hi, hi_hi, hi - hi_hi, lo
        _POW10_BUILT[new] = True
    return tuple(_POW10)


@functools.cache
def _ascii_tables() -> tuple[np.ndarray, ...]:
    """The ASCII pieces of a field, built on first use.

    Indexed by a 4-digit group: its digits as one uint32 and its count of
    trailing zeros.  Then the digit mask for a count of kept digits, the
    "0.000" lead for a lead length, the order of 17 digits and a point that
    follows digit p, and the "e+XX" text for k - _K_MIN.
    """
    # the 10**4 groups as a (10, 10, 10, 10) grid of their digits, so no table is built by division
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    ascii4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        ascii4[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    ascii4 = ascii4.reshape(10000, 4)
    zero = (digit == ord("0")).astype(np.intp)
    run = zeros4 = zero  # the trailing zeros: the runs of zero digits that end at the last one
    for place in range(3):
        run = zero.reshape((10,) + (1,) * (place + 1)) * run
        zeros4 = zeros4 + run
    zeros4 = np.broadcast_to(zeros4, (10, 10, 10, 10)).ravel()
    keep = (np.arange(17) < np.arange(18)[:, None]).astype(np.uint8)
    lead = keep[:6, :5] * np.frombuffer(b"0.000", np.uint8)
    # digits 0..p, then the point (index 17), then the rest: the body of a point after digit p
    j, p = np.arange(18), np.arange(17)[:, None]
    shift = np.where(j == p + 1, 17, j - (j > p))
    k = np.arange(_K_MIN, _K_MAX + 1)
    expo = np.zeros((k.size, 5), np.uint8)
    expo[:, 0] = ord("e")
    expo[:, 1] = np.where(k < 0, ord("-"), ord("+"))
    expo[:, 2:] = ascii4[np.abs(k), 1:]
    expo[np.abs(k) < 100, 2] = 0
    return ascii4.view(np.uint32).ravel(), zeros4, keep, lead, shift, expo


def _g17_round(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, e, ok): |x| rounded to 17 digits as n * 10**(e - 16), 10**16 <= n < 10**17.

    |x| * 10**(16 - e) is formed as a double-double, Dekker's exact product
    by a tabled 10**k plus its low part, then rounded to an integer.  ok is
    False where that cannot be settled for certain: zero, non-finite values,
    exponents outside [_E_MIN, _E_MAX] and fractions within _HALF_MARGIN of
    1/2; n and e are placeholders there.
    """
    ceil = _pow10_tables(np.array([_E_MIN, _E_MAX + 1]))[0]
    a = np.abs(x)
    ok = (a >= ceil[_E_MIN - _K_MIN]) & (a < ceil[_E_MAX + 1 - _K_MIN])
    a[~ok] = 1.0
    # floor(log10 a) may be one off next to a power of ten; the exact ceilings settle it
    e = np.floor(np.log10(a)).astype(np.intp)
    seen = np.zeros(_K_MAX - _K_MIN + 1, bool)
    seen[e - _K_MIN] = True
    es = np.flatnonzero(seen) + _K_MIN  # the rows read below: 10**es, 10**(es + 1) and 10**(16 - es +- 1)
    ceil, hi, hi_hi, hi_lo, lo = _pow10_tables(np.concatenate([es, es + 1, 15 - es, 16 - es, 17 - es]))
    e += a >= ceil.take(e + (1 - _K_MIN))
    e -= a < ceil.take(e - _K_MIN)
    k = (16 - _K_MIN) - e
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    ph, phh, phl = hi.take(k), hi_hi.take(k), hi_lo.take(k)
    p = a * ph  # a double near [1e16, 1e17), so a whole number
    # a * ph - p exactly (Dekker), plus a * lo: all of a * 10**k beyond p, off by < 3e-15
    rest = (((a_hi * phh - p) + a_hi * phl) + a_lo * phh) + a_lo * phl + a * lo.take(k)
    r = np.rint(rest)
    ok &= np.abs(np.abs(rest - r) - 0.5) > _HALF_MARGIN
    n = p.astype(np.int64) + r.astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    e += carry
    return n, e, ok


def _g17_fields(values: np.ndarray) -> np.ndarray:
    """'%.17g' % x for every x of values, as values.shape + (_FIELD,) zero-padded ASCII.

    The 17 digits from _g17_round are spelled by 4-digit groups and laid out
    by the %g rules: fixed point for -4 <= e < 17, else an exponent of at
    least two digits, trailing zeros dropped.  What _g17_round cannot settle
    takes Python's own '%.17g', so every byte follows CPython's rules.
    """
    ascii4, zeros4, keep, lead, shift, expo = _ascii_tables()
    x = np.asarray(values, dtype=float).ravel()
    m = x.size
    n, e, ok = _g17_round(x)
    head = n // 10**8  # the first 9 digits, then the last 8
    tail = (n - head * 10**8).astype(np.int32)
    head = head.astype(np.int32)
    groups = np.empty((m, 4), np.intp)
    np.floor_divide(head, 10**4, out=groups[:, 0])
    groups[:, 0] %= 10**4
    np.remainder(head, 10**4, out=groups[:, 1])
    np.floor_divide(tail, 10**4, out=groups[:, 2])
    np.remainder(tail, 10**4, out=groups[:, 3])
    digits = np.empty((m, 17), np.uint8)
    digits[:, 0] = head // 10**8 + ord("0")
    digits[:, 1:] = ascii4.take(groups).view(np.uint8)
    z = zeros4.take(groups)
    q = groups == 0
    kept = 17 - (z[:, 3] + q[:, 3] * (z[:, 2] + q[:, 2] * (z[:, 1] + q[:, 1] * z[:, 0])))
    fixed = (e >= -4) & (e < 17)
    kept = np.where(fixed & (e >= 0), np.maximum(kept, e + 1), kept)  # the integer part stays whole

    out = np.zeros((m, _FIELD), np.uint8)
    out[:, 0] = (x < 0.0) * np.uint8(ord("-"))
    out[:, 1:6] = lead.take((1 - e) * (fixed & (e < 0)), axis=0)
    digits *= keep.take(kept, axis=0)
    out[:, 6] = digits[:, 0]
    out[:, 8:24] = digits[:, 1:]
    point = np.where(fixed, e, 0)  # the point follows digit e, or the first digit
    fraction = (kept > point + 1) & (point >= 0)
    out[:, 7] = (fraction & (point == 0)) * np.uint8(ord("."))
    at = np.flatnonzero(fraction & (point > 0))  # digits 1..e move left into the point's slot
    if at.size:
        body = np.concatenate([digits[at], np.full((at.size, 1), ord("."), np.uint8)], axis=1)
        out[at, 6:24] = np.take_along_axis(body, shift.take(point[at], axis=0), axis=1)
    at = np.flatnonzero(~fixed)
    out[at, 24:] = expo.take(e[at] - _K_MIN, axis=0)
    at = np.flatnonzero(~ok)
    if at.size:
        text = np.array(["%.17g" % v for v in x[at].tolist()], dtype="S24")
        out[at] = 0
        out[at, :24] = text.view(np.uint8).reshape(-1, 24)
    return out.reshape(np.shape(values) + (_FIELD,))


def _write_rows(out, line: str, *columns: np.ndarray, missing: str | None = None) -> None:
    """Write line per element of the columns' broadcast shape, its j-th '{}' the '%.17g' of column j.

    The shape is (m,) or (m, k).  At most _CHUNK_ROWS rows are held at a
    time, whatever k is: whole runs of k rows while one fits, else pieces of
    a run.  A column repeated along an axis (shape (m, 1) or (1, k)) is
    formatted once per chunk, not once per row.  Where missing is given, a
    NaN field is written as that text instead.
    """
    pieces = line.split("{}")
    template = np.frombuffer(("\0" * _FIELD).join(pieces).encode("ascii"), np.uint8)
    starts = np.cumsum([len(piece) for piece in pieces[:-1]]) + _FIELD * np.arange(len(columns))
    blank = np.frombuffer((missing or "").encode("ascii").ljust(_FIELD, b"\0"), np.uint8)
    columns = [c[:, None] if c.ndim == 1 else c for c in columns]
    m, k = np.broadcast_shapes(*(c.shape for c in columns))
    step, span = max(1, _CHUNK_ROWS // k), min(k, _CHUNK_ROWS)
    for i, p in itertools.product(range(0, m, step), range(0, k, span)):
        block, at = (min(step, m - i), min(span, k - p)), (slice(i, i + step), slice(p, p + span))
        rows = np.tile(template, (math.prod(block), 1))
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
    rates[fit] = _log(np.abs(d0[fit]) / np.abs(d1[fit])) / span
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


_SKIPPED = re.compile(r"\s*(#|$)").match  # a comment or blank line, skipped whole


def _data_lines(fh, header: str, meta: dict[str, str]) -> Iterator[str]:
    """The lines after the header line, read lazily; the '# key = value' lines before it go into meta.

    The first of a key wins.  A table without the header line starts at its first data row.
    """
    line = ""
    for line in fh:
        if not _SKIPPED(line):
            break
        key, eq, value = line.strip()[1:].partition("=")
        if eq:
            meta.setdefault(key.strip(), value.strip())
    rows = fh if line.strip() == header else itertools.chain([line], fh)
    return (row for row in rows if not _SKIPPED(row))


def _read_table(path: str, header: str, what: str) -> tuple[dict, np.ndarray]:
    """'# key = value' metadata and the rows of a CSV table, parsed by one np.loadtxt as the file is read."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    meta: dict[str, str] = {}
    with fh:
        lines = _data_lines(fh, header, meta)
        first = next(lines, None)
        if first is None:  # loadtxt would warn on an empty table
            raise ConfigError(f"{path}: no data rows")
        try:
            rows = np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None, ndmin=2)
            if rows.shape[1] != header.count(",") + 1:
                raise ValueError(f"rows of {rows.shape[1]} fields")
            return meta, rows
        except ValueError as exc:
            fh.seek(0)  # a second read names the first bad row
            for line in map(str.strip, _data_lines(fh, header, {})):
                if line.count(",") != header.count(","):
                    raise ConfigError(f"{path}: expected '{header}' rows, got {line!r}") from exc
                try:
                    np.loadtxt([line], delimiter=",", comments=None)
                except ValueError:
                    raise ConfigError(f"{path}: malformed row {line!r}") from exc
            raise ConfigError(f"{path}: {exc}") from exc


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
