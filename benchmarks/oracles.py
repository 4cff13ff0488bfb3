"""The benchmark's own judges of deformflow's output.

Nothing here imports the package or numpy: the closed forms, the
quadratures and the CSV reader are written from the model's definitions,
so agreement with the program's output means something.
"""

from __future__ import annotations

import math

# Tolerances of the acceptance tests in tests/test_acceptance.py.
FLOW_REL_TOL = 1e-8
ENERGY_ABS_TOL = 1e-10
ELLIPTIC_ABS_TOL = 1e-10
DIRICHLET_REL_TOL = 1e-8
AUDIT_PASS_RTOL = 1e-9

# C(beta) = pi (1 - beta^2) equals 1 at the critical ratio.
BETA_C = math.sqrt(1.0 - 1.0 / math.pi)


def linear_flow(beta: float, tau: float, c0: float, alpha: float, K: float) -> float:
    """target + (C0 - target) exp(-alpha beta^2 tau), with c = 1."""
    target = math.pi if beta <= BETA_C else math.pi + K / (beta * beta)
    return target + (c0 - target) * math.exp(-alpha * beta * beta * tau)


def conformal_flow(tau: float, c0: float, k: float = 1.0) -> float:
    """sqrt(C0^2 - 4 k tau), the solution of dC/dtau = -2 k / C."""
    return math.sqrt(c0 * c0 - 4.0 * k * tau)


def second_order_flow(beta: float, tau: float, c0: float, alpha: float) -> float:
    """pi + (C0 - pi) cos(beta sqrt(alpha) tau), started at rest."""
    return math.pi + (c0 - math.pi) * math.cos(beta * math.sqrt(alpha) * tau)


def flow_reference(regime: str, beta: float, tau: float, c0: float, alpha: float, K: float) -> float:
    if regime in ("subcritical-linear", "supercritical-linear"):
        return linear_flow(beta, tau, c0, alpha, K)
    if regime == "conformal-nonlinear":
        return conformal_flow(tau, c0)
    if regime == "second-order":
        return second_order_flow(beta, tau, c0, alpha)
    raise ValueError(f"no closed form for regime {regime!r}")


def simpson(ys: list[float], h: float) -> float:
    """Composite Simpson rule on an odd number of equally spaced samples."""
    n = len(ys)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson needs an odd sample count >= 3, got {n}")
    odd = sum(ys[1:-1:2])
    even = sum(ys[2:-1:2])
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * odd + 2.0 * even)


def l2_energy(betas: list[float], profile: list[float], c: float = 1.0) -> float:
    """2 c * integral over [0, beta_c] of (C - pi)^2, by Simpson on the samples."""
    h = (betas[-1] - betas[0]) / (len(betas) - 1)
    return 2.0 * c * simpson([(v - math.pi) ** 2 for v in profile], h)


def elliptic_e(k: float, tol: float = 1e-13) -> float:
    """E(k) = integral over [0, pi/2] of sqrt(1 - k^2 sin^2 t), adaptive Simpson."""
    ksq = k * k

    def f(t: float) -> float:
        s = math.sin(t)
        return math.sqrt(max(0.0, 1.0 - ksq * s * s))

    def panel(a: float, fa: float, b: float, fb: float) -> tuple[float, float, float]:
        m = 0.5 * (a + b)
        fm = f(m)
        return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    total = 0.0
    fa, fb = f(0.0), f(0.5 * math.pi)
    m, fm, whole = panel(0.0, fa, 0.5 * math.pi, fb)
    stack = [(0.0, fa, m, fm, 0.5 * math.pi, fb, whole, tol, 0)]
    while stack:
        a, fa, m, fm, b, fb, whole, eps, depth = stack.pop()
        lm, flm, left = panel(a, fa, m, fm)
        rm, frm, right = panel(m, fm, b, fb)
        delta = left + right - whole
        if depth >= 40 or abs(delta) <= 15.0 * eps:
            total += left + right + delta / 15.0
        else:
            stack.append((a, fa, lm, flm, m, fm, left, 0.5 * eps, depth + 1))
            stack.append((m, fm, rm, frm, b, fb, right, 0.5 * eps, depth + 1))
    return total


def dirichlet_quadratic(peak: float, c: float) -> float:
    """(1/2) integral over [-c, c] of (dC/dv)^2 for C = peak (1 - v^2 / c^2)."""
    return 4.0 * peak * peak / (3.0 * c)


def l2_energy_linear(slope: float) -> float:
    """L2 energy of C = pi + slope * beta on [0, beta_c], c = 1."""
    return 2.0 * slope * slope * BETA_C**3 / 3.0


def l2_rate_linear(slope: float, alpha: float) -> float:
    """Dissipation -4 alpha integral of beta^2 (slope beta)^2 on [0, beta_c], c = 1."""
    return -4.0 * alpha * slope * slope * BETA_C**5 / 5.0


# Quoted audit rows whose computed value has a closed form: R V, R^2 V and
# R^2 V / 3 of the unit 3-sphere (R = 6, V = 2 pi^2), and the critical ratio.
AUDIT_CLOSED_FORMS = {
    "critical_speed_ratio": BETA_C,
    "perimeter_rest_defining_modulus": math.pi,
    "unit_sphere_i1": 12.0 * math.pi**2,
    "unit_sphere_i2": 72.0 * math.pi**2,
    "unit_sphere_i3": 24.0 * math.pi**2,
}


def read_csv(path: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """'# key = value' metadata (first occurrence wins), header fields, data rows."""
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    meta.setdefault(key.strip(), value.strip())
            elif not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows
