"""Independent verification routes for the closed-form magnetic kernel.

Three oracles, none of which share code with the closed forms they check:

* ``time_sliced_propagator``: the finite-dimensional phase-space integral
  over broken paths (midpoint rule in the Hamiltonian), evaluated exactly as
  a regularized Gaussian integral and Richardson-extrapolated in the
  regularization parameter.
* ``pde_residual``: finite-difference residual of the magnetic Schroedinger
  equation applied to a candidate kernel.
* ``short_time_check``: defect of the delta-family property, i.e. how far
  the exact integral of the candidate kernel against a Gaussian bump,
  extrapolated to t -> 0+, lands from the bump's value at the origin.

``adjudicate`` runs all three against every kernel variant and demands a
unique survivor, with the sliced integral Richardson-extrapolated in the
slice count N; the package-level ADJUDICATED_VARIANT constant records its
verdict, and the test suite asserts the two agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import AdjudicationError, ConvergenceError, ValidationError, check_memory
from .magnetic import (
    ADJUDICATED_VARIANT,
    CAUSTIC_TOL,
    VARIANTS,
    CPQuery,
    KernelVariant,
    kernel_value,
)

__all__ = [
    "KernelVariant", "VARIANTS", "ADJUDICATED_VARIANT", "OracleReport",
    "time_sliced_propagator", "pde_residual", "short_time_check", "adjudicate",
]

# Tournament thresholds. The winner must show second-order PDE convergence,
# a residual already small at the coarse step, a vanishing short-time
# defect, and agreement with the sliced integral; measured margins for the
# true kernel are 2-4 orders below each bound.
_PDE_ORDER_MIN = 1.8
_PDE_RESID_MAX = 1e-3
_SHORT_TIME_MAX = 0.05
_SLICING_REL_MAX = 1e-2

_SHORT_TIME_TS = tuple(1e-2 * 2.0**-j for j in range(5))
# Lagrange weights of the interpolating polynomial through _SHORT_TIME_TS,
# evaluated at t = 0
_SHORT_TIME_WEIGHTS = tuple(
    math.prod(tj / (tj - ti) for tj in _SHORT_TIME_TS if tj != ti) for ti in _SHORT_TIME_TS
)

_SERIES_CUT = 1e-4  # below this |kt| the trig ratios take their Taylor forms
# Regularization levels per sweep of the channel recurrence, which runs
# them side by side. One sweep of 8 is enough up to N = 1024 at kt < pi/2.
_LEVEL_BATCH = 8
# The extrapolation stops when two successive heads agree to this relative
# tolerance, and fails after this many levels.
_STAGNATION_TOL = 1e-12
_MAX_LEVELS = 40
# Working set per slice of one sweep: rho_j and its log1p at every level.
_SLICE_BYTES = _LEVEL_BATCH * 2 * 16


def _k_over_sin(k: float, t: float) -> float:
    """k / sin(kt), continued through k = 0 as 1/t."""
    x = k * t
    if abs(x) < _SERIES_CUT:
        return (1.0 + x * x / 6.0 + 7.0 * x**4 / 360.0) / t
    return k / math.sin(x)


def _k_over_tan(k: float, t: float) -> float:
    """k / tan(kt), continued through k = 0 as 1/t."""
    x = k * t
    if abs(x) < _SERIES_CUT:
        return (1.0 - x * x / 3.0 - x**4 / 45.0) / t
    return k / math.tan(x)


def _richardson(vals: list) -> list:
    """Richardson columns over values whose step halves from one to the next:
    column m removes the step^m error term; the last column is the extrapolant."""
    table = [list(vals)]
    for m in range(1, len(vals)):
        fac, prev = 2.0**m, table[-1]
        table.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)])
    return table


def _channel_rhos(dt: float, k: float, count: int, eps: np.ndarray) -> np.ndarray:
    """rho_j = tau_j - 1, j = 1..count, of one rotation channel, shape
    (count, levels), one column per level in eps.

    tau_1 = A and tau_j = A - B / tau_{j-1}, carried as rho_j = (A - 2) +
    (rho_{j-1} - (B - 1)) / (1 + rho_{j-1}) with A - 2 and B - 1 in closed
    form; A = 2 + eps^2 + i eps dt (1 + k^2/2) and B = (1 - i eps dt k^2/4)^2
    + (k dt)^2 (see ``time_sliced_propagator``).
    """
    a2 = eps * eps + 1j * (eps * dt * (1.0 + 0.5 * k * k))
    g = eps * dt * k * k / 4.0
    b1 = (k * dt) * (k * dt) - g * g - 2j * g
    rho = np.empty((count, len(eps)), dtype=complex)
    r = rho[0] = 1.0 + a2
    for j in range(1, count):
        r = rho[j] = a2 + (r - b1) / (1.0 + r)
    return rho


def _sliced_exponent(t: float, k: float, yy: float, slices: int, eps: np.ndarray):
    """log det A and b^T A^-1 b at each level in eps, for |y|^2 = yy (see
    ``time_sliced_propagator``)."""
    dt = t / slices
    h, g = dt * k / 2.0, dt * k * k / 4.0
    d = eps + 1j * dt  # every momentum pivot
    rho = _channel_rhos(dt, k, slices - 1, eps)
    # the logs are O(1/j); summed exactly, their rounding noise stays far
    # below the stagnation test
    logs = np.log1p(rho).T
    sums = np.array([complex(math.fsum(lv.real), math.fsum(lv.imag)) for lv in logs])
    r = rho[-1]
    quad = yy * ((1.0 + h * h) * (r - h * h) / d + 2j * g * (1.0 - h * h) + g * g * d) / (1.0 + r)
    return 2.0 * (np.log(d) + sums), quad


def _check_slicing(slices, eps0: float):
    if not isinstance(slices, (int, np.integer)) or slices < 2:
        raise ValidationError(f"slices must be an integer >= 2, got {slices!r}")
    check_memory(f"{slices} slices of the sliced oracle", slices * _SLICE_BYTES)
    if not (np.isfinite(eps0) and eps0 > 0):
        raise ValidationError(f"eps0 must be positive, got {eps0}")


def time_sliced_propagator(q: CPQuery, slices: int, eps0: float = 1e-4) -> complex:
    """Broken-path phase-space integral with N = ``slices`` time steps.

    The integration variables are z = (p_1, x_1, ..., p_{N-1}, x_{N-1},
    p_N), each a point in the plane, with x_0 = 0 and x_N = y held fixed.
    With dt = t/N and J the quarter turn, the midpoint-rule action is
    z^T Shat z + b^T z + c0 =

      sum_j [ p_j.(x_j - x_{j-1}) - dt/2 |p_j|^2
              + dt k/2 (x_{j-1}+x_j)^T J p_j - dt k^2/8 |x_{j-1}+x_j|^2 ],

    and Q = Shat + Shat^T. The oscillatory Gaussian over z is regularized
    by a damping parameter eps > 0: the integral is (2 pi)^-1 det(A)^(-1/2)
    exp(-b^T A^-1 b / 2 + i c0) with A = eps I - i Q, absolutely convergent
    because the Hermitian part of A is eps I. The eps -> 0+ limit is taken
    by Richardson extrapolation over eps_j = eps0 2^{-j} until the
    extrapolant stagnates below ``_STAGNATION_TOL`` (within ``_MAX_LEVELS``
    levels); several levels share one sweep of the recurrence below.

    Rotation channels. Every 2x2 plane block of A has the form a I + b J,
    and on each slot the unitary similarity with columns (1, +-i)/sqrt(2)
    turns it into a +- i b. A splits exactly into two scalar channels; the
    minus channel is the transpose of the plus channel and its linear terms
    are those of the plus channel swapped, so the two share their
    determinant and their quadratic term. In one channel every momentum
    couples only to the neighbouring positions. Eliminating p_{j+1} before
    x_j, each momentum pivot is d = eps + i dt, and tau_j = d sigma_j, with
    sigma_j the pivot of x_j, obeys the three-term (Gel'fand-Yaglom)
    recurrence

      tau_1 = A,  tau_j = A - B / tau_{j-1},
      A = 2 + eps^2 + i eps dt (1 + k^2/2),  B = (1 - i eps dt k^2/4)^2 + (k dt)^2,

    so that log det A = 2 [log d + sum_{j<N} log tau_j]. b lives only on
    the last block (p_N, x_{N-1}), so b^T A^-1 b needs only that block's
    2x2 Schur complement: with h = k dt/2 and g = k^2 dt/4,

      b^T A^-1 b = |y|^2 [(1 + h^2)(tau_{N-1} - 1 - h^2)/d + 2 i g (1 - h^2) + g^2 d] / tau_{N-1}.

    The recurrence carries rho_j = tau_j - 1, with A - 2 and B - 1 in
    closed form, and the logs are log1p(rho_j) (``_channel_rhos``). A and B
    differ from 2 and 1 by terms of size eps dt and (k dt)^2; formed as
    floats they lose those digits, a perturbation the recurrence carries
    over all N slices. Carried that way the values moved by up to 4e-12 at
    N = 256 and 3e-10 at N = 1024, and the extrapolation needed up to 14
    more levels to stagnate; in the rho form they stay within 1e-12 of a
    4x4 block elimination. O(N) time and memory per level, with no matrix
    and no linear solve.

    Branch of det^(-1/2): each channel is a principal part of a unitary
    similarity of A, so its Hermitian part is eps I, every Schur complement
    keeps Hermitian part at least eps I, and every pivot (d and each
    sigma_j) has positive real part. tau_j pairs the momentum pivot with
    the position pivot after it, and a product of two numbers in the right
    half plane has the sum of their principal logs as its principal log.
    Along A(s) = eps I - i s Q, s from 0 to 1, the pivots and the
    eigenvalues eps - i s d_m of A all stay in the right half plane, so the
    sum of the principal logs of the pivots and that of the eigenvalues
    both move continuously, differ by a multiple of 2 pi i, and agree at
    s = 0: the branches are the same. Momentum first also keeps the
    position pivots, as eps -> 0, at those of the configuration-space form,
    which vanish only at discrete conjugate points. (In plain slot order
    the first position pivot tends to zero when k t / N = 2, and the
    extrapolation then does not settle.)

    The query must be planar (y3 unset); the third axis is exactly free and
    carries no information about the variant choice. A slice count over the
    working-set budget (about 256 bytes per slice) is refused before any
    allocation.
    """
    _check_slicing(slices, eps0)
    q.validate()
    if q.y3 is not None:
        raise ValidationError("the sliced oracle is planar; leave y3 unset")

    yy = q.y1 * q.y1 + q.y2 * q.y2
    c0 = -(q.t / slices * q.k * q.k / 8.0) * yy

    def values_at(eps: np.ndarray) -> list:
        logdet, quad = _sliced_exponent(q.t, q.k, yy, slices, eps)
        return (np.exp(-0.5 * logdet - 0.5 * quad + 1j * c0) / (2.0 * np.pi)).tolist()

    vals: list = []
    prev_head: Optional[complex] = None
    for level in range(_MAX_LEVELS):
        if level == len(vals):
            batch = np.arange(level, min(level + _LEVEL_BATCH, _MAX_LEVELS))
            vals.extend(values_at(eps0 * 2.0 ** (-batch)))
        head = _richardson(vals[: level + 1])[-1][0]
        tol = _STAGNATION_TOL * max(1.0, abs(head))
        if prev_head is not None and abs(head - prev_head) <= tol:
            return head
        prev_head = head
    raise ConvergenceError(
        f"regularization extrapolation did not stagnate below {_STAGNATION_TOL:.0e} within "
        f"{_MAX_LEVELS} levels (t={q.t}, k={q.k}, slices={slices})"
    )


def pde_residual(
    variant: KernelVariant,
    t: float,
    k: float,
    y1: float,
    y2: float,
    h_t: float = 1e-3,
    h_y: float = 1e-3,
) -> float:
    """Max pointwise relative residual of i dG/dt = H G over a 5x5 patch.

    H G = -1/2 Laplacian(G) + i k (-y2 d1 + y1 d2) G + 1/2 k^2 |y|^2 G,
    central differences of step (h_t, h_y). The correct kernel shows O(h^2)
    residuals; a wrong phase sign or prefactor leaves an O(1) defect.
    """
    if not (np.isfinite(h_t) and h_t > 0 and np.isfinite(h_y) and h_y > 0):
        raise ValidationError("steps h_t, h_y must be positive")
    if t - h_t <= 0:
        raise ValidationError(f"time stencil leaves the domain: t - h_t = {t - h_t}")
    for tt in (t - h_t, t, t + h_t):
        if k != 0 and abs(math.cos(k * tt)) < CAUSTIC_TOL:
            raise ValidationError(
                f"time stencil meets a caustic at t = {tt} (|cos(kt)| < {CAUSTIC_TOL:.0e})"
            )

    off = np.arange(-2, 3, dtype=float) * h_y
    a = y1 + off[:, None] + np.zeros((1, 5))
    b = y2 + np.zeros((5, 1)) + off[None, :]

    def g(tt, aa, bb):
        return kernel_value(variant, tt, k, aa, bb)

    g0 = g(t, a, b)
    dg_t = (g(t + h_t, a, b) - g(t - h_t, a, b)) / (2.0 * h_t)
    g1p, g1m, g2p, g2m = g(t, a + h_y, b), g(t, a - h_y, b), g(t, a, b + h_y), g(t, a, b - h_y)
    lap = (g1p + g1m + g2p + g2m - 4.0 * g0) / (h_y * h_y)
    d1 = (g1p - g1m) / (2.0 * h_y)
    d2 = (g2p - g2m) / (2.0 * h_y)
    hg = -0.5 * lap + 1j * k * (-b * d1 + a * d2) + 0.5 * k * k * (a * a + b * b) * g0
    lhs = 1j * dg_t
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(hg)), 1e-300)
    return float((np.abs(lhs - hg) / scale).max())


def _short_time_integral(variant: KernelVariant, k: float, t: float, sigma: float,
                         amplitude: float) -> complex:
    """The candidate kernel, pref exp(i alpha |y|^2), integrated over the plane
    against amplitude exp(-beta |y|^2): with u = |y|^2 the angular integral
    gives pi du, and exp((i alpha - beta) u) over [0, inf) gives 1 / (beta -
    i alpha)."""
    pref = _k_over_sin(k, t) / (2j * np.pi)
    if variant.prefactor_form == "kt_over":
        pref = pref * t
    alpha = (0.5 if variant.phase_sign == "plus" else -0.5) * _k_over_tan(k, t)
    beta = 1.0 / (2.0 * sigma * sigma)
    return complex(pref * np.pi * amplitude / (beta - 1j * alpha))


def _short_time_limit(variant: KernelVariant, k: float, sigma: float,
                      amplitude: float) -> complex:
    """The t = 0 value of the degree-4 polynomial through the exact
    integrals at _SHORT_TIME_TS."""
    return sum(w * _short_time_integral(variant, k, t, sigma, amplitude)
               for w, t in zip(_SHORT_TIME_WEIGHTS, _SHORT_TIME_TS))


def short_time_check(
    variant: KernelVariant, k: float, sigma: float = 0.35, amplitude: float = 1.0
) -> float:
    """Defect of the t -> 0+ delta property against a Gaussian bump.

    Integrates the candidate kernel against phi(y) = amplitude *
    exp(-|y|^2 / (2 sigma^2)) exactly (``_short_time_integral``) at the five
    times t = 1e-2 2^-j, j = 0..4, and extrapolates to t = 0 with the
    degree-4 polynomial through them, whose value at 0 is a fixed weighted
    sum of the five (Lagrange weights); the integral is analytic in t. Returns
    |limit - phi(0)|. The true kernel reproduces phi(0); a wrong prefactor
    or phase sign leaves an O(1) defect. phi identically zero gives 0.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if not np.isfinite(amplitude):
        raise ValidationError("amplitude must be finite")
    if not np.isfinite(k):
        raise ValidationError(f"k must be finite, got {k}")
    for tt in _SHORT_TIME_TS:
        if k != 0 and abs(math.cos(k * tt)) < CAUSTIC_TOL:
            raise ValidationError(
                f"short-time probe at t = {tt} meets a caustic; |k| = {abs(k)} is too large"
            )

    return abs(_short_time_limit(variant, k, sigma, amplitude) - amplitude)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of the adjudication tournament at one probe query.

    ``n_table`` holds the Richardson columns in N over the sliced values at
    ``slice_counts``; ``extrapolated_value``, its last entry, is what the
    slicing gate compares each variant with.
    """

    query: CPQuery
    slicing_value: complex
    convergence: Tuple[Tuple[int, float], ...]
    slice_counts: Tuple[int, ...]
    n_table: Tuple[Tuple[complex, ...], ...]
    extrapolated_value: complex
    pde_residuals: Dict[str, Tuple[float, float, float]]
    short_time_defect: Dict[str, float]
    selected: KernelVariant
    confidence_notes: Tuple[str, ...]


def adjudicate(
    t: float = 0.7,
    k: float = 1.0,
    y1: float = 0.2,
    y2: float = 0.1,
    slices: int = 256,
    eps0: float = 1e-4,
) -> OracleReport:
    """Select the kernel variant all three oracles agree on.

    Deterministic: fixed probe query, fixed steps, no sampling. Raises
    AdjudicationError (with the full score table in the message) unless
    exactly one variant passes every test. The slicing gate uses the sliced
    integral at N = slices/4, slices/2, slices extrapolated in N (raw at a
    count 4 does not divide, or below 8). At k = 0 the variants are not all
    distinguishable at a single probe (the prefactors coincide at t = 1 and
    the phase signs coincide at y = 0), so the verdict is taken by
    continuity from k != 0 and flagged in the notes.
    """
    query = CPQuery(t=t, k=k, y1=y1, y2=y2).validate()
    _check_slicing(slices, eps0)
    if k == 0:
        value = complex(kernel_value(ADJUDICATED_VARIANT, t, k, y1, y2))
        note = ("k = 0 is degenerate for adjudication: prefactor variants coincide up to the "
                "factor t and phase signs coincide at y = 0; selected by continuity from k != 0")
        # every table and score empty
        return OracleReport(query, value, (), (), (), value, {}, {}, ADJUDICATED_VARIANT, (note,))

    counts = (slices // 4, slices // 2, slices) if slices % 4 == 0 and slices >= 8 else (slices,)
    sliced = {nsl: time_sliced_propagator(query, nsl, eps0=eps0)
              for nsl in sorted({*counts, 64, 128, 256}, reverse=True)}
    n_table = _richardson([sliced[nsl] for nsl in counts])
    extrapolated = n_table[-1][0]
    ref = complex(kernel_value(ADJUDICATED_VARIANT, t, k, y1, y2))
    convergence = [(nsl, abs(sliced[nsl] - ref) / abs(ref)) for nsl in (64, 128, 256)]

    pde_scores: Dict[str, Tuple[float, float, float]] = {}
    st_scores: Dict[str, float] = {}
    sl_scores: Dict[str, float] = {}
    passing = []
    for variant in VARIANTS:
        r_h = pde_residual(variant, t, k, y1, y2, 1e-3, 1e-3)
        r_h2 = pde_residual(variant, t, k, y1, y2, 5e-4, 5e-4)
        # floored on both sides: a residual of exactly zero (as where the
        # kernel underflows) measures no order and fails the gate, not log2
        order = math.log2(max(r_h, 1e-300) / max(r_h2, 1e-300))
        pde_scores[variant.label()] = (r_h, r_h2, order)
        defect = short_time_check(variant, k)
        st_scores[variant.label()] = defect
        closed = complex(kernel_value(variant, t, k, y1, y2))
        slicing_rel = sl_scores[variant.label()] = abs(extrapolated - closed) / abs(closed)
        if (order >= _PDE_ORDER_MIN and r_h2 < _PDE_RESID_MAX
                and defect <= _SHORT_TIME_MAX and slicing_rel <= _SLICING_REL_MAX):
            passing.append(variant)

    if len(passing) != 1:
        scores = "; ".join(
            f"{lab}: pde=({v[0]:.2e}, {v[1]:.2e}, order {v[2]:.2f}), "
            f"short-time={st_scores[lab]:.2e}, slicing={sl_scores[lab]:.2e}"
            for lab, v in pde_scores.items())
        raise AdjudicationError(f"expected exactly one surviving variant, got "
                                f"{[v.label() for v in passing]}; scores: {scores}")

    notes = (
        "pde orders: " + ", ".join(f"{lab} {v[2]:.2f}" for lab, v in pde_scores.items()),
        "short-time defects: " + ", ".join(f"{lab} {d:.2e}" for lab, d in st_scores.items()),
        f"sliced integral within {convergence[-1][1]:.2e} of the winner at 256 slices, "
        f"{abs(extrapolated - ref) / abs(ref):.2e} extrapolated from N = {counts}",
    )
    return OracleReport(
        query=query,
        slicing_value=sliced[slices],
        convergence=tuple(convergence),
        slice_counts=counts,
        n_table=tuple(tuple(col) for col in n_table),
        extrapolated_value=extrapolated,
        pde_residuals=pde_scores,
        short_time_defect=st_scores,
        selected=passing[0],
        confidence_notes=notes,
    )
