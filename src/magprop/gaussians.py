"""Gaussian functional calculus on grid-sampled test functions.

This module evaluates the closed formulas for transforms of Gaussian-type
functionals: plain Gauss kernels, normalized exponentials and their products,
endpoint pinnings (delta factors), and the combined pinned Gauss kernel. All
of them are finite-dimensional stand-ins computed against the bilinear
pairing of :mod:`magprop.grid` (no conjugation anywhere).

Square roots of determinants are taken per eigenvalue with the principal
branch. For every operator family handled here that choice coincides with
continuous tracking from the zero operator, because the relevant factors
never cross the negative real axis; ``branch_note`` on the returned value
records the convention, and the test suite verifies continuity along sampled
parameter paths.

The quadratic-form identity behind the pinning sign: for a single pin with
N = Id the formula's exponent +u^2/(2<eta,eta>) with u = iy + <eta, f>
equals -(i<eta,f> - y)^2/(2<eta,eta>) exactly, which is the delta-factor
exponent. The + sign is therefore forced by the reduction identity (and is
asserted numerically in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CausticError,
    DegeneratePinningError,
    MagpropError,
    NumericalError,
    SingularOperatorError,
    ValidationError,
)
from .grid import BlockOperator, GridFunction, GridSpec, OperatorMatrix, _block_groups, pair

__all__ = [
    "TTValue",
    "UFuncReport",
    "PinnedGaussSpec",
    "tt_gauss_kernel",
    "mc_gauss_expectation",
    "tt_nexp_product",
    "tt_linear_shift",
    "tt_donsker",
    "tt_pinned_gauss",
    "ufunc_probe",
]

_SYM_TOL = 1e-10
_DET_VANISH_TOL = 1e-12
_M_EIG_TOL = 1e-12


@dataclass(frozen=True)
class TTValue:
    """Transform value together with the determinant pieces it used.

    det_NK is det(Id + L(Id+K)^-1) whenever a product-formula determinant was
    involved (for the plain Gauss kernel it holds det(Id+K), the L:=K
    reading). det_M is the determinant of the pinning matrix, None when no
    pins were present. branch_note records the square-root convention.
    """

    value: complex
    det_NK: complex = 1.0 + 0j
    det_M: Optional[complex] = None
    branch_note: str = ""


@dataclass(frozen=True)
class UFuncReport:
    """Fitted growth-bound constants and analyticity diagnostics."""

    fitted_C: float
    fitted_D: float
    max_violation: float
    analyticity_residual: float


@dataclass(frozen=True)
class PinnedGaussSpec:
    """Data for the pinned Gauss-kernel formula.

    K, L may be None (zero operator). g is an optional shift (same grid and
    component count as the argument). pins is a sequence of (eta, y) with eta
    a GridFunction and y a real pinning value; pins must be pairwise
    orthogonal under the bilinear pairing and non-zero.
    """

    K: object = None
    L: object = None
    g: Optional[GridFunction] = None
    pins: Sequence = ()


def _as_value(x) -> complex:
    return complex(x.value) if isinstance(x, TTValue) else complex(x)


def _blocks(op, grid: GridSpec, d: int) -> BlockOperator:
    """op as a BlockOperator over d block rows and columns: a BlockOperator
    as it is (d = 4), an OperatorMatrix as the single block (0, 0) (d = 1).
    A zero operator, None included, has no blocks."""
    if op is None:
        return BlockOperator(grid, {})
    if isinstance(op, OperatorMatrix):
        if d != 1:
            raise ValidationError("one-component operator applied to a 4-component function")
        if op.grid != grid:
            raise ValidationError("operator grid does not match the function grid")
        app = op.application
        return BlockOperator(grid, {(0, 0): app} if np.any(app) else {})
    if isinstance(op, BlockOperator):
        if d != 4:
            raise ValidationError("block operator applied to a 1-component function")
        if op.grid != grid:
            raise ValidationError("operator grid does not match the function grid")
        return op
    raise ValidationError(f"unsupported operator type {type(op).__name__}")


def _application(op, grid: GridSpec, d: int) -> Optional[np.ndarray]:
    """Dense (d n) x (d n) application matrix for op, or None when zero."""
    blocks = _blocks(op, grid, d)
    return blocks.superblock(range(d), range(d)) if blocks.blocks else None


def _group_spectrum(a: BlockOperator, b: BlockOperator, groups: list) -> np.ndarray:
    """All d n eigenvalues of A^-1 B, with multiplicity.

    A and B are block upper triangular in the group order, so the spectrum
    is the union over groups g of the spectra of A_gg^-1 B_gg. A block
    column of g where B_gg has no block is a zero column of A_gg^-1 B_gg and
    adds n exact zero eigenvalues; with S the other columns, the rest is the
    spectrum of the S rows of A_gg^-1 B_gS.
    """
    n = b.grid.n
    parts = []
    for g in groups:
        s = [j for j in g if any((i, j) in b.blocks for i in g)]
        if not s:
            continue
        try:
            cols = np.linalg.solve(a.superblock(g, g), b.superblock(g, s))
        except np.linalg.LinAlgError as exc:
            raise SingularOperatorError("Id+K is singular at this grid") from exc
        rows = np.concatenate([np.arange(n) + n * g.index(j) for j in s])
        parts.append(np.linalg.eigvals(cols[rows]))
    dim = n * sum(len(g) for g in groups)
    mu = np.concatenate(parts) if parts else np.empty(0, dtype=complex)
    return np.concatenate([mu, np.zeros(dim - mu.size)])


def _group_solve(nmat: BlockOperator, groups: list, rhs: np.ndarray) -> np.ndarray:
    """N^-1 rhs for rhs of shape (d n, m), N block upper triangular in the
    group order: back-substitution over the groups, one dense solve with
    each diagonal group block. LinAlgError when one of them is singular."""
    n, m = nmat.grid.n, rhs.shape[1]
    b = rhs.reshape(-1, n, m)
    x = np.zeros(b.shape, dtype=complex)
    solved = []
    for g in reversed(groups):
        r = b[g].astype(complex)
        for a, i in enumerate(g):
            for j in solved:
                blk = nmat.blocks.get((i, j))
                if blk is not None:
                    r[a] -= blk * x[j] if np.isscalar(blk) else blk @ x[j]
        x[g] = np.linalg.solve(nmat.superblock(g, g), r.reshape(-1, m)).reshape(r.shape)
        solved.extend(g)
    return x.reshape(rhs.shape)


def _check_symmetric(app: np.ndarray, what: str):
    scale = 1.0 + np.abs(app).max()
    if np.abs(app - app.T).max() > _SYM_TOL * scale:
        raise ValidationError(f"{what} must be symmetric under the bilinear pairing")


def _half_log_product(factors: np.ndarray) -> complex:
    """-1/2 * sum of principal logs; exp of this is the product of principal
    inverse square roots, one factor per eigenvalue."""
    return complex(-0.5 * np.sum(np.log(factors)))


def _pair_flat(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> complex:
    return complex(grid.weight * np.dot(a, b))


def tt_gauss_kernel(K, f: GridFunction) -> TTValue:
    """Transform of a Gauss kernel: det(Id+K)^(-1/2) exp(-1/2 (f,(Id+K)^-1 f)).

    K must be symmetric under the pairing, and Id+K invertible: a factor
    |1 + mu| <= 1e-12 of det(Id+K) raises SingularOperatorError. This is the
    L-only case of :func:`tt_pinned_gauss`, which evaluates it (principal
    inverse square root per eigenvalue, the solve with its residual check).
    """
    grid, d = f.grid, f.d
    kop = _blocks(K, grid, d)
    note = "per-eigenvalue principal square roots, tracked from K=0"
    if not kop.blocks:
        val = complex(np.exp(-0.5 * pair(f, f)))
        return TTValue(val, det_NK=1.0 + 0j, branch_note=note)
    _check_symmetric(kop.superblock(range(d), range(d)), "Gauss-kernel operator")
    try:
        return tt_pinned_gauss(PinnedGaussSpec(L=K), f)
    except CausticError as exc:
        raise SingularOperatorError("Id+K is singular at this grid") from exc


def mc_gauss_expectation(K, samples: int, seed: int):
    """Monte-Carlo check of E[exp(-<w, K w>)] = det(Id+2K)^(-1/2).

    The expectation is over the standard Gaussian on the span of K's
    eigenmodes; eigenvalues must lie in (-1/2, 0]. Returns (estimate, stderr).
    Identical seeds give bit-identical results.
    """
    if samples < 1000:
        raise ValidationError(f"samples must be >= 1000, got {samples}")
    if K is None:
        return 1.0, 0.0
    grid = K.grid
    d = 4 if isinstance(K, BlockOperator) else 1
    app = _application(K, grid, d)
    if app is None:
        return 1.0, 0.0
    if np.abs(app.imag).max() > _SYM_TOL * (1.0 + np.abs(app).max()):
        raise ValidationError("expectation requires a real symmetric operator")
    _check_symmetric(app, "expectation operator")
    kappa = np.linalg.eigvalsh(app.real)
    kappa = kappa[np.abs(kappa) > 1e-12]
    if kappa.size == 0:
        return 1.0, 0.0
    if kappa.min() <= -0.5 or kappa.max() > 1e-12:
        raise ValidationError(
            f"eigenvalues must lie in (-1/2, 0], got range [{kappa.min():.4g}, {kappa.max():.4g}]"
        )
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((samples, kappa.size))
    values = np.exp(-(draws**2) @ kappa)
    est = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples))
    return est, stderr


def tt_nexp_product(K, L, f: GridFunction) -> TTValue:
    """Product formula det(Id+L(Id+K)^-1)^(-1/2) exp(-1/2 <f,(Id+K+L)^-1 f>).

    With L = 0 this is the normalized exponential (determinant divided out).
    The determinant comes from the spectrum of (Id+K)^-1 L, which has the
    same nonzero spectrum as L(Id+K)^-1. This is the no-pin case of the
    pinned engine :func:`tt_pinned_gauss`, and evaluates through it.
    """
    return tt_pinned_gauss(PinnedGaussSpec(K=K, L=L), f)


def tt_linear_shift(base: Callable, g: GridFunction, c: complex, f: GridFunction) -> complex:
    """Transform of a functional multiplied by exp(i<g, .> + c).

    Exact compositional identity: base evaluated at f+g, times exp(c).
    """
    shifted = f + g
    return _as_value(base(shifted)) * complex(np.exp(complex(c)))


def tt_donsker(eta: GridFunction, y: float, f: GridFunction) -> complex:
    """Transform of the delta pinning <eta, .> = y.

    (2 pi <eta,eta>)^(-1/2) exp(-(i<eta,f> - y)^2 / (2<eta,eta>) - 1/2 <f,f>).
    """
    hh = pair(eta, eta)
    if abs(hh) < 1e-300:
        raise ValidationError("degenerate pinning function: pair(eta, eta) = 0")
    pref = np.exp(-0.5 * np.log(2.0 * np.pi * hh))
    expo = -((1j * pair(eta, f) - y) ** 2) / (2.0 * hh) - 0.5 * pair(f, f)
    return complex(pref * np.exp(expo))


def _validate_pins(pins, grid: GridSpec, d: int):
    etas = []
    for entry in pins:
        eta, y = entry
        if eta.grid != grid or eta.d != d:
            raise ValidationError("pinning functions must share the argument's grid and d")
        etas.append((eta, float(y)))
    norms = [math.sqrt(abs(float(np.sum(np.abs(e.values) ** 2) * grid.weight))) for e, _ in etas]
    for i, (eta_i, _) in enumerate(etas):
        if norms[i] == 0.0:
            raise ValidationError(f"pinning function {i} is identically zero")
        for j in range(i + 1, len(etas)):
            p = abs(pair(eta_i, etas[j][0]))
            if p > 1e-10 * norms[i] * norms[j]:
                raise ValidationError(
                    f"pinning functions {i} and {j} are not orthogonal under the pairing"
                )
    return etas


def tt_pinned_gauss(spec: PinnedGaussSpec, f: GridFunction) -> TTValue:
    """Full pinned Gauss-kernel formula.

    value = prod_j (2 pi mu_j)^(-1/2) * det(Id+L(Id+K)^-1)^(-1/2)
            * exp(-1/2 (F, N^-1 F)) * exp(+1/2 (u, M^-1 u))

    with N = Id+K+L, F = f+g, M the symmetrized pinning matrix
    (eta_i, N^-1 eta_j), mu_j its eigenvalues, and
    u_k = i y_k + 1/2 (eta_k, N^-1 F) + 1/2 (N^-1 eta_k, F). The symmetrized
    u is used because N^-1 need not be symmetric under the pairing.

    The block pattern of Id+K+L orders its strongly connected block groups
    so that Id+K, L and N are block upper triangular. The determinant's
    eigenvalues are then those of the diagonal group blocks of (Id+K)^-1 L,
    and N is solved by back-substitution over the groups; the residual is
    checked against the full dense N.
    """
    grid, d = f.grid, f.d
    F = (f + spec.g) if spec.g is not None else f
    etas = _validate_pins(spec.pins, grid, d)
    J = len(etas)

    kop = _blocks(spec.K, grid, d)
    lop = _blocks(spec.L, grid, d)
    ik = BlockOperator(grid, {(i, i): 1.0 for i in range(d)}) + kop
    nmat = ik + lop
    groups = _block_groups(d, kop, lop)

    note = f"per-eigenvalue principal square roots; continuity anchor t0={grid.t_end / 1000.0:.6g}"

    if not lop.blocks:
        det_nk = 1.0 + 0j
        pref_nk = 1.0 + 0j
    else:
        factors = 1.0 + _group_spectrum(ik, lop, groups)
        if np.abs(factors).min() <= _DET_VANISH_TOL:
            raise CausticError("vanishing determinant det(Id+L(Id+K)^-1)")
        det_nk = complex(np.prod(factors))
        pref_nk = np.exp(_half_log_product(factors))

    rhs = np.empty((d * grid.n, J + 1), dtype=complex)
    rhs[:, 0] = F.flat()
    for j, (eta, _) in enumerate(etas):
        rhs[:, j + 1] = eta.flat()
    try:
        sol = _group_solve(nmat, groups, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError("Id+K+L is singular at this grid") from exc
    resid = np.abs(nmat.superblock(range(d), range(d)) @ sol - rhs).max(axis=0)
    if np.any(resid > 1e-8 * (1.0 + np.abs(rhs).max(axis=0))):
        raise SingularOperatorError("Id+K+L is numerically singular at this grid")
    xF = sol[:, 0]
    gauss = np.exp(-0.5 * _pair_flat(grid, F.flat(), xF))

    if J == 0:
        val = complex(pref_nk * gauss)
        return TTValue(val, det_NK=det_nk, branch_note=note)

    ninv_eta = sol[:, 1:]
    m = np.empty((J, J), dtype=complex)
    for i, (eta_i, _) in enumerate(etas):
        for j in range(J):
            m[i, j] = _pair_flat(grid, eta_i.flat(), ninv_eta[:, j])
    m = 0.5 * (m + m.T)

    scale = max(1.0, float(np.abs(m).max()))
    # Off-diagonal round-off (equal pins give [[ia, ie], [ie, ia]] with
    # e ~ 1e-17 a) can keep LAPACK's eigensolver from converging.
    m[~np.eye(J, dtype=bool) & (np.abs(m) < _M_EIG_TOL * scale)] = 0.0
    re_eigs = np.linalg.eigvalsh(m.real)
    if re_eigs.min() < -_M_EIG_TOL * scale:
        raise DegeneratePinningError(
            f"pinning matrix violates the positivity condition (min Re-eigenvalue {re_eigs.min():.3e})"
        )
    mu = np.linalg.eigvals(m)
    if np.abs(mu).min() <= _M_EIG_TOL * scale:
        raise DegeneratePinningError("pinning matrix is numerically degenerate")
    det_m = complex(np.prod(mu))
    pref_m = np.exp(_half_log_product(2.0 * np.pi * mu))

    u = np.empty(J, dtype=complex)
    for k, (eta_k, y_k) in enumerate(etas):
        u[k] = (
            1j * y_k
            + 0.5 * _pair_flat(grid, eta_k.flat(), xF)
            + 0.5 * _pair_flat(grid, ninv_eta[:, k], F.flat())
        )
    pin = np.exp(0.5 * np.dot(u, np.linalg.solve(m, u)))

    val = complex(pref_m * pref_nk * gauss * pin)
    return TTValue(val, det_NK=det_nk, det_M=det_m, branch_note=note)


def ufunc_probe(tt: Callable, xi: GridFunction, z_samples) -> UFuncReport:
    """Numerical growth-and-analyticity probe of an evaluator z -> tt(z xi).

    Fits the smallest constants in |tt(z xi)| <= C exp(D |z|^2 <xi,xi>) over
    the samples: D is the least-squares slope of per-circle maxima of
    log|tt| against |z|^2 <xi,xi> (clamped at 0), and C is the smallest
    constant covering every sample at that D. max_violation is the largest
    relative exceedance of the fitted bound, exactly 0 when it holds. The
    analyticity residual compares the two difference-quotient derivatives
    (real and imaginary step) at fixed interior points; it vanishes to
    stencil accuracy for evaluators analytic in z.
    """
    a = pair(xi, xi)
    if not (abs(a.imag) <= 1e-12 * abs(a) and a.real > 0):
        raise ValidationError("probe direction must have positive real pair(xi, xi)")
    a = a.real

    zs = np.asarray(list(z_samples), dtype=complex)
    if zs.size < 4:
        raise ValidationError("need at least 4 z samples")

    def evaluate(z: complex) -> complex:
        try:
            return _as_value(tt(xi.scaled(z)))
        except Exception as exc:  # propagate with the offending sample attached
            if isinstance(exc, MagpropError):
                raise type(exc)(f"{exc} (evaluator failed at z={z!r})") from exc
            raise NumericalError(f"evaluator failed at z={z!r}: {exc}") from exc

    vals = np.array([evaluate(z) for z in zs])
    absv = np.abs(vals)
    logv = np.where(absv > 0, np.log(np.where(absv > 0, absv, 1.0)), -745.0)
    r2 = np.abs(zs) ** 2

    radii = np.round(np.sqrt(r2), 12)
    uniq = np.unique(radii[radii > 0])
    if uniq.size < 2:
        raise ValidationError("need samples on at least two distinct nonzero radii")
    circle_max = np.array([logv[radii == r].max() for r in uniq])
    slope = np.polyfit(a * uniq**2, circle_max, 1)[0]
    fitted_d = max(0.0, float(slope))

    shifted = logv - fitted_d * a * r2
    log_c = float(shifted.max())
    excess = shifted - log_c  # <= 0, exactly 0 at the argmax
    max_violation = float(np.max(np.maximum(np.expm1(excess), 0.0)))

    rmax = float(np.abs(zs).max())
    delta = 1e-3 * max(1.0, rmax)
    residual = 0.0
    for w in (0.31 + 0.17j, -0.22 + 0.41j, 0.12 - 0.33j):
        z0 = 0.6 * rmax * w
        fx = (evaluate(z0 + delta) - evaluate(z0 - delta)) / (2 * delta)
        fy = (evaluate(z0 + 1j * delta) - evaluate(z0 - 1j * delta)) / (2j * delta)
        denom = abs(fx) + abs(fy)
        if denom > 0:
            residual = max(residual, abs(fx - fy) / denom)

    return UFuncReport(
        fitted_C=float(np.exp(log_c)),
        fitted_D=fitted_d,
        max_violation=max_violation,
        analyticity_residual=residual,
    )
