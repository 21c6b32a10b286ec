"""Planar charged particle in a constant magnetic field, natural units.

The phase-space model on [0, t): Hamiltonian
H = 1/2 |p|^2 - k (x1 p2 - x2 p1) + 1/2 k^2 |x|^2 with cyclotron parameter
k = qB_z/(mc) and m = hbar = 1. This module builds the block operators K
(kinetic/multiplication part) and L (potential couplings through the
integral operators A, B, B*), implements the closed-form inverse of
N = Id + K + L, solves the discretized N exactly for the endpoint
preimages, and evaluates spectrum, determinant, generating functional, and
propagator.

Everything divides by cos(kt) somewhere, so times with |cos(kt)| below
CAUSTIC_TOL are rejected up front (focal/caustic times). The k -> 0 limit is
evaluated through series-stable helpers rather than division by k, so k = 0
reproduces the free kernel exactly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CausticError, NumericalError, ValidationError, check_memory
from .gaussians import TTValue
from .grid import (
    BlockOperator,
    GridFunction,
    GridSpec,
    _a_apply,
    _a_inverse_bands,
    _b_apply,
    _bstar_apply,
    _column,
    _is_integer,
    _prefix_sum,
    block_assemble,
    block_identity,
    discretize,
    pair,
)

__all__ = [
    "CAUSTIC_TOL",
    "KernelVariant",
    "VARIANTS",
    "ADJUDICATED_VARIANT",
    "CPQuery",
    "CPOperators",
    "SpectrumResult",
    "MMatrixResult",
    "build_cp_operators",
    "n_inverse_closed",
    "solve_preimage",
    "m_matrix",
    "spectrum_idlk",
    "det_idlk",
    "generating_functional",
    "propagator",
    "kernel_value",
]

CAUSTIC_TOL = 1e-6

# Below this |kt| the trig ratios switch to their Taylor forms. The crossover
# keeps relative error at the 1e-16 level and makes k = 0 exact.
_SERIES_CUT = 1e-4


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


def _tan_over_k(k: float, t: float) -> float:
    """tan(kt) / k, continued through k = 0 as t."""
    x = k * t
    if abs(x) < _SERIES_CUT:
        return t * (1.0 + x * x / 3.0 + 2.0 * x**4 / 15.0)
    return math.tan(x) / k


def _check_caustic(t: float, k: float):
    if not (np.isfinite(t) and t > 0):
        raise ValidationError(f"t must be positive and finite, got {t}")
    if not np.isfinite(k):
        raise ValidationError(f"k must be finite, got {k}")
    if not np.isfinite(k * t):
        raise ValidationError(f"k*t must be finite, got k={k}, t={t}")
    if k != 0 and abs(math.cos(k * t)) < CAUSTIC_TOL:
        raise CausticError(
            f"t={t}, k={k} lies within tolerance of a caustic time "
            f"(|cos(kt)| = {abs(math.cos(k * t)):.2e} < {CAUSTIC_TOL:.0e}); "
            "times with cos(kt) = 0 are excluded"
        )


@dataclass(frozen=True)
class KernelVariant:
    """One candidate reading of the closed-form kernel.

    prefactor_form "k_over" means k/(2 pi i sin kt); "kt_over" carries an
    extra factor t. phase_sign is the sign of the quadratic phase
    exp(+- i k (y1^2+y2^2) / (2 tan kt)).
    """

    prefactor_form: str
    phase_sign: str

    def __post_init__(self):
        if self.prefactor_form not in ("k_over", "kt_over"):
            raise ValidationError(f"unknown prefactor_form {self.prefactor_form!r}")
        if self.phase_sign not in ("plus", "minus"):
            raise ValidationError(f"unknown phase_sign {self.phase_sign!r}")

    def label(self) -> str:
        return f"{self.prefactor_form}/{self.phase_sign}"


VARIANTS = (
    KernelVariant("k_over", "plus"),
    KernelVariant("k_over", "minus"),
    KernelVariant("kt_over", "plus"),
    KernelVariant("kt_over", "minus"),
)

# Selected by the adjudication engine (see magprop.oracle.adjudicate, which
# reproduces this choice; the test suite asserts they agree). The k_over/plus
# kernel is the unique variant that solves the magnetic Schroedinger equation,
# reproduces the delta initial condition as t -> 0+, and matches the
# time-sliced phase-space integral.
ADJUDICATED_VARIANT = KernelVariant("k_over", "plus")


def kernel_value(variant: KernelVariant, t: float, k: float, y1, y2):
    """Closed-form planar kernel for one variant; vectorized over y1, y2."""
    pref = _k_over_sin(k, t) / (2j * np.pi)
    if variant.prefactor_form == "kt_over":
        pref = pref * t
    sign = 1.0 if variant.phase_sign == "plus" else -1.0
    phase = sign * 0.5 * _k_over_tan(k, t) * (np.asarray(y1) ** 2 + np.asarray(y2) ** 2)
    out = pref * np.exp(1j * phase)
    return complex(out) if np.isscalar(y1) and np.isscalar(y2) else out


def _free_factor_1d(t: float, y3: float) -> complex:
    # (2 pi i t)^(-1/2) exp(i y3^2 / (2t)), principal root, t > 0
    return complex(np.exp(-0.25j * np.pi) / math.sqrt(2.0 * np.pi * t) * np.exp(0.5j * y3 * y3 / t))


@dataclass(frozen=True)
class CPQuery:
    """Propagator query: end time t, cyclotron parameter k, endpoint y."""

    t: float
    k: float
    y1: float
    y2: float
    y3: Optional[float] = None

    def validate(self):
        _check_caustic(self.t, self.k)
        for name in ("y1", "y2"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.y3 is not None and not np.isfinite(self.y3):
            raise ValidationError("y3 must be finite")
        return self


@dataclass(frozen=True)
class CPOperators:
    grid: GridSpec
    K: BlockOperator
    L: BlockOperator
    N: BlockOperator


def build_cp_operators(grid: GridSpec, k: float) -> CPOperators:
    """Assemble K, L, and N = Id + K + L on the grid.

    K is the constant multiplication-type block matrix of the kinetic part;
    L carries the magnetic/potential couplings through A, B, B*. Component
    order is (x1-type, p1-type, x2-type, p2-type). An n whose working set
    (about 112 n^2 bytes) is over the 1 GiB budget is refused before any
    allocation.
    """
    # tracemalloc peaks at 112.0 to 112.1 n^2 bytes (n = 256 to 1024)
    check_memory(f"build_cp_operators at n = {grid.n}", 112.0 * grid.n * grid.n)
    meta = {"t": grid.t_end, "k": k}
    kmat = block_assemble(
        grid,
        [
            [-1.0, -1.0j, None, None],
            [-1.0j, -1.0 + 1.0j, None, None],
            [None, None, -1.0, -1.0j],
            [None, None, -1.0j, -1.0 + 1.0j],
        ],
        meta={**meta, "label": "K"},
    )
    lmat = _cp_l(grid, k)
    nmat = block_identity(grid) + kmat + lmat
    nmat = BlockOperator(grid, nmat.blocks, meta={**meta, "label": "N"})
    return CPOperators(grid, kmat, lmat, nmat)


def _cp_l(grid: GridSpec, k: float) -> BlockOperator:
    """The L of :func:`build_cp_operators`."""
    a_op = discretize("A", grid)
    b_op = discretize("B", grid)
    bs_op = discretize("Bstar", grid)
    return block_assemble(
        grid,
        [
            [(1j * k * k, a_op), None, None, (-2j * k, bs_op)],
            [None, None, (2j * k, b_op), None],
            [None, None, (1j * k * k, a_op), None],
            [None, None, None, None],
        ],
        meta={"t": grid.t_end, "k": k, "label": "L"},
    )


def _id_plus_k_inverse(grid: GridSpec) -> BlockOperator:
    """(Id + K)^-1 on [0, t): a constant block matrix, from direct 2x2
    inversion of each diagonal pair of Id + K."""
    return BlockOperator(
        grid, {(0, 0): 1j, (0, 1): 1j, (1, 0): 1j, (2, 2): 1j, (2, 3): 1j, (3, 2): 1j}
    )


def _resolvent_g(grid: GridSpec, k: float, v: np.ndarray) -> np.ndarray:
    """(k^2 A - 1)^-1 applied to v along axis 0 (any trailing shape), in O(n).

    The resolvent is -1 plus an integral operator with kernel
    g(s, q) = k [ 1_{q<s} sin(k(s-q)) - cos(ks) sin(k(t-q)) / cos(kt) ],
    obtained by variation of parameters for (k^2 A - 1) w = v, i.e.
    w'' + k^2 w = -v'' with w(t) = -v(t), w'(0) = -v'(0). Using the analytic
    kernel (rather than numerically inverting the discretized operator)
    keeps this an independent route: the only remaining error is quadrature.
    Splitting sin(k(s-q)) = sin(ks) cos(kq) - cos(ks) sin(kq) turns the
    lower-triangular part into two exclusive prefix sums; the rank-1 part is
    one sum over all nodes. At k = 0 the resolvent is -1.
    """
    if k == 0:
        return -v
    s = grid.nodes
    cos_s = _column(np.cos(k * s), v.ndim)
    sin_s = _column(np.sin(k * s), v.ndim)
    sin_rest = _column(np.sin(k * (grid.t_end - s)), v.ndim)
    rank1 = np.sum(sin_rest * v, axis=0) / math.cos(k * grid.t_end)
    out = sin_s * _prefix_sum(cos_s * v)
    out -= cos_s * (_prefix_sum(sin_s * v) + rank1)
    out *= k * grid.weight
    out -= v
    return out


def _couplings(grid: GridSpec, k: float, g: np.ndarray) -> dict:
    """X g for the inner operator X of each off-diagonal block -i G X G of
    N^-1, keyed by block; g is a resolvent image G f along axis 0."""
    bg = _b_apply(grid, g)
    bsg = _bstar_apply(grid, g)
    abg = _a_apply(grid, bg)
    bsag = _bstar_apply(grid, _a_apply(grid, g))
    # k**3 to the bit (k * k * k is not, for about a quarter of all k), but
    # inf where the float power raises OverflowError
    k3 = np.float64(k) ** 3
    return {
        (0, 2): -2.0 * k * (bg - bsg),
        (0, 3): -2.0 * (k * bg - k3 * bsag),
        (1, 2): 2.0 * (k * bsg - k3 * abg),
        (1, 3): -2.0 * k3 * (abg - bsag),
    }


def _n_inverse_apply(grid: GridSpec, k: float, values: np.ndarray) -> np.ndarray:
    """N^-1 applied to values of shape (4, n, ...), in O(n) per column.

    Evaluates the block formula of :func:`n_inverse_closed` as chained
    applies of G, A, B and B*: G f2 and G f3 once each, then one batch of
    three G applies for the first two output rows. No n x n array is formed.
    """
    f0, f1, f2, f3 = values
    g23 = _resolvent_g(grid, k, np.stack([f2, f3], axis=1))
    g2, g3 = g23[:, 0], g23[:, 1]
    inner = _couplings(grid, k, g23)
    top = inner[(0, 2)][:, 0] + inner[(0, 3)][:, 1]
    second = inner[(1, 2)][:, 0] + inner[(1, 3)][:, 1]
    del inner  # frees the four (n, 2) products before the second batch
    rows = _resolvent_g(grid, k, np.stack([f0 + f1 + top, f0 + second, f1], axis=1))
    k2 = k * k
    out = np.stack([rows[:, 0], rows[:, 1] + k2 * _a_apply(grid, rows[:, 2]),
                    g2 + g3, g2 + k2 * _a_apply(grid, g3)])
    out *= -1j
    return out


def n_inverse_closed(grid: GridSpec, k: float) -> BlockOperator:
    """Closed-form inverse of N = Id + K + L on [0, t), as dense blocks.

    Built from the resolvent G = (k^2 A - 1)^-1 and the integral operators:
    N = i [[M, P], [0, M]] with M = [[k^2 A, -1], [-1, 1]],
    P = [[0, -2k B*], [2k B, 0]], so N^-1 = -i [[M^-1, -M^-1 P M^-1],
    [0, M^-1]] with M^-1 = [[G, G], [G, k^2 A G]]. The expanded off-diagonal
    blocks only use that A and G commute: each is -i G X G with X one of
    -2k (B - B*), -2 (k B - k^3 B* A), 2 (k B* - k^3 A B), -2k^3 (A B - B* A).

    G, A, B and B* are never built as matrices. Their O(n) applies (the
    chain :func:`generating_functional` runs on one vector) act on the
    columns of the identity: G I, then A, B and B* on that, then G on the
    four inner products. That costs O(n^2) time and memory for the 12
    blocks (6 at k = 0), against O(n^3) for dense matrix products. Equal
    blocks share one array: the six -i G blocks are one array, and so are
    (1, 1) and (3, 3), so 6 distinct n x n arrays are kept (1 at k = 0). An
    n whose working set (about 224 n^2 bytes) is over the 1 GiB budget is
    refused before any allocation.
    """
    _check_caustic(grid.t_end, k)
    # tracemalloc peaks at 208 to 210 n^2 bytes (n = 256 to 1024), while the
    # last coupling block is being resolved
    check_memory(f"n_inverse_closed at n = {grid.n}", 224.0 * grid.n * grid.n)
    # column-major, so that the prefix sums along axis 0 run over contiguous
    # memory (about three times faster at n = 1024)
    g = _resolvent_g(grid, k, np.eye(grid.n, dtype=complex, order="F"))
    blocks = dict.fromkeys(((0, 0), (0, 1), (1, 0), (2, 2), (2, 3), (3, 2)), -1j * g)
    if k != 0:
        blocks[(1, 1)] = blocks[(3, 3)] = -1j * (k * k) * _a_apply(grid, g)
        for key, x in _couplings(grid, k, g).items():
            blocks[key] = -1j * _resolvent_g(grid, k, x)
    return BlockOperator(grid, blocks, meta={"t": grid.t_end, "k": k, "label": "N^-1 closed"})


def _discrete_resolvent(grid: GridSpec, k: float, r: np.ndarray) -> np.ndarray:
    """(k^2 A - 1)^-1 r for the discretized A, exact up to rounding, in O(n).

    With T = h^2 A^-1 tridiagonal (``grid._a_inverse_bands``), (k^2 A - 1) x
    = r is the tridiagonal system (k^2 h^2 - T) x = T r. Near a caustic that
    system is about n^2 worse conditioned than the operator itself, so one
    step of iterative refinement follows, on the residual of k^2 A - 1
    formed with the O(n) A apply.
    """
    from scipy.linalg import solve_banded  # scipy loads only where it is used

    diag, off = _a_inverse_bands(grid)
    kh = k * grid.weight
    if not math.isfinite(kh * kh):
        # an infinite diagonal would return x = 0 without complaint
        raise NumericalError(f"(k h)^2 overflows (t={grid.t_end}, k={k}, n={grid.n})")
    band = np.ones((3, grid.n))
    band[1] = kh * kh - diag

    def solve(v):
        tv = diag * v
        tv[1:] += off * v[:-1]
        tv[:-1] += off * v[1:]
        return solve_banded((1, 1), band, tv, check_finite=False)

    try:
        x = solve(r)
        x += solve(r - _a_apply(grid, (k * k) * x) + x)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"preimage system is singular (t={grid.t_end}, k={k})") from exc
    return x


def _check_pin(which) -> None:
    if not (isinstance(which, str) and which in ("eta1", "eta3")):
        raise ValidationError(f"which must be 'eta1' or 'eta3', got {which!r}")


def _m_inverse(grid: GridSpec, k: float, r: np.ndarray, s: np.ndarray) -> tuple:
    """M^-1 (r, s) = (a, s + a) with a = (k^2 A - 1)^-1 (r + s), for the
    diagonal block M = [[k^2 A, -1], [-1, 1]] of the discretized N."""
    a = _discrete_resolvent(grid, k, r + s)
    return a, s + a


def solve_preimage(grid: GridSpec, k: float, which) -> GridFunction:
    """Solve the discretized N f = eta for the endpoint pins, in O(n).

    which selects the pin: "eta1" (indicator in component 0) or "eta3"
    (indicator in component 2). N = i [[M, P], [0, M]] as in
    :func:`n_inverse_closed`, with P = [[0, -2k B*], [2k B, 0]], so N x =
    eta is one back-substitution on f = -i eta: x23 = M^-1 f23, then x01 =
    M^-1 (f01 - P x23), where M^-1 (r, s) = (a, s + a) with a = (k^2 A -
    1)^-1 (r + s). Each resolvent is the exact solve of
    :func:`_discrete_resolvent`, so this is the same midpoint-rule N that
    the Gauss engines and ``det --method dense`` use, solved without
    forming it.
    """
    _check_pin(which)
    _check_caustic(grid.t_end, k)
    f = np.zeros((4, grid.n), dtype=complex)
    f[0 if which == "eta1" else 2] = -1j
    x2, x3 = _m_inverse(grid, k, f[2], f[3])
    x0, x1 = _m_inverse(grid, k, f[0] + 2.0 * k * _bstar_apply(grid, x3),
                        f[1] - 2.0 * k * _b_apply(grid, x2))
    values = np.stack([x0, x1, x2, x3])
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"preimage solve produced non-finite values (t={grid.t_end}, k={k})")
    return GridFunction(grid, values)


def _closed_preimage(grid: GridSpec, k: float, which) -> GridFunction:
    """Analytic preimages N^-1 eta (trig closed forms), for cross-checks and
    the generating functional."""
    _check_pin(which)
    _check_caustic(grid.t_end, k)
    s = grid.nodes
    t = grid.t_end
    ckt = math.cos(k * t)
    cks = np.cos(k * s)
    zero = np.zeros_like(s)
    if which == "eta1":
        f = 1j * cks / ckt
        return GridFunction(grid, np.stack([f, f.copy(), zero, zero.copy()]).astype(complex))
    h1 = (2j * np.sin(k * s) + 2j * k * (s - t) * cks) / ckt
    h2 = 2j * k * cks * (s - t) / ckt
    h3 = 1j * cks / ckt
    return GridFunction(grid, np.stack([h1, h2, h3, h3.copy()]))


MMatrixResult = namedtuple("MMatrixResult", ["closed", "numerical"])


def m_matrix(t: float, k: float, grid: Optional[GridSpec] = None):
    """Pinning matrix (eta_i, N^-1 eta_j): closed form i tan(kt)/k * Id_2.

    Without a grid, returns the closed 2x2 array. With a grid, also computes
    the quadrature value through the preimages of the discretized N and
    returns an MMatrixResult(closed, numerical) pair for comparison. One
    :func:`solve_preimage` call (eta3's, two resolvents) gives both
    columns: N^-1 eta1 = (x2, x2, 0, 0) for eta3's preimage x, since both
    are -i M^-1 (1, 0).
    """
    _check_caustic(t, k)
    closed = 1j * _tan_over_k(k, t) * np.eye(2, dtype=complex)
    if grid is None:
        return closed
    if not math.isclose(grid.t_end, t, rel_tol=1e-12, abs_tol=0.0):
        raise ValidationError(f"grid spans [0, {grid.t_end}) but t = {t}")
    x = solve_preimage(grid, k, "eta3").values
    h = grid.weight
    m11 = h * x[2].sum()
    numerical = np.array([[m11, h * x[0].sum()], [0.0, m11]])
    return MMatrixResult(closed=closed, numerical=numerical)


@dataclass(frozen=True)
class SpectrumResult:
    """Non-unit spectrum of Id + L(Id+K)^-1 on [0, t).

    eigenvalues holds one representative per detected cluster, sorted by
    distance from 1 (descending); multiplicities counts members per cluster
    (2 per distinct mode: the two planar degrees of freedom). closed_form is
    the analytic sequence v_m = 1 - (kt)^2 / ((m - 1/2) pi)^2.
    """

    eigenvalues: tuple
    closed_form: tuple
    multiplicities: tuple


def spectrum_idlk(grid: GridSpec, k: float, count: int) -> SpectrumResult:
    """Leading non-unit eigenvalues of Id + L(Id+K)^-1, with multiplicities.

    The operator block-triangularizes exactly at the discrete level with
    diagonal blocks (1 - k^2 A, 1, 1 - k^2 A, 1), so its non-unit spectrum is
    {1 - k^2 lambda : lambda eigenvalue of A}, each twice, plus an exact
    eigenvalue 1 of multiplicity 2n. One real-symmetric n x n eigensolve of A
    therefore replaces the dense 4n x 4n problem (the dense route is kept as
    a small-n cross-check in the tests). An n whose working set (about
    40 n^2 bytes) is over the 1 GiB budget is refused before any allocation.
    """
    if not np.isfinite(k):
        raise ValidationError(f"k must be finite, got {k}")
    if not _is_integer(count):
        raise ValidationError(f"count must be an integer, got {count!r}")
    if count < 1 or count > grid.n:
        raise ValidationError(f"count must be in [1, {grid.n}], got {count}")
    count = int(count)
    # A's kernel and application as complex n x n arrays, and eigvalsh's real copy
    check_memory(f"spectrum at n = {grid.n}", 40.0 * grid.n * grid.n)
    a_app = discretize("A", grid).application
    try:
        lam = np.linalg.eigvalsh(a_app.real)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolve failed for the quadratic-kernel operator (n={grid.n}, "
            f"t={grid.t_end}, k={k}): {exc}"
        ) from exc
    # Largest lambda = farthest from 1 after v = 1 - k^2 lambda.
    v_sorted = 1.0 - k * k * lam[::-1]
    candidates = v_sorted[:count]

    reps, mults = [], []
    idx = 0
    while idx < len(candidates):
        jdx = idx + 1
        while jdx < len(candidates) and abs(candidates[jdx] - candidates[idx]) <= 1e-6 * max(
            1.0, abs(candidates[idx])
        ):
            jdx += 1
        cluster = candidates[idx:jdx]
        reps.append(complex(cluster.mean()))
        mults.append(2 * len(cluster))
        idx = jdx

    t = grid.t_end
    closed = tuple(
        # (kt)(kt), not (kt) ** 2: past |kt| ~ 1e154 the float power raises
        # OverflowError, the product gives inf and the CLI reports exit 3
        1.0 - (k * t) * (k * t) / ((m - 0.5) * math.pi) ** 2 for m in range(1, count + 1)
    )
    return SpectrumResult(eigenvalues=tuple(reps), closed_form=closed, multiplicities=tuple(mults))


# B_2, B_4, ..., B_10: the Bernoulli numbers of the asymptotic series of zeta
_ZETA_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0)


def _hurwitz_zeta(s: int, x: float) -> float:
    """zeta(s, x) = sum_{m >= 0} (x + m)^-s for even s >= 2 and x > 0.

    The recurrence zeta(s, x) = zeta(s, x + 1) + x^-s up to z = x + m >=
    max(20, 3 s), then the Euler-Maclaurin series zeta(s, z) ~ z^(1-s)
    [1/(s-1) + 1/(2z) + sum_j B_2j (s)_(2j-1) / (2j)! z^-2j] through B_10
    ((s)_j the rising factorial); the recurrence terms are added smallest
    first. Within 1e-13 relative of ``scipy.special.zeta`` for even s <= 200.
    At s = 2 this is the trigamma function psi_1(x), evaluated step for step
    as psi_1(z) ~ 1/z + 1/(2 z^2) + sum_j B_2j / z^(2j+1).
    """
    shift = max(0, math.ceil(max(20.0, 3.0 * s) - x))
    z = x + shift
    w = 1.0 / (z * z)
    series = 0.0
    for j in range(len(_ZETA_BERNOULLI), 0, -1):
        rising = math.prod(range(s, s + 2 * j - 1)) / math.factorial(2 * j)
        series = (series + _ZETA_BERNOULLI[j - 1] * rising) * w
    # z^(1-s) as z^-1 w^(s/2 - 1): underflows to 0 rather than overflowing
    value = (1.0 / (s - 1) + (0.5 / z + series)) / z * w ** (s // 2 - 1)
    for n in range(shift - 1, -1, -1):
        value += (1.0 / ((x + n) * (x + n))) ** (s // 2)
    return value


def _log_product_tail(x: float, a: float) -> float:
    """sum_{m >= 0} log(1 - x / (a + m)^2) = -sum_p x^p zeta(2p, a) / p for
    0 <= x <= a^2 / 4, where the terms fall by a factor 4 or more; summed
    until a term is below 1e-17 of the sum. An x^p that overflows ends the
    sum too: with a below 3.4e7 (any order within the memory budget) that
    happens only after the terms have fallen below 1e-15 of the sum."""
    xp, total, p = 1.0, 0.0, 0
    while True:
        p += 1
        xp *= x
        term = xp * _hurwitz_zeta(2 * p, a) / p
        if not math.isfinite(term):
            return -total
        total += term
        if term <= 1e-17 * total:
            return -total


def det_idlk(t: float, k: float, method: str, order: int) -> complex:
    """Determinant of Id + L(Id+K)^-1; the closed target is cos^2(kt).

    method "product": truncated eigenvalue product prod v_m^2 over `order`
    modes, v_m = 1 - x / (m - 1/2)^2 with x = (kt / pi)^2, times the tail
    exp(-2 sum_p x^p zeta(2p, order + 1/2) / p): the whole series of the
    remaining log(1 - x / (m - 1/2)^2), not its first order, with zetas from
    :func:`_hurwitz_zeta`. The series converges for order + 1/2 > |kt| / pi;
    an order with order + 1/2 < 2 |kt| / pi is refused, so that its ratio
    stays at most 1/4 (about 25 terms). method "dense": slogdet of the
    literally assembled discretized operator on a grid with n = order cells.
    An order whose working set (32 order bytes for "product", 768 order^2
    for "dense") is over the 1 GiB budget is refused before any allocation.
    """
    if not (np.isfinite(t) and t > 0):
        raise ValidationError(f"t must be positive and finite, got {t}")
    if not np.isfinite(k):
        raise ValidationError(f"k must be finite, got {k}")
    if not _is_integer(order):
        raise ValidationError(f"order must be an integer, got {order!r}")
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    order = int(order)
    if method == "product":
        kt2 = (k * t) * (k * t)  # inf rather than OverflowError at huge kt
        if math.isfinite(kt2) and order + 0.5 < 2.0 * abs(k * t) / math.pi:
            least = math.ceil(2.0 * abs(k * t) / math.pi - 0.5)
            raise ValidationError(
                f"order {order} is too small for the product tail at kt = {k * t!r}; "
                f"it needs order >= {least}"
            )
        # four float arrays of length order are alive at once
        check_memory(f"det --method product at order {order}", 32.0 * order)
        if not math.isfinite(kt2):
            return complex(math.nan)  # no finite value to give; the CLI exits 3
        m = np.arange(1, order + 1, dtype=float)
        v = 1.0 - kt2 / ((m - 0.5) * math.pi) ** 2
        if np.any(v == 0.0):
            return 0.0 + 0j
        # one exponent: the body and the tail alone overflow once x / order
        # passes about 350 (kt past about 2000 at the least admitted order)
        log_v = np.sum(np.log(np.abs(v))) + _log_product_tail(kt2 / math.pi**2, order + 0.5)
        return complex(np.exp(2.0 * log_v))
    if method == "dense":
        # the complex 4n x 4n matrix, its LU copy and the blocks it is built from
        check_memory(f"det --method dense at order {order}", 3 * 256.0 * order * order)
        grid = GridSpec(t, order)
        target = block_identity(grid) + _cp_l(grid, k).compose(_id_plus_k_inverse(grid))
        dense = target.dense()
        del target  # only the assembled matrix is held through the LU
        sign, logabs = np.linalg.slogdet(dense)
        return complex(sign * np.exp(logabs))
    raise ValidationError(f"method must be 'product' or 'dense', got {method!r}")


def _closed_tt(q: CPQuery, planar: Optional[complex] = None) -> TTValue:
    """Closed-form TTValue at q. planar is the planar factor of the value,
    the adjudicated kernel at (y1, y2) when omitted; the free third-axis
    factor is applied when y3 is given."""
    t, k = q.t, q.k
    if planar is None:
        planar = kernel_value(ADJUDICATED_VARIANT, t, k, q.y1, q.y2)
    value = complex(planar)
    if q.y3 is not None:
        value *= _free_factor_1d(t, q.y3)
    tk = _tan_over_k(k, t)
    return TTValue(
        value=value,
        det_NK=complex(math.cos(k * t) ** 2),
        det_M=complex(-(tk * tk)),
        branch_note=f"closed form, variant {ADJUDICATED_VARIANT.label()}; "
        "per-eigenvalue principal square roots",
    )


def generating_functional(q: CPQuery, xi: Optional[GridFunction] = None) -> TTValue:
    """Generating functional of the propagator at test function xi.

    value = pref * exp(-1/2 <xi, N^-1 xi>) * exp(+1/2 sum_j u_j^2 / (i tan(kt)/k))
    with u_j = i y_j + 1/2 <eta_j, N^-1 xi> + 1/2 <N^-1 eta_j, xi> and pref
    the adjudicated kernel prefactor. N^-1 xi is the closed form of
    :func:`n_inverse_closed` evaluated as one chain of O(n) prefix-sum
    applies of G, A, B and B* on xi, and N^-1 eta_j are the analytic
    preimages, so the whole evaluation takes O(n) time and memory and never
    forms an n x n array. At xi = 0 this takes the same code path as
    ``propagator`` so the two agree exactly.
    """
    q.validate()
    if xi is None or not np.any(xi.values):
        return _closed_tt(q)
    if xi.d != 4:
        raise ValidationError("test function must have 4 components")
    grid = xi.grid
    if not math.isclose(grid.t_end, q.t, rel_tol=1e-12, abs_tol=0.0):
        raise ValidationError(
            f"test function grid spans [0, {grid.t_end}) but the query has t = {q.t}"
        )
    t, k = q.t, q.k
    x = GridFunction(grid, _n_inverse_apply(grid, k, xi.values))
    gauss = np.exp(-0.5 * pair(xi, x))

    pre1 = _closed_preimage(grid, k, "eta1")
    pre3 = _closed_preimage(grid, k, "eta3")
    h = grid.weight
    u1 = 1j * q.y1 + 0.5 * h * x.values[0].sum() + 0.5 * pair(pre1, xi)
    u2 = 1j * q.y2 + 0.5 * h * x.values[2].sum() + 0.5 * pair(pre3, xi)

    minv_diag = -1j * _k_over_tan(k, t)  # inverse of the diagonal pinning matrix
    pin = np.exp(0.5 * minv_diag * (u1 * u1 + u2 * u2))

    pref = kernel_value(ADJUDICATED_VARIANT, t, k, 0.0, 0.0)
    return _closed_tt(q, pref * gauss * pin)


def propagator(q: CPQuery) -> complex:
    """Closed-form propagator at q (adjudicated variant), with the optional
    free third-axis factor when y3 is given."""
    q.validate()
    return _closed_tt(q).value
