import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import magprop as mp
from magprop import oracle
from magprop.errors import MEMORY_BUDGET, AdjudicationError, ConvergenceError, ValidationError
from magprop.oracle import _richardson


# -- test-only references: the dense form and its eigendecomposition, and
# -- the 4x4 block elimination the channel recurrence replaced -------------

_I2 = np.eye(2)
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])  # quarter turn


def _dense_sliced_form(t, k, y, nslices):
    """Dense quadratic form of the broken-path integrand, built slice by
    slice in slot order z = (p_1, x_1, ..., p_{N-1}, x_{N-1}, p_N)."""
    eps = t / nslices
    dim = 4 * nslices - 2
    shat = np.zeros((dim, dim))
    b = np.zeros(dim)
    jmat = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def pidx(j):
        return slice(4 * (j - 1), 4 * (j - 1) + 2)

    def xidx(j):
        return slice(4 * (j - 1) + 2, 4 * (j - 1) + 4)

    for j in range(1, nslices + 1):
        p = pidx(j)
        shat[p, p] += -(eps / 2.0) * np.eye(2)
        if j <= nslices - 1:
            shat[p, xidx(j)] += np.eye(2)
        else:
            b[p] += y
        if j >= 2:
            shat[p, xidx(j - 1)] += -np.eye(2)
        if j >= 2:
            shat[xidx(j - 1), p] += (eps * k / 2.0) * jmat
        if j <= nslices - 1:
            shat[xidx(j), p] += (eps * k / 2.0) * jmat
        else:
            b[p] += (eps * k / 2.0) * (jmat.T @ y)
        if j >= 2:
            shat[xidx(j - 1), xidx(j - 1)] += -(eps * k * k / 8.0) * np.eye(2)
        if j <= nslices - 1:
            shat[xidx(j), xidx(j)] += -(eps * k * k / 8.0) * np.eye(2)
        if 2 <= j <= nslices - 1:
            shat[xidx(j - 1), xidx(j)] += -(eps * k * k / 4.0) * np.eye(2)
        if j == nslices:
            b[xidx(nslices - 1)] += -(eps * k * k / 4.0) * y
    c0 = -(eps * k * k / 8.0) * float(y @ y)
    return shat + shat.T, b, c0


def _eigh_sliced_propagator(q, slices, eps0=1e-4, tol=1e-12, max_levels=40):
    """The sliced integral from one dense symmetric eigendecomposition, with
    the same Richardson stop rule as time_sliced_propagator."""
    y = np.array([q.y1, q.y2], dtype=float)
    quad, b, c0 = _dense_sliced_form(q.t, q.k, y, slices)
    dvals, vecs = np.linalg.eigh(quad)
    bt = vecs.T @ b

    def value_at(eps):
        lam = eps - 1j * dvals
        logdet_m12 = -0.5 * np.sum(np.log(lam))
        quad_term = np.sum(bt * bt / lam)
        return complex(np.exp(logdet_m12 - 0.5 * quad_term + 1j * c0) / (2.0 * np.pi))

    vals = []
    prev_head = None
    for level in range(max_levels):
        vals.append(value_at(eps0 * 2.0 ** (-level)))
        table = list(vals)
        for m in range(1, len(vals)):
            fac = 2.0**m
            table = [(fac * table[i + 1] - table[i]) / (fac - 1.0) for i in range(len(table) - 1)]
        head = table[0]
        if prev_head is not None and abs(head - prev_head) <= tol * max(1.0, abs(head)):
            return head
        prev_head = head
    raise ConvergenceError("reference extrapolation did not stagnate")


def _sliced_block_form(t, k, y, nslices):
    """Quadratic form of the broken-path integrand, block tridiagonal.

    Grouping the slots by block j = 0..N-1 as (p_{j+1}, x_j), momentum
    first, makes Q block tridiagonal with 4x4 blocks. x_0 is not a
    variable: its two entries pad block 0 and stay zero.

    Returns (diag, sub, b, c0): diag[j] is Q on block j, sub[j] is
    Q[block j+1, block j], and b[j] holds the linear term on block j. Each
    entry is summed as Shat + Shat^T would sum it, term by term.
    """
    dt = t / nslices
    half = dt * k / 2.0
    xx = -(dt * k * k / 8.0)
    diag = np.zeros((nslices, 4, 4))
    sub = np.zeros((nslices - 1, 4, 4))
    diag[:, :2, :2] = 2.0 * -(dt / 2.0) * _I2  # p_{j+1} p_{j+1}
    diag[1:, :2, 2:] = -_I2 + half * _J.T  # p_{j+1} x_j
    diag[1:, 2:, :2] = -_I2 + half * _J  # x_j p_{j+1}
    diag[1:, 2:, 2:] = 4.0 * xx * _I2  # x_j x_j: slices j and j+1
    sub[:, 2:, :2] = _I2 + half * _J  # x_{j+1} p_{j+1}
    sub[1:, 2:, 2:] = -(dt * k * k / 4.0) * _I2  # x_{j+1} x_j
    b = np.zeros((nslices, 4))
    b[-1, :2] = y + half * (_J.T @ y)  # p_N
    b[-1, 2:] = -(dt * k * k / 4.0) * y  # x_{N-1}
    c0 = xx * float(y @ y)
    return diag, sub, b, c0


def _sliced_elimination(diag, sub, b, eps):
    """LDL^T of A = eps I - i Q without pivoting, one per level in eps.

    Block recursion D_j = A_jj - A_{j,j-1} D_{j-1}^-1 A_{j-1,j} with the
    right-hand side carried along, then a scalar elimination inside each
    final block. Returns (pivots, w), both of shape (N, levels, 4) in block
    order (p_{j+1} then x_j): the scalar pivots d_i and w = L^-1 b, so that
    log det A = sum log d_i and b^T A^-1 b = sum w_i^2 / d_i.
    """
    aug = np.empty((len(diag), len(eps), 4, 5), dtype=complex)  # [A_jj | b_j]
    aug[..., :4] = eps[:, None, None] * np.eye(4) - 1j * diag[:, None]
    aug[..., 4] = b[:, None, :]
    aug[0, :, 2:, 2:4] = _I2  # the x_0 padding: decoupled, pivots exactly 1
    low = -1j * sub
    rhs = np.empty((len(eps), 4, 5), dtype=complex)
    for j in range(1, len(aug)):
        rhs[..., :4] = low[j - 1].T
        rhs[..., 4] = aug[j - 1, :, :, 4]
        aug[j] -= low[j - 1] @ np.linalg.solve(aug[j - 1, :, :, :4], rhs)
    for c in range(4):
        aug[..., c + 1 :, c + 1 :] -= (
            aug[..., c + 1 :, c, None] / aug[..., c, c, None, None] * aug[..., None, c, c + 1 :]
        )
    idx = np.arange(4)
    return aug[..., idx, idx], aug[..., 4]


def _block_values(t, k, y, nslices, eps):
    """The sliced integral at each level in eps by the block elimination,
    each p pivot paired with the x pivot after it before the logs."""
    diag, sub, b, c0 = _sliced_block_form(t, k, y, nslices)
    piv, w = _sliced_elimination(diag, sub, b, eps)
    quad = np.sum(w * w / piv, axis=(0, 2))
    logs = np.log(piv[..., :2] * piv[..., 2:]).swapaxes(0, 1).reshape(len(eps), -1)
    out = []
    for lev in range(len(eps)):
        logdet = complex(math.fsum(logs[lev].real), math.fsum(logs[lev].imag))
        out.append(complex(np.exp(-0.5 * logdet - 0.5 * quad[lev] + 1j * c0) / (2.0 * np.pi)))
    return out


def _channel_values(t, k, y, nslices, eps):
    """The sliced integral at each level in eps by the channel recurrence."""
    yy = float(y @ y)
    logdet, quad = oracle._sliced_exponent(t, k, yy, nslices, eps)
    c0 = -(t / nslices * k * k / 8.0) * yy
    return (np.exp(-0.5 * logdet - 0.5 * quad + 1j * c0) / (2.0 * np.pi)).tolist()


def _stop(values, t, k, y, nslices, eps0=1e-4, tol=1e-12, max_levels=40):
    """(head, levels) of the stop rule of time_sliced_propagator over the
    values one route gives, computed in sweeps of _LEVEL_BATCH levels."""
    vals, prev = [], None
    for level in range(max_levels):
        if level == len(vals):
            batch = np.arange(level, min(level + oracle._LEVEL_BATCH, max_levels))
            vals.extend(values(t, k, y, nslices, eps0 * 2.0 ** (-batch)))
        head = _richardson(vals[: level + 1])[-1][0]
        if prev is not None and abs(head - prev) <= tol * max(1.0, abs(head)):
            return head, level + 1
        prev = head
    raise ConvergenceError("no stagnation")


def _block_form_dense(t, k, y, nslices):
    """The block tridiagonal form expanded to a dense matrix in slot order.
    Block j holds (p_{j+1}, x_j) at slot indices 4j, 4j+1, 4j-2, 4j-1; x_0
    (indices -2, -1) is padding and is dropped."""
    diag, sub, b, c0 = _sliced_block_form(t, k, y, nslices)
    dim = 4 * nslices - 2
    pos = [[4 * j, 4 * j + 1, 4 * j - 2, 4 * j - 1] for j in range(nslices)]
    full = np.zeros((dim + 2, dim + 2))  # index -2, -1 wrap into the padding rows
    vec = np.zeros(dim + 2)
    for j in range(nslices):
        full[np.ix_(pos[j], pos[j])] = diag[j]
        vec[pos[j]] = b[j]
        if j + 1 < nslices:
            full[np.ix_(pos[j + 1], pos[j])] = sub[j]
            full[np.ix_(pos[j], pos[j + 1])] = sub[j].T
    return full[:dim, :dim], vec[:dim], c0


def _trapezoid_short_time_integral(variant, k, t, sigma=0.35, amplitude=1.0):
    """The short-time integral by the trapezoid rule in u = |y|^2 on [0, 90
    sigma^2] (the dropped tail is e^-45 of the value), with step
    min(0.02 / max(|alpha|, 1), u_max / 8000) / 8: O(du^2) error below 1e-6."""
    pref = (k / math.sin(k * t)) / (2j * np.pi)
    if variant.prefactor_form == "kt_over":
        pref = pref * t
    sign = 1.0 if variant.phase_sign == "plus" else -1.0
    alpha = sign * 0.5 * k / math.tan(k * t)
    beta = 1.0 / (2.0 * sigma * sigma)
    u_max = 2.0 * sigma * sigma * 45.0
    du = min(0.02 / max(abs(alpha), 1.0), u_max / 8000.0) / 8.0
    u = np.arange(0.0, u_max, du)
    return complex(pref * np.pi * amplitude * np.trapezoid(np.exp((1j * alpha - beta) * u), u))


def _vandermonde_short_time_limit(variant, k, sigma=0.35, amplitude=1.0):
    """The t -> 0 value of the degree-4 polynomial through the five exact
    short-time integrals, from a Vandermonde solve in units of the largest
    time."""
    ts = np.asarray(oracle._SHORT_TIME_TS)
    vals = [oracle._short_time_integral(variant, k, t, sigma, amplitude) for t in ts]
    return complex(np.linalg.solve(np.vander(ts / ts[0], len(ts)), vals)[-1])


def _inline_richardson_head(vals):
    """The Richardson head, each column overwriting the one before."""
    table = list(vals)
    for m in range(1, len(vals)):
        fac = 2.0**m
        table = [(fac * table[i + 1] - table[i]) / (fac - 1.0) for i in range(len(table) - 1)]
    return table[0]


# (t, k): k = 0, k < 0, and kt in {0.5, 1.55, 2.5, 6}
_REFERENCE_QUERIES = [(0.8, 0.0), (0.7, -1.0), (1.0, 0.5), (1.0, 1.55), (1.0, 2.5), (1.0, 6.0)]


class TestSlicedForm:
    def test_shape_and_symmetry(self):
        for nsl in (2, 3, 7):
            shat, b, c0 = _block_form_dense(0.9, 1.1, np.array([0.3, -0.2]), nsl)
            assert shat.shape == (4 * nsl - 2, 4 * nsl - 2)
            assert b.shape == (4 * nsl - 2,)
            assert np.array_equal(shat, shat.T)
            assert isinstance(c0, float)

    def test_free_form_has_no_position_coupling(self):
        shat, b, c0 = _block_form_dense(1.0, 0.0, np.array([0.5, 0.5]), 4)
        # at k = 0 the x-x and x-p couplings vanish; only p-p and p-x chain terms remain
        assert c0 == 0.0
        for j in range(1, 4):
            xs = slice(4 * (j - 1) + 2, 4 * (j - 1) + 4)
            assert np.array_equal(shat[xs, xs], np.zeros((2, 2)))

    @pytest.mark.parametrize("nsl", [2, 3, 7, 64])
    @pytest.mark.parametrize("k", [0.0, 1.1, -2.3])
    def test_matches_the_dense_reference_form(self, nsl, k):
        y = np.array([0.3, -0.2])
        shat, b, c0 = _block_form_dense(0.9, k, y, nsl)
        ref_shat, ref_b, ref_c0 = _dense_sliced_form(0.9, k, y, nsl)
        assert np.array_equal(shat, ref_shat)
        assert np.array_equal(b, ref_b)
        assert c0 == ref_c0


class TestTimeSlicing:
    @pytest.mark.parametrize("nsl", [2, 3, 8, 64])
    def test_free_case_is_exact_per_slice(self, nsl):
        # for k = 0 every slice count reproduces the free kernel; only the
        # regularization limit is approximate
        q = mp.CPQuery(t=0.8, k=0.0, y1=0.3, y2=-0.4)
        got = mp.time_sliced_propagator(q, nsl)
        want = mp.propagator(q)
        assert abs(got - want) / abs(want) < 1e-8

    def test_magnetic_case_converges_to_closed_form(self):
        q = mp.CPQuery(t=0.7, k=1.0, y1=0.2, y2=0.1)
        got = mp.time_sliced_propagator(q, 256)
        want = mp.propagator(q)
        assert abs(got - want) / abs(want) < 1e-2

    def test_slice_count_reduces_error_first_order(self):
        # the broken-path integral converges like 1/N in the slice count
        q = mp.CPQuery(t=0.7, k=1.0, y1=0.2, y2=0.1)
        want = mp.propagator(q)
        errs = [
            abs(mp.time_sliced_propagator(q, nsl) - want) / abs(want)
            for nsl in (64, 256)
        ]
        assert errs[1] < 0.35 * errs[0]

    def test_input_validation(self):
        q = mp.CPQuery(t=0.5, k=1.0, y1=0.0, y2=0.0)
        with pytest.raises(ValidationError):
            mp.time_sliced_propagator(q, 1)
        with pytest.raises(ValidationError):
            mp.time_sliced_propagator(q, 2.5)
        with pytest.raises(ValidationError):
            mp.time_sliced_propagator(q, 8, eps0=0.0)
        with pytest.raises(ValidationError):
            mp.time_sliced_propagator(
                mp.CPQuery(t=0.5, k=1.0, y1=0.0, y2=0.0, y3=1.0), 8
            )

    def test_exhausted_levels_raise(self, monkeypatch):
        q = mp.CPQuery(t=0.5, k=1.0, y1=0.0, y2=0.0)
        monkeypatch.setattr(oracle, "_MAX_LEVELS", 1)
        with pytest.raises(ConvergenceError):
            mp.time_sliced_propagator(q, 8)

    @pytest.mark.parametrize("nsl", [2, 3, 8, 64, 256])
    @pytest.mark.parametrize("t,k", _REFERENCE_QUERIES)
    def test_matches_the_eigendecomposition_route(self, t, k, nsl):
        q = mp.CPQuery(t=t, k=k, y1=0.2, y2=0.1)
        got = mp.time_sliced_propagator(q, nsl)
        want = _eigh_sliced_propagator(q, nsl)
        assert abs(got - want) / abs(want) <= 1e-10
        # the branch argument: every pivot lies in the right half plane
        diag, sub, b, _ = _sliced_block_form(t, k, np.array([0.2, 0.1]), nsl)
        piv, _ = _sliced_elimination(diag, sub, b, 1e-4 * 2.0 ** -np.arange(16))
        assert np.all(piv.real > 0)

    def test_many_slices_in_linear_memory(self):
        # a dense form at N = 1024 alone takes 134 MB
        q = mp.CPQuery(t=0.7, k=1.0, y1=0.2, y2=0.1)
        tracemalloc.start()
        try:
            mp.time_sliced_propagator(q, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_richardson_helper_repeats_the_inline_arithmetic(self):
        rng = np.random.default_rng(5)
        for n in range(1, 12):
            vals = [complex(a, b) for a, b in rng.standard_normal((n, 2))]
            table = _richardson(vals)
            assert [len(col) for col in table] == list(range(n, 0, -1))
            assert table[0] == vals
            assert table[-1][0] == _inline_richardson_head(vals)

    def test_over_budget_slice_counts_fail_before_allocating(self):
        q = mp.CPQuery(t=0.7, k=1.0, y1=0.2, y2=0.1)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"1000000000000 slices.*MiB budget"):
                mp.time_sliced_propagator(q, 10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5
        assert oracle._SLICE_BYTES * 4096 < MEMORY_BUDGET

    def test_4096_slices_peak_at_the_per_slice_bound(self):
        # one sweep holds rho and its log1p at every level, and nothing else
        # of size N
        q = mp.CPQuery(t=0.7, k=1.0, y1=0.2, y2=0.1)
        mp.time_sliced_propagator(q, 64)
        tracemalloc.start()
        try:
            mp.time_sliced_propagator(q, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096 * oracle._SLICE_BYTES + 16_000

    def test_4096_slices_follow_the_first_order_law(self):
        # dense, this form would take 2 GB; the 1/N law predicts about 6e-5
        q = mp.CPQuery(t=0.7, k=1.0, y1=0.2, y2=0.1)
        want = mp.propagator(q)
        assert abs(mp.time_sliced_propagator(q, 4096) - want) / abs(want) < 1e-4


# (t, k) with kt in {0, 7e-7, 0.77, 2.2, -1.61, -4.6, 4.2, 12}: past pi/2
# and 3 pi/2 with both signs
_CHANNEL_QUERIES = [(t, k) for k in (0.0, 1e-6, 1.1, -2.3, 6.0) for t in (0.7, 2.0)]


def _plus_channel(t, k, nslices, eps):
    """The assembled dense A = eps I - i Q in slot order, turned by the
    unnormalized (1, +-i) columns on every slot: (plus block, minus block,
    the two cross blocks) of U^H A U / 2, each channel in slot order."""
    quad, _, _ = _dense_sliced_form(t, k, np.array([0.2, 0.1]), nslices)
    amat = eps * np.eye(len(quad)) - 1j * quad
    umat = np.kron(np.eye(len(quad) // 2), np.array([[1.0, 1.0], [1j, -1j]]))
    turned = umat.conj().T @ amat @ umat / 2.0
    plus, minus = np.arange(0, len(quad), 2), np.arange(1, len(quad), 2)
    return (turned[np.ix_(plus, plus)], turned[np.ix_(minus, minus)],
            turned[np.ix_(plus, minus)], turned[np.ix_(minus, plus)])


class TestChannelRecurrence:
    @pytest.mark.parametrize("nsl", [2, 3, 7, 8, 64, 256, 1024])
    @pytest.mark.parametrize("t,k", _CHANNEL_QUERIES)
    def test_levels_match_the_block_route(self, t, k, nsl):
        y = np.array([0.2, 0.1])
        eps = 1e-4 * 2.0 ** -np.arange(8)
        got = _channel_values(t, k, y, nsl, eps)
        want = _block_values(t, k, y, nsl, eps)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w)

    @pytest.mark.parametrize("nsl", [2, 3, 8, 64, 256])
    @pytest.mark.parametrize("t,k", _REFERENCE_QUERIES)
    def test_stops_in_the_same_sweep_as_the_block_route(self, t, k, nsl):
        y = np.array([0.2, 0.1])
        head, levels = _stop(_channel_values, t, k, y, nsl)
        block_head, block_levels = _stop(_block_values, t, k, y, nsl)
        batch = oracle._LEVEL_BATCH
        assert -(-levels // batch) == -(-block_levels // batch)
        assert abs(head - block_head) <= 1e-12 * abs(block_head)
        assert mp.time_sliced_propagator(mp.CPQuery(t=t, k=k, y1=0.2, y2=0.1), nsl) == head

    @pytest.mark.parametrize("t,k", [(0.9, 1.3), (1.0, -6.0), (0.8, 0.0)])
    def test_rotation_splits_q_into_transposed_channels(self, t, k):
        plus, minus, cross_pm, cross_mp = _plus_channel(t, k, 6, 1e-3)
        assert not cross_pm.any() and not cross_mp.any()
        assert np.array_equal(minus, plus.T)

    @pytest.mark.parametrize("t,k", [(0.9, 1.3), (1.0, -6.0), (0.8, 0.0)])
    def test_channel_entries_give_the_recurrence_coefficients(self, t, k):
        nsl, eps = 6, 1e-3
        dt = t / nsl
        plus = _plus_channel(t, k, nsl, eps)[0]
        d = complex(eps, dt)
        assert np.all(np.diag(plus)[::2] == d)  # every momentum entry
        big_a = 2.0 + eps * eps + 1j * eps * dt * (1.0 + k * k / 2.0)
        big_b = (1.0 - 1j * eps * dt * k * k / 4.0) ** 2 + (k * dt) ** 2
        for j in range(1, nsl):  # x_j at slot 2j - 1, p_j at 2j - 2
            x, p0, p1 = 2 * j - 1, 2 * j - 2, 2 * j
            a_j = d * (plus[x, x] - plus[x, p0] * plus[p0, x] / d
                       - plus[x, p1] * plus[p1, x] / d)
            assert abs(a_j - big_a) <= 1e-13 * abs(big_a)
            if j + 1 < nsl:
                x1 = x + 2
                low = plus[x1, x] - plus[x1, p1] * plus[p1, x] / d
                up = plus[x, x1] - plus[x, p1] * plus[p1, x1] / d
                assert abs(d * d * low * up - big_b) <= 1e-13 * abs(big_b)
        # the recurrence carries the same A and B
        rho = oracle._channel_rhos(dt, k, 2, np.array([eps]))[:, 0]
        assert abs(1.0 + rho[0] - big_a) <= 1e-15 * abs(big_a)
        assert abs((big_a - 1.0 - rho[1]) * (1.0 + rho[0]) - big_b) <= 1e-13 * abs(big_b)

    def test_pivots_follow_the_dense_channel_elimination(self):
        # scalar elimination of the plus channel in the order p_1, p_2, x_1,
        # p_3, x_2, ...: p pivots d, x_j pivots tau_j / d
        t, k, nsl, eps = 1.0, -2.3, 7, 1e-3
        mat = _plus_channel(t, k, nsl, eps)[0].copy()
        order = [0] + [i for j in range(1, nsl) for i in (2 * j, 2 * j - 1)]
        mat = mat[np.ix_(order, order)]
        pivots = []
        for c in range(len(mat)):
            pivots.append(mat[c, c])
            mat[c + 1:, c + 1:] -= np.outer(mat[c + 1:, c], mat[c, c + 1:]) / mat[c, c]
        d = complex(eps, t / nsl)
        tau = 1.0 + oracle._channel_rhos(t / nsl, k, nsl - 1, np.array([eps]))[:, 0]
        assert np.allclose([pivots[0], *pivots[1::2]], d, rtol=1e-14, atol=0)
        assert np.allclose(pivots[2::2], tau / d, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("t,k", _CHANNEL_QUERIES)
    @pytest.mark.parametrize("nsl", [3, 64, 1024])
    def test_position_pivots_lie_in_the_right_half_plane(self, t, k, nsl):
        eps = 1e-4 * 2.0 ** -np.arange(16)
        dt = t / nsl
        rho = oracle._channel_rhos(dt, k, nsl - 1, eps)
        assert np.all(((1.0 + rho) / (eps + 1j * dt)).real > 0)

    def test_log_det_matches_a_40_digit_recurrence(self):
        mpmath = pytest.importorskip("mpmath")
        t, k, nsl, eps = 0.7, 1.0, 256, 1e-4
        with mpmath.workdps(40):
            dt = mpmath.mpf(t) / nsl
            kk, ee = mpmath.mpf(k), mpmath.mpf(eps)
            big_a = 2 + ee**2 + 1j * ee * dt * (1 + kk**2 / 2)
            big_b = (1 - 1j * ee * dt * kk**2 / 4) ** 2 + (kk * dt) ** 2
            tau = big_a
            want = mpmath.log(ee + 1j * dt) + mpmath.log(tau)
            for _ in range(nsl - 2):
                tau = big_a - big_b / tau
                want += mpmath.log(tau)
            want = complex(2 * want)
        logdet, _ = oracle._sliced_exponent(t, k, 0.05, nsl, np.array([eps]))
        assert abs(complex(logdet[0]) - want) <= 1e-13


class TestIndependence:
    def test_no_private_names_from_magnetic(self):
        tree = ast.parse(Path(oracle.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("magnetic"):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"oracle imports {private} from magnetic"

    def test_own_trig_ratios(self):
        assert oracle._k_over_sin(0.0, 2.0) == 0.5
        assert oracle._k_over_tan(0.0, 2.0) == 0.5
        for k in (9e-5, 1.1e-4, 0.7, -2.0):
            assert oracle._k_over_sin(k, 1.0) == pytest.approx(k / math.sin(k), rel=1e-13)
            assert oracle._k_over_tan(k, 1.0) == pytest.approx(k / math.tan(k), rel=1e-13)


class TestPdeResidual:
    def test_winner_is_second_order(self):
        r_h = mp.pde_residual(mp.ADJUDICATED_VARIANT, 0.7, 1.0, 0.2, 0.1, 1e-3, 1e-3)
        r_h2 = mp.pde_residual(mp.ADJUDICATED_VARIANT, 0.7, 1.0, 0.2, 0.1, 5e-4, 5e-4)
        order = np.log2(r_h / r_h2)
        assert r_h < 1e-4
        assert 1.8 < order < 2.2

    @pytest.mark.parametrize(
        "variant",
        [v for v in mp.VARIANTS if v != mp.ADJUDICATED_VARIANT],
        ids=lambda v: v.label(),
    )
    def test_losers_keep_an_order_one_defect(self, variant):
        r_win = mp.pde_residual(mp.ADJUDICATED_VARIANT, 0.7, 1.0, 0.2, 0.1)
        r_lose = mp.pde_residual(variant, 0.7, 1.0, 0.2, 0.1)
        assert r_lose > 1e2 * r_win

    def test_stencil_validation(self):
        with pytest.raises(ValidationError, match="leaves the domain"):
            mp.pde_residual(mp.ADJUDICATED_VARIANT, 5e-4, 1.0, 0.0, 0.0, 1e-3, 1e-3)
        with pytest.raises(ValidationError, match="caustic"):
            mp.pde_residual(mp.ADJUDICATED_VARIANT, np.pi / 2 + 1e-3, 1.0, 0.0, 0.0, 1e-3, 1e-3)
        with pytest.raises(ValidationError):
            mp.pde_residual(mp.ADJUDICATED_VARIANT, 0.7, 1.0, 0.0, 0.0, -1e-3, 1e-3)


class TestShortTime:
    def test_winner_reproduces_the_bump(self):
        defect = mp.short_time_check(mp.ADJUDICATED_VARIANT, 1.0)
        assert defect < 1e-3

    @pytest.mark.parametrize("k", [1.0, 0.5, -2.0, 3.0, 1e-6])
    @pytest.mark.parametrize("variant", mp.VARIANTS, ids=lambda v: v.label())
    def test_exact_integral_matches_the_trapezoid(self, variant, k):
        for t in (1e-2, 5e-3, 2.5e-3):
            got = oracle._short_time_integral(variant, k, t, 0.35, 1.0)
            want = _trapezoid_short_time_integral(variant, k, t)
            assert abs(got - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("k", [1.0, 0.5, -2.0, 3.0, 1e-6])
    @pytest.mark.parametrize("variant", mp.VARIANTS, ids=lambda v: v.label())
    def test_lagrange_limit_matches_the_vandermonde_solve(self, variant, k):
        got = oracle._short_time_limit(variant, k, 0.35, 1.0)
        assert abs(got - _vandermonde_short_time_limit(variant, k)) <= 1e-14
        assert mp.short_time_check(variant, k) == abs(got - 1.0)

    def test_probe_times_halve_from_the_caustic_guard_time(self):
        assert oracle._SHORT_TIME_TS == (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4)

    @pytest.mark.parametrize("k", [1.0, 0.5, -2.0, 3.0])
    def test_degree_four_limit_is_sharp(self, k):
        # the degree-4 fit through t <= 1e-2 leaves an O(t^5) error
        assert mp.short_time_check(mp.ADJUDICATED_VARIANT, k) < 1e-8
        for variant in mp.VARIANTS:
            if variant != mp.ADJUDICATED_VARIANT:
                assert 0.5 < mp.short_time_check(variant, k) < 2.5

    def test_wrong_prefactor_misses_by_order_one(self):
        defect = mp.short_time_check(mp.KernelVariant("kt_over", "plus"), 1.0)
        assert defect > 0.5

    def test_wrong_phase_sign_misses_by_order_one(self):
        defect = mp.short_time_check(mp.KernelVariant("k_over", "minus"), 1.0)
        assert defect > 0.5

    def test_zero_amplitude(self):
        assert mp.short_time_check(mp.ADJUDICATED_VARIANT, 1.0, amplitude=0.0) == 0.0

    def test_amplitude_scales(self):
        d1 = mp.short_time_check(mp.ADJUDICATED_VARIANT, 0.5, amplitude=1.0)
        d3 = mp.short_time_check(mp.ADJUDICATED_VARIANT, 0.5, amplitude=3.0)
        assert d3 == pytest.approx(3 * d1, rel=1e-6, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            mp.short_time_check(mp.ADJUDICATED_VARIANT, 1.0, sigma=0.0)
        with pytest.raises(ValidationError):
            mp.short_time_check(mp.ADJUDICATED_VARIANT, np.inf)
        with pytest.raises(ValidationError, match="too large"):
            mp.short_time_check(mp.ADJUDICATED_VARIANT, np.pi / 2 / 1e-2)


# (t, k) with kt in {0.45, 0.7, 2, 2.5, 3, 4, 5}: k < 0, and past the
# caustics at pi/2 and 3 pi/2
_EXTRAPOLATION_QUERIES = [
    (0.45, 1.0), (0.7, 1.0), (0.7, -1.0), (2.0, 1.0), (1.0, -2.5),
    (3.0, 1.0), (4.0, 1.0), (5.0, 1.0), (2.5, -2.0),
]


class TestAdjudication:
    def test_selects_the_packaged_variant(self):
        report = mp.adjudicate()
        assert report.selected == mp.ADJUDICATED_VARIANT
        assert report.convergence[-1][1] < 1e-2
        assert report.convergence[-1][1] < report.convergence[0][1]
        assert set(report.pde_residuals) == {v.label() for v in mp.VARIANTS}
        assert set(report.short_time_defect) == {v.label() for v in mp.VARIANTS}
        assert len(report.confidence_notes) == 3

    def test_deterministic(self):
        a = mp.adjudicate()
        b = mp.adjudicate()
        assert a.selected == b.selected
        assert a.slicing_value == b.slicing_value
        assert a.convergence == b.convergence

    def test_degenerate_field_free_case(self):
        report = mp.adjudicate(k=0.0)
        assert report.selected == mp.ADJUDICATED_VARIANT
        assert report.convergence == ()
        assert "continuity" in report.confidence_notes[0]

    def test_no_survivor_raises_with_scores(self):
        # two slices are far too coarse for the 1% slicing gate
        with pytest.raises(AdjudicationError, match="scores"):
            mp.adjudicate(slices=2)

    def test_report_carries_the_n_table(self):
        report = mp.adjudicate()
        assert report.slice_counts == (64, 128, 256)
        assert [len(col) for col in report.n_table] == [3, 2, 1]
        q = report.query
        assert report.n_table[0] == tuple(
            mp.time_sliced_propagator(q, nsl) for nsl in (64, 128, 256)
        )
        assert report.n_table[0][-1] == report.slicing_value
        assert report.extrapolated_value == report.n_table[-1][0]
        assert "extrapolated" in report.confidence_notes[2]

    def test_slice_counts_halve_from_the_requested_count(self):
        assert mp.adjudicate(slices=512).slice_counts == (128, 256, 512)
        with pytest.raises(AdjudicationError):
            mp.adjudicate(slices=6)  # too coarse to extrapolate, raw value fails

    @pytest.mark.parametrize("t,k", _EXTRAPOLATION_QUERIES)
    def test_extrapolated_value_certifies_the_closed_form(self, t, k):
        # at kt = 3, 4 and (1, -2.5) the raw 256-slice value misses the gate
        report = mp.adjudicate(t=t, k=k)
        want = mp.propagator(report.query)
        rel = abs(report.extrapolated_value - want) / abs(want)
        assert rel <= (1e-7 if abs(k * t) <= 1.0 else 1e-3)
        assert report.selected == mp.ADJUDICATED_VARIANT

