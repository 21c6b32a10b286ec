import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import magprop as mp
from magprop import oracle
from magprop.errors import AdjudicationError, ConvergenceError, ValidationError
from magprop.oracle import _richardson, _sliced_block_form, _sliced_elimination


# -- test-only reference: the dense form and its eigendecomposition --------


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

    def test_exhausted_levels_raise(self):
        q = mp.CPQuery(t=0.5, k=1.0, y1=0.0, y2=0.0)
        with pytest.raises(ConvergenceError):
            mp.time_sliced_propagator(q, 8, max_levels=1)

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
        assert oracle._SLICE_BYTES * 4096 < oracle._SLICED_MEMORY_BUDGET

    def test_4096_slices_follow_the_first_order_law(self):
        # dense, this form would take 2 GB; the 1/N law predicts about 6e-5
        q = mp.CPQuery(t=0.7, k=1.0, y1=0.2, y2=0.1)
        want = mp.propagator(q)
        assert abs(mp.time_sliced_propagator(q, 4096) - want) / abs(want) < 1e-4


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

