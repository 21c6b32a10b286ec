import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import magprop as mp
import magprop.magnetic as magnetic
from magprop.errors import CausticError, ValidationError
from magprop.magnetic import (
    _closed_preimage,
    _hurwitz_zeta,
    _id_plus_k_inverse,
    _k_over_sin,
    _k_over_tan,
    _n_inverse_apply,
    _resolvent_g,
    _tan_over_k,
    kernel_value,
)


def _dense_resolvent_g(grid, k):
    """Test-only reference: the application matrix of G = (k^2 A - 1)^-1
    built densely from its analytic kernel (the route magnetic used before
    its O(n) apply)."""
    n = grid.n
    t = grid.t_end
    if k == 0:
        return -np.eye(n, dtype=complex)
    s = grid.nodes
    ckt = math.cos(k * t)
    diff = np.subtract.outer(s, s)
    lower = np.where(diff > 0, np.sin(k * diff), 0.0)
    gkern = k * (lower - np.outer(np.cos(k * s), np.sin(k * (t - s))) / ckt)
    return -np.eye(n, dtype=complex) + gkern * grid.weight


def _dense_n_inverse(grid, k):
    """Test-only reference: the closed N^-1 from dense matrix products of G,
    A, B and B* (the route n_inverse_closed used before its chained applies)."""
    g = _dense_resolvent_g(grid, k)
    blocks = {key: -1j * g for key in ((0, 0), (0, 1), (1, 0), (2, 2), (2, 3), (3, 2))}
    if k != 0:
        a_app = mp.discretize("A", grid).application
        b_app = mp.discretize("B", grid).application
        bs_app = b_app.T
        k3 = k**3
        ag = a_app @ g
        blocks[(1, 1)] = -1j * (k * k) * ag
        blocks[(3, 3)] = -1j * (k * k) * ag
        blocks[(0, 2)] = -1j * (-2.0 * k) * (g @ (b_app - bs_app) @ g)
        blocks[(0, 3)] = -1j * (-2.0) * (g @ (k * b_app - k3 * (bs_app @ a_app)) @ g)
        blocks[(1, 2)] = -1j * (2.0) * (g @ (k * bs_app - k3 * (a_app @ b_app)) @ g)
        blocks[(1, 3)] = -1j * (-2.0 * k3) * (g @ (a_app @ b_app - bs_app @ a_app) @ g)
    return mp.BlockOperator(grid, blocks)


# (t, k) for the apply checks: k = 0 and a tiny k, negative k, |cos kt| = 1e-3
# next to the caustic at kt = pi/2, and |k| = 20 at small t
_APPLY_CASES = [
    (1.0, 0.0),
    (1.0, 1e-6),
    (1.0, -2.0),
    (math.acos(1e-3) / 1.3, 1.3),
    (0.05, 20.0),
    (0.1, 20.0),
]


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestTrigHelpers:
    def test_exact_at_k_zero(self):
        assert _k_over_sin(0.0, 2.0) == 0.5
        assert _k_over_tan(0.0, 2.0) == 0.5
        assert _tan_over_k(0.0, 2.0) == 2.0

    def test_series_matches_direct_at_crossover(self):
        for x in (9e-5, 1.1e-4):
            t = 1.0
            k = x
            assert _k_over_sin(k, t) == pytest.approx(k / np.sin(k * t), rel=1e-13)
            assert _k_over_tan(k, t) == pytest.approx(k / np.tan(k * t), rel=1e-13)
            assert _tan_over_k(k, t) == pytest.approx(np.tan(k * t) / k, rel=1e-13)


class TestVariants:
    def test_validation(self):
        with pytest.raises(ValidationError):
            mp.KernelVariant("bogus", "plus")
        with pytest.raises(ValidationError):
            mp.KernelVariant("k_over", "sideways")

    def test_adjudicated_constant(self):
        assert mp.ADJUDICATED_VARIANT in mp.VARIANTS
        assert mp.ADJUDICATED_VARIANT.label() == "k_over/plus"

    @given(
        st.floats(0.1, 1.4),
        st.floats(-1.0, 1.0),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
    )
    def test_magnitude_variant_independent_of_sign(self, t, k, y1, y2):
        if k != 0 and abs(np.cos(k * t)) < 1e-3:
            return
        plus = kernel_value(mp.KernelVariant("k_over", "plus"), t, k, y1, y2)
        minus = kernel_value(mp.KernelVariant("k_over", "minus"), t, k, y1, y2)
        assert abs(plus) == pytest.approx(abs(minus), rel=1e-12)
        # magnitude carries no y dependence: the quadratic phase is unimodular
        origin = kernel_value(mp.KernelVariant("k_over", "plus"), t, k, 0.0, 0.0)
        assert abs(plus) == pytest.approx(abs(origin), rel=1e-12)


class TestOperators:
    def test_k_block_row_action(self, cp_unit):
        rng = np.random.default_rng(0)
        f = mp.GridFunction(cp_unit.grid, rng.standard_normal((4, cp_unit.grid.n)))
        out = cp_unit.K.apply(f)
        v = f.values
        assert np.allclose(out.values[0], -v[0] - 1j * v[1])
        assert np.allclose(out.values[1], -1j * v[0] + (-1 + 1j) * v[1])
        assert np.allclose(out.values[2], -v[2] - 1j * v[3])
        assert np.allclose(out.values[3], -1j * v[2] + (-1 + 1j) * v[3])

    def test_l_block_action_on_fourth_component(self, cp_unit):
        g = cp_unit.grid
        f4 = np.sin(3 * g.nodes)
        f = mp.GridFunction(g, np.stack([np.zeros(g.n)] * 3 + [f4]))
        out = cp_unit.L.apply(f)
        bstar = mp.discretize("Bstar", g)
        assert np.allclose(out.values[0], -2j * 1.0 * (bstar.application @ f4))
        assert np.allclose(out.values[1], 0)
        assert np.allclose(out.values[2], 0)
        assert np.allclose(out.values[3], 0)

    def test_l_vanishes_at_k_zero(self):
        g = mp.make_grid(1.0, 32)
        ops = mp.build_cp_operators(g, 0.0)
        assert ops.L.blocks == {}
        assert ops.N.dense() == pytest.approx((mp.block_identity(g) + ops.K).dense())

    def test_n_is_id_plus_k_plus_l(self, cp_unit):
        lhs = cp_unit.N.dense()
        rhs = np.eye(4 * cp_unit.grid.n) + cp_unit.K.dense() + cp_unit.L.dense()
        assert np.array_equal(lhs, rhs)


class TestClosedInverse:
    def test_forward_residual_order(self):
        errs = []
        for n in (128, 256, 512):
            g = mp.make_grid(1.0, n)
            ops = mp.build_cp_operators(g, 1.0)
            ninv = mp.n_inverse_closed(g, 1.0)
            prod = ops.N.compose(ninv)
            resid = 0.0
            for i in range(4):
                for j in range(4):
                    blk = prod.block(i, j)
                    if i == j:
                        blk = blk - np.eye(n)
                    resid = max(resid, np.abs(blk).max())
            errs.append(resid)
        assert errs[-1] < 1e-7
        assert np.log2(errs[0] / errs[1]) > 1.0
        assert np.log2(errs[1] / errs[2]) > 1.0

    def test_matches_dense_inverse_small(self):
        g = mp.make_grid(1.0, 256)
        ops = mp.build_cp_operators(g, 1.0)
        dense = mp.block_invert(ops.N)
        closed = mp.n_inverse_closed(g, 1.0)
        diff = max(
            np.abs(dense.block(i, j) - closed.block(i, j)).max()
            for i in range(4)
            for j in range(4)
        )
        assert diff < 1e-6

    @pytest.mark.slow
    def test_matches_dense_inverse_large(self):
        g = mp.make_grid(1.0, 2048)
        ops = mp.build_cp_operators(g, 1.0)
        dense = mp.block_invert(ops.N)
        closed = mp.n_inverse_closed(g, 1.0)
        diff = max(
            np.abs(dense.block(i, j) - closed.block(i, j)).max()
            for i in range(4)
            for j in range(4)
        )
        assert diff < 1e-6

    def test_small_k_top_left_block(self):
        g = mp.make_grid(1.0, 128)
        ninv = mp.n_inverse_closed(g, 1e-6)
        assert np.abs(ninv.block(0, 0) - 1j * np.eye(128)).max() < 1e-10

    def test_caustic_rejected(self):
        g = mp.make_grid(np.pi / 2, 64)
        with pytest.raises(CausticError):
            mp.n_inverse_closed(g, 1.0)


class TestChainedApplies:
    @pytest.mark.parametrize("n", [2, 3, 8, 64, 256])
    @pytest.mark.parametrize("t,k", _APPLY_CASES)
    def test_resolvent_apply_matches_dense_kernel(self, t, k, n):
        g = mp.make_grid(t, n)
        rng = np.random.default_rng(n)
        dense = _dense_resolvent_g(g, k)
        for shape in ((n,), (n, 3)):
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert _rel_err(_resolvent_g(g, k, v), dense @ v) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 8, 64, 256])
    @pytest.mark.parametrize("t,k", _APPLY_CASES)
    def test_n_inverse_apply_matches_dense_reference(self, t, k, n):
        g = mp.make_grid(t, n)
        dense = _dense_n_inverse(g, k).dense()
        # Next to a caustic the near-null mode of k^2 A - 1 (eigenvalue of
        # order cos kt) amplifies rounding in both routes by 1/|cos kt|: at
        # |cos kt| = 1e-3 each is off by up to 3.3e-13 from an extended-
        # precision build of this dense formula. Elsewhere the bound is 1e-13.
        tol = max(1e-13, 10 * np.finfo(float).eps / abs(math.cos(k * t)))
        rng = np.random.default_rng(n)
        for shape in ((4, n), (4, n, 3)):
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            want = (dense @ v.reshape(4 * n, -1)).reshape(shape)
            assert _rel_err(_n_inverse_apply(g, k, v), want) <= tol

    @pytest.mark.parametrize("n", [2, 3, 8, 64, 256])
    @pytest.mark.parametrize("t,k", _APPLY_CASES)
    def test_closed_blocks_match_dense_reference(self, t, k, n):
        g = mp.make_grid(t, n)
        want = _dense_n_inverse(g, k)
        got = mp.n_inverse_closed(g, k)
        assert got.blocks.keys() == want.blocks.keys()
        assert len(got.blocks) == (6 if k == 0 else 12)
        for key, blk in want.blocks.items():
            assert _rel_err(got.blocks[key], blk) <= 1e-12, key


class TestPreimages:
    @pytest.mark.parametrize("t,k", [(1.0, 1.0), (0.5, 2.0), (1.3, 0.7), (1.0, -1.0)])
    def test_bvp_matches_closed_form(self, t, k):
        g = mp.make_grid(t, 2048)
        for which in ("eta1", "eta3"):
            got = mp.solve_preimage(g, k, which)
            want = _closed_preimage(g, k, which)
            assert np.abs(got.values - want.values).max() < 1e-6

    def test_forward_application_recovers_pin(self):
        g = mp.make_grid(1.0, 2048)
        ops = mp.build_cp_operators(g, 1.0)
        pre = mp.solve_preimage(g, 1.0, "eta1")
        fwd = ops.N.apply(pre)
        target = np.zeros((4, g.n), dtype=complex)
        target[0] = 1.0
        assert np.abs(fwd.values - target).max() < 1e-4

    @pytest.mark.parametrize("n", [2, 3, 8, 64, 256])
    def test_matches_the_dense_solve_of_n(self, domain_tk, n):
        # the literal discretized N, through its tridiagonal resolvent, and
        # not an approximation of the ODE it discretizes
        t, k = domain_tk
        g = mp.make_grid(t, n)
        big_n = mp.build_cp_operators(g, k).N
        dense = big_n.dense()
        for which, comp in (("eta1", 0), ("eta3", 2)):
            eta = np.zeros((4, n), dtype=complex)
            eta[comp] = 1.0
            want = mp.GridFunction.from_flat(g, np.linalg.solve(dense, eta.reshape(-1)), 4)
            got = mp.solve_preimage(g, k, which)
            assert _rel_err(got.values, want.values) <= 1e-10, which
            residual = np.abs(big_n.apply(got).values - eta).max()
            dense_residual = np.abs(big_n.apply(want).values - eta).max()
            assert residual <= 10 * dense_residual + 1e-14, which

    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_eta1_preimage_is_the_first_block_of_eta3s(self, domain_tk, n):
        # both are -i M^-1 (1, 0): eta3's x23 and eta1's x01
        t, k = domain_tk
        g = mp.make_grid(t, n)
        x = mp.solve_preimage(g, k, "eta3").values
        zero = np.zeros(n, dtype=complex)
        want = np.stack([x[2], x[2], zero, zero])
        assert np.array_equal(mp.solve_preimage(g, k, "eta1").values, want)

    def test_fourth_component_duplicates_third(self):
        g = mp.make_grid(1.0, 128)
        pre = mp.solve_preimage(g, 0.8, "eta3")
        assert np.array_equal(pre.values[2], pre.values[3])

    def test_input_validation(self):
        g = mp.make_grid(1.0, 128)
        with pytest.raises(ValidationError):
            mp.solve_preimage(g, 1.0, "eta2")

    @pytest.mark.parametrize("which", [["eta1"], 1, 3])
    def test_which_is_a_pin_name(self, which):
        g = mp.make_grid(1.0, 16)
        for solve in (mp.solve_preimage, _closed_preimage):
            with pytest.raises(ValidationError, match="which must be 'eta1' or 'eta3'"):
                solve(g, 1.0, which)

    def test_closed_preimage_k_zero(self):
        g = mp.make_grid(1.0, 64)
        f = _closed_preimage(g, 0.0, "eta1")
        assert np.allclose(f.values[0], 1j) and np.allclose(f.values[1], 1j)
        assert np.allclose(f.values[2], 0) and np.allclose(f.values[3], 0)


class TestMMatrix:
    def test_closed_value(self):
        m = mp.m_matrix(1.0, 1.0)
        assert m[0, 0] == pytest.approx(1j * np.tan(1.0), abs=1e-14)
        assert m[0, 1] == 0 and m[1, 0] == 0
        assert m[1, 1] == m[0, 0]

    def test_k_zero_closed(self):
        m = mp.m_matrix(2.5, 0.0)
        assert np.array_equal(m, 2.5j * np.eye(2))

    def test_numerical_route(self):
        res = mp.m_matrix(1.0, 1.0, mp.make_grid(1.0, 2048))
        rel = np.abs(res.numerical - res.closed).max() / abs(res.closed[0, 0])
        assert rel < 1e-7
        assert abs(res.numerical[0, 1]) < 1e-8
        assert abs(res.numerical[1, 0]) < 1e-8

    def test_eta1_preimage_has_no_x2_component(self):
        # eta1's preimage is (a, a, 0, 0) exactly
        assert mp.m_matrix(1.0, 1.0, mp.make_grid(1.0, 512)).numerical[1, 0] == 0

    def test_one_preimage_solve(self, monkeypatch):
        # eta3's preimage alone: one resolvent per diagonal block of N
        calls = []
        resolvent = magnetic._discrete_resolvent

        def counted(*args):
            calls.append(args)
            return resolvent(*args)

        monkeypatch.setattr(magnetic, "_discrete_resolvent", counted)
        mp.m_matrix(1.0, 1.0, mp.make_grid(1.0, 256))
        assert len(calls) == 2

    def test_grid_span_mismatch(self):
        with pytest.raises(ValidationError):
            mp.m_matrix(1.0, 1.0, mp.make_grid(2.0, 64))

    def test_caustic(self):
        with pytest.raises(CausticError):
            mp.m_matrix(np.pi / 2, 1.0)


class TestSpectrum:
    def test_brute_force_cross_check(self):
        # literal eigenvalues of Id + L(Id+K)^-1 at small n vs the structured route
        t, k, n = 1.0, 1.0, 48
        g = mp.make_grid(t, n)
        ops = mp.build_cp_operators(g, k)
        target = mp.block_identity(g) + ops.L.compose(_id_plus_k_inverse(g))
        brute = np.sort_complex(np.linalg.eigvals(target.dense()))
        lam = np.linalg.eigvalsh(mp.discretize("A", g).application.real)
        structured = np.sort_complex(
            np.concatenate([1 - lam, 1 - lam, np.ones(2 * n)]).astype(complex)
        )
        assert np.abs(brute - structured).max() < 1e-10

    def test_multiplicities_and_closed_form(self):
        g = mp.make_grid(1.0, 512)
        res = mp.spectrum_idlk(g, 1.0, 4)
        assert res.multiplicities == (2, 2, 2, 2)
        for got, want in zip(res.eigenvalues, res.closed_form):
            assert got.real == pytest.approx(want, rel=1e-5)
            assert want < 1.0

    def test_k_zero_all_unit(self):
        res = mp.spectrum_idlk(mp.make_grid(1.0, 64), 0.0, 3)
        assert res.eigenvalues == (1.0 + 0j,)
        assert res.multiplicities == (6,)
        assert all(v == 1.0 for v in res.closed_form)

    def test_count_bounds(self):
        g = mp.make_grid(1.0, 16)
        with pytest.raises(ValidationError):
            mp.spectrum_idlk(g, 1.0, 0)
        with pytest.raises(ValidationError):
            mp.spectrum_idlk(g, 1.0, 17)
        assert mp.spectrum_idlk(g, 1.0, 2.0) == mp.spectrum_idlk(g, 1.0, 2)

    @pytest.mark.parametrize("count", [2.5, math.nan, math.inf])
    def test_count_is_an_integer(self, count):
        with pytest.raises(ValidationError, match="count must be an integer"):
            mp.spectrum_idlk(mp.make_grid(1.0, 16), 1.0, count)


class TestDeterminant:
    @pytest.mark.parametrize("kt", [0.3, 1.0, 1.3])
    def test_product_route(self, kt):
        d = mp.det_idlk(1.0, kt, "product", 10000)
        assert d == pytest.approx(np.cos(kt) ** 2, abs=1e-12)

    def test_dense_route_small(self):
        d = mp.det_idlk(1.0, 1.0, "dense", 256)
        assert d == pytest.approx(np.cos(1.0) ** 2, abs=1e-5)

    @pytest.mark.parametrize("t, k", [(1.0, 1.0), (0.7, -2.5)])
    def test_dense_route_is_the_literal_slogdet(self, t, k):
        g = mp.make_grid(t, 48)
        target = mp.block_identity(g) + mp.build_cp_operators(g, k).L.compose(
            _id_plus_k_inverse(g))
        sign, logabs = np.linalg.slogdet(target.dense())
        assert mp.det_idlk(t, k, "dense", 48) == complex(sign * np.exp(logabs))

    def test_trigamma_matches_scipy(self):
        polygamma = pytest.importorskip("scipy.special").polygamma
        for order in [*range(1, 300), 10**3, 10**4, 10**6, 10**9]:
            want = float(polygamma(1, order + 0.5))
            assert abs(_hurwitz_zeta(2, order + 0.5) - want) <= 4 * np.spacing(want), order

    def test_trigamma_matches_a_40_digit_value(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for x in (0.5, 1.5, 7.5, 19.5, 20.5, 1e3 + 0.5, 1e9 + 0.5):
                want = float(mpmath.polygamma(1, x))
                assert abs(_hurwitz_zeta(2, x) - want) <= 2 * np.spacing(want), x

    def test_hurwitz_zeta_matches_scipy(self):
        zeta = pytest.importorskip("scipy.special").zeta
        for s in range(2, 202, 2):
            for x in (1.5, 2.5, 7.5, 24.5, 100.5, 1e3 + 0.5, 1e6 + 0.5):
                want = float(zeta(s, x))
                if want > 1e-290:  # far from the subnormal range
                    assert abs(_hurwitz_zeta(s, x) - want) <= 1e-13 * want, (s, x)

    @pytest.mark.parametrize("kt", [0.3, 1.3, 3.0, 10.0])
    # 6 is the least order admitted at kt = 10
    @pytest.mark.parametrize("order", [1, 2, 4, 6, 10, 37, 100, 10000])
    def test_product_tail_is_exact_at_every_admitted_order(self, kt, order):
        if order + 0.5 < 2 * kt / np.pi:
            with pytest.raises(ValidationError, match=r"needs order >= \d+"):
                mp.det_idlk(1.0, kt, "product", order)
            return
        assert abs(mp.det_idlk(1.0, kt, "product", order) - np.cos(kt) ** 2) <= 1e-13

    def test_product_stays_finite_at_large_kt(self):
        # the body and the tail alone would overflow here
        kt = 5000.0
        order = math.ceil(2 * kt / np.pi - 0.5)
        assert abs(mp.det_idlk(1.0, kt, "product", order) - np.cos(kt) ** 2) <= 1e-10

    def test_k_zero(self):
        assert mp.det_idlk(1.0, 0.0, "product", 100) == 1.0
        assert mp.det_idlk(1.0, 0.0, "dense", 32) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            mp.det_idlk(1.0, 1.0, "magic", 100)
        with pytest.raises(ValidationError):
            mp.det_idlk(1.0, 1.0, "product", 0)
        with pytest.raises(ValidationError):
            mp.det_idlk(-1.0, 1.0, "product", 100)

    @pytest.mark.parametrize("order", [2.5, math.nan, math.inf])
    @pytest.mark.parametrize("method", ["product", "dense"])
    def test_order_is_an_integer(self, method, order):
        # order 2.5 once gave 0.28811 for cos^2(1) = 0.29193
        with pytest.raises(ValidationError, match="order must be an integer"):
            mp.det_idlk(1.0, 1.0, method, order)


class TestMemoryBudget:
    # each size's unguarded allocation would be over 1 TB, so these fail at
    # once with or without the guard; AC-02 (n = 2048) and AC-03 (order
    # 1024) run under the same budget
    @pytest.mark.parametrize("call, what", [
        (lambda: mp.spectrum_idlk(mp.make_grid(1.0, 10**6), 1.0, 5), "spectrum at n = 1000000"),
        (lambda: mp.det_idlk(1.0, 1.0, "dense", 10**6), "dense at order 1000000"),
        (lambda: mp.det_idlk(1.0, 1.0, "product", 10**13), "product at order 10000000000000"),
    ], ids=["spectrum", "dense", "product"])
    def test_over_budget_fails_before_allocating(self, call, what):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=rf"{what} .* MiB, over the 1024 MiB"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5


class TestBuilderMemory:
    """n_inverse_closed and build_cp_operators check their working sets."""

    @pytest.mark.parametrize("build, what", [
        (mp.n_inverse_closed, "n_inverse_closed at n = 512"),
        (mp.build_cp_operators, "build_cp_operators at n = 512"),
    ], ids=["n_inverse_closed", "build_cp_operators"])
    def test_over_budget_fails_before_allocating(self, monkeypatch, build, what):
        monkeypatch.setattr("magprop.errors.MEMORY_BUDGET", 4 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=rf"{what} .* over the 4 MiB"):
                build(mp.make_grid(1.0, 512), 1.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_closed_inverse_peak_within_its_estimate(self):
        n = 256
        g = mp.make_grid(1.0, n)
        tracemalloc.start()
        try:
            ninv = mp.n_inverse_closed(g, 1.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 224 * n * n
        # the six -i G blocks are one array, and so are (1, 1) and (3, 3)
        assert len({id(blk) for blk in ninv.blocks.values()}) == 6


class TestGeneratingFunctional:
    def make_xi(self, g):
        s = g.nodes
        return mp.GridFunction.stack(g, [
            0.5 * np.exp(-(((s - 0.4) / 0.12) ** 2)),
            -0.3 * np.exp(-(((s - 0.6) / 0.2) ** 2)),
            0.2 * np.sin(2 * s),
            0.1 * np.cos(s),
        ])

    def test_zero_argument_equals_propagator_exactly(self):
        q = mp.CPQuery(t=1.0, k=1.0, y1=0.4, y2=-0.3)
        g = mp.make_grid(1.0, 64)
        assert mp.generating_functional(q).value == mp.propagator(q)
        assert mp.generating_functional(q, mp.GridFunction.zero(g, d=4)).value == mp.propagator(q)

    def test_matches_pinned_gauss_engine(self, cp_unit, pins_unit):
        g = cp_unit.grid
        xi = self.make_xi(g)
        y1, y2 = 0.4, -0.3
        eta1, eta3 = pins_unit
        engine = mp.tt_pinned_gauss(
            mp.PinnedGaussSpec(K=cp_unit.K, L=cp_unit.L, pins=((eta1, y1), (eta3, y2))), xi
        )
        closed = mp.generating_functional(mp.CPQuery(t=1.0, k=1.0, y1=y1, y2=y2), xi)
        assert abs(engine.value - closed.value) / abs(closed.value) < 1e-5

    def test_reflection_and_rotation_invariance(self):
        # the planar dof swap is an orientation-reversing map: it is a symmetry
        # only together with k -> -k; the quarter turn is a symmetry at fixed k
        t, k, n = 1.0, 1.0, 192
        g = mp.make_grid(t, n)
        xi = self.make_xi(g)
        y1, y2 = 0.4, -0.3
        base = mp.generating_functional(mp.CPQuery(t=t, k=k, y1=y1, y2=y2), xi).value

        xi_swap = mp.GridFunction(g, xi.values[[2, 3, 0, 1]])
        refl = mp.generating_functional(mp.CPQuery(t=t, k=-k, y1=y2, y2=y1), xi_swap).value
        assert abs(refl - base) / abs(base) < 1e-6

        xi_rot = mp.GridFunction(
            g, np.stack([xi.values[2], xi.values[3], -xi.values[0], -xi.values[1]])
        )
        rot = mp.generating_functional(mp.CPQuery(t=t, k=k, y1=y2, y2=-y1), xi_rot).value
        assert abs(rot - base) / abs(base) < 1e-6

        # the bare swap at fixed k is NOT a symmetry for a generic argument
        bare = mp.generating_functional(mp.CPQuery(t=t, k=k, y1=y2, y2=y1), xi_swap).value
        assert abs(bare - base) / abs(base) > 100 * abs(refl - base) / abs(base)

    def test_bare_swap_holds_at_zero_argument(self):
        q = mp.CPQuery(t=1.0, k=1.0, y1=0.3, y2=-0.6)
        q_swap = mp.CPQuery(t=1.0, k=1.0, y1=-0.6, y2=0.3)
        assert mp.generating_functional(q).value == mp.generating_functional(q_swap).value

    def test_argument_validation(self):
        q = mp.CPQuery(t=1.0, k=1.0, y1=0.0, y2=0.0)
        g_wrong = mp.make_grid(2.0, 64)
        with pytest.raises(ValidationError):
            mp.generating_functional(q, mp.GridFunction.stack(g_wrong, [1.0, 0, 0, 0]))
        g = mp.make_grid(1.0, 64)
        with pytest.raises(ValidationError):
            mp.generating_functional(q, mp.GridFunction.sample(g, np.ones_like))

    def test_determinant_fields(self):
        q = mp.CPQuery(t=1.0, k=1.0, y1=0.0, y2=0.0)
        v = mp.generating_functional(q)
        assert v.det_NK == pytest.approx(np.cos(1.0) ** 2)
        assert v.det_M == pytest.approx(-np.tan(1.0) ** 2)

    def test_large_n_in_linear_memory(self):
        # a dense 4n x 4n inverse at n = 2^18 would take about 17 TB
        q = mp.CPQuery(t=1.0, k=1.0, y1=0.4, y2=-0.3)

        def value(n):
            return mp.generating_functional(q, self.make_xi(mp.make_grid(1.0, n))).value

        coarse = value(2**16)
        tracemalloc.start()
        try:
            fine = value(2**18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128e6
        assert abs(fine - coarse) <= 1e-9 * abs(fine)

    def test_y3_factor(self):
        g = mp.make_grid(1.0, 96)
        xi = self.make_xi(g)
        planar = mp.generating_functional(mp.CPQuery(t=1.0, k=1.0, y1=0.1, y2=0.2), xi)
        full = mp.generating_functional(
            mp.CPQuery(t=1.0, k=1.0, y1=0.1, y2=0.2, y3=0.7), xi
        )
        factor = np.exp(-0.25j * np.pi) / np.sqrt(2 * np.pi) * np.exp(0.5j * 0.7**2)
        assert full.value == pytest.approx(planar.value * factor, rel=1e-12)


class TestPropagator:
    def test_reference_magnitude(self):
        v = mp.propagator(mp.CPQuery(t=1.0, k=1.0, y1=0.0, y2=0.0))
        assert v == pytest.approx(-1j / (2 * np.pi * np.sin(1.0)), abs=1e-15)

    def test_free_kernel_at_k_zero(self):
        q = mp.CPQuery(t=0.5, k=0.0, y1=0.3, y2=-0.2)
        ref = 1 / (2j * np.pi * 0.5) * np.exp(1j * (0.3**2 + 0.2**2) / (2 * 0.5))
        assert mp.propagator(q) == pytest.approx(ref, rel=1e-15)

    def test_small_k_joins_free_kernel(self):
        q = mp.CPQuery(t=1.0, k=1e-4, y1=1.0, y2=0.0)
        free = 1 / (2j * np.pi) * np.exp(1j * 0.5)
        assert abs(mp.propagator(q) - free) / abs(free) < 1e-6

    def test_caustic_rejected(self):
        with pytest.raises(CausticError):
            mp.propagator(mp.CPQuery(t=np.pi / 2, k=1.0, y1=0.0, y2=0.0))
        with pytest.raises(CausticError):
            mp.CPQuery(t=3 * np.pi / 2, k=1.0, y1=0.0, y2=0.0).validate()

    def test_focal_time_is_not_gated(self):
        # kt = pi has cos(kt) = -1, so it passes the caustic gate; the kernel
        # magnitude there blows up like 1/sin(kt), which is the honest value
        v = mp.propagator(mp.CPQuery(t=np.pi, k=1.0, y1=0.1, y2=0.1))
        assert abs(v) > 1e10

    def test_query_validation(self):
        with pytest.raises(ValidationError):
            mp.CPQuery(t=-1.0, k=1.0, y1=0.0, y2=0.0).validate()
        with pytest.raises(ValidationError):
            mp.CPQuery(t=1.0, k=np.inf, y1=0.0, y2=0.0).validate()
        with pytest.raises(ValidationError):
            mp.CPQuery(t=1.0, k=1.0, y1=np.nan, y2=0.0).validate()
        with pytest.raises(ValidationError):
            mp.CPQuery(t=1.0, k=1.0, y1=0.0, y2=0.0, y3=np.inf).validate()

    def test_y3_reference(self):
        base = mp.propagator(mp.CPQuery(t=2.0, k=0.5, y1=0.1, y2=0.0))
        with_y3 = mp.propagator(mp.CPQuery(t=2.0, k=0.5, y1=0.1, y2=0.0, y3=1.2))
        factor = np.exp(-0.25j * np.pi) / np.sqrt(4 * np.pi) * np.exp(0.5j * 1.2**2 / 2.0)
        assert with_y3 == pytest.approx(base * factor, rel=1e-13)
