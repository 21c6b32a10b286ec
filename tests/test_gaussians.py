import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import magprop as mp
import magprop.gaussians as gaussians
from magprop.errors import (
    CausticError,
    DegeneratePinningError,
    SingularOperatorError,
    ValidationError,
)
from magprop.grid import BlockOperator, OperatorMatrix, _block_groups


def rank_one_quarter(grid):
    """K = -1/4 <., 1>1 as a kernel operator: constant kernel -1/4."""
    return OperatorMatrix(grid, -0.25 * np.ones((grid.n, grid.n)))


class TestGaussKernel:
    def test_rank_one_projector_value(self, unit_grid):
        v = mp.tt_gauss_kernel(rank_one_quarter(unit_grid), mp.GridFunction.zero(unit_grid))
        assert v.value == pytest.approx((3.0 / 4.0) ** -0.5, abs=1e-12)
        assert v.det_NK == pytest.approx(0.75, abs=1e-12)

    def test_rank_one_resolvent_action(self, unit_grid):
        # (Id+K)^-1 applied to the indicator is (4/3) * indicator
        k = rank_one_quarter(unit_grid)
        app = np.eye(unit_grid.n) + k.application
        x = np.linalg.solve(app, np.ones(unit_grid.n))
        assert np.abs(x - 4.0 / 3.0).max() < 1e-12

    def test_rank_one_at_imaginary_indicator(self, unit_grid):
        f = mp.GridFunction.sample(unit_grid, lambda s: 1j * np.ones_like(s))
        v = mp.tt_gauss_kernel(rank_one_quarter(unit_grid), f)
        # exponent: -1/2 (i1, (4/3) i1) = -1/2 * (4/3) * (-1) = +2/3
        assert v.value == pytest.approx((0.75) ** -0.5 * np.exp(2.0 / 3.0), rel=1e-12)

    def test_zero_operator(self, unit_grid):
        f = mp.GridFunction.sample(unit_grid, lambda s: np.sin(s))
        v = mp.tt_gauss_kernel(None, f)
        assert v.value == pytest.approx(np.exp(-0.5 * mp.pair(f, f)))
        assert v.det_NK == 1.0 + 0j

    def test_asymmetric_rejected(self, unit_grid):
        kern = np.triu(np.ones((unit_grid.n, unit_grid.n)))
        with pytest.raises(ValidationError):
            mp.tt_gauss_kernel(OperatorMatrix(unit_grid, kern), mp.GridFunction.zero(unit_grid))

    def test_singular_id_plus_k(self):
        g = mp.make_grid(1.0, 16)
        k = OperatorMatrix(g, -np.eye(16), kind="mult")
        with pytest.raises(SingularOperatorError):
            mp.tt_gauss_kernel(k, mp.GridFunction.zero(g))

    def test_failed_solve_raises(self, unit_grid, monkeypatch):
        # the engine's residual check covers the Gauss kernel too
        monkeypatch.setattr(gaussians, "_group_solve",
                            lambda nmat, groups, rhs: np.zeros(rhs.shape, dtype=complex))
        f = mp.GridFunction.sample(unit_grid, np.ones_like)
        with pytest.raises(SingularOperatorError):
            mp.tt_gauss_kernel(rank_one_quarter(unit_grid), f)

    @given(st.integers(0, 2**31 - 1))
    def test_diagonal_closed_form(self, seed):
        g = mp.make_grid(1.0, 24)
        rng = np.random.default_rng(seed)
        kappa = rng.uniform(-0.4, 0.4, 24)
        k = OperatorMatrix(g, np.diag(kappa), kind="mult")
        v = mp.tt_gauss_kernel(k, mp.GridFunction.zero(g))
        assert v.value == pytest.approx(np.prod(1.0 + kappa) ** -0.5, rel=1e-10)


class TestMonteCarlo:
    def test_rank_one_target(self, unit_grid):
        est, se = mp.mc_gauss_expectation(rank_one_quarter(unit_grid), 10**6, 20260815)
        assert se > 0
        assert abs(est - np.sqrt(2.0)) < 3 * se

    def test_seed_reproducibility(self, unit_grid):
        k = rank_one_quarter(unit_grid)
        a = mp.mc_gauss_expectation(k, 5000, 99)
        b = mp.mc_gauss_expectation(k, 5000, 99)
        assert a == b

    def test_sample_floor(self, unit_grid):
        with pytest.raises(ValidationError):
            mp.mc_gauss_expectation(rank_one_quarter(unit_grid), 10, 1)

    def test_eigenvalue_range_enforced(self):
        g = mp.make_grid(1.0, 8)
        pos = OperatorMatrix(g, np.diag([0.3] + [0.0] * 7), kind="mult")
        with pytest.raises(ValidationError):
            mp.mc_gauss_expectation(pos, 2000, 1)
        deep = OperatorMatrix(g, np.diag([-0.6] + [0.0] * 7), kind="mult")
        with pytest.raises(ValidationError):
            mp.mc_gauss_expectation(deep, 2000, 1)

    def test_zero_operator_exact(self):
        g = mp.make_grid(1.0, 8)
        est, se = mp.mc_gauss_expectation(OperatorMatrix(g, np.zeros((8, 8))), 2000, 1)
        assert (est, se) == (1.0, 0.0)

    def test_stderr_scaling(self, unit_grid):
        k = rank_one_quarter(unit_grid)
        _, se1 = mp.mc_gauss_expectation(k, 250_000, 7)
        _, se2 = mp.mc_gauss_expectation(k, 1_000_000, 7)
        assert se1 / se2 == pytest.approx(2.0, rel=0.2)


class TestNexpProduct:
    def test_l_zero_is_normalized_exponential(self, unit_grid):
        k = rank_one_quarter(unit_grid)
        f = mp.GridFunction.sample(unit_grid, lambda s: np.cos(2 * s))
        v = mp.tt_nexp_product(k, None, f)
        app = np.eye(unit_grid.n) + k.application
        x = np.linalg.solve(app, f.values[0])
        expo = -0.5 * unit_grid.weight * np.dot(f.values[0], x)
        assert v.det_NK == 1.0 + 0j
        assert v.value == pytest.approx(np.exp(expo), rel=1e-12)

    def test_charged_particle_normalization(self, cp_unit):
        # f = 0: value is det(Id+L(Id+K)^-1)^(-1/2) = 1/cos(1) up to O(h^2)
        v = mp.tt_nexp_product(cp_unit.K, cp_unit.L, mp.GridFunction.zero(cp_unit.grid, d=4))
        assert abs(v.value - 1.0 / np.cos(1.0)) < 1e-5
        assert abs(v.det_NK - np.cos(1.0) ** 2) < 1e-5

    def test_product_formula_against_dense(self):
        g = mp.make_grid(1.0, 20)
        rng = np.random.default_rng(2)
        ka = rng.standard_normal((20, 20)) * 0.1
        ka = (ka + ka.T) / 2
        la = rng.standard_normal((20, 20)) * 0.1
        la = (la + la.T) / 2
        k_op = OperatorMatrix(g, ka, kind="mult")
        l_op = OperatorMatrix(g, la, kind="mult")
        f = mp.GridFunction(g, rng.standard_normal(20))
        v = mp.tt_nexp_product(k_op, l_op, f)
        core = np.linalg.solve(np.eye(20) + ka, la)
        det = np.prod(1 + np.linalg.eigvals(core))
        x = np.linalg.solve(np.eye(20) + ka + la, f.values[0])
        ref = det ** -0.5 * np.exp(-0.5 * g.weight * np.dot(f.values[0], x))
        assert v.value == pytest.approx(ref, rel=1e-10)

    def test_vanishing_determinant(self):
        g = mp.make_grid(1.0, 8)
        l_op = OperatorMatrix(g, -np.eye(8), kind="mult")
        with pytest.raises(CausticError):
            mp.tt_nexp_product(None, l_op, mp.GridFunction.zero(g))


class TestShiftAndDonsker:
    def test_linear_shift_identity(self):
        g = mp.make_grid(1.0, 48)
        base = lambda ff: mp.tt_gauss_kernel(None, ff)
        shift = mp.GridFunction.sample(g, lambda s: 0.3 * np.cos(s))
        f = mp.GridFunction.sample(g, lambda s: np.sin(2 * s))
        got = mp.tt_linear_shift(base, shift, 0.2 + 0.1j, f)
        want = mp.tt_gauss_kernel(None, f + shift).value * np.exp(0.2 + 0.1j)
        assert got == want

    def test_donsker_reference_point(self, unit_grid):
        eta = mp.GridFunction.sample(unit_grid, np.ones_like)
        v = mp.tt_donsker(eta, 0.0, mp.GridFunction.zero(unit_grid))
        assert v == pytest.approx((2 * np.pi) ** -0.5, abs=1e-14)

    def test_donsker_degenerate_eta(self):
        g = mp.make_grid(1.0, 2)
        eta = mp.GridFunction(g, np.array([1.0, 1.0j]))  # pair(eta, eta) = 0
        with pytest.raises(ValidationError):
            mp.tt_donsker(eta, 0.0, mp.GridFunction.zero(g))


class TestPinnedGauss:
    def test_reduces_to_donsker(self):
        g = mp.make_grid(1.0, 48)
        rng = np.random.default_rng(17)
        for _ in range(20):
            eta = mp.GridFunction(g, rng.standard_normal(48))
            y = float(rng.standard_normal())
            f = mp.GridFunction(g, rng.standard_normal(48) + 1j * rng.standard_normal(48))
            pinned = mp.tt_pinned_gauss(mp.PinnedGaussSpec(pins=((eta, y),)), f)
            direct = mp.tt_donsker(eta, y, f)
            assert abs(pinned.value - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_no_pins_reduces_to_nexp(self, cp_unit):
        f = mp.GridFunction.stack(
            cp_unit.grid, [lambda s: np.sin(s), 0.2, lambda s: np.cos(s), 0.0]
        )
        a = mp.tt_pinned_gauss(mp.PinnedGaussSpec(K=cp_unit.K, L=cp_unit.L), f)
        b = mp.tt_nexp_product(cp_unit.K, cp_unit.L, f)
        assert a.value == pytest.approx(b.value, rel=1e-12)
        assert a.det_NK == pytest.approx(b.det_NK, rel=1e-12)

    def test_equal_endpoint_pins(self):
        # Equal pins make the pinning matrix [[ia, ie], [ie, ia]] with
        # e ~ 1e-17 a; on this case LAPACK's eigensolver did not converge.
        t, k = 0.5959519055078327, -0.9487937499610062
        y1, y2 = 0.37118829363228345, 0.3067233832646371
        g = mp.make_grid(t, 64)
        vals = np.zeros((4, g.n), dtype=complex)
        for comp, amp, center, width in ((0, -0.196176, 0.38826, 0.10249),
                                         (2, -0.145513, 0.418595, 0.084791)):
            vals[comp] += amp * np.exp(-(((g.nodes - center) / width) ** 2))
        xi = mp.GridFunction(g, vals)
        ones, zeros = np.ones(g.n), np.zeros(g.n)
        eta1 = mp.GridFunction.stack(g, [ones, zeros, zeros, zeros])
        eta3 = mp.GridFunction.stack(g, [zeros, zeros, ones, zeros])
        ops = mp.build_cp_operators(g, k)
        spec = mp.PinnedGaussSpec(K=ops.K, L=ops.L, pins=((eta1, y1), (eta3, y2)))
        got = mp.tt_pinned_gauss(spec, xi).value
        want = mp.generating_functional(mp.CPQuery(t=t, k=k, y1=y1, y2=y2), xi).value
        assert abs(got - want) <= 1e-4 * abs(want)

    def test_shift_field_matches_manual_shift(self, unit_grid):
        rng = np.random.default_rng(4)
        eta = mp.GridFunction(unit_grid, rng.standard_normal(unit_grid.n))
        g_fn = mp.GridFunction(unit_grid, 0.3 * rng.standard_normal(unit_grid.n))
        f = mp.GridFunction(unit_grid, rng.standard_normal(unit_grid.n))
        with_g = mp.tt_pinned_gauss(mp.PinnedGaussSpec(g=g_fn, pins=((eta, 0.4),)), f)
        manual = mp.tt_pinned_gauss(mp.PinnedGaussSpec(pins=((eta, 0.4),)), f + g_fn)
        assert with_g.value == pytest.approx(manual.value, rel=1e-12)

    def test_charged_particle_magnitude(self, cp_unit, pins_unit):
        eta1, eta3 = pins_unit
        spec = mp.PinnedGaussSpec(K=cp_unit.K, L=cp_unit.L, pins=((eta1, 0.0), (eta3, 0.0)))
        v = mp.tt_pinned_gauss(spec, mp.GridFunction.zero(cp_unit.grid, d=4))
        assert abs(abs(v.value) - 1.0 / (2 * np.pi * np.sin(1.0))) < 1e-5
        assert v.det_M == pytest.approx(-np.tan(1.0) ** 2, rel=1e-4)
        assert v.det_NK == pytest.approx(np.cos(1.0) ** 2, rel=1e-4)

    def test_pin_orthogonality_enforced(self, unit_grid):
        eta = mp.GridFunction.sample(unit_grid, np.ones_like)
        spec = mp.PinnedGaussSpec(pins=((eta, 0.0), (eta, 1.0)))
        with pytest.raises(ValidationError, match="orthogonal"):
            mp.tt_pinned_gauss(spec, mp.GridFunction.zero(unit_grid))

    def test_zero_pin_rejected(self, unit_grid):
        zero = mp.GridFunction.zero(unit_grid)
        with pytest.raises(ValidationError):
            mp.tt_pinned_gauss(mp.PinnedGaussSpec(pins=((zero, 0.0),)), zero)

    def test_pinning_positivity_guard(self, unit_grid):
        # purely imaginary pin makes (eta, eta) < 0: fails the Re M >= 0 condition
        eta = mp.GridFunction.sample(unit_grid, lambda s: 1j * np.ones_like(s))
        with pytest.raises(DegeneratePinningError):
            mp.tt_pinned_gauss(
                mp.PinnedGaussSpec(pins=((eta, 0.0),)), mp.GridFunction.zero(unit_grid)
            )

    def test_branch_note_mentions_anchor(self, unit_grid):
        eta = mp.GridFunction.sample(unit_grid, np.ones_like)
        v = mp.tt_pinned_gauss(
            mp.PinnedGaussSpec(pins=((eta, 0.0),)), mp.GridFunction.zero(unit_grid)
        )
        assert "0.001" in v.branch_note  # t/1000 on the unit grid

    def test_engine_continuity_along_time_path(self):
        # no branch jumps: relative step-to-step change stays far below 0.5
        k, n = 1.0, 96
        vals = []
        for t in np.linspace(0.3, 1.4, 23):
            g = mp.make_grid(float(t), n)
            ops = mp.build_cp_operators(g, k)
            ones, zeros = np.ones(n), np.zeros(n)
            eta1 = mp.GridFunction.stack(g, [ones, zeros, zeros, zeros])
            eta3 = mp.GridFunction.stack(g, [zeros, zeros, ones, zeros])
            spec = mp.PinnedGaussSpec(K=ops.K, L=ops.L, pins=((eta1, 0.0), (eta3, 0.0)))
            vals.append(mp.tt_pinned_gauss(spec, mp.GridFunction.zero(g, d=4)).value)
        jumps = [
            abs(vals[i + 1] - vals[i]) / max(abs(vals[i + 1]), abs(vals[i]))
            for i in range(len(vals) - 1)
        ]
        assert max(jumps) < 0.5


def dense_matrix(op, dim):
    if op is None:
        return np.zeros((dim, dim))
    return op.application if isinstance(op, OperatorMatrix) else op.dense()


def dense_pinned_gauss(spec, f):
    """The pinned formula by the engine's former dense route, kept as the
    reference: every eigenvalue of the dense (Id+K)^-1 L, one dense solve
    with N. Returns (value, det_NK, smallest |factor|).

    Factor imaginary parts at rounding level are set to zero before the
    principal logs. Past the first caustic a pair of equal charged-particle
    factors lies on the negative real axis, where the principal branch
    follows the sign of that rounding; the engine rounds the two alike, the
    dense spectrum need not (at n = 32, kt = 2 it gives +1/|cos kt|).
    """
    grid, dim = f.grid, f.values.size
    F = f + spec.g if spec.g is not None else f
    ik = np.eye(dim) + dense_matrix(spec.K, dim)
    lapp = dense_matrix(spec.L, dim)
    factors = 1.0 + np.linalg.eigvals(np.linalg.solve(ik, lapp))
    factors = np.where(np.abs(factors.imag) <= 1e-13 * np.abs(factors), factors.real + 0j, factors)
    etas = [eta.flat() for eta, _ in spec.pins]
    sol = np.linalg.solve(ik + lapp, np.stack([F.flat(), *etas], axis=1))
    h = grid.weight
    log_value = -0.5 * np.sum(np.log(factors)) - 0.5 * h * F.flat() @ sol[:, 0]
    if etas:
        E = np.stack(etas, axis=1)
        m = h * E.T @ sol[:, 1:]
        m = 0.5 * (m + m.T)
        u = 1j * np.array([y for _, y in spec.pins])
        u = u + 0.5 * h * (E.T @ sol[:, 0] + sol[:, 1:].T @ F.flat())
        log_value += (-0.5 * np.sum(np.log(2 * np.pi * np.linalg.eigvals(m)))
                      + 0.5 * u @ np.linalg.solve(m, u))
    return complex(np.exp(log_value)), complex(np.prod(factors)), float(np.abs(factors).min())


def assert_matches_dense(spec, f):
    got = mp.tt_pinned_gauss(spec, f)
    value, det, fmin = dense_pinned_gauss(spec, f)
    # Both routes round each factor 1 + mu at the ulp level, and the relative
    # error of the product is that over the smallest factor (about 1e-3 at
    # |cos kt| = 1e-3): the bound is 1e-12 while every factor is >= 0.03.
    tol = 1e-12 * max(1.0, 0.03 / fmin)
    assert abs(got.det_NK - det) <= tol * abs(det)
    assert abs(got.value - value) <= tol * abs(value)


def random_block(rng, n, scale):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n


def random_blocks(rng, grid, keys, scale=0.1):
    """BlockOperator with a random dense block at each key (a random scalar
    block at every third one)."""
    blocks = {}
    for idx, key in enumerate(keys):
        if idx % 3 == 2:
            blocks[key] = complex(scale * rng.standard_normal(), scale * rng.standard_normal())
        else:
            blocks[key] = random_block(rng, grid.n, scale)
    return BlockOperator(grid, blocks)


def symmetric_blocks(rng, grid, keys):
    """random_blocks at keys plus its transpose under the pairing."""
    half = random_blocks(rng, grid, keys)
    return half + BlockOperator(grid, {(j, i): blk if np.isscalar(blk) else blk.T
                                       for (i, j), blk in half.blocks.items()})


FULL = [(i, j) for i in range(4) for j in range(4)]
LOWER = [(i, j) for i in range(4) for j in range(i + 1)]
# K couples {0, 1} and {2, 3}; L has blocks in group {0, 1} and across the
# groups, none inside group {2, 3}.
PAIRED_K = [(0, 0), (0, 1), (1, 0), (2, 3), (3, 2), (3, 3)]
PAIRED_L = [(1, 1), (0, 2), (1, 3), (0, 3)]


class TestBlockGroupRoute:
    """tt_pinned_gauss against its former dense route, and the block groups."""

    @staticmethod
    def cp_inputs(t, k, n):
        g = mp.make_grid(t, n)
        ops = mp.build_cp_operators(g, k)
        rng = np.random.default_rng(n)
        f = mp.GridFunction(g, 0.3 * (rng.standard_normal((4, n))
                                      + 1j * rng.standard_normal((4, n))))
        shift = mp.GridFunction(g, 0.2 * rng.standard_normal((4, n)))
        ones, zeros = np.ones(n), np.zeros(n)
        pins = ((mp.GridFunction.stack(g, [ones, zeros, zeros, zeros]), 0.3),
                (mp.GridFunction.stack(g, [zeros, zeros, 2 * ones, zeros]), -0.4))
        return ops, f, shift, pins

    @pytest.mark.parametrize("n", [2, 3, 8, 32, 64])
    @pytest.mark.parametrize("t, k", [
        (1.0, 0.0), (1.0, 1e-6), (1.0, -2.0), (1.0, 1.3),
        (1.0, math.acos(1e-3)),  # |cos kt| = 1e-3
        (0.8, 3.0),  # kt = 2.4, between pi/2 and 3 pi/2
    ])
    def test_charged_particle(self, n, t, k):
        ops, f, shift, pins = self.cp_inputs(t, k, n)
        assert_matches_dense(mp.PinnedGaussSpec(K=ops.K, L=ops.L), f)
        assert_matches_dense(mp.PinnedGaussSpec(K=ops.K, L=ops.L, g=shift, pins=pins), f)

    @pytest.mark.parametrize("n", [2, 3, 8, 32, 64])
    def test_one_component_operators(self, n):
        g = mp.make_grid(1.0, n)
        rng = np.random.default_rng(n)
        k_op = OperatorMatrix(g, random_block(rng, n, 0.3) / g.weight)
        l_op = OperatorMatrix(g, random_block(rng, n, 0.3) / g.weight)
        f = mp.GridFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        shift = mp.GridFunction(g, 0.2 * rng.standard_normal(n))
        eta = mp.GridFunction(g, np.ones(n))
        assert_matches_dense(mp.PinnedGaussSpec(K=k_op, L=l_op), f)
        assert_matches_dense(mp.PinnedGaussSpec(K=k_op, L=l_op, g=shift, pins=((eta, 0.7),)), f)

    @pytest.mark.parametrize("n", [2, 3, 8, 32, 64])
    @pytest.mark.parametrize("k_keys, l_keys, groups", [
        (FULL, FULL, [[0, 1, 2, 3]]),
        (LOWER, LOWER, [[3], [2], [1], [0]]),
        (PAIRED_K, PAIRED_L, [[0, 1], [2, 3]]),
    ], ids=["full", "lower", "no_l_in_one_group"])
    def test_random_block_operators(self, n, k_keys, l_keys, groups):
        g = mp.make_grid(1.0, n)
        rng = np.random.default_rng(n)
        k_op, l_op = random_blocks(rng, g, k_keys), random_blocks(rng, g, l_keys)
        assert _block_groups(4, k_op, l_op) == groups
        f = mp.GridFunction(g, rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)))
        shift = mp.GridFunction(g, 0.2 * rng.standard_normal((4, n)))
        ones, zeros = np.ones(n), np.zeros(n)
        pins = ((mp.GridFunction.stack(g, [ones, zeros, zeros, zeros]), 0.3),
                (mp.GridFunction.stack(g, [zeros, ones, zeros, zeros]), -0.2))
        assert_matches_dense(mp.PinnedGaussSpec(K=k_op, L=l_op), f)
        assert_matches_dense(mp.PinnedGaussSpec(K=k_op, L=l_op, g=shift, pins=pins), f)

    def test_charged_particle_groups(self, cp_unit):
        assert _block_groups(4, cp_unit.K, cp_unit.L) == [[0, 1], [2, 3]]

    @pytest.mark.parametrize("kt", [2.0, -2.0, 4.0, 5.0])
    def test_sign_past_the_first_caustic(self, kt):
        # det(Id+L(Id+K)^-1)^(-1/2) continues as 1/cos(kt): each pair of
        # negative factors contributes one sign flip. The quadrature error
        # is below 5e-3 here; a wrong sign would be off by 2.
        n, t = 64, 1.0
        ops, _, _, _ = self.cp_inputs(t, kt / t, n)
        v = mp.tt_nexp_product(ops.K, ops.L, mp.GridFunction.zero(ops.grid, d=4))
        assert abs(v.value * math.cos(kt) - 1.0) < 1e-2

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_gauss_kernel_on_block_operators(self, n):
        # symmetric K with groups {0, 1}, {2} (no block) and {3}
        g = mp.make_grid(1.0, n)
        rng = np.random.default_rng(n)
        k_op = symmetric_blocks(rng, g, [(0, 0), (0, 1), (3, 3)])
        assert _block_groups(4, k_op) == [[0, 1], [2], [3]]
        f = mp.GridFunction(g, rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)))
        app = k_op.dense()
        lam = np.linalg.eigvals(app)
        x = np.linalg.solve(np.eye(4 * n) + app, f.flat())
        want = np.exp(-0.5 * np.sum(np.log(1 + lam)) - 0.5 * g.weight * f.flat() @ x)
        got = mp.tt_gauss_kernel(k_op, f)
        assert abs(got.value - want) <= 1e-12 * abs(want)
        assert abs(got.det_NK - np.prod(1 + lam)) <= 1e-12 * abs(np.prod(1 + lam))

    @pytest.mark.parametrize("n", [8, 24, 64])
    def test_gauss_kernel_is_the_l_only_engine(self, n):
        g = mp.make_grid(1.0, n)
        rng = np.random.default_rng(n)
        one = random_block(rng, n, 0.3)
        for k_op, d in ((OperatorMatrix(g, (one + one.T) / g.weight), 1),
                        (symmetric_blocks(rng, g, [(0, 0), (0, 1), (3, 3)]), 4)):
            f = mp.GridFunction(g, rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
            assert mp.tt_gauss_kernel(k_op, f) == mp.tt_pinned_gauss(mp.PinnedGaussSpec(L=k_op), f)

    def test_spectrum_and_solve_only_in_the_pinned_engine(self):
        # one determinant and solve route: a second caller of either helper
        # would be a second copy of the engine's algebra
        tree = ast.parse(Path(gaussians.__file__).read_text())
        refs = {}
        for stmt in tree.body:
            owner = getattr(stmt, "name", "<module level>")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id in ("_group_spectrum", "_group_solve"):
                    refs.setdefault(node.id, set()).add(owner)
        assert refs == {"_group_spectrum": {"tt_pinned_gauss"}, "_group_solve": {"tt_pinned_gauss"}}


class TestUFuncProbe:
    @staticmethod
    def disk_samples():
        zs = []
        for r in (0.5, 1.0, 2.0, 4.0):
            for th in np.linspace(0, 2 * np.pi, 16, endpoint=False):
                zs.append(r * np.exp(1j * th))
        return zs

    def test_gauss_zero_constants(self, unit_grid):
        eta = mp.GridFunction.sample(unit_grid, np.ones_like)
        rep = mp.ufunc_probe(lambda f: mp.tt_gauss_kernel(None, f), eta, self.disk_samples())
        # |exp(-z^2/2)| peaks at exp(+r^2/2) on each circle: C = 1, D = 1/2
        assert rep.fitted_C == pytest.approx(1.0, rel=1e-9)
        assert rep.fitted_D == pytest.approx(0.5, rel=1e-9)
        assert rep.max_violation == 0.0
        # fixed-step central differences on exp(-z^2 a / 2): stencil accuracy
        assert rep.analyticity_residual < 1e-4

    def test_constant_evaluator(self, unit_grid):
        eta = mp.GridFunction.sample(unit_grid, np.ones_like)
        rep = mp.ufunc_probe(lambda f: 1.0 + 0j, eta, self.disk_samples())
        assert rep.fitted_C == pytest.approx(1.0)
        assert rep.fitted_D == 0.0
        assert rep.max_violation == 0.0
        assert rep.analyticity_residual == 0.0

    def test_sample_validation(self, unit_grid):
        eta = mp.GridFunction.sample(unit_grid, np.ones_like)
        with pytest.raises(ValidationError):
            mp.ufunc_probe(lambda f: 1.0, eta, [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            mp.ufunc_probe(lambda f: 1.0, eta, [1.0, -1.0, 1j, -1j])  # one radius only
        bad = mp.GridFunction.sample(unit_grid, lambda s: 1j * np.ones_like(s))
        with pytest.raises(ValidationError):
            mp.ufunc_probe(lambda f: 1.0, bad, self.disk_samples())

    def test_failure_wrapped_with_sample(self, unit_grid):
        eta = mp.GridFunction.sample(unit_grid, np.ones_like)

        def boom(f):
            raise RuntimeError("kaput")

        with pytest.raises(mp.NumericalError, match="evaluator failed at z="):
            mp.ufunc_probe(boom, eta, self.disk_samples())
