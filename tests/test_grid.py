import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import magprop as mp
from magprop.errors import IllConditionedError, SingularOperatorError, ValidationError
from magprop.grid import (
    OperatorMatrix,
    _a_apply,
    _a_inverse_bands,
    _b_apply,
    _block_groups,
    _bstar_apply,
)
from magprop.magnetic import _id_plus_k_inverse


def test_grid_spec_validation():
    with pytest.raises(ValidationError):
        mp.make_grid(0.0, 16)
    with pytest.raises(ValidationError):
        mp.make_grid(-1.0, 16)
    with pytest.raises(ValidationError):
        mp.make_grid(float("nan"), 16)
    with pytest.raises(ValidationError):
        mp.make_grid(1.0, 1)
    for n in (2.5, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            mp.GridSpec(1.0, n)


def test_midpoint_nodes():
    g = mp.make_grid(2.0, 4)
    assert g.weight == 0.5
    assert np.allclose(g.nodes, [0.25, 0.75, 1.25, 1.75])


def test_gridfunction_shapes():
    g = mp.make_grid(1.0, 8)
    f = mp.GridFunction(g, np.ones(8))
    assert f.d == 1 and f.values.shape == (1, 8)
    with pytest.raises(ValidationError):
        mp.GridFunction(g, np.ones((2, 8)))
    with pytest.raises(ValidationError):
        mp.GridFunction(g, np.ones(7))
    f4 = mp.GridFunction.stack(g, [np.ones(8), 0.0, lambda s: s, 1j])
    assert f4.d == 4
    assert np.allclose(f4.values[2], g.nodes)
    back = mp.GridFunction.from_flat(g, f4.flat(), 4)
    assert np.array_equal(back.values, f4.values)


def test_indicator_is_exact_identity():
    g = mp.make_grid(1.0, 32)
    op = mp.discretize("indicator", g)
    f = mp.GridFunction.sample(g, lambda s: np.sin(3 * s))
    assert np.array_equal(op.apply(f).values, f.values)


def test_b_acting_on_one():
    g = mp.make_grid(1.0, 64)
    one = mp.GridFunction.sample(g, np.ones_like)
    out = mp.discretize("B", g).apply(one)
    # midpoint cumulative integral of 1 hits the nodes exactly
    assert np.abs(out.values[0] - g.nodes).max() < 1e-14
    out_star = mp.discretize("Bstar", g).apply(one)
    assert np.abs(out_star.values[0] - (1.0 - g.nodes)).max() < 1e-14


def test_a_acting_on_one():
    g = mp.make_grid(1.0, 512)
    one = mp.GridFunction.sample(g, np.ones_like)
    out = mp.discretize("A", g).apply(one)
    ref = (1.0 - g.nodes**2) / 2.0
    assert np.abs(out.values[0] - ref).max() < g.weight**2


def test_unknown_operator_name():
    g = mp.make_grid(1.0, 8)
    with pytest.raises(ValidationError):
        mp.discretize("C", g)


def test_pairing_is_bilinear_not_sesquilinear():
    g = mp.make_grid(1.0, 128)
    iota = mp.GridFunction.sample(g, lambda s: 1j * np.ones_like(s))
    assert mp.pair(iota, iota) == pytest.approx(-1.0)


def test_bstar_is_transpose_of_b():
    g = mp.make_grid(1.3, 40)
    b = mp.discretize("B", g).application
    bs = mp.discretize("Bstar", g).application
    assert np.array_equal(bs, b.T)


def test_a_equals_bstar_b_to_second_order():
    sups = []
    for n in (64, 128, 256):
        g = mp.make_grid(1.0, n)
        a = mp.discretize("A", g).application
        b = mp.discretize("B", g).application
        sups.append(np.abs(a - b.T @ b).max())
        # the defect is exactly the h^2/4 diagonal of the half-cell rule
        assert sups[-1] == pytest.approx(g.weight**2 / 4)
    assert np.log2(sups[0] / sups[1]) > 1.9
    assert np.log2(sups[1] / sups[2]) > 1.9


def test_pairing_identity_a_vs_b():
    errs = []
    for n in (128, 256, 512):
        g = mp.make_grid(1.0, n)
        s = g.nodes
        f = mp.GridFunction(g, np.sin(2.3 * s) + 0.4 * np.cos(5 * s))
        h = mp.GridFunction(g, np.exp(-2 * (s - 0.4) ** 2))
        a = mp.discretize("A", g)
        b = mp.discretize("B", g)
        lhs = mp.pair(a.apply(h), f)
        rhs = mp.pair(b.apply(h), b.apply(f))
        errs.append(abs(lhs - rhs))
    assert np.log2(errs[0] / errs[1]) > 1.9
    assert np.log2(errs[1] / errs[2]) > 1.9


@given(st.integers(0, 2**32 - 1))
def test_pair_symmetry_random(seed):
    g = mp.make_grid(1.0, 32)
    rng = np.random.default_rng(seed)
    f = mp.GridFunction(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    h = mp.GridFunction(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert mp.pair(f, h) == pytest.approx(mp.pair(h, f))


@given(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False))
def test_pair_linearity_in_scalar(c):
    g = mp.make_grid(1.0, 16)
    rng = np.random.default_rng(7)
    f = mp.GridFunction(g, rng.standard_normal(16))
    h = mp.GridFunction(g, rng.standard_normal(16))
    assert mp.pair(f.scaled(c), h) == pytest.approx(c * mp.pair(f, h))


def _random_block_operator(grid, rng, keys):
    blocks = {}
    for key in keys:
        if rng.random() < 0.4:
            blocks[key] = complex(rng.standard_normal(), rng.standard_normal())
        else:
            blocks[key] = rng.standard_normal((grid.n, grid.n)) * 0.3
    return mp.BlockOperator(grid, blocks)


def test_block_apply_matches_dense():
    g = mp.make_grid(1.0, 12)
    rng = np.random.default_rng(3)
    op = _random_block_operator(g, rng, [(0, 0), (0, 2), (1, 1), (2, 3), (3, 0)])
    f = mp.GridFunction(g, rng.standard_normal((4, 12)))
    out = op.apply(f)
    ref = op.dense() @ f.flat()
    assert np.allclose(out.flat(), ref)


def test_block_compose_matches_dense():
    g = mp.make_grid(1.0, 9)
    rng = np.random.default_rng(5)
    x = _random_block_operator(g, rng, [(0, 0), (0, 1), (1, 2), (2, 2), (3, 1)])
    y = _random_block_operator(g, rng, [(0, 0), (1, 0), (2, 3), (1, 1), (2, 2)])
    assert np.allclose(x.compose(y).dense(), x.dense() @ y.dense())
    assert np.allclose((x + y).dense(), x.dense() + y.dense())


def _dense_by_loop(op):
    # the materialization dense() used before it went through superblock
    n = op.grid.n
    out = np.zeros((4 * n, 4 * n), dtype=complex)
    for (i, j), blk in op.blocks.items():
        view = out[i * n:(i + 1) * n, j * n:(j + 1) * n]
        if np.isscalar(blk):
            view[np.diag_indices(n)] = blk
        else:
            view[:] = blk
    return out


@pytest.mark.parametrize("k", [0.0, 1.3])
def test_dense_and_superblock_are_one_materialization(k):
    g = mp.make_grid(1.0, 8)
    ops = mp.build_cp_operators(g, k)
    for op in (ops.K, ops.L, ops.N, _id_plus_k_inverse(g), mp.n_inverse_closed(g, k)):
        want = _dense_by_loop(op)
        assert np.array_equal(op.dense(), want)
        assert np.array_equal(op.superblock((0, 1), (2, 3)), want[:16, 16:])
        assert np.array_equal(op.superblock((2, 3), (2, 3)), want[16:, 16:])


@pytest.mark.parametrize("n", [2, 3, 8, 64, 256])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "columns"])
def test_kernel_applies_match_the_dense_matrices(n, shape):
    g = mp.make_grid(0.7, n)
    rng = np.random.default_rng(n)
    v = rng.standard_normal((n,) + shape) + 1j * rng.standard_normal((n,) + shape)
    for name, apply in (("A", _a_apply), ("B", _b_apply), ("Bstar", _bstar_apply)):
        want = mp.discretize(name, g).application @ v
        got = apply(g, v)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_a_inverse_bands_invert_the_application_matrix(n):
    g = mp.make_grid(0.7, n)
    diag, off = _a_inverse_bands(g)
    t_mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    got = t_mat @ mp.discretize("A", g).application
    assert np.abs(got - g.weight**2 * np.eye(n)).max() <= 1e-12 * g.weight**2


def test_block_zero_entries_dropped():
    g = mp.make_grid(1.0, 4)
    op = mp.BlockOperator(g, {(0, 0): 0.0, (1, 1): 2.0})
    assert (0, 0) not in op.blocks
    assert op.blocks[(1, 1)] == 2.0


def test_block_invert_identity_residual():
    # dense inverse route at n=512: residual far below the 1e-10 contract
    g = mp.make_grid(1.0, 512)
    ops = mp.build_cp_operators(g, 1.0)
    ninv = mp.block_invert(ops.N)
    prod = ops.N.compose(ninv).dense()
    assert np.abs(prod - np.eye(4 * g.n)).max() < 1e-10


def test_block_invert_equal_diagonal_superblocks_bit_for_bit():
    # the two diagonal superblocks of N are equal, and are inverted once; the
    # result has the bits of inverting each of them
    op = mp.build_cp_operators(mp.make_grid(0.7, 48), 1.3).N
    m1, m2 = op.superblock((0, 1), (0, 1)), op.superblock((2, 3), (2, 3))
    p = op.superblock((0, 1), (2, 3))
    assert np.array_equal(m1, m2)
    m1i, m2i = np.linalg.inv(m1), np.linalg.inv(m2)
    want = np.block([[m1i, -(m1i @ p @ m2i)], [np.zeros_like(p), m2i]])
    assert np.array_equal(mp.block_invert(op).dense(), want)


def test_block_invert_nontriangular_matches_dense():
    g = mp.make_grid(1.0, 10)
    rng = np.random.default_rng(11)
    blocks = {(i, j): rng.standard_normal((10, 10)) * 0.2 for i in range(4) for j in range(4)}
    for i in range(4):
        blocks[(i, i)] = blocks[(i, i)] + np.eye(10)
    op = mp.BlockOperator(g, blocks)
    assert _block_groups(4, op) == [[0, 1, 2, 3]]
    inv = mp.block_invert(op)
    assert np.allclose(inv.dense(), np.linalg.inv(op.dense()))


def test_block_invert_three_groups_matches_dense():
    # groups [0, 1], [2], [3] with unequal diagonal blocks, coupled above the
    # group diagonal only
    n = 10
    g = mp.make_grid(1.0, n)
    rng = np.random.default_rng(12)
    keys = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    blocks = {key: 0.2 * rng.standard_normal((n, n)) for key in keys}
    for i in range(3):
        blocks[(i, i)] = blocks[(i, i)] + (1.0 + i) * np.eye(n)
    blocks[(3, 3)] = 0.5
    op = mp.BlockOperator(g, blocks)
    groups = _block_groups(4, op)
    assert groups == [[0, 1], [2], [3]]
    inv = mp.block_invert(op)
    assert np.allclose(inv.dense(), np.linalg.inv(op.dense()), rtol=0, atol=1e-12)
    rank = {i: a for a, grp in enumerate(groups) for i in grp}
    assert all(rank[i] <= rank[j] for i, j in inv.blocks)
    assert {(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)} <= set(inv.blocks)


def test_block_invert_singular():
    g = mp.make_grid(1.0, 6)
    op = mp.BlockOperator(g, {(0, 0): np.zeros((6, 6)), (1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0})
    with pytest.raises(SingularOperatorError):
        mp.block_invert(op)


def test_block_invert_ill_conditioned():
    g = mp.make_grid(1.0, 6)
    op = mp.BlockOperator(
        g, {(0, 0): 1e-20, (1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0},
        meta={"label": "test op", "t": 1.0, "k": 0.0},
    )
    with pytest.raises(IllConditionedError, match="test op"):
        mp.block_invert(op)


def test_block_assemble_entry_types():
    g = mp.make_grid(1.0, 8)
    b = mp.discretize("B", g)
    op = mp.block_assemble(g, [
        [1.0, (2.0, b), None, 0],
        [b, None, None, None],
        [None, None, -1j, None],
        [None, None, None, None],
    ])
    assert op.blocks[(0, 0)] == 1.0
    assert np.allclose(op.block(0, 1), 2.0 * b.application)
    assert np.allclose(op.block(1, 0), b.application)
    assert op.blocks[(2, 2)] == -1j
    with pytest.raises(ValidationError):
        mp.block_assemble(g, [[1.0]])
    with pytest.raises(ValidationError):
        mp.block_assemble(g, [[object(), None, None, None]] + [[None] * 4] * 3)


def test_operator_matrix_validation():
    g = mp.make_grid(1.0, 8)
    with pytest.raises(ValidationError):
        OperatorMatrix(g, np.ones((4, 4)))
    with pytest.raises(ValidationError):
        OperatorMatrix(g, np.ones((8, 8)), kind="banana")
    op = mp.discretize("A", g)
    other = mp.GridFunction.zero(mp.make_grid(1.0, 16))
    with pytest.raises(ValidationError):
        op.apply(other)
