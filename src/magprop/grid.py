"""Midpoint grids on [0, t), discretized integral operators, and 4x4 block algebra.

Everything downstream works on a uniform midpoint grid: n cells of width
h = t/n with nodes s_j = (j + 1/2) h. Midpoint quadrature is second-order
accurate and never evaluates an indicator at its jump.

Conventions that the rest of the package relies on:

* ``pair`` is the bilinear form h * sum(f * g), with no complex conjugation.
* Kernel-type operators are stored as plain kernel samples; their application
  matrix is ``entries * h``. Multiplication-type operators (diagonal) apply
  exactly, with no quadrature weight.
* The cumulative integral B carries a half-cell self term (1/2 on the
  diagonal), which makes its pairing-adjoint equal to its transpose exactly
  at the discrete level.
* Four-component functions interleave each planar degree of freedom with its
  conjugate momentum: component 0 is x1-type, 1 is p1-type, 2 is x2-type,
  3 is p2-type. Endpoint pins therefore live in components 0 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import IllConditionedError, SingularOperatorError, ValidationError

__all__ = [
    "GridSpec",
    "GridFunction",
    "OperatorMatrix",
    "BlockOperator",
    "make_grid",
    "discretize",
    "pair",
    "block_assemble",
    "block_identity",
    "block_invert",
    "RCOND_MIN",
]

# Reciprocal-condition estimates below this are treated as "do not trust the inverse".
RCOND_MIN = 1e-13

_OPERATOR_NAMES = ("indicator", "B", "Bstar", "A")


def _is_integer(x) -> bool:
    """int(x) == x, and False where int() refuses x (NaN, inf, non-numbers)."""
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class GridSpec:
    """Uniform midpoint grid with n cells on [0, t_end)."""

    t_end: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ValidationError(f"t_end must be positive and finite, got {self.t_end}")
        if not _is_integer(self.n) or self.n < 2:
            raise ValidationError(f"n must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def weight(self) -> float:
        return self.t_end / self.n

    @property
    def nodes(self) -> np.ndarray:
        h = self.weight
        return (np.arange(self.n) + 0.5) * h


def make_grid(t_end: float, n: int) -> GridSpec:
    """Build the uniform midpoint grid; rejects t_end <= 0 and n < 2."""
    return GridSpec(float(t_end), n)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a 1- or 4-component function on a grid.

    values has shape (d, n). Use :meth:`flat` for the component-major vector
    that block operators act on.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[None, :]
        if v.ndim != 2 or v.shape[1] != self.grid.n:
            raise ValidationError(
                f"values must have shape (d, {self.grid.n}), got {np.shape(self.values)}"
            )
        if v.shape[0] not in (1, 4):
            raise ValidationError(f"component count must be 1 or 4, got {v.shape[0]}")
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_compatible(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def scaled(self, c: complex) -> "GridFunction":
        return GridFunction(self.grid, c * self.values)

    @classmethod
    def zero(cls, grid: GridSpec, d: int = 1) -> "GridFunction":
        return cls(grid, np.zeros((d, grid.n), dtype=complex))

    @classmethod
    def sample(cls, grid: GridSpec, fn: Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        """One-component function from a vectorized callable on the nodes."""
        return cls(grid, np.asarray(fn(grid.nodes), dtype=complex)[None, :])

    @classmethod
    def stack(cls, grid: GridSpec, components: Sequence) -> "GridFunction":
        """Four-component function from per-component arrays or callables."""
        cols = []
        for comp in components:
            arr = comp(grid.nodes) if callable(comp) else comp
            cols.append(np.broadcast_to(np.asarray(arr, dtype=complex), (grid.n,)))
        return cls(grid, np.stack(cols))

    @classmethod
    def from_flat(cls, grid: GridSpec, flat: np.ndarray, d: int) -> "GridFunction":
        return cls(grid, np.asarray(flat, dtype=complex).reshape(d, grid.n))


def _check_compatible(f: GridFunction, g: GridFunction):
    if f.grid != g.grid:
        raise ValidationError("grid functions live on different grids")
    if f.d != g.d:
        raise ValidationError(f"component counts differ: {f.d} vs {g.d}")


def pair(f: GridFunction, g: GridFunction) -> complex:
    """Bilinear pairing h * sum over components and nodes of f * g.

    No conjugation: pair(i*1, i*1) on [0,1) is -1, not +1. Symmetric by
    construction.
    """
    _check_compatible(f, g)
    return complex(f.grid.weight * np.sum(f.values * g.values))


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense one-component operator on a grid.

    kind "kernel": entries are kernel samples k(s_i, s_j) and the operator
    applies as (entries * h) @ f. kind "mult": entries is a diagonal matrix
    applied exactly (no weight); this is how indicator functions act.
    """

    grid: GridSpec
    entries: np.ndarray
    kind: str = "kernel"

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        n = self.grid.n
        if e.shape != (n, n):
            raise ValidationError(f"entries must be {n}x{n}, got {e.shape}")
        if self.kind not in ("kernel", "mult"):
            raise ValidationError(f"unknown operator kind {self.kind!r}")
        object.__setattr__(self, "entries", e)

    @property
    def application(self) -> np.ndarray:
        """Matrix mapping node values to node values of the image."""
        if self.kind == "mult":
            return self.entries
        return self.entries * self.grid.weight

    def apply(self, f):
        """Apply to a one-component GridFunction (or a raw sample vector)."""
        if isinstance(f, GridFunction):
            if f.grid != self.grid:
                raise ValidationError("operator and function grids differ")
            if f.d != 1:
                raise ValidationError("one-component operators act on one-component functions")
            return GridFunction(self.grid, self.application @ f.values[0])
        return self.application @ np.asarray(f, dtype=complex)


def discretize(name: str, grid: GridSpec) -> OperatorMatrix:
    """Discretize one of the basic operators on [0, t).

    Parameters
    ----------
    name : {"indicator", "B", "Bstar", "A"}
        indicator: multiplication by 1 on [0, t), i.e. the identity here.
        B: cumulative integral (B f)(s) = int_0^s f, lower-triangular kernel
        with the half-cell diagonal.
        Bstar: the pairing-adjoint (B* f)(s) = int_s^t f, exactly B transposed.
        A: (A f)(s) = int_s^t int_0^r f(q) dq dr, symmetric kernel
        a(s, q) = t - max(s, q). Coincides with B* B up to quadrature error.
    """
    n = grid.n
    if name == "indicator":
        return OperatorMatrix(grid, np.eye(n), kind="mult")
    if name == "B":
        kern = np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)
        return OperatorMatrix(grid, kern)
    if name == "Bstar":
        kern = np.triu(np.ones((n, n)), 1) + 0.5 * np.eye(n)
        return OperatorMatrix(grid, kern)
    if name == "A":
        s = grid.nodes
        kern = grid.t_end - np.maximum.outer(s, s)
        return OperatorMatrix(grid, kern)
    raise ValidationError(f"unknown operator name {name!r}; expected one of {_OPERATOR_NAMES}")


# O(n) applies of the kernel operators. Each acts along axis 0 of v (any
# trailing shape) and equals discretize(name, grid).application @ v up to
# rounding: the kernels are rank-1 on either side of the diagonal, so one
# prefix or suffix sum replaces the dense product.


def _column(x: np.ndarray, ndim: int) -> np.ndarray:
    """Node samples x shaped to broadcast against an ndim array along axis 0."""
    return x.reshape(x.shape + (1,) * (ndim - 1))


def _prefix_sum(v: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum along axis 0: out[i] = sum_{j<i} v[j]."""
    out = np.zeros_like(v)
    np.cumsum(v[:-1], axis=0, out=out[1:])
    return out


def _suffix_sum(v: np.ndarray) -> np.ndarray:
    """Exclusive suffix sum along axis 0: out[i] = sum_{j>i} v[j]."""
    out = np.zeros_like(v)
    np.cumsum(v[:0:-1], axis=0, out=out[-2::-1])
    return out


def _a_apply(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """A v: h [(t - s_i) sum_{j<=i} v_j + sum_{j>i} (t - s_j) v_j]."""
    rest = _column(grid.t_end - grid.nodes, v.ndim)
    out = np.cumsum(v, axis=0)
    out *= rest
    out += _suffix_sum(rest * v)
    out *= grid.weight
    return out


def _a_inverse_bands(grid: GridSpec) -> tuple:
    """Diagonal and off-diagonal of the tridiagonal h^2 A^-1 for the
    application matrix of A: tridiag(-1; 1, 2, ..., 2, 3; -1). A's kernel
    is semiseparable (rank 1 on either side of the diagonal), so its
    inverse is banded."""
    diag = np.full(grid.n, 2.0)
    diag[0], diag[-1] = 1.0, 3.0
    return diag, np.full(grid.n - 1, -1.0)


def _b_apply(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """B v: h [sum_{j<i} v_j + v_i / 2]."""
    out = _prefix_sum(v)
    out += 0.5 * v
    out *= grid.weight
    return out


def _bstar_apply(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """B* v: h [sum_{j>i} v_j + v_i / 2]."""
    out = _suffix_sum(v)
    out += 0.5 * v
    out *= grid.weight
    return out


# A block is either a complex scalar (meaning scalar * identity, exact) or an
# (n, n) application matrix. Zero blocks are simply absent from the dict.
Block = "complex | np.ndarray"


@dataclass(frozen=True)
class BlockOperator:
    """4x4 block operator over one grid.

    blocks maps (i, j) to either a scalar (scalar multiple of the identity,
    applied exactly) or a dense application matrix. Missing keys are zero
    blocks. meta carries context (t, k, a label) for diagnostics only.
    """

    grid: GridSpec
    blocks: Mapping
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        n = self.grid.n
        clean = {}
        for (i, j), blk in dict(self.blocks).items():
            if not (0 <= i < 4 and 0 <= j < 4):
                raise ValidationError(f"block index out of range: {(i, j)}")
            if np.isscalar(blk):
                c = complex(blk)
                if c != 0:
                    clean[(i, j)] = c
            else:
                arr = np.asarray(blk, dtype=complex)
                if arr.shape != (n, n):
                    raise ValidationError(
                        f"block {(i, j)} must be {n}x{n}, got {arr.shape}"
                    )
                clean[(i, j)] = arr
        object.__setattr__(self, "blocks", clean)

    def block(self, i: int, j: int) -> np.ndarray:
        """Materialize one block as a dense application matrix."""
        blk = self.blocks.get((i, j))
        n = self.grid.n
        if blk is None:
            return np.zeros((n, n), dtype=complex)
        if np.isscalar(blk):
            return complex(blk) * np.eye(n, dtype=complex)
        return blk

    def apply(self, f: GridFunction) -> GridFunction:
        if f.grid != self.grid:
            raise ValidationError("operator and function grids differ")
        if f.d != 4:
            raise ValidationError("block operators act on 4-component functions")
        out = np.zeros_like(f.values)
        for (i, j), blk in self.blocks.items():
            if np.isscalar(blk):
                out[i] += blk * f.values[j]
            else:
                out[i] += blk @ f.values[j]
        return GridFunction(self.grid, out)

    def dense(self) -> np.ndarray:
        return self.superblock(range(4), range(4))

    def superblock(self, rows, cols) -> np.ndarray:
        """Dense matrix of the (rows x cols) sub-grid of blocks."""
        n = self.grid.n
        out = np.zeros((len(rows) * n, len(cols) * n), dtype=complex)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                blk = self.blocks.get((i, j))
                if blk is None:
                    continue
                view = out[a * n:(a + 1) * n, b * n:(b + 1) * n]
                if np.isscalar(blk):
                    view[np.diag_indices(n)] = blk
                else:
                    view[:] = blk
        return out

    def compose(self, other: "BlockOperator") -> "BlockOperator":
        """Block-wise product self @ other (application composition)."""
        if self.grid != other.grid:
            raise ValidationError("operator grids differ")
        n = self.grid.n
        out: dict = {}
        for (i, m), left in self.blocks.items():
            for j in range(4):
                right = other.blocks.get((m, j))
                if right is None:
                    continue
                if np.isscalar(left) or np.isscalar(right):
                    term = left * right
                else:
                    term = left @ right
                prev = out.get((i, j))
                out[(i, j)] = term if prev is None else _block_sum(prev, term, n)
        return BlockOperator(self.grid, out, meta=dict(self.meta))

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        if self.grid != other.grid:
            raise ValidationError("operator grids differ")
        out = dict(self.blocks)
        n = self.grid.n
        for key, blk in other.blocks.items():
            out[key] = blk if key not in out else _block_sum(out[key], blk, n)
        return BlockOperator(self.grid, out, meta={**other.meta, **self.meta})


def _block_sum(a, b, n: int):
    """Sum of two blocks; a scalar block stands for that multiple of the identity."""
    if np.isscalar(a) and np.isscalar(b):
        return a + b
    if np.isscalar(a):
        a = a * np.eye(n)
    if np.isscalar(b):
        b = b * np.eye(n)
    return a + b


def block_identity(grid: GridSpec) -> BlockOperator:
    return BlockOperator(grid, {(i, i): 1.0 for i in range(4)})


def block_assemble(grid: GridSpec, rows, meta: dict | None = None) -> BlockOperator:
    """Assemble a BlockOperator from a 4x4 nested sequence.

    Each entry may be None/0 (zero block), a complex scalar (scalar multiple
    of the identity), an OperatorMatrix, or a (scalar, OperatorMatrix) pair.
    """
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValidationError("expected a 4x4 nested sequence of entries")
    blocks = {}
    for i in range(4):
        for j in range(4):
            entry = rows[i][j]
            if entry is None:
                continue
            if isinstance(entry, tuple):
                scal, op = entry
                if not isinstance(op, OperatorMatrix):
                    raise ValidationError("tuple entries must be (scalar, OperatorMatrix)")
                if op.grid != grid:
                    raise ValidationError(f"block {(i, j)} lives on a different grid")
                if scal != 0:
                    blocks[(i, j)] = complex(scal) * op.application
            elif isinstance(entry, OperatorMatrix):
                if entry.grid != grid:
                    raise ValidationError(f"block {(i, j)} lives on a different grid")
                blocks[(i, j)] = entry.application
            elif np.isscalar(entry):
                if entry != 0:
                    blocks[(i, j)] = complex(entry)
            else:
                raise ValidationError(f"unsupported block entry at {(i, j)}: {type(entry)}")
    return BlockOperator(grid, blocks, meta=dict(meta or {}))


def _block_groups(d: int, *ops: BlockOperator) -> list:
    """Strongly connected groups of the block pattern of Id plus ops.

    Block (i, j) links block row i to block column j. The groups come in an
    order in which every block of every op has its row's group at or before
    its column's group, so Id + the ops, their sums, products and inverses
    are all block upper triangular in that order. The pattern is read from
    the block keys alone; no entry is tested for zero.
    """
    reach = np.eye(d, dtype=bool)
    for op in ops:
        for i, j in op.blocks:
            reach[i, j] = True
    for m in range(d):  # Warshall's transitive closure
        reach |= np.outer(reach[:, m], reach[m])
    groups = {tuple(np.flatnonzero(reach[i] & reach[:, i]).tolist()) for i in range(d)}
    # A group that reaches another one also reaches strictly more blocks.
    return [list(g) for g in sorted(groups, key=lambda g: (-int(reach[g[0]].sum()), g))]


def _one_norm(blocks: Mapping) -> float:
    """Largest absolute column sum of blocks keyed by (row, column);
    a scalar block stands for that multiple of the identity."""
    sums: dict = {}
    for (_, j), blk in blocks.items():
        sums[j] = sums.get(j, 0.0) + (abs(blk) if np.isscalar(blk) else np.abs(blk).sum(axis=0))
    return float(max(np.max(s) for s in sums.values()))


def block_invert(op: BlockOperator) -> BlockOperator:
    """Invert a BlockOperator group by group, in the order of _block_groups.

    op = N is block upper triangular in that order, and so is X = N^-1. Each
    diagonal group block D_a is inverted densely, once for all groups whose
    D_a equals it entry for entry; above it, X_ab = -sum_{a<m<=b}
    (D_a^-1 N_am) X_mb in that association, column group by column group.
    One one-norm reciprocal condition estimate of the whole operator, from
    block column sums, below RCOND_MIN raises IllConditionedError naming the
    operator's (t, k) context when available.
    """
    n = op.grid.n
    ctx = op.meta.get("label", "block operator")
    if "t" in op.meta or "k" in op.meta:
        ctx = f"{ctx} (t={op.meta.get('t')}, k={op.meta.get('k')})"

    groups = _block_groups(4, op)
    diag, inv = [], []
    for g in groups:
        diag.append(op.superblock(g, g))
        same = [a for a in range(len(inv)) if np.array_equal(diag[a], diag[-1])]
        try:
            inv.append(inv[same[0]] if same else np.linalg.inv(diag[-1]))
        except np.linalg.LinAlgError as exc:
            raise SingularOperatorError(f"singular operator while inverting {ctx}") from exc
    x = {}
    for b in range(len(groups)):
        x[b, b] = inv[b]
        for a in range(b - 1, -1, -1):
            terms = [inv[a] @ op.superblock(groups[a], groups[m]) @ x[m, b]
                     for m in range(a + 1, b + 1) if (m, b) in x
                     and any((i, j) in op.blocks for i in groups[a] for j in groups[m])]
            if terms:
                x[a, b] = -sum(terms[1:], terms[0])

    blocks: dict = {}
    for (a, b), mat in x.items():
        for r, i in enumerate(groups[a]):
            for c, j in enumerate(groups[b]):
                blk = mat[r * n:(r + 1) * n, c * n:(c + 1) * n]
                if np.any(blk):
                    blocks[(i, j)] = blk.copy()
    rcond = 1.0 / (_one_norm(op.blocks) * _one_norm(x))
    if not rcond >= RCOND_MIN:
        raise IllConditionedError(
            f"operator {ctx} is ill-conditioned (rcond ~ {rcond:.2e} < {RCOND_MIN:.0e})"
        )
    return BlockOperator(op.grid, blocks, meta={**op.meta, "inverse_of": ctx})
