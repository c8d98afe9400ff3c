"""Dense float64 tensors with tape-based reverse-mode differentiation.

Only the operations a training or attribution pass of the graph model
calls are implemented: the linear map ``linear`` and its per-row-type form
``typed_matmul``, scaling, the total sum, the fused attention layer core
``edge_attention``, the fused pooling readout ``pooled_logits`` (cell means
of the node rows, per-type maps, graph mean and classifier), leaky ReLU,
dropout (draw, mask and product as one op) and cross-entropy.
No-grad glue that needs no op, such as ``Model.predict_proba``'s row
softmax, is plain numpy where it is used.
Everything is float64 and any op that produces NaN/Inf raises
NonFiniteError, without a numpy warning before it. The float work runs
with numpy's overflow and invalid-value warnings off (``quiet``), entered
once per pass, not once per op: ``Model.forward`` and ``backward`` each
enter one ``np.errstate``, and an op (``_op``) enters its own only when
called outside any pass. ``backward`` leaves an overflowing gradient
non-finite for its caller to check.

``typed_matmul``'s VJP spreads row r's gradient into column block
``type_idx[r]`` of an (n, T * d_out) array, so both gradients are one BLAS
product each, with no sort or loop over types; ``pooled_logits`` takes its
maps' gradients the same way (``_typed_grads``). ``edge_attention`` gathers
key (also the value) and query rows per edge, scores, normalizes and
aggregates them in one op whose forward performs the float operations of
the composition of gathers, products, a per-segment softmax and an exactly
rounded segment mean or sum in the same order, so its outputs and weights
are bit-equal to that composition's. Its tape entry keeps only the
(E, heads) weights and the index arrays; the VJP gathers the rows again
from the table (a recompute, as in FlashAttention's backward) and scatters
their gradients with ``np.add.at``.

The segment ops take runs of consecutive rows, the CSR layout in which
``hetgraph.batch_graphs`` sorts edges by target: segment s is the
``counts[s]`` rows that follow segment s - 1. The ops read the layout from
index objects that are checked once when they are built, not on every
call: ``Runs`` (counts, starts, the grid scale of the longest run and the
attention blocks per block size), ``Index`` (row indices below a bound)
and ``Cells`` (the pooling op's row permutation, cell runs, divisors and
present cells). ``batch_graphs`` builds them once per batch and
the ``GraphBatch`` holds them; what it knows by construction (positions
offset below the union's size, in-degrees it has checked positive, a
stable sort's permutation) it builds with ``known``, unchecked. Any other
caller builds the same objects from its counts and indices, checked. A
count that is not positive, or counts that do not sum to the row count,
is a ContractError.

Reductions whose operand order depends on node/edge ordering (segment
aggregation and pooling, per-segment softmax denominators and their
gradients) are exactly rounded, so their results are independent of row
permutation; this is what makes node-relabeling equivariance bit-exact.
The segment ops work on whole arrays: ``np.maximum.reduceat`` for maxima,
``repeat`` to broadcast back (the VJPs too), and one kernel,
``_segment_fsum``, for per-segment column sums. It splits the values by two
error-free extraction passes into parts that numpy sums exactly; the first
grid is one for the whole call, from its largest magnitude and the runs'
scale, and the second is derived from the first. When a remainder is left
it certifies that the result is correctly rounded. A cell it cannot
certify, and every cell of a call that no finite grid bounds, is summed by
math.fsum, so every sum equals math.fsum's bit for bit.

Products are row-invariant by construction: ``linear`` and ``typed_matmul``
build each output row from its own input row only (a broadcast product
summed along its last axis), so a row's bits never depend on which other
rows share the call. BLAS gives no such promise. With OpenBLAS 0.3.31
(Haswell kernels) a 1-row operand (gemv) rounds differently from the same
row inside a larger product at every width with d_in >= 4, and with d_out
of 1 or 2 about a quarter of row subsets change bits; attention layers with
d_k <= 2 have such edge maps. Row invariance is what lets a cached forward
stand in for the rows a graph edit leaves unchanged (``explain``). Backward
products still go through BLAS.

``edge_attention``, ``linear`` and ``typed_matmul`` run over blocks of rows
and write each block into the whole output arrays, so no forward temporary
grows with the graph (after FlashAttention's tiling, Dao et al. 2022). An
attention block is whole segments whose (rows, width) temporaries fit
``_ATTEND_BYTES``, or one longer segment; a product block is the rows whose
(rows, d_out, d_in) broadcast product fits ``_PRODUCT_BYTES``, and
``typed_matmul`` gathers its per-row weights one block at a time. Blocking
changes no bit: every product row and elementwise value comes from its own
row's inputs, and a segment's maximum, softmax and exact sum read only its
own rows, which one block holds (the sum is correctly rounded, so the grid
that a block's largest value and longest segment set cannot change it).
The attention VJP scatters each block's key gradients as it goes and keeps
the query gradients, one (E, width) array, for a scatter after the last
block, so each table row receives its additions in the order of one
``np.add.at`` over all keys, then all queries. Arrays within budget are
one block: the unblocked computation. More savings keep the bits:
attention scores and their gradient add a head's d_k products, and the
gradient its heads, with ``_plane_sum`` (fewer than 8 terms plane by
plane in numpy's own order, more by numpy); a softmax's exact sums take
their first grid from the known largest term, exp(0) = 1, instead of a
maximum over the call; and the pooling op gathers its rows by a
permutation, so it assigns their gradient instead of scattering it.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, NonFiniteError, ShapeError

Array = np.ndarray

_GRAD_ENABLED = True

# Row-block budgets in bytes (see the module docstring): the rows of an
# ``edge_attention`` block fill at most _ATTEND_BYTES of each (rows, width)
# temporary, and those of a product block at most _PRODUCT_BYTES of its
# (rows, d_out, d_in) temporary; a block has at least one row.
_ATTEND_BYTES = 1 << 17
_PRODUCT_BYTES = 1 << 20


def _block_rows(budget: int, row_bytes: int) -> int:
    return max(1, budget // max(row_bytes, 1))


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _check_finite(arr: Array, op: str) -> None:
    # count_nonzero is one C call; .all() goes through a Python wrapper.
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """A float64 ndarray plus the bookkeeping needed for backward().

    Leaves are created directly with ``requires_grad=True``; every other
    tensor is produced by the ops below, which record a vector-Jacobian
    closure on the tape while grad mode is on.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, "tensor")
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], Sequence[Array | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def on_tape(self) -> bool:
        return self.requires_grad or self._vjp is not None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# Ops that cannot make a non-finite value from finite inputs: a copy, a
# shrinking map, exactly rounded sums (math.fsum raises OverflowError rather
# than return inf) and the attention output, an exactly rounded mean or sum
# of values weighted by weights in [0, 1] (the op checks its weights).
_FINITE_OPS = frozenset({"leaky_relu", "sum", "edge_attention"})


def _make(data: Array, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """The op's output tensor, on the tape if a parent is. The finiteness
    check is skipped for the ``_FINITE_OPS``."""
    if op not in _FINITE_OPS:
        _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out._parents = ()
    out._vjp = None
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad or p._vjp is not None:
                out._parents = parents
                out._vjp = vjp
                break
    return out


# True inside ``quiet``: numpy's warnings are off already, so an op enters
# no ``np.errstate`` of its own. A context variable, as numpy's error state
# is: a thread that has not entered ``quiet`` still gets its own.
_QUIET: ContextVar[bool] = ContextVar("heatnet_quiet", default=False)


@contextmanager
def quiet():
    """numpy's overflow and invalid-value warnings off inside the block.

    ``_make`` raises NonFiniteError on a non-finite result instead. Only the
    outermost block enters ``np.errstate``: ``Model.forward`` and
    ``backward`` each enter it once per pass, and an op called inside one
    enters none of its own.
    """
    if _QUIET.get():
        yield
        return
    with np.errstate(over="ignore", invalid="ignore"):
        token = _QUIET.set(True)
        try:
            yield
        finally:
            _QUIET.reset(token)


def _op(f):
    """An op whose float work runs ``quiet``: inside a pass as it is, called
    on its own in a ``quiet`` block of its own."""
    @functools.wraps(f)
    def run(*args, **kwargs):
        if _QUIET.get():
            return f(*args, **kwargs)
        with quiet():
            return f(*args, **kwargs)
    return run


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops
# ---------------------------------------------------------------------------

@_op
def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def vjp(g):
        return (g * s,)

    return _make(a.data * s, (a,), vjp, "scale")


def _rowwise_product(x: Array, w: Array, type_idx: Array | None = None) -> Array:
    """``out[r, o] = sum_i x[r, i] * w[o, i]``, each row from its own input row only.

    ``w`` is (d_out, d_in), or (T, d_out, d_in) with row r taking
    ``w[type_idx[r]]``. A broadcast product summed along its contiguous
    last axis rounds every output row the same whatever other rows share
    the call, which BLAS does not promise (see the module docstring). The
    rows run in blocks (``_PRODUCT_BYTES``), each gathering its own weights.
    """
    d_out, d_in = w.shape[-2:]
    step = _block_rows(_PRODUCT_BYTES, 8 * d_out * d_in)
    out = np.empty((x.shape[0], d_out))
    for r0 in range(0, x.shape[0], step):
        r1 = r0 + step
        wb = w if type_idx is None else w.take(type_idx[r0:r1], axis=0)
        np.add.reduce(np.multiply(x[r0:r1, None, :], wb, order="C"), axis=-1, out=out[r0:r1])
    return out


@_op
def linear(x: Tensor, w: Tensor) -> Tensor:
    """The linear map ``x @ w.T`` as one tape op.

    ``x`` is (n, d_in) and ``w`` is (d_out, d_in). Each output row is built
    from its own input row only.
    """
    x, w = _lift(x), _lift(w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"linear expects x (n, d_in) and w (d_out, d_in), "
                         f"got {x.data.shape} and {w.data.shape}")

    def vjp(g):
        dx = g @ w.data if x.on_tape() else None
        dw = (x.data.T @ g).T if w.on_tape() else None
        return (dx, dw)

    return _make(_rowwise_product(x.data, w.data), (x, w), vjp, "linear")


@_op
def typed_matmul(x: Tensor, w: Tensor, types: "Index") -> Tensor:
    """Row r of the result is ``w[types.rows[r]] @ x[r]``: one weight per row type.

    ``x`` is (n, d_in), ``w`` is (T, d_out, d_in) and ``types`` an index of
    n rows into the T weights. Row r equals ``linear`` of x[r] and
    ``w[types.rows[r]]`` bit for bit; the weight of a type no row has gets
    a zero gradient.
    """
    x, w = _lift(x), _lift(w)
    if x.data.ndim != 2 or w.data.ndim != 3 or w.data.shape[2] != x.data.shape[1]:
        raise ShapeError(f"typed_matmul expects x (n, d_in) and w (T, d_out, d_in), "
                         f"got {x.data.shape} and {w.data.shape}")
    n, n_types = x.data.shape[0], w.data.shape[0]
    idx = types.rows
    if idx.shape != (n,):
        raise ShapeError(f"typed_matmul: type index has shape {idx.shape}, x has {n} rows")
    if types.bound > n_types:
        raise ShapeError(f"typed_matmul: type index out of range for {n_types} types")
    out = _rowwise_product(x.data, w.data, idx)

    def vjp(g):
        return _typed_grads(g, x.data, w.data, idx, x.on_tape(), w.on_tape())

    return _make(out, (x, w), vjp, "typed_matmul")


def _typed_grads(g: Array, x: Array, w: Array, idx: Array, want_x: bool,
                 want_w: bool) -> tuple[Array | None, Array | None]:
    """The gradients of ``x`` and ``w`` (None unless wanted) from ``g``, that
    of ``_rowwise_product(x, w, idx)``. Row r's gradient sits in column block
    idx[r] of ``spread``, so each is one BLAS product over all rows."""
    n = x.shape[0]
    spread = np.zeros((n, w.shape[0], g.shape[1]))
    spread[np.arange(n), idx] = g
    spread = spread.reshape(n, -1)
    dx = spread @ w.reshape(spread.shape[1], -1) if want_x else None
    dw = (spread.T @ x).reshape(w.shape) if want_w else None
    return dx, dw


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def reduce_sum(a: Tensor) -> Tensor:
    """The exactly rounded sum of all entries, as a 0-d tensor."""
    out = np.asarray(math.fsum(a.data.ravel().tolist()))

    def vjp(g):
        return (np.full(a.data.shape, float(g)),)

    return _make(out, (a,), vjp, "sum")


# ---------------------------------------------------------------------------
# nonlinearities and losses
# ---------------------------------------------------------------------------

@_op
def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    mask = np.where(x.data > 0.0, 1.0, negative_slope)

    def vjp(g):
        return (g * mask,)

    return _make(x.data * mask, (x,), vjp, "leaky_relu")


@_op
def dropout(x: Tensor, drop_prob: float, rngs: Sequence[np.random.Generator] | None,
            training: bool, blocks: Sequence[int] | None = None) -> Tensor:
    """Inverted dropout: scales kept entries by 1/keep; identity in eval.

    In training, ``rngs[i]`` draws the mask of the ``blocks[i]`` rows that
    follow block i - 1 (one stream per graph of a batch). The draw, the
    mask and its product are one tape op.
    """
    if not training or drop_prob == 0.0:
        return x
    if not 0.0 <= drop_prob < 1.0:
        raise ConfigError(f"drop_prob must be in [0, 1), got {drop_prob}")
    if rngs is None or blocks is None:
        raise ConfigError("dropout in training mode requires generators and row blocks")
    if len(rngs) != len(blocks):
        raise ConfigError(f"dropout: {len(rngs)} generators for {len(blocks)} row blocks")
    draws = np.concatenate([r.random((n, *x.data.shape[1:])) for r, n in zip(rngs, blocks)])
    keep = 1.0 - drop_prob
    mask = (draws < keep) / keep    # 1.0 / keep where kept, else 0.0

    def vjp(g):
        return (g * mask,)

    return _make(x.data * mask, (x,), vjp, "dropout")


@_op
def cross_entropy(logits: Tensor, labels: int | Sequence[int] | Array) -> Tensor:
    """-log softmax(logits)[label], stabilized.

    1-D logits (C,) with one label give a scalar; (B, C) logits with one
    label per row give the B row losses, each row byte-equal to its own
    1-D loss. Each row's sum is math.fsum's and the log is ``math.log``,
    which numpy's vectorized log does not match bit for bit.
    """
    d = logits.data
    if d.ndim not in (1, 2):
        raise ShapeError(f"cross_entropy expects 1-D or 2-D logits, got {d.shape}")
    rows = d.reshape(1, -1) if d.ndim == 1 else d
    b, n = rows.shape
    y = np.asarray(labels, dtype=np.intp).reshape(-1)
    if y.shape != (b,):
        raise ShapeError(f"cross_entropy: {y.size} labels for {b} rows of logits")
    bad = [label for label in y.tolist() if not 0 <= label < n]
    if bad:
        raise ConfigError(f"label {bad[0]} out of range for {n} classes")
    m = rows.max(axis=1)
    ex = np.exp(rows - m[:, None]).tolist()
    lse = m + np.array([math.log(math.fsum(row)) for row in ex])
    at = np.arange(b)
    out = (lse - rows[at, y]).reshape(d.shape[:-1])

    def vjp(g):
        p = np.exp(rows - lse[:, None])
        p[at, y] -= 1.0
        return ((p * np.reshape(g, (-1, 1))).reshape(d.shape),)

    return _make(out, (logits,), vjp, "cross_entropy")


# ---------------------------------------------------------------------------
# segment ops (attention over incoming edges, per-target aggregation)
# ---------------------------------------------------------------------------

class Index:
    """Row indices into a table of ``bound`` rows, checked once.

    ``rows`` is a read-only 1-D intp array with every entry in
    [0, ``bound``). An op that reads an index compares ``bound`` with its
    table's row count instead of scanning the entries on every call.
    """

    __slots__ = ("rows", "bound")

    def __init__(self, rows, bound: int):
        rows = np.array(rows, dtype=np.intp)
        if rows.ndim != 1:
            raise ShapeError(f"an index must be 1-D, got shape {rows.shape}")
        # Seen as unsigned, a negative entry is above every bound.
        if rows.size and rows.view(np.uintp).max() >= bound:
            raise ShapeError(f"index out of range for {bound} rows")
        self._set(rows, bound)

    def _set(self, rows: Array, bound: int) -> None:
        rows.setflags(write=False)
        self.rows, self.bound = rows, int(bound)

    @classmethod
    def known(cls, rows: Array, bound: int) -> "Index":
        """An index of intp ``rows`` already known to lie in [0, ``bound``):
        nothing to check."""
        index = cls.__new__(cls)
        index._set(rows, bound)
        return index

    def __len__(self) -> int:
        return len(self.rows)


class Runs:
    """Segments as runs of consecutive rows, checked once: segment s is the
    ``counts[s]`` rows that follow segment s - 1, and every count is positive.

    Holds what every segment op of a step reads: ``starts``, ``n_rows``
    (the sum of the counts), ``scale`` (the exact-sum grid scale: the least
    s with 2**s >= every count + 2) and, per block size, the blocks of whole
    segments (``blocks``). A ``hetgraph.GraphBatch`` holds the runs of its
    targets and pooling cells; a caller with other counts builds them the
    same way.
    """

    __slots__ = ("counts", "starts", "n_rows", "scale", "_blocks")

    def __init__(self, counts):
        counts = np.array(counts, dtype=np.intp)
        if counts.ndim != 1:
            raise ContractError(f"segment counts must be 1-D runs that sum to the row count, "
                                f"got shape {counts.shape}")
        # One maximum checks every count and gives the grid scale: seen as
        # unsigned, count - 1 of an empty or negative run is above 2**63.
        longest = int((counts - 1).view(np.uintp).max(initial=0)) + 1 if counts.size else 0
        if longest > 2**63:
            raise ContractError(f"segment {int(np.argmin(counts))} is empty "
                                "(node without incoming edges)")
        self._set(counts, longest)

    def _set(self, counts: Array, longest: int) -> None:
        counts.setflags(write=False)
        ends = counts.cumsum()
        self.counts, self.starts = counts, ends - counts
        self.n_rows = int(ends[-1]) if len(ends) else 0
        self.scale = (longest + 1).bit_length()
        self._blocks: dict[int, list[tuple[slice, slice, Runs]]] = {}

    @classmethod
    def known(cls, counts: Array) -> "Runs":
        """Runs of intp ``counts`` already known to be positive: nothing to
        check."""
        runs = cls.__new__(cls)
        runs._set(counts, int(counts.max(initial=0)))
        return runs

    def __len__(self) -> int:
        return len(self.counts)

    def check(self, n_rows: int, op: str) -> None:
        """ContractError unless the runs cover exactly ``n_rows`` rows."""
        if n_rows != self.n_rows:
            raise ContractError(f"{op}: segment counts sum to {self.n_rows}, "
                                f"tensor has {n_rows} rows")

    def blocks(self, max_rows: int) -> list[tuple[slice, slice, "Runs"]]:
        """Blocks of whole segments: (segment slice, row slice, the block's
        own runs). A block holds at most ``max_rows`` rows, or one segment
        longer than that; built once per block size."""
        blocks = self._blocks.get(max_rows)
        if blocks is None:
            blocks = self._blocks[max_rows] = self._split(max_rows)
        return blocks

    def _split(self, max_rows: int) -> list[tuple[slice, slice, "Runs"]]:
        if self.n_rows <= max_rows:
            return [(slice(None), slice(None), self)]
        ends = self.starts + self.counts
        blocks = []
        s0 = 0
        while s0 < len(self.counts):
            r0 = int(self.starts[s0])
            s1 = max(int(np.searchsorted(ends, r0 + max_rows, side="right")), s0 + 1)
            blocks.append((slice(s0, s1), slice(r0, int(ends[s1 - 1])),
                           Runs(self.counts[s0:s1])))
            s0 = s1
        return blocks


class Cells:
    """N rows grouped into the present (graph, type) cells of B graphs: the
    layout the pooling op reads, checked once. ``order`` permutes the rows
    so that ``runs`` holds each cell's rows as one run, and ``sizes`` is
    each cell's divisor. ``cells[k]`` = graph * ``n_types`` + type,
    ascending, every graph with one at least; ``graph`` and ``types`` give
    each cell's graph and type, and ``graphs`` holds each graph's cells as
    one run."""

    __slots__ = ("order", "runs", "sizes", "cells", "n_types", "graph", "types", "graphs")

    def __init__(self, order, counts, sizes, cells, n_types: int):
        order, sizes, cells = (np.array(a, dtype=np.intp) for a in (order, sizes, cells))
        if cells.ndim != 1 or (len(cells) and (cells[0] < 0 or (np.diff(cells) <= 0).any())):
            raise ContractError("pooled_logits: cells must be nonnegative and ascending")
        if order.ndim != 1 or not np.array_equal(np.sort(order), np.arange(order.size)):
            raise ContractError("pooled_logits: the cell order must be a permutation of the rows")
        runs = Runs(counts)
        runs.check(order.size, "pooled_logits")
        if len(runs) != len(cells) or sizes.shape != cells.shape or (sizes < 1).any():
            raise ContractError(f"pooled_logits: {len(cells)} cells need a run and a positive "
                                "size each")
        self._set(order, runs, sizes, cells, n_types)
        if not self.graphs.counts.all():
            raise ContractError(f"pooled_logits: graph {int(np.argmin(self.graphs.counts))} "
                                "has no cell")

    def _set(self, order: Array, runs: Runs, sizes: Array, cells: Array, n_types: int) -> None:
        for a in (order, sizes, cells):
            a.setflags(write=False)
        graph = cells // n_types
        self.order, self.runs, self.sizes = order, runs, sizes
        self.cells, self.n_types, self.graph = cells, int(n_types), graph
        self.types = Index.known(cells - graph * n_types, n_types)
        self.graphs = Runs.known(np.bincount(graph))

    @classmethod
    def known(cls, order: Array, counts: Array, cells: Array, n_types: int) -> "Cells":
        """Cells known to be valid, each of size its count (``GraphBatch.pool``):
        nothing to check."""
        out = cls.__new__(cls)
        out._set(order, Runs.known(counts), counts, cells, n_types)
        return out


def _extract(sigma, rest: Array, q: Array, starts: Array) -> Array:
    """One error-free extraction pass on the grid ``sigma``: ``rest`` keeps
    the remainders, in place, and the exact column sums of each segment's
    parts are returned (``q`` is scratch shaped as ``rest``).

    A grid is a power of two sigma, and a part is a value rounded to a
    multiple of 2**-53 * sigma. The first sigma, one for the whole call, is
    2**scale times the power of two above an upper bound on every magnitude
    (``_grid_exponent``). Every later sigma is the one before times
    2**(scale - 53).

    Why these grids are valid (Rump, Ogita & Oishi 2008, Lemma 3.3), for
    values p with max|p| <= 2**-M * sigma, 2**M = 2**scale >= n + 2 and
    2 <= M <= 52. Then sigma + p lies in [3 sigma / 4, 5 sigma / 4], so
    q = fl(sigma + p) - sigma is exact (Sterbenz). q is a multiple of the
    spacing g = max(2**-53 * sigma, 2**-1074) of [sigma / 2, sigma), and
    p - q, a rounding error of one addition, is exact with
    |p - q| <= 2**-53 * sigma. sigma +- 2**-M * sigma are floats, so
    rounding keeps |q| <= 2**-M * sigma, and any partial sum of n parts is
    a multiple of g below sigma in magnitude: a float, so every order of
    summation is exact. The lemma needs only a bound on the magnitudes, so
    a grid above the largest of the whole call serves every segment.
    Equality max|p| = 2**-M * sigma is allowed, which is why the
    remainders, at most 2**-53 * sigma each and exactly that at a rounding
    tie, make sigma * 2**(scale - 53) a valid next grid. The product is
    exact while it is 2**-1074 or more. A remainder is nonzero only if
    2**-53 * sigma >= 2**-1074, so the next sigma is at least
    2**(scale - 1074) whenever there is anything left to extract.
    """
    np.add(sigma, rest, out=q)
    q -= sigma
    rest -= q
    return np.add.reduceat(q, starts, axis=0)


def _grid_exponent(top: float, runs: Runs) -> int | None:
    """The exponent e of a call's first grid 2**e, from ``top``, an upper
    bound on every magnitude, and the runs' ``scale``; None when no finite
    grid bounds the call: ``top`` is inf or NaN, or e >= 1024."""
    if not math.isfinite(top):
        return None
    e = math.frexp(top)[1] + runs.scale
    return e if e < 1024 else None


def _segment_expansion(xs: Array, runs: Runs) -> Array | None:
    """Exact column sums of the row segments of ``xs`` as expansions: (K, S, d)
    terms whose sum over the first axis is, exactly in real arithmetic,
    segment s's column sums, or None when no finite grid bounds the call.

    Extraction passes on the call's one grid repeat until every remainder
    is zero; each pass lowers the grid by 53 - scale bits, so the loop ends
    once the grid reaches the smallest subnormal, if not before.
    """
    q = np.empty_like(xs)
    e = _grid_exponent(float(np.abs(xs, out=q).max(initial=0.0)), runs)
    if e is None:
        return None
    sigma, rest, terms = math.ldexp(1.0, e), xs.copy(), []
    while True:
        terms.append(_extract(sigma, rest, q, runs.starts))
        if not np.count_nonzero(rest):
            return np.stack(terms)
        sigma *= 2.0 ** (runs.scale - 53)


def _segment_fsum(xs: Array, runs: Runs, top: float | None = None) -> Array:
    """Exactly rounded column sums of the row segments of ``xs``, as math.fsum.

    Two error-free extraction passes (``_extract``; Rump, Ogita & Oishi,
    SIAM J. Sci. Comput. 2008) split every value into a part on a grid,
    whose sum is exact in any order, and a remainder; the second grid is
    derived from the first. The first grid is one for the whole call
    (``_grid_exponent``), set by ``top``, an upper bound on every
    magnitude, by default max|xs|, and by the runs' ``scale``. TwoSum turns
    the two exact sums into hi + lo. hi is the correctly rounded total when
    the remainders are all zero, as they are when every nonzero value lies
    within a factor 2**(53 - 2 * scale) of ``top``, or when |lo| plus a
    bound on the remainders' total stays below half the gap below |hi|,
    which is checked only when some remainder is left. Any cell without
    that certificate is summed by math.fsum, and so is every cell of a call
    without a grid (an inf or NaN value, or one within a factor 2**scale of
    overflow), so the result is fsum's byte for byte, and an fsum error is
    raised as fsum raises it.

    A grid cannot overflow: every part and partial sum stays below sigma in
    magnitude, so hi is finite and no numpy warning can arise. One grid
    saves a per-segment maximum and its broadcast to every row. Its price:
    a cell whose values all lie below about 2**(2 * scale - 53) times
    ``top`` leaves remainders too large for the certificate, so it is
    summed by math.fsum unless its values fit the second grid (zeros, or
    few significant bits). So does a cell whose sum cancels.
    """
    starts, scale = runs.starts, runs.scale
    q = np.empty_like(xs)
    if top is None:
        top = float(np.abs(xs, out=q).max(initial=0.0))
    e = _grid_exponent(top, runs)
    if e is None:
        hi = np.empty((len(runs), *xs.shape[1:]))
        ok = np.zeros(hi.shape, dtype=bool)
    else:
        sigma = math.ldexp(1.0, e)
        rest = xs.copy()
        t0 = _extract(sigma, rest, q, starts)
        t1 = _extract(sigma * 2.0 ** (scale - 53), rest, q, starts)
        hi = t0 + t1
        if not np.count_nonzero(rest):
            return hi
        z = hi - t0
        lo = (t0 - (hi - z)) + (t1 - z)
        # r_abs * (1 + 2**(scale - 51)), rounded, is at least the exact sum of |rest|.
        r_abs = np.add.reduceat(np.abs(rest, out=rest), starts, axis=0)
        bound = np.abs(lo) + r_abs * (1.0 + 2.0 ** (scale - 51))
        # The gap toward zero is the smaller one; shrinking its half by a
        # factor 1 - 2**-50 absorbs the rounding in ``bound``.
        mag = np.abs(hi)
        gap = mag - np.nextafter(mag, 0.0)
        ok = (r_abs == 0.0) | (bound < gap * (0.5 - 2.0 ** -51))
    for s, c in zip(*np.nonzero(~ok)):
        hi[s, c] = math.fsum(xs[starts[s]:starts[s] + runs.counts[s], c].tolist())
    return hi


def _plane_sum(p: Array, axis: int) -> Array:
    """``p.sum(axis=axis)`` bit for bit. numpy adds fewer than 8 terms one
    after another onto 0, which whole-array adds of the axis's planes
    repeat: one numpy call per term instead of a reduction call per output,
    faster for a head's few terms. From 8 terms on numpy orders them
    otherwise, so numpy sums them."""
    n = p.shape[axis]
    if n >= 8:
        return p.sum(axis=axis)
    lead = (slice(None),) * (axis % p.ndim)
    out = p[(*lead, 0)] + 0.0
    for i in range(1, n):
        out += p[(*lead, i)]
    return out


def _softmax_runs(x: Array, runs: Runs) -> Array:
    # Each segment column's largest term is exp(0) = 1.
    ex = np.exp(x - np.maximum.reduceat(x, runs.starts, axis=0).repeat(runs.counts, axis=0))
    return ex / _segment_fsum(ex, runs, top=1.0).repeat(runs.counts, axis=0)


def _softmax_runs_vjp(g: Array, w: Array, runs: Runs) -> Array:
    return w * (g - _segment_fsum(g * w, runs).repeat(runs.counts, axis=0))


@_op
def pooled_logits(rows: Tensor, cells: Cells, readout: Tensor | None,
                  weight: Tensor, bias: Tensor) -> Tensor:
    """Logits (B, C) of B graphs from their (N, d) node ``rows``, as one tape op.

    Cell k's mean is the exactly rounded sum of its rows (``cells.order``
    gathers them, one run each) divided by ``cells.sizes[k]``. Each mean is
    mapped by its type's slice of the (T, d, d) ``readout`` (by none when
    None), each graph's means are summed, exactly rounded, and divided by
    T = ``cells.n_types``, and the (C, d) ``weight`` and (C,) ``bias``
    classify the result. The bits are those of a row gather, a segment
    mean, ``typed_matmul``, a zero row per absent cell, a mean over each
    graph's T rows, ``linear`` and the bias added after it: an exactly
    rounded sum ignores zero terms. The VJP assigns each row's gradient
    through the permutation.
    """
    rows, weight, bias = _lift(rows), _lift(weight), _lift(bias)
    n_types = cells.n_types
    d = weight.data.shape[-1]
    if (rows.data.shape != (len(cells.order), d) or weight.data.ndim != 2
            or bias.data.shape != weight.data.shape[:1]
            or (readout is not None and readout.data.shape != (n_types, d, d))):
        raise ShapeError(f"pooled_logits: cells of {len(cells.order)} rows, rows "
                         f"{rows.data.shape}, weight {weight.data.shape}, bias "
                         f"{bias.data.shape}, maps for {n_types} types")
    types, sizes = cells.types.rows, cells.sizes[:, None]
    means = _segment_fsum(rows.data.take(cells.order, axis=0), cells.runs) / sizes
    mapped = means if readout is None else _rowwise_product(means, readout.data, types)
    x = _segment_fsum(mapped, cells.graphs) / n_types
    out = _rowwise_product(x, weight.data) + bias.data

    def vjp(g):
        # + 0.0 as the composition's scatters into zeros: -0.0 becomes +0.0.
        d_means = ((g @ weight.data) / n_types).take(cells.graph, axis=0) + 0.0
        d_readout = None
        if readout is not None:
            d_means, d_readout = _typed_grads(d_means, means, readout.data, types, True,
                                              readout.on_tape())
        d_rows = np.empty_like(rows.data)
        d_rows[cells.order] = (d_means / sizes).repeat(cells.runs.counts, axis=0) + 0.0
        d_weight = (x.T @ g).T if weight.on_tape() else None
        return (d_rows, d_weight, g.sum(axis=0), d_readout)

    parents = (rows, weight, bias) + (() if readout is None else (readout,))
    return _make(out, parents, vjp, "pooled_logits")


@_op
def edge_attention(table: Tensor, modulation: Tensor, src: Index, dst: Index, runs: Runs,
                   heads: int, mode: str = "mean") -> tuple[Tensor, Array]:
    """Edge-modulated attention over runs of edge rows, as one tape op.

    ``table`` is (m, heads * d_k). Edge row r takes its key and value from
    table row ``src.rows[r]``, its query from row ``dst.rows[r]`` and its
    modulation from row r of the (E, d_k) ``modulation``. Per head, the
    score is sum_j key_j * mod_j * query_j / sqrt(d_k), softmax-normalized
    per column over each of the ``runs``; a segment's output row is the
    ``mode`` aggregate (mean or sum, exactly rounded) of its rows' weighted
    values. Returns the (len(runs), heads * d_k) output and the (E, heads)
    weights.

    The forward is the same float operations, in the same order, as that
    composition of gathers, products and segment ops, one block of whole
    segments at a time (the runs' cached ``blocks``). The tape keeps only
    the weights and the indices: the VJP gathers keys and queries again,
    block by block, and scatters their gradients back with ``np.add.at``.
    """
    table, modulation = _lift(table), _lift(modulation)
    m, width = table.data.shape
    d_k = width // heads
    n_edges = len(src)
    if width != heads * d_k or modulation.data.shape != (n_edges, d_k) or len(dst) != n_edges:
        raise ShapeError(f"edge_attention: table {table.data.shape} with {heads} heads, "
                         f"modulation {modulation.data.shape}, {n_edges} sources, "
                         f"{len(dst)} targets")
    if max(src.bound, dst.bound) > m:
        raise ShapeError(f"edge_attention index out of range for {m} rows")
    if mode not in ("mean", "sum"):
        raise ConfigError(f"unknown aggregation mode {mode!r}")
    runs.check(n_edges, "edge_attention")
    src, dst = src.rows, dst.rows
    s = 1.0 / math.sqrt(d_k)
    mod = modulation.data.reshape(-1, 1, d_k)
    blocks = runs.blocks(_block_rows(_ATTEND_BYTES, 8 * width))
    counts = runs.counts[:, None]

    def gathered(rows):
        return (table.data.take(src[rows], axis=0).reshape(-1, heads, d_k),
                table.data.take(dst[rows], axis=0).reshape(-1, heads, d_k))

    w = np.empty((n_edges, heads))
    out = np.empty((len(runs), width))
    for segs, rows, b_runs in blocks:
        keys, queries = gathered(rows)
        w[rows] = _softmax_runs(_plane_sum((keys * mod[rows]) * queries, -1) * s, b_runs)
        out[segs] = _segment_fsum((keys * w[rows, :, None]).reshape(-1, width), b_runs)
    # An overflowing score makes its weights NaN; finite weights keep the output finite.
    _check_finite(w, "edge_attention")
    if mode == "mean":
        out /= counts

    def vjp(g):
        if mode == "mean":
            g = g / counts
        g_mod = np.empty((n_edges, d_k)) if modulation.on_tape() else None
        d_table = np.zeros_like(table.data) if table.on_tape() else None
        # np.add.at adds in index order: every key gradient, in edge order,
        # then every query gradient, as one call over both would.
        g_queries = np.empty((n_edges, heads, d_k)) if d_table is not None else None
        for segs, rows, b_runs in blocks:
            keys, queries = gathered(rows)
            w_b, mod_b = w[rows], mod[rows]
            g_vals = g[segs].repeat(b_runs.counts, axis=0).reshape(-1, heads, d_k)
            g_scores = _softmax_runs_vjp(_plane_sum(g_vals * keys, -1), w_b, b_runs) * s
            g_vals *= w_b[:, :, None]
            g_keymod = g_scores[:, :, None] * queries
            if g_mod is not None:
                g_mod[rows] = _plane_sum(g_keymod * keys, 1)
            if d_table is not None:
                np.multiply(g_scores[:, :, None], keys * mod_b, out=g_queries[rows])
                np.add.at(d_table, src[rows], (g_keymod * mod_b + g_vals).reshape(-1, width))
        if d_table is not None:
            np.add.at(d_table, dst, g_queries.reshape(-1, width))
        return (d_table, g_mod)

    return _make(out, (table, modulation), vjp, "edge_attention"), w


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def _topo(root: Tensor) -> list[Tensor]:
    """The tape tensors ``root`` reaches, parents before children; a
    constant, which takes no gradient, is left out. A Tensor hashes by
    identity, so it is its own key."""
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p not in seen and (p.requires_grad or p._vjp is not None):
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> dict[Tensor, Array]:
    """Propagate d(loss)/d(leaf) to every reachable grad-enabled leaf.

    Returns the leaf -> gradient map. The VJPs and the gradient sums run
    ``quiet``: an overflowing gradient is left non-finite, with no numpy
    warning, for the caller to check (``train.adam_step`` raises
    TrainingError). The tape is consumed: a second backward through the
    same intermediate tensors is not possible.
    """
    if loss.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {loss.data.shape}")
    order = _topo(loss)
    grads: dict[Tensor, Array] = {loss: np.ones_like(loss.data)}
    leaf_grads: dict[Tensor, Array] = {}
    with quiet():
        for node in reversed(order):
            g = grads.pop(node, None)
            if g is None:
                continue
            if node._vjp is None:
                if node.requires_grad:
                    leaf_grads[node] = g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not (parent.requires_grad or parent._vjp is not None):
                    continue
                acc = grads.get(parent)
                grads[parent] = pg if acc is None else acc + pg
    for node in order:
        node._parents = ()
        node._vjp = None
    return leaf_grads


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               eps: float = 1e-4) -> float:
    """Compare backward() gradients of f against central differences.

    ``f`` must rebuild its forward pass on every call and return a scalar
    tensor. Returns the maximum over all parameter coordinates of
    ``|g_a - g_n| / max(1e-8, |g_a| + |g_n|)``.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ConfigError(f"grad_check eps must be finite and positive, got {eps}")
    out = f()
    if out.size != 1:
        raise ContractError("grad_check objective must be scalar")
    analytic = backward(out)
    worst = 0.0
    for p in params:
        ga = analytic.get(p)
        ga_flat = np.zeros(p.size) if ga is None else ga.reshape(-1)
        flat = p.data.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            with no_grad():
                fp = f().item()
            flat[j] = orig - eps
            with no_grad():
                fm = f().item()
            flat[j] = orig
            gn = (fp - fm) / (2.0 * eps)
            err = abs(ga_flat[j] - gn) / max(1e-8, abs(ga_flat[j]) + abs(gn))
            if err > worst:
                worst = err
    return worst
