"""Dense float64 tensors with tape-based reverse-mode differentiation.

Only the operations the graph model calls are implemented: the affine
map ``linear`` and its per-row-type form ``typed_matmul``, elementwise
product and scaling, concatenation, row gathering, the total sum, row
softmax, segment aggregation, the fused attention layer core
``edge_attention``, leaky ReLU, dropout-mask application, and
cross-entropy. Everything is float64 and any op that produces NaN/Inf
raises NonFiniteError, without a numpy warning before it.

``typed_matmul``'s VJP spreads row r's gradient into column block
``type_idx[r]`` of an (n, T * d_out) array, so both gradients are one BLAS
product each, with no sort or loop over types. ``edge_attention`` gathers
key, query and value rows per edge, scores, normalizes and aggregates
them in one op whose forward performs the float operations of the
composition of gathers, products, a per-segment softmax and
``segment_reduce`` in the same order, so its outputs and weights are
bit-equal to that composition's. Its tape entry keeps only the (E, heads)
weights and the index arrays; the VJP gathers the rows again from the
parents (a recompute, as in FlashAttention's backward) and scatters their
gradients with ``np.add.at``.

The segment ops take runs of consecutive rows, the CSR layout in which
``hetgraph.batch_graphs`` sorts edges by target: segment s is the
``counts[s]`` rows that follow segment s - 1. A count that is not positive,
or counts that do not sum to the row count, is a ContractError.

Reductions whose operand order depends on node/edge ordering (segment
aggregation and pooling, per-segment softmax denominators and their
gradients) are exactly rounded, so their results are independent of row
permutation; this is what makes node-relabeling equivariance bit-exact.
The segment ops work on whole arrays: ``np.maximum.reduceat`` for maxima,
``np.repeat`` to broadcast back (the VJPs too), and one kernel,
``_segment_fsum``, for per-segment column sums. It splits the
values by error-free extraction into parts that numpy sums exactly,
certifies that the result is correctly rounded, and sums any cell it
cannot certify with math.fsum, so every sum equals math.fsum's bit for bit.

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
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, NonFiniteError, ShapeError

Array = np.ndarray

_GRAD_ENABLED = True


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
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """A float64 ndarray plus the bookkeeping needed for backward().

    Leaves are created directly with ``requires_grad=True``; every other
    tensor is produced by the ops below, which record a vector-Jacobian
    closure on the tape while grad mode is on.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, "tensor")
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], Sequence[Array | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def on_tape(self) -> bool:
        return self.requires_grad or self._vjp is not None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: Array, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.name = None
    out.requires_grad = False
    if _GRAD_ENABLED and any(p.on_tape() for p in parents):
        out._parents = parents
        out._vjp = vjp
    else:
        out._parents = ()
        out._vjp = None
    return out


def _op(f):
    """An op whose float work runs with numpy's overflow and invalid-value
    warnings off: ``_make`` raises NonFiniteError on a non-finite result."""
    @functools.wraps(f)
    def run(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return f(*args, **kwargs)
    return run


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum out broadcast dimensions so grad matches the original shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops
# ---------------------------------------------------------------------------

@_op
def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data * b.data

    def vjp(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.on_tape() else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.on_tape() else None
        return (ga, gb)

    return _make(out, (a, b), vjp, "mul")


@_op
def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def vjp(g):
        return (g * s,)

    return _make(a.data * s, (a,), vjp, "scale")


def _rowwise_product(x: Array, w: Array) -> Array:
    """``out[r, o] = sum_i x[r, i] * w[..., o, i]``, each row from its own input row only.

    ``w`` is (d_out, d_in), or (n, d_out, d_in) for one weight per row. A
    broadcast product summed along its contiguous last axis rounds every
    output row the same whatever other rows share the call, which BLAS does
    not promise (see the module docstring).
    """
    return np.multiply(x[:, None, :], w, order="C").sum(axis=-1)


@_op
def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """The affine map ``x @ w.T (+ b)`` as one tape op.

    ``x`` is (n, d_in), ``w`` is (d_out, d_in) and ``b``, if given, is
    (d_out,). Each output row is built from its own input row only.
    """
    x, w = _lift(x), _lift(w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"linear expects x (n, d_in) and w (d_out, d_in), "
                         f"got {x.data.shape} and {w.data.shape}")
    out = _rowwise_product(x.data, w.data)
    parents = (x, w)
    if b is not None:
        b = _lift(b)
        if b.data.shape != (w.data.shape[0],):
            raise ShapeError(f"linear bias has shape {b.data.shape}, expected ({w.data.shape[0]},)")
        out += b.data
        parents = (x, w, b)

    def vjp(g):
        dx = g @ w.data if x.on_tape() else None
        dw = (x.data.T @ g).T if w.on_tape() else None
        return (dx, dw) if b is None else (dx, dw, g.sum(axis=0))

    return _make(out, parents, vjp, "linear")


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_lift(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(piece if p.on_tape() else None
                     for p, piece in zip(parts, np.split(g, offsets, axis=axis)))

    return _make(out, tuple(parts), vjp, "concat")


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows (entries of the first axis) of a tensor of two or more
    dimensions; duplicate indices are allowed."""
    if a.data.ndim < 2:
        raise ShapeError(f"gather_rows expects a tensor of at least 2-D, got {a.data.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows expects a 1-D index array")
    n = a.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"gather_rows index out of range for {n} rows")
    out = a.data[idx]

    def vjp(g):
        da = np.zeros_like(a.data)
        np.add.at(da, idx, g)
        return (da,)

    return _make(out, (a,), vjp, "gather_rows")


@_op
def typed_matmul(x: Tensor, w: Tensor, type_idx) -> Tensor:
    """Row r of the result is ``w[type_idx[r]] @ x[r]``: one weight per row type.

    ``x`` is (n, d_in), ``w`` is (T, d_out, d_in) and ``type_idx`` is (n,)
    with values in [0, T). Row r equals ``linear`` of x[r] and
    ``w[type_idx[r]]`` bit for bit; the weight of a type no row has gets a
    zero gradient.
    """
    x, w = _lift(x), _lift(w)
    idx = np.asarray(type_idx, dtype=np.intp)
    if x.data.ndim != 2 or w.data.ndim != 3 or w.data.shape[2] != x.data.shape[1]:
        raise ShapeError(f"typed_matmul expects x (n, d_in) and w (T, d_out, d_in), "
                         f"got {x.data.shape} and {w.data.shape}")
    n, n_types = x.data.shape[0], w.data.shape[0]
    if idx.shape != (n,):
        raise ShapeError(f"typed_matmul: type index has shape {idx.shape}, x has {n} rows")
    if n and (idx.min() < 0 or idx.max() >= n_types):
        raise ShapeError(f"typed_matmul: type index out of range for {n_types} types")
    out = _rowwise_product(x.data, w.data[idx])

    def vjp(g):
        # Row r's gradient sits in column block type_idx[r] of ``spread``, so
        # the per-type products are two BLAS calls over all rows at once.
        spread = np.zeros((n, n_types, g.shape[1]))
        spread[np.arange(n), idx] = g
        spread = spread.reshape(n, -1)
        dx = spread @ w.data.reshape(spread.shape[1], -1) if x.on_tape() else None
        dw = (spread.T @ x.data).reshape(w.data.shape) if w.on_tape() else None
        return (dx, dw)

    return _make(out, (x, w), vjp, "typed_matmul")


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
def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor, stabilized by max subtraction."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D tensor, got {x.data.shape}")
    if x.data.shape[1] == 0:
        raise ShapeError("softmax over an empty row dimension")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    w = ex / ex.sum(axis=1, keepdims=True)

    def vjp(g):
        dots = np.sum(g * w, axis=1, keepdims=True)
        return (w * (g - dots),)

    return _make(w, (x,), vjp, "softmax_rows")


@_op
def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    mask = np.where(x.data > 0.0, 1.0, negative_slope)

    def vjp(g):
        return (g * mask,)

    return _make(x.data * mask, (x,), vjp, "leaky_relu")


def dropout(x: Tensor, drop_prob: float, rng: np.random.Generator | None,
            training: bool, blocks: Sequence[int] | None = None) -> Tensor:
    """Inverted dropout: scales kept entries by 1/keep; identity in eval.

    ``rng`` draws the mask of all rows; with ``blocks`` it is a sequence of
    generators instead, and ``rng[i]`` draws the mask of the ``blocks[i]``
    rows that follow block i - 1 (one stream per graph of a batch).
    """
    if not training or drop_prob == 0.0:
        return x
    if not 0.0 <= drop_prob < 1.0:
        raise ConfigError(f"drop_prob must be in [0, 1), got {drop_prob}")
    if rng is None:
        raise ConfigError("dropout in training mode requires an rng")
    if blocks is None:
        draws = rng.random(x.data.shape)
    else:
        if len(rng) != len(blocks):
            raise ConfigError(f"dropout: {len(rng)} generators for {len(blocks)} row blocks")
        draws = np.concatenate([r.random((n, *x.data.shape[1:])) for r, n in zip(rng, blocks)])
    keep = 1.0 - drop_prob
    mask = (draws < keep).astype(np.float64) / keep
    return mul(x, Tensor(mask))


@_op
def cross_entropy(logits: Tensor, labels: int | Sequence[int] | Array) -> Tensor:
    """-log softmax(logits)[label], stabilized.

    1-D logits (C,) with one label give a scalar; (B, C) logits with one
    label per row give the B row losses, each row byte-equal to its own
    1-D loss. Row sums are exactly rounded (as math.fsum) and the log is
    ``math.log``, which numpy's vectorized log does not match bit for bit.
    """
    d = logits.data
    if d.ndim not in (1, 2):
        raise ShapeError(f"cross_entropy expects 1-D or 2-D logits, got {d.shape}")
    rows = d.reshape(1, -1) if d.ndim == 1 else d
    b, n = rows.shape
    y = np.asarray(labels, dtype=np.intp).reshape(-1)
    if y.shape != (b,):
        raise ShapeError(f"cross_entropy: {y.size} labels for {b} rows of logits")
    bad = (y < 0) | (y >= n)
    if bad.any():
        raise ConfigError(f"label {int(y[bad][0])} out of range for {n} classes")
    m = rows.max(axis=1)
    sums = _segment_fsum(np.exp(rows - m[:, None]).T, np.zeros(1, dtype=np.intp),
                         np.array([n]))[0]
    lse = m + np.array([math.log(s) for s in sums.tolist()])
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

def _runs(counts, n_rows: int, op: str) -> tuple[Array, Array]:
    """(starts, counts) of segments given as runs of consecutive rows."""
    counts = np.asarray(counts, dtype=np.intp)
    if counts.ndim != 1 or int(counts.sum()) != n_rows:
        raise ContractError(f"{op}: segment counts {counts.shape} sum to {int(counts.sum())}, "
                            f"tensor has {n_rows} rows")
    if not (counts > 0).all():
        raise ContractError(f"{op}: segment {int(np.argmin(counts))} is empty "
                            "(node without incoming edges)")
    return np.cumsum(counts) - counts, counts


def _grid_scale(counts: Array) -> int:
    """The least ``scale`` with 2**scale >= every count + 2."""
    return int(counts.max(initial=0) + 1).bit_length()


def _extract(rest: Array, starts: Array, counts: Array, scale: int) -> tuple[Array, Array]:
    """One error-free extraction pass over row segments: the exact column
    sums of each segment's parts on its grid, and the remainders.

    Each value is split into a part on a grid fixed per segment and column
    (2**(scale - 52) times the power of two above the column's largest
    magnitude), whose sum is exact in any order, and a remainder below that
    grid. Call under ``np.errstate``: a column near overflow gives NaN.
    """
    mu = np.maximum.reduceat(np.abs(rest), starts, axis=0)
    sigma = np.repeat(np.ldexp(2.0 ** scale, np.frexp(mu)[1]), counts, axis=0)
    q = (sigma + rest) - sigma
    return np.add.reduceat(q, starts, axis=0), rest - q


def _segment_expansion(xs: Array, starts: Array, counts: Array) -> tuple[Array, Array]:
    """Exact column sums of the row segments of ``xs`` as expansions.

    Returns (K, S, d) terms whose sum over the first axis is, exactly in
    real arithmetic, segment s's column sums, and an (S,) flag: the
    segment's terms are all finite. Extraction passes repeat until every
    remainder is zero; each pass lowers the grid by at least 52 - scale
    bits, so the loop ends once the grid reaches the smallest subnormal, if
    not before. A segment whose pass overflows is flagged and its
    remainders dropped.
    """
    scale = _grid_scale(counts)
    terms = []
    finite = np.ones(len(starts), dtype=bool)
    rest = xs
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            tau, rest = _extract(rest, starts, counts, scale)
            terms.append(tau)
            finite &= np.isfinite(tau).all(axis=1)
            rest[np.repeat(~finite, counts)] = 0.0
            if not rest.any():
                return np.stack(terms), finite


def _segment_fsum(xs: Array, starts: Array, counts: Array) -> Array:
    """Exactly rounded column sums of the row segments of ``xs``, as math.fsum.

    Segment s is rows ``starts[s]:starts[s] + counts[s]``. Two error-free
    extraction passes (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 2008) split
    every value into a part on a grid fixed per segment and column, whose sum
    is exact in any order, and a remainder. TwoSum turns the two exact sums
    into hi + lo. hi is the correctly rounded total when the remainders are
    all zero, or when |lo| plus a bound on the remainders' total stays below
    half the gap at hi. Any cell without that certificate (extreme dynamic
    range, overflow) is summed by math.fsum, so the result is fsum's byte for
    byte.
    """
    scale = _grid_scale(counts)
    with np.errstate(over="ignore", invalid="ignore"):
        rest, tau = xs, []
        for _ in range(2):
            t, rest = _extract(rest, starts, counts, scale)
            tau.append(t)
        hi = tau[0] + tau[1]
        z = hi - tau[0]
        lo = (tau[0] - (hi - z)) + (tau[1] - z)
        # r_abs * (1 + 2**(scale - 51)), rounded, is at least the exact sum of |rest|.
        r_abs = np.add.reduceat(np.abs(rest), starts, axis=0)
        bound = np.abs(lo) + r_abs * (1.0 + 2.0 ** (scale - 51))
        # The gap toward zero is the smaller one; shrinking its half by a
        # factor 1 - 2**-50 absorbs the rounding in ``bound``.
        mag = np.abs(hi)
        gap = mag - np.nextafter(mag, 0.0)
        ok = np.isfinite(hi) & ((r_abs == 0.0) | (bound < gap * (0.5 - 2.0 ** -51)))
    if not ok.all():
        for s, c in zip(*np.nonzero(~ok)):
            hi[s, c] = math.fsum(xs[starts[s]:starts[s] + counts[s], c].tolist())
    return hi


def _softmax_runs(x: Array, starts: Array, counts: Array) -> Array:
    ex = np.exp(x - np.repeat(np.maximum.reduceat(x, starts, axis=0), counts, axis=0))
    return ex / np.repeat(_segment_fsum(ex, starts, counts), counts, axis=0)


def _softmax_runs_vjp(g: Array, w: Array, starts: Array, counts: Array) -> Array:
    return w * (g - np.repeat(_segment_fsum(g * w, starts, counts), counts, axis=0))


@_op
def segment_reduce(x: Tensor, counts, mode: str = "mean") -> Tensor:
    """Aggregate each segment to one output row: the ``mode`` (mean or sum)
    of its rows, exactly rounded."""
    if x.data.ndim != 2:
        raise ShapeError(f"segment_reduce expects a 2-D tensor, got {x.data.shape}")
    if mode not in ("mean", "sum"):
        raise ConfigError(f"unknown segment_reduce mode {mode!r}")
    starts, counts = _runs(counts, x.data.shape[0], "segment_reduce")
    out = _segment_fsum(x.data, starts, counts)
    if mode == "mean":
        out /= counts[:, None]

    def vjp(g):
        return (np.repeat(g / counts[:, None] if mode == "mean" else g, counts, axis=0),)

    return _make(out, (x,), vjp, "segment_reduce")


@_op
def edge_attention(table: Tensor, values: Tensor | None, modulation: Tensor, src, dst,
                   counts, heads: int, mode: str = "mean") -> tuple[Tensor, Array]:
    """Edge-modulated attention over runs of edge rows, as one tape op.

    ``table`` is (m, heads * d_k). Edge row r takes its key from table row
    ``src[r]``, its query from row ``dst[r]``, its value from row ``src[r]`` of
    ``values`` (of ``table`` if None) and its modulation from row r of the
    (E, d_k) ``modulation``. Per head, the score is
    sum_j key_j * mod_j * query_j / sqrt(d_k), softmax-normalized per column
    over each segment; a segment's output row is the
    ``mode`` aggregate (as in ``segment_reduce``) of its rows' weighted
    values. Returns the (len(counts), heads * d_k) output and the (E, heads)
    weights.

    The forward is the same float operations, in the same order, as that
    composition of gathers, products and segment ops. The tape keeps only
    the weights and the index arrays: the VJP gathers keys, queries and
    values again from the parents and scatters their gradients back with
    one ``np.add.at`` per table.
    """
    table, modulation = _lift(table), _lift(modulation)
    src, dst = np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
    m, width = table.data.shape
    d_k = width // heads
    n_edges = src.shape[0]
    if width != heads * d_k or modulation.data.shape != (n_edges, d_k) or dst.shape != src.shape:
        raise ShapeError(f"edge_attention: table {table.data.shape} with {heads} heads, "
                         f"modulation {modulation.data.shape}, {n_edges} sources, "
                         f"{dst.shape[0]} targets")
    if values is not None and values.data.shape != table.data.shape:
        raise ShapeError(f"edge_attention: values {values.data.shape}, table {table.data.shape}")
    if n_edges and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= m):
        raise ShapeError(f"edge_attention index out of range for {m} rows")
    if mode not in ("mean", "sum"):
        raise ConfigError(f"unknown aggregation mode {mode!r}")
    starts, counts = _runs(counts, n_edges, "edge_attention")
    s = 1.0 / math.sqrt(d_k)
    mod = modulation.data.reshape(-1, 1, d_k)

    def gathered():
        keys = table.data[src].reshape(-1, heads, d_k)
        vals = keys if values is None else values.data[src].reshape(-1, heads, d_k)
        return keys, table.data[dst].reshape(-1, heads, d_k), vals

    keys, queries, vals = gathered()
    w = _softmax_runs(((keys * mod) * queries).sum(axis=2) * s, starts, counts)
    out = _segment_fsum((vals * w[:, :, None]).reshape(-1, width), starts, counts)
    if mode == "mean":
        out /= counts[:, None]

    def vjp(g):
        keys, queries, vals = gathered()
        g_vals = np.repeat(g / counts[:, None] if mode == "mean" else g, counts,
                           axis=0).reshape(-1, heads, d_k)
        g_scores = _softmax_runs_vjp((g_vals * vals).sum(axis=2), w, starts, counts) * s
        g_vals *= w[:, :, None]
        g_keymod = g_scores[:, :, None] * queries
        g_queries = g_scores[:, :, None] * (keys * mod)
        g_mod = (g_keymod * keys).sum(axis=1) if modulation.on_tape() else None
        g_keys = g_keymod * mod
        if values is None:
            g_keys += g_vals
        d_table = d_values = None
        if table.on_tape():
            d_table = np.zeros_like(table.data)
            np.add.at(d_table, np.concatenate([src, dst]),
                      np.concatenate([g_keys, g_queries]).reshape(-1, width))
        if values is not None and values.on_tape():
            d_values = np.zeros_like(values.data)
            np.add.at(d_values, src, g_vals.reshape(-1, width))
        return (d_table, g_mod, d_values)

    parents = (table, modulation) if values is None else (table, modulation, values)
    return _make(out, parents, vjp, "edge_attention"), w


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def _topo(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> dict[Tensor, Array]:
    """Propagate d(loss)/d(leaf) to every reachable grad-enabled leaf.

    Returns the leaf -> gradient map and also stores each gradient on the
    leaf's ``.grad``. The tape is consumed: a second backward through the
    same intermediate tensors is not possible.
    """
    if loss.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {loss.data.shape}")
    order = _topo(loss)
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    leaf_grads: dict[Tensor, Array] = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                node.grad = g
                leaf_grads[node] = g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.on_tape():
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
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
