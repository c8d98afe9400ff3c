"""Tensor engine: op semantics, backward correctness, gradient checking."""

import dataclasses
import inspect
import math
import re
import signal
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import (add, forced_blocks, ref_grid_scale, ref_segment_fsum, reshape,
                        segment_softmax, segment_sum)
from heatnet import autodiff as ad
from heatnet.autodiff import Tensor
from heatnet.builder import BuildConfig, PatchRecord, build_graph
from heatnet.errors import ConfigError, ContractError, NonFiniteError, ShapeError
from heatnet.explain import explain_graph
from heatnet.hetgraph import DEFAULT_TYPE_NAMES, batch_graphs
from heatnet.model import Model, ModelConfig
from heatnet.synth import SyntheticSpec, synth_generate
from heatnet.testing import random_labeled_graph
from heatnet.train import TrainConfig, train


class TestMatmul:
    """``linear``: rows times a (d_out, d_in) weight, plus an optional bias."""

    def test_identity(self):
        a = Tensor(np.eye(2))
        w = Tensor([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(ad.linear(a, w).data, [[1, 2], [3, 4]])

    def test_zero(self):
        out = ad.linear(Tensor([[1.0, 2.0]]), Tensor([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_hand_product(self):
        out = ad.linear(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0]]))
        # hand multiplication: [1*5+2*6, 3*5+4*6]
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.linear(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0, 3.0]]))
        with pytest.raises(ShapeError):
            ad.linear(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0]))
        with pytest.raises(ShapeError):
            ad.linear(Tensor([1.0, 2.0]), Tensor([[1.0, 2.0]]))

    def test_gradients(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = Tensor(np.arange(12.0).reshape(3, 4).T.copy(), requires_grad=True)
        loss = ad.reduce_sum(ad.linear(a, w))
        grads = ad.backward(loss)
        np.testing.assert_allclose(grads[a], np.ones((2, 4)) @ w.data)
        np.testing.assert_allclose(grads[w], (a.data.T @ np.ones((2, 4))).T)

    def test_bias(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]], requires_grad=True)
        w = Tensor([[5.0, 6.0], [-1.0, 0.5]], requires_grad=True)
        b = Tensor([0.25, -2.0], requires_grad=True)
        out = ad.linear(x, w, b)
        np.testing.assert_array_equal(out.data, [[17.25, -2.0], [39.25, -3.0], [0.25, -2.0]])
        g = np.array([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.5]])
        grads = ad.backward(ad.reduce_sum(ad.mul(out, Tensor(g))))
        np.testing.assert_array_equal(grads[b], [3.0, 6.5])
        np.testing.assert_array_equal(grads[x], g @ w.data)
        np.testing.assert_array_equal(grads[w], g.T @ x.data)

        def f():
            y = ad.linear(x, w, b)
            return ad.reduce_sum(ad.mul(y, y))

        assert ad.grad_check(f, [x, w, b]) < 1e-5


class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_allclose(ad.softmax_rows(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_stability_under_shift(self):
        np.testing.assert_allclose(ad.softmax_rows(Tensor([[1000.0, 1000.0]])).data, [[0.5, 0.5]])

    def test_known_values(self):
        out = ad.softmax_rows(Tensor([[math.log(1.0), math.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_rows_sum_to_one_for_large_shifts(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal((4, 6)) + rng.choice([0.0, 1e6, -1e6])
            w = ad.softmax_rows(Tensor(x)).data
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
            assert (w >= 0).all()

    def test_empty_row_dimension_rejected(self):
        with pytest.raises(ShapeError):
            ad.softmax_rows(Tensor(np.zeros((2, 0))))


@st.composite
def logit_rows(draw):
    """(B, C) logits with ties, huge magnitudes and their labels."""
    b, c = draw(st.integers(1, 6)), draw(st.integers(2, 5))
    value = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, -0.0, 1.0, 1e300, -1e300]))
    rows = np.array(draw(st.lists(st.lists(value, min_size=c, max_size=c),
                                  min_size=b, max_size=b)))
    return rows, np.array(draw(st.lists(st.integers(0, c - 1), min_size=b, max_size=b)))


class TestCrossEntropy:
    @settings(max_examples=200, deadline=None)
    @given(case=logit_rows())
    def test_rows_are_the_fsum_formula_byte_for_byte(self, case):
        # Each row's loss is its own definition, m + log(fsum(exp(row - m))) - row[y],
        # and 1-D logits give exactly the matching 2-D row.
        rows, labels = case
        out = ad.cross_entropy(Tensor(rows), labels).data
        for r, (row, y) in enumerate(zip(rows, labels.tolist())):
            m = row.max()
            want = (m + math.log(math.fsum(np.exp(row - m).tolist()))) - row[y]
            assert out[r].tobytes() == np.float64(want).tobytes(), r
            assert ad.cross_entropy(Tensor(row), y).data.tobytes() == out[r].tobytes(), r

    def test_uniform(self):
        loss = ad.cross_entropy(Tensor([0.0, 0.0]), 0)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_certain_correct_is_near_zero(self):
        loss = ad.cross_entropy(Tensor([50.0, -50.0]), 0)
        assert 0.0 <= loss.item() < 1e-40

    def test_known_value(self):
        loss = ad.cross_entropy(Tensor([1.0, 2.0]), 1)
        # -log(e^2 / (e^1 + e^2)) = log(1 + e^-1)
        assert loss.item() == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ConfigError):
            ad.cross_entropy(Tensor([0.0, 0.0]), 2)

    def test_gradient_analytic(self):
        w = Tensor([0.0], requires_grad=True)
        logits = ad.concat([reshape(w, (1, 1)), Tensor([[0.0]])], axis=1)
        loss = ad.cross_entropy(reshape(logits, (2,)), 0)
        grads = ad.backward(loss)
        # d/dw of -log softmax_0 = softmax_0 - 1 = -0.5 at w=0
        assert grads[w][0] == pytest.approx(-0.5, abs=1e-12)

    def test_rows_byte_equal_to_one_row_formula(self):
        # the 1-D loss as first written: max shift, math.fsum, math.log
        def one_row(d, label):
            m = d.max()
            return m + math.log(math.fsum(np.exp(d - m).tolist())) - d[label]

        # numpy's vectorized log differs from math.log in the last bit on
        # about 1 in 20 sums just above 1 (one dominant logit)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            b, c = rng.integers(1, 9), rng.integers(2, 7)
            logits = rng.standard_normal((b, c)) * rng.choice([0.01, 1.0, 5.0, 30.0])
            labels = rng.integers(0, c, size=b)
            rows = ad.cross_entropy(Tensor(logits), labels).data
            assert rows.shape == (b,)
            for r in range(b):
                assert rows[r] == one_row(logits[r], labels[r])
                assert ad.cross_entropy(Tensor(logits[r]), labels[r]).item() == rows[r]

    def test_row_gradients_match_one_dimensional(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 2])
        x = Tensor(logits, requires_grad=True)
        grad = ad.backward(ad.reduce_sum(ad.cross_entropy(x, labels)))[x]
        for r in range(4):
            xr = Tensor(logits[r], requires_grad=True)
            assert (ad.backward(ad.cross_entropy(xr, labels[r]))[xr] == grad[r]).all()

    def test_row_wise_grad_check(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=5)

        def f():
            return ad.scale(ad.reduce_sum(ad.cross_entropy(x, labels)), 1.0 / 5)

        assert ad.grad_check(f, [x]) < 1e-5

    def test_row_labels_checked(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy(Tensor(np.zeros((3, 2))), [0, 1])
        with pytest.raises(ConfigError):
            ad.cross_entropy(Tensor(np.zeros((2, 2))), [0, 2])


class TestBackward:
    def test_linear(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        grads = ad.backward(ad.reduce_sum(w))
        np.testing.assert_array_equal(grads[w], [1.0, 1.0, 1.0])

    def test_quadratic(self):
        w = Tensor([2.0], requires_grad=True)
        grads = ad.backward(ad.reduce_sum(ad.mul(w, w)))
        np.testing.assert_array_equal(grads[w], [4.0])

    def test_shared_subexpression_accumulates(self):
        w = Tensor([3.0], requires_grad=True)
        y = add(ad.mul(w, w), ad.scale(w, 2.0))  # w^2 + 2w -> 2w + 2 = 8
        grads = ad.backward(ad.reduce_sum(y))
        assert grads[w][0] == pytest.approx(8.0)

    def test_non_scalar_root_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.mul(w, w))

    def test_grad_map_covers_only_reached_leaves(self):
        w = Tensor([1.0], requires_grad=True)
        unused = Tensor([1.0], requires_grad=True)
        grads = ad.backward(ad.reduce_sum(w))
        assert w in grads and unused not in grads


class TestOps:
    def test_concat_grads(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        cat = ad.concat([a, b], axis=1)
        loss = ad.reduce_sum(ad.mul(cat, Tensor([0.0, 1.0, 1.0, 1.0, 0.0])))
        grads = ad.backward(loss)
        np.testing.assert_array_equal(grads[a], [[0, 1], [0, 1]])
        np.testing.assert_array_equal(grads[b], [[1, 1, 0], [1, 1, 0]])

    def test_gather_rows_duplicate_indices(self):
        a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = ad.gather_rows(a, ad.Index([0, 0, 2], 3))
        grads = ad.backward(ad.reduce_sum(out))
        np.testing.assert_array_equal(grads[a], [[2, 2], [0, 0], [1, 1]])

    def test_one_segment_mean_matches_numpy(self):
        x = np.random.default_rng(1).standard_normal((5, 3))
        out = ad.segment_reduce(Tensor(x), ad.Runs([5])).data
        np.testing.assert_allclose(out, x.mean(axis=0, keepdims=True), atol=1e-15)

    def test_one_segment_mean_order_independent_bitwise(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((7, 4))
        perm = rng.permutation(7)
        a = ad.segment_reduce(Tensor(x), ad.Runs([7])).data
        b = ad.segment_reduce(Tensor(x[perm]), ad.Runs([7])).data
        assert (a == b).all()

    def test_leaky_relu(self):
        x = Tensor([[-2.0, 3.0]], requires_grad=True)
        out = ad.leaky_relu(x, 0.01)
        np.testing.assert_allclose(out.data, [[-0.02, 3.0]])
        grads = ad.backward(ad.reduce_sum(out))
        np.testing.assert_allclose(grads[x], [[0.01, 1.0]])

    def test_dropout_eval_is_identity(self):
        x = Tensor([[1.0, 2.0]])
        assert ad.dropout(x, 0.2, None, training=False) is x

    def test_dropout_train_scales_kept_entries(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones((100, 10)))
        out = ad.dropout(x, 0.2, [rng], training=True, blocks=[100])
        vals = np.unique(out.data)
        assert set(np.round(vals, 12)) <= {0.0, round(1.0 / 0.8, 12)}

    def test_non_finite_raises(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.inf])
        big = Tensor([[1e308]])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            ad.mul(big, big)


class TestTypedMatmul:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        self.w = Tensor(rng.standard_normal((3, 4, 3)), requires_grad=True)
        self.idx = ad.Index([2, 0, 2, 0, 0, 2], 3)  # type 1 has no rows

    def test_rows_use_their_types_weight(self):
        out = ad.typed_matmul(self.x, self.w, self.idx).data
        for r, t in enumerate(self.idx.rows):
            np.testing.assert_allclose(out[r], self.w.data[t] @ self.x.data[r], atol=1e-15)

    def test_gradients_pass_grad_check(self):
        def f():
            y = ad.typed_matmul(self.x, self.w, self.idx)
            return ad.reduce_sum(ad.mul(y, y))

        assert ad.grad_check(f, [self.x, self.w], eps=1e-4) < 1e-5

    def test_absent_type_gets_zero_gradient(self):
        grads = ad.backward(ad.reduce_sum(ad.typed_matmul(self.x, self.w, self.idx)))
        assert (grads[self.w][1] == 0.0).all()
        assert (grads[self.w][[0, 2]] != 0.0).all()

    def test_gradients_equal_per_row_products(self):
        # the one-hot spread VJP against row-by-row products
        g = np.random.default_rng(4).standard_normal((6, 4))
        grads = ad.backward(ad.reduce_sum(ad.mul(ad.typed_matmul(self.x, self.w, self.idx),
                                                 Tensor(g))))
        dx = np.stack([self.w.data[t].T @ g[r] for r, t in enumerate(self.idx.rows)])
        dw = np.zeros_like(self.w.data)
        for r, t in enumerate(self.idx.rows):
            dw[t] += np.outer(g[r], self.x.data[r])
        np.testing.assert_allclose(grads[self.x], dx, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(grads[self.w], dw, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_row_blocks_change_no_bits(self, rows):
        """Blocks of ``rows`` rows, each gathering its own rows' weights, give
        the one-block output and gradients byte for byte."""
        g = np.random.default_rng(4).standard_normal((6, 4))
        runs = []
        for blocks in (None, rows):
            x, w = (Tensor(t.data, requires_grad=True) for t in (self.x, self.w))
            with forced_blocks(blocks):
                y = ad.typed_matmul(x, w, self.idx)
                grads = ad.backward(ad.reduce_sum(ad.mul(y, Tensor(g))))
            runs.append([y.data.tobytes(), grads[x].tobytes(), grads[w].tobytes()])
        assert runs[0] == runs[1]

    def test_one_type_is_plain_matmul(self):
        w = Tensor(self.w.data[:1], requires_grad=True)
        typed = ad.typed_matmul(self.x, w, ad.Index(np.zeros(6, dtype=np.intp), 1))
        plain = ad.linear(self.x, Tensor(w.data[0]))
        np.testing.assert_array_equal(typed.data, plain.data)

    @pytest.mark.parametrize("x_shape,w_shape,idx", [
        ((6, 3), (3, 4, 3), [0, 1, 2, 3, 0, 0]),   # type index beyond T
        ((6, 3), (3, 4, 3), [0, 1, 2, -1, 0, 0]),  # negative type index
        ((6, 3), (3, 4, 3), [0, 1, 2]),            # index shorter than x
        ((6, 3), (4, 3), [0] * 6),                 # 2-D weight
        ((6, 3), (3, 4, 2), [0] * 6),              # d_in mismatch
        ((6,), (3, 4, 3), [0] * 6),                # 1-D x
    ])
    def test_bad_shape_or_index_rejected(self, x_shape, w_shape, idx):
        with pytest.raises(ShapeError):
            ad.typed_matmul(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)),
                            ad.Index(idx, w_shape[0]))


class TestRowInvariance:
    """A product row never depends on which other rows share the product."""

    @staticmethod
    def check_rows(x, w, rows):
        """``linear`` of ``x`` and the (d_in, d_out) ``w``'s transpose: rows
        ``rows`` alone equal those rows of the full product."""
        full = ad.linear(Tensor(x), Tensor(w.T)).data
        sub = ad.linear(Tensor(x[rows]), Tensor(w.T)).data
        assert sub.tobytes() == full[rows].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 64), d_in=st.integers(1, 32), d_out=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matmul_row_subsets(self, n, d_in, d_out, seed, data):
        rng = np.random.default_rng(seed)
        rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        self.check_rows(rng.standard_normal((n, d_in)), rng.standard_normal((d_in, d_out)),
                        np.asarray(rows))

    # Shapes where OpenBLAS gemm/gemv gives a row different bits in a
    # different product: d_out of 1 or 2, and a 1-row operand with d_in >= 4.
    @pytest.mark.parametrize("n, d_in, d_out, rows", [
        (40, 16, 1, [3, 17, 30]),
        (40, 16, 2, sorted(set(range(40)) - {5, 8, 16, 31, 32, 36})),
        (16, 4, 8, [5]),
        (64, 32, 16, [63]),
    ])
    def test_matmul_shapes_blas_rounds_differently(self, n, d_in, d_out, rows):
        rng = np.random.default_rng(n * d_in * d_out)
        self.check_rows(rng.standard_normal((n, d_in)), rng.standard_normal((d_in, d_out)),
                        np.asarray(rows))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 48), d_in=st.integers(1, 32), d_out=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1))
    def test_typed_matmul_one_row_type_equals_its_row_in_a_block(self, n, d_in, d_out, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d_in))
        w = rng.standard_normal((2, d_out, d_in))
        block = ad.typed_matmul(Tensor(x), Tensor(w), ad.Index(np.zeros(n, dtype=np.intp), 2)).data
        r = int(rng.integers(n))
        lone = np.ones(n, dtype=np.intp)
        lone[r] = 0     # row r is the only row of type 0
        alone = ad.typed_matmul(Tensor(x), Tensor(w), ad.Index(lone, 2)).data
        assert alone[r].tobytes() == block[r].tobytes()
        one_row = ad.typed_matmul(Tensor(x[r:r + 1]), Tensor(w),
                                  ad.Index(np.zeros(1, dtype=np.intp), 2)).data
        assert one_row[0].tobytes() == block[r].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), d_in=st.integers(1, 32), d_out=st.integers(1, 16),
           n_types=st.integers(1, 3), rows=st.sampled_from([1, 3]),
           seed=st.integers(0, 2**32 - 1))
    def test_row_blocks_change_no_bits(self, n, d_in, d_out, n_types, rows, seed):
        """``linear`` and ``typed_matmul`` in blocks of ``rows`` rows equal
        their one-block outputs and gradients byte for byte."""
        rng = np.random.default_rng(seed)
        x, w, b = (rng.standard_normal(shape) for shape in ((n, d_in), (d_out, d_in), (d_out,)))
        w3 = rng.standard_normal((n_types, d_out, d_in))
        idx = rng.integers(0, n_types, n)
        g = rng.standard_normal((n, d_out))
        runs = []
        for blocks in (None, rows):
            leaves = [Tensor(t, requires_grad=True) for t in (x, w, b, w3)]
            lx, lw, lb, lw3 = leaves
            with forced_blocks(blocks):
                ys = [ad.linear(lx, lw, lb), ad.typed_matmul(lx, lw3, ad.Index(idx, n_types))]
                grads = ad.backward(ad.reduce_sum(ad.mul(ad.concat(ys, axis=1),
                                                         Tensor(np.hstack([g, g])))))
            runs.append([y.data.tobytes() for y in ys] + [grads[t].tobytes() for t in leaves])
        assert runs[0] == runs[1]


class TestHeadSums:
    """The whole-array head and d_k sums the attention VJP uses equal
    numpy's reductions byte for byte, -0.0 terms included."""

    @settings(max_examples=200, deadline=None)
    @given(heads=st.integers(1, 10), d_k=st.integers(1, 9), n=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_plane_sums_equal_numpy(self, heads, d_k, n, seed):
        rng = np.random.default_rng(seed)
        p = rng.standard_normal((n, heads, d_k)) * 2.0 ** rng.integers(-60, 61, (n, heads, d_k))
        p[rng.random(p.shape) < 0.3] = -0.0
        assert ad._plane_sum(p, 1).tobytes() == p.sum(axis=1).tobytes()
        assert ad._plane_sum(p, -1).tobytes() == p.sum(axis=2).tobytes()


class TestSegmentOps:
    def test_segment_softmax_normalizes_per_segment(self):
        x = Tensor(np.array([[0.0, 1.0], [0.0, 2.0], [5.0, 0.0]]))
        w = segment_softmax(x, [2, 1]).data
        np.testing.assert_allclose(w[:2].sum(axis=0), [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(w[2], [1.0, 1.0])

    def test_segment_softmax_empty_segment_rejected(self):
        x = Tensor(np.zeros((2, 1)))
        with pytest.raises(ContractError):
            segment_softmax(x, [2, 0])

    def test_segment_reduce_mean_and_sum(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 20.0]]))
        np.testing.assert_allclose(ad.segment_reduce(x, ad.Runs([2, 1])).data,
                                   [[2.0, 3.0], [10.0, 20.0]])
        np.testing.assert_allclose(segment_sum(x, [2, 1]).data,
                                   [[4.0, 6.0], [10.0, 20.0]])

    def test_counts_must_sum_to_row_count(self):
        # the runs must give every row exactly one segment
        x = Tensor(np.zeros((3, 1)))
        for counts in ([1, 1], [2, 2], [3, 1], [[3]]):
            with pytest.raises(ContractError, match="sum to"):
                ad.segment_reduce(x, ad.Runs(counts))
            with pytest.raises(ContractError, match="sum to"):
                segment_softmax(x, counts)

    def test_nonpositive_count_rejected(self):
        # an empty run (or a negative count that the others make up for)
        x = Tensor(np.zeros((3, 1)))
        for counts in ([0, 3], [3, 0], [1, 0, 2], [4, -1]):
            with pytest.raises(ContractError, match="is empty"):
                ad.segment_reduce(x, ad.Runs(counts))
            with pytest.raises(ContractError, match="is empty"):
                segment_softmax(x, counts)


# Segment lengths at the grid-scale boundaries: 2**k - 2 is the largest
# count of scale k and 2**k - 1 the smallest of scale k + 1.
BOUNDARY_COUNTS = [n for k in range(2, 8) for n in (2**k - 2, 2**k - 1)]
# Each side of every power-of-two boundary of the grid scale up to 2**39.
SCALE_EDGE_COUNTS = [2**k + d for k in range(2, 40) for d in (-2, -1, 0)]


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.one_of(st.integers(1, 9), st.sampled_from(SCALE_EDGE_COUNTS)),
                       max_size=6))
@example(counts=[])
@example(counts=SCALE_EDGE_COUNTS)
def test_runs_scale_is_the_reference_grid_scale(counts):
    assert ad.Runs(counts).scale == ref_grid_scale(np.asarray(counts, dtype=np.intp))


def _exact_sum_values(kind, rng, counts, cols):
    """Adversarial (sum(counts), cols) inputs for the exact segment sums.

    - normal: standard normal; wide: magnitudes over 2**-60 .. 2**60;
    - cancel: rows that nearly cancel the row before them;
    - subnormal: multiples of 2**-1074 up to 2**-1022 and cancelling pairs
      near 2**-970, so totals are subnormal or just normal;
    - remainders: per column, each segment's first row is +-1 and the others,
      of the same sign, lie at or just below half the spacing of the first
      grid above 1: the largest remainders the first pass can leave, exactly
      that bound at a tie;
    - huge: per column, magnitudes at which the first grid overflows, or half
      of those, with finite totals;
    - pow2: per segment 2**k, cancelling pairs and an offset of 0, a tie at
      half the gap below 2**k or half the gap above, each plus or minus a
      2**(k - 100) remainder.
    """
    n = int(counts.sum())
    shape = (n, cols)
    sign = rng.choice([-1.0, 1.0], shape)
    if kind == "normal":
        return rng.standard_normal(shape)
    if kind == "wide":
        return rng.standard_normal(shape) * 2.0 ** rng.integers(-60, 61, shape)
    if kind == "cancel":
        x = rng.standard_normal(shape) * 2.0 ** rng.integers(-30, 31, shape)
        x[1:] = -x[:-1] * (1.0 + rng.integers(-3, 4, (n - 1, cols)) * 2.0 ** -52)
        x[1::3] = rng.standard_normal(x[1::3].shape)
        return x
    if kind == "subnormal":
        x = rng.integers(-2**52, 2**52, shape) * 2.0 ** -1074
        pair = np.arange(0, n - 1, 3)
        x[pair] = rng.standard_normal((len(pair), cols)) * 2.0 ** rng.integers(-1000, -940)
        x[pair + 1] = -x[pair]
        return x
    scale = ref_grid_scale(counts)
    if kind == "remainders":
        below = rng.integers(0, 2**20, shape) * rng.integers(0, 2, shape)
        x = sign[:1] * (2.0 ** (scale - 52) * (1.0 - below * 2.0 ** -53))
        x[np.cumsum(counts) - counts] = sign[:1]
        return x
    if kind == "huge":
        return sign * (1.0 + rng.random(shape)) * 2.0 ** (1023 - scale - rng.integers(0, 2, cols))
    rows = []
    for c in counts.tolist():
        top = 2.0 ** rng.integers(-40, 41, cols) * rng.choice([-1.0, 1.0], cols)
        offset = top * rng.choice([0.0, -2.0 ** -54, 2.0 ** -53], cols)
        tiny = top * rng.choice([0.0, 2.0 ** -100, -2.0 ** -100], cols)
        pairs = rng.standard_normal((max(c - 3, 0) // 2, cols)) * top * 2.0 ** rng.integers(-80, 1)
        seg = np.vstack([top, offset, tiny, pairs, -pairs, np.zeros((1, cols))])[:c]
        rows.append(rng.permutation(seg))
    return np.vstack(rows)


@pytest.mark.parametrize("n", [*range(1, 18), 63, 64, 65, 127, 128, 129, 136, 300, 1025])
def test_sum_last_equals_numpy_sum(n):
    """The last-axis plane sum gives numpy's bytes, signed zeros too."""
    rng = np.random.default_rng(n)
    p = rng.standard_normal((40, 3, n)) * np.exp(rng.normal(0.0, 8.0, (40, 3, n)))
    p[rng.random(p.shape) < 0.3] = -0.0
    p[0] = -0.0
    assert ad._plane_sum(p, -1).tobytes() == p.sum(axis=-1).tobytes()


class TestExactSums:
    """The certified segment sums equal math.fsum and rarely need it."""

    def test_ordinary_data_never_falls_back_to_fsum(self, monkeypatch):
        rng = np.random.default_rng(0)
        g = random_labeled_graph(rng, n_nodes=1000, feature_dim=1, extra_edge_prob=0.005)
        counts = batch_graphs([g]).targets.counts
        x = Tensor(rng.standard_normal((g.n_edges, 4)), requires_grad=True)
        head = Tensor(rng.standard_normal((1, 4)))
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda values: calls.append(1) or fsum(values))
        w = segment_softmax(x, counts)
        mean = ad.segment_reduce(ad.mul(w, x), ad.Runs(counts))
        total = segment_sum(x, counts)
        pooled = ad.segment_reduce(add(mean, total), ad.Runs([g.n_nodes]))
        ad.backward(ad.linear(pooled, head))
        assert x.grad is not None
        assert calls == []

    @settings(max_examples=300, deadline=None)
    @given(counts=st.lists(st.one_of(st.integers(1, 9), st.sampled_from(BOUNDARY_COUNTS)),
                           min_size=1, max_size=6),
           cols=st.integers(1, 3),
           kind=st.sampled_from(["normal", "wide", "cancel", "subnormal", "remainders", "huge",
                                 "pow2"]),
           seed=st.integers(0, 2**32 - 1))
    def test_kernel_bytes_equal_reference_and_fsum(self, counts, cols, kind, seed):
        counts = np.asarray(counts, dtype=np.intp)
        starts = np.cumsum(counts) - counts
        xs = _exact_sum_values(kind, np.random.default_rng(seed), counts, cols)
        before = xs.copy()
        out = ad._segment_fsum(xs, ad.Runs(counts))
        assert xs.tobytes() == before.tobytes()
        cells = np.array([[math.fsum(xs[s:s + c, j].tolist()) for j in range(cols)]
                          for s, c in zip(starts.tolist(), counts.tolist())])
        assert out.tobytes() == cells.tobytes()
        assert out.tobytes() == ref_segment_fsum(xs, starts, counts).tobytes()
        # Any upper bound on the magnitudes gives a valid grid; one that
        # overflows to inf gives none, and every cell is summed by fsum.
        top = float(np.abs(xs).max())
        for k in range(21):
            assert ad._segment_fsum(xs, ad.Runs(counts), top=top * 2.0 ** k).tobytes() \
                == out.tobytes(), k

    @settings(max_examples=200, deadline=None)
    @given(exponents=st.lists(st.integers(-600, 600), min_size=1, max_size=6),
           special=st.sets(st.sampled_from(["zero", "subnormal", "near-overflow"])),
           cols=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_one_grid_serves_segments_of_any_scale(self, exponents, special, cols, seed):
        # One call, one grid: segments scaled by up to 2**+-600, with an
        # all-zero, a subnormal-only and a near-overflow segment among them.
        rng = np.random.default_rng(seed)
        segs = [rng.standard_normal((int(rng.integers(1, 10)), cols)) * 2.0 ** e
                for e in exponents]
        if "zero" in special:
            segs.append(np.zeros((int(rng.integers(1, 10)), cols)))
        if "subnormal" in special:
            segs.append(rng.integers(-2**52, 2**52, (int(rng.integers(1, 10)), cols))
                        * 2.0 ** -1074)
        if "near-overflow" in special:
            # at most three terms below 2**1021, so every sum is finite
            c = int(rng.integers(1, 4))
            segs.append(rng.choice([-1.0, 1.0], (c, cols)) * (1.0 + rng.random((c, cols)))
                        * 2.0 ** 1020)
        segs = [segs[i] for i in rng.permutation(len(segs))]
        xs = np.vstack(segs)
        counts = np.array([len(x) for x in segs], dtype=np.intp)
        starts = np.cumsum(counts) - counts
        out = ad._segment_fsum(xs, ad.Runs(counts))
        cells = np.array([[math.fsum(x[:, j].tolist()) for j in range(cols)] for x in segs])
        assert out.tobytes() == cells.tobytes()
        assert out.tobytes() == ref_segment_fsum(xs, starts, counts).tobytes()

    def test_a_non_finite_value_keeps_the_other_cells_exact(self):
        # inf bounds nothing: were it the call's grid, the finite cells
        # below would be summed on a grid smaller than their values.
        rng = np.random.default_rng(7)
        for value in (np.inf, -np.inf, np.nan):
            wide = rng.standard_normal((8, 2)) * 2.0 ** rng.integers(-40, 41, (8, 2))
            xs = np.vstack([[[value, 1.0]], wide])
            with np.errstate(invalid="ignore"):
                out = ad._segment_fsum(xs, ad.Runs([1, 8]))
            assert out[1].tolist() == [math.fsum(wide[:, j].tolist()) for j in range(2)]
            np.testing.assert_array_equal(out[0], [value, 1.0])

    @staticmethod
    def explain_256_nodes():
        # explain-large's input: a 256-node kNN patch graph (k = 4, 8-d
        # features, six types) and a default model
        rng = np.random.default_rng([0, 256])
        patches = [PatchRecord(str(i), i % 16, i // 16, rng.standard_normal(8),
                               type_label=DEFAULT_TYPE_NAMES[int(rng.integers(6))])
                   for i in range(256)]
        g = dataclasses.replace(build_graph(patches, BuildConfig(k=4)), label=1)
        explain_graph(Model.init(ModelConfig(feature_dim=8), 1000), g)

    @staticmethod
    def train_small_epoch():
        # train-small's recipe (10-16-node interaction graphs, k = 3, hidden
        # 8, two heads, two layers, dropout 0.2), one epoch of two steps
        spec = SyntheticSpec(n_nodes=(10, 16), feature_dim=8, rule="interaction", theta=0.8,
                             build=BuildConfig(k=3))
        graphs = synth_generate(spec, 6, 42).graphs
        model = Model.init(ModelConfig(feature_dim=8, hidden_dim=8, heads=2, n_layers=2,
                                       dropout=0.2), 0)
        train(graphs[:4], graphs[4:], model,
              TrainConfig(max_epochs=1, batch_size=2, patience=1, dropout=0.2))

    @staticmethod
    def slide_width_300_nodes():
        # the slide model's width (32-d features, k = 8, hidden 64, four
        # heads) on a 300-node patch graph: one attribution, and one
        # forward and backward
        rng = np.random.default_rng([0, 300])
        patches = [PatchRecord(str(i), i % 18, i // 18, rng.standard_normal(32),
                               type_label=DEFAULT_TYPE_NAMES[int(rng.integers(6))])
                   for i in range(300)]
        g = dataclasses.replace(build_graph(patches, BuildConfig(k=8)), label=1)
        model = Model.init(ModelConfig(feature_dim=32, hidden_dim=64, heads=4), 1000)
        explain_graph(model, g)
        assert ad.backward(ad.cross_entropy(model.forward([g]), [1]))

    @pytest.mark.parametrize("run", ["explain_256_nodes", "train_small_epoch",
                                     "slide_width_300_nodes"])
    def test_benchmark_scale_runs_never_fall_back_to_fsum(self, monkeypatch, run):
        # The math.fsum calls made inside the kernel are its fallback cells;
        # reduce_sum calls math.fsum outside it.
        kernel, fsum = ad._segment_fsum, math.fsum
        seen = {"calls": 0, "fallback_cells": 0, "inside": False}

        def counting_kernel(*args, **kwargs):
            seen["calls"] += 1
            seen["inside"] = True
            try:
                return kernel(*args, **kwargs)
            finally:
                seen["inside"] = False

        def counting_fsum(values):
            seen["fallback_cells"] += seen["inside"]
            return fsum(values)

        monkeypatch.setattr(ad, "_segment_fsum", counting_kernel)
        monkeypatch.setattr(math, "fsum", counting_fsum)
        getattr(self, run)()
        assert seen["calls"] > 0
        assert seen["fallback_cells"] == 0

    @pytest.mark.parametrize("values, expected", [
        # 1 + 2**-53 is a tie that rounds to 1, but the 2**-1000 remainder
        # lifts the exact sum above it.
        ([1.0, 2.0**-53, 2.0**-1000], 1.0 + 2.0**-52),
        # The extracted parts sum to just above the midpoint below 1; five
        # remainders of -2**-105 together pull the exact sum under it.
        ([1.0, -2.0**-54 + 2.0**-103] + [-2.0**-105] * 5, 1.0 - 2.0**-53),
    ], ids=["tie-broken-by-remainder", "remainders-cross-midpoint"])
    def test_uncertified_cell_is_summed_by_fsum(self, values, expected):
        x = Tensor(np.array(values)[:, None])
        out = segment_sum(x, [len(values)]).data
        assert out[0, 0] == expected == math.fsum(values)

    def test_overflow_matches_fsum_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                segment_sum(Tensor([[1e308], [1e308]]), [2])
            out = segment_sum(Tensor(np.full((12, 1), 1e307)), [12])
        assert out.data[0, 0] == 1.2e308

    @staticmethod
    def expansion_under_alarm(xs, counts):
        # The alarm turns a loop that never ends into a failure.
        def timeout(signum, frame):
            raise TimeoutError("_segment_expansion did not end")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            return ad._segment_expansion(xs, ad.Runs(counts))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs signal.alarm")
    def test_expansion_flags_an_overflowing_segment_and_ends(self):
        # A call whose grid would overflow has no expansion; a call spanning
        # 2**-200 to 2**0 needs more than one pass on its one grid.
        assert self.expansion_under_alarm(np.array([[1.7e308], [1.7e308], [1.0]]), [2, 1]) is None
        xs = np.array([[1.0], [0.1], [2.0**-60], [-3.0], [2.0**-200]])
        terms = self.expansion_under_alarm(xs, [2, 3])
        assert len(terms) > 1
        for s, rows in ((0, xs[:2, 0]), (1, xs[2:, 0])):
            assert sum(map(Fraction, terms[:, s, 0].tolist())) == sum(map(Fraction, rows.tolist()))

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs signal.alarm")
    @settings(max_examples=200, deadline=None)
    @given(exponents=st.lists(st.integers(-600, 600), min_size=1, max_size=6),
           special=st.sets(st.sampled_from(["zero", "subnormal"])),
           cols=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_one_grid_expansion_is_exact_for_segments_of_any_scale(self, exponents, special,
                                                                    cols, seed):
        # One call, one grid: segments scaled by up to 2**+-600, with an
        # all-zero and a subnormal-only segment among them. Each segment's
        # terms sum exactly to its values' sum.
        rng = np.random.default_rng(seed)
        segs = [rng.standard_normal((int(rng.integers(1, 10)), cols)) * 2.0 ** e
                for e in exponents]
        if "zero" in special:
            segs.append(np.zeros((int(rng.integers(1, 10)), cols)))
        if "subnormal" in special:
            segs.append(rng.integers(-2**52, 2**52, (int(rng.integers(1, 10)), cols))
                        * 2.0 ** -1074)
        segs = [segs[i] for i in rng.permutation(len(segs))]
        xs = np.vstack(segs)
        counts = [len(x) for x in segs]
        terms = self.expansion_under_alarm(xs, counts)
        assert terms.shape[1:] == (len(segs), cols)
        for s, x in enumerate(segs):
            for j in range(cols):
                assert sum(map(Fraction, terms[:, s, j].tolist())) \
                    == sum(map(Fraction, x[:, j].tolist())), (s, j)

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(1, 9), min_size=1, max_size=4),
           cols=st.integers(1, 3), value=st.sampled_from(["grid-overflow", "inf", "-inf", "nan"]),
           seed=st.integers(0, 2**32 - 1))
    def test_expansion_without_a_grid_is_none(self, counts, cols, value, seed):
        # A value at or above 2**(1024 - scale), or a non-finite one,
        # anywhere in the call leaves no finite grid.
        rng = np.random.default_rng(seed)
        runs = ad.Runs(counts)
        xs = rng.standard_normal((runs.n_rows, cols))
        big = {"grid-overflow": 2.0 ** (1024 - runs.scale) * (1.0 + rng.random()),
               "inf": np.inf, "-inf": -np.inf, "nan": np.nan}[value]
        xs[rng.integers(runs.n_rows), rng.integers(cols)] = big * rng.choice([-1.0, 1.0])
        assert ad._segment_expansion(xs, runs) is None


class TestDeterminism:
    def test_ops_bit_identical_across_runs(self):
        def run():
            x = Tensor(np.linspace(-2, 2, 12).reshape(3, 4))
            w = Tensor(np.linspace(0.5, 1.5, 8).reshape(4, 2).T)
            out = ad.softmax_rows(ad.linear(x, w))
            return ad.reduce_sum(out).item(), out.data.copy()
        (s1, d1), (s2, d2) = run(), run()
        assert s1 == s2
        assert (d1 == d2).all()


class TestGradCheck:
    def test_sum_of_squares_exact(self):
        w = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)

        def f():
            return ad.reduce_sum(ad.mul(w, w))

        assert ad.grad_check(f, [w]) < 1e-7

    def test_zero_eps_rejected(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(ConfigError):
            ad.grad_check(lambda: ad.reduce_sum(w), [w], eps=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_composites_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(2, 5, size=3)
        a = Tensor(rng.standard_normal((m, k)), requires_grad=True)
        b = Tensor(rng.standard_normal((k, n)).T.copy(), requires_grad=True)
        c = Tensor(rng.standard_normal((1, n))[0], requires_grad=True)
        counts = np.ones(m, dtype=np.intp) if m < 3 else np.array([m - 2, 2])

        def f():
            h = ad.leaky_relu(ad.linear(a, b, c), 0.01)
            w = segment_softmax(h, counts)
            pooled = ad.segment_reduce(ad.mul(h, w), ad.Runs(counts))
            z = ad.segment_reduce(pooled, ad.Runs([len(counts)]))
            return ad.cross_entropy(reshape(z, (int(n),)), 0)

        assert ad.grad_check(f, [a, b, c]) < 1e-5


def test_every_public_op_has_a_src_caller():
    # ops that only tests and oracles use are built in tests/_reference.py
    texts = [p.read_text() for p in Path(ad.__file__).parent.glob("*.py")]
    public = [name for name, obj in vars(ad).items() if not name.startswith("_")
              and inspect.isfunction(obj) and obj.__module__ == ad.__name__]
    assert "linear" in public and "matmul" not in public
    for name in public:
        call = re.compile(rf"(?<!def )\b{name}\(")
        assert any(call.search(t) for t in texts), f"autodiff.{name} has no caller in src/"
