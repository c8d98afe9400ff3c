"""Disjoint-union batching: a batch lays out its edges target-sorted, runs
as one forward and equals one-graph batches bit for bit; its boundaries fail
as one graph does."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import forced_blocks, from_lists
from heatnet import autodiff as ad
from heatnet.builder import AugmentConfig
from heatnet.errors import ConfigError, GraphValidationError, ShapeError
from heatnet.hetgraph import DEFAULT_TYPES, HeteroGraph, TypeSet, batch_graphs
from heatnet.model import Model, ModelConfig
from heatnet.seeding import rng_for
from heatnet.testing import random_labeled_graph
from heatnet.train import TrainConfig, train

BATCH_CONFIGS = {
    "default": {},
    "type-blind": {"type_blind": True, "pooling": "mean"},   # baseline_config
    "mean-pooling": {"pooling": "mean"},
    "heads4-dk2": {"heads": 4},
    "sum-aggregation": {"aggregation": "sum"},
}


@st.composite
def batch_member(draw):
    """A graph with scattered ids and a one-node type; one node means a
    self-loop only."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    types = rng.integers(1, len(DEFAULT_TYPES), size=n)
    types[0] = 0
    density = draw(st.sampled_from([0.0, 0.3]))
    pairs = sorted({(i, i) for i in range(n)} | {(s, t) for s in range(n) for t in range(n)
                                                 if s != t and rng.random() < density})
    ids = np.asarray(draw(st.lists(st.integers(-300, 300), min_size=n, max_size=n,
                                   unique=True)), dtype=np.intp)
    return HeteroGraph(
        types=DEFAULT_TYPES, node_ids=tuple(ids.tolist()), node_types=types,
        features=rng.standard_normal((n, 4)),
        edge_src=ids[[s for s, _ in pairs]], edge_dst=ids[[t for _, t in pairs]],
        edge_attrs=rng.uniform(-1.0, 1.0, size=(len(pairs), 2)),
        label=int(rng.integers(2)))


def batch_model(name, seed):
    cfg = ModelConfig(feature_dim=4, edge_attr_dim=2, hidden_dim=8, dropout=0.2,
                      **BATCH_CONFIGS[name])
    return Model.init(cfg, rng_for(seed, "init"))


def dropout_rngs(seed, idx):
    return [rng_for(seed, "dropout", 1, i) for i in idx]


def mean_loss_grads(model, graphs, seed, idx):
    """Parameter name -> gradient of the batch's mean training loss."""
    losses = model.loss(graphs, training=True, rngs=dropout_rngs(seed, idx))
    grads = ad.backward(ad.scale(ad.reduce_sum(losses), 1.0 / len(graphs)))
    return {name: grads.get(p, np.zeros_like(p.data)) for name, p in model.parameters().items()}


class TestBatchEqualsOneGraphBatches:
    @pytest.mark.parametrize("name", BATCH_CONFIGS)
    @settings(max_examples=25, deadline=None)
    @given(graphs=st.lists(batch_member(), min_size=1, max_size=5), seed=st.integers(0, 1000))
    def test_logits_losses_and_gradients(self, name, graphs, seed):
        model = batch_model(name, seed)
        idx = range(len(graphs))
        logits = model.forward(graphs).data
        assert logits.shape == (len(graphs), 2)
        for b, g in enumerate(graphs):
            assert (logits[b] == model.forward([g]).data[0]).all(), b

        losses = model.loss(graphs, training=True, rngs=dropout_rngs(seed, idx)).data
        for b, g in enumerate(graphs):
            alone = model.loss([g], training=True, rngs=dropout_rngs(seed, [b])).data
            assert losses[b] == alone[0], b

        batched = mean_loss_grads(model, graphs, seed, idx)
        per_graph = [mean_loss_grads(model, [g], seed, [b]) for b, g in enumerate(graphs)]
        for pname, grad in batched.items():
            ref = sum(p[pname] for p in per_graph) / len(graphs)
            assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max(), pname

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("name", BATCH_CONFIGS)
    @settings(max_examples=10, deadline=None)
    @given(graphs=st.lists(batch_member(), min_size=1, max_size=5), seed=st.integers(0, 1000))
    def test_row_blocks_change_no_bits(self, name, rows, graphs, seed):
        """A batch's logits, training losses and gradients with every row
        block forced to ``rows`` rows equal its one-block ones byte for byte,
        the forced blocks read from the batch's cache on the second pass."""
        model = batch_model(name, seed)
        labels = [g.label for g in graphs]
        runs = []
        for blocks in (None, rows, rows):
            with forced_blocks(blocks):
                batch = model.batch(graphs) if blocks is None or len(runs) == 1 else batch
                logits = model.forward(batch).data
                losses = ad.cross_entropy(model.forward(batch, training=True,
                                                        rngs=dropout_rngs(seed, range(len(graphs)))),
                                          labels)
                grads = ad.backward(ad.reduce_sum(losses))
            runs.append([logits.tobytes(), losses.data.tobytes()]
                        + [grads[p].tobytes() for p in model.parameters().values() if p in grads])
        assert rows in batch.targets._blocks
        assert runs[0] == runs[1] == runs[2]


def test_a_step_reads_the_plan_and_rebuilds_no_layout(monkeypatch):
    """A c06-size training step, from ``batch_graphs`` through backward,
    builds its runs and indices once, when the batch and its pooling cells
    are built: the ops derive no segment layout and pooling sorts nothing.
    Only the node types are checked; every other index and run is known
    to be in range by construction. The step enters ``np.errstate`` once
    for the forward, once for the loss op called after it and once for
    the backward, not once per op."""
    from heatnet import pooling
    graphs = [random_labeled_graph(np.random.default_rng(i), DEFAULT_TYPES, n_nodes=13,
                                   feature_dim=8) for i in range(2)]
    model = Model.init(ModelConfig(feature_dim=8, dropout=0.2), rng_for(0, "init"))
    calls = {"Runs": 0, "Index": 0, "Runs.known": 0, "Index.known": 0, "unique": 0,
             "argsort": 0, "errstate": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (ad.Runs, ad.Index):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
        monkeypatch.setattr(cls, "known", classmethod(counting(f"{cls.__name__}.known",
                                                               cls.known.__func__)))
    numpy_in_pooling = type("numpy_in_pooling", (), {
        "__getattr__": lambda self, attr: getattr(np, attr),
        "unique": staticmethod(counting("unique", np.unique)),
        "argsort": staticmethod(counting("argsort", np.argsort))})()
    monkeypatch.setattr(pooling, "np", numpy_in_pooling)

    def step(batch):
        losses = ad.cross_entropy(model.forward(batch, training=True,
                                                rngs=dropout_rngs(0, range(2))),
                                  [g.label for g in graphs])
        ad.backward(ad.reduce_sum(losses))

    batch = model.batch(graphs)
    monkeypatch.setattr(np, "errstate", counting("errstate", np.errstate))
    # node types; targets, the per-type cells, their graphs; edges, cell
    # types (the cell order is a plain permutation held by the cells)
    step(batch)
    assert calls == {"Runs": 0, "Index": 1, "Runs.known": 3, "Index.known": 3, "unique": 0,
                     "argsort": 0, "errstate": 3}
    step(batch)
    assert calls == {"Runs": 0, "Index": 1, "Runs.known": 3, "Index.known": 3, "unique": 0,
                     "argsort": 0, "errstate": 6}


def shuffled_edges(g, rng):
    """The graph with its edge rows in random order."""
    perm = rng.permutation(g.n_edges)
    return HeteroGraph(types=g.types, node_ids=g.node_ids, node_types=g.node_types,
                       features=g.features, edge_src=g.edge_src[perm], edge_dst=g.edge_dst[perm],
                       edge_attrs=g.edge_attrs[perm], label=g.label)


@settings(max_examples=80, deadline=None)
@given(graphs=st.lists(batch_member(), min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1),
       shuffle=st.booleans())
def test_batch_edges_are_target_sorted_per_graph(graphs, seed, shuffle):
    """Edge rows are each graph's own edges, offset, grouped by target
    position in order and in the graph's own order within a target, with
    their attributes; ``targets`` counts each node's rows."""
    rng = np.random.default_rng(seed)
    if shuffle:
        graphs = [shuffled_edges(g, rng) for g in graphs]
    batch = batch_graphs(graphs)
    expected, offset = [], 0
    for g in graphs:
        src, dst = g.edge_pos
        for t in range(g.n_nodes):
            expected += [(int(src[e]) + offset, t + offset, g.edge_attrs[e].tobytes())
                         for e in range(g.n_edges) if dst[e] == t]
        offset += g.n_nodes
    got = list(zip(batch.src.rows.tolist(), batch.dst.rows.tolist(),
                   [row.tobytes() for row in batch.edge_attrs]))
    assert got == expected
    in_degree = np.concatenate([np.bincount(g.edge_pos[1], minlength=g.n_nodes) for g in graphs])
    assert batch.targets.counts.tolist() == in_degree.tolist()
    assert batch.targets.counts.tolist() == np.bincount(batch.dst.rows).tolist()


TYPES2 = TypeSet(DEFAULT_TYPES.names[:2])


def two_node_graph(ids=(0, 1), label=0):
    return from_lists(TYPES2, nodes=[(ids[0], "no-label", [1.0, 0.5]),
                                     (ids[1], "neoplastic", [0.2, -1.0])],
                      edges=[(ids[0], ids[0], [1.0]), (ids[1], ids[1], [1.0]),
                             (ids[0], ids[1], [0.3])], label=label)


def small_model(types=TYPES2, feature_dim=2):
    return Model.init(ModelConfig(feature_dim=feature_dim, types=types.names, hidden_dim=4,
                                  dropout=0.0), rng_for(0, "init"))


class TestBatchBoundaries:
    def test_missing_incoming_edge_names_the_graphs_own_node(self):
        stranded = from_lists(TYPES2, nodes=[(0, "no-label", [1.0, 0.5]),
                                             (7, "neoplastic", [0.2, -1.0])],
                              edges=[(0, 0, [1.0]), (7, 0, [0.3])], label=1)
        model = small_model()
        with pytest.raises(GraphValidationError) as alone:
            model.forward([stranded])
        with pytest.raises(GraphValidationError) as batched:
            model.forward([two_node_graph(), two_node_graph((5, 7)), stranded])
        assert "node 7 has no incoming edges" in str(alone.value)
        assert str(batched.value) == str(alone.value)

    def test_wrong_feature_dim_in_batch(self):
        odd = random_labeled_graph(np.random.default_rng(0), TYPES2, n_nodes=3, feature_dim=3)
        with pytest.raises(ShapeError):
            small_model().forward([two_node_graph(), odd])

    def test_wrong_type_set_in_batch(self):
        other = TypeSet(("x", "y"))
        odd = random_labeled_graph(np.random.default_rng(1), other, n_nodes=3, feature_dim=2)
        with pytest.raises(ConfigError):
            small_model().forward([two_node_graph(), odd])

    def test_empty_sequence(self):
        with pytest.raises(ConfigError):
            small_model().forward([])

    def test_one_dropout_generator_per_graph(self):
        model = Model.init(ModelConfig(feature_dim=2, types=TYPES2.names, hidden_dim=4,
                                       dropout=0.2), rng_for(0, "init"))
        with pytest.raises(ConfigError, match="generators"):
            model.forward([two_node_graph(), two_node_graph()], training=True,
                          rngs=[rng_for(0, "dropout")])

    def test_one_forward_and_backward_per_minibatch(self, monkeypatch):
        """Each minibatch is one forward and one backward, and training
        enters ``np.errstate`` at most once per forward and once per
        backward: the ops run inside one ``quiet`` pass, not one each."""
        graphs = [random_labeled_graph(np.random.default_rng(i), TYPES2, n_nodes=5,
                                       feature_dim=2) for i in range(8)]
        calls = {"forward": 0, "backward": 0, "errstate": 0}
        forward, backward, errstate = Model.forward, ad.backward, np.errstate

        def counting_forward(self, *args, **kwargs):
            calls["forward"] += 1
            return forward(self, *args, **kwargs)

        def counting_backward(*args, **kwargs):
            calls["backward"] += 1
            return backward(*args, **kwargs)

        def counting_errstate(*args, **kwargs):
            calls["errstate"] += 1
            return errstate(*args, **kwargs)

        monkeypatch.setattr(Model, "forward", counting_forward)
        monkeypatch.setattr(ad, "backward", counting_backward)
        monkeypatch.setattr(np, "errstate", counting_errstate)
        model = small_model()
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=1, batch_size=2, patience=1,
                          augmentation=AugmentConfig(0.1, 0.1, 0.01, 0.01),
                          dropout=model.config.dropout)
        result = train(graphs[:6], graphs[6:], model, cfg)
        assert len(result.log) == 1
        errstate_entries = calls.pop("errstate")
        assert calls == {"forward": 4, "backward": 3}   # 3 minibatches + 1 evaluation
        assert 0 < errstate_entries <= calls["forward"] + calls["backward"]
