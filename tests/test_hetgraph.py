"""Graph structure: validation, node removal, incoming edges, serialization."""

import json

import numpy as np
import pytest

from heatnet.errors import ConfigError, GraphLookupError, GraphValidationError
from heatnet.hetgraph import (
    DEFAULT_TYPES,
    HeteroGraph,
    TypeSet,
    _write_json,
    from_json_dict,
    incoming,
    load_graph,
    remove_node,
    save_graph,
    to_json_dict,
    validate,
)


def tiny_graph(label=None):
    return HeteroGraph.from_lists(
        DEFAULT_TYPES,
        nodes=[
            (0, "neoplastic", [1.0, 2.0], (0, 0)),
            (1, "inflammatory", [3.0, 4.0], (1, 0)),
            (2, "connective", [5.0, 6.0], (0, 1)),
        ],
        edges=[(0, 0, [1.0]), (1, 1, [1.0]), (2, 2, [1.0]),
               (0, 1, [0.5]), (1, 0, [0.5]), (2, 1, [-0.25])],
        label=label,
    )


class TestTypeSet:
    def test_index_and_membership(self):
        assert DEFAULT_TYPES.index("neoplastic") == 1
        assert "dead" in DEFAULT_TYPES
        with pytest.raises(ConfigError):
            DEFAULT_TYPES.index("stromal")

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError):
            TypeSet(("a", "a"))


class TestValidate:
    def test_empty_graph_ok(self):
        g = HeteroGraph.from_lists(DEFAULT_TYPES, nodes=[], edges=[])
        assert validate(g) is None

    def test_valid_graph_ok(self):
        assert validate(tiny_graph()) is None

    def test_edge_to_missing_node(self):
        g = tiny_graph()
        bad = HeteroGraph(
            types=g.types, node_ids=g.node_ids, node_types=g.node_types,
            features=g.features, edge_src=np.array([0]), edge_dst=np.array([9]),
            edge_attrs=np.array([[1.0]]))
        v = validate(bad)
        assert v is not None and v.kind == "missing-endpoint" and v.edge == (0, 9)

    def test_duplicate_edge(self):
        g = tiny_graph()
        bad = HeteroGraph(
            types=g.types, node_ids=g.node_ids, node_types=g.node_types,
            features=g.features, edge_src=np.array([0, 0]), edge_dst=np.array([1, 1]),
            edge_attrs=np.array([[1.0], [1.0]]))
        v = validate(bad)
        assert v is not None and v.kind == "duplicate-edge"

    def test_mixed_feature_dimensions_reported_on_parse(self):
        doc = {
            "version": 1,
            "types": list(DEFAULT_TYPES.names),
            "nodes": [
                {"id": 0, "type": "dead", "x": None, "y": None, "feat": [1.0] * 4},
                {"id": 1, "type": "dead", "x": None, "y": None, "feat": [1.0] * 5},
            ],
            "edges": [],
            "label": None,
        }
        with pytest.raises(GraphValidationError) as exc:
            from_json_dict(doc)
        assert exc.value.violation.kind == "mixed-feature-dim"
        assert exc.value.violation.node_id == 1


class TestRemoveNode:
    def test_remove_only_node_gives_empty_graph(self):
        g = HeteroGraph.from_lists(DEFAULT_TYPES, nodes=[(0, "dead", [1.0, 2.0])],
                                   edges=[(0, 0, [1.0])])
        out = remove_node(g, 0)
        assert out.n_nodes == 0 and out.n_edges == 0

    def test_triangle_keeps_survivor_edges(self):
        g = HeteroGraph.from_lists(
            DEFAULT_TYPES,
            nodes=[(0, "dead", [1.0]), (1, "dead", [2.0]), (2, "dead", [3.0])],
            edges=[(0, 1, [0.1]), (1, 2, [0.2]), (2, 0, [0.3])])
        out = remove_node(g, 1)
        assert out.node_ids == (0, 2)
        assert list(zip(out.edge_src, out.edge_dst)) == [(2, 0)]

    def test_self_loop_removed_with_node(self):
        g = tiny_graph()
        out = remove_node(g, 1)
        pairs = set(zip(out.edge_src.tolist(), out.edge_dst.tolist()))
        assert (1, 1) not in pairs and (0, 1) not in pairs and (2, 1) not in pairs

    def test_original_graph_unchanged(self):
        g = tiny_graph()
        before = to_json_dict(g)
        remove_node(g, 0)
        assert to_json_dict(g) == before

    def test_unknown_id(self):
        with pytest.raises(GraphLookupError):
            remove_node(tiny_graph(), 99)

    def test_remove_then_validate_random_graphs(self):
        from heatnet.testing import random_labeled_graph
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_labeled_graph(rng, n_nodes=int(rng.integers(2, 9)), feature_dim=3)
            victim = int(rng.choice(g.node_ids))
            assert validate(remove_node(g, victim)) is None


class TestIncoming:
    def test_isolated_node(self):
        g = HeteroGraph.from_lists(DEFAULT_TYPES,
                                   nodes=[(0, "dead", [1.0]), (1, "dead", [2.0])],
                                   edges=[(0, 0, [1.0])])
        assert incoming(g, 1) == []

    def test_self_loop_only(self):
        g = HeteroGraph.from_lists(DEFAULT_TYPES, nodes=[(7, "dead", [1.0])],
                                   edges=[(7, 7, [1.0])])
        [(s, t, attr)] = incoming(g, 7)
        assert (s, t) == (7, 7)
        np.testing.assert_array_equal(attr, [1.0])

    def test_ascending_source_order(self):
        g = HeteroGraph.from_lists(
            DEFAULT_TYPES,
            nodes=[(2, "dead", [1.0]), (5, "dead", [2.0]), (7, "dead", [3.0]),
                   (9, "dead", [4.0])],
            edges=[(7, 9, [0.1]), (2, 9, [0.2]), (5, 9, [0.3])])
        assert [s for s, _, _ in incoming(g, 9)] == [2, 5, 7]

    def test_unknown_id(self):
        with pytest.raises(GraphLookupError):
            incoming(tiny_graph(), 42)

    def test_incoming_counts_sum_to_edge_count(self):
        from heatnet.testing import random_labeled_graph
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_labeled_graph(rng, n_nodes=int(rng.integers(2, 9)), feature_dim=3)
            total = sum(len(incoming(g, nid)) for nid in g.node_ids)
            assert total == g.n_edges


class TestSerialization:
    def test_round_trip_is_lossless(self, tmp_path):
        g = tiny_graph(label=1)
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_round_trip_bit_identical_floats(self, tmp_path):
        rng = np.random.default_rng(2)
        from heatnet.testing import random_labeled_graph
        g = random_labeled_graph(rng, n_nodes=6, feature_dim=5)
        path = tmp_path / "g.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert (g2.features == g.features).all()
        assert (g2.edge_attrs == g.edge_attrs).all()

    def test_unknown_top_level_keys_ignored(self, tmp_path):
        g = tiny_graph()
        path = tmp_path / "g.json"
        save_graph(g, path, extra={"provenance": {"seed": 3}})
        assert load_graph(path) == g
        doc = json.loads(path.read_text())
        assert doc["provenance"] == {"seed": 3}

    def test_writer_bytes_equal_json_dump(self, tmp_path):
        doc = {"z": [-0.0, 5e-324, 1e16, [[1.5, -2], {"b": None, "a": True}]],
               "a": {"y": "\u00e9", "x": [float("nan"), 0.1]}, "m": 2**63}
        _write_json(tmp_path / "new.json", doc)
        with open(tmp_path / "old.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    def test_bad_version_rejected(self):
        with pytest.raises(GraphValidationError):
            from_json_dict({"version": 99, "types": [], "nodes": [], "edges": []})

    def test_coords_all_or_none(self):
        doc = to_json_dict(tiny_graph())
        doc["nodes"][1]["x"] = None
        doc["nodes"][1]["y"] = None
        with pytest.raises(GraphValidationError) as exc:
            from_json_dict(doc)
        assert exc.value.violation.kind == "coords"
