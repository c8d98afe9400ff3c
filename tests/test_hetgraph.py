"""Graph structure: validation, node removal, serialization."""

import base64
import json

import numpy as np
import pytest

from _reference import float_column, from_lists, set_float_column
from heatnet.errors import ConfigError, GraphLookupError, GraphValidationError
from heatnet.hetgraph import (
    DEFAULT_TYPES,
    HeteroGraph,
    TypeSet,
    _write_json,
    from_json_dict,
    load_graph,
    remove_node,
    save_graph,
    to_json_dict,
    validate,
)


def tiny_graph(label=None):
    return from_lists(
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
        g = from_lists(DEFAULT_TYPES, nodes=[], edges=[])
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

    def test_feature_payload_one_row_short_is_format_violation(self):
        doc = to_json_dict(from_lists(DEFAULT_TYPES, nodes=[(0, "dead", [1.0] * 4),
                                                            (1, "dead", [1.0] * 4)], edges=[]))
        set_float_column(doc, "feat", float_column(doc, "feat")[:1])
        with pytest.raises(GraphValidationError) as exc:
            from_json_dict(doc)
        v = exc.value.violation
        assert v.kind == "format" and "nodes.feat" in v.message
        assert "has 32 bytes, expected 64" in v.message


class TestRemoveNode:
    def test_remove_only_node_gives_empty_graph(self):
        g = from_lists(DEFAULT_TYPES, nodes=[(0, "dead", [1.0, 2.0])],
                       edges=[(0, 0, [1.0])])
        out = remove_node(g, 0)
        assert out.n_nodes == 0 and out.n_edges == 0

    def test_triangle_keeps_survivor_edges(self):
        g = from_lists(
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
        doc["nodes"]["x"][1] = None
        doc["nodes"]["y"][1] = None
        with pytest.raises(GraphValidationError) as exc:
            from_json_dict(doc)
        assert exc.value.violation.kind == "coords"
        assert exc.value.violation.node_id == 1

    def test_file_bytes_are_fixed(self, tmp_path):
        save_graph(tiny_graph(label=1), tmp_path / "g.json")
        assert (tmp_path / "g.json").read_bytes() == TINY_GRAPH_FILE

    @pytest.mark.parametrize("table, key", [
        ("nodes", "type"), ("nodes", "feat"), ("nodes", "x"), ("nodes", "y"),
        ("edges", "dst"), ("edges", "attr")])
    def test_column_length_mismatch_is_format_violation(self, table, key):
        doc = to_json_dict(tiny_graph())
        if key in ("feat", "attr"):  # the payload loses its last row's bytes
            set_float_column(doc, key, float_column(doc, key)[:-1])
        else:
            doc[table][key].pop()
        with pytest.raises(GraphValidationError) as exc:
            from_json_dict(doc)
        v = exc.value.violation
        assert v.kind == "format" and f"{table}.{key} has" in v.message

    @pytest.mark.parametrize("table, key, row, value, kind, node_id, edge", [
        ("nodes", "type", 2, "stromal", "unknown-type", 2, None),
        ("nodes", "type", 0, ["dead"], "unknown-type", 0, None),
    ])
    def test_column_entry_faults_name_the_node_or_edge(self, table, key, row, value, kind,
                                                       node_id, edge):
        doc = to_json_dict(tiny_graph())
        doc[table][key][row] = value
        with pytest.raises(GraphValidationError) as exc:
            from_json_dict(doc)
        v = exc.value.violation
        assert (v.kind, v.node_id, v.edge) == (kind, node_id, edge)

    @pytest.mark.parametrize("table, key", [("nodes", "feat"), ("edges", "attr")])
    def test_float_column_as_json_rows_is_format_violation(self, table, key):
        doc = to_json_dict(tiny_graph())
        doc[table][key] = float_column(doc, key).tolist()
        with pytest.raises(GraphValidationError) as exc:
            from_json_dict(doc)
        v = exc.value.violation
        assert (v.kind, v.message) == ("format", f"{table}.{key} must be a base64 string")

    @pytest.mark.parametrize("table, key", [("nodes", "feat"), ("edges", "attr")])
    def test_payload_one_byte_short_is_format_violation(self, table, key):
        doc = to_json_dict(tiny_graph())
        raw = base64.b64decode(doc[table][key])
        doc[table][key] = base64.b64encode(raw[:-1]).decode("ascii")
        with pytest.raises(GraphValidationError) as exc:
            from_json_dict(doc)
        v = exc.value.violation
        assert v.kind == "format"
        assert f"{table}.{key} has {len(raw) - 1} bytes, expected {len(raw)}" in v.message

    @pytest.mark.parametrize("key, row, value, node_id, edge", [
        ("feat", 1, float("nan"), 1, None),
        ("feat", 2, float("-inf"), 2, None),
        ("attr", 3, float("inf"), None, (0, 1)),
        ("attr", 5, float("nan"), None, (2, 1)),
    ])
    def test_decoded_non_finite_is_validate_violation(self, key, row, value, node_id, edge):
        doc = to_json_dict(tiny_graph())
        a = float_column(doc, key)
        a[row, -1] = value
        set_float_column(doc, key, a)
        with pytest.raises(GraphValidationError) as exc:
            from_json_dict(doc)
        v = exc.value.violation
        assert (v.kind, v.node_id, v.edge) == ("non-finite", node_id, edge)

    def test_payload_is_little_endian_float64_bytes(self):
        g = tiny_graph()
        doc = to_json_dict(g)
        assert base64.b64decode(doc["nodes"]["feat"]) == np.asarray(g.features, "<f8").tobytes()
        assert base64.b64decode(doc["edges"]["attr"]) == np.asarray(g.edge_attrs, "<f8").tobytes()
        # 1.0 is 0x3FF0000000000000: its low bytes come first
        assert base64.b64decode(doc["nodes"]["feat"])[:8] == bytes(6) + b"\xf0\x3f"

    @pytest.mark.parametrize("types", ["abc", {"dead": 0}, ["dead", 3], None],
                             ids=["string", "object", "non-string-entry", "null"])
    def test_types_must_be_a_list_of_strings(self, types):
        doc = to_json_dict(tiny_graph())
        doc["types"] = types
        with pytest.raises(GraphValidationError) as exc:
            from_json_dict(doc)
        v = exc.value.violation
        assert (v.kind, v.message) == ("format", "types must be a JSON list of strings")

    @pytest.mark.parametrize("dim", ["feature_dim", "edge_dim"])
    def test_zero_rows_of_unallocatable_width_is_format_violation(self, dim):
        doc = to_json_dict(from_lists(DEFAULT_TYPES, nodes=[], edges=[]))
        doc[dim] = 2**62
        with pytest.raises(GraphValidationError) as exc:
            from_json_dict(doc)
        assert exc.value.violation.kind == "format"

    def test_zero_row_tables_keep_their_width(self, tmp_path):
        g = from_lists(DEFAULT_TYPES, nodes=[(0, "dead", [1.0, 2.0], (0, 0))], edges=[])
        empty = remove_node(g, 0)
        for h in (g, empty):
            save_graph(h, tmp_path / "g.json")
            assert load_graph(tmp_path / "g.json") == h
        assert empty.features.shape == (0, 2) and empty.edge_attrs.shape == (0, 1)
        assert empty.coords.shape == (0, 2)


# save_graph(tiny_graph(label=1)): a layout change must update this on purpose.
TINY_GRAPH_FILE = (
    b'{"edge_dim":1,"edges":{"attr":"AAAAAAAA8D8AAAAAAADwPwAAAAAAAPA/AAAAAAAA4D8AAAAAAADgPwAAAAAAANC/",'
    b'"dst":[0,1,2,1,0,1],"src":[0,1,2,0,1,2]},"feature_dim":2,"label":1,'
    b'"nodes":{"feat":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhAAAAAAAAAEEAAAAAAAAAUQAAAAAAAABhA",'
    b'"id":[0,1,2],"type":["neoplastic","inflammatory","connective"],"x":[0,1,0],"y":[0,0,1]},'
    b'"types":["no-label","neoplastic","inflammatory","connective","dead",'
    b'"non-neoplastic-epithelial"],"version":3}\n'
)
