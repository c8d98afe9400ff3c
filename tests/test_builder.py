"""Graph construction: typing, k-NN edges, Pearson attributes, augmentation."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from _reference import pearson_pair
from heatnet.builder import (
    AugmentConfig,
    BuildConfig,
    PatchRecord,
    augment,
    build_graph,
    kmeans_typing,
    knn_edges,
    load_patch_table,
    majority_vote_type,
)
from heatnet.errors import ConfigError, PatchTableError, ShapeError
from heatnet.hetgraph import validate
from heatnet.seeding import rng_for


class TestMajorityVote:
    def test_strict_majority(self):
        assert majority_vote_type({"neoplastic": 5, "inflammatory": 2}) == "neoplastic"

    def test_empty_counts_give_no_label(self):
        assert majority_vote_type({}) == "no-label"
        assert majority_vote_type(None) == "no-label"

    def test_all_zero_counts_give_no_label(self):
        assert majority_vote_type({"dead": 0, "connective": 0}) == "no-label"

    def test_tie_breaks_by_enumeration_order(self):
        # connective precedes dead in the type enumeration
        assert majority_vote_type({"dead": 3, "connective": 3}) == "connective"

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigError):
            majority_vote_type({"stromal": 3})


class TestKnnEdges:
    def test_two_nodes_k1(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        edges = knn_edges(feats, 1)
        assert edges.dtype == np.intp and edges.tolist() == [[0, 1], [1, 0]]

    def test_identical_features_tie_to_lowest_index(self):
        feats = np.ones((3, 2))
        pairs = knn_edges(feats, 1).tolist()
        # 0 picks 1, 1 picks 0, 2 picks 0; symmetric closure
        assert pairs == [[0, 1], [0, 2], [1, 0], [2, 0]]

    def test_matches_bruteforce_similarity_oracle(self):
        feats = np.array([[1.0, 0.0], [2.0, 0.1], [3.0, 0.4], [4.0, 1.0]])
        k = 2

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        expected = set()
        for v in range(4):
            sims = sorted(((cos(feats[u], feats[v]), -u) for u in range(4) if u != v),
                          reverse=True)
            for _, negu in sims[:k]:
                expected.add((-negu, v))
                expected.add((v, -negu))
        assert set(map(tuple, knn_edges(feats, k).tolist())) == expected

    def test_symmetric_closure(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((8, 4))
        pairs = set(map(tuple, knn_edges(feats, 3).tolist()))
        assert all((t, s) in pairs for s, t in pairs)

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            knn_edges(np.ones((3, 2)), 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        with pytest.raises(ConfigError):
            knn_edges(np.ones((3, 2)), k)


class TestPearson:
    def test_identical_vectors(self):
        assert pearson_pair(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 1.0

    def test_reversed_vectors(self):
        assert pearson_pair(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])) == -1.0

    def test_known_value(self):
        r = pearson_pair(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0]))
        assert r == pytest.approx(0.5, abs=1e-15)

    def test_constant_vector_maps_to_zero(self):
        assert pearson_pair(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            rxy = pearson_pair(x, y)
            ryx = pearson_pair(y, x)
            assert rxy == ryx
            a, b = float(rng.uniform(0.1, 5.0)), float(rng.uniform(-3.0, 3.0))
            assert pearson_pair(a * x + b, y) == pytest.approx(rxy, abs=1e-12)


class TestBuildGraph:
    def test_single_patch_self_loop(self):
        g = build_graph([PatchRecord("p0", 0, 0, np.array([1.0, 2.0]),
                                     type_counts={"neoplastic": 3})],
                        BuildConfig(k=1))
        assert g.n_nodes == 1 and g.n_edges == 1
        assert (g.edge_src[0], g.edge_dst[0]) == (0, 0)
        np.testing.assert_array_equal(g.edge_attrs, [[1.0]])

    def test_three_patches_match_hand_construction(self):
        feats = [np.array([1.0, 0.0, 0.0]), np.array([0.9, 0.1, 0.0]),
                 np.array([0.0, 0.0, 1.0])]
        patches = [PatchRecord(f"p{i}", i, 0, feats[i], type_counts={"neoplastic": 1})
                   for i in range(3)]
        g = build_graph(patches, BuildConfig(k=1))
        # 0 and 1 pick each other; 2 picks 1 (cosine 0 vs 0 tie -> lower index 0?)
        # cos(2,0)=0, cos(2,1)=0 -> tie, lower index 0 chosen; symmetrized.
        pairs = set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
        expected = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (0, 2), (2, 0)}
        assert pairs == expected
        # edge attrs: pearson of endpoints, self-loops 1.0
        for i, (s, t) in enumerate(zip(g.edge_src.tolist(), g.edge_dst.tolist())):
            if s == t:
                assert g.edge_attrs[i, 0] == 1.0
            else:
                assert g.edge_attrs[i, 0] == pearson_pair(feats[s], feats[t])

    def test_zero_counts_type_all_no_label(self):
        patches = [PatchRecord(f"p{i}", i, 0, np.array([float(i), 1.0]), type_counts={})
                   for i in range(3)]
        g = build_graph(patches, BuildConfig(k=1))
        assert all(g.types.names[t] == "no-label" for t in g.node_types)

    def test_output_validates(self):
        rng = np.random.default_rng(2)
        patches = [PatchRecord(f"p{i}", i % 4, i // 4, rng.standard_normal(5),
                               type_counts={"dead": int(rng.integers(1, 5))})
                   for i in range(12)]
        g = build_graph(patches, BuildConfig(k=3))
        assert validate(g) is None

    def test_direct_type_labels(self):
        patches = [PatchRecord("a", 0, 0, np.array([1.0, 2.0]), type_label="dead"),
                   PatchRecord("b", 1, 0, np.array([2.0, 1.0]), type_label="connective")]
        g = build_graph(patches, BuildConfig(k=1))
        assert [g.types.names[t] for t in g.node_types] == ["dead", "connective"]

    def test_kmeans_typing_mode(self):
        feats = [np.array([0.0, 0.0]), np.array([0.1, 0.0]),
                 np.array([9.0, 9.0]), np.array([9.1, 9.0])]
        patches = [PatchRecord(f"p{i}", i, 0, f) for i, f in enumerate(feats)]
        g = build_graph(patches, BuildConfig(k=1, typing="kmeans", kmeans_k=2))
        assert g.types.names == ("cluster-0", "cluster-1")
        assert g.node_types[0] == g.node_types[1]
        assert g.node_types[2] == g.node_types[3]
        assert g.node_types[0] != g.node_types[2]

    @pytest.mark.parametrize("first", ["label", "counts"])
    def test_first_unknown_type_in_patch_order_is_reported(self, first):
        bad = {"label": {"type_label": "mystery"}, "counts": {"type_counts": {"enigma": 1}}}
        later = "counts" if first == "label" else "label"
        patches = [PatchRecord("a", 0, 0, np.array([1.0, 2.0]), type_label="dead"),
                   PatchRecord("b", 1, 0, np.array([2.0, 1.0]), **bad[first]),
                   PatchRecord("c", 2, 0, np.array([2.0, 3.0]), **bad[later])]
        with pytest.raises(ConfigError, match="mystery" if first == "label" else "enigma"):
            build_graph(patches, BuildConfig(k=1))

    def test_mixed_feature_shapes_name_the_patch(self):
        patches = [PatchRecord("a", 0, 0, np.array([1.0, 2.0])),
                   PatchRecord("b", 1, 0, np.array([1.0, 2.0, 3.0]))]
        with pytest.raises(ShapeError, match="patch b"):
            build_graph(patches, BuildConfig(k=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_name_the_patch(self, bad):
        patches = [PatchRecord(f"p{i}", i, 0, np.array([1.0, float(i)])) for i in range(3)]
        patches[1] = PatchRecord("p1", 1, 0, np.array([bad, 1.0]))
        with pytest.raises(ConfigError, match="patch p1"):
            build_graph(patches, BuildConfig(k=1))

    def test_degenerate_features_raise_no_warnings(self):
        # zero vectors, constant rows (Pearson 0) and duplicate rows
        feats = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.0, 2.0, 2.0], [1.0, 2.0, 3.0],
                 [1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [-1.0, -1.0, -1.0]]
        patches = [PatchRecord(f"p{i}", i, 0, np.array(f), type_label="dead")
                   for i, f in enumerate(feats)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = build_graph(patches, BuildConfig(k=3))
        assert validate(g) is None
        attrs = dict(zip(zip(g.edge_src.tolist(), g.edge_dst.tolist()), g.edge_attrs[:, 0]))
        assert all(attrs[(s, t)] == 0.0 for s, t in attrs if s != t and {s, t} & {0, 1, 2, 6})

    @pytest.mark.parametrize("shift", [600, 1000, -600])
    def test_row_scaled_by_power_of_two_gives_same_graph(self, shift):
        # 2**600 and 2**1000 overflow the squared norms, 2**-600 underflows them
        feats = np.random.default_rng(5).standard_normal((9, 4))
        scaled = feats.copy()
        scaled[2] = np.ldexp(feats[2], shift)
        graphs = []
        for f in (feats, scaled):
            patches = [PatchRecord(f"p{i}", i, 0, r, type_label="dead") for i, r in enumerate(f)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                graphs.append(build_graph(patches, BuildConfig(k=3)))
        g, h = graphs
        assert g.edge_src.tolist() == h.edge_src.tolist()
        assert g.edge_dst.tolist() == h.edge_dst.tolist()
        assert g.edge_attrs.tobytes() == h.edge_attrs.tobytes()


class TestAugment:
    def graph(self):
        rng = np.random.default_rng(3)
        patches = [PatchRecord(f"p{i}", i, 0, rng.standard_normal(4),
                               type_counts={"neoplastic": 2}) for i in range(5)]
        return build_graph(patches, BuildConfig(k=2))

    def test_zero_strength_is_identity(self):
        g = self.graph()
        assert augment(g, AugmentConfig(), rng_for(0, "augment")) is g

    def test_drop_all_nodes_keeps_one(self):
        g = self.graph()
        out = augment(g, AugmentConfig(node_drop_prob=1.0), rng_for(0, "augment"))
        assert out.n_nodes == 1
        assert validate(out) is None

    def test_self_loops_never_dropped(self):
        g = self.graph()
        out = augment(g, AugmentConfig(edge_drop_prob=1.0), rng_for(1, "augment"))
        pairs = set(zip(out.edge_src.tolist(), out.edge_dst.tolist()))
        assert pairs == {(i, i) for i in out.node_ids}

    def test_deterministic_given_seed(self):
        g = self.graph()
        cfg = AugmentConfig(edge_drop_prob=0.4, node_drop_prob=0.3,
                            feature_noise_sigma=0.1, edge_noise_sigma=0.1)
        a = augment(g, cfg, rng_for(7, "augment", 3))
        b = augment(g, cfg, rng_for(7, "augment", 3))
        assert a == b

    def test_noise_applied_to_features_and_attrs(self):
        g = self.graph()
        out = augment(g, AugmentConfig(feature_noise_sigma=0.5, edge_noise_sigma=0.5),
                      rng_for(2, "augment"))
        assert out.n_nodes == g.n_nodes and out.n_edges == g.n_edges
        assert not (out.features == g.features).all()
        assert not (out.edge_attrs == g.edge_attrs).all()

    def test_validates_after_augment(self):
        g = self.graph()
        for i in range(10):
            out = augment(g, AugmentConfig(0.3, 0.3, 0.05, 0.05), rng_for(4, "augment", i))
            assert validate(out) is None


class TestKmeansTyping:
    def test_separated_clusters(self):
        feats = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 10.0], [10.2, 10.0]])
        labels = kmeans_typing(feats, 2, seed=0)
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_k_equals_n(self):
        feats = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = kmeans_typing(feats, 4, seed=0)
        assert sorted(labels.tolist()) == [0, 1, 2, 3]

    def test_matches_exhaustive_partition_oracle(self):
        pts = np.array([[0.0], [1.0], [9.0], [10.0]])
        labels = kmeans_typing(pts, 2, seed=5)

        def cost(assignment):
            total = 0.0
            for c in (0, 1):
                members = pts[[i for i, a in enumerate(assignment) if a == c]]
                if len(members):
                    total += float(((members - members.mean(axis=0)) ** 2).sum())
            return total

        best = min(itertools.product((0, 1), repeat=4),
                   key=lambda a: cost(a) if len(set(a)) == 2 else math.inf)
        # optimal partition is {0,1} vs {9,10}
        assert {tuple(np.nonzero(np.array(best) == c)[0]) for c in (0, 1)} == {(0, 1), (2, 3)}
        assert {tuple(np.nonzero(labels == c)[0]) for c in (0, 1)} == {(0, 1), (2, 3)}

    def test_k_exceeds_n(self):
        with pytest.raises(ConfigError):
            kmeans_typing(np.ones((2, 2)), 3, seed=0)


class TestPatchTable:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "patches.jsonl"
        path.write_text(
            '{"id": "a", "x": 0, "y": 0, "feat": [1.0, 2.0], "type_counts": {"dead": 3}}\n'
            '{"id": "b", "x": 1, "y": 0, "feat": [2.0, 1.0], "type": "connective"}\n')
        records = load_patch_table(path)
        assert [r.id for r in records] == ["a", "b"]
        assert records[0].type_counts == {"dead": 3}
        assert records[1].type_label == "connective"

    def test_malformed_line_cites_line_number(self, tmp_path):
        path = tmp_path / "patches.jsonl"
        path.write_text(
            '{"id": "a", "x": 0, "y": 0, "feat": [1.0]}\n'
            '{"id": "b", "x": 1, "feat": [1.0]}\n')
        with pytest.raises(PatchTableError) as exc:
            load_patch_table(path)
        assert exc.value.line == 2

    def test_integer_features_convert_like_float(self, tmp_path):
        feat = [2**63 + 1, 2**64 - 1, -(2**70) - 1, 2**53 + 1, 2**1023, -7, 0.1, 1e308]
        path = tmp_path / "patches.jsonl"
        path.write_text(json.dumps({"id": "a", "x": 0, "y": 0, "feat": feat}) + "\n")
        (record,) = load_patch_table(path)
        assert record.feature.dtype == np.float64
        assert [v.hex() for v in record.feature.tolist()] == [float(v).hex() for v in feat]

    def test_integer_feature_beyond_float64_cites_line(self, tmp_path):
        path = tmp_path / "patches.jsonl"
        path.write_text('{"id": "a", "x": 0, "y": 0, "feat": [1.0, 2.0]}\n'
                        f'{{"id": "b", "x": 1, "y": 0, "feat": [1.0, {10**400}]}}\n')
        with pytest.raises(PatchTableError) as exc:
            load_patch_table(path)
        assert exc.value.line == 2
        assert str(exc.value).endswith("bad patch record: int too large to convert to float")

    def test_csv_variant(self, tmp_path):
        path = tmp_path / "patches.csv"
        path.write_text("id,x,y,type,feat_0,feat_1\n"
                        "a,0,0,dead,1.0,2.0\n"
                        "b,1,0,neoplastic,2.0,1.0\n")
        records = load_patch_table(path)
        assert records[1].type_label == "neoplastic"
        np.testing.assert_array_equal(records[0].feature, [1.0, 2.0])

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "patches.csv"
        path.write_text("ident,x,y,type,f0\n")
        with pytest.raises(PatchTableError) as exc:
            load_patch_table(path)
        assert exc.value.line == 1
