"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints a PASS line via the conftest terminal summary. The
synthetic experiments (criteria 6-8) are seed-controlled and fully
deterministic, so their measured values reproduce exactly.
"""

import dataclasses
import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from _reference import (
    edge_list,
    head_blocks,
    incoming_segments,
    ref_layer_forward,
    ref_model_forward,
    ref_plain_attention,
)
from heatnet.builder import AugmentConfig, BuildConfig
from heatnet.cli import EXIT_OK, main
from heatnet.explain import explain_graph, top_k_ids
from heatnet.hetgraph import DEFAULT_TYPES, TypeSet, batch_graphs
from heatnet.layers import HeatLayerParams, layer_forward
from heatnet.metrics import metric_auc, metric_macro_f1, welch_ttest
from heatnet.model import Model, ModelConfig, baseline_config
from heatnet.seeding import rng_for
from heatnet.synth import SyntheticSpec, synth_generate
from heatnet.train import TrainConfig, evaluate, run_cv, train
from heatnet.testing import random_labeled_graph

TYPES3 = TypeSet(DEFAULT_TYPES.names[:3])

# Experiment recipe for the synthetic studies (criteria 6-8). The package
# defaults are left untouched; these overrides exist purely to make
# desk-scale training converge within the runtime budget.
EXP_SEED = 42
EXP_TRAIN = TrainConfig(learning_rate=3e-3, weight_decay=1e-5, max_epochs=30,
                        batch_size=2, patience=6, folds=5, seed=EXP_SEED,
                        dropout=0.0, augmentation=AugmentConfig())
EXP_MODEL = ModelConfig(feature_dim=8, hidden_dim=8, heads=2, n_layers=2, dropout=0.0)
INTERACTION_SPEC = SyntheticSpec(n_nodes=(10, 16), feature_dim=8, rule="interaction",
                                 theta=0.8, build=BuildConfig(k=3))
COUNT_SPEC = SyntheticSpec(n_nodes=(22, 34), feature_dim=8, rule="type_count",
                           count_type="dead", count_min=1, noise_sigma=1.3,
                           type_probs={"no-label": 0.09, "neoplastic": 0.32,
                                       "inflammatory": 0.28, "connective": 0.2,
                                       "dead": 0.03, "non-neoplastic-epithelial": 0.08},
                           build=BuildConfig(k=3))


@pytest.fixture(scope="session")
def interaction_cv():
    """5-fold CV of HEAT, the type-blind baseline, and the mean-pool
    ablation on 200 interaction graphs (shared by criteria 6 and 7)."""
    t0 = time.perf_counter()
    ds = synth_generate(INTERACTION_SPEC, 200, seed=EXP_SEED)
    heat = run_cv(ds.graphs, EXP_MODEL, EXP_TRAIN)
    base = run_cv(ds.graphs, baseline_config(EXP_MODEL), EXP_TRAIN)
    core_seconds = time.perf_counter() - t0
    mean_pool = run_cv(ds.graphs, dataclasses.replace(EXP_MODEL, pooling="mean"), EXP_TRAIN)
    return {"heat": heat, "base": base, "mean": mean_pool, "core_seconds": core_seconds}


@pytest.fixture(scope="session")
def count_variant_cv():
    ds = synth_generate(COUNT_SPEC, 200, seed=EXP_SEED + 1)
    pl = run_cv(ds.graphs, EXP_MODEL, EXP_TRAIN)
    mean_pool = run_cv(ds.graphs, dataclasses.replace(EXP_MODEL, pooling="mean"), EXP_TRAIN)
    return {"pl": pl, "mean": mean_pool}


@pytest.fixture(scope="session")
def explainer_recovery():
    """Train one model on the interaction task, then measure how often the
    top-10% |delta| nodes of fresh noise-free graphs hit the critical set."""
    ds = synth_generate(INTERACTION_SPEC, 200, seed=EXP_SEED)
    cfg = dataclasses.replace(EXP_TRAIN, learning_rate=5e-3)
    model = Model.init(EXP_MODEL, rng_for(EXP_SEED, "init"))
    train(ds.graphs[:160], ds.graphs[160:], model, cfg)
    fresh = synth_generate(INTERACTION_SPEC, 120, seed=777)
    positives = [r for r in fresh.records if r.label == 1][:50]
    assert len(positives) == 50
    hits = 0
    for rec in positives:
        k = math.ceil(0.1 * rec.graph.n_nodes)
        top = top_k_ids(explain_graph(model, rec.graph), k)
        if set(top) & set(rec.critical):
            hits += 1
    return {"hits": hits, "total": len(positives),
            "val_accuracy": evaluate(ds.graphs[160:], model)["accuracy"]}


def test_c01_gradient_fidelity(capsys):
    # random 10-node, 3-type, 2-layer, h=2, d=8 model; eps 1e-4; < 1e-5; < 30 s
    t0 = time.perf_counter()
    rc = main(["gradcheck", "--nodes", "10", "--type-count", "3", "--dim", "8",
               "--eps", "1e-4", "--tolerance", "1e-5", "--seed", "0"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == EXIT_OK, out
    reported = float(out.split("error:")[1].split("(")[0])
    assert reported < 1e-5
    assert elapsed < 30.0, f"gradcheck took {elapsed:.1f}s"


def test_c02_attention_normalization():
    # 100 random graphs: per-target per-head attention sums to 1 within 1e-9
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = int(rng.integers(2, 12))
        g = random_labeled_graph(rng, DEFAULT_TYPES, n_nodes=n, feature_dim=5)
        params = HeatLayerParams.init(DEFAULT_TYPES, 5, 8, int(rng.choice([1, 2, 4])), 1,
                                      rng_for(trial, "params"))
        b = batch_graphs([g])
        out = layer_forward(b, params, return_attention=True)
        for seg in incoming_segments(b):
            sums = out.attention[seg].sum(axis=0)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_c03_oracle_equivalence():
    # layer_forward and Model.forward vs straight-line reference on all
    # graph sizes <= 5 nodes over randomized parameters, within 1e-10
    rng = np.random.default_rng(2)
    for n in range(1, 6):
        for trial in range(8):
            g = random_labeled_graph(rng, TYPES3, n_nodes=n, feature_dim=4)
            model = Model.init(
                ModelConfig(feature_dim=4, types=TYPES3.names, hidden_dim=4, heads=2,
                            n_layers=2, dropout=0.0),
                rng_for(n * 100 + trial, "init"))
            got = model.forward([g]).data[0]
            ref = ref_model_forward(g, model)
            np.testing.assert_allclose(got, ref, atol=1e-10)

            layer = model.layers[0]
            b = batch_graphs([g])
            out = layer_forward(b, layer)
            w_node = head_blocks(layer.w_node, TYPES3.names, layer.heads)
            ref_h, ref_e = ref_layer_forward(g.features, g.node_types, edge_list(b), b.edge_attrs,
                                             w_node, layer.w_edge.data, layer.heads,
                                             type_names=TYPES3.names)
            np.testing.assert_allclose(out.node_features.data, ref_h, atol=1e-10)
            np.testing.assert_allclose(out.edge_attrs.data, ref_e, atol=1e-10)


def test_c04_degeneracy_to_plain_attention():
    # one type, all-ones edge modulation, h=1 == scaled dot-product attention
    rng = np.random.default_rng(3)
    single = TypeSet(("only",))
    for agg in ("sum", "mean"):
        for trial in range(15):
            n = int(rng.integers(2, 7))
            g = random_labeled_graph(rng, single, n_nodes=n, feature_dim=4)
            params = HeatLayerParams.init(single, 4, 4, 1, 1, rng_for(trial, "deg"),
                                          aggregation=agg, edge_identity=True)
            b = batch_graphs([g])
            got = layer_forward(b, params).node_features.data
            w = head_blocks(params.w_node, single.names, 1)["only"][0]
            ref = ref_plain_attention(g.features, w, edge_list(b), aggregation=agg)
            np.testing.assert_allclose(got, ref, atol=1e-10)


def test_c05_metric_oracles():
    # AUC == exhaustive pair counting on all label patterns up to size 12
    rng = np.random.default_rng(4)

    def pair_count(scores, labels):
        pos = [s for s, y in zip(scores, labels) if y == 1]
        neg = [s for s, y in zip(scores, labels) if y == 0]
        total = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                    for p in pos for q in neg)
        return total / (len(pos) * len(neg))

    for n in range(2, 13):
        scores = rng.choice([0.0, 0.3, 0.6, 1.0], size=n)
        for labels in itertools.product([0, 1], repeat=n):
            if 0 < sum(labels) < n:
                assert abs(metric_auc(scores, list(labels)) -
                           pair_count(scores, labels)) < 1e-10

    # macro-F1 and Welch t vs direct-formula evaluation on 20 random cases
    for _ in range(20):
        c = int(rng.integers(2, 5))
        n = int(rng.integers(4, 24))
        preds = rng.integers(0, c, size=n)
        labels = rng.integers(0, c, size=n)
        f1s = []
        for cls in range(c):
            tp = float(np.sum((preds == cls) & (labels == cls)))
            fp = float(np.sum((preds == cls) & (labels != cls)))
            fn = float(np.sum((preds != cls) & (labels == cls)))
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * p * r / (p + r) if p + r else 0.0)
        assert abs(metric_macro_f1(preds, labels, c) - float(np.mean(f1s))) < 1e-10

    for _ in range(20):
        na, nb = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        a = rng.normal(0, 1, na)
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2), nb)
        mine = welch_ttest(a, b)
        va, vb = a.var(ddof=1), b.var(ddof=1)
        se2 = va / na + vb / nb
        t_direct = (a.mean() - b.mean()) / math.sqrt(se2)
        df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
        p_direct = 2 * float(stats.t.sf(abs(t_direct), df))
        assert abs(mine.t - t_direct) < 1e-10
        assert abs(mine.p - p_direct) < 1e-10


def test_c06_heterogeneity_separation(interaction_cv):
    # HEAT's mean test AUC must beat the type-blind baseline by >= 0.10
    heat, base = interaction_cv["heat"]["auc"], interaction_cv["base"]["auc"]
    assert heat - base >= 0.10, f"heat={heat:.3f} base={base:.3f}"
    assert interaction_cv["core_seconds"] < 600.0, \
        f"experiment took {interaction_cv['core_seconds']:.0f}s"


def test_c07_pl_pool_vs_mean_pool(interaction_cv, count_variant_cv):
    pl_a = interaction_cv["heat"]["auc"]
    mean_a = interaction_cv["mean"]["auc"]
    assert pl_a >= mean_a - 0.02, f"interaction: pl={pl_a:.3f} mean={mean_a:.3f}"
    pl_b = count_variant_cv["pl"]["auc"]
    mean_b = count_variant_cv["mean"]["auc"]
    assert pl_b > mean_b, f"type-count: pl={pl_b:.3f} mean={mean_b:.3f}"


def test_c08_explainer_plant_and_recover(explainer_recovery):
    hits, total = explainer_recovery["hits"], explainer_recovery["total"]
    assert total == 50
    assert hits / total >= 0.90, f"recovered critical nodes in only {hits}/{total} graphs"


def test_c09_deterministic_reproducibility(tmp_path):
    # two full train+eval runs, identical seeds, --deterministic: byte-identical
    synth_args = ["--set", "synth.n_nodes=[6,9]", "--set", "synth.feature_dim=4",
                  "--set", "synth.rule=type_count", "--set", "synth.label_feature_shift=2.0",
                  "--set", 'synth.type_probs={"no-label":0.1,"neoplastic":0.3,'
                           '"inflammatory":0.3,"connective":0.2,"dead":0.1,'
                           '"non-neoplastic-epithelial":0.0}']
    fast = ["--set", "train.learning_rate=0.003", "--set", "train.max_epochs=4",
            "--set", "train.patience=4", "--set", "model.hidden_dim=4",
            "--set", "train.augmentation.feature_noise_sigma=0.05"]
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n", "10", "--seed", "11",
                 "--deterministic", *synth_args]) == EXIT_OK
    artifacts = []
    for name in ("run1", "run2"):
        run_dir = tmp_path / name
        assert main(["train", "--data", str(data), "--out", str(run_dir), "--seed", "11",
                     "--deterministic", *synth_args, *fast]) == EXIT_OK
        metrics = tmp_path / f"{name}.metrics.json"
        assert main(["eval", "--data", str(data), "--checkpoint",
                     str(run_dir / "checkpoint.json"), "--out", str(metrics),
                     "--seed", "11", "--deterministic", *synth_args, *fast]) == EXIT_OK
        artifacts.append((
            (run_dir / "checkpoint.json").read_bytes(),
            (run_dir / "train_log.csv").read_bytes(),
            metrics.read_bytes(),
        ))
    assert artifacts[0][0] == artifacts[1][0], "checkpoints differ"
    assert artifacts[0][1] == artifacts[1][1], "training logs differ"
    assert artifacts[0][2] == artifacts[1][2], "metrics differ"


def test_c10_default_hyperparameters_honored(tmp_path):
    # the fixed default training recipe
    cfg = TrainConfig()
    assert cfg.learning_rate == 5e-5
    assert cfg.weight_decay == 1e-5
    assert cfg.dropout == 0.2
    assert cfg.batch_size == 2
    assert cfg.max_epochs == 150
    assert cfg.folds == 5
    assert ModelConfig().dropout == 0.2

    # and they must appear verbatim in every artifact's provenance block
    synth_args = ["--set", "synth.n_nodes=[6,9]", "--set", "synth.feature_dim=4",
                  "--set", "synth.rule=type_count", "--set", "synth.label_feature_shift=2.0",
                  "--set", 'synth.type_probs={"no-label":0.1,"neoplastic":0.3,'
                           '"inflammatory":0.3,"connective":0.2,"dead":0.1,'
                           '"non-neoplastic-epithelial":0.0}']
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n", "10", "--seed", "1",
                 "--deterministic", *synth_args]) == EXIT_OK
    run_dir = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(run_dir), "--seed", "1",
                 "--deterministic", *synth_args]) == EXIT_OK
    metrics = tmp_path / "metrics.json"
    assert main(["eval", "--data", str(data), "--checkpoint",
                 str(run_dir / "checkpoint.json"), "--out", str(metrics), "--seed", "1",
                 "--deterministic", *synth_args]) == EXIT_OK

    def train_block(doc):
        return doc["provenance"]["config"]["train"]

    expected = {"learning_rate": 5e-5, "weight_decay": 1e-5, "dropout": 0.2,
                "batch_size": 2, "max_epochs": 150, "folds": 5}
    for path in (data / "manifest.json", run_dir / "checkpoint.json", metrics):
        doc = json.loads(path.read_text())
        block = train_block(doc)
        for key, value in expected.items():
            assert block[key] == value, f"{path.name}: {key}={block[key]}"
    log_header = (run_dir / "train_log.csv").read_text().splitlines()[0]
    prov = json.loads(log_header.removeprefix("# provenance: "))
    for key, value in expected.items():
        assert prov["config"]["train"][key] == value
