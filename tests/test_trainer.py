"""Optimizer, k-fold splits, training behavior, checkpoints, synthetic data."""

import dataclasses
import importlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import RefAdamState, ref_adam_step
from heatnet.autodiff import Tensor
from heatnet.builder import AugmentConfig, BuildConfig
from heatnet.cli import EXIT_OK, main
from heatnet.errors import ConfigError, GenerationError, TrainingError
from heatnet.hetgraph import DEFAULT_TYPES
from heatnet.model import Model, ModelConfig
from heatnet.seeding import rng_for
from heatnet.synth import SyntheticSpec, planted_label, synth_generate
from heatnet.train import (
    CHECKPOINT_VERSION,
    AdamState,
    EpochLog,
    TrainConfig,
    adam_step,
    evaluate,
    fold_split,
    kfold_split,
    load_checkpoint,
    run_cv,
    save_checkpoint,
    train,
    train_fold,
    write_train_log,
)

NO_AUG = AugmentConfig()
train_module = importlib.import_module("heatnet.train")  # the package exports a function ``train``


def quiet_cfg(**kw):
    base = dict(learning_rate=5e-3, weight_decay=0.0, max_epochs=5, batch_size=2,
                patience=5, folds=5, seed=0, augmentation=NO_AUG, dropout=0.0)
    base.update(kw)
    base["patience"] = min(base["patience"], base["max_epochs"])
    return TrainConfig(**base)


class TestAdam:
    def test_zero_grad_zero_wd_leaves_params(self):
        p = {"w": Tensor([1.0, -2.0], requires_grad=True)}
        state = AdamState.init(p)
        adam_step(p, {"w": np.zeros(2)}, state, quiet_cfg())
        np.testing.assert_array_equal(p["w"].data, [1.0, -2.0])

    def test_first_step_closed_form(self):
        # theta=0, g=1, lr=5e-5: m_hat=1, v_hat=1 -> theta = -lr/(1+eps)
        lr = 5e-5
        p = {"w": Tensor([0.0], requires_grad=True)}
        state = AdamState.init(p)
        adam_step(p, {"w": np.array([1.0])}, state, quiet_cfg(learning_rate=lr))
        expected = -lr * 1.0 / (1.0 + 1e-8)
        assert p["w"].data[0] == pytest.approx(expected, rel=1e-12)

    def test_decoupled_weight_decay_shrinks_before_update(self):
        lr, wd = 0.1, 0.5
        p = {"w": Tensor([2.0], requires_grad=True)}
        state = AdamState.init(p)
        adam_step(p, {"w": np.array([0.0])}, state, quiet_cfg(learning_rate=lr, weight_decay=wd))
        # zero gradient: only the decay factor applies
        assert p["w"].data[0] == pytest.approx(2.0 * (1 - lr * wd))

    def test_non_finite_grads_rejected_with_names(self):
        p = {"w": Tensor([0.0], requires_grad=True)}
        state = AdamState.init(p)
        with pytest.raises(TrainingError, match="w"):
            adam_step(p, {"w": np.array([np.nan])}, state, quiet_cfg())

    def test_identical_runs_identical_trajectories(self):
        def run():
            p = {"w": Tensor([1.0, 2.0], requires_grad=True)}
            state = AdamState.init(p)
            cfg = quiet_cfg(learning_rate=0.01, weight_decay=1e-4)
            traj = []
            for t in range(10):
                g = np.array([np.sin(t + 1.0), np.cos(t + 1.0)])
                adam_step(p, {"w": g}, state, cfg)
                traj.append(p["w"].data.copy())
            return np.array(traj)
        assert (run() == run()).all()


def _bytes(params):
    return {k: p.data.tobytes() for k, p in params.items()}


class TestPackedAdam:
    """``adam_step`` over the packed buffer against the per-name oracle."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(20, 30),
           learning_rate=st.sampled_from([5e-5, 3e-3, 0.1]),
           weight_decay=st.sampled_from([0.0, 1e-5, 0.25]),
           missing=st.sampled_from([0.0, 0.3]))
    def test_matches_per_name_update_bit_for_bit(self, seed, steps, learning_rate,
                                                 weight_decay, missing):
        # the model's own 1-D, 2-D and 3-D parameter shapes
        shapes = {k: p.shape for k, p in tiny_model().parameters().items()}
        assert {len(s) for s in shapes.values()} == {1, 2, 3}
        rng = np.random.default_rng(seed)
        init = {k: rng.standard_normal(s) for k, s in shapes.items()}
        packed = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        oracle = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        state, ref_state = AdamState.init(packed), RefAdamState.init(oracle)
        cfg = quiet_cfg(learning_rate=learning_rate, weight_decay=weight_decay)
        for _ in range(steps):
            scale = 10.0 ** rng.integers(-8, 4)
            # a leaf left out of a step gets a zero gradient
            grads = {k: scale * rng.standard_normal(s) for k, s in shapes.items()
                     if rng.random() >= missing}
            adam_step(packed, grads, state, cfg)
            ref_adam_step(oracle, grads, ref_state, cfg)
            assert _bytes(packed) == _bytes(oracle)
        assert state.t == ref_state.t == steps
        for flat, per_name in ((state.m, ref_state.m), (state.v, ref_state.v)):
            assert flat.tobytes() == np.concatenate(
                [per_name[k].reshape(-1) for k in shapes]).tobytes()

    def test_leaves_are_views_of_one_buffer(self):
        p = tiny_model().parameters()
        state = AdamState.init(p)
        assert state.theta.size == sum(t.size for t in p.values())
        assert all(t.data.base is state.theta for t in p.values())

    def test_leaf_rebound_between_steps_is_packed_again(self):
        def leaves():
            return {"w": Tensor([1.0, -2.0], requires_grad=True),
                    "b": Tensor([0.5], requires_grad=True)}
        packed, oracle = leaves(), leaves()
        state, ref_state = AdamState.init(packed), RefAdamState.init(oracle)
        cfg = quiet_cfg(learning_rate=0.1, weight_decay=0.01)
        grads = {"w": np.array([0.3, -0.7]), "b": np.array([1.5])}
        for step in range(4):
            if step == 2:
                packed["w"].data = np.array([4.0, 5.0])
                oracle["w"].data = np.array([4.0, 5.0])
            adam_step(packed, grads, state, cfg)
            ref_adam_step(oracle, grads, ref_state, cfg)
            assert _bytes(packed) == _bytes(oracle)
        assert packed["w"].data.base is state.theta


class TestKfold:
    def test_singleton_test_sets(self):
        splits = kfold_split(list(range(5)), folds=5, seed=0)
        assert all(len(test) == 1 for _, _, test in splits)
        assert all(len(val) == 1 for _, val, _ in splits)
        assert all(len(tr) == 3 for tr, _, _ in splits)

    def test_test_folds_partition_the_ids(self):
        ids = [f"g{i}" for i in range(23)]
        splits = kfold_split(ids, folds=5, seed=1)
        seen = [x for _, _, test in splits for x in test]
        assert sorted(seen) == sorted(ids)

    def test_within_fold_disjoint_and_covering(self):
        ids = list(range(17))
        for tr, val, test in kfold_split(ids, folds=5, seed=2):
            assert not (set(tr) & set(val))
            assert not (set(tr) & set(test))
            assert not (set(val) & set(test))
            assert sorted(tr + val + test) == ids

    def test_deterministic(self):
        assert kfold_split(list(range(12)), 4, seed=3) == kfold_split(list(range(12)), 4, seed=3)

    def test_too_few_items(self):
        with pytest.raises(ConfigError):
            kfold_split([1, 2], folds=3)

    def test_fold_split_is_the_folds_entry(self):
        cfg = quiet_cfg(folds=4, seed=3)
        assert [fold_split(13, k, cfg) for k in range(4)] == kfold_split(list(range(13)), 4, 3)


def tiny_dataset(n=12, seed=0, shift=3.0):
    """Small linearly separable set: label-1 graphs get a feature shift."""
    spec = SyntheticSpec(n_nodes=(6, 9), feature_dim=6, rule="type_count",
                         count_type="dead", count_min=1,
                         label_feature_shift=shift,
                         build=BuildConfig(k=2),
                         type_probs={"no-label": 0.1, "neoplastic": 0.3,
                                     "inflammatory": 0.3, "connective": 0.2,
                                     "dead": 0.1, "non-neoplastic-epithelial": 0.0})
    return synth_generate(spec, n, seed).graphs


def tiny_model(feature_dim=6, seed=0, dropout=0.0, **kw):
    cfg = ModelConfig(feature_dim=feature_dim, hidden_dim=4, heads=2, n_layers=2,
                      dropout=dropout, **kw)
    return Model.init(cfg, rng_for(seed, "init"))


class TestTrain:
    def test_zero_lr_leaves_parameters_and_loss_flat(self):
        graphs = tiny_dataset()
        model = tiny_model()
        before = model.state_arrays()
        result = train(graphs[:8], graphs[8:], model, quiet_cfg(learning_rate=0.0, max_epochs=3))
        after = model.state_arrays()
        assert all((before[k] == after[k]).all() for k in before)
        losses = [row.train_loss for row in result.log]
        assert max(losses) - min(losses) < 1e-12

    def test_loss_decreases_on_separable_set(self):
        graphs = tiny_dataset(n=20, seed=1)
        model = tiny_model(seed=1)
        cfg = quiet_cfg(learning_rate=3e-3, max_epochs=5, batch_size=20, patience=5)
        result = train(graphs, graphs, model, cfg)
        losses = [row.train_loss for row in result.log]
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_patience_zero_stops_at_first_non_improvement(self):
        graphs = tiny_dataset(n=10, seed=2, shift=0.0)
        model = tiny_model(seed=2)
        cfg = quiet_cfg(learning_rate=0.0, max_epochs=30, patience=0)
        result = train(graphs[:6], graphs[6:], model, cfg)
        # epoch 1 sets the best; epoch 2 cannot improve (lr 0) -> stop
        assert len(result.log) == 2
        assert result.stopped_early

    def test_best_checkpoint_restored(self):
        graphs = tiny_dataset(n=14, seed=3)
        model = tiny_model(seed=3)
        cfg = quiet_cfg(learning_rate=5e-3, max_epochs=8, patience=8)
        result = train(graphs[:10], graphs[10:], model, cfg)
        val_losses = [row.val_loss for row in result.log]
        assert result.best_val_loss == pytest.approx(min(val_losses))
        assert result.best_epoch == int(np.argmin(val_losses)) + 1

    def test_bit_reproducible_with_same_seed(self):
        def run():
            graphs = tiny_dataset(n=12, seed=4)
            model = tiny_model(seed=4)
            cfg = quiet_cfg(learning_rate=2e-3, max_epochs=4,
                            augmentation=AugmentConfig(0.2, 0.1, 0.05, 0.05))
            result = train(graphs[:8], graphs[8:], model, cfg)
            return model.state_arrays(), [r.val_loss for r in result.log]
        (s1, l1), (s2, l2) = run(), run()
        assert l1 == l2
        assert all((s1[k] == s2[k]).all() for k in s1)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_dropout_generators_only_when_masks_are_drawn(self, monkeypatch, dropout):
        streams = []

        def recording(seed, name, *indices):
            streams.append(name)
            return rng_for(seed, name, *indices)

        monkeypatch.setattr(sys.modules["heatnet.train"], "rng_for", recording)
        graphs = tiny_dataset(n=10, seed=5)
        train(graphs[:6], graphs[6:], tiny_model(seed=5, dropout=dropout), quiet_cfg(max_epochs=2))
        assert "shuffle" in streams
        assert ("dropout" in streams) == (dropout > 0)

    def test_divergence_aborts_with_last_good_checkpoint(self):
        graphs = tiny_dataset(n=10, seed=8)
        model = tiny_model(seed=8)
        good = train(graphs[:6], graphs[6:], model, quiet_cfg(max_epochs=1, learning_rate=1e-3))
        snapshot = model.state_arrays()
        # an absurd learning rate blows the parameters up to overflow
        with np.errstate(over="ignore", invalid="ignore"):
            result = train(graphs[:6], graphs[6:], model,
                           quiet_cfg(learning_rate=1e150, max_epochs=10))
        assert result.aborted
        restored = model.state_arrays()
        assert all(np.isfinite(restored[k]).all() for k in restored)
        del good, snapshot

    def test_untrained_model_scores_near_chance(self):
        # Null-model sanity oracle: a freshly initialized type-blind model on
        # a balanced set with label-independent features must sit near 0.5.
        # (The typed model is excluded here: its per-type pooling rows leak
        # type-composition information even before training.)
        from heatnet.model import baseline_config
        spec = SyntheticSpec(n_nodes=(8, 12), feature_dim=6, rule="interaction", theta=0.8)
        graphs = synth_generate(spec, 100, seed=9).graphs
        cfg = baseline_config(ModelConfig(feature_dim=6, hidden_dim=4, heads=2,
                                          n_layers=2, dropout=0.0))
        out = evaluate(graphs, Model.init(cfg, rng_for(9, "init")))
        assert 0.35 <= out["auc"] <= 0.65


def _with_oracle_adam(monkeypatch, run):
    """``run()`` with ``train`` on the per-name Adam update of the oracle."""
    with monkeypatch.context() as m:
        m.setattr(train_module, "AdamState", RefAdamState)
        m.setattr(train_module, "adam_step", ref_adam_step)
        return run()


def _state_bytes(model):
    return {k: (a.shape, a.tobytes()) for k, a in model.state_arrays().items()}


def _log(result):
    return [(r.epoch, r.train_loss.hex(), r.val_loss.hex(), repr(r.val_auc)) for r in result.log]


class TestPackedTraining:
    """``train`` on the packed buffer leaves the bytes of the per-name update."""

    CFG = quiet_cfg(learning_rate=5e-3, weight_decay=1e-3, max_epochs=3,
                    augmentation=AugmentConfig(0.2, 0.1, 0.05, 0.05))

    def test_leaf_rebound_before_the_call_is_trained(self, monkeypatch):
        graphs = tiny_dataset(n=10, seed=6)

        def run(rebind=True):
            model = tiny_model(seed=6)
            if rebind:
                model.pool.classifier_w.data = np.full_like(model.pool.classifier_w.data, 0.25)
            result = train(graphs[:7], graphs[7:], model, self.CFG)
            return _state_bytes(model), _log(result)

        packed = run()
        assert packed == _with_oracle_adam(monkeypatch, run)
        assert packed[1] != run(rebind=False)[1]

    def test_two_calls_on_one_model(self, monkeypatch):
        graphs = tiny_dataset(n=10, seed=7)

        def run():
            model = tiny_model(seed=7)
            first = train(graphs[:7], graphs[7:], model, self.CFG)
            after_first = _state_bytes(model)
            second = train(graphs[3:], graphs[:3], model, quiet_cfg(learning_rate=1e-2, seed=1))
            return after_first, _state_bytes(model), _log(first), _log(second)

        packed = run()
        assert packed[0] != packed[1]
        assert packed == _with_oracle_adam(monkeypatch, run)

    def test_c09_recipe_artifacts_unchanged(self, tmp_path, monkeypatch):
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

        def run(name):
            out = tmp_path / name
            assert main(["train", "--data", str(data), "--out", str(out), "--seed", "11",
                         "--deterministic", *synth_args, *fast]) == EXIT_OK
            return [(out / f).read_bytes() for f in ("checkpoint.json", "train_log.csv")]

        packed = run("packed")
        assert packed == _with_oracle_adam(monkeypatch, lambda: run("oracle"))
        assert json.loads(packed[0])["version"] == CHECKPOINT_VERSION == 3


class TestRunCV:
    def test_train_fold_is_the_cv_folds_model(self):
        graphs = tiny_dataset(n=10, seed=13)
        # feature_dim left unset: train_fold and run_cv take it from the data
        model_cfg = ModelConfig(hidden_dim=4, heads=2, n_layers=2, dropout=0.0)
        cfg = quiet_cfg(max_epochs=2, seed=3)
        result, test = train_fold(graphs, 2, model_cfg, cfg)
        assert result.model.config.feature_dim == 6
        assert test == [graphs[i] for i in fold_split(len(graphs), 2, cfg)[2]]
        fold = run_cv(graphs, model_cfg, cfg)["per_fold"][2]
        metrics = evaluate(test, result.model)
        keys = ("auc", "accuracy", "macro_f1", "loss")
        np.testing.assert_equal({k: metrics[k] for k in keys}, {k: fold[k] for k in keys})
        assert result.best_epoch == fold["best_epoch"]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError, match="cannot split 0 items into 5 folds"):
            run_cv([], ModelConfig(hidden_dim=4), quiet_cfg(max_epochs=1))

    def test_parallel_folds_match_sequential(self):
        graphs = tiny_dataset(n=20, seed=10)
        model_cfg = ModelConfig(feature_dim=6, hidden_dim=4, heads=2, n_layers=2, dropout=0.0)
        cfg = quiet_cfg(learning_rate=3e-3, max_epochs=2, folds=5)
        seq = run_cv(graphs, model_cfg, cfg, deterministic=True, jobs=1)
        par = run_cv(graphs, model_cfg, cfg, deterministic=False, jobs=2)
        np.testing.assert_equal(par, seq)  # NaN-tolerant deep equality

    def test_jobs_below_one_rejected(self):
        model_cfg = ModelConfig(feature_dim=6, hidden_dim=4, heads=2, n_layers=2, dropout=0.0)
        with pytest.raises(ConfigError, match="jobs"):
            run_cv(tiny_dataset(n=10, seed=10), model_cfg, quiet_cfg(max_epochs=1), jobs=0)

    def test_report_shape(self):
        graphs = tiny_dataset(n=10, seed=11)
        model_cfg = ModelConfig(feature_dim=6, hidden_dim=4, heads=2, n_layers=2, dropout=0.0)
        report = run_cv(graphs, model_cfg, quiet_cfg(max_epochs=1, folds=5))
        assert {"auc", "accuracy", "macro_f1", "per_fold"} <= set(report)
        assert [f["fold"] for f in report["per_fold"]] == list(range(5))

    def test_single_class_fold_is_left_out_of_auc(self):
        from dataclasses import replace

        graphs = tiny_dataset(n=12, seed=12)
        cfg = quiet_cfg(max_epochs=1, folds=3)
        # fold 0 tests on label-0 graphs only; the other test folds hold both classes
        test_sets = [test for _, _, test in kfold_split(list(range(12)), 3, cfg.seed)]
        labels = {i: 0 for i in test_sets[0]}
        for test in test_sets[1:]:
            labels.update({i: j % 2 for j, i in enumerate(test)})
        graphs = [replace(g, label=labels[i]) for i, g in enumerate(graphs)]
        model_cfg = ModelConfig(feature_dim=6, hidden_dim=4, heads=2, n_layers=2, dropout=0.0)
        report = run_cv(graphs, model_cfg, cfg)
        fold_aucs = [f["auc"] for f in report["per_fold"]]
        assert np.isnan(fold_aucs[0]) and not np.isnan(fold_aucs[1:]).any()
        assert report["auc_folds"] == 2
        assert report["auc"] == np.mean(fold_aucs[1:])


class TestCheckpoint:
    def test_round_trip_bit_identical_logits(self, tmp_path):
        graphs = tiny_dataset(n=8, seed=5)
        model = tiny_model(seed=5)
        result = train(graphs[:6], graphs[6:], model, quiet_cfg(max_epochs=2))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, result.model, provenance={"seed": 5}, epoch=result.best_epoch,
                        val_loss=result.best_val_loss)
        loaded, doc = load_checkpoint(path)
        assert doc["provenance"] == {"seed": 5}
        held_out = tiny_dataset(n=4, seed=6)[0]
        a = result.model.forward([held_out]).data
        b = loaded.forward([held_out]).data
        assert (a == b).all()


class TestTrainLog:
    def test_header_is_the_epoch_log_fields_and_rows_parse_back(self, tmp_path):
        log = [EpochLog(1, 0.1 + 0.2, 1e-300, 0.5, 5e-324, -0.0),
               EpochLog(12, 2.0 / 3.0, 1.7976931348623157e308, 1.0, 3e-3, 12.5)]
        path = tmp_path / "train_log.csv"
        write_train_log(path, log, provenance={"seed": 1})
        lines = path.read_text().splitlines()
        assert lines[0] == '# provenance: {"seed":1}'
        fields = dataclasses.fields(EpochLog)
        assert lines[1].split(",") == [f.name for f in fields]
        parse = {"int": int, "float": float}
        rows = [EpochLog(*(parse[f.type](v) for f, v in zip(fields, line.split(","))))
                for line in lines[2:]]
        assert [repr(r) for r in rows] == [repr(r) for r in log]


class TestEvaluate:
    def test_reports_all_metrics(self):
        graphs = tiny_dataset(n=10, seed=7)
        model = tiny_model(seed=7)
        out = evaluate(graphs, model)
        assert set(out) == {"loss", "accuracy", "macro_f1", "n", "auc"}
        assert out["n"] == 10
        assert 0.0 <= out["accuracy"] <= 1.0

    def test_chunk_budget_changes_calls_not_metrics(self, monkeypatch):
        train_module = sys.modules["heatnet.train"]   # the package exports train()
        graphs = tiny_dataset(n=10, seed=7)
        model = tiny_model(seed=7)
        calls = []
        predict = Model.predict_proba

        def counting_predict(self, chunk):
            calls.append(len(chunk))
            return predict(self, chunk)

        monkeypatch.setattr(Model, "predict_proba", counting_predict)
        whole = evaluate(graphs, model)
        monkeypatch.setattr(train_module, "_EVAL_CHUNK_BYTES", 1)
        alone = evaluate(graphs, model)
        assert calls == [10] + [1] * 10
        assert alone == whole


class TestSynthGenerate:
    def test_theta_zero_cannot_balance(self):
        # dense graphs with guaranteed neoplastic-inflammatory contact make
        # every label 1 at theta=0, so the negative quota can never fill
        spec = SyntheticSpec(
            n_nodes=(12, 14), rule="interaction", theta=0.0, feature_dim=4,
            build=BuildConfig(k=6), max_tries_factor=5,
            type_probs={"no-label": 0.0, "neoplastic": 0.5, "inflammatory": 0.5,
                        "connective": 0.0, "dead": 0.0,
                        "non-neoplastic-epithelial": 0.0})
        with pytest.raises(GenerationError):
            synth_generate(spec, 10, seed=0)

    def test_labels_match_rule_recomputation_at_zero_noise(self):
        spec = SyntheticSpec(n_nodes=(8, 12), feature_dim=6, rule="interaction", theta=0.5)
        ds = synth_generate(spec, 20, seed=1)
        for rec in ds.records:
            label, critical = planted_label(rec.graph, spec)
            assert label == rec.label == rec.graph.label
            assert critical == rec.critical

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(n_nodes=(6, 9), feature_dim=4)
        a = synth_generate(spec, 10, seed=2)
        b = synth_generate(spec, 10, seed=2)
        assert all(ra.graph == rb.graph for ra, rb in zip(a.records, b.records))

    def test_exact_class_balance(self):
        ds = synth_generate(SyntheticSpec(), 30, seed=3)
        assert sum(ds.labels) == 15

    def test_type_count_rule_critical_sets(self):
        spec = SyntheticSpec(rule="type_count", count_type="dead", count_min=1,
                             type_probs={"no-label": 0.1, "neoplastic": 0.4,
                                         "inflammatory": 0.3, "connective": 0.1,
                                         "dead": 0.1, "non-neoplastic-epithelial": 0.0})
        ds = synth_generate(spec, 10, seed=4)
        dead_idx = DEFAULT_TYPES.index("dead")
        for rec in ds.records:
            dead_nodes = {nid for nid, t in zip(rec.graph.node_ids, rec.graph.node_types)
                          if t == dead_idx}
            if rec.label == 1:
                assert set(rec.critical) == dead_nodes and dead_nodes
            else:
                assert rec.critical == () and not dead_nodes

    def test_feature_shift_preserves_rule_consistency(self):
        spec = SyntheticSpec(n_nodes=(6, 9), feature_dim=6, rule="interaction",
                             theta=0.5, label_feature_shift=2.5)
        ds = synth_generate(spec, 10, seed=5)
        for rec in ds.records:
            label, _ = planted_label(rec.graph, spec)
            assert label == rec.label
