"""Command-line interface: artifacts, exit codes, determinism."""

import json

import numpy as np
import pytest

from heatnet.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from heatnet.hetgraph import TypeSet, load_graph, save_graph, validate
from heatnet.model import Model, ModelConfig
from heatnet.testing import random_labeled_graph
from heatnet.train import checkpoint_dict


PATCHES = (
    '{"id": "a", "x": 0, "y": 0, "feat": [1.0, 0.0, 0.2], "type_counts": {"neoplastic": 3}}\n'
    '{"id": "b", "x": 1, "y": 0, "feat": [0.9, 0.1, 0.2], "type_counts": {"inflammatory": 2}}\n'
    '{"id": "c", "x": 0, "y": 1, "feat": [0.0, 1.0, 0.1], "type": "connective"}\n'
)

SMALL_SYNTH = [
    "--set", 'synth.n_nodes=[6,8]',
    "--set", "synth.feature_dim=4",
    "--set", "synth.rule=type_count",
    "--set", "synth.label_feature_shift=2.0",
    "--set", 'synth.type_probs={"no-label":0.1,"neoplastic":0.3,"inflammatory":0.3,'
             '"connective":0.2,"dead":0.1,"non-neoplastic-epithelial":0.0}',
]

FAST_TRAIN = [
    "--set", "train.learning_rate=0.003",
    "--set", "train.max_epochs=3",
    "--set", "train.patience=3",
    "--set", "train.augmentation.edge_drop_prob=0",
    "--set", "train.augmentation.node_drop_prob=0",
    "--set", "train.augmentation.feature_noise_sigma=0",
    "--set", "train.augmentation.edge_noise_sigma=0",
    "--set", "model.hidden_dim=4",
]


def make_dataset(tmp_path, n=12, seed=0):
    out = tmp_path / "data"
    rc = main(["synth", "--out", str(out), "--n", str(n), "--seed", str(seed),
               "--deterministic", *SMALL_SYNTH])
    assert rc == EXIT_OK
    return out


class TestBuildGraph:
    def test_valid_patch_table(self, tmp_path, capsys):
        patches = tmp_path / "patches.jsonl"
        patches.write_text(PATCHES)
        out = tmp_path / "graph.json"
        rc = main(["build-graph", "--patches", str(patches), "--out", str(out),
                   "--set", "build.k=1"])
        assert rc == EXIT_OK
        g = load_graph(out)
        assert validate(g) is None
        assert g.n_nodes == 3
        captured = capsys.readouterr().out
        assert "nodes=3" in captured

    def test_malformed_line_cites_line_and_exits_2(self, tmp_path, capsys):
        patches = tmp_path / "patches.jsonl"
        patches.write_text('{"id": "a", "x": 0, "y": 0, "feat": [1.0]}\n{"id": "b"\n')
        rc = main(["build-graph", "--patches", str(patches), "--out", str(tmp_path / "g.json")])
        assert rc == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, text", [
        ("patches.jsonl", PATCHES.replace('"feat": [0.9, 0.1, 0.2]', '"feat": [0.9, 0.1]')),
        ("patches.jsonl", PATCHES.replace('"feat": [0.9, 0.1, 0.2]', '"feat": [NaN, 0.1, 0.2]')),
        ("patches.csv", "id,x,y,type,feat_0,feat_1\na,0,0,dead,1.0,2.0\nb,1,0,dead,inf,1.0\n"),
    ], ids=["mixed-feature-dim", "jsonl-nan", "csv-inf"])
    def test_bad_features_exit_2_with_one_line(self, tmp_path, capsys, name, text):
        patches = tmp_path / name
        patches.write_text(text)
        rc = main(["build-graph", "--patches", str(patches), "--out", str(tmp_path / "g.json"),
                   "--set", "build.k=1"])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("heatnet: error: input: patch b:")

    def test_rerun_same_seed_identical_bytes(self, tmp_path):
        patches = tmp_path / "patches.jsonl"
        patches.write_text(PATCHES)
        out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
        argv = ["--patches", str(patches), "--seed", "7", "--set", "build.k=1",
                "--deterministic"]
        assert main(["build-graph", *argv, "--out", str(out1)]) == EXIT_OK
        assert main(["build-graph", *argv, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_provenance_embedded(self, tmp_path):
        patches = tmp_path / "patches.jsonl"
        patches.write_text(PATCHES)
        out = tmp_path / "graph.json"
        main(["build-graph", "--patches", str(patches), "--out", str(out), "--seed", "9",
              "--set", "build.k=1"])
        doc = json.loads(out.read_text())
        assert doc["provenance"]["seed"] == 9
        assert doc["provenance"]["config"]["build"]["k"] == 1


class TestUsageErrors:
    def test_unknown_flag_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["build-graph", "--frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_command_exits_64(self):
        assert main([]) == EXIT_USAGE

    def test_missing_required_arg_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["build-graph"])
        assert exc.value.code == EXIT_USAGE


class TestSynth:
    def test_dataset_directory_layout(self, tmp_path):
        out = make_dataset(tmp_path, n=6)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n"] == 6
        assert len(manifest["files"]) == 6
        assert sorted(manifest["labels"]) == [0, 0, 0, 1, 1, 1]
        for name in manifest["files"]:
            assert validate(load_graph(out / name)) is None
        assert manifest["provenance"]["config"]["synth"]["rule"] == "type_count"

    def test_deterministic_bytes(self, tmp_path):
        a = make_dataset(tmp_path / "a", n=4, seed=3)
        b = make_dataset(tmp_path / "b", n=4, seed=3)
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        for name in json.loads((a / "manifest.json").read_text())["files"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestTrainEvalExplain:
    def test_full_workflow(self, tmp_path, capsys):
        data = make_dataset(tmp_path, n=12)
        run = tmp_path / "run"
        rc = main(["train", "--data", str(data), "--out", str(run), "--seed", "0",
                   "--deterministic", *SMALL_SYNTH, *FAST_TRAIN])
        assert rc == EXIT_OK
        ckpt = run / "checkpoint.json"
        log = run / "train_log.csv"
        assert ckpt.exists() and log.exists()
        lines = log.read_text().splitlines()
        assert lines[0].startswith("# provenance:")
        assert lines[1] == "epoch,train_loss,val_loss,val_auc,lr,seconds"
        assert len(lines) >= 3

        metrics_path = tmp_path / "metrics.json"
        rc = main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                   "--fold", "0", "--out", str(metrics_path), "--seed", "0",
                   "--deterministic", *SMALL_SYNTH, *FAST_TRAIN])
        assert rc == EXIT_OK
        report = json.loads(metrics_path.read_text())
        assert {"auc", "accuracy", "macro_f1", "per_fold", "provenance"} <= set(report)

        graph_file = data / json.loads((data / "manifest.json").read_text())["files"][0]
        heat_dir = tmp_path / "heat"
        rc = main(["explain", "--graph", str(graph_file), "--checkpoint", str(ckpt),
                   "--out", str(heat_dir), "--deterministic"])
        assert rc == EXIT_OK
        assert (heat_dir / "heatmap.csv").exists()
        summary = json.loads((heat_dir / "heatmap.json").read_text())
        assert "top_k" in summary and "provenance" in summary

    def test_deterministic_train_eval_byte_identical(self, tmp_path):
        data = make_dataset(tmp_path, n=10, seed=1)
        outs = []
        for name in ("r1", "r2"):
            run = tmp_path / name
            rc = main(["train", "--data", str(data), "--out", str(run), "--seed", "5",
                       "--deterministic", *SMALL_SYNTH, *FAST_TRAIN])
            assert rc == EXIT_OK
            metrics = tmp_path / f"{name}-metrics.json"
            rc = main(["eval", "--data", str(data), "--checkpoint",
                       str(run / "checkpoint.json"), "--out", str(metrics), "--seed", "5",
                       "--deterministic", *SMALL_SYNTH, *FAST_TRAIN])
            assert rc == EXIT_OK
            outs.append((run, metrics))
        (r1, m1), (r2, m2) = outs
        assert (r1 / "checkpoint.json").read_bytes() == (r2 / "checkpoint.json").read_bytes()
        assert (r1 / "train_log.csv").read_bytes() == (r2 / "train_log.csv").read_bytes()
        assert m1.read_bytes() == m2.read_bytes()

    def test_eval_cv_runs_all_folds(self, tmp_path):
        data = make_dataset(tmp_path, n=15, seed=6)
        metrics_path = tmp_path / "cv.json"
        rc = main(["eval", "--data", str(data), "--cv", "--out", str(metrics_path),
                   "--seed", "0", "--deterministic", *SMALL_SYNTH, *FAST_TRAIN])
        assert rc == EXIT_OK
        report = json.loads(metrics_path.read_text())
        assert [f["fold"] for f in report["per_fold"]] == [0, 1, 2, 3, 4]

    def test_eval_without_checkpoint_or_cv_exits_2(self, tmp_path):
        data = make_dataset(tmp_path, n=8, seed=2)
        rc = main(["eval", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_INPUT

    def test_missing_dataset_exits_2(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT


def _drop_config_key(doc):
    del doc["model_config"]["heads"]


def _add_config_key(doc):
    doc["model_config"]["temperature"] = 1.0


def _drop_param_data(doc):
    del next(iter(doc["params"].values()))["data"]


def _misfit_param_data(doc):
    next(iter(doc["params"].values()))["data"].append(0.0)


def _set_node_field(key, value):
    def corrupt(doc):
        doc["nodes"][1].update({"x": 0, "y": 0, key: value})
    return corrupt


def _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_graph=None, corrupt_ckpt=None):
    types = TypeSet(("a", "b"))
    g = random_labeled_graph(np.random.default_rng(0), types, n_nodes=4, feature_dim=3)
    save_graph(g, tmp_path / "g.json")
    if corrupt_graph is not None:
        doc = json.loads((tmp_path / "g.json").read_text())
        corrupt_graph(doc)
        (tmp_path / "g.json").write_text(json.dumps(doc))
    model = Model.init(ModelConfig(feature_dim=3, types=types.names, hidden_dim=4), 0)
    doc = checkpoint_dict(model, None, 0, 0.0)
    if corrupt_ckpt is not None:
        doc = corrupt_ckpt(doc) or doc
    (tmp_path / "ckpt.json").write_text(json.dumps(doc))
    rc = main(["explain", "--graph", str(tmp_path / "g.json"),
               "--checkpoint", str(tmp_path / "ckpt.json"), "--out", str(tmp_path / "x")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("heatnet: error: input:")


class TestMalformedInputFiles:
    """Bad graph, checkpoint and manifest documents exit 2 with one line, no traceback."""

    @pytest.mark.parametrize("corrupt", [
        _set_node_field("x", "a"),
        lambda doc: doc.update(label="z"),
        lambda doc: doc.update(label=[1]),
        lambda doc: doc.update(nodes=5),
        lambda doc: doc.update(edges=None),
        lambda doc: doc["nodes"][1].update(id=doc["nodes"][1]["id"] + 0.5),
        _set_node_field("y", 0.5),
        lambda doc: doc["edges"][0].update(dst=1.5),
        lambda doc: doc.update(label=1.5),
        lambda doc: doc["nodes"][1].update(id=2**63),
    ], ids=["x-not-number", "label-string", "label-list", "nodes-not-list", "edges-null",
            "id-fraction", "y-fraction", "dst-fraction", "label-fraction", "id-beyond-int64"])
    def test_bad_graph_exits_2(self, tmp_path, capsys, corrupt):
        _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_graph=corrupt)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: [1],
        lambda doc: {"version": 1},
        _drop_config_key,
        _add_config_key,
        _drop_param_data,
        _misfit_param_data,
    ], ids=["not-object", "no-model-config", "missing-key", "unknown-key",
            "param-without-data", "data-misfits-shape"])
    def test_bad_checkpoint_exits_2(self, tmp_path, capsys, corrupt):
        _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_ckpt=corrupt)

    @pytest.mark.parametrize("manifest", [{"version": 1}, {"files": ["a.json", 3]}, [1]])
    def test_bad_manifest_exits_2(self, tmp_path, capsys, manifest):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["eval", "--data", str(data), "--cv", "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "files" in err[0]


class TestGradcheck:
    def test_default_model_passes(self, capsys):
        rc = main(["gradcheck", "--nodes", "6", "--dim", "4", "--seed", "0"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_default_recipe_visible_in_provenance(self, tmp_path):
        data = make_dataset(tmp_path, n=8, seed=4)
        run = tmp_path / "run"
        rc = main(["train", "--data", str(data), "--out", str(run), "--deterministic",
                   "--set", "train.max_epochs=1", "--set", "train.patience=1",
                   "--set", "model.hidden_dim=4"])
        assert rc == EXIT_OK
        prov = json.loads((run / "checkpoint.json").read_text())["provenance"]
        tr = prov["config"]["train"]
        assert tr["learning_rate"] == 5e-5
        assert tr["weight_decay"] == 1e-5
        assert tr["dropout"] == 0.2
        assert tr["batch_size"] == 2
        assert tr["folds"] == 5
