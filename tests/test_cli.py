"""Command-line interface: artifacts, exit codes, determinism."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from _reference import float_column, set_float_column
from heatnet.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from heatnet.config import RunConfig, load_run_config, provenance_block
from heatnet.hetgraph import DEFAULT_TYPES, TypeSet, load_graph, save_graph, validate
from heatnet.model import Model, ModelConfig, baseline_config
from heatnet.schema import build_dataclass
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

    def test_prints_present_types_in_type_set_order(self, tmp_path, capsys):
        names = ["dead", "connective", "neoplastic", "dead", "connective", "dead"]
        patches = tmp_path / "patches.jsonl"
        patches.write_text("".join(
            json.dumps({"id": f"p{i}", "x": i, "y": 0, "feat": [1.0, i / 10], "type": name}) + "\n"
            for i, name in enumerate(names)))
        out = tmp_path / "graph.json"
        assert main(["build-graph", "--patches", str(patches), "--out", str(out),
                     "--set", "build.k=2"]) == EXIT_OK
        g = load_graph(out)
        assert capsys.readouterr().out.splitlines() == [
            f"nodes=6 edges={g.n_edges}", "type neoplastic: 1", "type connective: 2",
            "type dead: 3", f"wrote {out}"]

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

    @pytest.mark.parametrize("name, text", [
        ("patches.jsonl", PATCHES.replace('"x": 1,', '"x": 0.5,')),
        ("patches.jsonl", PATCHES.replace('"x": 1,', '"x": Infinity,')),
        ("patches.jsonl", PATCHES.replace('"x": 1,', '"x": 1e30,')),
        ("patches.jsonl", PATCHES.replace('"x": 1, "y": 0', '"x": 1, "y": "0"')),
        ("patches.csv", "id,x,y,type,feat_0,feat_1\nb,99999999999999999999,0,dead,2.0,1.0\n"),
        ("patches.jsonl", PATCHES.replace('"x": 1,', '"x": true,')),
    ], ids=["jsonl-x-fraction", "jsonl-x-infinity", "jsonl-x-beyond-int64", "jsonl-y-string",
            "csv-x-beyond-int64", "jsonl-x-boolean"])
    def test_bad_coordinates_exit_2_with_one_line(self, tmp_path, capsys, name, text):
        patches = tmp_path / name
        patches.write_text(text)
        rc = main(["build-graph", "--patches", str(patches), "--out", str(tmp_path / "g.json"),
                   "--set", "build.k=1"])
        assert rc == EXIT_INPUT
        assert "line 2: bad" in _one_input_error_line(capsys)

    @pytest.mark.parametrize("count", ["Infinity", "2.5", "true"],
                             ids=["infinity", "fraction", "boolean"])
    def test_bad_type_count_exits_2_with_one_line(self, tmp_path, capsys, count):
        patches = tmp_path / "patches.jsonl"
        patches.write_text(PATCHES.replace('{"inflammatory": 2}', f'{{"inflammatory": {count}}}'))
        rc = main(["build-graph", "--patches", str(patches), "--out", str(tmp_path / "g.json"),
                   "--set", "build.k=1"])
        assert rc == EXIT_INPUT
        assert "line 2: bad type_counts" in _one_input_error_line(capsys)

    @pytest.mark.parametrize("feat, found", [('"123"', '"123"'), ('[true, "0.5", 2]', "true")],
                             ids=["string", "boolean-and-string-entries"])
    def test_feat_not_a_list_of_numbers_exits_2(self, tmp_path, capsys, feat, found):
        patches = tmp_path / "patches.jsonl"
        patches.write_text(PATCHES.replace('"feat": [0.9, 0.1, 0.2]', f'"feat": {feat}'))
        rc = main(["build-graph", "--patches", str(patches), "--out", str(tmp_path / "g.json"),
                   "--set", "build.k=1"])
        assert rc == EXIT_INPUT
        assert _one_input_error_line(capsys).endswith(
            f"line 2: bad patch record: feat must be a list of numbers, found {found}")

    def test_negative_build_seed_exits_2_with_one_line(self, tmp_path, capsys):
        patches = tmp_path / "patches.jsonl"
        patches.write_text(PATCHES)
        rc = main(["build-graph", "--patches", str(patches), "--out", str(tmp_path / "g.json"),
                   "--set", "build.typing=kmeans", "--set", "build.kmeans_k=2",
                   "--set", "build.k=1", "--set", "build.seed=-1"])
        assert rc == EXIT_INPUT
        assert _one_input_error_line(capsys).endswith("build seed must be nonnegative, got -1")
        assert not (tmp_path / "g.json").exists()

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

    @pytest.mark.parametrize("overrides, message", [
        (["synth.base_scale=-1"], "base_scale must be nonnegative"),
        (["synth.noise_sigma=-0.5"], "noise_sigma must be nonnegative"),
        (["synth.rule=type_count", "synth.count_type=foo"], "unknown count_type 'foo'"),
        (['synth.type_probs={"neoplastic": 1.5, "dead": -0.5}'],
         "type probabilities must be nonnegative"),
        (["synth.max_tries_factor=0"], "max_tries_factor must be >= 1, got 0"),
        (["synth.max_tries_factor=-5"], "max_tries_factor must be >= 1, got -5"),
        # model settings that Model.init would refuse
        (["model.aggregation=max"], "unknown aggregation 'max'"),
        (["model.types=[]"], "type set must not be empty"),
        (['model.types=["a","a"]'], "duplicate node type names"),
        (["model.pooling=max"], "unknown pooling 'max'"),
    ], ids=["negative-base-scale", "negative-noise-sigma", "unknown-count-type",
            "negative-probability", "zero-max-tries-factor", "negative-max-tries-factor",
            "aggregation-max", "no-types", "duplicate-types", "pooling-max"])
    def test_bad_setting_exits_2_with_one_line(self, tmp_path, capsys, overrides, message):
        sets = [arg for o in overrides for arg in ("--set", o)]
        rc = main(["synth", "--out", str(tmp_path / "d"), "--n", "4", *sets])
        assert rc == EXIT_INPUT
        assert message in _one_input_error_line(capsys)
        assert not (tmp_path / "d").exists()


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

    def test_eval_cv_parallel_deterministic_report_equals_sequential(self, tmp_path):
        data = make_dataset(tmp_path, n=15, seed=6)
        reports = []
        for jobs in ("1", "2"):
            path = tmp_path / f"cv{jobs}.json"
            rc = main(["eval", "--data", str(data), "--cv", "--out", str(path), "--seed", "0",
                       "--deterministic", "--jobs", jobs, *SMALL_SYNTH, *FAST_TRAIN])
            assert rc == EXIT_OK
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2_with_one_line(self, tmp_path, capsys, jobs):
        data = make_dataset(tmp_path, n=8, seed=2)
        capsys.readouterr()
        rc = main(["eval", "--data", str(data), "--cv", "--jobs", jobs,
                   "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_INPUT
        assert "--jobs must be at least 1" in _one_input_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("fold", ["0", "3"])
    def test_train_fold_reproduces_the_cv_fold(self, tmp_path, fold):
        """``train --fold k`` then ``eval --checkpoint --fold k`` gives
        ``eval --cv``'s fold k, also when train.seed differs from --seed."""
        data = make_dataset(tmp_path, n=15, seed=6)
        common = ["--data", str(data), "--seed", "0", "--set", "train.seed=3",
                  "--deterministic", *SMALL_SYNTH, *FAST_TRAIN]
        run = tmp_path / "run"
        assert main(["train", "--fold", fold, "--out", str(run), *common]) == EXIT_OK
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"), "--fold", fold,
                     "--out", str(tmp_path / "one.json"), *common]) == EXIT_OK
        assert main(["eval", "--cv", "--out", str(tmp_path / "cv.json"), *common]) == EXIT_OK
        (one,) = json.loads((tmp_path / "one.json").read_text())["per_fold"]
        cv = json.loads((tmp_path / "cv.json").read_text())["per_fold"][int(fold)]
        keys = ("fold", "loss", "auc", "accuracy", "macro_f1")
        np.testing.assert_equal({k: one[k] for k in keys}, {k: cv[k] for k in keys})

    @pytest.mark.parametrize("change, field", [
        (["--seed", "1"], "train.seed=0, eval runs with train.seed=1"),
        (["--set", "train.seed=2"], "train.seed=0, eval runs with train.seed=2"),
        (["--fold", "1"], "fold=0, eval runs with fold=1"),
        (["--set", "train.folds=4"], "train.folds=5, eval runs with train.folds=4"),
    ], ids=["seed", "train-seed", "fold", "folds"])
    def test_eval_checkpoint_on_another_split_exits_2_with_one_line(self, tmp_path, capsys,
                                                                     change, field):
        """A checkpoint is scored only on the split and fold it was trained
        for; any other split's test graphs include its training graphs."""
        data = make_dataset(tmp_path, n=10, seed=2)
        common = ["--data", str(data), "--deterministic", *SMALL_SYNTH, *FAST_TRAIN]
        run = tmp_path / "run"
        assert main(["train", "--seed", "0", "--out", str(run), *common]) == EXIT_OK
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(run / "checkpoint.json"), "--seed", "0",
                   "--out", str(tmp_path / "m.json"), *common, *change])
        assert rc == EXIT_INPUT
        assert f"checkpoint was trained with {field}" in _one_input_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command, fold", [("train", "5"), ("eval", "-1")])
    def test_fold_out_of_range_exits_2_with_one_line(self, tmp_path, capsys, command, fold):
        data = make_dataset(tmp_path, n=8, seed=2)
        model = Model.init(ModelConfig(feature_dim=4, hidden_dim=4), 0)
        (tmp_path / "ckpt.json").write_text(json.dumps(checkpoint_dict(model, None, 0, 0.0)))
        extra = ["--checkpoint", str(tmp_path / "ckpt.json")] if command == "eval" else []
        capsys.readouterr()
        rc = main([command, "--data", str(data), "--fold", fold, *extra,
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT
        assert f"fold {fold} is out of range [0, 5)" in _one_input_error_line(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["eval", "--cv"], ["train"]], ids=["eval-cv", "train"])
    def test_empty_dataset_exits_2_with_one_line(self, tmp_path, capsys, argv):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text(json.dumps({"files": []}))
        rc = main([*argv, "--data", str(data), "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT
        assert "cannot split 0 items into 5 folds" in _one_input_error_line(capsys)

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
        doc["nodes"][key][1] = value
    return corrupt


def _edit_floats(key, edit):
    """A graph-document edit: decode the ``feat`` or ``attr`` column, apply
    ``edit`` to the (rows, width) array, and encode it again."""
    def corrupt(doc):
        a = float_column(doc, key)
        edit(a)
        set_float_column(doc, key, a)
    return corrupt


def _one_input_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("heatnet: error: input:"), err
    return err[0]


def _run_explain(tmp_path, corrupt_graph=None, corrupt_ckpt=None, argv=()):
    """``heatnet explain`` on a 4-node graph with a fresh checkpoint, after
    the given edits to their JSON documents; returns the exit code."""
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
    return main(["explain", "--graph", str(tmp_path / "g.json"), *argv,
                 "--checkpoint", str(tmp_path / "ckpt.json"), "--out", str(tmp_path / "x")])


def _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_graph=None, corrupt_ckpt=None,
                                   argv=()):
    assert _run_explain(tmp_path, corrupt_graph, corrupt_ckpt, argv) == EXIT_INPUT
    return _one_input_error_line(capsys)


def _version_1_checkpoint(doc):
    """The per-type, per-head parameter layout of checkpoint version 1."""
    types, heads = doc["model_config"]["types"], doc["model_config"]["heads"]
    params = {}
    for name, entry in doc["params"].items():
        arr = np.asarray(entry["data"]).reshape(entry["shape"])
        if name.endswith(".node"):
            for a, type_name in enumerate(types):
                for i, block in enumerate(np.split(arr[a], heads)):
                    params[f"{name}.{type_name}.head{i}"] = block
        elif name == "pool.readout":
            params.update({f"pool.readout.{t}": arr[a] for a, t in enumerate(types)})
        else:
            params[name] = arr
    doc["params"] = {k: {"shape": list(v.shape), "data": v.reshape(-1).tolist()}
                     for k, v in params.items()}
    doc["version"] = 1


def _version_2_graph(doc):
    """The layout of graph format version 2: float columns as JSON lists of rows."""
    doc["nodes"]["feat"] = float_column(doc, "feat").tolist()
    doc["edges"]["attr"] = float_column(doc, "attr").tolist()
    doc["version"] = 2


def _version_1_graph(doc):
    """The per-record layout of graph format version 1."""
    _version_2_graph(doc)
    nodes, edges = doc.pop("nodes"), doc.pop("edges")
    del doc["feature_dim"], doc["edge_dim"]
    doc["nodes"] = [dict(zip(nodes, rec)) for rec in zip(*nodes.values())]
    doc["edges"] = [dict(zip(edges, rec)) for rec in zip(*edges.values())]
    doc["version"] = 1


BAD_UTF8 = b'{"id": "\xff\xfe"}\n'


class TestMalformedInputFiles:
    """Bad graph, checkpoint and manifest documents exit 2 with one line, no traceback."""

    @pytest.mark.parametrize("corrupt, fault", [
        (_set_node_field("x", "a"), "format: nodes.x: invalid literal"),
        (lambda doc: doc.update(label="z"), "format: malformed graph document"),
        (lambda doc: doc.update(label=[1]), "format: malformed graph document"),
        (lambda doc: doc["nodes"].update(id=5), "format: nodes.id must be a JSON list"),
        (lambda doc: doc["edges"].update(src=None), "format: edges.src must be a JSON list"),
        (_set_node_field("id", 1.5), "format: nodes.id: 1.5 is not"),
        (_set_node_field("y", 0.5), "format: nodes.y: 0.5 is not"),
        (lambda doc: doc["edges"]["dst"].__setitem__(0, 1.5), "format: edges.dst: 1.5 is not"),
        (lambda doc: doc.update(label=1.5), "format: malformed graph document"),
        (_set_node_field("id", 2**63), "format: nodes.id: Python int too large"),
        (lambda doc: doc.update(nodes=[1]), "format: graph nodes must be a JSON object"),
        (lambda doc: doc.update(edges=None), "format: graph edges must be a JSON object"),
        (_set_node_field("id", True), "format: nodes.id: true is not"),
        (_set_node_field("x", True), "format: nodes.x: true is not"),
        (_set_node_field("y", False), "format: nodes.y: false is not"),
        (lambda doc: doc["edges"]["src"].__setitem__(0, True), "format: edges.src: true is not"),
        (lambda doc: doc["edges"]["dst"].__setitem__(0, False), "format: edges.dst: false is not"),
        (lambda doc: doc.update(label=True), "format: malformed graph document"),
        (lambda doc: doc["nodes"].update(feat=True),
         "format: nodes.feat must be a base64 string"),
        (lambda doc: doc["nodes"].update(feat="*" + doc["nodes"]["feat"][1:]),
         "format: nodes.feat is not base64: Only base64 data is allowed"),
        (lambda doc: doc["edges"].update(attr=doc["edges"]["attr"][:4] + "=" +
                                         doc["edges"]["attr"][4:]),
         "format: edges.attr is not base64: Discontinuous padding not allowed"),
        (lambda doc: doc.update(types="abc"), "format: types must be a JSON list of strings"),
    ], ids=["x-not-number", "label-string", "label-list", "nodes-not-list", "edges-null",
            "id-fraction", "y-fraction", "dst-fraction", "label-fraction", "id-beyond-int64",
            "nodes-not-object", "edges-not-object", "id-boolean", "x-boolean", "y-boolean",
            "src-boolean", "dst-boolean", "label-boolean", "feat-boolean", "feat-non-alphabet",
            "attr-bad-padding", "types-string"])
    def test_bad_graph_exits_2(self, tmp_path, capsys, corrupt, fault):
        line = _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_graph=corrupt)
        assert fault in line

    def test_version_2_graph_exits_2(self, tmp_path, capsys):
        line = _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_graph=_version_2_graph)
        assert line == ("heatnet: error: input: format: "
                        "unsupported graph format version 2, expected 3")
        doc = json.loads((tmp_path / "g.json").read_text())
        assert len(doc["nodes"]["feat"]) == 4 and len(doc["nodes"]["feat"][0]) == 3

    def test_version_1_graph_exits_2(self, tmp_path, capsys):
        line = _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_graph=_version_1_graph)
        assert "unsupported graph format version 1" in line
        doc = json.loads((tmp_path / "g.json").read_text())
        assert set(doc["nodes"][0]) == {"id", "type", "x", "y", "feat"}

    @pytest.mark.parametrize("corrupt", [
        lambda doc: [1],
        lambda doc: {"version": 1},
        _drop_config_key,
        _add_config_key,
        _drop_param_data,
        _misfit_param_data,
        lambda doc: doc["model_config"].update(n_layers=1.5),
    ], ids=["not-object", "no-model-config", "missing-key", "unknown-key",
            "param-without-data", "data-misfits-shape", "n-layers-fraction"])
    def test_bad_checkpoint_exits_2(self, tmp_path, capsys, corrupt):
        _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_ckpt=corrupt)

    @pytest.mark.parametrize("value", [True, False, "0.5", [0.5]],
                             ids=["true", "false", "string", "list"])
    def test_parameter_data_not_a_number_exits_2(self, tmp_path, capsys, value):
        def corrupt(doc):
            doc["params"]["classifier.bias"]["data"][1] = value

        line = _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_ckpt=corrupt)
        assert ("checkpoint parameter 'classifier.bias' data must be a list of numbers, "
                f"found {json.dumps(value)}") in line

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                             ids=["nan", "infinity", "minus-infinity", "beyond-float64"])
    def test_parameter_data_not_finite_exits_2(self, tmp_path, capsys, value):
        # json writes and reads NaN, Infinity and -Infinity
        def corrupt(doc):
            doc["params"]["classifier.bias"]["data"][1] = value

        line = _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_ckpt=corrupt)
        assert line == ("heatnet: error: input: checkpoint parameter 'classifier.bias' data "
                        f"must be finite, found {json.dumps(value)}")

    def test_version_1_checkpoint_exits_2(self, tmp_path, capsys):
        line = _explain_exits_2_with_one_line(tmp_path, capsys,
                                              corrupt_ckpt=_version_1_checkpoint)
        assert "unsupported checkpoint version 1" in line
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        assert "layer0.node.a.head1" in doc["params"] and "pool.readout.b" in doc["params"]

    def test_version_2_checkpoint_exits_2(self, tmp_path, capsys):
        def version_2(doc):
            # Version 2 carried four more model switches.
            doc["model_config"].update(leaky_slope=0.01, decouple_key_value=False,
                                       trainable_readout=True, final_readout="mean")
            doc["version"] = 2

        line = _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_ckpt=version_2)
        assert line == "heatnet: error: input: unsupported checkpoint version 2"

    @pytest.mark.parametrize("kind,argv", [
        ("directory", "explain --graph {bad} --checkpoint {ckpt}"),
        ("invalid-utf8", "explain --graph {bad} --checkpoint {ckpt}"),
        ("directory", "explain --graph {graph} --checkpoint {bad}"),
        ("invalid-utf8", "explain --graph {graph} --checkpoint {bad}"),
        ("directory", "build-graph --patches {bad}"),
        ("invalid-utf8", "build-graph --patches {bad}"),
        ("invalid-utf8", "build-graph --patches {patches} --config {bad}"),
        ("invalid-utf8", "eval --cv --data {data}"),
    ], ids=["graph-directory", "graph-invalid-utf8", "checkpoint-directory",
            "checkpoint-invalid-utf8", "patches-directory", "patches-invalid-utf8",
            "config-invalid-utf8", "manifest-invalid-utf8"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, kind, argv):
        types = TypeSet(("a", "b"))
        g = random_labeled_graph(np.random.default_rng(0), types, n_nodes=4, feature_dim=3)
        save_graph(g, tmp_path / "g.json")
        model = Model.init(ModelConfig(feature_dim=3, types=types.names, hidden_dim=4), 0)
        (tmp_path / "ckpt.json").write_text(json.dumps(checkpoint_dict(model, None, 0, 0.0)))
        (tmp_path / "patches.jsonl").write_text(PATCHES)
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "manifest.json").write_bytes(BAD_UTF8)
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(BAD_UTF8)
        paths = {"bad": bad, "graph": tmp_path / "g.json", "ckpt": tmp_path / "ckpt.json",
                 "patches": tmp_path / "patches.jsonl", "data": tmp_path / "data"}
        rc = main([tok.format(**paths) for tok in argv.split()] + ["--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT
        _one_input_error_line(capsys)

    @pytest.mark.parametrize("manifest", [{"version": 1}, {"files": ["a.json", 3]}, [1]])
    def test_bad_manifest_exits_2(self, tmp_path, capsys, manifest):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["eval", "--data", str(data), "--cv", "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "files" in err[0]


def _labeled_dataset(tmp_path, label):
    """Five default-typed graphs that all carry ``label``, with a manifest."""
    rng = np.random.default_rng(0)
    data = tmp_path / "data"
    data.mkdir()
    files = []
    for i in range(5):
        g = random_labeled_graph(rng, n_nodes=4, feature_dim=3)
        save_graph(dataclasses.replace(g, label=label), data / f"g{i}.json")
        files.append(f"g{i}.json")
    (data / "manifest.json").write_text(json.dumps({"files": files}))
    return data


class TestLabelOutsideClasses:
    """A label outside the 2-class model's [0, 2) exits 2 with one line."""

    @pytest.mark.parametrize("argv, corrupt", [(["--label", "5"], None),
                                               (["--label", "-1"], None),
                                               ([], lambda doc: doc.update(label=7))],
                             ids=["flag-5", "flag-minus-1", "graph-file-7"])
    def test_explain(self, tmp_path, capsys, argv, corrupt):
        line = _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_graph=corrupt, argv=argv)
        assert "out of range for 2 classes" in line

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_dataset(self, tmp_path, capsys, command):
        data = _labeled_dataset(tmp_path, label=2)
        model = Model.init(ModelConfig(feature_dim=3, hidden_dim=4), 0)
        (tmp_path / "ckpt.json").write_text(json.dumps(checkpoint_dict(model, None, 0, 0.0)))
        extra = ["--checkpoint", str(tmp_path / "ckpt.json")] if command == "eval" else []
        rc = main([command, "--data", str(data), "--out", str(tmp_path / "o"), *extra,
                   "--set", "train.max_epochs=1", "--set", "train.patience=1",
                   "--set", "model.hidden_dim=4"])
        assert rc == EXIT_INPUT
        assert "out of range for 2 classes" in _one_input_error_line(capsys)


class TestTypeSetMismatch:
    """A checkpoint whose model reads node types refuses graphs of another
    type set; only a type-blind one under mean pooling reads none. A
    one-type model under per-type pooling still pools by node type."""

    @staticmethod
    def run(tmp_path, command, config):
        data = _labeled_dataset(tmp_path, label=0)
        model = Model.init(config, 0)
        (tmp_path / "ckpt.json").write_text(json.dumps(checkpoint_dict(model, None, 0, 0.0)))
        graphs = ["--graph", str(data / "g0.json")] if command == "explain" else ["--data", str(data)]
        return main([command, *graphs, "--checkpoint", str(tmp_path / "ckpt.json"),
                     "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("types", [DEFAULT_TYPES.names[:3], tuple("pqrstu"), ("only",)],
                             ids=["three-types", "six-other-names", "one-type"])
    @pytest.mark.parametrize("command", ["explain", "eval"])
    def test_type_blind_pl_exits_2_with_one_line(self, tmp_path, capsys, command, types):
        config = ModelConfig(feature_dim=3, hidden_dim=4, types=types, type_blind=True)
        assert self.run(tmp_path, command, config) == EXIT_INPUT
        assert _one_input_error_line(capsys).endswith("graph type set does not match the model's")
        assert not (tmp_path / "o").exists()

    def test_type_blind_mean_reads_no_type(self, tmp_path):
        config = baseline_config(ModelConfig(feature_dim=3, hidden_dim=4, types=tuple("pqr")))
        assert self.run(tmp_path, "explain", config) == EXIT_OK


class TestExplainFailures:
    @pytest.mark.parametrize("corrupt", [
        _edit_floats("feat", lambda a: a.__setitem__((1, 0), -1e308)),
        _edit_floats("attr", lambda a: a.__setitem__(
            (slice(None), 0), (-1.0) ** np.arange(len(a)) * 1e308)),
    ], ids=["feat", "attrs"])
    def test_overflow_exits_3_with_one_line_and_no_warning(self, tmp_path, capsys, corrupt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = _run_explain(tmp_path, corrupt_graph=corrupt)
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("heatnet: error: numeric:"), err
        assert err[0].endswith("produced non-finite values")

    def test_missing_label_is_an_input_error(self, tmp_path, capsys):
        line = _explain_exits_2_with_one_line(tmp_path, capsys,
                                              corrupt_graph=lambda doc: doc.update(label=None))
        assert line == "heatnet: error: input: graph has no label and none was given"


def _strand_first_node(doc):
    """A graph-document edit: drop every edge into the first node."""
    keep = [t != doc["nodes"]["id"][0] for t in doc["edges"]["dst"]]
    set_float_column(doc, "attr", float_column(doc, "attr")[keep])
    for col in ("src", "dst"):
        doc["edges"][col] = [v for v, k in zip(doc["edges"][col], keep) if k]


class TestNodeWithoutIncomingEdge:
    """A graph file with a node that no edge enters is an input error (exit 2),
    wherever the forward meets it."""

    def test_explain(self, tmp_path, capsys):
        line = _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_graph=_strand_first_node)
        assert line.endswith("node 0 has no incoming edges; self-loops are required")

    def test_train(self, tmp_path, capsys):
        data = make_dataset(tmp_path, n=12)
        for name in json.loads((data / "manifest.json").read_text())["files"]:
            doc = json.loads((data / name).read_text())
            _strand_first_node(doc)
            (data / name).write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                   *SMALL_SYNTH, *FAST_TRAIN])
        assert rc == EXIT_INPUT
        assert "has no incoming edges" in _one_input_error_line(capsys)


DEEP = "[" * 5000 + "]" * 5000


class TestDeepNesting:
    """JSON nested deeper than the parser recurses exits 2 with one line at every JSON input."""

    @pytest.mark.parametrize("argv, fault", [
        ("explain --graph {deep} --checkpoint {ckpt}", "input: JSON nested too deeply"),
        ("explain --graph {graph} --checkpoint {deep}", "input: JSON nested too deeply"),
        ("eval --cv --data {data}", "input: JSON nested too deeply"),
        ("build-graph --patches {patches} --config {deep}",
         "input: config file is not valid JSON: JSON nested too deeply"),
        ("build-graph --patches {patches} --set build.k=" + DEEP,
         "input: override 'build.k': JSON nested too deeply"),
        ("build-graph --patches {deep_patches}", "input: line 2: invalid JSON: JSON nested too deeply"),
    ], ids=["graph", "checkpoint", "manifest", "config", "set", "patch-table-line"])
    def test_deep_json_exits_2_with_one_line(self, tmp_path, capsys, argv, fault):
        types = TypeSet(("a", "b"))
        g = random_labeled_graph(np.random.default_rng(0), types, n_nodes=4, feature_dim=3)
        save_graph(g, tmp_path / "g.json")
        model = Model.init(ModelConfig(feature_dim=3, types=types.names, hidden_dim=4), 0)
        (tmp_path / "ckpt.json").write_text(json.dumps(checkpoint_dict(model, None, 0, 0.0)))
        (tmp_path / "patches.jsonl").write_text(PATCHES)
        (tmp_path / "deep_patches.jsonl").write_text(
            PATCHES.splitlines()[0] + '\n{"id": ' + DEEP + "}\n")
        (tmp_path / "deep.json").write_text(DEEP)
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "manifest.json").write_text(DEEP)
        paths = {"deep": tmp_path / "deep.json", "graph": tmp_path / "g.json",
                 "ckpt": tmp_path / "ckpt.json", "patches": tmp_path / "patches.jsonl",
                 "deep_patches": tmp_path / "deep_patches.jsonl", "data": tmp_path / "data"}
        rc = main([tok.format(**paths) for tok in argv.split()] + ["--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT
        assert fault in _one_input_error_line(capsys)


class TestConfigValueTypes:
    """A config value of the wrong JSON type exits 2 with one line naming the key."""

    @pytest.mark.parametrize("override, key", [
        ("model.n_layers=1.5", "config.model.n_layers"),
        ("train.max_epochs=2.5", "config.train.max_epochs"),
        ("train.batch_size=1.5", "config.train.batch_size"),
        ("model.heads=4.0", "config.model.heads"),
        ("build=3", "config.build"),
        ("train.augmentation=5", "config.train.augmentation"),
        ("synth.n_nodes=[3]", "config.synth.n_nodes"),
        ("train.learning_rate=NaN", "config.train.learning_rate"),
        ("train.weight_decay=Infinity", "config.train.weight_decay"),
    ])
    def test_train_override(self, tmp_path, capsys, override, key):
        data = _labeled_dataset(tmp_path, label=1)
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                   "--set", "train.patience=1", "--set", "model.hidden_dim=4",
                   "--set", override])
        assert rc == EXIT_INPUT
        assert key in _one_input_error_line(capsys)

    @pytest.mark.parametrize("override", [
        'build.augmentation={"edge_drop_prob":0.1}', "train.beta1=0.9", "train.beta2=0.999",
        "train.eps=1e-8", "train.decoupled_weight_decay=true", "model.decouple_key_value=true",
        "model.trainable_readout=false", 'model.final_readout="sum"', "model.leaky_slope=0.1",
        "build.symmetric_edges=true", "build.add_self_loops=false",
        "synth.build.add_self_loops=true"])
    def test_removed_keys_are_unknown(self, capsys, override):
        rc = main(["gradcheck", "--nodes", "2", "--dim", "2", "--set", override])
        assert rc == EXIT_INPUT
        assert "unknown key" in _one_input_error_line(capsys)

    @pytest.mark.parametrize("override", ['build.metric="euclidean"',
                                          'synth.build.metric="euclidean"'])
    def test_cosine_is_the_only_metric(self, capsys, override):
        rc = main(["gradcheck", "--nodes", "2", "--dim", "2", "--set", override])
        assert rc == EXIT_INPUT
        assert _one_input_error_line(capsys).endswith("unknown similarity metric 'euclidean'")

    def test_provenance_config_rebuilds_the_run_config(self):
        cfg = load_run_config(None, ["build.k=3", 'model.types=["a","b"]', "train.folds=4",
                                     "train.augmentation.edge_drop_prob=0.3"], seed=4)
        config = provenance_block(cfg, "train", True)["config"]
        assert build_dataclass(RunConfig, json.loads(json.dumps(config)), "config") == cfg

    def test_build_graph_override(self, tmp_path, capsys):
        patches = tmp_path / "patches.jsonl"
        patches.write_text(PATCHES)
        rc = main(["build-graph", "--patches", str(patches), "--out", str(tmp_path / "g.json"),
                   "--set", "build.k=2.5"])
        assert rc == EXIT_INPUT
        assert "config.build.k" in _one_input_error_line(capsys)


class TestGradcheck:
    def test_default_model_passes(self, capsys):
        rc = main(["gradcheck", "--nodes", "6", "--dim", "4", "--seed", "0"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "max relative error" in out

    @pytest.mark.parametrize("flags", [["--nodes", "-1"], ["--dim", "0"], ["--dim", "-4"],
                                       ["--type-count", "-2"], ["--type-count", "7"],
                                       ["--tolerance", "nan"], ["--tolerance", "inf"],
                                       ["--tolerance", "0"], ["--tolerance=-1e-5"],
                                       ["--eps", "inf"], ["--eps", "nan"], ["--eps", "0"]])
    def test_out_of_range_flags_exit_2(self, capsys, flags):
        assert main(["gradcheck", *flags]) == EXIT_INPUT
        _one_input_error_line(capsys)

    @pytest.mark.parametrize("override, message", [
        ("model.heads=0", "heads must be at least 1"),
        ("model.heads=-2", "heads must be at least 1"),
        ("model.n_classes=0", "n_classes must be at least 2"),
        ("model.hidden_dim=0", "hidden_dim must be at least 1"),
    ])
    def test_out_of_range_model_values_exit_2(self, capsys, override, message):
        assert main(["gradcheck", "--set", override]) == EXIT_INPUT
        assert message in _one_input_error_line(capsys)

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


class TestDropoutSetting:
    """train.dropout is the one dropout setting; the model runs with it."""

    @pytest.mark.parametrize("extra", [[], ["--set", "model.dropout=0.5"]],
                             ids=["train-only", "model-equal"])
    def test_train_dropout_reaches_the_model(self, tmp_path, extra):
        data = make_dataset(tmp_path, n=8, seed=4)
        run = tmp_path / "run"
        rc = main(["train", "--data", str(data), "--out", str(run), "--deterministic",
                   *FAST_TRAIN, "--set", "train.max_epochs=1", "--set", "train.patience=1",
                   "--set", "train.dropout=0.5", *extra])
        assert rc == EXIT_OK
        doc = json.loads((run / "checkpoint.json").read_text())
        config = doc["provenance"]["config"]
        assert doc["model_config"]["dropout"] == 0.5
        assert config["train"]["dropout"] == config["model"]["dropout"] == 0.5

    @pytest.mark.parametrize("extra", [[], ["--set", "train.dropout=0.3"]],
                             ids=["train-default", "train-set"])
    def test_other_model_dropout_exits_2(self, tmp_path, capsys, extra):
        data = make_dataset(tmp_path, n=8, seed=4)
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                   *FAST_TRAIN, "--set", "model.dropout=0.5", *extra])
        assert rc == EXIT_INPUT
        assert "train.dropout" in _one_input_error_line(capsys)
        assert not (tmp_path / "run").exists()
