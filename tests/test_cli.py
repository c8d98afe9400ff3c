"""Command-line interface: artifacts, exit codes, determinism."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from heatnet.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
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
        if name.endswith((".node", ".value")):
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


def _version_1_graph(doc):
    """The per-record layout of graph format version 1."""
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
        (_set_node_field("feat", [0.5, True, 0.5]),
         "format: nodes.feat entry true is not a number (node 1)"),
        (_set_node_field("feat", [0.5, 0.5, "0.5"]),
         'format: nodes.feat entry "0.5" is not a number (node 1)'),
        (lambda doc: doc["edges"]["attr"].__setitem__(-1, [False]),
         "format: edges.attr entry false is not a number (edge "),
    ], ids=["x-not-number", "label-string", "label-list", "nodes-not-list", "edges-null",
            "id-fraction", "y-fraction", "dst-fraction", "label-fraction", "id-beyond-int64",
            "nodes-not-object", "edges-not-object", "id-boolean", "x-boolean", "y-boolean",
            "src-boolean", "dst-boolean", "label-boolean", "feat-boolean", "feat-string",
            "attr-boolean"])
    def test_bad_graph_exits_2(self, tmp_path, capsys, corrupt, fault):
        line = _explain_exits_2_with_one_line(tmp_path, capsys, corrupt_graph=corrupt)
        assert fault in line

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

    def test_version_1_checkpoint_exits_2(self, tmp_path, capsys):
        line = _explain_exits_2_with_one_line(tmp_path, capsys,
                                              corrupt_ckpt=_version_1_checkpoint)
        assert "unsupported checkpoint version 1" in line
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        assert "layer0.node.a.head1" in doc["params"] and "pool.readout.b" in doc["params"]

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


class TestExplainFailures:
    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["nodes"]["feat"][1].__setitem__(0, -1e308),
        lambda doc: [a.__setitem__(0, (-1) ** i * 1e308)
                     for i, a in enumerate(doc["edges"]["attr"])],
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
        "train.eps=1e-8", "train.decoupled_weight_decay=true"])
    def test_removed_keys_are_unknown(self, capsys, override):
        rc = main(["gradcheck", "--nodes", "2", "--dim", "2", "--set", override])
        assert rc == EXIT_INPUT
        assert "unknown key" in _one_input_error_line(capsys)

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
