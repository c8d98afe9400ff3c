"""Command-line entry point for reproducible runs.

Commands: build-graph, synth, train, eval, explain, gradcheck. Every
command takes --config (JSON), --set dotted.path=value overrides (flags
win), --seed, --out, --jobs, and --deterministic. Exit codes: 0 success,
2 input error, 3 numeric failure, 64 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .builder import build_graph, load_patch_table
from .config import RunConfig, load_run_config, provenance_block
from .errors import (
    AttributionError,
    ConfigError,
    ContractError,
    ExportError,
    GenerationError,
    GraphLookupError,
    GraphValidationError,
    HeatnetError,
    NonFiniteError,
    PatchTableError,
    ShapeError,
    TrainingError,
)
from .explain import explain_graph, export_heatmap
from .hetgraph import DEFAULT_TYPES, TypeSet, _write_json, load_graph, save_graph
from .model import Model, ModelConfig
from .seeding import rng_for
from .synth import synth_generate
from .train import (
    evaluate,
    kfold_split,
    load_checkpoint,
    run_cv,
    save_checkpoint,
    train,
    write_train_log,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

_INPUT_ERRORS = (ConfigError, PatchTableError, GraphValidationError, GraphLookupError,
                 ShapeError, ExportError, FileNotFoundError, json.JSONDecodeError)
_NUMERIC_ERRORS = (NonFiniteError, TrainingError, GenerationError, ContractError,
                   AttributionError)


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code (64)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"heatnet: usage error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config value (dotted path)")
    p.add_argument("--seed", type=int, default=None, help="experiment seed (wins over config)")
    p.add_argument("--jobs", type=int, default=1, help="max parallel workers")
    p.add_argument("--deterministic", action="store_true",
                   help="single-threaded, byte-reproducible artifacts")
    p.add_argument("--out", metavar="PATH", help="output file or directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="heatnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"heatnet {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("build-graph", help="construct a graph file from a patch table")
    _add_common(p)
    p.add_argument("--patches", required=True, metavar="PATH", help="patch table (JSONL or CSV)")

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset directory")
    _add_common(p)
    p.add_argument("--n", type=int, default=100, help="number of graphs")

    p = sub.add_parser("train", help="train one fold and save checkpoint + log")
    _add_common(p)
    p.add_argument("--data", required=True, metavar="DIR", help="dataset directory from synth")
    p.add_argument("--fold", type=int, default=0, help="fold index used for test/val carve-out")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a fold, or run full CV")
    _add_common(p)
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--checkpoint", metavar="PATH", help="evaluate this checkpoint")
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--cv", action="store_true", help="train+evaluate all folds")

    p = sub.add_parser("explain", help="attribute a prediction to nodes, export heatmap")
    _add_common(p)
    p.add_argument("--graph", required=True, metavar="PATH")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--label", type=int, default=None, help="true label (default: stored)")

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model gradient")
    _add_common(p)
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--type-count", type=int, default=3, dest="type_count")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--tolerance", type=float, default=1e-5)
    return parser


def _require_out(args, kind: str) -> str:
    if not args.out:
        raise ConfigError(f"{kind} requires --out")
    return args.out


def _load_dataset(data_dir: str):
    manifest_path = os.path.join(data_dir, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset manifest: {exc}") from exc
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not (isinstance(files, list) and all(isinstance(name, str) for name in files)):
        raise ConfigError(f"dataset manifest {manifest_path} needs a 'files' list of strings")
    graphs = [load_graph(os.path.join(data_dir, name)) for name in files]
    return graphs, manifest


def _resolve_model_config(cfg: RunConfig, feature_dim: int) -> ModelConfig:
    model_cfg = cfg.model
    if model_cfg.feature_dim is None:
        model_cfg = dataclasses.replace(model_cfg, feature_dim=feature_dim)
    return dataclasses.replace(model_cfg, dropout=cfg.train.dropout)


def cmd_build_graph(args, cfg: RunConfig) -> int:
    out = _require_out(args, "build-graph")
    patches = load_patch_table(args.patches)
    g = build_graph(patches, cfg.build, DEFAULT_TYPES)
    prov = provenance_block(cfg, "build-graph", args.deterministic)
    save_graph(g, out, extra={"provenance": prov})
    hist: dict[str, int] = {}
    for t in g.node_types:
        name = g.types.names[t]
        hist[name] = hist.get(name, 0) + 1
    print(f"nodes={g.n_nodes} edges={g.n_edges}")
    for name in g.types.names:
        if hist.get(name):
            print(f"type {name}: {hist[name]}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_synth(args, cfg: RunConfig) -> int:
    out = _require_out(args, "synth")
    dataset = synth_generate(cfg.synth, args.n, cfg.seed)
    os.makedirs(out, exist_ok=True)
    prov = provenance_block(cfg, "synth", args.deterministic)
    files = []
    for i, rec in enumerate(dataset.records):
        name = f"graph_{i:04d}.json"
        save_graph(rec.graph, os.path.join(out, name))
        files.append(name)
    manifest = {
        "version": 1,
        "n": len(files),
        "files": files,
        "labels": dataset.labels,
        "critical": [list(r.critical) for r in dataset.records],
        "provenance": prov,
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)
    print(f"wrote {len(files)} graphs to {out}")
    return EXIT_OK


def cmd_train(args, cfg: RunConfig) -> int:
    out = _require_out(args, "train")
    graphs, _ = _load_dataset(args.data)
    splits = kfold_split(list(range(len(graphs))), cfg.train.folds, cfg.train.seed)
    if not 0 <= args.fold < cfg.train.folds:
        raise ConfigError(f"--fold must be in [0, {cfg.train.folds})")
    train_idx, val_idx, _test_idx = splits[args.fold]
    model_cfg = _resolve_model_config(cfg, graphs[0].feature_dim)
    model = Model.init(model_cfg, rng_for(cfg.seed, "init", args.fold))
    result = train([graphs[i] for i in train_idx], [graphs[i] for i in val_idx],
                   model, cfg.train, deterministic=args.deterministic)
    os.makedirs(out, exist_ok=True)
    prov = provenance_block(cfg, "train", args.deterministic)
    prov["fold"] = args.fold
    save_checkpoint(os.path.join(out, "checkpoint.json"), result.model,
                    provenance=prov, epoch=result.best_epoch, val_loss=result.best_val_loss)
    write_train_log(os.path.join(out, "train_log.csv"), result.log, provenance=prov)
    if result.aborted:
        print("training aborted on non-finite loss; last-good checkpoint saved", file=sys.stderr)
        print(f"wrote {out}/checkpoint.json and {out}/train_log.csv")
        return EXIT_NUMERIC
    print(f"best epoch {result.best_epoch} val_loss {result.best_val_loss:.6f} "
          f"({len(result.log)} epochs run)")
    print(f"wrote {out}/checkpoint.json and {out}/train_log.csv")
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    out = _require_out(args, "eval")
    graphs, _ = _load_dataset(args.data)
    prov = provenance_block(cfg, "eval", args.deterministic)
    if args.cv:
        model_cfg = _resolve_model_config(cfg, graphs[0].feature_dim)
        jobs = 1 if args.deterministic else max(1, args.jobs)
        report = run_cv(graphs, model_cfg, cfg.train,
                        deterministic=args.deterministic, jobs=jobs)
    else:
        if not args.checkpoint:
            raise ConfigError("eval needs --checkpoint or --cv")
        model, _doc = load_checkpoint(args.checkpoint)
        splits = kfold_split(list(range(len(graphs))), cfg.train.folds, cfg.train.seed)
        if not 0 <= args.fold < cfg.train.folds:
            raise ConfigError(f"--fold must be in [0, {cfg.train.folds})")
        _, _, test_idx = splits[args.fold]
        metrics = evaluate([graphs[i] for i in test_idx], model)
        report = {
            "auc": metrics["auc"],
            "accuracy": metrics["accuracy"],
            "macro_f1": metrics["macro_f1"],
            "per_fold": [{"fold": args.fold, **metrics}],
        }
    report["provenance"] = prov
    _write_json(out, report)
    print(f"auc={report['auc']:.4f} accuracy={report['accuracy']:.4f} "
          f"macro_f1={report['macro_f1']:.4f}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_explain(args, cfg: RunConfig) -> int:
    out = _require_out(args, "explain")
    g = load_graph(args.graph)
    model, doc = load_checkpoint(args.checkpoint)
    attr = explain_graph(model, g, label=args.label,
                         graph_id=os.path.basename(args.graph),
                         model_id=os.path.basename(args.checkpoint))
    os.makedirs(out, exist_ok=True)
    prov = provenance_block(cfg, "explain", args.deterministic)
    export_heatmap(attr, os.path.join(out, "heatmap.csv"),
                   os.path.join(out, "heatmap.json"), provenance=prov)
    print(f"explained {len(attr.entries)} nodes with {attr.n_forward_evals} forward passes")
    print(f"wrote {out}/heatmap.csv and {out}/heatmap.json")
    return EXIT_OK


def cmd_gradcheck(args, cfg: RunConfig) -> int:
    from .autodiff import cross_entropy, grad_check
    from .testing import random_labeled_graph

    types = TypeSet(tuple(DEFAULT_TYPES.names[:args.type_count]))
    g = random_labeled_graph(rng_for(cfg.seed, "gradcheck-graph"), types,
                             n_nodes=args.nodes, feature_dim=args.dim,
                             n_classes=cfg.model.n_classes)
    model_cfg = dataclasses.replace(
        cfg.model, feature_dim=args.dim, types=types.names,
        hidden_dim=args.dim, dropout=0.0)
    model = Model.init(model_cfg, rng_for(cfg.seed, "init"))

    def objective():
        return cross_entropy(model.forward(g, training=False), g.label)

    err = grad_check(objective, list(model.parameters().values()), eps=args.eps)
    print(f"gradcheck max relative error: {err:.3e} (tolerance {args.tolerance:.1e})")
    if err < args.tolerance:
        return EXIT_OK
    print(f"heatnet: error: numeric: gradient check failed ({err:.3e} >= {args.tolerance:.1e})",
          file=sys.stderr)
    return EXIT_NUMERIC


_COMMANDS = {
    "build-graph": cmd_build_graph,
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "explain": cmd_explain,
    "gradcheck": cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("heatnet: usage error: a command is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_run_config(args.config, args.overrides, args.seed)
        return _COMMANDS[args.command](args, cfg)
    except _INPUT_ERRORS as exc:
        print(f"heatnet: error: input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _NUMERIC_ERRORS as exc:
        print(f"heatnet: error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HeatnetError as exc:
        print(f"heatnet: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
