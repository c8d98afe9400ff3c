"""Command-line entry point for reproducible runs.

Commands: build-graph, synth, train, eval, explain, gradcheck. Every
command takes --config (JSON), --set dotted.path=value overrides (flags
win), --seed, --out, --jobs, and --deterministic. Only ``eval --cv`` runs
workers (one process per fold); every other command refuses --jobs above
1. Exit codes: 0 success, 2 input error, 3 numeric failure, 64 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

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
from .hetgraph import DEFAULT_TYPES, TypeSet, _parse_json, _write_json, load_graph, save_graph
from .model import Model
from .seeding import rng_for
from .synth import synth_generate
from .train import (
    TrainConfig,
    evaluate,
    fold_split,
    load_checkpoint,
    run_cv,
    save_checkpoint,
    train_fold,
    write_train_log,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

_INPUT_ERRORS = (ConfigError, PatchTableError, GraphValidationError, GraphLookupError,
                 ShapeError, ExportError, OSError, UnicodeDecodeError, json.JSONDecodeError)
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
    p.add_argument("--jobs", type=int, default=1,
                   help="max parallel workers (eval --cv only; other commands take 1)")
    p.add_argument("--deterministic", action="store_true",
                   help="byte-reproducible artifacts (timings written as 0)")
    p.add_argument("--out", metavar="PATH", help="output file or directory (not gradcheck)")


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
    p.add_argument("--fold", type=int, default=0, help="CV fold whose model to train")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a fold, or run full CV")
    _add_common(p)
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--checkpoint", metavar="PATH", help="evaluate this checkpoint")
    p.add_argument("--fold", type=int, help="CV fold whose test set to evaluate (default 0)")
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
            manifest = _parse_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read dataset manifest: {exc}") from exc
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not (isinstance(files, list) and all(isinstance(name, str) for name in files)):
        raise ConfigError(f"dataset manifest {manifest_path} needs a 'files' list of strings")
    graphs = [load_graph(os.path.join(data_dir, name)) for name in files]
    return graphs, manifest


def cmd_build_graph(args, cfg: RunConfig) -> int:
    out = _require_out(args, "build-graph")
    patches = load_patch_table(args.patches)
    g = build_graph(patches, cfg.build, DEFAULT_TYPES)
    prov = provenance_block(cfg, "build-graph", args.deterministic)
    save_graph(g, out, extra={"provenance": prov})
    print(f"nodes={g.n_nodes} edges={g.n_edges}")
    for name, count in zip(g.types.names, np.bincount(g.node_types, minlength=len(g.types))):
        if count:
            print(f"type {name}: {count}")
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
    result, _ = train_fold(graphs, args.fold, cfg.model, cfg.train, args.deterministic)
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


def _check_checkpoint_split(prov, fold: int, cfg: TrainConfig) -> None:
    """Refuse to score a checkpoint on another fold or split than the one it
    was trained on: the test graphs would include its training graphs. A
    field the checkpoint's provenance does not record is not compared."""
    for name, path, current in (("fold", ("fold",), fold),
                                ("train.seed", ("config", "train", "seed"), cfg.seed),
                                ("train.folds", ("config", "train", "folds"), cfg.folds)):
        recorded = prov
        for key in path:
            recorded = recorded.get(key) if isinstance(recorded, dict) else None
        if recorded is not None and recorded != current:
            raise ConfigError(f"checkpoint was trained with {name}={json.dumps(recorded)}, "
                              f"eval runs with {name}={current}: its test graphs would "
                              "include training graphs")


def cmd_eval(args, cfg: RunConfig) -> int:
    out = _require_out(args, "eval")
    graphs, _ = _load_dataset(args.data)
    prov = provenance_block(cfg, "eval", args.deterministic)
    if args.cv:
        report = run_cv(graphs, cfg.model, cfg.train,
                        deterministic=args.deterministic, jobs=args.jobs)
    else:
        if not args.checkpoint:
            raise ConfigError("eval needs --checkpoint or --cv")
        fold = 0 if args.fold is None else args.fold
        model, doc = load_checkpoint(args.checkpoint)
        _, _, test_idx = fold_split(len(graphs), fold, cfg.train)
        _check_checkpoint_split(doc.get("provenance"), fold, cfg.train)
        metrics = evaluate([graphs[i] for i in test_idx], model)
        report = {
            "auc": metrics["auc"],
            "accuracy": metrics["accuracy"],
            "macro_f1": metrics["macro_f1"],
            "per_fold": [{"fold": fold, **metrics}],
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
    from .autodiff import grad_check
    from .testing import random_labeled_graph

    if args.nodes < 1 or args.dim < 1:
        raise ConfigError("--nodes and --dim must be >= 1")
    if not 1 <= args.type_count <= len(DEFAULT_TYPES):
        raise ConfigError(f"--type-count must be in [1, {len(DEFAULT_TYPES)}]")
    if not (math.isfinite(args.tolerance) and args.tolerance > 0.0):
        raise ConfigError(f"--tolerance must be finite and positive, got {args.tolerance}")
    types = TypeSet(tuple(DEFAULT_TYPES.names[:args.type_count]))
    g = random_labeled_graph(rng_for(cfg.seed, "gradcheck-graph"), types,
                             n_nodes=args.nodes, feature_dim=args.dim,
                             n_classes=cfg.model.n_classes)
    model_cfg = dataclasses.replace(
        cfg.model, feature_dim=args.dim, types=types.names,
        hidden_dim=args.dim, dropout=0.0)
    model = Model.init(model_cfg, rng_for(cfg.seed, "init"))

    def objective():
        return model.loss([g])

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
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        if args.jobs > 1 and not (args.command == "eval" and args.cv):
            raise ConfigError(f"--jobs {args.jobs}: only eval --cv runs parallel workers")
        if args.command == "gradcheck" and args.out is not None:
            raise ConfigError("--out: gradcheck writes no file")
        if args.command == "eval" and args.cv:
            for flag, value in (("--checkpoint", args.checkpoint), ("--fold", args.fold)):
                if value is not None:
                    raise ConfigError(f"{flag}: eval --cv trains and evaluates every fold")
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
