"""Run configuration: JSON file plus dotted-path overrides, flags win.

The resolved configuration (including the seed) is echoed verbatim into a
provenance block inside every output artifact, so any run can be
reproduced from its outputs alone.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any

from . import __version__
from .builder import BuildConfig
from .errors import ConfigError
from .hetgraph import _parse_json
from .model import ModelConfig
from .schema import build_dataclass, to_jsonable
from .synth import SyntheticSpec
from .train import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    build: BuildConfig = field(default_factory=BuildConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    synth: SyntheticSpec = field(default_factory=SyntheticSpec)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


def _deep_merge(base: dict, update: dict) -> dict:
    out = dict(base)
    for k, v in update.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _parse_override(item: str) -> tuple[list[str], Any]:
    if "=" not in item:
        raise ConfigError(f"override must look like path.to.key=value, got {item!r}")
    key, raw = item.split("=", 1)
    parts = [p for p in key.strip().split(".") if p]
    if not parts:
        raise ConfigError(f"empty override key in {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings are allowed unquoted
    except RecursionError:
        raise ConfigError(f"override {key.strip()!r}: JSON nested too deeply") from None
    return parts, value


def load_run_config(config_path: str | None = None,
                    overrides: list[str] | None = None,
                    seed: int | None = None) -> RunConfig:
    """Defaults <- config file <- --set overrides <- --seed flag."""
    merged: dict = {}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                loaded = _parse_json(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        merged = _deep_merge(merged, loaded)
    for item in overrides or []:
        parts, value = _parse_override(item)
        node: dict = merged
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {'.'.join(parts)!r} crosses a non-object")
        node[parts[-1]] = value
    if seed is not None:
        merged["seed"] = seed
    # the experiment seed also seeds the components unless they override it
    cfg = build_dataclass(RunConfig, merged, "config")
    updates = {}
    if "build" not in merged or "seed" not in merged.get("build", {}):
        updates["build"] = dataclasses.replace(cfg.build, seed=cfg.seed)
    if "train" not in merged or "seed" not in merged.get("train", {}):
        updates["train"] = dataclasses.replace(cfg.train, seed=cfg.seed)
    # train.dropout is the one dropout setting; the model runs with it
    if "dropout" in merged.get("model", {}) and cfg.model.dropout != cfg.train.dropout:
        raise ConfigError(f"model.dropout={cfg.model.dropout} differs from train.dropout="
                          f"{cfg.train.dropout}; set the dropout with train.dropout")
    updates["model"] = dataclasses.replace(cfg.model, dropout=cfg.train.dropout)
    return dataclasses.replace(cfg, **updates)


def provenance_block(cfg: RunConfig, command: str, deterministic: bool) -> dict:
    return {
        "tool": "heatnet",
        "version": __version__,
        "command": command,
        "seed": cfg.seed,
        "deterministic": deterministic,
        "config": to_jsonable(cfg),
    }
