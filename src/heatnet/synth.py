"""Synthetic labeled graphs with exactly computable planted rules.

Node features are drawn as a shared base pattern plus isotropic noise, so
the feature distribution is identical across node types: the label signal
lives purely in the node types and graph structure. Two rules are
available:

* "interaction": label 1 iff the fraction of neoplastic nodes that have at
  least one inflammatory neighbor connected by a positive edge attribute
  exceeds theta.
* "type_count": label 1 iff the graph contains at least ``count_min``
  nodes of ``count_type`` (a rare type by default).

Labels are recomputed exactly from the emitted graph, so (at zero label
noise) the rule is self-consistent with the data. Generation rejection-
samples graphs into an exactly balanced class split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .builder import BuildConfig, PatchRecord, build_graph
from .errors import ConfigError, GenerationError
from .hetgraph import DEFAULT_TYPE_NAMES, DEFAULT_TYPES, HeteroGraph
from .seeding import rng_for

_DEFAULT_TYPE_PROBS = {
    "no-label": 0.06,
    "neoplastic": 0.34,
    "inflammatory": 0.30,
    "connective": 0.18,
    "dead": 0.06,
    "non-neoplastic-epithelial": 0.06,
}


@dataclass(frozen=True)
class SyntheticSpec:
    n_nodes: tuple[int, int] = (10, 16)
    type_probs: dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_TYPE_PROBS))
    feature_dim: int = 8
    rule: str = "interaction"            # "interaction" | "type_count"
    theta: float = 0.75
    count_type: str = "dead"
    count_min: int = 1
    label_noise: float = 0.0
    base_scale: float = 1.0
    noise_sigma: float = 0.5
    label_feature_shift: float = 0.0
    build: BuildConfig = field(default_factory=lambda: BuildConfig(k=3))
    max_tries_factor: int = 80

    def __post_init__(self):
        lo, hi = self.n_nodes
        if not 1 <= lo <= hi:
            raise ConfigError(f"bad node count range {self.n_nodes}")
        if self.rule not in ("interaction", "type_count"):
            raise ConfigError(f"unknown planted rule {self.rule!r}")
        for name in self.type_probs:
            DEFAULT_TYPES.index(name)
        if self.count_type not in DEFAULT_TYPES:
            raise ConfigError(f"unknown count_type {self.count_type!r}; "
                              f"known: {list(DEFAULT_TYPE_NAMES)}")
        if any(not p >= 0.0 for p in self.type_probs.values()):
            raise ConfigError(f"type probabilities must be nonnegative, got {self.type_probs}")
        total = sum(self.type_probs.values())
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ConfigError(f"type probabilities must sum to 1, got {total}")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ConfigError("label_noise must be in [0, 1]")
        if self.count_min < 1:
            raise ConfigError("count_min must be >= 1")
        if self.max_tries_factor < 1:
            raise ConfigError(f"max_tries_factor must be >= 1, got {self.max_tries_factor}")
        for name in ("base_scale", "noise_sigma"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")


@dataclass(frozen=True)
class SynthRecord:
    graph: HeteroGraph
    label: int
    critical: tuple[int, ...]    # rule-critical node ids (empty for label 0)


@dataclass(frozen=True)
class SynthDataset:
    records: tuple[SynthRecord, ...]
    seed: int

    @property
    def graphs(self) -> list[HeteroGraph]:
        return [r.graph for r in self.records]

    @property
    def labels(self) -> list[int]:
        return [r.label for r in self.records]


def planted_label(g: HeteroGraph, spec: SyntheticSpec) -> tuple[int, tuple[int, ...]]:
    """Evaluate the planted rule on an emitted graph.

    Returns (label, critical node ids). For the interaction rule the
    critical set is the qualifying neoplastic nodes plus their inflammatory
    witnesses; for type_count it is the counted type's nodes. Label-0
    graphs have an empty critical set.
    """
    names = g.types.names
    if spec.rule == "type_count":
        idx = names.index(spec.count_type)
        members = [nid for nid, t in zip(g.node_ids, g.node_types) if t == idx]
        label = 1 if len(members) >= spec.count_min else 0
        return label, tuple(sorted(members)) if label else ()

    neo = names.index("neoplastic")
    infl = names.index("inflammatory")
    type_of = {nid: int(t) for nid, t in zip(g.node_ids, g.node_types)}
    neighbors: dict[int, list[tuple[int, float]]] = {nid: [] for nid in g.node_ids}
    for s, t, attr in zip(g.edge_src.tolist(), g.edge_dst.tolist(), g.edge_attrs):
        if s == t:
            continue
        neighbors[t].append((s, float(attr[0])))
        neighbors[s].append((t, float(attr[0])))
    neo_nodes = [nid for nid in g.node_ids if type_of[nid] == neo]
    qualifying: list[int] = []
    witnesses: set[int] = set()
    for v in neo_nodes:
        w = {u for u, a in neighbors[v] if type_of[u] == infl and a > 0.0}
        if w:
            qualifying.append(v)
            witnesses |= w
    frac = len(qualifying) / len(neo_nodes) if neo_nodes else 0.0
    label = 1 if frac > spec.theta else 0
    critical = tuple(sorted(set(qualifying) | witnesses)) if label else ()
    return label, critical


def _make_counts(type_name: str, rng: np.random.Generator,
                 type_names: Sequence[str]) -> dict[str, int]:
    """Nucleus-count tallies whose majority vote yields ``type_name``."""
    if type_name == "no-label":
        return {}
    dominant = 4 + int(rng.integers(0, 5))
    counts = {type_name: dominant}
    for other in type_names:
        if other in (type_name, "no-label"):
            continue
        c = int(rng.integers(0, dominant))  # strictly below the dominant count
        if c:
            counts[other] = c
    return counts


def _generate_one(spec: SyntheticSpec, base: np.ndarray, rng: np.random.Generator
                  ) -> tuple[HeteroGraph, int, tuple[int, ...]]:
    lo, hi = spec.n_nodes
    n = int(rng.integers(lo, hi + 1))
    names = list(spec.type_probs)
    probs = np.array([spec.type_probs[nm] for nm in names])
    sampled = rng.choice(len(names), size=n, p=probs)
    width = max(1, int(math.ceil(math.sqrt(n))))
    patches = []
    for i in range(n):
        feat = base + spec.noise_sigma * rng.standard_normal(spec.feature_dim)
        patches.append(PatchRecord(
            id=f"p{i:04d}", x=i % width, y=i // width, feature=feat,
            type_counts=_make_counts(names[sampled[i]], rng, DEFAULT_TYPE_NAMES)))
    g = build_graph(patches, spec.build, DEFAULT_TYPES)
    label, critical = planted_label(g, spec)
    if spec.label_noise > 0.0 and rng.random() < spec.label_noise:
        label = 1 - label
    if spec.label_feature_shift != 0.0 and label == 1:
        # A constant scalar added to every coordinate: Pearson attributes
        # are shift-invariant, so the planted rule stays self-consistent.
        g = replace(g, features=g.features + spec.label_feature_shift)
    return replace(g, label=label), label, critical


def synth_generate(spec: SyntheticSpec, n_graphs: int, seed: int) -> SynthDataset:
    """Generate an exactly class-balanced labeled dataset.

    Graphs are rejection-sampled into per-class quotas (n//2 positives);
    if the quotas cannot be filled within the try budget, generation fails.
    """
    if n_graphs < 2:
        raise ConfigError("need at least 2 graphs for a balanced dataset")
    base = rng_for(seed, "synth-base").normal(0.0, spec.base_scale, size=spec.feature_dim)
    quota = {1: n_graphs // 2, 0: n_graphs - n_graphs // 2}
    got = {0: 0, 1: 0}
    records: list[SynthRecord] = []
    max_tries = spec.max_tries_factor * n_graphs
    for attempt in range(max_tries):
        g, label, critical = _generate_one(spec, base, rng_for(seed, "synth", attempt))
        if got[label] >= quota[label]:
            continue
        got[label] += 1
        records.append(SynthRecord(graph=g, label=label, critical=critical))
        if len(records) == n_graphs:
            return SynthDataset(records=tuple(records), seed=seed)
    raise GenerationError(
        f"could not balance classes within {max_tries} tries "
        f"(got {got[0]} negatives, {got[1]} positives; need {quota[0]}/{quota[1]})")
