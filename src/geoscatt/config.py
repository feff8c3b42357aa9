"""Declarative run configuration: INI-style file, flag overrides win.

Every run is reproducible from (config digest, seed); the digest covers the
effective post-override values and is written to each subcommand's run log.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .gnn import TrainConfig
from .gst import GGSConfig
from .metagraph import SageConfig


@dataclass
class Scatter2dSection:
    j: int = 5
    l: int = 8
    size: int = 64
    k_select: int = 0          # 0 = keep all columns


@dataclass
class RunSection:
    seed: int = None
    test_fraction: float = 0.2
    val_fraction: float = 0.1
    l2: float = 1e-3
    cv_folds: int = 10


# (test, what the value must be)
_AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_FINITE_AT_LEAST_0 = (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
_FRACTION = (lambda v: 0 < v < 1, "in (0, 1)")

# Every setting has one row here, and PipelineConfig.validate applies them
# all, so a bad value ends in error[config] before any stage runs.
_RULES = {
    ("gst", "diffusion_scales"): _AT_LEAST_1,
    ("gst", "diffusion_depth"): _AT_LEAST_0,
    ("scatter2d", "j"): _AT_LEAST_1,
    ("scatter2d", "l"): _AT_LEAST_1,
    ("scatter2d", "size"): (lambda v: v >= 16 and v & (v - 1) == 0,
                            "a power of two >= 16"),
    ("scatter2d", "k_select"): _AT_LEAST_0,
    ("gin", "lr"): _FINITE_AT_LEAST_0,
    ("gin", "epochs"): _AT_LEAST_1,
    ("gin", "patience"): _AT_LEAST_0,
    ("gin", "weight_decay"): _FINITE_AT_LEAST_0,
    ("sage", "hidden"): _AT_LEAST_1,
    ("sage", "embed"): _AT_LEAST_1,
    ("sage", "dropout"): (lambda v: 0 <= v < 1, "in [0, 1)"),
    ("sage", "lr"): _FINITE_AT_LEAST_0,
    ("sage", "weight_decay"): _FINITE_AT_LEAST_0,
    ("sage", "epochs"): _AT_LEAST_1,
    ("sage", "patience"): _AT_LEAST_0,
    ("run", "seed"): _AT_LEAST_0,
    ("run", "test_fraction"): _FRACTION,
    ("run", "val_fraction"): _FRACTION,
    ("run", "l2"): _FINITE_AT_LEAST_0,
    ("run", "cv_folds"): (lambda v: v >= 2, ">= 2"),
}


@dataclass
class PipelineConfig:
    """The run config: one section per dataclass, the stage configs
    ``[gst]``, ``[gin]`` and ``[sage]`` owned by their modules."""
    gst: GGSConfig = field(default_factory=GGSConfig)
    scatter2d: Scatter2dSection = field(default_factory=Scatter2dSection)
    gin: TrainConfig = field(default_factory=TrainConfig)
    sage: SageConfig = field(default_factory=SageConfig)
    run: RunSection = field(default_factory=RunSection)

    def validate(self) -> None:
        if self.run.seed is None:
            raise ConfigError("a seed is mandatory: pass --seed or set [run] seed")
        for (section, key), (ok, rule) in _RULES.items():
            value = getattr(getattr(self, section), key)
            if not ok(value):
                raise ConfigError(f"[{section}] {key} {value!r} is not {rule}")

    def digest(self) -> str:
        parts = []
        for section_field in fields(self):
            section = getattr(self, section_field.name)
            for f in fields(section):
                parts.append(f"{section_field.name}.{f.name}="
                             f"{getattr(section, f.name)!r}")
        return hashlib.sha256("\n".join(sorted(parts)).encode()).hexdigest()[:16]


def load_config(path=None) -> PipelineConfig:
    cfg = PipelineConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    sections = {f.name for f in fields(cfg)}
    for section_name, row in parser.items():
        if section_name == "DEFAULT":
            continue
        if section_name not in sections:
            raise ConfigError(f"unknown config section [{section_name}]")
        target = getattr(cfg, section_name)
        known = {f.name: f for f in fields(target)}
        for key, raw in row.items():
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in [{section_name}]")
            setattr(target, key, _coerce(raw, known[key].type, section_name, key))
    return cfg


def _coerce(raw: str, annotation, section: str, key: str):
    text = raw.strip()
    try:
        if annotation in ("int", int):
            return int(text)
        if annotation in ("float", float):
            return float(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}")
    return text
