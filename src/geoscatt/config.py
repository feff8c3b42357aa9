"""Declarative run configuration: INI-style file, flag overrides win.

Every run is reproducible from (config digest, seed); the digest covers the
effective post-override values and is written to each subcommand's run log.
"""

from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError


@dataclass
class GstSection:
    diffusion_scales: int = 4
    diffusion_depth: int = 3


@dataclass
class Scatter2dSection:
    j: int = 5
    l: int = 8
    size: int = 64
    k_select: int = 0          # 0 = keep all columns


@dataclass
class GinSection:
    lr: float = 2e-3
    epochs: int = 150
    patience: int = 30
    weight_decay: float = 0.0
    readout: str = "sum"


@dataclass
class SageSection:
    hidden: int = 128
    embed: int = 64
    dropout: float = 0.5
    lr: float = 1e-3
    weight_decay: float = 1e-5
    epochs: int = 1000
    patience: int = 50


@dataclass
class RunSection:
    seed: int = None
    test_fraction: float = 0.2
    val_fraction: float = 0.1
    threads: int = 0           # 0 = all cores
    l2: float = 1e-3
    cv_folds: int = 10


@dataclass
class PipelineConfig:
    gst: GstSection = field(default_factory=GstSection)
    scatter2d: Scatter2dSection = field(default_factory=Scatter2dSection)
    gin: GinSection = field(default_factory=GinSection)
    sage: SageSection = field(default_factory=SageSection)
    run: RunSection = field(default_factory=RunSection)

    def validate(self) -> None:
        if self.run.seed is None:
            raise ConfigError("a seed is mandatory: pass --seed or set [run] seed")
        if not 0 < self.run.test_fraction < 1:
            raise ConfigError(f"test_fraction {self.run.test_fraction} not in (0,1)")
        if self.gin.readout not in ("sum", "mean"):
            raise ConfigError(f"[gin] readout {self.gin.readout!r} is not "
                              f"'sum' or 'mean'")

    def effective_threads(self) -> int:
        if self.run.threads and self.run.threads > 0:
            return self.run.threads
        env = os.environ.get("GEOSCATT_THREADS")
        if env:
            try:
                parsed = int(env)
            except ValueError:
                raise ConfigError(f"GEOSCATT_THREADS={env!r} is not an integer")
            if parsed > 0:
                return parsed
        return os.cpu_count() or 1

    def digest(self) -> str:
        parts = []
        for section_field in fields(self):
            section = getattr(self, section_field.name)
            for f in fields(section):
                parts.append(f"{section_field.name}.{f.name}="
                             f"{getattr(section, f.name)!r}")
        return hashlib.sha256("\n".join(sorted(parts)).encode()).hexdigest()[:16]


_SECTIONS = {
    "gst": GstSection,
    "scatter2d": Scatter2dSection,
    "gin": GinSection,
    "sage": SageSection,
    "run": RunSection,
}


def load_config(path=None) -> PipelineConfig:
    cfg = PipelineConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    for section_name, row in parser.items():
        if section_name == "DEFAULT":
            continue
        if section_name not in _SECTIONS:
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
