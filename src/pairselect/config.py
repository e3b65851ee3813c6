"""YAML run-configuration loader.

The keys and their defaults are the fields of :class:`RunConfig`
(``split:`` holds its ``test_frac`` and ``val_frac``),
:class:`FeatureParams` (``features:``) and :class:`SyntheticSpec` (an
instrument's ``synthetic:``); the loader passes on only the keys a file
sets.  Everything except ``seed`` and ``instruments`` has a default.
Settings check themselves when built, so a bad value is the same
:class:`ConfigError` here as in code.  Each value must fit its field's
type by the rule grid values share (``errors.conform``): ``bool``,
``int`` and ``str`` fields take only that exact type; a ``float`` field
takes an int, a float or a numeric string (PyYAML reads ``1e-9`` as a
string), never a bool.
Each ``instruments:`` entry takes the keys ``symbol`` (a string), ``csv``
(a path string) and ``synthetic``, and needs exactly one of the last two.
Relative CSV paths resolve against the config file's directory.
"""

from __future__ import annotations

import typing
from pathlib import Path

import yaml

from .data import InstrumentSource, SyntheticSpec
from .errors import ConfigError, conform_all
from .features import FeatureParams
from .pipeline import RunConfig


def _construct(cls, values: dict, where):
    """``cls(**values)``, each value conformed to its field's declared type;
    a missing field fails in the constructor, as a :class:`ConfigError`."""
    try:
        return cls(**conform_all(typing.get_type_hints(cls), values, where))
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _mapping(doc: dict, key: str, where) -> dict:
    section = doc.get(key) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: {key!r} must be a mapping")
    return section


def _parse_source(entry, base: Path) -> InstrumentSource:
    if not isinstance(entry, dict) or not isinstance(entry.get("symbol"), str):
        raise ConfigError(f"instrument entry needs a string symbol: {entry!r}")
    where = f"instrument {entry['symbol']!r}"
    unknown = set(entry) - {"symbol", "csv", "synthetic"}
    if unknown:
        raise ConfigError(f"{where}: unknown instrument keys {sorted(unknown)}")
    csv_path = entry.get("csv")
    if csv_path is not None:
        if not isinstance(csv_path, str):
            raise ConfigError(f"{where}: 'csv' must be a path string, got {csv_path!r}")
        csv_path = Path(csv_path)
        if not csv_path.is_absolute():
            csv_path = base / csv_path
    synthetic = None
    if entry.get("synthetic") is not None:
        values = {"kind": "random_walk", **_mapping(entry, "synthetic", where)}
        synthetic = _construct(SyntheticSpec, values, f"{where} synthetic")
    return InstrumentSource(symbol=entry["symbol"], csv_path=csv_path, synthetic=synthetic)


def _parse_grids(doc: dict, where) -> dict:
    grids = _mapping(doc, "grids", where)
    for kind, axes in grids.items():
        if not isinstance(axes, dict) or not all(isinstance(v, list) for v in axes.values()):
            raise ConfigError(
                f"{where}: grid for model kind {kind!r} must map each parameter to a list of values"
            )
    return {kind: {k: tuple(v) for k, v in axes.items()} for kind, axes in grids.items()}


def load_config(
    path,
    seed_override: int | None = None,
    out_override=None,
    store_override=None,
) -> RunConfig:
    """Read a YAML config file into a :class:`RunConfig` (checked when built)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    base = path.parent

    known = {
        "seed", "out_dir", "store", "instruments", "features", "split",
        "models", "grids", "selection_mode", "short_on_down", "windows",
    }
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")

    seed = seed_override if seed_override is not None else doc.get("seed")
    if seed is None:
        raise ConfigError(f"{path}: a seed is required (config key 'seed' or --seed)")

    instruments = doc.get("instruments") or []
    if not isinstance(instruments, list):
        raise ConfigError(f"{path}: 'instruments' must be a list of instrument entries")
    sources = tuple(_parse_source(entry, base) for entry in instruments)

    out_dir = Path(out_override if out_override is not None else doc.get("out_dir", "out"))
    if not out_dir.is_absolute():
        out_dir = base / out_dir
    store = store_override if store_override is not None else doc.get("store")
    store_path = Path(store) if store is not None else out_dir / "record_store.csv"
    if not store_path.is_absolute():
        store_path = base / store_path

    features = _mapping(doc, "features", path)
    settings = {
        "sources": sources,
        "seed": seed,
        "out_dir": out_dir,
        "store_path": store_path,
        "features": _construct(FeatureParams, features, f"{path} features"),
        "grids": _parse_grids(doc, path),
    }
    split = _mapping(doc, "split", path)
    unknown = set(split) - {"test_frac", "val_frac"}
    if unknown:
        raise ConfigError(f"{path}: unknown split keys {sorted(unknown)}")
    settings.update(split)
    if "models" in doc:
        if not isinstance(doc["models"], list):
            raise ConfigError(f"{path}: 'models' must be a list of model kinds")
        settings["model_kinds"] = tuple(doc["models"])
    for key in ("selection_mode", "short_on_down", "windows"):
        if key in doc:
            settings[key] = doc[key]

    return _construct(RunConfig, settings, path)
