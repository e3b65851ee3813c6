"""The classifier zoo: nine registered kinds, grid search, persistence.

Every kind is registered with its default hyperparameters and a default
one-axis tuning grid bracketing those defaults.  ``canonical_id`` encodes
the kind plus the full resolved hyperparameter set and is the stable
model identity used in records, seeds, and reports.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..errors import ConfigError, TrainingError
from .base import Classifier, derive_seed
from .bayes import GaussianNBModel
from .linear import LinearSVMModel, LogisticRegressionModel
from .mlp import MLPModel
from .neighbors import KNeighborsModel
from .svm import KernelSVMModel
from .trees import DecisionTreeModel, GradientBoostingModel, RandomForestModel

_MODEL_FORMAT = "pairselect-model"
_MODEL_VERSION = 1


@dataclass(frozen=True)
class ModelDef:
    kind: str
    factory: type
    defaults: Mapping[str, Any]
    default_grid: Mapping[str, tuple]


REGISTRY: dict[str, ModelDef] = {}


def register(kind, factory, defaults, default_grid) -> None:
    """Add a model kind to the zoo; new kinds plug in through here."""
    if kind in REGISTRY:
        raise ConfigError(f"model kind {kind!r} already registered")
    REGISTRY[kind] = ModelDef(kind, factory, dict(defaults), dict(default_grid))


register(
    "gradient_boosting",
    GradientBoostingModel,
    {"n_estimators": 100, "learning_rate": 0.01, "max_depth": 12},
    {"learning_rate": (0.005, 0.01, 0.02)},
)
register(
    "logistic",
    LogisticRegressionModel,
    {"C": 0.1, "max_iter": 10_000, "tol": 1e-6},
    {"C": (0.01, 0.1, 1.0)},
)
register(
    "decision_tree",
    DecisionTreeModel,
    {"max_depth": 12, "min_samples_split": 6, "min_samples_leaf": 4},
    {"max_depth": (6, 12, 18)},
)
register(
    "random_forest",
    RandomForestModel,
    {"n_estimators": 500, "max_depth": 10},
    {"n_estimators": (100, 300, 500)},
)
register(
    "kneighbors",
    KNeighborsModel,
    {"n_neighbors": 7},
    {"n_neighbors": (3, 7, 11)},
)
register(
    "gaussian_nb",
    GaussianNBModel,
    {"var_smoothing": 1e-9},
    {"var_smoothing": (1e-10, 1e-9, 1e-8)},
)
register(
    "linear_svm",
    LinearSVMModel,
    {"C": 1.0, "max_iter": 10_000},
    {"C": (0.1, 1.0, 10.0)},
)
register(
    "mlp",
    MLPModel,
    {"hidden_units": 69, "alpha": 1e-4, "max_iter": 10_000},
    {"hidden_units": (32, 69, 128)},
)
register(
    "kernel_svm",
    KernelSVMModel,
    {"C": 1.0, "gamma": "scale", "max_iter": 5_000},
    {"C": (0.1, 1.0, 10.0)},
)

KIND_ORDER = tuple(REGISTRY)


@dataclass(frozen=True)
class ClassifierSpec:
    """A model kind plus its full resolved hyperparameters."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    @staticmethod
    def resolve(kind: str, overrides: Mapping[str, Any] | None = None) -> "ClassifierSpec":
        """Merge overrides onto the registry defaults for ``kind``."""
        if kind not in REGISTRY:
            raise ConfigError(f"unknown model kind {kind!r}; known: {sorted(REGISTRY)}")
        params = dict(REGISTRY[kind].defaults)
        params.update(overrides or {})  # extra constructor knobs are allowed
        return ClassifierSpec(kind, params)

    @property
    def canonical_id(self) -> str:
        # semicolon-separated so the id never contains a CSV delimiter
        parts = ";".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))
        return f"{self.kind}({parts})"

    def build(self) -> Classifier:
        return REGISTRY[self.kind].factory(**self.params)


def train(spec: ClassifierSpec, X, y, seed: int) -> Classifier:
    """Fit one classifier; deterministic in (spec, data, seed)."""
    model = spec.build()
    model.fit(X, y, seed=seed)
    model.spec = spec
    return model


def grid_combinations(kind: str, grid: Mapping[str, tuple] | None = None) -> list[ClassifierSpec]:
    """Cartesian product of the grid axes, in declared order."""
    if kind not in REGISTRY:
        raise ConfigError(f"unknown model kind {kind!r}; known: {sorted(REGISTRY)}")
    axes = dict(grid) if grid else dict(REGISTRY[kind].default_grid)
    combos: list[dict] = [{}]
    for name, values in axes.items():
        combos = [dict(c, **{name: v}) for c in combos for v in values]
    return [ClassifierSpec.resolve(kind, c) for c in combos]


@dataclass
class GridSearchResult:
    """The winner with its ``score_samples`` on the validation rows, kept so
    they are scored once, and the accuracy of their 0.5 threshold."""

    spec: ClassifierSpec
    model: Classifier
    validation_scores: np.ndarray
    validation_accuracy: float
    trials: list[tuple[str, float | None, str | None]]  # (canonical_id, accuracy, error)


def grid_search(
    kind: str,
    grid: Mapping[str, tuple] | None,
    learn_X,
    learn_y,
    val_X,
    val_y,
    seed_parts: tuple,
) -> GridSearchResult:
    """Train every grid combination on the learn set and keep the one with
    the best validation accuracy (ties go to the earliest combination).

    Each combination trains with its own seed derived from
    ``derive_seed(*seed_parts, canonical_id)`` so results cannot depend on
    evaluation order.
    """
    combos = grid_combinations(kind, grid)
    if not combos:
        raise ConfigError(f"empty grid for model kind {kind!r}")

    val_y = np.asarray(val_y)
    best: GridSearchResult | None = None
    trials: list[tuple[str, float | None, str | None]] = []
    for spec in combos:
        try:
            model = train(spec, learn_X, learn_y, seed=derive_seed(*seed_parts, spec.canonical_id))
        except TrainingError as exc:
            trials.append((spec.canonical_id, None, str(exc)))
            continue
        scores = model.score_samples(val_X)
        acc = float(((scores >= 0.5) == val_y).mean())  # the accuracy of predict()
        trials.append((spec.canonical_id, acc, None))
        if best is None or acc > best.validation_accuracy:
            best = GridSearchResult(spec, model, scores, acc, trials)
    if best is None:
        failures = "; ".join(f"{cid}: {err}" for cid, _, err in trials)
        raise TrainingError(f"every grid combination failed for {kind!r}: {failures}")
    return best


def save_model(model: Classifier, path) -> None:
    """Persist a trained classifier; round-trips predictions exactly.

    The file is a pickle of the whole model object, so it is only as safe
    to read back as its source is trusted (see ``load_model``).
    """
    payload = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "canonical_id": model.spec.canonical_id if hasattr(model, "spec") else None,
        "model": model,
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)


def load_model(path) -> Classifier:
    """Read a classifier written by ``save_model``.

    The file is unpickled, and unpickling can run arbitrary code: only
    load files this program wrote or that come from a trusted source.
    """
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != _MODEL_FORMAT:
        raise ConfigError(f"{path}: not a saved model file")
    if payload.get("version") != _MODEL_VERSION:
        raise ConfigError(f"{path}: unsupported model version {payload.get('version')!r}")
    return payload["model"]
