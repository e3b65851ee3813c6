"""The classifier zoo: nine kinds, grid search, persistence.

Each kind's facts have one home.  Its name is the class's ``kind``
attribute and its default hyperparameters are its constructor's
defaults; the ``_ZOO`` table names the class, the hyperparameters its
id carries, and a default one-axis tuning grid bracketing the defaults,
in ``KIND_ORDER``.  ``REGISTRY`` is derived from that table, and
``model_def`` is the one lookup that refuses an unknown kind.
``canonical_id`` encodes the kind plus the full resolved hyperparameter
set and is the stable model identity used in records, seeds, and reports.
"""

from __future__ import annotations

import inspect
import pickle
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..errors import ConfigError, TrainingError
from .base import Classifier, decide, derive_seed
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


# (class, the hyperparameters its canonical id carries, default grid), in KIND_ORDER
_ZOO = (
    (GradientBoostingModel, ("n_estimators", "learning_rate", "max_depth"),
     {"learning_rate": (0.005, 0.01, 0.02)}),
    (LogisticRegressionModel, ("C", "max_iter", "tol"), {"C": (0.01, 0.1, 1.0)}),
    (DecisionTreeModel, ("max_depth", "min_samples_split", "min_samples_leaf"), {"max_depth": (6, 12, 18)}),
    (RandomForestModel, ("n_estimators", "max_depth"), {"n_estimators": (100, 300, 500)}),
    (KNeighborsModel, ("n_neighbors",), {"n_neighbors": (3, 7, 11)}),
    (GaussianNBModel, ("var_smoothing",), {"var_smoothing": (1e-10, 1e-9, 1e-8)}),
    (LinearSVMModel, ("C", "max_iter"), {"C": (0.1, 1.0, 10.0)}),
    (MLPModel, ("hidden_units", "alpha", "max_iter"), {"hidden_units": (32, 69, 128)}),
    (KernelSVMModel, ("C", "gamma", "max_iter"), {"C": (0.1, 1.0, 10.0)}),
)


def _zoo_entry(cls, id_names, grid) -> ModelDef:
    params = inspect.signature(cls).parameters
    return ModelDef(cls.kind, cls, {name: params[name].default for name in id_names}, grid)


REGISTRY: dict[str, ModelDef] = {d.kind: d for d in (_zoo_entry(*row) for row in _ZOO)}

KIND_ORDER = tuple(REGISTRY)


def model_def(kind: str) -> ModelDef:
    """The zoo entry for ``kind``; the one place an unknown kind is refused."""
    if not isinstance(kind, str) or kind not in REGISTRY:
        raise ConfigError(f"unknown model kind {kind!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[kind]


@dataclass(frozen=True)
class ClassifierSpec:
    """A model kind plus its full resolved hyperparameters."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    @staticmethod
    def resolve(kind: str, overrides: Mapping[str, Any] | None = None) -> "ClassifierSpec":
        """Merge overrides onto the zoo defaults for ``kind``."""
        params = dict(model_def(kind).defaults)
        params.update(overrides or {})  # extra constructor knobs are allowed
        return ClassifierSpec(kind, params)

    @property
    def canonical_id(self) -> str:
        # semicolon-separated so the id never contains a CSV delimiter
        parts = ";".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))
        return f"{self.kind}({parts})"

    def build(self) -> Classifier:
        return model_def(self.kind).factory(**self.params)


def train(spec: ClassifierSpec, X, y, seed: int) -> Classifier:
    """Fit one classifier; deterministic in (spec, data, seed)."""
    model = spec.build()
    model.fit(X, y, seed=seed)
    model.spec = spec
    return model


def grid_combinations(kind: str, grid: Mapping[str, tuple] | None = None) -> list[ClassifierSpec]:
    """Cartesian product of the grid axes, in declared order."""
    axes = dict(grid) if grid else dict(model_def(kind).default_grid)
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
        acc = float((decide(scores) == val_y).mean())  # the accuracy of predict()
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
