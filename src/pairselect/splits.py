"""Chronological learn / validation / test partitioning.

Parts are contiguous and ordered in time: the newest samples form the
test part, the newest slice of the remainder forms the validation part,
and everything older is the learn part.  Part sizes are rounded half
away from zero; the learn part absorbs the remainder.  Nothing is ever
shuffled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

DEFAULT_TEST_FRAC = 0.05
DEFAULT_VAL_FRAC = 0.10


def round_half_away(x: float) -> int:
    """Round to the nearest integer with halves going away from zero."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


@dataclass(frozen=True)
class SplitView:
    """Index ranges of one chronological partition of a dataset."""

    learn: range
    validation: range
    test: range

    @property
    def sizes(self) -> tuple[int, int, int]:
        return len(self.learn), len(self.validation), len(self.test)


def check_fractions(**fractions: float) -> None:
    """Refuse any named split fraction outside the open interval (0, 1)."""
    for name, value in fractions.items():
        if not 0.0 < value < 1.0:
            raise ConfigError(f"{name} must lie in (0, 1), got {value}")


def _learn_val_frac(history_end: int, val_frac: float) -> tuple[range, range]:
    n_val = round_half_away(val_frac * history_end)
    return range(0, history_end - n_val), range(history_end - n_val, history_end)


def chronological_split(
    n_samples: int,
    test_frac: float = DEFAULT_TEST_FRAC,
    val_frac: float = DEFAULT_VAL_FRAC,
) -> SplitView:
    """Split ``n_samples`` chronologically into learn/validation/test ranges.

    The newest ``round(test_frac * n)`` samples are the test part; of the
    remaining history the newest ``round(val_frac * history)`` samples are
    the validation part.  Raises :class:`ConfigError` when any part would
    be empty, naming the minimum dataset size that works.
    """
    views = walk_forward_plan(n_samples, 1, test_frac=test_frac, val_frac=val_frac)
    return views[0]


def walk_forward_plan(
    n_samples: int,
    n_windows: int,
    test_frac: float = DEFAULT_TEST_FRAC,
    val_frac: float = DEFAULT_VAL_FRAC,
) -> list[SplitView]:
    """Plan ``n_windows`` consecutive walk-forward windows over ``n_samples``.

    Each window's test segment has ``round(test_frac * n)`` samples; the
    segments tile the newest part of the timeline back to back, ending at
    the last sample.  Window ``w`` may learn only from samples older than
    its own test segment, with the newest ``val_frac`` share of that
    history reserved for validation.  All feasibility checks happen here,
    before any training work.
    """
    if n_windows < 1:
        raise ConfigError(f"n_windows must be >= 1, got {n_windows}")
    check_fractions(test_frac=test_frac, val_frac=val_frac)

    n_test = round_half_away(test_frac * n_samples)
    views = []
    for w in range(n_windows):
        test_end = n_samples - (n_windows - 1 - w) * n_test
        test_start = test_end - n_test
        learn, validation = _learn_val_frac(test_start, val_frac)
        views.append(SplitView(learn, validation, range(test_start, test_end)))

    first = views[0]
    if min(first.sizes) < 1:
        minimum = min_dataset_size(n_windows, test_frac=test_frac, val_frac=val_frac)
        raise ConfigError(
            f"{n_samples} samples cannot be split into {n_windows} window(s) "
            f"with test_frac={test_frac}, val_frac={val_frac}; "
            f"need at least {minimum} samples"
        )
    return views


def learn_validation_split(n_samples: int, val_frac: float = DEFAULT_VAL_FRAC) -> tuple[range, range]:
    """Split all samples into learn/validation only (no test holdout)."""
    check_fractions(val_frac=val_frac)
    learn, validation = _learn_val_frac(n_samples, val_frac)
    if len(learn) < 1 or len(validation) < 1:
        raise ConfigError(f"{n_samples} samples cannot support a learn/validation split")
    return learn, validation


def min_dataset_size(
    n_windows: int = 1,
    test_frac: float = DEFAULT_TEST_FRAC,
    val_frac: float = DEFAULT_VAL_FRAC,
    search_limit: int = 100_000,
) -> int:
    """Smallest sample count for which the walk-forward plan is feasible."""
    for n in range(3, search_limit):
        n_test = round_half_away(test_frac * n)
        if n_test < 1:
            continue
        earliest_test_start = n - n_windows * n_test
        learn, validation = _learn_val_frac(earliest_test_start, val_frac)
        if len(learn) >= 1 and len(validation) >= 1:
            return n
    raise ConfigError(
        f"no feasible dataset size below {search_limit} for "
        f"n_windows={n_windows}, test_frac={test_frac}, val_frac={val_frac}"
    )
