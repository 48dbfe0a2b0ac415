"""Dataset categorisation reproducing Table 3 of the paper.

Datasets are grouped by measurable characteristics that the evaluation then
aggregates over:

* **Wide** — series length > 1300 time-points;
* **Large** — more than 1000 instances (the dataset's *height*);
* **Unstable** — coefficient of variation (std over all values divided by
  their mean) > 1.08;
* **Imbalanced** — class imbalance ratio (largest class over smallest) >
  1.73;
* **Multiclass** — more than two class labels;
* **Common** — none of the above;
* **Univariate** / **Multivariate** — by variable count.

The CoV/CIR thresholds are the medians the paper derived from its twelve
datasets; length/height thresholds were set empirically (Section 5.4). All
are exposed as module constants so alternative groupings can be explored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..data.dataset import TimeSeriesDataset

__all__ = [
    "DatasetCategories",
    "categorize",
    "category_names",
    "canonical_categories",
    "categories_from_names",
    "scaled_thresholds",
    "PAPER_TABLE3",
    "WIDE_LENGTH_THRESHOLD",
    "LARGE_HEIGHT_THRESHOLD",
    "UNSTABLE_COV_THRESHOLD",
    "IMBALANCED_CIR_THRESHOLD",
]

WIDE_LENGTH_THRESHOLD = 1300
LARGE_HEIGHT_THRESHOLD = 1000
UNSTABLE_COV_THRESHOLD = 1.08
IMBALANCED_CIR_THRESHOLD = 1.73

_CATEGORY_ORDER = (
    "Wide",
    "Large",
    "Unstable",
    "Imbalanced",
    "Multiclass",
    "Common",
    "Univariate",
    "Multivariate",
)


@dataclass(frozen=True)
class DatasetCategories:
    """The Table 3 category flags of one dataset."""

    wide: bool
    large: bool
    unstable: bool
    imbalanced: bool
    multiclass: bool
    common: bool
    univariate: bool
    multivariate: bool

    def names(self) -> list[str]:
        """The category names this dataset belongs to, in Table 3 order."""
        flags = {
            "Wide": self.wide,
            "Large": self.large,
            "Unstable": self.unstable,
            "Imbalanced": self.imbalanced,
            "Multiclass": self.multiclass,
            "Common": self.common,
            "Univariate": self.univariate,
            "Multivariate": self.multivariate,
        }
        return [name for name in _CATEGORY_ORDER if flags[name]]


def category_names() -> tuple[str, ...]:
    """All category names in the order Table 3 lists them."""
    return _CATEGORY_ORDER


# Table 3 verbatim: the categories the paper assigns to its 12 datasets.
# Reduced-scale synthetic stand-ins keep these canonical assignments (their
# measured statistics reproduce them at scale=1.0; tests verify this).
PAPER_TABLE3: dict[str, tuple[str, ...]] = {
    "BasicMotions": ("Unstable", "Multiclass", "Multivariate"),
    "Biological": ("Imbalanced", "Multivariate"),
    "DodgerLoopDay": ("Multiclass", "Univariate"),
    "DodgerLoopGame": ("Common", "Univariate"),
    "DodgerLoopWeekend": ("Imbalanced", "Univariate"),
    "HouseTwenty": ("Wide", "Unstable", "Univariate"),
    "LSST": ("Large", "Unstable", "Imbalanced", "Multiclass", "Multivariate"),
    "Maritime": ("Large", "Unstable", "Imbalanced", "Multivariate"),
    "PickupGestureWiimoteZ": ("Multiclass", "Univariate"),
    "PLAID": (
        "Wide",
        "Large",
        "Unstable",
        "Imbalanced",
        "Multiclass",
        "Univariate",
    ),
    "PowerCons": ("Common", "Univariate"),
    "SharePriceIncrease": ("Large", "Unstable", "Imbalanced", "Univariate"),
}


def categories_from_names(names: Iterable[str]) -> DatasetCategories:
    """Rebuild a :class:`DatasetCategories` from its flag-name list."""
    names = set(names)
    return DatasetCategories(
        wide="Wide" in names,
        large="Large" in names,
        unstable="Unstable" in names,
        imbalanced="Imbalanced" in names,
        multiclass="Multiclass" in names,
        common="Common" in names,
        univariate="Univariate" in names,
        multivariate="Multivariate" in names,
    )


def canonical_categories(name: str) -> DatasetCategories | None:
    """Table 3 category flags for one of the paper's datasets, else None."""
    names = PAPER_TABLE3.get(name)
    return None if names is None else categories_from_names(names)


def scaled_thresholds(scale: float) -> tuple[int, int]:
    """The (wide, large) thresholds scaled with a reduced-size grid.

    Generated datasets shrink with ``scale``, so the length/height
    thresholds shrink with them (never below 2).
    """
    return (
        max(2, int(WIDE_LENGTH_THRESHOLD * scale)),
        max(2, int(LARGE_HEIGHT_THRESHOLD * scale)),
    )


def categorize(
    dataset: TimeSeriesDataset,
    wide_threshold: int = WIDE_LENGTH_THRESHOLD,
    large_threshold: int = LARGE_HEIGHT_THRESHOLD,
    unstable_threshold: float = UNSTABLE_COV_THRESHOLD,
    imbalanced_threshold: float = IMBALANCED_CIR_THRESHOLD,
) -> DatasetCategories:
    """Compute the Table 3 category flags for a dataset."""
    wide = dataset.length > wide_threshold
    large = dataset.n_instances > large_threshold
    unstable = dataset.coefficient_of_variation() > unstable_threshold
    imbalanced = dataset.class_imbalance_ratio() > imbalanced_threshold
    multiclass = dataset.n_classes > 2
    common = not (wide or large or unstable or imbalanced or multiclass)
    return DatasetCategories(
        wide=wide,
        large=large,
        unstable=unstable,
        imbalanced=imbalanced,
        multiclass=multiclass,
        common=common,
        univariate=dataset.is_univariate,
        multivariate=not dataset.is_univariate,
    )
