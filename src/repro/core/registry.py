"""Algorithm and dataset registries — the extensibility surface (Sec. 5.5).

The paper's framework lets users drop in new algorithms and datasets; here
registration is explicit. A registered algorithm is a factory of
:class:`~repro.core.base.EarlyClassifier` instances plus the metadata that
Table 2 reports (category, multivariate support, implementation language —
always Python here). A registered dataset is a factory returning a
:class:`~repro.data.dataset.TimeSeriesDataset`.

The default registry (populated by :func:`default_algorithms` /
:func:`default_datasets`) holds every algorithm and dataset of the paper's
empirical comparison, so a bench or the CLI can iterate the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..data.dataset import TimeSeriesDataset
from ..exceptions import ConfigurationError, RegistryError
from .base import EarlyClassifier

__all__ = [
    "AlgorithmInfo",
    "AlgorithmRegistry",
    "DatasetRegistry",
    "check_names",
    "default_algorithms",
    "default_datasets",
]


@dataclass(frozen=True)
class AlgorithmInfo:
    """Metadata of a registered algorithm (the rows of Table 2)."""

    name: str
    factory: Callable[[], EarlyClassifier] = field(repr=False)
    category: str = "miscellaneous"  # model/prefix/shapelet-based, ...
    supports_multivariate: bool = False
    early: bool = True
    language: str = "Python"


class AlgorithmRegistry:
    """Name-keyed registry of early-classification algorithms."""

    def __init__(self) -> None:
        self._algorithms: dict[str, AlgorithmInfo] = {}

    def register(
        self,
        name: str,
        factory: Callable[[], EarlyClassifier],
        category: str = "miscellaneous",
        supports_multivariate: bool = False,
        early: bool = True,
    ) -> AlgorithmInfo:
        """Add an algorithm; duplicate names are rejected."""
        if name in self._algorithms:
            raise RegistryError(f"algorithm {name!r} already registered")
        info = AlgorithmInfo(
            name=name,
            factory=factory,
            category=category,
            supports_multivariate=supports_multivariate,
            early=early,
        )
        self._algorithms[name] = info
        return info

    def get(self, name: str) -> AlgorithmInfo:
        """Look up one algorithm by name."""
        try:
            return self._algorithms[name]
        except KeyError:
            known = ", ".join(sorted(self._algorithms))
            raise RegistryError(
                f"unknown algorithm {name!r}; known: {known}"
            ) from None

    def names(self) -> list[str]:
        """Registered algorithm names in registration order."""
        return list(self._algorithms)

    def __contains__(self, name: str) -> bool:
        return name in self._algorithms

    def __iter__(self):
        return iter(self._algorithms.values())

    def __len__(self) -> int:
        return len(self._algorithms)


class DatasetRegistry:
    """Name-keyed registry of dataset factories."""

    def __init__(self) -> None:
        self._datasets: dict[str, Callable[[], TimeSeriesDataset]] = {}

    def register(
        self, name: str, factory: Callable[[], TimeSeriesDataset]
    ) -> None:
        """Add a dataset factory; duplicate names are rejected."""
        if name in self._datasets:
            raise RegistryError(f"dataset {name!r} already registered")
        self._datasets[name] = factory

    def load(self, name: str) -> TimeSeriesDataset:
        """Build the named dataset."""
        try:
            factory = self._datasets[name]
        except KeyError:
            known = ", ".join(sorted(self._datasets))
            raise RegistryError(
                f"unknown dataset {name!r}; known: {known}"
            ) from None
        return factory()

    def names(self) -> list[str]:
        """Registered dataset names in registration order."""
        return list(self._datasets)

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def __len__(self) -> int:
        return len(self._datasets)


def check_names(
    algorithms: AlgorithmRegistry,
    datasets: DatasetRegistry,
    algorithm_names: Iterable[str],
    dataset_names: Iterable[str],
) -> None:
    """Fail fast on a name neither registry knows.

    Raises :class:`~repro.exceptions.ConfigurationError` listing the
    unknown names and every registered one; the grid runner and the
    scenario replays call it before any work starts.
    """
    for kind, names, registry in (
        ("algorithm", algorithm_names, algorithms),
        ("dataset", dataset_names, datasets),
    ):
        unknown = [
            name for name in dict.fromkeys(names) if name not in registry
        ]
        if unknown:
            raise ConfigurationError(
                f"unknown {kind} name(s): {', '.join(unknown)} "
                f"(registered: {', '.join(registry.names())})"
            )


def default_algorithms(fast: bool = True) -> AlgorithmRegistry:
    """The paper's eight evaluated algorithms, paper-default parameters.

    ``fast=True`` shrinks budget-style parameters (checkpoints, epochs,
    kernel counts) so the full evaluation grid runs at laptop scale; the
    algorithmic structure is unchanged. ``fast=False`` uses the Table 4
    settings directly.
    """
    from ..etsc.ecec import ECEC
    from ..etsc.economy_k import EconomyK
    from ..etsc.ects import ECTS
    from ..etsc.edsc import EDSC
    from ..etsc.strut import s_mini, s_mlstm, s_weasel
    from ..etsc.teaser import TEASER

    registry = AlgorithmRegistry()
    if fast:
        registry.register(
            "ECEC",
            lambda: ECEC(n_prefixes=10, n_folds=3),
            category="model-based",
        )
        registry.register(
            "ECO-K",
            # The paper's k grid {1,2,3} triples training; the fast profile
            # fixes k=2 to keep ECO-K in its published "time-effective" band.
            lambda: EconomyK(
                n_clusters=2, n_checkpoints=8, n_estimators=10
            ),
            category="model-based",
        )
        registry.register("ECTS", lambda: ECTS(), category="prefix-based")
        registry.register(
            "EDSC",
            lambda: EDSC(n_lengths=2, stride=2, max_shapelets=25),
            category="shapelet-based",
        )
        registry.register(
            "TEASER", lambda: TEASER(n_prefixes=8), category="prefix-based"
        )
        registry.register(
            "S-MINI",
            lambda: s_mini(n_features=500),
            category="selective-truncation",
            supports_multivariate=True,
        )
        registry.register(
            "S-WEASEL",
            lambda: s_weasel(),
            category="selective-truncation",
            supports_multivariate=True,
        )
        registry.register(
            "S-MLSTM",
            lambda: s_mlstm(n_epochs=10),
            category="selective-truncation",
            supports_multivariate=True,
        )
        return registry
    registry.register(
        "ECEC", lambda: ECEC(n_prefixes=20), category="model-based"
    )
    registry.register("ECO-K", lambda: EconomyK(), category="model-based")
    registry.register("ECTS", lambda: ECTS(support=0), category="prefix-based")
    registry.register(
        "EDSC",
        lambda: EDSC(k=3.0, min_length=5, n_lengths=None, stride=1),
        category="shapelet-based",
    )
    registry.register(
        "TEASER", lambda: TEASER(n_prefixes=20), category="prefix-based"
    )
    registry.register(
        "S-MINI",
        lambda: s_mini(n_features=10000),
        category="selective-truncation",
        supports_multivariate=True,
    )
    registry.register(
        "S-WEASEL",
        lambda: s_weasel(),
        category="selective-truncation",
        supports_multivariate=True,
    )
    registry.register(
        "S-MLSTM",
        lambda: s_mlstm(n_epochs=30, lstm_units=None),
        category="selective-truncation",
        supports_multivariate=True,
    )
    return registry


def default_datasets(scale: float = 1.0, seed: int = 0) -> DatasetRegistry:
    """The paper's twelve datasets (synthetic stand-ins; see DESIGN.md).

    ``scale`` shrinks instance counts (and, for the widest sets, lengths)
    uniformly so the grid stays tractable; 1.0 keeps the generator
    defaults, which are themselves laptop-scale versions of the published
    sizes. Dataset *shape* statistics (class counts, imbalance, CoV
    category) are preserved by construction.
    """
    from ..datasets import biological, maritime, ucr

    registry = DatasetRegistry()
    registry.register(
        "Biological", lambda: biological.generate(scale=scale, seed=seed)
    )
    registry.register(
        "Maritime", lambda: maritime.generate(scale=scale, seed=seed)
    )
    for name in ucr.DATASET_NAMES:
        registry.register(
            name,
            lambda name=name: ucr.generate(name, scale=scale, seed=seed),
        )
    return registry
