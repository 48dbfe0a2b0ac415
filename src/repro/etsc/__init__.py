"""Early time-series classification algorithms evaluated by the framework."""

from .ecec import ECEC
from .economy_k import EconomyK
from .ects import ECTS
from .edsc import EDSC, Shapelet
from .strut import STRUT, s_mini, s_mlstm, s_weasel
from .teaser import TEASER

__all__ = [
    "ECEC",
    "EconomyK",
    "ECTS",
    "EDSC",
    "Shapelet",
    "STRUT",
    "s_mini",
    "s_mlstm",
    "s_weasel",
    "TEASER",
]
