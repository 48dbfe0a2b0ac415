"""Early time-series classification algorithms evaluated by the framework."""

from .ecec import ECEC
from .economy_k import EconomyK
from .ects import ECTS
from .edsc import EDSC, Shapelet
from .extensions import FixedPrefix, MoriSR
from .moo import ConfigurationPoint, MultiObjectiveETSC, pareto_front
from .sprt import SPRTClassifier
from .strut import STRUT, s_mini, s_mlstm, s_weasel
from .teaser import TEASER
from .tsmote import TSMOTEWrapper, temporal_smote

__all__ = [
    "ECEC",
    "EconomyK",
    "ECTS",
    "EDSC",
    "Shapelet",
    "FixedPrefix",
    "MoriSR",
    "ConfigurationPoint",
    "MultiObjectiveETSC",
    "pareto_front",
    "TSMOTEWrapper",
    "temporal_smote",
    "SPRTClassifier",
    "STRUT",
    "s_mini",
    "s_mlstm",
    "s_weasel",
    "TEASER",
]
