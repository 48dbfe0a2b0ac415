"""Symbolic and windowing transforms (SFA, bag-of-patterns, prefixes)."""

from .bop import BagOfPatterns
from .sfa import SFATransformer, fourier_coefficients
from .windows import extract_windows, prefix_lengths, window_lengths

__all__ = [
    "BagOfPatterns",
    "SFATransformer",
    "fourier_coefficients",
    "extract_windows",
    "prefix_lengths",
    "window_lengths",
]
