"""Synthetic stand-ins for the ten UEA & UCR datasets of the paper.

Offline, the UEA & UCR archive is unavailable; each of the ten selected
datasets is replaced by a seeded generator that matches the published shape
(instances x variables x length), class count, class-imbalance ratio band,
and coefficient-of-variation band — the statistics that drive the paper's
Table 3 categorisation — while planting class-dependent temporal structure
of the corresponding flavour (accelerometer bursts, traffic profiles,
appliance pulse trains, astronomical transients, current waveforms,
consumption profiles, price returns).

``generate(name, scale=...)`` shrinks instance counts and, for the widest
sets, lengths by the same factor; category checks at reduced scale must use
proportionally scaled Wide/Large thresholds (the benches do).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.dataset import TimeSeriesDataset
from ..exceptions import RegistryError
from .synthetic import (
    allocate_labels,
    daily_profile,
    linear_trend,
    oscillation,
    pulse_train,
    scaled_count,
    transient_burst,
)

__all__ = ["generate", "DATASET_NAMES", "dataset_spec", "DatasetSpec"]


@dataclass(frozen=True)
class DatasetSpec:
    """Published shape of one UCR dataset plus its builder."""

    name: str
    height: int
    length: int
    n_classes: int
    n_variables: int
    class_weights: tuple[float, ...]
    frequency_seconds: float
    scale_length: bool  # shrink the length together with the height?
    builder: Callable[[int, np.random.Generator, int, int], np.ndarray]


# ---------------------------------------------------------------------------
# Builders: (label, rng, length, n_variables) -> array (n_variables, length)
# ---------------------------------------------------------------------------

def _basic_motions(label: int, rng: np.random.Generator, length: int, n_variables: int) -> np.ndarray:
    """Accelerometer/gyroscope-style activity signals (4 activities).

    Per-instance amplitude and frequency jitter models subject-to-subject
    variation: classes stay separable by frequency band, but no two
    instances share an exact template (as in the real recordings).
    """
    frequencies = (0.05, 0.35, 0.8, 0.5)[label] * rng.uniform(0.85, 1.15)
    amplitudes = (0.15, 1.2, 3.0, 2.0)[label] * rng.uniform(0.7, 1.3)
    series = np.empty((n_variables, length))
    for v in range(n_variables):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        base = oscillation(
            length, frequencies * (1.0 + 0.1 * v), amplitudes, phase, rng, 0.3
        )
        if label == 3:  # racket sport: add swing bursts
            base += pulse_train(length, 4, 6, 4.0, rng)
        series[v] = base
    return series


def _dodger_profile(label_peaks: list[tuple[float, float, float]], rng: np.random.Generator, length: int) -> np.ndarray:
    """Positive traffic-count profile with day-to-day variation.

    Peak positions drift and heights scale per instance (weather, events),
    so same-class days are similar in shape but never near-duplicates.
    """
    # Scalar draws spelled out: ``lo + (hi - lo) * rng.random()`` is
    # bitwise ``rng.uniform(lo, hi)`` and ``s * rng.standard_normal()`` is
    # ``rng.normal(0.0, s)``, at a fraction of the call cost.
    day_scale = 0.75 + (1.25 - 0.75) * rng.random()
    jittered = [
        (
            position + 0.02 * rng.standard_normal(),
            width * (0.85 + (1.15 - 0.85) * rng.random()),
            height * day_scale * (0.85 + (1.15 - 0.85) * rng.random()),
        )
        for position, width, height in label_peaks
    ]
    profile = daily_profile(
        length, jittered, base=12.0 * (0.8 + (1.2 - 0.8) * rng.random())
    )
    noisy = profile + rng.normal(0.0, 1.5, size=length)
    return np.maximum(noisy, 0.0)


def _dodger_loop_day(label: int, rng: np.random.Generator, length: int, n_variables: int) -> np.ndarray:
    """Traffic counts; the seven classes are days of the week."""
    weekday = label < 5
    morning = 0.28 + 0.01 * label
    evening = 0.72 - 0.008 * label
    peaks = [
        (morning, 0.05, 28.0 if weekday else 10.0),
        (evening, 0.06, 24.0 if weekday else 14.0 + 2.0 * (label - 5)),
        (0.5, 0.2, 6.0 + label),
    ]
    return _dodger_profile(peaks, rng, length)[None, :]


def _dodger_loop_game(label: int, rng: np.random.Generator, length: int, n_variables: int) -> np.ndarray:
    """Game days add a pre-game spike on top of the normal profile."""
    peaks = [(0.3, 0.05, 25.0), (0.7, 0.06, 22.0)]
    if label == 1:
        peaks.append((0.55, 0.03, 30.0))
    return _dodger_profile(peaks, rng, length)[None, :]


def _dodger_loop_weekend(label: int, rng: np.random.Generator, length: int, n_variables: int) -> np.ndarray:
    """Weekends (minority class) lack the weekday commuter peaks."""
    if label == 0:  # weekday
        peaks = [(0.3, 0.05, 27.0), (0.7, 0.06, 23.0)]
    else:  # weekend
        peaks = [(0.5, 0.15, 15.0)]
    return _dodger_profile(peaks, rng, length)[None, :]


def _house_twenty(label: int, rng: np.random.Generator, length: int, n_variables: int) -> np.ndarray:
    """Household electricity: appliance on/off pulses over a small base."""
    n_pulses = int((6 if label == 0 else 14) * rng.uniform(0.8, 1.2))
    level = (2200.0 if label == 0 else 900.0) * rng.uniform(0.8, 1.2)
    width = max(length // 40, 2)
    series = pulse_train(
        length, n_pulses, width, level, rng, base=60.0, jitter=0.3
    )
    series += rng.normal(0.0, 12.0, size=length)
    return np.maximum(series, 0.0)[None, :]


def _lsst(label: int, rng: np.random.Generator, length: int, n_variables: int) -> np.ndarray:
    """Astronomical transients: class-dependent rise/decay per passband."""
    center = length * (0.25 + 0.04 * (label % 5)) + rng.normal(0.0, 1.5)
    rise = 1.0 + 0.35 * (label % 4)
    decay = 2.0 + 0.8 * (label % 7)
    series = np.empty((n_variables, length))
    for v in range(n_variables):
        band_gain = 0.5 + 0.25 * v + 0.05 * ((label * (v + 1)) % 6)
        amplitude = (
            band_gain * (40.0 + 12.0 * (label % 3)) * rng.uniform(0.6, 1.4)
        )
        series[v] = transient_burst(length, center, rise, decay, amplitude)
        series[v] += rng.normal(0.0, 2.5, size=length)
    return series


def _pickup_gesture(label: int, rng: np.random.Generator, length: int, n_variables: int) -> np.ndarray:
    """Wiimote z-acceleration gestures: bump trains per gesture class."""
    n_bumps = 1 + label % 5
    direction = 1.0 if label < 5 else -1.0
    series = np.full(length, 2.0 + rng.normal(0.0, 0.1))
    spacing = length / (n_bumps + 1)
    gesture_scale = rng.uniform(0.7, 1.4)
    for bump in range(n_bumps):
        center = spacing * (bump + 1) + rng.normal(0.0, 4.0)
        width = (4.0 + (label % 3)) * rng.uniform(0.8, 1.25)
        series += direction * 1.5 * gesture_scale * np.exp(
            -((np.arange(length) - center) ** 2) / (2.0 * width**2)
        )
    series += rng.normal(0.0, 0.15, size=length)
    return series[None, :]


def _plaid(label: int, rng: np.random.Generator, length: int, n_variables: int) -> np.ndarray:
    """Appliance current: harmonics + on/off envelope per appliance class."""
    t = np.arange(length, dtype=float)
    fundamental = (0.35 + 0.015 * label) * rng.uniform(0.97, 1.03)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    waveform = np.sin(fundamental * t + phase)
    waveform += (0.2 + 0.05 * (label % 4)) * np.sin(3 * (fundamental * t + phase))
    waveform += (0.1 + 0.04 * (label % 3)) * np.sin(5 * (fundamental * t + phase))
    envelope = pulse_train(
        length, 1 + label % 3, max(length // 4, 4), 1.0, rng, jitter=0.1
    )
    series = (6.0 + label) * rng.uniform(0.7, 1.3) * waveform * envelope
    series += rng.normal(0.0, 0.2, size=length)
    return series[None, :]


def _power_cons(label: int, rng: np.random.Generator, length: int, n_variables: int) -> np.ndarray:
    """Household consumption: warm vs cold season daily profiles."""
    household = rng.uniform(0.7, 1.3)  # per-instance household size proxy
    if label == 0:  # warm season: single evening peak
        peaks = [(0.75 + rng.normal(0.0, 0.02), 0.08, 8.0 * household)]
    else:  # cold season: morning and evening heating peaks
        peaks = [
            (0.3 + rng.normal(0.0, 0.02), 0.07, 9.0 * household),
            (0.78 + rng.normal(0.0, 0.02), 0.08, 11.0 * household),
        ]
    series = daily_profile(length, peaks, base=6.0 * household)
    series += rng.normal(0.0, 0.8, size=length)
    return np.maximum(series, 0.0)[None, :]


def _share_price(label: int, rng: np.random.Generator, length: int, n_variables: int) -> np.ndarray:
    """Daily returns; the minority class develops a late upward drift."""
    returns = rng.normal(0.0, 1.0, size=length)
    if label == 1:
        returns += linear_trend(length, slope=0.05, onset=0.4)
    return returns[None, :]


# ---------------------------------------------------------------------------
# Published shapes (height x length, classes, variables) per dataset
# ---------------------------------------------------------------------------

_SPECS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            "BasicMotions", 80, 100, 4, 6, (1, 1, 1, 1), 0.1, False,
            _basic_motions,
        ),
        DatasetSpec(
            "DodgerLoopDay", 158, 288, 7, 1, (1,) * 7, 300.0, False,
            _dodger_loop_day,
        ),
        DatasetSpec(
            "DodgerLoopGame", 158, 288, 2, 1, (1, 1), 300.0, False,
            _dodger_loop_game,
        ),
        DatasetSpec(
            "DodgerLoopWeekend", 158, 288, 2, 1, (5, 2), 300.0, False,
            _dodger_loop_weekend,
        ),
        DatasetSpec(
            "HouseTwenty", 159, 2000, 2, 1, (1, 1), 8.0, True, _house_twenty
        ),
        DatasetSpec(
            "LSST", 4925, 36, 14, 6,
            tuple(30.0 / (1.0 + i) + 1.0 for i in range(14)),
            86400.0, False, _lsst,
        ),
        DatasetSpec(
            "PickupGestureWiimoteZ", 100, 361, 10, 1, (1,) * 10, 0.1, False,
            _pickup_gesture,
        ),
        DatasetSpec(
            "PLAID", 1074, 1345, 11, 1,
            tuple(18.0 / (1.0 + i) + 1.0 for i in range(11)),
            0.033, True, _plaid,
        ),
        DatasetSpec(
            "PowerCons", 360, 144, 2, 1, (1, 1), 3600.0, False, _power_cons
        ),
        DatasetSpec(
            "SharePriceIncrease", 1931, 60, 2, 1, (2.7, 1.0), 86400.0, False,
            _share_price,
        ),
    ]
}

DATASET_NAMES: tuple[str, ...] = tuple(_SPECS)


def dataset_spec(name: str) -> DatasetSpec:
    """Published shape/metadata of one dataset stand-in."""
    try:
        return _SPECS[name]
    except KeyError:
        known = ", ".join(DATASET_NAMES)
        raise RegistryError(f"unknown dataset {name!r}; known: {known}") from None


def generate(name: str, scale: float = 1.0, seed: int = 0) -> TimeSeriesDataset:
    """Generate a UCR stand-in dataset at the given scale.

    ``scale=1`` reproduces the published height and length; smaller values
    shrink the height (and, for 'Wide' sets, the length) proportionally
    while preserving class structure and imbalance.
    """
    spec = dataset_spec(name)
    # crc32, not hash(): str hashing is randomised per process, which
    # would make "same seed" runs irreproducible across invocations.
    rng = np.random.default_rng(seed + zlib.crc32(name.encode()) % 100000)
    height = scaled_count(spec.height, scale, minimum=4 * spec.n_classes)
    length = (
        scaled_count(spec.length, scale, minimum=30)
        if spec.scale_length
        else spec.length
    )
    labels = allocate_labels(height, list(spec.class_weights), rng)
    values = np.empty((height, spec.n_variables, length))
    for i, label in enumerate(labels):
        values[i] = spec.builder(int(label), rng, length, spec.n_variables)
    return TimeSeriesDataset(
        values,
        labels,
        name=name,
        frequency_seconds=spec.frequency_seconds,
    )
