"""The Maritime dataset: vessel position signals around the port of Brest.

The paper (Section 5.3) derives 80,591 instances of 30 one-minute
time-points from the AIS trajectories of nine vessels near Brest, each
point carrying timestamp, ship id, longitude, latitude, speed, heading,
and course over ground (7 variables). A 30-minute interval is positive when
the vessel ends inside the Brest port polygon (15,467 positive vs 64,124
negative).

Offline stand-in: a kinematic simulator. Nine simulated vessels cruise in
the Brest roadstead; a fraction of intervals are *approaches*, where the
vessel steers toward the harbour and decelerates. The label is computed the
same way the paper computes it — a point-in-polygon test of the final
position against a (here, synthetic) port polygon — so positives emerge
from the kinematics, not from a label flag. The default size is scaled to
~1,600 intervals (still 'Large' under the scaled thresholds the benches
use); pass ``scale=50`` for the full published height.
"""

from __future__ import annotations

import math

import numpy as np

from ..data.dataset import TimeSeriesDataset
from .synthetic import scaled_count

__all__ = [
    "generate",
    "simulate_interval",
    "point_in_polygon",
    "PORT_POLYGON",
    "N_TIMEPOINTS",
]

N_TIMEPOINTS = 30
_BASE_INSTANCES = 1612  # 80591 / 50: the default laptop-scale height

# A convex polygon standing in for the Brest port area, in (lon, lat)
# degrees around the actual harbour location (-4.49, 48.38).
PORT_POLYGON = np.asarray(
    [
        (-4.52, 48.36),
        (-4.46, 48.36),
        (-4.44, 48.39),
        (-4.48, 48.41),
        (-4.53, 48.40),
    ]
)
_PORT_CENTER = PORT_POLYGON.mean(axis=0)


def point_in_polygon(point: np.ndarray, polygon: np.ndarray) -> bool:
    """Ray-casting point-in-polygon test (works for any simple polygon)."""
    x, y = float(point[0]), float(point[1])
    inside = False
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        if crosses and x < (x2 - x1) * (y - y1) / (y2 - y1) + x1:
            inside = not inside
    return inside


def simulate_interval(
    rng: np.random.Generator,
    ship_id: int,
    start_minute: float,
    approach: bool,
    n_timepoints: int = N_TIMEPOINTS,
) -> tuple[np.ndarray, int]:
    """Simulate one 30-minute interval; returns ``(series, label)``.

    ``series`` has shape ``(7, n_timepoints)`` with rows (timestamp,
    ship id, longitude, latitude, speed, heading, course over ground).
    """
    # Start somewhere in the roadstead, within ~0.15 degrees of the port.
    radius = rng.uniform(0.04, 0.15)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    position = _PORT_CENTER + radius * np.asarray(
        [np.cos(angle), np.sin(angle)]
    )
    speed_knots = rng.uniform(6.0, 16.0)
    heading = rng.uniform(0.0, 360.0)
    series = np.empty((7, n_timepoints))
    degrees_per_knot_minute = 1.0 / 60.0 / 60.0 * 1.852 / 1.11  # ~deg/min

    for t in range(n_timepoints):
        if approach:
            # Steer toward the port centre and slow down when close.
            to_port = _PORT_CENTER - position
            target_heading = float(
                np.degrees(np.arctan2(to_port[0], to_port[1])) % 360.0
            )
            turn = ((target_heading - heading + 180.0) % 360.0) - 180.0
            heading = (heading + min(max(turn, -25.0), 25.0)) % 360.0
            distance = math.sqrt(to_port.dot(to_port))
            if distance < 0.05:
                speed_knots = max(speed_knots * 0.88, 1.0)
            # Approaching vessels push harder toward the harbour.
            speed_knots = min(speed_knots * 1.02, 18.0)
        else:
            heading = (heading + rng.normal(0.0, 8.0)) % 360.0
            speed_knots = min(
                max(speed_knots + rng.normal(0.0, 0.5), 2.0), 20.0
            )
        step = speed_knots * degrees_per_knot_minute * 6.0
        direction = np.asarray(
            [np.sin(np.radians(heading)), np.cos(np.radians(heading))]
        )
        position = position + step * direction + rng.normal(0.0, 2e-4, 2)
        course = (heading + rng.normal(0.0, 3.0)) % 360.0
        series[0, t] = start_minute + t
        series[1, t] = ship_id
        series[2, t] = position[0]
        series[3, t] = position[1]
        series[4, t] = speed_knots
        series[5, t] = heading
        series[6, t] = course
    label = int(point_in_polygon(position, PORT_POLYGON))
    return series, label


def generate(
    scale: float = 1.0,
    seed: int = 0,
    n_timepoints: int = N_TIMEPOINTS,
    n_ships: int = 9,
) -> TimeSeriesDataset:
    """Generate the Maritime dataset (~1,612 x 7 x 30 at ``scale=1``).

    Roughly 19% of intervals are approaches that end inside the port
    polygon, matching the published imbalance; the exact ratio fluctuates
    because labels come from the simulated kinematics.
    """
    rng = np.random.default_rng(seed)
    n_instances = scaled_count(_BASE_INSTANCES, scale, minimum=60)
    values = np.empty((n_instances, 7, n_timepoints))
    labels = np.empty(n_instances, dtype=int)
    for i in range(n_instances):
        ship_id = int(rng.integers(0, n_ships))
        # Approaches overshoot 19% because some fail to arrive in time.
        approach = bool(rng.random() < 0.26)
        values[i], labels[i] = simulate_interval(
            rng, ship_id, start_minute=float(i * n_timepoints), approach=approach
        )
    if len(np.unique(labels)) < 2:
        # Ensure both classes exist even at tiny scales.
        forced = np.random.default_rng(seed + 1)
        while labels[0] == labels[1]:
            values[0], labels[0] = simulate_interval(
                forced, 0, 0.0, approach=labels[1] == 0
            )
    return TimeSeriesDataset(
        values, labels, name="Maritime", frequency_seconds=60.0
    )
