"""Matrix-valued input tuples on a uniform time grid.

A signal holds ``m`` controlled channels of square ``n x n`` matrices sampled
at ``t_k = k h``, ``h = T/N``; channel 0 is the implicit drift, identically
the identity.  All nested quadrature in this package shares the signal grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "SignalError",
    "MatrixSignal",
    "stack_norm1",
    "ubar",
    "ubar_totals",
    "signal_norm",
    "trapezoid_prefix",
    "constant_signal",
    "spin_field",
    "random_smooth_signal",
    "signal_to_csv",
    "signal_from_csv",
    "SPIN_GENERATORS",
]


class SignalError(ValueError):
    """Malformed signal data (shapes, grids, files)."""


# real skew-symmetric stand-ins for the three spin generators
SPIN_GENERATORS = {
    "x": np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
    "y": np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    "z": np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
}


def stack_norm1(values: np.ndarray) -> np.ndarray:
    """Per-node max column absolute sum for a stack (..., n, n)."""
    return np.abs(values).sum(axis=-2).max(axis=-1)


def trapezoid_prefix(g: np.ndarray, h: float) -> np.ndarray:
    """Running composite-trapezoid integral along axis 0; result[0] = 0."""
    c = np.cumsum(g, axis=0)
    c -= 0.5 * (g + g[0])
    c *= h
    return c


def _check_horizon(horizon: float) -> None:
    if not (math.isfinite(horizon) and horizon > 0):
        raise SignalError(f"horizon must be finite and positive, got {horizon}")


@dataclass(frozen=True, eq=False)
class MatrixSignal:
    """Sampled input tuple u = (u_1, ..., u_m); u_0 is the implicit identity."""

    samples: np.ndarray  # (m, N+1, n, n)
    horizon: float

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 4 or s.shape[-1] != s.shape[-2]:
            raise SignalError(f"samples must be (m, N+1, n, n), got {s.shape}")
        if s.shape[1] < 2:
            raise SignalError("need at least N=1, i.e. two grid nodes")
        _check_horizon(self.horizon)
        if not np.all(np.isfinite(s)):
            raise SignalError("non-finite samples")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def m(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[-1]

    @property
    def num_steps(self) -> int:
        return self.samples.shape[1] - 1

    @property
    def h(self) -> float:
        return self.horizon / self.num_steps

    @cached_property
    def grid(self) -> np.ndarray:  # built once per signal, read-only
        grid = np.linspace(0.0, self.horizon, self.num_steps + 1)
        grid.setflags(write=False)
        return grid

    def channel(self, i: int) -> np.ndarray:
        """Sampled values of channel ``i``; channel 0 is the identity."""
        if i == 0:
            eye = np.eye(self.dim)
            return np.broadcast_to(eye, (self.num_steps + 1, self.dim, self.dim))
        if not 1 <= i <= self.m:
            raise SignalError(f"channel {i} outside alphabet x0..x{self.m}")
        return self.samples[i - 1]

    def scaled(self, factor: float) -> "MatrixSignal":
        return MatrixSignal(self.samples * factor, self.horizon)


def ubar(u: MatrixSignal) -> MatrixSignal:
    """Per-channel pointwise max-column-sum dominating signal, as 1x1 channels."""
    return MatrixSignal(stack_norm1(u.samples)[:, :, None, None], u.horizon)


def ubar_totals(u: MatrixSignal) -> np.ndarray:
    """[Ubar_0(T), ..., Ubar_m(T)]: the horizon T for the drift (u_0 = I has norm 1),
    then the trapezoid integral over [0, T] of each channel of :func:`ubar`; shape (m+1,)."""
    return np.concatenate(([u.horizon], trapezoid_prefix(stack_norm1(u.samples).T, u.h)[-1]))


def signal_norm(u: MatrixSignal) -> float:
    """max over channels of the trapezoidal L1-in-time integral (0 for none)."""
    return float(ubar_totals(u)[1:].max(initial=0.0))


# ---------------------------------------------------------------------------
# builders

def constant_signal(matrices: Sequence[np.ndarray] | np.ndarray,
                    horizon: float, num_steps: int) -> MatrixSignal:
    """Channels constant in time; a single matrix gives a one-channel signal."""
    arr = np.asarray(matrices, dtype=float)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[-1] != arr.shape[-2]:
        raise SignalError("expected one or more square matrices")
    samples = np.repeat(arr[:, None], num_steps + 1, axis=1)
    return MatrixSignal(samples, horizon)


def spin_field(b_magnitude: float, axis_schedule: str,
               horizon: float, num_steps: int) -> MatrixSignal:
    """Single channel U(t) = |B| * (a(t) . S) with real so(3) generators.

    ``axis_schedule`` is either a string of axis letters ('x', 'y', 'z'),
    each active on an equal subinterval of [0, T], or ``'rot'`` for a smooth
    axis rotating in the x-y plane over one full turn.
    """
    _check_horizon(horizon)  # before the schedule divides by it
    t = np.linspace(0.0, horizon, num_steps + 1)
    if axis_schedule == "rot":
        theta = 2.0 * math.pi * t / horizon
        direction = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(t)], axis=1)
    else:
        if not axis_schedule or any(c not in "xyz" for c in axis_schedule):
            raise SignalError(f"bad axis schedule {axis_schedule!r}")
        pieces = len(axis_schedule)
        idx = np.minimum((t / horizon * pieces).astype(int), pieces - 1)
        direction = np.eye(3)[["xyz".index(c) for c in axis_schedule]][idx]
    gens = np.stack([SPIN_GENERATORS["x"], SPIN_GENERATORS["y"], SPIN_GENERATORS["z"]])
    samples = b_magnitude * np.einsum("ta,aij->tij", direction, gens)
    return MatrixSignal(samples[None], horizon)


def random_smooth_signal(rng: np.random.Generator, m: int, dim: int,
                         horizon: float, num_steps: int,
                         amplitude: float = 1.0) -> MatrixSignal:
    """Random trigonometric channels of modes 0..2; smooth by construction."""
    t = np.linspace(0.0, horizon, num_steps + 1)
    samples = np.zeros((m, num_steps + 1, dim, dim))
    for i in range(m):
        acc = rng.standard_normal((dim, dim))[None] * np.ones_like(t)[:, None, None]
        for k in (1, 2):
            a = rng.standard_normal((dim, dim))
            b = rng.standard_normal((dim, dim))
            w = 2.0 * math.pi * k * t / horizon
            acc = acc + np.cos(w)[:, None, None] * a + np.sin(w)[:, None, None] * b
        samples[i] = acc
    scale = amplitude / max(1.0, np.abs(samples).max())
    return MatrixSignal(samples * scale, horizon)


# ---------------------------------------------------------------------------
# CSV I/O: header t,ch,a11,a12,...,ann ; one row per (time, channel)

def signal_to_csv(u: MatrixSignal, path: str) -> None:
    n = u.dim
    header = ["t", "ch"] + [f"a{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(1, u.m + 1):
            values = u.channel(i)
            for k, t in enumerate(u.grid):
                writer.writerow([repr(float(t)), i]
                                + [repr(float(v)) for v in values[k].ravel()])


def signal_from_csv(path: str) -> MatrixSignal:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["t", "ch"]:
            raise SignalError(f"bad CSV header in {path}")
        n = math.isqrt(len(header) - 2)
        if n * n != len(header) - 2:
            raise SignalError(f"CSV matrix columns are not a square count in {path}")
        rows: dict[int, list[tuple[float, np.ndarray]]] = {}
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise SignalError(f"ragged CSV row in {path}")
            t, ch = float(row[0]), int(row[1])
            mat = np.array([float(v) for v in row[2:]]).reshape(n, n)
            rows.setdefault(ch, []).append((t, mat))
    if not rows:
        raise SignalError(f"no samples in {path}")
    m = max(rows)
    if sorted(rows) != list(range(1, m + 1)):
        raise SignalError(f"missing channels in {path}")
    times = None
    samples = []
    for ch in range(1, m + 1):
        entries = sorted(rows[ch], key=lambda tv: tv[0])
        ts = np.array([t for t, _ in entries])
        if times is None:
            times = ts
            steps = np.diff(ts)
            if len(ts) < 2 or steps.min() <= 0 or \
                    not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise SignalError(f"grid in {path} is not uniform")
        elif ts.shape != times.shape or not np.allclose(ts, times):
            raise SignalError(f"channels in {path} disagree on the grid")
        samples.append(np.stack([mat for _, mat in entries]))
    assert times is not None
    return MatrixSignal(np.stack(samples), float(times[-1] - times[0]))
