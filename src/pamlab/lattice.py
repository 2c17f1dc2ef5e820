"""Finite centered cubes of Z^m and the discrete calculus on them.

A Box is the cube {-R,...,R}^m with a fixed site <-> flat-index bijection
(lexicographic, coordinate 1 fastest).  A Field assigns a real value to every
site.  Everything outside the box is treated as 0 ("Dirichlet" zero
extension), which makes the discrete Laplacian here the Dirichlet restriction
of the full-lattice one: quadratic forms of fields supported in the box agree
with their full-lattice values, so Rayleigh quotients computed on a Box are
honest lower bounds for the corresponding full-lattice suprema.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

import numpy as np

#: dense storage cap: boxes with more sites than this are refused
MAX_SITES = 10_000_000


class CapacityError(ValueError):
    """Raised when a requested box exceeds the dense-storage budget."""


class DimensionMismatchError(ValueError):
    """Raised when a field's box does not have the expected dimension."""


@dataclass(frozen=True)
class Box:
    """The cube {-R,...,R}^m with flat indexing, coordinate 1 fastest."""

    m: int
    radius: int

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def size(self) -> int:
        return self.side ** self.m

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.side,) * self.m

    def index(self, site: Sequence[int]) -> int:
        """Flat index of a site."""
        if len(site) != self.m:
            raise DimensionMismatchError(
                f"site has {len(site)} coordinates, box has m={self.m}")
        idx = 0
        stride = 1
        for x in site:
            if abs(x) > self.radius:
                raise ValueError(f"site {tuple(site)} outside radius {self.radius}")
            idx += (x + self.radius) * stride
            stride *= self.side
        return idx


def build_box(m: int, radius: int) -> Box:
    """Validated Box constructor; refuses boxes beyond the dense budget."""
    if m < 1:
        raise ValueError(f"box dimension must be >= 1, got m={m}")
    if radius < 0:
        raise ValueError(f"box radius must be >= 0, got R={radius}")
    side = 2 * radius + 1
    size = side ** m
    if size > MAX_SITES:
        raise CapacityError(
            f"box has (2R+1)^m = {side}^{m} = {size} sites, "
            f"exceeding the dense-storage cap of {MAX_SITES}")
    return Box(m=m, radius=radius)


@dataclass(frozen=True)
class Field:
    """A real-valued function on a Box; values stored flat, read-only."""

    box: Box
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape == self.box.shape:
            arr = arr.reshape(-1, order="F")
        elif arr.shape != (self.box.size,):
            raise ValueError(
                f"values have shape {arr.shape}, expected ({self.box.size},) "
                f"or {self.box.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def grid(self) -> np.ndarray:
        """View of the values shaped (side,)*m; numpy axis i-1 = coordinate i."""
        g = self.values.reshape(self.box.shape, order="F")
        g.flags.writeable = False
        return g

    def __getitem__(self, site: Sequence[int]) -> float:
        return float(self.values[self.box.index(site)])


def _check_axes(box: Box, axes: Iterable[int]) -> Tuple[int, ...]:
    axes = tuple(axes)
    if not axes:
        raise ValueError("axes must be a nonempty subset of {1..m}")
    for a in axes:
        if not 1 <= a <= box.m:
            raise ValueError(f"axis {a} outside 1..{box.m}")
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate axes in {axes}")
    return axes


def _shift_slices(m: int, axis: int, side: int):
    lo = [slice(None)] * m
    hi = [slice(None)] * m
    lo[axis] = slice(0, side - 1)
    hi[axis] = slice(1, side)
    return tuple(lo), tuple(hi)


def lap_grid(g: np.ndarray, axes0: Sequence[int]) -> np.ndarray:
    """Zero-extended Laplacian of a grid-shaped array over 0-based axes.

    With f = 0 outside the box, boundary sites see a Dirichlet leak.  Works
    on raw arrays for the eigensolver's matrix-free operator, where Field
    wrappers would cost an extra copy per iteration.
    """
    out = np.zeros_like(g)
    m = g.ndim
    side = g.shape[0]
    for ax in axes0:
        lo, hi = _shift_slices(m, ax, side)
        out[lo] += g[hi]
        out[hi] += g[lo]
    out -= 2 * len(axes0) * g
    return out


def grad_sq_grid(g: np.ndarray, axes0: Sequence[int]) -> float:
    """Zero-extended squared gradient norm of a grid-shaped array (0-based axes)."""
    total = 0.0
    m = g.ndim
    side = g.shape[0]
    for ax in axes0:
        lo, hi = _shift_slices(m, ax, side)
        diff = g[hi] - g[lo]
        diff = diff.ravel()
        total += float(np.dot(diff, diff))
        face_lo = np.take(g, 0, axis=ax).ravel()
        face_hi = np.take(g, -1, axis=ax).ravel()
        total += float(np.dot(face_lo, face_lo) + np.dot(face_hi, face_hi))
    return total


def grad_sq_norm(f: Field, axes: Iterable[int]) -> float:
    """Sum over all sites and listed axes of (f(x+e_i) - f(x))^2.

    The sum runs over the full lattice with f zero-extended, so each axis
    contributes its interior forward differences plus the two squared boundary
    faces.  Equals -<f, Delta_A f> exactly (summation by parts).
    """
    axes = _check_axes(f.box, axes)
    return grad_sq_grid(f.grid(), [a - 1 for a in axes])


def norms(f: Field) -> Tuple[float, float, float]:
    """Counting-measure norms (l2, l4, linf)."""
    v = f.values
    l2 = float(np.sqrt(np.dot(v, v)))
    sq = v * v
    l4 = float(np.dot(sq, sq)) ** 0.25
    linf = float(np.max(np.abs(v))) if v.size else 0.0
    return l2, l4, linf
