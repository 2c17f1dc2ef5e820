"""Box and field helpers that only the tests use: the site of a flat index,
the origin indicator, the Field-level Laplacian and the l2 inner product."""
from typing import Iterable, Tuple

import numpy as np

from pamlab.lattice import Box, Field, _check_axes, lap_grid


def box_site(box: Box, index: int) -> Tuple[int, ...]:
    """Site of a flat index; inverse of Box.index."""
    if not 0 <= index < box.size:
        raise ValueError(f"index {index} out of range for box of size {box.size}")
    out = []
    for _ in range(box.m):
        out.append(index % box.side - box.radius)
        index //= box.side
    return tuple(out)


def delta_field(box: Box) -> Field:
    """The indicator of the origin configuration."""
    v = np.zeros(box.size)
    v[box.index((0,) * box.m)] = 1.0
    return Field(box, v)


def axis_laplacian(f: Field, axes: Iterable[int]) -> Field:
    """Discrete Laplacian over the listed (1-based) axes, zero-extended.

    (Delta_A f)(x) = sum_{i in A} [f(x+e_i) + f(x-e_i) - 2 f(x)] with f = 0
    outside the box, so boundary sites see a Dirichlet leak.
    """
    axes = _check_axes(f.box, axes)
    return Field(f.box, lap_grid(f.grid(), [a - 1 for a in axes]))


def inner(f: Field, g: Field) -> float:
    """l2 inner product of two fields on the same box."""
    if f.box != g.box:
        raise ValueError("fields live on different boxes")
    return float(np.dot(f.values, g.values))
