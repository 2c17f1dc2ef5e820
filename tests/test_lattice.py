"""Box indexing, fields, and the discrete calculus against brute-force oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamlab.lattice import (
    MAX_SITES,
    Box,
    CapacityError,
    DimensionMismatchError,
    Field,
    build_box,
    grad_sq_norm,
    norms,
)

from lattice_helpers import axis_laplacian, box_site, delta_field, inner


def lap_oracle(f: Field, axes) -> np.ndarray:
    """Site-by-site Laplacian with explicit neighbor lookups (zero outside)."""
    box = f.box
    out = np.zeros(box.size)
    for i in range(box.size):
        site = box_site(box, i)
        acc = -2.0 * len(axes) * f.values[i]
        for a in axes:
            for sg in (+1, -1):
                nb = list(site)
                nb[a - 1] += sg
                if abs(nb[a - 1]) <= box.radius:
                    acc += f.values[box.index(nb)]
        out[i] = acc
    return out


def grad_oracle(f: Field, axes) -> float:
    """Sum of squared forward differences over the full lattice, f=0 outside."""
    box = f.box
    total = 0.0
    for i in range(box.size):
        site = box_site(box, i)
        for a in axes:
            nb = list(site)
            nb[a - 1] += 1
            up = f.values[box.index(nb)] if abs(nb[a - 1]) <= box.radius else 0.0
            total += (up - f.values[i]) ** 2
            # the backward difference out of the box is not seen from any site
            if site[a - 1] == -box.radius:
                total += f.values[i] ** 2
    return total


def rand_field(box: Box, seed: int) -> Field:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return Field(box, rng.standard_normal(box.size))


# ---------------------------------------------------------------------------
# Box
# ---------------------------------------------------------------------------

def test_box_basic_shape():
    box = build_box(3, 2)
    assert box.side == 5
    assert box.size == 125
    assert box.shape == (5, 5, 5)


def test_index_coordinate_one_fastest():
    box = build_box(2, 1)
    base = box.index((-1, 0))
    assert box.index((0, 0)) == base + 1
    assert box.index((1, 0)) == base + 2
    # coordinate 2 moves by a full stride
    assert box.index((-1, 1)) == base + 3


def test_origin_is_center_index():
    for m, R in ((1, 3), (2, 2), (4, 1)):
        box = build_box(m, R)
        assert box.index((0,) * m) == (box.size - 1) // 2


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_index_site_round_trip(data):
    m = data.draw(st.integers(1, 4))
    R = data.draw(st.integers(0, 3))
    box = build_box(m, R)
    site = tuple(data.draw(st.integers(-R, R)) for _ in range(m))
    assert box_site(box, box.index(site)) == site
    idx = data.draw(st.integers(0, box.size - 1))
    assert box.index(box_site(box, idx)) == idx


def test_box_validation():
    with pytest.raises(ValueError):
        build_box(0, 1)
    with pytest.raises(ValueError):
        build_box(2, -1)
    with pytest.raises(ValueError):
        build_box(2, 1).index((0, 5))
    with pytest.raises(DimensionMismatchError):
        build_box(2, 1).index((0, 0, 0))
    with pytest.raises(ValueError):
        box_site(build_box(1, 1), 3)


def test_capacity_error_names_the_count():
    with pytest.raises(CapacityError) as exc:
        build_box(10, 4)  # 9^10 ~ 3.5e9 sites
    assert f"{9 ** 10}" in str(exc.value)
    assert str(MAX_SITES) in str(exc.value)


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------

def test_field_accepts_flat_and_grid():
    box = build_box(2, 1)
    flat = np.arange(9.0)
    f = Field(box, flat)
    g = Field(box, f.grid())
    assert np.array_equal(f.values, g.values)
    # grid axis i-1 is coordinate i: entry [x1+R, x2+R]
    assert f.grid()[2, 0] == f[(1, -1)]


def test_field_rejects_bad_input():
    box = build_box(2, 1)
    with pytest.raises(ValueError):
        Field(box, np.zeros(8))
    with pytest.raises(ValueError):
        Field(box, np.full(9, np.nan))


def test_field_is_read_only():
    f = delta_field(build_box(1, 2))
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(ValueError):
        f.grid()[0] = 1.0


def test_delta_field():
    box = build_box(3, 1)
    f = delta_field(box)
    assert f[(0, 0, 0)] == 1.0
    assert np.sum(f.values) == 1.0


# ---------------------------------------------------------------------------
# Laplacian and gradient
# ---------------------------------------------------------------------------

def test_laplacian_delta_anchors():
    box = build_box(2, 2)
    lf = axis_laplacian(delta_field(box), (1, 2))
    assert lf[(0, 0)] == -4.0     # -2 per axis
    assert lf[(1, 0)] == 1.0
    assert lf[(-1, 0)] == 1.0
    assert lf[(0, 1)] == 1.0
    assert lf[(1, 1)] == 0.0


def test_laplacian_constant_boundary_leak():
    # constant c: zero in the interior, -c on each boundary face
    box = build_box(1, 1)
    lf = axis_laplacian(Field(box, np.full(3, 2.5)), (1,))
    assert lf[(-1,)] == -2.5
    assert lf[(0,)] == 0.0
    assert lf[(1,)] == -2.5


@pytest.mark.parametrize("m,R,axes", [(1, 3, (1,)), (2, 2, (1, 2)), (3, 1, (2,)),
                                      (3, 1, (1, 3))])
def test_laplacian_matches_oracle(m, R, axes):
    f = rand_field(build_box(m, R), seed=m * 100 + R)
    lf = axis_laplacian(f, axes)
    assert np.allclose(lf.values, lap_oracle(f, axes), atol=1e-12)


@pytest.mark.parametrize("m,R,axes", [(1, 4, (1,)), (2, 2, (1, 2)), (3, 1, (1, 3))])
def test_grad_sq_matches_oracle(m, R, axes):
    f = rand_field(build_box(m, R), seed=m * 10 + R)
    assert grad_sq_norm(f, axes) == pytest.approx(grad_oracle(f, axes), rel=1e-12)


def test_laplacian_self_adjoint():
    box = build_box(2, 2)
    f, g = rand_field(box, 1), rand_field(box, 2)
    lhs = inner(f, axis_laplacian(g, (1, 2)))
    rhs = inner(axis_laplacian(f, (1, 2)), g)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_summation_by_parts():
    # |grad f|^2 = -<f, Delta f> exactly (both zero-extended)
    box = build_box(2, 3)
    f = rand_field(box, 3)
    assert grad_sq_norm(f, (1, 2)) == pytest.approx(
        -inner(f, axis_laplacian(f, (1, 2))), rel=1e-12)


def test_laplacian_linearity():
    box = build_box(2, 1)
    f, g = rand_field(box, 4), rand_field(box, 5)
    combo = Field(box, 2.0 * f.values - 3.0 * g.values)
    expect = 2.0 * axis_laplacian(f, (1,)).values - 3.0 * axis_laplacian(g, (1,)).values
    assert np.allclose(axis_laplacian(combo, (1,)).values, expect, atol=1e-12)


def test_grad_of_delta():
    # each axis contributes 2: one unit difference on either side of the spike
    for m in (1, 2, 3):
        f = delta_field(build_box(m, 1))
        assert grad_sq_norm(f, tuple(range(1, m + 1))) == pytest.approx(2.0 * m)


def test_axes_validation():
    f = delta_field(build_box(2, 1))
    with pytest.raises(ValueError):
        axis_laplacian(f, ())
    with pytest.raises(ValueError):
        axis_laplacian(f, (3,))
    with pytest.raises(ValueError):
        grad_sq_norm(f, (1, 1))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

_val = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))


@settings(max_examples=100, deadline=None)
@given(st.lists(_val, min_size=3, max_size=3))
def test_norms_ordering(vals):
    # counting measure: l_inf <= l4 <= l2
    f = Field(build_box(1, 1), np.array(vals))
    l2, l4, linf = norms(f)
    assert linf <= l4 * (1 + 1e-12)
    assert l4 <= l2 * (1 + 1e-12)


def test_norms_delta():
    f = delta_field(build_box(2, 1))
    assert norms(f) == (1.0, 1.0, 1.0)


def test_inner_box_mismatch():
    with pytest.raises(ValueError):
        inner(delta_field(build_box(1, 1)), delta_field(build_box(1, 2)))
