"""pamlab: annealed Lyapunov exponents of the parabolic Anderson model
with moving catalysts — certified Green/spectral bounds, Feynman-Kac
Monte Carlo, and intermittency phase diagrams."""
from __future__ import annotations

__version__ = "0.1.0"

from .lattice import (
    Box,
    Field,
    build_box,
    grad_sq_norm,
    norms,
)
from .greens import (
    GreenEstimate,
    alpha,
    green_at,
    green_l2sq,
    green_zero,
    heat_kernel_diag,
)
from .spectral import (
    ConvergenceError,
    LyapunovEstimate,
    PamParams,
    apply_generator,
    check_gn,
    f0_rayleigh,
    lambda_spectral,
    mu,
    mu_inverse,
    tensor_gap,
    top_eigen,
)
from .montecarlo import (
    JumpPath,
    McEstimate,
    collision_time,
    lambda_mc,
    pde_moment_oracle,
    sample_path,
)
from .phase import KappaBounds, PhaseRow, Regime, classify, kappa_bounds, sweep

__all__ = [
    "__version__",
    "Box", "Field", "build_box", "grad_sq_norm", "norms",
    "GreenEstimate", "green_zero", "green_at", "green_l2sq", "alpha",
    "heat_kernel_diag",
    "PamParams", "LyapunovEstimate", "ConvergenceError",
    "mu", "mu_inverse", "apply_generator", "top_eigen", "lambda_spectral",
    "tensor_gap", "check_gn", "f0_rayleigh",
    "JumpPath", "McEstimate", "sample_path", "collision_time", "lambda_mc",
    "pde_moment_oracle",
    "KappaBounds", "Regime", "PhaseRow", "kappa_bounds", "classify", "sweep",
]
