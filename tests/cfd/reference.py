"""The seed CFD kernels, kept only as parity references.

Each stencil here builds a padded copy of its field with ``np.pad`` on
every call: slow, but each is a few readable lines. :func:`reference_step`
runs a whole projection step on them. Its red-black SOR loop gives every
cell of a colour the same IEEE operations, in the same order, as the
solver's packed half-pass (``own = keep*own + sum_d cw_d*nb_d - rw``), so
``tests/cfd/test_kernel_parity.py`` can assert the two are bit-identical.
(Here the other colour's cells pass through as ``1*p + sum 0*nb - 0``,
which equals ``p``, though it can turn a -0.0 into +0.0; the solver
leaves them untouched.)
With ``jacobi_sweeps`` the step runs the fixed-sweep Jacobi loop the solver
used before SOR instead, bit for bit; the SOR quality tests compare
against it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cfd import FlowFields, ProjectionSolver
from repro.cfd.boundary import SCREEN_DARCY, SCREEN_FORCHHEIMER
from repro.cfd.solver import (
    ALPHA_EFFECTIVE,
    BETA_AIR,
    GRAVITY,
    NU_AIR,
    NU_EFFECTIVE,
    REFERENCE_TEMPERATURE_K,
    SOR_OMEGA,
)


def pad(f: np.ndarray) -> np.ndarray:
    return np.pad(f, 1, mode="edge")


def pad_pressure(p: np.ndarray) -> np.ndarray:
    """Pad pressure: Neumann (edge) everywhere except the outlet (x = lx)
    face, which is Dirichlet p = 0 (ghost = -last cell). Without a pressure
    anchor at the outlet, the all-Neumann Poisson problem is incompatible
    with net inflow and the projection pumps energy instead of removing it.
    """
    pp = np.pad(p, 1, mode="edge")
    pp[-1, :, :] = -pp[-2, :, :]
    return pp


def lap(fp: np.ndarray, dx: float, dy: float, dz: float) -> np.ndarray:
    """7-point Laplacian from a padded array."""
    c = fp[1:-1, 1:-1, 1:-1]
    return (
        (fp[2:, 1:-1, 1:-1] - 2 * c + fp[:-2, 1:-1, 1:-1]) / dx**2
        + (fp[1:-1, 2:, 1:-1] - 2 * c + fp[1:-1, :-2, 1:-1]) / dy**2
        + (fp[1:-1, 1:-1, 2:] - 2 * c + fp[1:-1, 1:-1, :-2]) / dz**2
    )


def grad(fp: np.ndarray, dx: float, dy: float, dz: float):
    """Central gradient components from a padded array."""
    gx = (fp[2:, 1:-1, 1:-1] - fp[:-2, 1:-1, 1:-1]) / (2 * dx)
    gy = (fp[1:-1, 2:, 1:-1] - fp[1:-1, :-2, 1:-1]) / (2 * dy)
    gz = (fp[1:-1, 1:-1, 2:] - fp[1:-1, 1:-1, :-2]) / (2 * dz)
    return gx, gy, gz


def porous_coeffs(damp: np.ndarray, dx: float, dy: float, dz: float):
    """Face mobility coefficients for the variable-coefficient Poisson
    operator ``div(damp grad p)``: arithmetic face averages of the
    cell-centered mobility, divided by the squared spacing. Returns
    ``((ax_p, ax_m, ay_p, ay_m, az_p, az_m), denom)``.
    """
    bp = pad(damp)
    c = bp[1:-1, 1:-1, 1:-1]
    ax_p = 0.5 * (bp[2:, 1:-1, 1:-1] + c) / dx**2
    ax_m = 0.5 * (bp[:-2, 1:-1, 1:-1] + c) / dx**2
    ay_p = 0.5 * (bp[1:-1, 2:, 1:-1] + c) / dy**2
    ay_m = 0.5 * (bp[1:-1, :-2, 1:-1] + c) / dy**2
    az_p = 0.5 * (bp[1:-1, 1:-1, 2:] + c) / dz**2
    az_m = 0.5 * (bp[1:-1, 1:-1, :-2] + c) / dz**2
    denom = ax_p + ax_m + ay_p + ay_m + az_p + az_m
    return (ax_p, ax_m, ay_p, ay_m, az_p, az_m), denom


def upwind_advect(
    fp: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray,
    dx: float, dy: float, dz: float,
) -> np.ndarray:
    """First-order upwind ``(U . grad) f`` from a padded scalar."""
    c = fp[1:-1, 1:-1, 1:-1]
    bx = (c - fp[:-2, 1:-1, 1:-1]) / dx
    fx = (fp[2:, 1:-1, 1:-1] - c) / dx
    by = (c - fp[1:-1, :-2, 1:-1]) / dy
    fy = (fp[1:-1, 2:, 1:-1] - c) / dy
    bz = (c - fp[1:-1, 1:-1, :-2]) / dz
    fz = (fp[1:-1, 1:-1, 2:] - c) / dz
    return (
        np.where(u > 0, u * bx, u * fx)
        + np.where(v > 0, v * by, v * fy)
        + np.where(w > 0, w * bz, w * fz)
    )


def divergence(f: FlowFields) -> np.ndarray:
    """div(U) over all cells."""
    m = f.mesh
    gx, _, _ = grad(pad(f.u), m.dx, m.dy, m.dz)
    _, gy, _ = grad(pad(f.v), m.dx, m.dy, m.dz)
    _, _, gz = grad(pad(f.w), m.dx, m.dy, m.dz)
    return gx + gy + gz


def divergence_norm(f: FlowFields) -> float:
    """RMS divergence over interior cells."""
    div = divergence(f)[1:-1, 1:-1, 1:-1]
    return float(np.sqrt(np.mean(div**2)))


def _neighbours(pp: np.ndarray) -> tuple[np.ndarray, ...]:
    """(xp, xm, yp, ym, zp, zm) views of a padded array."""
    return (
        pp[2:, 1:-1, 1:-1], pp[:-2, 1:-1, 1:-1],
        pp[1:-1, 2:, 1:-1], pp[1:-1, :-2, 1:-1],
        pp[1:-1, 1:-1, 2:], pp[1:-1, 1:-1, :-2],
    )


def jacobi(
    p: np.ndarray, coeffs: Sequence[np.ndarray], denom: np.ndarray,
    rhs: np.ndarray, sweeps: int,
) -> np.ndarray:
    """``sweeps`` Jacobi applications ``p = (sum_d coef_d*nb_d - rhs) /
    denom``."""
    for _ in range(sweeps):
        nb = _neighbours(pad_pressure(p))
        acc = coeffs[0] * nb[0]
        for c, n in zip(coeffs[1:], nb[1:]):
            acc = acc + c * n
        p = (acc - rhs) / denom
    return p


def red_black_sor(
    p: np.ndarray, coeffs: Sequence[np.ndarray], denom: np.ndarray,
    rhs: np.ndarray, sweeps: int,
) -> np.ndarray:
    """``sweeps`` red-black SOR sweeps, red (even ``i+j+k``) first.

    Each half-pass is ``p + omega*(jacobi(p) - p)`` on its colour and a
    copy elsewhere, written as the solver computes it: ``keep*p + sum_d
    cw_d*nb_d - rw`` with ``keep = 1 - omega*mask``, ``cw_d =
    coef_d*(omega*mask/denom)`` and ``rw = rhs*(omega*mask/denom)``.
    """
    i, j, k = np.indices(p.shape)
    red = (i + j + k) % 2 == 0
    passes = []
    for colour in (red, ~red):
        mask = SOR_OMEGA * colour
        scale = mask / denom
        passes.append((1.0 - mask, [c * scale for c in coeffs], rhs * scale))
    for _ in range(sweeps):
        for keep, cw, rw in passes:
            nb = _neighbours(pad_pressure(p))
            acc = keep * p
            for c, n in zip(cw, nb):
                acc = acc + c * n
            p = acc - rw
    return p


def reference_step(
    solver: ProjectionSolver, f: FlowFields, jacobi_sweeps: Optional[int] = None
) -> None:
    """The projection step on the reference kernels, in place.

    The pressure solve runs ``solver.config.poisson_iterations`` red-black
    SOR sweeps, or, given ``jacobi_sweeps``, that many Jacobi sweeps.
    ``solver`` supplies the boundary conditions and the screen mask.
    """
    m, cfg = solver.mesh, solver.config
    dt, dx, dy, dz = cfg.dt, m.dx, m.dy, m.dz
    solver.apply_velocity_bcs(f)
    solver.apply_temperature_bcs(f)

    up, vp, wp = pad(f.u), pad(f.v), pad(f.w)
    drag = solver._resistance * (
        NU_AIR * SCREEN_DARCY + 0.5 * SCREEN_FORCHHEIMER * f.speed()
    )
    damp = 1.0 / (1.0 + dt * drag)
    buoy = GRAVITY * BETA_AIR * (f.temperature - REFERENCE_TEMPERATURE_K)
    u_star = damp * (f.u + dt * (
        -upwind_advect(up, f.u, f.v, f.w, dx, dy, dz)
        + NU_EFFECTIVE * lap(up, dx, dy, dz)
    ))
    v_star = damp * (f.v + dt * (
        -upwind_advect(vp, f.u, f.v, f.w, dx, dy, dz)
        + NU_EFFECTIVE * lap(vp, dx, dy, dz)
    ))
    w_star = damp * (f.w + dt * (
        -upwind_advect(wp, f.u, f.v, f.w, dx, dy, dz)
        + NU_EFFECTIVE * lap(wp, dx, dy, dz)
        + buoy
    ))
    f.u, f.v, f.w = u_star, v_star, w_star
    solver.apply_velocity_bcs(f)

    rhs = divergence(f) / dt
    coeffs, denom = porous_coeffs(damp, dx, dy, dz)
    if jacobi_sweeps is None:
        p = red_black_sor(f.p, coeffs, denom, rhs, cfg.poisson_iterations)
    else:
        p = jacobi(f.p, coeffs, denom, rhs, jacobi_sweeps)
    f.p = p

    gx, gy, gz = grad(pad_pressure(p), dx, dy, dz)
    f.u -= dt * damp * gx
    f.v -= dt * damp * gy
    f.w -= dt * damp * gz
    solver.apply_velocity_bcs(f)

    tp = pad(f.temperature)
    f.temperature = f.temperature + dt * (
        -upwind_advect(tp, f.u, f.v, f.w, dx, dy, dz)
        + ALPHA_EFFECTIVE * lap(tp, dx, dy, dz)
    )
    solver.apply_temperature_bcs(f)


def jacobi_final_divergence(solver: ProjectionSolver, sweeps: int) -> float:
    """Final divergence of ``solver``'s configured solve from rest, run on
    the reference kernels with ``sweeps`` Jacobi sweeps per step: what the
    solver's ``solve().final_divergence`` was in Jacobi mode."""
    f = FlowFields(solver.mesh).initialize_uniform(
        temperature=solver.bcs.interior_temperature_k
    )
    for _ in range(solver.config.n_steps):
        reference_step(solver, f, jacobi_sweeps=sweeps)
    return divergence_norm(f)
