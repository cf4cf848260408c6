"""One-magnon basis, dispersion relations, and the rotor-image parameter map.

A single flipped spin on a ring of ``n_sites`` spans an n_sites-dimensional
sector.  Everything here works in that sector: the plane-wave (magnon) basis,
the dispersion of each supported exchange model, and the translation of chain
parameters into the effective kicked-rotor constants (stochasticity parameter
and effective Planck constant) of the equivalent one-body system.

Units: hbar = 1, exchange couplings carry energy; time only ever enters as
the products ``j1 * period`` and ``kick strength * duration``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._limits import check_basis, check_integers, check_reals, check_type, to_array
from .specs import ChainConfig, ChainModel, _m_range

__all__ = [
    "ChainModel",
    "ChainConfig",
    "RotorImageParams",
    "wavenumber_grid",
    "dispersion",
    "magnon_state",
    "delta_state",
    "rotor_image",
]


@dataclass(frozen=True)
class RotorImageParams:
    """Kicked-rotor constants of the one-body image system.

    ``k`` is the classical stochasticity parameter, ``hbar_eff`` the effective
    Planck constant.  Both are derived from chain parameters by
    :func:`rotor_image`, never set independently.
    """

    k: float
    hbar_eff: float


def wavenumber_grid(n_sites: int) -> np.ndarray:
    """Magnon wavenumbers 2*pi*m/n_sites on the standard DFT grid.

    Integer m runs over the n_sites consecutive values that place every
    wavenumber in (-pi, pi]; the result is sorted ascending.
    """
    check_integers(n_sites=n_sites)
    check_basis(n_sites)
    if n_sites < 2:
        raise ValueError(f"n_sites must be >= 2, got {n_sites}")
    lo, hi = _m_range(n_sites)
    m = np.arange(lo, hi + 1)
    return 2.0 * np.pi * m / n_sites


def dispersion(config: ChainConfig, k):
    """One-magnon energy at wavenumber ``k`` (uniform-field offset dropped).

    ferromagnet:      j1 * (1 - cos k)
    nnn_ladder:       j1 + j2 - j1*cos(k) - j2*cos(2k)
    antiferro_linear: j1 * |sin k|

    Accepts scalars or arrays; a ``k`` that is not finite is a ``ValueError``.
    The constant offsets (ground-state energy, uniform Zeeman term) only
    contribute a global phase to the dynamics and are excluded.
    """
    check_type(config, ChainConfig, "config", "a ChainConfig")
    k = to_array(k, "k")
    if not np.isfinite(k).all():
        raise ValueError("k must be finite")
    if config.model is ChainModel.FERROMAGNET:
        e = config.j1 * (1.0 - np.cos(k))
    elif config.model is ChainModel.NNN_LADDER:
        e = config.j1 + config.j2 - config.j1 * np.cos(k) - config.j2 * np.cos(2.0 * k)
    elif config.model is ChainModel.ANTIFERRO_LINEAR:
        e = config.j1 * np.abs(np.sin(k))
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown model {config.model}")
    return e if e.ndim else float(e)


def magnon_state(n_sites: int, m: int) -> np.ndarray:
    """Plane-wave one-magnon state: amplitudes[j] = exp(i*j*k_m)/sqrt(N).

    ``m`` must index a wavenumber of :func:`wavenumber_grid`, i.e. lie in
    [-ceil(N/2)+1, floor(N/2)].
    """
    check_integers(n_sites=n_sites, m=m)
    check_basis(n_sites)
    lo, hi = _m_range(n_sites)
    if not lo <= m <= hi:
        raise ValueError(f"m must lie in [{lo}, {hi}] for n_sites={n_sites}, got {m}")
    k = 2.0 * np.pi * m / n_sites
    j = np.arange(n_sites)
    return np.exp(1j * j * k) / np.sqrt(n_sites)


def delta_state(n_sites: int, site: int) -> np.ndarray:
    """State with the flipped spin pinned at one site."""
    check_integers(n_sites=n_sites, site=site)
    check_basis(n_sites)
    if not 0 <= site < n_sites:
        raise ValueError(f"site must lie in [0, {n_sites}), got {site}")
    amps = np.zeros(n_sites, dtype=complex)
    amps[site] = 1.0
    return amps


def rotor_image(config: ChainConfig, period: float, b_kick: float) -> RotorImageParams:
    """Kicked-rotor image parameters of a ferromagnetic kicked chain.

    The parabolic kick curvature plays the role of an effective Planck
    constant, and k = j1 * period * b_kick is the stochasticity parameter of
    the image map.  Only the plain ferromagnet maps onto the textbook rotor.
    """
    check_type(config, ChainConfig, "config", "a ChainConfig")
    if config.model is not ChainModel.FERROMAGNET:
        raise ValueError(f"rotor image is defined for the ferromagnet, not {config.model.value}")
    check_reals(0, True, period=period)
    check_reals(0, b_kick=b_kick)
    k = config.j1 * period * b_kick
    check_reals(k=k)
    return RotorImageParams(k=k, hbar_eff=b_kick)
