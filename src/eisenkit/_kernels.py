"""Hot-loop kernels in numpy: the coprime lattice sum and the K-Bessel trapezoid.

The lattice kernels return the half-lattice sum

    S = 1 + sum_{m=1..R} sum_{n=-R..R, gcd(m,|n|)=1} ((m*x + n)^2 + (m*y)^2)^(-s)

which is the full coprime box sum folded along (m,n) -> (-m,-n); the leading
1 is the folded (0,+-1) contribution.  Callers multiply by y^s.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 128  # m-rows per block, keeps peak memory ~ CHUNK*(2R+1) doubles


def _lattice_sums(xs, y: float, s_re: float, s_im: float, radius: int) -> np.ndarray:
    """S at every x in ``xs``, all sharing one coprime enumeration."""
    s = complex(s_re, s_im)
    xs = np.asarray(xs, dtype=np.float64)
    out = np.zeros(xs.shape[0], dtype=np.complex128)
    ns = np.arange(-radius, radius + 1, dtype=np.int64)
    abs_ns = np.abs(ns)
    for m0 in range(1, radius + 1, _CHUNK):
        ms = np.arange(m0, min(m0 + _CHUNK, radius + 1), dtype=np.int64)
        cop = np.gcd(ms[:, None], abs_ns[None, :]) == 1
        mm, nn = np.broadcast_arrays(ms[:, None], ns[None, :])
        mf = mm[cop].astype(np.float64)
        nf = nn[cop].astype(np.float64)
        for i, xv in enumerate(xs):
            u = mf * xv + nf
            logw = np.log(u * u + (mf * y) ** 2)
            if s_im == 0.0:
                out[i] += np.exp(-s_re * logw).sum()
            else:
                out[i] += np.exp(-s * logw).sum()
    out += 1.0
    return out


def lattice_sum(x: float, y: float, s_re: float, s_im: float, radius: int) -> complex:
    """S at one x."""
    return complex(_lattice_sums((x,), y, s_re, s_im, radius)[0])


def lattice_sum_batch(xs, y: float, s_re: float, s_im: float, radius: int) -> np.ndarray:
    """S at many x values sharing one coprime enumeration."""
    return _lattice_sums(xs, y, s_re, s_im, radius)


def bessel_k_trapezoid(a: float, b: float, y: float, h: float, nsteps: int) -> complex:
    """Trapezoid sum h*(f(0)/2 + sum_{k=1..nsteps} f(k h)) for the K-Bessel
    integrand f(t) = exp(-y cosh t) cosh((a + i b) t), a, b >= 0."""
    t = h * np.arange(1, nsteps + 1, dtype=np.float64)
    c = -y * np.cosh(t)
    e_plus = np.exp(c + a * t)
    e_minus = np.exp(c - a * t)
    re = 0.5 * (e_plus + e_minus) * np.cos(b * t)
    im = 0.5 * (e_plus - e_minus) * np.sin(b * t)
    f0 = np.exp(-y)  # f(0) = e^{-y}
    return h * complex(0.5 * f0 + re.sum(), im.sum())
