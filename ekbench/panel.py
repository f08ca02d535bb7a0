"""Determinism panel: fixed calls into every numeric layer, hashed bit for bit.

``python3 ekbench/panel.py`` (from the repository root) prints the checksum
of the panel evaluated in the given thread environment; the benchmark runs it
in a child whose thread variables allow every core, and compares it with the
in-process checksum in both call orders and with earlier runs of the same
source tree.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path


def _calls(ek) -> list:
    lattice = ek.TruncationPolicy(lattice_radius=300)
    small = ek.TruncationPolicy(lattice_radius=100)
    return [
        lambda: ek.eval_fourier(0.3 + 1.2j, 2.5).value,
        lambda: ek.eval_fourier(-0.2 + 0.9j, 0.3 + 7j).value,
        lambda: ek.eval_lattice_sum(0.1 + 1.1j, 2.2 + 1j, lattice).value,
        lambda: ek.extract_coefficient_by_quadrature(1, 1.0, 2.5 + 2j, small, source="lattice"),
        lambda: ek.xi_completed(0.3 + 14j),
        lambda: ek.bessel_k(1.5 + 4j, 2.0),
        lambda: ek.scattering_ratio(0.7 + 3j),
        lambda: ek.partial_l(ek.trivial_zeta_data(10**4), 2.0 + 1j, 10**4).value,
        lambda: [row.as_dict() for row in ek.enumerate_table([("E", 8), ("F", 4), ("B", 5)])],
    ]


def checksum(ek, reverse: bool = False) -> str:
    calls = _calls(ek)
    results = [None] * len(calls)
    for i in reversed(range(len(calls))) if reverse else range(len(calls)):
        results[i] = calls[i]()
    digest = hashlib.sha256()
    for value in results:
        if isinstance(value, list):
            digest.update(repr(value).encode())
        else:
            value = complex(value)
            digest.update(f"{value.real.hex()},{value.imag.hex()};".encode())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    import eisenkit

    print(checksum(eisenkit))
