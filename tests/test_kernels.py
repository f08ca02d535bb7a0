"""The numpy kernels: one coprime enumeration behind both lattice entry points."""

import numpy as np

import eisenkit
from eisenkit import _kernels


def test_selected_backend_reports_name():
    assert eisenkit.kernel_backend() == "numpy"


def test_batch_consistent_with_single_point():
    xs = np.array([0.0, 0.25, -0.3])
    batch = np.asarray(_kernels.lattice_sum_batch(xs, 1.3, 2.7, 0.4, 40))
    for x, value in zip(xs, batch):
        single = _kernels.lattice_sum(float(x), 1.3, 2.7, 0.4, 40)
        assert single.real == value.real
        assert single.imag == value.imag
