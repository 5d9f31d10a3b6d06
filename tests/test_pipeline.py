"""The chunked transport pipeline: discrete_holonomy walks the path in chunks
of PATH_CHUNK steps in one plain loop on the calling thread."""

import threading

import numpy as np
import pytest

from holonomy_lab.errors import OrthogonalStep
from holonomy_lab.state import PATH_CHUNK, DensityOperator, DensityPath
from holonomy_lab.transport import discrete_holonomy


def test_pipelined_orthogonal_step_in_a_later_chunk_is_named():
    k = 2 * PATH_CHUNK + 5
    a = DensityOperator.pure(np.array([1.0, 0.0]))
    b = DensityOperator.pure(np.array([0.0, 1.0]))
    threads = threading.enumerate()
    # A second orthogonal step two chunks later; the first one is named.
    matrices = np.stack([a.matrix] * (k + 1) + [b.matrix] * (2 * PATH_CHUNK) + [a.matrix] * 3)
    path = DensityPath.from_matrices([matrices])
    with pytest.raises(OrthogonalStep, match=f"between steps {k} and {k + 1}$"):
        discrete_holonomy(path)
    assert threading.enumerate() == threads
