"""Property tests of the exact compression P U_z P over random points."""

import numpy as np
from hypothesis import given, settings, strategies as st

from berglab.basis import TruncatedBasis, kernel_expansion
from berglab.unitaries import unitary_matrix_exact

# |z| <= 1 - 1e-9, with as many draws near the sphere as in the bulk
radius = st.one_of(st.floats(0.0, 1.0 - 1e-9),
                   st.floats(0.0, 9.0).map(lambda e: 1.0 - 10.0 ** -e))


def check_compression(z, basis):
    u = unitary_matrix_exact(z, basis).mat
    assert np.max(np.abs(u - u.conj().T)) <= 1e-12
    assert np.linalg.norm(u, 2) <= 1.0 + 1e-12
    kexp = kernel_expansion(z, basis).coeffs
    assert np.max(np.abs(u[:, 0] - kexp)) <= 1e-13


@settings(derandomize=True, max_examples=30, deadline=None)
@given(r=radius, theta=st.floats(0.0, 2.0 * np.pi),
       degree=st.integers(0, 48))
def test_disk_compression(r, theta, degree):
    z = np.array([r * np.exp(1j * theta)])
    check_compression(z, TruncatedBasis.create(1, degree))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(t=radius, n=st.sampled_from([2, 3]), degree=st.integers(0, 16),
       axis=st.integers(0, 2))
def test_ray_compression(t, n, degree, axis):
    z = np.zeros(n, dtype=complex)
    z[axis % n] = t
    check_compression(z, TruncatedBasis.create(n, degree))
