import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from apresidues import kernels

# only the comparisons with the compiled backend need numba; the numpy
# invariants run everywhere
needs_numba = pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")

P = 241
TAU = 7  # primitive root of 241


@pytest.fixture(scope="module")
def roots():
    return kernels.roots_table(P)


@pytest.fixture(scope="module")
def powers():
    return kernels.pow_table_np(TAU, P)


@pytest.fixture(scope="module")
def coset(powers):
    return powers[1::2].copy()  # quadratic nonresidues of F_241


@needs_numba
def test_pow_table_backends_agree(powers):
    assert np.array_equal(kernels.pow_table_nb(TAU, P), powers)


def test_pow_table_is_permutation(powers):
    assert sorted(powers.tolist()) == list(range(1, P))


@needs_numba
def test_inner_complete_sums_agree(roots):
    a = kernels.inner_complete_sums_np(P, roots)
    b = kernels.inner_complete_sums_nb(P, roots)
    assert np.abs(a - b).max() < 1e-9


def test_inner_sums_orthogonality(roots):
    inner = kernels.inner_complete_sums_np(P, roots)
    assert abs(inner[0] - P) < 1e-9
    assert np.abs(inner[1:]).max() < 1e-8 * P


@needs_numba
def test_char_sum_backends_agree(roots, coset):
    for a in (1, 2, 7, 100, 240):
        x = kernels.char_sum_one_np(a, coset, P, roots)
        y = kernels.char_sum_one_nb(a, coset, P, roots)
        assert abs(x - y) < 1e-10


@needs_numba
def test_halfsums_backends_agree(roots, coset):
    a = kernels.halfsums_np(coset, P, roots)
    b = kernels.halfsums_nb(coset, P, roots)
    assert np.abs(a - b).max() < 1e-9


@needs_numba
def test_incomplete_sum_backends_agree(roots):
    for b, x in ((1, 20), (5, 100), (240, 240)):
        u = kernels.incomplete_sum_np(b, x, TAU, P, roots)
        v = kernels.incomplete_sum_nb(b, x, TAU, P, roots)
        assert abs(u - v) < 1e-10


@needs_numba
def test_prefix_max_backends_agree(roots, powers):
    a = kernels.prefix_max_abs_np(powers[1:].copy(), P, roots)
    b = kernels.prefix_max_abs_nb(powers[1:].copy(), P, roots)
    assert np.abs(a - b).max() < 1e-9


@needs_numba
def test_uhat_backends_agree(roots, coset):
    for a in (1, 4, 100):
        x = kernels.uhat_literal_np(a, coset, P, roots)
        y = kernels.uhat_literal_nb(a, coset, P, roots)
        assert abs(x - y) < 1e-8
        xs = kernels.uhat_swapped_np(a, coset, P, roots)
        ys = kernels.uhat_swapped_nb(a, coset, P, roots)
        assert abs(xs - ys) < 1e-8
        assert abs(x - xs) < 1e-8


def test_env_flag_forces_numpy_backend():
    code = "import apresidues; print(apresidues.kernel_backend())"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "APRESIDUES_BACKEND": "numpy",
             "PYTHONPATH": str(Path(kernels.__file__).parents[1])},
    )
    assert out.stdout.strip() == "numpy"


def test_default_backend_is_numba_when_available():
    assert kernels.kernel_backend() == kernels.BACKEND
    assert kernels.BACKEND in ("numba", "numpy")
