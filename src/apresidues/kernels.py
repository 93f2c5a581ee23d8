"""Hot numeric kernels: the literal exponential sums over F_p.

Every public function here evaluates a finite complex exponential sum (or a
power table feeding one) literally, term by term; nothing is replaced by a
closed form.  Each sum has one vectorised numpy implementation, which
evaluates its index space _CHUNK rows at a time.

All angles come from a shared table roots[t] = exp(2*pi*i*t/p), so the inner
products (c*s) mod p stay in exact int64 arithmetic (safe for p <= 10**6).
Sums rely on numpy's pairwise summation, which keeps the rounding error well
inside the 1e-6 integrality budget at these lengths.
"""

from __future__ import annotations

import numpy as np


def kernel_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def roots_table(p: int) -> np.ndarray:
    """roots[t] = exp(2*pi*i*t/p) for t in [0, p)."""
    return np.exp(2j * np.pi * np.arange(p) / p)


def pow_table(tau: int, p: int) -> np.ndarray:
    """powers[j] = tau**j mod p for j in [0, p-1); one multiplication per step."""
    out = np.empty(p - 1, dtype=np.int64)
    u = 1
    for j in range(p - 1):
        out[j] = u
        u = u * tau % p
    return out


_CHUNK = 64  # rows per vectorised block; a block holds _CHUNK * p index entries


def inner_complete_sums(p: int, roots: np.ndarray) -> np.ndarray:
    """inner[c] = sum_{s=0}^{p-1} roots[(c*s) % p] for every c in [0, p)."""
    s = np.arange(p, dtype=np.int64)
    out = np.empty(p, dtype=np.complex128)
    for c0 in range(0, p, _CHUNK):
        c = np.arange(c0, min(c0 + _CHUNK, p), dtype=np.int64)
        out[c0 : c0 + len(c)] = roots[(c[:, None] * s[None, :]) % p].sum(axis=1)
    return out


def char_sum_one(a: int, coset: np.ndarray, p: int, roots: np.ndarray) -> complex:
    """(1/p) * sum_{u in coset} sum_{s=0}^{p-1} roots[((u-a)*s) % p]."""
    s = np.arange(p, dtype=np.int64)
    c = (coset.astype(np.int64) - a) % p
    total = 0.0 + 0.0j
    for c0 in range(0, len(c), _CHUNK):
        blk = c[c0 : c0 + _CHUNK]
        total += roots[(blk[:, None] * s[None, :]) % p].sum()
    return total / p


def halfsums(coset: np.ndarray, p: int, roots: np.ndarray) -> np.ndarray:
    """S[b] = sum_{u in coset} roots[(b*u) % p] for every b in [0, p)."""
    u = coset.astype(np.int64)
    out = np.empty(p, dtype=np.complex128)
    for b0 in range(0, p, _CHUNK):
        b = np.arange(b0, min(b0 + _CHUNK, p), dtype=np.int64)
        out[b0 : b0 + len(b)] = roots[(b[:, None] * u[None, :]) % p].sum(axis=1)
    return out


def incomplete_sum(b: int, x_cutoff: int, tau: int, p: int, roots: np.ndarray) -> complex:
    """sum_{n=1}^{x_cutoff} roots[(b * tau**n) % p]."""
    powers = np.empty(x_cutoff, dtype=np.int64)
    u = 1
    for n in range(x_cutoff):
        u = u * tau % p
        powers[n] = u
    return complex(roots[(b * powers) % p].sum())


def prefix_max_abs(powers: np.ndarray, p: int, roots: np.ndarray) -> np.ndarray:
    """maxabs[b-1] = max over x in [1, p-1] of |sum_{n<=x} roots[(b*tau**n)%p]|.

    powers must be the [tau**1, ..., tau**(p-1)] table.
    """
    out = np.empty(p - 1, dtype=np.float64)
    for b0 in range(1, p, _CHUNK):
        b = np.arange(b0, min(b0 + _CHUNK, p), dtype=np.int64)
        z = roots[(b[:, None] * powers[None, :]) % p]
        out[b0 - 1 : b0 - 1 + len(b)] = np.abs(np.cumsum(z, axis=1)).max(axis=1)
    return out


def uhat_literal(a: int, coset: np.ndarray, p: int, roots: np.ndarray) -> complex:
    """sum_{b=1}^{p-1} roots[(-a*b)%p] * sum_{u in coset} roots[(b*u)%p], inner sum first."""
    u = coset.astype(np.int64)
    total = 0.0 + 0.0j
    for b0 in range(1, p, _CHUNK):
        b = np.arange(b0, min(b0 + _CHUNK, p), dtype=np.int64)
        inner = roots[(b[:, None] * u[None, :]) % p].sum(axis=1)
        total += (roots[(-a * b) % p] * inner).sum()
    return total


def uhat_swapped(a: int, coset: np.ndarray, p: int, roots: np.ndarray) -> complex:
    """Same double sum with the loops exchanged: outer u, inner b."""
    b = np.arange(1, p, dtype=np.int64)
    total = 0.0 + 0.0j
    for u0 in range(0, len(coset), _CHUNK):
        u = coset[u0 : u0 + _CHUNK].astype(np.int64)
        total += roots[(((u[:, None] - a) % p) * b[None, :]) % p].sum()
    return total
