"""Desk-scale laboratory for exponential-sum estimates and fiber counts.

Everything here is exact complex arithmetic over a small prime field; bounds
of the form sqrt(p) * log(p)**2 are measured, never assumed.  Ratios above 1
are findings to report, not assertion failures -- the implied constants are
unspecified.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .bigmod import jacobi
from .errors import DomainError, ResourceError
from .residues import _UHAT_LIMIT, SmallFieldTable


def theoretical_bound(p: int) -> float:
    """The measuring stick sqrt(p) * log(p)**2."""
    return math.sqrt(p) * math.log(p) ** 2


@dataclass(frozen=True)
class ExpSumSample:
    """One incomplete exponential sum sum_{n<=x} e(b * tau**n / p) with its
    magnitude measured against sqrt(p) * log(p)**2."""

    p: int
    tau: int
    b: int
    x_cutoff: int
    value: complex
    magnitude: float
    bound: float
    ratio: float


@dataclass(frozen=True)
class UHatSample:
    """The double sum over b of e(-a*b/p) * sum over the nonresidue
    enumeration of e(b * tau**(2n+1) / p), for a quadratic residue a,
    evaluated literally.

    With g the quadratic Gauss sum (sqrt(p) for p = 1 mod 4, i*sqrt(p) for
    p = 3 mod 4), the fields have closed forms: value = -(p-1)/2;
    half_sum, the b = 1 inner sum S[1], is (-1 - g)/2; and
    identity_residual = value + half_sum = -(p + g)/2, of size about p/2.
    """

    p: int
    a: int
    value: complex
    half_sum: complex
    identity_residual: complex
    bound: float
    ratio: float


@dataclass(frozen=True)
class FiberHistogram:
    """Fiber-size census of one of the error-term maps over its finite domain.

    histogram maps fiber size -> number of nonzero targets attaining it;
    zero_hits counts domain points landing on 0, so
    sum(size * count) + zero_hits == domain_size.
    """

    p: int
    x: int
    map_name: str
    histogram: dict[int, int]
    zero_hits: int
    domain_size: int
    max_fiber: int


def _cutoff(x, name: str) -> int:
    """x as a Python int; a value that is not an integer (3.5, "4") is a DomainError."""
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {x!r}") from None


def incomplete_expsum(b: int, x_cutoff: int, table: SmallFieldTable) -> ExpSumSample:
    """Evaluate sum_{n=1}^{x} e(2*pi*i * b * tau**n / p) by incremental powers."""
    p = table.p
    if b % p == 0:
        raise DomainError("b must be nonzero mod p")
    x_cutoff = _cutoff(x_cutoff, "x_cutoff")
    if not 1 <= x_cutoff <= p - 1:
        raise DomainError(f"x_cutoff must be in [1, p-1], got {x_cutoff}")
    value = kernels.incomplete_sum(b % p, x_cutoff, table.powers, p, table.roots)
    magnitude = abs(value)
    bound = theoretical_bound(p)
    return ExpSumSample(
        p=p, tau=table.tau, b=b % p, x_cutoff=x_cutoff,
        value=value, magnitude=magnitude, bound=bound, ratio=magnitude / bound,
    )


def max_ratio_table(table: SmallFieldTable) -> np.ndarray:
    """For every b in [1, p-1], the largest |partial sum| over all cutoffs
    x in [1, p-1], divided by sqrt(p) * log(p)**2.

    Returns a float array indexed by b-1; its max is the empirical constant
    for the incomplete-sum bound at this prime.  Rows b and p-b are complex
    conjugates and hold bitwise-equal entries, so argmax (and hence a
    sweep's worst_b) is the smaller b of the first pair attaining the max.
    """
    p = table.p
    maxima = kernels.prefix_max_abs(table.powers, p, table.roots)
    return maxima / theoretical_bound(p)


def _require_residue(a: int, table: SmallFieldTable) -> int:
    p = table.p
    a %= p
    if a == 0:
        raise DomainError("a must be nonzero mod p")
    if jacobi(a, p) != 1:
        raise DomainError(f"a={a} is a quadratic nonresidue; the hypothesis needs a residue")
    return a


def fourier_U_hat(a: int, table: SmallFieldTable) -> UHatSample:
    """Literal double-sum evaluation (outer b, inner nonresidue enumeration);
    the inner sums S[b] are the table's half_sums, one pass per table."""
    p = table.p
    if p > _UHAT_LIMIT:
        raise ResourceError(f"the U-hat double sum is limited to p <= {_UHAT_LIMIT}")
    a = _require_residue(a, table)
    s = table.half_sums
    n = int(np.flatnonzero(table.powers == a)[0]) // 2  # a = tau**(2n)
    value = complex(kernels.uhat_rows(s, n, 1, table.powers, p, table.roots)[0])
    half = complex(s[1])
    bound = theoretical_bound(p)
    return UHatSample(
        p=p, a=a, value=value, half_sum=half,
        identity_residual=value + half, bound=bound, ratio=abs(value) / bound,
    )


def fourier_U_hat_swapped(a: int, table: SmallFieldTable) -> complex:
    """The same double sum with the loop order exchanged (finite-sum
    commutativity check)."""
    p = table.p
    if p > _UHAT_LIMIT:
        raise ResourceError(f"the U-hat double sum is limited to p <= {_UHAT_LIMIT}")
    a = _require_residue(a, table)
    return kernels.uhat_swapped(a, table.nonresidue_coset(2), p, table.roots)


def uhat_all_residues(table: SmallFieldTable) -> tuple[np.ndarray, np.ndarray]:
    """|U-hat(a)| for every quadratic residue a, in closed form: (p-1)/2.

    U-hat(a) = sum_{b!=0} e(-ab/p) S[b] = sum_u sum_{b!=0} e(b(u-a)/p), u over
    the nonresidues; a residue a is no such u, so each inner sum is -1 and
    U-hat(a) = -(p-1)/2 exactly.  The literal evaluations (fourier_U_hat,
    fourier_U_hat_swapped) stay the oracle.  Returns (residues a ascending,
    magnitudes).
    """
    a_vals = np.sort(table.residue_coset(2))
    return a_vals, np.full(len(a_vals), (table.p - 1) / 2)


def _window_counts(members: np.ndarray, lo: int, hi: int, m: int) -> np.ndarray:
    """counts[t] = #{c in members : (c - t) % m in [lo, hi]} for every t in
    [0, m), given 0 <= lo <= hi < m and members in [0, m).

    Each count is a window sum of the members' indicator over t+lo .. t+hi,
    read as one difference of a cumulative sum over the doubled indicator."""
    ind = np.bincount(members, minlength=m)
    cum = np.concatenate(([0], ind, ind))
    np.cumsum(cum, out=cum)
    return cum[hi + 1 : hi + 1 + m] - cum[lo : lo + m]


def _histogram(counts: np.ndarray, p: int, map_name: str, x: int, domain_size: int) -> FiberHistogram:
    zero_hits = int(counts[0])
    sizes = counts[1:]
    sizes = sizes[sizes > 0]
    hist_sizes, hist_counts = np.unique(sizes, return_counts=True)
    return FiberHistogram(
        p=p, x=x, map_name=map_name,
        histogram={int(s): int(c) for s, c in zip(hist_sizes, hist_counts)},
        zero_hits=zero_hits,
        domain_size=domain_size,
        max_fiber=int(hist_sizes.max()) if len(hist_sizes) else 0,
    )


def fiber_histograms(x: int, k: int, table: SmallFieldTable) -> tuple[FiberHistogram, FiberHistogram]:
    """Exact fiber censuses of the two error-term maps.

    alpha(m, n) = tau**(k*m+1) - n over m in [0, (p-1)/k), n in [2, x]:
    every nonzero fiber should have at most x-1 elements.  The fiber of t
    holds the coset members c with (c - t) % p in [2, x].
    beta(u, v) = u*v over u in [1, x], v in [1, p-1]: every nonzero fiber
    has exactly x elements.  With u = tau**i and v = tau**l, the fiber of
    tau**j holds the u with (i - j) % (p-1) in [0, p-2], so it is the same
    window count over the exponents i of u in [1, x], the j with
    powers[j] <= x; no product is 0 mod p.

    Both counts take O(p) time and memory; no domain point is enumerated,
    so the table's own size limit is the only budget.  At p = 999983 a
    census takes about 0.1 s and peaks at 42-50 MiB for any x.
    """
    p = table.p
    x = _cutoff(x, "x")
    if not 2 <= x < p:
        raise DomainError(f"need 2 <= x < p, got x={x}")
    coset = table.nonresidue_coset(k)
    alpha = _histogram(_window_counts(coset, 2, x, p), p, "alpha", x, len(coset) * (x - 1))

    counts = np.zeros(p, dtype=np.int64)
    counts[table.powers] = _window_counts(np.flatnonzero(table.powers <= x), 0, p - 2, p - 1)
    beta = _histogram(counts, p, "beta", x, x * (p - 1))
    return alpha, beta
