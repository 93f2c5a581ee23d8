"""Residue characters modulo an odd prime.

Two evaluation paths are maintained deliberately: the Euler criterion
(one modular exponentiation, works for primes of any size) and a literal
complex exponential-sum indicator restricted to small p.  The second is an
analytic device, not an efficient algorithm -- it exists as an independent
oracle for the first, so the two must never be collapsed into one route.

Indicator conventions, with tau the least primitive root mod p and k | p-1:

* residue indicator: sum over the subgroup enumeration tau**(k*m),
  0 <= m < (p-1)/k.  Equals 1 exactly when a is a kth power residue.
* nonresidue indicator: sum over every tau**j with k not dividing j.  For
  k = 2 this is exactly the classical odd-exponent enumeration tau**(2n+1);
  for k >= 3 the single coset tau**(k*m+1) covers only 1/(k-1) of the
  nonresidues, so the full-complement enumeration is what actually equals
  the Euler-criterion dichotomy (the single coset stays available as
  coset_indicator and is verified to have exactly (p-1)/k members).

Each enumeration lists every group element exactly once: exponent ranges are
half-open at (p-1)/k, since letting the index reach p/k would repeat the
exponent-1 element (tau**p = tau) and break the 0/1 property.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .bigmod import OddPrimeContext, _distinct_factors, factorize, is_prime
from .errors import DomainError, IntegrityError, ResourceError

_TABLE_LIMIT = 10**6
_ORACLE_LIMIT = 10**5
_UHAT_LIMIT = 10**4  # the literal U-hat double sums and their half-sum table
_INTEGRALITY_TOL = 1e-6

RESIDUE_INDICATOR = "residue_indicator"
NONRESIDUE_INDICATOR = "nonresidue_indicator"


class Verdict(enum.Enum):
    RESIDUE = "Residue"
    NONRESIDUE = "Nonresidue"


@dataclass(frozen=True)
class CharacterVerdict:
    """Outcome of a kth power residue test: verdict plus the Euler witness
    n**((p-1)/k) mod p (witness == 1 exactly for residues)."""

    n: int
    k: int
    verdict: Verdict
    witness: int


def kth_power_verdict(n: int, k: int, ctx: OddPrimeContext) -> CharacterVerdict:
    """Residue iff n**((p-1)/k) = 1 mod p; requires k | p-1 and p not dividing n."""
    p = ctx.p
    if k < 1 or (p - 1) % k != 0:
        raise DomainError(f"k={k} does not divide p-1={p - 1}")
    if n % p == 0:
        raise DomainError(f"{n} is divisible by p={p}; zero elements are excluded")
    witness = pow(n % p, (p - 1) // k, p)
    verdict = Verdict.RESIDUE if witness == 1 else Verdict.NONRESIDUE
    return CharacterVerdict(n=n, k=k, verdict=verdict, witness=witness)


@dataclass(frozen=True)
class SmallFieldTable:
    """Primitive-root enumeration of F_p*; every k | p-1 reads its residues
    and nonresidues off it as cosets.

    powers[j] = tau**j mod p for j in [0, p-1), and roots[t] = exp(2*pi*i*t/p)
    for t in [0, p).  The least primitive root is chosen so tables are
    reproducible across runs.

    The literal double sums have k-independent parts, each an O(p**2) pass
    that is made on first use and kept read-only with the table: inner_sums
    for the character values (p <= _ORACLE_LIMIT) and half_sums for U-hat
    (p <= _UHAT_LIMIT).  So every k | p-1, both indicators and every a share
    one pass per table.  Each holds p complex entries, 16 bytes per unit of
    p, at most 1.6 MB at the oracle limit.
    """

    p: int
    tau: int
    powers: np.ndarray
    roots: np.ndarray

    @functools.cached_property
    def inner_sums(self) -> np.ndarray:
        """inner[c] = sum_{s=0}^{p-1} e(c*s/p) for every c in [0, p), each
        summed term by term; ResourceError above _ORACLE_LIMIT."""
        if self.p > _ORACLE_LIMIT:
            raise ResourceError(f"double-sum oracle is limited to p <= {_ORACLE_LIMIT}")
        return _frozen(kernels.inner_complete_sums(self.p, self.powers, self.roots))

    @functools.cached_property
    def half_sums(self) -> np.ndarray:
        """S[b] = sum over the quadratic nonresidue enumeration tau**(2n+1) of
        e(b*u/p), for every b in [0, p); ResourceError above _UHAT_LIMIT."""
        if self.p > _UHAT_LIMIT:
            raise ResourceError(f"half-sum tables are limited to p <= {_UHAT_LIMIT}")
        return _frozen(kernels.halfsums(self.powers, self.p, self.roots))

    def residue_coset(self, k: int) -> np.ndarray:
        """[tau**(k*m) for 0 <= m < (p-1)/k] -- the kth power residues."""
        self._check_k(k)
        return self.powers[::k].copy()

    def nonresidue_coset(self, k: int) -> np.ndarray:
        """[tau**(k*m+1) for 0 <= m < (p-1)/k] -- one coset of nonresidues.

        For k = 2 this is all of them; for k >= 3 it is a proper subset.
        k = 1 has no nonresidues, so it is a DomainError.
        """
        self._check_k(k)
        if k < 2:
            raise DomainError(f"k={k} has no nonresidues; a nonresidue coset needs k >= 2")
        return self.powers[1::k].copy()

    def nonresidues_all(self, k: int) -> np.ndarray:
        """All tau**j with k not dividing j -- every kth power nonresidue."""
        self._check_k(k)
        j = np.arange(self.p - 1)
        return self.powers[j % k != 0].copy()

    def _check_k(self, k: int):
        if k < 1 or (self.p - 1) % k != 0:
            raise DomainError(f"k={k} does not divide p-1={self.p - 1}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def least_primitive_root(p: int, p_minus_1_factors=None) -> int:
    """Least g in [2, p) generating F_p*, certified against every maximal
    proper divisor of p-1.

    A supplied factorisation of p-1 (a {prime: exponent} dict, a list of
    primes, or (prime, exponent) pairs) must list every prime of p-1 and only
    primes; otherwise DomainError is raised.
    """
    if p == 2:
        return 1
    factors = _distinct_factors(factorize(p - 1) if p_minus_1_factors is None else p_minus_1_factors, p)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise DomainError(f"no primitive root found; {p} is not prime")


def build_small_field_table(p: int) -> SmallFieldTable:
    """Construct the full enumeration table for a small prime p <= 1e6,
    certified by its quadratic Gauss sum.

    With R = roots[powers], E0 = sum R[0::2] runs over the quadratic residues
    and E1 = sum R[1::2] over the nonresidues, so E0 - E1 is the Gauss sum g:
    sqrt(p) for p = 1 (mod 4) and i*sqrt(p) for p = 3 (mod 4) (Ireland and
    Rosen, ch. 6).  A table whose g misses by more than 1e-6 (a tau that is
    not a generator, a root table that is off) raises IntegrityError.  p = 2
    has no quadratic character and is not checked.
    """
    if p > _TABLE_LIMIT:
        raise ResourceError(f"small-field tables are limited to p <= {_TABLE_LIMIT}")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    factors = factorize(p - 1)
    tau = least_primitive_root(p, factors)
    table = SmallFieldTable(p=p, tau=tau, powers=kernels.pow_table(tau, p), roots=kernels.roots_table(p))
    if p > 2:
        r = table.roots[table.powers]
        g = r[0::2].sum() - r[1::2].sum()
        err = abs(g - (math.sqrt(p) if p % 4 == 1 else 1j * math.sqrt(p)))
        if err > _INTEGRALITY_TOL:
            raise IntegrityError(f"table p={p} tau={tau}: Gauss sum {g} is off by {err:.3e}")
    return table


def _oracle_enumeration(k: int, table: SmallFieldTable, which: str) -> np.ndarray:
    if which == RESIDUE_INDICATOR:
        return table.residue_coset(k)
    if which == NONRESIDUE_INDICATOR:
        return table.nonresidues_all(k)
    raise DomainError(f"unknown indicator {which!r}")


def _round_indicator(value: complex, where: str) -> int:
    nearest = round(value.real)
    err = abs(value - nearest)
    if err > _INTEGRALITY_TOL or nearest not in (0, 1):
        raise IntegrityError(f"{where}: pre-rounding value {value} is not near 0/1 (err={err:.3e})")
    return int(nearest)


def _literal_indicator(a: int, k: int, table: SmallFieldTable, members, where: str) -> int:
    """(1/p) * sum_{u in members()} sum_{s=0}^{p-1} e((u-a)*s/p), summed term
    by term and rounded to {0, 1}; members is called only once p and a pass."""
    p = table.p
    if p > _ORACLE_LIMIT:
        raise ResourceError(f"double-sum oracle is limited to p <= {_ORACLE_LIMIT}")
    if not 1 <= a % p <= p - 1:
        raise DomainError(f"a={a} is 0 mod p")
    value = kernels.char_sum_one(a % p, members(), p, table.roots)
    return _round_indicator(value, f"{where} p={p} k={k} a={a}")


def char_function_oracle(a: int, k: int, table: SmallFieldTable, which: str) -> int:
    """Literal complex double-sum indicator, rounded to {0, 1}.

    The pre-rounding value must sit within 1e-6 of the integer; a larger
    residue is a logic bug and raises IntegrityError.
    """
    return _literal_indicator(a, k, table, lambda: _oracle_enumeration(k, table, which), "char oracle")


def coset_indicator(a: int, k: int, table: SmallFieldTable) -> int:
    """Literal double sum over the single coset tau**(k*m+1) only.

    Equals the nonresidue indicator for k = 2; for k >= 3 it flags membership
    in that one coset (a strict subset of the nonresidues).
    """
    return _literal_indicator(a, k, table, lambda: table.nonresidue_coset(k), "coset indicator")


def char_function_values(k: int, table: SmallFieldTable, which: str) -> tuple[np.ndarray, float]:
    """Indicator values for every a in [1, p-1] plus the worst integrality residue.

    Same literal double sum as char_function_oracle: the complete inner sums
    over s are evaluated term by term, once per distinct difference and once
    per table (table.inner_sums), then combined per a, adding one member u of
    the enumeration at a time.  k and which are checked before that pass.
    Intended for exhaustive small-p verification sweeps.
    """
    p = table.p
    members = _oracle_enumeration(k, table, which)
    values = kernels.difference_sums(table.inner_sums, members, p) / p
    rounded = np.round(values.real)
    worst = float(np.abs(values - rounded).max())
    if worst > _INTEGRALITY_TOL:
        raise IntegrityError(f"batch char values p={p} k={k}: worst residue {worst:.3e}")
    out = rounded.astype(np.int64)
    if not np.isin(out, (0, 1)).all():
        raise IntegrityError(f"batch char values p={p} k={k}: non-indicator value")
    return out, worst
