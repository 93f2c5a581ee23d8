"""Hot numeric kernels: the exponential sums over F_p.

Every function here but prefix_max_abs evaluates a finite complex exponential
sum (or a power table feeding one) literally, term by term; nothing is
replaced by a closed form.  Each sum has one vectorised numpy implementation.

Every multiplicative coset of F_p* is an arithmetic progression of exponents:
with R[j] = roots[tau**j] (R = roots[powers]), the terms of a sum over
b = tau**i and u = tau**m sit at R[i + m], so a whole table of such sums is a
strided window of R (cyclic_window: a read-only view, no index grid, no
% p and no gather).  The complete inner sums (row c = tau**i is roots[0] plus
R[i..i+p-2]), the quadratic half sums (row b = tau**i is R[i+1], R[i+3], ...)
and U-hat (row a = tau**(2n) is one dot of R[2n+(p-1)/2 ..] with the half
sums in exponent order) read such windows; each row is still summed over the
same terms as its literal definition, only in exponent order.  The character
combine reads row p-u of a sliding window over the reversed, doubled inner
sums, adding one u at a time in a fixed order.

The single-a oracle char_sum_one and the swapped U-hat loop stay on the
independent gather path: they gather table[op(r, s) % p] over an index grid
r x s through index_blocks, one block of rows at a time.  A block holds about
_BLOCK = 2**18 index entries (at least one row), so its int64 indices and
gathered complex terms take about 6 MiB whatever p is.

uhat_rows serves the single-a U-hat oracle.

prefix_max_abs is exact but not literal.  It evaluates one partial-sum path
P[i] = sum_{m<=i} roots[tau**m] term by term, reads every row off it by the
shift identity (the row for b = tau**j at cutoff x is P[j+x] - P[j]), and
answers each row's farthest-point query from the convex hulls of whole
blocks of P plus a brute-force scan of its own block.  The literal row-by-row
cumsum it replaces is kept in the tests as its reference, as are the gather
forms the window kernels replace.

All angles come from a shared table roots[t] = exp(2*pi*i*t/p), so the inner
products (c*s) mod p stay in exact int64 arithmetic (safe for p <= 10**6).
Row sums rely on numpy's pairwise summation, which keeps the rounding error
well inside the 1e-6 integrality budget at these lengths.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view


def kernel_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def roots_table(p: int) -> np.ndarray:
    """roots[t] = exp(2*pi*i*t/p) for t in [0, p)."""
    return np.exp(2j * np.pi * np.arange(p) / p)


def pow_table(tau: int, p: int) -> np.ndarray:
    """powers[j] = tau**j mod p for j in [0, p-1), by doubling: once the first
    k entries are filled, out[k:2k] = out[:k] * tau**k mod p (exact in int64
    for p <= 10**6), so the table takes about log2(p) numpy passes."""
    n = p - 1
    out = np.empty(n, dtype=np.int64)
    out[:1] = 1
    k = 1
    while k < n:
        m = min(k, n - k)
        np.remainder(out[:m] * pow(tau, k, p), p, out=out[k : k + m])
        k += m
    return out


_BLOCK = 2**18  # index entries per block of index_blocks


def index_blocks(r: np.ndarray, s: np.ndarray, op, p: int):
    """Yield (i, op(r[i:j, None], s[None, :]) % p) over consecutive row blocks
    r[i:j] of about _BLOCK entries each (at least one row)."""
    step = max(1, _BLOCK // max(len(s), 1))
    for i in range(0, len(r), step):
        yield i, op(r[i : i + step, None], s[None, :]) % p


def row_sums(table: np.ndarray, r: np.ndarray, s: np.ndarray, op, p: int) -> np.ndarray:
    """out[i] = sum_j table[op(r[i], s[j]) % p], each row summed term by term."""
    out = np.empty(len(r), dtype=table.dtype)
    for i, idx in index_blocks(r, s, op, p):
        out[i : i + len(idx)] = table[idx].sum(axis=1)
    return out


def cyclic_window(seq: np.ndarray, start: int, rows: int, row_step: int, cols: int,
                  col_step: int) -> np.ndarray:
    """Read-only view w[i, j] = seq[(start + i*row_step + j*col_step) % len(seq)]
    of shape (rows, cols), strided over one tiled copy of seq (non-negative steps)."""
    last = start + max(rows - 1, 0) * row_step + max(cols - 1, 0) * col_step
    tiled = np.resize(seq, last + 1)
    size = tiled.itemsize
    return as_strided(tiled[start:], shape=(rows, cols), strides=(row_step * size, col_step * size),
                      writeable=False)


def inner_complete_sums(p: int, powers: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """inner[c] = sum_{s=0}^{p-1} roots[(c*s) % p] for every c in [0, p).

    powers must be the [tau**0, ..., tau**(p-2)] table.  For c = tau**i the
    terms s = tau**j are R[i+j] with R = roots[powers], so inner[tau**i] is
    roots[0] plus row i of a window of R; inner[0] is the sum of p ones.
    """
    n = p - 1
    out = np.empty(p, dtype=roots.dtype)
    out[0] = np.full(p, roots[0]).sum()
    out[powers] = roots[0] + cyclic_window(roots[powers], 0, n, 1, n, 1).sum(axis=1)
    return out


def difference_sums(inner: np.ndarray, members: np.ndarray, p: int) -> np.ndarray:
    """out[a-1] = sum_{u in members} inner[(u - a) % p] for every a in [1, p).

    For each u in the order given, the values inner[(u - a) % p] over a are
    row p-u of a sliding window over the reversed, doubled inner; rows are
    added one u at a time, so no difference grid is built.
    """
    w = cyclic_window(inner[::-1], 0, p, 1, p - 1, 1)
    out = np.zeros(p - 1, dtype=inner.dtype)
    for u in members.tolist():
        out += w[p - u]
    return out


def char_sum_one(a: int, coset: np.ndarray, p: int, roots: np.ndarray) -> complex:
    """(1/p) * sum_{u in coset} sum_{s=0}^{p-1} roots[((u-a)*s) % p]."""
    c = (coset.astype(np.int64) - a) % p
    return complex(row_sums(roots, c, np.arange(p, dtype=np.int64), np.multiply, p).sum()) / p


def halfsums(powers: np.ndarray, p: int, roots: np.ndarray) -> np.ndarray:
    """S[b] = sum_{m=0}^{(p-3)/2} roots[(b * tau**(2m+1)) % p] for every b in
    [0, p): the sums over the quadratic nonresidues in odd-exponent order.

    powers must be the [tau**0, ..., tau**(p-2)] table.  S[tau**i] is row i of
    the window R[i+1], R[i+3], ... of R = roots[powers]; S[0] sums (p-1)/2 ones.
    """
    n = p - 1
    out = np.empty(p, dtype=roots.dtype)
    out[0] = np.full(n // 2, roots[0]).sum()
    out[powers] = cyclic_window(roots[powers], 1, n, 1, n // 2, 2).sum(axis=1)
    return out


def uhat_rows(s: np.ndarray, first: int, rows: int, powers: np.ndarray, p: int,
              roots: np.ndarray) -> np.ndarray:
    """U[n] = sum_{b=1}^{p-1} roots[(-a*b) % p] * s[b] for a = tau**(2*(first+n)),
    n in [0, rows), given s[b] for b in [0, p) and the power table.

    With -1 = tau**((p-1)/2) and b = tau**i, the factor roots[-a*b] is
    R[2*(first+n) + i + (p-1)/2], so each row is one dot of a window row of
    R = roots[powers] with s in exponent order s[powers].
    """
    n = p - 1
    w = cyclic_window(roots[powers], n // 2 + 2 * first, rows, 2, n, 1)
    return w @ s[powers]


def incomplete_sum(b: int, x_cutoff: int, powers: np.ndarray, p: int, roots: np.ndarray) -> complex:
    """sum_{n=1}^{x_cutoff} roots[(b * tau**n) % p], with powers[j] = tau**j mod p."""
    n = np.arange(1, x_cutoff + 1) % (p - 1)
    return complex(roots[(b * powers[n]) % p].sum())


_HULL_BLOCK = 256  # points of the partial-sum path per block in prefix_max_abs


def _hull(z: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of the points z (Andrew's monotone chain).

    The point of z farthest from any query point is one of them.
    """
    if len(z) <= 2:
        return z
    pts = sorted(zip(z.real.tolist(), z.imag.tolist()))
    vertices = []
    for seq in (pts, pts[::-1]):  # lower chain, then upper chain
        chain = []
        for x, y in seq:
            while len(chain) >= 2:
                (x1, y1), (x2, y2) = chain[-2], chain[-1]
                if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) > 0:
                    break
                chain.pop()
            chain.append((x, y))
        vertices += chain[:-1]
    return np.array(vertices).view(np.complex128).ravel()


def prefix_max_abs(powers: np.ndarray, p: int, roots: np.ndarray) -> np.ndarray:
    """maxabs[b-1] = max over x in [1, p-1] of |sum_{n<=x} roots[(b*tau**n)%p]|.

    powers must be the [tau**0, ..., tau**(p-2)] table.

    With P[i] = sum_{m=1}^{i} roots[tau**m] and c = P[p-1], the row for
    b = tau**j at cutoff x is P[j+x] - P[j], and P[i+p-1] = P[i] + c.  So the
    row maximum is the distance from P[j] to the farthest point of the window
    P[j+1..j+p-1]: the suffix P[j+1..p-1] and the prefix P[1..j] shifted by c.
    The farthest point of a set is a vertex of its convex hull, so whole
    blocks of _HULL_BLOCK points are read through cumulative hulls of the
    blocks after and before the query's own block (a few dozen vertices),
    and only the query's own block is scanned point by point.

    Row p-b = tau**(j+(p-1)/2) is the complex conjugate of row b, so only
    j < (p-1)/2 is evaluated and each value is copied to its pair: the two
    entries are bitwise equal, and argmax picks the smaller b of a pair.
    """
    n, half = p - 1, (p - 1) // 2
    rows = p // 2  # rows j < half are evaluated; at p = 2 the one row j = 0 is its own pair
    path = np.cumsum(roots[np.roll(powers, -1)])  # path[i] = P[i+1]
    c = path[-1]
    start = np.concatenate(([0j], path[: rows - 1]))  # P[j] for each row j
    blocks = [path[s : s + _HULL_BLOCK] for s in range(0, n, _HULL_BLOCK)]
    hulls = [_hull(blk) for blk in blocks]
    empty = np.empty(0, dtype=np.complex128)
    after = [empty] * (len(blocks) + 1)  # after[k]: hull of blocks k, k+1, ...
    for k in range(len(blocks) - 1, 0, -1):
        after[k] = _hull(np.concatenate((hulls[k], after[k + 1])))
    before = empty  # hull of the blocks before the current one
    best = np.empty(rows)
    for k in range(-(-rows // _HULL_BLOCK)):
        if k:
            before = _hull(np.concatenate((before, hulls[k - 1])))
        j0, j1 = k * _HULL_BLOCK, min((k + 1) * _HULL_BLOCK, rows)
        blk, a = blocks[k], start[j0:j1, None]
        # row j0+r scans blk[r:] and blk[:r] + c: one sliding window of blk, blk + c
        own = sliding_window_view(np.concatenate((blk, blk + c)), len(blk))[: j1 - j0]
        far = np.concatenate((after[k + 1], before + c))
        best[j0:j1] = np.maximum(np.abs(own - a).max(axis=1), np.abs(far - a).max(axis=1, initial=0.0))
    out = np.empty(n, dtype=np.float64)
    out[powers[:rows] - 1] = best
    out[powers[half : half + rows] - 1] = best
    return out


def uhat_swapped(a: int, coset: np.ndarray, p: int, roots: np.ndarray) -> complex:
    """sum_{u in coset} sum_{b=1}^{p-1} roots[((u-a)*b) % p]: the U-hat double
    sum with the loops exchanged (outer u, inner b), a commutativity check."""
    c = (coset.astype(np.int64) - a) % p
    return complex(row_sums(roots, c, np.arange(1, p, dtype=np.int64), np.multiply, p).sum())
