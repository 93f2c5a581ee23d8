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
sums, adding one u at a time in a fixed order.  The complete inner sums and
the half sums depend on p alone: a SmallFieldTable makes each pass once, on
first use, and keeps the result for every k, indicator and a.

The single-a oracle char_sum_one and the swapped U-hat loop stay on the
independent gather path: they gather table[op(r, s) % p] over an index grid
r x s through index_blocks, one block of rows at a time.  A block holds about
_BLOCK = 2**18 index entries (at least one row), so its int64 indices and
gathered complex terms take about 6 MiB whatever p is.

uhat_rows serves the single-a U-hat oracle.

prefix_max_abs is exact but not literal.  It evaluates one partial-sum path
P[i] = sum_{m<=i} roots[tau**m] term by term, reads every row off it by the
shift identity (the row for b = tau**j at cutoff x is P[j+x] - P[j]), and
answers each row's farthest-point query from the convex hulls of blocks of
P.  Vectorised passes prune every block to its hull candidates (about 5% of
its points) before the Python monotone chain sees them, and a row scans its
own block point by point only when a bound on that block's distances does
not rule it out.  Any subset of a set that holds all its hull vertices has
the same farthest point, so each row comes out bitwise as the block-hull
kernel it replaces computed it.  The literal row-by-row cumsum and that
block-hull kernel, which hulled whole 256-point blocks and scanned every
row's own block, are kept in the tests as references, as are the gather
forms the window kernels replace.

All angles come from a shared table roots[t] = exp(2*pi*i*t/p), so the inner
products (c*s) mod p stay in exact int64 arithmetic (safe for p <= 10**6).
Row sums rely on numpy's pairwise summation, which keeps the rounding error
well inside the 1e-6 integrality budget at these lengths.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


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
# pruning passes at most in _hull_candidates: the paths to p = 10007 mostly reach a
# fixed point within 12 (some take up to 16), and stopping early only keeps more candidates
_PRUNE_PASSES = 12
_PRUNE_CHUNK = 2**15  # path points per _hull_candidates call (whole blocks), which bounds its scratch memory
# relative and absolute slack on the reach of a row's own block in
# prefix_max_abs, far above the rounding of the distances it bounds (the path
# has |P| < 10**6, so their ulps are below 1e-9)
_REACH_SLACK = 1e-6


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


def _hull_candidates(z: np.ndarray) -> list[np.ndarray]:
    """For each block z[s : s + _HULL_BLOCK], its points that may be vertices
    of its convex hull, sorted by (x, y): a superset of what _hull returns.

    One sort orders every block by (x, y) (numpy orders complex numbers so),
    and exact repeats of a point are dropped but for their first copy.  Then
    each pass drops every point but a block's first and last whose turn with
    its surviving neighbours fails _hull's own test (the same cross product,
    popped when <= 0), walking the sorted blocks forward for the lower chain
    and backward for the upper chain, as _hull does.  Such a point lies on or
    beyond the segment joining two other points of its block, so it is no
    vertex of that chain, and dropping it changes neither chain.  A point
    stays a candidate while either chain keeps it.
    """
    n = len(z)
    blocks = -(-n // _HULL_BLOCK)
    padded = np.concatenate((z, np.full(blocks * _HULL_BLOCK - n, np.inf)))  # the padding sorts last
    zs = np.sort(padded.reshape(blocks, _HULL_BLOCK), axis=1).ravel()[:n]
    ends = np.zeros(n, dtype=bool)
    ends[::_HULL_BLOCK] = ends[_HULL_BLOCK - 1 :: _HULL_BLOCK] = ends[-1] = True
    alive = np.ones(n, dtype=bool)
    alive[1:] = (zs[1:] != zs[:-1]) | ends[1:]
    # both walks in one sequence: the sorted blocks, then the same blocks reversed
    idx = np.flatnonzero(np.concatenate((alive, alive[::-1])))
    x, y = np.concatenate((zs.real, zs.real[::-1]))[idx], np.concatenate((zs.imag, zs.imag[::-1]))[idx]
    fixed = np.concatenate((ends, ends[::-1]))[idx]
    for _ in range(_PRUNE_PASSES):
        x1, y1, x2, y2, x3, y3 = x[:-2], y[:-2], x[1:-1], y[1:-1], x[2:], y[2:]
        stay = fixed.copy()
        stay[1:-1] |= (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) > 0
        if stay.all():
            break
        s = np.flatnonzero(stay)
        idx, x, y, fixed = idx[s], x[s], y[s], fixed[s]
    keep = np.zeros(2 * n, dtype=bool)
    keep[idx] = True
    keep = keep[:n] | keep[: n - 1 : -1]
    cut = np.searchsorted(np.flatnonzero(keep), np.arange(0, n + _HULL_BLOCK, _HULL_BLOCK)).tolist()
    kept = zs[keep]
    return [kept[i:j] for i, j in zip(cut[:-1], cut[1:])]


def prefix_max_abs(powers: np.ndarray, p: int, roots: np.ndarray) -> np.ndarray:
    """maxabs[b-1] = max over x in [1, p-1] of |sum_{n<=x} roots[(b*tau**n)%p]|.

    powers must be the [tau**0, ..., tau**(p-2)] table.

    With P[i] = sum_{m=1}^{i} roots[tau**m] and c = P[p-1], the row for
    b = tau**j at cutoff x is P[j+x] - P[j], and P[i+p-1] = P[i] + c.  So the
    row maximum is the distance from P[j] to the farthest point of the window
    P[j+1..j+p-1]: the suffix P[j+1..p-1] and the prefix P[1..j] shifted by c.
    The farthest point of a set is a vertex of its convex hull, so any subset
    holding every vertex has the same farthest point, reached by the same
    np.abs(z - a), and the row comes out bitwise the same whichever such
    subset is read.

    The path is cut into blocks of _HULL_BLOCK points.  _hull_candidates
    prunes each block to its hull candidates (about 13 of its 256 points), so
    the Python chain of _hull sees only those, and a row reads the blocks
    after and before its own through their cumulative hulls (a few dozen
    vertices).  Its own block, one sliding window of the block and the block
    shifted by c, is scanned point by point only when some point of it might
    lie farther: when the distance from the row's start P[j] to the block's
    mean, plus the block's radius about that mean (with _REACH_SLACK),
    reaches the farthest hull vertex.  Over the primes to 10007 that holds
    for 4% of the rows at 1000 < p < 2000, 0.1% at 3000 < p < 5000 and 35
    rows in all above; at 99991 and 999983 for none.
    At p = 999983 the kernel's scratch memory peaks near 44 MB (45 MB for
    the block-hull kernel): the path, its terms, the row starts and the
    output, while each _hull_candidates call adds under 7 MB.

    Row p-b = tau**(j+(p-1)/2) is the complex conjugate of row b, so only
    j < (p-1)/2 is evaluated and each value is copied to its pair: the two
    entries are bitwise equal, and argmax picks the smaller b of a pair.
    """
    n, half = p - 1, (p - 1) // 2
    rows = p // 2  # rows j < half are evaluated; at p = 2 the one row j = 0 is its own pair
    path = np.cumsum(roots[np.roll(powers, -1)])  # path[i] = P[i+1]
    c = path[-1]
    start = np.concatenate(([0j], path[: rows - 1]))  # P[j] for each row j
    cands = (cand for s in range(0, n, _PRUNE_CHUNK) for cand in _hull_candidates(path[s : s + _PRUNE_CHUNK]))
    hulls = [_hull(cand) for cand in cands]
    empty = np.empty(0, dtype=np.complex128)
    after = [empty] * (len(hulls) + 1)  # after[k]: hull of blocks k, k+1, ...
    for k in range(len(hulls) - 1, 0, -1):
        after[k] = _hull(np.concatenate((hulls[k], after[k + 1])))
    before = empty  # hull of the blocks before the current one
    best = np.empty(rows)
    for k in range(-(-rows // _HULL_BLOCK)):
        if k:
            before = _hull(np.concatenate((before, hulls[k - 1])))
        j0, j1 = k * _HULL_BLOCK, min((k + 1) * _HULL_BLOCK, rows)
        a = start[j0:j1]
        far = np.concatenate((after[k + 1], before + c))
        best[j0:j1] = np.abs(far - a[:, None]).max(axis=1, initial=0.0)
        # row j0+t also reads blk[t:] and blk[:t] + c, a sliding window of doubled,
        # when some point of doubled might lie farther
        blk = path[j0 : j0 + _HULL_BLOCK]
        doubled = np.concatenate((blk, blk + c))
        mid = doubled.mean()
        reach = np.abs(a - mid) + np.abs(doubled - mid).max()
        near = np.flatnonzero(reach * (1 + _REACH_SLACK) + _REACH_SLACK >= best[j0:j1])
        own = as_strided(doubled, (j1 - j0, len(blk)), (doubled.itemsize,) * 2)[near]
        best[j0 + near] = np.maximum(best[j0 + near], np.abs(own - a[near, None]).max(axis=1))
    out = np.empty(n, dtype=np.float64)
    out[powers[:rows] - 1] = best
    out[powers[half : half + rows] - 1] = best
    return out


def uhat_swapped(a: int, coset: np.ndarray, p: int, roots: np.ndarray) -> complex:
    """sum_{u in coset} sum_{b=1}^{p-1} roots[((u-a)*b) % p]: the U-hat double
    sum with the loops exchanged (outer u, inner b), a commutativity check."""
    c = (coset.astype(np.int64) - a) % p
    return complex(row_sums(roots, c, np.arange(1, p, dtype=np.int64), np.multiply, p).sum())
