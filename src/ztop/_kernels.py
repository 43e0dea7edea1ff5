"""Integer kernels for the hot paths: circle wrapping, balanced digit
extraction, the digit and partial-sum ratios, the first arc exit,
neighbourhood membership scans and the window sieve.

All functions work on plain arbitrary-precision integers plus pivot term
lists materialized by the caller; no rationals are constructed here.

The uniform neighbourhoods U_m are nested arcs, and one chain bound
serves every level. Let b_T be the first term >= 2|k|. From b_T on, k/b_n
is |k|/b_n on the circle, and that ratio falls as n grows: if b_T passes
at level m, every later term passes, and if a later term fails, b_T fails
first. So the terms up to b_T decide whether k is in U_m at every level m
at once, and every uniform answer grows the chain to 2|k|, never to a
bound that depends on m. The balanced digits of k read b_T too: they end
at index T - 1, and the partial-sum and digit ratios divide by b_T last.

One kernel walks k/b_n along the chain up to b_T. ``first_arc_exit``
answers "where does k/b_n first leave the arc at level m?" for the direct
membership route, the sequence witnesses and the criteria 2-3 sweep. It
uses the chain's divisibility: past the one-digit terms it reduces k once,
modulo the last term below b_T, and then walks a residue ladder down the
chain, each step a division between neighbouring terms, until a residue is
zero. Its answer is monotone in m: the arcs shrink as m grows, so an exit
at level m is an exit at every larger level, and a k != 0 lies in U_m
exactly for m up to a last level M >= 0. The sweep relies on this: it asks
the walk at the partial-sum route's last level and the one above, and when
the first finds no exit and the second finds one, the two routes agree at
every level.

``trailing_zeros`` lets callers shift powers of two out of an integer
before a gcd or a division: CPython divides big integers by schoolbook long
division, with no fast path for powers of two, so gcd(2^a, 2^b) costs as
much as a long division of the two.
"""

from bisect import bisect_left
from itertools import compress
from math import gcd
from operator import itemgetter

_ONE_DIGIT = 1 << 30  # below this a term is one 30-bit CPython digit
_SPARSE = 12  # mask_positions walks with find() below one position set in 12


def trailing_zeros(x):
    """The exponent of 2 in x != 0, its count of trailing zero bits; the
    sign of x does not matter."""
    return (x & -x).bit_length() - 1


def divides(b, x):
    """Whether b >= 1 divides x. A power of two masks x's low bits instead of
    dividing: CPython's long division costs the quotient's size times the
    divisor's, with no fast path for powers of two, and on a two-power chain
    a sequence term can hold many times the bits of b_n."""
    if b & (b - 1):
        return not x % b
    return not x & (b - 1)


def wrap_half(p, q):
    """The unique t with t = p (mod q) and -q/2 <= t < q/2, for q > 0.

    t/q is the canonical representative of p/q on the circle.
    """
    t = p % q
    if (t << 1) >= q:
        t -= q
    return t


def decompose_digits(l, terms, top):
    """Balanced digits k_0..k_N of l over the divisibility chain ``terms``.

    ``top`` is the top index N, minimal with b_N >= |l|; ``terms`` must hold
    the chain prefix [b_0, ..., b_N]. Digit k_n is the nearest integer (ties
    toward 0) to the running remainder r divided by b_n, taken from N
    downwards. Trailing zero digits are trimmed; l == 0 gives [] by its own
    branch, since the walk below indexes the digit list.

    The kernel steps from one nonzero digit to the next. A level with
    2|r| <= b_n rounds to 0 and leaves r as it is, so the next level that
    matters is the largest b_n < 2|r|, found by bisection below the current
    level; level 0 takes what is left of r. A zero remainder ends the walk:
    every lower level rounds to 0, no term lies below 2|r| = 0, and level 0
    keeps its 0. The digit list is allocated at the first nonzero level, so
    it needs no trimming.
    """
    if not l:
        return []
    r = l
    ar2 = (-r if r < 0 else r) << 1
    n = top if terms[top] < ar2 else top - 1  # b_{top-1} < |l| < 2|l|
    digits = [0] * (n + 1)
    while n > 0:
        b = terms[n]
        f = (ar2 + b - 1) // (b << 1)  # round |r|/b_n, ties down
        if r > 0:
            r -= f * b
            digits[n] = f
        else:
            r += f * b
            digits[n] = -f
        ar2 = (-r if r < 0 else r) << 1
        n -= 1
        if terms[n] >= ar2:
            n = bisect_left(terms, ar2, 0, n) - 1
    digits[0] = r
    return digits


def coefficient_checks(digits, terms):
    """Recompose ``digits`` over ``terms`` and verify the balance bounds.

    Returns (value, digit_bounds_ok, partial_sum_bounds_ok) where the bounds
    are 2*|k_n|*b_n <= b_{n+1} and 2*|sum_{i<=n} k_i b_i| <= b_{n+1}.
    ``terms`` must hold at least len(digits)+1 chain terms; a shorter list
    raises IndexError.

    Both bounds are tested at nonzero digits only. At a zero digit the digit
    bound reads 0 <= b_{n+1}, and the partial sum is the one of the level
    before, already held to b_n < b_{n+1}.
    """
    if len(terms) <= len(digits):
        raise IndexError(
            f"{len(digits)} digits need {len(digits) + 1} chain terms, got {len(terms)}"
        )
    value = 0
    digit_ok = True
    partial_ok = True
    n = 0
    for k in digits:
        n += 1
        if k:
            kb = k * terms[n - 1]
            b1 = terms[n]
            if (-kb if kb < 0 else kb) << 1 > b1:
                digit_ok = False
            value += kb
            if (-value if value < 0 else value) << 1 > b1:
                partial_ok = False
    return value, digit_ok, partial_ok


def digit_ratios(digits, terms):
    """The exact pairs ((dn, dd), (pn, pd)) of the largest |k_n| b_n / b_{n+1}
    and the largest |sum_{i<=n} k_i b_i| / b_{n+1}, each (0, 1) when no digit
    is nonzero. A prefix ``terms`` shorter than len(digits)+1 raises IndexError.

    Neither depends on the level m: the partial-sum criterion at m is
    4m * pn <= pd, and a one-sided digit test at c/(8m) is 8m * dn <= c * dd.
    A zero digit is skipped: its partial sum is the one before, over a larger
    b_{n+1}.
    """
    if len(terms) <= len(digits):
        raise IndexError(
            f"{len(digits)} digits need {len(digits) + 1} chain terms, got {len(terms)}"
        )
    dn, dd, pn, pd = 0, 1, 0, 1
    partial = 0
    n = 0
    for k in digits:
        n += 1
        if k:
            kb = k * terms[n - 1]
            b = terms[n]
            a = -kb if kb < 0 else kb
            if a * dd > dn * b:
                dn, dd = a, b
            partial += kb
            a = -partial if partial < 0 else partial
            if a * pd > pn * b:
                pn, pd = a, b
    return (dn, dd), (pn, pd)


def first_arc_exit(k, terms, m):
    """The least n >= 1 with k/b_n outside the closed arc [-1/(4m), 1/(4m)],
    or None when there is none.

    ``terms`` must be a divisibility chain (b_n divides b_{n+1}) that
    reaches b_T, the first term >= 2|k|, the bound every level shares. The
    terms below b_T are walked in two parts. The one-digit terms go
    bottom-up with k itself, stopping at the first exit, and are skipped
    when the largest of them divides k, since then every one of them does.
    The larger terms go down a residue ladder: since k mod b_n = (k mod
    b_{n+1}) mod b_n along the chain, k is reduced once, modulo the last
    term below b_T, and each step below divides the previous residue by its
    neighbouring term; the least failing index wins. A zero residue ends the
    ladder: the terms below it divide k. A rung whose term is a power of two
    masks the residue's low bits instead of dividing: on the pow2 chain the
    quotient of neighbouring terms has as many bits as the divisor, and
    CPython's long division has no fast path for it. Only when no term below
    b_T fails is b_T tested, as |k|/b_T: a later term cannot fail first;
    k = 0 passes at b_T = b_0 = 1, with no walk.

    An exit at level m is an exit at every larger level, since the arcs are
    nested; ``route_violations`` relies on it.
    """
    ak = -k if k < 0 else k
    bound = 2 * ak
    top = bisect_left(terms, bound)  # T
    if top == len(terms):
        raise ValueError("pivot prefix too short for membership scan")
    start = 1
    if bound > _ONE_DIGIT:
        last = bisect_left(terms, _ONE_DIGIT) - 1  # the largest one-digit term
        if not k % terms[last]:
            start = last + 1
    for n in range(start, top):
        b = terms[n]
        if b >= _ONE_DIGIT:
            break
        t = k % b
        if (t << 1) >= b:
            t = b - t
        if 4 * m * t > b:
            return n
    else:
        n = top
    least = None
    r = k
    for i in range(top - 1, n - 1, -1):
        b = terms[i]
        if b & (b - 1):
            r %= b
        else:  # a power of two: a mask, not a long division
            r &= b - 1
        if not r:
            break
        t = b - r if (r << 1) >= b else r
        if 4 * m * t > b:
            least = i
    if least is None and 4 * m * ak > terms[top]:
        return top
    return least


def member_direct_scan(k, terms, m):
    """Whether k/b_n stays within the closed arc [-1/(4m), 1/(4m)] for all
    n >= 1: ``first_arc_exit`` finds no exit. ``terms`` must reach a term
    >= 2|k|."""
    return first_arc_exit(k, terms, m) is None


def member_partial_scan(k, terms, m):
    """Membership via the partial-sum criterion on the balanced digits of k:
    k belongs iff |sum_{s<n} k_s b_s| / b_n <= 1/(4m) for every n >= 1, read
    off the second pair of ``digit_ratios``. ``terms`` must reach b_{s+1}, s
    the last nonzero digit, which a term >= 2|k| guarantees.
    """
    digits = decompose_digits(k, terms, bisect_left(terms, -k if k < 0 else k))
    pn, pd = digit_ratios(digits, terms)[1]
    return 4 * m * pn <= pd


def mask_positions(mask, start=0, step=1):
    """The integers start + i * step with mask[i] == 1, in increasing order
    for step >= 1, for a mask of zero and one bytes; an iterable, read once.

    A sparse mask is walked with ``bytearray.find``, one call per position
    set, so the zeros between them cost no Python step; a dense one, with
    at least one position set in _SPARSE, goes lazily through ``compress``,
    which makes an int for every position but costs less per position than
    a call to ``find``, and so does every mask with step != 1, which keeps
    the walk with ``find`` free of multiplications. Clearing a byte already
    passed does not disturb the positions still to come.
    """
    count = mask.count(1)
    if count * _SPARSE >= len(mask) or step != 1:
        return compress(range(start, start + len(mask) * step, step), mask)
    out = []
    i = mask.find(1)
    for _ in range(count):
        out.append(start + i)
        i = mask.find(1, i + 1)
    return out


def arc_sieve(lo, hi, conds):
    """Mask of the k in [lo, hi] that satisfy every arc condition.

    A condition (p, q, level), with q >= 1 and level >= 1, holds for k iff
    4 * level * |wrap_half(k * p, q)| <= q, that is iff k*p/q lies in the
    closed arc [-1/(4 level), 1/(4 level)]. It depends on k mod q only: the
    allowed residues are p^-1 * t with |t| <= q // (4 level), and the
    failing ones, t = r+1 .. q-r-1 with r = q // (4 level), are struck out
    with slice assignment.

    Conditions shaped like a divisibility chain are tiled. Taken in
    increasing q, a condition with p = 1 (mod q), q no larger than the
    window and q a multiple of the period built so far extends a one-period
    pattern by repetition to period q and strikes its one run of failing
    residues there with a single slice. The intersection of such conditions
    is periodic mod the last q accepted, so the pattern is copied over the
    window from offset lo mod period, and a chain term costs one slice
    whatever the window's length.

    Every other condition is struck out from the tiled mask. When p = 1
    (mod q) the failing k form one run per period, so the kernel takes
    whichever costs fewer slices: one slice per period or one stride-q
    slice per failing residue. Any other condition is struck out residue by
    residue while the failing residues are no more than the k still
    standing, and is otherwise checked directly on the survivors, as is one
    whose p has no inverse mod q. Once no k stands, every such condition
    goes to the direct check, which walks no survivor.

    Byte i of the returned bytearray is 1 iff lo + i satisfies every
    condition. Since |wrap_half(-x, q)| == |wrap_half(x, q)|, the mask of
    [-hi, -lo] is this one reversed.
    """
    size = hi - lo + 1
    if size <= 0:
        return bytearray()
    zeros = memoryview(bytes(size))
    pattern, period, rest = bytearray(b"\x01"), 1, []
    for p, q, level in sorted(conds, key=itemgetter(1)):
        r = q // (4 * level)
        gap = q - 2 * r - 1  # failing residues per period: t = r+1 .. q-r-1
        if gap <= 0:
            continue
        if p % q == 1 and q <= size and not q % period:
            pattern *= q // period
            period = q
            pattern[r + 1 : q - r] = zeros[:gap]
        else:
            rest.append((p, q, r, gap))
    off = lo % period
    mask = (pattern * ((off + size - 1) // period + 1))[off : off + size]
    direct = []
    for p, q, r, gap in rest:
        if p % q == 1:
            if size // q + 2 <= gap:
                start = lo + (r + 1 - lo) % q - q
                for a in range(start, hi + 1, q):
                    i0 = a - lo if a > lo else 0
                    i1 = a + gap - lo
                    if i1 > size:
                        i1 = size
                    if i0 < i1:
                        mask[i0:i1] = zeros[: i1 - i0]
                continue
            inv = 1
        elif gap > mask.count(1) or gcd(p, q) != 1:
            direct.append((p, q, r))
            continue
        else:
            inv = pow(p, -1, q)
        for t in range(r + 1, q - r):
            i0 = (inv * t - lo) % q
            if i0 < size:
                mask[i0::q] = zeros[: (size - 1 - i0) // q + 1]
    if direct:
        for i in mask_positions(mask):
            k = lo + i
            for p, q, r in direct:
                t = k * p % q
                if (t << 1) >= q:
                    t = q - t
                if t > r:
                    mask[i] = 0
                    break
    return mask
