"""Integer kernels for the hot paths: rounding, circle wrapping, balanced
digit extraction, and neighbourhood membership scans.

All functions work on plain arbitrary-precision integers plus pivot term
lists materialized by the caller; no rationals are constructed here.
"""

from bisect import bisect_left


def nearest_int_div(p, q):
    """Nearest integer to p/q with q > 0; exact half-ties resolve toward 0.

    Odd symmetry holds: nearest_int_div(-p, q) == -nearest_int_div(p, q).
    """
    f, r = divmod(p, q)
    r2 = r << 1
    if r2 > q:
        return f + 1
    if r2 < q or f >= 0:
        return f
    return f + 1


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
    toward 0) to the running remainder divided by b_n, taken from N
    downwards. Trailing zero digits are trimmed; l == 0 gives [].
    """
    digits = [0] * (top + 1)
    r = l
    for n in range(top, 0, -1):
        b = terms[n]
        f, rem = divmod(r, b)
        rem2 = rem << 1
        if rem2 > b or (rem2 == b and f < 0):
            f += 1
        digits[n] = f
        r -= f * b
    digits[0] = r
    while digits and digits[-1] == 0:
        digits.pop()
    return digits


def coefficient_checks(digits, terms):
    """Recompose ``digits`` over ``terms`` and verify the balance bounds.

    Returns (value, digit_bounds_ok, partial_sum_bounds_ok) where the bounds
    are 2*|k_n|*b_n <= b_{n+1} and 2*|sum_{i<=n} k_i b_i| <= b_{n+1}.
    ``terms`` must hold at least len(digits)+1 chain terms.
    """
    value = 0
    digit_ok = True
    partial_ok = True
    for n in range(len(digits)):
        k = digits[n]
        b1 = terms[n + 1]
        ak = -k if k < 0 else k
        if (ak * terms[n]) << 1 > b1:
            digit_ok = False
        value += k * terms[n]
        av = -value if value < 0 else value
        if av << 1 > b1:
            partial_ok = False
    return value, digit_ok, partial_ok


def first_arc_exit(k, terms, m):
    """The least n >= 1 with k/b_n outside the closed arc [-1/(4m), 1/(4m)],
    or None when there is none.

    Only indices with b_n < 4m|k| need checking; beyond them |k|/b_n is at
    most 1/(4m) and the canonical representative is k/b_n itself. ``terms``
    must contain a term >= 4m|k|.
    """
    if k == 0:
        return None
    ak = -k if k < 0 else k
    bound = 4 * m * ak
    for n in range(1, len(terms)):
        b = terms[n]
        if b >= bound:
            return None
        t = k % b
        if (t << 1) >= b:
            t -= b
        if t < 0:
            t = -t
        if 4 * m * t > b:
            return n
    raise ValueError("pivot prefix too short for membership scan")


def member_direct_scan(k, terms, m):
    """Whether k/b_n stays within the closed arc [-1/(4m), 1/(4m)] for all n >= 1."""
    return first_arc_exit(k, terms, m) is None


def member_partial_scan(k, terms, m):
    """Membership via the partial-sum criterion on the balanced digits of k.

    k belongs iff |sum_{s<n} k_s b_s| / b_n <= 1/(4m) for every n >= 1; the
    scan stops once b_n >= 4m|k| and all digits are consumed (the partial
    sum then equals k and later indices pass automatically). ``terms`` must
    extend one term past the first term >= 4m|k|.
    """
    if k == 0:
        return True
    ak = -k if k < 0 else k
    digits = decompose_digits(k, terms, bisect_left(terms, ak))
    nd = len(digits)
    bound = 4 * m * ak
    partial = 0
    n = 1
    while True:
        if n - 1 < nd:
            partial += digits[n - 1] * terms[n - 1]
        b = terms[n]
        ap = -partial if partial < 0 else partial
        if 4 * m * ap > b:
            return False
        if b >= bound and n >= nd:
            return True
        n += 1
