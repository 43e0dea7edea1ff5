"""An independent check of the result records that ``ztop member``,
``decompose``, ``dual``, ``discrete``, ``converge`` and ``blocks`` print.

It imports nothing from ztop and shares none of its kernels. It rebuilds
b_n from the descriptor text by its closed form (2^(a_n) for the exponent
forms, P^q times the first r multipliers for a multiplier chain with period
product P and n = q * period + r) and the sequence terms l_j from their
definitions, and it tests points of the circle with integer residues: k/b
lies in the closed arc [-1/(4m), 1/(4m)] iff 4m * min(k mod b, b - k mod b)
<= b. No Fraction is built, so no gcd runs on a large term.

* ``member``: ``direct`` and ``partial_sums`` must both equal the checker's
  own scan of k/b_n, which runs to the first b_n >= 4m|k|, past which every
  k/b_n is |k|/b_n <= 1/(4m). ``sufficient`` and ``necessary`` come from
  the checker's own balanced digits: from the top index N, minimal with
  b_N >= |k|, down to 1, k_n is the remainder over b_n rounded to the
  nearest integer, ties toward 0.
* ``decompose``: the digits must be the checker's own balanced digits and
  recompose to ``value`` over its terms; ``sum_ok``, both bound flags and
  ``ok`` are tested on them, and ``top_index`` is the least N with
  b_N >= |l| (null for l = 0).
* ``dual``: the least n with q | b_n for the character's denominator q, or
  a prime of q, found by trial division, outside the chain's primes. A
  failing k must be a member that the character maps off the quarter arc,
  and every member between 0 and it, or up to the window when none fails,
  must pass. That is certified in one of three ways, and the checker says
  which: by containment, when q | b_N and every member is a multiple of b_N
  (U_m lies in b_N Z once 4m > b_N); by brute force, when at most
  BRUTE_MAX members are in question; otherwise on SAMPLE of them drawn with
  a fixed seed.
* ``discrete``: the multiplier is the least l with 4 l x_1 > 1 and the
  level is l times the ratio bound. The survivors are a brute force over
  the window: k > 0 survives when 4 level min(t, b - t) <= b, with
  t = k a mod b, for every x = a/b, and -k survives with k.
* ``converge``: each witness (j, n, value) has n the least index with
  l_j / b_n off the arc (uniform) or b_n not dividing l_j (linear), and
  value the exact point l_j / b_n, by cross-multiplication; the witnesses
  are exactly the failing j. For a stabilized or falsified verdict that
  holds for every j up to the horizon, and the outcome follows the
  stabilization rule. For an inconclusive one it holds for every j before
  the first one that the note's refused term blocks: l_j is blocked when
  evaluating it needs a term over the budget (b_{j+1} for a chain family)
  or when deciding it does. Deciding l_j at any level needs the terms up
  to the first b_n >= 2|l_j|: past it, |l_j|/b_n only falls.
* ``blocks``, as JSON or CSV: the whole table at once. Each settle index
  j_n is found by scanning l_j down from the horizon while b_n divides it,
  which on a two-power chain compares a_n with the trailing zeros of l_j;
  the levels run up to ``levels`` + 1 (the horizon + 1 by default) and stop
  at the first missing j_n, or at the first b_n over the budget, where the
  run notes a refusal. The blocks follow from the j_n, each peak
  max |l_j| / b_{n+1} is tested by cross-multiplication, and each peak-decay
  entry's ``settled_level`` and ``crosscheck_ok`` come from those peaks and
  from a witness scan from block n0's first index, which reads null where
  deciding an l_j needs a term over the budget.

Run it on a saved run as ``python tests/certcheck.py RUN.stdout [BUDGET]``;
it prints what it certified, or the first contradiction and exits 1.
"""

import contextlib
import csv
import json
import math
import re
import sys
from random import Random

DEFAULT_BUDGET = 1_000_000  # ztop's bit budget when ZTOP_BIT_BUDGET is unset
BRUTE_MAX = 10_000  # members tested one by one up to this many
SAMPLE = 2_000  # members tested otherwise, drawn with a fixed seed


class CheckFailed(Exception):
    """A record that its recomputation contradicts."""


def expect(condition, what):
    if not condition:
        raise CheckFailed(what)


def primes_of(x):
    """The prime factors of x >= 1, by trial division."""
    primes, d = set(), 2
    while d * d <= x:
        while x % d == 0:
            primes.add(d)
            x //= d
        d += 1
    if x > 1:
        primes.add(x)
    return primes


class Chain:
    """b_n of a pivot descriptor text, by its closed form."""

    def __init__(self, text):
        kind, _, args = text.partition(":")
        self.mults = None
        if kind == "chain":
            self.mults = [int(a) for a in args.split(",")]
            self.primes = set().union(*map(primes_of, self.mults))
        else:
            coeffs = [int(a) for a in args.split(",")] if kind == "poly" else []
            self.exponent = {
                "linear": lambda n: n,
                "square": lambda n: n * n,
                "factorial": lambda n: math.factorial(n) if n else 0,
                "pow2": lambda n: 1 << n if n else 0,
                "poly": lambda n: sum(c * n ** (i + 1) for i, c in enumerate(coeffs)),
            }[kind]
            self.primes = {2}
        self.cache = {}

    def term(self, n):
        b = self.cache.get(n)
        if b is None:
            if self.mults is None:
                b = 1 << self.exponent(n)
            else:
                q, r = divmod(n, len(self.mults))
                b = math.prod(self.mults) ** q * math.prod(self.mults[:r])
            self.cache[n] = b
        return b

    def bits(self, n):
        """The bit length of b_n, without building a two-power term."""
        return self.exponent(n) + 1 if self.mults is None else self.term(n).bit_length()


def off_arc(p, q, m):
    """Whether p/q lies outside the closed arc [-1/(4m), 1/(4m)], for q >= 1."""
    # A power-of-two q is masked, not divided: the chains' terms are often
    # huge powers of two, and p & (q - 1) equals p % q for every int p.
    t = p & (q - 1) if not q & (q - 1) else p % q
    return 4 * m * min(t, q - t) > q


def arc_exit(k, chain, m):
    """The least n >= 1 with k/b_n off the level-m arc, or None."""
    n = 1
    while k:
        b = chain.term(n)
        if off_arc(k, b, m):
            return n
        if b >= 4 * m * abs(k):
            return None
        n += 1
    return None


def balanced_digits(k, chain):
    """k_0, k_1, ... with k = sum k_n b_n, trailing zeros dropped."""
    if not k:
        return []
    top = 0
    while chain.term(top) < abs(k):
        top += 1
    digits, r = [0] * (top + 1), k
    for n in range(top, 0, -1):
        b = chain.term(n)
        f, rest = divmod(abs(r), b)
        if 2 * rest > b:
            f += 1
        digits[n] = f if r > 0 else -f
        r -= digits[n] * b
    digits[0] = r
    while digits and not digits[-1]:
        digits.pop()
    return digits


def parse_ratio(text):
    """(p, q) of a "p/q" in lowest terms with q >= 1."""
    p, q = map(int, text.split("/"))
    expect(q >= 1 and math.gcd(p, q) == 1, f"{text} is not in lowest terms")
    return p, q


def parse_point(text):
    """(p, q) of a canonical "p/q": in lowest terms and -1/2 <= p/q < 1/2."""
    p, q = parse_ratio(text)
    expect(-q <= 2 * p < q, f"{text} is not a canonical point")
    return p, q


# -- member --------------------------------------------------------------------


def check_member(config, rec, budget):
    k, m, chain = rec["k"], rec["m"], Chain(rec["pivots"])
    expect((k, m, rec["pivots"]) == (config["k"], config["m"], config["pivots"]), "record and config differ")
    direct = arc_exit(k, chain, m) is None
    expect(rec["direct"] == direct, f"direct should be {direct}")
    expect(rec["partial_sums"] == direct, f"partial_sums should be {direct}")
    ratios = [(abs(d) * chain.term(n), chain.term(n + 1)) for n, d in enumerate(balanced_digits(k, chain))]
    sufficient = all(8 * m * a <= b for a, b in ratios)
    necessary = all(8 * m * a <= 3 * b for a, b in ratios)
    expect(rec["sufficient"] == sufficient, f"sufficient should be {sufficient}")
    expect(rec["necessary"] == necessary, f"necessary should be {necessary}")
    consistent = (not sufficient or direct) and (not direct or necessary)
    expect(rec["routes_consistent"] == consistent, f"routes_consistent should be {consistent}")
    return "member routes"


# -- decompose -----------------------------------------------------------------


def check_decompose(config, rec, budget):
    l, chain = rec["l"], Chain(rec["pivots"])
    expect((l, rec["pivots"]) == (config["l_value"], config["pivots"]), "record and config differ")
    digits = [int(d) for d in rec["coefficients"].split(",")] if rec["coefficients"] else []
    own = balanced_digits(l, chain)
    expect(digits == own, f"the digits should be {own}")
    partials = [sum(d * chain.term(i) for i, d in enumerate(digits[: n + 1])) for n in range(len(digits))]
    value = partials[-1] if partials else 0
    expect(rec["value"] == value, f"the digits recompose to {value}")
    flags = (
        value == l,
        all(2 * abs(d) * chain.term(n) <= chain.term(n + 1) for n, d in enumerate(digits)),
        all(2 * abs(s) <= chain.term(n + 1) for n, s in enumerate(partials)),
    )
    got = (rec["sum_ok"], rec["digit_bounds_ok"], rec["partial_sum_bounds_ok"])
    expect(got == flags, f"sum and bound flags should be {flags}")
    expect(rec["ok"] == all(flags), f"ok should be {all(flags)}")
    top = None
    if l:
        top = 0
        while chain.term(top) < abs(l):
            top += 1
    expect(rec["top_index"] == top, f"top_index should be {top}")
    return "decompose"


# -- discrete ------------------------------------------------------------------


def check_discrete(config, rec, budget):
    xs = [tuple(map(int, x.split("/"))) for x in config["xs"].split(",")]
    bound, window = config["ratio_bound"], config.get("window", 100)  # ztop's default window
    expect((rec["ratio_bound"], rec["window"]) == (bound, window), "record and config differ")
    a, b = xs[0]
    least = -(-(b + 1) // (4 * a))  # the least l with 4 l a >= b + 1
    expect(rec["multiplier"] == least, f"the multiplier should be {least}")
    level = least * bound
    expect(rec["level"] == level, f"the level should be {level}")
    positive = [
        k for k in range(1, window + 1)
        if all(4 * level * min(k * p % q, q - k * p % q) <= q for p, q in xs)
    ]
    survivors = [-k for k in reversed(positive)] + [0] + positive
    if rec["survivors"] != survivors:
        missing = sorted(set(survivors) - set(rec["survivors"]))
        extra = sorted(set(rec["survivors"]) - set(survivors))
        raise CheckFailed(f"survivors differ from the brute force: missing {missing[:3]}, extra {extra[:3]}")
    expect(rec["verified"] == (survivors == [0]), f"verified should be {survivors == [0]}")
    return "discrete survivors"


# -- dual ----------------------------------------------------------------------


def check_dual(config, rec, budget):
    chain = Chain(rec["pivots"])
    p, q = parse_point(rec["chi"])
    outside = primes_of(q) - chain.primes
    divisor = None
    if outside:
        kernel = (False, None, "prime-support")
    else:
        n = 0
        while chain.bits(n) <= budget and chain.term(n) % q:
            n += 1
        if chain.bits(n) <= budget:
            divisor, kernel = n, (True, n, "divisor")
        else:
            kernel = (False, None, "budget-exhausted")
    got = (rec["kernel_continuous"], rec["kernel_witness_index"], rec["kernel_certificate"])
    expect(got == kernel, f"kernel check should be {kernel}, not {got}")
    generated = None if kernel[2] == "budget-exhausted" else kernel[0]
    expect(rec["generated_member"] == generated, f"generated_member should be {generated}")
    if "window" not in rec:
        return "kernel"
    window, failing = rec["window"], rec["window_failing_k"]
    expect(rec["window_ok"] == (failing is None), "window_ok disagrees with window_failing_k")
    if "m" in config:
        m, step = config["m"], 1
        contained = divisor is not None and 4 * m > chain.term(divisor)
    else:
        m, step = None, chain.term(config["n"])
        contained = divisor is not None and config["n"] >= divisor

    def member(k):
        return m is None or arc_exit(k, chain, m) is None

    if failing is not None:
        expect(0 < failing <= window and failing % step == 0, f"k = {failing} is no window index")
        expect(member(failing), f"k = {failing} is no member")
        expect(off_arc(failing * p, q, 1), f"chi maps k = {failing} into the quarter arc")
    count = (window if failing is None else failing - 1) // step
    if contained:
        return "window by containment"
    if count <= BRUTE_MAX:
        indices, how = range(1, count + 1), "window by brute force"
    else:
        indices, how = Random(0).sample(range(1, count + 1), SAMPLE), "window on a seeded sample"
    for i in indices:
        k = i * step
        expect(not (member(k) and off_arc(k * p, q, 1)), f"member k = {k} fails chi before the reported one")
    return how


# -- converge ------------------------------------------------------------------


def block_width(j):
    """The exponent of l_j in blockexample: j + 2 at j = r^2 - 2, r >= 2."""
    r = math.isqrt(j + 2)
    return j + 2 if r * r == j + 2 and r >= 2 else j


def sequence_term(family, chain, j):
    if family == "zero":
        return 0
    if family in ("pow2", "blockexample"):
        return 1 << (j if family == "pow2" else block_width(j))
    lo, hi = chain.term(j), chain.term(j + 1)
    return {
        "geomdiff": hi - lo,
        "wgeomdiff": j * hi - lo,
        "pivothalf": lo * (hi // lo // 2),
        "pivotsucc": hi,
    }[family]


def evaluating_bits(family, chain, j):
    """The bits of the largest term that evaluating l_j takes."""
    if family == "zero":
        return 0
    if family in ("pow2", "blockexample"):
        return (j if family == "pow2" else block_width(j)) + 1
    return chain.bits(j + 1)


def deciding_bits(l, chain, budget):
    """The bits of b_T, the first term >= 2|l|, which decides l at every
    level, or of the first term over ``budget`` bits before it."""
    n = 0
    while chain.bits(n) <= budget and chain.term(n) < 2 * abs(l):
        n += 1
    return chain.bits(n)


def check_converge(config, rec, budget):
    spec, family, horizon = rec["spec"], rec["sequence"], rec["horizon"]
    chain = Chain(spec["pivots"])
    uniform = spec["family"] == "uniform"
    note = rec["note"]
    blocked = None
    if rec["outcome"] == "inconclusive":
        match = re.search(r"\(budget (\d+)\)$", note)
        expect(match is not None, f"inconclusive without a refusal: {note!r}")
        budget = int(match.group(1))
        named = re.match(r"term b_(\d+) of '(.*)' needs (\d+) bits", note)
        if named:
            first = 0
            while chain.bits(first) <= budget:
                first += 1
            expect(named.groups() == (str(first), spec["pivots"], str(chain.bits(first))),
                   f"the first term over {budget} bits is b_{first}, not as in {note!r}")
    else:
        expect(note == "", f"a decided verdict with a note: {note!r}")
    fails = []
    for j in range(1, horizon + 1):
        if rec["outcome"] == "inconclusive":
            if evaluating_bits(family, chain, j) > budget or not uniform and chain.bits(spec["n"]) > budget:
                blocked = j
                break
            l = sequence_term(family, chain, j)
            if uniform and deciding_bits(l, chain, budget) > budget:
                blocked = j
                break
        else:
            l = sequence_term(family, chain, j)
        if uniform:
            n = arc_exit(l, chain, spec["m"])
            if n is not None:
                fails.append((j, n, l))
        elif l % chain.term(spec["n"]):
            fails.append((j, spec["n"], l))
    got = [(w["j"], w["n"]) for w in rec["witnesses"]]
    expect(got == [(j, n) for j, n, _ in fails], f"witnesses should be {[(j, n) for j, n, _ in fails]}")
    for w, (j, n, l) in zip(rec["witnesses"], fails):
        if uniform:
            p, q = parse_point(w["value"])
            b = chain.term(n)
            t = l % b
            t = t - b if 2 * t >= b else t
            expect(p * b == t * q, f"the value at j = {j} is not l_j / b_{n}")
        else:
            expect(w["value"] is None, f"a linear witness with a value at j = {j}")
    if rec["outcome"] == "inconclusive":
        expect(blocked is not None, "no term up to the horizon is blocked by the refusal")
        expect(rec["stabilized_at"] is None, "an inconclusive verdict that stabilized")
        return f"converge up to j = {blocked - 1}"
    last = fails[-1][0] if fails else 0
    if last >= (horizon + 1) // 2:
        verdict = ("falsified", None)
    else:
        verdict = ("stabilized", last + 1)
    expect((rec["outcome"], rec["stabilized_at"]) == verdict, f"the verdict should be {verdict}")
    return f"converge up to j = {horizon}"


# -- blocks --------------------------------------------------------------------


def block_rows(config, budget):
    """The rows ``ztop blocks`` prints for ``config``, each with the fields
    its kind sets; a block's ``peak`` is the pair (max |l_j|, b_{n+1})."""
    chain, family, horizon = Chain(config["pivots"]), config["sequence"], config["horizon"]
    for j in range(1, horizon + 1):
        expect(evaluating_bits(family, chain, j) <= budget, f"l_{j} needs a term over the budget")
    values = [sequence_term(family, chain, j) for j in range(1, horizon + 1)]
    if chain.mults is None:  # 2^(a_n) divides l iff l = 0 or l has a_n trailing zeros
        zeros = [(l & -l).bit_length() - 1 if l else math.inf for l in values]
    settle, missing = {}, []
    for n in range(1, config.get("levels", horizon) + 2):
        if chain.bits(n) > budget:
            break  # b_n is refused, and the run notes it
        j = horizon
        if chain.mults is None:
            a = chain.exponent(n)
            while j and zeros[j - 1] >= a:
                j -= 1
        else:
            b = chain.term(n)
            while j and values[j - 1] % b == 0:
                j -= 1
        if j == horizon:
            missing.append({"kind": "missing-settle-index", "n": n, "settle_index": None,
                            "block_lo": None, "block_hi": None, "peak": None})
            break
        settle[n] = j + 1
    rows, starts, peaks = [], {}, {}
    for n in range(len(settle)):  # block n ends where level n + 1 settles
        lo = settle.get(n, 1)
        hi = lo if n and settle[n + 1] == lo else settle[n + 1] - 1
        block = [abs(l) for l in values[lo - 1 : hi]]
        if block:
            peaks[n] = (max(block), chain.term(n + 1))
        starts[n] = lo
        rows.append({"kind": "block", "n": n, "settle_index": settle.get(n),
                     "block_lo": lo, "block_hi": hi, "peak": peaks.get(n)})
    rows += missing
    thresholds = config.get("thresholds")
    for m in map(int, thresholds.split(",") if thresholds else ()):
        bad = [n for n in sorted(peaks) if 4 * m * peaks[n][0] >= peaks[n][1]]
        entry = {"kind": "peak-decay", "m": m, "applicable": False, "settled_level": None,
                 "crosscheck_ok": None}
        if peaks and not (bad and bad[-1] == max(peaks)):
            n0 = min(n for n in peaks if not bad or n > bad[-1])
            cross = True
            for l in values[starts[n0] - 1 :]:
                if deciding_bits(l, chain, budget) > budget:
                    cross = None
                    break
                if arc_exit(l, chain, m) is not None:
                    cross = False
                    break
            entry.update(applicable=True, settled_level=n0, crosscheck_ok=cross)
        rows.append(entry)
    return rows


def check_blocks(config, records, budget):
    rows = block_rows(config, budget)
    expect(len(records) == len(rows), f"the table should have {len(rows)} rows, not {len(records)}")
    done = []
    for rec, row in zip(records, rows):
        what = f"{row['kind']} at " + (f"m = {row['m']}" if "m" in row else f"n = {row['n']}")
        for key, want in row.items():
            got = rec.get(key)
            if key == "peak" and want is not None:
                expect(got is not None, f"{what}: the peak is missing")
                p, q = parse_ratio(got)
                expect(p * want[1] == want[0] * q, f"{what}: the peak is not max |l_j| / b_{row['n'] + 1}")
            else:
                expect(got == want, f"{what}: {key} should be {want}")
        done.append(what)
    return done


CHECKS = {
    "member": check_member,
    "decompose": check_decompose,
    "dual": check_dual,
    "discrete": check_discrete,
    "converge": check_converge,
}


def csv_value(text):
    """A cell of ``ztop blocks --format csv`` as the JSON value it stands for."""
    if text in ("", "true", "false"):
        return {"": None, "true": True, "false": False}[text]
    return int(text) if re.fullmatch(r"-?\d+", text) else text


@contextlib.contextmanager
def no_digit_limit():
    """Lift the interpreter's int <-> str digit limit, where it has one: a
    peak's denominator can have more than 4,300 digits."""
    before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if before is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)


def check_output(text, budget=DEFAULT_BUDGET):
    """What the checker certified in a saved run, one entry per result
    record; raises CheckFailed at the first contradiction. ``budget`` is the
    run's bit budget; an inconclusive verdict names its own. A CSV run
    starts with its header as a "# " comment, then one table."""
    lines = text.splitlines()
    if not lines:
        return []
    with no_digit_limit():
        if lines[0].startswith("# "):
            header = json.loads(lines[0][2:])
            records = [{k: csv_value(v) for k, v in row.items()} for row in csv.DictReader(lines[1:])]
        else:
            header = json.loads(lines[0])
            records = [json.loads(line) for line in lines[1:]]
        if header["command"] == "blocks":
            return check_blocks(header["config"], records, budget)
        check = CHECKS[header["command"]]
        return [check(header["config"], rec, budget) for rec in records]


if __name__ == "__main__":
    try:
        with open(sys.argv[1]) as fh:
            done = check_output(fh.read(), int(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_BUDGET)
    except CheckFailed as exc:
        sys.exit(f"certcheck: {exc}")
    print("\n".join(done))
