"""Seeded inputs for the three benchmark workloads and the calls that run them.

Every input comes from one ``random.Random(seed)`` stream, so a seed fixes
the workload. Inputs are plain data (descriptor text, integers, fractions);
each query builds its own pivot chain through the public ``ztop`` API, so
chain growth is part of the query it serves.

The cost of a pass must not depend on the seed: a later change is judged by
medians taken over different seeds. So the seed picks descriptors, levels,
characters and rational prefixes freely, while windows and horizons come
from fixed strata with seeded jitter, and each pass holds a fixed count of
each query kind.

This module does not import ``ztop``: the setup phase re-imports the library
between repeats, so ``run_query`` takes the module to call into.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from typing import NamedTuple

WORKLOADS = ("paper-verify", "window-scan", "sequence-scan")
SIZES = ("full", "smoke")

# window-scan
WINDOW_CHAINS = ("linear", "square", "factorial")
DENSE_CHAINS = ("square", "factorial", "pow2")  # members near 0 at every level
EXTRA_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31)  # outside every chain's support here

# sequence-scan
QUADRATIC_CHAINS = ("square", "poly:1,1", "poly:2,1", "poly:3,1")
HEAVY_FAMILIES = ("geomdiff", "wgeomdiff", "pivothalf", "pivotsucc")
LIGHT_FAMILIES = ("pow2", "blockexample", "zero")
ALL_FAMILIES = HEAVY_FAMILIES + LIGHT_FAMILIES
SEQUENCE_KINDS = ("prefix_uniform", "prefix_linear", "falsify", "blocks", "decay")


class Query(NamedTuple):
    """One call into the library: ``kind`` names the call, ``args`` its inputs."""

    kind: str
    args: tuple


def _strata(rng, count, lo, hi, geometric):
    """``count`` values spread over [lo, hi], one per stratum, seeded within it."""
    out = []
    for i in range(count):
        u = (i + rng.random()) / count
        out.append(round(lo * (hi / lo) ** u) if geometric else round(lo + (hi - lo) * u))
    return out


def _multiplier_chain(rng):
    return "chain:" + ",".join(str(rng.randint(2, 6)) for _ in range(rng.randint(2, 3)))


def _poly_chain(rng):
    return f"poly:{rng.randint(0, 3)},{rng.randint(1, 2)}"


def _window_chain(rng, slot):
    """Chain kinds take turns by slot, so each kind sees the whole window range."""
    pick = slot % 5
    if pick < 3:
        return WINDOW_CHAINS[pick]
    return _multiplier_chain(rng) if pick == 3 else _poly_chain(rng)


def _decreasing_prefix(rng, length):
    """Strictly decreasing rationals in (0, 1/2] with ratio bound r in {2, 3, 4}."""
    r = rng.randint(2, 4)
    x = Fraction(1, rng.randint(2, 9))
    xs = [x]
    while len(xs) < length:
        den = rng.randint(1, 4)
        x = x * den / rng.randint(den + 1, r * den)
        xs.append(x)
    return tuple(xs), r


def _window_queries(rng, size):
    n_iter, n_disc, n_cont, lo, hi = (120, 30, 30, 10**3, 10**4) if size == "full" else (3, 2, 2, 100, 400)
    queries = []
    for i, w in enumerate(_strata(rng, n_iter, lo, hi, geometric=True)):
        queries.append(Query("iter_members", (_window_chain(rng, i), rng.randint(1, 8), w)))
    for w in _strata(rng, n_disc, lo, hi, geometric=True):
        xs, r = _decreasing_prefix(rng, rng.randint(8, 14))
        queries.append(Query("discreteness_witness", (xs, r, w)))
    # Half the characters are +-1/b_n, which pass every member, so the check
    # scans the whole window; the other half have a prime denominator outside
    # the chain's support and stop at the first failing member.
    for i, w in enumerate(_strata(rng, 2 * n_cont, lo, hi, geometric=True)):
        pick = (i // 2) % 4
        chain = DENSE_CHAINS[pick] if pick < 3 else _poly_chain(rng)
        if i % 2 == 0:
            chi = ("term", rng.choice((1, -1)), rng.randint(1, 4))
        else:
            q = rng.choice(EXTRA_PRIMES)
            chi = ("fraction", rng.randint(1, q - 1), q)
        queries.append(Query("continuity_window_check", (chain, rng.randint(1, 8), chi, w)))
    rng.shuffle(queries)
    return queries


def _sequence_slots(size):
    """(chain pool, family pool, horizon range, count) per query kind."""
    if size == "smoke":
        return [("quadratic", HEAVY_FAMILIES, (8, 14), 1), ("budget", ALL_FAMILIES, (10, 14), 1)]
    return [
        ("quadratic", HEAVY_FAMILIES, (20, 100), 16),
        ("quadratic", LIGHT_FAMILIES, (40, 120), 6),
        ("multiplier", ALL_FAMILIES, (40, 160), 8),
        ("linear", ALL_FAMILIES, (40, 160), 4),
        ("factorial", ALL_FAMILIES, (10, 30), 4),
        ("pow2", ALL_FAMILIES, (10, 16), 4),
    ]


def _sequence_chain(rng, pool):
    if pool == "quadratic":
        return rng.choice(QUADRATIC_CHAINS)
    if pool == "multiplier":
        return _multiplier_chain(rng)
    if pool == "budget":
        return rng.choice(("factorial", "pow2"))
    return pool


def _sequence_queries(rng, size):
    queries = []
    for kind in SEQUENCE_KINDS:
        for pool, families, (lo, hi), count in _sequence_slots(size):
            for i, horizon in enumerate(_strata(rng, count, lo, hi, geometric=False)):
                chain = _sequence_chain(rng, pool)
                family = families[i % len(families)]
                if kind == "prefix_linear":
                    level = rng.randint(1, 8)
                elif kind == "decay":
                    level = tuple(sorted(rng.sample(range(1, 9), 2)))
                else:
                    level = rng.randint(1, 4)
                queries.append(Query(kind, (chain, family, level, horizon)))
    rng.shuffle(queries)
    return queries


def generate(workload: str, seed: int, size: str = "full") -> list[Query]:
    """The workload's queries for one pass, fixed by ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper-verify":
        # --quick at every size: the full sweeps take about 10 s, so a run
        # could repeat them only three times and never escape a slow spell
        # of the host; the quick sweeps run the same checks in about 0.35 s.
        return [Query("verify_paper", ("verify-paper", "--seed", str(seed), "--quick"))]
    if workload == "window-scan":
        return _window_queries(rng, size)
    if workload == "sequence-scan":
        return _sequence_queries(rng, size)
    raise ValueError(f"unknown workload {workload!r}")


# -- execution -----------------------------------------------------------------


def run_query(lib, query: Query):
    """Run one query against the ``ztop`` module ``lib`` and return its raw result."""
    kind, a = query
    if kind == "verify_paper":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(list(a))
        return code, out.getvalue()
    if kind == "iter_members":
        chain, m, window = a
        spec = lib.NeighborhoodSpec(lib.make_pivots(chain), lib.Uniform(m))
        return list(lib.iter_members(spec, window))
    if kind == "discreteness_witness":
        xs, r, window = a
        return lib.discreteness_witness(xs, r, window)
    if kind == "continuity_window_check":
        chain, m, chi, window = a
        pivots = lib.make_pivots(chain)
        value = Fraction(chi[1], chi[2] if chi[0] == "fraction" else pivots.term(chi[2]))
        spec = lib.NeighborhoodSpec(pivots, lib.Uniform(m))
        return lib.continuity_window_check(lib.character(value), spec, window)
    chain, family, level, horizon = a
    pivots = lib.make_pivots(chain)
    seq = lib.make_sequence(family, pivots)
    if kind == "prefix_uniform":
        return lib.prefix_test(seq, lib.NeighborhoodSpec(pivots, lib.Uniform(level)), horizon)
    if kind == "prefix_linear":
        return lib.prefix_test(seq, lib.NeighborhoodSpec(pivots, lib.Linear(level)), horizon)
    if kind == "falsify":
        return lib.falsify_uniform(seq, pivots, level, horizon)
    if kind == "blocks":
        return lib.block_statistics(seq, pivots, horizon)
    if kind == "decay":
        return lib.peak_decay_report(seq, pivots, horizon, level)
    raise ValueError(f"unknown query kind {kind!r}")
