"""Workload definitions: the job lists and the seeded choice of xi.

A job is one ``vlab`` command line.  Each workload is a fixed list of jobs
run one after another by a single client (a closed loop), the way a user at
a desk runs them.

Seed 0 (the default) gives the jobs with the specs written below.  Every
other seed replaces each ``const:e``, ``const:pi`` and ``cbrt:2`` spec with
a ``root:K:J`` spec, J > n and K a seeded prime, so xi is algebraic of
degree J > n (T^J - K is Eisenstein at K) and never of degree <= n.  K is
drawn among the primes just above xi0^J, which puts K^(1/J) within 1e-18 of
xi0.  Why: the cost of a job depends on where small-height polynomials fall
near xi (the survivor count of a scan, the box ladder of the minima
enumeration), and a freely drawn xi changes a job's time by up to 4.4x
(graph exact on n=3: 6.9 s to 30 s over six primes).  A seed spread would
then measure input difficulty, not the program.  The twin keeps that
structure, and with it the expected outputs, at every height the jobs use,
while the program still gets new spec text, a new enclosure routine (an
integer k-th root instead of a constant series) and algebraic tie logic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Dict, List, Tuple

#: digits for the reference values of xi0 and its twins
DIGITS = 80

#: twins must sit this close to the constant they stand for
TWIN_TOLERANCE = Decimal("1e-18")

# J ranges keep K below 3.3e24, where Miller-Rabin with the first 13 prime
# bases is deterministic, and keep |K^(1/J) - xi0| below TWIN_TOLERANCE.
# Larger J would make the integer k-th root in ``real_from_spec`` slower
# than the constants it replaces (about 2 ms at J=50, 50 ms at J=200).
_TWIN_EXPONENTS = {"const:e": (48, 56), "const:pi": (42, 49), "cbrt:2": (196, 204)}

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``args`` may hold ``{seq:NAME}`` placeholders for
    the prepared sequence files of ``certify``."""

    job_id: str  # also the key of its expected output
    command: str
    args: Tuple[str, ...]


@dataclass(frozen=True)
class Input:
    """A sequence file made by ``vlab sequence`` before timing starts."""

    name: str
    xi: str
    n: int
    max_height: int


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Tuple[Input, ...]
    jobs: Tuple[Job, ...]


# -- default-seed job lists ---------------------------------------------------

_RECORDS = (("const:e", 2, 1000), ("cbrt:2", 2, 500), ("const:e", 3, 60), ("const:pi", 4, 25))

_ORACLE = (("const:e", 1, 10**4), ("const:e", 2, 250), ("const:e", 2, 500),
           ("const:e", 2, 1000), ("const:e", 2, 2000), ("cbrt:2", 2, 500),
           ("const:e", 3, 60), ("const:pi", 3, 100), ("const:pi", 4, 25))

_CERTIFY_INPUTS = (("c2", "cbrt:2", 2, 500), ("p4", "const:pi", 4, 25), ("e3", "const:e", 3, 60))

_CERTIFY = (
    ("bounds", ("--n-min", "2", "--n-max", "9", "--format", "csv"), "bounds"),
    ("verify", ("--seq", "{seq:c2}", "--format", "json"), "verify:c2"),
    ("verify", ("--seq", "{seq:p4}", "--format", "json"), "verify:p4"),
    ("graph", ("--seq", "{seq:e3}", "--mode", "exact", "--q-list", "2"), "graph-exact:e3"),
    ("graph", ("--seq", "{seq:p4}", "--mode", "exact", "--q-list", "1"), "graph-exact:p4"),
    ("graph", ("--seq", "{seq:e3}", "--mode", "pool"), "graph-pool:e3"),
)

NAMES = ("records", "oracle", "certify")


# -- seeded twins -----------------------------------------------------------------


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    for p in _MR_BASES:
        if k % p == 0:
            return k == p
    d, s = k - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, k)
        if x in (1, k - 1):
            continue
        for _ in range(s - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    return True


def _pi_decimal() -> Decimal:
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239), in fixed point with guard digits
    scale = 10 ** (DIGITS + 10)

    def atan_inv(x: int) -> int:
        term = scale // x
        total, j, x2, sign = term, 1, x * x, -1
        while term:
            term //= x2
            total += sign * (term // (2 * j + 1))
            sign, j = -sign, j + 1
        return total

    return Decimal(16 * atan_inv(5) - 4 * atan_inv(239)) / Decimal(scale)


def value_of(spec: str) -> Decimal:
    """xi to DIGITS significant digits, for the specs this benchmark makes."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        if spec == "const:e":
            return Decimal(1).exp()
        if spec == "const:pi":
            return +_pi_decimal()
        if spec == "cbrt:2":
            return (Decimal(2).ln() / 3).exp()
        kind, base, index = spec.split(":")
        if kind != "root":
            raise ValueError(f"no reference value for {spec!r}")
        return (Decimal(int(base)).ln() / int(index)).exp()


def twin(spec: str, n: int, rng: random.Random) -> str:
    """A seeded ``root:K:J`` stand-in for ``spec`` (see the module docstring)."""
    lo, hi = _TWIN_EXPONENTS[spec]
    j = rng.randint(lo, hi)
    if j <= n:
        raise ValueError(f"twin exponent {j} must exceed n={n}")
    with localcontext() as ctx:
        ctx.prec = DIGITS
        k = int(value_of(spec) ** j) + 1 + rng.randrange(1024)
    while not _is_prime(k):
        k += 1
    out = f"root:{k}:{j}"
    with localcontext() as ctx:
        ctx.prec = DIGITS
        if abs(value_of(out) - value_of(spec)) > TWIN_TOLERANCE:
            raise RuntimeError(f"twin {out} is too far from {spec}")
    return out


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with its specs drawn from ``seed``."""
    rng = random.Random(seed)

    def xi(spec: str, n: int) -> str:
        return spec if seed == 0 else twin(spec, n, rng)

    if name == "records":
        jobs = tuple(
            Job(f"sequence:{spec}:{n}:{h}", "sequence",
                ("--xi", xi(spec, n), "--n", str(n), "--max-height", str(h)))
            for spec, n, h in _RECORDS)
        return Workload(name, (), jobs)
    if name == "oracle":
        jobs = tuple(
            Job(f"oracle:{spec}:{n}:{h}", "oracle",
                ("--xi", xi(spec, n), "--n", str(n), "--height", str(h), "--format", "json"))
            for spec, n, h in _ORACLE)
        return Workload(name, (), jobs)
    if name == "certify":
        inputs = tuple(Input(key, xi(spec, n), n, h) for key, spec, n, h in _CERTIFY_INPUTS)
        jobs = tuple(Job(job_id, command, args) for command, args, job_id in _CERTIFY)
        return Workload(name, inputs, jobs)
    raise KeyError(name)


def job_argv(job: Job, seq_paths: Dict[str, str]) -> List[str]:
    out = [job.command]
    for arg in job.args:
        if arg.startswith("{seq:"):
            arg = seq_paths[arg[5:-1]]
        out.append(arg)
    return out
