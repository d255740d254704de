"""Output checks: what each job's output says, compared with what it must say.

Checks read content, not bytes, so a change that only re-serializes a radius
still passes.  Per command:

* sequence: record coefficient lists and heights equal the expected ones;
  heights increase, each height is the largest absolute coefficient, the
  first nonzero coefficient is positive, and every ``log_abs_value`` ball
  contains ln|P(xi)| computed independently in decimal arithmetic.
* oracle: the minimizer and its height equal the expected ones, and the
  ``abs_value`` ball contains |P(xi)|.
* bounds: the CSV equals the expected text byte for byte (the cells the
  acceptance suite pins).
* verify: check ids, indices and applicability in order, and the sign of
  each applicable margin.
* graph: every printed minimum within one unit of its last printed digit,
  the printed sum consistent with the minima, and every exact row's
  Minkowski margin <= 0.

An answer the expected output records as skipped or refused for budget may
now arrive; that is progress, not a failure.  Such a lemma31 margin has no
expected sign, and such a graph row has no expected digits, so it is held
only to the Minkowski envelope.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext
from typing import List, Optional

from workloads import value_of

SKIP_NOTE = "skipped: enumeration budget"
REFUSAL_NOTE = "minima enumeration needs a coefficient box"

_PREC = 160
_SLACK = Decimal("1e-60")
_PRINTED_ULP = Decimal("1e-9")


class CheckFailure(Exception):
    pass


@dataclass
class Outcome:
    """What one job did: exit code and captured streams."""

    code: Optional[int]
    stdout: str
    stderr: str
    crash: Optional[str] = None  # traceback text when the job raised

    def sha256(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


@dataclass
class Verdict:
    ok: bool
    reason: str
    requested: int  # answers the job asks for
    delivered: int  # answers that arrived (not skipped or refused for budget)
    skipped_for_budget: int


def _need(cond: bool, message: str):
    if not cond:
        raise CheckFailure(message)


def _poly_at(coeffs: List[int], xi: Decimal) -> Decimal:
    acc = Decimal(0)
    for c in reversed(coeffs):
        acc = acc * xi + c
    return acc


def _ball_contains(ball: dict, value: Decimal) -> bool:
    mid, rad = Decimal(ball["mid"]), Decimal(ball["rad"])
    return mid - rad - _SLACK <= value <= mid + rad + _SLACK


def summarize(command: str, outcome: Outcome) -> dict:
    """The content of an output that checks compare; also the stored form of
    the expected outputs."""
    if command == "graph" and outcome.code == 1 and REFUSAL_NOTE in outcome.stderr:
        return {"refused": True}
    _need(outcome.crash is None, f"raised: {outcome.crash}")
    _need(outcome.code == 0, f"exit {outcome.code}: {outcome.stderr.strip()[:200]}")
    if command == "sequence":
        obj = json.loads(outcome.stdout)
        return {"records": [[r["coeffs"], r["height"]] for r in obj["records"]]}
    if command == "oracle":
        obj = json.loads(outcome.stdout)
        return {"coeffs": obj["coeffs"], "height": obj["height"]}
    if command == "bounds":
        return {"csv": outcome.stdout}
    if command == "verify":
        obj = json.loads(outcome.stdout)
        rows = []
        for r in obj["results"]:
            sign = None
            if r["applicable"] and r["margin"] is not None:
                sign = "-" if r["margin"]["mid"].startswith("-") else "+"
            rows.append([r["check_id"], r["k"], r["applicable"], sign,
                         r["notes"].startswith(SKIP_NOTE)])
        return {"results": rows}
    if command == "graph":
        lines = outcome.stdout.splitlines()
        pool = bool(lines) and lines[0].startswith("#")
        body = lines[1:] if pool else lines
        return {"refused": False, "pool": pool, "header": body[0],
                "rows": [line.split(",") for line in body[1:]]}
    raise CheckFailure(f"unknown command {command!r}")


def _check_sequence(stdout: str, xi: Decimal):
    obj = json.loads(stdout)
    prev_h, prev_v = 0, None
    for rec in obj["records"]:
        coeffs = rec["coeffs"]
        _need(rec["height"] == max(abs(c) for c in coeffs), f"height of {coeffs}")
        _need(rec["height"] > prev_h, "heights must increase")
        _need(next(c for c in coeffs if c) > 0, f"sign of {coeffs}")
        value = abs(_poly_at(coeffs, xi))
        _need(value > 0, f"P(xi) = 0 for {coeffs}")
        _need(_ball_contains(rec["log_abs_value"], value.ln()),
              f"log_abs_value of {coeffs} misses ln|P(xi)|")
        mid = Decimal(rec["log_abs_value"]["mid"])
        _need(prev_v is None or mid < prev_v, "values must decrease")
        prev_h, prev_v = rec["height"], mid


def _check_oracle(stdout: str, xi: Decimal):
    obj = json.loads(stdout)
    _need(obj["height"] == max(abs(c) for c in obj["coeffs"]), "oracle height")
    _need(_ball_contains(obj["abs_value"], abs(_poly_at(obj["coeffs"], xi))),
          "abs_value misses |P(xi)|")


def _check_graph(got: dict, want: dict, n_minima: int):
    if want["refused"]:
        want_rows = [None] * len(got["rows"])
    else:
        _need(got["pool"] == want["pool"] and got["header"] == want["header"], "graph header")
        want_rows = want["rows"]
    _need(len(got["rows"]) == len(want_rows), "graph row count")
    for row, ref in zip(got["rows"], want_rows):
        cells = [Decimal(c) for c in row]
        minima, total, margin = cells[1:1 + n_minima], cells[-2], cells[-1]
        _need(len(minima) == n_minima, "graph row width")
        _need(abs(sum(minima) - total) <= n_minima * _PRINTED_ULP, "graph sum column")
        if not got["pool"]:
            _need(margin <= 0, f"Minkowski margin {row[-1]} > 0 at q={row[0]}")
        if ref is None:
            continue
        _need(row[0] == ref[0], f"graph q {row[0]} != {ref[0]}")
        for mine, theirs in zip(row[1:], ref[1:]):
            _need(abs(Decimal(mine) - Decimal(theirs)) <= _PRINTED_ULP,
                  f"graph value {mine} != {theirs} at q={row[0]}")


def _check_verify(got: dict, want: dict) -> int:
    _need(len(got["results"]) == len(want["results"]), "verify check count")
    for mine, theirs in zip(got["results"], want["results"]):
        check_id, k, applicable, sign, skipped = mine
        _need([check_id, k] == theirs[:2], f"verify check {check_id} k={k} != {theirs[:2]}")
        if theirs[4] and not skipped:
            continue  # skipped for budget before, answered now
        _need(applicable == theirs[2] and skipped == theirs[4],
              f"verify {check_id} k={k} applicability changed")
        _need(sign == theirs[3], f"verify {check_id} k={k} margin sign {sign} != {theirs[3]}")
    return sum(1 for r in got["results"] if r[4])


def _asked(command: str, args: List[str], want: dict) -> int:
    """Answers a job asks for: one per verify check, one per graph q value,
    one for any other job."""
    if command == "verify":
        return len(want["results"])
    if command == "graph":
        if "--q-list" in args:
            return len(args[args.index("--q-list") + 1].split(","))
        return len(want["rows"])
    return 1


def check(command: str, args: List[str], xi_spec: Optional[str], outcome: Outcome,
          want: dict) -> Verdict:
    """Judge one job's outcome against the expected summary ``want``."""
    asked = _asked(command, args, want)
    try:
        got = summarize(command, outcome)
        with localcontext() as ctx:
            ctx.prec = _PREC
            xi = value_of(xi_spec) if xi_spec is not None else None
            if command == "sequence":
                _need(got == want, "records differ from the expected ones")
                _check_sequence(outcome.stdout, xi)
            elif command == "oracle":
                _need(got == want, f"minimizer {got} != {want}")
                _check_oracle(outcome.stdout, xi)
            elif command == "bounds":
                _need(got == want, "bounds CSV differs from the pinned cells")
            elif command == "verify":
                skipped = _check_verify(got, want)
                return Verdict(True, "", asked, asked - skipped, skipped)
            elif command == "graph":
                if got["refused"]:
                    _need(want["refused"], "graph refused for budget")
                    return Verdict(True, "", asked, 0, 1)
                n_minima = len(got["header"].split(",")) - 3
                _check_graph(got, want, n_minima)
        return Verdict(True, "", asked, asked, 0)
    except (CheckFailure, InvalidOperation, ValueError, KeyError, IndexError, TypeError,
            StopIteration) as exc:
        return Verdict(False, f"{type(exc).__name__}: {exc}", asked, 0, 0)
