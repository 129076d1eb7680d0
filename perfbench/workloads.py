"""The benchmark's three workloads, each a seeded stream of verdicts.

A verdict is one decided item.  Every stream item carries the call that
decides it and returns ``(ok, output)``: ``ok`` says whether the verdict
agrees with its known answer, ``output`` is what the program printed or
returned for it (``None`` where nothing is fingerprinted).

A stream yields rounds, lists of items; the driver stops only between
rounds, so a run that --seconds ends holds whole rounds, each with the same
mix of inputs.  Streams are infinite unless ``limit`` is given: then a round
holds at most ``limit`` items and there are three rounds of draws.

Workloads call the package only through module attributes
(``catalog.draw_env``, ``diffop.compose``, ...), so the traced run sees every
call when it replaces those attributes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import itertools
import json
import random
from typing import Callable

from heunops import catalog, cli, diffop, semicommute
from heunops.diffop import DiffOp
from heunops.field import ONE, fe
from heunops.poly import LaurentPolynomial, Polynomial
from heunops.ratfunc import RationalFunction

#: One perturbed override per catalog record with fixed parameters.  The
#: first numeric fixed parameter is moved by +1; the free parameters and the
#: companion constants beta1 (and beta2) are pinned too, so that the pair's
#: commutator does not depend on the seed.  Each is refuted: the commutator
#: is nonzero, as perfbench/tests/test_controls.py shows with sympy.
CONTROLS = {
    "heun.n1.case1": "q=1,a=2,beta1=1",
    "heun.n1.case2.m1": "kappa=1,beta1=1",
    "heun.n1.case2.m0": "kappa=1,beta1=1",
    "heun.n1.case3": "q=1,a=2/3,beta1=1",
    "heun.n1.case4": "q=1,a=-3,beta1=1",
    "heun.n1.case5": "alpha=4,a=3/4,beta1=1",
    "heun.n1.case6": "q=3,a=-1,beta1=1",
    "heun.n2.case2": "q=1,a=-2,beta1=1,beta2=1",
    "heun.n2.case3.m1": "kappa=1,beta1=1,beta2=1",
    "heun.n2.case3.m0": "kappa=1,beta1=1,beta2=1",
    "heun.n2.case4": "q=1,a=-1/3,beta1=1,beta2=1",
    "heun.n2.case5": "q=1,a=-3/2,beta1=1,beta2=1",
    "heun.n2.case6": "alpha=4,a=-1,beta1=1,beta2=1",
    "heun.n2.case7": "q=3,a=2,beta1=1,beta2=1",
    "confluent.n1.case1": "p=1,beta1=1",
    "confluent.n1.case2": "q=1,p=3,beta1=1",
    "confluent.n1.case3": "q=1,p=-1,beta1=1",
    "confluent.n1.case4": "alpha=2,p=1/3,beta1=1",
    "confluent.n1.case5": "alpha=3,p=-1/4,beta1=1",
    "rconfluent.n1.case1": "kappa=1,beta1=1",
    "confluent.n2.case2": "alpha=3,p=3,beta1=1,beta2=1",
    "confluent.n2.case3": "alpha=2,p=-1,beta1=1,beta2=1",
    "confluent.n2.case4": "q=1,p=-3,beta1=1,beta2=1",
    "confluent.n2.case5": "q=1,p=1/2,beta1=1,beta2=1",
    "rconfluent.n2.case1": "kappa=1,beta1=1,beta2=1",
    "biconfluent.n1.case1": "nu=1,alpha=-2/3,beta1=1",
    "biconfluent.n1.case2": "nu=1,alpha=1,beta1=1",
    "biconfluent.n2.case2": "nu=1,alpha=-3,beta1=1,beta2=1",
    "biconfluent.n2.case3": "nu=1,alpha=0,beta1=1,beta2=1",
    "dconfluent.n1.case1": "nu=1,tau=-1/2,beta1=1",
    "dconfluent.n2.case2": "nu=1,tau=3/4,beta1=1,beta2=1",
}


@dataclasses.dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], tuple]


class ControlError(RuntimeError):
    """verify-case stopped with a usage error instead of deciding."""


def _draws(limit, first: int = 0):
    return range(first, 3) if limit else itertools.count(first)


# -- commute_sweep ---------------------------------------------------------


def commute_sweep(seed: int, limit: int | None = None):
    """Criterion-1 traffic: every commuting and referral record, one draw
    per record per round, in catalog order."""
    records = [r for r in catalog.enumerate_cases()
               if r.kind != "no_nontrivial"][:limit]
    for draw in _draws(limit):
        yield [Item(f"{record.id} draw {draw}",
                    functools.partial(_commute_verdict, record, seed, draw))
               for record in records]


def _commute_verdict(record, seed, draw):
    env = catalog.resolve_env(record, catalog.draw_env(record, seed, draw))
    p, q = catalog.build_case(record, env)
    commutes = diffop.commutator(p, q).is_zero
    return commutes and diffop.compose(q, p) == diffop.compose(p, q), None


# -- verify_catalog ----------------------------------------------------------


def verify_catalog(seed: int, limit: int | None = None):
    """The verify-all pipeline, one verdict per (record, draw) as verify_all
    runs it, plus the falsification controls.

    The first round is draw 0 of every record, with its series check; the
    second is every control; then come draws 1, 2, ... of every record,
    without series, one round per draw.  The driver stops only between
    rounds once it has 110 verdicts, so a run holds at least draws 0, 1
    and 2 of every record, which is what ``verify-all`` decides, and every
    control: 148 verdicts, unless --seconds outlasts them.
    """
    records = catalog.enumerate_cases()[:limit]
    yield [_case_item(record, seed, 0) for record in records]
    yield [Item(f"{record.id} control",
                functools.partial(_control_verdict, record, seed,
                                  CONTROLS[record.id]))
           for record in records if record.id in CONTROLS]
    for draw in _draws(limit, first=1):
        yield [_case_item(record, seed, draw) for record in records]


def _case_item(record, seed, draw):
    return Item(f"{record.id} draw {draw}",
                functools.partial(_case_verdict, record, seed, draw))


def _case_verdict(record, seed, draw):
    verdict = catalog.verify_case(record, seed=seed, draw_index=draw,
                                  with_series=draw == 0)
    return verdict.passed, dataclasses.asdict(verdict)


def _control_verdict(record, seed, override):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify-case", "--id", record.id, "--seed", str(seed),
                         "--override", override])
    if code == cli.EXIT_USAGE:
        raise ControlError(err.getvalue().strip())
    payload = json.loads(out.getvalue())
    refuted = code == cli.EXIT_FALSIFIED and not payload["commutator_zero"]
    return refuted, payload


def fingerprint(output):
    """output with every inexact value removed: floats, and dicts tagged
    ``"approx": true``.  Exact values are strings, ints and bools."""
    if isinstance(output, dict):
        if output.get("approx") is True:
            return None
        return {k: fingerprint(v) for k, v in output.items()
                if not isinstance(v, float)}
    if isinstance(output, (list, tuple)):
        return [fingerprint(v) for v in output if not isinstance(v, float)]
    return output


# -- random_operators --------------------------------------------------------


def random_operators(seed: int, limit: int | None = None):
    """Seeded random monic order-2 operators with general denominators.

    P = d^2 + (n1/D) d + n0/D with a random monic quadratic D and random
    linear numerators; the gauge exponent is c1 x + c2 x^2.  Every operator
    has this one shape, so the cost of a verdict varies only with its random
    coefficients and a run's percentiles hold still from seed to seed.
    Sharing D, as the catalog's families do, makes many gcds nontrivial.
    """
    rng = random.Random(f"random_operators|{seed}")
    for draw in _draws(limit):
        yield [_random_item(rng, f"operator {draw}")]


def _random_item(rng, label):
    den = Polynomial([_rational(rng), _rational(rng), ONE])
    p = DiffOp([RationalFunction(_random_poly(rng), den),
                RationalFunction(_random_poly(rng), den), ONE])
    spec1 = semicommute.SemiCommuteSpec(
        degree=1, beta0=_rational(rng), beta1=_nonzero(rng))
    spec2 = semicommute.SemiCommuteSpec(
        degree=2, beta0=_rational(rng), beta1=_nonzero(rng),
        beta2=_nonzero(rng))
    g = LaurentPolynomial({1: _nonzero(rng), 2: _nonzero(rng)})
    return Item(label, functools.partial(_random_verdict, p, spec1, spec2, g))


def _rational(rng):
    return fe(rng.randint(-3, 3), rng.randint(1, 4))


def _nonzero(rng):
    return fe(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


def _random_poly(rng):
    return Polynomial([_rational(rng), _nonzero(rng)])


def _random_verdict(p, spec1, spec2, g):
    """Known answers: [P, Q_k] has order <= 0 for both companions, the
    residual report agrees with the commutator, and conjugating by e^g then
    by e^-g gives P back."""
    q1 = semicommute.build_q1(p, spec1)
    q2 = semicommute.build_q2(p, spec2)
    c1 = diffop.commutator(p, q1)
    c2 = diffop.commutator(p, q2)
    report = semicommute.residual(p, q1)
    back = diffop.gauge_transform(diffop.gauge_transform(p, g), -g)
    ok = (c1.order <= 0 and c2.order <= 0 and report.commutes == c1.is_zero
          and back == p)
    return ok, None


WORKLOADS = {
    "commute_sweep": commute_sweep,
    "verify_catalog": verify_catalog,
    "random_operators": random_operators,
}
