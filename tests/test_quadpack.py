"""The QUADPACK port against scipy.integrate.quad, bit for bit.

Both run on the same per-point integrand (the port gets it through a
21-node wrapper), and every case compares the value, the error estimate,
the evaluation count and ier. The integrands are the integral
decomposition's on seeded models of the CLI benchmark's kind, plus
classic cases that reach the exits those models do not.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import lclt_lab.model as lm
import oracles
from lclt_lab._quadpack import qagse

# quad reports ier != 0 only through its message; these open each one.
IER_MESSAGES = {
    1: "The maximum number of subdivisions",
    2: "The occurrence of roundoff error",
    3: "Extremely bad integrand behavior",
    4: "The algorithm does not converge",
    5: "The integral is probably divergent",
}


def by_quad(g, a, b, epsabs, epsrel, limit):
    out = quad(g, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    ier = 0 if len(out) == 3 else next(code for code, start in IER_MESSAGES.items() if out[3].startswith(start))
    return out[0], out[1], out[2]["neval"], ier


def by_port(g, a, b, epsabs, epsrel, limit):
    return qagse(lambda t: np.array([g(x) for x in t.tolist()]), a, b, epsabs, epsrel, limit)


def _same(g, a, b, epsabs=1e-9, epsrel=1.49e-8, limit=200):
    port = by_port(g, a, b, epsabs, epsrel, limit)
    assert [float(v).hex() for v in port] == [float(v).hex() for v in by_quad(g, a, b, epsabs, epsrel, limit)]
    return port


def _sqrt_log(x: float) -> float:
    return math.log(x) / math.sqrt(x) if x > 0.0 else 0.0


@pytest.mark.parametrize(
    "g, a, b, epsabs, epsrel, limit, ier",
    [
        # an endpoint singularity: the epsilon-extrapolation decides the value
        (_sqrt_log, 0.0, 1.0, 0.0, 1.49e-8, 200, 0),
        (_sqrt_log, 0.0, 1.0, 1e-12, 1e-12, 200, 0),
        (lambda x: x**-0.9 if x > 0.0 else 0.0, 0.0, 1.0, 0.0, 1e-13, 200, 0),
        # the subinterval limit (ier 1)
        (lambda x: math.sin(50.0 * x) ** 2 / (1.0 + x * x), 0.0, 10.0, 1e-12, 1e-12, 3, 1),
        (lambda x: 1.0 / x if x else 0.0, 0.0, 1.0, 1e-9, 1.49e-8, 200, 1),
        # noise at 1e-9 against a relative 1e-13: roundoff (ier 2)
        (lambda x: math.sin(x) + 1e-9 * math.sin(1e9 * x), 0.0, 1.0, 0.0, 1e-13, 200, 2),
        # a kink inside, and an oscillation that many bisections resolve
        (lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0, 0.0, 2e-14, 200, 0),
        (lambda x: math.cos(100.0 * math.sin(x)), 0.0, math.pi, 1e-12, 1e-10, 200, 0),
    ],
    ids=["sqrt-log", "sqrt-log-tight", "power-0.9", "limit-3", "one-over-x", "noise", "kink", "oscillation"],
)
def test_classic_exits_match_quad(g, a, b, epsabs, epsrel, limit, ier):
    assert _same(g, a, b, epsabs, epsrel, limit)[3] == ier


def test_first_rule_within_tolerance_stops_at_21_points():
    assert _same(lambda x: x * x, 0.0, 1.0)[2:] == (21, 0)
    assert _same(math.cos, 0.0, 1.0, 0.0, 1e-13)[2:] == (21, 0)


def _benchmark_kind_model(seed: int):
    """A nearest-neighbour model of the CLI benchmark's shapes: a chain of 7
    to 11 sites or the 3x3 box, q = 2 or 3, |J| in [0.02, 0.1], r0 = 2."""
    rng = np.random.default_rng(seed)
    dimension, radius, q = ((1, 3, 2), (1, 5, 3), (2, 1, 2), (2, 1, 3))[seed % 4]
    lo = int(rng.integers(1 - q, 1))
    strength = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.1))
    boundary = {"kind": "constant", "value": int(rng.integers(lo, lo + q))} if rng.random() < 0.75 else {"kind": "zero"}
    return lm.model_from_dict({
        "dimension": dimension, "radius": radius, "r0": 2,
        "spin": {"lo": lo, "hi": lo + q - 1},
        "coupling": {"kind": "nearest_neighbor", "strength": strength},
        "boundary": boundary,
    })


@pytest.mark.parametrize("seed", range(8))
def test_decomposition_integrands_match_quad(seed):
    central, cf_abs, root_d, delta = oracles.integrands_by_point(_benchmark_kind_model(seed))
    a_cut = 0.5 * delta
    _same(central, 0.0, a_cut)
    _same(cf_abs, a_cut / root_d, delta)
    _same(cf_abs, delta, math.pi)


def test_invalid_input_is_refused():
    with pytest.raises(ValueError):
        qagse(np.cos, 0.0, 1.0, 1e-9, 1e-8, 0)
    with pytest.raises(ValueError):
        qagse(np.cos, 0.0, 1.0, 0.0, 1e-20, 50)
