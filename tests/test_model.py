import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lclt_lab.model as lm
import lclt_lab.verifier as vf
import oracles
from lclt_lab._system import build_system
from conftest import free_chain, model_to_dict, nn_chain, random_model
from lclt_lab.errors import CapacityError, DomainError


def test_spin_interval_validation():
    with pytest.raises(DomainError):
        lm.SpinInterval(1, 1)
    with pytest.raises(DomainError):
        lm.SpinInterval(2, 0)
    s = lm.SpinInterval(-2, 1)
    assert s.sigma == 2
    assert s.card == 4
    assert s.values == (-2, -1, 0, 1)


def test_spin_values_past_float64s_integers_are_refused():
    """float64 holds every integer up to 2**53 and merges distinct spins
    past it: at 2**60 and 2**60 + 1 both routes read variance 0."""
    for lo, hi in ((2**60, 2**60 + 1), (2**53, 2**53 + 1), (-(2**53) - 1, 0)):
        with pytest.raises(DomainError, match=r"within \+-2\*\*53 = 9007199254740992"):
            lm.SpinInterval(lo, hi)
    with pytest.raises(DomainError, match=r"within \+-2\*\*53"):
        nn_chain(radius=1, strength=0.1, spin=(2**60, 2**60 + 1), boundary=None)
    assert lm.SpinInterval(-(2**53), 2**53).sigma == 2**53


def test_box_regions():
    model = nn_chain(radius=3, r0=2)
    box = lm.resolve_region(model, "box")
    assert len(box) == 7
    dec = lm.resolve_region(model, "decimated")
    assert dec == ((-2,), (0,), (2,))
    sub = lm.resolve_region(model, [(1,), (-1,)])
    assert sub == ((-1,), (1,))

    model2 = nn_chain(radius=1, r0=2, dimension=2)
    assert len(lm.resolve_region(model2, "box")) == 9
    assert lm.resolve_region(model2, "decimated") == ((0, 0),)

    # decimated sites: the box sites whose coordinates are all multiples of
    # r0, in the same order
    for dimension in (1, 2, 3):
        for radius in range(6):
            for r0 in range(1, 8):
                box = lm.Box(dimension=dimension, radius=radius, r0=r0)
                want = tuple(s for s in box.sites if all(c % r0 == 0 for c in s))
                assert box.decimated_sites == want


def test_explicit_region_tuple_is_checked_once(monkeypatch):
    """A hashable site tuple resolves as any other iterable of the same
    sites, is converted once per box and read from the cache after that;
    a bad one raises the same error on every call."""
    model = nn_chain(radius=3)
    region = ((2,), (-1,), (0,))
    want = lm.resolve_region(model, [list(s) for s in region])
    assert want == ((-1,), (0,), (2,))
    assert lm.resolve_region(model, region) == want
    assert lm.resolve_region(model, ((2.0,), (-1,), (0,))) == want
    assert lm.resolve_region(model, ([2], [-1], [0])) == want

    def no_conversion(*args):
        raise AssertionError("a cached region was converted again")

    monkeypatch.setattr(lm, "_as_site", no_conversion)
    assert lm.resolve_region(model, region) == want
    assert lm.resolve_region(nn_chain(radius=3, strength=0.4), region) == want
    monkeypatch.undo()
    for bad, message in (
        (((1,), (1,)), "^region sites must be distinct$"),
        (((4,),), r"^region site \(4,\) lies outside the box$"),
        (((1, 0),), r"^site \(1, 0\) does not have dimension 1$"),
    ):
        for _ in range(2):
            with pytest.raises(DomainError, match=message):
                lm.resolve_region(model, bad)


# kappa(J, sigma, card) = exp(-2 J sigma^2) / card, frozen from the formula
KAPPA_CASES = [
    (0.0, 1, 2, 0.5),
    (1.0, 1, 2, 0.06766764161830635),
    (0.5, 2, 5, 0.0036631277777468356),
]


@pytest.mark.parametrize("norm,sigma,card,expected", KAPPA_CASES)
def test_kappa_oracles(norm, sigma, card, expected):
    assert lm.kappa(norm, sigma, card) == pytest.approx(expected, rel=1e-15)
    assert lm.log_kappa(norm, sigma, card) == pytest.approx(math.log(expected), rel=1e-15)


def test_kappa_floors_single_spin_probabilities():
    """Every conditional single-spin probability is at least kappa."""
    rng = np.random.default_rng(42)
    for _ in range(25):
        model = random_model(rng)
        kap = lm.kappa(lm.interaction_norm(model), model.spin.sigma, model.spin.card)
        for x in lm.resolve_region(model, "box")[:4]:
            dist = oracles.single_spin_distribution(model, x)
            assert min(dist.values()) >= kap - 1e-15


def test_interaction_norm_nearest_neighbor():
    model = nn_chain(radius=3, strength=0.1)
    assert lm.interaction_norm(model) == pytest.approx(0.2, abs=0)
    assert lm.interaction_norm(model, step=2) == 0.0

    model2 = nn_chain(radius=1, strength=0.1, dimension=2)
    assert lm.interaction_norm(model2) == pytest.approx(0.4, abs=0)


def test_interaction_norm_explicit_matches_per_site_sum():
    """sup over on-step box sites of the |J| of their pairs whose other end
    is on the step lattice too; that end may lie outside the box."""
    pairs = [
        ((0, 0), (0, 2), 0.3),
        ((0, 0), (2, 0), -0.25),
        ((0, 2), (2, 2), 0.5),
        ((0, 0), (1, 0), 0.7),  # off the step-2 lattice
        ((2, 2), (4, 2), -0.45),  # (4, 2) lies outside the box
        ((-1, 1), (1, 1), 0.2),
    ]
    model = lm.GibbsModel(
        box=lm.Box(dimension=2, radius=2, r0=2),
        spin=lm.SpinInterval(-1, 1),
        coupling=lm.Coupling.explicit(pairs),
        boundary=lm.BoundaryCondition.zero(),
    )
    norm = lm.Coupling.explicit(pairs).pairs
    for step in (1, 2):
        on_step = [x for x in model.box.sites if all(c % step == 0 for c in x)]
        expected = max(
            sum(abs(j) for a, b, j in norm if x in (a, b) and all(c % step == 0 for c in a + b))
            for x in on_step
        )
        assert lm.interaction_norm(model, step) == expected
    assert lm.interaction_norm(model, 1) == pytest.approx(0.7 + 0.3 + 0.25)
    assert lm.interaction_norm(model, 2) == pytest.approx(0.5 + 0.45)


def test_interaction_norm_power_law():
    # sum over nonzero displacements of 0.1 |x|^-3 in one dimension:
    # 2 * 0.1 * zeta(3), with the window truncation below 2e-12
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=2, r0=1),
        spin=lm.SpinInterval(0, 1),
        coupling=lm.Coupling.power_law(0.1, 3.0),
        boundary=lm.BoundaryCondition.zero(),
    )
    assert lm.interaction_norm(model) == pytest.approx(0.24041138063091883, abs=2e-12)


def test_boundary_field_coefficient_edge_site():
    # constant boundary 1: the edge site of the box has one exterior neighbor
    model = nn_chain(radius=1, strength=0.1, spin=(-1, 1), boundary=1)
    _, middle, right = build_system(model, "box").fields
    assert right == pytest.approx(0.1)
    assert middle == 0.0
    # sub-region: the interior site becomes exterior and its spin counts
    assert build_system(model, ((-1,), (1,))).fields[1] == pytest.approx(0.2)
    # a site outside the region has no field of its own
    with pytest.raises(DomainError, match="not in the region"):
        oracles.single_spin_distribution(model, (0,), ((-1,), (1,)))


def test_repeated_boundary_site_is_a_domain_error():
    """A site listed twice would give omega one value and the field both."""
    with pytest.raises(DomainError, match=r"duplicate explicit boundary site \(4,\)"):
        lm.BoundaryCondition.explicit([((4,), 1), ((-4,), 0), ((4,), 1)])
    with pytest.raises(DomainError, match="duplicate explicit boundary site"):
        lm.BoundaryCondition(kind="explicit", assignments=(((4,), 1), ((4,), 0)))
    assert lm.BoundaryCondition.explicit({(4,): 1, (-4,): 0}).omega((4,)) == 1


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: lm.resolve_region(nn_chain(radius=3), [(0.5,), (1.7,)]), r"site \(0\.5,\) is 0\.5, not an integer"),
        (lambda: lm.Coupling.explicit([((0,), (1.5,), 0.1)]), r"site \(1\.5,\) is 1\.5, not an integer"),
        (lambda: lm.BoundaryCondition.explicit([((4.5,), 1)]), r"site \(4\.5,\) is 4\.5, not an integer"),
        (lambda: lm.BoundaryCondition.explicit([((4,), 1.6)]), r"boundary value at \(4,\) is 1\.6, not an integer"),
        (lambda: lm.BoundaryCondition.constant(1.6), r"constant boundary value is 1\.6, not an integer"),
        (lambda: lm.BoundaryCondition.constant(True), r"constant boundary value is True, not an integer"),
        (lambda: build_system(nn_chain(radius=3), [(0,)], omega={(1,): 0.6}), r"omega value at \(1,\) is 0\.6"),
        (lambda: build_system(nn_chain(radius=3), [(0,)], omega={(1.5,): 1}), r"site \(1\.5,\) is 1\.5"),
    ],
    ids=[
        "resolve_region",
        "coupling_site",
        "boundary_site",
        "boundary_value",
        "constant_value",
        "constant_bool",
        "omega_value",
        "omega_site",
    ],
)
def test_non_integral_site_or_spin_is_a_domain_error(make, message):
    """A fractional site coordinate or spin value is refused by name on
    every library entry point, never truncated to an int."""
    with pytest.raises(DomainError, match=message):
        make()


def test_integral_sites_and_spins_are_ints():
    """An integral float or a numpy integer stands for its int: the same
    sites, values and fields as the int spelling."""
    model = nn_chain(radius=3, spin=(-1, 1))
    assert lm.resolve_region(model, [(np.int64(1),), (2.0,)]) == ((1,), (2,))
    coupling = lm.Coupling.explicit([((np.int32(0),), (1.0,), 0.1)])
    assert coupling.pairs == (((0,), (1,), 0.1),)
    assert all(type(c) is int for x, y, _ in coupling.pairs for c in x + y)
    constant = lm.BoundaryCondition.constant(np.float64(-1.0))
    assert constant.value == -1 and type(constant.value) is int
    explicit = lm.BoundaryCondition.explicit({(np.int64(4),): np.int8(1), (-4.0,): 0.0})
    assert explicit.assignments == (((-4,), 0), ((4,), 1))
    assert all(type(v) is int for _, v in explicit.assignments)
    want = build_system(model, [(0,)], omega={(1,): 1, (-1,): -1})
    assert build_system(model, [(0,)], omega={(1.0,): 1.0, (np.int64(-1),): np.int64(-1)}) == want


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: lm.Coupling.nearest_neighbor(math.inf), "coupling strength must be finite, got inf"),
        (lambda: lm.Coupling.power_law(math.nan, 3.0), "coupling strength must be finite, got nan"),
        (lambda: lm.Coupling.power_law(0.1, math.nan), "positive finite exponent, got nan"),
        (lambda: lm.Coupling.power_law(0.1, math.inf), "positive finite exponent, got inf"),
        (lambda: lm.Coupling.explicit([((0,), (1,), math.nan)]), r"pair \(\(0,\), \(1,\)\) has the coupling nan"),
    ],
)
def test_non_finite_coupling_is_a_domain_error(make, message):
    """JSON NaN and Infinity pass the schema's "number"; the coupling
    refuses them before any sum sees them."""
    with pytest.raises(DomainError, match=message):
        make()


def test_single_spin_distribution_logistic():
    # one site with a single exterior neighbor held at 1 through J = 0.1:
    # p(1) = 1 / (1 + e^-0.1)
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=0, r0=1),
        spin=lm.SpinInterval(0, 1),
        coupling=lm.Coupling.nearest_neighbor(0.1),
        boundary=lm.BoundaryCondition.explicit([((1,), 1)]),
    )
    dist = oracles.single_spin_distribution(model, (0,))
    assert dist[1] == pytest.approx(0.52497918747894, abs=1e-14)
    assert dist[0] == pytest.approx(0.47502081252106, abs=1e-14)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-15)


def test_hamiltonian_two_site():
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=1, r0=1),
        spin=lm.SpinInterval(-1, 1),
        coupling=lm.Coupling.explicit([((-1,), (1,), 0.1)]),
        boundary=lm.BoundaryCondition.zero(),
    )
    region = ((-1,), (1,))
    # minus-H = J s1 s2 with no field terms under zero boundary
    cfg = lambda a, b: oracles.SpinConfig(sites=region, values=(a, b))
    assert oracles.hamiltonian(model, cfg(1, 1)) == pytest.approx(0.1)
    assert oracles.hamiltonian(model, cfg(1, -1)) == pytest.approx(-0.1)
    assert oracles.hamiltonian(model, cfg(0, 1)) == 0.0


def test_schema_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        model = random_model(rng)
        data = model_to_dict(model)
        again = lm.model_from_dict(json.loads(json.dumps(data)))
        assert again == model


def test_schema_rejects_malformed():
    good = model_to_dict(nn_chain())
    for breakage in (
        lambda d: d.pop("radius"),
        lambda d: d.__setitem__("dimension", 0),
        lambda d: d.__setitem__("spin", {"lo": 1}),
        lambda d: d.__setitem__("extra", 1),
        lambda d: d["coupling"].__setitem__("kind", "cubic"),
    ):
        data = json.loads(json.dumps(good))
        breakage(data)
        with pytest.raises(DomainError, match="^invalid model config: "):
            lm.model_from_dict(data)
    # model_from_dict reads MODEL_SCHEMA as a JSON Schema; check that it is one
    jsonschema.Draft202012Validator.check_schema(lm.MODEL_SCHEMA)


# what a mutation may put in place of a value: every JSON type, a negative
# int, an integral and a fractional float, and NaN
_REPLACEMENTS = [None, True, False, "x", [], [1], {}, {"kind": "zero"}, -2, 2.0, -1.0, 0.5, math.nan]


def _nodes(node, path=()):
    """(path, value) of every value in a JSON tree, the root first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _ints(node):
    """node with every integral float made an int."""
    if isinstance(node, float) and node.is_integer():
        return int(node)
    if isinstance(node, dict):
        return {key: _ints(v) for key, v in node.items()}
    return [_ints(v) for v in node] if isinstance(node, list) else node


def _parts(d):
    """Strategies for the coupling and the boundary of a config in dimension
    d, of every kind, each optional key present or not."""
    site = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    strength = st.floats(-1.0, 1.0)
    coupling = st.one_of(
        st.fixed_dictionaries({"kind": st.just("nearest_neighbor")}, optional={"strength": strength}),
        st.fixed_dictionaries(
            {"kind": st.just("power_law")}, optional={"strength": strength, "exponent": st.floats(d + 1.0, 8.0)}
        ),
        st.fixed_dictionaries(
            {"kind": st.just("explicit")},
            optional={"pairs": st.lists(st.tuples(site, site, strength).map(list), max_size=3)},
        ),
    )
    boundary = st.one_of(
        st.fixed_dictionaries({"kind": st.just("zero")}),
        st.fixed_dictionaries({"kind": st.just("constant")}, optional={"value": st.integers(-1, 1)}),
        st.fixed_dictionaries(
            {"kind": st.just("explicit")},
            optional={"assignments": st.lists(st.tuples(site, st.integers(-1, 1)).map(list), max_size=3)},
        ),
    )
    return coupling, boundary


_PARTS = {d: _parts(d) for d in (1, 2)}


@st.composite
def _mutated_configs(draw):
    """A valid config of any coupling and boundary kind with one mutation:
    an int written as a float, a value replaced, a key added or dropped, or
    an array made longer or shorter."""
    d = draw(st.integers(1, 2))
    coupling, boundary = (draw(part) for part in _PARTS[d])
    lo = draw(st.integers(-2, 1))
    config = {
        "dimension": d,
        "radius": draw(st.integers(0, 3)),
        "r0": draw(st.integers(1, 2)),
        "spin": {"lo": lo, "hi": lo + draw(st.integers(1, 2))},
        "coupling": coupling,
        "boundary": boundary,
    }
    if draw(st.booleans()):
        config["truncation_radius"] = draw(st.integers(1, 40))
    how = draw(st.sampled_from(["float", "replace", "add", "drop"]))
    # deepest values first: the draw leans to the front of the list
    nodes = [(path, node) for path, node in _nodes(config) if how != "float" or type(node) is int][::-1]
    path, node = nodes[draw(st.integers(0, len(nodes) - 1))]
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    pick = st.sampled_from(_REPLACEMENTS)
    if how == "float":
        parent[path[-1]] = float(node)
    elif how == "drop" and isinstance(node, (dict, list)) and node:
        node.pop(draw(st.sampled_from(list(node))) if isinstance(node, dict) else len(node) - 1)
    elif how == "add" and isinstance(node, dict):
        node[draw(st.sampled_from(["extra", "kind", "value", "lo", "pairs"]))] = draw(pick)
    elif how == "add" and isinstance(node, list):
        node.append(draw(st.sampled_from(node + _REPLACEMENTS)))
    elif path:
        parent[path[-1]] = draw(pick)
    else:
        config = draw(pick)
    return config


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_mutated_configs())
def test_config_check_matches_jsonschema(config):
    """model_from_dict refuses a config with "invalid model config" exactly
    when jsonschema finds it against MODEL_SCHEMA. Otherwise it builds the
    model of the config with its integral floats made ints, or raises the
    same DomainError or CapacityError of the model's own checks."""
    refused = next(jsonschema.Draft202012Validator(lm.MODEL_SCHEMA).iter_errors(config), None)
    if refused is not None:
        with pytest.raises(DomainError, match="^invalid model config: "):
            lm.model_from_dict(config)
        return
    outcomes = []
    for raw in (config, _ints(config)):
        try:
            outcomes.append(lm.model_from_dict(raw))
        except (DomainError, CapacityError) as err:
            assert "invalid model config" not in str(err)
            outcomes.append((type(err), str(err)))
    assert outcomes[0] == outcomes[1]


def test_model_json_loading(tmp_path):
    model = nn_chain(radius=2, strength=0.15, spin=(0, 1), boundary=None, r0=2)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    assert lm.model_from_json(path.read_text()) == model


def test_box_past_site_cap_raises_capacity_error():
    """A box past SITE_CAP sites never lists them; a translation-invariant
    coupling still gets its constants, which need no site list."""
    box = lm.Box(dimension=2, radius=512, r0=2)
    assert box.site_count == 1025**2 > lm.SITE_CAP
    with pytest.raises(CapacityError, match=r"\(2r\+1\)\^d = 1050625 sites, over the cap 1048576"):
        box.sites
    # the decimated sites come from the multiples of r0 on each axis and fit
    decimated = box.decimated_sites
    assert len(decimated) == 513**2
    assert decimated[:2] == ((-512, -512), (-512, -510)) and decimated[-1] == (512, 512)
    with pytest.raises(CapacityError, match=r"holds 1050625 sites, over the cap 1048576"):
        lm.Box(dimension=2, radius=512, r0=1).decimated_sites
    model = lm.GibbsModel(
        box=box,
        spin=lm.SpinInterval(0, 1),
        coupling=lm.Coupling.nearest_neighbor(0.1),
        boundary=lm.BoundaryCondition.constant(1),
    )
    assert vf.constants(model).r0_condition_ok


def test_region_pairs_keep_explicit_pairs_inside_region():
    """Explicit pairs come out as (i, k, J) with i < k in region order; a
    pair with an end outside the region is dropped."""
    model = lm.GibbsModel(
        box=lm.Box(dimension=2, radius=2, r0=2),
        spin=lm.SpinInterval(-1, 1),
        coupling=lm.Coupling.explicit(
            [((-2, 0), (2, 2), 0.3), ((0, 0), (0, 3), 0.2), ((-3, 1), (1, -1), 0.1), ((1, 1), (0, 2), -0.4)]
        ),
        boundary=lm.BoundaryCondition.constant(1),
    )
    assert build_system(model, "box").pairs == ((2, 24, 0.3), (14, 18, -0.4))
    assert build_system(model, "decimated").pairs == ((1, 8, 0.3),)
    assert build_system(nn_chain(radius=3, strength=0.0), "box").pairs == ()


def test_coefficient_matches_direct_exterior_sum():
    """Constant-boundary shortcut equals the site-by-site exterior sum,
    including for negative couplings."""
    from lclt_lab._system import windowed_exterior

    rng = np.random.default_rng(9)
    for _ in range(12):
        model = random_model(rng)
        if model.boundary.kind != "constant":
            continue
        ext = windowed_exterior(model, "box")
        slopes = build_system(model, "box").fields
        for x, slope in zip(lm.resolve_region(model, "box")[:3], slopes):
            direct = model.boundary.value * sum(model.coupling.value(x, y) for y in ext)
            assert slope == pytest.approx(direct, abs=1e-12)


def test_block_fields_are_python_sums_bit_for_bit():
    """model._block_fields, the one formula of an explicit boundary's field
    slopes and of a decay scan's rows, gives each site under each row of
    exterior spins the bits of Python's sum of J(x, y) omega_y in window
    order: signed zeros, 1e300 terms that cancel and random couplings over
    ten decades; an empty window gives 0.0."""
    rng = np.random.default_rng(17)
    special = np.array([0.0, -0.0, 1e300, -1e300, 0.25, -3.0])
    for _ in range(200):
        n, w, rows = (int(k) for k in rng.integers(1, 7, size=3))
        block = np.where(
            rng.random((n, w)) < 0.5,
            rng.choice(special, size=(n, w)),
            rng.normal(size=(n, w)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(n, w)),
        )
        spins = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0], size=(rows, w))
        with np.errstate(over="ignore", invalid="ignore"):
            got = lm._block_fields(block, spins)
        want = [[sum(j * v for j, v in zip(line, row)) for line in block.tolist()] for row in spins.tolist()]
        assert [v.hex() for v in got.ravel().tolist()] == [float(v).hex() for v in np.ravel(want)]
    assert lm._block_fields(np.zeros((3, 0)), np.zeros(0)).tolist() == [0.0, 0.0, 0.0]


def test_free_chain_is_uniform():
    model = free_chain(radius=2)
    for x in lm.resolve_region(model, "box"):
        dist = oracles.single_spin_distribution(model, x)
        assert all(p == pytest.approx(0.5) for p in dist.values())
