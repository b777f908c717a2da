"""System and equation documents, valid and malformed, through the command line entry point.

Every document must end in a result (exit 0), a JSON error object (exit 1) or
a usage error (exit 2), with nothing on stderr that looks like a traceback or
a warning.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twoscale import cli, errors, serialize

TYPED_ERRORS = {
    cls.__name__
    for module in (errors, serialize)
    for cls in vars(module).values()
    if isinstance(cls, type) and issubclass(cls, errors.TwoscaleError)
}

HAT_EQUATION = {
    "lambda": 2.0,
    "terms": [
        {"c": [0.5, 0.0], "beta": 0.0},
        {"c": [1.0, 0.0], "beta": 1.0},
        {"c": [0.5, 0.0], "beta": 2.0},
    ],
}

finite = st.floats(-1.0e3, 1.0e3, allow_nan=False)
edge_numbers = st.sampled_from(
    [0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, 1.7e308, math.inf, -math.inf, math.nan]
)
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    edge_numbers,
    st.integers(-3, 3),
    st.lists(st.integers(0, 2), max_size=2),
    st.just({}),
)


@st.composite
def sampled_generators(draw):
    count = draw(st.integers(2, 40))
    start = draw(finite)
    step = draw(st.sampled_from([1.0, 0.25, 0.1, 2.0**-5]))
    end = start + step * (count - 1)
    return {
        "kind": "sampled",
        "start": start,
        "step": step,
        "values": draw(st.lists(st.floats(-5.0, 5.0), min_size=count, max_size=count)),
        "support": [start, end] if draw(st.booleans()) else [start + step, end],
    }


generator_docs = st.one_of(
    st.just({"kind": "hat"}),
    sampled_generators(),
    st.builds(
        lambda k, iterations: {
            "kind": "refinement",
            "equation": HAT_EQUATION,
            "resolution": 2.0**-k,
            "iterations": iterations,
        },
        st.integers(1, 6),
        st.integers(1, 12),
    ),
    st.just({"kind": "gaussian"}),
    # the other generators that pair in closed form
    st.just({"kind": "two_sided_exp", "n": 2}),
    st.just({"kind": "rational", "numerator": [1.0], "denominator": [1.0, 0.0, 0.0, 0.0, 1.0]}),
    st.just({"kind": "le_catalog", "id": "ft_box"}),
    st.just({"kind": "le_catalog", "id": "ft_annulus_tent"}),
)

point_docs = st.fixed_dictionaries(
    {"lambda": st.floats(0.25, 4.0), "beta": st.floats(-4.0, 4.0)}
)


@st.composite
def corrupted(draw, doc, paths=((), ("generator",), ("points",))):
    """The document with one field deleted or replaced, one level deep or two."""
    doc = json.loads(json.dumps(doc))
    target = doc
    path = draw(st.sampled_from(paths))
    for key in path:
        target = target[key]
    if isinstance(target, list):
        target = target[draw(st.integers(0, len(target) - 1))]
        if not isinstance(target, dict):
            return doc
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(junk)
    return doc


@st.composite
def documents(draw):
    doc = {
        "generator": draw(generator_docs),
        "points": draw(st.lists(point_docs, min_size=1, max_size=4)),
    }
    if doc["generator"]["kind"] == "gaussian":
        doc["points"] = doc["points"][:2]
    if draw(st.booleans()):
        doc = draw(corrupted(doc))
    return doc


@st.composite
def equation_documents(draw):
    """Two-scale equations whose coefficients sum to lambda, at times corrupted."""
    lam = draw(st.floats(1.1, 4.0) | edge_numbers)
    count = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.1, 2.0), min_size=count, max_size=count))
    betas = draw(
        st.lists(
            st.integers(-3, 3).map(float) | st.floats(-3.0, 3.0),
            min_size=count, max_size=count, unique=True,
        )
    )
    scale = lam / math.fsum(weights) if math.isfinite(lam) else 1.0
    doc = {
        "lambda": lam,
        "terms": [{"c": [w * scale, 0.0], "beta": b} for w, b in zip(weights, betas)],
    }
    if draw(st.booleans()):
        doc = draw(corrupted(doc, paths=((), ("terms",))))
    return doc


def run_document(tmp_path, doc, command, *options):
    """Exit code and stderr of one command, after checking the process contract."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run([command, "--input", str(path), *options])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    if code == 0:
        assert err == ""
        json.loads(out.getvalue())
    elif code == 1:
        error = json.loads(err)
        assert set(error) >= {"error", "message"}
    return code, err


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=documents(), command=st.sampled_from(["gram", "analyze"]))
def test_documents_end_in_a_result_or_a_typed_error(tmp_path, doc, command):
    run_document(tmp_path, doc, command)


# grids kept small so that each example runs in milliseconds
EQUATION_COMMANDS = (
    ("refine-validate",),
    ("refine-bound",),
    ("refine-solve", "--gamma-max", "4", "--resolution", "0.25"),
    ("refine-cascade", "--resolution", "0.0625", "--iterations", "6"),
)


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=equation_documents(), command=st.sampled_from(EQUATION_COMMANDS))
def test_equation_documents_end_in_a_result_or_a_typed_error(tmp_path, doc, command):
    code, err = run_document(tmp_path, doc, *command)
    assert code in (0, 1)
    if code == 1:
        assert json.loads(err)["error"] in TYPED_ERRORS


def _points(*pairs):
    return [{"lambda": lam, "beta": beta} for lam, beta in pairs]


@pytest.mark.parametrize(
    "generator,points,code",
    [
        # supports or windows past the float range
        ({"kind": "hat"}, _points((5e-324, -1.2), (1.78, -2.5)), 1),
        ({"kind": "sampled", "start": 0.0, "step": 0.5, "values": [0.0, 1.0, -1.0, 0.0],
          "support": [0.0, 1.5]}, _points((5e-324, 3e-111), (1.3, -1.1)), 1),
        ({"kind": "gaussian"}, _points((1e-300, -1.2)), 0),
        ({"kind": "gaussian"}, _points((3.86, 1.74), (0.576, 1.7e308)), 1),
        ({"kind": "gaussian"}, _points((2.93, 1.7e308)), 0),
        # huge or tiny but finite: Gram entries near the float limits
        ({"kind": "hat"}, _points((2.48, 1.34), (1.7e308, 2.83)), 0),
        ({"kind": "hat"}, _points((1.7e308, 0.0)), 0),
        ({"kind": "hat"}, _points((1e-300, 0.0), (1.0, 0.0)), 0),
    ],
)
def test_float_range_edges(tmp_path, generator, points, code):
    assert run_document(tmp_path, {"generator": generator, "points": points}, "gram")[0] == code


@pytest.mark.parametrize("point", [(1e-300, -1.2), (2.93, 1.7e308), (5e-324, 0.0)])
def test_gaussian_norms_near_the_float_limits(tmp_path, point):
    """The closed form's entry sqrt(pi / 2) / lambda, or a typed error once it overflows."""
    doc = {"generator": {"kind": "gaussian"}, "points": _points(point)}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["gram", "--input", str(path)])
    exact = math.sqrt(math.pi / 2.0) / point[0]
    if not math.isfinite(exact):
        assert code == 1 and json.loads(err.getvalue())["error"] == "BadParameterError"
        return
    assert code == 0
    report = json.loads(out.getvalue())
    assert abs(report["matrix"][0][0][0] - exact) <= report["quad_error"] <= 1e-15 * exact


CLOSED_FORM_GENERATORS = (
    {"kind": "gaussian"},
    {"kind": "two_sided_exp", "n": 3},
    {"kind": "rational", "numerator": [1.0, 2.0], "denominator": [3.0, 1.0, 0.0, 1.0, 1.0]},
    {"kind": "le_catalog", "id": "ft_box"},
    {"kind": "le_catalog", "id": "ft_annulus_tent"},
)
EDGE_POINTS = (
    ((5e-324, 0.0), (1.0, 0.0)),
    ((1e-300, 1.0), (1.0, -1.0)),
    ((1.7e308, 1.0), (1.0, 0.0)),
    ((1.7e308, 1.7e308), (1.0e308, -1.7e308)),
    ((1.0, 1e300), (1.0, -1e300)),
    ((1.0, 1.7e308), (1.0, -1.7e308)),
    ((1e-300, 1e-300), (1e300, 1e300)),
    ((2.0, 5e-324), (2.0, 0.0)),
)


@pytest.mark.parametrize("points", EDGE_POINTS)
@pytest.mark.parametrize("generator", CLOSED_FORM_GENERATORS, ids=lambda g: g.get("id", g["kind"]))
def test_closed_forms_at_float_edges(tmp_path, generator, points):
    assert run_document(tmp_path, {"generator": generator, "points": _points(*points)}, "gram")[0] in (0, 1)
