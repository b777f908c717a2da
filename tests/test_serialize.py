"""Wire-format round trips and parse errors."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale import serialize as ser
from twoscale.bernoulli import BernoulliModel, density, fourier
from twoscale.errors import InconsistentTagsError
from twoscale.generators import (
    ALL_TAGS,
    CatalogGenerator,
    Gaussian,
    Hat,
    RationalL2,
    RefinementGenerator,
    SampledGenerator,
    TwoSidedExp,
    catalog_ids,
    normalize_tags,
)
from twoscale.refinement import (
    SampledFunction,
    TwoScaleEquation,
    cascade_solve,
    preset,
    solve_fourier,
)
from twoscale.wavelet_system import (
    WaveletPoint,
    WaveletSystem,
    analyze,
    certify,
    gram,
)


class TestEquationJson:
    def test_round_trip(self):
        eq = TwoScaleEquation(2.5, [(1.0 + 0.5j, -1.0), (1.5 - 0.5j, 2.0)])
        doc = ser.equation_to_dict(eq)
        back = ser.equation_from_dict(doc)
        assert back.lam == eq.lam
        assert back.terms == eq.terms
        assert ser.equation_to_dict(back) == doc

    def test_plain_number_coefficients_accepted(self):
        eq = ser.equation_from_dict({"lambda": 2.0, "terms": [{"c": 1.0, "beta": 0.0}]})
        assert eq.coefficients == (1.0 + 0j,)

    def test_missing_keys(self):
        with pytest.raises(ser.ParseError):
            ser.equation_from_dict({"terms": []})
        with pytest.raises(ser.ParseError):
            ser.equation_from_dict({"lambda": 2.0, "terms": [{"beta": 0.0}]})

    @pytest.mark.parametrize(
        "doc,field",
        (
            ({"lambda": "2", "terms": [{"c": 2.0, "beta": 0.0}]}, "equation lambda"),
            ({"lambda": True, "terms": [{"c": 1.0, "beta": 0.0}]}, "equation lambda"),
            ({"lambda": 2.0, "terms": [{"c": True, "beta": 0.0}]}, "equation term 0 c"),
            ({"lambda": 2.0, "terms": [{"c": ["2", 0.0], "beta": 0.0}]}, "equation term 0 c"),
            ({"lambda": 2.0, "terms": [{"c": 2.0, "beta": "0"}]}, "equation term 0 beta"),
        ),
    )
    def test_numbers_must_be_json_numbers(self, doc, field):
        with pytest.raises(ser.ParseError, match=field):
            ser.equation_from_dict(doc)

    def test_bad_json_reports_position(self):
        with pytest.raises(ser.ParseError) as info:
            ser.load_json('{"lambda": 2.0,\n "terms": }')
        assert info.value.line == 2
        assert info.value.column is not None


def at_origin(generator, point=None) -> dict:
    """A system document of the generator at one point, (1, 0) by default."""
    return {"generator": generator, "points": [point or {"lambda": 1, "beta": 0}]}


# one generator of each kind whose tags are derived from its parameters
DERIVED_TAG_GENERATORS = [
    Gaussian(),
    TwoSidedExp(2),
    RationalL2([1.0], [1.0, 0.0, 1.0]),
    RationalL2([1.0], [1.0, 0.0, 0.0, 0.0, 1.0]),
    Hat(),
    RefinementGenerator(preset("hat"), 2.0**-4, 8),
    *(CatalogGenerator(catalog_id) for catalog_id in catalog_ids()),
]


class TestSystemJson:
    @pytest.mark.parametrize(
        "gen",
        DERIVED_TAG_GENERATORS
        + [SampledGenerator(SampledFunction(-1.0, 1.0, np.array([0.0, 1.0, 0.0]), (-1.0, 1.0)),
                            tags=["schwartz"])],
        ids=lambda gen: getattr(gen, "catalog_id", gen.kind),
    )
    def test_round_trip_kinds(self, gen):
        system = WaveletSystem(gen, [WaveletPoint(1, 0), WaveletPoint(2, 1)])
        doc = ser.system_to_dict(system)
        back = ser.system_from_dict(doc)
        assert ser.system_to_dict(back) == doc
        assert back.generator.tags == gen.tags

    @pytest.mark.parametrize(
        "gen", DERIVED_TAG_GENERATORS, ids=lambda gen: getattr(gen, "catalog_id", gen.kind)
    )
    def test_derived_tags_are_closed_and_admit_only_their_subsets(self, gen):
        assert normalize_tags(gen.tags) == gen.tags
        doc = ser.system_to_dict(WaveletSystem(gen, [WaveletPoint(1, 0)]))
        tags = doc["generator"]["tags"]
        for subset in ([], tags[:1], tags[::2]):
            doc["generator"]["tags"] = subset
            assert ser.system_from_dict(doc).generator.tags == gen.tags
        for tag in sorted(ALL_TAGS - gen.tags):
            doc["generator"]["tags"] = tags + [tag]
            with pytest.raises(InconsistentTagsError, match=f"{gen.kind} .*'{tag}'"):
                ser.system_from_dict(doc)

    def test_refinement_generator_round_trip(self):
        doc = {
            "generator": {
                "kind": "refinement",
                "equation": ser.equation_to_dict(preset("hat")),
                "resolution": 2.0**-8,
                "iterations": 20,
            },
            "points": [{"lambda": 1.0, "beta": 0.0}],
        }
        system = ser.system_from_dict(doc)
        assert ser.system_to_dict(system)["generator"]["iterations"] == 20

    def test_sampled_round_trip(self):
        values = [0.0, 1.0, 0.0]
        doc = {
            "generator": {
                "kind": "sampled",
                "start": -1.0,
                "step": 1.0,
                "values": values,
                "support": [-1.0, 1.0],
                "tags": ["schwartz"],
            },
            "points": [{"lambda": 1.0, "beta": 0.0}],
        }
        system = ser.system_from_dict(doc)
        assert "schwartz" in system.generator.tags
        assert ser.system_to_dict(system)["generator"]["values"] == values

    @pytest.mark.parametrize("tags", ["schwartz", ["schwartz", 3], {"schwartz": True}])
    def test_tags_must_be_a_list_of_strings(self, tags):
        with pytest.raises(ser.ParseError, match="tags"):
            ser.system_from_dict(
                {"generator": {"kind": "gaussian", "tags": tags}, "points": [{"lambda": 1, "beta": 0}]}
            )

    @pytest.mark.parametrize(
        "generator",
        (
            {"kind": "two_sided_exp", "n": None},
            {"kind": "two_sided_exp", "n": float("inf")},
            {"kind": "two_sided_exp", "n": 1.5},
            {"kind": "rational", "numerator": None, "denominator": [1.0, 0.0, 1.0]},
            {"kind": "rational", "numerator": [1.0], "denominator": 1.0},
            {"kind": "refinement", "equation": {"lambda": 2, "terms": [{"c": 2, "beta": 0}]},
             "resolution": [0.5]},
            {"kind": "sampled", "start": 0.0, "step": 1.0, "values": [0.0, 1.0, 0.0],
             "support": 2.0},
            {"kind": "le_catalog", "id": 3},
            {"kind": "le_catalog", "id": ["sech"]},
        ),
    )
    def test_wrong_typed_generator_field(self, generator):
        with pytest.raises(ser.ParseError):
            ser.system_from_dict({"generator": generator, "points": [{"lambda": 1, "beta": 0}]})

    @pytest.mark.parametrize(
        "doc,field",
        (
            (at_origin({"kind": "gaussian"}, {"lambda": "2", "beta": 0}), "point 0 lambda"),
            (at_origin({"kind": "gaussian"}, {"lambda": True, "beta": 0}), "point 0 lambda"),
            (at_origin({"kind": "gaussian"}, {"lambda": 1, "beta": False}), "point 0 beta"),
            (at_origin({"kind": "gaussian"}, {"lambda": 10**400, "beta": 0}), "point 0 lambda"),
            (at_origin({"kind": "two_sided_exp", "n": "2"}), "generator n"),
            (at_origin({"kind": "two_sided_exp", "n": True}), "generator n"),
            (at_origin({"kind": "rational", "numerator": ["1"], "denominator": [1, 0, 1]}),
             "generator numerator"),
            (at_origin({"kind": "refinement", "equation": ser.equation_to_dict(preset("hat")),
                        "resolution": "0.25"}), "generator resolution"),
            (at_origin({"kind": "sampled", "start": 0.0, "step": 1.0, "values": [0.0, True, 0.0],
                        "support": [0.0, 2.0]}), "generator values"),
        ),
    )
    def test_numbers_must_be_json_numbers(self, doc, field):
        with pytest.raises(ser.ParseError, match=field):
            ser.system_from_dict(doc)

    def test_integer_past_the_digit_limit_is_a_parse_error(self):
        with pytest.raises(ser.ParseError, match="invalid JSON"):
            ser.load_json('{"lambda": 1' + "0" * 5000 + "}")

    def test_unknown_kind(self):
        with pytest.raises(ser.ParseError):
            ser.system_from_dict(
                {"generator": {"kind": "mystery"}, "points": [{"lambda": 1, "beta": 0}]}
            )

    def test_empty_points(self):
        with pytest.raises(ser.ParseError):
            ser.system_from_dict({"generator": {"kind": "hat"}, "points": []})


# signed zeros, ints (one past 2^53 rounds), the float range's edge and subnormals
PLAIN_NUMBERS = [-0.0, 0.0, 3, -7, 2**53 + 1, 10**30, 1e308, -1e308, 5e-324, -2.2250738585072014e-308]
NOT_NUMBERS = [True, "1", None, [1.0], 10**400]


def number_documents(bad):
    """(document, parser, where) with ``bad`` in each kind of number list."""
    sampled = {"kind": "sampled", "start": 0.0, "step": 1.0, "values": [0.0, 1.0, 0.0],
               "support": [0.0, 2.0]}
    rational = {"kind": "rational", "numerator": [1.0], "denominator": [1, 0, 1]}
    return [
        (at_origin({**sampled, "values": [0.0, bad, 0.0]}), ser.system_from_dict,
         "generator values"),
        (at_origin({**sampled, "support": [0.0, bad]}), ser.system_from_dict,
         "generator support"),
        (at_origin({**rational, "numerator": [1.0, bad]}), ser.system_from_dict,
         "generator numerator"),
        (at_origin({**rational, "denominator": [1, 0, bad]}), ser.system_from_dict,
         "generator denominator"),
        ({"lambda": 2.0, "terms": [{"c": [2.0, bad], "beta": 0.0}]}, ser.equation_from_dict,
         "equation term 0 c"),
    ]


class TestNumberLists:
    """Lists of plain floats and ints convert in one pass, others value by value."""

    @staticmethod
    def per_value(values):
        return np.array([ser._number(v, "w") for v in values]).tobytes()

    def test_one_pass_keeps_every_bit(self):
        expected = self.per_value(PLAIN_NUMBERS)
        parsed = ser._numbers(PLAIN_NUMBERS, "w")
        assert {type(x) for x in parsed} == {float}
        assert np.array(parsed).tobytes() == expected
        assert ser._float_array(PLAIN_NUMBERS, "w").tobytes() == expected
        for pair in ([-0.0, 5e-324], [3, -0.0], [1e308, 2**53 + 1]):
            assert np.array(ser._number_pair(pair, "w")).tobytes() == self.per_value(pair)

    def test_documents_keep_every_bit(self):
        values = PLAIN_NUMBERS + [0.0]
        doc = at_origin({"kind": "sampled", "start": 0.0, "step": 1.0, "values": values,
                         "support": [-0.0, 5e-324]})
        sampled = ser.system_from_dict(doc).generator.sampled
        assert sampled.values.tobytes() == self.per_value(values)
        assert np.array(sampled.support).tobytes() == self.per_value([-0.0, 5e-324])
        gen = ser.system_from_dict(
            at_origin({"kind": "rational", "numerator": [5e-324, -0.0, 3],
                       "denominator": [1, 0, 2, 0, 1]})
        )
        assert np.array(gen.generator.numerator).tobytes() == self.per_value([5e-324, -0.0, 3])
        eq = ser.equation_from_dict({"lambda": 2, "terms": [{"c": [2, 5e-324], "beta": 0}]})
        assert eq.coefficients == (complex(2.0, 5e-324),)

    @pytest.mark.parametrize("bad", NOT_NUMBERS, ids=["bool", "str", "none", "list", "big_int"])
    def test_other_lists_keep_their_messages(self, bad):
        for doc, parse, where in number_documents(bad):
            with pytest.raises(ser.ParseError) as expected:
                ser._number(bad, where)
            with pytest.raises(ser.ParseError) as raised:
                parse(doc)
            assert str(raised.value) == str(expected.value)


class TestReportsJson:
    def test_gram_report_shape(self):
        system = WaveletSystem(Hat(), [WaveletPoint(1, 0), WaveletPoint(2, 0)])
        doc = ser.gram_report_to_dict(gram(system, 1e-9))
        text = ser.dump_json(doc)
        assert json.loads(text) == doc  # serialize . parse = identity
        assert len(doc["matrix"]) == 2
        assert doc["sigma_min"] >= 0.0

    def test_certificate_and_verdict(self):
        system = WaveletSystem(Gaussian(), [WaveletPoint(1, 0)])
        cert = certify(system)
        cdoc = ser.certificate_to_dict(cert)
        assert cdoc["rule_id"] == "ExpDecay_L31a"
        assert all(isinstance(ok, bool) for _, ok in cdoc["checklist"])
        verdict = analyze(system)
        vdoc = ser.verdict_to_dict(verdict)
        assert vdoc["outcome"] == "IndependentCertified"
        assert vdoc["rule_id"] == "ExpDecay_L31a"
        assert vdoc["null_vector"] is None


def reference_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def dyadic_hat_lattice(levels: int) -> WaveletSystem:
    """The hat at (2^j, k) for j < levels and k = 0 .. 2^(j+1) - 2."""
    points = [WaveletPoint(2.0**j, k) for j in range(levels) for k in range(2 ** (j + 1) - 1)]
    return WaveletSystem(Hat(), points)


EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
     1.7976931348623157e308, 1e16, 1e-07, 0.1, 123456789.0, 1.5e-300]
)
FLOATS = st.floats() | EDGE_FLOATS | EDGE_FLOATS.map(np.float64)
STRINGS = st.text() | st.text(st.sampled_from('a"\\/\n\r\t\b\x00\x1f\x7fé€\u2028\ud800\U0001f600'))
SCALARS = FLOATS | st.integers() | st.booleans() | st.none() | STRINGS


@st.composite
def float_blocks(draw):
    """A regular nested list of floats of depth 1 to 3."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))

    def nest(axis):
        if axis == len(shape):
            return draw(FLOATS)
        return [nest(axis + 1) for _ in range(shape[axis])]

    return nest(0)


LEAVES = SCALARS | float_blocks() | st.lists(st.lists(FLOATS, max_size=3), max_size=3)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(STRINGS, children, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(DOCUMENTS)
    def test_bytes_match_json_dumps(self, doc):
        assert ser.dump_json(doc) == reference_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            [[]],
            [[], []],
            [{}],
            [1.0, 2],
            [2, 1.0],
            [[1.0, 2.0], [3.0]],
            [[1.0, 2.0], 3.0],
            [1.0, [2.0, 3.0]],
            [[1.0, 2.0], (3.0, 4.0)],
            [[[1.0, -0.0]], [[math.nan, math.inf]]],
            [True, 1.0],
            [None, 1.0],
            [-math.inf, math.nan, 1e16, 1e-07, 5e-324],
            {"nested": [[[0.5, -0.5], [1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]]},
            ("tuple", (1.0, 2.0)),
            "é\"\\\x00",
        ],
    )
    def test_fixed_documents(self, doc):
        assert ser.dump_json(doc) == reference_json(doc)

    def test_every_report_kind(self):
        lattice = dyadic_hat_lattice(5)
        assert len(lattice.points) == 57
        gaussian = WaveletSystem(Gaussian(), [WaveletPoint(1, 0)])
        dependent = ser.verdict_to_dict(analyze(dyadic_hat_lattice(3)))
        certified = ser.verdict_to_dict(analyze(gaussian))
        assert dependent["null_vector"] is not None and certified["null_vector"] is None
        real, real_residuals = cascade_solve(preset("hat"), 2.0**-4, 6)
        cplx, cplx_residuals = cascade_solve(
            TwoScaleEquation(2.0, [(0.5 + 0.3j, 0.0), (1.0, 1.0), (0.5 - 0.3j, 2.0)]), 2.0**-4, 6
        )
        assert np.iscomplexobj(cplx.values)
        grid = np.linspace(-4.0, 4.0, 33)
        docs = [
            ser.gram_report_to_dict(gram(lattice)),
            dependent,
            certified,
            {"certificate": ser.certificate_to_dict(certify(gaussian))},
            {"certificate": None},
            ser.profile_to_dict(solve_fourier(preset("rham"), grid, 1e-10)),
            ser.characteristic_to_dict(0.6, grid, fourier(BernoulliModel(0.6), grid, 1e-10)),
            ser.histogram_to_dict(density(BernoulliModel(0.6), 8, 16)),
            ser.sampled_to_dict(real, real_residuals),
            ser.sampled_to_dict(cplx, cplx_residuals),
            ser.sampled_to_dict(real),
            ser.equation_to_dict(preset("rham")),
            ser.system_to_dict(lattice),
        ]
        for doc in docs:
            assert ser.dump_json(doc) == reference_json(doc)

    def test_builders_keep_every_bit(self):
        values = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, math.inf)])
        sampled = SampledFunction(start=0.0, step=1.0, values=values, support=(0.0, 2.0))
        pairs = ser.sampled_to_dict(sampled)["values"]
        assert [[math.copysign(1.0, re), math.copysign(1.0, im)] for re, im in pairs[:2]] == [
            [-1.0, 1.0], [1.0, -1.0]
        ]
        assert pairs[2] == [5e-324, math.inf]

    @pytest.mark.parametrize(
        "doc",
        [np.int64(1), {"a": [1.0, np.int64(2)]}, [[1.0, 2.0], [object()]], np.bool_(True), {1.0j}],
    )
    def test_refuses_what_json_refuses(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            ser.dump_json(doc)

    def test_keys_must_be_strings(self):
        with pytest.raises(TypeError, match="keys must be str"):
            ser.dump_json({1: 2.0})


def row_writer(header, *columns):
    """CSV as one ``"{:.17g}"`` format call per row, up to the shortest column: the oracle."""
    row = ",".join(["{:.17g}"] * len(columns)).format
    arrays = [np.asarray(column, dtype=np.float64) for column in columns]
    rows = min(a.size for a in arrays)
    return "\n".join([header] + [row(*x) for x in zip(*(a[:rows].tolist() for a in arrays))]) + "\n"


SPECIAL_FLOATS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
    1.7976931348623157e308, 0.1, 1.0 / 3.0, -1e-300, 123456789012345678.0, 1.0, 2.5,
]


class TestCsv:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_block_writer_matches_row_writer(self, width):
        rng = np.random.default_rng(width)
        # past two whole blocks of rows, specials in every block
        size = 2 * ser._CSV_ROWS + 7
        big = rng.standard_normal(size) * 10.0 ** rng.integers(-310, 300, size)
        big[:: ser._CSV_ROWS // 3] = SPECIAL_FLOATS[0]
        for columns in (
            [SPECIAL_FLOATS] * width,
            [SPECIAL_FLOATS[k:] for k in range(width)],  # unequal lengths
            [big[k:] for k in range(width)],
            [[]] + [SPECIAL_FLOATS] * (width - 1),  # an empty column
            [np.array(SPECIAL_FLOATS[::-1])[k:] for k in range(width)],
        ):
            header = ",".join(f"c{k}" for k in range(width))
            assert ser._csv(header, *columns) == row_writer(header, *columns)

    def test_profile_csv(self):
        prof = solve_fourier(preset("hat"), [-0.5, 0.0, 0.5], 1e-10)
        text = ser.profile_to_csv(prof)
        lines = text.strip().splitlines()
        assert lines[0] == "gamma,re,im"
        assert len(lines) == 4
        gamma, re, im = (float(f) for f in lines[2].split(","))
        assert gamma == 0.0 and re == 1.0 and im == 0.0
        # 17 significant digits round-trip exactly
        g1, r1, i1 = (float(f) for f in lines[3].split(","))
        assert r1 == prof.values[2].real and i1 == prof.values[2].imag

    def test_sampled_csv(self):
        sf = SampledFunction(start=0.0, step=0.5, values=np.array([0.0, 1.0, 0.0]), support=(0.0, 1.0))
        text = ser.sampled_to_csv(sf)
        lines = text.strip().splitlines()
        assert lines[0] == "x,value"
        assert lines[2] == "0.5,1"

    def test_sampled_csv_rejects_complex(self):
        sf = SampledFunction(
            start=0.0, step=0.5, values=np.array([0.0, 1.0j, 0.0]), support=(0.0, 1.0)
        )
        with pytest.raises(ValueError):
            ser.sampled_to_csv(sf)

    def test_histogram_csv(self):
        hist = density(BernoulliModel(0.5), 4, 4)
        text = ser.histogram_to_csv(hist)
        lines = text.strip().splitlines()
        assert lines[0] == "bin_left,bin_right,mass"
        assert len(lines) == 5
        total = math.fsum(float(line.split(",")[2]) for line in lines[1:])
        assert total == 1.0
