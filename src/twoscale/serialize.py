"""JSON and CSV wire formats.

JSON schemas:
  equation  {"lambda": number, "terms": [{"c": [re, im], "beta": number}, ...]}
  system    {"generator": {"kind": ..., ...params, "tags": [...]},
             "points": [{"lambda": number, "beta": number}, ...]}

CSV formats (one record per grid point, %.17g):
  Fourier profile, characteristic function  header ``gamma,re,im``
  sampled function header ``x,value``
  density histogram header ``bin_left,bin_right,mass``

JSON comes from the indent-2 writer ``dump_json``: ASCII only, byte for byte
what ``json.dumps(obj, indent=2)`` writes, with every float written by
``float.__repr__``, which round-trips exactly; CSV uses 17 significant digits
for the same reason.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .bernoulli import DensityHistogram
from .errors import BadParameterError, InconsistentTagsError, TwoscaleError
from .generators import (
    CatalogGenerator,
    Gaussian,
    GeneratorSpec,
    Hat,
    RationalL2,
    RefinementGenerator,
    SampledGenerator,
    TwoSidedExp,
)
from .refinement import FourierProfile, SampledFunction, TwoScaleEquation
from .wavelet_system import Certificate, GramReport, Verdict, WaveletPoint, WaveletSystem

__all__ = [
    "ParseError",
    "equation_to_dict",
    "equation_from_dict",
    "system_to_dict",
    "system_from_dict",
    "gram_report_to_dict",
    "certificate_to_dict",
    "verdict_to_dict",
    "profile_to_csv",
    "frequency_to_csv",
    "characteristic_to_dict",
    "sampled_to_csv",
    "histogram_to_csv",
    "profile_to_dict",
    "sampled_to_dict",
    "histogram_to_dict",
    "dump_json",
    "load_json",
]


class ParseError(TwoscaleError):
    """Malformed input document; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


# rows formatted per batch: bounds the floats that exist as Python objects at once
_CSV_ROWS = 4096


def _csv(header: str, *columns) -> str:
    """One ``%.17g`` row per element of the columns, up to the shortest column.

    Each block of up to _CSV_ROWS rows is one ``%`` of a block layout over
    the floats of its rows, interleaved row by row.
    """
    arrays = [np.asarray(column, dtype=np.float64) for column in columns]
    rows = min(a.size for a in arrays)
    table = np.column_stack([a[:rows] for a in arrays])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    blocks = [header + "\n"]
    for lo in range(0, rows, _CSV_ROWS):
        block = table[lo : lo + _CSV_ROWS]
        blocks.append(row * len(block) % tuple(block.ravel().tolist()))
    return "".join(blocks)


def dump_json(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte, for string-keyed documents.

    Raises ``TypeError`` where ``json.dumps`` does, and for a non-string key.
    """
    return _encode(obj, 0) + "\n"


def _spell_nonfinite(text: str) -> str:
    """JSON spelling of joined float reprs; of these only nan and inf contain an n."""
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _layout(shape: list, level: int) -> str:
    """Indent-2 text of a nested list of the given shape, one ``%s`` per leaf."""
    inner = "\n" + "  " * (level + 1)
    item = _layout(shape[1:], level + 1) if len(shape) > 1 else "%s"
    return "[" + inner + ("," + inner).join([item] * shape[0]) + "\n" + "  " * level + "]"


def _float_block(items: list, level: int) -> str | None:
    """Text of a nonempty regular nested list of floats in one pass; None for any other list."""
    shape = [len(items)]
    while type(items[0]) is list:
        width = len(items[0])
        if not width or set(map(type, items)) != {list} or set(map(len, items)) != {width}:
            return None
        shape.append(width)
        items = list(chain.from_iterable(items))
    try:
        reprs = tuple(map(float.__repr__, items))
    except TypeError:  # an item that is not a float
        return None
    return _spell_nonfinite(_layout(shape, level) % reprs)


def _encode(obj, level: int) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _spell_nonfinite(float.__repr__(obj))
    inner, close = "\n" + "  " * (level + 1), "\n" + "  " * level
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _float_block(obj, level) or (
            "[" + inner + ("," + inner).join([_encode(v, level + 1) for v in obj]) + close + "]"
        )
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _encode(value, level + 1))
        return "{" + inner + ("," + inner).join(items) + close + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _pairs(values) -> list:
    """Complex values as nested ``[re, im]`` lists, every bit kept (-0.0 too)."""
    values = np.ascontiguousarray(values, dtype=np.complex128)
    return values.view(np.float64).reshape(values.shape + (2,)).tolist()


def _floats(values) -> list:
    return np.asarray(values, dtype=np.float64).tolist()


def _number(value, where: str) -> float:
    # a JSON string or boolean is not a number, though float() takes it
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{where}: integer past the float range") from None


# the element types of a list that converts in one pass; bool is a type of its own
_PLAIN_NUMBERS = {float, int}


def _numbers(value, where: str) -> list:
    """The floats of a JSON list of numbers.

    A list of plain floats and ints converts in one pass.  Any other list
    (a bool, a string, None, a nested list, an int past the float range)
    goes value by value, and the first value that is not a number raises.
    """
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of numbers")
    if set(map(type, value)) <= _PLAIN_NUMBERS:
        try:
            return list(map(float, value))
        except OverflowError:  # reported by the value-by-value path
            pass
    return [_number(v, where) for v in value]


def _float_array(value, where: str) -> np.ndarray:
    """:func:`_numbers` as one float64 array, read from a plain list in one pass."""
    if isinstance(value, list) and set(map(type, value)) <= _PLAIN_NUMBERS:
        try:
            return np.fromiter(value, np.float64, len(value))
        except OverflowError:
            pass
    return np.array(_numbers(value, where), dtype=np.float64)


def _number_pair(value, where: str) -> tuple:
    pair = _numbers(value, where)
    if len(pair) != 2:
        raise ParseError(f"{where}: expected a pair of numbers")
    return pair[0], pair[1]


def _integer(value, where: str) -> int:
    number = _number(value, where)
    if not number.is_integer():
        raise ParseError(f"{where}: expected an integer")
    return int(number)


def _parse_complex(value, where: str) -> complex:
    if isinstance(value, list):
        return complex(*_number_pair(value, where))
    return complex(_number(value, where))


def _require(mapping, key, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"{where}: missing required key {key!r}")
    return mapping[key]


# ---------------------------------------------------------------- equations


def equation_to_dict(eq: TwoScaleEquation) -> dict:
    return {
        "lambda": eq.lam,
        "terms": [{"c": [c.real, c.imag], "beta": beta} for c, beta in eq.terms],
    }


def equation_from_dict(doc: dict) -> TwoScaleEquation:
    lam = _require(doc, "lambda", "equation")
    terms_doc = _require(doc, "terms", "equation")
    if not isinstance(terms_doc, list) or not terms_doc:
        raise ParseError("equation: 'terms' must be a nonempty list")
    terms = []
    for k, term in enumerate(terms_doc):
        where = f"equation term {k}"
        c = _parse_complex(_require(term, "c", where), f"{where} c")
        terms.append((c, _number(_require(term, "beta", where), f"{where} beta")))
    return TwoScaleEquation(_number(lam, "equation lambda"), terms)


# ------------------------------------------------------------------ systems


def _sampled_to_dict(sampled: SampledFunction) -> dict:
    values = np.asarray(sampled.values)
    if np.iscomplexobj(values):
        raise BadParameterError("sampled generator serialization supports real values only")
    return {
        "start": sampled.start,
        "step": sampled.step,
        "values": _floats(values),
        "support": [sampled.support[0], sampled.support[1]],
    }


def _sampled_from_dict(doc: dict, where: str) -> SampledFunction:
    values = _float_array(_require(doc, "values", where), f"{where} values")
    return SampledFunction(
        start=_number(_require(doc, "start", where), f"{where} start"),
        step=_number(_require(doc, "step", where), f"{where} step"),
        values=values,
        support=_number_pair(_require(doc, "support", where), f"{where} support"),
    )


def generator_to_dict(gen: GeneratorSpec) -> dict:
    doc: dict = {"kind": gen.kind}
    if gen.kind == "two_sided_exp":
        doc["n"] = gen.n
    elif gen.kind == "rational":
        doc["numerator"] = list(gen.numerator)
        doc["denominator"] = list(gen.denominator)
    elif gen.kind == "refinement":
        doc["equation"] = equation_to_dict(gen.equation)
        doc["resolution"] = gen.resolution
        doc["iterations"] = gen.iterations
    elif gen.kind == "sampled":
        doc.update(_sampled_to_dict(gen.sampled))
    elif gen.kind == "le_catalog":
        doc["id"] = gen.catalog_id
    doc["tags"] = sorted(gen.tags)
    return doc


def generator_from_dict(doc: dict) -> GeneratorSpec:
    """Only a sampled generator takes the document's tags as declared; every
    other kind derives its tags, and its document may list only those."""
    kind = _require(doc, "kind", "generator")
    tags = doc.get("tags")
    if tags is not None and not (
        isinstance(tags, list) and all(isinstance(t, str) for t in tags)
    ):
        raise ParseError("generator: 'tags' must be a list of strings")
    tags = tags or ()
    if kind == "sampled":
        return SampledGenerator(_sampled_from_dict(doc, "generator"), tags)
    if kind == "gaussian":
        gen = Gaussian()
    elif kind == "two_sided_exp":
        gen = TwoSidedExp(_integer(_require(doc, "n", "generator"), "generator n"))
    elif kind == "rational":
        gen = RationalL2(
            _numbers(_require(doc, "numerator", "generator"), "generator numerator"),
            _numbers(_require(doc, "denominator", "generator"), "generator denominator"),
        )
    elif kind == "hat":
        gen = Hat()
    elif kind == "refinement":
        eq = equation_from_dict(_require(doc, "equation", "generator"))
        # the constructor's defaults stand for the keys the document leaves out
        options = {
            key: parse(doc[key], f"generator {key}")
            for key, parse in (("resolution", _number), ("iterations", _integer))
            if key in doc
        }
        gen = RefinementGenerator(eq, **options)
    elif kind == "le_catalog":
        catalog_id = _require(doc, "id", "generator")
        if not isinstance(catalog_id, str):
            raise ParseError(f"generator id: expected a string, got {type(catalog_id).__name__}")
        gen = CatalogGenerator(catalog_id)
    else:
        raise ParseError(f"generator: unknown kind {kind!r}")
    unproved = sorted(set(tags) - gen.tags)
    if unproved:
        raise InconsistentTagsError(f"{kind} generator: tags {unproved} are not derived for it")
    return gen


def system_to_dict(system: WaveletSystem) -> dict:
    return {
        "generator": generator_to_dict(system.generator),
        "points": [
            {"lambda": p.dilation, "beta": p.translation} for p in system.points
        ],
    }


def system_from_dict(doc: dict) -> WaveletSystem:
    gen = generator_from_dict(_require(doc, "generator", "system"))
    points_doc = _require(doc, "points", "system")
    if not isinstance(points_doc, list) or not points_doc:
        raise ParseError("system: 'points' must be a nonempty list")
    points = [
        WaveletPoint(
            _number(_require(p, "lambda", f"point {k}"), f"point {k} lambda"),
            _number(_require(p, "beta", f"point {k}"), f"point {k} beta"),
        )
        for k, p in enumerate(points_doc)
    ]
    return WaveletSystem(gen, points)


def load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the parser's depth
        raise ParseError("invalid JSON: nested too deeply") from exc


# ------------------------------------------------------------------ reports


def gram_report_to_dict(report: GramReport) -> dict:
    return {
        "matrix": _pairs(report.matrix),
        "eigenvalues": _floats(report.eigenvalues),
        "sigma_min": report.sigma_min,
        "sigma_max": report.sigma_max,
        "relative_gap": report.relative_gap,
        "quad_error": report.quad_error,
        "null_vector": None
        if report.null_vector is None
        else _pairs(report.null_vector),
    }


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "rule_id": cert.rule_id,
        "citation": cert.citation,
        "checklist": [[name, bool(ok)] for name, ok in cert.hypothesis_checklist],
    }


def verdict_to_dict(verdict: Verdict) -> dict:
    cert = verdict.certificate
    evidence = verdict.evidence
    return {
        "outcome": verdict.outcome,
        **(
            dict.fromkeys(("rule_id", "citation", "checklist"))
            if cert is None
            else certificate_to_dict(cert)
        ),
        "relative_gap": None if evidence is None else evidence.relative_gap,
        "quad_error": None if evidence is None else evidence.quad_error,
        "null_vector": None
        if verdict.null_vector is None
        else _pairs(verdict.null_vector),
    }


# ---------------------------------------------------------------------- CSV


def frequency_to_csv(grid: Sequence[float], values: Sequence[complex]) -> str:
    """Values on a frequency grid, one ``gamma,re,im`` row each."""
    values = np.asarray(values)
    return _csv("gamma,re,im", grid, values.real, values.imag)


def profile_to_csv(profile: FourierProfile) -> str:
    return frequency_to_csv(profile.grid, profile.values)


def profile_to_dict(profile: FourierProfile) -> dict:
    return {
        "grid": _floats(profile.grid),
        "values": _pairs(profile.values),
        "truncation_depth": profile.truncation_depth,
        "tail_bound": profile.tail_bound,
    }


def characteristic_to_dict(alpha: float, grid: Sequence[float], values: Sequence[float]) -> dict:
    return {"alpha": alpha, "grid": _floats(grid), "values": _floats(values)}


def sampled_to_csv(sampled: SampledFunction) -> str:
    values = np.asarray(sampled.values)
    if np.iscomplexobj(values):
        raise BadParameterError("sampled-function CSV supports real values only")
    return _csv("x,value", sampled.grid, values)


def sampled_to_dict(sampled: SampledFunction, residuals: Sequence[float] | None = None) -> dict:
    values = np.asarray(sampled.values)
    doc = {
        "start": sampled.start,
        "step": sampled.step,
        "support": [sampled.support[0], sampled.support[1]],
        "values": _pairs(values) if np.iscomplexobj(values) else _floats(values),
    }
    if residuals is not None:
        doc["residuals"] = _floats(residuals)
    return doc


def histogram_to_csv(hist: DensityHistogram) -> str:
    return _csv("bin_left,bin_right,mass", hist.bin_edges[:-1], hist.bin_edges[1:], hist.masses)


def histogram_to_dict(hist: DensityHistogram) -> dict:
    return {
        "bin_edges": _floats(hist.bin_edges),
        "masses": _floats(hist.masses),
        "depth": hist.depth,
        "positional_error": hist.positional_error,
    }
