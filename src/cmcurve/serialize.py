"""JSON encodings with bit-exact round trips.

Formats:
  adelic matrix  {"r": [[num, den] x4], "delta": int, "s": [int x4], "level": int}
  level matrix   [int x4] together with a level from context
  point          {"tau": {"m": int, "p": [num, den], "q": [num, den]},
                  "a": <adelic matrix>, "level": int}
  shadow         {"support": [int...], "components": [[int x4]...],
                  "branch": +-1, "det": int, "level": int}

Decoder functions validate shapes and reconstruct exact values; canonical
outputs carry "canonical": true.  SCHEMAS holds the JSON Schema (2020-12) of
each CLI request, built from one definition of each shape above, and ACCEPTS
the acceptance predicate built from each: it holds only on requests that the
schema accepts, so only the requests it refuses need a schema validator.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .adele import AdelicMatrix, UnitPart
from .galois import GaloisShadow
from .matrices import Mat2, ModMat
from .shimura import LevelPoint, QuadPoint


def frac_to_json(x) -> list:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def frac_from_json(v) -> Fraction:
    num, den = v
    if den == 0:
        raise ValueError("fraction has a zero denominator")
    return Fraction(num, den)


def mat2_to_json(m: Mat2) -> list:
    return [frac_to_json(x) for x in m.entries]


def mat2_from_json(v) -> Mat2:
    return Mat2(*(frac_from_json(x) for x in v))


def intmat_to_json(m: Mat2) -> list:
    if not m.is_integral():
        raise ValueError("matrix is not integral")
    return [m.an, m.bn, m.cn, m.dn]


def modmat_to_json(m: ModMat) -> list:
    return list(m.entries)


def modmat_from_json(v, level: int) -> ModMat:
    return ModMat(*v, level)


def adelic_to_json(g: AdelicMatrix) -> dict:
    return {
        "r": mat2_to_json(g.r),
        "delta": g.u.delta,
        "s": intmat_to_json(g.u.s),
        "level": g.level,
    }


def adelic_from_json(obj) -> AdelicMatrix:
    level = obj["level"]
    r = mat2_from_json(obj["r"])
    s = Mat2(*obj["s"])
    return AdelicMatrix(r, UnitPart(obj["delta"], s, level), level)


def point_to_json(P: LevelPoint, canonical: bool = False) -> dict:
    out = {
        "tau": {
            "m": P.tau.m,
            "p": frac_to_json(P.tau.p),
            "q": frac_to_json(P.tau.q),
        },
        "a": adelic_to_json(P.a),
        "level": P.level,
    }
    if canonical:
        out["canonical"] = True
    return out


def tau_from_json(obj) -> QuadPoint:
    return QuadPoint(obj["m"], frac_from_json(obj["p"]), frac_from_json(obj["q"]))


def point_from_json(obj) -> LevelPoint:
    return LevelPoint(tau_from_json(obj["tau"]), adelic_from_json(obj["a"]), obj["level"])


def shadow_to_json(s: GaloisShadow) -> dict:
    return {
        "support": list(s.support),
        "components": [modmat_to_json(c) for c in s.components],
        "branch": s.branch,
        "det": s.det,
        "level": s.level,
    }


def shadow_from_json(obj) -> GaloisShadow:
    level = obj["level"]
    comps = tuple(modmat_from_json(c, level) for c in obj["components"])
    return GaloisShadow(tuple(obj["support"]), comps, obj["branch"], obj["det"], level)


# -- request schemas --------------------------------------------------------------
# Every schema is fully inlined, sharing sub-dicts but never using $defs/$ref:
# $ref resolution slows the instance check.


def _array(items, size=None) -> dict:
    out = {"type": "array", "items": items}
    if size is not None:
        out.update(minItems=size, maxItems=size)
    return out


def _object(required: dict, optional: dict | None = None) -> dict:
    return {
        "type": "object",
        "required": list(required),
        "properties": {**required, **(optional or {})},
        "additionalProperties": False,
    }


# every level, orbit m and support entry is fully factored when a point or
# shadow is built, so each is capped well above any the suites or the
# benchmark use
_CAPPED = {"type": "integer", "minimum": 1, "maximum": 2**64}
# every other request integer is bounded too, so that no integer an answer
# carries (a product of a few inputs) nears the interpreter's 4,300-digit
# limit on int-to-str conversion, which json.dumps would hit after the work
INT_BOUND = 2**512
_INT = {"type": "integer", "minimum": -INT_BOUND, "maximum": INT_BOUND}
_POSITIVE = {"type": "integer", "minimum": 1, "maximum": INT_BOUND}
_BOOL = {"type": "boolean"}
_FRACTION = {"type": "array", "prefixItems": [_INT, _POSITIVE], "minItems": 2, "maxItems": 2}
_INTMAT = _array(_INT, 4)
_TAU = _object({"m": _CAPPED, "p": _FRACTION, "q": _FRACTION})
_ADELIC = _object({"r": _array(_FRACTION, 4), "delta": _INT, "s": _INTMAT, "level": _CAPPED})
_POINT = _object({"tau": _TAU, "a": _ADELIC, "level": _CAPPED}, {"canonical": _BOOL})
_SHADOW = _object(
    {
        "support": _array(_CAPPED),
        "components": _array(_INTMAT),
        "branch": {"enum": [1, -1]},
        "det": _INT,
        "level": _CAPPED,
    }
)
_TABLE = {"type": "array", "minItems": 1, "items": _object({"s": _POINT, "t": _POINT})}


def _request(required: dict, optional: dict | None = None) -> dict:
    draft = "https://json-schema.org/draft/2020-12/schema"
    return {"$schema": draft, **_object(required, optional)}


SCHEMAS = {
    "point_eq": _request({"p1": _POINT, "p2": _POINT}),
    "orbit": _request({"tau": _TAU}, {"other": _TAU}),
    "fixed": _request({"g": _INTMAT, "point": _POINT}),
    "act": _request(
        {"point": _POINT},
        {
            "unit": _INTMAT,
            "rational": _INTMAT,
            "shadow": _SHADOW,
            "project": _CAPPED,
            "canonicalize": _BOOL,
        },
    ),
    "relation": _request({"s1": _POINT, "s2": _POINT, "t1": _POINT, "t2": _POINT}),
    "lift": _request({"table": _TABLE}),
}


# -- acceptance predicates --------------------------------------------------------
# acceptor(schema) holds only on instances that a 2020-12 validator accepts,
# and may refuse some of those too (a float such as 2.0 where an integer is
# asked for): a refused instance goes on to the validator, which words the
# rejection or accepts it after all.  Each keyword check below is at least as
# strict as the keyword itself, and the conjunction of such checks is at
# least as strict as the schema; a keyword with no check here raises, so no
# schema edit can widen the predicate unnoticed.

_TYPES = {"integer", "boolean", "array", "object"}
_ARRAY_KEYWORDS = {"items", "prefixItems", "minItems", "maxItems"}
_OBJECT_KEYWORDS = {"required", "properties", "additionalProperties"}
_KEYWORDS = {"$schema", "type", "minimum", "maximum", "enum"} | _ARRAY_KEYWORDS | _OBJECT_KEYWORDS


def acceptor(schema: dict):
    """The acceptance predicate of a JSON Schema written with the keywords of
    SCHEMAS; ValueError on any other keyword or keyword value."""
    keys = schema.keys()
    unknown = keys - _KEYWORDS
    if unknown:
        raise ValueError(f"no acceptance predicate for keyword(s) {sorted(unknown)}")
    kind = schema.get("type")
    if kind is not None and kind not in _TYPES:
        raise ValueError(f"no acceptance predicate for type {kind!r}")
    checks = []
    if kind == "integer" or keys & {"minimum", "maximum"}:
        checks.append(_integer_check(schema.get("minimum", -math.inf), schema.get("maximum", math.inf)))
    if kind == "boolean":
        checks.append(lambda x: type(x) is bool)
    if kind == "array" or keys & _ARRAY_KEYWORDS:
        checks.append(_array_check(schema))
    if kind == "object" or keys & _OBJECT_KEYWORDS:
        checks.append(_object_check(schema))
    if "enum" in schema:
        checks.append(_enum_check(schema["enum"]))
    if len(checks) == 1:
        return checks[0]
    return lambda x: all(check(x) for check in checks)


def _integer_check(lo, hi):
    return lambda x: type(x) is int and lo <= x <= hi


def _array_check(schema):
    prefix = tuple(acceptor(s) for s in schema.get("prefixItems", ()))
    rest = acceptor(schema["items"]) if "items" in schema else None
    lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
    start = len(prefix)

    def check(x):
        return (
            type(x) is list
            and lo <= len(x) <= hi
            and all(accept(v) for accept, v in zip(prefix, x))
            and (rest is None or all(rest(v) for v in x[start:]))
        )

    return check


def _object_check(schema):
    additional = schema.get("additionalProperties", True)
    if type(additional) is not bool:
        raise ValueError("no acceptance predicate for a schema of additional properties")
    properties = {name: acceptor(s) for name, s in schema.get("properties", {}).items()}
    required = frozenset(schema.get("required", ()))
    return lambda x: (
        type(x) is dict
        and required <= x.keys()
        and all(properties[k](v) if k in properties else additional for k, v in x.items())
    )


def _enum_check(values):
    # jsonschema tells 1 from true but not 1 from 1.0; an exact type match
    # refuses true and 1.0 alike.  Containers, whose equality would need the
    # same care all the way down, are left to the validator.
    if any(type(v) in (list, dict) for v in values):
        raise ValueError("no acceptance predicate for an enum of arrays or objects")
    return lambda x: any(type(x) is type(v) and x == v for v in values)


ACCEPTS = {name: acceptor(schema) for name, schema in SCHEMAS.items()}
