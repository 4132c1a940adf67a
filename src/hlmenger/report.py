"""Machine-readable verification reports.

One schema is shared by every check in the package: structure validation,
campaign runs, component-lemma sweeps and tightness constructions. Reports
round-trip losslessly through JSON, and two runs with identical inputs
(including seeds) serialize to identical bytes except for the timing field.

`dumps` writes every report and sidecar record. Its output is the stdlib
`json` module's at an indent of 2 with sorted keys, byte for byte. The
stdlib encodes an indented document in pure Python; `dumps` renders each
list of plain ints in one `join` and each string with the stdlib's C
escaper.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from json.encoder import encode_basestring_ascii

_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
            bool: lambda b: "true" if b else "false",
            type(None): lambda _: "null"}


def _render(value, pad: str) -> str:
    """`value` as JSON, its members on lines that start with `pad` plus two
    spaces; `pad` is a newline and the indentation of `value`'s own line."""
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        for item in value:
            if type(item) is not int:
                body = [_render(member, inner) for member in value]
                break
        else:
            body = map(int.__repr__, value)
        return "[" + inner + ("," + inner).join(body) + pad + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(key) + ": " + _render(value[key], inner)
             for key in sorted(value)]) + pad + "}"
    try:
        scalar = _SCALARS[kind]
    except KeyError:
        raise TypeError(f"Object of type {kind.__name__} "
                        "is not JSON serializable") from None
    return scalar(value)


def dumps(obj) -> str:
    """`obj` as the stdlib `json` module writes it with an indent of 2 and
    sorted keys, byte for byte, for dicts with str keys, lists, tuples, str,
    int, float, bool and None. Any other type raises TypeError."""
    return _render(obj, "\n")


SCHEMA_VERSION = "1"


@dataclass
class VerificationReport:
    check_name: str
    target: dict
    mode: str                       # "exhaustive" | "sampled" | "direct"
    parameters: dict
    counts: dict                    # visited / skipped_conditional / failures
    witness: dict | None = None
    details: list = field(default_factory=list)
    timing_seconds: float = 0.0
    schema_version: str = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return self.counts.get("failures", 0) == 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        """The report of a to_dict() record. Unknown keys are ignored,
        missing optional ones take their defaults, and a missing required
        one raises KeyError."""
        return cls(**{f.name: data[f.name] for f in fields(cls)
                      if f.name in data or f.default is MISSING
                      and f.default_factory is MISSING})

    def to_json(self) -> str:
        return dumps(self.to_dict())

    def canonical_json(self) -> str:
        """Serialized form with the timing field removed, for comparisons."""
        data = self.to_dict()
        del data["timing_seconds"]
        return dumps(data)
