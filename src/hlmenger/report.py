"""Machine-readable verification reports.

One schema is shared by every check in the package: structure validation,
campaign runs, component-lemma sweeps and tightness constructions. Reports
round-trip losslessly through JSON, and two runs with identical inputs
(including seeds) serialize to identical bytes except for the timing field.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields

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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def canonical_json(self) -> str:
        """Serialized form with the timing field removed, for comparisons."""
        data = self.to_dict()
        del data["timing_seconds"]
        return json.dumps(data, indent=2, sort_keys=True)
