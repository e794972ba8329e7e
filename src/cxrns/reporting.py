"""Report records shared by the oracle, the sweep drivers, and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Optional

# JSON consumers must not lose precision: anything at or above 2^53 is
# emitted as a decimal string.
_JSON_INT_LIMIT = 1 << 53


def json_ready(obj: Any) -> Any:
    """Recursively convert a report structure for safe JSON emission."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= _JSON_INT_LIMIT else obj
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    return obj


def dumps_report(obj: Any) -> str:
    """Canonical JSON emission; re-emitting a parsed report is byte-identical."""
    return json.dumps(json_ready(obj), indent=2)


@dataclass
class VerifyReport:
    """Outcome of one verification sweep over a unit."""

    unit: str
    n: int
    p: int  # the roundtrip set's extension exponent; 0 for every other unit
    mode: str  # "exhaustive" | "random"
    cases: int
    failures: int
    backend: str  # "compiled" | "pure": what ran the cases
    counterexample: Optional[dict] = None
    seed: Optional[int] = None
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        """The fields in declaration order; a p of 0, and a counterexample or
        seed of None, is left out."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        for optional, absent in (("p", 0), ("counterexample", None), ("seed", None)):
            if d[optional] == absent:
                del d[optional]
        return d

    def to_json(self) -> str:
        return dumps_report(self.to_dict())


# Multiplier pipeline stages with the gate-depth annotations carried by the
# dataflow description; reported descriptively, never simulated.
MULTIPLIER_STAGES: tuple[dict, ...] = (
    {"stage": "lut partial products", "delta_g": None},
    {"stage": "(4;2) compressors", "delta_g": 6},
    {"stage": "carry-save adders", "delta_g": 2},
    {"stage": "final n-bit adders", "delta_g": None},
)


@dataclass
class DrReport:
    """Dynamic-range analysis of one moduli set.

    dynamic_range is the plain product of the channel moduli.  Sets that
    are not pairwise co-prime still get a product (for table comparison)
    but carry the violation instead of silently passing.
    """

    set_text: str
    channels: tuple[str, ...]
    dynamic_range: int
    max_channel_width: int
    coprime: bool
    violation: Optional[str] = None
    stage_levels: tuple[dict, ...] = field(default=())

    @property
    def bit_coverage(self) -> int:
        return self.dynamic_range.bit_length() - 1  # floor(log2(DR))

    def to_dict(self) -> dict:
        d: dict[str, Any] = {
            "set": self.set_text,
            "channels": list(self.channels),
            "dynamic_range": self.dynamic_range,
            "bit_coverage": self.bit_coverage,
            "max_channel_width": self.max_channel_width,
            "coprime": self.coprime,
        }
        if self.violation is not None:
            d["violation"] = self.violation
        d["stage_levels"] = [dict(s) for s in self.stage_levels]
        return d

    def to_json(self) -> str:
        return dumps_report(self.to_dict())
