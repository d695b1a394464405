"""Structured verification reports: one JSON shape, one text projection.

Every claim in a report carries a provenance label: "verified" for facts the
run checked exhaustively or exactly, "derived" for values computed from
verified pieces, "paper-assumed" for external inputs that are recorded but
never checked here.  Reports are deterministic given their inputs and seed.

``Report.to_json`` writes the bytes of ``json.dumps(report.to_dict(),
sort_keys=True, indent=1, separators=(",", ": "))``, ASCII escapes included,
so a consumer can re-encode and diff it; ``tests/test_report.py`` pins this.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA = "vltower.report/2"

PROVENANCES = ("verified", "derived", "paper-assumed")

_encode_str = json.encoder.encode_basestring_ascii


def _json_value(obj, pad: str) -> str:
    """obj as that encoding writes it at indent len(pad), without the stdlib's
    pure-Python indent encoder.  Dict keys must be strings; json.dumps keeps
    NaN and Infinity for floats and raises TypeError for other objects."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + " "
    if isinstance(obj, (list, tuple)):
        items = [_json_value(v, inner) for v in obj]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]" if items else "[]"
    if isinstance(obj, dict):
        items = [f"{_encode_str(k)}: {_json_value(v, inner)}" for k, v in sorted(obj.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}" if items else "{}"
    return json.dumps(obj)


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    provenance: str
    passed: bool
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unlabeled or mislabeled claim: {self.provenance!r}")


@dataclass
class Report:
    command: str
    inputs: dict
    seed: int | None = None
    claims: list[Claim] = field(default_factory=list)

    def add(
        self,
        claim_id: str,
        statement: str,
        provenance: str,
        passed: bool,
        **data,
    ) -> None:
        self.claims.append(Claim(claim_id, statement, provenance, passed, data))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "pass": self.passed,
            "claims": [
                {
                    "id": c.id,
                    "statement": c.statement,
                    "provenance": c.provenance,
                    "pass": c.passed,
                    "data": c.data,
                }
                for c in self.claims
            ],
        }

    def to_json(self) -> str:
        items = [
            f'{{\n   "data": {_json_value(c.data, "   ")},\n   "id": {_encode_str(c.id)},'
            f'\n   "pass": {_json_value(c.passed, "   ")},\n   "provenance": {_encode_str(c.provenance)},'
            f'\n   "statement": {_encode_str(c.statement)}\n  }}'
            for c in self.claims
        ]
        claims = "[\n  " + ",\n  ".join(items) + "\n ]" if items else "[]"
        return (
            f'{{\n "claims": {claims},\n "command": {_encode_str(self.command)},'
            f'\n "inputs": {_json_value(self.inputs, " ")},\n "pass": {"true" if self.passed else "false"},'
            f'\n "schema": {_encode_str(SCHEMA)},\n "seed": {_json_value(self.seed, " ")}\n}}'
        )

    def to_text(self) -> str:
        d = self.to_dict()
        lines = [f"[{d['command']}] pass={d['pass']}"]
        for key, val in sorted(d["inputs"].items()):
            lines.append(f"  input {key} = {val}")
        if d["seed"] is not None:
            lines.append(f"  seed = {d['seed']}")
        for c in d["claims"]:
            mark = "ok " if c["pass"] else "FAIL"
            lines.append(f"  {mark} [{c['provenance']:>13}] {c['id']}: {c['statement']}")
            for key, val in sorted(c["data"].items()):
                lines.append(f"        {key} = {val}")
        return "\n".join(lines)
