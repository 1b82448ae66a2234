"""Machine-readable certified reports.

Every analysis emits a CertifiedReport: an input echo, environment metadata
and a flat list of named checks, each carrying a stable check id, a numeric
witness (residual or constant) and a pass/fail/marginal verdict.  The JSON
encoding is canonical (sorted keys, fixed indentation) so that a report
round-trips byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
MARGINAL = "marginal"

REPORT_VERSION = 1


@dataclass
class CheckRecord:
    name: str
    check_id: str
    witness: object  # finite float or short string ("inf", "-inf", "nan": not JSON numbers)
    verdict: str
    tolerance: float | None = None

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "check_id": self.check_id,
            "witness": self.witness,
            "verdict": self.verdict,
        }
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "CheckRecord":
        return cls(d["name"], d["check_id"], d["witness"], d["verdict"], d.get("tolerance"))


@dataclass
class CertifiedReport:
    command: str
    inputs: dict = field(default_factory=dict)
    backend: str = "exact"
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    version: str = "0.1.0"
    checks: list = field(default_factory=list)

    def add(self, name: str, check_id: str, witness, verdict: str,
            tolerance: float | None = None) -> CheckRecord:
        if isinstance(witness, float):
            witness = float(witness) if math.isfinite(witness) else str(float(witness))
        rec = CheckRecord(name, check_id, witness, verdict, tolerance)
        self.checks.append(rec)
        return rec

    def add_bool(self, name: str, check_id: str, ok: bool, witness,
                 tolerance: float | None = None) -> CheckRecord:
        return self.add(name, check_id, witness, PASS if ok else FAIL, tolerance)

    @property
    def all_pass(self) -> bool:
        return all(rec.verdict != FAIL for rec in self.checks)

    def as_dict(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "backend": self.backend,
            "tolerances": self.tolerances,
            "seed": self.seed,
            "version": self.version,
            "checks": [rec.as_dict() for rec in self.checks],
            "all_pass": self.all_pass,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CertifiedReport":
        d = json.loads(text)
        if d.get("report_version") != REPORT_VERSION:
            raise ValueError(f"unsupported report version {d.get('report_version')!r}")
        rep = cls(
            command=d["command"],
            inputs=d["inputs"],
            backend=d["backend"],
            tolerances=d["tolerances"],
            seed=d["seed"],
            version=d["version"],
            checks=[CheckRecord.from_dict(c) for c in d["checks"]],
        )
        return rep

    def csv_rows(self) -> list:
        rows = [("name", "check_id", "witness", "verdict", "tolerance")]
        for rec in self.checks:
            rows.append((rec.name, rec.check_id, rec.witness, rec.verdict,
                         "" if rec.tolerance is None else rec.tolerance))
        return rows
