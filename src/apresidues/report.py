"""Reproducible report emission: CSV (RFC 4180) and JSON envelopes.

Output bytes are stable across runs for a fixed build and input: row order
is fully specified by the caller, reals are formatted to 6 significant
digits, big integers travel as decimal strings, and the only run-dependent
value (the timestamp) is isolated to the envelope header / header line so
consumers can diff everything below it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

SCHEMA_VERSION = "1"


def format_value(v) -> str:
    """Canonical cell rendering: 6 significant digits for reals, decimal
    strings for integers, bare strings otherwise."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".6g")
    if isinstance(v, complex):
        return f"{v.real:.6g}{v.imag:+.6g}i"
    if v is None:
        return ""
    return str(v)


def _canonical_rows(rows: list[dict], columns: list[str]) -> list[dict[str, str]]:
    return [{c: format_value(r.get(c)) for c in columns} for r in rows]


def _section_checksum(rows: list[dict[str, str]], columns: list[str]) -> str:
    payload = json.dumps({"columns": columns, "rows": rows}, sort_keys=True,
                         separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class ReportEnvelope:
    """A set of named row sections with per-section content checksums."""

    schema_version: str = SCHEMA_VERSION
    generated_at: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds"))
    sections: dict = field(default_factory=dict)   # name -> (columns, canonical rows)
    checksums: dict = field(default_factory=dict)  # name -> sha256 hex

    def add_section(self, name: str, rows: list[dict], columns: list[str]):
        canon = _canonical_rows(rows, columns)
        self.sections[name] = (columns, canon)
        self.checksums[name] = _section_checksum(canon, columns)

    def to_json(self) -> str:
        doc = {
            "schema_version": self.schema_version,
            "generated_at": self.generated_at,
            "checksums": dict(sorted(self.checksums.items())),
            "sections": {
                name: {"columns": cols, "rows": rows}
                for name, (cols, rows) in sorted(self.sections.items())
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"

    def to_csv(self, name: str) -> str:
        """One section as RFC 4180 CSV; the timestamp lives in a leading
        comment line so everything below is byte-stable."""
        columns, rows = self.sections[name]
        buf = io.StringIO()
        buf.write(f"# schema={self.schema_version} section={name} "
                  f"checksum={self.checksums[name]} generated_at={self.generated_at}\n")
        writer = csv.DictWriter(buf, fieldnames=columns, quoting=csv.QUOTE_MINIMAL,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()

    def write(self, out_dir, stem: str):
        """Write <stem>.json plus one <stem>.<section>.csv per section;
        returns the list of paths written."""
        from pathlib import Path

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        jp = out / f"{stem}.json"
        jp.write_text(self.to_json(), encoding="utf-8")
        paths.append(jp)
        for name in sorted(self.sections):
            cp = out / f"{stem}.{name}.csv"
            cp.write_text(self.to_csv(name), encoding="utf-8")
            paths.append(cp)
        return paths
