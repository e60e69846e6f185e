"""The correctness gate applied to every operation the benchmark runs.

An operation fails when it raises or exits non-zero, when an artifact its
``manifest.json`` lists does not read back or does not match its digest,
or when its fingerprint (artifact digests, or pooled confusion counts for a
cross-validation) differs from the one expected of it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


class GateError(Exception):
    pass


@dataclass
class Outcome:
    op: str
    fingerprint: Optional[dict]
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_back(path: Path) -> None:
    """Parses an artifact by its suffix; raises GateError if it does not parse."""
    try:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            rows = list(csv.reader(text.splitlines()))
            if not rows or any(len(row) != len(rows[0]) for row in rows):
                raise GateError(f"{path.name}: ragged or empty csv")
        elif path.suffix == ".json":
            json.loads(text)
        elif path.suffix == ".jsonl":
            for line in text.splitlines():
                if line.strip():
                    json.loads(line)
        else:
            raise GateError(f"{path.name}: no reader for this artifact type")
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        raise GateError(f"{path.name}: does not read back ({exc})") from exc


def check_manifest(out_dir: Path) -> dict[str, str]:
    """Verifies every artifact of a command's manifest; returns name -> digest."""
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        artifacts = manifest["artifacts"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise GateError(f"{out_dir.name}: unreadable manifest ({exc})") from exc
    if not artifacts:
        raise GateError(f"{out_dir.name}: manifest lists no artifacts")
    for name, digest in artifacts.items():
        path = out_dir / name
        try:
            actual = sha256_bytes(path.read_bytes())
        except OSError as exc:
            raise GateError(f"{name}: missing ({exc})") from exc
        if actual != digest:
            raise GateError(f"{name}: digest {actual[:12]} != manifest {digest[:12]}")
        read_back(path)
    return dict(sorted(artifacts.items()))


def compare(outcomes: list[Outcome], expected: dict, what: str) -> None:
    """Marks as failed every outcome whose fingerprint differs from, or is
    missing in, ``expected``."""
    for outcome in outcomes:
        if outcome.failed:
            continue
        if outcome.op not in expected:
            outcome.error = f"{outcome.op}: no output in {what} to compare with"
        elif expected[outcome.op] != outcome.fingerprint:
            outcome.error = f"{outcome.op}: output differs from {what}"
