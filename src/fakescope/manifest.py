"""Reproducibility manifests written next to every report.

A manifest records the command, its full parameter set, the master seed,
digests of every input and output file, and the tool version. Re-running
the recorded command with the same seed must reproduce artifacts with
identical digests; the manifest's own timestamp is the only field that may
differ between reruns.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

TOOL_VERSION = "0.1.0"

MANIFEST_NAME = "manifest.json"


def write_json(path, payload, **options) -> Path:
    """The one JSON layout of every artifact: indent 2, sorted keys and a
    trailing newline; creates the parent directory. ``options`` go to
    ``json.dump`` (e.g. ``default=float``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, **options)
        fh.write("\n")
    return path


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> Path:
    """The one CSV layout of every artifact: a header row, then one line per
    row of strings, each ended by a bare line feed; creates the parent
    directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # csv quotes a cell holding the "\n" line terminator but not a lone
        # "\r", which reads back as a line break: quote all of such a row
        if any("\r" in "".join(row) for row in rows):
            quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
            for row in rows:
                (quoted if "\r" in "".join(row) else writer).writerow(row)
        else:
            writer.writerows(rows)
    return path


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    command: str
    parameters: dict
    seed: Optional[int]
    inputs: dict[str, str] = field(default_factory=dict)
    artifacts: dict[str, str] = field(default_factory=dict)
    tool_version: str = TOOL_VERSION
    created_at: str = ""

    def add_input(self, path) -> None:
        path = Path(path)
        if path.is_dir():
            for child in sorted(path.rglob("*")):
                if child.is_file():
                    self.inputs[str(child)] = sha256_file(child)
        elif path.is_file():
            self.inputs[str(path)] = sha256_file(path)

    def add_artifact(self, path) -> None:
        self.artifacts[Path(path).name] = sha256_file(path)

    def write(self, out_dir) -> Path:
        self.created_at = datetime.now(timezone.utc).isoformat()
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "inputs": self.inputs,
            "artifacts": self.artifacts,
            "tool_version": self.tool_version,
            "created_at": self.created_at,
        }
        return write_json(Path(out_dir) / MANIFEST_NAME, payload)


def load_manifest(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verify_artifacts(manifest: dict, directory) -> dict[str, bool]:
    """Digest check: does each recorded artifact still match its bytes?"""
    directory = Path(directory)
    return {
        name: (directory / name).exists() and sha256_file(directory / name) == digest
        for name, digest in manifest.get("artifacts", {}).items()
    }
