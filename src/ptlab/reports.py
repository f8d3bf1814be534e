"""Experiment specs, the report envelope, and file persistence.

Reports are JSON (schema below, version "1"); curve-style results are CSV.
Re-running a spec with the same seed reproduces result payloads bit-exactly;
timings are excluded from that contract.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import jsonschema

__all__ = [
    "SCHEMA_VERSION",
    "REPORT_SCHEMA",
    "ExperimentSpec",
    "make_report",
    "validate_report",
    "write_report",
    "write_csv",
]

SCHEMA_VERSION = "1"

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "command", "spec", "graphs", "results", "timings"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "spec": {
            "type": "object",
            "required": ["name", "params", "seed"],
            "properties": {
                "name": {"type": "string"},
                "params": {"type": "object"},
                "seed": {"type": "integer"},
                "outputs": {"type": "object"},
            },
        },
        "graphs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "n", "m"],
                "properties": {
                    "name": {"type": "string"},
                    "n": {"type": "integer", "minimum": 0},
                    "m": {"type": "integer", "minimum": 0},
                },
            },
        },
        "results": {"type": "object"},
        "timings": {"type": "object"},
    },
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines an experiment's outputs."""

    name: str
    params: dict
    seed: int
    outputs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "params": self.params, "seed": self.seed,
                "outputs": self.outputs}

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentSpec":
        return cls(data["name"], data["params"], data["seed"],
                   data.get("outputs", {}))


def make_report(command: str, spec: ExperimentSpec, graphs: Sequence[dict],
                results: dict, timings: dict | None = None) -> dict:
    """The report dict; `write_report`, the output boundary, validates it."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "spec": spec.to_json(),
        "graphs": list(graphs),
        "results": results,
        "timings": timings or {},
    }


def validate_report(report: dict) -> None:
    jsonschema.validate(report, REPORT_SCHEMA)


def open_target(target):
    """A context manager for writing to the file `target`, or to stdout
    (left open) for None or "-"."""
    if target is None or target == "-":
        return nullcontext(sys.stdout)
    return open(target, "w", newline="")


def write_report(report: dict, target) -> None:
    validate_report(report)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    with open_target(target) as out:
        out.write(text)


def write_csv(rows: Iterable[Sequence], header: Sequence[str], target) -> None:
    with open_target(target) as out:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
