"""JSON files: calibration tables and records."""

from __future__ import annotations

import json
from pathlib import Path

from .calibration import CalibrationTable


def save_json(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def save_table(table: CalibrationTable, path) -> None:
    save_json(table.to_dict(), path)


def load_table(path) -> CalibrationTable:
    return CalibrationTable.from_dict(json.loads(Path(path).read_text()))
