"""Plain-text table rendering and JSON result persistence.

Every experiment driver returns a structured dict and can render it as
the ASCII analogue of the paper's table/figure; results are also saved
under ``<cache>/results`` so EXPERIMENTS.md numbers are regenerable.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Sequence

from ..cache import cache_dir, write_json_atomic

__all__ = ["format_table", "save_result", "load_result", "fmt"]


def fmt(value: Any, digits: int = 2) -> str:
    """Format a cell: floats rounded, inf shown like the paper's 'inf'."""
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf"
        return f"{value:.{digits}f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: Optional[str] = None, digits: int = 2) -> str:
    """Render an aligned ASCII table."""
    cells = [[fmt(c, digits) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _results_dir() -> pathlib.Path:
    path = cache_dir() / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_result(name: str, payload: Dict[str, Any]) -> pathlib.Path:
    """Persist an experiment result dict as JSON (inf-safe)."""
    return write_json_atomic(_results_dir() / f"{name}.json", payload,
                             default=str)


def load_result(name: str) -> Optional[Dict[str, Any]]:
    path = _results_dir() / f"{name}.json"
    if not path.exists():
        return None
    with open(path) as handle:
        return json.load(handle)
