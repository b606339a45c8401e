"""Common output container for the experiment modules.

Each experiment module produces an :class:`ExperimentResult`: named tables
and series plus free-form notes, renderable as plain text (we run
headless, so "figures" are emitted as tables + sparklines, and as SVG
line charts of the series).  The CLI runner writes the artefacts, and the
sweep cache round-trips the type through :meth:`ExperimentResult.to_dict`.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ExperimentError
from repro.utils.svgplot import LinePlot
from repro.utils.tables import format_series, format_table

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """Data produced by one experiment run.

    ``xlabel`` / ``ylabel`` label the axes of :meth:`to_svg`'s chart of
    the series.
    """

    name: str
    description: str
    tables: list[tuple[str, Sequence[str], list[Sequence[object]]]] = field(
        default_factory=list
    )
    series: list[tuple[str, Sequence[float], Sequence[float]]] = field(
        default_factory=list
    )
    notes: list[str] = field(default_factory=list)
    scalars: dict[str, float] = field(default_factory=dict)
    xlabel: str = ""
    ylabel: str = ""

    def add_table(
        self, title: str, headers: Sequence[str], rows: list[Sequence[object]]
    ) -> None:
        self.tables.append((title, headers, rows))

    def add_series(self, name: str, xs: Sequence[float], ys: Sequence[float]) -> None:
        self.series.append((name, xs, ys))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        """Human-readable report of the whole experiment."""
        parts = [f"== {self.name} ==", self.description, ""]
        for title, headers, rows in self.tables:
            parts.append(format_table(headers, rows, title=title))
            parts.append("")
        for name, xs, ys in self.series:
            parts.append(format_series(name, xs, ys))
            parts.append("")
        if self.scalars:
            parts.append("scalars:")
            for k, v in self.scalars.items():
                parts.append(f"  {k} = {v:.6g}")
            parts.append("")
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts).rstrip() + "\n"

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable dump of all tables/series/scalars (and the
        axis labels, when set)."""
        payload = {
            "name": self.name,
            "description": self.description,
            "tables": [
                {
                    "title": title,
                    "headers": list(headers),
                    "rows": [list(row) for row in rows],
                }
                for title, headers, rows in self.tables
            ],
            "series": [
                {"name": name, "x": list(map(float, xs)), "y": list(map(float, ys))}
                for name, xs, ys in self.series
            ],
            "scalars": dict(self.scalars),
            "notes": list(self.notes),
        }
        for key in ("xlabel", "ylabel"):
            if getattr(self, key):
                payload[key] = getattr(self, key)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (cache reloads)."""
        try:
            result = cls(
                name=str(payload["name"]),
                description=str(payload["description"]),
                xlabel=str(payload.get("xlabel", "")),
                ylabel=str(payload.get("ylabel", "")),
            )
            for table in payload.get("tables", []):
                result.add_table(
                    table["title"],
                    list(table["headers"]),
                    [list(row) for row in table["rows"]],
                )
            for series in payload.get("series", []):
                result.add_series(series["name"], list(series["x"]), list(series["y"]))
            result.scalars.update(payload.get("scalars", {}))
            for note in payload.get("notes", []):
                result.add_note(str(note))
        except (KeyError, TypeError) as exc:
            raise ExperimentError(f"malformed ExperimentResult payload: {exc}") from exc
        return result

    def canonical_json(self) -> str:
        """Canonical serialisation: sorted keys, no whitespace variance.

        Two results serialise identically iff :meth:`to_dict` agrees, so
        comparing these strings is a byte-level equality check between
        two runs (the sweep tests compare cached and recomputed results
        this way).
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), default=float
        )

    def save_json(self, path: "str | Path") -> None:
        """Write :meth:`to_dict` as pretty-printed JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
        )

    def to_svg(self, path: "str | Path") -> None:
        """Render every series as one SVG line chart at *path*."""
        if not self.series:
            raise ExperimentError(f"{self.name}: no series to plot")
        plot = LinePlot(title=self.name, xlabel=self.xlabel, ylabel=self.ylabel)
        for name, xs, ys in self.series:
            plot.add_series(name, xs, ys)
        plot.save(path)
