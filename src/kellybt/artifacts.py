"""Run manifests, the CSV and JSON writers, and deterministic SVG charts.

Every artifact-producing command writes exactly one ``manifest.json`` into
its output directory recording the command, the fully resolved config,
input digests, seeds, and artifact digests, so a run can be reproduced and
verified byte for byte. SVG output embeds no timestamps or randomness.

Every CSV kellybt writes goes through ``write_csv``, which owns the text
format: a header row, one ``str`` per cell (for a float that is its shortest
round-trip text, as ``repr`` gives), ``NA`` for a missing value and ``\n``
line ends.
"""
from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager

import numpy as np

from . import __version__

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# Rows formatted and written per write call: bounds the text held in memory.
CSV_BLOCK_ROWS = 1024


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def open_text(dest, mode: str):
    """``dest`` itself when it is an open text stream, else the file at that
    path opened with ``newline=""``; only a file opened here is closed here."""
    if not isinstance(dest, (str, bytes, os.PathLike)):
        yield dest
        return
    with open(dest, mode, newline="") as fh:
        yield fh


def write_csv(dest, header, columns) -> None:
    """Write a header row, then one row per index of ``columns``.

    ``dest`` is a path or an open text stream (see ``open_text``).
    ``columns`` holds one sequence (numpy array or list) per header field,
    all of one length, or is empty for a file with no rows. A cell is
    ``str`` of the value (numpy values via ``.tolist()``), or ``NA`` for None.
    """
    n = len(columns[0]) if columns else 0
    if columns and (len(columns) != len(header) or any(len(c) != n for c in columns)):
        raise ValueError(f"need {len(header)} columns of one length for header {header}")
    with open_text(dest, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            cells = []
            for col in columns:
                block = col[start:start + CSV_BLOCK_ROWS]
                if isinstance(block, np.ndarray):
                    block = block.tolist()
                cells.append(["NA" if v is None else str(v) for v in block])
            fh.write("\n".join(map(",".join, zip(*cells))))
            fh.write("\n")


def write_manifest(outdir: str, command: str, config: dict,
                   inputs: list[str], seeds: list[int], artifacts: list[str]) -> str:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config": config,
        "inputs": {os.path.basename(p): sha256_file(p) for p in inputs},
        "seeds": seeds,
        "artifacts": {os.path.basename(p): sha256_file(p) for p in artifacts},
    }
    path = os.path.join(outdir, "manifest.json")
    write_json(manifest, path)
    return path


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def svg_line_chart(curves: list[tuple[str, list[float], list[float]]], path: str,
                   title: str = "", width: int = 900, height: int = 420) -> None:
    """Minimal deterministic multi-line chart: one polyline per labeled curve."""
    margin = 60
    xs_all = [x for _, xs, _ in curves for x in xs]
    ys_all = [y for _, _, ys in curves for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{margin}" y="{height - margin + 18}" font-size="11">{_fmt(x_lo)}</text>',
        f'<text x="{width - margin}" y="{height - margin + 18}" text-anchor="end" '
        f'font-size="11">{_fmt(x_hi)}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" text-anchor="end" '
        f'font-size="11">{_fmt(y_lo)}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end" '
        f'font-size="11">{_fmt(y_hi)}</text>',
    ]
    for k, (label, xs, ys) in enumerate(curves):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 16 * k + 12}" '
                     f'font-size="12" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
