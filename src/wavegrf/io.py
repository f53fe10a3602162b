"""Deterministic CSV / Matrix Market output with metadata sidecars.

Every file starts with comment lines carrying the config hash and package
version, so a rerun with the same configuration produces byte-identical
output.  Floats are printed with repr-stable %.17g formatting.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy import io as spio

from . import __version__


#: config keys with no effect on computed values (excluded from the hash)
_NON_SEMANTIC = ("out",)


def config_hash(config: dict) -> str:
    semantic = {k: v for k, v in config.items() if k not in _NON_SEMANTIC}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    return str(v)


def write_csv(path, columns: dict, meta: dict | None = None) -> Path:
    """Write named columns with '# key: value' comment headers."""
    path = Path(path)
    names = list(columns)
    cols = [np.atleast_1d(np.asarray(columns[n])) for n in names]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("columns must share one length")
    lines = []
    for k, v in (meta or {}).items():
        lines.append(f"# {k}: {json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v}")
    lines.append(",".join(names))
    for i in range(n):
        lines.append(",".join(_fmt(c[i]) for c in cols))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv(path) -> dict:
    """Read a CSV written by :func:`write_csv` into named float columns."""
    lines = [l for l in Path(path).read_text().splitlines()
             if l.strip() and not l.startswith("#")]
    names = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return {n: np.array([float(r[i]) for r in rows])
            for i, n in enumerate(names)}


def write_matrix_market(path, matrix, meta: dict | None = None) -> Path:
    path = Path(path)
    comment = "\n".join(f"{k}: {v}" for k, v in (meta or {}).items())
    spio.mmwrite(str(path), matrix.tocoo(), comment=comment, symmetry="general")
    return path


def write_pattern_fingerprint(path, pattern, meta: dict | None = None) -> Path:
    """(row, col) list of kept entries, for plotting the band structure."""
    row, col = pattern.csr.nonzero()             # row-major: the CSR is canonical
    return write_csv(path, {"row": row, "col": col}, meta)


def write_meta(path, config: dict, extra: dict | None = None) -> Path:
    path = Path(path)
    payload = {"config": config, "config_hash": config_hash(config),
               "version": __version__}
    payload.update(extra or {})
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=_fmt) + "\n")
    return path


def standard_meta(config: dict) -> dict:
    return {"config_hash": config_hash(config), "version": __version__}
