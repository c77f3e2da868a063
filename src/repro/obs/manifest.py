"""Provenance manifest for run-trace artifacts.

A trace without provenance is a curve you cannot reproduce.  The
manifest pins down everything that determines a run's event stream and
convergence series: the algorithm configuration, seeds, rank count,
wire codec, package versions, and a content fingerprint of the input
graph (so an artifact can be matched to — or distinguished from — the
exact edges it was produced on).
"""

from __future__ import annotations

import hashlib
import platform
import time
from dataclasses import fields, is_dataclass
from typing import Any

import numpy as np

__all__ = ["build_manifest", "config_dict", "graph_fingerprint"]


#: Bytes hashed per ``update`` call in :func:`graph_fingerprint`.  The
#: digest is invariant to this (SHA-256 streams), so it only bounds the
#: temporary copy made per chunk — which is what lets a memmap-backed
#: graph be fingerprinted without materializing its columns in RAM.
FINGERPRINT_CHUNK_BYTES = 8 << 20


def graph_fingerprint(graph: Any) -> str:
    """SHA-256 over the CSR arrays — a content id for the input graph.

    Hashes dtype, shape and raw bytes of ``indptr``/``indices``/
    ``weights`` in a fixed order, so two graphs fingerprint equal iff
    their CSR representations are byte-identical.  Bytes are fed to the
    hash in fixed-size chunks (:data:`FINGERPRINT_CHUNK_BYTES`), so an
    out-of-core graph whose columns are ``np.memmap`` views is hashed
    at bounded RSS; chunking cannot change the digest, so in-RAM and
    memmap-backed copies of the same CSR fingerprint identically.
    """
    h = hashlib.sha256()
    for arr in (graph.indptr, graph.indices, graph.weights):
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        flat = arr if (arr.ndim == 1 and arr.flags["C_CONTIGUOUS"]) \
            else np.ascontiguousarray(arr).reshape(-1)
        step = max(1, FINGERPRINT_CHUNK_BYTES // max(1, flat.itemsize))
        for lo in range(0, flat.size, step):
            h.update(np.asarray(flat[lo:lo + step]).tobytes())
    return h.hexdigest()


def config_dict(config: Any) -> dict[str, Any]:
    """A JSON-safe dict of an :class:`~repro.core.config.InfomapConfig`.

    Walks dataclass fields directly instead of ``dataclasses.asdict``
    so the non-serializable ``tracer`` and ``live`` handles are
    skipped (they describe *how* the run was observed, not *what* ran).
    """
    if not is_dataclass(config):
        return dict(config)
    out: dict[str, Any] = {}
    for f in fields(config):
        if f.name in ("tracer", "live"):
            continue
        out[f.name] = getattr(config, f.name)
    return out


def build_manifest(
    *,
    config: Any = None,
    nranks: "int | None" = None,
    graph: Any = None,
    method: "str | None" = None,
    extra: "dict[str, Any] | None" = None,
) -> dict[str, Any]:
    """Assemble the provenance manifest embedded in a run artifact."""
    try:
        from .. import __version__ as repro_version
    except Exception:  # pragma: no cover - import-order edge
        repro_version = "unknown"
    manifest: dict[str, Any] = {
        "created_unix": time.time(),
        "repro_version": repro_version,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "platform": platform.platform(),
    }
    if method is not None:
        manifest["method"] = method
    if nranks is not None:
        manifest["nranks"] = nranks
    if config is not None:
        cfg = config_dict(config)
        manifest["config"] = cfg
        if "seed" in cfg:
            manifest["seed"] = cfg["seed"]
    if graph is not None:
        manifest["graph"] = {
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_edges),
            "fingerprint": graph_fingerprint(graph),
        }
    if extra:
        manifest.update(extra)
    return manifest
