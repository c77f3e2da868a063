"""Resident-set-size probes for this process.

A leaf module (standard library only), so rank programs and the SPMD
backends can sample memory without importing the experiment harness.
"""

from __future__ import annotations

__all__ = ["current_rss_bytes", "peak_rss_bytes"]


def _proc_status_bytes(key: str) -> "int | None":
    """Read a kB-denominated field from ``/proc/self/status``."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        pass
    return None


def current_rss_bytes() -> int:
    """This process's resident set size right now, in bytes.

    Linux reads ``VmRSS`` from ``/proc/self/status``; elsewhere falls
    back to 0 (callers treat the memory numbers as best-effort).
    """
    val = _proc_status_bytes("VmRSS:")
    return val if val is not None else 0


def peak_rss_bytes() -> int:
    """This process's peak resident set size (high-water mark), bytes.

    Linux reads ``VmHWM`` from ``/proc/self/status``.  Fallback is
    ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` (kB on Linux, bytes
    on macOS — we assume kB since the /proc path covers Linux anyway);
    0 when neither source exists.

    Note the Linux fork semantics: a child's high-water mark resets to
    its RSS at fork, so per-rank guards in the procs backend compare
    ``peak - rss_at_start`` rather than the absolute peak.
    """
    val = _proc_status_bytes("VmHWM:")
    if val is not None:
        return val
    try:  # pragma: no cover - non-Linux fallback
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
    except (ImportError, ValueError):  # pragma: no cover
        return 0
