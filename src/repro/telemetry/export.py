"""Run-profile export and rendering.

A *run profile* is one registry's snapshot plus free-form metadata --
the one telemetry record a ``--telemetry PATH`` run leaves behind,
written as a single indented JSON object with sorted keys (so a
tick-clock run's profile is byte-stable).

:func:`format_profile` renders a profile as the human-readable
phase/counter tables ``repro.cli profile`` prints; :mod:`.flame`
renders its span trees as folded stacks or the critical path.
"""

import json

from repro.common.errors import ReproError
from repro.common.texttable import render_table


def profile_dict(registry, meta=None):
    """Snapshot ``registry`` into a profile dict with ``meta`` attached."""
    out = {"meta": dict(meta or {})}
    out.update(registry.snapshot())
    return out


def write_profile(registry, path, meta=None):
    """Write a registry snapshot to ``path`` as one JSON object."""
    path = str(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_dict(registry, meta=meta), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return path


def read_profile(path):
    """Read a profile written by :func:`write_profile`.

    Raises :class:`~repro.common.errors.ReproError` naming ``path`` when
    the file is not UTF-8, not JSON (a JSON-lines file included) or not
    a JSON object.
    """
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            profile = json.load(fh)
    except UnicodeDecodeError:
        raise ReproError(f"profile {path!r} is not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise ReproError(f"profile {path!r} is not JSON ({e.msg} at "
                         f"line {e.lineno})") from None
    if not isinstance(profile, dict):
        raise ReproError(f"profile {path!r} is not a JSON object")
    return profile


# ----------------------------------------------------------------------
# Human-readable rendering
# ----------------------------------------------------------------------

def _walk_span_dicts(span, depth=0):
    yield depth, span
    for child in span.get("children", ()):
        yield from _walk_span_dicts(child, depth + 1)


def format_profile(profile, title=None):
    """Render a profile dict as phase/counter/histogram tables."""
    sections = []
    meta = profile.get("meta") or {}
    header = title or "run profile"
    if meta:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        header = f"{header} ({pairs})"
    sections.append(header)

    spans = profile.get("spans") or []
    if spans:
        total = sum(s.get("duration_s", 0.0) for s in spans) or 1.0
        rows = []
        for root in spans:
            for depth, span in _walk_span_dicts(root):
                dur = span.get("duration_s", 0.0)
                rows.append(("  " * depth + span["name"],
                             f"{dur:.4f}",
                             f"{100.0 * dur / total:5.1f}"))
        sections.append(render_table(("phase", "seconds", "% of run"), rows))

    counters = profile.get("counters") or {}
    if counters:
        rows = [(name, _num(value)) for name, value in sorted(counters.items())]
        sections.append(render_table(("counter", "value"), rows))

    gauges = profile.get("gauges") or {}
    if gauges:
        rows = [(name, _num(value)) for name, value in sorted(gauges.items())]
        sections.append(render_table(("gauge", "value"), rows))

    histograms = profile.get("histograms") or {}
    if histograms:
        rows = []
        for name, stats in sorted(histograms.items()):
            rows.append((name, stats.get("count", 0),
                         _num(stats.get("mean", 0.0)),
                         _num(stats.get("min")), _num(stats.get("max"))))
        sections.append(render_table(
            ("histogram", "count", "mean", "min", "max"), rows))

    return "\n\n".join(sections)


def _num(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
