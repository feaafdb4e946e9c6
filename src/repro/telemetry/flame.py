"""Flame-graph and critical-path rendering of a span tree.

Both surfaces consume the *span dicts* of a run profile, so they render
equally from a ``--telemetry`` file and a live registry snapshot:

- :func:`folded_stacks` emits the classic folded-stack format
  (``root;child;leaf <microseconds>``, one line per unique stack, self
  time only) that ``flamegraph.pl``/speedscope/inferno all ingest.
- :func:`critical_path` walks the tree from the heaviest root down its
  heaviest child at every level -- across worker subtrees too, since
  pool workers stitch under the coordinator's dispatching span -- which
  is the chain an optimisation has to shorten before wall time moves.
"""

from repro.common.texttable import render_table


def _span_iter(spans):
    for root in spans:
        yield root


def folded_stacks(spans, scale=1_000_000):
    """Render span trees as folded stacks (one ``stack value`` per line).

    ``scale`` converts span seconds into the integer sample counts the
    flamegraph tools expect (microseconds by default). A frame's value
    is its *self* time -- duration minus its children, floored at zero.
    In a serial run children run one after another, so stack totals
    add up to each root's duration. Under ``--jobs`` they need not:
    stitched worker spans run side by side and time on their own
    clocks, so a phase's children can sum to more than the phase, and
    the stacks then add up to more than the root.
    """
    totals = {}
    order = []

    def visit(span, prefix):
        stack = prefix + (span.get("name", "?"),)
        duration = span.get("duration_s", 0.0) or 0.0
        children = span.get("children", ()) or ()
        self_s = duration - sum((c.get("duration_s", 0.0) or 0.0)
                                for c in children)
        key = ";".join(stack)
        if key not in totals:
            totals[key] = 0.0
            order.append(key)
        totals[key] += max(0.0, self_s)
        for child in children:
            visit(child, stack)

    for root in _span_iter(spans):
        visit(root, ())
    return [f"{key} {int(round(totals[key] * scale))}" for key in order]


def format_flame(spans, scale=1_000_000):
    """:func:`folded_stacks` joined into the text ``--flame`` prints."""
    return "\n".join(folded_stacks(spans, scale=scale))


def critical_path(spans):
    """The heaviest root-to-leaf chain, as a list of span dicts.

    At every level the walk descends into the child with the largest
    duration (ties break on tree order, which is deterministic). The
    chain crosses process boundaries naturally: a worker subtree that
    dominates its dispatching phase is entered like any other child.
    """
    if not spans:
        return []
    chain = []
    span = max(spans, key=lambda s: s.get("duration_s", 0.0) or 0.0)
    while span is not None:
        chain.append(span)
        children = span.get("children", ()) or ()
        span = (max(children, key=lambda s: s.get("duration_s", 0.0) or 0.0)
                if children else None)
    return chain


def format_critical_path(spans):
    """Render :func:`critical_path` as the table ``--critical-path`` prints."""
    chain = critical_path(spans)
    if not chain:
        return "no spans recorded"
    total = chain[0].get("duration_s", 0.0) or 0.0
    rows = []
    for depth, span in enumerate(chain):
        duration = span.get("duration_s", 0.0) or 0.0
        children = span.get("children", ()) or ()
        self_s = max(0.0, duration - sum((c.get("duration_s", 0.0) or 0.0)
                                         for c in children))
        pct = 100.0 * duration / total if total > 0 else 0.0
        status = span.get("status", "")
        rows.append(("  " * depth + span.get("name", "?"),
                     span.get("id", ""), f"{duration:.4f}",
                     f"{self_s:.4f}", f"{pct:5.1f}", status))
    table = render_table(
        ("critical path", "span", "seconds", "self", "% of root", "status"),
        rows)
    return f"critical path ({total:.4f}s root-to-leaf)\n{table}"
