"""Metric registry: counters, gauges and histograms by dotted name.

The registry is the cheap always-on half of the telemetry layer (the
ARGUS/AFETM shape: counters that cost nothing to keep, profiles that
are exported on demand). Instrumented code never constructs metric
objects itself; it calls :meth:`Registry.inc` / :meth:`Registry.observe`
/ :meth:`Registry.set_gauge` with a name, and the registry aggregates
across every instance that reports under that name (all ACT modules'
invalid counters land in one ``act.invalid_predictions``).

:class:`NullRegistry` is the disabled mode: every mutator is a no-op
and ``enabled`` is False so hot paths can skip whole instrumentation
blocks with one attribute check. The default process-wide registry
(see :mod:`repro.telemetry`) is a NullRegistry, which is what keeps
telemetry zero-cost for paper-fidelity runs.
"""

import collections
import math
from itertools import chain

from repro.telemetry import clock as _clock
from repro.telemetry.spans import NULL_SPAN_SCOPE, SpanTracer


class Counter:
    """Monotonic accumulator (int or float, e.g. stall cycles)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        self.value += n


class Gauge:
    """Last-value metric (e.g. events/sec of the most recent run)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = None

    def set(self, value):
        self.value = value


# Observations a histogram buffers before it folds them into exact terms.
_COMPACT_AT = 256


def _exact_terms(values):
    """Floats whose exact sum is that of ``values`` (fewer, as a rule).

    Each pass appends the correctly rounded remainder
    (:func:`math.fsum`) until nothing is left, so no grouping of the
    additions rounds differently: merged worker terms give the serial
    total. A non-finite total is returned alone, as a plain float sum
    would give it.
    """
    total = sum(values)
    if not math.isfinite(total):
        return [total]
    terms = []
    while True:
        rest = math.fsum(chain(values, [-t for t in terms]))
        if not rest:
            return terms
        terms.append(rest)


class Histogram:
    """Streaming distribution: count/sum/min/max plus value buckets.

    Integer observations bucket exactly (FIFO occupancies are small
    ints); floats are bucketed at 1e-4 resolution (misprediction rates,
    losses), keeping memory bounded without losing the shape. ``sum``
    is exact until it is read, then rounded once: observations append
    to ``partials``, which folds into a few exact terms (see
    :func:`_exact_terms`) every ``_COMPACT_AT`` values.
    """

    __slots__ = ("name", "count", "partials", "min", "max", "buckets")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.partials = []
        self.min = None
        self.max = None
        self.buckets = {}

    @property
    def sum(self):
        return math.fsum(_exact_terms(self.partials))

    @staticmethod
    def _bucket(value):
        if isinstance(value, int):
            return value
        return round(value, 4)

    def observe(self, value):
        self.count += 1
        partials = self.partials
        partials.append(value)
        if len(partials) > _COMPACT_AT:
            partials[:] = _exact_terms(partials)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        b = self._bucket(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    def observe_many(self, values):
        """:meth:`observe` each of the sequence ``values``, in one call.

        The state is the same as after the single calls: ``min``/``max``
        fold from the current bound with the same comparisons, and each
        distinct value is bucketed once.
        """
        if not values:
            return
        self._add(values)
        self.count += len(values)
        self.min = min(values if self.min is None
                       else chain((self.min,), values))
        self.max = max(values if self.max is None
                       else chain((self.max,), values))
        for value, n in collections.Counter(values).items():
            b = self._bucket(value)
            self.buckets[b] = self.buckets.get(b, 0) + n

    def _add(self, values):
        partials = self.partials
        partials.extend(values)
        if len(partials) > _COMPACT_AT:
            partials[:] = _exact_terms(partials)

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def to_dict(self, exact=False):
        buckets = sorted(self.buckets.items(), key=lambda kv: float(kv[0]))
        out = {"count": self.count, "sum": self.sum, "mean": self.mean,
               "min": self.min, "max": self.max,
               "buckets": {str(k): v for k, v in buckets}}
        if exact:
            out["partials"] = _exact_terms(self.partials)
        return out


class Registry:
    """One run's worth of metrics and spans.

    ``clock`` supplies every timestamp the registry and its tracer
    record (``time.perf_counter`` by default; inject a
    :class:`~repro.telemetry.clock.TickClock` for byte-stable exports).
    Mutators only aggregate: nothing is streamed, so the registry's
    :meth:`snapshot` is the whole record of a run.
    """

    enabled = True

    def __init__(self, preregister_catalog=True, clock=None):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self.clock = clock if clock is not None else _clock.WALL
        self.tracer = SpanTracer(clock=self.clock)
        self._preregister = preregister_catalog
        if preregister_catalog:
            self._register_catalog()

    def _register_catalog(self):
        # Declared metrics always appear in exports, even at zero --
        # profile consumers get a stable key set. Only a recording
        # registry reads the catalog, so it loads here.
        from repro.telemetry import catalog as _catalog

        for spec in _catalog.CATALOG:
            if spec.kind == _catalog.COUNTER:
                self._counters[spec.name] = Counter(spec.name)
            elif spec.kind == _catalog.GAUGE:
                self._gauges[spec.name] = Gauge(spec.name)
            elif spec.kind == _catalog.HISTOGRAM:
                self._histograms[spec.name] = Histogram(spec.name)

    # -- metric access -------------------------------------------------

    def counter(self, name):
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name):
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name):
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    # -- mutators (the only calls instrumentation sites make) ----------

    def inc(self, name, n=1):
        self.counter(name).inc(n)

    def set_gauge(self, name, value):
        self.gauge(name).set(value)

    def observe(self, name, value):
        self.histogram(name).observe(value)

    def observe_many(self, name, values):
        self.histogram(name).observe_many(values)

    def span(self, name, **attrs):
        return self.tracer.span(name, **attrs)

    # -- lifecycle -----------------------------------------------------

    @property
    def spans(self):
        """Root spans recorded so far (each a tree)."""
        return list(self.tracer.roots)

    def reset(self):
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self.tracer.reset()
        if self._preregister:
            self._register_catalog()

    def snapshot(self, exact=False):
        """Plain-dict view of everything recorded (JSON-serialisable).

        ``exact`` adds each histogram's unrounded ``partials``, which
        :meth:`merge_snapshot` needs to reproduce a serial total.
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.to_dict(exact)
                           for n, h in sorted(self._histograms.items())},
            "spans": [s.to_dict() for s in self.tracer.roots],
        }

    @staticmethod
    def _parse_bucket_key(key):
        # to_dict stringifies bucket keys; int observations must come
        # back as ints (5 and 5.0 hash alike, but "5" round-trips as 5).
        try:
            return int(key)
        except ValueError:
            return float(key)

    def merge_snapshot(self, snap):
        """Fold a ``snapshot(exact=True)`` of another registry into this
        one (histogram sums need its ``partials``).

        The parallel executor's pool workers record into fresh child
        registries and ship exact snapshots back; merging them in work
        order reproduces the exact counter and histogram totals a serial
        run would have accumulated (histogram sums add the workers'
        ``partials``, so no sum is rounded twice). Gauges take the
        incoming value (last writer wins, as in serial execution); spans
        are not merged -- worker-side spans would interleave
        meaninglessly with the parent's open span stack.
        """
        for name, value in snap.get("counters", {}).items():
            if value:
                self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            if value is not None:
                self.gauge(name).set(value)
        for name, hd in snap.get("histograms", {}).items():
            if not hd.get("count"):
                continue
            h = self.histogram(name)
            h.count += hd["count"]
            h._add(hd["partials"])
            for bound in ("min", "max"):
                v = hd.get(bound)
                if v is None:
                    continue
                cur = getattr(h, bound)
                if cur is None or (v < cur if bound == "min" else v > cur):
                    setattr(h, bound, v)
            for key, n in hd.get("buckets", {}).items():
                b = self._parse_bucket_key(key)
                h.buckets[b] = h.buckets.get(b, 0) + n


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n=1):
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value):
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value):
        pass

    def observe_many(self, values):
        pass


class NullRegistry(Registry):
    """Disabled registry: records nothing, shared no-op handles."""

    enabled = False

    def __init__(self):
        super().__init__(preregister_catalog=False)
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name):
        return self._null_counter

    def gauge(self, name):
        return self._null_gauge

    def histogram(self, name):
        return self._null_histogram

    def inc(self, name, n=1):
        pass

    def set_gauge(self, name, value):
        pass

    def observe(self, name, value):
        pass

    def observe_many(self, name, values):
        pass

    def merge_snapshot(self, snap):
        pass

    def span(self, name, **attrs):
        return NULL_SPAN_SCOPE
