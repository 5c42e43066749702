"""Streaming aggregation: quantile sketches and windowed rates, online.

The post-hoc span record answers "what were the tails?" after the run; a
production fabric needs the same answer *during* the run, in bounded
memory. This module provides the online half of the observability layer:

* :class:`QuantileSketch` -- a DDSketch-style fixed-boundary quantile
  sketch with a configurable **relative**-error bound: any reported
  quantile ``x`` satisfies ``|x - v| <= relative_error * v`` where ``v``
  is the true sample at that rank. Buckets are logarithmic with fixed
  (value-independent) boundaries, so two sketches fed the same values in
  any order hold byte-identical state, and sketches **merge** exactly
  (shard per UE / per log, combine at report time). Memory is O(buckets),
  not O(samples).
* :class:`WindowedRate` -- event and value rates over a sliding sim-time
  window, bucketed so memory is O(resolution) regardless of event count.
  This is the burn-rate substrate for :mod:`repro.obs.slo`.
* :class:`StreamAggregator` -- the sink that ties both to the live run:
  subscribe it to a :class:`~repro.obs.trace.Tracer` (span durations by
  span name) and a :class:`~repro.obs.metrics.MetricsRegistry` (metric
  observations by family + label set) and p50/p95/p99 of ``cspot.append``,
  per-UE throughput, or any stage latency are available mid-run.

Everything here is deterministic: no clocks are read (sim times arrive on
the events), no RNG is drawn, and every serialization is key-sorted -- two
same-seed runs produce byte-identical sketch snapshots.
"""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import chain
from typing import Any, Callable, Optional

import numpy as np

from repro.obs.trace import Span

#: Default relative-error bound: 1% of the value at the requested rank.
DEFAULT_RELATIVE_ERROR = 0.01

#: Values with magnitude below this collapse into the zero bucket.
MIN_TRACKABLE = 1e-9


#: The exact sum is one integer in units of ``2**-_SUM_SHIFT``: every finite
#: double is a 53-bit integer mantissa times ``2**(e - 53)`` with ``frexp``
#: exponent ``e >= -1073``, so it is an integer multiple of ``2**-1126``.
_SUM_SHIFT = 1126
_SUM_SCALE = 1 << _SUM_SHIFT

#: Values per ``np.bincount`` pass in :func:`_scaled_sum`: below ``2**26``
#: values every bin sum stays an integer below ``2**53``, exact in float64.
_EXACT_BLOCK = 1 << 26


def _scaled_sum(values: "np.ndarray") -> int:
    """The exact sum of finite float64 ``values``, times ``2**_SUM_SHIFT``.

    Each value is ``m * 2**e`` (``np.frexp``). Its 53-bit integer mantissa
    ``m * 2**53`` splits into a 27-bit high half ``trunc(m * 2**27)`` and a
    26-bit low half, both integers that float64 holds exactly.
    ``np.bincount`` adds the halves up per exponent -- exactly, since no
    bin sum reaches ``2**53`` -- and one big-int shift per exponent puts
    each bin in place. No per-value Python object is made.
    """
    total = 0
    for start in range(0, values.size, _EXACT_BLOCK):
        mant, exp = np.frexp(values[start:start + _EXACT_BLOCK])
        high = np.trunc(mant * 2.0**27)
        low = mant * 2.0**53 - high * 2.0**26
        e0 = int(exp.min())
        idx = exp - e0
        high_sums = np.bincount(idx, weights=high).tolist()
        low_sums = np.bincount(idx, weights=low).tolist()
        for k, (h, lo) in enumerate(zip(high_sums, low_sums)):
            # Bin k holds exponent e = k + e0; its values sum to
            # (h * 2**26 + lo) * 2**(e - 53).
            total += ((int(h) << 26) + int(lo)) << (k + e0 - 53 + _SUM_SHIFT)
    return total


class QuantileSketch:
    """Mergeable quantile sketch with a relative-error guarantee.

    Values are mapped to logarithmic buckets ``(gamma**(i-1), gamma**i]``
    with ``gamma = (1 + a) / (1 - a)`` for relative error ``a``; a bucket
    is represented by ``2 * gamma**i / (gamma + 1)``, whose distance to
    any value in the bucket is at most ``a`` of that value. Negative
    values get a mirrored bucket table; magnitudes below
    ``MIN_TRACKABLE`` share one zero bucket (reported as ``0.0``).

    ``max_bins`` bounds memory: when exceeded, the two lowest-magnitude
    positive bins merge (the standard DDSketch collapse), which degrades
    accuracy only for the lowest quantiles. The default is far above
    what any latency distribution in this system produces.
    """

    __slots__ = (
        "relative_error", "max_bins", "_gamma", "_log_gamma",
        "_bins", "_neg_bins", "zero_count",
        "count", "_sum_scaled", "_inf_sum", "min", "max", "collapsed",
        "_memo_value", "_memo_key",
    )

    def __init__(
        self,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        max_bins: int = 4096,
    ) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError(
                f"relative_error must be in (0, 1): {relative_error}"
            )
        if max_bins < 2:
            raise ValueError(f"max_bins must be >= 2: {max_bins}")
        self.relative_error = relative_error
        self.max_bins = max_bins
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self._bins: dict[int, int] = {}
        self._neg_bins: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        # Exact running sum of the finite observations, as one integer in
        # units of 2**-_SUM_SHIFT. Integer addition is associative and
        # commutative, so merged shard sketches report the same `sum` as the
        # unsharded stream, bit for bit. Non-finite observations accumulate
        # separately (IEEE inf arithmetic is itself order-independent).
        self._sum_scaled = 0
        self._inf_sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.collapsed = 0
        # One-entry bucket-key memo: metric streams repeat the same value
        # (counter increments are almost always 1.0), and the log() in
        # _key dominates add() -- caching the last mapping makes the
        # repeated-value path pure dict arithmetic.
        self._memo_value = math.nan
        self._memo_key = 0

    # -- ingestion ---------------------------------------------------------------

    def _key(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def add(self, value: float) -> None:
        """Fold one observation into the sketch (O(1) amortized)."""
        value = float(value)
        if value != value:  # NaN (cheaper than math.isnan on the hot path)
            raise ValueError("cannot sketch NaN")
        self.count += 1
        if value < self.min:
            self.min = value + 0.0  # a zero as +0.0: any partition merges alike
        if value > self.max:
            self.max = value + 0.0
        if not math.isfinite(value):
            # An infinity joins the count, the extremes and the sum but no
            # bucket, exactly as in add_array.
            self._inf_sum += value
            return
        # value == n / d with d a power of two no larger than 2**1074.
        n, d = value.as_integer_ratio()
        self._sum_scaled += n << (_SUM_SHIFT + 1 - d.bit_length())
        if -MIN_TRACKABLE <= value <= MIN_TRACKABLE:
            self.zero_count += 1
            return
        bins = self._bins if value > 0 else self._neg_bins
        magnitude = abs(value)
        if magnitude == self._memo_value:
            key = self._memo_key
        else:
            key = self._key(magnitude)
            self._memo_value = magnitude
            self._memo_key = key
        bins[key] = bins.get(key, 0) + 1
        if len(bins) > self.max_bins:
            self._collapse(bins)

    def add_array(self, values: "np.ndarray") -> None:
        """Fold a whole array of observations in vectorized batch form.

        State-identical to calling :meth:`add` per element in order
        (parity-tested): bucket keys are computed with the same
        ``ceil(log(|v|) / log(gamma))`` mapping, counts via
        ``numpy.unique``, and the exact sum by :func:`_scaled_sum`. Zeros
        add nothing to the sum and land in the zero bucket, so only the
        nonzero values go further -- in a UE-fleet block, where most UEs
        hold no PRB in a given second, that is a small fraction. This is
        the shard hot path: a 500k-sample block ingests in a handful of
        numpy passes.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        # The extremes as sequential adds keep them; NaN propagates.
        lo = float(arr.min()) + 0.0
        hi = float(arr.max()) + 0.0
        if lo != lo:
            raise ValueError("cannot sketch NaN")
        self.count += int(arr.size)
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        if math.isinf(lo) or math.isinf(hi):
            finite = np.isfinite(arr)
            # Python float addition: inf + -inf is NaN without a warning.
            self._inf_sum += sum(arr[~finite].tolist())
            arr = arr[finite]
        nonzero = arr[arr != 0.0]
        self._sum_scaled += _scaled_sum(nonzero)
        tracked = nonzero[np.abs(nonzero) > MIN_TRACKABLE]
        self.zero_count += int(arr.size - tracked.size)
        if tracked.size == 0:
            return
        pos = tracked > 0.0
        for bins, mags in (
            (self._bins, tracked[pos]),
            (self._neg_bins, -tracked[~pos]),
        ):
            if mags.size == 0:
                continue
            keys = np.ceil(np.log(mags) / self._log_gamma).astype(np.int64)
            uniq, counts = np.unique(keys, return_counts=True)
            for key, n in zip(uniq.tolist(), counts.tolist()):
                bins[key] = bins.get(key, 0) + n
            while len(bins) > self.max_bins:
                self._collapse(bins)

    def _collapse(self, bins: dict[int, int]) -> None:
        """Merge the two lowest-magnitude bins (bounds memory)."""
        lowest = min(bins)
        count = bins.pop(lowest)
        second = min(bins)
        bins[second] += count
        self.collapsed += 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (exact: same fixed boundaries)."""
        if other.relative_error != self.relative_error:
            raise ValueError(
                f"cannot merge sketches with different error bounds: "
                f"{self.relative_error} != {other.relative_error}"
            )
        for key, count in other._bins.items():
            self._bins[key] = self._bins.get(key, 0) + count
        for key, count in other._neg_bins.items():
            self._neg_bins[key] = self._neg_bins.get(key, 0) + count
        self.zero_count += other.zero_count
        self.count += other.count
        self._sum_scaled += other._sum_scaled
        self._inf_sum += other._inf_sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        while len(self._bins) > self.max_bins:
            self._collapse(self._bins)
        while len(self._neg_bins) > self.max_bins:
            self._collapse(self._neg_bins)
        return self

    @classmethod
    def identity(
        cls,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        max_bins: int = 4096,
    ) -> "QuantileSketch":
        """The merge identity: an empty sketch with the given parameters.

        ``s.merge(identity)`` leaves ``s``'s snapshot unchanged, and
        ``identity.merge(s)`` reproduces ``s`` -- the unit of the merge
        monoid (property-tested in ``tests/obs/test_merge_algebra.py``).
        """
        return cls(relative_error=relative_error, max_bins=max_bins)

    # -- queries -----------------------------------------------------------------

    @property
    def sum(self) -> float:
        """The correctly-rounded exact sum of every observation.

        Rounded once, by int true division of the exact scaled integer --
        so any partition of the same stream, merged in any order, reports
        the identical double. A finite sum beyond the double range rounds
        to an infinity, as IEEE addition would.
        """
        if self._inf_sum != 0.0:
            return self._inf_sum
        try:
            return self._sum_scaled / _SUM_SCALE
        except OverflowError:
            return math.inf if self._sum_scaled > 0 else -math.inf

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _bucket_value(self, key: int) -> float:
        return 2.0 * self._gamma ** key / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 <= q <= 1) within the error bound.

        The estimate corresponds to the sample at 0-based rank
        ``floor(q * (count - 1))`` -- ``numpy.quantile(..,
        method="lower")`` -- and is clamped into the observed
        ``[min, max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of [0,1]: {q}")
        if self.count == 0:
            return 0.0
        rank = int(q * (self.count - 1))
        cum = 0
        for key in sorted(self._neg_bins, reverse=True):
            cum += self._neg_bins[key]
            if cum > rank:
                return self._clamp(-self._bucket_value(key))
        cum += self.zero_count
        if cum > rank:
            return 0.0
        for key in sorted(self._bins):
            cum += self._bins[key]
            if cum > rank:
                return self._clamp(self._bucket_value(key))
        return self.max

    def _clamp(self, value: float) -> float:
        return min(max(value, self.min), self.max)

    def to_dict(self) -> dict[str, Any]:
        """Deterministic, JSON-ready snapshot (sorted bins)."""
        return {
            "relative_error": self.relative_error,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "zero_count": self.zero_count,
            "collapsed": self.collapsed,
            "bins": [[k, self._bins[k]] for k in sorted(self._bins)],
            "negative_bins": [
                [k, self._neg_bins[k]] for k in sorted(self._neg_bins)
            ],
        }

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(n={self.count}, a={self.relative_error}, "
            f"bins={len(self._bins) + len(self._neg_bins)})"
        )


class WindowedRate:
    """Event/value rate over a sliding window, in O(resolution) memory.

    The window is divided into ``resolution`` fixed-width buckets keyed by
    ``floor(t / width)``; stale buckets are evicted as time advances.
    Timestamps must be non-decreasing (they come from the sim clock).
    """

    __slots__ = ("window_s", "resolution", "_width", "_buckets", "_last_t")

    def __init__(self, window_s: float, resolution: int = 30) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive: {window_s}")
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1: {resolution}")
        self.window_s = float(window_s)
        self.resolution = resolution
        self._width = self.window_s / resolution
        #: deque of [bucket_index, event_count, value_sum], oldest first.
        self._buckets: deque[list[float]] = deque()
        self._last_t = -math.inf

    def observe(self, t: float, value: float = 1.0) -> None:
        """Record one event of weight ``value`` at sim time ``t``."""
        if t < self._last_t:
            raise ValueError(
                f"WindowedRate needs non-decreasing times: {t} < {self._last_t}"
            )
        self._last_t = t
        idx = int(t // self._width)
        if self._buckets and self._buckets[-1][0] == idx:
            bucket = self._buckets[-1]
            bucket[1] += 1
            bucket[2] += value
        else:
            # Eviction only matters when the head bucket advances: the
            # horizon is a function of idx alone, so repeat observations
            # inside one bucket cannot expire anything new.
            self._buckets.append([idx, 1, value])
            self._evict(t)

    def _evict(self, now: float) -> None:
        horizon = int(now // self._width) - self.resolution
        while self._buckets and self._buckets[0][0] <= horizon:
            self._buckets.popleft()

    def merge(self, other: "WindowedRate") -> "WindowedRate":
        """Fold ``other``'s buckets into this rate (same window geometry).

        Bucket counts and value sums combine by bucket index; the merged
        clock is the later of the two. Used when per-shard rates are
        combined at report time -- rates are live-query state, not part of
        the canonical snapshot, so plain float addition suffices here.
        """
        if (other.window_s, other.resolution) != (self.window_s, self.resolution):
            raise ValueError(
                f"cannot merge rates with different geometry: "
                f"({self.window_s}, {self.resolution}) != "
                f"({other.window_s}, {other.resolution})"
            )
        combined: dict[int, list[float]] = {}
        for idx, n, total in chain(self._buckets, other._buckets):
            bucket = combined.get(int(idx))
            if bucket is None:
                combined[int(idx)] = [idx, n, total]
            else:
                bucket[1] += n
                bucket[2] += total
        self._buckets = deque(combined[i] for i in sorted(combined))
        self._last_t = max(self._last_t, other._last_t)
        if self._last_t > -math.inf:
            self._evict(self._last_t)
        return self

    def events(self, now: float) -> int:
        """Events inside the trailing window at sim time ``now``."""
        self._evict(now)
        return int(sum(b[1] for b in self._buckets))

    def value_sum(self, now: float) -> float:
        """Summed event weights inside the trailing window."""
        self._evict(now)
        return float(sum(b[2] for b in self._buckets))

    def rate(self, now: float) -> float:
        """Events per second over the trailing window."""
        return self.events(now) / self.window_s

    def value_rate(self, now: float) -> float:
        """Summed weight per second over the trailing window (e.g. bytes/s)."""
        return self.value_sum(now) / self.window_s


def _label_suffix(labels: dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


class StreamAggregator:
    """Online sink: per-key sketches + rates over spans and metrics.

    Subscribe one aggregator to a tracer (``tracer.subscribe(agg)``) and
    its registry (``tracer.metrics.subscribe(agg)``):

    * each finished span feeds the sketch keyed ``span:<name>`` with its
      simulated duration, plus a windowed completion rate;
    * each metric event feeds ``metric:<family>`` (aggregate) and
      ``metric:<family>{k=v,...}`` (per label set, canonical order), so
      ``metric:radio.ue_throughput_mbps{cell=prod,ue=unl-gateway}`` is a
      live per-UE throughput distribution.

    ``clock`` (usually ``tracer.now_sim``) timestamps metric events, which
    carry no time of their own; span events use their own ``end_sim``.

    Wall-clock metric families (named ``*wall*``) vary run to run by
    definition; sketching them would break the byte-identity of
    same-seed :meth:`to_json` snapshots, so they are dropped unless
    ``include_wall_metrics=True``.
    """

    def __init__(
        self,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        rate_window_s: float = 600.0,
        max_bins: int = 4096,
        clock: Optional[Callable[[], float]] = None,
        include_wall_metrics: bool = False,
    ) -> None:
        self.relative_error = relative_error
        self.rate_window_s = rate_window_s
        self.max_bins = max_bins
        self.include_wall_metrics = include_wall_metrics
        self._clock = clock
        # One dict of (sketch, rate) pairs: a single lookup per event.
        self._streams: dict[str, tuple[QuantileSketch, WindowedRate]] = {}
        # Key-string memos: the same family names arrive thousands of
        # times per run, and f-string assembly would otherwise be a
        # measurable slice of the per-event cost.
        self._span_keys: dict[str, str] = {}
        self._metric_keys: dict[str, Optional[str]] = {}
        # (family, label items) -> "metric:<family>{k=v,...}" strings, so
        # the suffix sort/join runs once per distinct label set.
        self._labeled_keys: dict[Any, str] = {}

    def bind_clock(self, clock: Callable[[], float]) -> "StreamAggregator":
        """Set the sim-time source used to stamp metric events."""
        self._clock = clock
        return self

    # -- sink protocol ------------------------------------------------------------

    def on_span(self, span: Span) -> None:
        key = self._span_keys.get(span.name)
        if key is None:
            key = self._span_keys[span.name] = f"span:{span.name}"
        self._observe(key, span.duration_sim, span.end_sim)

    def on_metric(self, name: str, value: float, labels: dict[str, Any]) -> None:
        key = self._metric_keys.get(name, "")
        if key == "":  # unseen family (None is the cached "filtered" verdict)
            key = (
                None if (not self.include_wall_metrics and "wall" in name)
                else f"metric:{name}"
            )
            self._metric_keys[name] = key
        if key is None:
            return
        clock = self._clock
        now = clock() if clock is not None else 0.0
        self._observe(key, value, now)
        if labels:
            try:
                raw = (name, *labels.items())
                labeled = self._labeled_keys.get(raw)
                if labeled is None:
                    labeled = self._labeled_keys[raw] = (
                        f"{key}{_label_suffix(labels)}"
                    )
            except TypeError:  # unhashable label value
                labeled = f"{key}{_label_suffix(labels)}"
            self._observe(labeled, value, now)

    def _observe(self, key: str, value: float, t: float) -> None:
        pair = self._streams.get(key)
        if pair is None:
            pair = self._streams[key] = (
                QuantileSketch(self.relative_error, self.max_bins),
                WindowedRate(self.rate_window_s),
            )
        pair[0].add(value)
        pair[1].observe(t, value)

    def merge(self, other: "StreamAggregator") -> "StreamAggregator":
        """Fold another aggregator's streams into this one, exactly.

        Per-key sketches merge via :meth:`QuantileSketch.merge` (exact:
        fixed boundaries + exact sums), rates via
        :meth:`WindowedRate.merge`. Because sketch merging is exactly
        associative and commutative, merging the aggregators of any
        partition of a span/metric stream reproduces the unsharded
        aggregator's :meth:`to_json` snapshot byte for byte
        (property-tested in ``tests/obs/test_merge_algebra.py``).
        """
        if other.relative_error != self.relative_error:
            raise ValueError(
                f"cannot merge aggregators with different error bounds: "
                f"{self.relative_error} != {other.relative_error}"
            )
        for key, (sketch, rate) in other._streams.items():
            pair = self._streams.get(key)
            if pair is None:
                pair = self._streams[key] = (
                    QuantileSketch(self.relative_error, self.max_bins),
                    WindowedRate(self.rate_window_s),
                )
            pair[0].merge(sketch)
            pair[1].merge(rate)
        return self

    # -- queries -----------------------------------------------------------------

    def keys(self) -> list[str]:
        return sorted(self._streams)

    def sketch(self, key: str) -> QuantileSketch:
        """The sketch for ``key`` (an empty one if nothing flowed yet)."""
        found = self._streams.get(key)
        return found[0] if found is not None else QuantileSketch(self.relative_error)

    def quantile(self, key: str, q: float) -> float:
        return self.sketch(key).quantile(q)

    def rate(self, key: str, now: float) -> float:
        found = self._streams.get(key)
        return found[1].rate(now) if found is not None else 0.0

    def table(self, quantiles: tuple[float, ...] = (0.5, 0.95, 0.99)) -> list[str]:
        """Human-readable live table: count, mean, and quantiles per key."""
        header = f"{'stream':<52} {'n':>8} {'mean':>10}" + "".join(
            f" {'p' + format(q * 100, 'g'):>10}" for q in quantiles
        )
        lines = ["== streaming telemetry ==", header]
        for key in self.keys():
            sketch = self._streams[key][0]
            cells = "".join(
                f" {sketch.quantile(q):>10.4g}" for q in quantiles
            )
            lines.append(
                f"{key:<52} {sketch.count:>8} {sketch.mean:>10.4g}{cells}"
            )
        return lines

    def to_dict(self) -> dict[str, Any]:
        """Deterministic snapshot of every sketch, JSON-ready."""
        return {key: self._streams[key][0].to_dict() for key in self.keys()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
