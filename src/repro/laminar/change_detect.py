"""The xGFabric change-detection program.

This is the Laminar application from the paper's end-to-end pipeline: every
30-minute duty cycle it compares the most recent 6 telemetry readings
(30 minutes at the weather stations' 5-minute reporting interval) against
the previous 6, runs the three statistical tests, votes, and -- when
conditions have "meaningfully changed" -- emits an alert that triggers a
new CFD simulation. The alert exists to avoid "computing a new result that
is statistically indistinguishable from the previous result", i.e. wasting
HPC resources on noise.

Two forms are provided:

* :class:`ChangeDetector` -- a plain object usable anywhere;
* :func:`build_change_detection_graph` -- the same computation as a Laminar
  dataflow graph (three test nodes + a voting node), deployable across
  hosts ("either within the private 5G network or at UCSB in any
  combination").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.laminar.graph import DataflowGraph
from repro.laminar.stats_tests import (
    ALL_TESTS,
    DEFAULT_ALPHA,
    StatTestResult,
    check_alpha,
    check_vote_threshold,
    ks_test,
    majority_vote,
    mann_whitney_test,
    welch_t_test,
)
from repro.laminar.types import ARRAY_F64, BOOL

#: The paper's window: 6 readings x 5-minute interval = 30 minutes.
WINDOW_SIZE = 6


@dataclass(frozen=True)
class ChangeVerdict:
    """The detector's full output for one duty cycle."""

    changed: bool
    results: tuple[StatTestResult, ...]
    votes_for_change: int

    def __bool__(self) -> bool:
        return self.changed


class ChangeDetector:
    """6-vs-6 window change detection with 2-of-3 voting.

    Parameters
    ----------
    window_size:
        Readings per window (default 6, the paper's 30 minutes).
    alpha:
        Significance level for each test.
    vote_threshold:
        Number of agreeing tests required to declare change.
    """

    def __init__(
        self,
        window_size: int = WINDOW_SIZE,
        alpha: float = DEFAULT_ALPHA,
        vote_threshold: int = 2,
    ) -> None:
        if window_size < 2:
            raise ValueError(f"window_size must be >= 2: {window_size}")
        check_alpha(alpha)
        check_vote_threshold(vote_threshold, len(ALL_TESTS))
        self.window_size = window_size
        self.alpha = alpha
        self.vote_threshold = vote_threshold

    def compare(self, current, previous) -> ChangeVerdict:
        """Compare two explicit windows."""
        results = (
            welch_t_test(current, previous, self.alpha),
            mann_whitney_test(current, previous, self.alpha),
            ks_test(current, previous, self.alpha),
        )
        votes = sum(1 for r in results if r.different)
        changed = majority_vote(list(results), self.vote_threshold)
        return ChangeVerdict(changed=changed, results=results, votes_for_change=votes)

    def evaluate_series(self, readings) -> ChangeVerdict:
        """Split a series into the two most recent windows and compare.

        ``readings`` must hold at least ``2 * window_size`` values; the last
        ``window_size`` are "current", the preceding ``window_size``
        "previous" -- exactly the paper's duty-cycle read pattern.
        """
        arr = np.asarray(readings, dtype=np.float64)
        need = 2 * self.window_size
        if arr.ndim != 1 or arr.size < need:
            raise ValueError(
                f"need a 1-D series of >= {need} readings, got shape {arr.shape}"
            )
        current = arr[-self.window_size:]
        previous = arr[-need:-self.window_size]
        return self.compare(current, previous)


def build_change_detection_graph(
    alpha: float = DEFAULT_ALPHA,
    vote_threshold: int = 2,
    test_host: str | None = None,
    vote_host: str | None = None,
) -> DataflowGraph:
    """The change detector as a Laminar dataflow graph.

    Structure: two source operands (current/previous windows) fan out to
    three test nodes whose boolean outputs feed a voting node producing the
    ``alert`` operand. Hosts may be assigned per stage ("the statistical
    tests and a voting algorithm ... at UCSB in this study").
    """
    check_alpha(alpha)
    check_vote_threshold(vote_threshold, len(ALL_TESTS))
    g = DataflowGraph("change-detect")
    current = g.operand("current", ARRAY_F64)
    previous = g.operand("previous", ARRAY_F64)
    t_out = g.operand("welch_t_different", BOOL)
    u_out = g.operand("mann_whitney_different", BOOL)
    ks_out = g.operand("ks_different", BOOL)
    alert = g.operand("alert", BOOL)

    g.node(
        "welch-t",
        lambda cur, prev: bool(welch_t_test(cur, prev, alpha).different),
        inputs=[current, previous],
        output=t_out,
        host=test_host,
    )
    g.node(
        "mann-whitney",
        lambda cur, prev: bool(mann_whitney_test(cur, prev, alpha).different),
        inputs=[current, previous],
        output=u_out,
        host=test_host,
    )
    g.node(
        "ks",
        lambda cur, prev: bool(ks_test(cur, prev, alpha).different),
        inputs=[current, previous],
        output=ks_out,
        host=test_host,
    )
    g.node(
        "vote",
        lambda a, b, c: bool(sum((a, b, c)) >= vote_threshold),
        inputs=[t_out, u_out, ks_out],
        output=alert,
        host=vote_host,
    )
    g.validate()
    return g
