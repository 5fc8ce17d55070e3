"""Budgets and the two exceptions shared by the structural and algebraic layers.

The structural sweep takes a :class:`Budget` and raises
:class:`CounterexampleFound` without running the Groebner engine, so these
live apart from :mod:`polyprime.toric`, which imports them back.
"""

from __future__ import annotations

import time

from .grid import Record


class BudgetExhausted(Exception):
    """A Groebner computation hit its pair, degree, or time cap.

    Carries the partial state: pairs processed, the largest degree seen,
    and (when the main loop was already running) the basis size so far.
    ``phase`` names the step of a multi-step check that ran out, if any;
    the message names it too once it is set.
    """

    def __init__(self, reason: str, pairs: int, max_degree_seen: int):
        super().__init__(reason, pairs, max_degree_seen)
        self.reason = reason
        self.pairs = pairs
        self.max_degree_seen = max_degree_seen
        self.basis_size: int | None = None
        self.phase: str | None = None

    def __str__(self) -> str:
        where = f"{self.phase}; " if self.phase else ""
        return f"{self.reason} ({where}pairs={self.pairs}, max degree seen={self.max_degree_seen})"


class CounterexampleFound(RuntimeError):
    """A machine check contradicted a certified structural fact."""


class Budget(Record):
    """Caps for one certification or one kernel basis; ``None`` means unlimited.

    Each public entry point calls :meth:`start` once and hands the clock
    to every Groebner run it makes, so the caps bound their sum.  A cap
    is a non-negative number; a negative or NaN cap raises ``ValueError``.
    """

    max_pairs: int | None = None
    max_degree: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_pairs", "max_degree", "max_seconds"):
            cap = getattr(self, name)
            # NaN fails every comparison, so one test rejects it too.
            if cap is not None and not cap >= 0:
                raise ValueError(f"budget cap {name} must be a non-negative number, got {cap}")

    def start(self) -> "BudgetClock":
        return BudgetClock(self)


class BudgetClock:
    """One run of a budget: the S-pairs ticked, the largest degree seen, the start time."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.pairs = 0
        self.max_degree_seen = 0
        self.t0 = time.monotonic()

    def tick_pair(self, degree: int) -> None:
        self.pairs += 1
        if degree > self.max_degree_seen:
            self.max_degree_seen = degree
        b = self.budget
        if b.max_pairs is not None and self.pairs > b.max_pairs:
            raise BudgetExhausted("pair cap", self.pairs, self.max_degree_seen)
        if b.max_degree is not None and degree > b.max_degree:
            raise BudgetExhausted("degree cap", self.pairs, self.max_degree_seen)
        if b.max_seconds is not None and self.pairs % 64 == 0:
            if time.monotonic() - self.t0 > b.max_seconds:
                raise BudgetExhausted("time cap", self.pairs, self.max_degree_seen)


UNLIMITED = Budget()
