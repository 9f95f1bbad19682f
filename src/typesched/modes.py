"""Execution modes shared by both approximation pipelines."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Schedule


@dataclass(frozen=True)
class FullEnum:
    """Enumerate every structural guess, up to a budget of work (rounding.Work)."""

    budget: int = 10**6


@dataclass(frozen=True)
class Guided:
    """Derive the structural guess from a certificate schedule.

    Decouples "is the rounding correct" from "can we afford the
    enumeration": the certificate (usually a brute-force optimum) pins the
    guess, and everything downstream of the guess still runs for real.
    """

    schedule: Schedule
