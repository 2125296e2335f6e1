"""Concrete observation schedules drawn from a probability distribution.

Three generators shape the same distribution three ways: i.i.d. random
sampling (what the probabilities literally describe), a deterministic
periodic sequence that keeps the gaps between visits as even as the
occurrence counts allow, and an event-driven contention simulation where
estimators race backoff timers inversely proportional to their
probabilities. All three are deterministic given their seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import ScheduleDistribution

__all__ = [
    "ScheduleSequence",
    "sample_stochastic_schedule",
    "build_min_consecutive_schedule",
    "max_run_length",
    "simulate_csma_schedule",
    "write_sequence",
    "read_sequence",
]


@dataclass(frozen=True, eq=False)
class ScheduleSequence:
    """A length-L assignment of one target index per sampling step."""

    steps: np.ndarray
    n_targets: int

    def __post_init__(self):
        steps = np.asarray(self.steps).reshape(-1)
        if steps.size == 0:
            raise ValueError("sequence must be nonempty")
        if int(self.n_targets) != self.n_targets or self.n_targets < 1:
            raise ValueError("n_targets must be a positive integer")
        if not np.all(steps == np.round(steps)):
            raise ValueError("sequence entries must be integers")
        if steps.min() < 0 or steps.max() >= self.n_targets:
            raise ValueError("sequence entries must be valid target indices")
        steps = steps.astype(np.int64)
        steps.flags.writeable = False
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "n_targets", int(self.n_targets))

    def __len__(self) -> int:
        return int(self.steps.size)

    def counts(self) -> np.ndarray:
        """Occurrences of each target, length n_targets."""
        return np.bincount(self.steps, minlength=self.n_targets)


def sample_stochastic_schedule(q: ScheduleDistribution, L: int, seed: int) -> ScheduleSequence:
    """L independent draws from the categorical distribution q."""
    if L < 1:
        raise ValueError("L must be at least 1")
    rng = np.random.default_rng(seed)
    steps = rng.choice(len(q), size=L, p=q.q)
    return ScheduleSequence(steps=steps, n_targets=len(q))


def _apportion_counts(q: ScheduleDistribution, L: int) -> np.ndarray:
    """Integer occurrence counts summing to L.

    Starts from floor(q_i * L) and hands the remaining slots to the
    targets with the largest fractional parts (ties to the lower index).
    Raises if any floor is zero: the requested length cannot represent
    the distribution, a longer L is needed.
    """
    scaled = q.q * L
    counts = np.floor(scaled).astype(np.int64)
    if np.any(counts == 0):
        worst = int(np.argmin(counts))
        raise ValueError(
            f"floor(q*L) is zero for target {worst} (q={q.q[worst]:.4g}, L={L}); "
            "choose a larger L so every target appears at least once"
        )
    leftovers = L - int(counts.sum())
    if leftovers > 0:
        frac = scaled - counts
        # argsort is stable, so equal fractions go to lower indices first.
        order = np.argsort(-frac, kind="stable")
        counts[order[:leftovers]] += 1
    return counts


def _interleave(counts: np.ndarray) -> tuple[list[int], int]:
    """Algorithmic core: arrange `counts` occurrences with even gaps.

    The most frequent target lays down the backbone; each other target is
    dealt out after every m-th backbone occurrence, m chosen so its
    occurrences divide the backbone as evenly as possible. Occurrences
    that the even deal does not reach are folded in after the last few
    backbone occurrences, which keeps the tail from ending in a long
    constant run. Returns the sequence and a primitive-operation count
    used to assert linear runtime.
    """
    order = sorted(range(len(counts)), key=lambda i: -counts[i])
    ids = [i for i in order if counts[i] > 0]
    primary = ids[0]
    n1 = int(counts[primary])
    after: list[list[int]] = [[] for _ in range(n1 + 1)]
    ops = n1
    for i in ids[1:]:
        ni = int(counts[i])
        m = math.ceil(n1 / (ni + 1))
        placed = min(ni, n1 // m)
        for k in range(1, placed + 1):
            after[k * m].append(i)
            ops += 1
        for j in range(n1 - (ni - placed) + 1, n1 + 1):
            after[j].append(i)
            ops += 1
    seq: list[int] = []
    for j in range(1, n1 + 1):
        seq.append(primary)
        seq.extend(after[j])
        ops += 1 + len(after[j])
    return seq, ops


def build_min_consecutive_schedule(q: ScheduleDistribution, L: int) -> ScheduleSequence:
    """Deterministic length-L sequence matching q with minimal bunching.

    Occurrence counts come from floor(q_i * L) plus largest-fraction
    rounding. For two targets the construction provably minimizes the
    longest constant run among all sequences with those counts; for more
    targets it is a good heuristic with the same even-gap intent.
    """
    if L < 1:
        raise ValueError("L must be at least 1")
    counts = _apportion_counts(q, L)
    seq, _ = _interleave(counts)
    return ScheduleSequence(steps=np.array(seq, dtype=np.int64), n_targets=len(q))


def max_run_length(seq: ScheduleSequence | np.ndarray) -> int:
    """Length of the longest constant run in the sequence."""
    steps = seq.steps if isinstance(seq, ScheduleSequence) else np.asarray(seq)
    if steps.size == 0:
        raise ValueError("sequence must be nonempty")
    boundaries = np.flatnonzero(
        np.concatenate(([True], steps[1:] != steps[:-1], [True]))
    )
    return int(np.diff(boundaries).max())


def simulate_csma_schedule(q: ScheduleDistribution, duration: int, seed: int) -> ScheduleSequence:
    """Contention-based schedule of `duration` periods: timers T_i = 1 / q_i race.

    Every estimator counts its timer down while the channel is idle and
    freezes it while the channel is busy; the first timer to expire takes
    the next whole sampling period and resets to 1 / q_i. Expiries closer
    together than the time resolution (1e-9) collide; the colliders redraw
    with probability nudged down by a random epsilon in (0, jitter], with
    jitter = min(1e-3, min_i q_i / 2) so every nudged probability stays
    positive, and race again. Over many periods each target's observation
    frequency approaches q_i. The timers need no time unit: a win always
    takes one whole period, and scaling every timer and the resolution by
    the same unit leaves every race with the same winner.

    Until the first collision, target i wins at the idle times m / q_i
    (m = 1, 2, ...), so the schedule is the sorted merge of those lattices
    (`_lattice_merge`). The merge is taken only when it provably names the
    race's winners: no lattice point left out of it comes before its last
    expiry, and every two consecutive expiries of different targets are
    further apart than the resolution plus a bound on the race's rounding.
    Otherwise, as at equal or rationally related probabilities, the race
    (`_race`) runs from the first period, so both give the same sequence.
    """
    if not duration >= 1:
        raise ValueError("duration must be at least 1")
    probs = q.q
    if np.any(probs <= 0):
        raise ValueError("contention simulation needs strictly positive probabilities")
    rng = np.random.default_rng(seed)
    steps = _lattice_merge(probs, duration)
    if steps is None:
        steps = _race(probs, duration, rng)
    return ScheduleSequence(steps=steps, n_targets=len(q))


def _lattice_merge(probs: np.ndarray, duration: int) -> np.ndarray | None:
    """The race's first `duration` winners as a merge of the expiry times
    m / q_i, or None when a near-tie could give the race another winner.

    In the race's clock (the sum of its idle times), target i's next
    expiry after m wins is m fl(1 / q_i) plus the rounding of its
    `remaining -= t_min` steps, at most half an ulp of max 1 / q_i each. With
    two or more targets every time compared lies below
    B = (duration + 1) max 1 / q_i, so the race's times and the merge's
    m / q_i are each within eps B of the exact ones, and a gap wider than
    the resolution plus 8 eps B (twice the 4 eps B needed) has the same
    winner in both. One target's consecutive expiries are 1 / q_i >= 1
    apart, so only gaps between different targets are tested.
    """
    n = probs.size
    # every lattice point up to duration + 1 + n, which holds duration + 1
    # points because the probabilities sum to one
    counts = np.floor((duration + 1 + n) * probs).astype(np.int64) + 1
    owner = np.repeat(np.arange(n), counts)
    times = np.concatenate([np.arange(1, c + 1) for c in counts]) / probs[owner]
    order = np.argsort(times, kind="stable")[:duration + 1]
    t, who = times[order], owner[order]
    slack = 1e-9 + 8 * np.finfo(float).eps * (duration + 1) / probs.min()
    if np.min((counts + 1) / probs) <= t[-1] + slack:
        return None
    if np.any(np.diff(t)[who[1:] != who[:-1]] <= slack):
        return None
    return who[:duration]


def _race(probs: np.ndarray, duration: int, rng: np.random.Generator) -> np.ndarray:
    """The contention model itself, one period at a time."""
    jitter = min(1e-3, probs.min() / 2)
    remaining = 1.0 / probs
    steps = np.empty(duration, dtype=np.int64)
    for k in range(duration):
        while True:
            t_min = remaining.min()
            contenders = np.flatnonzero(remaining - t_min <= 1e-9)
            if contenders.size == 1:
                break
            eps = rng.uniform(0.0, jitter, size=contenders.size)
            # uniform() can return 0.0; the nudge must be strictly positive.
            eps = np.maximum(eps, jitter * 1e-12)
            remaining[contenders] = 1.0 / (probs[contenders] - eps)
        winner = int(contenders[0])
        # Idle time t_min elapses for everyone, then the channel is busy
        # for the period and frozen timers carry over.
        remaining -= t_min
        remaining[winner] = 1.0 / probs[winner]
        steps[k] = winner
    return steps


def write_sequence(seq: ScheduleSequence, path: str | Path) -> None:
    """Plain text: a header line, then one target index per line."""
    lines = [f"# L={len(seq)} N={seq.n_targets}"]
    lines.extend(map(str, seq.steps.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def read_sequence(path: str | Path) -> ScheduleSequence:
    """Inverse of write_sequence."""
    text = Path(path).read_text().strip().splitlines()
    head = text[0].split() if text else []
    if len(head) < 3 or head[0] != "#" or head[1][:2] != "L=" or head[2][:2] != "N=":
        raise ValueError(f"{path}: not a schedule file (missing header)")
    L, n = int(head[1][2:]), int(head[2][2:])
    steps = np.array([int(line) for line in text[1:]], dtype=np.int64)
    if steps.size != L:
        raise ValueError(f"{path}: header says L={L} but found {steps.size} steps")
    return ScheduleSequence(steps=steps, n_targets=n)
