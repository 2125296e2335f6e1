"""Schedule generators: sampling, even interleaving, and contention.

Frozen sequences below were worked out by hand from the interleaving
rules (backbone of the most frequent target, others dealt every m-th
slot, stragglers folded into the tail).
"""
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensorsched import (
    ScheduleDistribution,
    ScheduleSequence,
    build_min_consecutive_schedule,
    max_run_length,
    read_sequence,
    sample_stochastic_schedule,
    simulate_csma_schedule,
    write_sequence,
)
from sensorsched import schedule
from sensorsched.schedule import _apportion_counts, _interleave


def dist(*probs: float) -> ScheduleDistribution:
    return ScheduleDistribution(np.array(probs))


def race_reference(probs, duration: int, seed: int) -> np.ndarray:
    """The contention race one period at a time, as the model defines it."""
    probs = np.asarray(probs, dtype=float)
    jitter = min(1e-3, probs.min() / 2)
    rng = np.random.default_rng(seed)
    remaining = 1.0 / probs
    steps = np.empty(duration, dtype=np.int64)
    for k in range(duration):
        while True:
            t_min = remaining.min()
            contenders = np.flatnonzero(remaining - t_min <= 1e-9)
            if contenders.size == 1:
                break
            eps = np.maximum(rng.uniform(0.0, jitter, size=contenders.size), jitter * 1e-12)
            remaining[contenders] = 1.0 / (probs[contenders] - eps)
        remaining -= t_min
        remaining[contenders[0]] = 1.0 / probs[contenders[0]]
        steps[k] = contenders[0]
    return steps


@st.composite
def timer_probabilities(draw):
    """Dirichlet, thousandths (rational ties), equal, or targets at a 1e-5 floor."""
    n = draw(st.integers(2, 6))
    shape = draw(st.sampled_from(["dirichlet", "thousandths", "equal", "floors"]))
    if shape == "equal":
        return (1.0 / n,) * n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.dirichlet(np.ones(n))
    if shape == "thousandths":
        return tuple((rng.multinomial(1000 - n, w) + 1) / 1000)
    if shape == "floors":
        k = draw(st.integers(1, n - 1))
        w = np.concatenate((np.full(k, 1e-5), w[k:] * (1 - k * 1e-5) / w[k:].sum()))
    return tuple(w)


def brute_force_best_run(n0: int, n1: int) -> int:
    """Smallest max run over every arrangement of n0 zeros and n1 ones."""
    L = n0 + n1
    best = L
    for zeros in itertools.combinations(range(L), n0):
        seq = np.ones(L, dtype=np.int64)
        seq[list(zeros)] = 0
        best = min(best, max_run_length(seq))
    return best


class TestScheduleSequence:
    def test_counts_and_len(self):
        seq = ScheduleSequence(steps=[0, 2, 0, 1], n_targets=4)
        assert len(seq) == 4
        assert seq.counts().tolist() == [2, 1, 1, 0]

    @pytest.mark.parametrize(
        "steps, n",
        [([], 1), ([0, 1], 1), ([-1, 0], 2), ([0], 0), ([0.7, 1.5], 2), ([0, 1], 2.5)],
    )
    def test_validation(self, steps, n):
        with pytest.raises(ValueError):
            ScheduleSequence(steps=steps, n_targets=n)

    def test_steps_are_frozen(self):
        seq = ScheduleSequence(steps=[0, 1], n_targets=2)
        with pytest.raises(ValueError):
            seq.steps[0] = 1


class TestMaxRunLength:
    @pytest.mark.parametrize(
        "steps, expected",
        [([0], 1), ([0, 0, 1], 2), ([0, 1, 0, 1], 1), ([2, 2, 2, 2], 4), ([0, 1, 1, 0, 0, 0], 3)],
    )
    def test_examples(self, steps, expected):
        assert max_run_length(np.array(steps)) == expected

    def test_accepts_sequences(self):
        seq = ScheduleSequence(steps=[1, 1, 0], n_targets=2)
        assert max_run_length(seq) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            max_run_length(np.array([], dtype=np.int64))


class TestApportionment:
    def test_largest_fraction_rounding(self):
        counts = _apportion_counts(dist(0.5, 0.25, 0.25), 6)
        assert counts.tolist() == [3, 2, 1]  # tie broken toward lower index

    def test_exact_split(self):
        assert _apportion_counts(dist(0.674, 0.326), 500).tolist() == [337, 163]

    def test_single_target(self):
        assert _apportion_counts(dist(1.0), 5).tolist() == [5]

    def test_rejects_unrepresentable_length(self):
        with pytest.raises(ValueError, match="larger L"):
            _apportion_counts(dist(0.95, 0.05), 10)

    def test_counts_stay_within_one_of_the_floor(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            w = rng.uniform(0.5, 2.0, size=n)
            q = dist(*(w / w.sum()))
            L = int(rng.integers(8 * n, 200))
            try:
                counts = _apportion_counts(q, L)
            except ValueError:
                continue
            assert counts.sum() == L
            floors = np.floor(q.q * L)
            assert ((counts == floors) | (counts == floors + 1)).all()


class TestMinConsecutiveSchedule:
    def test_worked_example(self):
        seq = build_min_consecutive_schedule(dist(0.5, 0.3, 0.2), 10)
        assert seq.steps.tolist() == [0, 0, 1, 2, 0, 0, 1, 2, 0, 1]

    def test_two_balanced_targets_alternate(self):
        seq = build_min_consecutive_schedule(dist(0.5, 0.5), 4)
        assert seq.steps.tolist() == [0, 1, 0, 1]

    def test_single_target(self):
        seq = build_min_consecutive_schedule(dist(1.0), 5)
        assert seq.steps.tolist() == [0] * 5

    def test_benchmark_counts_and_run(self):
        seq = build_min_consecutive_schedule(dist(0.674, 0.326), 500)
        assert seq.counts().tolist() == [337, 163]
        assert max_run_length(seq) == 3

    def test_bunches_less_than_sampling(self):
        q = dist(0.674, 0.326)
        built = build_min_consecutive_schedule(q, 500)
        sampled = sample_stochastic_schedule(q, 500, seed=11)
        assert max_run_length(built) < max_run_length(sampled)

    @pytest.mark.parametrize("n0, n1", [(1, 1), (3, 2), (5, 1), (4, 4), (7, 3), (6, 2), (9, 1)])
    def test_optimal_for_two_targets(self, n0, n1):
        L = n0 + n1
        seq = build_min_consecutive_schedule(dist(n0 / L, n1 / L), L)
        assert seq.counts().tolist() == [n0, n1]
        assert max_run_length(seq) == brute_force_best_run(n0, n1)

    def test_two_target_run_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n0 = int(rng.integers(1, 60))
            n1 = int(rng.integers(1, 60))
            seq, _ = _interleave(np.array([n0, n1]))
            hi, lo = max(n0, n1), min(n0, n1)
            assert max_run_length(np.array(seq)) <= -(-hi // (lo + 1)) + 1

    def test_linear_operation_count(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            w = rng.uniform(0.4, 3.0, size=n)
            L = int(rng.integers(10 * n, 600))
            try:
                counts = _apportion_counts(dist(*(w / w.sum())), L)
            except ValueError:
                continue
            seq, ops = _interleave(counts)
            assert len(seq) == L
            assert ops <= 4 * L

    def test_rejects_short_length(self):
        with pytest.raises(ValueError):
            build_min_consecutive_schedule(dist(0.5, 0.5), 0)


class TestStochasticSchedule:
    def test_deterministic_per_seed(self):
        q = dist(0.674, 0.326)
        a = sample_stochastic_schedule(q, 200, seed=5)
        b = sample_stochastic_schedule(q, 200, seed=5)
        c = sample_stochastic_schedule(q, 200, seed=6)
        assert np.array_equal(a.steps, b.steps)
        assert not np.array_equal(a.steps, c.steps)

    def test_frequencies_approach_q(self):
        q = dist(0.0649, 0.1612, 0.7739)
        seq = sample_stochastic_schedule(q, 100_000, seed=0)
        freq = seq.counts() / len(seq)
        assert np.abs(freq - q.q).max() < 0.01

    def test_rejects_short_length(self):
        with pytest.raises(ValueError):
            sample_stochastic_schedule(dist(1.0), 0, seed=0)


class TestCsmaSchedule:
    def test_deterministic_per_seed(self):
        q = dist(0.5, 0.5)
        a = simulate_csma_schedule(q, 300, seed=1)
        b = simulate_csma_schedule(q, 300, seed=1)
        assert np.array_equal(a.steps, b.steps)

    def test_balanced_pair_frequencies(self):
        seq = simulate_csma_schedule(dist(0.5, 0.5), 10_000, seed=2)
        freq = seq.counts() / len(seq)
        assert np.abs(freq - 0.5).max() < 0.02

    def test_skewed_trio_frequencies(self):
        q = dist(0.0649, 0.1612, 0.7739)
        seq = simulate_csma_schedule(q, 10_000, seed=3)
        freq = seq.counts() / len(seq)
        assert np.abs(freq - q.q).max() < 0.02

    def test_equal_timers_collide_and_resolve(self):
        # the equal timers expire together in the first period, and the
        # jittered redraw must hand it to one of them
        seq = simulate_csma_schedule(dist(0.5, 0.5), 50, seed=4)
        assert len(seq) == 50
        assert set(np.unique(seq.steps)) <= {0, 1}

    @pytest.mark.parametrize(
        "probs, digest",
        [
            # each of the first two pins one collision's resolution
            ((0.5, 0.5), "b409f4c492389c86"),
            ((0.2, 0.3, 0.5), "0d179c23dd821efb"),
            ((0.6739520248317206, 0.3260479751682795), "804ce928b3154aac"),
        ],
        ids=["even-pair", "trio", "readme-q-star"],
    )
    def test_sequence_is_pinned(self, probs, digest):
        # recorded with timers alpha / q_i at alpha = 0.01: the race never
        # compared a timer with the period, so the unit cannot matter
        seq = simulate_csma_schedule(dist(*probs), 2000, seed=1)
        assert hashlib.sha256(seq.steps.tobytes()).hexdigest()[:16] == digest

    @settings(max_examples=40, deadline=None)
    @given(probs=timer_probabilities(), duration=st.integers(1, 10_000),
           seed=st.integers(0, 2**63 - 1))
    # 0.674 / 0.326 collide in period 499, when both timers expire at 500
    @example(probs=(0.674, 0.326), duration=1000, seed=1)
    def test_equals_the_race_bit_for_bit(self, probs, duration, seed):
        seq = simulate_csma_schedule(dist(*probs), duration, seed)
        assert np.array_equal(seq.steps, race_reference(probs, duration, seed))

    def test_readme_q_star_takes_the_lattice_merge(self, monkeypatch):
        def no_race(*args):
            raise AssertionError("the race ran")

        monkeypatch.setattr(schedule, "_race", no_race)
        q_star = (0.6739520248317206, 0.3260479751682795)
        seq = simulate_csma_schedule(dist(*q_star), 10_000, seed=1)
        assert np.array_equal(seq.steps, race_reference(q_star, 10_000, seed=1))

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError, match="positive"):
            simulate_csma_schedule(dist(1.0, 0.0), 10, seed=0)

    def test_accepts_probabilities_below_the_default_jitter(self):
        # q* puts cheap stable targets at a floor of 1e-5, below 1e-3; the
        # two equal timers collide in the first period and must resolve
        q = dist(0.5 - 1e-5, 0.5 - 1e-5, 1e-5, 1e-5)
        seq = simulate_csma_schedule(q, 2000, seed=1)
        assert len(seq) == 2000
        assert set(np.unique(seq.steps)) <= {0, 1, 2, 3}
        assert seq.counts()[:2].min() >= 900

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(duration=-5),
            dict(duration=0),
            dict(duration=float("nan")),
            dict(seed=-1),
            dict(q=dist(0.5, 0.5, 0.0)),
        ],
    )
    def test_config_validation(self, kwargs):
        args = dict(q=dist(0.5, 0.5), duration=10, seed=0) | kwargs
        with pytest.raises(ValueError):
            simulate_csma_schedule(**args)


class TestSequenceFiles:
    def test_round_trip(self, tmp_path):
        seq = build_min_consecutive_schedule(dist(0.5, 0.3, 0.2), 10)
        path = tmp_path / "seq.txt"
        write_sequence(seq, path)
        back = read_sequence(path)
        assert np.array_equal(back.steps, seq.steps)
        assert back.n_targets == seq.n_targets

    def test_header_is_human_readable(self, tmp_path):
        seq = ScheduleSequence(steps=[0, 1, 0], n_targets=2)
        path = tmp_path / "seq.txt"
        write_sequence(seq, path)
        assert path.read_text().splitlines()[0] == "# L=3 N=2"

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n1\n")
        with pytest.raises(ValueError, match="header"):
            read_sequence(path)

    @pytest.mark.parametrize("header", ["# L=2", "# L=2 X=2"])
    def test_rejects_incomplete_header(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n0\n1\n")
        with pytest.raises(ValueError, match="not a schedule file"):
            read_sequence(path)

    def test_rejects_length_mismatch(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("# L=5 N=2\n0\n1\n")
        with pytest.raises(ValueError, match="L=5"):
            read_sequence(path)