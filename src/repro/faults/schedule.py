"""Deterministic seeded schedules driving every impairment model.

Reproducibility is the whole point of a fault-injection layer: a bug
found at fault seed 7 must replay sample-for-sample.  A
:class:`FaultSchedule` is a single integer seed from which every
impairment draws its randomness through *labelled* child streams, so

* two runs with the same seed see identical faults,
* two impairments in the same run (labelled differently) are
  statistically independent, and
* resetting a fault stage replays its exact fault sequence.

Two small processes cover the temporal patterns the impairments need:
:class:`BurstProcess` (Poisson-arrival bursts on the absolute sample
axis, invariant to how the stream is chunked into blocks) and
:class:`PacketLossProcess` (per-packet Bernoulli loss indexed by packet
number, for sounding/feedback drops).
"""

from __future__ import annotations

import zlib

import numpy as np


def _label_words(labels):
    """Stable 32-bit words for arbitrary labels (no builtin ``hash``)."""
    words = []
    for label in labels:
        if isinstance(label, (int, np.integer)):
            words.append(int(label) & 0xFFFFFFFF)
        else:
            words.append(zlib.crc32(str(label).encode("utf-8")))
    return words


class FaultSchedule:
    """A seeded, labelled source of impairment randomness.

    ``stream(*labels)`` returns an independent deterministic generator
    per label tuple; every impairment model takes a schedule plus a
    label instead of a raw RNG, so one seed reproduces an entire
    multi-impairment scenario.
    """

    def __init__(self, seed=0):
        self.seed = int(seed) & (2**63 - 1)

    def stream(self, *labels):
        """A deterministic child generator for this label tuple."""
        return np.random.default_rng(
            np.random.SeedSequence([self.seed] + _label_words(labels)))

    def bernoulli(self, p, *labels):
        """One deterministic coin flip with probability ``p``."""
        return bool(self.stream(*labels).random() < float(p))

    def bursts(self, label, rate_per_sample, mean_duration_samples=1):
        """A :class:`BurstProcess` seeded from this schedule."""
        return BurstProcess(self.stream(label, "bursts"), rate_per_sample,
                            mean_duration_samples)

    def __repr__(self):
        return f"FaultSchedule(seed={self.seed})"


class BurstProcess:
    """Poisson-arrival bursts on the absolute sample axis.

    Arrivals follow an exponential inter-arrival law with mean
    ``1 / rate_per_sample``; each burst lasts a geometric number of
    samples with the given mean.  Bursts are generated lazily and
    consumed strictly left to right, so querying the mask in any block
    sizes yields identical per-sample faults — chunking invariance, the
    same contract the streaming runtime keeps for signal processing.
    """

    def __init__(self, rng, rate_per_sample, mean_duration_samples=1):
        rate = float(rate_per_sample)
        mean_dur = float(mean_duration_samples)
        if rate < 0:
            raise ValueError(f"rate_per_sample must be >= 0, got {rate}")
        if mean_dur < 1:
            raise ValueError(
                f"mean_duration_samples must be >= 1, got {mean_dur}")
        self._rng = rng
        self._rate = rate
        self._mean_duration = mean_dur
        self._windows = []         # (start, stop) half-open, sample indices
        self._next_start = self._gap()

    def _gap(self):
        if self._rate <= 0:
            return float("inf")
        return self._rng.exponential(1.0 / self._rate)

    def _duration(self):
        if self._mean_duration <= 1.0:
            return 1
        return int(self._rng.geometric(1.0 / self._mean_duration))

    def _extend(self, upto):
        while self._next_start < upto:
            start = int(self._next_start)
            duration = self._duration()
            self._windows.append((start, start + duration))
            # Bursts never overlap: the next one starts after this one.
            self._next_start = start + duration + self._gap()

    def mask(self, start, count):
        """Boolean fault mask for absolute samples [start, start+count)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._extend(start + count)
        mask = np.zeros(count, dtype=bool)
        keep = []
        for (a, b) in self._windows:
            if b <= start:
                continue               # burst fully consumed — prune
            keep.append((a, b))
            lo, hi = max(a - start, 0), min(b - start, count)
            if lo < hi:
                mask[lo:hi] = True
        self._windows = keep
        return mask


class PacketLossProcess:
    """Per-packet Bernoulli loss, deterministic in the packet index.

    Models probabilistic sounding/feedback loss: whether poll reply
    ``k`` is lost depends only on (seed, label, k), so replaying an
    experiment — or evaluating supervised and unsupervised policies on
    the *same* fault trace — sees the same losses in the same places.
    """

    def __init__(self, schedule: FaultSchedule, loss_probability,
                 label="packet-loss"):
        p = float(loss_probability)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss_probability must be in [0, 1], got {p}")
        self._schedule = schedule
        self._p = p
        self._label = label

    @property
    def loss_probability(self):
        """The per-packet loss probability."""
        return self._p

    def lost(self, index):
        """Whether packet ``index`` is lost."""
        return self._schedule.bernoulli(self._p, self._label, int(index))

    def delivered(self, index):
        """Whether packet ``index`` arrives."""
        return not self.lost(index)
