"""Random-number management.

All stochastic components of the library accept either an integer seed, a
:class:`numpy.random.Generator`, or ``None``.  :func:`ensure_rng` normalises
those three possibilities into a generator, and :func:`spawn_streams` derives
independent child streams so that, for example, the request workload and the
channel-cost noise never share a stream and therefore never perturb each
other's sequences when one of them draws a different number of variates.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import ValidationError

#: Anything acceptable as a seed argument throughout the library.
RandomSource = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(source: RandomSource = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *source*.

    Parameters
    ----------
    source:
        ``None`` (fresh unpredictable generator), an ``int`` seed, a
        :class:`numpy.random.SeedSequence`, or an existing generator
        (returned unchanged).

    Raises
    ------
    ValidationError
        If *source* is of an unsupported type.
    """
    if source is None:
        return np.random.default_rng()
    if isinstance(source, np.random.Generator):
        return source
    if isinstance(source, np.random.SeedSequence):
        return np.random.default_rng(source)
    if isinstance(source, (int, np.integer)):
        if source < 0:
            raise ValidationError(f"seed must be non-negative, got {source}")
        return np.random.default_rng(int(source))
    raise ValidationError(
        f"unsupported random source type: {type(source).__name__}"
    )


def spawn_run_seeds(base_seed: int, count: int) -> list:
    """Derive *count* distinct integer scenario seeds from *base_seed*.

    The first seed is *base_seed* itself, so a single-seed run is identical
    to passing the base seed directly; the remaining seeds come from
    independent :class:`numpy.random.SeedSequence` children, so the runs of
    a multi-seed batch never share RNG streams regardless of how the work is
    split across worker processes.  The derivation is deterministic: the
    same ``(base_seed, count)`` always yields the same seed list.
    """
    if not isinstance(base_seed, (int, np.integer)) or base_seed < 0:
        raise ValidationError(
            f"base_seed must be a non-negative integer, got {base_seed!r}"
        )
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    seeds = [int(base_seed)]
    children = np.random.SeedSequence(int(base_seed)).spawn(count - 1)
    for child in children:
        seed = int(child.generate_state(2, dtype=np.uint64)[0] >> 1)
        # Astronomically unlikely, but keep the guarantee airtight: nudge
        # forward past any collision with an already-issued seed.
        while seed in seeds:
            seed += 1
        seeds.append(seed)
    return seeds


def spawn_streams(source: RandomSource, count: int) -> list:
    """Derive *count* independent generators from *source*.

    The child streams are statistically independent regardless of how many
    variates each consumer draws, which keeps experiments reproducible when a
    single component changes its sampling pattern.
    """
    if count < 0:
        raise ValidationError(f"count must be non-negative, got {count}")
    if isinstance(source, np.random.Generator):
        # Spawn through the generator's bit generator seed sequence.
        seed_seq = source.bit_generator.seed_seq
        if seed_seq is None:  # pragma: no cover - legacy generators only
            return [np.random.default_rng(source.integers(2**63)) for _ in range(count)]
        children = seed_seq.spawn(count)
        return [np.random.default_rng(child) for child in children]
    if isinstance(source, np.random.SeedSequence):
        return [np.random.default_rng(child) for child in source.spawn(count)]
    if source is None:
        seed_seq = np.random.SeedSequence()
    else:
        if not isinstance(source, (int, np.integer)) or source < 0:
            raise ValidationError(
                f"unsupported random source for spawning: {source!r}"
            )
        seed_seq = np.random.SeedSequence(int(source))
    return [np.random.default_rng(child) for child in seed_seq.spawn(count)]
