"""Content-request workload generation.

The paper's evaluation states that "the content requested by the UV to the
RSU is randomly generated".  This module turns that into a configurable
workload generator: every slot, each RSU receives a random number of
requests, each for one of the contents that RSU caches.  Three arrival
processes and two popularity profiles cover the paper's setup plus the
workload-sensitivity extensions.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError
from repro.net.content import ContentCatalog, zipf_popularity
from repro.net.topology import RoadTopology
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_non_negative, check_probability


@dataclass(frozen=True)
class Request:
    """A single content request issued by a UV to an RSU.

    Attributes
    ----------
    request_id:
        Globally unique identifier.
    time_slot:
        Slot in which the request was issued.
    rsu_id:
        The RSU the request was sent to.
    content_id:
        The requested content.
    vehicle_id:
        The issuing vehicle, or ``-1`` when the workload is generated
        synthetically without an explicit fleet.
    deadline:
        Latest slot by which the request must be served (for example because
        the vehicle leaves RSU coverage then); ``None`` means no deadline.
    """

    request_id: int
    time_slot: int
    rsu_id: int
    content_id: int
    vehicle_id: int = -1
    deadline: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time_slot < 0:
            raise ValidationError(f"time_slot must be >= 0, got {self.time_slot}")
        if self.rsu_id < 0:
            raise ValidationError(f"rsu_id must be >= 0, got {self.rsu_id}")
        if self.content_id < 0:
            raise ValidationError(f"content_id must be >= 0, got {self.content_id}")
        if self.deadline is not None and self.deadline < self.time_slot:
            raise ValidationError(
                f"deadline ({self.deadline}) must be >= time_slot ({self.time_slot})"
            )


class ArrivalProcess(abc.ABC):
    """Number of requests arriving at one RSU in one slot."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> int:
        """Draw the number of arrivals for one RSU in one slot."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected number of arrivals per RSU per slot."""


class BernoulliArrivals(ArrivalProcess):
    """Zero or one request per slot with probability *rate* — the paper's setup."""

    def __init__(self, rate: float = 0.5) -> None:
        self._rate = check_probability(rate, "rate")

    @property
    def rate(self) -> float:
        """Per-slot arrival probability."""
        return self._rate

    @property
    def mean(self) -> float:
        return self._rate

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.random() < self._rate)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"BernoulliArrivals(rate={self._rate:g})"


class PoissonArrivals(ArrivalProcess):
    """Poisson-distributed request count per slot with mean *rate*."""

    def __init__(self, rate: float = 1.0) -> None:
        self._rate = check_non_negative(rate, "rate")

    @property
    def rate(self) -> float:
        """Mean arrivals per slot."""
        return self._rate

    @property
    def mean(self) -> float:
        return self._rate

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.poisson(self._rate))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"PoissonArrivals(rate={self._rate:g})"


class DeterministicArrivals(ArrivalProcess):
    """Exactly *count* requests per slot — useful for worst-case load tests."""

    def __init__(self, count: int = 1) -> None:
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        self._count = int(count)

    @property
    def count(self) -> int:
        """Fixed number of arrivals per slot."""
        return self._count

    @property
    def mean(self) -> float:
        return float(self._count)

    def sample(self, rng: np.random.Generator) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"DeterministicArrivals(count={self._count})"


@dataclass(frozen=True)
class WorkloadHorizon:
    """A whole horizon of per-slot request arrivals, packed into flat arrays.

    Produced by :meth:`RequestGenerator.generate_horizon`; the vectorised
    and seed-batched simulator loops consume it instead of calling back into
    the workload model every slot.  Arrival batches are stored in generation
    order — one batch per (slot, RSU-with-arrivals) pair — with CSR-style
    pointer arrays, so reading one slot is pure array slicing.

    Attributes
    ----------
    num_slots, num_rsus:
        Shape of the horizon.
    batch_rsus:
        RSU id of each arrival batch, in generation order.
    batch_ptr:
        ``batch_ptr[i]:batch_ptr[i+1]`` slices :attr:`content_ids` to the
        contents requested by batch ``i``.
    content_ids:
        All requested content ids, concatenated across batches.
    slot_ptr:
        ``slot_ptr[t]:slot_ptr[t+1]`` is the range of batch indices issued
        in slot ``t``.
    """

    num_slots: int
    num_rsus: int
    batch_rsus: np.ndarray
    batch_ptr: np.ndarray
    content_ids: np.ndarray
    slot_ptr: np.ndarray

    @property
    def total_requests(self) -> int:
        """Total number of requests over the horizon."""
        return int(self.content_ids.size)

    def slot_batches(self, time_slot: int) -> List[Tuple[int, np.ndarray]]:
        """Return slot *time_slot*'s arrivals as ``(rsu_id, content_ids)`` pairs.

        The pairs carry array *views* into the packed horizon, in the same
        order :meth:`RequestGenerator.generate_slot_contents` would produce
        them — bit for bit.
        """
        if not 0 <= time_slot < self.num_slots:
            raise ValidationError(
                f"time_slot {time_slot} outside horizon [0, {self.num_slots})"
            )
        start, stop = int(self.slot_ptr[time_slot]), int(self.slot_ptr[time_slot + 1])
        return [
            (
                int(self.batch_rsus[i]),
                self.content_ids[self.batch_ptr[i] : self.batch_ptr[i + 1]],
            )
            for i in range(start, stop)
        ]

    def counts(self) -> np.ndarray:
        """Arrival counts as a dense ``(num_slots, num_rsus)`` matrix."""
        slots = np.repeat(np.arange(self.num_slots), np.diff(self.slot_ptr))
        matrix = np.zeros((self.num_slots, self.num_rsus), dtype=int)
        np.add.at(
            matrix.reshape(-1),
            slots * self.num_rsus + self.batch_rsus,
            np.diff(self.batch_ptr),
        )
        return matrix


#: Tolerance of ``Generator.choice`` on the sum of its probabilities.
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _choice_cdf(weights: np.ndarray, size: int) -> np.ndarray:
    """The normalised CDF ``Generator.choice(size, p=weights)`` samples from.

    Applies ``choice``'s own checks on *weights* (one-dimensional, *size*
    entries, no NaN, non-negative, summing to 1 within its tolerance) and
    raises the same ``ValueError`` on a violation.  The checks read the
    total off the unnormalised CDF rather than a separate compensated sum;
    the two differ by rounding far below the tolerance.
    """
    p = np.ascontiguousarray(weights, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if p.size != size:
        raise ValueError("a and p must have same size")
    cdf = p.cumsum()
    total = float(cdf[-1])
    if total != total:
        raise ValueError("probabilities contain NaN")
    if np.minimum.reduce(p) < 0:
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _CHOICE_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf /= total
    return cdf


#: RSU-slots sampled per block by the block sampler; bounds its temporaries.
_BLOCK_CELLS = 1 << 16


def _is_base(method, function) -> bool:
    """Whether the bound *method* runs *function*, unpatched and not overridden."""
    return getattr(method, "__func__", None) is function


def _arrival_draws(hit: np.ndarray, cells: int) -> np.ndarray:
    """Block positions of the first *cells* arrival draws of a Bernoulli stream.

    The per-slot core draws one arrival double per ``(slot, RSU)`` cell and,
    when it hits, one content double right after it.  So position ``p`` of
    the block is an arrival draw unless ``p - 1`` was an arrival draw that
    hit: after a miss the next draw is an arrival, and along a run of hits
    arrival and content draws alternate.  Position ``p`` is therefore an
    arrival draw exactly when ``p`` lies an odd distance past the last miss
    before it (``-1`` when there is none).
    """
    positions = np.arange(hit.size)
    last_miss = np.empty(hit.size, dtype=positions.dtype)
    last_miss[0] = -1
    np.maximum.accumulate(np.where(hit, -1, positions)[:-1], out=last_miss[1:])
    return np.flatnonzero((positions - last_miss) & 1)[:cells]


class RequestGenerator:
    """Generates per-RSU request batches for each simulation slot.

    Each slot, every RSU independently draws an arrival count from the
    arrival process and then draws that many content ids from the RSU's
    local popularity distribution (restricted to the contents the RSU
    caches, per the paper's "only the content of the region covered by the
    RSU is cached").

    This class is also the sampling engine behind :mod:`repro.workloads`:
    non-stationary request-process models subclass it and override the
    :meth:`_advance_to` / :meth:`_weights` hooks to evolve the per-RSU
    popularity over time, inheriting the exact per-slot RNG draw discipline
    that keeps the scalar, vectorised, and seed-batched simulator loops on
    identical workloads.

    Parameters
    ----------
    topology:
        Road geometry; defines which contents each RSU can be asked for.
    catalog:
        Content catalog providing the global popularity profile.
    arrivals:
        Arrival process applied independently at every RSU.
    zipf_exponent:
        When not ``None``, overrides the catalog popularity with a Zipf
        profile of this exponent over each RSU's local contents.
    rng:
        Seed or generator for the workload.
    """

    def __init__(
        self,
        topology: RoadTopology,
        catalog: ContentCatalog,
        *,
        arrivals: Optional[ArrivalProcess] = None,
        zipf_exponent: Optional[float] = None,
        rng: RandomSource = None,
    ) -> None:
        if catalog.num_contents != topology.num_regions:
            raise ConfigurationError(
                f"catalog has {catalog.num_contents} contents but topology has "
                f"{topology.num_regions} regions; the paper's model requires one "
                "content per region"
            )
        self._topology = topology
        self._catalog = catalog
        self._arrivals = arrivals or BernoulliArrivals(0.5)
        self._rng = ensure_rng(rng)
        self._id_counter = itertools.count()
        self._local_popularity: Dict[int, np.ndarray] = {}
        # Each RSU's contents as an integer row, so the hot path can
        # fancy-index the chosen contents instead of round-tripping through
        # a Python list comprehension.
        self._local_content_arrays: Dict[int, np.ndarray] = {}
        # Per-RSU ``(weights, cdf)`` of the content sampler; see _slot_batches.
        self._cdfs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        contents = topology.rsu_contents
        if zipf_exponent is None:
            weights = catalog.subset_popularity(contents)
        else:
            weights = np.tile(
                zipf_popularity(contents.shape[1], zipf_exponent), (len(contents), 1)
            )
        # Each row is a distribution by construction; dividing by its sum
        # once more is the renormalisation check_probability_vector applies.
        weights = weights / weights.sum(axis=1, keepdims=True)
        for k, rsu in enumerate(topology.rsus):
            self._local_content_arrays[rsu.rsu_id] = contents[k]
            self._local_popularity[rsu.rsu_id] = weights[k]

    @property
    def arrivals(self) -> ArrivalProcess:
        """The arrival process applied at each RSU."""
        return self._arrivals

    def content_population(self, rsu_id: int) -> Dict[int, float]:
        """Return ``{content_id: probability}`` for RSU *rsu_id*.

        This is the content-population term ``p_{k,h}(t)`` of the MDP state
        and of the Eq. (2) reward: the weight the MBS puts on keeping each
        RSU content fresh, proportional to how often it is requested.
        """
        contents = self._local_content_arrays[self._check_rsu(rsu_id)]
        return dict(zip(contents.tolist(), self._local_popularity[rsu_id].tolist()))

    def popularity_matrix(self) -> np.ndarray:
        """:meth:`content_population` of every RSU, one row each in topology order."""
        return np.stack(
            [self._local_popularity[rsu.rsu_id] for rsu in self._topology.rsus]
        )

    # ------------------------------------------------------------------
    # Hooks for non-stationary request-process models (repro.workloads)
    # ------------------------------------------------------------------
    def _advance_to(self, time_slot: int) -> None:
        """Evolve internal workload state up to *time_slot*.

        The stationary generator has no evolving state and draws nothing
        here — which is what keeps its RNG stream byte-identical to the
        pre-workload-subsystem behaviour.  Non-stationary subclasses advance
        a slot cursor and draw their evolution variates from ``self._rng``;
        because every execution mode samples slots in the same order, the
        draw sequence stays identical across modes.
        """

    def _weights(self, rsu_id: int, time_slot: int) -> np.ndarray:
        """Popularity over RSU *rsu_id*'s contents in effect at *time_slot*.

        The sampler caches each RSU's cumulative distribution keyed on the
        identity of the returned array, so a changed popularity must be
        returned as a new array — never by mutating the previous one in
        place.
        """
        return self._local_popularity[rsu_id]

    def _slot_batches(self, time_slot: int) -> List[Tuple[int, np.ndarray]]:
        """Sample one slot's arrivals: the per-slot RNG-drawing core.

        Every public generation method funnels through here, except
        :meth:`generate_horizon` on the block path, which reads the same
        doubles a block at a time.  So all of them perform exactly the same
        draws in exactly the same order: first the state evolution of
        :meth:`_advance_to`, then per RSU (in topology order) one
        arrival-count sample, then one content draw when that RSU has
        arrivals.

        The content draw is ``Generator.choice(n, size=count, p=weights)``
        spelled out as numpy computes it — inverse-CDF lookups of ``count``
        uniforms — on a per-RSU cumulative distribution cached until
        :meth:`_weights` returns a different array, so it yields the same
        indices and leaves the generator in the same state.
        """
        if time_slot < 0:
            raise ValidationError(f"time_slot must be >= 0, got {time_slot}")
        self._advance_to(time_slot)
        rng = self._rng
        cdfs = self._cdfs
        batches: List[Tuple[int, np.ndarray]] = []
        for rsu in self._topology.rsus:
            count = self._arrivals.sample(rng)
            if count <= 0:
                continue
            rsu_id = rsu.rsu_id
            contents = self._local_content_arrays[rsu_id]
            weights = self._weights(rsu_id, time_slot)
            cached = cdfs.get(rsu_id)
            if cached is None or cached[0] is not weights:
                cached = cdfs[rsu_id] = (weights, _choice_cdf(weights, contents.size))
            chosen = cached[1].searchsorted(rng.random(count), side="right")
            batches.append((rsu_id, contents[chosen]))
        return batches

    def generate_slot(
        self,
        time_slot: int,
        *,
        deadline_slots: Optional[int] = None,
    ) -> List[Request]:
        """Generate all requests issued in *time_slot* across all RSUs."""
        requests: List[Request] = []
        deadline = (
            None if deadline_slots is None else int(time_slot + deadline_slots)
        )
        for rsu_id, content_ids in self._slot_batches(time_slot):
            for content_id in content_ids:
                requests.append(
                    Request(
                        request_id=next(self._id_counter),
                        time_slot=int(time_slot),
                        rsu_id=rsu_id,
                        content_id=int(content_id),
                        deadline=deadline,
                    )
                )
        return requests

    def generate_slot_contents(self, time_slot: int) -> List[Tuple[int, np.ndarray]]:
        """Generate one slot's arrivals as ``(rsu_id, content_ids)`` pairs.

        This is the allocation-free twin of :meth:`generate_slot` used by the
        vectorised simulators: it performs *exactly* the same RNG draws in
        exactly the same order (one arrival-count sample per RSU, then one
        ``choice`` call per RSU with arrivals), so a run consuming this
        method sees the same workload, bit for bit, as one consuming
        :meth:`generate_slot` — it just skips building per-request
        :class:`Request` objects.
        """
        return self._slot_batches(time_slot)

    def generate_horizon(self, num_slots: int) -> WorkloadHorizon:
        """Precompute *num_slots* slots of arrivals as one packed tensor.

        Performs the identical draw sequence as *num_slots* successive
        :meth:`generate_slot_contents` calls and packs the batches into flat
        arrays, so the simulator hot loops can replay the workload with pure
        array slicing — no per-slot calls back into the workload model.

        Bernoulli arrivals on a ``PCG64`` generator, with per-slot hooks
        that draw nothing and keep the static popularity, take the block
        sampler (:meth:`_block_horizon`): it reads the same doubles the
        per-slot core would from a few large draws and leaves the generator
        in the same state.  Every other model, arrival process or bit
        generator runs the per-slot core slot by slot.
        """
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be > 0, got {num_slots}")
        if self._block_drawable():
            # The hooks draw nothing; running them up front leaves a slot
            # cursor where the per-slot loop would.
            self._advance_to(int(num_slots) - 1)
            return self._block_horizon(int(num_slots))
        batch_rsus: List[int] = []
        batch_sizes: List[int] = [0]
        chunks: List[np.ndarray] = []
        slot_ptr = np.zeros(int(num_slots) + 1, dtype=int)
        for t in range(int(num_slots)):
            batches = self._slot_batches(t)
            slot_ptr[t + 1] = slot_ptr[t] + len(batches)
            for rsu_id, content_ids in batches:
                batch_rsus.append(rsu_id)
                batch_sizes.append(int(content_ids.size))
                chunks.append(content_ids)
        return WorkloadHorizon(
            num_slots=int(num_slots),
            num_rsus=self._topology.num_rsus,
            batch_rsus=np.asarray(batch_rsus, dtype=int),
            batch_ptr=np.cumsum(batch_sizes, dtype=int),
            content_ids=(
                np.concatenate(chunks) if chunks else np.zeros(0, dtype=int)
            ),
            slot_ptr=slot_ptr,
        )

    def _static_hooks(self) -> bool:
        """Whether :meth:`_advance_to` draws nothing and :meth:`_weights` is static.

        Compared on the bound methods, so an override on a subclass or a
        patch on one instance counts as a hook that may draw.
        """
        return _is_base(self._advance_to, RequestGenerator._advance_to) and _is_base(
            self._weights, RequestGenerator._weights
        )

    def _block_drawable(self) -> bool:
        """Whether :meth:`generate_horizon` may take the block sampler."""
        return (
            type(self._arrivals) is BernoulliArrivals
            and type(self._rng.bit_generator) is np.random.PCG64
            and _is_base(self._slot_batches, RequestGenerator._slot_batches)
            and self._static_hooks()
        )

    def _block_horizon(self, num_slots: int) -> WorkloadHorizon:
        """The horizon of the per-slot core, drawn a block of slots at a time.

        For each block: save the ``PCG64`` state, draw two doubles per
        ``(slot, RSU)`` cell (the most the cells can consume), find the
        arrival and content draws among them (:func:`_arrival_draws`),
        then restore the state and ``advance`` it past the doubles the
        cells consumed.  Each double is one 64-bit step of ``PCG64``, so
        the generator ends exactly where the per-slot draws leave it.
        Blocks join exactly because every slot begins with an arrival draw.

        The content draws then run through the per-slot core's cached CDFs
        with the same ``searchsorted(side="right")``, building a CDF only
        for RSUs that drew, in the order they first drew.
        """
        rsus = self._topology.rsus
        num_rsus = len(rsus)
        rate = self._arrivals.rate
        rng = self._rng
        bit_generator = rng.bit_generator
        block_slots = max(1, _BLOCK_CELLS // num_rsus)
        hit_cells: List[np.ndarray] = []
        content_draws: List[np.ndarray] = []
        for start in range(0, num_slots, block_slots):
            cells = (min(start + block_slots, num_slots) - start) * num_rsus
            saved = bit_generator.state
            block = rng.random(2 * cells)
            hit = block < rate
            arrivals = _arrival_draws(hit, cells)
            hits = np.flatnonzero(hit[arrivals])
            hit_cells.append(hits + start * num_rsus)
            content_draws.append(block[arrivals[hits] + 1])
            bit_generator.state = saved
            bit_generator.advance(int(arrivals[-1]) + 1 + int(hit[arrivals[-1]]))
            if saved["has_uint32"]:
                # advance() drops the buffered half-draw; doubles never use it.
                state = bit_generator.state
                state["has_uint32"] = saved["has_uint32"]
                state["uinteger"] = saved["uinteger"]
                bit_generator.state = state
        cell_ids = np.concatenate(hit_cells)
        draws = np.concatenate(content_draws)
        slots, positions = np.divmod(cell_ids, num_rsus)
        rsu_ids = np.asarray([rsu.rsu_id for rsu in rsus], dtype=int)
        content_ids = np.zeros(cell_ids.size, dtype=int)
        order = np.argsort(positions, kind="stable")
        bounds = np.searchsorted(positions, np.arange(num_rsus + 1), sorter=order)
        drew, first = np.unique(positions, return_index=True)
        cdfs = self._cdfs
        for j in np.argsort(first):
            k, rsu_id = drew[j], int(rsu_ids[drew[j]])
            contents = self._local_content_arrays[rsu_id]
            weights = self._weights(rsu_id, int(slots[first[j]]))
            cached = cdfs.get(rsu_id)
            if cached is None or cached[0] is not weights:
                cached = cdfs[rsu_id] = (weights, _choice_cdf(weights, contents.size))
            group = order[bounds[k] : bounds[k + 1]]
            chosen = cached[1].searchsorted(draws[group], side="right")
            content_ids[group] = contents[chosen]
        slot_ptr = np.zeros(num_slots + 1, dtype=int)
        np.cumsum(np.bincount(slots, minlength=num_slots), out=slot_ptr[1:])
        return WorkloadHorizon(
            num_slots=num_slots,
            num_rsus=self._topology.num_rsus,
            batch_rsus=rsu_ids[positions],
            batch_ptr=np.arange(cell_ids.size + 1, dtype=int),
            content_ids=content_ids,
            slot_ptr=slot_ptr,
        )

    def generate_trace(
        self, num_slots: int, *, deadline_slots: Optional[int] = None
    ) -> List[Request]:
        """Generate a full request trace of *num_slots* slots."""
        if num_slots <= 0:
            raise ValidationError(f"num_slots must be > 0, got {num_slots}")
        trace: List[Request] = []
        for t in range(int(num_slots)):
            trace.extend(self.generate_slot(t, deadline_slots=deadline_slots))
        return trace

    def _check_rsu(self, rsu_id: int) -> int:
        if rsu_id not in self._local_content_arrays:
            raise ValidationError(f"unknown RSU id {rsu_id}")
        return int(rsu_id)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"RequestGenerator(num_rsus={self._topology.num_rsus}, "
            f"arrivals={self._arrivals!r})"
        )
