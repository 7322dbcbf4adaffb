"""Reference implementations of the two classical benchmarks:
combinatorial optimisation (CO) and an exact factorial hidden Markov
model (FHMM) decoded by Viterbi over the joint state space.

Both are deterministic given the fitted state models.  CO fits each
timestep independently; the FHMM decodes the jointly most probable
state path, with Gaussian emissions whose mean and variance are the
sums of the per-appliance state means and variances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .sliding import EstimateSeries
from .timeseries import PowerSeries

CO_MAX_COMBINATIONS = 1_000_000
CO_BLOCK = 1 << 18  # elements per residual block (samples x combinations)
FHMM_MAX_JOINT_STATES = 4096
EMISSION_BLOCK = 512  # FHMM timesteps per emission and backpointer block
EMISSION_STD_FLOOR = 10.0


@dataclass(frozen=True)
class ApplianceStateModel:
    """Discrete power states for one appliance; state 0 is always 0 W.

    The Markov fields (transition matrix, initial distribution,
    per-state emission std) are only consumed by the FHMM; CO uses the
    state powers alone.
    """

    appliance_id: str
    state_powers: np.ndarray
    transition: np.ndarray
    initial: np.ndarray
    emission_std: np.ndarray

    def __post_init__(self):
        powers = np.asarray(self.state_powers, dtype=np.float64)
        object.__setattr__(self, "state_powers", powers)
        object.__setattr__(self, "transition", np.asarray(self.transition, dtype=np.float64))
        object.__setattr__(self, "initial", np.asarray(self.initial, dtype=np.float64))
        object.__setattr__(self, "emission_std", np.asarray(self.emission_std, dtype=np.float64))
        k = len(powers)
        if not k or powers[0] != 0.0 or np.any(np.diff(powers) <= 0):
            raise DataError("state powers must start at 0 and increase")
        if self.transition.shape != (k, k) or np.any(np.abs(self.transition.sum(axis=1) - 1) > 1e-9):
            raise DataError("transition matrix must be row-stochastic")
        if self.initial.shape != (k,) or abs(self.initial.sum() - 1) > 1e-9:
            raise DataError("initial distribution must sum to 1")
        if self.emission_std.shape != (k,) or np.any(self.emission_std <= 0):
            raise DataError("emission std must be positive per state")

    @property
    def num_states(self) -> int:
        return len(self.state_powers)

    def to_dict(self) -> dict:
        return {
            "appliance_id": self.appliance_id,
            "state_powers": self.state_powers.tolist(),
            "transition": self.transition.tolist(),
            "initial": self.initial.tolist(),
            "emission_std": self.emission_std.tolist(),
        }


def _distinct(values: np.ndarray) -> np.ndarray:
    """The finite `values` sorted, each once: `np.unique`'s result, which
    would import `numpy.ma` on its first call."""
    ordered = np.sort(values)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def _quantiles(ordered: np.ndarray, q: np.ndarray) -> np.ndarray:
    """`np.quantile(samples, q)` from the sorted samples, with the same
    operations as its default "linear" method: virtual index (n - 1) * q,
    then the lerp from the lower neighbour below a fraction of 0.5 and
    back from the upper one at and above it."""
    virtual = (len(ordered) - 1) * q
    lower = np.floor(virtual).astype(np.intp)
    lower[virtual >= len(ordered) - 1] = -1  # the largest sample, as upper
    upper = np.where(lower < 0, -1, lower + 1)
    gamma = virtual - lower
    below, above = ordered[lower], ordered[upper]
    step = above - below
    return np.where(gamma >= 0.5, above - step * (1 - gamma), below + step * gamma)


def _kmeans_1d(samples: np.ndarray, k: int, iterations: int = 100) -> np.ndarray:
    """Plain Lloyd iteration on sorted 1-D data with quantile init.

    Deterministic; drops clusters that come up empty.
    """
    centroids = _distinct(_quantiles(np.sort(samples), (np.arange(k) + 0.5) / k))
    for _ in range(iterations):
        assignment = np.argmin(np.abs(samples[:, None] - centroids[None, :]), axis=1)
        new = []
        for j in range(len(centroids)):
            members = samples[assignment == j]
            if members.size:
                new.append(members.mean())
        new = _distinct(np.array(new))
        if len(new) == len(centroids) and np.allclose(new, centroids):
            break
        centroids = new
    return np.sort(centroids)


def fit_states(activations, k: int, appliance_id: str = "appliance") -> ApplianceStateModel:
    """Fit a k-state model (state 0 = off) from extracted activations.

    Non-zero state powers come from 1-D k-means over the pooled positive
    samples; transition counts from the quantised sample sequences with
    add-one smoothing; per-state emission std floored at 10 W.  If the
    data has fewer distinct levels than requested, k is reduced with a
    warning.
    """
    if k < 2:
        raise DataError("need k >= 2 states (including off)")
    if not activations:
        raise DataError("cannot fit states from an empty activation list")
    values = np.concatenate([np.asarray(a.values, dtype=np.float64) for a in activations])
    pooled = values[values > 0]
    if pooled.size == 0:
        raise DataError("activations contain no positive samples")

    distinct = _distinct(pooled)
    wanted = k - 1
    if distinct.size < wanted:
        warnings.warn(
            f"{appliance_id}: only {distinct.size} distinct on-levels; "
            f"reducing states from {k} to {distinct.size + 1}")
        wanted = distinct.size
    centroids = _kmeans_1d(pooled, wanted)
    if len(centroids) < wanted:
        warnings.warn(f"{appliance_id}: k-means found {len(centroids)} clusters, not {wanted}")
    powers = np.concatenate([[0.0], centroids])
    n = len(powers)

    # Quantise every sample at once; a transition pair that crosses from
    # one activation into the next is not a transition.  bincount adds each
    # bin's weights in sample order, as a loop over the activations would.
    states = np.argmin(np.abs(values[:, None] - powers[None, :]), axis=1)
    starts = np.zeros(len(values) + 1, dtype=bool)  # where each later activation begins
    starts[np.cumsum([len(a.values) for a in activations])] = True
    within = ~starts[1:len(values)]
    counts = 1 + np.bincount(states[:-1][within] * n + states[1:][within],
                             minlength=n * n).reshape(n, n)  # add-one smoothing
    members = np.bincount(states, minlength=n)
    occupancy = 1 + members
    sums = np.bincount(states, weights=values, minlength=n)
    sq_sums = np.bincount(states, weights=np.square(values), minlength=n)
    with np.errstate(invalid="ignore"):
        variance = np.where(members > 0, sq_sums / np.maximum(members, 1)
                            - np.square(sums / np.maximum(members, 1)), 0.0)
    stds = np.maximum(np.sqrt(np.maximum(variance, 0.0)), EMISSION_STD_FLOOR)

    transition = counts / counts.sum(axis=1, keepdims=True)
    initial = occupancy / occupancy.sum()
    return ApplianceStateModel(appliance_id=appliance_id, state_powers=powers,
                               transition=transition, initial=initial, emission_std=stds)


def _joint_assignments(models):
    """All joint state tuples in lexicographic order, with their total power."""
    dims = [m.num_states for m in models]
    combos = np.indices(dims).reshape(len(dims), -1).T
    totals = np.zeros(len(combos))
    for i, m in enumerate(models):
        totals += m.state_powers[combos[:, i]]
    return combos, totals


def _per_appliance(aggregate: PowerSeries, models, combos, path):
    """{appliance_id: EstimateSeries} on the aggregate's grid, from the
    joint-state `path`: one row index of `combos` per sample."""
    return {m.appliance_id: EstimateSeries(series=PowerSeries(
                aggregate.start_time, aggregate.sample_period, m.state_powers[combos[path, i]]))
            for i, m in enumerate(models)}


def co_disaggregate(aggregate: PowerSeries, models):
    """Per-timestep exhaustive fit of summed state powers to the aggregate.

    Ties in residual go to the lowest total power, then to lexicographic
    state order.  Returns {appliance_id: EstimateSeries}.
    """
    n_combos = int(np.prod([m.num_states for m in models]))
    if n_combos > CO_MAX_COMBINATIONS:
        raise DataError(
            f"{n_combos} joint state combinations exceed the CO guard "
            f"({CO_MAX_COMBINATIONS}); use fewer states per appliance")
    combos, totals = _joint_assignments(models)
    # Sorting by (total, lexicographic) makes argmin's first-hit rule
    # implement the tie-breaking order.
    order = np.lexsort((np.arange(len(combos)), totals))
    combos, totals = combos[order], totals[order]

    y = aggregate.values
    best = np.empty(len(y), dtype=np.int64)
    rows = max(1, CO_BLOCK // n_combos)
    for lo in range(0, len(y), rows):
        residual = y[lo : lo + rows, None] - totals[None, :]
        best[lo : lo + rows] = np.argmin(np.abs(residual, out=residual), axis=1)
    return _per_appliance(aggregate, models, combos, best)


def fhmm_disaggregate(aggregate: PowerSeries, models):
    """Exact Viterbi decoding over the Cartesian product of the chains.

    Joint transition probabilities multiply across appliances; emissions
    are Gaussian with mean = summed state powers and variance = summed
    per-state variances.  Returns {appliance_id: EstimateSeries}.
    """
    n_joint = int(np.prod([m.num_states for m in models]))
    if n_joint > FHMM_MAX_JOINT_STATES:
        raise DataError(
            f"{n_joint} joint states exceed the FHMM guard ({FHMM_MAX_JOINT_STATES}); "
            "use CO or fewer states per appliance")
    combos, totals = _joint_assignments(models)

    log_trans = np.zeros((n_joint, n_joint))
    log_init = np.zeros(n_joint)
    variances = np.zeros(n_joint)
    for i, m in enumerate(models):
        state_i = combos[:, i]
        with np.errstate(divide="ignore"):
            log_trans += np.log(m.transition)[state_i[:, None], state_i[None, :]]
            log_init += np.log(m.initial)[state_i]
        variances += np.square(m.emission_std)[state_i]

    y = aggregate.values
    log_norm = -0.5 * np.log(2 * np.pi * variances)

    def emission_rows():
        """log N(y | total, var) over (t, joint state), one block of rows at a
        time, with the operations of log_norm - 0.5 * (y - total)**2 / var.
        The buffer is refilled once the decoder has read the block's rows."""
        buffer = np.empty((min(EMISSION_BLOCK, len(y)), n_joint))
        for lo in range(0, len(y), EMISSION_BLOCK):
            block = np.subtract(y[lo : lo + EMISSION_BLOCK, None], totals[None, :],
                                out=buffer[: len(y) - lo])
            np.square(block, out=block)
            block *= 0.5
            block /= variances
            np.subtract(log_norm, block, out=block)
            yield from block

    return _per_appliance(aggregate, models, combos,
                          _viterbi(log_init, log_trans, emission_rows()))


def _viterbi(log_init, log_trans, emission):
    """Most probable state path; standard max-product recursion in log space.

    `emission` yields one row of log-emissions per timestep: a (T, J)
    array or any iterable of rows, each read once.  Each step adds delta
    to the rows of the transposed transitions, so the argmax runs along
    contiguous rows and keeps the first maximum, as over the columns of
    log_trans.  Backpointers are stored in blocks of EMISSION_BLOCK steps,
    in the smallest unsigned dtype that holds every state index: uint8 up
    to 256 states, uint16 up to FHMM_MAX_JOINT_STATES.  The path is
    returned in that dtype, and the traceback frees each block once it
    has read it.
    """
    n_states = len(log_init)
    dtype = np.min_scalar_type(n_states - 1)
    trans_t = np.ascontiguousarray(np.transpose(log_trans))
    scores = np.empty((n_states, n_states))
    states = np.arange(n_states)
    rows = iter(emission)
    first = next(rows, None)
    if first is None:
        return np.empty(0, dtype=dtype)
    delta = log_init + first
    blocks = []
    block = np.zeros((EMISSION_BLOCK, n_states), dtype=dtype)  # row 0: no predecessor
    filled = 1
    for row in rows:
        if filled == EMISSION_BLOCK:
            blocks.append(block)
            block = np.empty((EMISSION_BLOCK, n_states), dtype=dtype)
            filled = 0
        np.add(trans_t, delta, out=scores)
        best = scores.argmax(axis=1)
        block[filled] = best
        filled += 1
        delta = scores[states, best]
        delta += row
    blocks.append(block[:filled])
    del block

    t = sum(len(b) for b in blocks)
    path = np.empty(t, dtype=dtype)
    state = np.argmax(delta)
    while blocks:
        for pointers in blocks.pop()[::-1]:
            t -= 1
            path[t] = state
            state = pointers[state]
    return path
