import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from disagg import baselines
from disagg.baselines import (ApplianceStateModel, co_disaggregate, fhmm_disaggregate,
                              fit_states, _viterbi)
from disagg.errors import DataError
from disagg.timeseries import Activation, PowerSeries


# Sample powers as activations hold them, with repeats.
POWERS = st.floats(0.001, 5000.0) | st.sampled_from([1.0, 2.0, 2000.0, 2000.5])


def make_model(name, powers, transition=None, initial=None, stds=None):
    k = len(powers)
    if transition is None:
        transition = np.full((k, k), 1.0 / k)
    if initial is None:
        initial = np.full(k, 1.0 / k)
    if stds is None:
        stds = np.full(k, 10.0)
    return ApplianceStateModel(name, powers, transition, initial, stds)


class TestFitStates:
    def test_two_valued_appliance(self):
        acts = [Activation(0, np.array([2000.0, 2000.0, 2000.0]))] * 3
        model = fit_states(acts, k=2, appliance_id="kettle")
        np.testing.assert_allclose(model.state_powers, [0.0, 2000.0])

    def test_kmeans_on_two_blobs(self, rng):
        low = rng.uniform(95, 105, size=200)
        high = rng.uniform(1895, 1905, size=200)
        acts = [Activation(0, np.concatenate([low, high]))]
        model = fit_states(acts, k=3, appliance_id="x")
        assert abs(model.state_powers[1] - 100) <= 5
        assert abs(model.state_powers[2] - 1900) <= 5

    def test_empty_activations_rejected(self):
        with pytest.raises(DataError, match="empty"):
            fit_states([], k=2)

    def test_fewer_levels_than_clusters_reduces_k(self):
        acts = [Activation(0, np.array([500.0, 500.0]))]
        with pytest.warns(UserWarning, match="reducing states"):
            model = fit_states(acts, k=4)
        assert model.num_states == 2

    def test_model_is_valid_markov(self, rng):
        acts = [Activation(0, rng.uniform(0, 2000, size=50)) for _ in range(5)]
        model = fit_states(acts, k=3)
        np.testing.assert_allclose(model.transition.sum(axis=1), np.ones(3))
        assert model.initial.sum() == pytest.approx(1.0)
        assert np.all(model.emission_std >= 10.0)

    def test_rejects_invalid_model(self):
        with pytest.raises(DataError, match="row-stochastic"):
            ApplianceStateModel("x", [0.0, 100.0], np.array([[0.5, 0.4], [0.5, 0.5]]),
                                [0.5, 0.5], [10.0, 10.0])

    def test_matches_per_activation_reference(self, rng):
        # Single-sample and empty activations, and neighbours whose boundary
        # samples fall in different states (high end, then low start).
        acts = [Activation(0, np.array([1800.0])), Activation(0, np.array([])),
                Activation(0, np.array([1800.0, 20.0, 900.0])),
                Activation(0, np.array([0.0, 950.0, 1750.0])),
                Activation(0, np.array([70.0]))]
        acts += [Activation(0, rng.uniform(0, 2000, size=int(rng.integers(1, 40))))
                 for _ in range(30)]
        for k in (2, 3, 4):
            model = fit_states(acts, k=k)
            transition, initial, std = per_activation_markov(acts, model.state_powers)
            for got, want in ((model.transition, transition), (model.initial, initial),
                              (model.emission_std, std)):
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=500, deadline=None)
    @given(st.lists(POWERS, min_size=0, max_size=60))
    def test_distinct_is_numpy_unique(self, values):
        values = np.array(values, dtype=np.float64)
        assert baselines._distinct(values).tobytes() == np.unique(values).tobytes()

    @settings(max_examples=500, deadline=None)
    @given(st.lists(POWERS, min_size=1, max_size=60),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)
           | st.integers(1, 12).map(lambda k: list((np.arange(k) + 0.5) / k)))
    def test_quantiles_are_numpy_quantile(self, samples, q):
        # q as fit_states asks, (i + 0.5) / k, and any q in [0, 1].
        samples, q = np.array(samples), np.array(q)
        assert (baselines._quantiles(np.sort(samples), q).tobytes()
                == np.quantile(samples, q).tobytes())

    def test_to_dict_lists_every_field(self):
        model = make_model("a", [0.0, 100.0])
        assert model.to_dict() == {"appliance_id": "a", "state_powers": [0.0, 100.0],
                                   "transition": model.transition.tolist(),
                                   "initial": model.initial.tolist(),
                                   "emission_std": model.emission_std.tolist()}


def per_activation_markov(activations, powers):
    """Transition matrix, initial distribution and emission std of a
    fitted model, accumulated one activation at a time."""
    n = len(powers)
    counts = np.ones((n, n))  # add-one smoothing
    occupancy = np.ones(n)
    sums = np.zeros(n)
    sq_sums = np.zeros(n)
    members = np.zeros(n)
    for a in activations:
        states = np.argmin(np.abs(np.asarray(a.values)[:, None] - powers[None, :]), axis=1)
        np.add.at(counts, (states[:-1], states[1:]), 1)
        np.add.at(occupancy, states, 1)
        np.add.at(sums, states, a.values)
        np.add.at(sq_sums, states, np.square(a.values))
        np.add.at(members, states, 1)
    with np.errstate(invalid="ignore"):
        variance = np.where(members > 0, sq_sums / np.maximum(members, 1)
                            - np.square(sums / np.maximum(members, 1)), 0.0)
    stds = np.maximum(np.sqrt(np.maximum(variance, 0.0)), baselines.EMISSION_STD_FLOOR)
    return (counts / counts.sum(axis=1, keepdims=True), occupancy / occupancy.sum(), stds)


def co_oracle(y, models):
    """Independent exhaustive reimplementation with the same tie rules."""
    best = None
    for states in itertools.product(*[range(m.num_states) for m in models]):
        total = sum(m.state_powers[s] for m, s in zip(models, states))
        key = (abs(y - total), total, states)
        if best is None or key < best:
            best = key
    return best[2]


class TestCO:
    def test_zero_aggregate_all_off(self):
        models = [make_model("a", [0.0, 100.0]), make_model("b", [0.0, 60.0])]
        aggregate = PowerSeries(0, 6, np.zeros(5))
        estimates = co_disaggregate(aggregate, models)
        for est in estimates.values():
            np.testing.assert_array_equal(est.series.values, np.zeros(5))

    def test_exact_fit(self):
        models = [make_model("a", [0.0, 100.0]), make_model("b", [0.0, 60.0])]
        aggregate = PowerSeries(0, 6, np.array([160.0]))
        estimates = co_disaggregate(aggregate, models)
        assert estimates["a"].series.values[0] == 100.0
        assert estimates["b"].series.values[0] == 60.0

    def test_best_residual_fit(self):
        models = [make_model("a", [0.0, 100.0]), make_model("b", [0.0, 60.0])]
        aggregate = PowerSeries(0, 6, np.array([90.0]))
        estimates = co_disaggregate(aggregate, models)
        assert estimates["a"].series.values[0] == 100.0  # residual 10 beats 30 and 70
        assert estimates["b"].series.values[0] == 0.0

    def test_tie_breaks_to_lowest_total_power(self):
        # y = 50 is equidistant from 0 and 100: lowest total wins.
        models = [make_model("a", [0.0, 100.0])]
        aggregate = PowerSeries(0, 6, np.array([50.0]))
        estimates = co_disaggregate(aggregate, models)
        assert estimates["a"].series.values[0] == 0.0

    def test_combination_guard(self):
        models = [make_model(str(i), [0.0] + list(range(100, 1100, 100))) for i in range(3)]
        # 11^3 combos is fine; force the guard with a tiny limit via monkeypatching
        import disagg.baselines as bl
        original = bl.CO_MAX_COMBINATIONS
        bl.CO_MAX_COMBINATIONS = 10
        try:
            with pytest.raises(DataError, match="guard"):
                co_disaggregate(PowerSeries(0, 6, np.zeros(2)), models)
        finally:
            bl.CO_MAX_COMBINATIONS = original

    def test_oracle_equality_random_instances(self, rng):
        for _ in range(100):
            n_appl = int(rng.integers(1, 4))
            models = []
            for i in range(n_appl):
                k = int(rng.integers(2, 4))
                powers = np.concatenate([[0.0], np.sort(rng.uniform(20, 2000, size=k - 1))])
                models.append(make_model(f"m{i}", powers))
            y = rng.uniform(0, 3000, size=int(rng.integers(1, 8)))
            estimates = co_disaggregate(PowerSeries(0, 6, y), models)
            for t, y_t in enumerate(y):
                expected = co_oracle(y_t, models)
                got = tuple(int(np.flatnonzero(
                    m.state_powers == estimates[m.appliance_id].series.values[t])[0])
                    for m in models)
                assert got == expected

    def test_residual_block_is_bounded_by_elements(self, rng):
        # 12 two-state models: 4,096 combinations on 4,096 samples.  A
        # block of whole rows holds every combination per sample, so a
        # row-count bound would take 4,096 x 4,096 float64 (134 MB).
        models = [make_model(f"m{i}", [0.0, float(p)])
                  for i, p in enumerate(rng.uniform(20, 2000, size=12))]
        y = rng.uniform(0, 12_000, size=4096)
        estimates = {}
        peak = traced_peak(lambda: estimates.update(
            co_disaggregate(PowerSeries(0, 6, y), models)))
        assert peak < 16 * 2**20
        for t in range(0, len(y), 257):
            got = tuple(int(estimates[m.appliance_id].series.values[t] > 0) for m in models)
            assert got == co_oracle(y[t], models)


def path_log_probability(log_init, log_trans, emission, path) -> float:
    """Log-probability of one state path."""
    total = log_init[path[0]] + emission[0, path[0]]
    for t in range(1, emission.shape[0]):
        total += log_trans[path[t - 1], path[t]] + emission[t, path[t]]
    return float(total)


def brute_force_best_path(log_init, log_trans, emission, chunk=200_000):
    """Max log-probability over every possible path, enumerated exhaustively.

    Paths are decoded from mixed-radix integers in chunks and scored with
    vectorized gathers, so the 9-state x 8-step corner (43M paths) stays
    tractable.  Independent of the Viterbi recursion it checks.
    """
    horizon, n = emission.shape
    total_paths = n ** horizon
    time_index = np.arange(horizon)
    best_logp = -np.inf
    best_path = None
    for lo in range(0, total_paths, chunk):
        codes = np.arange(lo, min(total_paths, lo + chunk))
        paths = np.empty((len(codes), horizon), dtype=np.int64)
        rem = codes.copy()
        for t in range(horizon - 1, -1, -1):
            paths[:, t] = rem % n
            rem //= n
        logp = log_init[paths[:, 0]] + emission[time_index[None, :], paths].sum(axis=1)
        if horizon > 1:
            logp += log_trans[paths[:, :-1], paths[:, 1:]].sum(axis=1)
        arg = int(np.argmax(logp))
        if logp[arg] > best_logp:
            best_logp = float(logp[arg])
            best_path = paths[arg].copy()
    return best_logp, best_path


def random_models(rng, n_appl, max_states=3):
    models = []
    for i in range(n_appl):
        k = int(rng.integers(2, max_states + 1))
        powers = np.concatenate([[0.0], np.sort(rng.uniform(50, 2000, size=k - 1))])
        transition = rng.uniform(0.1, 1.0, size=(k, k))
        transition /= transition.sum(axis=1, keepdims=True)
        initial = rng.uniform(0.1, 1.0, size=k)
        initial /= initial.sum()
        stds = rng.uniform(10, 80, size=k)
        models.append(make_model(f"m{i}", powers, transition, initial, stds))
    return models


def int64_viterbi(log_init, log_trans, emission):
    """Viterbi with int64 backpointers, the reference for the smallest-dtype
    store (uint8 up to 256 states, uint16 above)."""
    horizon, n_states = emission.shape
    backptr = np.zeros((horizon, n_states), dtype=np.int64)
    delta = log_init + emission[0]
    for t in range(1, horizon):
        scores = delta[:, None] + log_trans
        backptr[t] = np.argmax(scores, axis=0)
        delta = scores[backptr[t], np.arange(n_states)] + emission[t]
    path = np.zeros(horizon, dtype=np.int64)
    path[-1] = int(np.argmax(delta))
    for t in range(horizon - 1, 0, -1):
        path[t - 1] = backptr[t, path[t]]
    return path


class TestFHMM:
    @pytest.mark.parametrize("n_states", [3, 256, 257, 300, 1000])
    def test_uint16_backpointers_match_int64_reference(self, rng, n_states):
        """Backpointers in the smallest dtype (uint8 up to 256 states, uint16
        above; 256 and 257 straddle the limit) give the int64 reference's paths."""
        horizon = 60
        log_trans = np.log(rng.dirichlet(np.ones(n_states), size=n_states))
        log_init = np.log(rng.dirichlet(np.ones(n_states)))
        emission = rng.normal(scale=5.0, size=(horizon, n_states))
        np.testing.assert_array_equal(_viterbi(log_init, log_trans, emission),
                                      int64_viterbi(log_init, log_trans, emission))
        # Flat transitions and integer emissions: argmax ties everywhere.
        flat = np.full((n_states, n_states), -np.log(n_states))
        ties = np.round(emission / 5.0)
        np.testing.assert_array_equal(_viterbi(log_init, flat, ties),
                                      int64_viterbi(log_init, flat, ties))
        # The highest state index wins every step, so every backpointer holds it.
        top = emission.copy()
        top[:, -1] += 100.0
        path = _viterbi(log_init, log_trans, top)
        np.testing.assert_array_equal(path, int64_viterbi(log_init, log_trans, top))
        assert path[-1] == n_states - 1

    def test_single_appliance_matches_plain_viterbi(self, rng):
        models = random_models(rng, 1)
        y = rng.uniform(0, 2200, size=20)
        estimates = fhmm_disaggregate(PowerSeries(0, 6, y), models)
        m = models[0]
        emission = (-0.5 * np.log(2 * np.pi * m.emission_std**2)[None, :]
                    - 0.5 * (y[:, None] - m.state_powers[None, :])**2
                    / (m.emission_std**2)[None, :])
        path = _viterbi(np.log(m.initial), np.log(m.transition), emission)
        np.testing.assert_array_equal(estimates["m0"].series.values, m.state_powers[path])

    def test_single_timestep_argmax(self, rng):
        models = random_models(rng, 2)
        y = np.array([1500.0])
        estimates = fhmm_disaggregate(PowerSeries(0, 6, y), models)
        # decoded joint state maximises init * emission
        total = sum(estimates[m.appliance_id].series.values[0] for m in models)
        assert total >= 0

    def test_empty_aggregate(self, rng):
        models = random_models(rng, 2)
        estimates = fhmm_disaggregate(PowerSeries(0, 6, np.empty(0)), models)
        for est in estimates.values():
            assert len(est.series) == 0

    def test_joint_guard(self, rng, monkeypatch):
        models = random_models(rng, 3)
        monkeypatch.setattr(baselines, "FHMM_MAX_JOINT_STATES", 2)
        with pytest.raises(DataError, match="guard"):
            fhmm_disaggregate(PowerSeries(0, 6, np.zeros(3)), models)

    def test_viterbi_equals_brute_force(self, rng):
        for _ in range(30):
            n_appl = int(rng.integers(1, 3))
            models = random_models(rng, n_appl, max_states=3)
            n_joint = int(np.prod([m.num_states for m in models]))
            horizon = int(rng.integers(1, 6 if n_joint > 4 else 8))
            y = rng.uniform(0, 2500, size=horizon)
            estimates = fhmm_disaggregate(PowerSeries(0, 6, y), models)

            # Rebuild the joint chain exactly as the decoder does.
            combos = np.array(list(itertools.product(*[range(m.num_states) for m in models])))
            totals = np.zeros(len(combos))
            variances = np.zeros(len(combos))
            log_trans = np.zeros((len(combos), len(combos)))
            log_init = np.zeros(len(combos))
            for i, m in enumerate(models):
                idx = combos[:, i]
                totals += m.state_powers[idx]
                variances += m.emission_std[idx] ** 2
                log_trans += np.log(m.transition)[idx[:, None], idx[None, :]]
                log_init += np.log(m.initial)[idx]
            emission = (-0.5 * np.log(2 * np.pi * variances)[None, :]
                        - 0.5 * (y[:, None] - totals[None, :]) ** 2 / variances[None, :])

            best_logp, _ = brute_force_best_path(log_init, log_trans, emission)
            decoded = _viterbi(log_init, log_trans, emission)
            decoded_logp = path_log_probability(log_init, log_trans, emission, decoded)
            assert decoded_logp == pytest.approx(best_logp, abs=1e-9)
            # and the reported estimates correspond to the decoded path
            for i, m in enumerate(models):
                np.testing.assert_array_equal(
                    estimates[m.appliance_id].series.values,
                    m.state_powers[combos[decoded, i]])

    def test_determinism(self, rng):
        models = random_models(rng, 2)
        y = rng.uniform(0, 2500, size=40)
        runs = [fhmm_disaggregate(PowerSeries(0, 6, y), models) for _ in range(2)]
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name].series.values,
                                          runs[1][name].series.values)


def joint_chain(models, y):
    """log_init, log_trans and the full (T, J) emission table of the joint
    chain, built as the decoder builds them, with the joint state tuples."""
    combos = np.array(list(itertools.product(*[range(m.num_states) for m in models])))
    totals = np.zeros(len(combos))
    variances = np.zeros(len(combos))
    log_trans = np.zeros((len(combos), len(combos)))
    log_init = np.zeros(len(combos))
    for i, m in enumerate(models):
        idx = combos[:, i]
        totals += m.state_powers[idx]
        variances += m.emission_std[idx] ** 2
        log_trans += np.log(m.transition)[idx[:, None], idx[None, :]]
        log_init += np.log(m.initial)[idx]
    emission = (-0.5 * np.log(2 * np.pi * variances)[None, :]
                - 0.5 * (y[:, None] - totals[None, :]) ** 2 / variances[None, :])
    return combos, log_init, log_trans, emission


def paper_models(rng):
    """Five appliances with 2, 2, 2, 3 and 3 states: 72 joint states."""
    models = []
    for i, k in enumerate((2, 2, 2, 3, 3)):
        powers = np.concatenate([[0.0], np.sort(rng.uniform(50, 2000, size=k - 1))])
        models.append(make_model(f"m{i}", powers, rng.dirichlet(np.ones(k) * 5, size=k),
                                 rng.dirichlet(np.ones(k) * 5), rng.uniform(10, 80, size=k)))
    return models


# Each side of the first block edge and into a third block, then the same
# at the eighth edge and into a seventeenth block.
BLOCK = baselines.EMISSION_BLOCK
BLOCK_HORIZONS = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3,
                  8 * BLOCK - 1, 8 * BLOCK, 8 * BLOCK + 1, 16 * BLOCK + 3]


class TestBlockedDecode:
    @pytest.mark.parametrize("horizon", BLOCK_HORIZONS)
    def test_viterbi_matches_int64_reference(self, rng, horizon):
        n_states = 12
        log_trans = np.log(rng.dirichlet(np.ones(n_states), size=n_states))
        log_init = np.log(rng.dirichlet(np.ones(n_states)))
        emission = rng.normal(scale=5.0, size=(horizon, n_states))
        expected = int64_viterbi(log_init, log_trans, emission)
        np.testing.assert_array_equal(_viterbi(log_init, log_trans, emission), expected)
        # Any iterable of rows decodes the same.
        np.testing.assert_array_equal(_viterbi(log_init, log_trans, iter(emission)), expected)
        # Flat transitions and integer emissions: argmax ties everywhere.
        flat = np.full((n_states, n_states), -np.log(n_states))
        ties = np.round(emission / 5.0)
        np.testing.assert_array_equal(_viterbi(log_init, flat, ties),
                                      int64_viterbi(log_init, flat, ties))

    @pytest.mark.parametrize("horizon", BLOCK_HORIZONS)
    def test_fhmm_matches_int64_reference(self, rng, horizon):
        models = paper_models(rng)
        y = rng.uniform(0, 5000, size=horizon)
        combos, log_init, log_trans, emission = joint_chain(models, y)
        assert len(combos) == 72
        path = int64_viterbi(log_init, log_trans, emission)
        estimates = fhmm_disaggregate(PowerSeries(0, 6, y), models)
        for i, m in enumerate(models):
            np.testing.assert_array_equal(estimates[m.appliance_id].series.values,
                                          m.state_powers[combos[path, i]])

    def test_fhmm_tie_heavy_matches_int64_reference(self):
        # Uniform chains and equal stds: joint states with the same total
        # power tie on every emission and every transition.
        models = [make_model(f"m{i}", [0.0, 100.0, 200.0]) for i in range(3)]
        y = np.tile([0.0, 100.0, 200.0, 300.0, 150.0], baselines.EMISSION_BLOCK // 2)
        combos, log_init, log_trans, emission = joint_chain(models, y)
        path = int64_viterbi(log_init, log_trans, emission)
        estimates = fhmm_disaggregate(PowerSeries(0, 6, y), models)
        for i, m in enumerate(models):
            np.testing.assert_array_equal(estimates[m.appliance_id].series.values,
                                          m.state_powers[combos[path, i]])

    def test_decode_holds_little_beside_its_backpointers(self, rng):
        # 100k samples and 72 joint states: the backpointers take one byte
        # per sample and joint state, 7.2 MB.  The emission block (295 kB),
        # the path (100 kB) and the estimates, built once the backpointers
        # are freed, fit beside them.
        models = paper_models(rng)
        y = rng.uniform(0, 5000, size=100_000)
        peak = traced_peak(lambda: fhmm_disaggregate(PowerSeries(0, 6, y), models))
        assert peak < len(y) * 72 + 2**20

    @pytest.mark.parametrize("n_states, dtype", [(72, np.uint8), (256, np.uint8),
                                                 (257, np.uint16)])
    def test_path_in_the_backpointers_dtype(self, rng, n_states, dtype):
        log_trans = np.log(rng.dirichlet(np.ones(n_states), size=n_states))
        log_init = np.log(rng.dirichlet(np.ones(n_states)))
        emission = rng.normal(scale=5.0, size=(10, n_states))
        assert _viterbi(log_init, log_trans, emission).dtype == dtype
        assert _viterbi(log_init, log_trans, emission[:0]).dtype == dtype

    def test_memory_is_bounded(self, rng):
        # 200k samples, 72 joint states: a float64 emission table alone
        # would take 115 MB; the backpointers take 14.4 MB.
        models = paper_models(rng)
        y = rng.uniform(0, 5000, size=200_000)
        peak = traced_peak(lambda: fhmm_disaggregate(PowerSeries(0, 6, y), models))
        assert peak < 32 * 2**20
