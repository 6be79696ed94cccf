"""The stacked content-update solver against per-key value iteration.

``repro.core.caching_mdp._solve_content_keys`` sweeps many single-content
MDPs at once; every field of each result must equal what
``value_iteration(ContentUpdateMDP(...), discount, tolerance=1e-9)`` returns
for that key alone, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.caching_mdp import (
    CachingMDPConfig,
    ContentUpdateMDP,
    _solve_content_keys,
)
from repro.core.solvers import value_iteration
from repro.exceptions import SolverError


def _reference(key, config):
    mdp = ContentUpdateMDP(
        max_age=key[0], popularity=key[1], update_cost=key[2], config=config
    )
    return value_iteration(mdp, discount=config.discount, tolerance=1e-9)


def _assert_identical(result, expected):
    for name in ("values", "policy", "q_values"):
        got, want = getattr(result, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        # Each result owns contiguous arrays, not views of the stack.
        assert got.flags.c_contiguous and got.base is None, name
    assert result.iterations == expected.iterations
    assert result.converged is expected.converged is True
    assert result.residual == expected.residual
    assert type(result.residual) is float
    assert result.history == expected.history
    assert all(type(value) is float for value in result.history)


configs = st.builds(
    CachingMDPConfig,
    weight=st.sampled_from([0.0, 1.0, 2]) | st.floats(0.0, 5.0),
    discount=st.floats(0.05, 0.95),
    age_ceiling=st.none() | st.integers(1, 14),
    max_age_ceiling=st.integers(1, 14),
    # 1.5 and 2.5 round half to even (to 2), like AgeGrid's round().
    refresh_age=st.sampled_from([0.3, 1.0, 1.5, 2.5, 3]) | st.floats(0.1, 8.0),
    violation_penalty=st.sampled_from([0.0, 10.0]) | st.floats(0.0, 25.0),
)

keys = st.tuples(
    st.integers(1, 9).map(float) | st.floats(0.2, 10.0),
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    st.sampled_from([0.0]) | st.floats(0.0, 4.0),
)


@given(config=configs, batch=st.lists(keys, min_size=1, max_size=40, unique=True))
@settings(max_examples=60, deadline=None)
def test_every_field_matches_value_iteration(config, batch):
    results = _solve_content_keys(batch, config)
    assert len(results) == len(batch)
    for key, result in zip(batch, results):
        _assert_identical(result, _reference(key, config))


def test_mixed_ceilings_in_one_batch():
    # Derived ceilings 2..12 side by side: padded states must not leak into
    # any key's values, residuals or iteration count.
    config = CachingMDPConfig(max_age_ceiling=12)
    batch = [(age, 0.3, 0.5) for age in (0.5, 1.0, 1.5, 2.5, 3.0, 4.5, 6.0, 9.0)]
    results = _solve_content_keys(batch, config)
    assert sorted({len(result.values) for result in results}) == [2, 3, 5, 6, 9, 12]
    for key, result in zip(batch, results):
        _assert_identical(result, _reference(key, config))


def test_empty_batch():
    assert _solve_content_keys([], CachingMDPConfig()) == []


def test_blocks_match_one_pass(monkeypatch):
    import repro.core.caching_mdp as caching_mdp

    rng = np.random.default_rng(5)
    batch = [
        (float(rng.integers(1, 9)), float(rng.uniform()), float(rng.uniform(0, 2)))
        for _ in range(25)
    ]
    config = CachingMDPConfig(weight=2.0)
    whole = _solve_content_keys(batch, config)
    monkeypatch.setattr(caching_mdp, "_CONTENT_BLOCK", 4)
    for result, expected in zip(_solve_content_keys(batch, config), whole):
        _assert_identical(result, expected)


def test_non_convergence_raises_the_same_error():
    config = CachingMDPConfig(discount=0.999, weight=5.0)
    # The first key converges in one sweep; the second cannot within the
    # cap, and the error reports its residual.
    batch = [(4.0, 0.0, 0.0), (4.0, 1.0, 2.0)]
    assert _reference(batch[0], config).iterations == 1
    with pytest.raises(SolverError) as expected:
        _reference(batch[1], config)
    with pytest.raises(SolverError) as stacked:
        _solve_content_keys(batch, config)
    assert str(stacked.value) == str(expected.value)
    assert "did not converge within 10000 iterations" in str(stacked.value)
