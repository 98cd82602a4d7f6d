"""Deterministic RNG plumbing: seed derivation and inverse-CDF draws."""

import numpy as np
import pytest

from bbope.rng import categorical, categorical_rows, derive_seed, make_rng


def test_make_rng_rejects_bad_seeds():
    with pytest.raises(TypeError):
        make_rng(1.5)
    with pytest.raises(ValueError):
        make_rng(-1)


def test_make_rng_is_reproducible():
    a = make_rng(123).random(8)
    b = make_rng(123).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(124).random(8))


def test_derive_seed_is_stable_and_distinct():
    s = derive_seed(7, "bias_variance", "T=4", 0)
    assert s == derive_seed(7, "bias_variance", "T=4", 0)
    assert 0 <= s < 2**63
    # changing any part changes the stream
    others = {
        derive_seed(8, "bias_variance", "T=4", 0),
        derive_seed(7, "sensitivity", "T=4", 0),
        derive_seed(7, "bias_variance", "T=8", 0),
        derive_seed(7, "bias_variance", "T=4", 1),
    }
    assert s not in others
    assert len(others) == 4


def test_derive_seed_no_concatenation_collisions():
    # the ":" separator keeps ("ab", "c") and ("a", "bc") apart
    assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")
    assert derive_seed(1, 12, 3) != derive_seed(1, 1, 23)


def test_categorical_inverse_cdf_tie_goes_lower():
    class FixedRng:
        def __init__(self, value):
            self.value = value

        def random(self):
            return self.value

    probs = [0.25, 0.25, 0.5]
    # u exactly on the first CDF boundary selects the lower cell
    assert categorical(FixedRng(0.25), probs) == 0
    assert categorical(FixedRng(0.5), probs) == 1
    assert categorical(FixedRng(0.2499999), probs) == 0
    assert categorical(FixedRng(0.999), probs) == 2
    assert categorical(FixedRng(0.0), probs) == 0


def test_categorical_validates_mass():
    rng = make_rng(0)
    with pytest.raises(ValueError):
        categorical(rng, [0.5, 0.4])


def test_categorical_frequencies_match_probs():
    rng = make_rng(42)
    probs = np.array([0.2, 0.3, 0.5])
    draws = np.array([categorical(rng, probs) for _ in range(20_000)])
    freq = np.bincount(draws, minlength=3) / draws.size
    assert np.max(np.abs(freq - probs)) < 0.02


def test_categorical_rows_matches_scalar_rule():
    rows = np.array([[0.1, 0.9], [0.7, 0.3], [1.0, 0.0]])
    idx = categorical_rows(make_rng(5), rows)
    # replay the same uniforms through the scalar rule
    u = make_rng(5).random(rows.shape[0])
    expected = [
        min(int(np.searchsorted(np.cumsum(r), ui, side="left")), len(r) - 1)
        for r, ui in zip(rows, u)
    ]
    assert idx.tolist() == expected


@pytest.mark.parametrize("probs", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0], [np.inf, -np.inf]])
def test_categorical_rejects_non_finite_mass(probs):
    with pytest.raises(ValueError, match="non-finite"):
        categorical(make_rng(1), probs)


def test_categorical_matches_cumsum_and_searchsorted():
    # the same single draw, the same index, including roundoff past the last entry
    rng = make_rng(8)
    rows = [rng.dirichlet(np.ones(k)) for k in (1, 2, 3, 5, 9) for _ in range(200)]
    rows += [np.array([0.1, 0.2, 0.3, 0.4 - 1e-10]), np.array([0.0, 0.5, 0.0, 0.5, 0.0])]
    for seed, probs in enumerate(rows):
        u = make_rng(seed).random()
        expected = min(int(np.searchsorted(np.cumsum(probs), u, side="left")), len(probs) - 1)
        draws = make_rng(seed)
        assert categorical(draws, probs) == expected
        assert draws.random() == make_rng(seed).random(2)[1]


def test_categorical_clamps_a_draw_past_the_accumulated_mass():
    class FixedRng:
        def random(self):
            return 1.0 - 5e-11

    assert categorical(FixedRng(), [0.5, 0.5 - 1e-10, 0.0]) == 2
