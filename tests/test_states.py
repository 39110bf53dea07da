"""Tests for qubit state and measurement primitives."""

import numpy as np
import pytest
from qubit_checks import validate_povm

from scqkd.states import (
    I2,
    MIXED,
    SIGMA_Y,
    SIGMA_Z,
    Povm,
    born_probability,
    depolarize,
    post_measurement_state,
    pure_from_bloch,
)


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestPureFromBloch:
    # rho = (I + v.sigma)/2: each axis is its Pauli eigenstate (a reflection of an axis changes no Born
    # probability between the package's own states, so only these points pin the orientation)
    @pytest.mark.parametrize("v,rho", [
        ([0, 0, 1], [[1, 0], [0, 0]]),
        ([0, 0, -1], [[0, 0], [0, 1]]),
        ([1, 0, 0], np.ones((2, 2)) / 2),
        ([0, 1, 0], (I2 + SIGMA_Y) / 2),
    ], ids=["+z", "-z", "+x", "+y"])
    def test_the_axes_are_the_pauli_eigenstates(self, v, rho):
        np.testing.assert_allclose(pure_from_bloch(v), rho, rtol=0, atol=1e-15)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            pure_from_bloch([0, 0, 0.5])
        with pytest.raises(ValueError):
            pure_from_bloch([1, 1, 1])
        for v in ([0, 1], [0, 0, 1, 0], [[0, 0, 1]]):
            with pytest.raises(ValueError, match="Bloch vector must have 3 components"):
                pure_from_bloch(v)

    def test_result_read_only(self):
        rho = pure_from_bloch([0, 0, 1])
        with pytest.raises(ValueError):
            rho[0, 0] = 5


class TestPovm:
    def test_complete_povm_validates(self):
        validate_povm(Povm(elements=(MIXED, MIXED)))

    @pytest.mark.parametrize("element,message", [
        (np.eye(3), "POVM element must be 2x2"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "POVM element is not Hermitian"),
        ((I2 + 2 * SIGMA_Z) / 2, "POVM element has a negative eigenvalue"),
    ])
    def test_invalid_element_named(self, element, message):
        with pytest.raises(ValueError, match=message):
            validate_povm(Povm(elements=(element,)))

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            validate_povm(Povm(elements=(MIXED, MIXED, MIXED)))


class TestBornProbability:
    def test_clamped_to_unit_interval(self):
        up = pure_from_bloch([0, 0, 1])
        assert born_probability(up, up * (1 + 1e-9)) == 1.0
        rng = np.random.default_rng(13)
        for _ in range(50):
            rho = pure_from_bloch(_random_unit(rng))
            e = pure_from_bloch(_random_unit(rng))
            assert 0.0 <= born_probability(rho, e) <= 1.0


class TestSqrtUpdate:
    def test_zero_probability_rejected(self):
        up = pure_from_bloch([0, 0, 1])
        down = pure_from_bloch([0, 0, -1])
        with pytest.raises(ValueError):
            post_measurement_state(up, down)


class TestDepolarize:
    def test_range_checked(self):
        with pytest.raises(ValueError):
            depolarize(MIXED, 1.5)
        with pytest.raises(ValueError):
            depolarize(MIXED, -0.1)
