"""Tests for qubit state and measurement primitives."""

import numpy as np
import pytest
from qubit_checks import bloch_of, validate_povm, validate_state

from scqkd.states import (
    I2,
    MIXED,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Povm,
    born_probability,
    depolarize,
    post_measurement_state,
    pure_from_bloch,
    sample_outcome,
)


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestPureFromBloch:
    def test_z_axis(self):
        np.testing.assert_allclose(pure_from_bloch([0, 0, 1]), [[1, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(pure_from_bloch([0, 0, -1]), [[0, 0], [0, 1]], atol=1e-15)

    def test_x_axis(self):
        np.testing.assert_allclose(pure_from_bloch([1, 0, 0]), np.ones((2, 2)) / 2, atol=1e-15)

    def test_projector_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rho = pure_from_bloch(_random_unit(rng))
            assert abs(np.trace(rho) - 1) < 1e-12
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
            np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)  # pure

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            pure_from_bloch([0, 0, 0.5])
        with pytest.raises(ValueError):
            pure_from_bloch([1, 1, 1])
        for v in ([0, 1], [0, 0, 1, 0], [[0, 0, 1]]):
            with pytest.raises(ValueError, match="Bloch vector must have 3 components"):
                pure_from_bloch(v)

    def test_bloch_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            v = _random_unit(rng)
            np.testing.assert_allclose(bloch_of(pure_from_bloch(v)), v, atol=1e-12)

    def test_result_read_only(self):
        rho = pure_from_bloch([0, 0, 1])
        with pytest.raises(ValueError):
            rho[0, 0] = 5


class TestBlochOf:
    def test_mixed_is_origin(self):
        np.testing.assert_allclose(bloch_of(MIXED), [0, 0, 0], atol=1e-15)

    def test_pauli_eigenstates(self):
        np.testing.assert_allclose(bloch_of((I2 + SIGMA_Y) / 2), [0, 1, 0], atol=1e-15)


class TestValidateState:
    def test_accepts_valid(self):
        validate_state(MIXED)
        validate_state(pure_from_bloch([0, 1, 0]))
        validate_state(0.7 * pure_from_bloch([0, 0, 1]) + 0.3 * MIXED)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="density matrix is not Hermitian"):
            validate_state(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="density matrix trace is"):
            validate_state(I2)

    def test_rejects_negative_eigenvalue(self):
        # bloch vector of length 2: trace 1, hermitian, not PSD
        with pytest.raises(ValueError, match="density matrix has negative eigenvalue"):
            validate_state((I2 + 2 * SIGMA_Z) / 2)


class TestPovm:
    def test_complete_povm_validates(self):
        validate_povm(Povm(elements=(MIXED, MIXED)))

    def test_default_labels(self):
        # outcomes are named by their 1-based element index
        povm = Povm(elements=(MIXED, MIXED))
        assert [sample_outcome(MIXED, povm, u) for u in (0.2, 0.7)] == [1, 2]
        assert len(povm.elements) == 2

    def test_u_past_the_total_mass_gives_the_last_nonzero_outcome(self):
        # the elements sum to just under I, and the last one is zero
        povm = Povm(elements=(MIXED, MIXED * (1 - 1e-12), 0 * I2))
        assert sample_outcome(MIXED, povm, 1 - 1e-13) == 2

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
    def test_orthogonal_and_parallel(self):
        up = pure_from_bloch([0, 0, 1])
        down = pure_from_bloch([0, 0, -1])
        assert born_probability(up, up) == pytest.approx(1.0, abs=1e-15)
        assert born_probability(up, down) == pytest.approx(0.0, abs=1e-15)

    def test_unbiased_overlap(self):
        up = pure_from_bloch([0, 0, 1])
        plus = pure_from_bloch([1, 0, 0])
        assert born_probability(up, plus) == pytest.approx(0.5, abs=1e-15)

    def test_clamped_to_unit_interval(self):
        up = pure_from_bloch([0, 0, 1])
        assert born_probability(up, up * (1 + 1e-9)) == 1.0
        rng = np.random.default_rng(13)
        for _ in range(50):
            rho = pure_from_bloch(_random_unit(rng))
            e = pure_from_bloch(_random_unit(rng))
            assert 0.0 <= born_probability(rho, e) <= 1.0


class TestSqrtUpdate:
    def test_projector_reproduces_itself(self):
        # a Kraus operator on a projector's ray leaves the conditional state on that ray
        plus = pure_from_bloch([1, 0, 0])
        up = pure_from_bloch([0, 0, 1])
        out = post_measurement_state(up, 0.5**0.5 * plus)
        np.testing.assert_allclose(out, plus, atol=1e-12)

    def test_identity_element_is_transparent(self):
        rng = np.random.default_rng(15)
        rho = pure_from_bloch(_random_unit(rng))
        np.testing.assert_allclose(post_measurement_state(rho, 0.3**0.5 * I2), rho, atol=1e-12)

    def test_valid_state_out(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            rho = pure_from_bloch(_random_unit(rng))
            p = pure_from_bloch(_random_unit(rng))
            # the root of the element 0.5 P + 0.1 I
            validate_state(post_measurement_state(rho, 0.6**0.5 * p + 0.1**0.5 * (I2 - p)))

    def test_tiny_positive_probability_is_conditioned_on(self):
        # K = 1e-8 P(down) gives |+> the outcome probability 5e-17; the conditional state is |down>
        plus, down = pure_from_bloch([1, 0, 0]), pure_from_bloch([0, 0, -1])
        out = post_measurement_state(plus, 1e-8 * down)
        np.testing.assert_allclose(out, down, atol=1e-12)

    def test_zero_probability_rejected(self):
        up = pure_from_bloch([0, 0, 1])
        down = pure_from_bloch([0, 0, -1])
        with pytest.raises(ValueError):
            post_measurement_state(up, down)


class TestDepolarize:
    def test_endpoints(self):
        rho = pure_from_bloch([0, 0, 1])
        np.testing.assert_allclose(depolarize(rho, 0), rho)
        np.testing.assert_allclose(depolarize(rho, 1), MIXED)

    def test_shrinks_bloch_vector(self):
        rho = pure_from_bloch([1, 0, 0])
        np.testing.assert_allclose(bloch_of(depolarize(rho, 0.4)), [0.6, 0, 0], atol=1e-12)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            depolarize(MIXED, 1.5)
        with pytest.raises(ValueError):
            depolarize(MIXED, -0.1)


class TestSampleOutcome:
    def _povm(self):
        # z-basis projective measurement
        return Povm(elements=(pure_from_bloch([0, 0, 1]), pure_from_bloch([0, 0, -1])))

    def test_u_zero_picks_first_nonzero(self):
        up = pure_from_bloch([0, 0, 1])
        down = pure_from_bloch([0, 0, -1])
        assert sample_outcome(up, self._povm(), 0.0) == 1
        assert sample_outcome(down, self._povm(), 0.0) == 2  # p(1) = 0 skipped

    def test_cdf_boundaries(self):
        plus = pure_from_bloch([1, 0, 0])  # p = (1/2, 1/2)
        assert sample_outcome(plus, self._povm(), 0.49) == 1
        assert sample_outcome(plus, self._povm(), 0.5) == 2
        assert sample_outcome(plus, self._povm(), 0.999999) == 2

    def test_overflow_falls_back_to_last_nonzero(self):
        up = pure_from_bloch([0, 0, 1])
        povm = Povm(elements=(pure_from_bloch([0, 0, 1]), pure_from_bloch([0, 0, -1])))
        # p = (1, 0); u numerically at the total mass must not fall off the end
        assert sample_outcome(up, povm, 1.0 - 1e-16) == 1

    def test_zero_state_rejected(self):
        povm = self._povm()
        with pytest.raises(ValueError):
            sample_outcome(np.zeros((2, 2)), povm, 0.3)
