"""Tests for the signal constellations and index/bit combinatorics."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from scqkd.codes import (
    ProtocolKind,
    basis_label,
    bloch_gram,
    eigen_bit,
    levi_civita,
    make_code,
    tetra_key_bit,
    trine_key_bit,
)

ALL_KINDS = list(ProtocolKind)


class TestMakeCode:
    @pytest.mark.parametrize("kind,n", [
        (ProtocolKind.TRINE, 3),
        (ProtocolKind.TETRAHEDRON, 4),
        (ProtocolKind.BB84, 4),
        (ProtocolKind.SIX_STATE, 6),
    ])
    def test_sizes(self, kind, n):
        # the exact layer counts signals off ProtocolKind, the matrix path off the code it builds
        assert len(make_code(kind)) == kind.n_signals == n

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unit_vectors(self, kind):
        norms = np.linalg.norm(make_code(kind).states, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_trine_coplanar_and_balanced(self):
        states = make_code(ProtocolKind.TRINE).states
        np.testing.assert_allclose(states[:, 1], 0.0, atol=1e-15)  # x-z plane
        np.testing.assert_allclose(states.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(states[0], [0, 0, 1], atol=1e-15)

    def test_tetrahedron_balanced(self):
        states = make_code(ProtocolKind.TETRAHEDRON).states
        np.testing.assert_allclose(states.sum(axis=0), 0.0, atol=1e-12)

    def test_basis_pair_order(self):
        bb84 = make_code(ProtocolKind.BB84).states
        np.testing.assert_allclose(bb84, [[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0]])
        six = make_code(ProtocolKind.SIX_STATE).states
        np.testing.assert_allclose(six[4:], [[0, 1, 0], [0, -1, 0]])

    def test_indexing_one_based(self):
        code = make_code(ProtocolKind.TRINE)
        np.testing.assert_allclose(code.bloch(1), [0, 0, 1])
        with pytest.raises(ValueError):
            code.bloch(0)
        with pytest.raises(ValueError):
            code.bloch(4)


class TestBlochGram:
    @pytest.mark.parametrize("build", [make_code, bloch_gram])
    def test_unknown_protocol_rejected(self, build):
        # bloch_gram reads the signal count off a table, not off make_code, so it checks for itself
        with pytest.raises(ValueError, match="unknown protocol"):
            build("trine")

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_numeric_states(self, kind):
        states = make_code(kind).states
        g = bloch_gram(kind)
        numeric = states @ states.T
        for i in range(len(states)):
            for j in range(len(states)):
                assert abs(numeric[i, j] - float(g[i][j])) < 1e-12


class TestBasisLabels:
    def test_labels(self):
        assert [basis_label(i) for i in range(1, 7)] == ["z", "z", "x", "x", "y", "y"]

    def test_eigen_bits(self):
        assert [eigen_bit(i) for i in range(1, 7)] == [0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("rule", [basis_label, eigen_bit])
    @pytest.mark.parametrize("index", [0, 7, -1, True, False, 2.0, Fraction(2), "2", None])
    def test_bad_index_rejected(self, rule, index):
        # a bool would pass as 0 or 1, a float or Fraction as its value
        with pytest.raises(ValueError, match=r"out of range 1\.\.6"):
            rule(index)

    def test_numpy_integer_index(self):
        assert (basis_label(np.int64(5)), eigen_bit(np.int8(4))) == ("y", 1)


class TestLeviCivita:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_is_the_determinant_of_the_permutation_matrix(self, n):
        # rows e_i1 .. e_in: the determinant is the sign of the permutation, 0 on a repeat
        for indices in itertools.product(range(1, n + 1), repeat=n):
            want = round(np.linalg.det(np.eye(n)[[i - 1 for i in indices]]))
            assert levi_civita(*indices) == want, indices

    def test_range_checked(self):
        with pytest.raises(ValueError):
            levi_civita(0, 1, 2)
        with pytest.raises(ValueError):
            levi_civita(1, 2, 3, 5)
        with pytest.raises(ValueError):
            levi_civita(1, 3)
        # any Integral index but a bool, which would otherwise pass as 1
        assert levi_civita(np.int64(1), 2, 3) == 1
        eps = levi_civita(np.int64(2), np.int8(1), 3)
        assert type(eps) is int and eps == -1
        with pytest.raises(ValueError, match="index True out of range"):
            levi_civita(True, 2, 3)


class TestKeyBits:
    def test_worked_example_trine(self):
        # signal 1, outcome 3, announced 2: odd permutation, bit 1
        assert trine_key_bit(1, 3, 2) == 1
        assert trine_key_bit(1, 2, 3) == 0

    def test_worked_example_tetra(self):
        assert tetra_key_bit(1, 2, 3, 4) == 1
        assert tetra_key_bit(2, 1, 3, 4) == 0

    def test_swap_flips_trine(self):
        import itertools
        for j, k, l in itertools.permutations((1, 2, 3)):
            assert trine_key_bit(j, k, l) == 1 - trine_key_bit(k, j, l)

    def test_swap_flips_tetra(self):
        import itertools
        for j, k, l, m in itertools.permutations((1, 2, 3, 4)):
            assert tetra_key_bit(j, k, l, m) == 1 - tetra_key_bit(k, j, l, m)

    def test_repeated_indices_rejected(self):
        with pytest.raises(ValueError):
            trine_key_bit(1, 1, 2)
        with pytest.raises(ValueError):
            tetra_key_bit(1, 2, 3, 3)
