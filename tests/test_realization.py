import numpy as np
import pytest

from tsirelson import chained, new_inequality
from tsirelson.analytic import chained_primal_vectors, chained_quantum_bound
from tsirelson.errors import (
    DimensionMismatch,
    LengthMismatch,
    NotUnitVector,
    SettingCountMismatch,
    TooLarge,
)
from tsirelson.realization import (
    clifford_generators,
    correlation,
    correlation_table,
    correlation_trace,
    inequality_value,
    maximally_entangled_state,
    realize,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_generators_base_case():
    gens = clifford_generators(2)
    np.testing.assert_array_equal(gens[0], PAULI_X)
    np.testing.assert_array_equal(gens[1], PAULI_Y)


def test_generators_n3_anticommute():
    gens = clifford_generators(3)
    assert all(g.shape == (4, 4) for g in gens)
    for k in range(3):
        for l in range(k + 1, 3):
            anti = gens[k] @ gens[l] + gens[l] @ gens[k]
            assert np.abs(anti).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 4, 5, 8])
def test_generators_clifford_relations(n):
    gens = clifford_generators(n)
    d = gens[0].shape[0]
    assert d == 2 ** ((n + 1) // 2)
    eye = np.eye(d)
    for k in range(n):
        assert np.abs(gens[k] - gens[k].conj().T).max() <= 1e-12
        for l in range(n):
            anti = gens[k] @ gens[l] + gens[l] @ gens[k]
            expected = 2 * eye if k == l else 0 * eye
            assert np.linalg.norm(anti - expected) <= 1e-12


def test_generators_size_limits():
    with pytest.raises(TooLarge):
        clifford_generators(0)
    with pytest.raises(TooLarge):
        clifford_generators(21)


def test_observable_law_random_unit_vectors():
    rng = np.random.default_rng(29)
    for n in (2, 3, 5):
        gens = clifford_generators(n)
        d = gens[0].shape[0]
        for _ in range(5):
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            obs = sum(x[k] * gens[k] for k in range(n))
            assert np.linalg.norm(obs @ obs - np.eye(d)) <= 1e-10


def test_realize_chsh_correlations():
    xs, ys = chained_primal_vectors(2)
    real = realize(xs[:, :2], ys[:, :2])
    a = 1.0 / np.sqrt(2.0)
    got = np.array(
        [
            [
                correlation(real.observables_x[s], real.observables_y[t], real.psi)
                for t in range(2)
            ]
            for s in range(2)
        ]
    )
    expected = np.array([[a, -a], [a, a]])
    np.testing.assert_allclose(got, expected, atol=1e-12)
    assert inequality_value(chained(2), real) == pytest.approx(
        2 * np.sqrt(2), abs=1e-9
    )


def test_realize_single_setting():
    real = realize([np.array([1.0, 0.0])], [np.array([1.0, 0.0])])
    assert correlation(real.observables_x[0], real.observables_y[0], real.psi) == (
        pytest.approx(1.0, abs=1e-12)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_realize_chained_tight(n):
    xs, ys = chained_primal_vectors(n)
    real = realize(xs[:, :2], ys[:, :2])
    val = inequality_value(chained(n), real)
    assert val == pytest.approx(chained_quantum_bound(n), abs=1e-9)


def test_realize_observable_invariants():
    xs, ys = chained_primal_vectors(3)
    real = realize(xs[:, :2], ys[:, :2])
    assert abs(np.linalg.norm(real.psi) - 1.0) <= 1e-14
    for obs in real.observables_x + real.observables_y:
        assert np.abs(obs - obs.conj().T).max() <= 1e-12
        assert np.abs(obs @ obs - np.eye(real.dim)).max() <= 1e-10


def test_realize_input_validation():
    with pytest.raises(NotUnitVector):
        realize([np.array([1.0, 1.0])], [np.array([1.0, 0.0])])
    with pytest.raises(LengthMismatch):
        realize([np.array([1.0, 0.0])], [np.array([1.0, 0.0, 0.0])])


def test_correlation_identity_and_zz():
    psi = maximally_entangled_state(2)
    eye = np.eye(2, dtype=complex)
    assert correlation(eye, eye, psi) == pytest.approx(1.0, abs=1e-14)
    assert correlation(PAULI_Z, PAULI_Z, psi) == pytest.approx(1.0, abs=1e-14)


def test_correlation_two_routes_agree():
    rng = np.random.default_rng(37)
    for n in (2, 4, 7):
        gens = clifford_generators(n)
        d = gens[0].shape[0]
        psi = maximally_entangled_state(d)
        for _ in range(5):
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(n)
            y /= np.linalg.norm(y)
            ox = sum(x[k] * gens[k] for k in range(n))
            oy = sum(y[k] * gens[k] for k in range(n)).T
            a = correlation(ox, oy, psi)
            b = correlation_trace(ox, oy)
            assert abs(a - b) <= 1e-12


def test_correlation_dimension_mismatch():
    psi = maximally_entangled_state(2)
    with pytest.raises(DimensionMismatch):
        correlation(np.eye(2, dtype=complex), np.eye(4, dtype=complex), psi)


def test_roundtrip_random_families():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = rng.integers(1, 9)
        ka, kb = rng.integers(1, 5), rng.integers(1, 5)
        xs = rng.standard_normal((ka, n))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ys = rng.standard_normal((kb, n))
        ys /= np.linalg.norm(ys, axis=1, keepdims=True)
        real = realize(xs, ys)
        table = correlation_table(real)
        assert table.shape == (ka, kb)
        for s in range(ka):
            for t in range(kb):
                corr = correlation(
                    real.observables_x[s], real.observables_y[t], real.psi
                )
                assert abs(corr - float(np.dot(xs[s], ys[t]))) <= 1e-10
                assert abs(table[s, t] - corr) <= 1e-12


def test_inequality_value_counts():
    xs, ys = chained_primal_vectors(2)
    real = realize(xs[:, :2], ys[:, :2])
    with pytest.raises(SettingCountMismatch):
        inequality_value(chained(3), real)
    zero = new_inequality("zero", [[0.0, 0.0], [0.0, 0.0]])
    assert inequality_value(zero, real) == 0.0
