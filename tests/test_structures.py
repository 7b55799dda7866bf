"""Constraint matrices, parameter counts, projections, and the oracle's
encode/decode on the package's basis."""

import numpy as np
import pytest

from covstruct import structures
from covstruct.structures import Hypothesis, basis_log_norm, param_count, project

from conftest import random_pd_matrix
from oracle import (
    StructureViolationError,
    complex_normal,
    satisfies_structure,
    structure_model,
    structure_residual,
    vec,
)

J = 1j

# Constraint matrix for the full Hermitian hypothesis at N=3, written out
# entry-for-entry. Rows follow column-stacked vec order; columns follow the
# slot order [M11, ReM21, ImM21, ReM31, ImM31, M22, ReM32, ImM32, M33].
C_H1_N3 = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, J, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, J, 0, 0, 0, 0],
        [0, 1, -J, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, J, 0],
        [0, 0, 0, 1, -J, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, -J, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1],
    ],
    dtype=complex,
)


def expected_param_count(h, n):
    # Independent oracle: count free real parameters by structure definition.
    if h is Hypothesis.H1:
        return n * n
    if h in (Hypothesis.H2, Hypothesis.H3):
        return n * (n + 1) // 2
    if n % 2 == 0:
        half = n // 2
        return half * (half + 1)
    half = (n + 1) // 2
    return half * half


def test_param_counts_match_oracle():
    for n in range(2, 14):
        for h in Hypothesis:
            assert param_count(h, n) == expected_param_count(h, n)


def test_constraint_matrix_h1_n3_pinned():
    model = structure_model(Hypothesis.H1, 3)
    np.testing.assert_array_equal(model.constraint, C_H1_N3)


def test_basis_matrix_is_formed_once_and_read_only():
    c = structures.structure_model(Hypothesis.H3, 5)
    assert structures.structure_model(Hypothesis.H3, 5) is c
    assert not c.flags.writeable
    assert c.shape == (25, param_count(Hypothesis.H3, 5))


def test_constraint_entries_in_allowed_set():
    allowed = {0, 1, -1, 1j, -1j}
    for n in (2, 3, 4, 5):
        for h in Hypothesis:
            c = structure_model(h, n).constraint
            for value in c.ravel():
                assert complex(value) in allowed


def test_constraint_shape_and_rank():
    for n in (2, 3, 4, 5, 6, 7):
        for h in Hypothesis:
            model = structure_model(h, n)
            assert model.constraint.shape == (n * n, model.m)
            assert model.m == param_count(h, n)
            # Columns are orthogonal with positive norms: full column rank.
            gram = model.constraint.conj().T @ model.constraint
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() == 0.0
            assert np.diag(gram).real.min() >= 1.0
    # The closed form of sum_q log ||C_q||^2 counts orbit sizes.
    for n in range(1, 16):
        for h in Hypothesis:
            c = structure_model(h, n).constraint
            want = float(np.sum(np.log(np.einsum("ij,ij->j", c.conj(), c).real)))
            assert basis_log_norm(h, n) == pytest.approx(want, rel=1e-12, abs=0.0), (h, n)


def test_decode_satisfies_vec_equation(rng):
    for n in (3, 4, 5):
        for h in Hypothesis:
            model = structure_model(h, n)
            theta = rng.standard_normal(model.m)
            m = model.decode(theta)
            np.testing.assert_allclose(
                vec(m), model.constraint @ theta, rtol=0, atol=1e-12
            )
            assert satisfies_structure(h, m)


def test_encode_decode_round_trip(rng):
    for n in (2, 3, 4, 5, 6):
        for h in Hypothesis:
            model = structure_model(h, n)
            m = random_pd_matrix(rng, n, h)
            theta = model.encode(m)
            np.testing.assert_allclose(model.decode(theta), m, rtol=0, atol=1e-10)
            theta2 = rng.standard_normal(model.m)
            np.testing.assert_allclose(
                model.encode(model.decode(theta2)), theta2, rtol=0, atol=1e-10
            )


def test_real_hypotheses_decode_to_real(rng):
    for h in (Hypothesis.H2, Hypothesis.H4):
        model = structure_model(h, 5)
        m = model.decode(rng.standard_normal(model.m))
        assert m.dtype.kind == "f"


def test_encode_rejects_structure_violation(rng):
    m = complex_normal(rng, (4, 4))
    m = m @ m.conj().T + 8 * np.eye(4)  # Hermitian but not centrohermitian
    model = structure_model(Hypothesis.H3, 4)
    with pytest.raises(StructureViolationError):
        model.encode(m)


def test_project_produces_exact_structure(rng):
    for n in (3, 4, 5, 6):
        raw = complex_normal(rng, (n, n))
        raw = 0.5 * (raw + raw.conj().T)
        for h in Hypothesis:
            p = project(h, raw)
            assert satisfies_structure(h, p)
            assert structure_residual(h, p) <= 1e-15 * max(1.0, np.abs(p).max())


def test_project_is_idempotent(rng):
    raw = complex_normal(rng, (5, 5))
    raw = 0.5 * (raw + raw.conj().T)
    for h in Hypothesis:
        once = project(h, raw)
        twice = project(h, once)
        np.testing.assert_array_equal(once, twice)


def test_project_nesting_is_bit_exact(rng):
    # The H4 projection equals the real part of the H3 projection exactly,
    # and projecting an already-structured matrix changes nothing.
    raw = complex_normal(rng, (6, 6))
    raw = 0.5 * (raw + raw.conj().T)
    h3 = project(Hypothesis.H3, raw)
    h4 = project(Hypothesis.H4, raw)
    np.testing.assert_array_equal(h4, h3.real)
    np.testing.assert_array_equal(project(Hypothesis.H4, h4), h4)


def test_structure_residual_flags_violations(rng):
    m = random_pd_matrix(rng, 4, Hypothesis.H3)
    m = np.array(m)
    m[0, 1] += 0.5
    m[1, 0] += 0.5  # keep Hermitian, break the flip symmetry
    assert structure_residual(Hypothesis.H3, m) > 1e-3
    assert not satisfies_structure(Hypothesis.H3, m)


def test_hypothesis_labels():
    assert Hypothesis.H1.name == "H1"
    assert Hypothesis.H3.label == "centrohermitian"
    assert [int(h) for h in Hypothesis] == [1, 2, 3, 4]
    assert Hypothesis.H2.is_real and Hypothesis.H4.is_real
    assert not Hypothesis.H1.is_real and not Hypothesis.H3.is_real
