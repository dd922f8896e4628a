import random
from fractions import Fraction as Q

import numpy as np
import pytest

from gf4msd.enumerators import signed_eval
from gf4msd.gf4 import (
    Gf4Code,
    SignedPauli,
    rall_signs,
    random_self_orthogonal_code,
    weight_enumerator,
)
from gf4msd.oracle import (
    DensityVector,
    build_projector,
    commutes_with_m3,
    logical_component,
    m3_unitary,
    projection_prob,
    t_direction,
)

PAIR = Gf4Code(2, ((1, 1),))
FIVE = Gf4Code.from_pauli_strings(["XZZXI", "IXZZX"])
FIVE_PRODUCT = Gf4Code.from_strings(["11000", "00110"])
HEXA = Gf4Code.from_strings(["1001ww", "010w1w", "001ww1"])

S1_GROUP = [
    SignedPauli.from_word((0, 0), 1),
    SignedPauli.from_word((1, 1), 1),
    SignedPauli.from_word((3, 3), -1),
    SignedPauli.from_word((2, 2), 1),
]


def rand_rbar(rng):
    return Q(rng.randint(-5, 5), rng.randint(9, 18))


def test_m3_conjugation_relations():
    m = m3_unitary()
    md = m.conj().T
    x = np.array([[0, 1], [1, 0]])
    y = np.array([[0, -1j], [1j, 0]])
    z = np.array([[1, 0], [0, -1]])
    assert np.array_equal(md @ x @ m, y)
    assert np.array_equal(md @ y @ m, z)
    assert np.array_equal(md @ z @ m, x)
    # unitary
    assert np.array_equal(md @ m, np.eye(2))


def test_singlet_projector():
    proj = build_projector(rall_signs(PAIR), 2, 0)
    # rank-1 projector onto (|01> - |10>)/sqrt(2)
    assert proj.mat[1, 1] == 0.5
    assert proj.mat[1, 2] == -0.5
    assert proj.mat[0, 0] == 0
    assert np.trace(proj.mat) == 1
    # orthogonal to the symmetric pure direction: eta = 0 at rbar^2 = 1/3
    A = weight_enumerator(PAIR)
    assert signed_eval(A, Q(1, 3)) == 0
    # maximally mixed input: eta = 1/4
    assert projection_prob(proj, t_direction(0), 2) == Q(1, 4)


def test_bell_projector_from_plus_signs():
    proj = build_projector(S1_GROUP, 2, 0)
    assert proj.mat[0, 0] == 0.5
    assert proj.mat[0, 3] == 0.5
    assert not commutes_with_m3(proj)


def test_inconsistent_signs_rejected():
    bad = [
        SignedPauli.from_word((0, 0), -1),
        SignedPauli.from_word((1, 1), 1),
        SignedPauli.from_word((3, 3), -1),
        SignedPauli.from_word((2, 2), 1),
    ]
    with pytest.raises(ValueError):
        build_projector(bad, 2, 0)
    with pytest.raises(ValueError):
        build_projector(S1_GROUP[:2], 2, 0)


def test_identity_only_group():
    proj = build_projector([SignedPauli.from_word((0, 0, 0), 1)], 3, 3)
    assert np.array_equal(proj.mat, np.eye(8))


def test_m3_commutation_on_small_codes():
    for code, k in ((PAIR, 0), (FIVE, 1), (FIVE_PRODUCT, 1), (HEXA, 0)):
        proj = build_projector(rall_signs(code), code.n, k)
        assert commutes_with_m3(proj)


def test_exact_projection_matches_signed_eval():
    rng = random.Random(23)
    for code, k in ((PAIR, 0), (FIVE, 1), (FIVE_PRODUCT, 1)):
        A = weight_enumerator(code)
        proj = build_projector(rall_signs(code), code.n, k)
        for _ in range(20):
            rbar = rand_rbar(rng)
            eta = projection_prob(proj, t_direction(rbar), code.n)
            assert eta == signed_eval(A, rbar * rbar) / 2 ** (code.n - k)


def test_hexacode_projection():
    rng = random.Random(5)
    A = weight_enumerator(HEXA)
    proj = build_projector(rall_signs(HEXA), 6, 0)
    for _ in range(3):
        rbar = rand_rbar(rng)
        assert projection_prob(proj, t_direction(rbar), 6) == signed_eval(A, rbar * rbar) / 64


def test_logical_component_five_qubit():
    rng = random.Random(31)
    proj = build_projector(rall_signs(FIVE), 5, 1)
    logical = SignedPauli.from_word((2,) * 5, -1)  # signed logical Z word
    for _ in range(6):
        rbar = rand_rbar(rng)
        got = logical_component(proj, logical, t_direction(rbar), 5)
        assert got == (10 * rbar**3 - 6 * rbar**5) / 16
    # identity logical reduces to the projection probability
    ident = SignedPauli.from_word((0,) * 5, 1)
    rbar = Q(1, 4)
    assert logical_component(proj, ident, t_direction(rbar), 5) == projection_prob(
        proj, t_direction(rbar), 5
    )


def test_noncommuting_logical_rejected():
    proj = build_projector(rall_signs(FIVE), 5, 1)
    bad = SignedPauli.from_word((1, 0, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        logical_component(proj, bad, t_direction(Q(1, 4)), 5)


def test_unphysical_bloch_rejected():
    proj = build_projector(rall_signs(PAIR), 2, 0)
    with pytest.raises(ValueError):
        projection_prob(proj, t_direction(Q(2, 3)), 2)
    assert DensityVector(1, Q(1, 2), Q(1, 2), Q(1, 2)).is_physical()


def test_float_mode():
    code = Gf4Code(7, ((1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 2, 2, 1, 0), (0, 0, 0, 1, 2, 2, 1)))
    A = weight_enumerator(code)
    proj = build_projector(rall_signs(code), 7, 1)
    assert proj.mode == "float"
    rbar = Q(31, 100)
    eta = projection_prob(proj, t_direction(rbar), 7)
    assert abs(eta - float(signed_eval(A, rbar * rbar)) / 64) < 1e-10


def test_oracle_eps_out_matches_map():
    import math

    from gf4msd.distill import build_map

    rng = random.Random(41)
    A = weight_enumerator(FIVE)
    dmap = build_map(A)
    proj = build_projector(rall_signs(FIVE), 5, 1)
    logical = SignedPauli.from_word((2,) * 5, -1)
    sqrt3 = math.sqrt(3)
    for _ in range(20):
        rbar = rand_rbar(rng)
        eta = projection_prob(proj, t_direction(rbar), 5)
        eta_l = logical_component(proj, logical, t_direction(rbar), 5)
        eps_oracle = 0.5 * (1 - sqrt3 * float(eta_l) / float(eta))
        eps_in = (1 - float(rbar) * sqrt3) / 2
        eps_map = float(dmap.eps_out(Q(eps_in).limit_denominator(10**12)))
        assert abs(eps_oracle - eps_map) < 1e-10


def test_y_projector_is_not_transposed():
    # (I + Y)/2 with Y = [[0, -i], [i, 0]]; the transpose would flip the signs of i
    proj = build_projector([SignedPauli.from_word((0,), 1), SignedPauli.from_word((3,), 1)], 1, 0)
    assert np.array_equal(proj.mat, np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    assert projection_prob(proj, DensityVector(1, 0, Q(1, 3), 0), 1) == Q(2, 3)


def test_random_codes_match_signed_eval():
    rng = random.Random(2025)
    tried = 0
    for n in range(2, 7):
        for target in range(1, n // 2 + 1):
            for _ in range(4):
                code = random_self_orthogonal_code(rng, n, target_k=target)
                k = n - 2 * code.k
                A = weight_enumerator(code)
                proj = build_projector(rall_signs(code), n, k)
                for _ in range(3):
                    rbar = rand_rbar(rng)
                    eta = projection_prob(proj, t_direction(rbar), n)
                    assert eta == signed_eval(A, rbar * rbar) / 2 ** (n - k), (code, rbar)
                tried += 1
    assert tried == 36


def test_float_mode_n10():
    # [[10, 2]] code: two [[5, 1]] five-qubit codes side by side
    gens = [g + (0,) * 5 for g in FIVE.generators] + [(0,) * 5 + g for g in FIVE.generators]
    code = Gf4Code(10, tuple(gens))
    A = weight_enumerator(code)
    proj = build_projector(rall_signs(code), 10, 2)
    assert proj.mode == "float"
    rbar = Q(31, 100)
    eta = projection_prob(proj, t_direction(rbar), 10)
    assert abs(eta - float(signed_eval(A, rbar * rbar)) / 256) < 1e-10
