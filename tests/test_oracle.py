import functools
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from corpus import code_from_strings

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
    projection_prob,
    t_direction,
)

PAIR = Gf4Code(2, ((1, 1),))
FIVE = Gf4Code.from_pauli_strings(["XZZXI", "IXZZX"])
FIVE_PRODUCT = code_from_strings(["11000", "00110"])
HEXA = code_from_strings(["1001ww", "010w1w", "001ww1"])
SHIPPED = ((PAIR, 0), (FIVE, 1), (FIVE_PRODUCT, 1), (HEXA, 0))

S1_GROUP = [
    SignedPauli.from_word((0, 0), 1),
    SignedPauli.from_word((1, 1), 1),
    SignedPauli.from_word((3, 3), -1),
    SignedPauli.from_word((2, 2), 1),
]

# off the T axis, so that swapping the roles of X, Y or Z would show
OFF_AXIS = (
    DensityVector(1, Q(1, 2), 0, 0),
    DensityVector(1, 0, Q(1, 3), 0),
    DensityVector(1, 0, 0, Q(1, 3)),
    DensityVector(1, Q(1, 5), Q(2, 7), Q(1, 3)),
)


def rand_rbar(rng):
    return Q(rng.randint(-5, 5), rng.randint(9, 18))


# Dense reference for n <= 6, independent of the oracle: matrices as (real,
# imaginary) parts, the Pauli words in int64 and rho(a) in Python integers.
LETTERS = {  # (x bit, z bit) -> Pauli matrix; Y = [[0, -i], [i, 0]]
    (0, 0): (np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)),
    (1, 0): (np.array([[0, 1], [1, 0]]), np.zeros((2, 2), dtype=np.int64)),
    (1, 1): (np.zeros((2, 2), dtype=np.int64), np.array([[0, -1], [1, 0]])),
    (0, 1): (np.array([[1, 0], [0, -1]]), np.zeros((2, 2), dtype=np.int64)),
}


def cmul(op, a, b):
    return op(a[0], b[0]) - op(a[1], b[1]), op(a[0], b[1]) + op(a[1], b[0])


def dense_word(sp):
    out = (np.array([[sp.sign]]), np.zeros((1, 1), dtype=np.int64))
    for bit in reversed(range(sp.n)):  # qubit 0 is the most significant bit
        out = cmul(np.kron, out, LETTERS[sp.x >> bit & 1, sp.z >> bit & 1])
    return out


@functools.lru_cache(maxsize=None)
def dense_rho(bloch, n):
    """(2 d rho(a))^n as integer matrices, d the common denominator of a, and (2 d)^n."""
    comps = (bloch.a_i, bloch.a_x, bloch.a_y, bloch.a_z)
    d = math.lcm(*(c.denominator for c in comps))
    one = (np.zeros((2, 2), dtype=object),) * 2
    for c, letter in zip(comps, ((0, 0), (1, 0), (1, 1), (0, 1))):
        one = tuple(p + int(c * d) * q for p, q in zip(one, LETTERS[letter]))
    out = (np.ones((1, 1), dtype=object), np.zeros((1, 1), dtype=object))
    for _ in range(n):
        out = cmul(np.kron, out, one)
    return out, (2 * d) ** n


def dense_trace(paulis, n, k, blochs, logicals):
    """tr(Pi rho(a)^n Q_L) per Bloch vector and logical word, where Pi is the
    dense sum of the signed words over 2^(n-k)."""
    assert n <= 6
    words = [dense_word(sp) for sp in paulis]
    proj = (sum(w[0] for w in words), sum(w[1] for w in words))
    out = []
    for bloch, logical in zip(blochs, logicals):
        op = proj if logical is None else cmul(np.matmul, proj, dense_word(logical))
        rho, scale = dense_rho(bloch, n)
        re, im = cmul(lambda a, b: (a * b.T).sum(), op, rho)
        assert im == 0
        out.append(Q(int(re), 2 ** (n - k) * scale))
    return out


def commuting_word(rng, paulis, n):
    """A random signed word commuting with every listed word."""
    while True:
        x, z = rng.getrandbits(n), rng.getrandbits(n)
        if all(((x & sp.z) ^ (z & sp.x)).bit_count() % 2 == 0 for sp in paulis):
            return SignedPauli(n, x, z, rng.choice((1, -1)))


def check_against_dense(rng, paulis, n, k, blochs):
    """projection_prob and logical_component equal the dense reference."""
    proj = build_projector(paulis, n, k)
    logicals = [commuting_word(rng, paulis, n) for _ in blochs]
    got = [projection_prob(proj, b, n) for b in blochs]
    got += [logical_component(proj, q, b, n) for b, q in zip(blochs, logicals)]
    assert got == dense_trace(paulis, n, k, blochs + blochs, [None] * len(blochs) + logicals)


def test_m3_conjugation_relations():
    # order-3 Clifford cycling X -> Y -> Z -> X; dyadic entries, so exact
    m = 0.5 * np.array([[1 + 1j, 1 + 1j], [-1 + 1j, 1 - 1j]])
    md = m.conj().T
    assert np.array_equal(md @ m, np.eye(2))

    def pauli(x, z):
        re, im = LETTERS[x, z]
        return re + 1j * im

    # the oracle's letter cycle (x, z) -> (x ^ z, x) is conjugation by m
    for x, z in LETTERS:
        assert np.array_equal(md @ pauli(x, z) @ m, pauli(x ^ z, x)), (x, z)


def test_singlet_projector():
    proj = build_projector(rall_signs(PAIR), 2, 0)
    # the singlet (|01> - |10>)/sqrt(2): -XX, -YY and -ZZ
    assert proj.words == {(0, 0): 1, (3, 0): -1, (3, 3): -1, (0, 3): -1}
    assert commutes_with_m3(proj)
    # orthogonal to every symmetric pure product: eta = 0 at rbar^2 = 1/3
    A = weight_enumerator(PAIR)
    assert signed_eval(A, Q(1, 3)) == 0
    for pure in (DensityVector(1, 1, 0, 0), DensityVector(1, 0, 1, 0), DensityVector(1, 0, 0, -1)):
        assert projection_prob(proj, pure, 2) == 0
    # maximally mixed input: eta = 1/4
    assert projection_prob(proj, t_direction(0), 2) == Q(1, 4)


def test_bell_projector_from_plus_signs():
    proj = build_projector(S1_GROUP, 2, 0)
    # (|00> + |11>)/sqrt(2): +XX, -YY, +ZZ
    assert proj.words == {(0, 0): 1, (3, 0): 1, (3, 3): -1, (0, 3): 1}
    assert not commutes_with_m3(proj)
    assert projection_prob(proj, DensityVector(1, 0, 0, 1), 2) == Q(1, 2)
    assert projection_prob(proj, DensityVector(1, 0, 1, 0), 2) == 0
    assert projection_prob(proj, DensityVector(1, 1, 0, 0), 2) == Q(1, 2)


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
    flipped = S1_GROUP[:3] + [SignedPauli.from_word((2, 2), -1)]  # XX * -YY = +ZZ
    with pytest.raises(ValueError):
        build_projector(flipped, 2, 0)
    anticommuting = [SignedPauli.from_word((a, 0), 1) for a in range(4)]  # II, XI, ZI, YI
    with pytest.raises(ValueError):
        build_projector(anticommuting, 2, 0)


def test_identity_only_group():
    proj = build_projector([SignedPauli.from_word((0, 0, 0), 1)], 3, 3)
    assert proj.words == {(0, 0): 1}
    assert commutes_with_m3(proj)
    for bloch in OFF_AXIS:
        assert projection_prob(proj, bloch, 3) == 1


def test_m3_commutation_on_small_codes():
    for code, k in SHIPPED:
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


def test_shipped_codes_match_dense_reference():
    rng = random.Random(17)
    for code, k in SHIPPED:
        blochs = OFF_AXIS + (t_direction(rand_rbar(rng)),)
        check_against_dense(rng, rall_signs(code), code.n, k, blochs)


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


def test_negative_trace_is_unphysical():
    # rho(a) >= 0 needs a_i >= |a|, not only |a|^2 <= a_i^2
    assert not DensityVector(-1, 0, 0, 0).is_physical()
    assert not DensityVector(-1, Q(1, 2), 0, 0).is_physical()
    assert DensityVector(0, 0, 0, 0).is_physical()
    proj = build_projector(rall_signs(PAIR), 2, 0)
    with pytest.raises(ValueError):
        projection_prob(proj, DensityVector(-1, 0, 0, 0), 2)


def test_exact_at_n7():
    code = Gf4Code(7, ((1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 2, 2, 1, 0), (0, 0, 0, 1, 2, 2, 1)))
    A = weight_enumerator(code)
    proj = build_projector(rall_signs(code), 7, 1)
    assert proj.mode == "exact"
    rbar = Q(31, 100)
    assert projection_prob(proj, t_direction(rbar), 7) == signed_eval(A, rbar * rbar) / 64


def test_exact_at_n10():
    # [[10, 2]] code: two [[5, 1]] five-qubit codes side by side
    gens = [g + (0,) * 5 for g in FIVE.generators] + [(0,) * 5 + g for g in FIVE.generators]
    code = Gf4Code(10, tuple(gens))
    A = weight_enumerator(code)
    proj = build_projector(rall_signs(code), 10, 2)
    assert proj.mode == "exact"
    rbar = Q(31, 100)
    assert projection_prob(proj, t_direction(rbar), 10) == signed_eval(A, rbar * rbar) / 256
    # the logical Z of the first block factorises: its five-qubit value over 16
    logical = SignedPauli.from_word((2,) * 5 + (0,) * 5, -1)
    got = logical_component(proj, logical, t_direction(rbar), 10)
    assert got == (10 * rbar**3 - 6 * rbar**5) / 16 * signed_eval(weight_enumerator(FIVE), rbar * rbar) / 16


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
    # (I + Y)/2 with Y = [[0, -i], [i, 0]] projects onto the +1 eigenstate of
    # Y; the transpose (I - Y)/2 would swap the two values below
    paulis = [SignedPauli.from_word((0,), 1), SignedPauli.from_word((3,), 1)]
    proj = build_projector(paulis, 1, 0)
    assert proj.words == {(0, 0): 1, (1, 1): 1}
    assert projection_prob(proj, DensityVector(1, 0, Q(1, 3), 0), 1) == Q(2, 3)
    assert projection_prob(proj, DensityVector(1, 0, -Q(1, 3), 0), 1) == Q(1, 3)
    assert dense_trace(paulis, 1, 0, [DensityVector(1, 0, Q(1, 3), 0)], [None]) == [Q(2, 3)]


def test_random_codes_match_signed_eval():
    rng = random.Random(2025)
    dense_rng = random.Random(7)
    tried = 0
    for n in range(2, 7):
        for target in range(1, n // 2 + 1):
            for _ in range(4):
                code = random_self_orthogonal_code(rng, n, target_k=target)
                k = n - 2 * code.k
                A = weight_enumerator(code)
                signed = rall_signs(code)
                proj = build_projector(signed, n, k)
                rbars = []
                for _ in range(3):
                    rbar = rand_rbar(rng)
                    eta = projection_prob(proj, t_direction(rbar), n)
                    assert eta == signed_eval(A, rbar * rbar) / 2 ** (n - k), (code, rbar)
                    rbars.append(rbar)
                blochs = OFF_AXIS + tuple(t_direction(r) for r in rbars)
                check_against_dense(dense_rng, signed, n, k, blochs)
                tried += 1
    assert tried == 36
