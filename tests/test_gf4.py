import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import code_from_strings, random_codes

from gf4msd import gf4
from gf4msd.gf4 import (
    CONJ,
    MUL,
    BudgetExceededError,
    Gf4Code,
    NotM3CodeError,
    ParseError,
    SignedPauli,
    enumerate_codewords,
    hermitian_dual,
    hermitian_ip,
    is_self_dual,
    is_self_orthogonal,
    pack,
    parse_code,
    parse_database,
    rall_signs,
    random_self_orthogonal_code,
    rref,
    shorten,
    shortened_enumerators,
    unpack,
    vec_add,
    vec_scale,
    weight,
    weight_enumerator,
    zero_code,
)

FIVE = Gf4Code.from_pauli_strings(["XZZXI", "IXZZX"])
HEXA = code_from_strings(["1001ww", "010w1w", "001ww1"])


def test_field_relations():
    w, w2 = 2, 3
    assert MUL[w][w] == w2              # w^2 = w + 1
    assert w ^ 1 == w2                  # addition is bitwise
    assert MUL[w][w2] == 1              # w^3 = 1
    assert CONJ[w] == w2 and CONJ[w2] == w
    for a in range(4):
        assert CONJ[a] == MUL[a][a]     # conjugation is squaring
        for b in range(4):
            assert MUL[a][b] == MUL[b][a]
    for a, b, c in itertools.product(range(4), repeat=3):
        assert MUL[MUL[a][b]][c] == MUL[a][MUL[b][c]]
        assert MUL[a][b ^ c] == MUL[a][b] ^ MUL[a][c]


def test_code_validation():
    with pytest.raises(ValueError):
        Gf4Code(3, ((1, 1, 0), (1, 1, 0)))
    with pytest.raises(ValueError):
        Gf4Code(2, ((1, 1, 1),))
    with pytest.raises(ValueError):
        Gf4Code(2, ((1, 4),))


def test_hexacode_self_dual():
    assert is_self_orthogonal(HEXA)
    assert is_self_dual(HEXA)
    dual = hermitian_dual(HEXA)
    assert dual.k == 3
    words = [unpack(6, w) for w in enumerate_codewords(HEXA)]
    assert len(words) == 64
    for i, u in enumerate(words):
        for v in words[i:]:
            assert hermitian_ip(u, v) == 0
    tallies = weight_enumerator(HEXA)
    assert tallies.coeffs == (1, 0, 0, 0, 45, 0, 18)


def test_zero_code_dual_is_full_space():
    z = zero_code(4)
    assert weight_enumerator(z).coeffs == (1, 0, 0, 0, 0)
    assert [unpack(4, w) for w in enumerate_codewords(z)] == [(0, 0, 0, 0)]
    assert hermitian_dual(z).k == 4


def test_five_qubit_code():
    assert is_self_orthogonal(FIVE)
    assert weight_enumerator(FIVE).coeffs == (1, 0, 0, 0, 15, 0)
    assert len(list(enumerate_codewords(FIVE))) == 16
    dual = hermitian_dual(FIVE)
    assert dual.k == 3
    for g in FIVE.generators:
        assert dual.contains(g)


def test_double_dual_row_space():
    for code in (FIVE, HEXA, Gf4Code(2, ((1, 1),))):
        dd = hermitian_dual(hermitian_dual(code))
        assert dd.k == code.k
        for g in code.generators:
            assert dd.contains(g)


def test_full_space_not_self_orthogonal():
    full = Gf4Code(2, ((1, 0), (0, 1)))
    assert not is_self_orthogonal(full)


def test_shorten():
    s = shorten(HEXA, 0)
    assert s.n == 5 and s.k == 2
    assert is_self_orthogonal(s)
    # every shortened word extends by a zero back into the parent
    for w in enumerate_codewords(s):
        assert HEXA.contains((0,) + unpack(5, w))
    z = shorten(zero_code(4), 2)
    assert z.n == 3 and z.k == 0
    with pytest.raises(IndexError):
        shorten(HEXA, 6)


def test_hexacode_shortenings_all_match_five_qubit():
    enums = {weight_enumerator(shorten(HEXA, i)).coeffs for i in range(6)}
    assert enums == {(1, 0, 0, 0, 15, 0)}


def test_product_code_shortenings():
    prod = code_from_strings(["110000", "001100", "000011"])
    assert is_self_dual(prod)
    enums = {weight_enumerator(shorten(prod, i)).coeffs for i in range(6)}
    assert enums == {(1, 0, 6, 0, 9, 0)}


def test_rall_signs():
    pair = Gf4Code(2, ((1, 1),))
    signed = {str(s) for s in rall_signs(pair)}
    assert signed == {"+II", "-XX", "-YY", "-ZZ"}
    for s in rall_signs(FIVE):
        word = unpack(s.n, (s.x << s.n) | s.z)
        assert s.sign == (1 if weight(word) % 4 == 0 else -1)
        if weight(word) == 4:
            assert s.sign == 1
    with pytest.raises(NotM3CodeError):
        rall_signs(Gf4Code(2, ((1, 0), (0, 1))))


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        weight_enumerator(HEXA, budget=16)
    with pytest.raises(BudgetExceededError):
        list(enumerate_codewords(HEXA, budget=16))


def test_parser_roundtrip(codes_dir):
    text = (codes_dir / "five_qubit.g4c").read_text()
    code = parse_code(text)
    assert code.generators == FIVE.generators
    assert parse_code(code.to_text()).generators == code.generators


def test_parser_database(codes_dir):
    codes = parse_database((codes_dir / "selfdual6.g4cdb").read_text())
    assert len(codes) == 2
    assert all(is_self_dual(c) for c in codes)


def test_parser_errors():
    with pytest.raises(ParseError):
        parse_code("5\n11111\n")
    with pytest.raises(ParseError):
        parse_code("2 1\n1\n")
    with pytest.raises(ParseError):
        parse_code("2 1\nxz\n")
    try:
        parse_code("2 1\n111\n")
    except ParseError as exc:
        assert exc.line == 2


def test_random_self_orthogonal_generator():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice([4, 6, 8])
        code = random_self_orthogonal_code(rng, n)
        assert is_self_orthogonal(code)
        for w in enumerate_codewords(code):
            assert weight(unpack(n, w)) % 2 == 0


def test_seeded_codes_are_pinned():
    """The seeded grower's codes are inputs of the demos and the benchmark;
    this digest, over seeds 0-29 and n = 0..21, pins every one of them."""
    h = hashlib.sha256()
    for seed in range(30):
        for n in range(22):
            h.update(random_self_orthogonal_code(random.Random(seed), n).to_text().encode())
            h.update(random_self_orthogonal_code(random.Random(seed), n, target_k=n // 2).to_text().encode())
            if n % 2:
                h.update(gf4.random_maximal_self_orthogonal_code(random.Random(seed), n).to_text().encode())
    assert h.hexdigest() == "34e49f757cbb23d0371262213679bad49bf54998ac02a19fa1c72b5ed22249c2"


def _span(rows, n):
    """Every GF(4) combination of the rows, by brute force."""
    out = set()
    for coeffs in itertools.product(range(4), repeat=len(rows)):
        v = (0,) * n
        for c, r in zip(coeffs, rows):
            v = vec_add(v, vec_scale(c, r))
        out.add(v)
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=4), st.randoms())
    )
)
def test_rref_against_brute_force_span(case):
    n, rows, rng = case
    red, pivots = rref(rows, n)
    assert _span(red, n) == _span(rows, n)
    assert len(red) == len(pivots) and pivots == sorted(set(pivots))
    for r, c in zip(red, pivots):
        assert c == next(i for i, a in enumerate(r) if a) and r[c] == 1
        assert all(s[c] == 0 for s in red if s is not r)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert rref(shuffled, n) == (red, pivots)
    # membership by the stored rref agrees with the brute-force span
    span = _span(rows, n)
    words = [tuple(r) for r in rows] + [tuple(rng.randrange(4) for _ in range(n)) for _ in range(6)]
    words += rng.sample(sorted(span), min(len(span), 3))
    code = Gf4Code(n, tuple(red))
    for v in words:
        assert code.contains(v) == (v in span)


def test_vec_helpers():
    assert vec_add((1, 2), (3, 0)) == (2, 2)
    assert weight((0, 1, 2, 0, 3)) == 3


def test_packed_word_format():
    # x holds letters 1 and 3, z letters 2 and 3, entry 0 most significant
    assert pack((1, 2, 3, 0)) == (0b1010 << 4) | 0b0110
    assert unpack(4, pack((1, 2, 3, 0))) == (1, 2, 3, 0)
    sp = SignedPauli.from_word((1, 2, 3, 0), -1)
    assert (sp.n, sp.x, sp.z, sp.sign) == (4, 0b1010, 0b0110, -1)
    assert str(sp) == "-XZYI"


def _reference_codewords(code):
    """sum_i s_i g_i over every scalar vector, s_0 most significant."""
    multiples = [[vec_scale(s, g) for s in range(4)] for g in code.generators]
    for terms in itertools.product(*multiples):
        acc = (0,) * code.n
        for t in terms:
            acc = vec_add(acc, t)
        yield acc


def _random_code(rng, n, k):
    while True:
        try:
            return Gf4Code(n, tuple(tuple(rng.randrange(4) for _ in range(n)) for _ in range(k)))
        except ValueError:  # dependent generators
            continue


def test_packed_stream_matches_reference_in_order():
    # k > 6 crosses the split of the stream into head products and a tail span
    rng = random.Random(29)
    for k in range(9):
        code = _random_code(rng, k + 3, k)
        words = [unpack(code.n, w) for w in enumerate_codewords(code)]
        assert words == list(_reference_codewords(code)), k


def _assert_shortenings_match(code):
    got = shortened_enumerators(code)
    assert got == [weight_enumerator(shorten(code, c)) for c in range(code.n)]
    assert all(type(a) is int for A in got for a in A.coeffs)


def _assert_matches_stream_tally(monkeypatch, code):
    n, k = code.n, code.k
    A = weight_enumerator(code)
    tally = Counter(weight(unpack(n, w)) for w in enumerate_codewords(code))
    assert A.coeffs == tuple(tally[j] for j in range(n + 1))
    assert all(type(a) is int for a in A.coeffs) and sum(A.coeffs) == 4**k
    _assert_shortenings_match(code)

    def no_work(word):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(gf4, "pack", no_work)
    with pytest.raises(BudgetExceededError, match="4\\^%d codewords exceed budget %d" % (k, 4**k - 1)):
        weight_enumerator(code, budget=4**k - 1)
    if n:
        # the first shortening, of dimension k or k - 1, is the first over
        # a budget one word short of 4^(k - 1)
        dim = k - any(g[0] for g in code.generators)
        budget = 4 ** (k - 1) - 1 if k else 0
        with pytest.raises(BudgetExceededError, match="4\\^%d codewords exceed budget %d$" % (dim, budget)):
            shortened_enumerators(code, budget=budget)


@pytest.mark.parametrize(
    "n,k",
    [(k + 3, k) for k in range(9)]
    + [(n, k) for n in (63, 64, 65, 70) for k in (0, 1, 3)]
    + [(n, k) for n in (64, 65, 70) for k in (6, 7, 8)],
)
def test_weight_enumerator_matches_stream_tally(monkeypatch, n, k):
    # k > 6 tallies the head combinations whose leading scalar is 1, each
    # XORed into the span of the last 6 generators; n = 64 is the last
    # length whose x and z masks fit one 64-bit limb
    _assert_matches_stream_tally(monkeypatch, _random_code(random.Random(n * 16 + k), n, k))


def test_weight_enumerator_with_an_all_zero_coordinate(monkeypatch):
    # a column no generator touches at entry 64, bit 5 of the low limb: entry 0
    # is the top bit, so entries 0-5 fill the high limb
    code = _random_code(random.Random(7), 69, 7)
    padded = Gf4Code(70, tuple(g[:64] + (0,) + g[64:] for g in code.generators))
    assert weight_enumerator(padded).coeffs == weight_enumerator(code).coeffs + (0,)
    _assert_matches_stream_tally(monkeypatch, padded)


def test_shortened_enumerators_match_shorten_on_the_corpus():
    for code in random_codes():
        _assert_shortenings_match(code)


def test_shortened_enumerators_of_the_zero_code_and_length_zero():
    assert shortened_enumerators(zero_code(0)) == []
    assert [A.coeffs for A in shortened_enumerators(zero_code(3))] == [(1, 0, 0)] * 3
    assert [A.coeffs for A in shortened_enumerators(Gf4Code(1, ((2,),)))] == [(1,)]


def test_shortened_enumerators_guard_each_shortening():
    # shortening at the column no generator touches keeps dimension 2; the
    # other shortenings have dimension 1
    code = Gf4Code(3, ((1, 1, 0), (2, 3, 0)))
    assert [sum(A.coeffs) for A in shortened_enumerators(code, budget=16)] == [4, 4, 16]
    with pytest.raises(BudgetExceededError, match="4\\^2 codewords exceed budget 15$"):
        shortened_enumerators(code, budget=15)
    with pytest.raises(BudgetExceededError, match="4\\^1 codewords exceed budget 3$"):
        shortened_enumerators(code, budget=3)
