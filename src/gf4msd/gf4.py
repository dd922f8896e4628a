"""GF(4) arithmetic and linear codes under the Hermitian inner product.

Field elements are ints 0..3 encoding {0, 1, w, w2} with w2 = w + 1;
addition is XOR and conjugation swaps w and w2.  Pauli letters follow the
fixed convention 1 <-> X, w <-> Z, w2 <-> Y, used consistently everywhere
(any fixed choice works because distillation inputs are twirled).

Codewords and signed Paulis are packed into x/z bitmasks, as in the GF(4)
to Pauli correspondence of Calderbank, Rains, Shor and Sloane and the
symplectic form of Aaronson and Gottesman: x holds letters 1 and 3 (X, Y),
z holds letters 2 and 3 (Z, Y), entry 0 is the most significant bit, and a
length-n word is the one int (x << n) | z.  Addition is XOR of the packed
ints, and multiplying by w maps (x, z) to (z, x ^ z).

`rref` is the one elimination over GF(4).  `nullspace`, and so the
Hermitian dual, reads its pivots; `Gf4Code.contains` clears a word with
the same reduction step against the stored rref; `shorten` is the rref of
the stored rref's rows with the shortened column moved to the front; and the
random grower rejects dependent candidates with `contains`.  The Hermitian
dual is generated by the nullspace basis, which is independent, so it is
built without an elimination and its rref is computed only if read.

All types are immutable after construction and safe to share across
threads (a code's lazily computed rref is a function of its generators).
Codeword enumeration is a deterministic stream: every codeword is the XOR
of one head, a combination of the first k - 6 generators, with one word of
the span of the last <= 6.  The weight enumerator tallies the
same split with numpy, but only one word of each scalar orbit: c, w c and
w2 c share their support, so A_j for j >= 1 is three times the tally and
A_j = 0 (mod 3).  It tallies the words whose first nonzero scalar is 1:
slices of the tail's span as that span grows, then the heads whose leading
scalar is 1, each XORed into the full span.  Blocks hold at most 4096
words as x and z masks in 64-bit limbs; a word's weight is popcount(x | z).
`shortened_enumerators` tallies the same blocks once for every shortening
of the code, by a joint count of each support byte's value and the word's
weight; `search` reads every shortening of a code from that one pass over
the parent's orbit words.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .enumerators import DomainError, Enumerator, ParseError

GF4_CHARS = "01wW"
PAULI_CHARS = "IXZY"  # indexed by field element

MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)
CONJ = (0, 1, 3, 2)

DEFAULT_BUDGET = 4**18


class BudgetExceededError(RuntimeError):
    pass


class NotM3CodeError(DomainError):
    pass


def vec_add(u, v):
    return tuple(a ^ b for a, b in zip(u, v))


def vec_scale(s, v):
    if s == 1:
        return v
    row = MUL[s]
    return tuple(row[a] for a in v)


def weight(v) -> int:
    return sum(1 for a in v if a)


def hermitian_ip(u, v) -> int:
    acc = 0
    for a, b in zip(u, v):
        acc ^= MUL[a][CONJ[b]]
    return acc


def _eliminate(r, pivots):
    """r minus the multiples of the pivot rows that clear it at their columns;
    pivots are (column, row) pairs, each row 1 at its own column and 0 at
    the others', so the order of the pairs does not matter."""
    for c, p in pivots:
        if r[c]:
            r = vec_add(r, vec_scale(r[c], p))
    return r


def rref(rows, n):
    """Reduced row echelon form over GF(4), pivoting in the first n columns,
    by one pass of Gauss-Jordan elimination; returns (rows, pivot_columns),
    the rows sorted by pivot column.  The form of a row space is unique, so
    it does not depend on the order of the rows."""
    pivots = {}  # column -> row, 1 there and 0 at every other pivot column
    for r in rows:
        r = _eliminate(tuple(r), pivots.items())
        col = next((c for c in range(n) if r[c]), None)
        if col is None:
            continue
        r = vec_scale(CONJ[r[col]], r)  # a^3 = 1, so 1/a = a^2 = conj(a)
        for c, p in pivots.items():
            pivots[c] = _eliminate(p, ((col, r),))
        pivots[col] = r
    cols = sorted(pivots)
    return [pivots[c] for c in cols], cols


def nullspace(rows, n):
    """Basis of {v : sum_i rows[r][i] * v[i] = 0} over GF(4), deterministic."""
    red, pivots = rref(rows, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for r, pc in zip(red, pivots):
            # pivot entry is 1, so v[pc] = -sum_{c>pc} r[c] v[c] = r[f]
            v[pc] = r[f]
        basis.append(tuple(v))
    return basis


@dataclass(frozen=True)
class Gf4Code:
    """Linear [n, k] code over GF(4) given by k independent generators."""

    n: int
    generators: tuple

    def __post_init__(self):
        gens = tuple(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if len(g) != self.n:
                raise ValueError("generator length != n")
            if any(a not in (0, 1, 2, 3) for a in g):
                raise ValueError("entries must be GF(4) elements 0..3")
        red, pivots = rref(gens, self.n)
        if len(red) != len(gens):
            raise ValueError("generators are linearly dependent")
        self.__dict__["_rref"] = (tuple(red), tuple(pivots))

    @functools.cached_property
    def _rref(self):
        """(rows, pivot columns) of the generators' rref, computed on first
        use for a code built from rows known to be independent."""
        red, pivots = rref(self.generators, self.n)
        return tuple(red), tuple(pivots)

    @property
    def k(self) -> int:
        return len(self.generators)

    @classmethod
    def from_pauli_strings(cls, rows):
        gens = []
        for row in rows:
            gens.append(tuple(PAULI_CHARS.index(ch) for ch in row.strip().upper()))
        n = len(gens[0]) if gens else 0
        return cls(n, tuple(gens))

    def contains(self, v) -> bool:
        red, pivots = self._rref
        return not any(_eliminate(v, zip(pivots, red)))

    def to_text(self) -> str:
        lines = ["%d %d" % (self.n, self.k)]
        for g in self.generators:
            lines.append("".join(GF4_CHARS[a] for a in g))
        return "\n".join(lines) + "\n"


def _independent_code(n: int, generators, pivots=None) -> Gf4Code:
    """The code generated by rows known to be independent, built without an
    elimination.  With pivots given, the rows are in reduced row echelon
    form with those pivots and are stored as the rref; otherwise the rref
    is computed when `contains` or `shorten` first reads it."""
    code = object.__new__(Gf4Code)
    object.__setattr__(code, "n", n)
    object.__setattr__(code, "generators", tuple(generators))
    if pivots is not None:
        code.__dict__["_rref"] = (code.generators, tuple(pivots))
    return code


def zero_code(n: int) -> Gf4Code:
    return Gf4Code(n, ())


def hermitian_dual(code: Gf4Code) -> Gf4Code:
    """The [n, n-k] code Hermitian-orthogonal to every generator, generated
    by the nullspace basis in its order."""
    # v is dual iff sum_i g_i conj(v_i) = 0; conjugating that equation
    # shows v solves the system with conjugated generator rows.
    conj_rows = [tuple(CONJ[a] for a in g) for g in code.generators]
    # each basis vector is 1 at its own free column and 0 at the others'
    return _independent_code(code.n, nullspace(conj_rows, code.n))


def is_self_orthogonal(code: Gf4Code) -> bool:
    gens = code.generators
    for i, u in enumerate(gens):
        for v in gens[i:]:
            if hermitian_ip(u, v):
                return False
    return True


def is_self_dual(code: Gf4Code) -> bool:
    return 2 * code.k == code.n and is_self_orthogonal(code)


def pack(word) -> int:
    """The packed mask (x << n) | z of a GF(4) word."""
    x = z = 0
    for a in word:
        x = (x << 1) | (a & 1)
        z = (z << 1) | (a >> 1)
    return (x << len(word)) | z


def unpack(n: int, w: int) -> tuple:
    """The GF(4) word of length n packed in w."""
    x = w >> n
    return tuple((x >> i & 1) | (w >> i & 1) << 1 for i in range(n - 1, -1, -1))


def _split(code: Gf4Code, budget: int):
    """Check the budget, then split the generators' multiples into (head, tail).

    Each generator g has the multiples (0, g, w g, w2 g), packed.  The head
    holds those of the first k - 6 generators, the tail those of the last
    <= 6, whose span has at most 4^6 words.
    """
    if 4**code.k > budget:
        raise BudgetExceededError("4^%d codewords exceed budget %d" % (code.k, budget))
    n = code.n
    multiples = []
    for g in code.generators:
        p = pack(g)
        x, z = p >> n, p & ((1 << n) - 1)
        multiples.append((0, p, (z << n) | (x ^ z), ((x ^ z) << n) | x))
    head = max(code.k - 6, 0)
    return multiples[:head], multiples[head:]


def _combinations(multiples):
    """The XORs of one entry of each row, lazily, in base-4 order with the
    first row most significant."""
    return (functools.reduce(operator.xor, c, 0) for c in itertools.product(*multiples))


def enumerate_codewords(code: Gf4Code, budget: int = DEFAULT_BUDGET):
    """Yield all 4^k codewords exactly once as packed masks, deterministically.

    The word s_0 g_0 + ... + s_{k-1} g_{k-1} comes in the order of the
    scalars read as base-4 digits, s_0 most significant: one head, a
    combination of the first k - 6 generators, XORed with each word of the
    span of the last <= 6 in turn.
    """
    heads, tail = _split(code, budget)
    span = [0]
    for row in tail:
        span = [a ^ b for a in span for b in row]
    for base in _combinations(heads):
        yield from map(base.__xor__, span)


def _limbs(n: int, limbs: int, words) -> list:
    """Packed words as nested lists [mask][limb][word]: the x masks, then
    the z masks, each split into 64-bit limbs."""
    masks = ([w >> n for w in words], [w & ((1 << n) - 1) for w in words])
    return [[[v >> 64 * i & 0xFFFFFFFFFFFFFFFF for v in vs] for i in range(limbs)] for vs in masks]


def _orbit_blocks(code: Gf4Code, budget: int):
    """Check the budget, then yield blocks of the words whose first nonzero
    scalar is 1, one word of each scalar orbit of the nonzero codewords,
    (4^k - 1) / 3 in all.

    Each block is a uint64 array [mask][limb][word] of at most 4096 words:
    first g_i plus a word of the span of g_{i+1}, ..., g_{k-1} for each of
    the last <= 6 generators, then, for each combination of the first k - 6
    generators whose leading scalar is 1, that combination XORed into the
    span of the last <= 6.  The span is grown from its last generator back,
    multiple-major, so the words g_i plus the span already grown are a
    slice of the next one.  k = 0 gives one empty block.
    """
    # imported on first use, so that importing the package or the CLI, and
    # every subcommand that enumerates no codewords, runs without numpy
    import numpy as np

    heads, tail = _split(code, budget)
    n = code.n
    limbs = max(-(-n // 64), 1)
    multiples = np.array(_limbs(n, limbs, [w for row in tail for w in row]), dtype=np.uint64)
    multiples = multiples.reshape(2, limbs, -1, 4)  # [mask][limb][generator][multiple]
    span = np.zeros((2, limbs, 1), dtype=np.uint64)
    leading = [span[..., :0]]  # empty, so that k = 0 still has one block
    for i in reversed(range(len(tail))):
        size = span.shape[-1]
        span = (multiples[:, :, i, :, None] ^ span[..., None, :]).reshape(2, limbs, -1)
        leading.append(span[..., size : 2 * size])  # g_i plus the old span
    yield np.concatenate(leading, axis=-1)
    for i, row in enumerate(heads):
        for base in _combinations(((row[1],), *heads[i + 1 :])):
            yield span ^ np.array(_limbs(n, limbs, [base]), dtype=np.uint64)


def weight_enumerator(code: Gf4Code, budget: int = DEFAULT_BUDGET) -> Enumerator:
    """Coefficient A_j = number of codewords of Hamming weight j.

    The words c, w c and w2 c share their support, so A = e_0 + 3 T, where T
    tallies one word of each scalar orbit of nonzero codewords, the blocks
    of `_orbit_blocks`, each word by popcount(x | z) in exact integer
    arithmetic.
    """
    import numpy as np

    n = code.n
    counts = np.zeros(n + 1, dtype=np.int64)
    for words in _orbit_blocks(code, budget):
        weights = np.bitwise_count(words[0] | words[1]).sum(axis=0, dtype=np.int64)
        counts += np.bincount(weights, minlength=n + 1)
    counts *= 3
    counts[0] += 1
    return Enumerator(n, tuple(counts.tolist()))


def shortened_enumerators(code: Gf4Code, budget: int = DEFAULT_BUDGET) -> list:
    """The weight enumerator of `shorten(code, c)` for every coordinate c,
    from one pass over the orbit words of `code`.

    The words of the shortened code are the codewords that vanish at c, of
    the same weight once c is deleted, and a scalar orbit vanishes at c as a
    whole; so A_c = e_0 + 3 T_c, where T_c tallies the orbit words whose
    support misses c.  Each block adds, for each byte of the support masks,
    the joint counts of (byte value, weight) to a 256 x (n + 1) table; T_c
    is the sum of the rows of c's byte whose bit for c is clear.  The budget
    applies to each shortening, as for `weight_enumerator(shorten(code, c))`:
    shortening keeps the dimension k at a column no generator touches and
    lowers it to k - 1 elsewhere, and the first coordinate over budget is
    the one reported.
    """
    n, k = code.n, code.k
    for c in range(n):
        dim = k - any(g[c] for g in code.generators)
        if 4**dim > budget:
            raise BudgetExceededError("4^%d codewords exceed budget %d" % (dim, budget))
    if n == 0:
        return []
    import numpy as np

    # coordinate c is bit b = n - 1 - c of a mask: bit b % 8 of byte b // 8,
    # which is byte (b // 8) % 8 of limb b // 64
    nbytes = -(-n // 8)
    joint = np.zeros((nbytes, 256 * (n + 1)), dtype=np.int64)
    # every shortening passed the guard above, and the parent's stream
    # holds at most 4 times the words of the largest one
    for words in _orbit_blocks(code, 4**k):
        support = words[0] | words[1]
        weights = np.bitwise_count(support).sum(axis=0, dtype=np.int64)
        for byte in range(nbytes):
            values = (support[byte // 8] >> 8 * (byte % 8)) & 0xFF
            joint[byte] += np.bincount(values.astype(np.int64) * (n + 1) + weights, minlength=256 * (n + 1))
    # clear[j][v] = 1 when bit j of the byte value v is 0
    clear = 1 - (np.arange(256, dtype=np.int64) >> np.arange(8)[:, None] & 1)
    counts = 3 * np.matmul(clear, joint.reshape(nbytes, 256, n + 1)).reshape(8 * nbytes, n + 1)
    counts[:, 0] += 1
    return [Enumerator(n - 1, tuple(counts[n - 1 - c, :n].tolist())) for c in range(n)]


def shorten(code: Gf4Code, coord: int) -> Gf4Code:
    """Codewords vanishing at `coord`, with that coordinate deleted.

    The rref of the generators with column `coord` moved to the front has at
    most one row nonzero there, the one pivoting at it; the other rows span
    the codewords that vanish at `coord`, and with that column deleted they
    are the shortened code's rref.  It starts from the code's stored rref,
    whose rows are already reduced everywhere but at `coord`.
    """
    if not 0 <= coord < code.n:
        raise IndexError("coordinate out of range")
    moved = [(g[coord],) + g[:coord] + g[coord + 1 :] for g in code._rref[0]]
    red, pivots = rref(moved, code.n)
    drop = 1 if pivots and pivots[0] == 0 else 0  # the row pivoting at `coord`
    return _independent_code(code.n - 1, [r[1:] for r in red[drop:]], [c - 1 for c in pivots[drop:]])


@dataclass(frozen=True)
class SignedPauli:
    """A positive Pauli word of length n, as x/z masks, with a sign."""

    n: int
    x: int
    z: int
    sign: int

    @classmethod
    def from_word(cls, word, sign: int) -> "SignedPauli":
        n, w = len(word), pack(word)
        return cls(n, w >> n, w & ((1 << n) - 1), sign)

    @property
    def pauli(self) -> str:
        return "".join(PAULI_CHARS[a] for a in unpack(self.n, (self.x << self.n) | self.z))

    def __str__(self):
        return ("+" if self.sign > 0 else "-") + self.pauli


def rall_signs(code: Gf4Code, budget: int = DEFAULT_BUDGET):
    """Signed Pauli group of the stabilizer code determined by `code`.

    The sign of a word of weight j is +1 for j = 0 mod 4 and -1 for
    j = 2 mod 4; odd weights mean the code does not define one.
    """
    if not is_self_orthogonal(code):
        raise NotM3CodeError("code is not Hermitian self-orthogonal")
    n = code.n
    mask = (1 << n) - 1
    out = []
    for w in enumerate_codewords(code, budget):
        j = ((w >> n | w) & mask).bit_count()
        if j % 2:
            raise NotM3CodeError("odd-weight codeword %s" % (unpack(n, w),))
        out.append(SignedPauli(n, w >> n, w & mask, 1 if j % 4 == 0 else -1))
    return out


# ---------------------------------------------------------------------------
# file format: line 1 "n k"; then k rows of n symbols from {0,1,w,W};
# '#' starts a comment; blank lines separate database blocks.


def _clean_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        yield lineno, line


def parse_code(text: str) -> Gf4Code:
    codes = parse_database(text)
    if len(codes) != 1:
        raise ParseError("expected exactly one code block, found %d" % len(codes))
    return codes[0]


def parse_database(text: str):
    """Parse one code per block, blocks separated by blank lines."""
    blocks = []
    current = []
    for lineno, line in _clean_lines(text):
        if not line:
            if current:
                blocks.append(current)
                current = []
            continue
        current.append((lineno, line))
    if current:
        blocks.append(current)

    codes = []
    for block in blocks:
        lineno, header = block[0]
        parts = header.split()
        if len(parts) != 2:
            raise ParseError("expected header 'n k'", lineno)
        try:
            n, k = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("expected integers in header 'n k'", lineno) from None
        if n < 0 or k < 0 or k > n:
            raise ParseError("invalid dimensions n=%d k=%d" % (n, k), lineno)
        if len(block) - 1 != k:
            raise ParseError(
                "expected %d generator rows, found %d" % (k, len(block) - 1), lineno
            )
        gens = []
        for rowno, row in block[1:]:
            row = "".join(row.split())
            if len(row) != n:
                raise ParseError("expected %d symbols" % n, rowno)
            try:
                gens.append(tuple(GF4_CHARS.index(ch) for ch in row))
            except ValueError:
                raise ParseError("symbols must be one of 0,1,w,W", rowno) from None
        try:
            codes.append(Gf4Code(n, tuple(gens)))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    return codes


# ---------------------------------------------------------------------------
# randomized corpus helpers (used by the test suite and demos)


def random_self_orthogonal_code(rng, n: int, target_k: int | None = None) -> Gf4Code:
    """Grow a random Hermitian self-orthogonal code of length n.

    Stops at target_k generators (default: a random achievable size), or
    after 400 draws.  Each draw is a random combination of the generators of
    the Hermitian dual of the code grown so far, so it is orthogonal to every
    generator; it is kept if it has even weight, which over GF(4) makes it
    orthogonal to itself (<u, u> = wt(u) mod 2), and lies outside the code.
    """
    if target_k is None:
        target_k = rng.randint(0, n // 2)
    code = zero_code(n)
    dual = hermitian_dual(code)
    attempts = 0
    while code.k < target_k and attempts < 400:
        attempts += 1
        coeffs = [rng.randrange(4) for _ in dual.generators]
        cand = functools.reduce(vec_add, map(vec_scale, coeffs, dual.generators), (0,) * n)
        if weight(cand) % 2 or code.contains(cand):
            continue
        code = Gf4Code(n, code.generators + (cand,))
        dual = hermitian_dual(code)
    return code


def random_maximal_self_orthogonal_code(rng, n: int) -> Gf4Code:
    """Random maximal self-orthogonal code of odd length n (dimension (n-1)/2)."""
    if n % 2 == 0:
        raise ValueError("n must be odd")
    want = (n - 1) // 2
    while True:
        code = random_self_orthogonal_code(rng, n, target_k=want)
        if code.k == want:
            return code
