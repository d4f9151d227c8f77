"""Truncated-Fock-space oracle: probe states and information matrices from scratch.

States are stored as short superpositions of mode-product terms; each branch
of an entangled coherent or NOON probe is one term holding a per-mode
amplitude vector.  Every expectation then reduces to a double sum over term
pairs of per-mode overlap products, so the only approximation anywhere is
the photon-number cutoff.  Truncated coherent vectors are deliberately NOT
renormalized; the discarded Poisson tail mass is recorded so that any
discrepancy stays attributable to the truncation.

Mode 0 is the reference beam; modes 1..d carry the phases, imprinted by the
diagonal generators (a^dag a)^m.  Probes are valid by construction (see
``states``), so the oracle builds them without checking them again.

Per-mode factor tables.  A probe holds only a few distinct amplitude vectors
(vacuum and coherent, then their images under n^m), shared by identity
across terms and modes; a diagonal operator maps each distinct vector once.
`_overlap_tables` forms the Gram matrix conj(V) @ V^T of the distinct
vectors of a bra and a ket and gathers it into term-pair x mode factor
arrays.  The generators are real and diagonal, so photon numbers and the
one information-matrix routine (under both its names) read every moment
from the tables of the probe against itself and against a diagonal W on
every mode (n, or n^m and its square), taking products over all modes but
one or two from prefix/suffix cumulative products (never by division: NOON
overlaps are exactly 0), at O(d^4) for a d x d matrix instead of O(d^5) vdots.

A dense amplitude tensor is the second-layer oracle at small sizes.  Every
amplitude is formed densely, with no factor table, by contracting the
per-mode factor stacks over the term index, one reference level (a levels^d
slab) at a time.  Its information matrix needs only the marginal of |psi|^2
over the reference mode, which sums the slabs as they come, so that path
never holds the full tensor.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import accumulate

import numpy as np

from ._record import Record, set_field
from .errors import CutoffError, SizeLimitError
from .states import EcsParams, NoonParams

__all__ = [
    "ModeVector",
    "SparseProductState",
    "poisson_tail",
    "minimal_cutoff",
    "truncated_coherent",
    "build_state",
    "inner_product",
    "norm_sq",
    "total_photon_expectation",
    "numerical_qfim",
    "qfim_via_state_derivatives",
    "commutator_expectation",
    "dense_qfim",
]

DENSE_SIZE_LIMIT = 2_000_000
DEFAULT_TAIL_TOL = 1e-14
# Poisson tail sums stop once everything left is below this fraction of a
# reference (the largest term, or the tail tolerance); one unit of roundoff.
_TAIL_EPS = 2.0 ** -53
_MAX_CUTOFF = 100_000


class ModeVector(Record):
    """Single-mode state on Fock levels 0..cutoff.

    Amplitudes need not be normalized; ``tail_mass`` records the probability
    discarded by the truncation that produced them (0 for exact vectors).
    """

    __slots__ = ("amplitudes", "tail_mass")

    def __init__(self, amplitudes: np.ndarray, tail_mass: float = 0.0) -> None:
        set_field(self, "amplitudes", amplitudes)
        set_field(self, "tail_mass", tail_mass)

    @property
    def cutoff(self) -> int:
        return len(self.amplitudes) - 1


class SparseProductState(Record):
    """Superposition sum_t coeff_t * prod_modes factors_t[mode]."""

    __slots__ = ("num_modes", "terms")

    def __init__(self, num_modes: int,
                 terms: tuple[tuple[complex, tuple[ModeVector, ...]], ...]) -> None:
        set_field(self, "num_modes", num_modes)
        set_field(self, "terms", terms)

    def cutoff(self) -> int:
        return self.terms[0][1][0].cutoff


def _poisson_pmf(n: int, mu: float) -> float:
    """exp(-mu) mu^n / n!, formed in log space: exp(-mu) alone underflows past mu ~ 745."""
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))


def _upper_tail_sums(start: int, mu: float, floor: float) -> list[float]:
    """P(X >= n) for n = start, start + 1, ... for X ~ Poisson(mu), start > mu.

    Walks pmf(n) upward from pmf(start).  Beyond n each term ratio is at most
    r = mu / (n + 1) < 1, so the rest is at most pmf(n) r / (1 - r) (the
    geometric-tail bound of ``moments.moment_via_poisson_sum``); the walk
    stops once that is <= floor.  The suffix sums are accumulated from the
    smallest term upward, so no tail is formed as a difference.
    """
    term = _poisson_pmf(start, mu)
    terms = [term]
    n = start
    while term * mu > floor * (n + 1 - mu):
        n += 1
        term *= mu / n
        terms.append(term)
    return list(accumulate(reversed(terms)))[::-1]


def poisson_tail(cutoff: int, mu: float) -> float:
    """P(X > cutoff) for X ~ Poisson(mu), by direct summation.

    Above the mean the sum starts at pmf(cutoff + 1).  A cutoff below the
    mean starts at the mode instead, where the pmf cannot underflow, and
    also walks down to cutoff + 1 until the rest is below rounding (the
    downward term ratio n / mu is < 1 there).
    """
    if mu == 0.0:
        return 0.0
    start = max(cutoff + 1, int(mu) + 1)
    upper = _upper_tail_sums(start, mu, _TAIL_EPS * _poisson_pmf(start, mu))[0]
    n = start - 1
    if n <= cutoff:
        return upper
    term = _poisson_pmf(n, mu)
    floor = _TAIL_EPS * term
    lower = [term]
    while n > cutoff + 1 and term * n > floor * (mu - n):
        term *= n / mu
        n -= 1
        lower.append(term)
    return math.fsum(lower + [upper])


def minimal_cutoff(mu: float, tail_tol: float) -> int:
    """Smallest cutoff whose Poisson tail mass falls below tail_tol.

    One pass: the tails of every candidate from int(mu) upward are suffix
    sums of one walk, summed down to 2^-53 tail_tol.
    """
    if not tail_tol > 0.0:
        raise ValueError(f"tail_tol must be > 0, got {tail_tol}")
    c = max(int(mu), 0)
    if mu == 0.0:
        return c
    if c <= _MAX_CUTOFF:
        for tail in _upper_tail_sums(c + 1, mu, _TAIL_EPS * tail_tol):
            if tail < tail_tol:
                return c
            c += 1
            if c > _MAX_CUTOFF:
                break
        else:
            return c
    raise CutoffError(f"no cutoff below {_MAX_CUTOFF} reaches tail {tail_tol} for mu={mu}")


def truncated_coherent(alpha: complex, cutoff: int,
                       tail_tol: float | None = None) -> ModeVector:
    """Coherent amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) up to the cutoff.

    The vector is not renormalized; its squared norm is 1 minus the recorded
    Poisson tail mass.  If ``tail_tol`` is given and the cutoff cannot meet
    it, the error message names the smallest sufficient cutoff.
    """
    if cutoff < 0:
        raise CutoffError(f"cutoff must be >= 0, got {cutoff}")
    mu = abs(alpha) ** 2
    if mu > 1400.0:
        raise OverflowError(f"e^(-mu/2) underflows for |alpha|^2 = {mu}")
    tail = poisson_tail(cutoff, mu)
    if tail_tol is not None and tail >= tail_tol:
        raise CutoffError(
            f"cutoff {cutoff} leaves tail mass {tail:.3e} >= {tail_tol:g} at "
            f"|alpha|^2={mu:g}; minimal sufficient cutoff is {minimal_cutoff(mu, tail_tol)}")
    amps = np.empty(cutoff + 1, dtype=complex)
    amps[0] = math.exp(-mu / 2.0)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return ModeVector(amplitudes=amps, tail_mass=tail)


def build_state(p: EcsParams | NoonParams, cutoff: int | None = None,
                tail_tol: float = DEFAULT_TAIL_TOL) -> SparseProductState:
    """Assemble the d+1 branch terms of an entangled coherent or NOON probe.

    Term j (1..d) carries coefficient b with the excited vector on sensing
    mode j and vacuum elsewhere; the last term carries c with it on the
    reference.  The excited vector is the truncated coherent state or the
    Fock state |N>, whose branches are orthogonal.  All terms share the same
    two vector objects.

    Without a cutoff the probe takes minimal_cutoff(alpha_sq, tail_tol) + 2m
    levels (n^m weighting shifts weight to higher levels, so leave 2m extra;
    N for a NOON probe) and its coherent vector is held to ``tail_tol``.  A
    given cutoff is used as is: the caller owns the truncation error, whose
    tail mass is recorded, not enforced.
    """
    noon = isinstance(p, NoonParams)
    held_to = tail_tol if cutoff is None else None
    if cutoff is None:
        cutoff = p.photon_number if noon else minimal_cutoff(p.alpha_sq, tail_tol) + 2 * p.m
    levels = np.arange(cutoff + 1)
    if noon:
        if cutoff < p.photon_number:
            raise CutoffError(
                f"cutoff {cutoff} cannot hold {p.photon_number} photons in one mode")
        excited = ModeVector(amplitudes=(levels == p.photon_number).astype(complex))
    else:
        excited = truncated_coherent(math.sqrt(p.alpha_sq), cutoff, held_to)
    vac = ModeVector(amplitudes=(levels == 0).astype(complex))
    terms = []
    for j in (*range(1, p.d + 1), 0):
        factors = [vac] * (p.d + 1)
        factors[j] = excited
        terms.append((complex(p.b if j else p.c), tuple(factors)))
    return SparseProductState(num_modes=p.d + 1, terms=tuple(terms))


def _apply_diagonal(state: SparseProductState, w: np.ndarray,
                    modes: Sequence[int]) -> SparseProductState:
    """Multiply the factors on ``modes`` by the real diagonal w, exactly under the truncation.

    A diagonal operator cannot leak amplitude across the cutoff.  Each distinct
    vector is mapped once, so shared vectors stay shared and the tables small.
    """
    done: dict[int, ModeVector] = {}
    terms = []
    for coeff, factors in state.terms:
        factors = list(factors)
        for mode in modes:
            vec = factors[mode]
            if id(vec) not in done:
                done[id(vec)] = ModeVector(amplitudes=vec.amplitudes * w, tail_mass=vec.tail_mass)
            factors[mode] = done[id(vec)]
        terms.append((coeff, tuple(factors)))
    return SparseProductState(num_modes=state.num_modes, terms=tuple(terms))


def _apply_number_power(state: SparseProductState, mode: int, m: int) -> SparseProductState:
    """Apply the diagonal operator n^m on one mode."""
    return _apply_diagonal(state, _levels(state) ** m, (mode,))


def _levels(state: SparseProductState) -> np.ndarray:
    """Fock levels 0..cutoff as floats, the diagonal of the number operator."""
    return np.arange(state.cutoff() + 1, dtype=float)


def _exclusive_cumprod(f: np.ndarray) -> np.ndarray:
    """out[k] = f[0] * ... * f[k-1] along axis 0, with out[0] = 1; no division.

    One whole-slice multiply per step: np.cumprod along axis 0 runs a
    strided loop per element instead.
    """
    out = np.empty_like(f)
    out[0] = 1.0
    for k in range(1, len(f)):
        np.multiply(out[k - 1], f[k - 1], out=out[k])
    return out


def _overlap_tables(bra: SparseProductState,
                    ket: SparseProductState) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode overlaps of two states: ``(coeffs, table)``.

    coeffs[s, t] = conj(c_s) c'_t and table[mode, s, t] = <bra_s|ket_t> on
    that mode, so <bra|ket> sums coeffs times the product of the table over
    modes.  Vectors are deduplicated by identity: the table gathers the Gram
    matrix of the few distinct vectors into term-pair x mode arrays.
    """
    if bra.num_modes != ket.num_modes:
        raise ValueError(f"mode count mismatch: {bra.num_modes} vs {ket.num_modes}")
    # every factor of every term, bra then ket, term-major
    flat = [vec for state in (bra, ket) for _, factors in state.terms for vec in factors]
    unique = dict(zip(map(id, flat), flat))
    if len({len(vec.amplitudes) for vec in unique.values()}) != 1:
        raise ValueError("cutoff mismatch between states")
    position = dict(zip(unique, range(len(unique))))
    where = np.fromiter(map(position.__getitem__, map(id, flat)), np.intp, len(flat))
    # rows[mode, term] = position of that factor among the distinct vectors;
    # mode-major, so the tables are too and the loops over them run faster
    split = len(bra.terms) * bra.num_modes
    bra_rows = np.ascontiguousarray(where[:split].reshape(len(bra.terms), bra.num_modes).T)
    ket_rows = np.ascontiguousarray(where[split:].reshape(len(ket.terms), ket.num_modes).T)
    stack = np.array([vec.amplitudes for vec in unique.values()])
    gram = np.einsum("an,bn->ab", stack.conj(), stack)
    coeffs = np.conj([c for c, _ in bra.terms])[:, None] * np.array([c for c, _ in ket.terms])
    return coeffs, gram[bra_rows[:, :, None], ket_rows[:, None, :]]


def inner_product(s1: SparseProductState, s2: SparseProductState) -> complex:
    """<s1|s2>, conjugate-linear in the first argument."""
    coeffs, table = _overlap_tables(s1, s2)
    return complex(np.sum(coeffs * _exclusive_cumprod(table)[-1] * table[-1]))


def norm_sq(state: SparseProductState) -> float:
    return inner_product(state, state).real


def _weighted_tables(state: SparseProductState,
                     *weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """coeffs and tables[i, mode, s, t] = <psi_s| W_i |psi_t> on that mode, W_0 = 1.

    Each real diagonal W_i acts on every mode at once, so one overlap of the
    probe with psi + W_1 psi + ... (a block of terms per W_i) gives every table.
    """
    every, size = range(state.num_modes), len(state.terms)
    ket = SparseProductState(num_modes=state.num_modes, terms=state.terms + sum(
        (_apply_diagonal(state, w, every).terms for w in weights), ()))
    coeffs, table = _overlap_tables(state, ket)
    blocks = table.reshape(state.num_modes, size, 1 + len(weights), size)
    # one contiguous table per W_i: the loops over them run several times faster
    return np.ascontiguousarray(coeffs[:, :size]), np.ascontiguousarray(np.moveaxis(blocks, 2, 0))


def total_photon_expectation(state: SparseProductState) -> float:
    """<sum_modes n_mode> over all modes, reference included."""
    coeffs, (plain, weighted) = _weighted_tables(state, _levels(state))
    prefix, suffix = _exclusive_cumprod(plain), _exclusive_cumprod(plain[::-1])[::-1]
    per_mode = np.einsum("st,ist,ist,ist->i", coeffs, weighted, prefix, suffix)
    return float(np.sum(per_mode.real)) / np.sum(coeffs * prefix[-1] * plain[-1]).real


def _qfim(state: SparseProductState, m: int) -> np.ndarray:
    """F_jk = 4 Re(<H_j psi|H_k psi> - <psi|H_j psi>* <psi|H_k psi>), H_j = (n_j)^m.

    <psi|H_j psi> takes the table of W = n^m on mode j, <H_j psi|H_j psi>
    that of W^2, and <H_j psi|H_k psi> for j < k that of W on modes j and k
    with prefix[j] * mid * suffix[k], the plain tables elsewhere.  One step
    per distance k - j advances every mid product.  Exactly symmetric.
    """
    w = _levels(state) ** m
    coeffs, (plain, weighted, squared) = _weighted_tables(state, w, w * w)
    prefix, suffix = _exclusive_cumprod(plain), _exclusive_cumprod(plain[::-1])[::-1]
    # the sensing modes 1..d
    plain, weighted, squared, prefix, suffix = (
        a[1:] for a in (plain, weighted, squared, prefix, suffix))
    first = np.einsum("st,ist,ist,ist->i", coeffs, weighted, prefix, suffix)
    second = np.diag(np.einsum("st,ist,ist,ist->i", coeffs, squared, prefix, suffix))
    n, flat = len(second), second.reshape(-1)
    left = coeffs * weighted * prefix
    right = weighted * suffix
    # mid[j] = product of the plain tables strictly between modes j and j + 1 + r
    mid = np.ones_like(plain[:-1])
    for r in range(n - 1):
        count = n - 1 - r
        pair = np.einsum("jst,jst,jst->j", left[:count], mid[:count], right[1 + r:])
        # (j, j + 1 + r) for j < count, and its conjugate at (j + 1 + r, j)
        flat[1 + r::n + 1][:count], flat[(1 + r) * n::n + 1][:count] = pair, pair.conj()
        np.multiply(mid[:count - 1], plain[1 + r:n - 1], out=mid[:count - 1])
    return 4.0 * (second - np.outer(np.conj(first), first)).real


def numerical_qfim(p: EcsParams | NoonParams,
                   tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """Information matrix from first principles: the generator moments on the probe.

    F_jk = 4 (<H_j H_k> - <H_j><H_k>), H_j = (n_j)^m, at the cutoff build_state picks.
    """
    return _qfim(build_state(p, tail_tol=tail_tol), p.m)


# The derivative form 4 Re(<d_j psi|d_k psi> - <d_j psi|psi><psi|d_k psi>) is the
# same matrix, since d_j psi = i H_j psi exactly and the factors i, -i cancel; the
# name stays for the benchmark's oracle worker, verify's fd_vs_analytic and a demo.
qfim_via_state_derivatives = numerical_qfim


def commutator_expectation(p: EcsParams | NoonParams, j: int, k: int,
                           tail_tol: float = DEFAULT_TAIL_TOL) -> complex:
    """<[H_j, H_k]> on the probe: exactly 0 on any oracle, by construction.

    The generators (a^dag a)^m are diagonal in the Fock basis, so they
    commute, which is why the bound is attainable; the two application
    orders give bitwise-identical states.  A zero confirms that structure,
    not the oracle's numbers.
    """
    if not (1 <= j <= p.d and 1 <= k <= p.d):
        raise ValueError(f"mode indices must lie in 1..{p.d}, got j={j}, k={k}")
    state = build_state(p, tail_tol=tail_tol)
    jk = _apply_number_power(_apply_number_power(state, k, p.m), j, p.m)
    kj = _apply_number_power(_apply_number_power(state, j, p.m), k, p.m)
    return inner_product(state, jk) - inner_product(state, kj)


def _kron_rows(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Row t is the Kronecker product of row t of every (terms x levels) stack."""
    out = np.ones((len(stacks[0]), 1), dtype=complex)
    for stack in stacks:
        out = (out[:, :, None] * stack[:, None, :]).reshape(len(out), -1)
    return out


def _dense_slabs(p: EcsParams | NoonParams, cutoff: int) -> Iterator[np.ndarray]:
    """The dense amplitude tensor one reference level at a time: tensor[n0] for n0 = 0..cutoff.

    sum_t coeff_t prod_modes factor_t[mode] is one contraction over the term
    index of the row-wise Kronecker products of the first and the last modes.
    Mode 0 is the slowest index of the rows, so slab n0 contracts their n0-th
    block of columns into a fresh levels^d array.  The size limit is checked
    and the probe built when this is called, before any slab is made.
    """
    num_modes = p.d + 1
    size = (cutoff + 1) ** num_modes
    if size > DENSE_SIZE_LIMIT:
        raise SizeLimitError(
            f"(cutoff+1)^(d+1) = {size} exceeds the {DENSE_SIZE_LIMIT} amplitude limit")
    state = build_state(p, cutoff)
    # stacks[mode][t] = amplitudes of term t's factor on that mode
    stacks = [np.array([factors[mode].amplitudes for _, factors in state.terms])
              for mode in range(num_modes)]
    coeffs = np.array([c for c, _ in state.terms])
    half = num_modes // 2
    rows = coeffs[:, None] * _kron_rows(stacks[:half])
    cols = _kron_rows(stacks[half:])
    width = rows.shape[1] // (cutoff + 1)
    shape = (cutoff + 1,) * p.d
    return (np.einsum("tr,tc->rc", rows[:, n0 * width:(n0 + 1) * width], cols).reshape(shape)
            for n0 in range(cutoff + 1))


def dense_tensor_state(p: EcsParams | NoonParams, cutoff: int) -> np.ndarray:
    """Full multimode amplitude tensor; second-layer oracle for the sparse form.

    Every amplitude is formed densely, with no factor table, one reference
    level at a time, and written into the one output array.
    """
    slabs = _dense_slabs(p, cutoff)  # checks the size before out is made
    out = np.empty((cutoff + 1,) * (p.d + 1), dtype=complex)
    for n0, slab in enumerate(slabs):
        out[n0] = slab
    return out


def dense_qfim(p: EcsParams | NoonParams, cutoff: int) -> np.ndarray:
    """Information matrix from the dense amplitudes, for cross-checking the sparse path.

    The generators are real and diagonal, so <H_j H_k> = sum |psi|^2 w_j w_k
    exactly; the sums run over the marginal of |psi|^2 on the sensing modes,
    accumulated one reference level at a time, so the full tensor is never held.
    """
    d, levels = p.d, cutoff + 1
    slabs = _dense_slabs(p, cutoff)  # checks the size before prob is made
    prob = np.zeros((levels,) * d)
    for slab in slabs:
        prob += slab.real ** 2 + slab.imag ** 2
    w = np.arange(levels, dtype=float) ** p.m
    axes = set(range(d))
    single = [prob.sum(axis=tuple(axes - {j})) for j in range(d)]
    means = np.array([marginal @ w for marginal in single])
    second = np.empty((d, d))
    for j in range(d):
        second[j, j] = single[j] @ (w * w)
        for k in range(j + 1, d):
            pair = prob.sum(axis=tuple(axes - {j, k}))
            second[j, k] = second[k, j] = w @ pair @ w
    return 4.0 * (second - np.outer(means, means))
