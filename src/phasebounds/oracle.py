"""Truncated-Fock-space oracle: probe states and information matrices from scratch.

States are stored as short superpositions of mode-product terms; each branch
of an entangled coherent or NOON probe is one term holding a per-mode
amplitude vector.  Every expectation then reduces to a double sum over term
pairs of per-mode overlap products, so the only approximation anywhere is
the photon-number cutoff.  Truncated coherent vectors are deliberately NOT
renormalized; the discarded Poisson tail mass is recorded so that any
discrepancy stays attributable to the truncation.  Amplitudes, tails,
cutoffs and the raw moments that check the Stirling form all come from one
Poisson walk from the mode, normalized by its own sum, so no e^{-|alpha|^2}
is formed: the oracle reaches |alpha|^2 <= 1e5.

Mode 0 is the reference beam; modes 1..d carry the phases, imprinted by the
diagonal generators (a^dag a)^m.  Probes are valid by construction (see
``states``), so the oracle builds them without checking them again.

Per-mode factor tables.  A probe holds only a few distinct amplitude vectors
(vacuum and coherent), shared by identity across terms and modes.
`_overlap_tables` forms one Gram matrix conj(V) @ (V w)^T of the distinct
vectors V of a bra and a ket per real diagonal weight w (1 first; no
W-applied copy of a state is built) and gathers each into term-pair x mode
factor arrays.  The generators are real and diagonal, so photon numbers and
the one information-matrix routine (under both its names) read every moment
from the probe's tables under W = n, or n^m and its square, on every mode,
taking products over all modes but one or two from prefix/suffix cumulative
products (never by division: NOON overlaps are exactly 0), at O(d^4) for a
d x d matrix instead of O(d^5) vdots.

A dense amplitude tensor is the second-layer oracle at small sizes.  Every
amplitude is formed densely, with no factor table, by contracting the
per-mode factor stacks over the term index, one reference level (a levels^d
slab) at a time.  Its information matrix needs only the marginal of |psi|^2
over the reference mode, which sums the slabs as they come; no function
returns or holds the full tensor.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import accumulate

import numpy as np

from ._domain import check
from ._record import Record, set_field
from .errors import CutoffError, SizeLimitError
from .states import EcsParams, NoonParams

__all__ = [
    "ModeVector",
    "SparseProductState",
    "poisson_moments",
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
# the Poisson walk stops once the rest is below this fraction of its reference
_TAIL_EPS = 2.0 ** -53
_MAX_CUTOFF = 100_000  # the oracle's reach, in mu and in cutoff


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


def _poisson_terms(mu: float, through: int, tol: float = math.inf) -> tuple[int, list[float]]:
    """P(X = n) for X ~ Poisson(mu), n = first, first + 1, ...: ``(first, terms)``.

    The mode int(mu) gets the weight 1, the weights below it follow by n / mu
    and those above by mu / n, and all are divided by their fsum (Fox and
    Glynn, Comm. ACM 31(4), 1988): no exp(-mu) or n log mu is formed.  Past
    the mode each ratio r is < 1, so the rest is at most term r / (1 - r).
    Down, the walk stops once that is below 2^-53 of the mode's weight; up,
    once at ``through`` or past it and below 2^-53 min(tol, P(X = max(through,
    mode))), or once a term underflows.
    """
    check(mu=mu)
    if mu > _MAX_CUTOFF:
        raise CutoffError(f"mu={mu} lies beyond the oracle's reach mu <= {_MAX_CUTOFF}")
    mode = n = int(mu)
    term, terms = 1.0, [1.0]
    while n > 0 and term * n > _TAIL_EPS * (mu - n):
        term *= n / mu
        n -= 1
        terms.append(term)
    first, total = n, sum(terms)
    terms.reverse()
    n, term, ref = mode, 1.0, 1.0
    while term > 0.0 and (n < through
                          or term * mu > _TAIL_EPS * min(tol * total, ref) * (n + 1 - mu)):
        n += 1
        term *= mu / n
        terms.append(term)
        total += term
        ref = term if n == through else ref
    total = math.fsum(terms)
    return first, [t / total for t in terms]


def poisson_moments(mu: float, top: int) -> list[float]:
    """[E X^m for m = 0..top], X ~ Poisson(mu): fsums of n^m P(X = n) over one walk.

    No Stirling number is formed, so these check the closed form independently.
    The walk stops at a level L with P(X > L) < 2^-53 1e-300, and by
    Cauchy-Schwarz the rest E[X^m; X > L] <= sqrt(E[X^2m] P(X > L)) is at most
    sqrt(g P(X > L)) of E X^m, with g = E[X^2m] / (E X^m)^2.  The tolerance is
    tiny but not 0: at 0 the walk would run on the smallest subnormal until
    mu / n < 1/2 (92 679 levels at mu = 9e4 instead of 14 325).
    """
    check(order=top)
    first, terms = _poisson_terms(mu, 0, 1e-300)
    levels = np.arange(first, first + len(terms), dtype=float)
    weighted = np.array(terms)
    moments = [math.fsum(terms)]
    for _ in range(top):
        weighted *= levels
        moments.append(math.fsum(weighted.tolist()))
    return moments


def minimal_cutoff(mu: float, tail_tol: float) -> int:
    """Smallest cutoff whose Poisson tail mass falls below tail_tol, in (0, 1).

    One pass: the tails of every candidate on the walk are suffix sums of
    it, summed down to 2^-53 tail_tol.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    first, terms = _poisson_terms(mu, 0, tail_tol)
    # P(X > n) for n from the walk's last index - 1 down to first; they rise
    c = first + sum(tail >= tail_tol for tail in accumulate(reversed(terms[1:])))
    if c > _MAX_CUTOFF:
        raise CutoffError(f"no cutoff below {_MAX_CUTOFF} reaches tail {tail_tol} for mu={mu}")
    return c


def truncated_coherent(alpha: complex, cutoff: int,
                       tail_tol: float | None = None) -> ModeVector:
    """Coherent amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) up to the cutoff.

    Each is sqrt(P(X = n)) from the Poisson walk times the phase of alpha^n,
    0 where the walk stops.  The vector is not renormalized; its squared norm
    is 1 minus the recorded Poisson tail mass.  If ``tail_tol`` is given and
    the cutoff cannot meet it, the error message names the smallest
    sufficient cutoff.
    """
    check(cutoff=cutoff)
    mu = abs(alpha) ** 2
    first, terms = _poisson_terms(mu, cutoff + 1)
    held = max(cutoff + 1 - first, 0)
    tail = math.fsum(terms[held:])
    if tail_tol is not None and tail >= tail_tol:
        raise CutoffError(
            f"cutoff {cutoff} leaves tail mass {tail:.3e} >= {tail_tol:g} at "
            f"|alpha|^2={mu:g}; minimal sufficient cutoff is {minimal_cutoff(mu, tail_tol)}")
    amps = np.zeros(cutoff + 1)
    amps[first:first + len(terms)] = np.sqrt(terms[:held])  # both end at the cutoff or walk's end
    phases = np.exp(1j * np.angle(alpha) * np.arange(cutoff + 1))
    return ModeVector(amplitudes=amps * phases, tail_mass=tail)


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
    else:
        check(cutoff=cutoff)
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


def _apply_number_power(state: SparseProductState, mode: int, m: int) -> SparseProductState:
    """Apply the diagonal operator n^m on one mode, exactly under the truncation.

    A diagonal operator cannot leak amplitude across the cutoff.  Each distinct
    vector is mapped once, so shared vectors stay shared and the tables small.
    """
    w = _levels(state) ** m
    unique = {id(factors[mode]): factors[mode] for _, factors in state.terms}
    done = {key: ModeVector(amplitudes=vec.amplitudes * w, tail_mass=vec.tail_mass)
            for key, vec in unique.items()}
    # a list, not a generator, under tuple(): the oracle worker's peak RSS reads 0.6 MB less
    return SparseProductState(num_modes=state.num_modes, terms=tuple([
        (coeff, (*factors[:mode], done[id(factors[mode])], *factors[mode + 1:]))
        for coeff, factors in state.terms]))


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


def _overlap_tables(bra: SparseProductState, ket: SparseProductState,
                    *weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode overlaps of two states under real diagonal weights: ``(coeffs, tables)``.

    coeffs[s, t] = conj(c_s) c'_t and tables[i, mode, s, t] = <bra_s|W_i|ket_t>
    on that mode, W_0 = 1, so <bra|ket> sums coeffs times the product of
    tables[0] over modes.  Vectors are deduplicated by identity: each table
    gathers the Gram matrix conj(V) @ (V w_i)^T of the few distinct vectors
    into term-pair x mode arrays.
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
    conj = stack.conj()
    coeffs = np.conj([c for c, _ in bra.terms])[:, None] * np.array([c for c, _ in ket.terms])
    # one contiguous table per W_i: the loops over them run several times faster
    return coeffs, np.array([
        np.einsum("an,bn->ab", conj, weighted)[bra_rows[:, :, None], ket_rows[:, None, :]]
        for weighted in (stack, *(stack * w for w in weights))])


def inner_product(s1: SparseProductState, s2: SparseProductState) -> complex:
    """<s1|s2>, conjugate-linear in the first argument."""
    coeffs, (table,) = _overlap_tables(s1, s2)
    return complex(np.sum(coeffs * _exclusive_cumprod(table)[-1] * table[-1]))


def norm_sq(state: SparseProductState) -> float:
    return inner_product(state, state).real


def total_photon_expectation(state: SparseProductState) -> float:
    """<sum_modes n_mode> over all modes, reference included."""
    coeffs, (plain, weighted) = _overlap_tables(state, state, _levels(state))
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
    coeffs, (plain, weighted, squared) = _overlap_tables(state, state, w, w * w)
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
# name stays for the benchmark's oracle worker and verify's fd_vs_analytic.
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


def dense_qfim(p: EcsParams | NoonParams, cutoff: int) -> np.ndarray:
    """Information matrix from the dense amplitudes, for cross-checking the sparse path.

    The generators are real and diagonal, so <H_j H_k> = sum |psi|^2 w_j w_k
    exactly; the sums run over the marginal of |psi|^2 on the sensing modes,
    accumulated one reference level at a time, so the full tensor is never held.
    """
    check(cutoff=cutoff)
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
