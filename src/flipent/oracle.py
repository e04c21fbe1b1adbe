"""Brute-force statevector ground truth at desk scale.

Builds explicit ground-state vectors by enumerating the star group,
takes partial traces from the state's support (its nonzero amplitudes,
4 |G| of 2**n) into an amplitude matrix on the A and B bit patterns that
occur, and evaluates von Neumann entropy and two-spin concurrence from
dense eigendecompositions.  `oracle_entropy` traces out the larger side
and eigensolves only the occupied rows, so its cost follows the state's
support and the smaller side, not 2**|A|.

Basis convention: computational basis index = binary expansion over
link occupation with link 0 as the least significant bit.  The reduced
basis after a partial trace orders the kept links ascending, again LSB
first.  This must match the bitmask convention of the GF(2) layer, and
the bit gather of the partial trace below depends on it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    MAX_ORACLE_LINKS,
    MAX_SUBSYSTEM_LINKS,
    ORACLE_TOL,
    ResourceLimitError,
    _check_subsystem,
)
from .lattice import Lattice, Partition, ladder_operators, star_group
from .states import GroundStateCoeffs

EIG_NEGATIVE_TOL = 1e-10
EIG_ZERO_TOL = 1e-12


def build_ground_state(
    lat: Lattice,
    coeffs: GroundStateCoeffs,
    *,
    max_links: int = MAX_ORACLE_LINKS,
) -> np.ndarray:
    """Dense 2**n state vector of the ground state with given amplitudes.

    The state is assembled coset by coset: each star-group element g
    contributes amplitude a_ij/sqrt(|group|) at basis index
    g ^ (ladder shifts selected by i, j).  The four cosets are disjoint,
    so every nonzero amplitude is written exactly once.
    """
    n = lat.n_links
    if n > max_links:
        raise ResourceLimitError(f"{n} links exceed the {max_links}-link oracle cap")
    group = star_group(lat)
    w1, w2 = ladder_operators(lat)
    cosets = (  # coset a_ij: the flip applied on top of the star group
        (0, coeffs.a00),
        (w1, coeffs.a01),
        (w2, coeffs.a10),
        (w1 ^ w2, coeffs.a11),
    )
    members = np.fromiter(
        group.enumerate_row_space(),
        dtype=np.int64,
        count=1 << group.rank(),
    )
    norm = 1.0 / math.sqrt(len(members))
    state = np.zeros(1 << n, dtype=np.complex128)
    for shift, amp in cosets:
        if amp != 0:
            state[members ^ shift] += amp * norm
    return state


def apply_flip(state: np.ndarray, mask: int) -> np.ndarray:
    """Apply the x-flip with the link mask ``mask`` (a basis permutation)."""
    idx = np.arange(len(state), dtype=np.int64)
    return state[idx ^ mask]


def is_stabilized(lat: Lattice, state: np.ndarray, tol: float = 1e-12) -> bool:
    """Check the state is fixed by every star (X) and plaquette (Z).

    A plaquette's z-string flips the sign of each basis state with odd
    parity on its links.
    """
    for sm in lat.star_masks():
        if np.max(np.abs(apply_flip(state, sm) - state)) > tol:
            return False
    idx = np.arange(len(state), dtype=np.int64)
    for pm in lat.plaquette_masks():
        parity = np.zeros(len(state), dtype=np.int64)
        while pm:
            parity ^= (idx >> ((pm & -pm).bit_length() - 1)) & 1
            pm &= pm - 1
        if np.max(np.abs(np.where(parity == 1, -state, state) - state)) > tol:
            return False
    return True


def support(state: np.ndarray) -> np.ndarray:
    """Indices of the nonzero amplitudes of ``state``, ascending.

    A state from `build_ground_state` has 4 |G| of them at most, out of
    2**n.  Pass the result as ``support=`` to `reduced_density_matrix`
    or `oracle_entropy` when tracing one state over many partitions.
    """
    return np.flatnonzero(state)


def reduced_density_matrix(
    state: np.ndarray,
    p: Partition,
    *,
    max_subsystem: int = MAX_SUBSYSTEM_LINKS,
    support: np.ndarray | None = None,
) -> np.ndarray:
    """Partial trace over side B, keeping the links of side A.

    Works from the support of the state (``support``, or the nonzero
    amplitudes found here when it is None).  Each supported basis index
    splits into its A bits, gathered with A's lowest link as the least
    significant bit, and its B bits.  The amplitudes fill the matrix M
    whose rows are only the A bit patterns that occur and whose columns
    are only the B patterns that occur, both ascending.  M M^dagger is
    written into the rows and columns of those A patterns of the full
    2**|A| x 2**|A| rho; the rest of rho is zero.
    """
    n = p.n_links
    if len(state) != 1 << n:
        raise ValueError("state size does not match the partition width")
    a_links = p.a_links()
    _check_subsystem(len(a_links), max_subsystem)
    idx = np.flatnonzero(state) if support is None else support
    rows = np.zeros(len(idx), dtype=np.int64)
    for pos, link in enumerate(a_links):
        rows |= ((idx >> link) & 1) << pos
    a_keys, rows = np.unique(rows, return_inverse=True)
    # gathering B's bits keeps their order, so the masked indices sort
    # the columns as the gathered B indices would
    b_keys, cols = np.unique(idx & p.b_mask, return_inverse=True)
    m = np.zeros((len(a_keys), len(b_keys)), dtype=np.complex128)
    m[rows, cols] = state[idx]
    rho = np.zeros((1 << len(a_links),) * 2, dtype=np.complex128)
    rho[np.ix_(a_keys, a_keys)] = m @ m.conj().T
    return rho


def reduced_spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density matrix, clamped and sorted descending."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    # the largest |rho - rho^H| entry, 64 rows at a time: full-size
    # temporaries would take about 2.5 times rho's own memory
    gap = np.max([
        np.max(np.abs(rho[i:i + 64] - rho[:, i:i + 64].conj().T))
        for i in range(0, len(rho), 64)
    ])
    if gap > 1e-12:
        raise ValueError("density matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -EIG_NEGATIVE_TOL:
        raise ValueError(f"density matrix has eigenvalue {eigs.min()} < 0")
    return np.sort(np.clip(eigs, 0.0, None))[::-1]


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in bits; eigenvalues below 1e-12 contribute zero.

    Only the principal block on the rows and columns that hold a nonzero
    entry is eigensolved: in a Hermitian matrix, a zero row and column
    add one zero eigenvalue and nothing else.  An asymmetric entry keeps
    its row and its column in the block, where the Hermitian check of
    `reduced_spectrum` sees it.
    """
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    used = np.flatnonzero(rho.any(axis=0) | rho.any(axis=1))
    # an all-zero rho has no block; its entropy is -0.0
    eigs = reduced_spectrum(rho[np.ix_(used, used)]) if len(used) else np.zeros(0)
    eigs = eigs[eigs > EIG_ZERO_TOL]
    return float(-(eigs * np.log2(eigs)).sum())


def off_diagonal_mass(rho: np.ndarray) -> float:
    """Sum of absolute values of the off-diagonal entries."""
    return float(np.abs(rho).sum() - np.abs(np.diag(rho)).sum())


_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=np.complex128,
)


def concurrence(rho: np.ndarray) -> float:
    """Two-spin mixed-state concurrence.

    sqrt-eigenvalues of rho (Y x Y) rho* (Y x Y) in decreasing order;
    the result is clamped at zero.
    """
    if rho.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 density matrix, got {rho.shape}")
    r = rho @ _YY @ rho.conj() @ _YY
    eigs = np.sort(np.clip(np.linalg.eigvals(r).real, 0.0, None))[::-1]
    roots = np.sqrt(eigs)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def oracle_entropy(
    state: np.ndarray,
    p: Partition,
    *,
    max_subsystem: int = MAX_SUBSYSTEM_LINKS,
    support: np.ndarray | None = None,
) -> float:
    """Entropy across ``p`` of a state from `build_ground_state`.

    ``max_subsystem`` caps the links of side A, checked before any
    trace.  The side with fewer links is kept, A on a tie: the state is
    pure, so S(A) = S(B).  ``support`` is the state's `support`, found
    here when None.
    """
    _check_subsystem(p.size_a, max_subsystem)
    if 2 * p.size_a > p.n_links:
        p = p.complement()
    return von_neumann_entropy(
        reduced_density_matrix(
            state, p, max_subsystem=max_subsystem, support=support
        )
    )


def basis_state_entropy_invariance(
    lat: Lattice, p: Partition, tol: float = ORACLE_TOL
) -> bool:
    """Check all four ladder-basis ground states give the same entropy."""
    values = [
        oracle_entropy(build_ground_state(lat, GroundStateCoeffs.xi(i, j)), p)
        for i in (0, 1)
        for j in (0, 1)
    ]
    return max(values) - min(values) <= tol
