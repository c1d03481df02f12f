"""MOESP subspace identification of discrete-time state-space models.

The pipeline: take the lower-triangular factor of an LQ decomposition of
the stacked input and output block Hankel matrices, SVD its
output-residual block to expose the system order, then recover C and A
from the extended observability matrix and B, D from a least-squares
system built out of the discarded left singular vectors and the L-factor
partitions.  The LQ step is CholeskyQR2 in two passes over the series
that never hold the whole stack: the Gram matrix comes from lagged
products of the series, and the second pass builds the stack _CHUNK
Hankel columns at a time.  Only a stack too ill-conditioned for it is
built whole, for a Householder QR of its transpose.
simulate runs a model open loop through _affine_pass, the blocked affine
recurrence that the Kalman filter's frozen-gain pass also uses; on a long
stream it solves its own block-start recurrence by a nested pass, so its
Python steps number about N / _BLOCK^2 + _BLOCK rather than N / _BLOCK.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .dataio import as_series, build_hankel
from .errors import DataError, NumericalError


@dataclass(frozen=True)
class StateSpaceModel:
    """Discrete-time model x_{k+1} = A x_k + B u_k, y_k = C x_k + D u_k."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in "ABCD":
            object.__setattr__(self, name,
                               np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DataError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise DataError(f"B row count {self.B.shape[0]} != order {n}")
        if self.C.shape[1] != n:
            raise DataError(f"C column count {self.C.shape[1]} != order {n}")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise DataError(
                f"D shape {self.D.shape} inconsistent with C/B "
                f"({self.C.shape[0]}, {self.B.shape[1]})")
        for name in "ABCD":
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericalError(f"non-finite entries in {name}")

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def m_in(self) -> int:
        return self.B.shape[1]

    @property
    def m_out(self) -> int:
        return self.C.shape[0]

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))

    @property
    def is_unstable(self) -> bool:
        return self.spectral_radius >= 1.0

    def input_terms(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For (N, m_in) inputs: B u_{k-1}, whose row k-1 drives x_k (N-1
        rows), and the feedthrough D u_k (N rows)."""
        inputs = as_series(inputs)
        if inputs.shape[1] != self.m_in:
            raise DataError(
                f"input has {inputs.shape[1]} channels, model expects {self.m_in}")
        return _map_rows(self.B, inputs[:-1]), _map_rows(self.D, inputs)

    def markov_parameters(self, count: int) -> list[np.ndarray]:
        """Impulse-response coefficients: D, CB, CAB, CA^2 B, ...

        Invariant under state similarity transforms, hence the right
        target for identification-quality checks.
        """
        params = [self.D.copy()]
        CAk = self.C.copy()
        for _ in range(count - 1):
            params.append(CAk @ self.B)
            CAk = CAk @ self.A
        return params


@dataclass(frozen=True)
class SubspaceDecomposition:
    """LQ/SVD factorization of the stacked [U; Y] Hankel system.

    R11 and R21 partition the lower-triangular L-factor; U1 holds the left
    singular vectors of its output-residual (lower right) block and
    singular_values that block's spectrum in descending order.  lq_method names the path that
    computed L ("cholesky_qr2" or "householder"), lq_cond_est is the 1-norm
    condition estimate that chose it (None when a Cholesky step failed)
    and cond_r11 the 2-norm condition number of R11.
    """

    singular_values: np.ndarray
    R11: np.ndarray
    R21: np.ndarray
    U1: np.ndarray
    block_rows: int
    m_in: int
    m_out: int
    lq_method: str
    lq_cond_est: float | None
    cond_r11: float


#: CholeskyQR2 matches Householder accuracy while the stack's condition
#: number stays below about 1/sqrt(eps); past that the Gram matrix loses
#: its positive definiteness to rounding (Yamamoto, Nakatsukasa,
#: Yanagisawa & Fukaya, ETNA 44, 2015).
_CHOLQR_MAX_COND = 1.0 / np.sqrt(np.finfo(float).eps)


def _stack_gram(S: np.ndarray, block_rows: int) -> np.ndarray:
    """Gram matrix X X' of X = build_hankel(S) (block_rows block rows,
    N - block_rows + 1 columns) of the series S, formed without building X.

    With s_t the row t of S, block (i, k) of X X' is H(i, k) =
    sum_j s_(i+j) s_(k+j)' over the cols columns j.  Its first block row is
    block_rows lagged products of S.  Down each block diagonal,
    H(i+1, k+1) = H(i, k) - s_i s_k' + s_(i+cols) s_(k+cols)', so one
    cumulative sum of these rank-one slides, taken for all lags at once,
    gives the rest.  That is O(N d m^2) flops for d = block_rows and m
    channels, against O(N d^2 m^2) for X X'.
    """
    d = block_rows
    cols, m = S.shape[0] - d + 1, S.shape[1]
    # H[i, l] = H(i, i + l); only the entries with i + l < d are used.
    H = np.empty((d, d, m, m))
    np.matmul(S[:cols].T, sliding_window_view(S, (cols, m))[:d, 0], out=H[0])
    # Slide t of lag l is -s_t s_(t+l)' + s_(t+cols) s_(t+l+cols)', from the
    # rows that leave (edge[..., 0]) and enter (edge[..., 1]) the window.
    # The zero rows past them reach only entries with i + l >= d.
    edge = np.zeros((2 * d - 1, m, 2))
    edge[:d - 1, :, 0] = S[:d - 1]
    edge[:d - 1, :, 1] = S[cols:]
    ends = (edge[:d - 1] * [-1.0, 1.0])[:, None]
    lagged = sliding_window_view(edge, d, axis=0)[:d - 1].transpose(0, 3, 2, 1)
    np.matmul(ends, lagged, out=H[1:])
    np.cumsum(H, axis=0, out=H)

    # Block (i, k) is H[min(i, k), |k - i|], transposed below the block
    # diagonal.
    i, k = np.indices((d, d))
    blocks = H[np.minimum(i, k), np.abs(k - i)]
    blocks = np.where((k < i)[:, :, None, None], blocks.swapaxes(2, 3), blocks)
    return blocks.transpose(0, 2, 1, 3).reshape(d * m, d * m)


#: Hankel columns per chunk of _lq_factor's second pass.  A chunk holds
#: its slice of the Hankel matrix and of Q, 2 times the d (m_in + m_out)
#: x _CHUNK doubles of one [U; Y] slice.  Of 256 .. 8192,
#: 2048 and 4096 timed fastest on 36,000 x (6+6) samples at d = 20, and
#: 512 about 10% slower; 2048 holds half the memory of 4096.  1,240 x
#: (3+3) samples fit in one chunk; chunks of 512 saved 0.6 ms of 6 there.
_CHUNK = 2048


def _lq_factor(inputs: np.ndarray, outputs: np.ndarray, block_rows: int
               ) -> tuple[np.ndarray, str, float | None]:
    """Lower-triangular L with diag(L) >= 0 such that [U; Y] = L Q, Q with
    orthonormal rows, for the block Hankel matrices U and Y of the inputs
    and outputs; also the path taken and its condition estimate.

    CholeskyQR2 in two passes over the series, neither of which holds the
    whole stack.  [U; Y] is build_hankel(S) of S = [inputs | outputs] with
    its rows in the order of one index array, ``order``: every block row's
    input channels, then its outputs.  The first pass factors the Gram
    matrix L1 L1' of [U; Y], _stack_gram's Gram of build_hankel(S) in that
    order.  The second needs Q = L1^-1 [U; Y] only through Q Q', so it
    builds build_hankel(S) _CHUNK columns at a time, multiplies each chunk
    by W, L1^-1 with its columns permuted, and sums the chunks' Q_c Q_c';
    then L = L1 chol(Q Q').  When a Cholesky step fails or the estimate
    ||L1||_1 ||L1^-1||_1 exceeds _CHOLQR_MAX_COND (noise-free or
    rank-deficient data), a Householder QR of the whole stacked transpose
    takes over, with its rows signed so both paths return the same factor.
    """
    d, m_in = block_rows, inputs.shape[1]
    cols, m = inputs.shape[0] - d + 1, m_in + outputs.shape[1]
    order = np.argsort(np.arange(d * m) % m >= m_in, kind="stable")

    def stack(start: int, stop: int) -> np.ndarray:
        """Columns start..stop-1 of build_hankel(S), from their slice of S."""
        S = np.hstack([inputs[start:stop + d - 1], outputs[start:stop + d - 1]])
        return build_hankel(S, d, stop - start)

    try:
        L1 = np.linalg.cholesky(
            _stack_gram(np.hstack([inputs, outputs]), d)[np.ix_(order, order)])
        # W build_hankel(S) = L1^-1 [U; Y] for W[:, order] = L1^-1, and
        # permuting its columns keeps the 1-norm
        W = np.empty_like(L1)
        W[:, order] = np.linalg.inv(L1)
        cond_est = float(np.linalg.norm(L1, 1) * np.linalg.norm(W, 1))
        if cond_est <= _CHOLQR_MAX_COND:
            QQ = 0.0  # no zeros are held beside the first chunk
            for start in range(0, cols, _CHUNK):
                Q = W @ stack(start, min(start + _CHUNK, cols))
                QQ += Q @ Q.T
                del Q  # before the next chunk's slice is built
            return L1 @ np.linalg.cholesky(QQ), "cholesky_qr2", cond_est
    except np.linalg.LinAlgError:
        cond_est = None
    R = np.triu(np.linalg.qr(stack(0, cols)[order].T, mode="r"))
    R[np.diag(R) < 0] *= -1.0
    return R.T, "householder", cond_est


def moesp_decompose(inputs: np.ndarray, outputs: np.ndarray,
                    block_rows: int = 20) -> SubspaceDecomposition:
    """Take the LQ factor of the input/output block Hankel stack (see
    _lq_factor) and SVD its output-residual (lower right) block.

    inputs is (N, m_in), outputs (N, m_out), both normalized.  Needs at
    least 2 * block_rows * max(m_in, m_out) + 1 samples so the LQ step is
    well posed.
    """
    inputs, outputs = as_series(inputs), as_series(outputs)
    if inputs.ndim != 2 or outputs.ndim != 2:
        raise DataError("inputs and outputs must be 2-D")
    if inputs.shape[0] != outputs.shape[0]:
        raise DataError("inputs and outputs must have the same length")
    n_samples = inputs.shape[0]
    m_in, m_out = inputs.shape[1], outputs.shape[1]
    d = block_rows
    if n_samples < 2 * d * max(m_in, m_out) + 1:
        raise DataError(
            f"need at least {2 * d * max(m_in, m_out) + 1} samples for "
            f"block_rows={d}, got {n_samples}")

    L, lq_method, lq_cond_est = _lq_factor(inputs, outputs, d)
    du = d * m_in
    R11 = L[:du, :du]
    R21 = L[du:, :du]
    U1, ss, _ = np.linalg.svd(L[du:, du:])

    # no input block: realize has no R11 to invert
    cond_r11 = float(np.linalg.cond(R11)) if du else np.inf
    return SubspaceDecomposition(
        singular_values=ss, R11=R11, R21=R21, U1=U1,
        block_rows=d, m_in=m_in, m_out=m_out, lq_method=lq_method,
        lq_cond_est=lq_cond_est, cond_r11=cond_r11)


def select_order(singular_values: np.ndarray, energy: float = 0.85,
                 fixed: int | None = None) -> int:
    """Pick the model order from the singular value spectrum: ``fixed``
    when given, else the smallest n whose cumulative sum reaches
    ``energy`` of the total (default 0.85)."""
    ss = np.asarray(singular_values, dtype=float)
    total = ss.sum()
    if total <= 0:
        raise NumericalError("degenerate data: all singular values are zero")
    if fixed is not None:
        if fixed < 1:
            raise DataError(f"fixed order {fixed} must be >= 1")
        return int(fixed)
    ratios = np.cumsum(ss) / total
    return int(np.searchsorted(ratios, energy - 1e-12) + 1)


#: realize refuses a shift equation or an R11 whose condition number
#: exceeds this.
_COND_LIMIT = 1e12


def realize(decomp: SubspaceDecomposition, order: int) -> StateSpaceModel:
    """Recover (A, B, C, D) from the decomposition at the given order.

    C is the top block of the scaled observability estimate Ok; A solves
    the observability shift equation in least squares; B and D solve the
    stacked system built from the discarded singular vectors and the
    R21 * R11^-1 product.
    """
    d, m_in, m_out = decomp.block_rows, decomp.m_in, decomp.m_out
    if d < 2:  # the shift equation below has d - 1 block rows
        raise DataError(f"block_rows = {d}: realize needs block_rows >= 2")
    ss = decomp.singular_values
    n_pos = int(np.sum(ss > 0))
    if not 1 <= order <= n_pos:
        raise DataError(f"order {order} outside 1..{n_pos} positive singular values")
    if d * m_out <= order:
        raise DataError(
            f"block_rows * m_out = {d * m_out} must exceed order {order}")
    n = order

    Ok = decomp.U1[:, :n] * np.sqrt(ss[:n])
    C = Ok[:m_out, :]

    # Shift equation: Ok[0:(d-1)*m_out] A = Ok[m_out:d*m_out], least squares.
    top = Ok[:m_out * (d - 1), :]
    bottom = Ok[m_out:m_out * d, :]
    cond = np.linalg.cond(top)
    if cond > _COND_LIMIT:
        raise NumericalError(
            f"ill-conditioned observability shift equation (cond={cond:.3e})")
    A, *_ = np.linalg.lstsq(top, bottom, rcond=None)

    # B, D from L1 = U1[:, n:].T and M1 = L1 R21 R11^-1.
    L1 = decomp.U1[:, n:].T
    r11_cond = decomp.cond_r11
    if not np.isfinite(r11_cond) or r11_cond > _COND_LIMIT:
        raise NumericalError(
            f"singular R11 (insufficient input excitation, cond={r11_cond:.3e})")
    M1 = L1 @ decomp.R21 @ np.linalg.inv(decomp.R11)

    # Block column j of M1 equals L1_j D + [L1_{j+1} .. L1_d] Ok[:(d-j)m_out] B;
    # stack all d block equations and solve for [D; B] jointly.
    L_blocks = []
    M_blocks = []
    for j in range(d):
        Lj = L1[:, j * m_out:(j + 1) * m_out]
        # the last block's tail is empty, so its product is all zeros
        GB = L1[:, (j + 1) * m_out:] @ Ok[:(d - j - 1) * m_out, :]
        L_blocks.append(np.hstack([Lj, GB]))
        M_blocks.append(M1[:, j * m_in:(j + 1) * m_in])
    L_mat = np.vstack(L_blocks)
    M_mat = np.vstack(M_blocks)
    DB, *_ = np.linalg.lstsq(L_mat, M_mat, rcond=None)
    D = DB[:m_out, :]
    B = DB[m_out:, :]

    model = StateSpaceModel(A=A, B=B, C=C, D=D)
    if model.is_unstable:
        warnings.warn(
            f"identified model is unstable (spectral radius "
            f"{model.spectral_radius:.4f})", stacklevel=2)
    return model


def identify(inputs: np.ndarray, outputs: np.ndarray, block_rows: int = 20,
             energy: float = 0.85, fixed: int | None = None
             ) -> tuple[StateSpaceModel, SubspaceDecomposition]:
    """Convenience wrapper: decompose, select order, realize."""
    decomp = moesp_decompose(inputs, outputs, block_rows)
    order = select_order(decomp.singular_values, energy=energy, fixed=fixed)
    return realize(decomp, order), decomp


#: Samples per block in _affine_pass.  Its Python steps fall as 1/L while
#: the Toeplitz matmul's flops grow as L n^2 per sample; for orders 2 to 6
#: over 10,000 to 36,000 samples, 32 timed at or near the fastest of
#: L = 8 .. 128 with the block starts looped.  With them nested
#: (_NEST_ABOVE), 16 took 3-20% less time than 32 on orders 2 / 3 / 6 over
#: 1,240 to 36,000 samples (medians of 41 alternating calls); 32 stays,
#: since any other L changes the last bits of every pass.
_BLOCK = 32

#: _affine_pass solves its block starts with a nested pass above this many
#: blocks and loops over them at or below it.  A nested level costs _BLOCK
#: more n x n products and one more Toeplitz build.  Against the loop, for
#: orders 2, 3 and 6 (best of 15 runs): +0 / +4 / +12% at 39 blocks (1,240
#: samples), -23 / -23 / -7% at 64, -60 / -58 / -36% at 313 (10,000
#: samples) and -61 / -46 / -22% at 1,125 (36,000 samples).
_NEST_ABOVE = 64


def _map_rows(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X M' for a tall (N, k) series X and a small (j, k) matrix M: M
    applied to each row of X.

    np.dot against a contiguous copy of M' is the fastest form OpenBLAS
    offers for these shapes: @ is slow against a one-wide operand (73
    against 8 us at 10,000 x 1 by 1 x 1), and both @ and np.dot are slow
    against any transposed small operand (94 / 102 against 33 us at
    10,000 x 2 by 2 x 2, 195 / 214 against 81 us at 12,000 x 6 by 6 x 6).
    The bits equal X @ M.T while M has at most 15 columns; from 16 on,
    OpenBLAS splits the sums differently and the last bits can move.
    """
    return np.dot(X, np.ascontiguousarray(M.T))


def _affine_pass(F: np.ndarray, x0: np.ndarray, h: np.ndarray) -> np.ndarray:
    """States x_0 = x0, x_k = F x_{k-1} + h_{k-1} for k = 1..len(h).

    Works on blocks of L = _BLOCK samples.  With the powers F^0..F^L, one
    matmul by the block lower-triangular Toeplitz map T (block (i, j) is
    F^(i-j) for i >= j) gives each block's response from a zero start.
    The block starts follow s_b = F^L s_{b-1} + (last row of block b-1's
    response), a recurrence of the same form with one step per block:
    past _NEST_ABOVE blocks a nested _affine_pass on F^L solves it, else a
    loop over the block boundaries; one matmul then adds F^i s_b back in.
    Every level multiplies only finite powers: it forms its own F^0..F^L
    (the next level's are F^0, F^L, .., F^(L L)) and halves its own L
    while any of them overflows, so that a growing mode with zero state
    never meets inf * 0.  Nothing is squared across the stream, so this is
    not a doubling or associative scan; at L = 1 it is the plain step loop.
    """
    n, m = F.shape[0], h.shape[0]
    powers = np.empty((_BLOCK + 1, n, n))
    powers[0] = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(_BLOCK):
            # np.dot: same values as matmul, which is slower on n x n.  A
            # doubling chain rounds differently: 3e-11 off the step loop
            # at spectral radius 1.05.
            np.dot(F, powers[i], out=powers[i + 1])
    L = _BLOCK
    while L > 1 and not np.all(np.isfinite(powers[:L + 1])):
        L //= 2
    # Block row i of T is the L n columns of R = [F^(L-1) .. F^1 F^0 0 .. 0]
    # from R's block L-1-i on.  T is copied out contiguous even at n = 1,
    # where a view would do: a matmul on the negative-stride view sums in
    # another order.
    R = np.zeros((n, (2 * L - 1) * n))
    R[:, :L * n].reshape(n, L, n)[...] = powers[L - 1::-1].transpose(1, 0, 2)
    row_stride, col_stride = R.strides
    T = np.ascontiguousarray(as_strided(
        R[:, (L - 1) * n:], (L, n, L * n),
        (-n * col_stride, row_stride, col_stride))).reshape(L * n, L * n)

    blocks = -(-m // L)
    out = np.zeros((blocks * L + 1, n))
    out[0] = x0
    out[1:m + 1] = h
    rows = out[1:].reshape(blocks, L * n)
    zero_start = rows @ T.T
    ends = zero_start[:-1, -n:]
    if L > 1 and blocks > _NEST_ABOVE:
        starts = _affine_pass(powers[L], out[0], ends)
    else:
        starts = np.concatenate([out[:1], ends])[:blocks]
        carried = list(starts)
        for prev, row in zip(carried, carried[1:]):
            row += np.dot(powers[L], prev)
    # row b of starts @ [F^1' .. F^L'] is block b's free response
    np.matmul(starts, powers[1:L + 1].transpose(2, 0, 1).reshape(n, L * n),
              out=rows)
    rows += zero_start
    return out[:m + 1]


def simulate(model: StateSpaceModel, inputs: np.ndarray,
             x0: np.ndarray | None = None) -> np.ndarray:
    """Run the model open loop from x0 (default zero): y_k = C x_k + D u_k,
    x_{k+1} = A x_k + B u_k, with the terms of model.input_terms and the
    states from one blocked affine pass (_affine_pass).  A prediction
    that is not finite raises NumericalError naming its first sample."""
    Bu, Du = model.input_terms(inputs)
    n = model.order
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(n)
    # an overflow shows up as a non-finite prediction, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        y = _map_rows(model.C, _affine_pass(model.A, x, Bu)) + Du
    if not np.isfinite(y).all():  # a row-wise test is 10x slower
        first = np.argmin(np.isfinite(y).all(axis=1))
        raise NumericalError(f"sample {first + 1}: open-loop prediction is "
                             "not finite")
    return y
