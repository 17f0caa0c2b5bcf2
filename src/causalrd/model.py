"""Finite-alphabet problem data: alphabets, history codes, sources, distortions, policies.

Every module in the package shares one indexing contract: a length-``k``
prefix ``(u_0, ..., u_{k-1})`` over per-stage alphabet sizes
``(c_0, ..., c_{k-1})`` is stored at the mixed-radix code

    code = sum_j u_j * prod_{k > j} c_k

with stage 0 as the most-significant digit.  Consequently the *last* symbol
of a prefix is ``code % c_{k-1}`` and the length-``(k-1)`` parent prefix is
``code // c_{k-1}``.  All dense tables in the package are indexed by these
codes, so the encoding is bit-exact and frozen.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, ResourceBudgetError

# Bound on the entries of the largest dense full-history table, the
# (x^{n-1}, y^{n-1}) pair table; StageAlphabets refuses alphabets past it.
ENTRY_BUDGET = 10**8

# Tolerance for a stored probability row to be accepted before renormalization.
ROW_SUM_TOL = 1e-12


# ---------------------------------------------------------------------------
# History codes
# ---------------------------------------------------------------------------

def encode_history(symbols, sizes) -> int:
    """Encode a prefix of symbols into its mixed-radix history code.

    Parameters
    ----------
    symbols : sequence of int
        Symbol indices, stage 0 first.  May be empty (code 0).
    sizes : sequence of int
        Per-stage alphabet sizes; only the first ``len(symbols)`` are used.
    """
    if len(symbols) > len(sizes):
        raise InvalidArgumentError("more symbols than alphabet sizes")
    code = 0
    for j, u in enumerate(symbols):
        c = int(sizes[j])
        u = int(u)
        if not 0 <= u < c:
            raise InvalidArgumentError(
                f"symbol {u} out of range for alphabet of size {c} at stage {j}")
        code = code * c + u
    return code


# ---------------------------------------------------------------------------
# Alphabets
# ---------------------------------------------------------------------------

def _count(v, what: str) -> int:
    """``v`` as an int >= 1: an integer or an integral float, not a bool."""
    if isinstance(v, (float, np.floating)):
        ok = float(v).is_integer()                   # False for nan and inf
    else:
        ok = isinstance(v, (int, np.integer)) and not isinstance(v, bool)
    if not ok or v < 1:
        raise InvalidArgumentError(f"{what} must be an integer >= 1, got {v!r}")
    return int(v)


def _check_multiplier(s) -> None:
    """Refuse a multiplier that is not a finite number <= 0 (nan included)."""
    if not -math.inf < s <= 0:
        raise InvalidArgumentError("multiplier s must be a finite number <= 0")


class StageAlphabets:
    """Stage count and per-stage source and reproduction alphabet sizes.

    Parameters
    ----------
    n_stages : int
        Number of stages (time indices 0..n_stages-1).
    x_sizes, y_sizes : sequence of int
        Alphabet sizes |X_i| and |Y_i|, one per stage.

    Counts and sizes must be integers (an integral float is accepted).
    Alphabets whose pair table |X^{n-1}| * |Y^{n-1}| would exceed
    ``ENTRY_BUDGET`` entries raise :class:`ResourceBudgetError`, so every
    dense full-history table derived from them fits the budget.
    """

    def __init__(self, n_stages, x_sizes, y_sizes):
        self.n_stages = n = _count(n_stages, "n_stages")
        x_sizes, y_sizes = list(x_sizes), list(y_sizes)
        if len(x_sizes) != n or len(y_sizes) != n:
            raise InvalidArgumentError(
                f"need {n} per-stage sizes, got {len(x_sizes)} x / {len(y_sizes)} y")
        # pair table (|X^{n-1}| * |Y^{n-1}|) is the largest derived table;
        # sizes are counted and multiplied stage by stage, so a long horizon
        # is refused at the first stage past the budget, before the rest is read
        self.x_sizes, self.y_sizes = [], []
        entries = 1
        for cx, cy in zip(x_sizes, y_sizes):
            self.x_sizes.append(_count(cx, "x_sizes entry"))
            self.y_sizes.append(_count(cy, "y_sizes entry"))
            entries *= self.x_sizes[-1] * self.y_sizes[-1]
            if entries > ENTRY_BUDGET:
                raise ResourceBudgetError(
                    f"full-history pair table of {n} stages needs more than "
                    f"{ENTRY_BUDGET} entries (the budget)")

    def x_hist_size(self, stage: int) -> int:
        """Number of x-prefixes x^stage (stage = -1 gives the empty prefix)."""
        return math.prod(self.x_sizes[: stage + 1])

    def y_hist_size(self, stage: int) -> int:
        return math.prod(self.y_sizes[: stage + 1])

    def x_trajectories(self) -> int:
        return self.x_hist_size(self.n_stages - 1)

    def y_trajectories(self) -> int:
        return self.y_hist_size(self.n_stages - 1)

    def __eq__(self, other):
        return (isinstance(other, StageAlphabets)
                and self.x_sizes == other.x_sizes
                and self.y_sizes == other.y_sizes)


# ---------------------------------------------------------------------------
# Checks shared by sources, policies and the functions that combine them
# ---------------------------------------------------------------------------

def _check_rows(kind: str, tables) -> list:
    """The stage ``tables`` of a source or policy (``kind``), each row along
    the last axis renormalized once all are found to be probability vectors:
    a sum within ROW_SUM_TOL of 1 (not nan) and no negative entry.  Else
    raises, naming the stage and history code of every bad row."""
    report, out = [], []
    for i, t in enumerate(tables):
        rows = t.reshape(-1, t.shape[-1])
        sums, mins = rows.sum(axis=1), rows.min(axis=1)
        off = ~(np.abs(sums - 1.0) <= ROW_SUM_TOL)
        for h in np.nonzero(off | (mins < 0))[0]:
            parts = [f"sums to {sums[h]:.12g} (deficit {1.0 - sums[h]:.12g})"] if off[h] else []
            if mins[h] < 0:
                parts.append(f"has negative entry {mins[h]:.12g}")
            report.append(f"{kind} row at stage {i}, history code {h}: " + "; ".join(parts))
        if not report:                                  # no 0 or inf sum to divide by
            out.append((rows / sums[:, None]).reshape(t.shape))
    if report:
        raise InvalidArgumentError(f"invalid {kind} kernels: " + "; ".join(report))
    return out


def _check_alphabets(source, g=None, **parts) -> None:
    """Refuse each of ``parts`` (policies, marginal processes or distortion
    specs, by name) built on other alphabets than ``source``, naming both
    sides, and a list ``g`` of other than one table per stage."""
    al = source.alphabets
    for what, part in parts.items():
        if part.alphabets != al:
            on = [f"x sizes {a.x_sizes} and y sizes {a.y_sizes}" for a in (part.alphabets, al)]
            raise InvalidArgumentError(f"{what} is built on {on[0]}, the source on {on[1]}")
    if g is not None and len(g) != al.n_stages:
        raise InvalidArgumentError(f"g has {len(g)} tables, the source {al.n_stages} stages")


def _expand_window(t: np.ndarray, n_hist: int, axis: int = 0) -> np.ndarray:
    """``t``, whose ``axis`` is indexed by the code of a suffix window of a
    history, over ``n_hist`` longer-history codes.  By the mixed-radix
    contract the window code of a history is its code modulo the window size,
    so row h of the result is row h % t.shape[axis]; ``t`` itself when the
    sizes agree."""
    w = t.shape[axis]
    return t if w == n_hist else np.take(t, np.arange(n_hist) % w, axis=axis)


# ---------------------------------------------------------------------------
# Source model
# ---------------------------------------------------------------------------

def _valid_memory(m) -> bool:
    if isinstance(m, str):
        return m == "full"
    return isinstance(m, (int, np.integer)) and not isinstance(m, bool) and m >= 0


class SourceModel:
    """Nonstationary source law as per-stage conditional kernels.

    ``kernels[i]`` has shape ``(window_hist_size(i), x_sizes[i])`` and row
    ``h`` holds the distribution of X_i given the encoded history ``h``.
    With ``memory="full"`` the window is the whole prefix x^{i-1}; with an
    integer ``memory=m`` the kernel reads only the last ``min(m, i)`` source
    symbols and rows are indexed by the code of that suffix (which equals
    ``full_code % window_hist_size`` under the shared mixed-radix contract).
    Any other ``memory`` (a float, a bool, a negative number) is rejected.
    The rows are checked and stored renormalized by :func:`_check_rows`.
    """

    def __init__(self, alphabets: StageAlphabets, kernels, memory="full"):
        if not _valid_memory(memory):
            raise InvalidArgumentError(
                f"memory must be 'full' or a nonnegative integer, got {memory!r}")
        self.alphabets = alphabets
        self.memory = memory
        n = alphabets.n_stages
        if len(kernels) != n:
            raise InvalidArgumentError(f"need {n} kernels, got {len(kernels)}")
        ks = []
        for i, k in enumerate(kernels):
            k = np.asarray(k, dtype=float)
            want = (self.window_hist_size(i), alphabets.x_sizes[i])
            if k.shape != want:
                raise InvalidArgumentError(
                    f"kernel {i} has shape {k.shape}, expected {want}")
            ks.append(k)
        self.kernels = _check_rows("source", ks)

    def window_len(self, stage: int) -> int:
        return stage if self.memory == "full" else min(self.memory, stage)

    def window_hist_size(self, stage: int) -> int:
        w = self.window_len(stage)
        return math.prod(self.alphabets.x_sizes[stage - w: stage])

    def stage_rows(self, stage: int, n_hist: Optional[int] = None) -> np.ndarray:
        """Kernel rows over ``n_hist`` codes of a suffix window at least as long
        as the kernel's, by default all of x^{stage-1}: :func:`_expand_window`."""
        if n_hist is None:
            n_hist = self.alphabets.x_hist_size(stage - 1)
        return _expand_window(self.kernels[stage], n_hist)


def full_joint_source(source: SourceModel) -> np.ndarray:
    """Dense law of the whole trajectory X^{n-1} as a probability vector.

    Entry at code(x^{n-1}) is the stagewise product of kernel values; the
    result sums to 1 within 1e-10 for a valid source.
    """
    al = source.alphabets
    mu = source.kernels[0][0].copy()
    for i in range(1, al.n_stages):
        rows = source.stage_rows(i)          # (x_hist(i-1), |X_i|)
        mu = (mu[:, None] * rows).reshape(-1)
    return mu


# ---------------------------------------------------------------------------
# Distortion tables
# ---------------------------------------------------------------------------

class DistortionSpec:
    """Additive distortion d(x^n, y^n) = sum_i rho_i(x^i, y^i).

    Two modes:

    * ``single_letter`` -- one table ``rho(x, y)`` shared by all stages,
      with ``rho_i(x^i, y^i) = rho(x_i, y_i)``; requires equal per-stage
      alphabet sizes.
    * ``stage_tables`` -- per stage ``i`` a dense table over prefix codes,
      shape ``(x_hist_size(i), y_hist_size(i))``.

    Only the stage-additive form is supported; a joint non-additive
    ``d(x^n, y^n)`` cannot be represented.
    """

    def __init__(self, alphabets: StageAlphabets, *, rho=None, tables=None):
        self.alphabets = alphabets
        if (rho is None) == (tables is None):
            raise InvalidArgumentError("give exactly one of rho= or tables=")
        if rho is not None:
            rho = np.asarray(rho, dtype=float)
            if rho.ndim != 2:
                raise InvalidArgumentError("single-letter table must be 2-D")
            if len(set(alphabets.x_sizes)) != 1 or len(set(alphabets.y_sizes)) != 1:
                raise InvalidArgumentError(
                    "single-letter distortion requires equal per-stage alphabet sizes")
            if rho.shape != (alphabets.x_sizes[0], alphabets.y_sizes[0]):
                raise InvalidArgumentError(
                    f"single-letter table shape {rho.shape} does not match "
                    f"alphabets ({alphabets.x_sizes[0]}, {alphabets.y_sizes[0]})")
            self._validate_entries(rho, "single-letter table")
            self.mode = "single_letter"
            self.rho = rho
            self.tables = None
        else:
            n = alphabets.n_stages
            if len(tables) != n:
                raise InvalidArgumentError(f"need {n} stage tables, got {len(tables)}")
            ts = []
            for i, t in enumerate(tables):
                t = np.asarray(t, dtype=float)
                want = (alphabets.x_hist_size(i), alphabets.y_hist_size(i))
                if t.shape != want:
                    raise InvalidArgumentError(
                        f"stage table {i} has shape {t.shape}, expected {want}")
                self._validate_entries(t, f"stage table {i}")
                ts.append(t)
            self.mode = "stage_tables"
            self.rho = None
            self.tables = ts

    @staticmethod
    def _validate_entries(t, what):
        if not np.isfinite(t).all():
            raise InvalidArgumentError(f"{what} has non-finite entries")
        if (t < 0).any():
            raise InvalidArgumentError(f"{what} has negative entries")

    @classmethod
    def single_letter(cls, alphabets, rho):
        return cls(alphabets, rho=rho)

    @classmethod
    def stage_tables(cls, alphabets, tables):
        return cls(alphabets, tables=tables)

    def stage_table(self, stage: int) -> np.ndarray:
        """Dense rho_stage over (x^stage, y^stage) prefix codes.

        The single-letter expansion is exact: the entry depends only on the
        last symbol of each prefix.  A stage outside 0..n_stages-1 raises
        IndexError in both modes.
        """
        n = self.alphabets.n_stages
        if not 0 <= stage < n:
            raise IndexError(f"stage {stage} is outside the horizon of {n} stages")
        if self.mode == "stage_tables":
            return self.tables[stage]
        al = self.alphabets
        rows = _expand_window(self.rho, al.x_hist_size(stage))
        return _expand_window(rows, al.y_hist_size(stage), axis=1)

    def total_table(self) -> np.ndarray:
        """Dense d(x^n, y^n) over full trajectory codes, within ENTRY_BUDGET."""
        al = self.alphabets
        nx, ny = al.x_trajectories(), al.y_trajectories()
        total = np.zeros((nx, ny))
        for i in range(al.n_stages):
            xdiv = math.prod(al.x_sizes[i + 1:])
            ydiv = math.prod(al.y_sizes[i + 1:])
            t = self.stage_table(i)
            total += t[np.ix_(np.arange(nx) // xdiv, np.arange(ny) // ydiv)]
        return total


# ---------------------------------------------------------------------------
# Causal reproduction policy
# ---------------------------------------------------------------------------

class CausalPolicy:
    """Reproduction kernels q_i(y_i | y^{i-1}, x^i), the optimization variable.

    A kernel may read x^i through any suffix window, down to the empty one:
    ``tables[i]`` has shape ``(y_hist_size(i-1), w_i, y_sizes[i])`` with w_i
    the number of codes of the last k symbols of x^i for some k in 0..i+1
    (w_i = 1 for a kernel that ignores x), and each row along the last axis
    is a probability vector.  ``kernels[i]``, of shape ``(y_hist_size(i-1),
    x_hist_size(i), y_sizes[i])``, is the same kernel over full x-histories,
    expanded by :func:`_expand_window` when first read.  With ``validate``
    the rows are checked and stored renormalized by :func:`_check_rows`.
    """

    def __init__(self, alphabets: StageAlphabets, kernels, validate=True):
        self.alphabets = alphabets
        n = alphabets.n_stages
        if len(kernels) != n:
            raise InvalidArgumentError(f"need {n} kernels, got {len(kernels)}")
        ts = []
        for i, k in enumerate(kernels):
            k = np.asarray(k, dtype=float)
            yh, sy = alphabets.y_hist_size(i - 1), alphabets.y_sizes[i]
            windows = sorted({math.prod(alphabets.x_sizes[j: i + 1]) for j in range(i + 2)})
            if k.ndim != 3 or (k.shape[0], k.shape[2]) != (yh, sy) or k.shape[1] not in windows:
                raise InvalidArgumentError(
                    f"policy kernel {i} has shape {k.shape}, expected ({yh}, w, {sy}) "
                    f"with w among the suffix-window sizes {windows}")
            ts.append(k)
        self.tables = _check_rows("policy", ts) if validate else ts
        self._kernels = None

    @property
    def kernels(self) -> list:
        """The kernels over full x-histories, expanded from ``tables`` once."""
        if self._kernels is None:
            self._kernels = [_expand_window(k, self.alphabets.x_hist_size(i), axis=1)
                             for i, k in enumerate(self.tables)]
        return self._kernels


# ---------------------------------------------------------------------------
# Source factories
# ---------------------------------------------------------------------------

def iid_source(px, n_stages: int, y_size=None) -> SourceModel:
    """IID source with per-stage law ``px``; reproduction alphabet of
    ``y_size`` symbols (defaults to len(px))."""
    px = np.asarray(px, dtype=float)
    n = _count(n_stages, "n_stages")
    sx = px.shape[0]
    sy = sx if y_size is None else y_size
    al = StageAlphabets(n, [sx] * n, [sy] * n)
    kernels = [px[None, :]] * n
    return SourceModel(al, kernels, memory=0)


def markov_source(init, transition, n_stages: int, y_size=None) -> SourceModel:
    """First-order homogeneous Markov source with initial law ``init`` and
    row-stochastic ``transition``."""
    init = np.asarray(init, dtype=float)
    transition = np.asarray(transition, dtype=float)
    sx = init.shape[0]
    if transition.shape != (sx, sx):
        raise InvalidArgumentError("transition must be square and match init")
    n = _count(n_stages, "n_stages")
    sy = sx if y_size is None else y_size
    al = StageAlphabets(n, [sx] * n, [sy] * n)
    kernels = [init[None, :]] + [transition] * (n - 1)
    return SourceModel(al, kernels, memory=1)


def binary_symmetric_markov(flip: float, n_stages: int) -> SourceModel:
    """Binary Markov chain flipping with probability ``flip``, uniform start."""
    t = np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])
    return markov_source([0.5, 0.5], t, n_stages)


def hamming_distortion(alphabets: StageAlphabets) -> DistortionSpec:
    """Single-letter 0/1 distortion (requires square per-stage alphabets)."""
    sx, sy = alphabets.x_sizes[0], alphabets.y_sizes[0]
    rho = 1.0 - np.eye(sx, sy)
    return DistortionSpec.single_letter(alphabets, rho)
