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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, ResourceBudgetError

DEFAULT_ENTRY_BUDGET = 10**8

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


def decode_history(code: int, sizes) -> list[int]:
    """Invert :func:`encode_history` for a prefix spanning all of ``sizes``."""
    total = 1
    for c in sizes:
        total *= int(c)
    if not 0 <= code < total:
        raise InvalidArgumentError(f"history code {code} out of range (< {total})")
    out = [0] * len(sizes)
    for j in range(len(sizes) - 1, -1, -1):
        c = int(sizes[j])
        out[j] = code % c
        code //= c
    return out


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


class StageAlphabets:
    """Stage count and per-stage source and reproduction alphabet sizes.

    Parameters
    ----------
    n_stages : int
        Number of stages (time indices 0..n_stages-1).
    x_sizes, y_sizes : sequence of int
        Alphabet sizes |X_i| and |Y_i|, one per stage.
    entry_budget : int
        Bound on the scalar entries of any dense full-history table derived
        from these alphabets; constructions that would exceed it raise
        :class:`ResourceBudgetError`.

    Counts and sizes must be integers (an integral float is accepted).
    """

    def __init__(self, n_stages, x_sizes, y_sizes, entry_budget=DEFAULT_ENTRY_BUDGET):
        self.n_stages = n = _count(n_stages, "n_stages")
        self.entry_budget = _count(entry_budget, "entry_budget")
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
            if entries > self.entry_budget:
                raise ResourceBudgetError(
                    f"full-history pair table of {n} stages needs more than "
                    f"{self.entry_budget} entries (the budget)")

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
# Row validation shared by sources and policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowViolation:
    """One invalid probability row: where it is and by how much it fails."""
    kind: str          # "source" or "policy"
    stage: int
    history: int       # history code indexing the row
    row_sum: float
    min_entry: float

    @property
    def deficit(self) -> float:
        return 1.0 - self.row_sum

    def __str__(self):
        parts = [f"{self.kind} row at stage {self.stage}, history code {self.history}"]
        if abs(self.deficit) > ROW_SUM_TOL:
            parts.append(f"sums to {self.row_sum:.12g} (deficit {self.deficit:.12g})")
        if self.min_entry < 0:
            parts.append(f"has negative entry {self.min_entry:.12g}")
        return ": ".join([parts[0], "; ".join(parts[1:])])


def _check_rows(kind: str, stage: int, rows: np.ndarray) -> list[RowViolation]:
    """Collect violations for a 2-D array whose rows should be distributions."""
    sums = rows.sum(axis=1)
    mins = rows.min(axis=1) if rows.size else np.zeros(rows.shape[0])
    bad = (np.abs(sums - 1.0) > ROW_SUM_TOL) | (mins < 0)
    return [
        RowViolation(kind, stage, int(h), float(sums[h]), float(mins[h]))
        for h in np.nonzero(bad)[0]
    ]


def _renormalize(rows: np.ndarray) -> np.ndarray:
    out = np.asarray(rows, dtype=float).copy()
    out /= out.sum(axis=1, keepdims=True)
    return out


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
    """

    def __init__(self, alphabets: StageAlphabets, kernels, memory="full", validate=True):
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
        self.kernels = ks
        if validate:
            report = validate_source(self)
            if report:
                raise InvalidArgumentError(
                    "invalid source kernels: " + "; ".join(str(v) for v in report))
            self.kernels = [_renormalize(k) for k in self.kernels]

    def window_len(self, stage: int) -> int:
        return stage if self.memory == "full" else min(self.memory, stage)

    def window_hist_size(self, stage: int) -> int:
        w = self.window_len(stage)
        return math.prod(self.alphabets.x_sizes[stage - w: stage])

    def stage_rows(self, stage: int, n_hist: Optional[int] = None) -> np.ndarray:
        """Kernel rows expanded to ``n_hist`` history codes, each read modulo
        the kernel's own row count: shape ``(n_hist, x_sizes[stage])``.  The
        default is full-history indexing, ``n_hist = x_hist_size(stage-1)``;
        any suffix window at least as long as the kernel's works the same."""
        k = self.kernels[stage]
        if n_hist is None:
            n_hist = self.alphabets.x_hist_size(stage - 1)
        if k.shape[0] == n_hist:
            return k
        return k[np.arange(n_hist) % k.shape[0]]


def validate_source(source: SourceModel) -> list[RowViolation]:
    """Report every kernel row that is not a probability vector.

    Empty report iff the source is valid (sums within 1e-12, no negatives).
    """
    report = []
    for i, k in enumerate(source.kernels):
        report.extend(_check_rows("source", i, k))
    return report


def full_joint_source(source: SourceModel) -> np.ndarray:
    """Dense law of the whole trajectory X^{n-1} as a probability vector.

    Entry at code(x^{n-1}) is the stagewise product of kernel values; the
    result sums to 1 within 1e-10 for a valid source.
    """
    al = source.alphabets
    budget = al.entry_budget
    if al.x_trajectories() > budget:
        raise ResourceBudgetError(
            f"source trajectory table needs {al.x_trajectories()} entries, "
            f"budget is {budget}")
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
        last symbol of each prefix.
        """
        if self.mode == "stage_tables":
            return self.tables[stage]
        al = self.alphabets
        sx, sy = al.x_sizes[stage], al.y_sizes[stage]
        xi = np.arange(al.x_hist_size(stage)) % sx
        yi = np.arange(al.y_hist_size(stage)) % sy
        return self.rho[np.ix_(xi, yi)]

    def total_table(self) -> np.ndarray:
        """Dense d(x^n, y^n) over full trajectory codes (budget permitting)."""
        al = self.alphabets
        nx, ny = al.x_trajectories(), al.y_trajectories()
        if nx * ny > al.entry_budget:
            raise ResourceBudgetError("total distortion table exceeds entry budget")
        total = np.zeros((nx, ny))
        for i in range(al.n_stages):
            xdiv = math.prod(al.x_sizes[i + 1:])
            ydiv = math.prod(al.y_sizes[i + 1:])
            t = self.stage_table(i)
            total += t[np.ix_(np.arange(nx) // xdiv, np.arange(ny) // ydiv)]
        return total


def distortion_lookup(spec: DistortionSpec, stage: int, x_hist: int, y_hist: int) -> float:
    """rho_stage evaluated at one pair of prefix codes."""
    al = spec.alphabets
    if not 0 <= stage < al.n_stages:
        raise InvalidArgumentError(f"stage {stage} out of range")
    if not 0 <= x_hist < al.x_hist_size(stage):
        raise InvalidArgumentError(f"x history code {x_hist} out of range at stage {stage}")
    if not 0 <= y_hist < al.y_hist_size(stage):
        raise InvalidArgumentError(f"y history code {y_hist} out of range at stage {stage}")
    if spec.mode == "single_letter":
        return float(spec.rho[x_hist % al.x_sizes[stage], y_hist % al.y_sizes[stage]])
    return float(spec.tables[stage][x_hist, y_hist])


# ---------------------------------------------------------------------------
# Causal reproduction policy
# ---------------------------------------------------------------------------

class CausalPolicy:
    """Reproduction kernels q_i(y_i | y^{i-1}, x^i), the optimization variable.

    ``kernels[i]`` has shape ``(y_hist_size(i-1), x_hist_size(i), y_sizes[i])``
    and each row along the last axis is a probability vector.
    """

    def __init__(self, alphabets: StageAlphabets, kernels, validate=True):
        self.alphabets = alphabets
        n = alphabets.n_stages
        if len(kernels) != n:
            raise InvalidArgumentError(f"need {n} kernels, got {len(kernels)}")
        ks = []
        for i, k in enumerate(kernels):
            k = np.asarray(k, dtype=float)
            want = (alphabets.y_hist_size(i - 1), alphabets.x_hist_size(i),
                    alphabets.y_sizes[i])
            if k.shape != want:
                raise InvalidArgumentError(
                    f"policy kernel {i} has shape {k.shape}, expected {want}")
            ks.append(k)
        self.kernels = ks
        if validate:
            report = validate_policy(self)
            if report:
                raise InvalidArgumentError(
                    "invalid policy kernels: " + "; ".join(str(v) for v in report))
            self.kernels = [
                _renormalize(k.reshape(-1, k.shape[-1])).reshape(k.shape)
                for k in self.kernels
            ]

    @classmethod
    def identity(cls, alphabets: StageAlphabets):
        """Deterministic y_i := x_i (needs y_sizes >= x_sizes per stage)."""
        ks = []
        for i in range(alphabets.n_stages):
            sx, sy = alphabets.x_sizes[i], alphabets.y_sizes[i]
            if sy < sx:
                raise InvalidArgumentError("identity policy needs |Y_i| >= |X_i|")
            yh = alphabets.y_hist_size(i - 1)
            xh = alphabets.x_hist_size(i)
            k = np.zeros((yh, xh, sy))
            last = np.arange(xh) % sx
            k[:, np.arange(xh), last] = 1.0
            ks.append(k)
        return cls(alphabets, ks, validate=False)

    @classmethod
    def constant(cls, alphabets: StageAlphabets, symbols):
        """Deterministic policy emitting ``symbols[i]`` at stage i, ignoring x."""
        ks = []
        for i in range(alphabets.n_stages):
            k = np.zeros((alphabets.y_hist_size(i - 1), alphabets.x_hist_size(i),
                          alphabets.y_sizes[i]))
            k[:, :, int(symbols[i])] = 1.0
            ks.append(k)
        return cls(alphabets, ks, validate=False)

    @classmethod
    def uniform(cls, alphabets: StageAlphabets):
        ks = []
        for i in range(alphabets.n_stages):
            sy = alphabets.y_sizes[i]
            k = np.full((alphabets.y_hist_size(i - 1), alphabets.x_hist_size(i), sy),
                        1.0 / sy)
            ks.append(k)
        return cls(alphabets, ks, validate=False)


def validate_policy(policy: CausalPolicy) -> list[RowViolation]:
    """Report every policy row that is not a probability vector."""
    report = []
    for i, k in enumerate(policy.kernels):
        report.extend(_check_rows("policy", i, k.reshape(-1, k.shape[-1])))
    return report


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
