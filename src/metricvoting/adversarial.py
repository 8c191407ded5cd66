"""Two-cluster lower-bound instances and the necessity experiment.

The construction places a large "near" cluster A (mass alpha spread over N
discrete locations, pairwise distances i.i.d. uniform on [1,2]) far away from
a small "far" cluster F (mass beta on M atoms discretizing the interval
[1,2], with the one-sided metric d(x,x') = min(x,x')).  Cross-cluster
distances sit in [D, D+1] and encode, per far atom, an independent uniform
random ordering of the near locations via a tiny hashed perturbation.

Distances are derived lazily from (seed, indices) and never stored; the
space holds only the masses and their cumulative sum, 16 bytes per location
(64 MiB held, and 64 MiB at peak while building at N = 2^22).  Every near
and cross pair is one keyed splitmix64 hash, (key >> 11) * mult + offset,
whose word, multiplier and offset follow from the pair's larger index; an
election's pass of near rows against a slate hashes as one block, in row
chunks that fit in L2 (``TwoClusterDistance._outer``), which the election
turns into its cost terms in place.  The experiment then measures
how often a representative slate hands the election to the far cluster, and
the distortion that follows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import elections
from ._hash import _INV53, U64, _mix64_inplace, seed_word
from .condition import condition_sides
from .montecarlo import _fan_out, _trials
from .scoring import RuleFamily
from .spaces import MetricSpace

_IDENTITY_TOL = 1e-12
_COST_TOL = 1e-9


@dataclass(frozen=True)
class AdversarialParams:
    """Parameter ledger for one two-cluster instance.

    far_mass is the root in (0, 1/2) of
    (2b+1)(1-b)/(3b) = 2*target_distortion - 1, which is exactly the
    distortion a far-cluster winner forces.  near_candidate_cap is a
    high-probability upper bound on the fraction of candidates drawn from
    the near cluster, chosen so the slack factor 2 in the shifted
    inequality absorbs the ranking noise.
    """

    target_distortion: float  # rho
    far_mass: float  # beta
    near_mass: float  # alpha = 1 - beta
    cluster_distance: float  # D = (1 + beta)/beta
    near_candidate_cap: float  # mu
    min_candidates: int  # n0, tail-bound floor
    n_candidates: int  # n
    near_locations: int  # N
    far_atoms: int  # M
    rank_spacing: float  # eps = 1/(8*M*N)

    def __post_init__(self):
        b = self.far_mass
        identity = (2 * b + 1) * (1 - b) / (3 * b)
        if abs(identity - (2 * self.target_distortion - 1)) > _IDENTITY_TOL:
            raise ValueError("far_mass does not solve the distortion identity")
        mu, a = self.near_candidate_cap, self.near_mass
        if not (mu >= 0.5 + a / 2 and 4 * mu * (1 - mu) < a * (1 - a)):
            raise ValueError("near_candidate_cap violates its defining constraints")
        if self.rank_spacing * self.near_locations >= 1 / (4 * self.far_atoms):
            raise ValueError("rank spacing too coarse to preserve atom ordering")


def solve_parameters(
    rho: float,
    n_override: int = None,
    big_n_override: int = None,
    m_atoms: int = 512,
) -> AdversarialParams:
    """Derive the full parameter ledger from a target distortion rho > 1.

    Defaults follow the construction (n = n0, N = n^3); overrides are
    first-class for desk-scale runs.  An n below the tail-bound floor n0 is
    allowed but warned about: the event-probability guarantee needs n >= n0.
    """
    if not 1 < rho < math.inf:
        raise ValueError("rho must satisfy 1 < rho < inf")
    if m_atoms < 2 or (n_override is not None and n_override < 2):
        raise ValueError("m_atoms and n must be >= 2")
    # 2b^2 + (6 rho - 4) b - 1 = 0, root in (0, 1/2)
    lin = 6 * rho - 4
    beta = 2 / (lin + math.sqrt(lin * lin + 8))  # the root, free of cancellation
    alpha = 1 - beta
    mu = (1 + math.sqrt(1 - alpha * (1 - alpha))) / 2 + 1e-6
    if mu >= 1:
        raise ValueError("no valid near-candidate cap below 1")
    floor = 4 / beta**2
    n0 = round(floor) if abs(floor - round(floor)) < 1e-9 else math.ceil(floor)
    n = n0 if n_override is None else n_override
    big_n = n**3 if big_n_override is None else big_n_override
    if big_n < 1:
        raise ValueError("near-location count must be >= 1")
    if max(big_n, m_atoms) > 1 << 32:  # hash keys pack two 32-bit indices
        raise ValueError("near-location and far-atom counts must be at most 2^32")
    if n < n0:
        warnings.warn(
            f"n={n} is below the tail-bound floor n0={n0}; "
            "the slate-event probability guarantee does not apply"
        )
    return AdversarialParams(
        target_distortion=rho,
        far_mass=beta,
        near_mass=alpha,
        cluster_distance=(1 + beta) / beta,
        near_candidate_cap=mu,
        min_candidates=n0,
        n_candidates=n,
        near_locations=big_n,
        far_atoms=m_atoms,
        rank_spacing=1.0 / (8 * m_atoms * big_n),
    )


@dataclass(frozen=True, eq=False)
class TwoClusterDistance:
    """Pure derived distance for the two-cluster space; picklable and
    safe for concurrent evaluation (stateless apart from read-only fields)."""

    near_count: int
    atom_positions: np.ndarray  # far-atom midpoints in [1, 2]
    cluster_distance: float
    perturb_scale: float  # eps * N, strictly below the atom half-gap
    word_near: np.uint64
    word_cross: np.uint64

    def __call__(self, i, j) -> np.ndarray:
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        # outer-product fast path: a column of an ascending run of rows
        # against a row of columns (the election hot loop)
        if i.ndim == 2 and j.ndim == 2 and i.shape[1] == 1 and j.shape[0] == 1:
            rows, cols = i[:, 0], j[0, :]
            if (np.diff(rows) == 1).all():
                return self._outer(rows, cols, int(np.count_nonzero(rows < self.near_count)))
        return self._pairs(i, j)

    def _terms(self, hi):
        """Whether ``hi`` is a far atom, its atom index (0 if near), and the
        key word, multiplier and offset of each pair whose larger index it
        is: word_near, 2^-53 and 1 for a near pair, and word_cross,
        2^-53 * scale and D + position / 4 against an atom (2^-53 * scale
        rounds as 2^-53 then scale do, as 2^-53 is a power of two)."""
        far = hi >= self.near_count
        atom = np.where(far, hi - self.near_count, 0)
        word = np.where(far, self.word_cross, self.word_near)
        mult = np.where(far, _INV53 * self.perturb_scale, _INV53)
        offset = np.where(far, self.cluster_distance + self.atom_positions[atom] / 4.0, 1.0)
        return far, atom, word, mult, offset

    def _pairs(self, i, j) -> np.ndarray:
        """The general path: distances for broadcast int64 index arrays, in
        chunks of a quarter pass, as ``_fill`` holds some seven temporaries
        of a chunk's size."""
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        out = np.empty(lo.shape)
        flat, lo, hi = out.reshape(-1), lo.reshape(-1), hi.reshape(-1)
        step = max(1, elections._PASS_ELEMENTS // 4)
        for s in range(0, flat.size, step):
            self._fill(lo[s : s + step], hi[s : s + step], flat[s : s + step])
        return out

    def _fill(self, lo, hi, out):
        """Fills ``out`` with the distances of the pairs lo <= hi.  A near
        pair keys (lo << 32 | hi) ^ word_near, a near lo against atom
        a = hi - N keys (a << 32 | lo) ^ word_cross, and the mixed key gives
        (key >> 11) * mult + offset; two atoms are min(position) apart, and
        a point is 0 from itself."""
        far, atom, word, mult, offset = self._terms(hi)
        key = np.where(far, atom, lo).view(U64)
        key <<= U64(32)
        key |= np.where(far, lo, hi).view(U64)
        key ^= word
        _mix64_inplace(key, np.empty_like(key))
        key >>= U64(11)
        np.multiply(key.view(np.int64), mult, out=out)
        out += offset
        both, pos = np.flatnonzero(lo >= self.near_count), self.atom_positions  # two atoms
        out[both] = np.minimum(pos[lo[both] - self.near_count], pos[atom[both]])
        out[lo == hi] = 0.0

    def _outer(self, rows, cols, split) -> np.ndarray:
        """rows x cols block for an ascending run of rows, whose first
        ``split`` are the near rows, filled in row chunks of at most half
        ``elections._PASS_ELEMENTS`` elements.

        A chunk's near rows r are one keyed hash over every column c, with
        the ``_terms`` of c: a near column below the rows keys
        (c << 32 | r) ^ word_near, one above them (r << 32 | c) ^ word_near,
        and a far atom a keys (a << 32 | r) ^ word_cross.  Near columns
        inside the chunk's row range hold the diagonal and the rows where a
        pair's min and max swap: the run meets column c's diagonal at row
        c - r[0], the rows before it are re-keyed and the diagonal zeroed.
        Far rows take the general path for every column."""
        far, atoms, word, mult, offset = self._terms(cols)
        c = cols.astype(U64)
        # a column's key part below the rows: c << 32, or a << 32 for an atom
        below = np.where(far, atoms, cols).view(U64) << U64(32)

        out = np.empty((rows.size, cols.size))
        # half a pass: the key, scratch and output chunks (1.5 MiB) stay in L2
        step = max(1, elections._PASS_ELEMENTS // 2 // max(1, cols.size))
        key = np.empty((min(step, split), cols.size), U64)
        scratch = np.empty_like(key)
        for lo in range(0, rows.size, step):
            hi = min(lo + step, rows.size)
            mid = min(max(split, lo), hi)  # near rows lo..mid, far rows mid..hi
            if mid < hi:
                out[mid:hi] = self._pairs(rows[mid:hi, None], cols[None])
            if lo == mid:
                continue
            r, k, t = rows[lo:mid], key[: mid - lo], scratch[: mid - lo]
            up = ~far & (cols > r[-1])
            at = np.flatnonzero(~far & ~up & (cols >= r[0]))  # inside columns
            r = r.view(U64)
            np.left_shift(r[:, None], np.where(up, U64(32), U64(0)), out=k)
            k ^= np.where(up, c, below) ^ word
            # an inside column's rows before the diagonal key (r << 32 | c)
            for j, i in zip(at, cols[at] - rows[lo]):
                np.bitwise_xor(r[:i] << U64(32), c[j] ^ self.word_near, out=k[:i, j])
            _mix64_inplace(k, t)
            k >>= U64(11)  # below 2^53: int64 holds it and converts faster
            block = out[lo:mid]
            block[...] = k.view(np.int64)
            block *= mult
            block += offset
            block[cols[at] - rows[lo], at] = 0.0
        return out


@dataclass(frozen=True, eq=False)
class AdversarialInstance:
    params: AdversarialParams
    seed: int
    space: MetricSpace


def atom_positions(m_atoms: int) -> np.ndarray:
    """Far-atom midpoints 1 + (j + 1/2)/M discretizing the interval [1, 2]."""
    return 1.0 + (np.arange(m_atoms) + 0.5) / m_atoms


def build_instance(params: AdversarialParams, seed: int) -> AdversarialInstance:
    """Realize the two-cluster metric space for one seed."""
    big_n, m = params.near_locations, params.far_atoms
    mass = np.concatenate(
        [np.full(big_n, params.near_mass / big_n), np.full(m, params.far_mass / m)]
    )
    block = TwoClusterDistance(
        near_count=big_n,
        atom_positions=atom_positions(m),
        cluster_distance=params.cluster_distance,
        perturb_scale=params.rank_spacing * big_n,
        word_near=seed_word(seed, 1),
        word_cross=seed_word(seed, 2),
    )
    label = f"two-cluster-rho{params.target_distortion:g}-N{big_n}-M{m}-seed{seed}"
    space = MetricSpace(mass, block_fn=block, label=label)
    return AdversarialInstance(params=params, seed=seed, space=space)


@dataclass(frozen=True)
class EventStatus:
    """The four sub-events of a representative slate, and their conjunction."""

    no_colocated_near_candidates: bool
    far_fraction_ok: bool
    near_fraction_ok: bool
    far_gaps_ok: bool

    @property
    def occurred(self) -> bool:
        return (
            self.no_colocated_near_candidates
            and self.far_fraction_ok
            and self.near_fraction_ok
            and self.far_gaps_ok
        )


def check_event(params: AdversarialParams, slate) -> EventStatus:
    """Evaluate the representative-slate event for one drawn slate.

    Same-atom or adjacent-atom far candidates both count as gap failures
    (the conservative discretization of the continuum spacing condition).
    """
    slate = np.asarray(slate, dtype=np.int64)
    n = slate.size
    far = slate >= params.near_locations
    near_locs = slate[~far]
    c_far = int(far.sum())
    c_near = n - c_far
    atoms = np.sort(slate[far] - params.near_locations)
    gaps_ok = bool(np.all(np.diff(atoms) >= 2)) if c_far > 1 else True
    return EventStatus(
        no_colocated_near_candidates=len(np.unique(near_locs)) == c_near,
        far_fraction_ok=2 * c_far >= params.far_mass * n,
        near_fraction_ok=2 * c_near >= params.near_mass * n,
        far_gaps_ok=gaps_ok,
    )


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    event: EventStatus
    far_candidates: int
    winner_from_far: bool
    distortion: float
    winner_cost: float
    optimum_cost: float


@dataclass(frozen=True)
class ExperimentReport:
    """Per-trial records plus the aggregates the necessity argument needs."""

    params: AdversarialParams
    family_spec: str
    seed: int
    trials: int
    condition_holds_at_cap: bool  # True means the necessity premise FAILS
    records: tuple

    @property
    def pr_event(self) -> float:
        return sum(r.event.occurred for r in self.records) / self.trials

    @property
    def pr_far_winner(self) -> float:
        return sum(r.winner_from_far for r in self.records) / self.trials

    @property
    def pr_far_winner_given_event(self) -> float:
        under = [r for r in self.records if r.event.occurred]
        if not under:
            return math.nan
        return sum(r.winner_from_far for r in under) / len(under)

    @property
    def mean_distortion(self) -> float:
        return float(np.mean([r.distortion for r in self.records]))

    @property
    def stderr_distortion(self) -> float:
        vals = [r.distortion for r in self.records]
        if len(vals) < 2:
            return 0.0
        return float(np.std(vals, ddof=1) / math.sqrt(len(vals)))

    @property
    def mean_distortion_given_far(self) -> float:
        vals = [r.distortion for r in self.records if r.winner_from_far]
        return float(np.mean(vals)) if vals else math.nan

    @property
    def min_distortion_given_far(self) -> float:
        vals = [r.distortion for r in self.records if r.winner_from_far]
        return float(min(vals)) if vals else math.nan


def _experiment_batch(params, seed, vector, start, count):
    # built per batch, so a fanned-out parent never realizes the instance
    space = build_instance(params, seed).space
    floor = params.near_mass * params.cluster_distance
    records = []
    for batch in _trials(space, vector, seed, start, count):
        for t, slate, winner, winner_cost, optimum_cost, distortion in zip(*batch):
            winner_far = bool(winner >= params.near_locations)
            if winner_far and winner_cost < floor - _COST_TOL:
                raise RuntimeError(
                    f"trial {t}: far winner cost {float(winner_cost)} below "
                    f"the alpha*D floor {floor}"
                )
            records.append(
                TrialRecord(
                    trial=t,
                    event=check_event(params, slate),
                    far_candidates=int((slate >= params.near_locations).sum()),
                    winner_from_far=winner_far,
                    distortion=float(distortion),
                    winner_cost=float(winner_cost),
                    optimum_cost=float(optimum_cost),
                )
            )
    return records


def run_experiment(
    rho: float,
    family: RuleFamily,
    trials: int,
    seed: int,
    n_override: int = None,
    big_n_override: int = None,
    m_atoms: int = 512,
    jobs: int = 1,
) -> ExperimentReport:
    """Run the necessity experiment: build the instance, draw slates, elect.

    The construction's premise is that the characterization inequality is
    violated at y = near_candidate_cap for the chosen n; this is verified
    exactly and a warning is emitted when it is not (the experiment still
    runs, as a control).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    params = solve_parameters(rho, n_override, big_n_override, m_atoms)
    vector = family.score_vector(params.n_candidates)
    lhs, rhs = condition_sides(vector, Fraction(params.near_candidate_cap))
    condition_holds = lhs > rhs
    if condition_holds:
        warnings.warn(
            f"{family.spec} satisfies the characterization inequality at "
            f"y={params.near_candidate_cap:.6f}, n={params.n_candidates}; the "
            "far-cluster takeover argument does not apply to this rule"
        )

    parts = _fan_out(_experiment_batch, (params, seed, vector), 0, trials, jobs)
    return ExperimentReport(
        params=params,
        family_spec=family.spec,
        seed=seed,
        trials=trials,
        condition_holds_at_cap=bool(condition_holds),
        records=tuple(r for part in parts for r in part),
    )
